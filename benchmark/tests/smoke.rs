//! Smoke-size checks of the benchmark's own code: the replay, the
//! placement gate, the workloads' defining properties and the tracer.

use gts_benchmark::reference;
use gts_benchmark::replay::Replay;
use gts_benchmark::run::{fingerprint, run_once, Rep};
use gts_benchmark::spans::Spans;
use gts_benchmark::workload::{
    build_cluster, build_profiles, generate_trace, sim_config, Size, Workload,
};
use gts_core::prelude::*;

const SEED: u64 = 11;

fn smoke(w: Workload, spans: Option<&mut Spans>) -> Rep {
    run_once(w.shape(Size::Smoke), SEED, spans, true, true)
}

fn replayed(rep: &Rep) -> &Replay {
    rep.replay.as_ref().expect("the scheduler view ran")
}

#[test]
fn replay_and_gate_pass_on_every_workload() {
    for w in Workload::ALL {
        let rep = smoke(w, None);
        assert!(rep.incomplete.is_empty(), "{}: jobs left incomplete", w.name());
        assert!(replayed(&rep).mismatched.is_empty(), "{}: replay diverged from the log", w.name());
        assert_eq!(replayed(&rep).placed, rep.jobs, "{}: every job is placed once", w.name());
        let gate = rep.reference.expect("the gate ran");
        assert!(gate.checked > 0, "{}: the gate checked nothing", w.name());
        assert!(gate.mismatched.is_empty(), "{}: placements differ from the reference", w.name());
    }
}

/// The gate's premise, checked whole where it is affordable: a full
/// sequential single-shard reference run places every job exactly as the
/// shipped defaults do.
#[test]
fn full_reference_run_matches_the_default_engine() {
    for w in Workload::ALL {
        let shape = w.shape(Size::Smoke);
        let cluster = build_cluster(&shape);
        let profiles = build_profiles(&cluster, SEED);
        let config = sim_config(&shape).with_eval(EvalParams::sequential()).with_shards(1);
        let reference =
            Simulation::new(cluster, profiles, config).run(generate_trace(&shape, SEED));
        assert_eq!(fingerprint(&reference), smoke(w, None).fingerprint, "{}", w.name());
    }
}

/// The gate is not vacuous: one flipped bit in one placement record is
/// reported against that job.
#[test]
fn gate_reports_a_changed_placement() {
    let shape = Workload::DcStream.shape(Size::Smoke);
    let cluster = build_cluster(&shape);
    let profiles = build_profiles(&cluster, SEED);
    let trace = generate_trace(&shape, SEED);
    let sim = Simulation::new(cluster.clone(), profiles.clone(), sim_config(&shape));
    let mut result = sim.run(trace.clone());
    let record = &mut result.records[0];
    let victim = record.spec.id;
    record.utility = f64::from_bits(record.utility.to_bits() ^ 1);
    let gate = reference::check(&cluster, &profiles, shape.policy, &trace, &result, 1);
    assert_eq!(gate.mismatched.into_iter().collect::<Vec<_>>(), vec![victim]);
}

#[test]
fn workloads_keep_the_property_they_were_chosen_for() {
    let stream = smoke(Workload::DcStream, None);
    assert_eq!(stream.mean_wait_s, 0.0, "dc_stream must keep up");

    let backlog = smoke(Workload::DcBacklog, None);
    assert!(replayed(&backlog).waiting > 0, "dc_backlog must produce waiting outcomes");
    assert!(backlog.mean_wait_s > 0.0, "dc_backlog must queue");
    assert!(replayed(&backlog).decision_replay.hits > 0, "dc_backlog retries must replay");

    let flat = smoke(Workload::FlatTopoP, None);
    assert_eq!(replayed(&flat).admission.0, 0, "flat_topo_p must bypass shard admission");
    assert_eq!(replayed(&flat).decision_replay.hits, 0, "flat_topo_p must bypass decision replay");
    assert!(replayed(&flat).postponed > 0, "flat_topo_p must postpone");
}

/// Counters that do not depend on thread timing must read the same with
/// and without spans. (Eval-cache hit and miss counts can shift by a few
/// under the parallel shard fan-out, so they are not compared.)
#[test]
fn traced_and_untraced_runs_report_equal_counters() {
    for w in Workload::ALL {
        let plain = smoke(w, None);
        let mut spans = Spans::default();
        let traced = smoke(w, Some(&mut spans));
        let counters = |r: &Rep| {
            (
                r.fingerprint,
                r.sim_events,
                replayed(r).batches,
                replayed(r).calls,
                replayed(r).decide_ns().count(),
                (replayed(r).placed, replayed(r).postponed, replayed(r).waiting),
                replayed(r).decision_replay,
                replayed(r).admission,
                replayed(r).bound,
            )
        };
        assert_eq!(counters(&plain), counters(&traced), "{}", w.name());
        let spans_calls = spans.count(gts_benchmark::spans::Layer::Iteration)
            + spans.count(gts_benchmark::spans::Layer::Submit)
            + spans.count(gts_benchmark::spans::Layer::Complete);
        assert_eq!(spans_calls, replayed(&traced).calls, "{}: one span per timed call", w.name());
    }
}
