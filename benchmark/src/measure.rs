//! The two kinds of run: the untraced run that gives the end-to-end
//! metrics, and the traced run that gives the per-layer ones.

use crate::replay::BatchTiming;
use crate::run::{prepare, run_once, Rep};
use crate::spans::{Layer, Spans};
use crate::workload::Shape;
use gts_core::prelude::*;
use gts_core::sched::StateOracle;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Extra set-ups timed before each repetition, so `setup_s` is a median
/// over many samples spread across the run even when few repetitions fit.
const SETUP_SAMPLES: usize = 15;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: jobs in the trace, once per repetition.
    pub attempted: u64,
    /// Operations that failed the correctness gate.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: Vec<Metric>,
    /// Repetitions made.
    pub reps: usize,
    /// Placements the reference gate re-decided.
    pub gate_checked: u64,
    /// `run_iteration` calls that returned an outcome, per replay.
    pub decide_samples: u64,
    /// Mean queue wait of completed jobs, seconds.
    pub mean_wait_s: f64,
}

/// Median of `xs` (the mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `sorted` (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Runs `rep` at least `min_reps` times and then again while the next
/// repetition still fits in `budget`. Both callers alternate two kinds of
/// repetition, so the next one is predicted to take as long as the
/// longest earlier one of its kind (same index parity). Time spent in the
/// untimed placement gate does not count against the budget.
fn repeat(budget: Duration, min_reps: usize, mut rep: impl FnMut(usize) -> Rep) -> Vec<Rep> {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut longest = [0.0f64; 2];
    loop {
        let t = Instant::now();
        let r = rep(reps.len());
        let kind = reps.len() % 2;
        longest[kind] = longest[kind].max(t.elapsed().as_secs_f64() - secs(r.gate_ns));
        reps.push(r);
        let gate_s: f64 = reps.iter().map(|r| secs(r.gate_ns)).sum();
        let spent = started.elapsed().as_secs_f64() - gate_s;
        // Until a repetition of the next kind has run, guess from this one.
        let next = if reps.len() >= 2 { longest[reps.len() % 2] } else { longest[kind] };
        if reps.len() >= min_reps && spent + next > budget.as_secs_f64() {
            return reps;
        }
    }
}

/// Jobs one repetition failed: not completed, replayed differently from
/// the log, or placed differently from the reference. A repetition whose
/// placements differ from the first repetition's (same inputs) fails
/// every job.
fn failed_jobs(rep: &Rep, first_fingerprint: u64) -> u64 {
    if rep.fingerprint != first_fingerprint {
        return rep.jobs;
    }
    let mut failed = rep.incomplete.clone();
    failed.extend(rep.replay.iter().flat_map(|r| r.mismatched.iter().copied()));
    failed.extend(rep.reference.iter().flat_map(|g| g.mismatched.iter().copied()));
    failed.len() as u64
}

/// The report fields every run shares, from its repetitions.
fn outcome(reps: &[Rep], metrics: Vec<Metric>) -> Outcome {
    let first = &reps[0];
    Outcome {
        attempted: reps.iter().map(|r| r.jobs).sum(),
        failed: reps.iter().map(|r| failed_jobs(r, first.fingerprint)).sum(),
        metrics,
        reps: reps.len(),
        gate_checked: reps.iter().filter_map(|r| r.reference.as_ref()).map(|g| g.checked).sum(),
        decide_samples: first.replay.as_ref().map_or(0, |r| r.decide_ns().count() as u64),
        mean_wait_s: first.mean_wait_s,
    }
}

/// Each event batch's best timing over the run's replays. Every replay
/// makes the same calls on the same states, so the differences between
/// them come from outside the program (other tenants of the host take the
/// CPU away in slices of milliseconds), which only ever adds time. The
/// per-batch minimum removes that; the program's own cost, thread spawns
/// included, stays.
fn best_per_batch(reps: &[Rep]) -> Vec<BatchTiming> {
    let mut replays = reps.iter().filter_map(|r| r.replay.as_ref());
    let mut best = replays.next().expect("a run replays").per_batch.clone();
    for replay in replays {
        for (b, r) in best.iter_mut().zip(&replay.per_batch) {
            b.busy_ns = b.busy_ns.min(r.busy_ns);
            b.decide_ns = b.decide_ns.zip(r.decide_ns).map(|(x, y)| x.min(y));
        }
    }
    best
}

/// The untraced run: the end-to-end metrics. Every repetition simulates;
/// every other one, starting with the first, also replays the scheduler
/// view, which gives the simulation figure about twice the samples. At
/// least three repetitions run, so there are always two replays to
/// compare. `setup_s` is the median of every set-up; `sim_jobs_per_s`
/// uses the run's fastest simulation, for the same reason the scheduler
/// figures use each event batch's fastest replay ([`best_per_batch`]).
pub fn end_to_end(shape: Shape, seed: u64, budget: Duration) -> Outcome {
    let mut setup_s = Vec::new();
    let reps = repeat(budget, 3, |i| {
        let setups = (0..SETUP_SAMPLES).map(|_| secs(prepare(shape, seed, None).setup_ns));
        setup_s.extend(setups);
        run_once(shape, seed, None, i % 2 == 0, i == 0)
    });
    setup_s.extend(reps.iter().map(|r| secs(r.setup_ns)));
    let fastest_sim = reps.iter().map(|r| r.sim_ns).min().expect("at least one repetition");
    let best = best_per_batch(&reps);
    let busy: u64 = best.iter().map(|b| b.busy_ns).sum();
    let mut decide: Vec<u64> = best.iter().filter_map(|b| b.decide_ns).collect();
    decide.sort_unstable();
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("setup_s", median(&setup_s), "s"),
        m("sim_jobs_per_s", reps[0].jobs as f64 / secs(fastest_sim), "jobs/s"),
        m("sched_events_per_s", best.len() as f64 / secs(busy), "events/s"),
        m("sched_decide_p50_us", quantile(&decide, 0.50) as f64 / 1e3, "us"),
        m("sched_decide_p99_us", quantile(&decide, 0.99) as f64 / 1e3, "us"),
        m("peak_rss_mb", reps[0].peak_rss_bytes as f64 / 1e6, "MB"),
    ];
    outcome(&reps, metrics)
}

/// Median per-call time of `drb_map` for a `width`-GPU job on an idle
/// Minsky machine, microseconds.
fn drb_call_us(width: u32) -> f64 {
    const CALLS: u32 = 64;
    const BATCHES: usize = 31;
    let machine = power8_minsky();
    let profiles = std::sync::Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = std::sync::Arc::new(ClusterTopology::homogeneous(machine, 1));
    let state = ClusterState::new(cluster, profiles);
    let job = JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, width);
    let graph = JobGraph::from_spec(&job);
    let free = state.free_gpus(MachineId(0));
    let oracle = StateOracle::new(&state, MachineId(0), &job);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                let gpus = drb_map(black_box(&graph), &free, &oracle, UtilityWeights::default());
                black_box(gpus.expect("an idle machine fits the job"));
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
        })
        .collect();
    median(&batches)
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(rep: &Rep, spans: &Spans) -> Vec<Metric> {
    let r = rep.replay.as_ref().expect("traced repetitions replay");
    let sched = [Layer::Iteration, Layer::Submit, Layer::Complete];
    let busy_s: f64 = sched.iter().map(|&l| spans.total_s(l)).sum();
    let calls: u64 = sched.iter().map(|&l| spans.count(l)).sum();
    let sim_wall_s = spans.total_s(Layer::SimRun);
    let outcomes = r.placed + r.postponed + r.waiting;
    let count = |n: u64| n as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("topo.build_s", spans.total_s(Layer::TopoBuild), "s"),
        m("perf.profiles_s", spans.total_s(Layer::PerfProfiles), "s"),
        m("job.generate_s", spans.total_s(Layer::JobGenerate), "s"),
        m("sim.new_s", spans.total_s(Layer::SimNew), "s"),
        m("sim.wall_s", sim_wall_s, "s"),
        m("sim.self_s", sim_wall_s - busy_s, "s"),
        m("sim.events", count(rep.sim_events), "count"),
        m("sched.busy_s", busy_s, "s"),
        m("sched.iteration_s", spans.total_s(Layer::Iteration), "s"),
        m("sched.submit_s", spans.total_s(Layer::Submit), "s"),
        m("sched.complete_s", spans.total_s(Layer::Complete), "s"),
        m("sched.calls", count(calls), "count"),
        m("sched.decide_calls", count(r.decide_ns().count() as u64), "count"),
        m("sched.placed", count(r.placed), "count"),
        m("sched.postponed", count(r.postponed), "count"),
        m("sched.waiting", count(r.waiting), "count"),
        m("sched.useful_ratio", ratio(r.placed, outcomes), "ratio"),
        m("sched.cache_hit_ratio", ratio(r.cache.hits, r.cache.hits + r.cache.misses), "ratio"),
        m("sched.cache_evictions", count(r.cache.evictions), "count"),
        m("sched.admission_skip_ratio", ratio(r.admission.1, r.admission.0), "ratio"),
        m("sched.bound_prune_ratio", ratio(r.bound.1, r.bound.0), "ratio"),
        m("sched.replay_hits", count(r.decision_replay.hits), "count"),
        m("sched.replay_shards_reeval", count(r.decision_replay.shards_reeval), "count"),
        m("sched.replay_fallbacks", count(r.decision_replay.full_fallbacks), "count"),
        m("map.drb_evals", count(r.cache.misses), "count"),
    ]
}

/// The traced run: repetitions alternate traced and untraced (traced
/// first, at least one of each). Per-layer metrics
/// are medians over the traced repetitions; `trace.overhead_s` is the
/// median traced repetition's wall time minus the median untraced one's.
pub fn per_layer(shape: Shape, seed: u64, budget: Duration) -> Outcome {
    let mut traced: Vec<Vec<Metric>> = Vec::new();
    let reps = repeat(budget, 2, |i| {
        if i % 2 == 1 {
            return run_once(shape, seed, None, true, false);
        }
        let mut spans = Spans::default();
        let rep = run_once(shape, seed, Some(&mut spans), true, i == 0);
        traced.push(layer_metrics(&rep, &spans));
        rep
    });
    let wall = |parity: usize| {
        let w: Vec<f64> = reps.iter().skip(parity).step_by(2).map(|r| secs(r.wall_ns)).collect();
        median(&w)
    };
    let mut metrics: Vec<Metric> = traced[0]
        .iter()
        .enumerate()
        .map(|(k, m)| Metric {
            value: median(&traced.iter().map(|t| t[k].value).collect::<Vec<_>>()),
            ..m.clone()
        })
        .collect();
    for (name, width) in
        [("map.drb_call_us_w1", 1), ("map.drb_call_us_w2", 2), ("map.drb_call_us_w4", 4)]
    {
        metrics.push(Metric { name, value: drb_call_us(width), unit: "us" });
    }
    metrics.push(Metric { name: "trace.overhead_s", value: wall(0) - wall(1), unit: "s" });
    outcome(&reps, metrics)
}
