//! One repetition of a workload: set-up, the simulation view and the
//! scheduler view, with the correctness facts each run is checked on.

use crate::reference::{self, RefCheck};
use crate::replay::{replay, Replay};
use crate::spans::{Layer, Spans};
use crate::workload::{build_cluster, build_profiles, generate_trace, sim_config, Shape};
use gts_core::prelude::*;
use std::collections::BTreeSet;
use std::time::Instant;

/// Times `f`, adding its duration to `ns` and recording a span when
/// tracing.
fn step<T>(spans: &mut Option<&mut Spans>, layer: Layer, ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    *ns += end.duration_since(start).as_nanos() as u64;
    if let Some(spans) = spans {
        spans.record(layer, 0, start, end);
    }
    out
}

/// A set-up workload, ready to simulate.
pub struct Prepared {
    /// The cluster topology.
    pub cluster: std::sync::Arc<ClusterTopology>,
    /// The cluster's profile library.
    pub profiles: std::sync::Arc<ProfileLibrary>,
    /// The seeded trace.
    pub trace: Vec<JobSpec>,
    /// The simulation, built but not run.
    pub sim: Simulation,
    /// How long the set-up took, nanoseconds.
    pub setup_ns: u64,
}

/// Builds a workload's inputs and its simulation, timing each step.
pub fn prepare(shape: Shape, seed: u64, mut spans: Option<&mut Spans>) -> Prepared {
    let mut ns = 0;
    let cluster = step(&mut spans, Layer::TopoBuild, &mut ns, || build_cluster(&shape));
    let profiles =
        step(&mut spans, Layer::PerfProfiles, &mut ns, || build_profiles(&cluster, seed));
    let trace = step(&mut spans, Layer::JobGenerate, &mut ns, || generate_trace(&shape, seed));
    let sim = step(&mut spans, Layer::SimNew, &mut ns, || {
        Simulation::new(
            std::sync::Arc::clone(&cluster),
            std::sync::Arc::clone(&profiles),
            sim_config(&shape),
        )
    });
    Prepared { cluster, profiles, trace, sim, setup_ns: ns }
}

/// A stable 64-bit digest (FNV-1a) of a run's placement records: every
/// job's GPUs, utility, placement and finish time, in job-id order, and
/// the jobs that could not be placed. Equal digests mean equal placement
/// histories.
pub fn fingerprint(result: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut records: Vec<&JobRecord> = result.records.iter().collect();
    records.sort_by_key(|r| r.spec.id);
    for r in records {
        eat(r.spec.id.0);
        eat(r.gpus.len() as u64);
        for g in &r.gpus {
            eat(u64::from(g.machine.0) << 32 | u64::from(g.gpu.0));
        }
        eat(r.utility.to_bits());
        eat(r.placed_at_s.to_bits());
        eat(r.finished_at_s.to_bits());
    }
    let mut unplaceable: Vec<u64> = result.unplaceable.iter().map(|j| j.id.0).collect();
    unplaceable.sort_unstable();
    eat(unplaceable.len() as u64);
    unplaceable.into_iter().for_each(&mut eat);
    h
}

/// Everything one repetition measured and checked.
#[derive(Debug)]
pub struct Rep {
    /// Set-up wall time, nanoseconds.
    pub setup_ns: u64,
    /// Wall time of `run_with_stats`, nanoseconds.
    pub sim_ns: u64,
    /// Wall time of the whole repetition but the placement gate,
    /// nanoseconds.
    pub wall_ns: u64,
    /// Entries in the simulation's event log.
    pub sim_events: u64,
    /// Jobs in the trace.
    pub jobs: u64,
    /// Peak resident memory after the simulation, bytes (0 if unknown).
    pub peak_rss_bytes: u64,
    /// Mean queue wait of completed jobs, seconds.
    pub mean_wait_s: f64,
    /// The placement fingerprint of this run.
    pub fingerprint: u64,
    /// Jobs of the trace that did not complete.
    pub incomplete: BTreeSet<JobId>,
    /// The scheduler view, when this repetition replayed.
    pub replay: Option<Replay>,
    /// The placement gate, when this repetition ran it.
    pub reference: Option<RefCheck>,
    /// Wall time of the placement gate, nanoseconds (0 without it).
    pub gate_ns: u64,
}

/// One repetition of `shape` at `seed`: set-up and the timed simulation,
/// then, with `scheduler_view` set, the timed replay of its event log.
/// With `gate` set, the placement gate runs last, untimed.
pub fn run_once(
    shape: Shape,
    seed: u64,
    mut spans: Option<&mut Spans>,
    scheduler_view: bool,
    gate: bool,
) -> Rep {
    let started = Instant::now();
    let p = prepare(shape, seed, spans.as_deref_mut());
    let trace = p.trace.clone();
    let mut sim_ns = 0;
    let (result, _) =
        step(&mut spans, Layer::SimRun, &mut sim_ns, || p.sim.run_with_stats(p.trace));
    let peak_rss_bytes = peak_rss_bytes();
    let completed: BTreeSet<JobId> = result.records.iter().map(|r| r.spec.id).collect();
    let incomplete = trace.iter().map(|j| j.id).filter(|id| !completed.contains(id)).collect();
    let mean_wait_s = result.records.iter().map(JobRecord::waiting_s).sum::<f64>()
        / result.records.len().max(1) as f64;
    let replay = scheduler_view
        .then(|| replay(&p.cluster, &p.profiles, shape.policy, &trace, &result.events, spans));
    let wall_ns = started.elapsed().as_nanos() as u64;
    let reference = gate.then(|| {
        let stride = shape.gate_samples.map_or(1, |n| (result.records.len() / n).max(1));
        reference::check(&p.cluster, &p.profiles, shape.policy, &trace, &result, stride)
    });
    let gate_ns = started.elapsed().as_nanos() as u64 - wall_ns;
    Rep {
        setup_ns: p.setup_ns,
        sim_ns,
        wall_ns,
        sim_events: result.events.len() as u64,
        jobs: trace.len() as u64,
        peak_rss_bytes,
        mean_wait_s,
        fingerprint: fingerprint(&result),
        incomplete,
        replay,
        reference,
        gate_ns,
    }
}

/// The process's peak resident set (`VmHWM`), bytes; 0 where `/proc` is
/// unavailable.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}
