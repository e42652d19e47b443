//! The scheduler view: replays a simulation's own event log into a fresh
//! [`Scheduler`] and times every public call from outside.
//!
//! The simulation drives its scheduler once per event time: it completes
//! the finished jobs, submits the arrivals, then runs one Algorithm 1
//! iteration. The log records the completions and arrivals first and the
//! iteration's placements and postponements after them, all stamped with
//! the event time, so each run of equal timestamps is one event batch.
//! Replaying a batch makes the same calls in the same order; the
//! outcomes must equal the logged ones bit for bit.

use crate::spans::{Layer, Spans};
use gts_core::prelude::*;
use gts_core::sim::SimEvent;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Timings and counters of one replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Event batches replayed (one `run_iteration` each).
    pub batches: u64,
    /// Total scheduler busy time: every timed call, nanoseconds.
    pub busy_ns: u64,
    /// Time inside `run_iteration`, nanoseconds.
    pub iteration_ns: u64,
    /// Time inside `submit`, nanoseconds.
    pub submit_ns: u64,
    /// Time inside `complete`, nanoseconds.
    pub complete_ns: u64,
    /// Timed calls (`complete` + `submit` + `run_iteration`).
    pub calls: u64,
    /// Per event batch, in replay order: the batch's busy time and, when
    /// its `run_iteration` returned an outcome, that call's latency (ns).
    pub per_batch: Vec<BatchTiming>,
    /// `Placed` outcomes.
    pub placed: u64,
    /// `PostponedLowUtility` outcomes.
    pub postponed: u64,
    /// `WaitingForCapacity` outcomes.
    pub waiting: u64,
    /// Jobs whose replayed outcome differs from the logged one.
    pub mismatched: BTreeSet<JobId>,
    /// The replay scheduler's eval-cache counters.
    pub cache: EvalCacheStats,
    /// The replay scheduler's decision-replay counters.
    pub decision_replay: DecisionReplayStats,
    /// Shards checked / skipped by admission.
    pub admission: (u64, u64),
    /// Shards checked / pruned by the utility bound.
    pub bound: (u64, u64),
}

/// The timing of one replayed event batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchTiming {
    /// Time in the batch's `complete`, `submit` and `run_iteration` calls.
    pub busy_ns: u64,
    /// Latency of the batch's `run_iteration`, when it returned an outcome.
    pub decide_ns: Option<u64>,
}

impl Replay {
    /// Latencies of the `run_iteration` calls that returned an outcome.
    pub fn decide_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.per_batch.iter().filter_map(|b| b.decide_ns)
    }
}

/// A logged or replayed outcome, reduced to what must match exactly.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Placed { job: JobId, utility_bits: u64 },
    Postponed { job: JobId },
}

impl Outcome {
    fn job(&self) -> JobId {
        match self {
            Outcome::Placed { job, .. } | Outcome::Postponed { job } => *job,
        }
    }
}

fn event_time(e: &SimEvent) -> f64 {
    match e {
        SimEvent::Arrived { t_s, .. }
        | SimEvent::Placed { t_s, .. }
        | SimEvent::Postponed { t_s, .. }
        | SimEvent::Completed { t_s, .. }
        | SimEvent::MachineFailed { t_s, .. } => *t_s,
    }
}

/// Runs `f`, adds its duration to `acc`, and records a span when tracing.
fn timed<T>(
    spans: &mut Option<&mut Spans>,
    layer: Layer,
    batch: u64,
    acc: &mut u64,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let ns = end.duration_since(start).as_nanos() as u64;
    *acc += ns;
    if let Some(spans) = spans {
        spans.record(layer, batch, start, end);
    }
    (out, ns)
}

/// Replays `events` (the log of a simulation of `trace` on `cluster` under
/// `policy` with the shipped defaults) into a fresh scheduler.
pub fn replay(
    cluster: &std::sync::Arc<ClusterTopology>,
    profiles: &std::sync::Arc<ProfileLibrary>,
    policy: PolicyKind,
    trace: &[JobSpec],
    events: &[SimEvent],
    mut spans: Option<&mut Spans>,
) -> Replay {
    let state = ClusterState::new(std::sync::Arc::clone(cluster), std::sync::Arc::clone(profiles));
    let mut scheduler = Scheduler::new(state, SchedulerConfig::new(Policy::new(policy)));
    let specs: HashMap<JobId, &JobSpec> = trace.iter().map(|j| (j.id, j)).collect();
    let mut r = Replay::default();
    let mut expected: Vec<Outcome> = Vec::new();
    let mut start = 0;
    while start < events.len() {
        let t = event_time(&events[start]);
        let end = start
            + events[start..]
                .iter()
                .position(|e| event_time(e).to_bits() != t.to_bits())
                .unwrap_or(events.len() - start);
        let batch = r.batches;
        r.batches += 1;
        let busy_before = r.iteration_ns + r.submit_ns + r.complete_ns;
        scheduler.set_now(t);
        expected.clear();
        for event in &events[start..end] {
            match event {
                SimEvent::Completed { job, .. } => {
                    if scheduler.state().allocation(*job).is_none() {
                        // The replay never placed a job the log completes:
                        // it has already diverged.
                        r.mismatched.insert(*job);
                        continue;
                    }
                    timed(&mut spans, Layer::Complete, batch, &mut r.complete_ns, || {
                        scheduler.complete(*job)
                    });
                    r.calls += 1;
                }
                SimEvent::Arrived { job, .. } => {
                    let spec = (*specs.get(job).expect("logged arrival is in the trace")).clone();
                    timed(&mut spans, Layer::Submit, batch, &mut r.submit_ns, || {
                        scheduler.submit(spec)
                    });
                    r.calls += 1;
                }
                SimEvent::Placed { job, utility, .. } => {
                    expected.push(Outcome::Placed { job: *job, utility_bits: utility.to_bits() })
                }
                SimEvent::Postponed { job, .. } => expected.push(Outcome::Postponed { job: *job }),
                SimEvent::MachineFailed { .. } => {
                    unreachable!("benchmark workloads schedule no machine failures")
                }
            }
        }
        let (outcomes, ns) =
            timed(&mut spans, Layer::Iteration, batch, &mut r.iteration_ns, || {
                scheduler.run_iteration()
            });
        r.calls += 1;
        r.per_batch.push(BatchTiming {
            busy_ns: r.iteration_ns + r.submit_ns + r.complete_ns - busy_before,
            decide_ns: (!outcomes.is_empty()).then_some(ns),
        });
        let mut got = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                PlacementOutcome::Placed { spec, utility, .. } => {
                    r.placed += 1;
                    got.push(Outcome::Placed { job: spec.id, utility_bits: utility.to_bits() });
                }
                PlacementOutcome::PostponedLowUtility { id, .. } => {
                    r.postponed += 1;
                    got.push(Outcome::Postponed { job: id });
                }
                PlacementOutcome::WaitingForCapacity { .. } => r.waiting += 1,
            }
        }
        if got != expected {
            let n = got.len().max(expected.len());
            for i in 0..n {
                if got.get(i) != expected.get(i) {
                    r.mismatched.extend(got.get(i).map(Outcome::job));
                    r.mismatched.extend(expected.get(i).map(Outcome::job));
                }
            }
        }
        start = end;
    }
    r.busy_ns = r.iteration_ns + r.submit_ns + r.complete_ns;
    r.cache = scheduler.eval_cache_stats().unwrap_or_default();
    r.decision_replay = scheduler.decision_replay_stats().unwrap_or_default();
    r.admission = scheduler.state().shards().admission_stats();
    r.bound = scheduler.state().shards().bound_stats();
    r
}
