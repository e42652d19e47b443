//! The placement gate: checks a run's placement records against the
//! sequential single-shard reference (`EvalParams::sequential()` on a
//! one-shard state).
//!
//! A whole reference run costs ~280 s on the 4096-machine workloads (one
//! unmemoized evaluation of every machine per decision), so the gate does
//! not re-simulate. It walks the run's event log over a fresh single-shard
//! state, applying each logged completion and each recorded placement, and
//! before a checked placement asks the reference policy for its decision
//! from exactly that state. The reference must choose the recorded GPUs
//! with the recorded utility, bit for bit.

use gts_core::prelude::*;
use gts_core::sim::SimEvent;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// What the gate checked and what it found.
#[derive(Debug, Default)]
pub struct RefCheck {
    /// Placements re-decided by the reference.
    pub checked: u64,
    /// Jobs whose recorded placement differs from the reference decision.
    pub mismatched: BTreeSet<JobId>,
}

/// Checks every `stride`-th placement of `result` (a run of `trace` on
/// `cluster` under `policy`) against the sequential single-shard
/// reference. `stride` 1 checks them all.
pub fn check(
    cluster: &Arc<ClusterTopology>,
    profiles: &Arc<ProfileLibrary>,
    policy: PolicyKind,
    trace: &[JobSpec],
    result: &SimResult,
    stride: usize,
) -> RefCheck {
    let policy = Policy::new(policy);
    let mut state = ClusterState::new(Arc::clone(cluster), Arc::clone(profiles))
        .with_shards(ShardSpec::Count(1));
    let specs: HashMap<JobId, &JobSpec> = trace.iter().map(|j| (j.id, j)).collect();
    let records: HashMap<JobId, &JobRecord> =
        result.records.iter().map(|r| (r.spec.id, r)).collect();
    let mut out = RefCheck::default();
    let mut placed = 0usize;
    for event in &result.events {
        match event {
            SimEvent::Completed { job, .. } => {
                state.release(*job);
            }
            SimEvent::Placed { job, utility, .. } => {
                let spec = specs[job];
                let Some(record) = records.get(job) else {
                    // Placed but never completed: no record to compare.
                    out.mismatched.insert(*job);
                    continue;
                };
                if placed.is_multiple_of(stride) {
                    out.checked += 1;
                    let same = policy
                        .decide_with(&state, spec, EvalParams::sequential())
                        .is_some_and(|d| {
                            d.gpus == record.gpus
                                && d.utility.to_bits() == record.utility.to_bits()
                                && d.utility.to_bits() == utility.to_bits()
                        });
                    if !same {
                        out.mismatched.insert(*job);
                    }
                }
                placed += 1;
                state.place(spec.clone(), record.gpus.clone(), record.utility);
            }
            SimEvent::Arrived { .. } | SimEvent::Postponed { .. } => {}
            SimEvent::MachineFailed { .. } => {
                unreachable!("benchmark workloads schedule no machine failures")
            }
        }
    }
    out
}
