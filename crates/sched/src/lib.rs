//! # gts-sched — the topology-aware scheduler (§4.4, §5.2)
//!
//! Implements Algorithm 1 around the `gts-map` mapping engine:
//!
//! * [`state`] — live cluster allocation state (free GPUs per machine,
//!   running jobs and their §4.2 profiles);
//! * [`oracle`] — the [`gts_map::PlacementOracle`] backed by that state:
//!   Eq. 4 interference prediction and Eq. 5 fragmentation;
//! * [`eval`] — the memoized candidate-evaluation engine behind
//!   `TOPO-AWARE(-P)`: equivalence-class deduplication, the cross-event
//!   [`EvalCache`], and the [`EvalParams::sequential`] reference path;
//! * [`policy`] — the four evaluated policies: `TOPO-AWARE`,
//!   `TOPO-AWARE-P` (postponing), `FCFS` and Best-Fit (`BF`);
//! * [`shard`] — machine-partition sharding for datacenter scale: the
//!   rack-aligned (or [`ShardSpec::Count`]) partition plus per-shard
//!   admission aggregates behind the two-level decision path;
//! * [`scheduler`] — the Algorithm 1 loop: arrival-ordered queue, host
//!   filtering, placement or postponement, SLO accounting;
//! * [`overhead`] — decision-latency metering for the §5.5.3 analysis;
//! * [`trace`] — opt-in decision-trace events: per-candidate Eq. 2 utility
//!   breakdowns and every place/postpone/release/failure the loop makes.

#![warn(missing_docs)]

pub mod bound;
pub mod enforcement;
pub mod eval;
pub mod oracle;
pub mod overhead;
pub mod policy;
pub mod scheduler;
pub mod shard;
pub mod spill;
pub mod state;
pub mod trace;

pub use bound::ShardBoundCtx;
pub use enforcement::{launch_plan, LaunchPlan};
pub use eval::{DecisionReplayStats, EvalCache, EvalCacheStats, EvalParams};
pub use oracle::StateOracle;
pub use overhead::DecisionStats;
pub use policy::{Policy, PolicyKind};
pub use scheduler::{CancelOutcome, PlacementOutcome, Scheduler, SchedulerConfig};
pub use shard::{ShardIndex, ShardSpec};
pub use spill::{decide_spill, ClusterOracle};
pub use state::{Allocation, ClusterState};
pub use trace::{CandidateEval, EvalOutcome, TraceEvent};
