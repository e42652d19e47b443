//! # gts-sim — trace-driven cluster simulation (§5.3–§5.5)
//!
//! A discrete-event simulator around the `gts-sched` scheduler. Jobs arrive
//! from a trace, get placed by the configured policy, and then *progress at
//! a rate coupled to interference*: whenever any placement or completion
//! changes the running set, every affected job's slowdown is re-derived
//! from the Fig. 6 model and its completion time re-solved. This is what
//! lets the simulator reproduce the prototype's behaviour (Fig. 9 validates
//! one against the other) and scale to the paper's 10 k-job / 1 k-machine
//! scenario (Fig. 11).
//!
//! * [`runtime`] — running-job state: remaining work, current rate,
//!   slowdown re-evaluation;
//! * [`engine`] — the event loop (arrivals, completions, scheduler
//!   wakeups), in two bit-identical flavours: an O(J²)-per-event reference
//!   and an incremental loop (machine-scoped slowdown refresh + lazy
//!   completion heap) selected by [`SimConfig::with_incremental`];
//! * [`metrics`] — per-job records (QoS slowdown, QoS+wait slowdown,
//!   utility, SLO violations), timelines and summary statistics;
//! * [`ideal`] — the "fastest execution" baseline every slowdown is
//!   measured against (packed GPUs, empty machine).

#![warn(missing_docs)]

pub mod bandwidth;
pub mod engine;
pub mod ideal;
pub mod metrics;
pub mod runtime;

pub use bandwidth::{bandwidth_series, MachineBandwidthSeries};
pub use engine::{SimConfig, SimConfigError, SimLoopStats, Simulation};
pub use ideal::ideal_duration_s;
pub use metrics::{JobRecord, SimEvent, SimResult, TimelineSegment};
pub use runtime::RunningJob;
