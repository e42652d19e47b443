//! In-memory spans for the traced run. Each span wraps one public call
//! into a layer of the program, made from the benchmark's own code; the
//! spans are kept in memory and summarised when the run ends.

use std::time::Instant;

/// The layer a span's call enters, and which call it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `topo`: building the cluster topology.
    TopoBuild,
    /// `perf`: `ProfileLibrary::generate`.
    PerfProfiles,
    /// `job`: `WorkloadGenerator::generate`.
    JobGenerate,
    /// `sim`: `Simulation::new`.
    SimNew,
    /// `sim`: `Simulation::run_with_stats`.
    SimRun,
    /// `sched`: `Scheduler::submit`.
    Submit,
    /// `sched`: `Scheduler::complete`.
    Complete,
    /// `sched`: `Scheduler::run_iteration`.
    Iteration,
}

/// One recorded call. Spans of one replayed event batch share `batch`;
/// set-up and simulation spans carry batch 0 of their own repetition.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer and call.
    pub layer: Layer,
    /// The event batch (request) the call served.
    pub batch: u64,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Spans {
    /// Records a span of `layer` between two instants.
    pub fn record(&mut self, layer: Layer, batch: u64, start: Instant, end: Instant) {
        let at = |i: Instant| i.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span { layer, batch, start_ns: at(start), end_ns: at(end) };
        self.spans.push(span);
    }

    /// Total seconds spent in spans of `layer`.
    pub fn total_s(&self, layer: Layer) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.layer == layer).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 / 1e9
    }

    /// Number of spans of `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.spans.iter().filter(|s| s.layer == layer).count() as u64
    }
}
