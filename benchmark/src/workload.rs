//! The three benchmark workloads: seeded traces from the paper's §5.3
//! generator mix on Minsky clusters, each chosen to stress a different
//! layer of the scheduler (see `benchmark/README.md`).

use gts_core::prelude::*;
use std::sync::Arc;

/// Placements per run the reference gate re-decides on the 4096-machine
/// workloads, where one sequential decision scans every machine (~11 ms).
const DC_GATE_SAMPLES: Option<usize> = Some(128);

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Datacenter cluster that keeps up: every decision is a first
    /// placement through the sharded path.
    DcStream,
    /// The same cluster overloaded: a queue forms and most calls retry a
    /// blocked head after a completion (decision replay, admission).
    DcBacklog,
    /// One flat 64-machine fabric under TOPO-AWARE-P: bypasses the shard
    /// machinery, stresses the class memo, the eval cache and DRB.
    FlatTopoP,
}

/// Full size for measurement, smoke size for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small enough for a debug-build test, same regime.
    Smoke,
}

/// Cluster shape, trace size and generator settings of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Racks (`None` = one flat fabric).
    pub racks: Option<usize>,
    /// Machines per rack, or machines in the flat fabric.
    pub machines_per_rack: usize,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Poisson arrival rate, jobs per minute.
    pub rate_per_min: f64,
    /// Iteration budget per job.
    pub iterations: u32,
    /// Placement policy.
    pub policy: PolicyKind,
    /// Placements the reference gate re-decides per run, evenly spaced
    /// (`None` = every placement).
    pub gate_samples: Option<usize>,
}

impl Shape {
    /// Machines in the cluster.
    pub fn machines(&self) -> usize {
        self.racks.unwrap_or(1) * self.machines_per_rack
    }
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::DcStream, Workload::DcBacklog, Workload::FlatTopoP];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DcStream => "dc_stream",
            Workload::DcBacklog => "dc_backlog",
            Workload::FlatTopoP => "flat_topo_p",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape at `size`. Smoke sizes keep each workload's
    /// regime (keeping up, backlogged, flat and near capacity) at a
    /// fraction of the work: the arrival rate scales with the cluster.
    pub fn shape(self, size: Size) -> Shape {
        let full = size == Size::Full;
        match self {
            Workload::DcStream => Shape {
                racks: Some(if full { 128 } else { 8 }),
                machines_per_rack: if full { 32 } else { 8 },
                jobs: if full { 24_576 } else { 384 },
                rate_per_min: if full { 1_440.0 } else { 90.0 },
                iterations: 150,
                policy: PolicyKind::TopoAware,
                gate_samples: DC_GATE_SAMPLES,
            },
            Workload::DcBacklog => Shape {
                racks: Some(if full { 128 } else { 8 }),
                machines_per_rack: if full { 32 } else { 8 },
                jobs: if full { 24_576 } else { 384 },
                rate_per_min: if full { 2_880.0 } else { 180.0 },
                iterations: 1_500,
                policy: PolicyKind::TopoAware,
                gate_samples: DC_GATE_SAMPLES,
            },
            Workload::FlatTopoP => Shape {
                racks: None,
                machines_per_rack: if full { 64 } else { 16 },
                jobs: if full { 60_000 } else { 600 },
                rate_per_min: if full { 48.0 } else { 12.0 },
                iterations: GeneratorConfig::default().iterations,
                policy: PolicyKind::TopoAwareP,
                gate_samples: None,
            },
        }
    }
}

/// Builds the cluster topology of `shape`.
pub fn build_cluster(shape: &Shape) -> Arc<ClusterTopology> {
    let machine = power8_minsky();
    Arc::new(match shape.racks {
        Some(racks) => ClusterTopology::homogeneous_racked(machine, racks, shape.machines_per_rack),
        None => ClusterTopology::homogeneous(machine, shape.machines_per_rack),
    })
}

/// Builds the profile library of the cluster's (single) machine type.
pub fn build_profiles(cluster: &ClusterTopology, seed: u64) -> Arc<ProfileLibrary> {
    Arc::new(ProfileLibrary::generate(cluster.machine(MachineId(0)), seed))
}

/// Generates the seeded trace of `shape`.
pub fn generate_trace(shape: &Shape, seed: u64) -> Vec<JobSpec> {
    let config = GeneratorConfig {
        arrival_rate_per_min: shape.rate_per_min,
        iterations: shape.iterations,
        ..GeneratorConfig::default()
    };
    WorkloadGenerator::new(config, seed).generate(shape.jobs)
}

/// The simulation configuration every run uses: the policy with the
/// shipped defaults for every engine knob.
pub fn sim_config(shape: &Shape) -> SimConfig {
    SimConfig::new(Policy::new(shape.policy))
}
