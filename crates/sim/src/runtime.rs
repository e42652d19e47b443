//! Running-job state and interference-coupled progress.
//!
//! A placed job carries a stock of *work* — its solo duration under the
//! placement it received — and burns it down at rate `1/(1+slowdown)`,
//! where the slowdown is the Fig. 6 aggregate over its current co-runners.
//! [`RunningJob`] holds what a placement fixes for the job's lifetime;
//! [`Progress`] holds what changes between events (remaining work, rate)
//! as dense columns parallel to the engine's running vector, so the
//! per-event integration is one pass over two `f64` slices.
//!
//! [`current_slowdown`] is a pure function of the victim's allocation and
//! the *ordered* co-runner list: jobs couple only through machines they
//! share (`max_domain_factor` is 0 otherwise), and the aggregate sums
//! per-pair slowdowns in list order. The engine's incremental mode leans
//! on both properties — an event that touches no machine of a job, and
//! moves none of its co-runners within the running vector, provably cannot
//! change that job's slowdown bits.

use gts_perf::{total_slowdown, IterTime, PlacementPerf};
use gts_sched::Allocation;
use gts_topo::ClusterTopology;

/// One placed, in-flight job: the allocation and what it fixes.
#[derive(Debug, Clone)]
pub struct RunningJob {
    /// The allocation the scheduler granted.
    pub alloc: Allocation,
    /// Wall-clock time the job started executing.
    pub started_at: f64,
    /// Solo per-iteration profile under this placement.
    pub iter: IterTime,
}

impl RunningJob {
    /// Creates the running state for a fresh placement. Jobs with an
    /// explicit communication graph (model parallelism) are costed per edge
    /// over their actual routes; data-parallel jobs use the ring model.
    pub fn start(alloc: Allocation, cluster: &ClusterTopology, now: f64) -> Self {
        let iter = match (&alloc.spec.comm_graph, alloc.is_single_node()) {
            (Some(graph), true) => {
                let machine = alloc.gpus[0].machine;
                let local: Vec<_> = alloc.gpus.iter().map(|g| g.gpu).collect();
                gts_perf::placement::graph_iter_time(
                    cluster.machine(machine),
                    alloc.spec.model,
                    alloc.spec.batch.representative_batch(),
                    graph,
                    &local,
                )
            }
            _ => PlacementPerf::evaluate_cluster(cluster, &alloc.gpus)
                .iter_time(alloc.spec.model, alloc.spec.batch.representative_batch()),
        };
        Self { alloc, started_at: now, iter }
    }

    /// Total work of the job, in solo-execution seconds under this
    /// placement.
    pub fn solo_s(&self) -> f64 {
        f64::from(self.alloc.spec.iterations) * self.iter.total_s()
    }
}

/// Progress rate under an interference slowdown, in solo-seconds per
/// wall-second.
pub fn rate_under(slowdown: f64) -> f64 {
    1.0 / (1.0 + slowdown)
}

/// Progress of the running set: one entry per running job in each column,
/// in running-vector order. The engine pushes and `swap_remove`s the
/// columns in lockstep with its running vector.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Remaining work, in solo-execution seconds.
    remaining_solo_s: Vec<f64>,
    /// Current progress rate, `1/(1+slowdown)` solo-seconds per
    /// wall-second (1 = solo speed).
    rate: Vec<f64>,
    /// Placement utility (fixed for the job's lifetime).
    utility: Vec<f64>,
}

impl Progress {
    /// Number of running jobs.
    pub fn len(&self) -> usize {
        self.rate.len()
    }

    /// True when nothing runs.
    pub fn is_empty(&self) -> bool {
        self.rate.is_empty()
    }

    /// Appends a fresh job with `remaining_solo_s` of work, running at
    /// solo speed until its first slowdown refresh.
    pub fn push(&mut self, remaining_solo_s: f64, utility: f64) {
        self.remaining_solo_s.push(remaining_solo_s);
        self.rate.push(1.0);
        self.utility.push(utility);
    }

    /// Removes entry `idx`, moving the last entry into its slot (mirrors
    /// `Vec::swap_remove` on the running vector).
    pub fn swap_remove(&mut self, idx: usize) {
        self.remaining_solo_s.swap_remove(idx);
        self.rate.swap_remove(idx);
        self.utility.swap_remove(idx);
    }

    /// Sets job `idx`'s interference slowdown (0 = solo speed).
    pub fn set_slowdown(&mut self, idx: usize, slowdown: f64) {
        self.rate[idx] = rate_under(slowdown);
    }

    /// Job `idx`'s progress rate, in solo-seconds per wall-second.
    pub fn rate(&self, idx: usize) -> f64 {
        self.rate[idx]
    }

    /// Wall-clock seconds until job `idx` completes at its current rate.
    pub fn eta_s(&self, idx: usize) -> f64 {
        self.remaining_solo_s[idx] / self.rate[idx]
    }

    /// True once job `idx` has done all its work.
    pub fn finished(&self, idx: usize) -> bool {
        self.remaining_solo_s[idx] <= 1e-9
    }

    /// Integrates every job's progress over `dt` wall-clock seconds.
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= -1e-9, "time cannot run backwards: {dt}");
        let dt = dt.max(0.0);
        for (rem, &rate) in self.remaining_solo_s.iter_mut().zip(&self.rate) {
            *rem = (*rem - dt * rate).max(0.0);
        }
    }

    /// Mean placement utility over the running set, summed in
    /// running-vector order; 1 when nothing runs.
    pub fn mean_utility(&self) -> f64 {
        if self.utility.is_empty() {
            1.0
        } else {
            self.utility.iter().sum::<f64>() / self.utility.len() as f64
        }
    }
}

/// Re-derives the slowdown of `victim` given every other running job.
///
/// Two jobs interfere through each machine they share; the strongest shared
/// bus domain wins (a pair sharing both a socket and the machine bus is
/// dominated by the socket coupling).
///
/// `others` may be the full running set or any superset of the victim's
/// machine-sharers: non-sharers contribute factor 0 and are filtered out,
/// so both calls return the same bits *provided the surviving co-runners
/// appear in the same order* (the final sum is order-sensitive in f64).
pub fn current_slowdown(
    victim: &RunningJob,
    others: &[&RunningJob],
    cluster: &ClusterTopology,
) -> f64 {
    let spec = &victim.alloc.spec;
    let corunners: Vec<_> = others
        .iter()
        .filter(|o| o.alloc.spec.id != spec.id)
        .filter_map(|o| {
            let factor = max_domain_factor(victim, o, cluster);
            (factor > 0.0).then_some((o.alloc.spec.model, o.alloc.spec.batch, factor))
        })
        .collect();
    total_slowdown((spec.model, spec.batch), &corunners)
}

/// Strongest bus-domain coupling between two allocations across all
/// machines they share.
fn max_domain_factor(a: &RunningJob, b: &RunningJob, cluster: &ClusterTopology) -> f64 {
    let mut factor: f64 = 0.0;
    for machine in a.alloc.machines() {
        let ga = a.alloc.gpus_on(machine);
        let gb = b.alloc.gpus_on(machine);
        if ga.is_empty() || gb.is_empty() {
            continue;
        }
        factor = factor.max(gts_perf::domain_factor(cluster.machine(machine), &ga, &gb));
    }
    factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_job::{BatchClass, JobSpec, NnModel};
    use gts_topo::{power8_minsky, GlobalGpuId, GpuId, MachineId};
    use std::sync::Arc;

    fn cluster() -> Arc<ClusterTopology> {
        Arc::new(ClusterTopology::homogeneous(power8_minsky(), 2))
    }

    fn alloc(id: u64, machine: u32, gpus: &[u32], batch: BatchClass) -> Allocation {
        Allocation {
            spec: JobSpec::new(id, NnModel::AlexNet, batch, gpus.len() as u32)
                .with_iterations(100),
            gpus: gpus
                .iter()
                .map(|&g| GlobalGpuId { machine: MachineId(machine), gpu: GpuId(g) })
                .collect(),
            utility: 1.0,
        }
    }

    /// A one-job progress column for `r`, as the engine starts it.
    fn progress_of(r: &RunningJob) -> Progress {
        let mut p = Progress::default();
        p.push(r.solo_s(), r.alloc.utility);
        p
    }

    #[test]
    fn solo_job_runs_at_full_rate() {
        let c = cluster();
        let r = RunningJob::start(alloc(0, 0, &[0, 1], BatchClass::Tiny), &c, 0.0);
        let p = progress_of(&r);
        assert_eq!(p.rate(0), 1.0);
        assert!(!p.finished(0));
        let expected = 100.0 * r.iter.total_s();
        assert!((p.eta_s(0) - expected).abs() < 1e-9);
    }

    #[test]
    fn advance_burns_down_work_and_finishes() {
        let c = cluster();
        let r = RunningJob::start(alloc(0, 0, &[0], BatchClass::Tiny), &c, 0.0);
        let mut p = progress_of(&r);
        let total = p.remaining_solo_s[0];
        p.advance(total / 2.0);
        assert!((p.remaining_solo_s[0] - total / 2.0).abs() < 1e-9);
        p.advance(total);
        assert!(p.finished(0));
        assert_eq!(p.remaining_solo_s[0], 0.0);
    }

    #[test]
    fn slowdown_stretches_eta() {
        let c = cluster();
        let r = RunningJob::start(alloc(0, 0, &[0, 1], BatchClass::Tiny), &c, 0.0);
        let mut p = progress_of(&r);
        let solo_eta = p.eta_s(0);
        p.set_slowdown(0, 0.30);
        assert!((p.eta_s(0) - solo_eta * 1.3).abs() < 1e-9);
        assert!((p.rate(0) - 1.0 / 1.3).abs() < 1e-12);
    }

    /// Columns follow the running vector's `swap_remove`, and each job
    /// burns down at its own rate.
    #[test]
    fn columns_swap_remove_in_lockstep() {
        let mut p = Progress::default();
        p.push(10.0, 0.5);
        p.push(20.0, 1.0);
        p.push(30.0, 0.75);
        p.set_slowdown(2, 1.0);
        p.advance(4.0);
        assert_eq!(p.remaining_solo_s[0], 6.0);
        assert_eq!(p.remaining_solo_s[2], 28.0);
        assert_eq!(p.mean_utility(), 0.75);
        p.swap_remove(0);
        assert_eq!(p.len(), 2);
        assert_eq!(p.remaining_solo_s[0], 28.0);
        assert_eq!(p.rate(0), 0.5);
        assert_eq!(p.mean_utility(), 0.875);
        p.swap_remove(1);
        p.swap_remove(0);
        assert!(p.is_empty());
        assert_eq!(p.mean_utility(), 1.0);
    }

    #[test]
    fn fig6_two_tiny_jobs_same_machine_slow_each_other_30_percent() {
        let c = cluster();
        let a = RunningJob::start(alloc(0, 0, &[0, 1], BatchClass::Tiny), &c, 0.0);
        let b = RunningJob::start(alloc(1, 0, &[2, 3], BatchClass::Tiny), &c, 0.0);
        // Packed on different sockets: the machine-level factor 0.35 scales
        // the 30 % same-socket anchor.
        let s = current_slowdown(&a, &[&b], &c);
        assert!((s - 0.30 * 0.35).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn same_socket_neighbors_interfere_fully() {
        let c = cluster();
        let a = RunningJob::start(alloc(0, 0, &[0], BatchClass::Tiny), &c, 0.0);
        let b = RunningJob::start(alloc(1, 0, &[1], BatchClass::Tiny), &c, 0.0);
        let s = current_slowdown(&a, &[&b], &c);
        assert!((s - 0.30).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn different_machines_do_not_interfere() {
        let c = cluster();
        let a = RunningJob::start(alloc(0, 0, &[0, 1], BatchClass::Tiny), &c, 0.0);
        let b = RunningJob::start(alloc(1, 1, &[0, 1], BatchClass::Tiny), &c, 0.0);
        assert_eq!(current_slowdown(&a, &[&b], &c), 0.0);
    }

    #[test]
    fn victim_is_excluded_from_its_own_corunners() {
        let c = cluster();
        let a = RunningJob::start(alloc(0, 0, &[0, 1], BatchClass::Tiny), &c, 0.0);
        assert_eq!(current_slowdown(&a, &[&a], &c), 0.0);
    }

    #[test]
    fn big_batch_neighbor_barely_hurts_big_batch_victim() {
        let c = cluster();
        let a = RunningJob::start(alloc(0, 0, &[0], BatchClass::Big), &c, 0.0);
        let b = RunningJob::start(alloc(1, 0, &[1], BatchClass::Big), &c, 0.0);
        assert!(current_slowdown(&a, &[&b], &c) < 0.02);
    }
}
