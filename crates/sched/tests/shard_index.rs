//! Integration tests for the machine-partition shard index behind the
//! two-level decision path (DESIGN.md §10).
//!
//! The unit tests in `shard.rs` cover the data structure; these tests
//! drive the *public* surface: shard aggregates staying exact across every
//! `ClusterState` mutation kind — with `audit()` (whose check 8 re-derives
//! the whole shard index from scratch) after each step — plus the
//! admission pre-pass counters and flat-vs-sharded decision equivalence.

use gts_job::{BatchClass, Constraints, JobId, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_sched::state::on_machine;
use gts_sched::{ClusterState, EvalParams, Policy, PolicyKind, ShardSpec};
use gts_topo::{power8_minsky, ClusterTopology, GlobalGpuId, MachineId};
use std::sync::Arc;

/// A 2-racks × 2-machines cluster; the default (auto) shard spec follows
/// the racks, so this state has two shards of two machines each.
fn racked_state() -> ClusterState {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 1));
    let cluster = Arc::new(ClusterTopology::homogeneous_racked(machine, 2, 2));
    ClusterState::new(cluster, profiles)
}

fn place_n(state: &mut ClusterState, id: u64, machine: MachineId, n: usize) {
    let spec = JobSpec::new(id, NnModel::AlexNet, BatchClass::Small, n as u32);
    let free = state.free_gpus(machine);
    state.place(spec, on_machine(machine, &free[..n]), 1.0);
}

/// Shard aggregates must track place, release, failure, recovery, and
/// multi-node teardown exactly — audit() re-derives them from scratch
/// after every step.
#[test]
fn shard_aggregates_track_every_mutation_kind() {
    let mut state = racked_state();
    let per_machine = 4; // power8_minsky GPU count
    assert_eq!(state.shards().n_shards(), 2, "auto spec must follow the racks");
    assert_eq!(state.shards().shard_of(MachineId(1)), 0);
    assert_eq!(state.shards().shard_of(MachineId(2)), 1);
    assert_eq!(state.shards().cluster_free(), 4 * per_machine);
    assert_eq!(state.total_free(), state.shards().cluster_free());
    state.audit().expect("pristine");

    // Place in shard 0: only shard 0's aggregate moves.
    place_n(&mut state, 0, MachineId(0), 2);
    state.audit().expect("after place");
    assert_eq!(state.shards().free_in(0), 2 * per_machine - 2);
    assert_eq!(state.shards().free_in(1), 2 * per_machine);
    assert_eq!(state.shards().max_free(0), per_machine);

    // Fill machine 0 entirely: shard 0 can still admit 4-wide via machine 1.
    place_n(&mut state, 1, MachineId(0), 2);
    state.audit().expect("machine 0 full");
    assert!(state.shards().has_capacity(0, per_machine));
    place_n(&mut state, 2, MachineId(1), 3);
    state.audit().expect("machine 1 mostly full");
    assert!(!state.shards().has_capacity(0, 2), "widest free block in shard 0 is 1");
    assert!(state.shards().has_capacity(0, 1));
    assert_eq!(state.shards().max_free(0), 1);

    // Release: aggregates return with the GPUs.
    state.release(JobId(2));
    state.audit().expect("after release");
    assert!(state.shards().has_capacity(0, per_machine));

    // Failure: the machine's free GPUs leave its shard's aggregates; a
    // recovered machine brings them back.
    state.set_machine_down(MachineId(3), true);
    state.audit().expect("after failure");
    assert_eq!(state.shards().free_in(1), per_machine);
    state.set_machine_down(MachineId(3), false);
    state.audit().expect("after recovery");
    assert_eq!(state.shards().free_in(1), 2 * per_machine);

    // Multi-node allocation spanning both shards, then teardown.
    let mut wide = JobSpec::new(3, NnModel::GoogLeNet, BatchClass::Big, 4);
    wide.constraints = Constraints { single_node: false, anti_collocate: false };
    let mut gpus: Vec<GlobalGpuId> = Vec::new();
    gpus.extend(on_machine(MachineId(1), &state.free_gpus(MachineId(1))[..2]));
    gpus.extend(on_machine(MachineId(2), &state.free_gpus(MachineId(2))[..2]));
    state.place(wide, gpus, 1.0);
    state.audit().expect("after multi-node place");
    assert_eq!(state.shards().free_in(0), per_machine - 2);
    assert_eq!(state.shards().free_in(1), 2 * per_machine - 2);
    state.release(JobId(3));
    state.audit().expect("after multi-node teardown");
    assert_eq!(state.shards().cluster_free(), 4 * per_machine - 4);
}

/// `machines_with_capacity` routes through the shard histograms; its
/// output must equal the flat definition (every machine, ascending id,
/// with enough free GPUs) for any shard count.
#[test]
fn capacity_scan_is_shard_count_invariant() {
    for shards in [1usize, 2, 3, 4] {
        let mut state = racked_state().with_shards(ShardSpec::Count(shards));
        place_n(&mut state, 0, MachineId(0), 4);
        place_n(&mut state, 1, MachineId(2), 3);
        state.audit().expect("occupied state audits clean");
        for want in 1..=4usize {
            let got = state.machines_with_capacity(want);
            let flat: Vec<MachineId> = (0..4)
                .map(MachineId)
                .filter(|&m| state.free_gpus(m).len() >= want)
                .collect();
            assert_eq!(got, flat, "width {want} with {shards} shard(s)");
        }
    }
}

/// The admission pre-pass must count every examined shard and skip shards
/// whose widest free block is too narrow — without changing the decision.
#[test]
fn admission_pass_skips_saturated_shards() {
    let mut state = racked_state();
    // Saturate rack 0 (shard 0) completely.
    place_n(&mut state, 0, MachineId(0), 4);
    place_n(&mut state, 1, MachineId(1), 4);
    state.audit().expect("rack 0 saturated");

    let policy = Policy::new(PolicyKind::TopoAware);
    let params = EvalParams::engine();
    let job = JobSpec::new(100, NnModel::AlexNet, BatchClass::Small, 2);
    let decision = policy
        .decide_with(&state, &job, params)
        .expect("rack 1 has room");
    assert!(
        decision.gpus.iter().all(|g| g.machine.0 >= 2),
        "placement must land in rack 1, got {:?}",
        decision.gpus
    );
    let (checked, skipped) = state.shards().admission_stats();
    assert_eq!(checked, 2, "both shards examined once");
    assert_eq!(skipped, 1, "saturated shard 0 must be skipped");

    // The single-shard reference path never counts.
    let flat = state.clone().with_shards(ShardSpec::Count(1));
    let same = policy
        .decide_with(&flat, &job, params)
        .expect("still placeable");
    assert_eq!(flat.shards().admission_stats(), (0, 0));
    assert_eq!(decision.gpus, same.gpus);
    assert_eq!(decision.utility.to_bits(), same.utility.to_bits());
}

/// Sharded and single-shard decisions must agree bit for bit across job
/// classes and both topo-aware policies on a partially occupied cluster.
#[test]
fn sharded_decisions_match_single_shard_reference() {
    let mut sharded = racked_state();
    place_n(&mut sharded, 9001, MachineId(0), 2);
    place_n(&mut sharded, 9002, MachineId(2), 1);
    sharded.audit().expect("occupied state audits clean");
    let flat = sharded.clone().with_shards(ShardSpec::Count(1));
    assert_eq!(flat.shards().n_shards(), 1);

    let params = EvalParams::engine();
    let mut id = 0u64;
    for kind in [PolicyKind::TopoAware, PolicyKind::TopoAwareP] {
        let policy = Policy::new(kind);
        for model in [NnModel::AlexNet, NnModel::CaffeRef, NnModel::GoogLeNet] {
            for batch in [BatchClass::Tiny, BatchClass::Medium, BatchClass::Big] {
                for n_gpus in 1..=4u32 {
                    let job = JobSpec::new(id, model, batch, n_gpus);
                    id += 1;
                    let a = policy.decide_with(&sharded, &job, params);
                    let b = policy.decide_with(&flat, &job, params);
                    assert_eq!(
                        a.as_ref().map(|d| (&d.gpus, d.utility.to_bits())),
                        b.as_ref().map(|d| (&d.gpus, d.utility.to_bits())),
                        "{kind} diverged on {model:?}/{batch:?}/{n_gpus}"
                    );
                }
            }
        }
    }
}
