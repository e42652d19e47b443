//! Malformed input must not take the prototype down: a job that fails
//! `JobSpec::validate` and a cancellation at a non-finite time are left
//! out, and every valid job still completes.

use gts_job::{scenario::table1, BatchClass, JobId, JobSpec, NnModel};
use gts_perf::ProfileLibrary;
use gts_proto::{ProtoConfig, Prototype, TimeScale};
use gts_sched::{Policy, PolicyKind};
use gts_topo::{power8_minsky, ClusterTopology};
use std::sync::Arc;

fn prototype(cancellations: Vec<(f64, JobId)>) -> Prototype {
    let machine = power8_minsky();
    let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
    let cluster = Arc::new(ClusterTopology::homogeneous(machine, 1));
    let mut config =
        ProtoConfig::with_scale(Policy::new(PolicyKind::TopoAware), TimeScale::new(0.002));
    config.cancellations = cancellations;
    Prototype::new(cluster, profiles, config)
}

#[test]
fn nan_arrival_job_is_left_out_and_the_rest_complete() {
    let mut trace = table1();
    let valid = trace.len();
    trace.push(JobSpec::new(99, NnModel::AlexNet, BatchClass::Tiny, 1).arriving_at(f64::NAN));
    let res = prototype(Vec::new()).run(trace);
    assert_eq!(res.records.len(), valid, "every valid job completes");
    assert!(res.record(JobId(99)).is_none(), "the NaN-arrival job never runs");
    assert!(res.makespan_s.is_finite());
}

#[test]
fn nan_cancellation_time_is_ignored() {
    let trace = table1();
    let valid = trace.len();
    let res = prototype(vec![(f64::NAN, JobId(0)), (10.0, JobId(999))]).run(trace);
    assert!(res.cancelled.is_empty(), "got {:?}", res.cancelled);
    assert_eq!(res.records.len(), valid, "every job completes");
}
