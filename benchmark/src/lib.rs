//! The gpu-topo-aware benchmark: seeded trace workloads measured in two
//! views, the simulation as a whole and the scheduler call by call.

pub mod json;
pub mod measure;
pub mod reference;
pub mod replay;
pub mod run;
pub mod spans;
pub mod workload;
