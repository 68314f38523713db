//! # mlp-engine — trace-driven evaluation engine (Fig 8)
//!
//! Drives the full evaluation workflow of Section IV: profiling traces feed
//! a [`mlp_trace::ProfileStore`]; a workload pattern and request mix feed
//! the arrival generator; the discrete-event [`sim`]ulator executes the
//! scheduler named by a [`registry`] spec on a simulated cluster; and the
//! [`runner`] extracts the figures' metrics (QoS-violation rate,
//! utilization timeline, latency distribution, tail latency, throughput).
//!
//! Experiment sweeps fan out across CPU cores via [`parallel`] (std
//! scoped threads with deterministically forked seeds).

pub mod config;
pub mod error;
pub mod experiment;
pub mod live;
pub mod parallel;
pub mod profiling;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scheme;
pub mod shutdown;
pub mod sim;
pub mod sweep;
pub mod traceio;

pub use config::ExperimentConfig;
pub use error::Error;
pub use experiment::Experiment;
pub use registry::{
    default_registry, BuildCtx, ParamValue, RegistryEntry, SchedulerParams, SchedulerRegistry,
    SchemeSpec, PAPER_SCHEMES,
};
pub use runner::ExperimentResult;
pub use scheme::Scheme;
pub use sweep::SweepConfig;
