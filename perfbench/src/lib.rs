//! The repository benchmark: three workloads run through the public entry
//! points (`Experiment::run_full` for the simulator, `mlp_serve::Server`
//! and the line protocol for live mode), with end-to-end metrics measured
//! untraced and per-layer metrics measured in a separate traced run by
//! timing calls into each layer from outside. See `README.md`.

pub mod host;
pub mod live;
pub mod percentile;
pub mod report;
pub mod sim;
pub mod timed;
