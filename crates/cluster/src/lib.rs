//! # mlp-cluster — simulated machine substrate
//!
//! The stand-in for the paper's docker-swarm cluster (DESIGN.md §2). Each
//! [`Machine`] has a CPU/memory/IO capacity vector, a *future-reservation
//! ledger* (the "real-time data … which contains future resource status"
//! that Algorithm 1's machine-traversal consults), an actual-usage account,
//! and the cgroups-like [`controller`] knobs of Table III.

pub mod controller;
pub mod ledger;
pub mod ledger_naive;
pub mod machine;
pub mod pool;
pub mod shard;

pub use controller::ControllerTool;
pub use ledger::ResourceLedger;
pub use ledger_naive::NaiveLedger;
pub use machine::{Cluster, GrantId, Machine, MachineId};
pub use pool::ShardPool;
pub use shard::{ShardId, ShardMap, ShardPolicy};
