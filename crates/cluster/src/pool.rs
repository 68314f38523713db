//! [`ShardPool`]: a fieldless type kept for one trait signature.

/// Carries no state and runs nothing. It exists only because the default
/// method `mlp_sched::Scheduler::schedule_parallel` takes a `&ShardPool`,
/// and wrappers outside this workspace implement that method. Sharded
/// admission runs sequentially inside `Scheduler::schedule`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardPool;
