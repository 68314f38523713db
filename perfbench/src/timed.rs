//! A delegating [`Scheduler`] that times every callback from outside.
//!
//! The wrapper is registered under [`TIMED_SCHEME`] in a
//! [`SchedulerRegistry`] and handed to `Experiment::registry`, so the
//! traced run goes through the same public entry point as the untraced
//! one. It forwards every callback to an inner v-MLP, `schedule_parallel`
//! included (the kernel always calls that one), and never changes an
//! argument or a return value: the traced run must reproduce the untraced
//! run's results exactly, which the benchmark checks.
//!
//! Registry factories are plain `fn` pointers and cannot capture state, so
//! each wrapper adds its totals into a thread-local when dropped. The
//! scheduler lives on the thread that calls `run_full`, which reads them
//! back with [`take_totals`] after the run.

use mlp_cluster::{MachineId, ShardPool};
use mlp_engine::{default_registry, RegistryEntry, SchedulerRegistry};
use mlp_sched::{
    HealingAction, LateInfo, NodeFailure, RequestInfo, RequestPlan, Scheduler, SchedulerCtx,
};
use mlp_sim::SimTime;
use mlp_trace::{RequestId, Span};
use std::cell::Cell;
use std::time::Instant;

/// Registry name of the timed v-MLP.
pub const TIMED_SCHEME: &str = "timedvmlp";

/// Callback counts and busy time of one or more scheduler instances.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedTotals {
    /// Admission rounds (`schedule` + `schedule_parallel`).
    pub admit_calls: u64,
    /// Time inside admission rounds.
    pub admit_ns: u64,
    /// Plans admission rounds returned.
    pub admit_plans: u64,
    /// Admission rounds that returned no plan.
    pub admit_empty: u64,
    /// DAG nodes placed by the returned plans.
    pub placed_nodes: u64,
    /// Sum of `waiting()` read before each admission round.
    pub queue_depth_sum: u64,
    /// `on_arrival` calls.
    pub arrival_calls: u64,
    /// Time inside `on_arrival`.
    pub arrival_ns: u64,
    /// Healing callbacks (`on_span_complete` + `on_late_invocation`).
    pub heal_calls: u64,
    /// Time inside healing callbacks.
    pub heal_ns: u64,
    /// Healing actions they returned.
    pub heal_actions: u64,
    /// Time inside every other callback (readiness, span start, request
    /// completion, failures, abandonment, skipped nodes).
    pub lifecycle_ns: u64,
}

impl std::ops::Add for SchedTotals {
    type Output = SchedTotals;

    fn add(self, o: SchedTotals) -> SchedTotals {
        SchedTotals {
            admit_calls: self.admit_calls + o.admit_calls,
            admit_ns: self.admit_ns + o.admit_ns,
            admit_plans: self.admit_plans + o.admit_plans,
            admit_empty: self.admit_empty + o.admit_empty,
            placed_nodes: self.placed_nodes + o.placed_nodes,
            queue_depth_sum: self.queue_depth_sum + o.queue_depth_sum,
            arrival_calls: self.arrival_calls + o.arrival_calls,
            arrival_ns: self.arrival_ns + o.arrival_ns,
            heal_calls: self.heal_calls + o.heal_calls,
            heal_ns: self.heal_ns + o.heal_ns,
            heal_actions: self.heal_actions + o.heal_actions,
            lifecycle_ns: self.lifecycle_ns + o.lifecycle_ns,
        }
    }
}

impl SchedTotals {
    /// Total time inside the scheduler.
    pub fn self_ns(&self) -> u64 {
        self.admit_ns + self.arrival_ns + self.heal_ns + self.lifecycle_ns
    }
}

thread_local! {
    static TOTALS: Cell<SchedTotals> = Cell::new(SchedTotals::default());
}

/// Returns and zeroes the totals of every wrapper dropped on this thread.
pub fn take_totals() -> SchedTotals {
    TOTALS.with(|t| t.take())
}

/// The built-in registry plus [`TIMED_SCHEME`], which accepts v-MLP's
/// params and builds a timed v-MLP.
pub fn registry() -> SchedulerRegistry {
    let vmlp = vmlp_entry();
    let mut registry = SchedulerRegistry::builtin();
    registry
        .register(RegistryEntry {
            name: TIMED_SCHEME,
            summary: "v-MLP behind a callback-timing wrapper",
            param_keys: vmlp.param_keys,
            build: |params, ctx| {
                let inner = (vmlp_entry().build)(params, ctx)?;
                Ok(Box::new(Timed { inner, totals: SchedTotals::default() }))
            },
            display: vmlp.display,
        })
        .expect("the timed scheme name is canonical and unused");
    registry
}

fn vmlp_entry() -> &'static RegistryEntry {
    default_registry().resolve("vmlp").expect("v-MLP is a built-in scheme")
}

struct Timed {
    inner: Box<dyn Scheduler>,
    totals: SchedTotals,
}

impl Drop for Timed {
    fn drop(&mut self) {
        let mine = self.totals;
        TOTALS.with(|t| t.set(t.get() + mine));
    }
}

/// Runs `f`, adding its duration to `ns`.
fn timed<R>(ns: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *ns += start.elapsed().as_nanos() as u64;
    r
}

impl Timed {
    fn admitted(&mut self, plans: Vec<RequestPlan>) -> Vec<RequestPlan> {
        self.totals.admit_calls += 1;
        self.totals.admit_plans += plans.len() as u64;
        self.totals.admit_empty += plans.is_empty() as u64;
        self.totals.placed_nodes += plans.iter().map(|p| p.nodes.len() as u64).sum::<u64>();
        plans
    }

    fn healed(&mut self, actions: Vec<HealingAction>) -> Vec<HealingAction> {
        self.totals.heal_calls += 1;
        self.totals.heal_actions += actions.len() as u64;
        actions
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_arrival(&mut self, req: RequestInfo, ctx: &mut SchedulerCtx<'_>) {
        self.totals.arrival_calls += 1;
        timed(&mut self.totals.arrival_ns, || self.inner.on_arrival(req, ctx))
    }

    fn schedule(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan> {
        self.totals.queue_depth_sum += self.inner.waiting() as u64;
        let plans = timed(&mut self.totals.admit_ns, || self.inner.schedule(ctx));
        self.admitted(plans)
    }

    fn schedule_parallel(
        &mut self,
        ctx: &mut SchedulerCtx<'_>,
        pool: &ShardPool,
    ) -> Vec<RequestPlan> {
        self.totals.queue_depth_sum += self.inner.waiting() as u64;
        let plans = timed(&mut self.totals.admit_ns, || self.inner.schedule_parallel(ctx, pool));
        self.admitted(plans)
    }

    fn on_node_ready(
        &mut self,
        request: RequestId,
        node: usize,
        at: SimTime,
        ctx: &mut SchedulerCtx<'_>,
    ) {
        timed(&mut self.totals.lifecycle_ns, || self.inner.on_node_ready(request, node, at, ctx))
    }

    fn on_span_start(&mut self, request: RequestId, node: usize, ctx: &mut SchedulerCtx<'_>) {
        timed(&mut self.totals.lifecycle_ns, || self.inner.on_span_start(request, node, ctx))
    }

    fn on_span_complete(&mut self, span: &Span, ctx: &mut SchedulerCtx<'_>) -> Vec<HealingAction> {
        let actions = timed(&mut self.totals.heal_ns, || self.inner.on_span_complete(span, ctx));
        self.healed(actions)
    }

    fn on_request_complete(&mut self, request: RequestId, ctx: &mut SchedulerCtx<'_>) {
        timed(&mut self.totals.lifecycle_ns, || self.inner.on_request_complete(request, ctx))
    }

    fn on_late_invocation(
        &mut self,
        late: LateInfo,
        ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        let actions = timed(&mut self.totals.heal_ns, || self.inner.on_late_invocation(late, ctx));
        self.healed(actions)
    }

    fn on_node_failure(
        &mut self,
        failure: NodeFailure,
        ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        timed(&mut self.totals.lifecycle_ns, || self.inner.on_node_failure(failure, ctx))
    }

    fn on_machine_failure(
        &mut self,
        machine: MachineId,
        orphans: &[(RequestId, usize)],
        ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        timed(&mut self.totals.lifecycle_ns, || {
            self.inner.on_machine_failure(machine, orphans, ctx)
        })
    }

    fn on_request_abandoned(&mut self, request: RequestId, ctx: &mut SchedulerCtx<'_>) {
        timed(&mut self.totals.lifecycle_ns, || self.inner.on_request_abandoned(request, ctx))
    }

    fn on_node_skipped(&mut self, request: RequestId, node: usize, ctx: &mut SchedulerCtx<'_>) {
        timed(&mut self.totals.lifecycle_ns, || self.inner.on_node_skipped(request, node, ctx))
    }

    fn waiting(&self) -> usize {
        self.inner.waiting()
    }
}
