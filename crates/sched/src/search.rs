//! SearchSched — a seeded local-search placement contender.
//!
//! The registry's first out-of-enum scheduler (VMALS-flavoured): requests
//! are admitted in deadline order exactly like the profiling baselines,
//! but every admitted plan is then *refined* by a bounded
//! variable-neighborhood search. The greedy earliest-fit plan is the
//! incumbent; each VNS iteration re-pins `k` random DAG nodes onto
//! machines drawn from a bounded candidate window, rebuilds the schedule
//! in topological order against the real reservation ledgers, and keeps
//! the candidate only when it strictly improves the plan's makespan. A
//! failed move is rolled back with the ledger's exact `unreserve`
//! (bitwise-restoring, see `placement.rs` tests), so a refinement round
//! leaves no trace unless it wins.
//!
//! Every stochastic choice comes from a [`SimRng`] forked from the
//! experiment seed, and all moves run sequentially inside `schedule()`,
//! so the whole scheme is deterministic: same seed → identical plans,
//! identical audit trail.

use crate::baselines::MAX_ADMIT_TRIES_PER_ROUND;
use crate::placement::{plan_request, unreserve_plan, FitCursor, MachinePolicy, PlanPolicy, Scope};
use crate::plan::{NodePlan, RequestInfo, RequestPlan};
use crate::scheduler::{PlanEnv, Scheduler, SchedulerCtx};
use mlp_cluster::{Machine, MachineId};
use mlp_model::{Microservice, ResourceVector};
use mlp_sim::{SimDuration, SimRng, SimTime};
use mlp_trace::{Decision, DecisionKind};
use rand::Rng;

/// RNG stream id the scheduler forks off the experiment seed. Streams 0–2
/// are taken by arrivals / simulation / profile warm-up and 3 by the
/// overload runtime (see the engine's `run_full`/`simulate`); a dedicated
/// stream keeps SearchSched's draws independent of the offered load shared
/// with every other scheme.
pub const SEARCH_RNG_STREAM: u64 = 4;

/// Tuning knobs for [`SearchSched`], all exposed as typed registry params.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Maximum VNS neighborhood size: the largest number of nodes a single
    /// move may re-pin. The search starts at `k = 1`, grows `k` on every
    /// non-improving move, and resets to 1 on an improvement.
    pub neighborhood: usize,
    /// Candidate machine window per re-pinned node: a move draws the
    /// node's new machine from this many consecutive machines starting at
    /// a seeded offset, instead of scanning the fleet.
    pub window: usize,
    /// VNS iterations spent refining one admitted request.
    pub iters: usize,
    /// Refined admissions per scheduling round; admissions past this cap
    /// keep their greedy plan untouched, bounding per-tick search cost.
    pub round_budget: usize,
    /// Multiplier over the profiled mean execution time used as each
    /// node's reservation budget (the baselines' engineering margin).
    pub margin: f64,
}

impl SearchConfig {
    /// Defaults sized so a refinement round costs the same order of work
    /// as the baselines' admission scan.
    pub fn default_config() -> Self {
        SearchConfig { neighborhood: 3, window: 8, iters: 12, round_budget: 8, margin: 1.1 }
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// Greedy seed policy: FullProfile's profile-driven budgets and grants
/// (mean execution time × margin, mean observed usage) over the shared
/// earliest-fit ledger scan. The search refines *placements*, so it
/// deliberately reuses the strongest baseline's estimates.
struct SearchPolicy {
    margin: f64,
}

impl PlanPolicy for SearchPolicy {
    fn budget(&self, _n: usize, svc: &Microservice, wf: f64, env: &PlanEnv<'_>) -> SimDuration {
        let mean = env.profiles.mean_exec_ms(svc.id).unwrap_or(svc.base_ms);
        SimDuration::from_millis_f64(mean * wf * self.margin)
    }
    fn grant(&self, _n: usize, svc: &Microservice, env: &PlanEnv<'_>) -> ResourceVector {
        let observed = env.profiles.mean_usage(svc.id);
        if observed == ResourceVector::ZERO {
            svc.demand
        } else {
            observed
        }
    }
    fn machine_policy(&self) -> MachinePolicy {
        MachinePolicy::LedgerEarliestFit
    }
    fn reserve(&self) -> bool {
        true
    }
}

/// The plan cost the search minimizes: makespan end first, then the sum
/// of planned starts (earlier work beats equal-makespan procrastination).
fn plan_cost(plan: &RequestPlan) -> (SimTime, u128) {
    let start_sum = plan.nodes.iter().map(|n| n.planned_start.0 as u128).sum();
    (plan.planned_makespan_end(), start_sum)
}

/// One ledger probe without the memo layer: VNS move evaluation touches a
/// bounded number of (machine, slot) pairs, and every accepted move
/// invalidates earlier probes anyway.
fn probe(
    m: &Machine,
    ready: SimTime,
    horizon_end: SimTime,
    budget: SimDuration,
    grant: ResourceVector,
) -> Option<SimTime> {
    if !m.is_up() || !m.ledger.might_fit(grant) {
        return None;
    }
    m.ledger.earliest_fit(ready, horizon_end, budget, grant)
}

/// The volatility-agnostic local-search scheduler.
pub struct SearchSched {
    cfg: SearchConfig,
    queue: Vec<RequestInfo>,
    rr_cursor: usize,
    fit: FitCursor,
    rng: SimRng,
}

impl SearchSched {
    /// Creates the scheme with default knobs, seeded from the experiment
    /// seed.
    pub fn new(seed: u64) -> Self {
        Self::with_config(SearchConfig::default_config(), seed)
    }

    /// Creates a configured instance seeded from the experiment seed.
    pub fn with_config(cfg: SearchConfig, seed: u64) -> Self {
        SearchSched {
            cfg,
            queue: Vec::new(),
            rr_cursor: 0,
            fit: FitCursor::new(),
            rng: SimRng::new(seed).fork(SEARCH_RNG_STREAM),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> SearchConfig {
        self.cfg
    }

    /// Rebuilds a complete schedule for `req` with every node pinned to
    /// `assignment`, reserving as it goes. Rolls its reservations back and
    /// returns `None` when any node has no window on its pinned machine.
    fn plan_pinned(
        &mut self,
        req: &RequestInfo,
        assignment: &[MachineId],
        budgets: &[SimDuration],
        grants: &[ResourceVector],
        ctx: &mut SchedulerCtx<'_>,
    ) -> Option<RequestPlan> {
        let dag = &ctx.catalog.request(req.rtype).dag;
        let order = dag.topo_order().expect("request DAGs are validated acyclic");
        let horizon_end = ctx.now + SearchPolicy { margin: self.cfg.margin }.horizon();
        let mut nodes: Vec<Option<NodePlan>> = vec![None; dag.len()];
        let mut reserved: Vec<(MachineId, SimTime, SimTime, ResourceVector)> = Vec::new();

        for &i in &order {
            let svc = ctx.catalog.services.get(dag.node(i).service);
            let mut ready = ctx.now;
            for p in dag.parents_iter(i) {
                let parent = nodes[p].as_ref().expect("topo order visits parents first");
                let t = parent.planned_end() + ctx.net.expected_delay(false, svc.comm);
                if t > ready {
                    ready = t;
                }
            }
            let machine = assignment[i];
            let start = match probe(
                ctx.cluster.machine(machine),
                ready,
                horizon_end,
                budgets[i],
                grants[i],
            ) {
                Some(slot) => slot,
                None => {
                    for (m, from, to, amt) in reserved {
                        ctx.cluster.machine_mut(m).ledger.unreserve(from, to, amt);
                    }
                    return None;
                }
            };
            let reserve = budgets[i] > SimDuration::ZERO;
            if reserve {
                let end = start + budgets[i];
                ctx.cluster.machine_mut(machine).ledger.reserve(start, end, grants[i]);
                reserved.push((machine, start, end, grants[i]));
            }
            nodes[i] = Some(NodePlan {
                machine,
                planned_start: start,
                budget: budgets[i],
                grant: grants[i],
                reserved: reserve,
            });
        }
        Some(RequestPlan {
            request: req.id,
            nodes: nodes.into_iter().map(|n| n.expect("all nodes planned")).collect(),
        })
    }

    /// Re-reserves exactly the slots a previously unreserved plan held —
    /// legal because `reserve`/`unreserve` round-trips are exact.
    fn restore_plan(plan: &RequestPlan, ctx: &mut SchedulerCtx<'_>) {
        for np in &plan.nodes {
            if np.reserved {
                ctx.cluster.machine_mut(np.machine).ledger.reserve(
                    np.planned_start,
                    np.planned_end(),
                    np.grant,
                );
            }
        }
    }

    /// VNS refinement of one admitted (and currently reserved) plan.
    fn refine(
        &mut self,
        req: &RequestInfo,
        mut best: RequestPlan,
        ctx: &mut SchedulerCtx<'_>,
    ) -> RequestPlan {
        let n_machines = ctx.cluster.len();
        let n_nodes = best.nodes.len();
        if n_machines < 2 || n_nodes == 0 {
            return best;
        }
        let env = ctx.env();
        let dag = &ctx.catalog.request(req.rtype).dag;
        let policy = SearchPolicy { margin: self.cfg.margin };
        let budgets: Vec<SimDuration> = (0..n_nodes)
            .map(|i| {
                let node = dag.node(i);
                policy.budget(i, ctx.catalog.services.get(node.service), node.work_factor, &env)
            })
            .collect();
        let grants: Vec<ResourceVector> = (0..n_nodes)
            .map(|i| policy.grant(i, ctx.catalog.services.get(dag.node(i).service), &env))
            .collect();

        let window = self.cfg.window.clamp(1, n_machines);
        let mut best_cost = plan_cost(&best);
        let mut k = 1usize;
        for _ in 0..self.cfg.iters {
            // Draw the move first so the RNG stream is consumed
            // identically whether or not the move ends up feasible.
            let mut assignment: Vec<MachineId> = best.nodes.iter().map(|n| n.machine).collect();
            for _ in 0..k.min(n_nodes) {
                let node = self.rng.gen_range(0..n_nodes);
                let base = self.rng.gen_range(0..n_machines);
                let offset = self.rng.gen_range(0..window);
                assignment[node] = MachineId(((base + offset) % n_machines) as u32);
            }
            unreserve_plan(&best, ctx);
            let candidate = self.plan_pinned(req, &assignment, &budgets, &grants, ctx);
            match candidate {
                Some(cand) if plan_cost(&cand) < best_cost => {
                    ctx.audit.record(
                        Decision::new(ctx.now, DecisionKind::PlacementRefine, "search-improved")
                            .request(req.id),
                    );
                    best_cost = plan_cost(&cand);
                    best = cand;
                    k = 1;
                }
                other => {
                    if let Some(cand) = other {
                        unreserve_plan(&cand, ctx);
                    }
                    Self::restore_plan(&best, ctx);
                    k = if k >= self.cfg.neighborhood { 1 } else { k + 1 };
                }
            }
        }
        best
    }
}

/// Deadline priority, identical to the profiling baselines.
fn deadline_key(r: &RequestInfo, ctx: &SchedulerCtx<'_>) -> SimTime {
    let slo = ctx.catalog.request(r.rtype).slo_ms;
    r.arrival + SimDuration::from_millis_f64(slo)
}

impl Scheduler for SearchSched {
    fn name(&self) -> &'static str {
        "SearchSched"
    }

    fn on_arrival(&mut self, req: RequestInfo, ctx: &mut SchedulerCtx<'_>) {
        let key = deadline_key(&req, ctx);
        let at = self.queue.partition_point(|r| deadline_key(r, ctx) <= key);
        self.queue.insert(at, req);
    }

    fn schedule(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan> {
        self.fit.begin_round(ctx.now);
        let policy = SearchPolicy { margin: self.cfg.margin };
        let mut plans = Vec::new();
        let mut deferred = Vec::new();
        let pending = std::mem::take(&mut self.queue);
        let mut failures = 0usize;
        let mut refined = 0usize;
        for (i, req) in pending.iter().enumerate() {
            if failures >= MAX_ADMIT_TRIES_PER_ROUND {
                deferred.extend_from_slice(&pending[i..]);
                break;
            }
            match plan_request(
                req,
                &policy,
                Scope::Cluster,
                &mut self.rr_cursor,
                &mut self.fit,
                ctx,
            ) {
                Some(greedy) => {
                    let plan = if refined < self.cfg.round_budget {
                        refined += 1;
                        self.refine(req, greedy, ctx)
                    } else {
                        greedy
                    };
                    plans.push(plan);
                }
                None => {
                    failures += 1;
                    ctx.audit.record(
                        Decision::new(ctx.now, DecisionKind::Defer, "no-ledger-slot")
                            .request(req.id),
                    );
                    deferred.push(*req);
                }
            }
        }
        self.queue = deferred;
        plans
    }

    fn waiting(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_cluster::Cluster;
    use mlp_model::RequestCatalog;
    use mlp_net::NetworkModel;
    use mlp_trace::{AuditLog, MetricsRegistry, ProfileStore, RequestId};

    struct Harness {
        cluster: Cluster,
        catalog: RequestCatalog,
        net: NetworkModel,
        profiles: ProfileStore,
        metrics: MetricsRegistry,
        audit: AuditLog,
    }

    impl Harness {
        fn new(machines: usize) -> Self {
            Harness {
                cluster: Cluster::homogeneous(
                    machines,
                    ResourceVector::new(6.0, 32_000.0, 1_000.0),
                ),
                catalog: RequestCatalog::paper(),
                net: NetworkModel::paper_default(),
                profiles: ProfileStore::new(),
                metrics: MetricsRegistry::new(),
                audit: AuditLog::disabled(),
            }
        }

        fn ctx(&mut self, now_ms: u64) -> SchedulerCtx<'_> {
            SchedulerCtx {
                now: SimTime::from_millis(now_ms),
                cluster: &mut self.cluster,
                profiles: &self.profiles,
                catalog: &self.catalog,
                net: &self.net,
                metrics: &self.metrics,
                audit: &self.audit,
            }
        }

        fn req(&self, id: u64, name: &str, arrival_ms: u64) -> RequestInfo {
            RequestInfo {
                id: RequestId(id),
                rtype: self.catalog.request_by_name(name).unwrap().id,
                arrival: SimTime::from_millis(arrival_ms),
            }
        }
    }

    #[test]
    fn plans_respect_dag_and_reserve() {
        let mut h = Harness::new(6);
        let r = h.req(1, "compose-post", 0);
        let mut s = SearchSched::new(7);
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        assert_eq!(plans.len(), 1);
        let dag = &ctx.catalog.request_by_name("compose-post").unwrap().dag;
        assert!(plans[0].respects_dag(dag));
        assert!(plans[0].nodes.iter().all(|n| n.reserved));
        assert_eq!(s.waiting(), 0);
    }

    #[test]
    fn same_seed_produces_identical_plans() {
        let run = |seed: u64| {
            let mut h = Harness::new(6);
            let reqs = [
                h.req(1, "compose-post", 0),
                h.req(2, "basicSearch", 1),
                h.req(3, "compose-post", 2),
            ];
            let mut s = SearchSched::new(seed);
            let mut ctx = h.ctx(2);
            for r in reqs {
                s.on_arrival(r, &mut ctx);
            }
            s.schedule(&mut ctx)
        };
        assert_eq!(run(42), run(42), "same seed must replay bitwise");
        // Different seeds are allowed to differ (and usually do); this
        // only asserts the RNG actually participates.
        let _ = run(43);
    }

    #[test]
    fn refinement_never_worsens_the_greedy_plan() {
        // The greedy plan is the incumbent: whatever the search does, the
        // returned plan's makespan is never later than greedy's.
        let mut h = Harness::new(4);
        // Pre-load some ledgers so moves actually face contention.
        for m in h.cluster.machines_mut() {
            if m.id.0 % 2 == 0 {
                m.ledger.reserve(
                    SimTime::ZERO,
                    SimTime::from_secs(1),
                    ResourceVector::new(4.0, 20_000.0, 600.0),
                );
            }
        }
        let r = h.req(1, "compose-post", 0);

        let greedy_end = {
            let mut h2 = Harness::new(4);
            for m in h2.cluster.machines_mut() {
                if m.id.0 % 2 == 0 {
                    m.ledger.reserve(
                        SimTime::ZERO,
                        SimTime::from_secs(1),
                        ResourceVector::new(4.0, 20_000.0, 600.0),
                    );
                }
            }
            let mut s = SearchSched::with_config(
                SearchConfig { iters: 0, ..SearchConfig::default_config() },
                9,
            );
            let r2 = h2.req(1, "compose-post", 0);
            let mut ctx = h2.ctx(0);
            s.on_arrival(r2, &mut ctx);
            s.schedule(&mut ctx)[0].planned_makespan_end()
        };

        let mut s = SearchSched::with_config(
            SearchConfig { iters: 32, ..SearchConfig::default_config() },
            9,
        );
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let refined = &s.schedule(&mut ctx)[0];
        assert!(refined.planned_makespan_end() <= greedy_end);
    }

    #[test]
    fn rejected_moves_restore_ledgers_exactly() {
        let mut h = Harness::new(5);
        let baseline: Vec<ResourceVector> = h
            .cluster
            .machines()
            .iter()
            .map(|m| m.ledger.available(SimTime::ZERO, SimTime::from_secs(30)))
            .collect();
        let r = h.req(1, "read-user-timeline", 0);
        let mut s = SearchSched::new(11);
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        // Undo the surviving plan; ledgers must be bitwise back to start
        // regardless of how many candidate moves were tried and rejected.
        unreserve_plan(&plans[0], &mut ctx);
        for (m, before) in ctx.cluster.machines().iter().zip(baseline) {
            let after = m.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            assert_eq!(after, before, "machine {:?} ledger not restored", m.id);
        }
    }

    #[test]
    fn saturated_cluster_defers_with_audit() {
        let mut h = Harness::new(1);
        h.cluster.machine_mut(MachineId(0)).ledger.reserve(
            SimTime::ZERO,
            SimTime::from_secs(120),
            ResourceVector::new(6.0, 32_000.0, 1_000.0),
        );
        let r = h.req(1, "basicSearch", 0);
        let mut s = SearchSched::new(5);
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        assert!(s.schedule(&mut ctx).is_empty());
        assert_eq!(s.waiting(), 1, "request stays queued for the next round");
    }
}
