//! Shared DAG-planning machinery used by all schemes.

use crate::plan::{NodePlan, RequestInfo, RequestPlan};
use crate::scheduler::{PlanEnv, SchedulerCtx};
use mlp_cluster::{Machine, MachineId};
use mlp_model::{Microservice, ResourceVector};
use mlp_sim::{FastHashMap, SimDuration, SimTime};

/// The full input of one ledger placement probe. Two probes with equal keys
/// against a ledger at the same write epoch are the same computation, so
/// their `might_fit` → `earliest_fit` → headroom triple answers bitwise
/// identically — which is what makes the cursor *exact* rather than a
/// heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ProbeKey {
    machine: MachineId,
    ready_us: u64,
    horizon_us: u64,
    budget_us: u64,
    grant_bits: [u64; 3],
}

impl ProbeKey {
    fn new(
        machine: MachineId,
        ready: SimTime,
        horizon_end: SimTime,
        budget: SimDuration,
        grant: &ResourceVector,
    ) -> Self {
        ProbeKey {
            machine,
            ready_us: ready.0,
            horizon_us: horizon_end.0,
            budget_us: budget.as_micros(),
            grant_bits: [grant.cpu.to_bits(), grant.mem.to_bits(), grant.io.to_bits()],
        }
    }
}

/// A placement cursor: memoized `earliest_fit` probes for the ledger scan.
///
/// An admission round probes every candidate machine once per node, and a
/// deferral-heavy round repeats near-identical probes for every queued
/// request of the same type (same budget, same grant, same `ready = now`
/// for root nodes). The cursor caches each probe's outcome keyed by its
/// full inputs plus the target ledger's write epoch
/// ([`ResourceLedger::epoch`](mlp_cluster::ResourceLedger::epoch)): a hit
/// with an unchanged epoch replays the memoized slot/headroom in O(1), and
/// any ledger write (reserve, unreserve, crash clear, prune) bumps the
/// epoch so stale entries can never be returned. Liveness (`is_up`) is
/// deliberately checked *outside* the cursor — machine recovery does not
/// touch the ledger, so it must not need an epoch bump to be seen.
///
/// Entries are only meaningful within one scheduling round (`ready` keys
/// on `now`), so [`begin_round`](Self::begin_round) drops them whenever
/// the round time moves — bounding the map at one round's probe count.
#[derive(Debug, Default)]
pub struct FitCursor {
    round: Option<SimTime>,
    entries: FastHashMap<ProbeKey, (u64, Option<(SimTime, f64)>)>,
}

impl FitCursor {
    /// An empty cursor. Allocation-free until the first ledger probe, so
    /// schemes that never use `LedgerEarliestFit` pay nothing for it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the start of a scheduling round at `now`, dropping entries
    /// from earlier rounds (their `ready`-derived keys can no longer match
    /// and would only grow the map).
    pub fn begin_round(&mut self, now: SimTime) {
        if self.round != Some(now) {
            self.round = Some(now);
            self.entries.clear();
        }
    }

    /// Cached probe entries (diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no probes are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `might_fit` → `earliest_fit` → headroom probe against one
    /// machine's ledger, memoized. Returns the earliest feasible slot and
    /// the window's worst-fit headroom score, or `None` when the grant has
    /// no window before the horizon. The caller must have checked
    /// `m.is_up()` already.
    fn probe(
        &mut self,
        m: &Machine,
        ready: SimTime,
        horizon_end: SimTime,
        budget: SimDuration,
        grant: ResourceVector,
    ) -> Option<(SimTime, f64)> {
        let key = ProbeKey::new(m.id, ready, horizon_end, budget, &grant);
        let epoch = m.ledger.epoch();
        if let Some(&(cached_epoch, result)) = self.entries.get(&key) {
            if cached_epoch == epoch {
                return result;
            }
        }
        let result = if !m.ledger.might_fit(grant) {
            // `might_fit` is a conservative superset test: when it fails,
            // no window exists, which is exactly the `None` outcome.
            None
        } else {
            m.ledger.earliest_fit(ready, horizon_end, budget, grant).map(|slot| {
                let headroom =
                    m.ledger.available(slot, slot + budget).utilization_against(&m.capacity);
                (slot, headroom)
            })
        };
        self.entries.insert(key, (epoch, result));
        result
    }
}

/// How a scheme picks the machine for each node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachinePolicy {
    /// Cycle through machines (FairSched).
    RoundRobin,
    /// Lowest instantaneous utilization at planning time (CurSched).
    LeastLoaded,
    /// Scan all machines' future ledgers and take the slot that starts
    /// earliest; requires the grant to fit for the whole budget
    /// (PartProfile / FullProfile / v-MLP).
    LedgerEarliestFit,
}

/// Which shards a [`MachinePolicy::LedgerEarliestFit`] placement may
/// search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The request's home shard first, overflowing to the other shards in
    /// rotation order when the home shard has no feasible window. With one
    /// shard this is a whole-cluster scan.
    Cluster,
    /// The request's home shard only: a request it cannot host is
    /// unplaceable, and nothing counts as a shard overflow.
    HomeShard,
}

/// Per-node planning inputs a scheme provides to the builder.
///
/// Budgets and grants consult only the read-only [`PlanEnv`] (profiles,
/// catalog, network, now) — never the mutable cluster — so a policy can
/// be evaluated while the planner holds the cluster mutably.
pub trait PlanPolicy {
    /// Execution-time budget Δt for a node.
    fn budget(
        &self,
        node: usize,
        svc: &Microservice,
        work_factor: f64,
        env: &PlanEnv<'_>,
    ) -> SimDuration;

    /// Resource grant for a node.
    fn grant(&self, node: usize, svc: &Microservice, env: &PlanEnv<'_>) -> ResourceVector;

    /// Machine-selection policy.
    fn machine_policy(&self) -> MachinePolicy;

    /// Whether grants are written into machine ledgers.
    fn reserve(&self) -> bool;

    /// Planning horizon beyond `now`: a node that cannot be placed before
    /// `now + horizon` makes the whole request unplaceable this round.
    /// Ten seconds is far beyond any request's SLO — planning further out
    /// would only delay the inevitable violation while bloating ledgers.
    fn horizon(&self) -> SimDuration {
        SimDuration::from_secs(10)
    }
}

/// Plans every node of `req`'s DAG in topological order.
///
/// For each node the earliest feasible start is the latest parent's
/// planned end plus the expected caller→callee communication delay; the
/// machine policy then decides where (and for ledger policies, exactly
/// when) the node runs, searching the shards `scope` allows. Returns
/// `None` if any node cannot be placed within the policy's horizon — the
/// caller decides whether to defer the request (v-MLP's "switch `r_i`
/// with `r_{i+1}`") or force-place it.
///
/// On success, reservations (if any) are already written to the ledgers;
/// [`unreserve_plan`] rolls them back.
pub fn plan_request(
    req: &RequestInfo,
    policy: &impl PlanPolicy,
    scope: Scope,
    rr_cursor: &mut usize,
    fit: &mut FitCursor,
    ctx: &mut SchedulerCtx<'_>,
) -> Option<RequestPlan> {
    let env = ctx.env();
    let rtype = ctx.catalog.request(req.rtype);
    let dag = &rtype.dag;
    let order = dag.topo_order().expect("request DAGs are validated acyclic");
    let n_machines = ctx.cluster.len();
    assert!(n_machines > 0, "cannot plan on an empty cluster");

    let mut nodes: Vec<Option<NodePlan>> = vec![None; dag.len()];
    let horizon_end = ctx.now + policy.horizon();
    let mut reserved: Vec<(MachineId, SimTime, SimTime, ResourceVector)> = Vec::new();

    for &i in &order {
        let node = dag.node(i);
        let svc = ctx.catalog.services.get(node.service);
        let budget = policy.budget(i, svc, node.work_factor, &env);
        let grant = policy.grant(i, svc, &env);

        // Earliest start: all parents done + expected comm (assume the
        // conservative cross-machine delay; co-location is decided later).
        let mut ready = ctx.now;
        for p in dag.parents_iter(i) {
            let parent = nodes[p].as_ref().expect("topo order visits parents first");
            let comm = ctx.net.expected_delay(false, svc.comm);
            let t = parent.planned_end() + comm;
            if t > ready {
                ready = t;
            }
        }

        let placed = match policy.machine_policy() {
            MachinePolicy::RoundRobin => {
                let m = MachineId((*rr_cursor % n_machines) as u32);
                *rr_cursor += 1;
                Some((m, ready))
            }
            MachinePolicy::LeastLoaded => ctx.cluster.least_loaded().map(|m| (m, ready)),
            MachinePolicy::LedgerEarliestFit => {
                // Shard-first scan: only the request's home shard is
                // searched, unless it has no feasible window at all, in
                // which case a `Scope::Cluster` scan overflows to the
                // other shards in rotation order (cross-shard work
                // stealing). With one shard (the default) this is exactly
                // a whole-cluster scan.
                //
                // Within a shard, earliest start wins; among machines that
                // can start at the same instant, prefer the one with the
                // most planned headroom in the window (worst-fit).
                // Spreading keeps slack for execution-time and
                // communication slips — packing tightly onto one machine
                // would turn every slip into the Fig 5 contention.
                let home = ctx.cluster.home_shard(req.id.0);
                let mut best: Option<(MachineId, SimTime, f64)> = None;
                let mut overflowed = false;
                let shards = match scope {
                    Scope::Cluster => usize::MAX,
                    Scope::HomeShard => 1,
                };
                for shard in ctx.cluster.shard_scan_order(home).take(shards) {
                    for m in ctx.cluster.shard_machines(shard) {
                        if !m.is_up() {
                            continue; // crashed machines take no new plans
                        }
                        // The memoized availability-index + earliest-fit +
                        // headroom probe (see [`FitCursor`]): a repeated
                        // probe against an unchanged ledger replays its
                        // cached answer, so deferral-heavy rounds stop
                        // re-walking every timeline per queued request.
                        if let Some((slot, headroom)) =
                            fit.probe(m, ready, horizon_end, budget, grant)
                        {
                            let better = match best {
                                None => true,
                                Some((_, t, h)) => slot < t || (slot == t && headroom > h),
                            };
                            if better {
                                best = Some((m.id, slot, headroom));
                            }
                        }
                    }
                    if best.is_some() {
                        overflowed = shard != home;
                        break; // first shard with a window wins — no wider scan
                    }
                }
                if overflowed {
                    ctx.metrics.inc(mlp_trace::metrics::names::SHARD_OVERFLOWS);
                }
                best.map(|(m, t, _)| (m, t))
            }
        };

        let (machine, start) = match placed {
            Some(p) => p,
            None => {
                // Roll back reservations made for earlier nodes.
                for (m, from, to, amt) in reserved {
                    ctx.cluster.machine_mut(m).ledger.unreserve(from, to, amt);
                }
                return None;
            }
        };

        if policy.reserve() && budget > SimDuration::ZERO {
            let end = start + budget;
            ctx.cluster.machine_mut(machine).ledger.reserve(start, end, grant);
            reserved.push((machine, start, end, grant));
        }

        nodes[i] = Some(NodePlan {
            machine,
            planned_start: start,
            budget,
            grant,
            reserved: policy.reserve() && budget > SimDuration::ZERO,
        });
    }

    Some(RequestPlan {
        request: req.id,
        nodes: nodes.into_iter().map(|n| n.expect("all nodes planned")).collect(),
    })
}

/// Rolls back every reservation a plan wrote (when a plan is abandoned or
/// re-made by the self-healing module).
pub fn unreserve_plan(plan: &RequestPlan, ctx: &mut SchedulerCtx<'_>) {
    for np in &plan.nodes {
        if np.reserved && np.budget > SimDuration::ZERO {
            ctx.cluster.machine_mut(np.machine).ledger.unreserve(
                np.planned_start,
                np.planned_end(),
                np.grant,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_cluster::Cluster;
    use mlp_model::RequestCatalog;
    use mlp_net::NetworkModel;
    use mlp_trace::{AuditLog, MetricsRegistry, ProfileStore, RequestId};

    struct TestPolicy {
        policy: MachinePolicy,
        reserve: bool,
        budget_ms: u64,
        grant: ResourceVector,
    }

    impl PlanPolicy for TestPolicy {
        fn budget(&self, _n: usize, _s: &Microservice, _wf: f64, _e: &PlanEnv<'_>) -> SimDuration {
            SimDuration::from_millis(self.budget_ms)
        }
        fn grant(&self, _n: usize, _s: &Microservice, _e: &PlanEnv<'_>) -> ResourceVector {
            self.grant
        }
        fn machine_policy(&self) -> MachinePolicy {
            self.policy
        }
        fn reserve(&self) -> bool {
            self.reserve
        }
    }

    fn harness() -> (Cluster, RequestCatalog, NetworkModel, ProfileStore, MetricsRegistry) {
        (
            Cluster::homogeneous(4, ResourceVector::new(6.0, 32_000.0, 1_000.0)),
            RequestCatalog::paper(),
            NetworkModel::paper_default(),
            ProfileStore::new(),
            MetricsRegistry::new(),
        )
    }

    static NO_AUDIT: std::sync::OnceLock<AuditLog> = std::sync::OnceLock::new();

    fn req(catalog: &RequestCatalog, name: &str) -> RequestInfo {
        RequestInfo {
            id: RequestId(1),
            rtype: catalog.request_by_name(name).unwrap().id,
            arrival: SimTime::ZERO,
        }
    }

    macro_rules! ctx {
        ($cluster:expr, $cat:expr, $net:expr, $prof:expr, $met:expr) => {
            SchedulerCtx {
                now: SimTime::ZERO,
                cluster: &mut $cluster,
                profiles: &$prof,
                catalog: &$cat,
                net: &$net,
                metrics: &$met,
                audit: NO_AUDIT.get_or_init(AuditLog::disabled),
            }
        };
    }

    #[test]
    fn round_robin_plans_all_nodes() {
        let (mut cluster, cat, net, prof, met) = harness();
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::RoundRobin,
            reserve: false,
            budget_ms: 10,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "compose-post");
        let plan =
            plan_request(&r, &p, Scope::Cluster, &mut cursor, &mut FitCursor::new(), &mut ctx)
                .unwrap();
        let dag = &cat.request_by_name("compose-post").unwrap().dag;
        assert_eq!(plan.nodes.len(), dag.len());
        assert!(plan.respects_dag(dag));
        // Round-robin cycles machines.
        assert_ne!(plan.nodes[0].machine, plan.nodes[1].machine);
    }

    #[test]
    fn dependencies_are_sequenced_with_comm_gaps() {
        let (mut cluster, cat, net, prof, met) = harness();
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            reserve: true,
            budget_ms: 20,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "read-user-timeline"); // 3-node chain
        let plan =
            plan_request(&r, &p, Scope::Cluster, &mut cursor, &mut FitCursor::new(), &mut ctx)
                .unwrap();
        // Child starts strictly after parent's planned end (comm gap > 0).
        let dag = &cat.request_by_name("read-user-timeline").unwrap().dag;
        for &(a, b) in dag.edges() {
            assert!(plan.nodes[b].planned_start > plan.nodes[a].planned_end());
        }
    }

    #[test]
    fn ledger_policy_avoids_overcommit() {
        let (mut cluster, cat, net, prof, met) = harness();
        // Fill machine ledgers almost completely for the next 30 s.
        for m in cluster.machines_mut() {
            m.ledger.reserve(
                SimTime::ZERO,
                SimTime::from_secs(30),
                ResourceVector::new(5.5, 31_000.0, 950.0),
            );
        }
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            reserve: true,
            budget_ms: 10,
            grant: ResourceVector::new(2.0, 500.0, 50.0), // does not fit anywhere
        };
        let mut cursor = 0;
        let r = req(&cat, "read-user-timeline");
        assert!(plan_request(&r, &p, Scope::Cluster, &mut cursor, &mut FitCursor::new(), &mut ctx)
            .is_none());
    }

    #[test]
    fn failed_plan_rolls_back_reservations() {
        let (mut cluster, cat, net, prof, met) = harness();
        // Only machine 0 has room, and only enough for ~1 concurrent node;
        // a wide DAG will fail part-way and must roll back.
        for m in cluster.machines_mut() {
            let block = if m.id.0 == 0 {
                ResourceVector::new(4.0, 30_000.0, 900.0)
            } else {
                ResourceVector::new(6.0, 32_000.0, 1_000.0)
            };
            m.ledger.reserve(SimTime::ZERO, SimTime::from_secs(40), block);
        }
        let baseline_avail: Vec<ResourceVector> = cluster
            .machines()
            .iter()
            .map(|m| m.ledger.available(SimTime::ZERO, SimTime::from_secs(30)))
            .collect();
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            reserve: true,
            budget_ms: 10_000, // long budgets so concurrent branches collide
            grant: ResourceVector::new(1.5, 1_000.0, 80.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "compose-post"); // wide fan-out
        let result =
            plan_request(&r, &p, Scope::Cluster, &mut cursor, &mut FitCursor::new(), &mut ctx);
        assert!(result.is_none(), "expected unplaceable");
        // Ledgers restored exactly.
        for (m, before) in ctx.cluster.machines().iter().zip(baseline_avail) {
            let after = m.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            assert_eq!(after, before, "machine {:?} ledger not rolled back", m.id);
        }
    }

    #[test]
    fn placement_stays_in_home_shard_when_it_fits() {
        let (mut cluster, cat, net, prof, met) = harness();
        cluster = cluster.with_shards(2, mlp_cluster::ShardPolicy::RoundRobin);
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            reserve: true,
            budget_ms: 10,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "read-user-timeline"); // RequestId(1) → home shard 1
        let plan =
            plan_request(&r, &p, Scope::Cluster, &mut cursor, &mut FitCursor::new(), &mut ctx)
                .unwrap();
        for np in &plan.nodes {
            assert_eq!(ctx.cluster.shard_of(np.machine), mlp_cluster::ShardId(1));
        }
        assert_eq!(met.counter(mlp_trace::metrics::names::SHARD_OVERFLOWS), 0);
    }

    #[test]
    fn saturated_home_shard_overflows_to_neighbor() {
        let (mut cluster, cat, net, prof, met) = harness();
        cluster = cluster.with_shards(2, mlp_cluster::ShardPolicy::RoundRobin);
        // Fill every ledger in shard 1 (odd machine ids) for a long time.
        for m in cluster.machines_mut() {
            if m.id.0 % 2 == 1 {
                m.ledger.reserve(
                    SimTime::ZERO,
                    SimTime::from_secs(60),
                    ResourceVector::new(6.0, 32_000.0, 1_000.0),
                );
            }
        }
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            reserve: true,
            budget_ms: 10,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "read-user-timeline"); // home shard 1 is saturated
        let plan =
            plan_request(&r, &p, Scope::Cluster, &mut cursor, &mut FitCursor::new(), &mut ctx)
                .unwrap();
        for np in &plan.nodes {
            assert_eq!(
                ctx.cluster.shard_of(np.machine),
                mlp_cluster::ShardId(0),
                "work must be stolen by the overflow shard"
            );
        }
        assert!(met.counter(mlp_trace::metrics::names::SHARD_OVERFLOWS) > 0);
    }

    #[test]
    fn home_shard_scope_matches_cluster_scope_when_home_fits() {
        // When the home shard has room, a cluster-scoped plan never leaves
        // it — so a home-shard-scoped plan must produce the byte-identical
        // plan and ledger writes.
        let (cluster, cat, net, prof, met) = harness();
        let mut full = cluster.with_shards(2, mlp_cluster::ShardPolicy::RoundRobin);
        let mut home = full.clone();
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            reserve: true,
            budget_ms: 25,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let r = req(&cat, "read-user-timeline"); // RequestId(1) → home shard 1
        let mut plans = Vec::new();
        for (cluster, scope) in [(&mut full, Scope::Cluster), (&mut home, Scope::HomeShard)] {
            let mut ctx = ctx!(*cluster, cat, net, prof, met);
            plans.push(plan_request(&r, &p, scope, &mut 0, &mut FitCursor::new(), &mut ctx));
        }
        assert!(plans[0].is_some());
        assert_eq!(plans[0], plans[1]);
        for (a, b) in full.machines().iter().zip(home.machines()) {
            let wa = a.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            let wb = b.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            assert_eq!(wa, wb, "ledger divergence on {:?}", a.id);
        }
    }

    #[test]
    fn home_shard_scope_fails_without_overflow_and_rolls_back() {
        let (cluster, cat, net, prof, met) = harness();
        let mut cluster = cluster.with_shards(2, mlp_cluster::ShardPolicy::RoundRobin);
        // Saturate shard 1 (odd ids) so the home-shard scan must fail.
        for m in cluster.machines_mut() {
            if m.id.0 % 2 == 1 {
                m.ledger.reserve(
                    SimTime::ZERO,
                    SimTime::from_secs(60),
                    ResourceVector::new(6.0, 32_000.0, 1_000.0),
                );
            }
        }
        let baseline: Vec<ResourceVector> = cluster
            .machines()
            .iter()
            .map(|m| m.ledger.available(SimTime::ZERO, SimTime::from_secs(30)))
            .collect();
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            reserve: true,
            budget_ms: 10,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let r = req(&cat, "read-user-timeline");
        let plan = plan_request(&r, &p, Scope::HomeShard, &mut 0, &mut FitCursor::new(), &mut ctx);
        assert!(plan.is_none(), "shard 0 has room but is out of scope");
        assert_eq!(met.counter(mlp_trace::metrics::names::SHARD_OVERFLOWS), 0);
        for (m, before) in ctx.cluster.machines().iter().zip(baseline) {
            let after = m.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            assert_eq!(after, before, "machine {:?} not rolled back", m.id);
        }
    }

    #[test]
    fn unreserve_plan_roundtrips() {
        let (mut cluster, cat, net, prof, met) = harness();
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            reserve: true,
            budget_ms: 50,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "basicSearch");
        let plan =
            plan_request(&r, &p, Scope::Cluster, &mut cursor, &mut FitCursor::new(), &mut ctx)
                .unwrap();
        unreserve_plan(&plan, &mut ctx);
        for m in ctx.cluster.machines() {
            let avail = m.ledger.available(SimTime::ZERO, SimTime::from_secs(10));
            assert_eq!(avail, m.capacity, "reservations leaked on {:?}", m.id);
        }
    }
}
