//! The simulator workloads: `paper_l3` and `fleet_4096`, run through
//! `Experiment::run_full`.

use crate::host;
use crate::percentile::{median, require_beyond};
use crate::report::Report;
use crate::timed::{self, SchedTotals, TIMED_SCHEME};
use mlp_cluster::ledger::query_stats::{self, LedgerQueryStats};
use mlp_cluster::ShardPolicy;
use mlp_engine::profiling::warm_profiles;
use mlp_engine::{Error, Experiment, ExperimentConfig, ExperimentResult, Scheme};
use mlp_model::RequestCatalog;
use mlp_sim::SimRng;
use mlp_workload::{generate_stream, WorkloadPattern};
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of the set-up phases per run.
const SETUP_REPS: usize = 5;
/// Fewest untraced experiment runs behind a reported wall time.
const MIN_RUNS: usize = 3;

/// A simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// The paper's Section V point: 100 machines, L3 at 1000 req/s peak.
    PaperL3,
    /// 4096 machines in 256 shards at a constant 7 req/s per machine.
    Fleet4096,
}

impl SimWorkload {
    /// The experiment this workload runs at `seed`, tracing off.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        let base = ExperimentConfig::paper_default(Scheme::VMlp);
        match self {
            // One 25 s period of the L3 pattern.
            SimWorkload::PaperL3 => ExperimentConfig { horizon_s: 25.0, ..base }
                .with_pattern(WorkloadPattern::L3PeriodicWide),
            // The fig_scale shape (16 machines per shard, 7 req/s per
            // machine) over 2 s, which keeps one run near 5 s on a 2-core
            // host while arrivals already fill every shard.
            SimWorkload::Fleet4096 => {
                ExperimentConfig { machines: 4096, max_rate: 7.0 * 4096.0, horizon_s: 2.0, ..base }
                    .with_pattern(WorkloadPattern::Constant)
                    .with_shards(256, ShardPolicy::RoundRobin)
            }
        }
        .with_seed(seed)
    }
}

/// Wall time of each set-up phase, timed by calling it directly with the
/// experiment's own seed forks.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub warm_s: f64,
    pub generate_s: f64,
    pub build_s: f64,
    pub arrivals: usize,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.warm_s + self.generate_s + self.build_s
    }
}

/// Times profile warm-up, arrival generation and cluster build once.
pub fn time_setup(cfg: &ExperimentConfig, catalog: &RequestCatalog) -> SetupTimes {
    // The same forks `run_full` uses: 0 for arrivals, 2 for warm-up.
    let root = SimRng::new(cfg.seed);
    let start = Instant::now();
    let profiles = warm_profiles(catalog, cfg.warmup_cases, &mut root.fork(2));
    let warm_s = start.elapsed().as_secs_f64();
    let mix = cfg.mix.resolve(catalog);
    let start = Instant::now();
    let arrivals =
        generate_stream(cfg.pattern, cfg.max_rate, cfg.horizon_s, &mix, &mut root.fork(0));
    let generate_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let cluster = cfg.build_cluster();
    let build_s = start.elapsed().as_secs_f64();
    black_box((&profiles, &cluster));
    SetupTimes { warm_s, generate_s, build_s, arrivals: arrivals.len() }
}

/// One `run_full` call and what the benchmark keeps of it.
#[derive(Debug, Clone)]
pub struct SimRun {
    pub result: ExperimentResult,
    pub wall_s: f64,
    /// CPU time of the calling thread during the run.
    pub cpu_s: f64,
    pub invariant_report: Option<String>,
}

fn timed_run(experiment: Experiment<'_>) -> Result<SimRun, Error> {
    let cpu0 = host::this_thread_cpu_s();
    let start = Instant::now();
    let (result, out) = experiment.run_full()?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::this_thread_cpu_s() - cpu0;
    Ok(SimRun { result, wall_s, cpu_s, invariant_report: out.invariant_report.clone() })
}

/// Runs the experiment as configured (tracing off).
pub fn run_untraced(cfg: &ExperimentConfig) -> Result<SimRun, Error> {
    timed_run(Experiment::from_config(cfg.clone()))
}

/// A traced run: the timed scheduler wrapper, ledger counters and the
/// invariant auditor on.
#[derive(Debug, Clone)]
pub struct TracedRun {
    pub run: SimRun,
    pub sched: SchedTotals,
    pub ledger: LedgerQueryStats,
}

/// Runs the experiment with the scheduler behind the timing wrapper, the
/// ledger query counters on, and the invariant auditor on.
pub fn run_traced(cfg: &ExperimentConfig) -> Result<TracedRun, Error> {
    let registry = timed::registry();
    let params = cfg.scheme.params().clone();
    let experiment = Experiment::from_config(cfg.clone())
        .registry(&registry)
        .scheme(TIMED_SCHEME, params)
        .auditor(true);
    timed::take_totals();
    query_stats::reset();
    query_stats::set_enabled(true);
    let run = timed_run(experiment);
    query_stats::set_enabled(false);
    let ledger = query_stats::snapshot();
    Ok(TracedRun { run: run?, sched: timed::take_totals(), ledger })
}

/// Every field of a result except the config that produced it; these are
/// the fields a fixed seed must reproduce exactly.
pub fn deterministic_fields(r: &ExperimentResult) -> Value {
    let mut v = serde_json::to_value(r).expect("results serialize");
    if let Value::Object(fields) = &mut v {
        fields.retain(|(k, _)| k != "config");
    }
    v
}

fn check_run(report: &mut Report, run: &SimRun, reference: &Value, label: &str) {
    let r = &run.result;
    let ok_conservation = r.arrived == r.completed + r.unfinished;
    report.check(ok_conservation, || {
        format!(
            "{label}: arrived {} != completed {} + unfinished {}",
            r.arrived, r.completed, r.unfinished
        )
    });
    let same = deterministic_fields(r) == *reference;
    report.check(same, || format!("{label}: results differ from the first untraced run"));
    report.attempted += 1;
    report.failed += (!ok_conservation || !same) as u64;
}

/// Runs `workload` at `seed` for about `seconds` and records its metrics.
pub fn measure(workload: SimWorkload, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    if let Err(e) = measure_runs(workload, seed, seconds, trace, report) {
        report.fail(format!("experiment failed: {e}"));
    }
}

fn measure_runs(
    workload: SimWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), Error> {
    let start = Instant::now();
    let cfg = workload.config(seed);
    let catalog = RequestCatalog::paper();
    let setups: Vec<SetupTimes> = (0..SETUP_REPS).map(|_| time_setup(&cfg, &catalog)).collect();
    let first = run_untraced(&cfg)?;
    let reference = deterministic_fields(&first.result);
    check_run(report, &first, &reference, "untraced run 1");
    let r = first.result.clone();
    report.meta("config", &cfg);
    report.meta("arrived", &r.arrived);
    report.meta("completed", &r.completed);

    // Keep starting runs while one more of the same length fits in the
    // budget.
    let fits = |next: f64| start.elapsed().as_secs_f64() + next <= seconds;
    let mut untraced = vec![first];
    if !trace {
        while untraced.len() < MIN_RUNS || fits(untraced[untraced.len() - 1].wall_s) {
            let run = run_untraced(&cfg)?;
            check_run(report, &run, &reference, &format!("untraced run {}", untraced.len() + 1));
            untraced.push(run);
        }
        record_end_to_end(report, &r, &untraced, &setups);
        return Ok(());
    }

    // Traced: alternate traced and untraced runs so both see the same
    // host conditions.
    let mut traced: Vec<TracedRun> = Vec::new();
    loop {
        let t = run_traced(&cfg)?;
        check_run(report, &t.run, &reference, &format!("traced run {}", traced.len() + 1));
        let violations = t.run.result.invariant_violations;
        report.check(violations == 0 && t.run.invariant_report.is_none(), || {
            format!(
                "auditor reported {violations} invariant violations: {}",
                t.run.invariant_report.clone().unwrap_or_default()
            )
        });
        let pair = t.run.wall_s + untraced[0].wall_s;
        traced.push(t);
        if !fits(pair) {
            break;
        }
        let run = run_untraced(&cfg)?;
        check_run(report, &run, &reference, &format!("untraced run {}", untraced.len() + 1));
        untraced.push(run);
    }
    record_layers(report, &r, &untraced, &traced, &setups);
    Ok(())
}

fn median_of(setups: &[SetupTimes], f: fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>())
}

fn record_end_to_end(
    report: &mut Report,
    r: &ExperimentResult,
    untraced: &[SimRun],
    setups: &[SetupTimes],
) {
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    report.meta("runs", &walls.len());
    report.meta("run_wall_s", &walls);
    report.set(
        "host_us_per_req",
        median(&walls) / r.arrived.max(1) as f64 * 1e6,
        format!(
            "run_full wall time per arrived request (wall_us_per_req), median of {} runs",
            walls.len()
        ),
    );
    for (name, p, value) in
        [("latency_p50_ms", 50.0, r.latency_ms[0]), ("latency_tail_ms", 99.0, r.latency_ms[2])]
    {
        if let Err(e) = require_beyond(r.completed, p) {
            report.fail(format!("{name}: {e}"));
        }
        report.set(
            name,
            value,
            format!("modeled p{p} (sim_p{p}_ms, simulated ms) over {} completed", r.completed),
        );
    }
    report.set(
        "goodput_rps",
        r.goodput(),
        "completions within SLO per simulated second (sim_goodput_rps)",
    );
    report.set(
        "setup_s",
        median_of(setups, SetupTimes::total_s),
        format!("warm-up + arrival generation + cluster build, median of {SETUP_REPS}"),
    );
    report.set("peak_rss_mb", host::peak_rss_mb(), "VmHWM of the benchmark process");
    report.note(format!(
        "sim_violation_rate {} fraction (SLO misses incl. {} unfinished)",
        r.violation_rate, r.unfinished
    ));
    report.note(format!(
        "sim_utilization {} fraction (mean modeled cluster utilization)",
        r.mean_utilization
    ));
    report.note(format!(
        "error_rate {} fraction ({} of {} runs failed a check)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
}

fn record_layers(
    report: &mut Report,
    r: &ExperimentResult,
    untraced: &[SimRun],
    traced: &[TracedRun],
    setups: &[SetupTimes],
) {
    let k = traced.len() as f64;
    let arrived = r.arrived.max(1) as f64;
    let reqs = arrived * k;
    let s = traced.iter().fold(SchedTotals::default(), |acc, t| acc + t.sched);
    let ledger = traced.iter().fold((0, 0, 0, 0), |acc, t| {
        (
            acc.0 + t.ledger.earliest_fit,
            acc.1 + t.ledger.peak_usage,
            acc.2 + t.ledger.usage_at,
            acc.3 + t.ledger.writes,
        )
    });
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let med = |f: fn(&SetupTimes) -> f64| median_of(setups, f);
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.run.wall_s).collect();
    let untraced_walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    report.meta("traced_runs", &traced.len());
    report.meta("traced_wall_s", &traced_walls);
    report.meta("untraced_wall_s", &untraced_walls);

    let per_run = format!("per run, over {} traced runs", traced.len());
    report.set("sched.admit.calls", s.admit_calls as f64 / k, per_run.clone());
    report.set("sched.admit.ns_per_call", ratio(s.admit_ns, s.admit_calls), "");
    report.set("sched.admit.plans_per_call", ratio(s.admit_plans, s.admit_calls), "");
    report.set("sched.admit.empty_frac", ratio(s.admit_empty, s.admit_calls), "");
    report.set(
        "sched.admit.queue_depth_mean",
        ratio(s.queue_depth_sum, s.admit_calls),
        "waiting() before each round",
    );
    report.set("sched.arrival.ns_per_call", ratio(s.arrival_ns, s.arrival_calls), "");
    report.set("sched.heal.calls", s.heal_calls as f64 / k, per_run);
    report.set("sched.heal.ns_per_call", ratio(s.heal_ns, s.heal_calls), "");
    report.set("sched.heal.actions_per_call", ratio(s.heal_actions, s.heal_calls), "");
    report.set("sched.lifecycle.ns_per_req", s.lifecycle_ns as f64 / reqs, "");
    report.set("sched.self_us_per_req", s.self_ns() as f64 / reqs / 1e3, "all scheduler callbacks");
    let (fills, stretches, switches) = r.healing;
    report.set("core.delay_slot_fills_per_req", fills as f64 / arrived, "");
    report.set("core.stretches_per_req", stretches as f64 / arrived, "");
    report.set("core.queue_switches_per_req", switches as f64 / arrived, "");
    report.set("ledger.earliest_fit_per_req", ledger.0 as f64 / reqs, "");
    report.set("ledger.peak_usage_per_req", ledger.1 as f64 / reqs, "");
    report.set("ledger.usage_at_per_req", ledger.2 as f64 / reqs, "");
    report.set("ledger.writes_per_req", ledger.3 as f64 / reqs, "");
    report.set(
        "ledger.fit_per_admit",
        ratio(s.placed_nodes, ledger.0),
        "nodes placed per earliest_fit probe",
    );
    let setup_s = med(SetupTimes::total_s);
    let kernel_s: Vec<f64> =
        traced.iter().map(|t| t.run.wall_s - setup_s - t.sched.self_ns() as f64 / 1e9).collect();
    report.set(
        "engine.kernel_self_us_per_req",
        median(&kernel_s) / arrived * 1e6,
        "traced run_full wall minus set-up minus scheduler self time",
    );
    report.set("engine.request_table_peak", r.request_table_peak as f64, "");
    report.set("engine.warm_profiles_ms", med(|s| s.warm_s) * 1e3, "");
    report.set("cluster.build_ms", med(|s| s.build_s) * 1e3, "");
    report.set("workload.generate_ms", med(|s| s.generate_s) * 1e3, "");
    report.set("workload.arrivals", setups[0].arrivals as f64, "");
    let cpu: f64 = traced.iter().map(|t| t.run.cpu_s).sum();
    report.set("host.cpu_us_per_req", cpu / reqs * 1e6, "CPU time of the simulating thread");
    if let Some(b) = r.mean_breakdown {
        report.set("model.queue_ms", b.queue_ms, "mean critical-path attribution, simulated ms");
        report.set("model.place_ms", b.placement_ms, "");
        report.set("model.comm_ms", b.comm_ms, "");
        report.set("model.exec_ms", b.exec_ms, "");
        report.set("model.cap_ms", b.cap_ms, "");
    }
    report.set("model.late_frac", r.late_fraction, "spans invoked later than planned");
    let violations: u64 = traced.iter().map(|t| t.run.result.invariant_violations).sum();
    report.set("trace.invariant_violations", violations as f64, "auditor on in every traced run");
    report.set(
        "trace.overhead_frac",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
        "traced over untraced run_full wall time, minus 1",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing wrapper forwards every callback unchanged: a traced run
    /// reproduces the bare scheduler's results field for field.
    #[test]
    fn timed_wrapper_matches_bare_scheduler() {
        for shards in [1, 4] {
            let cfg = ExperimentConfig::smoke(Scheme::VMlp)
                .with_auditor(false)
                .with_seed(5)
                .with_shards(shards, ShardPolicy::RoundRobin);
            let bare = run_untraced(&cfg).unwrap();
            let traced = run_traced(&cfg).unwrap();
            assert_eq!(
                deterministic_fields(&bare.result),
                deterministic_fields(&traced.run.result)
            );
            assert_eq!(traced.run.result.invariant_violations, 0);
            let s = traced.sched;
            assert!(s.admit_calls > 0 && s.arrival_calls as usize == bare.result.arrived);
            assert!(s.heal_calls > 0 && traced.ledger.earliest_fit > 0);
        }
    }

    #[test]
    fn setup_uses_the_experiments_arrival_stream() {
        let cfg = ExperimentConfig::smoke(Scheme::VMlp).with_seed(9);
        let setup = time_setup(&cfg, &RequestCatalog::paper());
        assert_eq!(setup.arrivals, run_untraced(&cfg).unwrap().result.arrived);
    }
}
