//! Long-run proof that ledger pruning bounds retained timeline points.
//!
//! Every sampling tick the engine prunes each machine's ledger to the
//! trailing 2 s window and publishes the retained timeline lengths through
//! `MetricsRegistry` (the cluster-wide `ledger_timeline_max` high-water
//! mark and the per-tick `ledger_timeline_total`).
//! Retention must scale with the *active window* (2 s past + 10 s planning
//! horizon), not with how long the simulation has been running — otherwise
//! ledger queries and memory would grow without bound on long runs.

use v_mlp::engine::profiling::warm_profiles;
use v_mlp::engine::sim::simulate;
use v_mlp::prelude::*;
use v_mlp::sim::SimRng;
use v_mlp::trace::metrics::names;
use v_mlp::workload::{generate_stream, SliceSource, WorkloadPattern};

/// Runs v-MLP under a constant offered load for `horizon_s` simulated
/// seconds and returns (timeline high-water mark, final per-tick total).
fn run_constant_load(horizon_s: f64) -> (f64, f64) {
    let mut cfg = ExperimentConfig::smoke("vmlp").with_seed(7);
    cfg.pattern = WorkloadPattern::Constant;
    cfg.horizon_s = horizon_s;
    let catalog = RequestCatalog::paper();
    let root = SimRng::new(cfg.seed);
    let mut arr_rng = root.fork(0);
    let mut sim_rng = root.fork(1);
    let mut warm_rng = root.fork(2);
    let profiles = warm_profiles(&catalog, cfg.warmup_cases, &mut warm_rng);
    let mix = cfg.mix.resolve(&catalog);
    let arrivals = generate_stream(cfg.pattern, cfg.max_rate, cfg.horizon_s, &mix, &mut arr_rng);
    let mut sched = default_registry().build(&cfg.scheme, cfg.seed).unwrap();
    let mut source = SliceSource::new(&arrivals);
    let out = simulate(&cfg, &catalog, profiles, &mut source, sched.as_mut(), &mut sim_rng);

    let max = out
        .metrics
        .gauge(names::LEDGER_TIMELINE_MAX)
        .expect("engine publishes the timeline high-water mark");
    let total = out
        .metrics
        .gauge(names::LEDGER_TIMELINE_TOTAL)
        .expect("engine publishes the per-tick timeline total");
    assert!(max >= 0.0 && total >= 0.0);
    (max, total)
}

#[test]
fn tighter_retention_window_still_passes_the_auditor() {
    // The 2 s default retention is a config knob now; a run pruning much
    // more aggressively (0.5 s) must stay invariant-clean — the auditor
    // cross-checks reservations against run state every tick, so a window
    // that pruned still-needed breakpoints would trip it.
    let cfg =
        ExperimentConfig::smoke("vmlp").with_seed(11).with_ledger_retention(0.5).with_auditor(true);
    let catalog = RequestCatalog::paper();
    let (r, out) = Experiment::from_config(cfg).catalog(&catalog).run_full().unwrap();
    assert_eq!(r.invariant_violations, 0, "report: {:?}", out.invariant_report);
    assert!(out.invariant_report.is_none());
    assert!(r.completed > 0);

    // And the tighter window retains no more than the default one.
    let default_cfg = ExperimentConfig::smoke("vmlp").with_seed(11).with_auditor(true);
    let (_, out_default) =
        Experiment::from_config(default_cfg).catalog(&catalog).run_full().unwrap();
    let tight_max = out.metrics.gauge(names::LEDGER_TIMELINE_MAX).unwrap();
    let default_max = out_default.metrics.gauge(names::LEDGER_TIMELINE_MAX).unwrap();
    assert!(
        tight_max <= default_max,
        "0.5 s window retained more timeline points ({tight_max}) than the 2 s default ({default_max})"
    );
}

#[test]
fn pruning_bounds_retained_timeline_points() {
    // A reserving scheme under sustained load, run 3× longer: the retained
    // timeline must plateau at the active-window size, not keep growing.
    let (short_max, _) = run_constant_load(10.0);
    let (long_max, long_total) = run_constant_load(30.0);

    assert!(short_max > 0.0, "v-MLP reserves, so timelines must be non-empty");

    // Absolute sanity bound: the active window holds ≈12 s of reservations
    // (2 s retained past + 10 s planning horizon). At smoke load (40 req/s,
    // ≤ 8 nodes/request, 2 breakpoints/reservation, 8 machines) that is a
    // few hundred points per machine even before trims release tails early.
    assert!(
        long_max < 4_000.0,
        "per-machine timeline high-water mark {long_max} suggests pruning is not engaged"
    );

    // Scale-invariance: tripling the run length must not triple retention.
    // Both runs see the same offered load, so their plateaus should agree
    // to well within 2×.
    assert!(
        long_max <= short_max * 2.0,
        "timeline grew with run length ({short_max} @10s vs {long_max} @30s): pruning unbounded"
    );

    // The per-tick total is consistent with the per-machine high-water mark.
    assert!(long_total <= long_max * 8.0 + f64::EPSILON, "total exceeds machines × max");
}
