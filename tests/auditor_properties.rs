//! Property checks of the decision-audit layer: for every scheme, seed,
//! and fault storm, the invariant auditor reports zero violations, the
//! critical-path attribution telescopes exactly to the measured latency,
//! and enabling auditing never changes simulation results.

use proptest::prelude::*;
use v_mlp::engine::sim::SimOutput;
use v_mlp::prelude::*;
use v_mlp::trace::DecisionKind;

/// Test shorthand over the [`Experiment`] builder.
fn run_experiment_full(
    cfg: &ExperimentConfig,
    catalog: &RequestCatalog,
) -> (ExperimentResult, SimOutput) {
    Experiment::from_config(cfg.clone()).catalog(catalog).run_full().expect("test config is valid")
}

/// A fault storm proportioned to the smoke horizon (8 s + drain): two
/// crashes mid-run, elevated transients, a degraded-network window.
fn smoke_storm() -> FaultConfig {
    FaultConfig {
        enabled: true,
        machine_crashes: 2,
        storm_start_ms: 2_000,
        storm_duration_ms: 4_000,
        outage_ms: 1_500,
        transient_fail_prob: 0.05,
        degrade_start_ms: 2_500,
        degrade_duration_ms: 2_000,
        degrade_factor: 4.0,
    }
}

/// Runs one audited config and asserts the tentpole's acceptance
/// criteria: zero invariant violations and exact latency attribution.
fn check(cfg: ExperimentConfig, label: &str) {
    let catalog = RequestCatalog::paper();
    let (r, out) = run_experiment_full(&cfg, &catalog);
    assert_eq!(
        r.invariant_violations, 0,
        "{label}: auditor flagged violations; report: {:?}",
        out.invariant_report
    );
    assert!(out.invariant_report.is_none(), "{label}");
    assert_eq!(out.audit.dropped(), 0, "{label}: ring buffer overflowed");
    for rec in out.collector.requests() {
        let b = rec.breakdown.expect("every completed request carries a breakdown");
        let lat = rec.latency().as_millis_f64();
        assert!(
            (b.total_ms() - lat).abs() < 1e-9,
            "{label}: request {:?} decomposes to {} but measured {lat} ({b:?})",
            rec.id,
            b.total_ms(),
        );
        for (name, part) in [
            ("queue", b.queue_ms),
            ("placement", b.placement_ms),
            ("comm", b.comm_ms),
            ("exec", b.exec_ms),
            ("healed", b.healed_ms),
        ] {
            assert!(part >= 0.0, "{label}: negative {name} component in {b:?}");
        }
    }
    // Every completed request was admitted exactly once, so the trail
    // holds at least that many Admit records (in-flight admissions may
    // add more).
    assert!(
        out.audit.count(DecisionKind::Admit) >= r.completed,
        "{label}: {} admits < {} completions",
        out.audit.count(DecisionKind::Admit),
        r.completed,
    );
    // Injected crashes and the audit trail agree one-to-one.
    assert_eq!(
        out.audit.count(DecisionKind::MachineDown) as u64,
        r.machine_crashes,
        "{label}: MachineDown decisions disagree with the crash counter"
    );
}

#[test]
fn all_schemes_hold_invariants_and_attribute_latency_exactly() {
    for scheme in PAPER_SCHEMES {
        for faults in [FaultConfig::disabled(), smoke_storm()] {
            let cfg =
                ExperimentConfig::smoke(scheme).with_seed(11).with_faults(faults).with_audit(true);
            let label = format!("{} faults={}", cfg.scheme.display_name(), cfg.faults.is_active());
            check(cfg, &label);
        }
    }
}

#[test]
fn audit_and_auditor_never_change_results() {
    let base = ExperimentConfig::smoke("vmlp").with_seed(7).with_faults(smoke_storm());
    let catalog = RequestCatalog::paper();
    let plain =
        run_experiment_full(&base.clone().with_audit(false).with_auditor(false), &catalog).0;
    let audited = run_experiment_full(&base.with_audit(true).with_auditor(true), &catalog).0;
    assert_eq!(plain.completed, audited.completed);
    assert_eq!(plain.arrived, audited.arrived);
    assert_eq!(plain.latency_ms, audited.latency_ms);
    assert_eq!(plain.mean_latency_ms, audited.mean_latency_ms);
    assert_eq!(plain.violation_rate, audited.violation_rate);
    assert_eq!(plain.healing, audited.healing);
    assert_eq!(plain.mean_breakdown, audited.mean_breakdown);
    assert_eq!(plain.crash_replans, audited.crash_replans);
}

#[test]
fn audit_trail_exports_ordered_valid_jsonl() {
    let cfg = ExperimentConfig::smoke("vmlp").with_seed(3).with_audit(true);
    let (_, out) = run_experiment_full(&cfg, &RequestCatalog::paper());
    assert!(!out.audit.is_empty(), "a live run must leave a trail");
    let mut prev = 0u64;
    for line in out.audit.to_jsonl().lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("each line is valid JSON");
        let at = v.get("at_us").and_then(|a| a.as_u64()).expect("every decision is timestamped");
        assert!(at >= prev, "trail not time-ordered: {at} after {prev}");
        prev = at;
        assert!(v.get("kind").and_then(|k| k.as_str()).is_some());
        assert!(v.get("reason").and_then(|r| r.as_str()).is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random bounded configurations (scheme, mix, machines, rate, seed)
    /// with the auditor on: conservation laws hold and attribution stays
    /// exact everywhere, not just at the curated smoke points.
    #[test]
    fn random_configs_stay_clean(
        scheme_i in 0usize..5,
        mix_i in 0usize..4,
        machines in 2usize..8,
        rate in 5.0f64..30.0,
        seed in any::<u64>(),
        stormy in any::<bool>(),
    ) {
        let scheme = PAPER_SCHEMES[scheme_i];
        let mix = [
            MixSpec::Balanced,
            MixSpec::SingleClass(VolatilityClass::Low),
            MixSpec::SingleClass(VolatilityClass::High),
            MixSpec::HighRatio(0.5),
        ][mix_i];
        let cfg = ExperimentConfig {
            machines,
            max_rate: rate,
            horizon_s: 4.0,
            warmup_cases: 10,
            ..ExperimentConfig::smoke(scheme)
        }
        .with_mix(mix)
        .with_seed(seed)
        .with_faults(if stormy { smoke_storm() } else { FaultConfig::disabled() })
        .with_audit(true);
        check(cfg, &format!("{scheme} mix#{mix_i} m={machines} r={rate:.0} seed={seed}"));
    }
}
