//! The paper's headline claims, asserted as reproducible shapes (see
//! EXPERIMENTS.md for the quantitative ledger):
//!
//! * v-MLP cuts tail latency versus the simple schedulers — "up to 50 %".
//! * v-MLP keeps QoS violations at or below every baseline's on volatile
//!   streams (Fig 10's ordering).
//! * The advantage concentrates on mid/high-volatility streams (Fig 13).

use mlp_bench::evalrun::{run_cells, Cell};
use mlp_bench::Scale;
use v_mlp::prelude::*;

/// A moderately loaded test scale — big enough for scheduling to matter,
/// small enough for CI.
fn scale() -> Scale {
    Scale { machines: 10, max_rate: 70.0, horizon_s: 40.0, seeds: 2, label: "ci" }
}

fn cell(scheme: &str, mix: MixSpec, pattern: WorkloadPattern) -> Cell {
    Cell { scheme: scheme.into(), pattern, mix, rate_mult: 1.0 }
}

#[test]
fn vmlp_cuts_tail_latency_versus_fairsched_on_high_vr() {
    let cells = [
        cell(
            "fairsched",
            MixSpec::SingleClass(VolatilityClass::High),
            WorkloadPattern::L2Fluctuating,
        ),
        cell("vmlp", MixSpec::SingleClass(VolatilityClass::High), WorkloadPattern::L2Fluctuating),
    ];
    let res = run_cells(scale(), &cells, 11);
    let fair = res[0].latency_ms[2];
    let vmlp = res[1].latency_ms[2];
    assert!(
        vmlp <= fair * 0.5,
        "paper claims up to 50% tail reduction; got FairSched {fair:.0} ms vs v-MLP {vmlp:.0} ms"
    );
}

#[test]
fn vmlp_matches_or_beats_everyone_on_violations_high_vr() {
    let cells: Vec<Cell> = PAPER_SCHEMES
        .into_iter()
        .map(|s| cell(s, MixSpec::SingleClass(VolatilityClass::High), WorkloadPattern::L1Pulse))
        .collect();
    let res = run_cells(scale(), &cells, 13);
    let vmlp = res[4].violation;
    for r in &res[..4] {
        assert!(
            r.violation >= vmlp - 0.01,
            "{} violates less than v-MLP: {:.3} vs {:.3}",
            r.scheme,
            r.violation,
            vmlp
        );
    }
}

#[test]
fn vmlp_beats_simple_schedulers_on_every_pattern() {
    for pattern in WorkloadPattern::PAPER {
        let cells = [
            cell("fairsched", MixSpec::Balanced, pattern),
            cell("cursched", MixSpec::Balanced, pattern),
            cell("vmlp", MixSpec::Balanced, pattern),
        ];
        let res = run_cells(scale(), &cells, 17);
        let vmlp_p99 = res[2].latency_ms[2];
        for r in &res[..2] {
            assert!(
                vmlp_p99 < r.latency_ms[2],
                "{}: {} p99 {:.0} ms vs v-MLP {:.0} ms",
                pattern.label(),
                r.scheme,
                r.latency_ms[2],
                vmlp_p99
            );
        }
    }
}

#[test]
fn advantage_grows_with_volatility() {
    // Fig 13's story: the v-MLP/FairSched tail ratio shrinks (bigger win)
    // from the low-V_r stream to the high-V_r stream.
    let mk = |class| {
        [
            cell("fairsched", MixSpec::SingleClass(class), WorkloadPattern::L2Fluctuating),
            cell("vmlp", MixSpec::SingleClass(class), WorkloadPattern::L2Fluctuating),
        ]
    };
    let low = run_cells(scale(), &mk(VolatilityClass::Low), 19);
    let high = run_cells(scale(), &mk(VolatilityClass::High), 19);
    let ratio_low = low[1].latency_ms[2] / low[0].latency_ms[2].max(1e-9);
    let ratio_high = high[1].latency_ms[2] / high[0].latency_ms[2].max(1e-9);
    assert!(
        ratio_high < ratio_low,
        "normalized tail should improve with volatility: low {ratio_low:.2}, high {ratio_high:.2}"
    );
}

#[test]
fn vmlp_outperforms_advanced_baselines_under_fluctuation() {
    let cells: Vec<Cell> = ["partprofile", "fullprofile", "vmlp"]
        .into_iter()
        .map(|s| cell(s, MixSpec::Balanced, WorkloadPattern::L2Fluctuating))
        .collect();
    let res = run_cells(scale(), &cells, 23);
    let vmlp = &res[2];
    for r in &res[..2] {
        assert!(
            vmlp.latency_ms[2] <= r.latency_ms[2] * 1.05,
            "{} p99 {:.0} vs v-MLP {:.0}",
            r.scheme,
            r.latency_ms[2],
            vmlp.latency_ms[2]
        );
    }
}

#[test]
fn healing_actions_only_come_from_vmlp() {
    let cells: Vec<Cell> = PAPER_SCHEMES
        .into_iter()
        .map(|s| cell(s, MixSpec::Balanced, WorkloadPattern::L1Pulse))
        .collect();
    let res = run_cells(scale(), &cells, 29);
    for r in &res[..4] {
        assert_eq!(r.healing.0, 0.0, "{} should not delay-slot fill", r.scheme);
        assert_eq!(r.healing.1, 0.0, "{} should not stretch", r.scheme);
    }
    assert!(res[4].healing.0 > 0.0, "v-MLP should be actively healing under the pulse");
}
