//! Fig 11 — efficiency: cluster utilization around a workload peak.
//!
//! The paper runs the 100 s schedule with the load peak arriving at the
//! 40th second and plots `U(t)` for all schemes: everyone's utilization
//! jumps at the peak; the baselines then sag (mismatched allocations and
//! ignored dependencies), while v-MLP restores its pre-peak level.

use crate::evalrun::{run_cells, Cell};
use crate::scale::Scale;
use mlp_engine::registry::PAPER_SCHEMES;
use mlp_engine::report;
use mlp_stats::TimeSeries;
use mlp_workload::WorkloadPattern;

/// Peak arrival second (fixed by the L1 pattern definition).
pub const PEAK_AT_S: f64 = 40.0;

/// Per-scheme utilization curves. The horizon is pinned to the paper's
/// 100 s so the 40 s peak and the recovery window are both visible.
pub fn data(scale: Scale, seed: u64) -> Vec<(String, TimeSeries)> {
    let scale = Scale { horizon_s: scale.horizon_s.max(100.0), ..scale };
    let cells: Vec<Cell> = PAPER_SCHEMES
        .into_iter()
        .map(|scheme| Cell { pattern: WorkloadPattern::L1Pulse, ..Cell::new(scheme) })
        .collect();
    run_cells(scale, &cells, seed).into_iter().map(|r| (r.scheme, r.util_series)).collect()
}

/// Mean utilization of a series over `[from_s, to_s)`.
pub fn window_mean(ts: &TimeSeries, from_s: f64, to_s: f64) -> f64 {
    let step = ts.step();
    let lo = (from_s / step) as usize;
    let hi = ((to_s / step) as usize).min(ts.len());
    if lo >= hi {
        return 0.0;
    }
    ts.values()[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Renders the curves plus before/peak/after means.
pub fn report(scale: Scale, seed: u64) -> String {
    let mut out = String::new();
    let mut rows = Vec::new();
    for (scheme, ts) in data(scale, seed) {
        out.push_str(&report::series(
            &format!("Fig 11 — cluster utilization U(t), {scheme} (L1, peak @ {PEAK_AT_S}s)"),
            ts.step(),
            ts.values(),
        ));
        let before = window_mean(&ts, 5.0, 35.0);
        let peak = window_mean(&ts, 38.0, 48.0);
        let after = window_mean(&ts, 55.0, 95.0_f64.min(scale.horizon_s));
        rows.push(vec![
            scheme.to_string(),
            report::f(before),
            report::f(peak),
            report::f(after),
            report::f(after / before.max(1e-9)),
        ]);
    }
    out.push('\n');
    out.push_str(&report::table(
        "Fig 11 summary — mean U before (5–35s), at peak (38–48s), after (55s+)",
        &["scheme", "before", "peak", "after", "after/before"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evalrun::{run_cells, Cell};

    #[test]
    fn peak_raises_utilization_for_everyone() {
        // Needs the full 100 s horizon to see the 40 s peak.
        let scale = Scale { machines: 4, max_rate: 28.0, horizon_s: 100.0, seeds: 1, label: "t" };
        // Two representative schemes keep the debug-mode test quick.
        let cells = [Cell::new("fairsched"), Cell::new("vmlp")];
        let curves: Vec<(String, mlp_stats::TimeSeries)> =
            run_cells(scale, &cells, 4).into_iter().map(|r| (r.scheme, r.util_series)).collect();
        for (scheme, ts) in curves {
            let before = window_mean(&ts, 5.0, 35.0);
            let peak = window_mean(&ts, 38.0, 48.0);
            assert!(
                peak > before * 1.3,
                "{scheme}: peak {peak:.3} should clearly exceed before {before:.3}"
            );
        }
    }
}
