//! Fig 12 — performance: latency distribution under scaled workload
//! levels.
//!
//! A mixed (balanced) request stream at several QPS levels; per scheme the
//! p50/p90/p99 of the end-to-end latency distribution. v-MLP should win at
//! every percentile, with the margin growing at higher load.

use crate::evalrun::{run_cells, Cell};
use crate::scale::Scale;
use mlp_engine::registry::PAPER_SCHEMES;
use mlp_engine::report;
use mlp_workload::WorkloadPattern;

/// Workload levels as fractions of the scale's peak rate.
pub const LEVELS: [f64; 3] = [0.4, 0.65, 0.9];

/// `data[level][scheme] = [p50, p90, p99]` in ms. All cells run in one
/// parallel sweep.
pub fn data(scale: Scale, seed: u64) -> Vec<Vec<(String, [f64; 3])>> {
    let cells: Vec<Cell> = LEVELS
        .iter()
        .flat_map(|&level| {
            PAPER_SCHEMES.into_iter().map(move |scheme| Cell {
                pattern: WorkloadPattern::Constant,
                rate_mult: level,
                ..Cell::new(scheme)
            })
        })
        .collect();
    run_cells(scale, &cells, seed)
        .chunks(PAPER_SCHEMES.len())
        .map(|chunk| chunk.iter().map(|r| (r.scheme.clone(), r.latency_ms)).collect())
        .collect()
}

/// Renders one table per workload level.
pub fn report(scale: Scale, seed: u64) -> String {
    let d = data(scale, seed);
    let mut out = String::new();
    for (li, per_scheme) in d.iter().enumerate() {
        let rows: Vec<Vec<String>> = per_scheme
            .iter()
            .map(|(scheme, l)| {
                vec![scheme.to_string(), report::f(l[0]), report::f(l[1]), report::f(l[2])]
            })
            .collect();
        out.push_str(&report::table(
            &format!(
                "Fig 12 — latency distribution (ms), workload level {:.0}% of peak",
                LEVELS[li] * 100.0
            ),
            &["scheme", "p50", "p90", "p99"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_load() {
        let scale = Scale::tiny();
        let d = data(scale, 6);
        // FairSched p99 at 100% ≥ p99 at 40%.
        let p99_low = d[0][0].1[2];
        let p99_high = d[2][0].1[2];
        assert!(p99_high >= p99_low * 0.8, "p99 {p99_low} -> {p99_high}");
    }
}
