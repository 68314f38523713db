//! Fig 13 — performance: tail latency normalized to FairSched.
//!
//! The mixed stream is separated into three single-class streams (low /
//! mid / high V_r, work-normalized); per pattern and stream, each scheme's
//! p99 latency is reported normalized to FairSched (= 1.0). Expected
//! shape: simple ≈ 1, advanced < 1, v-MLP lowest; v-MLP's margin grows on
//! the mid/high-V_r streams.

use crate::evalrun::{run_cells, Cell};
use crate::scale::Scale;
use mlp_engine::config::MixSpec;
use mlp_engine::registry::PAPER_SCHEMES;
use mlp_engine::report;
use mlp_model::VolatilityClass;
use mlp_workload::WorkloadPattern;

/// Classes in figure order.
pub const CLASSES: [VolatilityClass; 3] =
    [VolatilityClass::Low, VolatilityClass::Mid, VolatilityClass::High];

/// `data[pattern][class][scheme] = (raw p99 ms, normalized to FairSched)`.
/// All 45 cells run in one parallel sweep.
pub fn data(scale: Scale, seed: u64) -> Vec<Vec<Vec<(f64, f64)>>> {
    let mut cells = Vec::new();
    for pattern in WorkloadPattern::PAPER {
        for class in CLASSES {
            for scheme in PAPER_SCHEMES {
                cells.push(Cell {
                    scheme: scheme.into(),
                    pattern,
                    mix: MixSpec::SingleClass(class),
                    rate_mult: 1.0,
                });
            }
        }
    }
    let results = run_cells(scale, &cells, seed);
    let mut it = results.chunks(PAPER_SCHEMES.len());
    WorkloadPattern::PAPER
        .iter()
        .map(|_| {
            CLASSES
                .iter()
                .map(|_| {
                    let chunk = it.next().expect("grid shape");
                    let p99s: Vec<f64> = chunk.iter().map(|r| r.latency_ms[2]).collect();
                    let fair = p99s[0].max(1e-9);
                    p99s.iter().map(|&p| (p, p / fair)).collect()
                })
                .collect()
        })
        .collect()
}

/// Renders one table per workload pattern.
pub fn report(scale: Scale, seed: u64) -> String {
    let d = data(scale, seed);
    let mut out = String::new();
    for (pi, pattern) in WorkloadPattern::PAPER.iter().enumerate() {
        let rows: Vec<Vec<String>> = CLASSES
            .iter()
            .enumerate()
            .map(|(ci, class)| {
                let mut row = vec![format!("{class:?} V_r")];
                for &(raw, norm) in &d[pi][ci] {
                    row.push(format!("{:.2} ({} ms)", norm, report::f(raw)));
                }
                row
            })
            .collect();
        out.push_str(&report::table(
            &format!(
                "Fig 13 — p99 tail latency normalized to FairSched, pattern {}",
                pattern.label()
            ),
            &["stream", "FairSched", "CurSched", "PartProfile", "FullProfile", "v-MLP"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::evalrun::{run_cells, Cell};

    /// One cell of the grid at tiny scale: normalization puts FairSched at
    /// exactly 1.0 by construction, and v-MLP's raw p99 is positive.
    #[test]
    fn fairsched_is_the_unit_baseline() {
        let cells: Vec<Cell> = ["fairsched", "vmlp"]
            .into_iter()
            .map(|scheme| Cell {
                scheme: scheme.into(),
                pattern: WorkloadPattern::L1Pulse,
                mix: MixSpec::SingleClass(VolatilityClass::Mid),
                rate_mult: 1.0,
            })
            .collect();
        let res = run_cells(Scale::tiny(), &cells, 8);
        let fair = res[0].latency_ms[2];
        assert!(fair > 0.0);
        assert!((fair / fair - 1.0).abs() < 1e-12);
        assert!(res[1].latency_ms[2] > 0.0);
    }
}
