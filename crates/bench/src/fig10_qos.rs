//! Fig 10 — effectiveness: normalized QoS-violation rate.
//!
//! Grid: 5 schemes × 3 volatility streams × 3 workload patterns; each
//! cell's violation rate is normalized to v-MLP's (so v-MLP = 1.0 and
//! values above 1 mean more violations than v-MLP).

use crate::evalrun::{run_cells, Cell};
use crate::scale::Scale;
use mlp_engine::config::MixSpec;
use mlp_engine::registry::PAPER_SCHEMES;
use mlp_engine::report;
use mlp_model::VolatilityClass;
use mlp_workload::WorkloadPattern;

/// One normalized grid: `grid[pattern][class][scheme]` = violation rate
/// normalized to v-MLP (raw rates in `raw`).
#[derive(Debug, Clone)]
pub struct Fig10Data {
    /// Raw violation fractions per (pattern, class, scheme).
    pub raw: Vec<Vec<Vec<f64>>>,
    /// Normalized-to-v-MLP ratios, same shape.
    pub normalized: Vec<Vec<Vec<f64>>>,
}

/// Classes in figure order.
pub const CLASSES: [VolatilityClass; 3] =
    [VolatilityClass::Low, VolatilityClass::Mid, VolatilityClass::High];

/// Generates the grid. All 45 cells run in one parallel sweep.
pub fn data(scale: Scale, seed: u64) -> Fig10Data {
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

    let mut raw = Vec::new();
    let mut normalized = Vec::new();
    let mut it = results.chunks(PAPER_SCHEMES.len());
    for _pattern in WorkloadPattern::PAPER {
        let mut raw_p = Vec::new();
        let mut norm_p = Vec::new();
        for _class in CLASSES {
            let chunk = it.next().expect("grid shape");
            let rates: Vec<f64> = chunk.iter().map(|r| r.violation).collect();
            let vmlp = rates[4].max(1e-4); // guard: v-MLP with zero violations
            raw_p.push(rates.clone());
            norm_p.push(rates.iter().map(|r| r / vmlp).collect());
        }
        raw.push(raw_p);
        normalized.push(norm_p);
    }
    Fig10Data { raw, normalized }
}

/// Renders the figure.
pub fn report(scale: Scale, seed: u64) -> String {
    let d = data(scale, seed);
    let mut out = String::new();
    for (pi, pattern) in WorkloadPattern::PAPER.iter().enumerate() {
        let rows: Vec<Vec<String>> = CLASSES
            .iter()
            .enumerate()
            .map(|(ci, class)| {
                let mut row = vec![format!("{class:?} V_r")];
                for si in 0..PAPER_SCHEMES.len() {
                    row.push(format!(
                        "{} ({:.1}%)",
                        report::f(d.normalized[pi][ci][si]),
                        d.raw[pi][ci][si] * 100.0
                    ));
                }
                row
            })
            .collect();
        out.push_str(&report::table(
            &format!(
                "Fig 10 — QoS-violation rate normalized to v-MLP, pattern {} (raw % in parens)",
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

    /// Shape check at tiny scale on a single grid cell: FairSched violates
    /// at least as much as v-MLP on the high-volatility stream.
    #[test]
    fn simple_schedulers_violate_more_on_high_vr() {
        let cells = [
            Cell {
                scheme: "fairsched".into(),
                pattern: WorkloadPattern::L1Pulse,
                mix: MixSpec::SingleClass(VolatilityClass::High),
                rate_mult: 1.0,
            },
            Cell {
                scheme: "vmlp".into(),
                pattern: WorkloadPattern::L1Pulse,
                mix: MixSpec::SingleClass(VolatilityClass::High),
                rate_mult: 1.0,
            },
        ];
        let res = run_cells(Scale::tiny(), &cells, 5);
        assert!(
            res[0].violation >= res[1].violation,
            "FairSched {} vs v-MLP {}",
            res[0].violation,
            res[1].violation
        );
    }
}
