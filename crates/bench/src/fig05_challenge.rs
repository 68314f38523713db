//! Fig 5 — the design challenge: mispredicted end times and late messages
//! derail naive schedules into contention.

use mlp_engine::registry::PAPER_SCHEMES;
use mlp_engine::report;
use mlp_engine::scenario::run_challenge;

/// Renders the challenge outcomes for every scheme.
pub fn report(seed: u64) -> String {
    let rows: Vec<Vec<String>> = PAPER_SCHEMES
        .into_iter()
        .map(|s| {
            let o = run_challenge(s, seed);
            vec![
                o.scheme,
                format!("{:.1}%", o.late_fraction * 100.0),
                format!("{:.1}%", o.capped_fraction * 100.0),
                report::f(o.p99_ms),
                o.healing_actions.to_string(),
            ]
        })
        .collect();
    report::table(
        "Fig 5 — schedule misalignment under misprediction (tight high-V_r scenario)",
        &["scheme", "late invocations", "contended spans", "p99 (ms)", "healing actions"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_five_schemes() {
        let r = report(3);
        assert!(r.contains("v-MLP"));
        assert!(r.contains("FairSched"));
        assert_eq!(r.lines().count(), 3 + 5);
    }
}
