//! Head-to-head of all five Table VI schemes on one workload — a single
//! row of the paper's evaluation grid, printed as a table.
//!
//! ```sh
//! cargo run --release --example scheduler_comparison [l1|l2|l3]
//! ```

use v_mlp::prelude::*;

fn main() {
    let pattern = match std::env::args().nth(1).as_deref() {
        Some("l2") => WorkloadPattern::L2Fluctuating,
        Some("l3") => WorkloadPattern::L3PeriodicWide,
        _ => WorkloadPattern::L1Pulse,
    };
    println!("comparing all schemes on pattern {} …\n", pattern.label());

    let rows: Vec<Vec<String>> = PAPER_SCHEMES
        .into_iter()
        .map(|scheme| {
            let config = ExperimentConfig {
                machines: 12,
                max_rate: 84.0,
                horizon_s: 60.0,
                pattern,
                ..ExperimentConfig::paper_default(scheme)
            };
            let r = Experiment::from_config(config).run().expect("config is valid");
            vec![
                r.config.scheme.display_name(),
                report::f(r.latency_ms[0]),
                report::f(r.latency_ms[1]),
                report::f(r.latency_ms[2]),
                format!("{:.2}%", r.violation_rate * 100.0),
                format!("{:.1}%", r.mean_utilization * 100.0),
                format!("{:.1}", r.throughput()),
            ]
        })
        .collect();

    print!(
        "{}",
        report::table(
            &format!("Scheme comparison, pattern {} (balanced mix)", pattern.label()),
            &["scheme", "p50 ms", "p90 ms", "p99 ms", "violations", "util", "req/s"],
            &rows,
        )
    );
}
