//! Quality-impact ablation study of v-MLP's design choices (DESIGN.md §6):
//! runs each ablated configuration on the L2 fluctuating workload and
//! reports tails, violations, utilization, and healing activity.

use mlp_bench::evalrun::{run_cells, Cell};
use mlp_engine::report;
use mlp_workload::WorkloadPattern;

fn main() {
    let scale = mlp_bench::scale_from_args();
    eprintln!("running v-MLP ablations at --scale={} …", scale.label);
    let variants = [
        ("full v-MLP", "vmlp"),
        ("no healing", "vmlp:healing=off"),
        ("no delay slot", "vmlp:delay_slot=off"),
        ("no stretch", "vmlp:resource_stretch=off"),
        ("no reorder (FCFS)", "vmlp:reorder=off"),
        ("no queue switch", "vmlp:queue_switch=off"),
        ("no reservation trim", "vmlp:trim_reservations=off"),
        ("Δt = always mean", "vmlp:dt_policy=always-mean"),
        ("Δt = always p99", "vmlp:dt_policy=always-p99"),
    ];
    let cells: Vec<Cell> = variants
        .iter()
        .map(|(_, spec)| Cell { pattern: WorkloadPattern::L2Fluctuating, ..Cell::new(*spec) })
        .collect();
    let results = run_cells(scale, &cells, 2022);
    let rows: Vec<Vec<String>> = variants
        .iter()
        .zip(&results)
        .map(|((name, _), r)| {
            vec![
                name.to_string(),
                report::f(r.latency_ms[0]),
                report::f(r.latency_ms[2]),
                format!("{:.1}%", r.violation * 100.0),
                report::f(r.utilization),
                format!("{:.0}/{:.0}/{:.0}", r.healing.0, r.healing.1, r.healing.2),
            ]
        })
        .collect();
    print!(
        "{}",
        report::table(
            "v-MLP design-choice ablations (L2 fluctuating workload)",
            &["variant", "p50 ms", "p99 ms", "violations", "util", "slot/stretch/switch"],
            &rows,
        )
    );
}
