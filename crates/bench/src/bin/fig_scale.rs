//! Scale-trajectory sweep: v-MLP wall-clock as the fleet grows 8 → 4096
//! machines with one shard per 16 machines and the invariant auditor on.
//! Prints the trajectory table and merges the data points into the
//! repo-root `BENCH_sim.json` under the `fig_scale` key (preserving the
//! `perf_baseline` snapshot). Exits non-zero if any point reports an
//! invariant violation, so CI can gate on it.

use mlp_bench::fig_scale;

fn main() {
    let scale = mlp_bench::scale_from_args();
    let points = fig_scale::data(&scale, 2022);
    println!("{}", fig_scale::report(&points, &scale));

    let value = serde_json::to_value(&points).expect("scale points serialize");
    mlp_bench::merge_bench_json(vec![("fig_scale".to_string(), value)]);

    let violations: u64 = points.iter().map(|p| p.invariant_violations).sum();
    if violations > 0 {
        eprintln!("fig_scale: {violations} invariant violations — failing");
        std::process::exit(1);
    }
}
