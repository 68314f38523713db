//! Scale trajectory — wall-clock of one v-MLP run as the fleet grows.
//!
//! The paper evaluates an 8-machine cluster; the ROADMAP north-star is
//! thousands of machines. This sweep holds the *per-machine* offered load
//! constant (the small-scale regime) while the fleet grows 8 → 4096, with
//! the cluster partitioned into one shard per 16 machines so placement and
//! healing scan a shard instead of the whole fleet. The invariant auditor
//! runs at every point: scaling out must never cost correctness.

use crate::scale::Scale;
use mlp_cluster::ShardPolicy;
use mlp_engine::config::ExperimentConfig;
use mlp_engine::experiment::Experiment;
use mlp_engine::report;
use mlp_trace::metrics::names;
use serde::Serialize;
use std::time::Instant;

/// Per-machine offered load at every sweep point, req/s — the small-scale
/// regime (84 req/s across 12 machines) held constant while the fleet
/// grows, so bigger points measure scheduler cost, not a different regime.
pub const RATE_PER_MACHINE: f64 = 7.0;

/// Horizon per point, seconds. Short: wall time is dominated by the big
/// points, and the trajectory needs their slope, not long-run statistics.
pub const HORIZON_S: f64 = 8.0;

/// One shard per this many machines (minimum one shard).
pub const MACHINES_PER_SHARD: usize = 16;

/// Fleet sizes swept at a given scale. Paper scale runs the full
/// trajectory; small trims the 1024- and 4096-machine points
/// (CI-friendly); tiny keeps just the smallest two for smoke tests.
pub fn machine_counts(scale: &Scale) -> &'static [usize] {
    match scale.label {
        "paper" => &[8, 64, 256, 1024, 4096],
        "tiny" => &[8, 64],
        _ => &[8, 64, 256],
    }
}

/// Shard count for a fleet: one shard per [`MACHINES_PER_SHARD`] machines.
pub fn shards_for(machines: usize) -> usize {
    (machines / MACHINES_PER_SHARD).max(1)
}

/// One row of the trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    /// Fleet size.
    pub machines: usize,
    /// Shards the fleet was partitioned into.
    pub shards: usize,
    /// Wall-clock of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Requests that arrived / completed.
    pub arrived: usize,
    /// Requests completed by cut-off.
    pub completed: usize,
    /// SLO-violation fraction.
    pub violation_rate: f64,
    /// Mean cluster utilization.
    pub mean_utilization: f64,
    /// Placements that spilled out of their home shard.
    pub shard_overflows: u64,
    /// Invariant-auditor violations (must be zero).
    pub invariant_violations: u64,
    /// Peak sampled utilization per shard (empty when the fleet runs as a
    /// single shard — the per-shard gauges are only published for K > 1).
    pub shard_peak_utilization: Vec<f64>,
}

/// The experiment config for one sweep point.
pub fn config_for(machines: usize, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        machines,
        max_rate: RATE_PER_MACHINE * machines as f64,
        horizon_s: HORIZON_S,
        ..ExperimentConfig::paper_default("vmlp")
    }
    .with_seed(seed)
    .with_shards(shards_for(machines), ShardPolicy::RoundRobin)
    .with_auditor(true)
}

/// Runs one sweep point, timing the whole experiment (profiling, stream
/// generation, simulation, summarization — the unit a capacity planner
/// would actually re-run).
pub fn data_point(machines: usize, seed: u64) -> ScalePoint {
    let shards = shards_for(machines);
    let start = Instant::now();
    let (r, out) = Experiment::from_config(config_for(machines, seed))
        .run_full()
        .expect("scale sweep config is valid");
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let shard_peak_utilization = if shards > 1 {
        (0..shards as u32)
            .map(|s| out.metrics.gauge(&names::shard_utilization_peak(s)).unwrap_or(0.0))
            .collect()
    } else {
        Vec::new()
    };
    ScalePoint {
        machines,
        shards,
        wall_ms,
        arrived: r.arrived,
        completed: r.completed,
        violation_rate: r.violation_rate,
        mean_utilization: r.mean_utilization,
        shard_overflows: r.shard_overflows,
        invariant_violations: r.invariant_violations,
        shard_peak_utilization,
    }
}

/// Runs the whole trajectory for a scale.
pub fn data(scale: &Scale, seed: u64) -> Vec<ScalePoint> {
    machine_counts(scale)
        .iter()
        .map(|&machines| {
            eprintln!("fig_scale: {machines} machines ({} shards)…", shards_for(machines));
            data_point(machines, seed)
        })
        .collect()
}

/// Renders the trajectory table.
pub fn report(points: &[ScalePoint], scale: &Scale) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.machines),
                format!("{}", p.shards),
                format!("{:.0}", p.wall_ms),
                format!("{:.1}", p.wall_ms / p.completed.max(1) as f64 * 1000.0),
                format!("{}", p.completed),
                format!("{:.1}%", p.violation_rate * 100.0),
                format!("{:.1}%", p.mean_utilization * 100.0),
                format!("{}", p.shard_overflows),
                format!("{}", p.invariant_violations),
            ]
        })
        .collect();
    report::table(
        &format!(
            "Scale trajectory — v-MLP wall-clock at {RATE_PER_MACHINE} req/s/machine, \
             1 shard per {MACHINES_PER_SHARD} machines, auditor on ({})",
            scale.label
        ),
        &[
            "machines",
            "shards",
            "wall ms",
            "µs/req",
            "completed",
            "violations",
            "util",
            "overflows",
            "audit viol",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_sizing_is_one_per_sixteen_machines() {
        assert_eq!(shards_for(8), 1);
        assert_eq!(shards_for(16), 1);
        assert_eq!(shards_for(64), 4);
        assert_eq!(shards_for(256), 16);
        assert_eq!(shards_for(1024), 64);
        assert_eq!(shards_for(4096), 256);
    }

    #[test]
    fn tiny_scale_trims_the_trajectory() {
        assert_eq!(machine_counts(&Scale::tiny()), &[8, 64]);
        assert_eq!(machine_counts(&Scale::small()), &[8, 64, 256]);
        assert_eq!(machine_counts(&Scale::paper()), &[8, 64, 256, 1024, 4096]);
    }

    /// A sharded point runs clean end to end and publishes per-shard
    /// metrics — the acceptance shape of the full sweep, at test size.
    #[test]
    fn sharded_point_is_clean_and_reports_per_shard_metrics() {
        let p = data_point(32, 7);
        assert_eq!(p.shards, 2);
        assert_eq!(p.invariant_violations, 0, "auditor must stay clean");
        assert!(p.completed > 0);
        assert!(p.wall_ms > 0.0);
        assert_eq!(p.shard_peak_utilization.len(), 2, "per-shard gauges must be published");
        for (i, u) in p.shard_peak_utilization.iter().enumerate() {
            assert!((0.0..=1.0).contains(u), "shard {i} peak utilization {u} out of range");
            assert!(*u > 0.0, "shard {i} never saw load — peak gauge missing");
        }
    }
}
