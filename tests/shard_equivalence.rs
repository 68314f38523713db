//! Sharding equivalence and safety properties:
//!
//! * `shards = 1` is byte-identical to the unsharded default — for every
//!   scheme and seed, on every reported metric. Sharding is pure overlay
//!   structure; a single shard scans machines in exactly the old order.
//! * `shards > 1` (both policies) never loses requests, never violates an
//!   invariant the auditor checks (including the shard-partition check),
//!   and stays bit-reproducible.
//! * The `K > 1` admission round (home-shard walks in ascending shard
//!   order, then one cross-shard overflow walk) is pinned by fixed-seed
//!   fingerprints, including under a crash storm that forces overflow.

use v_mlp::prelude::*;

fn assert_results_identical(a: &ExperimentResult, b: &ExperimentResult, label: &str) {
    assert_eq!(a.arrived, b.arrived, "{label}: arrived");
    assert_eq!(a.completed, b.completed, "{label}: completed");
    assert_eq!(a.completed_in_horizon, b.completed_in_horizon, "{label}: in-horizon");
    assert_eq!(a.unfinished, b.unfinished, "{label}: unfinished");
    assert_eq!(a.latency_ms, b.latency_ms, "{label}: latency percentiles");
    assert_eq!(a.p99_by_class, b.p99_by_class, "{label}: per-class p99");
    assert_eq!(a.mean_latency_ms, b.mean_latency_ms, "{label}: mean latency");
    assert_eq!(a.violation_rate, b.violation_rate, "{label}: violation rate");
    assert_eq!(a.violation_by_class, b.violation_by_class, "{label}: class violations");
    assert_eq!(a.mean_utilization, b.mean_utilization, "{label}: utilization");
    assert_eq!(a.utilization.values(), b.utilization.values(), "{label}: utilization series");
    assert_eq!(a.healing, b.healing, "{label}: healing counters");
    assert_eq!(a.late_fraction, b.late_fraction, "{label}: late fraction");
    assert_eq!(a.capped_fraction, b.capped_fraction, "{label}: capped fraction");
    assert_eq!(a.mean_breakdown, b.mean_breakdown, "{label}: latency attribution");
    assert_eq!(a.shard_overflows, b.shard_overflows, "{label}: overflows");
}

#[test]
fn one_shard_is_byte_identical_to_unsharded() {
    // The load-bearing property of the redesign: asking for a single shard
    // must reproduce the unsharded scan order exactly, so every existing
    // figure stays byte-identical.
    for scheme in PAPER_SCHEMES {
        for seed in [7u64, 2022] {
            let base = ExperimentConfig::smoke(scheme).with_seed(seed);
            let unsharded = Experiment::from_config(base.clone()).run().unwrap();
            let one_shard = Experiment::from_config(base.with_shards(1, ShardPolicy::RoundRobin))
                .run()
                .unwrap();
            assert_eq!(one_shard.shard_overflows, 0);
            assert_results_identical(&unsharded, &one_shard, &format!("{scheme} seed={seed}"));
        }
    }
}

#[test]
fn sharded_runs_hold_invariants_under_both_policies() {
    // Sharded scheduling must stay conservative: every request accounted
    // for, zero auditor violations (the auditor re-checks the shard
    // partition every sampling tick), for both assignment policies.
    for scheme in PAPER_SCHEMES {
        for policy in [ShardPolicy::RoundRobin, ShardPolicy::CapacityBalanced] {
            let cfg = ExperimentConfig::smoke(scheme)
                .with_seed(11)
                .with_shards(3, policy)
                .with_auditor(true);
            let catalog = RequestCatalog::paper();
            let (r, out) = Experiment::from_config(cfg).catalog(&catalog).run_full().unwrap();
            let label = format!("{scheme} {policy:?}");
            assert_eq!(
                r.invariant_violations, 0,
                "{label}: auditor flagged violations; report: {:?}",
                out.invariant_report
            );
            assert!(out.invariant_report.is_none(), "{label}");
            assert!(
                r.completed + r.unfinished >= r.arrived,
                "{label}: lost requests ({} + {} < {})",
                r.completed,
                r.unfinished,
                r.arrived
            );
            assert!(r.completed > 0, "{label}: nothing completed");
        }
    }
}

#[test]
fn sharded_runs_are_bit_reproducible() {
    for policy in [ShardPolicy::RoundRobin, ShardPolicy::CapacityBalanced] {
        let cfg = ExperimentConfig::smoke("vmlp").with_seed(5).with_shards(4, policy);
        let a = Experiment::from_config(cfg.clone()).run().unwrap();
        let b = Experiment::from_config(cfg).run().unwrap();
        assert_results_identical(&a, &b, &format!("{policy:?}"));
    }
}

#[test]
fn unavailable_home_shards_overflow_and_still_account() {
    // One machine per shard and a crash storm: every request homed to a
    // downed machine's shard has no feasible window there, so cross-shard
    // overflow must engage — and conservation still holds.
    let cfg = crash_storm_config().with_auditor(true);
    let r = Experiment::from_config(cfg).run().unwrap();
    assert!(r.machine_crashes > 0, "storm must actually down machines");
    assert!(r.shard_overflows > 0, "requests homed to downed shards must spill");
    assert_eq!(r.invariant_violations, 0);
    assert!(r.completed + r.unfinished >= r.arrived, "lost requests under overflow");
}

/// The crash-storm config of `unavailable_home_shards_overflow_and_still_account`:
/// one machine per shard and two crashes, so cross-shard overflow engages.
fn crash_storm_config() -> ExperimentConfig {
    let storm = FaultConfig {
        enabled: true,
        machine_crashes: 2,
        storm_start_ms: 1_000,
        storm_duration_ms: 2_000,
        outage_ms: 4_000,
        transient_fail_prob: 0.0,
        degrade_start_ms: 0,
        degrade_duration_ms: 0,
        degrade_factor: 1.0,
    };
    ExperimentConfig {
        machines: 8,
        max_rate: 30.0,
        horizon_s: 6.0,
        warmup_cases: 10,
        ..ExperimentConfig::paper_default("vmlp")
    }
    .with_seed(31)
    .with_shards(8, ShardPolicy::RoundRobin)
    .with_faults(storm)
}

/// What one pinned sharded run must reproduce: `completed`, the shard
/// overflow count, the bits of the p50/p95/p99 latencies, and an FxHash
/// digest of the decision trail's `Debug` rendering.
type Pin = (usize, u64, [u64; 3], u64);

fn pin_of(cfg: ExperimentConfig) -> Pin {
    use std::hash::Hasher;
    let catalog = RequestCatalog::paper();
    let (r, out) = Experiment::from_config(cfg.with_auditor(true).with_audit(true))
        .catalog(&catalog)
        .run_full()
        .unwrap();
    assert_eq!(r.invariant_violations, 0, "{:?}", out.invariant_report);
    let mut h = v_mlp::sim::FastHasher::default();
    h.write(format!("{:?}", out.audit.decisions()).as_bytes());
    (r.completed, r.shard_overflows, r.latency_ms.map(f64::to_bits), h.finish())
}

#[test]
fn sharded_schedules_match_pinned_fixtures() {
    // Fixed-seed fingerprints of the K > 1 admission round (home-shard
    // passes in ascending shard order, then the cross-shard overflow
    // pass). Any change to which request is planned where, or to the
    // order of decisions, moves the trail digest.
    let mut got = Vec::new();
    for shards in [4usize, 16] {
        let cfg =
            ExperimentConfig { machines: 16, max_rate: 80.0, ..ExperimentConfig::smoke("vmlp") }
                .with_seed(13)
                .with_shards(shards, ShardPolicy::RoundRobin);
        got.push((format!("smoke shards={shards}"), pin_of(cfg)));
    }
    got.push(("crash storm shards=8".to_string(), pin_of(crash_storm_config())));
    let want: [Pin; 3] = [
        (
            211,
            0,
            [4639181444130531181, 4644781195278143193, 4645771811274304258],
            8957564127900354106,
        ),
        (
            211,
            0,
            [4639192879051460051, 4644673531099551367, 4645720055062961586],
            12717636493987246983,
        ),
        (
            53,
            47,
            [4639050311975756104, 4644705742392198693, 4646190294195928826],
            1275924891521284733,
        ),
    ];
    for ((label, got), want) in got.iter().zip(want) {
        assert_eq!(*got, want, "{label}");
    }
}
