//! Reproducibility guarantees: identical seeds give bit-identical results;
//! different seeds and schemes face the identical arrival stream.

use v_mlp::prelude::*;
use v_mlp::sim::SimRng;
use v_mlp::workload::generate_stream;

/// Test shorthand over the [`Experiment`] builder.
fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    Experiment::from_config(cfg.clone()).run().expect("test config is valid")
}

#[test]
fn experiments_are_bit_reproducible() {
    for scheme in ["fairsched", "vmlp"] {
        let cfg = ExperimentConfig::smoke(scheme).with_seed(42);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.completed, b.completed, "{scheme}");
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.mean_utilization, b.mean_utilization);
        assert_eq!(a.healing, b.healing);
        assert_eq!(a.utilization.values(), b.utilization.values());
    }
}

#[test]
fn different_seeds_give_different_streams() {
    let cfg1 = ExperimentConfig::smoke("vmlp").with_seed(1);
    let cfg2 = ExperimentConfig::smoke("vmlp").with_seed(2);
    let a = run_experiment(&cfg1);
    let b = run_experiment(&cfg2);
    assert_ne!(a.arrived, b.arrived, "distinct seeds should differ");
}

#[test]
fn all_schemes_face_the_same_arrival_stream() {
    // The arrival stream depends only on the seed/pattern/mix — never on
    // the scheme — so scheme comparisons are paired (Section IV).
    let catalog = RequestCatalog::paper();
    let mix = catalog.balanced_mix();
    let s1 = generate_stream(
        WorkloadPattern::L2Fluctuating,
        100.0,
        10.0,
        &mix,
        &mut SimRng::new(9).fork(0),
    );
    let s2 = generate_stream(
        WorkloadPattern::L2Fluctuating,
        100.0,
        10.0,
        &mix,
        &mut SimRng::new(9).fork(0),
    );
    assert_eq!(s1, s2);
    // And the runner's per-scheme results report identical arrivals.
    let a = run_experiment(&ExperimentConfig::smoke("fairsched").with_seed(5));
    let b = run_experiment(&ExperimentConfig::smoke("fullprofile").with_seed(5));
    assert_eq!(a.arrived, b.arrived);
}

#[test]
fn disabled_faults_leave_runs_byte_identical() {
    // A disabled FaultConfig must be inert no matter what junk the storm
    // fields carry: every fault code path is gated on `is_active()`, so the
    // run must be byte-identical to the plain config's.
    let junk = FaultConfig {
        enabled: false,
        machine_crashes: 7,
        storm_start_ms: 1,
        storm_duration_ms: 99_999,
        outage_ms: 12_345,
        transient_fail_prob: 0.9,
        degrade_start_ms: 0,
        degrade_duration_ms: 99_999,
        degrade_factor: 10.0,
    };
    for scheme in ["vmlp", "cursched"] {
        let plain = ExperimentConfig::smoke(scheme).with_seed(77);
        let gated = plain.clone().with_faults(junk);
        let a = run_experiment(&plain);
        let b = run_experiment(&gated);
        assert_eq!(a.completed, b.completed, "{scheme}");
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.mean_utilization, b.mean_utilization);
        assert_eq!(a.healing, b.healing);
        assert_eq!(a.utilization.values(), b.utilization.values());
        assert_eq!(b.abandoned, 0);
        assert_eq!(b.node_failures, 0);
        assert_eq!(b.machine_crashes, 0);
    }
}

#[test]
fn disabled_overload_leaves_runs_byte_identical() {
    // A disabled OverloadConfig must be inert no matter what junk the
    // tuning fields carry: the runtime (and its RNG fork) is only
    // constructed when `enabled`, so the run must be byte-identical to
    // the plain config's.
    let junk = OverloadConfig {
        enabled: false,
        resilience: true,
        surge_multiplier: 9.0,
        surge_start_s: 0.1,
        surge_duration_s: 99.0,
        surge_ramp_s: 1.0,
        max_queue_depth: 1,
        admission_slack: 7.0,
        retry_rate_per_s: 0.001,
        retry_burst: 0.001,
        retry_base_backoff_ms: 500.0,
        breaker_min_samples: 1,
        breaker_failure_rate: 0.01,
        breaker_open_ms: 60_000.0,
        breaker_half_open_probes: 1,
        tier1_pressure: 0.2,
        tier2_pressure: 0.3,
        tier3_pressure: 0.4,
        tier_hysteresis: 0.05,
    };
    for scheme in ["vmlp", "cursched"] {
        let plain = ExperimentConfig::smoke(scheme).with_seed(77);
        let gated = plain.clone().with_overload(junk);
        let a = run_experiment(&plain);
        let b = run_experiment(&gated);
        assert_eq!(a.completed, b.completed, "{scheme}");
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.mean_utilization, b.mean_utilization);
        assert_eq!(a.healing, b.healing);
        assert_eq!(a.utilization.values(), b.utilization.values());
        assert_eq!(b.shed_requests, 0);
        assert_eq!(b.branch_sheds, 0);
        assert_eq!(b.retries_denied, 0);
        assert_eq!(b.breaker_opens, 0);
        assert_eq!(b.peak_pressure, 0.0);
    }
}

#[test]
fn overload_runs_are_bit_reproducible() {
    // The resilience stack (admission gate, token bucket, breakers,
    // brownout, jittered backoff from the dedicated RNG fork) must be
    // fully deterministic in the seed.
    let overload =
        OverloadConfig { max_queue_depth: 16, ..OverloadConfig::flash_crowd(4.0, 0.5, 4.0) };
    for scheme in ["vmlp", "cursched"] {
        let cfg = ExperimentConfig::smoke(scheme)
            .with_pattern(WorkloadPattern::Constant)
            .with_seed(13)
            .with_overload(overload);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.completed, b.completed, "{scheme}");
        assert_eq!(a.arrived, b.arrived);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.utilization.values(), b.utilization.values());
        assert_eq!(a.shed_requests, b.shed_requests);
        assert_eq!(a.branch_sheds, b.branch_sheds);
        assert_eq!(a.retries_denied, b.retries_denied);
        assert_eq!(a.breaker_opens, b.breaker_opens);
        assert_eq!(a.peak_pressure, b.peak_pressure);
        // The surge must actually overload the gate at these settings.
        assert!(a.shed_requests > 0, "{scheme}: surge never tripped admission");
        assert_eq!(a.arrived, a.completed + a.unfinished, "{scheme}");
    }
}

#[test]
fn fault_storms_are_bit_reproducible() {
    let storm = FaultConfig {
        enabled: true,
        machine_crashes: 2,
        storm_start_ms: 1_500,
        storm_duration_ms: 3_000,
        outage_ms: 1_000,
        transient_fail_prob: 0.05,
        degrade_start_ms: 2_000,
        degrade_duration_ms: 2_000,
        degrade_factor: 3.0,
    };
    for scheme in ["vmlp", "cursched"] {
        let cfg = ExperimentConfig::smoke(scheme).with_seed(13).with_faults(storm);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.completed, b.completed, "{scheme}");
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.utilization.values(), b.utilization.values());
        assert_eq!(a.abandoned, b.abandoned);
        assert_eq!(a.node_failures, b.node_failures);
        assert_eq!(a.fault_retries, b.fault_retries);
        assert_eq!(a.machine_crashes, b.machine_crashes);
        assert_eq!(a.crash_replans, b.crash_replans);
        assert_eq!(a.mttr_ms, b.mttr_ms);
        // The storm must actually do something at these settings.
        assert!(a.machine_crashes > 0, "{scheme}: storm injected no crashes");
        assert!(a.node_failures > 0, "{scheme}: storm killed no nodes");
    }
}

#[test]
fn parallel_sweep_is_deterministic() {
    use v_mlp::engine::parallel::run_all;
    let configs: Vec<ExperimentConfig> =
        PAPER_SCHEMES.into_iter().map(|s| ExperimentConfig::smoke(s).with_seed(3)).collect();
    let r1 = run_all(&configs, 2);
    let r2 = run_all(&configs, 5); // different worker count, same results
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency_ms, b.latency_ms);
    }
}

#[test]
fn reorder_index_matches_sort_based_reference() {
    // The waiting queue is served from the incremental reorder index (per-
    // (shard, type) arrival-ordered deques, lazy head merge, versioned
    // terms cache); the per-round `sort_by_reorder_ratio` survives behind
    // `VMlpConfig::unindexed_reorder` as the reference, reached here
    // through a test-local registry whose `vmlp` entry sets that field.
    // Equivalence must hold at the *schedule* level: the same config run
    // both ways must produce identical results and — modulo the
    // `IndexInvalidate` records only the indexed path emits — a
    // decision-audit trail identical entry for entry, unsharded and
    // sharded.
    use v_mlp::core::VMlpConfig;
    use v_mlp::trace::DecisionKind;
    let mut sorted = SchedulerRegistry::empty();
    sorted
        .register(RegistryEntry {
            name: "vmlp",
            summary: "v-MLP on the sort-based reference queue",
            param_keys: &[],
            build: |_params, _ctx| {
                let cfg = VMlpConfig { unindexed_reorder: true, ..VMlpConfig::paper() };
                Ok(Box::new(VMlpScheduler::with_config(cfg)))
            },
            display: |_params| Ok("v-MLP".to_string()),
        })
        .expect("one entry registers");
    for shards in [1usize, 4] {
        let cfg = ExperimentConfig::smoke("vmlp")
            .with_seed(17)
            .with_shards(shards, ShardPolicy::RoundRobin);
        let (idx_r, idx_out) =
            Experiment::from_config(cfg.clone()).audit(true).run_full().expect("indexed path runs");
        let (ref_r, ref_out) = Experiment::from_config(cfg)
            .registry(&sorted)
            .audit(true)
            .run_full()
            .expect("sorted reference path runs");
        let label = format!("shards={shards}");
        assert_eq!(idx_r.completed, ref_r.completed, "{label}: completed");
        assert_eq!(idx_r.latency_ms, ref_r.latency_ms, "{label}: latency percentiles");
        assert_eq!(idx_r.violation_rate, ref_r.violation_rate, "{label}: violation rate");
        assert_eq!(idx_r.healing, ref_r.healing, "{label}: healing counters");
        assert_eq!(idx_r.mean_utilization, ref_r.mean_utilization, "{label}: utilization");
        let idx_ds: Vec<_> = idx_out
            .audit
            .decisions()
            .iter()
            .filter(|d| d.kind != DecisionKind::IndexInvalidate)
            .cloned()
            .collect();
        let ref_ds = ref_out.audit.decisions();
        assert!(
            ref_ds.iter().all(|d| d.kind != DecisionKind::IndexInvalidate),
            "{label}: the sorted path must never emit index invalidations"
        );
        assert_eq!(idx_ds.len(), ref_ds.len(), "{label}: decision counts");
        for (i, (a, b)) in idx_ds.iter().zip(ref_ds.iter()).enumerate() {
            assert_eq!(a, b, "{label}: decision #{i} diverges between queue paths");
        }
    }
}

#[test]
fn banded_dt_fast_path_matches_sort_based_reference() {
    // The banded Δt estimate is served from the per-service rank index
    // plus a (service, band, percentile) memo; the sort-based scan
    // survives as a debug reference. Equivalence must hold at the
    // *schedule* level, not just per estimate: the same config run both
    // ways must produce identical results and a decision-audit trail
    // identical entry for entry (every budget tier, defer, and admit) —
    // unsharded and sharded, where one round walks each home shard in
    // turn and then the overflow queue.
    for shards in [1usize, 4] {
        let cfg = ExperimentConfig::smoke("vmlp")
            .with_seed(17)
            .with_shards(shards, ShardPolicy::RoundRobin);
        let (fast_r, fast_out) =
            Experiment::from_config(cfg.clone()).audit(true).run_full().expect("fast path runs");
        let (ref_r, ref_out) = Experiment::from_config(cfg)
            .audit(true)
            .unindexed_dt(true)
            .run_full()
            .expect("reference path runs");
        let label = format!("shards={shards}");
        assert_eq!(fast_r.completed, ref_r.completed, "{label}: completed");
        assert_eq!(fast_r.latency_ms, ref_r.latency_ms, "{label}: latency percentiles");
        assert_eq!(fast_r.violation_rate, ref_r.violation_rate, "{label}: violation rate");
        assert_eq!(fast_r.healing, ref_r.healing, "{label}: healing counters");
        let fast_ds = fast_out.audit.decisions();
        let ref_ds = ref_out.audit.decisions();
        assert_eq!(fast_ds.len(), ref_ds.len(), "{label}: decision counts");
        for (i, (a, b)) in fast_ds.iter().zip(ref_ds.iter()).enumerate() {
            assert_eq!(a, b, "{label}: decision #{i} diverges between Δt paths");
        }
    }
}

/// FxHash digest of an arrival stream's `Debug` rendering.
fn arrivals_digest(arrivals: &[v_mlp::workload::Arrival]) -> u64 {
    use std::hash::Hasher;
    let mut h = v_mlp::sim::FastHasher::default();
    h.write(format!("{arrivals:?}").as_bytes());
    h.finish()
}

#[test]
fn arrival_streams_match_pinned_fixtures() {
    // Fixed-seed fingerprints of the arrival sampler: the count, the
    // stream digest, and the next draw of the caller's RNG once the
    // stream is generated. The dense and lazy paths share one sampler, so
    // comparing them with each other cannot catch a change in draw order;
    // only a pin against history can.
    use rand::RngCore;
    use v_mlp::workload::{collect_source, RateSchedule};
    let mix = RequestCatalog::paper().balanced_mix();
    let mut got = Vec::new();
    for pattern in [
        WorkloadPattern::L1Pulse,
        WorkloadPattern::L2Fluctuating,
        WorkloadPattern::L3PeriodicWide,
        WorkloadPattern::Constant,
    ] {
        for seed in [3u64, 29] {
            let mut rng = SimRng::new(seed);
            let s = generate_stream(pattern, 120.0, 30.0, &mix, &mut rng);
            got.push((
                format!("{pattern:?} seed={seed}"),
                (s.len(), arrivals_digest(&s), rng.next_u64()),
            ));
        }
    }
    let flash =
        RateSchedule::flash_crowd(WorkloadPattern::L2Fluctuating, 90.0, 10.0, 8.0, 3.0, 1.5)
            .unwrap();
    let mut src = OpenLoopSource::scheduled(flash, 40.0, mix, SimRng::new(41))
        .unwrap()
        .with_max_requests(1500);
    let s = collect_source(&mut src);
    got.push(("flash crowd capped".to_string(), (s.len(), arrivals_digest(&s), 0)));
    let want: [(usize, u64, u64); 9] = [
        (1189, 13363761109514025269, 4807823829445556132),
        (1267, 9747323872219756565, 16725674379938991774),
        (2078, 8823378081942226554, 8244441779360636658),
        (2116, 13446801300237459584, 12323602802325449448),
        (2401, 13288546758337933588, 1749031736385073780),
        (2387, 11597904449473228550, 13234477421827100582),
        (3659, 10465467330132825822, 2515040699533356677),
        (3691, 17244697999411465560, 18338512991940469474),
        (1500, 1349604116030870108, 0),
    ];
    for ((label, got), want) in got.iter().zip(want) {
        assert_eq!(*got, want, "{label}");
    }
}
