//! Streaming-lifecycle equivalence properties (the tentpole contract):
//! the lazy arrival pipeline must be bit-identical to the dense one, a
//! fixed seed must reproduce an open-loop run exactly, and streaming
//! statistics must agree with exact records on everything that is not an
//! estimator.

use proptest::prelude::*;
use v_mlp::engine::profiling::warm_profiles;
use v_mlp::engine::sim::simulate;
use v_mlp::prelude::*;
use v_mlp::sim::SimRng;
use v_mlp::workload::generate_stream;

/// The raw slice pipeline the engine used before sources existed:
/// materialize the dense trace, then replay it through a [`SliceSource`].
fn run_slice_pipeline(cfg: &ExperimentConfig) -> (usize, usize, usize, usize) {
    let catalog = RequestCatalog::paper();
    let root = SimRng::new(cfg.seed);
    let mut arr_rng = root.fork(0);
    let mut sim_rng = root.fork(1);
    let mut warm_rng = root.fork(2);
    let profiles = warm_profiles(&catalog, cfg.warmup_cases, &mut warm_rng);
    let mix = cfg.mix.resolve(&catalog);
    let arrivals = generate_stream(cfg.pattern, cfg.max_rate, cfg.horizon_s, &mix, &mut arr_rng);
    let mut sched = default_registry().build(&cfg.scheme, cfg.seed).unwrap();
    let mut source = SliceSource::new(&arrivals);
    let out = simulate(cfg, &catalog, profiles, &mut source, sched.as_mut(), &mut sim_rng);
    (out.arrived, out.collector.completed(), out.unfinished, out.request_table_peak)
}

proptest! {
    // Whole-simulation property runs are expensive; a handful of sampled
    // seeds per scheme is plenty on top of the fixed-seed suites.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The `Experiment` builder's lazy arrival source is byte-identical to
    /// the raw dense-trace pipeline, for every scheme and any seed.
    #[test]
    fn slice_replay_matches_raw_pipeline_across_schemes(seed in 0u64..10_000) {
        for scheme in PAPER_SCHEMES {
            let cfg = ExperimentConfig::smoke(scheme).with_seed(seed);
            let r = Experiment::from_config(cfg.clone()).run().expect("smoke config is valid");
            let (arrived, completed, unfinished, peak) = run_slice_pipeline(&cfg);
            prop_assert_eq!(r.arrived, arrived, "{scheme}");
            prop_assert_eq!(r.completed, completed, "{scheme}");
            prop_assert_eq!(r.unfinished, unfinished, "{scheme}");
            prop_assert_eq!(r.request_table_peak, peak, "{scheme}");
        }
    }

    /// A request-capped open-loop run with a fixed seed is bit-reproducible:
    /// every float in the summary comes out identical on a second run.
    #[test]
    fn open_loop_fixed_seed_is_bit_reproducible(seed in 0u64..10_000) {
        let cfg = ExperimentConfig::smoke("vmlp")
            .with_seed(seed)
            .with_stream_stats(true)
            .with_max_requests(120);
        let a = Experiment::from_config(cfg.clone()).run().expect("valid");
        let b = Experiment::from_config(cfg).run().expect("valid");
        prop_assert_eq!(a.arrived, b.arrived);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.unfinished, b.unfinished);
        prop_assert_eq!(a.latency_ms, b.latency_ms, "percentiles must match bitwise");
        prop_assert_eq!(a.mean_latency_ms.to_bits(), b.mean_latency_ms.to_bits());
        prop_assert_eq!(a.violation_rate.to_bits(), b.violation_rate.to_bits());
        prop_assert_eq!(a.utilization.values(), b.utilization.values());
        prop_assert_eq!(a.request_table_peak, b.request_table_peak);
    }
}

#[test]
fn streaming_stats_agree_with_exact_records() {
    // Streaming mode changes how completions are *summarized*, never how
    // the simulation runs: counts must agree exactly, the Welford mean to
    // float tolerance, and the P² tail to estimator tolerance.
    let base = ExperimentConfig::smoke("vmlp").with_seed(77);
    let exact = Experiment::from_config(base.clone()).run().unwrap();
    let streamed = Experiment::from_config(base.with_stream_stats(true)).run().unwrap();

    assert_eq!(streamed.arrived, exact.arrived);
    assert_eq!(streamed.completed, exact.completed);
    assert_eq!(streamed.unfinished, exact.unfinished);
    assert_eq!(streamed.completed_in_horizon, exact.completed_in_horizon);
    assert_eq!(streamed.good_in_horizon, exact.good_in_horizon);
    assert_eq!(streamed.violation_rate, exact.violation_rate);
    assert_eq!(streamed.request_table_peak, exact.request_table_peak);
    assert_eq!(streamed.healing, exact.healing);

    let mean_err = (streamed.mean_latency_ms - exact.mean_latency_ms).abs();
    assert!(mean_err < 1e-6 * exact.mean_latency_ms.max(1.0), "Welford mean drifted {mean_err}");

    // P² quantiles are estimates; at smoke-run sample counts they should
    // land within a quarter of the exact value and preserve ordering.
    for (i, (s, e)) in streamed.latency_ms.iter().zip(exact.latency_ms.iter()).enumerate() {
        assert!((s - e).abs() <= 0.25 * e.max(1.0), "percentile {i}: streaming {s} vs exact {e}");
    }
    assert!(streamed.latency_ms[0] <= streamed.latency_ms[1]);
    assert!(streamed.latency_ms[1] <= streamed.latency_ms[2]);
}

#[test]
fn profile_retention_default_is_byte_identical() {
    // `profile_retention: 0` (the default) must not perturb results, and a
    // bounded window must still produce a sane, clean run.
    let cfg = ExperimentConfig::smoke("vmlp").with_seed(13);
    let a = Experiment::from_config(cfg.clone()).run().unwrap();
    let b = Experiment::from_config(cfg.clone().with_profile_retention(0)).run().unwrap();
    assert_eq!(a.latency_ms, b.latency_ms);
    assert_eq!(a.completed, b.completed);

    let bounded =
        Experiment::from_config(cfg.with_profile_retention(64).with_auditor(true)).run().unwrap();
    assert!(bounded.completed > 0);
    assert_eq!(bounded.invariant_violations, 0, "bounded history must stay invariant-clean");
}
