//! Dense (materialized) non-homogeneous Poisson arrival streams.

use crate::error::WorkloadError;
use crate::patterns::WorkloadPattern;
use crate::schedule::RateSchedule;
use crate::source::{ArrivalSource, OpenLoopSource};
use mlp_model::RequestTypeId;
use mlp_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// One request arrival in a generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Arrival {
    /// Arrival instant.
    pub at: SimTime,
    /// Which request type arrived.
    pub request_type: RequestTypeId,
}

/// Generates a request stream over `[0, horizon_s)` seconds:
///
/// * arrival *times* follow a non-homogeneous Poisson process whose rate
///   is `pattern.rate_at(t, max_rate)` (Lewis–Shedler thinning against the
///   constant majorant `max_rate`);
/// * arrival *types* are drawn independently from `mix`
///   (`(type, weight)` pairs; weights need not be normalized).
///
/// Deterministic for a given `rng` seed, so the identical stream can be
/// replayed against every scheduling scheme (Section IV's methodology).
///
/// Panics on invalid parameters; [`try_generate_stream`] returns the typed
/// [`WorkloadError`] instead, and `Experiment::validate()` runs the same
/// checks up front so engine users never reach the panic.
pub fn generate_stream(
    pattern: WorkloadPattern,
    max_rate: f64,
    horizon_s: f64,
    mix: &[(RequestTypeId, f64)],
    rng: &mut SimRng,
) -> Vec<Arrival> {
    try_generate_stream(pattern, max_rate, horizon_s, mix, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Validates arrival-stream parameters, returning the total mix weight.
///
/// These used to be `assert!`s inside [`generate_stream`]; as a fallible
/// check they can gate an experiment config before any simulation runs.
pub fn validate_stream_params(
    max_rate: f64,
    mix: &[(RequestTypeId, f64)],
) -> Result<f64, WorkloadError> {
    if !(max_rate > 0.0 && max_rate.is_finite()) {
        return Err(WorkloadError::NonPositiveRate(max_rate));
    }
    if mix.is_empty() {
        return Err(WorkloadError::EmptyMix);
    }
    let total_w: f64 = mix.iter().map(|(_, w)| w).sum();
    if mix.iter().any(|&(_, w)| w < 0.0) || !(total_w > 0.0 && total_w.is_finite()) {
        return Err(WorkloadError::BadMixWeights(total_w));
    }
    Ok(total_w)
}

/// Fallible twin of [`generate_stream`]: a collect over an
/// [`OpenLoopSource`] on a steady [`RateSchedule`], which takes `rng` and
/// hands it back advanced past every draw.
pub fn try_generate_stream(
    pattern: WorkloadPattern,
    max_rate: f64,
    horizon_s: f64,
    mix: &[(RequestTypeId, f64)],
    rng: &mut SimRng,
) -> Result<Vec<Arrival>, WorkloadError> {
    // Validate before taking the caller's RNG, so an error leaves it as
    // it was.
    validate_stream_params(max_rate, mix)?;
    let schedule = RateSchedule::steady(pattern, max_rate)?;
    let taken = std::mem::replace(rng, SimRng::new(0));
    let mut source = OpenLoopSource::scheduled(schedule, horizon_s, mix.to_vec(), taken)?;
    let mut out = Vec::with_capacity((max_rate * horizon_s * 0.7) as usize);
    while let Some(a) = source.next_arrival() {
        out.push(a);
    }
    *rng = source.into_rng();
    Ok(out)
}

/// Empirical arrival rate (req/s) of a stream in `bucket_s`-second buckets,
/// for plotting generated streams against their target pattern (Fig 9).
pub fn empirical_rate(
    arrivals: &[Arrival],
    horizon_s: f64,
    bucket_s: f64,
) -> mlp_stats::TimeSeries {
    let n = (horizon_s / bucket_s).ceil() as usize;
    let mut counts = vec![0.0f64; n.max(1)];
    for a in arrivals {
        let idx = (a.at.as_secs_f64() / bucket_s) as usize;
        if idx < counts.len() {
            counts[idx] += 1.0;
        }
    }
    for c in &mut counts {
        *c /= bucket_s;
    }
    mlp_stats::TimeSeries::from_values(bucket_s, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix2() -> Vec<(RequestTypeId, f64)> {
        vec![(RequestTypeId(0), 0.75), (RequestTypeId(1), 0.25)]
    }

    #[test]
    fn stream_is_sorted_and_in_horizon() {
        let mut rng = SimRng::new(1);
        let s = generate_stream(WorkloadPattern::L2Fluctuating, 500.0, 50.0, &mix2(), &mut rng);
        assert!(!s.is_empty());
        for w in s.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(s.last().unwrap().at < SimTime::from_secs(50));
    }

    #[test]
    fn constant_pattern_rate_matches_target() {
        let mut rng = SimRng::new(2);
        let rate = 800.0;
        let s = generate_stream(WorkloadPattern::Constant, rate, 60.0, &mix2(), &mut rng);
        let achieved = s.len() as f64 / 60.0;
        assert!((achieved - rate).abs() / rate < 0.05, "achieved {achieved} req/s, wanted {rate}");
    }

    #[test]
    fn mix_proportions_respected() {
        let mut rng = SimRng::new(3);
        let s = generate_stream(WorkloadPattern::Constant, 1000.0, 60.0, &mix2(), &mut rng);
        let zero = s.iter().filter(|a| a.request_type == RequestTypeId(0)).count() as f64;
        let frac = zero / s.len() as f64;
        assert!((frac - 0.75).abs() < 0.03, "type-0 fraction {frac}");
    }

    #[test]
    fn l1_stream_peaks_at_40s() {
        let mut rng = SimRng::new(4);
        let s = generate_stream(WorkloadPattern::L1Pulse, 1000.0, 100.0, &mix2(), &mut rng);
        let rate = empirical_rate(&s, 100.0, 5.0);
        // Bucket containing 40 s should carry the most arrivals.
        let peak_bucket =
            rate.values().iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        let peak_time = peak_bucket as f64 * 5.0;
        assert!((35.0..=45.0).contains(&peak_time), "peak at {peak_time}s");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let sa = generate_stream(WorkloadPattern::L3PeriodicWide, 300.0, 20.0, &mix2(), &mut a);
        let sb = generate_stream(WorkloadPattern::L3PeriodicWide, 300.0, 20.0, &mix2(), &mut b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn empirical_rate_buckets() {
        let arrivals = vec![
            Arrival { at: SimTime::from_secs_f64(0.1), request_type: RequestTypeId(0) },
            Arrival { at: SimTime::from_secs_f64(0.2), request_type: RequestTypeId(0) },
            Arrival { at: SimTime::from_secs_f64(1.5), request_type: RequestTypeId(0) },
        ];
        let r = empirical_rate(&arrivals, 2.0, 1.0);
        assert_eq!(r.values(), &[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "mix must be non-empty")]
    fn empty_mix_rejected() {
        let mut rng = SimRng::new(0);
        generate_stream(WorkloadPattern::Constant, 10.0, 1.0, &[], &mut rng);
    }

    /// The `try_` path returns typed errors where the infallible path
    /// panics, and both agree on what is valid.
    #[test]
    fn try_generate_stream_reports_typed_errors() {
        use crate::error::WorkloadError;
        let mut rng = SimRng::new(0);
        let e = try_generate_stream(WorkloadPattern::Constant, 0.0, 1.0, &mix2(), &mut rng);
        assert_eq!(e.unwrap_err(), WorkloadError::NonPositiveRate(0.0));
        let e = try_generate_stream(WorkloadPattern::Constant, f64::NAN, 1.0, &mix2(), &mut rng);
        assert!(matches!(e.unwrap_err(), WorkloadError::NonPositiveRate(_)));
        let e = try_generate_stream(WorkloadPattern::Constant, 10.0, 1.0, &[], &mut rng);
        assert_eq!(e.unwrap_err(), WorkloadError::EmptyMix);
        let zero = vec![(RequestTypeId(0), 0.0)];
        let e = try_generate_stream(WorkloadPattern::Constant, 10.0, 1.0, &zero, &mut rng);
        assert_eq!(e.unwrap_err(), WorkloadError::BadMixWeights(0.0));
        let neg = vec![(RequestTypeId(0), 2.0), (RequestTypeId(1), -1.0)];
        let e = try_generate_stream(WorkloadPattern::Constant, 10.0, 1.0, &neg, &mut rng);
        assert!(matches!(e.unwrap_err(), WorkloadError::BadMixWeights(_)));
        let ok = try_generate_stream(WorkloadPattern::Constant, 10.0, 1.0, &mix2(), &mut rng);
        assert!(ok.is_ok());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn stream_count_scales_with_rate(seed: u64, rate in 50.0f64..500.0) {
            let mut rng = SimRng::new(seed);
            let mix = vec![(RequestTypeId(0), 1.0)];
            let s = generate_stream(WorkloadPattern::Constant, rate, 30.0, &mix, &mut rng);
            let expected = rate * 30.0;
            let got = s.len() as f64;
            // Poisson: within 5 standard deviations.
            prop_assert!((got - expected).abs() < 5.0 * expected.sqrt() + 5.0,
                "rate {rate}: got {got}, expected {expected}");
        }
    }
}
