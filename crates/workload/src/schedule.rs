//! Piecewise rate schedules: offered load that surges past capacity.
//!
//! A [`WorkloadPattern`] shapes load *within* its peak rate; it cannot
//! express "at t = 30 s a flash crowd triples the offered load for twenty
//! seconds". A [`RateSchedule`] multiplies a base pattern by piecewise
//! trapezoid segments — flash crowds, diurnal crests — so open-loop
//! traffic can be driven deliberately past cluster capacity on a schedule,
//! which is exactly what the overload-resilience experiments need.
//!
//! The schedule is a pure function of time (no RNG), so every scheduling
//! scheme faces the identical offered-load curve, and its
//! [`peak_rate`](RateSchedule::peak_rate) is a true majorant for
//! Lewis–Shedler thinning.

use crate::error::WorkloadError;
use crate::patterns::WorkloadPattern;
use serde::{Deserialize, Serialize};

/// One multiplicative load segment: ramps from 1× up to `multiplier` over
/// `ramp_s` seconds after `start_s`, holds, and ramps back down to 1× by
/// `end_s` (a trapezoid; `ramp_s = 0` makes it a step).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateSegment {
    /// When the surge begins, seconds into the run.
    pub start_s: f64,
    /// When the surge is fully over, seconds into the run.
    pub end_s: f64,
    /// Peak load multiplier relative to the base pattern (3.0 = a 3× flash
    /// crowd; values below 1.0 model troughs).
    pub multiplier: f64,
    /// Linear ramp duration on each edge of the segment.
    pub ramp_s: f64,
}

impl RateSegment {
    /// The segment's multiplicative contribution at time `t` (1.0 outside
    /// the segment).
    fn factor_at(&self, t: f64) -> f64 {
        if t <= self.start_s || t >= self.end_s {
            return 1.0;
        }
        let edge = if self.ramp_s > 0.0 {
            let up = (t - self.start_s) / self.ramp_s;
            let down = (self.end_s - t) / self.ramp_s;
            up.min(down).min(1.0)
        } else {
            1.0
        };
        1.0 + (self.multiplier - 1.0) * edge
    }
}

/// A smooth day/night swing: the multiplier oscillates sinusoidally in
/// `[1 − amplitude, 1 + amplitude]` with the given period, starting at 1×
/// and rising (the "morning ramp" comes first). A pure function of time
/// like every other schedule component, so identical across schemes and
/// seed-deterministic by construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sinusoid {
    /// Full cycle length, seconds.
    pub period_s: f64,
    /// Swing around 1× (0.4 → multiplier in `[0.6, 1.4]`). Must satisfy
    /// `0 < amplitude < 1` so the offered rate stays positive.
    pub amplitude: f64,
}

impl Sinusoid {
    fn factor_at(&self, t: f64) -> f64 {
        1.0 + self.amplitude * (2.0 * std::f64::consts::PI * t / self.period_s).sin()
    }
}

/// A base [`WorkloadPattern`] at `base_rate` req/s, modulated by zero or
/// more [`RateSegment`]s and at most one [`Sinusoid`]. Overlapping
/// components compound multiplicatively.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSchedule {
    pattern: WorkloadPattern,
    base_rate: f64,
    segments: Vec<RateSegment>,
    /// Smooth diurnal modulation, applied on top of the segments.
    sinusoid: Option<Sinusoid>,
}

impl RateSchedule {
    /// Validates and builds a schedule.
    pub fn try_new(
        pattern: WorkloadPattern,
        base_rate: f64,
        segments: Vec<RateSegment>,
    ) -> Result<Self, WorkloadError> {
        if !(base_rate > 0.0 && base_rate.is_finite()) {
            return Err(WorkloadError::NonPositiveRate(base_rate));
        }
        for (i, s) in segments.iter().enumerate() {
            let bad =
                |why: String| Err(WorkloadError::InvalidSchedule(format!("segment {i}: {why}")));
            if !(s.start_s >= 0.0 && s.start_s.is_finite()) {
                return bad(format!("start_s must be non-negative, got {}", s.start_s));
            }
            if !(s.end_s > s.start_s && s.end_s.is_finite()) {
                return bad(format!("end_s {} must exceed start_s {}", s.end_s, s.start_s));
            }
            if !(s.multiplier > 0.0 && s.multiplier.is_finite()) {
                return bad(format!("multiplier must be positive, got {}", s.multiplier));
            }
            if !(s.ramp_s >= 0.0 && s.ramp_s.is_finite()) {
                return bad(format!("ramp_s must be non-negative, got {}", s.ramp_s));
            }
        }
        Ok(RateSchedule { pattern, base_rate, segments, sinusoid: None })
    }

    /// A schedule with no segments: identical offered load to the bare
    /// pattern (useful as the 1× control point of a surge sweep).
    pub fn steady(pattern: WorkloadPattern, base_rate: f64) -> Result<Self, WorkloadError> {
        Self::try_new(pattern, base_rate, Vec::new())
    }

    /// A single flash-crowd surge: `multiplier`× the base load from
    /// `start_s` for `duration_s` seconds, with `ramp_s` linear edges.
    pub fn flash_crowd(
        pattern: WorkloadPattern,
        base_rate: f64,
        start_s: f64,
        duration_s: f64,
        multiplier: f64,
        ramp_s: f64,
    ) -> Result<Self, WorkloadError> {
        if !(duration_s > 0.0 && duration_s.is_finite()) {
            return Err(WorkloadError::InvalidSchedule(format!(
                "flash crowd duration must be positive, got {duration_s}"
            )));
        }
        let seg = RateSegment { start_s, end_s: start_s + duration_s, multiplier, ramp_s };
        Self::try_new(pattern, base_rate, vec![seg])
    }

    /// A diurnal cycle over `horizon_s`: each `period_s` window carries one
    /// wide crest at `peak_multiplier` (trapezoid over the middle half of
    /// the period) — the piecewise stand-in for day/night traffic swings.
    pub fn diurnal(
        pattern: WorkloadPattern,
        base_rate: f64,
        period_s: f64,
        peak_multiplier: f64,
        horizon_s: f64,
    ) -> Result<Self, WorkloadError> {
        if !(period_s > 0.0 && period_s.is_finite() && horizon_s > 0.0 && horizon_s.is_finite()) {
            return Err(WorkloadError::InvalidSchedule(format!(
                "diurnal period and horizon must be positive, got {period_s} / {horizon_s}"
            )));
        }
        let mut segments = Vec::new();
        let mut start = 0.25 * period_s;
        while start < horizon_s {
            segments.push(RateSegment {
                start_s: start,
                end_s: start + 0.5 * period_s,
                multiplier: peak_multiplier,
                ramp_s: 0.2 * period_s,
            });
            start += period_s;
        }
        Self::try_new(pattern, base_rate, segments)
    }

    /// A smooth sinusoidal diurnal cycle: the multiplier swings in
    /// `[1 − amplitude, 1 + amplitude]` over each `period_s` window,
    /// starting at 1× and rising. Unlike [`RateSchedule::diurnal`]'s
    /// piecewise trapezoid crests this has no corners, which is what the
    /// live load generator and the elastic-provisioning experiments want:
    /// a fleet-sizing policy should track a derivative, not a step.
    pub fn diurnal_sine(
        pattern: WorkloadPattern,
        base_rate: f64,
        period_s: f64,
        amplitude: f64,
    ) -> Result<Self, WorkloadError> {
        if !(period_s > 0.0 && period_s.is_finite()) {
            return Err(WorkloadError::InvalidSchedule(format!(
                "sinusoid period must be positive, got {period_s}"
            )));
        }
        if !(amplitude > 0.0 && amplitude < 1.0) {
            return Err(WorkloadError::InvalidSchedule(format!(
                "sinusoid amplitude must be in (0, 1), got {amplitude}"
            )));
        }
        let mut s = Self::steady(pattern, base_rate)?;
        s.sinusoid = Some(Sinusoid { period_s, amplitude });
        Ok(s)
    }

    /// Adds a sinusoidal component to an existing schedule (e.g. a flash
    /// crowd on top of a diurnal swing). Replaces any previous sinusoid.
    pub fn with_sinusoid(mut self, period_s: f64, amplitude: f64) -> Result<Self, WorkloadError> {
        let probe = Self::diurnal_sine(self.pattern, self.base_rate, period_s, amplitude)?;
        self.sinusoid = probe.sinusoid;
        Ok(self)
    }

    /// The sinusoidal component, if one is set.
    pub fn sinusoid(&self) -> Option<Sinusoid> {
        self.sinusoid
    }

    /// The base pattern.
    pub fn pattern(&self) -> WorkloadPattern {
        self.pattern
    }

    /// The base (1×) peak rate.
    pub fn base_rate(&self) -> f64 {
        self.base_rate
    }

    /// The segments in force.
    pub fn segments(&self) -> &[RateSegment] {
        &self.segments
    }

    /// This schedule's load split evenly over `shares` independent senders
    /// (the base rate divided by `shares`; segments and sinusoid unchanged).
    pub fn split(&self, shares: usize) -> Self {
        RateSchedule { base_rate: self.base_rate / shares.max(1) as f64, ..self.clone() }
    }

    /// Combined segment (and sinusoid) multiplier at time `t`.
    pub fn multiplier_at(&self, t: f64) -> f64 {
        let seg: f64 = self.segments.iter().map(|s| s.factor_at(t)).product();
        seg * self.sinusoid.map_or(1.0, |s| s.factor_at(t))
    }

    /// Instantaneous offered rate at `t` seconds (req/s).
    pub fn rate_at(&self, t: f64) -> f64 {
        self.pattern.rate_at(t, self.base_rate) * self.multiplier_at(t)
    }

    /// Majorant for thinning: `rate_at(t) ≤ peak_rate()` for every `t`.
    /// Each segment contributes at most `max(1, multiplier)`, and the base
    /// pattern never exceeds `base_rate`, so the product bound is exact
    /// for non-overlapping segments and conservative for overlaps.
    pub fn peak_rate(&self) -> f64 {
        let m: f64 = self.segments.iter().map(|s| s.multiplier.max(1.0)).product();
        self.base_rate * m * self.sinusoid.map_or(1.0, |s| 1.0 + s.amplitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flash3x() -> RateSchedule {
        RateSchedule::flash_crowd(WorkloadPattern::Constant, 100.0, 30.0, 20.0, 3.0, 4.0).unwrap()
    }

    #[test]
    fn steady_matches_bare_pattern() {
        let s = RateSchedule::steady(WorkloadPattern::L2Fluctuating, 250.0).unwrap();
        for t in [0.0, 7.3, 41.0, 99.9] {
            assert_eq!(s.rate_at(t), WorkloadPattern::L2Fluctuating.rate_at(t, 250.0));
        }
        assert_eq!(s.peak_rate(), 250.0);
    }

    #[test]
    fn flash_crowd_surges_and_recovers() {
        let s = flash3x();
        assert_eq!(s.rate_at(10.0), 100.0, "before the surge");
        assert_eq!(s.rate_at(40.0), 300.0, "at the plateau");
        assert_eq!(s.rate_at(90.0), 100.0, "after the surge");
        // Linear ramp: halfway up the edge is halfway to 3×.
        assert!((s.rate_at(32.0) - 200.0).abs() < 1e-9);
        assert_eq!(s.peak_rate(), 300.0);
    }

    #[test]
    fn rate_never_exceeds_majorant() {
        let s = RateSchedule::try_new(
            WorkloadPattern::L1Pulse,
            400.0,
            vec![
                RateSegment { start_s: 20.0, end_s: 50.0, multiplier: 2.5, ramp_s: 5.0 },
                RateSegment { start_s: 45.0, end_s: 70.0, multiplier: 1.5, ramp_s: 0.0 },
                RateSegment { start_s: 80.0, end_s: 90.0, multiplier: 0.4, ramp_s: 2.0 },
            ],
        )
        .unwrap();
        let peak = s.peak_rate();
        let mut t = 0.0;
        while t < 100.0 {
            assert!(s.rate_at(t) <= peak + 1e-9, "rate at {t} exceeds majorant");
            t += 0.05;
        }
    }

    #[test]
    fn split_divides_the_load_evenly() {
        let s = flash3x().with_sinusoid(50.0, 0.25).unwrap();
        let quarter = s.split(4);
        for t in [0.0, 31.0, 40.0, 77.0] {
            assert!((4.0 * quarter.rate_at(t) - s.rate_at(t)).abs() < 1e-9, "at {t}");
        }
        assert_eq!(quarter.peak_rate(), s.peak_rate() / 4.0);
    }

    #[test]
    fn trough_segments_reduce_load() {
        let s = RateSchedule::try_new(
            WorkloadPattern::Constant,
            100.0,
            vec![RateSegment { start_s: 10.0, end_s: 20.0, multiplier: 0.2, ramp_s: 0.0 }],
        )
        .unwrap();
        assert!((s.rate_at(15.0) - 20.0).abs() < 1e-9);
        assert_eq!(s.peak_rate(), 100.0, "troughs do not raise the majorant");
    }

    #[test]
    fn diurnal_crests_repeat() {
        let s = RateSchedule::diurnal(WorkloadPattern::Constant, 100.0, 40.0, 2.0, 120.0).unwrap();
        assert_eq!(s.segments().len(), 3);
        // Crest centers sit mid-period, troughs at period boundaries.
        for k in 0..3 {
            let center = 40.0 * k as f64 + 20.0;
            assert!(s.rate_at(center) > 190.0, "no crest at {center}");
            assert!(s.rate_at(40.0 * k as f64) < 110.0, "no trough at period edge");
        }
    }

    #[test]
    fn diurnal_sine_swings_smoothly_and_majorant_holds() {
        let s = RateSchedule::diurnal_sine(WorkloadPattern::Constant, 100.0, 40.0, 0.5).unwrap();
        // Starts at 1× and rises: quarter period is the crest, three
        // quarters the trough.
        assert!((s.rate_at(0.0) - 100.0).abs() < 1e-9);
        assert!((s.rate_at(10.0) - 150.0).abs() < 1e-9, "crest at T/4");
        assert!((s.rate_at(30.0) - 50.0).abs() < 1e-9, "trough at 3T/4");
        assert!((s.rate_at(40.0) - 100.0).abs() < 1e-6, "periodic");
        assert_eq!(s.peak_rate(), 150.0);
        let mut t = 0.0;
        while t < 120.0 {
            assert!(s.rate_at(t) <= s.peak_rate() + 1e-9, "majorant violated at {t}");
            assert!(s.rate_at(t) > 0.0, "rate must stay positive at {t}");
            t += 0.05;
        }
    }

    #[test]
    fn sinusoid_composes_with_segments() {
        let s = flash3x().with_sinusoid(50.0, 0.25).unwrap();
        // At t=40 the flash plateau (3×) is in force; sine at 2π·0.8.
        let expect = 300.0 * (1.0 + 0.25 * (2.0 * std::f64::consts::PI * 0.8).sin());
        assert!((s.rate_at(40.0) - expect).abs() < 1e-9);
        assert_eq!(s.peak_rate(), 300.0 * 1.25);
    }

    #[test]
    fn diurnal_sine_rejects_bad_parameters() {
        for (period, amp) in [(0.0, 0.5), (-1.0, 0.5), (f64::NAN, 0.5), (40.0, 0.0), (40.0, 1.0)] {
            assert!(
                matches!(
                    RateSchedule::diurnal_sine(WorkloadPattern::Constant, 100.0, period, amp),
                    Err(WorkloadError::InvalidSchedule(_))
                ),
                "period={period} amp={amp} should be rejected"
            );
        }
        assert!(matches!(
            RateSchedule::diurnal_sine(WorkloadPattern::Constant, 0.0, 40.0, 0.5),
            Err(WorkloadError::NonPositiveRate(_))
        ));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let seg = |start_s, end_s, multiplier, ramp_s| {
            RateSchedule::try_new(
                WorkloadPattern::Constant,
                100.0,
                vec![RateSegment { start_s, end_s, multiplier, ramp_s }],
            )
        };
        assert!(matches!(
            RateSchedule::steady(WorkloadPattern::Constant, 0.0),
            Err(WorkloadError::NonPositiveRate(_))
        ));
        assert!(matches!(
            RateSchedule::steady(WorkloadPattern::Constant, f64::NAN),
            Err(WorkloadError::NonPositiveRate(_))
        ));
        assert!(matches!(seg(-1.0, 5.0, 2.0, 0.0), Err(WorkloadError::InvalidSchedule(_))));
        assert!(matches!(seg(5.0, 5.0, 2.0, 0.0), Err(WorkloadError::InvalidSchedule(_))));
        assert!(matches!(seg(0.0, 5.0, 0.0, 0.0), Err(WorkloadError::InvalidSchedule(_))));
        assert!(matches!(seg(0.0, 5.0, 2.0, -1.0), Err(WorkloadError::InvalidSchedule(_))));
        assert!(matches!(
            RateSchedule::flash_crowd(WorkloadPattern::Constant, 100.0, 0.0, 0.0, 2.0, 0.0),
            Err(WorkloadError::InvalidSchedule(_))
        ));
        assert!(seg(0.0, 5.0, 2.0, 0.0).is_ok());
    }
}
