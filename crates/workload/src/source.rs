//! Pull-based arrival sources: the streaming half of the workload layer.
//!
//! [`generate_stream`](crate::generate_stream) materializes a finite trace
//! up front — fine for figure runs, impossible for the open-loop traffic a
//! production-scale cluster faces (millions of requests would mean
//! gigabytes of pre-generated arrivals). An [`ArrivalSource`] inverts the
//! flow: the engine *pulls* the next arrival when it is ready to schedule
//! it, so memory stays O(1) in the stream length and the stream can be
//! unbounded (capped by a horizon and/or a request count instead).
//!
//! Every source is deterministic in its seed: pulling the same source twice
//! yields bit-identical streams, and [`SliceSource`] replays a
//! pre-generated trace exactly, so the fixed-seed figure pipeline keeps its
//! byte-identical outputs.

use crate::arrivals::{validate_stream_params, Arrival};
use crate::error::WorkloadError;
use crate::schedule::RateSchedule;
use mlp_model::RequestTypeId;
use mlp_sim::{SimRng, SimTime};
use rand::Rng;

/// A pull-based, deterministic stream of request arrivals.
///
/// Arrivals come back in non-decreasing time order. `None` means the
/// stream is exhausted (horizon reached, count cap hit, or slice drained)
/// and will keep returning `None`.
pub trait ArrivalSource {
    /// The next arrival, or `None` when the stream is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;

    /// Total number of arrivals this source will produce, when known up
    /// front (lets consumers pre-size buffers). `None` for open-loop
    /// sources whose count is only known once the stream ends.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Replays a pre-generated trace slice, bit-identically.
///
/// This is the bridge between the dense figure pipeline and the streaming
/// engine: `generate_stream` → `SliceSource` feeds the exact same arrivals
/// in the exact same order as the old slice-based engine path.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    arrivals: &'a [Arrival],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Wraps a trace slice (assumed sorted by arrival time, as
    /// `generate_stream` produces).
    pub fn new(arrivals: &'a [Arrival]) -> Self {
        SliceSource { arrivals, pos: 0 }
    }

    /// How many arrivals remain unpulled.
    pub fn remaining(&self) -> usize {
        self.arrivals.len() - self.pos
    }
}

impl ArrivalSource for SliceSource<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.arrivals.get(self.pos).copied();
        if a.is_some() {
            self.pos += 1;
        }
        a
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.arrivals.len())
    }
}

/// Lazily generates a non-homogeneous Poisson arrival stream following a
/// [`RateSchedule`]: a memory footprint of **zero** arrivals — each one is
/// drawn when pulled.
///
/// This is the one Lewis–Shedler sampler in the workspace: candidate gaps
/// are exponential at the schedule's [`peak_rate`](RateSchedule::peak_rate)
/// majorant, each candidate is kept with probability `rate(t)/peak`, and a
/// kept candidate draws its type from the request mix.
/// [`generate_stream`](crate::generate_stream) is a collect over a steady
/// schedule, so the dense and lazy paths draw the identical RNG sequence
/// by construction.
///
/// Stops at the time horizon, and additionally at a request-count cap when
/// one is set (open-loop soak runs size themselves by count, not time).
#[derive(Debug)]
pub struct OpenLoopSource {
    schedule: RateSchedule,
    /// Majorant rate for thinning: the schedule's peak rate.
    max_rate: f64,
    horizon_s: f64,
    mix: Vec<(RequestTypeId, f64)>,
    total_w: f64,
    /// Arrivals left before the count cap; 0 once the stream is exhausted.
    remaining: u64,
    /// Candidate-process clock, seconds.
    t: f64,
    rng: SimRng,
}

impl OpenLoopSource {
    /// A source driven by a [`RateSchedule`]: the base pattern's load times
    /// the schedule's segment multipliers, thinned against the schedule's
    /// [`peak_rate`](RateSchedule::peak_rate). Returns the typed
    /// [`WorkloadError`] on a bad rate or mix.
    pub fn scheduled(
        schedule: RateSchedule,
        horizon_s: f64,
        mix: Vec<(RequestTypeId, f64)>,
        rng: SimRng,
    ) -> Result<Self, WorkloadError> {
        let max_rate = schedule.peak_rate();
        let total_w = validate_stream_params(max_rate, &mix)?;
        Ok(OpenLoopSource {
            schedule,
            max_rate,
            horizon_s,
            mix,
            total_w,
            remaining: u64::MAX,
            t: 0.0,
            rng,
        })
    }

    /// Caps the stream at `n` arrivals (in addition to the horizon).
    pub fn with_max_requests(mut self, n: u64) -> Self {
        self.remaining = n;
        self
    }

    /// Gives back the RNG, advanced past every draw made so far.
    pub fn into_rng(self) -> SimRng {
        self.rng
    }
}

impl ArrivalSource for OpenLoopSource {
    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            // Candidate gap, acceptance, and (only when accepted) the mix
            // draw.
            let u: f64 = self.rng.rng().gen_range(f64::MIN_POSITIVE..1.0);
            self.t += -u.ln() / self.max_rate;
            if self.t >= self.horizon_s {
                self.remaining = 0;
                return None;
            }
            let accept: f64 = self.rng.rng().gen_range(0.0..1.0);
            if thin_accept(accept, self.max_rate, self.schedule.rate_at(self.t)) {
                let request_type = sample_mix(&self.mix, self.total_w, &mut self.rng);
                self.remaining -= 1;
                return Some(Arrival { at: SimTime::from_secs_f64(self.t), request_type });
            }
        }
    }
}

/// Lewis–Shedler thinning decision: keep the candidate iff
/// `accept < rate/max_rate`. Strictly less-than: `accept` can draw exactly
/// 0.0 (the `gen_range(0.0..1.0)` interval is half-open at 1, closed at 0),
/// and a window where `rate == 0` must emit no arrivals at all — `<=` would
/// let the zero draw through.
fn thin_accept(accept: f64, max_rate: f64, rate: f64) -> bool {
    accept * max_rate < rate
}

/// Weighted draw from the request mix.
fn sample_mix(mix: &[(RequestTypeId, f64)], total_w: f64, rng: &mut SimRng) -> RequestTypeId {
    let mut x: f64 = rng.rng().gen_range(0.0..total_w);
    for &(id, w) in mix {
        if x < w {
            return id;
        }
        x -= w;
    }
    mix.last().unwrap().0
}

/// Drains a source into a vector (testing / small-trace convenience).
pub fn collect_source(source: &mut dyn ArrivalSource) -> Vec<Arrival> {
    let mut out = Vec::with_capacity(source.size_hint().unwrap_or(0));
    while let Some(a) = source.next_arrival() {
        out.push(a);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_stream, WorkloadPattern};

    fn mix2() -> Vec<(RequestTypeId, f64)> {
        vec![(RequestTypeId(0), 0.6), (RequestTypeId(1), 0.4)]
    }

    #[test]
    fn slice_source_replays_exactly() {
        let mut rng = SimRng::new(5);
        let trace = generate_stream(WorkloadPattern::L1Pulse, 200.0, 20.0, &mix2(), &mut rng);
        let mut src = SliceSource::new(&trace);
        assert_eq!(src.size_hint(), Some(trace.len()));
        let replay = collect_source(&mut src);
        assert_eq!(replay, trace);
        assert_eq!(src.next_arrival(), None, "stays exhausted");
    }

    #[test]
    fn open_loop_is_reproducible_and_capped() {
        // An effectively unbounded horizon: only the count cap ends it.
        let source = || {
            OpenLoopSource::scheduled(
                RateSchedule::steady(WorkloadPattern::Constant, 500.0).unwrap(),
                1e9,
                mix2(),
                SimRng::new(7),
            )
            .unwrap()
            .with_max_requests(1000)
        };
        let (mut a, mut b) = (source(), source());
        let sa = collect_source(&mut a);
        let sb = collect_source(&mut b);
        assert_eq!(sa, sb);
        assert_eq!(sa.len(), 1000, "count cap must bound the stream");
        assert_eq!(a.next_arrival(), None, "stays exhausted");
        assert!(sa.windows(2).all(|w| w[0].at <= w[1].at), "stream must be time-ordered");
    }

    #[test]
    fn flash_crowd_schedule_surges_the_stream() {
        let sched =
            RateSchedule::flash_crowd(WorkloadPattern::Constant, 200.0, 30.0, 20.0, 3.0, 2.0)
                .unwrap();
        let mut src = OpenLoopSource::scheduled(sched, 80.0, mix2(), SimRng::new(23)).unwrap();
        let arrivals = collect_source(&mut src);
        let rate = crate::empirical_rate(&arrivals, 80.0, 5.0);
        let v = rate.values();
        // Buckets inside the surge (35–45 s) run ~3× the pre-surge ones.
        let pre = (v[0] + v[1] + v[2]) / 3.0;
        let surge = (v[7] + v[8]) / 2.0;
        let post = (v[12] + v[13] + v[14]) / 3.0;
        assert!(surge > 2.2 * pre, "surge {surge} vs pre {pre}");
        assert!(post < 1.4 * pre, "load must recover, post {post} vs pre {pre}");
    }

    /// Regression: a zero-rate window emits nothing even when the
    /// acceptance draw comes out exactly 0.0 (the old `<=` comparison
    /// accepted that candidate, injecting arrivals where the offered load
    /// is zero).
    #[test]
    fn zero_rate_window_emits_nothing() {
        assert!(!thin_accept(0.0, 1000.0, 0.0), "accept == 0.0 must not pass a zero rate");
        // Unchanged everywhere the rate is positive...
        assert!(thin_accept(0.0, 1000.0, 350.0));
        assert!(thin_accept(0.3499, 1000.0, 350.0));
        // ...and at the acceptance boundary the candidate is dropped, per
        // thinning's `u < λ(t)/λ_max` (P[u = boundary] = 0 in theory; ties
        // must reject so a zero rate stays silent).
        assert!(!thin_accept(0.35, 1000.0, 350.0));
        assert!(!thin_accept(0.999, 1000.0, 350.0));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::WorkloadPattern;
    use proptest::prelude::*;

    proptest! {
        /// A capped source emits exactly min(cap, uncapped-count) arrivals,
        /// and the capped stream is a prefix of the uncapped one.
        #[test]
        fn cap_is_a_prefix(seed: u64, cap in 1u64..200) {
            let mix = vec![(RequestTypeId(0), 1.0)];
            let sched = RateSchedule::steady(WorkloadPattern::Constant, 100.0).unwrap();
            let mut full =
                OpenLoopSource::scheduled(sched.clone(), 3.0, mix.clone(), SimRng::new(seed))
                    .unwrap();
            let all = collect_source(&mut full);
            let mut capped = OpenLoopSource::scheduled(sched, 3.0, mix, SimRng::new(seed))
                .unwrap()
                .with_max_requests(cap);
            let some = collect_source(&mut capped);
            let expect = all.len().min(cap as usize);
            prop_assert_eq!(some.len(), expect);
            prop_assert_eq!(&some[..], &all[..expect]);
        }
    }
}
