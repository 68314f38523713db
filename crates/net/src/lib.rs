//! # mlp-net — communication-latency model
//!
//! Models Section II-C / Fig 4: caller→callee communication time is
//! bimodal in locality — a tight distribution when caller and callee share
//! a machine, a wider distribution with occasional congestion spikes (the
//! figure's "green blocks") across machines — and is the stochastic noise
//! source that breaks naive schedule alignment (Fig 5).

use mlp_model::CommClass;
use mlp_sim::{SimDuration, SimRng};
use mlp_stats::{Dist, Summary};
use serde::{Deserialize, Serialize};

/// Parameters of the communication model. All times in milliseconds.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Mean intra-machine hop latency (loopback / IPC path).
    pub local_mean_ms: f64,
    /// Coefficient of variation of the intra-machine body.
    pub local_cv: f64,
    /// Mean cross-machine hop latency (switch + NIC path).
    pub remote_mean_ms: f64,
    /// Coefficient of variation of the cross-machine body.
    pub remote_cv: f64,
    /// Congestion-spike probability on cross-machine hops.
    pub spike_prob: f64,
    /// Scale (minimum) of a congestion spike, ms.
    pub spike_xm_ms: f64,
    /// Pareto shape of the spike tail (larger = lighter tail).
    pub spike_alpha: f64,
}

impl Default for NetworkConfig {
    /// Calibrated to Fig 4's structure: intra-machine times cluster
    /// tightly well under a millisecond; cross-machine times have ~4× the
    /// mean, visibly wider spread, and a low-probability congestion tail.
    fn default() -> Self {
        NetworkConfig {
            local_mean_ms: 0.15,
            local_cv: 0.25,
            remote_mean_ms: 0.60,
            remote_cv: 0.40,
            spike_prob: 0.04,
            spike_xm_ms: 2.5,
            spike_alpha: 2.2,
        }
    }
}

/// The communication model used by the evaluation engine.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    cfg: NetworkConfig,
    local: Dist,
    remote: Dist,
}

impl NetworkModel {
    /// Builds a model from explicit parameters.
    pub fn new(cfg: NetworkConfig) -> Self {
        let local = Dist::Spiked {
            body_mean: cfg.local_mean_ms,
            body_cv: cfg.local_cv,
            tail_xm: cfg.spike_xm_ms * 0.5,
            tail_alpha: cfg.spike_alpha,
            // Same-machine congestion is rare (Fig 4(a) is almost all in
            // the low blocks): an order of magnitude rarer than remote.
            p_tail: cfg.spike_prob * 0.1,
        };
        let remote = Dist::Spiked {
            body_mean: cfg.remote_mean_ms,
            body_cv: cfg.remote_cv,
            tail_xm: cfg.spike_xm_ms,
            tail_alpha: cfg.spike_alpha,
            p_tail: cfg.spike_prob,
        };
        NetworkModel { cfg, local, remote }
    }

    /// The model's parameters.
    pub fn config(&self) -> NetworkConfig {
        self.cfg
    }

    /// Default paper-calibrated model.
    pub fn paper_default() -> Self {
        NetworkModel::new(NetworkConfig::default())
    }

    /// Comm-class multiplier: heavier classes ride longer links / chattier
    /// protocols (Table II: levels map to growing Var(RTT)).
    fn class_factor(class: CommClass) -> f64 {
        match class {
            CommClass::Light => 0.7,
            CommClass::Medium => 1.0,
            CommClass::Heavy => 1.5,
        }
    }

    /// Samples one caller→callee hop delay.
    ///
    /// * `same_machine` — whether caller and callee are co-located.
    /// * `class` — the *callee's* communication class.
    pub fn sample_delay(
        &self,
        same_machine: bool,
        class: CommClass,
        rng: &mut SimRng,
    ) -> SimDuration {
        let base = if same_machine { &self.local } else { &self.remote };
        let ms = base.sample(rng.rng()) * Self::class_factor(class);
        SimDuration::from_millis_f64(ms)
    }

    /// Expected (mean) hop delay — what a scheduler plans with. The actual
    /// sample deviates; that gap is exactly the "late invocation" the
    /// self-healing module absorbs.
    pub fn expected_delay(&self, same_machine: bool, class: CommClass) -> SimDuration {
        let base = if same_machine { &self.local } else { &self.remote };
        SimDuration::from_millis_f64(base.mean() * Self::class_factor(class))
    }

    /// Empirically estimates RTT variance (in (100 µs)² units, matching
    /// Table II's 100–400 scale) over `n` samples, for deriving a service's
    /// `C` level from observation.
    pub fn estimate_rtt_var(
        &self,
        same_machine: bool,
        class: CommClass,
        n: usize,
        rng: &mut SimRng,
    ) -> f64 {
        let mut s = Summary::new();
        for _ in 0..n {
            // RTT = there + back.
            let rtt = self.sample_delay(same_machine, class, rng).as_millis_f64()
                + self.sample_delay(same_machine, class, rng).as_millis_f64();
            s.record(rtt * 10.0); // ms → 100µs units
        }
        s.variance()
    }
}

/// Draws the Fig 4 histogram data: `n` communication times (ms) for a
/// callee of `class`, at the given locality.
pub fn fig4_samples(
    model: &NetworkModel,
    same_machine: bool,
    class: CommClass,
    n: usize,
    rng: &mut SimRng,
) -> Vec<f64> {
    (0..n).map(|_| model.sample_delay(same_machine, class, rng).as_millis_f64()).collect()
}

/// A zero-overhead network (for ablations and unit tests of other crates).
pub fn zero_network() -> NetworkModel {
    NetworkModel::new(NetworkConfig {
        local_mean_ms: 0.0,
        local_cv: 0.0,
        remote_mean_ms: 0.0,
        remote_cv: 0.0,
        spike_prob: 0.0,
        spike_xm_ms: 0.0,
        spike_alpha: 2.0,
        // xm = 0 would make Pareto degenerate, but p_tail = 0 means the
        // tail branch is never taken.
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xF164)
    }

    #[test]
    fn local_faster_than_remote_on_average() {
        let m = NetworkModel::paper_default();
        let mut r = rng();
        let mut local = Summary::new();
        let mut remote = Summary::new();
        for _ in 0..20_000 {
            local.record(m.sample_delay(true, CommClass::Medium, &mut r).as_millis_f64());
            remote.record(m.sample_delay(false, CommClass::Medium, &mut r).as_millis_f64());
        }
        assert!(
            local.mean() * 2.0 < remote.mean(),
            "local {} vs remote {}",
            local.mean(),
            remote.mean()
        );
        // Fig 4: cross-machine variation is wider.
        assert!(local.variance() < remote.variance());
    }

    #[test]
    fn heavier_class_is_slower() {
        let m = NetworkModel::paper_default();
        let light = m.expected_delay(false, CommClass::Light);
        let medium = m.expected_delay(false, CommClass::Medium);
        let heavy = m.expected_delay(false, CommClass::Heavy);
        assert!(light < medium && medium < heavy);
    }

    #[test]
    fn congestion_spikes_appear_cross_machine() {
        let m = NetworkModel::paper_default();
        let mut r = rng();
        let samples = fig4_samples(&m, false, CommClass::Medium, 5_000, &mut r);
        let body_mean = m.config().remote_mean_ms;
        let spikes = samples.iter().filter(|&&s| s > body_mean * 3.0).count();
        // ~4% spike probability: expect on the order of 200 of 5000.
        assert!(spikes > 50, "only {spikes} spikes seen");
        assert!(spikes < 500, "{spikes} spikes is too many");
    }

    #[test]
    fn expected_delay_close_to_sample_mean() {
        let m = NetworkModel::paper_default();
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..50_000 {
            s.record(m.sample_delay(false, CommClass::Heavy, &mut r).as_millis_f64());
        }
        let exp = m.expected_delay(false, CommClass::Heavy).as_millis_f64();
        assert!((s.mean() - exp).abs() / exp < 0.1, "sample {} vs expected {}", s.mean(), exp);
    }

    #[test]
    fn rtt_variance_grows_with_class_and_distance() {
        let m = NetworkModel::paper_default();
        let mut r = rng();
        let local = m.estimate_rtt_var(true, CommClass::Light, 3_000, &mut r);
        let remote = m.estimate_rtt_var(false, CommClass::Heavy, 3_000, &mut r);
        assert!(remote > local * 4.0, "remote var {remote} vs local {local}");
    }

    #[test]
    fn zero_network_is_silent() {
        let m = zero_network();
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(m.sample_delay(false, CommClass::Heavy, &mut r), SimDuration::ZERO);
        }
        assert_eq!(m.expected_delay(true, CommClass::Light), SimDuration::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = NetworkModel::paper_default();
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(
                m.sample_delay(false, CommClass::Medium, &mut a),
                m.sample_delay(false, CommClass::Medium, &mut b)
            );
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn delays_are_non_negative(seed: u64, same in proptest::bool::ANY) {
            let m = NetworkModel::paper_default();
            let mut r = SimRng::new(seed);
            for class in [CommClass::Light, CommClass::Medium, CommClass::Heavy] {
                let d = m.sample_delay(same, class, &mut r);
                prop_assert!(d.as_micros() < 10_000_000, "absurd delay {d}");
            }
        }
    }
}
