//! The Fig 5 design-challenge scenario: two requests, one mispredicted
//! caller, one delayed message — and the contention that follows.
//!
//! The paper motivates v-MLP with a two-request example: request A
//! (microservices 1–4) and request B (microservices 5–7) fit together
//! perfectly *if* the scheduler's end-time estimate for microservice 1 and
//! the 1→3 communication delay hold. When either slips, microservice 3
//! lands on top of microservice 6 and both run degraded at `t₂`.
//! This module reproduces that timeline deterministically so the
//! `fig05_challenge` binary (and tests) can show the effect with and
//! without self-healing.

use crate::config::{ExperimentConfig, MixSpec};
use crate::experiment::Experiment;
use crate::registry::SchemeSpec;
use crate::runner::ExperimentResult;
use mlp_model::VolatilityClass;
use mlp_workload::WorkloadPattern;
use serde::{Deserialize, Serialize};

/// Outcome of the challenge scenario under one scheme.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChallengeOutcome {
    /// Scheme label.
    pub scheme: String,
    /// Fraction of spans that invoked later than planned.
    pub late_fraction: f64,
    /// Fraction of spans that ran resource-capped (the Fig 5 contention).
    pub capped_fraction: f64,
    /// p99 end-to-end latency, ms.
    pub p99_ms: f64,
    /// Healing actions taken (0 for baselines).
    pub healing_actions: u64,
}

/// Runs a small, tightly-loaded scenario dominated by high-volatility
/// requests — the regime where end-time misprediction and communication
/// noise cause exactly the misalignment of Fig 5 — and reports how much
/// contention each scheme incurs.
pub fn run_challenge(scheme: impl Into<SchemeSpec>, seed: u64) -> ChallengeOutcome {
    let scheme = scheme.into();
    // Few machines + a high-V_r mix at ~60 % of nominal capacity: tight
    // enough that every misprediction lands on a busy machine, feasible
    // enough that a precise scheduler can still align the chains.
    let cfg = ExperimentConfig {
        machines: 4,
        max_rate: 12.0,
        horizon_s: 20.0,
        mix: MixSpec::SingleClass(VolatilityClass::High),
        pattern: WorkloadPattern::Constant,
        ..ExperimentConfig::paper_default(scheme.clone())
    }
    .with_seed(seed);
    let r: ExperimentResult =
        Experiment::from_config(cfg).run().expect("challenge config is valid");
    ChallengeOutcome {
        scheme: scheme.display_name(),
        late_fraction: r.late_fraction,
        capped_fraction: r.capped_fraction,
        p99_ms: r.latency_ms[2],
        healing_actions: r.healing.0 + r.healing.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misprediction_causes_contention_for_naive_schemes() {
        let naive = run_challenge("cursched", 3);
        // The whole point of Fig 5: late invocations happen, and naive
        // schemes end up with capped (contended) executions.
        assert!(naive.late_fraction > 0.0, "expected late invocations");
        assert!(naive.capped_fraction > 0.0, "expected contention");
        assert_eq!(naive.healing_actions, 0);
    }

    #[test]
    fn vmlp_contends_less_than_cursched() {
        let naive = run_challenge("cursched", 3);
        let vmlp = run_challenge("vmlp", 3);
        assert!(
            vmlp.capped_fraction < naive.capped_fraction,
            "v-MLP capped {} vs CurSched {}",
            vmlp.capped_fraction,
            naive.capped_fraction
        );
    }
}
