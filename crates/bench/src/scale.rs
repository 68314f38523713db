//! Experiment scales: paper-faithful, laptop, and smoke-test sizes.

use mlp_engine::config::ExperimentConfig;
use mlp_engine::registry::SchemeSpec;

/// How big to run the evaluation. The scheduler dynamics are driven by
/// per-machine load, so scaling machines and peak rate together preserves
/// the regime while cutting wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Cluster size.
    pub machines: usize,
    /// Peak arrival rate, req/s.
    pub max_rate: f64,
    /// Horizon, seconds.
    pub horizon_s: f64,
    /// Independent seeds averaged per data point.
    pub seeds: u64,
    /// Human label for report headers.
    pub label: &'static str,
}

impl Scale {
    /// The paper's Section V parameters: 100 machines, 1000 req/s peak,
    /// 100 s scheduling period.
    pub fn paper() -> Scale {
        Scale { machines: 100, max_rate: 1000.0, horizon_s: 100.0, seeds: 1, label: "paper" }
    }

    /// Laptop scale (default for binaries): the paper's per-machine
    /// regime at roughly an eighth of the size.
    pub fn small() -> Scale {
        Scale { machines: 12, max_rate: 84.0, horizon_s: 60.0, seeds: 2, label: "small" }
    }

    /// Smoke-test scale for CI/integration tests.
    pub fn tiny() -> Scale {
        Scale { machines: 8, max_rate: 40.0, horizon_s: 8.0, seeds: 1, label: "tiny" }
    }

    /// Builds the base experiment config for a scheme at this scale.
    pub fn config(&self, scheme: impl Into<SchemeSpec>) -> ExperimentConfig {
        ExperimentConfig {
            machines: self.machines,
            max_rate: self.max_rate,
            horizon_s: self.horizon_s,
            ..ExperimentConfig::paper_default(scheme)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_preserve_per_machine_regime() {
        let p = Scale::paper();
        let s = Scale::small();
        let per_machine_paper = p.max_rate / p.machines as f64;
        let per_machine_small = s.max_rate / s.machines as f64;
        assert!((per_machine_paper - per_machine_small).abs() / per_machine_paper < 0.35);
    }

    #[test]
    fn config_carries_scale() {
        let c = Scale::tiny().config("vmlp");
        assert_eq!(c.machines, 8);
        assert_eq!(c.max_rate, 40.0);
    }
}
