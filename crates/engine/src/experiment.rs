//! The one way to run an experiment: a validating builder.
//!
//! Historically the engine grew three free functions (`run_experiment`,
//! `run_experiment_with_catalog`, `run_experiment_full`) that were the
//! same pipeline with different amounts of plumbing exposed. This builder
//! collapses them behind a single entry point that validates the config
//! up front and returns a typed [`Error`] instead of panicking:
//!
//! ```
//! use mlp_engine::{Experiment, ExperimentConfig};
//!
//! let result = Experiment::from_config(ExperimentConfig::smoke("vmlp"))
//!     .audit(true)
//!     .run()
//!     .expect("smoke config is valid");
//! assert!(result.completed > 0);
//! ```

use crate::config::ExperimentConfig;
use crate::error::Error;
use crate::profiling::warm_profiles;
use crate::registry::{default_registry, SchedulerParams, SchedulerRegistry, SchemeSpec};
use crate::runner::{summarize, ExperimentResult};
use crate::sim::{simulate, SimOutput};
use mlp_model::RequestCatalog;
use mlp_sim::SimRng;
use mlp_workload::{OpenLoopSource, RateSchedule, WorkloadError};
use std::path::Path;

/// A fully described, not-yet-run experiment.
///
/// Construct with [`from_config`](Experiment::from_config) (or
/// [`from_config_file`](Experiment::from_config_file)), refine with the
/// chainable setters, then call [`run`](Experiment::run) — or
/// [`run_full`](Experiment::run_full) when the raw simulation output
/// (span collector, enriched profiles, audit trail) is needed too.
pub struct Experiment<'a> {
    config: ExperimentConfig,
    catalog: Option<&'a RequestCatalog>,
    registry: Option<&'a SchedulerRegistry>,
    unindexed_dt: bool,
}

impl Experiment<'static> {
    /// Starts a builder from an in-memory config.
    pub fn from_config(config: ExperimentConfig) -> Self {
        Experiment { config, catalog: None, registry: None, unindexed_dt: false }
    }

    /// Starts a builder from a JSON config file (the `vmlp --config=FILE`
    /// format). Missing file, malformed JSON, and missing required fields
    /// come back as distinct [`Error`] variants instead of a panic.
    pub fn from_config_file(path: &Path) -> Result<Self, Error> {
        let json = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
        let config: ExperimentConfig =
            serde_json::from_str(&json).map_err(|e| Error::parse(path, e))?;
        Ok(Experiment::from_config(config))
    }
}

impl<'a> Experiment<'a> {
    /// Uses a caller-supplied request catalog (shared across a sweep)
    /// instead of constructing the paper catalog per run.
    pub fn catalog<'b>(self, catalog: &'b RequestCatalog) -> Experiment<'b>
    where
        'a: 'b,
    {
        Experiment {
            config: self.config,
            catalog: Some(catalog),
            registry: self.registry,
            unindexed_dt: self.unindexed_dt,
        }
    }

    /// Uses a caller-supplied [`SchedulerRegistry`] (typically
    /// [`default_registry`] plus out-of-tree registrations) instead of the
    /// built-in table when resolving the config's scheme spec.
    pub fn registry<'b>(self, registry: &'b SchedulerRegistry) -> Experiment<'b>
    where
        'a: 'b,
    {
        Experiment {
            config: self.config,
            catalog: self.catalog,
            registry: Some(registry),
            unindexed_dt: self.unindexed_dt,
        }
    }

    /// Replaces the scheme under test with `name` + typed `params`.
    pub fn scheme(mut self, name: &str, params: SchedulerParams) -> Self {
        self.config.scheme = SchemeSpec::with_params(name, params);
        self
    }

    /// Replaces the scheme under test from a spec string like
    /// `"vmlp:healing=off"`. The name is resolved (and the params are
    /// validated) against the experiment's registry immediately, so typos
    /// fail here rather than mid-sweep.
    pub fn scheme_spec(mut self, spec: &str) -> Result<Self, Error> {
        let spec = SchemeSpec::parse(spec).map_err(Error::InvalidConfig)?;
        self.registry.unwrap_or_else(|| default_registry()).validate_spec(&spec)?;
        self.config.scheme = spec;
        Ok(self)
    }

    /// Testing hook: forces every Δt percentile estimate through the
    /// sort-based reference path instead of the banded index + memo.
    /// Equivalence tests run the same config both ways and assert the
    /// decision-audit trails (and results) are identical.
    pub fn unindexed_dt(mut self, force: bool) -> Self {
        self.unindexed_dt = force;
        self
    }

    /// Enables or disables the decision-audit trail.
    pub fn audit(mut self, on: bool) -> Self {
        self.config.audit = on;
        self
    }

    /// Enables or disables the per-tick invariant auditor.
    pub fn auditor(mut self, on: bool) -> Self {
        self.config.auditor = on;
        self
    }

    /// Replaces the config's scheduling shards setting.
    pub fn shards(mut self, k: usize, policy: mlp_cluster::ShardPolicy) -> Self {
        self.config = self.config.with_shards(k, policy);
        self
    }

    /// The config as currently built.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Checks that the config describes a runnable experiment. Called by
    /// [`run`](Experiment::run); public so CLIs can fail fast before
    /// expensive setup.
    pub fn validate(&self) -> Result<(), Error> {
        let c = &self.config;
        let bad = |why: String| Err(Error::InvalidConfig(why));
        // The scheme name must resolve in the registry and its params must
        // build — unknown names and ill-typed params fail here with the
        // registered-name list, before any expensive setup.
        self.registry.unwrap_or_else(|| default_registry()).validate_spec(&c.scheme)?;
        if c.machines == 0 {
            return bad("machines must be >= 1".into());
        }
        if !(c.max_rate.is_finite() && c.max_rate > 0.0) {
            return bad(format!("max_rate must be positive and finite, got {}", c.max_rate));
        }
        if !(c.horizon_s.is_finite() && c.horizon_s > 0.0) {
            return bad(format!("horizon_s must be positive and finite, got {}", c.horizon_s));
        }
        if !(c.sample_period_s.is_finite() && c.sample_period_s > 0.0) {
            return bad(format!(
                "sample_period_s must be positive and finite, got {}",
                c.sample_period_s
            ));
        }
        if !(c.drain_factor.is_finite() && c.drain_factor >= 1.0) {
            return bad(format!("drain_factor must be >= 1, got {}", c.drain_factor));
        }
        if !c.machine_capacity.fits_within(&c.machine_capacity)
            || c.machine_capacity.has_negative()
            || c.machine_capacity == mlp_model::ResourceVector::ZERO
        {
            return bad(format!("machine_capacity must be positive, got {:?}", c.machine_capacity));
        }
        if let crate::config::MixSpec::HighRatio(r) = c.mix {
            if !(0.0..=1.0).contains(&r) {
                return bad(format!("HighRatio mix ratio must be in [0, 1], got {r}"));
            }
        }
        if let Some((count, scale)) = c.small_tier {
            if count > c.machines {
                return bad(format!(
                    "small_tier count {count} exceeds machine count {}",
                    c.machines
                ));
            }
            if !(scale.is_finite() && scale > 0.0) {
                return bad(format!("small_tier scale must be positive, got {scale}"));
            }
        }
        // Shards are clamped, not rejected, at build time — but a config
        // explicitly asking for more shards than machines is a mistake
        // worth telling the user about.
        if c.shards > c.machines {
            return bad(format!(
                "shards ({}) exceeds machines ({}); one shard needs at least one machine",
                c.shards, c.machines
            ));
        }
        if !(c.ledger_retention_s.is_finite() && c.ledger_retention_s > 0.0) {
            return bad(format!(
                "ledger_retention_s must be positive and finite, got {}",
                c.ledger_retention_s
            ));
        }
        if c.max_requests == Some(0) {
            return bad("max_requests must be >= 1 when set".into());
        }
        if let Err(why) = c.overload.validate() {
            return bad(why);
        }
        Ok(())
    }

    /// Runs the experiment end to end: validation → profiling warm-up →
    /// arrival generation → simulation → metric extraction.
    ///
    /// Fully deterministic in `config.seed`; the arrival stream depends
    /// only on `(seed, pattern, rate, mix)`, so different schemes with the
    /// same seed face the identical offered load.
    pub fn run(self) -> Result<ExperimentResult, Error> {
        self.run_full().map(|(result, _)| result)
    }

    /// Like [`run`](Experiment::run) but also returns the raw simulation
    /// output (span collector, enriched profiles, utilization series,
    /// audit trail) for trace export and deep-dive analysis.
    pub fn run_full(self) -> Result<(ExperimentResult, SimOutput), Error> {
        self.validate()?;
        let registry = self.registry.unwrap_or_else(|| default_registry());
        let config = self.config;
        let owned_catalog;
        let catalog = match self.catalog {
            Some(c) => c,
            None => {
                owned_catalog = RequestCatalog::paper();
                &owned_catalog
            }
        };

        let root = SimRng::new(config.seed);
        let arrival_rng = root.fork(0);
        let mut sim_rng = root.fork(1);
        let mut warm_rng = root.fork(2);

        let mut profiles = warm_profiles(catalog, config.warmup_cases, &mut warm_rng);
        // Bound the per-service history before the run when asked: the
        // engine records one case per completed span, and Δt estimation
        // cost is linear in the retained window.
        profiles.set_retention(config.profile_retention);
        if self.unindexed_dt {
            profiles.set_unindexed(true);
        }
        // One lazy arrival source. A steady schedule draws the identical
        // RNG sequence as `generate_stream`, so every run sees the same
        // stream the dense trace would hold; a surge swaps in the
        // flash-crowd schedule, and a request cap truncates either. Its
        // constructor runs the typed workload-parameter check, which needs
        // the resolved mix and so cannot run in `validate()`.
        let mix = config.mix.resolve(catalog);
        let workload_err = |e: WorkloadError| Error::InvalidConfig(format!("workload: {e}"));
        let o = config.overload;
        let schedule = if o.enabled && o.surge_multiplier > 1.0 {
            RateSchedule::flash_crowd(
                config.pattern,
                config.max_rate,
                o.surge_start_s,
                o.surge_duration_s,
                o.surge_multiplier,
                o.surge_ramp_s,
            )
        } else {
            RateSchedule::steady(config.pattern, config.max_rate)
        }
        .map_err(workload_err)?;
        let mut source = OpenLoopSource::scheduled(schedule, config.horizon_s, mix, arrival_rng)
            .map_err(workload_err)?;
        if let Some(cap) = config.max_requests {
            source = source.with_max_requests(cap);
        }
        let mut scheduler = registry.build(&config.scheme, config.seed)?;
        let out =
            simulate(&config, catalog, profiles, &mut source, scheduler.as_mut(), &mut sim_rng);
        let result = summarize(&config, catalog, &out);
        Ok((result, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MixSpec;

    #[test]
    fn builder_runs_and_matches_direct_pipeline() {
        let cfg = ExperimentConfig::smoke("vmlp").with_seed(11);
        let catalog = RequestCatalog::paper();
        let a = Experiment::from_config(cfg.clone()).catalog(&catalog).run().unwrap();
        let b = Experiment::from_config(cfg).run().unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
    }

    #[test]
    fn setters_override_config_flags() {
        let e = Experiment::from_config(ExperimentConfig::smoke("vmlp"))
            .audit(true)
            .auditor(false)
            .shards(2, mlp_cluster::ShardPolicy::CapacityBalanced);
        assert!(e.config().audit);
        assert!(!e.config().auditor);
        assert_eq!(e.config().shards, 2);
        let (r, out) = e.run_full().unwrap();
        assert!(r.completed > 0);
        assert!(!out.audit.decisions().is_empty(), "audit trail was requested");
    }

    #[test]
    fn invalid_configs_are_rejected_before_running() {
        let base = ExperimentConfig::smoke("vmlp");
        let cases: Vec<(ExperimentConfig, &str)> = vec![
            (ExperimentConfig { machines: 0, ..base.clone() }, "machines"),
            (ExperimentConfig { max_rate: 0.0, ..base.clone() }, "max_rate"),
            (ExperimentConfig { max_rate: f64::NAN, ..base.clone() }, "max_rate"),
            (ExperimentConfig { horizon_s: -1.0, ..base.clone() }, "horizon_s"),
            (ExperimentConfig { sample_period_s: 0.0, ..base.clone() }, "sample_period_s"),
            (ExperimentConfig { drain_factor: 0.5, ..base.clone() }, "drain_factor"),
            (ExperimentConfig { mix: MixSpec::HighRatio(1.5), ..base.clone() }, "ratio"),
            (base.clone().with_small_tier(999, 0.5), "small_tier"),
            (base.clone().with_shards(99, mlp_cluster::ShardPolicy::RoundRobin), "shards"),
            (
                base.clone().with_overload(mlp_sched::OverloadConfig {
                    admission_slack: 0.5,
                    ..mlp_sched::OverloadConfig::flash_crowd(3.0, 1.0, 2.0)
                }),
                "admission_slack",
            ),
            (
                base.clone().with_overload(mlp_sched::OverloadConfig {
                    surge_multiplier: f64::NAN,
                    ..mlp_sched::OverloadConfig::flash_crowd(3.0, 1.0, 2.0)
                }),
                "surge_multiplier",
            ),
        ];
        for (cfg, needle) in cases {
            let err = Experiment::from_config(cfg).run().unwrap_err();
            let Error::InvalidConfig(why) = &err else {
                panic!("expected InvalidConfig, got {err:?}")
            };
            assert!(why.contains(needle), "error {why:?} should mention {needle}");
        }
    }

    #[test]
    fn config_file_roundtrip_and_failure_modes() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("vmlp-exp-cfg-{}.json", std::process::id()));
        let cfg = ExperimentConfig::smoke("cursched").with_seed(3);
        std::fs::write(&path, serde_json::to_string_pretty(&cfg).unwrap()).unwrap();
        let loaded = Experiment::from_config_file(&path).unwrap();
        assert_eq!(*loaded.config(), cfg);
        std::fs::write(&path, "{ not json").unwrap();
        assert!(matches!(Experiment::from_config_file(&path), Err(Error::Parse { .. })));
        std::fs::remove_file(&path).ok();
        assert!(matches!(Experiment::from_config_file(&path), Err(Error::Io { .. })));
    }
}
