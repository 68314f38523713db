//! One-call experiment runner: config in, figure-ready metrics out.

use crate::config::ExperimentConfig;
use crate::sim::SimOutput;
use mlp_model::{RequestCatalog, VolatilityClass};
use mlp_sim::SimTime;
use mlp_stats::TimeSeries;
use mlp_trace::metrics::names;
use serde::{Deserialize, Serialize};

/// Figure-ready metrics of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// Requests that arrived.
    pub arrived: usize,
    /// Requests completed by cut-off.
    pub completed: usize,
    /// Requests completed within the horizon (Fig 14's throughput
    /// numerator: "finished requests within certain scheduling period").
    pub completed_in_horizon: usize,
    /// Requests unfinished at cut-off (counted as violations).
    pub unfinished: usize,
    /// Requests completed within the horizon *and* within their SLO — the
    /// goodput numerator (a violated completion is useless work in an
    /// interactive service).
    pub good_in_horizon: usize,
    /// SLO-violation fraction overall and per volatility class, with
    /// unfinished requests counted as violated (Fig 10).
    pub violation_rate: f64,
    /// Per-class violation fractions `[low, mid, high]`.
    pub violation_by_class: [f64; 3],
    /// End-to-end latency percentiles in ms `[p50, p90, p99]` over
    /// completed requests (Fig 12).
    pub latency_ms: [f64; 3],
    /// Per-class p99 latency `[low, mid, high]` (Fig 13).
    pub p99_by_class: [f64; 3],
    /// Mean end-to-end latency, ms.
    pub mean_latency_ms: f64,
    /// Cluster-utilization time series (Fig 11).
    pub utilization: TimeSeries,
    /// Mean utilization over the horizon.
    pub mean_utilization: f64,
    /// Fraction of spans that invoked later than planned.
    pub late_fraction: f64,
    /// Fraction of spans that ran resource-capped.
    pub capped_fraction: f64,
    /// Self-healing counters: (delay-slot fills, resource stretches,
    /// queue switches).
    pub healing: (u64, u64, u64),
    /// Requests abandoned by failure recovery (a subset of `unfinished`;
    /// 0 when fault injection is disabled).
    pub abandoned: usize,
    /// Running invocations killed by fault injection.
    pub node_failures: u64,
    /// Failed nodes re-attempted (scheduler retries plus engine fallback).
    pub fault_retries: u64,
    /// Machine crash events injected.
    pub machine_crashes: u64,
    /// Nodes re-planned onto surviving machines after a crash.
    pub crash_replans: u64,
    /// Mean time-to-recover crash-orphaned nodes, ms (0 with no crashes).
    pub mttr_ms: f64,
    /// Mean critical-path latency attribution over completed requests
    /// (queue / placement / comm / exec / cap, plus informational healed).
    /// `None` only for traces recorded before attribution existed.
    #[serde(default)]
    pub mean_breakdown: Option<mlp_trace::LatencyBreakdown>,
    /// Invariant-auditor violations (0 when the auditor is off or the run
    /// is clean).
    #[serde(default)]
    pub invariant_violations: u64,
    /// Placements that spilled out of their home shard (always 0 when the
    /// cluster runs unsharded).
    #[serde(default)]
    pub shard_overflows: u64,
    /// High-water mark of live entries in the engine's request table. On a
    /// bounded-memory open-loop run this plateaus near rate × residence
    /// time while `arrived` grows without bound (0 for traces recorded
    /// before the gauge existed).
    #[serde(default)]
    pub request_table_peak: usize,
    /// Arrivals refused by the overload admission gate (a subset of
    /// `unfinished`; 0 when overload resilience is disabled).
    #[serde(default)]
    pub shed_requests: usize,
    /// DAG leaves skipped by brownout branch shedding.
    #[serde(default)]
    pub branch_sheds: u64,
    /// Retries refused by the global retry-token budget.
    #[serde(default)]
    pub retries_denied: u64,
    /// Times any per-service circuit breaker tripped open.
    #[serde(default)]
    pub breaker_opens: u64,
    /// Peak overload pressure signal observed (0 with overload off).
    #[serde(default)]
    pub peak_pressure: f64,
}

impl ExperimentResult {
    /// Throughput in completed requests per second of scheduling period.
    pub fn throughput(&self) -> f64 {
        self.completed_in_horizon as f64 / self.config.horizon_s
    }

    /// Goodput: SLO-compliant completions per second of scheduling period.
    pub fn goodput(&self) -> f64 {
        self.good_in_horizon as f64 / self.config.horizon_s
    }
}

fn class_idx(c: VolatilityClass) -> usize {
    match c {
        VolatilityClass::Low => 0,
        VolatilityClass::Mid => 1,
        VolatilityClass::High => 2,
    }
}

pub(crate) fn summarize(
    config: &ExperimentConfig,
    catalog: &RequestCatalog,
    out: &SimOutput,
) -> ExperimentResult {
    let horizon = SimTime::from_secs_f64(config.horizon_s);
    let completed = out.collector.completed();
    // The horizon-windowed counts, the latency distribution, and the
    // violated-completion count come from running aggregates in streaming
    // mode and from the exact record set otherwise.
    let (completed_in_horizon, good_in_horizon, violated_completed, latency_ms, mean_latency_ms) =
        match out.collector.streaming_stats() {
            Some(stats) => (
                stats.completed_in_horizon(),
                stats.good_in_horizon(),
                stats.violated(),
                [
                    out.collector.latency_percentile(50.0, None).unwrap_or(0.0),
                    out.collector.latency_percentile(90.0, None).unwrap_or(0.0),
                    out.collector.latency_percentile(99.0, None).unwrap_or(0.0),
                ],
                stats.mean_latency_ms(),
            ),
            None => {
                let mut cdf = out.collector.latency_cdf(None);
                (
                    out.collector.completed_where(|r| r.end <= horizon),
                    out.collector.completed_where(|r| r.end <= horizon && !r.violated()),
                    out.collector.completed_where(|r| r.violated()),
                    [
                        cdf.percentile(50.0).unwrap_or(0.0),
                        cdf.percentile(90.0).unwrap_or(0.0),
                        cdf.percentile(99.0).unwrap_or(0.0),
                    ],
                    cdf.mean(),
                )
            }
        };

    // Violations: completed-and-violated plus everything unfinished.
    let total = completed + out.unfinished;
    let violated = violated_completed + out.unfinished;
    let violation_rate = if total == 0 { 0.0 } else { violated as f64 / total as f64 };

    // Per-class violations: unfinished requests cannot be attributed to a
    // class (they never completed), so classes are computed over completed
    // requests; the overall rate above includes the censored mass.
    let mut violation_by_class = [0.0; 3];
    let mut p99_by_class = [0.0; 3];
    for class in [VolatilityClass::Low, VolatilityClass::Mid, VolatilityClass::High] {
        let i = class_idx(class);
        violation_by_class[i] = out.collector.violation_rate(Some(class));
        p99_by_class[i] = out.collector.latency_percentile(99.0, Some(class)).unwrap_or(0.0);
    }

    let (late_fraction, _) = out.collector.lateness_stats();
    let capped_fraction = out.collector.capped_fraction();
    let mean_utilization = out.utilization.mean();

    let healing = (
        out.metrics.counter(names::DELAY_SLOT_FILLS),
        out.metrics.counter(names::RESOURCE_STRETCHES),
        out.metrics.counter(names::QUEUE_SWITCHES),
    );

    let _ = catalog;
    ExperimentResult {
        config: config.clone(),
        arrived: out.arrived,
        completed,
        completed_in_horizon,
        unfinished: out.unfinished,
        good_in_horizon,
        violation_rate,
        violation_by_class,
        latency_ms,
        p99_by_class,
        mean_latency_ms,
        utilization: out.utilization.clone(),
        mean_utilization,
        late_fraction,
        capped_fraction,
        healing,
        abandoned: out.abandoned,
        node_failures: out.metrics.counter(names::NODE_FAILURES),
        fault_retries: out.metrics.counter(names::RETRIES),
        machine_crashes: out.metrics.counter(names::MACHINE_CRASHES),
        crash_replans: out.metrics.counter(names::CRASH_REPLANS),
        mttr_ms: out.metrics.gauge(names::MTTR_MS).unwrap_or(0.0),
        mean_breakdown: out.collector.mean_breakdown(),
        invariant_violations: out.metrics.counter(names::INVARIANT_VIOLATIONS),
        shard_overflows: out.metrics.counter(names::SHARD_OVERFLOWS),
        request_table_peak: out.request_table_peak,
        shed_requests: out.shed_requests,
        branch_sheds: out.metrics.counter(names::OVERLOAD_BRANCH_SHEDS),
        retries_denied: out.metrics.counter(names::OVERLOAD_RETRIES_DENIED),
        breaker_opens: out.metrics.gauge(names::BREAKER_OPENS).unwrap_or(0.0) as u64,
        peak_pressure: out.metrics.gauge(names::OVERLOAD_PRESSURE_PEAK).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MixSpec;
    use crate::experiment::Experiment;

    #[test]
    fn smoke_experiment_produces_sane_metrics() {
        let cfg = ExperimentConfig::smoke("vmlp");
        let r = Experiment::from_config(cfg).run().unwrap();
        assert!(r.arrived > 0);
        assert!(r.completed > 0);
        assert!(r.completed_in_horizon <= r.completed);
        assert!((0.0..=1.0).contains(&r.violation_rate));
        assert!(r.latency_ms[0] <= r.latency_ms[1] && r.latency_ms[1] <= r.latency_ms[2]);
        assert!(r.mean_latency_ms > 0.0);
        assert!(r.mean_utilization > 0.0 && r.mean_utilization <= 1.0);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn identical_seeds_identical_results() {
        let cfg = ExperimentConfig::smoke("partprofile").with_seed(99);
        let a = Experiment::from_config(cfg.clone()).run().unwrap();
        let b = Experiment::from_config(cfg).run().unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
    }

    #[test]
    fn attribution_sums_to_latency_and_auditor_is_clean() {
        // smoke() runs the invariant auditor; attribution is always on.
        let cfg = ExperimentConfig::smoke("vmlp");
        let catalog = RequestCatalog::paper();
        let (r, out) = Experiment::from_config(cfg).catalog(&catalog).run_full().unwrap();
        assert_eq!(r.invariant_violations, 0, "report: {:?}", out.invariant_report);
        assert!(out.invariant_report.is_none());
        let mut checked = 0usize;
        for rec in out.collector.requests() {
            let b = rec.breakdown.expect("every completed request is attributed");
            let lat = rec.latency().as_millis_f64();
            assert!(
                (b.total_ms() - lat).abs() < 1e-9,
                "request {:?}: components {b:?} sum to {} but latency is {lat}",
                rec.id,
                b.total_ms(),
            );
            checked += 1;
        }
        assert!(checked > 0, "run completed no requests");
        let mean = r.mean_breakdown.expect("completions imply a mean breakdown");
        assert!((mean.total_ms() - r.mean_latency_ms).abs() < 1e-6);
    }

    #[test]
    fn single_class_mix_only_populates_that_class() {
        let cfg = ExperimentConfig::smoke("cursched")
            .with_mix(MixSpec::SingleClass(VolatilityClass::High));
        let r = Experiment::from_config(cfg).run().unwrap();
        assert!(r.p99_by_class[2] > 0.0, "high class must have latencies");
        assert_eq!(r.p99_by_class[0], 0.0, "no low-class requests expected");
        assert_eq!(r.p99_by_class[1], 0.0, "no mid-class requests expected");
    }
}
