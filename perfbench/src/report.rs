//! The metric catalogue and the result a run prints.
//!
//! Every workload prints every end-to-end metric in [`END_TO_END`] and, in
//! a traced run, every per-layer metric in [`PER_LAYER`]; the names and
//! units match `BENCHMARK.json`. A per-layer metric a workload cannot
//! measure (the scheduler wrapper in live mode, the front door in sim
//! mode) is printed as 0 and marked as not measured.

use serde_json::{Number, Value};
use std::collections::BTreeMap;

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    ("host_us_per_req", "us"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers, measured in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    ("sched.admit.calls", "count"),
    ("sched.admit.ns_per_call", "ns"),
    ("sched.admit.plans_per_call", "count"),
    ("sched.admit.empty_frac", "fraction"),
    ("sched.admit.queue_depth_mean", "count"),
    ("sched.arrival.ns_per_call", "ns"),
    ("sched.heal.calls", "count"),
    ("sched.heal.ns_per_call", "ns"),
    ("sched.heal.actions_per_call", "count"),
    ("sched.lifecycle.ns_per_req", "ns"),
    ("sched.self_us_per_req", "us"),
    ("core.delay_slot_fills_per_req", "count/req"),
    ("core.stretches_per_req", "count/req"),
    ("core.queue_switches_per_req", "count/req"),
    ("ledger.earliest_fit_per_req", "count/req"),
    ("ledger.peak_usage_per_req", "count/req"),
    ("ledger.usage_at_per_req", "count/req"),
    ("ledger.writes_per_req", "count/req"),
    ("ledger.fit_per_admit", "ratio"),
    ("engine.kernel_self_us_per_req", "us"),
    ("engine.request_table_peak", "count"),
    ("engine.warm_profiles_ms", "ms"),
    ("cluster.build_ms", "ms"),
    ("workload.generate_ms", "ms"),
    ("workload.arrivals", "count"),
    ("host.cpu_us_per_req", "us"),
    ("model.queue_ms", "ms"),
    ("model.place_ms", "ms"),
    ("model.comm_ms", "ms"),
    ("model.exec_ms", "ms"),
    ("model.cap_ms", "ms"),
    ("model.late_frac", "fraction"),
    ("trace.invariant_violations", "count"),
    ("trace.overhead_frac", "fraction"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.overhead_p95_ms", "ms"),
    ("serve.kernel_p50_ms", "ms"),
    ("serve.kernel_p95_ms", "ms"),
    ("serve.front_door_cpu_us_per_req", "us"),
    ("serve.busy", "count"),
    ("serve.timeouts", "count"),
    ("loadgen.late_send_frac", "fraction"),
    ("loadgen.max_in_flight", "count"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
    notes: Vec<String>,
    failures: Vec<String>,
    meta: Vec<(String, Value)>,
    /// Operations attempted (sim: experiment runs; live: requests sent).
    pub attempted: u64,
    /// Operations that failed (sim: runs failing a check; live: requests
    /// without an `OK` reply).
    pub failed: u64,
}

impl Report {
    /// Records metric `name` (which must be in the catalogue) with a note
    /// on what it measured.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the catalogue");
        self.values.insert(name, (value, note.into()));
    }

    /// Adds a human-readable line that is not a catalogued metric.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a run-metadata entry.
    pub fn meta<T: serde::Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        let value = serde_json::to_value(value).expect("metadata serializes");
        self.meta.push((key.to_string(), value));
    }

    /// Records a correctness-gate outcome.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed correctness gate.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Prints the human-readable lines, then the one-line JSON result with
    /// the end-to-end metrics (`trace == false`) or the per-layer metrics.
    /// Returns whether every gate passed.
    pub fn print(mut self, trace: bool) -> bool {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            let (value, note) = match self.values.get(name) {
                Some((v, note)) => (*v, note.clone()),
                None if trace => (0.0, "not measured on this workload; reported as 0".into()),
                None => {
                    self.failures.push(format!("end-to-end metric {name} was not measured"));
                    continue;
                }
            };
            if !value.is_finite() {
                self.failures.push(format!("metric {name} is not finite ({value})"));
                continue;
            }
            println!("{name:<34} {value:>14.4} {unit:<9} {note}");
            let entry = vec![
                ("value".to_string(), Value::Num(Number::F(value))),
                ("unit".to_string(), Value::Str(unit.into())),
            ];
            metrics.push((name.to_string(), Value::Object(entry)));
        }
        for line in &self.notes {
            println!("  {line}");
        }
        println!("meta {}", to_line(&Value::Object(self.meta.clone())));
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let correct = self.failures.is_empty();
        let result = Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Num(Number::U(self.attempted.max(1)))),
            ("failed".into(), Value::Num(Number::U(self.failed))),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        println!("{}", to_line(&result));
        correct
    }
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON value serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(items)) = spec.get(key) else { panic!("{key} is a list") };
            let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
            let listed: Vec<(String, String)> =
                items.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
            let ours: Vec<(String, String)> =
                catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, ours, "{key} differs from the catalogue");
        }
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.set("setup_s", 1.0, "");
        assert!(!r.print(false));
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.0, "");
        }
        assert!(r.print(false));
    }
}
