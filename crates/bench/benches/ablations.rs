//! Ablation benchmarks for the design choices DESIGN.md §6 calls out:
//! Δt policy, delay slot, resource stretch, queue reordering/switching,
//! and reservation trimming — each as a timed end-to-end run of the
//! corresponding v-MLP variant. (The *quality* impact of the same
//! variants is reported by the `ablations` binary.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlp_bench::Scale;
use mlp_engine::experiment::Experiment;

/// The ablated configurations as labeled scheme specs.
pub const VARIANTS: [(&str, &str); 9] = [
    ("full", "vmlp"),
    ("no_healing", "vmlp:healing=off"),
    ("no_delay_slot", "vmlp:delay_slot=off"),
    ("no_stretch", "vmlp:resource_stretch=off"),
    ("no_reorder", "vmlp:reorder=off"),
    ("no_queue_switch", "vmlp:queue_switch=off"),
    ("no_trim", "vmlp:trim_reservations=off"),
    ("dt_always_mean", "vmlp:dt_policy=always-mean"),
    ("dt_always_p99", "vmlp:dt_policy=always-p99"),
];

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("vmlp_ablations");
    g.sample_size(10);
    for (name, spec) in VARIANTS {
        g.bench_with_input(BenchmarkId::from_parameter(name), &spec, |b, &spec| {
            let ec = Scale::tiny().config(spec);
            b.iter(|| Experiment::from_config(ec.clone()).run().unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
