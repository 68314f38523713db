//! Whole-simulation benchmarks: one tiny-scale end-to-end run per
//! scheduling scheme (the unit of work behind every figure cell), plus the
//! profiling warm-up and arrival generation stages of the Fig 8 workflow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlp_bench::Scale;
use mlp_engine::experiment::Experiment;
use mlp_engine::profiling::warm_profiles;
use mlp_engine::registry::{SchemeSpec, PAPER_SCHEMES};
use mlp_model::RequestCatalog;
use mlp_sim::SimRng;
use mlp_workload::{generate_stream, WorkloadPattern};

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate_tiny");
    g.sample_size(10);
    for scheme in PAPER_SCHEMES {
        g.bench_with_input(
            BenchmarkId::from_parameter(SchemeSpec::from(scheme).display_name()),
            &scheme,
            |b, &s| {
                let cfg = Scale::tiny().config(s);
                b.iter(|| Experiment::from_config(cfg.clone()).run().unwrap());
            },
        );
    }
    g.finish();
}

fn bench_workflow_stages(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_stages");
    let catalog = RequestCatalog::paper();
    g.bench_function("warm_profiles_100", |b| {
        b.iter(|| warm_profiles(&catalog, 100, &mut SimRng::new(3)));
    });
    let mix = catalog.balanced_mix();
    g.bench_function("generate_stream_l2_40s", |b| {
        b.iter(|| {
            generate_stream(WorkloadPattern::L2Fluctuating, 140.0, 40.0, &mix, &mut SimRng::new(4))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_end_to_end, bench_workflow_stages);
criterion_main!(benches);
