//! Regenerates Fig 14 (normalized throughput vs high-V_r ratio) over a
//! sweep config (`--sweep=FILE`, default: the paper's five schemes).
fn main() {
    let scale = mlp_bench::scale_from_args();
    let sweep =
        mlp_bench::sweep_from_args().unwrap_or_else(mlp_bench::fig14_throughput::default_sweep);
    eprintln!(
        "running Fig 14 sweep at --scale={} over [{}] …",
        scale.label,
        sweep.labels().join(", ")
    );
    print!("{}", mlp_bench::fig14_throughput::report_sweep(scale, 2022, &sweep));
    if let Some(path) = mlp_bench::audit_from_args() {
        // Audited companion run: the sweep's most contended cell (v-MLP at
        // the 50% high-V_r mid-point of the ratio axis).
        let cfg = scale
            .config("vmlp")
            .with_pattern(mlp_workload::WorkloadPattern::Constant)
            .with_mix(mlp_engine::config::MixSpec::HighRatio(0.5));
        mlp_bench::audit_run(cfg, &path);
    }
}
