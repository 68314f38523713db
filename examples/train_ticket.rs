//! TrainTicket scenario: advanced search (getCheapest, High V_r) against
//! basic search (basicSearch, Mid V_r) under the periodic wide-peak L3
//! workload — the paper's industrial benchmark with its hardest pattern.
//!
//! Compares the two profile-driven schemes: PartProfile (GrandSLAm-style)
//! and v-MLP, showing what the volatility-banded Δt and the self-healing
//! module buy during sustained plateaus.
//!
//! ```sh
//! cargo run --release --example train_ticket
//! ```

use v_mlp::prelude::*;

fn main() {
    println!("TrainTicket: getCheapest vs basicSearch under L3 wide peaks\n");
    let catalog = RequestCatalog::paper();
    for name in ["getCheapest", "basicSearch"] {
        let rt = catalog.request_by_name(name).unwrap();
        println!(
            "  {:12} V_r={:.2} ({:?}), {} services, SLO {:.0} ms",
            rt.name,
            rt.volatility,
            rt.class(),
            rt.dag.len(),
            rt.slo_ms
        );
    }
    println!();

    for (label, class) in [
        ("mid-V_r stream (basicSearch)", VolatilityClass::Mid),
        ("high-V_r stream (getCheapest + compose-post)", VolatilityClass::High),
    ] {
        println!("--- {label} ---");
        for scheme in ["partprofile", "vmlp"] {
            let config = ExperimentConfig {
                machines: 12,
                max_rate: 24.0,
                horizon_s: 40.0,
                pattern: WorkloadPattern::L3PeriodicWide,
                mix: MixSpec::SingleClass(class),
                ..ExperimentConfig::paper_default(scheme)
            };
            let r = Experiment::from_config(config).run().expect("config is valid");
            let (slots, stretches, _) = r.healing;
            println!(
                "{:12}  p50 {:6.1} ms  p99 {:7.1} ms  violations {:5.2}%  healing {}+{}",
                r.config.scheme.display_name(),
                r.latency_ms[0],
                r.latency_ms[2],
                r.violation_rate * 100.0,
                slots,
                stretches,
            );
        }
        println!();
    }
}
