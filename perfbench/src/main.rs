//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, the run metadata, any failed correctness
//! check, and last a one-line JSON result. Exits 1 when a check failed and
//! 2 on a usage error.

use mlp_perfbench::report::Report;
use mlp_perfbench::sim::SimWorkload;
use mlp_perfbench::{host, live, sim};
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["paper_l3", "fleet_4096", "live_loopback"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&WORKLOADS.join(", "))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.meta("workload", &args.workload);
    report.meta("seed", &args.seed);
    report.meta("seconds", &args.seconds);
    report.meta("trace", &args.trace);
    report.meta("nproc", &host::nproc());
    report.meta("rustc", &host::rustc_version());
    report.meta("profile", &host::build_profile());
    report.meta("git_commit", &host::git_commit());
    let start = std::time::Instant::now();
    match args.workload.as_str() {
        "paper_l3" => {
            sim::measure(SimWorkload::PaperL3, args.seed, args.seconds, args.trace, &mut report)
        }
        "fleet_4096" => {
            sim::measure(SimWorkload::Fleet4096, args.seed, args.seconds, args.trace, &mut report)
        }
        _ => live::measure(args.seed, args.seconds, args.trace, &mut report),
    }
    report.meta("elapsed_s", &start.elapsed().as_secs_f64());
    if report.print(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
