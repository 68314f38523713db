//! Open-loop load generation against a live server.
//!
//! Replays the paper's workload patterns (L1–L3, plus `const` and the
//! rate-schedule overlays such as [`RateSchedule::diurnal_sine`]) as real
//! wall-clock traffic: each connection thread pulls arrival instants from
//! its own [`OpenLoopSource`] (the workload crate's Lewis–Shedler sampler,
//! the same one the simulator uses), sleeps to the next instant, fires a
//! `RUN` line, and parks for the reply. The target rate is split evenly
//! across connections ([`RateSchedule::split`]) — superposing `N` Poisson
//! processes at `rate/N` is again Poisson at `rate` — so per-connection
//! blocking on the reply only distorts the process when a single
//! connection's share exceeds what one in-flight request can carry; sizing
//! `connections` generously keeps the offered process honest.
//!
//! All randomness flows from one [`SimRng`] seed (thread `i` forks stream
//! `i`), so two runs at the same seed offer the same request sequence at
//! the same ideal instants — as close to replayable as wall-clock traffic
//! gets.

use crate::client::Client;
use crate::protocol::Response;
use mlp_model::{RequestCatalog, RequestTypeId};
use mlp_sim::SimRng;
use mlp_workload::{ArrivalSource, OpenLoopSource, RateSchedule};
use std::time::{Duration, Instant};

/// What to offer, where, and for how long.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7411`.
    pub addr: String,
    /// Rate curve in requests/second (pattern × segments × sinusoid).
    pub schedule: RateSchedule,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Connection threads; each offers `rate/connections`.
    pub connections: usize,
    /// Root seed for arrival times and the request mix.
    pub seed: u64,
    /// Per-request reply deadline before the generator counts an error.
    pub timeout: Duration,
}

/// Aggregate counters plus the full latency sample of one run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests actually sent (accepted arrival instants inside the run).
    pub sent: u64,
    pub completed: u64,
    pub shed: u64,
    pub busy: u64,
    pub draining: u64,
    pub timeouts: u64,
    pub dropped: u64,
    /// Transport/protocol failures (connect refused, EOF, ERR replies).
    pub errors: u64,
    /// Wall-clock time from first to last action.
    pub elapsed: Duration,
    /// Completed-request latencies in µs, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Arrival instants that fell behind schedule by over 10 ms — a
    /// closed-loop distortion signal (add connections if this grows).
    pub late_arrivals: u64,
}

impl LoadReport {
    /// Achieved completion throughput in requests/second.
    pub fn achieved_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// The `p`-th latency percentile in µs (0 when nothing completed).
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.latencies_us.len() as f64).ceil() as usize;
        self.latencies_us[rank.clamp(1, self.latencies_us.len()) - 1]
    }

    pub fn mean_latency_us(&self) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        self.latencies_us.iter().sum::<u64>() as f64 / self.latencies_us.len() as f64
    }

    fn absorb(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.shed += other.shed;
        self.busy += other.busy;
        self.draining += other.draining;
        self.timeouts += other.timeouts;
        self.dropped += other.dropped;
        self.errors += other.errors;
        self.late_arrivals += other.late_arrivals;
        self.latencies_us.extend(other.latencies_us);
    }

    /// One-line JSON for scripts and the bench harness.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sent\":{},\"completed\":{},\"shed\":{},\"busy\":{},\"draining\":{},\"timeouts\":{},\"dropped\":{},\"errors\":{},\"late_arrivals\":{},\"elapsed_s\":{:.3},\"achieved_rps\":{:.1},\"mean_latency_us\":{:.1},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            self.sent,
            self.completed,
            self.shed,
            self.busy,
            self.draining,
            self.timeouts,
            self.dropped,
            self.errors,
            self.late_arrivals,
            self.elapsed.as_secs_f64(),
            self.achieved_rps(),
            self.mean_latency_us(),
            self.percentile_us(50.0),
            self.percentile_us(95.0),
            self.percentile_us(99.0),
        )
    }
}

/// Runs the full load: spawns `connections` threads, merges their
/// reports, sorts the latency sample. Blocks until `duration` elapses on
/// every connection (or the server goes away).
pub fn run(cfg: &LoadgenConfig) -> LoadReport {
    let catalog = RequestCatalog::paper();
    let mix = catalog.balanced_mix();
    let root = SimRng::new(cfg.seed);
    let start = Instant::now();

    let n = cfg.connections.max(1);
    let mut merged = LoadReport::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let rng = root.fork(i as u64);
            let mix = mix.clone();
            let cfg = cfg.clone();
            handles.push(scope.spawn(move || connection_loop(&cfg, n, start, mix, rng)));
        }
        for h in handles {
            if let Ok(report) = h.join() {
                merged.absorb(report);
            }
        }
    });
    merged.elapsed = start.elapsed().min(cfg.duration + cfg.timeout);
    merged.latencies_us.sort_unstable();
    merged
}

/// One connection's share of the offered load.
fn connection_loop(
    cfg: &LoadgenConfig,
    shares: usize,
    start: Instant,
    mix: Vec<(RequestTypeId, f64)>,
    rng: SimRng,
) -> LoadReport {
    let mut report = LoadReport::default();
    let mut client = match Client::connect(&cfg.addr, cfg.timeout) {
        Ok(c) => c,
        Err(_) => {
            report.errors += 1;
            return report;
        }
    };

    // Arrival instants are microseconds since the run started. The mix is
    // drawn even if we fall behind, keeping the request sequence a pure
    // function of the seed.
    let horizon = cfg.duration.as_secs_f64();
    let mut source = match OpenLoopSource::scheduled(cfg.schedule.split(shares), horizon, mix, rng)
    {
        Ok(s) => s,
        Err(_) => {
            report.errors += 1;
            return report;
        }
    };
    while let Some(arrival) = source.next_arrival() {
        let due = start + Duration::from_micros(arrival.at.0);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else if now - due > Duration::from_millis(10) {
            report.late_arrivals += 1;
        }

        report.sent += 1;
        match client.run(&arrival.request_type.0.to_string()) {
            Ok(Response::Ok { latency_us, .. }) => {
                report.completed += 1;
                report.latencies_us.push(latency_us);
            }
            Ok(Response::Shed { .. }) => report.shed += 1,
            Ok(Response::Busy) => report.busy += 1,
            Ok(Response::Draining) => report.draining += 1,
            Ok(Response::Timeout) => report.timeouts += 1,
            Ok(Response::Dropped) => report.dropped += 1,
            Ok(_) => report.errors += 1,
            Err(_) => {
                report.errors += 1;
                // Transport is gone (server drained or died); reconnect
                // once, else finish the schedule counting errors.
                match Client::connect(&cfg.addr, cfg.timeout) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_workload::WorkloadPattern;

    #[test]
    fn report_percentiles_and_json() {
        let mut r = LoadReport {
            completed: 4,
            elapsed: Duration::from_secs(2),
            latencies_us: vec![10, 20, 30, 40],
            ..LoadReport::default()
        };
        r.latencies_us.sort_unstable();
        assert_eq!(r.percentile_us(50.0), 20);
        assert_eq!(r.percentile_us(99.0), 40);
        assert_eq!(r.percentile_us(100.0), 40);
        assert!((r.achieved_rps() - 2.0).abs() < 1e-9);
        let json = r.to_json();
        assert!(json.contains("\"p99_us\":40"), "{json}");
        assert!(json.contains("\"achieved_rps\":2.0"), "{json}");
    }

    /// End-to-end: a real server on loopback, a short diurnal-sine L2
    /// schedule, every sent request accounted for.
    #[test]
    fn loadgen_drives_a_live_server() {
        let exp = mlp_engine::ExperimentConfig::smoke("vmlp").with_seed(23);
        let server = crate::Server::start(crate::ServeConfig::smoke(exp)).expect("bind");
        let cfg = LoadgenConfig {
            addr: server.local_addr().to_string(),
            schedule: RateSchedule::diurnal_sine(WorkloadPattern::L2Fluctuating, 120.0, 1.0, 0.3)
                .unwrap(),
            duration: Duration::from_secs(2),
            connections: 4,
            seed: 7,
            timeout: Duration::from_secs(30),
        };
        let report = run(&cfg);
        let out = server.stop();

        assert!(report.sent > 50, "offered ~240 over 2 s, saw {}", report.sent);
        assert_eq!(
            report.completed
                + report.shed
                + report.busy
                + report.draining
                + report.timeouts
                + report.dropped
                + report.errors,
            report.sent,
            "every request accounted for: {report:?}"
        );
        assert!(report.completed > 0);
        assert!(report.percentile_us(99.0) >= report.percentile_us(50.0));
        assert!(out.arrived as u64 >= report.completed + report.shed, "kernel saw the admits");
        assert!(out.invariant_report.is_none(), "{:?}", out.invariant_report);
    }
}
