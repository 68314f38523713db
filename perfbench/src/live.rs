//! The live workload, `live_loopback`: an in-process `mlp_serve::Server`
//! driven over loopback by an open-loop line-protocol client.
//!
//! The client is one thread with [`CONNECTIONS`] connections. It sends
//! each `RUN` when it is due, on the connection with fewer outstanding
//! requests, whether or not earlier replies are back (pipelining), and
//! times every request from its due instant, so time a request spends
//! queued behind an earlier one on its connection counts.
//! Without `poll(2)` in the standard library the thread sleeps at most
//! [`POLL`] between nonblocking reads, which bounds the timestamp error.

use crate::host;
use crate::percentile::{median, percentile};
use crate::report::Report;
use mlp_cluster::ledger::query_stats::{self, LedgerQueryStats};
use mlp_engine::profiling::warm_profiles;
use mlp_engine::sim::SimOutput;
use mlp_engine::{ExperimentConfig, Scheme};
use mlp_model::{RequestCatalog, RequestTypeId};
use mlp_serve::client::{parse_response, Client};
use mlp_serve::protocol::Response;
use mlp_serve::{ServeConfig, Server, StatsSnapshot};
use mlp_sim::SimRng;
use mlp_trace::metrics::names;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Offered load, requests per second. At 6 req/s the client-timed p50
/// sits on the edge between the ~141 ms cluster of the mid-latency request
/// type and requests queued behind slow ones, and it jumps between the two
/// from seed to seed; at 5 req/s it stays inside the cluster.
pub const RATE_RPS: f64 = 5.0;
/// Client connections.
pub const CONNECTIONS: usize = 2;
/// Longest sleep between the client's nonblocking reads.
pub const POLL: Duration = Duration::from_millis(1);
/// A send this far past its due instant counts as late.
const LATE_SEND: Duration = Duration::from_millis(2);
/// Server-side wait for a kernel outcome before it answers `TIMEOUT`.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Server start/stop cycles behind `setup_s`; one takes well under a
/// millisecond, so many are needed for a steady median.
const SETUP_REPS: usize = 21;
/// RNG stream of the client's arrival plan, apart from the kernel's.
const PLAN_STREAM: u64 = 0x6c6f_6164;

/// The server `vmlp serve` runs, with two connection workers and a free
/// loopback port.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 512,
        request_timeout: REQUEST_TIMEOUT,
        drain_timeout: Duration::from_secs(10),
        experiment: ExperimentConfig {
            machines: 20,
            ..ExperimentConfig::paper_default(Scheme::VMlp)
        }
        .with_stream_stats(true)
        .with_profile_retention(512)
        .with_auditor(true)
        .with_seed(seed),
    }
}

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Send {
    /// When it is due, from the start of the load.
    pub due: Duration,
    pub rtype: RequestTypeId,
}

/// `rate × window` requests at independent uniform instants in `window`
/// (a Poisson process conditioned on its count). Each type gets its
/// balanced-mix share of the count, in a random order, so every seed
/// offers the same amount and kind of work and only timing and order vary;
/// a function of `seed` alone.
pub fn plan(seed: u64, rate: f64, window: Duration, catalog: &RequestCatalog) -> Vec<Send> {
    let mut stream = SimRng::new(seed).fork(PLAN_STREAM);
    let rng = stream.rng();
    let count = (rate * window.as_secs_f64()).round() as usize;
    let mut types = apportion(&catalog.balanced_mix(), count);
    for i in (1..types.len()).rev() {
        types.swap(i, rng.gen_range(0..=i));
    }
    let mut dues: Vec<Duration> = (0..count).map(|_| window.mul_f64(rng.gen::<f64>())).collect();
    dues.sort();
    dues.into_iter().zip(types).map(|(due, rtype)| Send { due, rtype }).collect()
}

/// Splits `count` over the mix by largest remainder, so the shares sum to
/// `count` and each is within one of its weight's share.
fn apportion(mix: &[(RequestTypeId, f64)], count: usize) -> Vec<RequestTypeId> {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let exact: Vec<f64> = mix.iter().map(|(_, w)| w / total * count as f64).collect();
    let mut shares: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..mix.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = count - shares.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        shares[i] += 1;
    }
    mix.iter().zip(shares).flat_map(|((id, _), n)| std::iter::repeat_n(*id, n)).collect()
}

/// One reply, matched to its request.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub rtype: RequestTypeId,
    /// When the request was due, from the start of the load.
    pub due: Duration,
    /// From the request's due instant to the reply's arrival.
    pub latency: Duration,
    pub response: Response,
}

/// What the client saw.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub sent: u64,
    pub replies: Vec<Reply>,
    /// Requests that got no reply: write failures, closed connections, and
    /// requests still unanswered when the client gave up.
    pub transport_errors: u64,
    /// Reply lines that matched no outstanding request.
    pub unmatched: u64,
    pub late_sends: u64,
    pub max_in_flight: usize,
}

impl ClientRun {
    /// Reply count by kind (`OK`, `SHED`, `BUSY`, …).
    pub fn kinds(&self) -> BTreeMap<String, u64> {
        let mut kinds = BTreeMap::new();
        for r in &self.replies {
            *kinds.entry(kind(&r.response).to_string()).or_insert(0) += 1;
        }
        kinds
    }

    /// Every request sent is accounted for exactly once: `sent` equals the
    /// sum of every reply kind plus transport errors, and no reply arrived
    /// that matched no request.
    pub fn accounted(&self) -> bool {
        let replied: u64 = self.kinds().values().sum();
        self.unmatched == 0 && self.sent == replied + self.transport_errors
    }

    /// Replies that were `OK`, with the kernel's latency.
    pub fn ok(&self) -> impl Iterator<Item = (&Reply, Duration)> {
        self.replies.iter().filter_map(|r| match r.response {
            Response::Ok { latency_us, .. } => Some((r, Duration::from_micros(latency_us))),
            _ => None,
        })
    }
}

fn kind(r: &Response) -> &'static str {
    match r {
        Response::Ok { .. } => "OK",
        Response::Shed { .. } => "SHED",
        Response::Abandoned => "ABANDONED",
        Response::Dropped => "DROPPED",
        Response::Busy => "BUSY",
        Response::Draining => "DRAINING",
        Response::Timeout => "TIMEOUT",
        Response::Pong => "PONG",
        Response::Bye => "BYE",
        Response::Json(_) => "JSON",
        Response::Err(_) => "ERR",
    }
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pending: VecDeque<Send>,
    open: bool,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn { stream, buf: Vec::new(), pending: VecDeque::new(), open: true })
    }

    fn close(&mut self, run: &mut ClientRun) {
        self.open = false;
        run.transport_errors += self.pending.len() as u64;
        self.pending.clear();
    }

    /// Reads whatever has arrived and matches complete lines, in order, to
    /// the oldest outstanding requests.
    fn read_replies(&mut self, start: Instant, run: &mut ClientRun) {
        let mut chunk = [0u8; 4096];
        while self.open {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.close(run),
                Ok(n) => {
                    let at = start.elapsed();
                    self.buf.extend_from_slice(&chunk[..n]);
                    while let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = self.buf.drain(..=end).collect();
                        let response = parse_response(String::from_utf8_lossy(&line).trim_end());
                        match self.pending.pop_front() {
                            Some(s) => run.replies.push(Reply {
                                rtype: s.rtype,
                                due: s.due,
                                latency: at.saturating_sub(s.due),
                                response,
                            }),
                            None => run.unmatched += 1,
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.close(run),
            }
        }
    }
}

/// Plays `plan` against `addr` and waits up to `reply_wait` after the last
/// send for outstanding replies.
fn drive(addr: SocketAddr, plan: &[Send], reply_wait: Duration) -> io::Result<ClientRun> {
    let mut conns =
        (0..CONNECTIONS).map(|_| Conn::connect(addr)).collect::<io::Result<Vec<_>>>()?;
    let mut run = ClientRun::default();
    let start = Instant::now();
    let give_up = plan.last().map_or(Duration::ZERO, |s| s.due) + reply_wait;
    let mut next = 0;
    loop {
        let now = start.elapsed();
        while next < plan.len() && plan[next].due <= now {
            let send = plan[next];
            // The connection with fewer outstanding requests, as a pooled
            // client would pick; when both are busy the request is
            // pipelined behind the earlier ones.
            let pick = (0..CONNECTIONS)
                .filter(|&i| conns[i].open)
                .min_by_key(|&i| conns[i].pending.len())
                .unwrap_or(0);
            let conn = &mut conns[pick];
            next += 1;
            run.sent += 1;
            run.late_sends += (now.saturating_sub(send.due) > LATE_SEND) as u64;
            let line = format!("RUN {}\n", send.rtype.0);
            if conn.open && conn.stream.write_all(line.as_bytes()).is_ok() {
                conn.pending.push_back(send);
            } else {
                run.transport_errors += 1;
            }
        }
        let in_flight: usize = conns.iter().map(|c| c.pending.len()).sum();
        run.max_in_flight = run.max_in_flight.max(in_flight);
        for c in &mut conns {
            c.read_replies(start, &mut run);
        }
        let in_flight: usize = conns.iter().map(|c| c.pending.len()).sum();
        if next == plan.len() && in_flight == 0 {
            return Ok(run);
        }
        if start.elapsed() >= give_up {
            for c in &mut conns {
                c.close(&mut run);
            }
            return Ok(run);
        }
        let until_due = plan.get(next).map_or(POLL, |s| s.due.saturating_sub(start.elapsed()));
        std::thread::sleep(until_due.min(POLL));
    }
}

/// CPU seconds of the server's threads: the kernel, and the front door
/// (connection workers and acceptor).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCpu {
    pub kernel_s: f64,
    pub front_door_s: f64,
    /// Every thread of the process, client included.
    pub process_s: f64,
}

impl ServerCpu {
    fn since(self, before: ServerCpu) -> ServerCpu {
        ServerCpu {
            kernel_s: self.kernel_s - before.kernel_s,
            front_door_s: self.front_door_s - before.front_door_s,
            process_s: self.process_s - before.process_s,
        }
    }
}

fn server_cpu() -> ServerCpu {
    let mut cpu = ServerCpu::default();
    for (name, s) in host::cpu_by_thread() {
        cpu.process_s += s;
        if name == "mlp-kernel" {
            cpu.kernel_s += s;
        } else if name == "mlp-accept" || name.starts_with("mlp-serve-") {
            cpu.front_door_s += s;
        }
    }
    cpu
}

/// One loopback run.
pub struct LiveRun {
    pub client: ClientRun,
    /// The server's counters (what `STATS` reports) after the load.
    pub stats: StatsSnapshot,
    /// The kernel's output after the drain.
    pub out: SimOutput,
    /// Server CPU used between the first send and the last reply.
    pub cpu: ServerCpu,
    /// Ledger operations, counted in traced runs only.
    pub ledger: Option<LedgerQueryStats>,
    pub window: Duration,
}

/// Starts a server, plays `plan` against it, reads its counters, and
/// stops it. `traced` turns the ledger query counters on for the run.
pub fn run(seed: u64, plan: &[Send], window: Duration, traced: bool) -> io::Result<LiveRun> {
    let server = Server::start(serve_config(seed))?;
    if traced {
        query_stats::reset();
        query_stats::set_enabled(true);
    }
    let before = server_cpu();
    // The client's connections are closed when `drive` returns, which lets
    // the workers exit before the drain.
    let client = drive(server.local_addr(), plan, REQUEST_TIMEOUT + Duration::from_secs(5));
    let cpu = server_cpu().since(before);
    let stats = server.stats();
    let out = server.stop();
    let ledger = traced.then(|| {
        query_stats::set_enabled(false);
        query_stats::snapshot()
    });
    Ok(LiveRun { client: client?, stats, out, cpu, ledger, window })
}

/// `Server::start` until the first `PING` is answered, in seconds.
pub fn time_setup(seed: u64) -> io::Result<f64> {
    let start = Instant::now();
    let server = Server::start(serve_config(seed))?;
    let mut client = Client::connect(&server.local_addr().to_string(), Duration::from_secs(5))?;
    let pong = client.ping();
    let elapsed = start.elapsed().as_secs_f64();
    drop(client);
    server.stop();
    match pong? {
        Response::Pong => Ok(elapsed),
        other => Err(io::Error::other(format!("PING answered with {other:?}"))),
    }
}

/// Client-timed and kernel latencies of the `OK` replies, ms.
fn latencies_ms(run: &LiveRun) -> (Vec<f64>, Vec<f64>) {
    run.client.ok().map(|(r, kernel)| (ms(r.latency), ms(kernel))).unzip()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn check_run(report: &mut Report, run: &LiveRun, label: &str) {
    let c = &run.client;
    report.check(c.accounted(), || {
        format!(
            "{label}: sent {} != replies {:?} + transport errors {} (unmatched replies {})",
            c.sent,
            c.kinds(),
            c.transport_errors,
            c.unmatched
        )
    });
    let violations = run.out.metrics.counter(names::INVARIANT_VIOLATIONS);
    report.check(violations == 0 && run.out.invariant_report.is_none(), || {
        format!(
            "{label}: auditor reported {violations} invariant violations: {}",
            run.out.invariant_report.clone().unwrap_or_default()
        )
    });
}

fn record_percentile(report: &mut Report, name: &'static str, values: &[f64], p: f64, what: &str) {
    match percentile(values, p) {
        Ok(pc) => report.set(
            name,
            pc.value,
            format!("{what} p{p} of {} samples, {} beyond", pc.samples, pc.beyond),
        ),
        Err(e) => report.fail(format!("{name}: {e}")),
    }
}

/// Runs `live_loopback` at `seed` for about `seconds` and records its
/// metrics.
pub fn measure(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    if let Err(e) = measure_runs(seed, seconds, trace, report) {
        report.fail(format!("live run failed: {e}"));
    }
}

fn measure_runs(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> io::Result<()> {
    let catalog = RequestCatalog::paper();
    let window = Duration::from_secs_f64(seconds);
    let sends = plan(seed, RATE_RPS, window, &catalog);
    report.meta("rate_rps", &RATE_RPS);
    report.meta("connections", &CONNECTIONS);
    report.meta("planned_sends", &sends.len());
    if !trace {
        let setups = (0..SETUP_REPS).map(|_| time_setup(seed)).collect::<io::Result<Vec<_>>>()?;
        report.set(
            "setup_s",
            median(&setups),
            format!("Server::start until the first PING is answered, median of {SETUP_REPS}"),
        );
        record_end_to_end(report, &run(seed, &sends, window, false)?, &catalog);
        return Ok(());
    }

    // Traced: an untraced run of the plan's first third gives the baseline
    // p50 for the tracing overhead, then the traced run of the whole plan
    // gives the per-layer numbers.
    let short = window / 3;
    let short_sends: Vec<Send> = sends.iter().copied().filter(|s| s.due < short).collect();
    let untraced = run(seed, &short_sends, short, false)?;
    let traced = run(seed, &sends, window, true)?;
    check_run(report, &untraced, "untraced run");
    record_layers(report, &untraced, &traced, seed, &catalog, window, short);
    Ok(())
}

fn record_end_to_end(report: &mut Report, run: &LiveRun, catalog: &RequestCatalog) {
    check_run(report, run, "live run");
    let c = &run.client;
    let sent = c.sent.max(1) as f64;
    let (client_ms, _) = latencies_ms(run);
    let slow = c.ok().filter(|(r, _)| ms(r.latency) > catalog.request(r.rtype).slo_ms).count();
    let ok = client_ms.len();
    report.attempted = c.sent;
    report.failed = c.sent - ok as u64;
    report.meta("replies", &c.kinds());
    report.meta("transport_errors", &c.transport_errors);
    report.set(
        "host_us_per_req",
        (run.cpu.kernel_s + run.cpu.front_door_s) / sent * 1e6,
        "server-thread CPU (kernel + front door) per sent request",
    );
    record_percentile(
        report,
        "latency_p50_ms",
        &client_ms,
        50.0,
        "client-timed from the due instant (live_p50_ms),",
    );
    record_percentile(
        report,
        "latency_tail_ms",
        &client_ms,
        95.0,
        "client-timed from the due instant (live_p95_ms),",
    );
    report.note(format!(
        "live_slo_miss_rate {} fraction (failed or slower than the type's slo_ms, over {} sent)",
        (c.sent as f64 - ok as f64 + slow as f64) / sent,
        c.sent
    ));
    report.set(
        "goodput_rps",
        (ok - slow) as f64 / run.window.as_secs_f64(),
        "OK replies within SLO per second of load",
    );
    report.note(format!(
        "utilization {} fraction (mean cluster utilization the kernel sampled)",
        run.out.utilization.mean()
    ));
    report.set("peak_rss_mb", host::peak_rss_mb(), "VmHWM of the benchmark process");
    report.note(format!(
        "error_rate {} fraction ({} of {} sent without an OK reply)",
        report.failed as f64 / sent,
        report.failed,
        c.sent
    ));
}

fn record_layers(
    report: &mut Report,
    untraced: &LiveRun,
    traced: &LiveRun,
    seed: u64,
    catalog: &RequestCatalog,
    window: Duration,
    short: Duration,
) {
    check_run(report, traced, "traced run");
    let c = &traced.client;
    let sent = c.sent.max(1) as f64;
    report.attempted = c.sent + untraced.client.sent;
    report.failed = report.attempted - (c.ok().count() + untraced.client.ok().count()) as u64;
    let (client_ms, kernel_ms) = latencies_ms(traced);
    let overhead_ms: Vec<f64> = client_ms.iter().zip(&kernel_ms).map(|(c, k)| c - k).collect();
    let what = "client-timed minus the reply's kernel latency,";
    record_percentile(report, "serve.overhead_p50_ms", &overhead_ms, 50.0, what);
    record_percentile(report, "serve.overhead_p95_ms", &overhead_ms, 95.0, what);
    record_percentile(
        report,
        "serve.kernel_p50_ms",
        &kernel_ms,
        50.0,
        "kernel latency_us from the reply,",
    );
    record_percentile(
        report,
        "serve.kernel_p95_ms",
        &kernel_ms,
        95.0,
        "kernel latency_us from the reply,",
    );
    report.set("serve.busy", traced.stats.busy as f64, "server counters after the load");
    report.set("serve.timeouts", traced.stats.timeouts as f64, "server counters after the load");
    report.set(
        "serve.front_door_cpu_us_per_req",
        traced.cpu.front_door_s / sent * 1e6,
        "connection workers + acceptor CPU",
    );
    report.set(
        "engine.kernel_self_us_per_req",
        traced.cpu.kernel_s / sent * 1e6,
        "kernel thread CPU (kernel and scheduler together)",
    );
    report.set(
        "host.cpu_us_per_req",
        traced.cpu.process_s / sent * 1e6,
        "every thread, client included",
    );
    report.set(
        "loadgen.late_send_frac",
        c.late_sends as f64 / sent,
        format!("sends over {} ms late", LATE_SEND.as_millis()),
    );
    report.set("loadgen.max_in_flight", c.max_in_flight as f64, "");
    if let Some(l) = traced.ledger {
        report.set("ledger.earliest_fit_per_req", l.earliest_fit as f64 / sent, "");
        report.set("ledger.peak_usage_per_req", l.peak_usage as f64 / sent, "");
        report.set("ledger.usage_at_per_req", l.usage_at as f64 / sent, "");
        report.set("ledger.writes_per_req", l.writes as f64 / sent, "");
    }
    let counter = |n: &str| traced.out.metrics.counter(n) as f64 / sent;
    report.set("core.delay_slot_fills_per_req", counter(names::DELAY_SLOT_FILLS), "");
    report.set("core.stretches_per_req", counter(names::RESOURCE_STRETCHES), "");
    report.set("core.queue_switches_per_req", counter(names::QUEUE_SWITCHES), "");
    if let Some(b) = traced.out.collector.mean_breakdown() {
        report.set("model.queue_ms", b.queue_ms, "mean critical-path attribution, kernel ms");
        report.set("model.place_ms", b.placement_ms, "");
        report.set("model.comm_ms", b.comm_ms, "");
        report.set("model.exec_ms", b.exec_ms, "");
        report.set("model.cap_ms", b.cap_ms, "");
    }
    report.set("model.late_frac", traced.out.collector.lateness_stats().0, "");
    report.set("engine.request_table_peak", traced.out.request_table_peak as f64, "");
    report.set(
        "trace.invariant_violations",
        traced.out.metrics.counter(names::INVARIANT_VIOLATIONS) as f64,
        "",
    );

    // Set-up phases, timed directly as the kernel thread and client run them.
    let cfg = serve_config(seed).experiment;
    let median_ms = |f: &dyn Fn()| {
        let times: Vec<f64> = (0..SETUP_REPS)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    };
    let warm = median_ms(&|| {
        black_box(warm_profiles(catalog, cfg.warmup_cases, &mut SimRng::new(seed).fork(2)));
    });
    let build = median_ms(&|| {
        black_box(cfg.build_cluster());
    });
    let generate = median_ms(&|| {
        black_box(plan(seed, RATE_RPS, window, catalog));
    });
    report.set("engine.warm_profiles_ms", warm, "");
    report.set("cluster.build_ms", build, "");
    report.set("workload.generate_ms", generate, "the client's arrival plan");
    report.set("workload.arrivals", c.sent as f64, "");

    // Both p50s over the same requests: those due in the plan's first third.
    let p50 = |run: &LiveRun| {
        median(
            &run.client
                .ok()
                .filter(|(r, _)| r.due < short)
                .map(|(r, _)| ms(r.latency))
                .collect::<Vec<_>>(),
        )
    };
    report.set(
        "trace.overhead_frac",
        p50(traced) / p50(untraced) - 1.0,
        "traced over untraced client p50 of the requests due in the first third, minus 1",
    );
    report.meta("replies", &c.kinds());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_the_seed() {
        let cat = RequestCatalog::paper();
        let w = Duration::from_secs(20);
        let a = plan(1, RATE_RPS, w, &cat);
        assert_eq!(a, plan(1, RATE_RPS, w, &cat));
        assert_ne!(a, plan(2, RATE_RPS, w, &cat));
        assert_eq!(a.len(), 100, "5 req/s over 20 s");
        assert!(a.iter().all(|s| s.due < w));
        // Every seed offers each type its balanced-mix share.
        let count = |p: &[Send]| {
            let mut c: BTreeMap<u32, usize> = BTreeMap::new();
            p.iter().for_each(|s| *c.entry(s.rtype.0).or_insert(0) += 1);
            c
        };
        assert_eq!(count(&a), count(&plan(2, RATE_RPS, w, &cat)));
        let mix = cat.balanced_mix();
        for (id, w) in &mix {
            let n = count(&a)[&id.0] as f64;
            assert!((n - w * 100.0).abs() <= 1.0, "type {id:?}: {n} of 100 at weight {w}");
        }
        assert!(a.windows(2).all(|p| p[0].due <= p[1].due));
    }

    /// A short loopback run: every sent request is accounted for, and the
    /// auditor stays clean.
    #[test]
    fn loopback_accounting_identity_holds() {
        let cat = RequestCatalog::paper();
        let window = Duration::from_secs(3);
        let sends = plan(3, 10.0, window, &cat);
        let run = run(3, &sends, window, false).unwrap();
        assert_eq!(run.client.sent, sends.len() as u64);
        assert!(run.client.accounted(), "{:?}", run.client.kinds());
        assert_eq!(run.client.ok().count() as u64, run.client.sent);
        assert_eq!(run.stats.requests, run.client.sent);
        assert!(run.out.invariant_report.is_none());
    }

    #[test]
    fn accounting_catches_a_lost_or_extra_reply() {
        let reply = Reply {
            rtype: RequestTypeId(0),
            due: Duration::ZERO,
            latency: Duration::ZERO,
            response: Response::Busy,
        };
        let mut c = ClientRun {
            sent: 2,
            replies: vec![reply.clone()],
            transport_errors: 1,
            ..Default::default()
        };
        assert!(c.accounted());
        c.transport_errors = 0;
        assert!(!c.accounted());
        c.replies.push(reply);
        assert!(c.accounted());
        c.unmatched = 1;
        assert!(!c.accounted());
    }
}
