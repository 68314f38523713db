//! Trace collection and end-to-end request accounting.
//!
//! Two retention modes:
//!
//! * **exact** (the default): every [`Span`] and [`RequestRecord`] is kept,
//!   so any statistic can be computed after the fact and fixed-seed figure
//!   runs stay byte-identical. Memory is O(total requests).
//! * **streaming** ([`TraceCollector::streaming`]): records are folded
//!   into O(1) running aggregates on arrival — Welford mean, P² quantile
//!   markers, per-class and per-type counters, breakdown sums. Memory is
//!   O(request types), which is what lets a soak run push millions of
//!   requests through a laptop.

use crate::span::{RequestId, Span};
use mlp_model::{RequestTypeId, VolatilityClass};
use mlp_sim::{SimDuration, SimTime};
use mlp_stats::{Cdf, P2Quantile, Summary};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Critical-path decomposition of one request's end-to-end latency.
///
/// The engine walks the request's critical chain (the dependency path that
/// actually gated completion) and attributes every microsecond of
/// `end − arrival` to exactly one bucket, so the first five components
/// telescope to the measured latency ([`Self::total_ms`]). `healed_ms` is
/// informational — wall-clock the self-healing module reclaimed (it is
/// already absent from the other components, not part of the sum).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Waiting before admission / before a dependency-ready node was
    /// planned to run.
    pub queue_ms: f64,
    /// Scheduler-chosen delay between physical readiness and planned
    /// start (ledger alignment).
    pub placement_ms: f64,
    /// Caller→callee communication on the critical chain.
    pub comm_ms: f64,
    /// Pure execution time (what the spans would have taken uncapped).
    pub exec_ms: f64,
    /// Extra execution time caused by resource capping.
    pub cap_ms: f64,
    /// Wall-clock reclaimed by healing stretches (informational).
    pub healed_ms: f64,
}

impl LatencyBreakdown {
    /// Sum of the attributed components — equals the measured end-to-end
    /// latency (`healed_ms` excluded; it is already reflected in the
    /// shortened execution the other components measure).
    pub fn total_ms(&self) -> f64 {
        self.queue_ms + self.placement_ms + self.comm_ms + self.exec_ms + self.cap_ms
    }
}

/// End-to-end record of one finished request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Request instance.
    pub id: RequestId,
    /// Its type.
    pub request_type: RequestTypeId,
    /// Volatility class of the type (denormalized for cheap filtering).
    pub class: VolatilityClass,
    /// Arrival time.
    pub arrival: SimTime,
    /// Completion time.
    pub end: SimTime,
    /// SLO for this request, ms.
    pub slo_ms: f64,
    /// Critical-path latency attribution (absent in traces recorded
    /// before the field existed).
    #[serde(default)]
    pub breakdown: Option<LatencyBreakdown>,
}

impl RequestRecord {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.end.since(self.arrival)
    }

    /// Whether the request violated its SLO (the QoS metric of Fig 10).
    pub fn violated(&self) -> bool {
        self.latency().as_millis_f64() > self.slo_ms
    }
}

/// Collects spans and request completions for one simulation run and
/// answers the questions the evaluation section asks: latency
/// distributions (Fig 12), tail latency (Fig 13), QoS-violation rates
/// (Fig 10), throughput (Fig 14), and lateness diagnostics.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    spans: Vec<Span>,
    requests: Vec<RequestRecord>,
    /// Streaming-mode aggregates; `None` means exact mode (retain all).
    stream: Option<Box<StreamingStats>>,
}

impl TraceCollector {
    /// Creates an empty collector in exact mode (every record retained).
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// Creates a collector in streaming mode: records are folded into
    /// constant-size aggregates instead of retained, with within-`horizon`
    /// completions counted separately (the throughput numerator). Record-
    /// level queries ([`spans`](Self::spans), [`requests`](Self::requests),
    /// [`completed_where`](Self::completed_where), [`latency_cdf`](Self::latency_cdf))
    /// see nothing in this mode; use [`streaming`](Self::streaming_stats)
    /// for the aggregate view.
    pub fn streaming(horizon: SimTime) -> Self {
        TraceCollector {
            spans: Vec::new(),
            requests: Vec::new(),
            stream: Some(Box::new(StreamingStats::new(horizon))),
        }
    }

    /// The streaming aggregates, when in streaming mode.
    pub fn streaming_stats(&self) -> Option<&StreamingStats> {
        self.stream.as_deref()
    }

    /// Whether this collector folds instead of retains.
    pub fn is_streaming(&self) -> bool {
        self.stream.is_some()
    }

    /// Approximate bytes of trace state currently held in memory. Exact
    /// mode grows with the run; streaming mode stays flat (the soak bench
    /// records this to prove it).
    pub fn approx_retained_bytes(&self) -> usize {
        let base = std::mem::size_of::<TraceCollector>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
            + self.requests.capacity() * std::mem::size_of::<RequestRecord>();
        match &self.stream {
            None => base,
            Some(s) => {
                base + std::mem::size_of::<StreamingStats>()
                    + s.types.len()
                        * (std::mem::size_of::<TypeAgg>()
                            + std::mem::size_of::<RequestTypeId>()
                            + 32)
            }
        }
    }

    /// Records one completed span.
    pub fn record_span(&mut self, span: Span) {
        match &mut self.stream {
            Some(s) => s.fold_span(&span),
            None => self.spans.push(span),
        }
    }

    /// Records one completed request.
    pub fn record_request(&mut self, rec: RequestRecord) {
        match &mut self.stream {
            Some(s) => s.fold_request(&rec),
            None => self.requests.push(rec),
        }
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All completed requests.
    pub fn requests(&self) -> &[RequestRecord] {
        &self.requests
    }

    /// Number of completed requests (throughput numerator: "the number of
    /// finished requests within certain scheduling period").
    pub fn completed(&self) -> usize {
        match &self.stream {
            Some(s) => s.completed,
            None => self.requests.len(),
        }
    }

    /// Number of completed requests matching a predicate.
    pub fn completed_where(&self, mut pred: impl FnMut(&RequestRecord) -> bool) -> usize {
        self.requests.iter().filter(|r| pred(r)).count()
    }

    /// Mean critical-path latency attribution over completed requests that
    /// carry a breakdown. `None` when no request has one (attribution off
    /// or no completions).
    pub fn mean_breakdown(&self) -> Option<LatencyBreakdown> {
        if let Some(s) = &self.stream {
            return s.mean_breakdown();
        }
        let mut acc = LatencyBreakdown::default();
        let mut n = 0usize;
        for b in self.requests.iter().filter_map(|r| r.breakdown.as_ref()) {
            acc.queue_ms += b.queue_ms;
            acc.placement_ms += b.placement_ms;
            acc.comm_ms += b.comm_ms;
            acc.exec_ms += b.exec_ms;
            acc.cap_ms += b.cap_ms;
            acc.healed_ms += b.healed_ms;
            n += 1;
        }
        if n == 0 {
            return None;
        }
        let inv = 1.0 / n as f64;
        acc.queue_ms *= inv;
        acc.placement_ms *= inv;
        acc.comm_ms *= inv;
        acc.exec_ms *= inv;
        acc.cap_ms *= inv;
        acc.healed_ms *= inv;
        Some(acc)
    }

    /// Fraction of completed requests that violated their SLO, optionally
    /// restricted to one volatility class.
    pub fn violation_rate(&self, class: Option<VolatilityClass>) -> f64 {
        if let Some(s) = &self.stream {
            return s.violation_rate(class);
        }
        let (mut total, mut bad) = (0usize, 0usize);
        for r in &self.requests {
            if class.is_none_or(|c| r.class == c) {
                total += 1;
                if r.violated() {
                    bad += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        }
    }

    /// Latency CDF (ms), optionally restricted to one volatility class.
    pub fn latency_cdf(&self, class: Option<VolatilityClass>) -> Cdf {
        let mut cdf = Cdf::new();
        for r in &self.requests {
            if class.is_none_or(|c| r.class == c) {
                cdf.record(r.latency().as_millis_f64());
            }
        }
        cdf
    }

    /// The `p`-percentile latency in ms (e.g. 99.0 for the tail of Fig 13);
    /// `None` when no matching requests completed. Streaming mode answers
    /// from its P² estimators, which track p50/p90/p99 overall and p99 per
    /// class; other combinations return `None` there.
    pub fn latency_percentile(&self, p: f64, class: Option<VolatilityClass>) -> Option<f64> {
        if let Some(s) = &self.stream {
            return s.latency_percentile(p, class);
        }
        self.latency_cdf(class).percentile(p)
    }

    /// Fraction of spans that started later than planned, and their mean
    /// lateness (ms) — how disturbed the schedule was.
    pub fn lateness_stats(&self) -> (f64, f64) {
        if let Some(s) = &self.stream {
            return s.lateness_stats();
        }
        if self.spans.is_empty() {
            return (0.0, 0.0);
        }
        let late: Vec<&Span> = self.spans.iter().filter(|s| s.was_late()).collect();
        let frac = late.len() as f64 / self.spans.len() as f64;
        let mean = if late.is_empty() {
            0.0
        } else {
            late.iter().map(|s| s.lateness().as_millis_f64()).sum::<f64>() / late.len() as f64
        };
        (frac, mean)
    }

    /// Per-request-type end-to-end statistics: `(type, completed,
    /// violation fraction, p50 ms, p99 ms)`, sorted by type id. The
    /// per-type view behind Table V's category rows.
    pub fn per_type_stats(&self) -> Vec<(RequestTypeId, usize, f64, f64, f64)> {
        if let Some(s) = &self.stream {
            return s.per_type_stats();
        }
        let mut by_type: HashMap<RequestTypeId, Vec<&RequestRecord>> = HashMap::new();
        for r in &self.requests {
            by_type.entry(r.request_type).or_default().push(r);
        }
        let mut out: Vec<_> = by_type
            .into_iter()
            .map(|(ty, recs)| {
                let n = recs.len();
                let viol = recs.iter().filter(|r| r.violated()).count() as f64 / n as f64;
                let mut cdf = Cdf::new();
                for r in &recs {
                    cdf.record(r.latency().as_millis_f64());
                }
                let p50 = cdf.percentile(50.0).unwrap_or(0.0);
                let p99 = cdf.percentile(99.0).unwrap_or(0.0);
                (ty, n, viol, p50, p99)
            })
            .collect();
        out.sort_by_key(|(ty, ..)| *ty);
        out
    }

    /// Fraction of spans that ran resource-capped (contention indicator).
    pub fn capped_fraction(&self) -> f64 {
        if let Some(s) = &self.stream {
            return s.capped_fraction();
        }
        if self.spans.is_empty() {
            return 0.0;
        }
        self.spans.iter().filter(|s| s.was_capped()).count() as f64 / self.spans.len() as f64
    }
}

fn class_idx(c: VolatilityClass) -> usize {
    match c {
        VolatilityClass::Low => 0,
        VolatilityClass::Mid => 1,
        VolatilityClass::High => 2,
    }
}

/// Per-volatility-class streaming aggregates.
#[derive(Debug, Clone)]
struct ClassAgg {
    total: usize,
    violated: usize,
    p99: P2Quantile,
}

impl ClassAgg {
    fn new() -> Self {
        ClassAgg { total: 0, violated: 0, p99: P2Quantile::new(0.99) }
    }
}

/// Per-request-type streaming aggregates.
#[derive(Debug, Clone)]
struct TypeAgg {
    count: usize,
    violated: usize,
    latency: Summary,
    p50: P2Quantile,
    p99: P2Quantile,
}

impl TypeAgg {
    fn new() -> Self {
        TypeAgg {
            count: 0,
            violated: 0,
            latency: Summary::new(),
            p50: P2Quantile::new(0.50),
            p99: P2Quantile::new(0.99),
        }
    }
}

/// Constant-memory request/span statistics: what a streaming-mode
/// [`TraceCollector`] holds instead of the records themselves.
///
/// Counts are exact (completions, violations, horizon splits, breakdown
/// sums via plain accumulation; mean/variance via Welford's update inside
/// [`Summary`]); quantiles are P² five-marker estimates. Everything is
/// O(1) per record and O(request types) total.
#[derive(Debug, Clone)]
pub struct StreamingStats {
    horizon: SimTime,
    completed: usize,
    completed_in_horizon: usize,
    good_in_horizon: usize,
    violated: usize,
    latency: Summary,
    p50: P2Quantile,
    p90: P2Quantile,
    p99: P2Quantile,
    class: [ClassAgg; 3],
    types: BTreeMap<RequestTypeId, TypeAgg>,
    breakdown_sum: LatencyBreakdown,
    breakdown_n: usize,
    spans_total: usize,
    spans_late: usize,
    lateness_sum_ms: f64,
    spans_capped: usize,
}

impl StreamingStats {
    fn new(horizon: SimTime) -> Self {
        StreamingStats {
            horizon,
            completed: 0,
            completed_in_horizon: 0,
            good_in_horizon: 0,
            violated: 0,
            latency: Summary::new(),
            p50: P2Quantile::new(0.50),
            p90: P2Quantile::new(0.90),
            p99: P2Quantile::new(0.99),
            class: [ClassAgg::new(), ClassAgg::new(), ClassAgg::new()],
            types: BTreeMap::new(),
            breakdown_sum: LatencyBreakdown::default(),
            breakdown_n: 0,
            spans_total: 0,
            spans_late: 0,
            lateness_sum_ms: 0.0,
            spans_capped: 0,
        }
    }

    fn fold_span(&mut self, span: &Span) {
        self.spans_total += 1;
        if span.was_late() {
            self.spans_late += 1;
            self.lateness_sum_ms += span.lateness().as_millis_f64();
        }
        if span.was_capped() {
            self.spans_capped += 1;
        }
    }

    fn fold_request(&mut self, rec: &RequestRecord) {
        let lat = rec.latency().as_millis_f64();
        let violated = rec.violated();
        self.completed += 1;
        if rec.end <= self.horizon {
            self.completed_in_horizon += 1;
            if !violated {
                self.good_in_horizon += 1;
            }
        }
        if violated {
            self.violated += 1;
        }
        self.latency.record(lat);
        self.p50.record(lat);
        self.p90.record(lat);
        self.p99.record(lat);
        let c = &mut self.class[class_idx(rec.class)];
        c.total += 1;
        if violated {
            c.violated += 1;
        }
        c.p99.record(lat);
        let t = self.types.entry(rec.request_type).or_insert_with(TypeAgg::new);
        t.count += 1;
        if violated {
            t.violated += 1;
        }
        t.latency.record(lat);
        t.p50.record(lat);
        t.p99.record(lat);
        if let Some(b) = &rec.breakdown {
            self.breakdown_sum.queue_ms += b.queue_ms;
            self.breakdown_sum.placement_ms += b.placement_ms;
            self.breakdown_sum.comm_ms += b.comm_ms;
            self.breakdown_sum.exec_ms += b.exec_ms;
            self.breakdown_sum.cap_ms += b.cap_ms;
            self.breakdown_sum.healed_ms += b.healed_ms;
            self.breakdown_n += 1;
        }
    }

    /// Completed requests.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Completions with `end <= horizon` (throughput numerator).
    pub fn completed_in_horizon(&self) -> usize {
        self.completed_in_horizon
    }

    /// Within-horizon completions that also met their SLO (goodput).
    pub fn good_in_horizon(&self) -> usize {
        self.good_in_horizon
    }

    /// Completed-and-violated count (excludes unfinished requests, which
    /// the engine accounts separately).
    pub fn violated(&self) -> usize {
        self.violated
    }

    /// Mean end-to-end latency, ms.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latency.count() == 0 {
            0.0
        } else {
            self.latency.mean()
        }
    }

    fn violation_rate(&self, class: Option<VolatilityClass>) -> f64 {
        let (total, bad) = match class {
            None => (self.completed, self.violated),
            Some(c) => {
                let a = &self.class[class_idx(c)];
                (a.total, a.violated)
            }
        };
        if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        }
    }

    fn latency_percentile(&self, p: f64, class: Option<VolatilityClass>) -> Option<f64> {
        match class {
            None => {
                let est = if (p - 50.0).abs() < 1e-9 {
                    &self.p50
                } else if (p - 90.0).abs() < 1e-9 {
                    &self.p90
                } else if (p - 99.0).abs() < 1e-9 {
                    &self.p99
                } else {
                    return None;
                };
                est.estimate()
            }
            Some(c) if (p - 99.0).abs() < 1e-9 => self.class[class_idx(c)].p99.estimate(),
            Some(_) => None,
        }
    }

    fn mean_breakdown(&self) -> Option<LatencyBreakdown> {
        if self.breakdown_n == 0 {
            return None;
        }
        let inv = 1.0 / self.breakdown_n as f64;
        Some(LatencyBreakdown {
            queue_ms: self.breakdown_sum.queue_ms * inv,
            placement_ms: self.breakdown_sum.placement_ms * inv,
            comm_ms: self.breakdown_sum.comm_ms * inv,
            exec_ms: self.breakdown_sum.exec_ms * inv,
            cap_ms: self.breakdown_sum.cap_ms * inv,
            healed_ms: self.breakdown_sum.healed_ms * inv,
        })
    }

    fn lateness_stats(&self) -> (f64, f64) {
        if self.spans_total == 0 {
            return (0.0, 0.0);
        }
        let frac = self.spans_late as f64 / self.spans_total as f64;
        let mean =
            if self.spans_late == 0 { 0.0 } else { self.lateness_sum_ms / self.spans_late as f64 };
        (frac, mean)
    }

    fn capped_fraction(&self) -> f64 {
        if self.spans_total == 0 {
            0.0
        } else {
            self.spans_capped as f64 / self.spans_total as f64
        }
    }

    fn per_type_stats(&self) -> Vec<(RequestTypeId, usize, f64, f64, f64)> {
        self.types
            .iter()
            .map(|(&ty, a)| {
                let viol = if a.count == 0 { 0.0 } else { a.violated as f64 / a.count as f64 };
                (
                    ty,
                    a.count,
                    viol,
                    a.p50.estimate().unwrap_or(0.0),
                    a.p99.estimate().unwrap_or(0.0),
                )
            })
            .collect()
    }

    /// Spans folded so far.
    pub fn spans_total(&self) -> usize {
        self.spans_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_cluster::MachineId;
    use mlp_model::ServiceId;

    fn req(
        id: u64,
        class: VolatilityClass,
        arrival_ms: u64,
        end_ms: u64,
        slo: f64,
    ) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            request_type: RequestTypeId(0),
            class,
            arrival: SimTime::from_millis(arrival_ms),
            end: SimTime::from_millis(end_ms),
            slo_ms: slo,
            breakdown: None,
        }
    }

    fn span(service: u32, start: u64, end: u64, planned: u64, sat: f64) -> Span {
        Span {
            request: RequestId(0),
            request_type: RequestTypeId(0),
            service: ServiceId(service),
            dag_node: 0,
            machine: MachineId(0),
            planned_start: SimTime::from_millis(planned),
            start: SimTime::from_millis(start),
            end: SimTime::from_millis(end),
            satisfaction: sat,
        }
    }

    #[test]
    fn violation_rate_by_class() {
        let mut c = TraceCollector::new();
        c.record_request(req(1, VolatilityClass::High, 0, 100, 50.0)); // violated
        c.record_request(req(2, VolatilityClass::High, 0, 30, 50.0)); // ok
        c.record_request(req(3, VolatilityClass::Low, 0, 10, 50.0)); // ok
        assert!((c.violation_rate(None) - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.violation_rate(Some(VolatilityClass::High)) - 0.5).abs() < 1e-12);
        assert_eq!(c.violation_rate(Some(VolatilityClass::Low)), 0.0);
        assert_eq!(c.violation_rate(Some(VolatilityClass::Mid)), 0.0);
    }

    #[test]
    fn latency_percentiles() {
        let mut c = TraceCollector::new();
        for i in 1..=100u64 {
            c.record_request(req(i, VolatilityClass::Mid, 0, i, 1e9));
        }
        assert_eq!(c.latency_percentile(50.0, None), Some(50.0));
        assert_eq!(c.latency_percentile(99.0, None), Some(99.0));
        assert_eq!(c.latency_percentile(99.0, Some(VolatilityClass::High)), None);
    }

    #[test]
    fn lateness_and_capping() {
        let mut c = TraceCollector::new();
        c.record_span(span(1, 10, 20, 10, 1.0)); // on time, uncapped
        c.record_span(span(1, 15, 30, 10, 0.5)); // 5ms late, capped
        c.record_span(span(2, 8, 20, 10, 1.0)); // early
        let (frac, mean) = c.lateness_stats();
        assert!((frac - 1.0 / 3.0).abs() < 1e-12);
        assert!((mean - 5.0).abs() < 1e-12);
        assert!((c.capped_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_type_stats_partition_requests() {
        let mut c = TraceCollector::new();
        for i in 0..10u64 {
            let ty = RequestTypeId((i % 2) as u32);
            c.record_request(RequestRecord {
                id: RequestId(i),
                request_type: ty,
                class: VolatilityClass::Low,
                arrival: SimTime::ZERO,
                end: SimTime::from_millis(10 + i * 10),
                slo_ms: 55.0,
                breakdown: None,
            });
        }
        let stats = c.per_type_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, RequestTypeId(0));
        assert_eq!(stats[0].1 + stats[1].1, 10);
        // Latencies 10..100ms, slo 55: some of each type violate.
        assert!(stats.iter().all(|s| s.2 > 0.0 && s.2 < 1.0));
        assert!(stats.iter().all(|s| s.3 <= s.4));
    }

    #[test]
    fn empty_collector_is_calm() {
        let c = TraceCollector::new();
        assert_eq!(c.completed(), 0);
        assert_eq!(c.violation_rate(None), 0.0);
        assert_eq!(c.lateness_stats(), (0.0, 0.0));
        assert_eq!(c.capped_fraction(), 0.0);
        assert_eq!(c.latency_percentile(50.0, None), None);
    }

    /// Feeds the same records through both modes and checks the streaming
    /// aggregates agree with the exact answers (exactly for counts and
    /// means, approximately for P² quantiles).
    #[test]
    fn streaming_mode_matches_exact_aggregates() {
        let horizon = SimTime::from_millis(60);
        let mut exact = TraceCollector::new();
        let mut stream = TraceCollector::streaming(horizon);
        for i in 1..=200u64 {
            let class = match i % 3 {
                0 => VolatilityClass::Low,
                1 => VolatilityClass::Mid,
                _ => VolatilityClass::High,
            };
            let mut r = req(i, class, 0, i % 100, 50.0);
            r.request_type = RequestTypeId((i % 2) as u32);
            r.breakdown = Some(LatencyBreakdown {
                queue_ms: 1.0,
                placement_ms: 2.0,
                comm_ms: 3.0,
                exec_ms: (i % 100) as f64 - 6.0,
                cap_ms: 0.0,
                healed_ms: 0.5,
            });
            exact.record_request(r);
            stream.record_request(r);
            let s = span(
                1,
                10,
                20,
                if i % 4 == 0 { 5 } else { 10 },
                if i % 5 == 0 { 0.5 } else { 1.0 },
            );
            exact.record_span(s);
            stream.record_span(s);
        }
        assert!(stream.is_streaming() && !exact.is_streaming());
        assert_eq!(stream.completed(), exact.completed());
        assert_eq!(stream.violation_rate(None), exact.violation_rate(None));
        for c in [VolatilityClass::Low, VolatilityClass::Mid, VolatilityClass::High] {
            assert_eq!(stream.violation_rate(Some(c)), exact.violation_rate(Some(c)));
        }
        assert_eq!(stream.lateness_stats(), exact.lateness_stats());
        assert_eq!(stream.capped_fraction(), exact.capped_fraction());
        let (se, ee) = (stream.mean_breakdown().unwrap(), exact.mean_breakdown().unwrap());
        assert!((se.total_ms() - ee.total_ms()).abs() < 1e-9);
        assert!((se.healed_ms - ee.healed_ms).abs() < 1e-9);
        let ss = stream.streaming_stats().unwrap();
        assert_eq!(
            ss.completed_in_horizon(),
            exact.completed_where(|r| r.end <= horizon),
            "horizon split must be exact"
        );
        assert_eq!(
            ss.good_in_horizon(),
            exact.completed_where(|r| r.end <= horizon && !r.violated()),
        );
        let exact_mean = exact.latency_cdf(None).mean();
        assert!((ss.mean_latency_ms() - exact_mean).abs() < 1e-9, "Welford mean must be exact");
        // P² estimates: approximate, but close on a smooth distribution.
        let p50e = exact.latency_percentile(50.0, None).unwrap();
        let p50s = stream.latency_percentile(50.0, None).unwrap();
        assert!((p50s - p50e).abs() < 10.0, "p50 stream {p50s} vs exact {p50e}");
        // Per-type partition survives folding.
        let st = stream.per_type_stats();
        let et = exact.per_type_stats();
        assert_eq!(st.len(), et.len());
        for (s, e) in st.iter().zip(&et) {
            assert_eq!(s.0, e.0);
            assert_eq!(s.1, e.1, "per-type counts must be exact");
            assert!((s.2 - e.2).abs() < 1e-12, "per-type violation fractions must be exact");
        }
        // Streaming retains no records and stays flat-memory.
        assert!(stream.requests().is_empty() && stream.spans().is_empty());
        assert!(stream.approx_retained_bytes() < 16 * 1024);
        assert!(exact.approx_retained_bytes() > stream.approx_retained_bytes());
    }
}
