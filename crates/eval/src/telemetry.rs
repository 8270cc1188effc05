//! Per-request service observability: structured spans, deterministic
//! log-bucketed histograms, and the wire renderers behind the `STATS`
//! and `METRICS` verbs.
//!
//! The paper's claim — communication-scheduling decisions dominate the
//! achieved II — is only auditable in a running service if every request
//! can say where its time and attempts went. This module is the memory
//! between the scheduler's [`TraceEvent`] stream and the wire:
//!
//! - a [`RequestSpan`] per request with stage timings
//!   (read/parse/cache-probe/schedule/journal/respond), attempts spent,
//!   the retry-ladder rung reached, the cache disposition, and a
//!   reject-reason rollup, all read from the scheduler's
//!   [`AnytimeReport`](csched_core::AnytimeReport) (a `TRACE` request
//!   also retains its events in a [`TraceCapture`]);
//! - a fixed-capacity deterministic ring of recent spans (oldest
//!   evicted first, capacity fixed at construction — never reallocates
//!   under load);
//! - [`Histogram`]: HDR-style log-bucketed counters over pure integers,
//!   so identical recorded values render byte-identical JSON on every
//!   run and platform;
//! - [`Telemetry`]: the service's one ledger. It counts each finished
//!   request once, by outcome
//!   (`ok|degraded|overload|deadline|sched|malformed|internal`), and
//!   renders both the `STATS` counters and the
//!   [`metrics_json`](Telemetry::metrics_json) line with its
//!   Prometheus-style [`prometheus`](Telemetry::prometheus) text
//!   exposition, plus [`validate_prometheus`] so CI can check the
//!   exposition's line grammar without a Prometheus install.
//!
//! Everything here is integer arithmetic and preallocated storage: the
//! hot path ([`Telemetry::record`]) is a mutex, a ring push, and a few
//! array increments.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use csched_core::trace::{decision_filter, RejectReason, TraceEvent, TraceSink};

use crate::jsonl::{elements, field, members, num, num_field, str_field};

// ---------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------

/// How a request ended, from the aggregation's point of view.
///
/// `Degraded` is split out of `Ok` (unlike the `STATS` counters, where
/// `degraded` subsets `ok`) because the step limit shaped a degraded
/// answer, and how such answers differ from full-effort ones is exactly
/// what the histogram split exists to expose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Full-quality `OK`, warm or cold.
    Ok,
    /// `OK` whose schedule the step limit shaped (it cut the scheduler's
    /// per-II effort), whether computed now or served from the cache.
    Degraded,
    /// Shed by admission control before reaching a worker.
    Overload,
    /// Deadline expired with nothing to return.
    Deadline,
    /// Typed scheduling failure.
    Sched,
    /// Parse, framing, or read-phase failure.
    Malformed,
    /// Cache I/O or invariant break.
    Internal,
}

impl Outcome {
    /// Every outcome, in the fixed rendering order.
    pub const ALL: [Outcome; 7] = [
        Outcome::Ok,
        Outcome::Degraded,
        Outcome::Overload,
        Outcome::Deadline,
        Outcome::Sched,
        Outcome::Malformed,
        Outcome::Internal,
    ];

    /// Stable lower-case label used in JSON keys and Prometheus labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::Overload => "overload",
            Outcome::Deadline => "deadline",
            Outcome::Sched => "sched",
            Outcome::Malformed => "malformed",
            Outcome::Internal => "internal",
        }
    }

    fn index(self) -> usize {
        match self {
            Outcome::Ok => 0,
            Outcome::Degraded => 1,
            Outcome::Overload => 2,
            Outcome::Deadline => 3,
            Outcome::Sched => 4,
            Outcome::Malformed => 5,
            Outcome::Internal => 6,
        }
    }
}

/// What the schedule cache said about a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served warm from the cache.
    Hit,
    /// Cold: went to the scheduler (and was journaled on success).
    Miss,
    /// The request deliberately skipped the cache (`TRACE` always
    /// schedules fresh so its event stream is never empty).
    Bypass,
    /// The request never reached the cache probe (shed, malformed, or a
    /// non-schedule verb).
    None,
}

impl CacheDisposition {
    /// Stable label for JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Bypass => "bypass",
            CacheDisposition::None => "none",
        }
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Microseconds spent in each stage of one request's life. Stages a
/// request never reached stay zero; the stages it did reach sum to no
/// more than the request's total wall time (they nest inside it, never
/// overlap it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Reading the header and body sections off the socket.
    pub read_us: u64,
    /// Parsing the kernel and machine texts.
    pub parse_us: u64,
    /// Probing the schedule cache (lock + lookup).
    pub cache_us: u64,
    /// Scheduling (the anytime ladder, validation included).
    pub sched_us: u64,
    /// Journaling the result (lock + append + optional fsync).
    pub journal_us: u64,
    /// Writing the response back.
    pub respond_us: u64,
}

/// One request's structured record: identity, outcome, stage timings,
/// and the scheduler-side rollup of its anytime report.
#[derive(Clone, Debug)]
pub struct RequestSpan {
    /// Monotonic per-server request id (also injected into `TRACE`
    /// event lines as the `"req"` key).
    pub id: u64,
    /// Wire verb (`"SCHED"`, `"TRACE"`), empty for a request that names
    /// neither (an empty connection, an unknown verb, a failed header
    /// read).
    pub verb: &'static str,
    /// Kernel name, empty until parsed.
    pub kernel: String,
    /// How the request ended.
    pub outcome: Outcome,
    /// What the cache said.
    pub cache: CacheDisposition,
    /// Per-stage timings.
    pub stages: StageTimes,
    /// Total wall time of the request, microseconds.
    pub total_us: u64,
    /// Placement attempts charged against the budget.
    pub attempts: u64,
    /// Retry-ladder rung that produced the answer (0 = first rung).
    pub rung: u32,
    /// Placement rejects by [`RejectReason`], in declaration order
    /// (timing, issue_slot, read_permutation, write_permutation,
    /// closing).
    pub rejects: [u64; 5],
    /// Budget stops (the trace stream's `deadline_exceeded` events).
    pub deadline_events: u64,
    /// Achieved loop II (0 = none/straight-line/failed).
    pub ii: u32,
    /// `true` when the step limit shaped the answer
    /// ([`AnytimeReport::degraded`](csched_core::AnytimeReport::degraded)).
    pub degraded: bool,
    /// Binding constraint from [`mod@csched_core::explain`]
    /// (`"recurrence"|"resource"|"transport"|"straightline"`), empty
    /// when no schedule was produced or the answer came from the cache.
    pub binding: &'static str,
}

impl RequestSpan {
    /// A fresh span for request `id`; every field starts at its "never
    /// happened" value.
    pub fn new(id: u64, verb: &'static str) -> Self {
        RequestSpan {
            id,
            verb,
            kernel: String::new(),
            outcome: Outcome::Internal,
            cache: CacheDisposition::None,
            stages: StageTimes::default(),
            total_us: 0,
            attempts: 0,
            rung: 0,
            rejects: [0; 5],
            deadline_events: 0,
            ii: 0,
            degraded: false,
            binding: "",
        }
    }

    /// Deterministic JSON object for this span (fixed key order, pure
    /// integers and escaped strings).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"verb\":\"{}\",\"kernel\":\"{}\",\"outcome\":\"{}\",\
             \"cache\":\"{}\",\"total_us\":{},\"read_us\":{},\"parse_us\":{},\
             \"cache_us\":{},\"sched_us\":{},\"journal_us\":{},\"respond_us\":{},\
             \"attempts\":{},\"rung\":{},\"rejects\":[{},{},{},{},{}],\
             \"deadline_events\":{},\"ii\":{},\"degraded\":{},\"binding\":\"{}\"}}",
            self.id,
            self.verb,
            csched_core::trace::json_escape(&self.kernel),
            self.outcome.as_str(),
            self.cache.as_str(),
            self.total_us,
            self.stages.read_us,
            self.stages.parse_us,
            self.stages.cache_us,
            self.stages.sched_us,
            self.stages.journal_us,
            self.stages.respond_us,
            self.attempts,
            self.rung,
            self.rejects[0],
            self.rejects[1],
            self.rejects[2],
            self.rejects[3],
            self.rejects[4],
            self.deadline_events,
            self.ii,
            u8::from(self.degraded),
            self.binding,
        )
    }
}

/// Microseconds since `start`, saturated into a `u64`.
pub fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Trace capture: bounded event retention
// ---------------------------------------------------------------------

/// A [`TraceSink`] that retains the first `cap` events of a `TRACE`
/// request for wire streaming. The span's reject and rung rollup comes
/// from the scheduler's report, not from here.
///
/// Retention keeps the *first* events rather than the last: a `TRACE`
/// client's cap bounds how much a worker will ever write back, and the
/// head of the stream is where the schedule's decision structure lives
/// (the tail of a capped stream is mid-search noise). `total()` and
/// [`truncated`](TraceCapture::truncated) quantify what the cap
/// dropped; a zero cap retains nothing and still counts every event.
#[derive(Debug)]
pub struct TraceCapture {
    cap: usize,
    filter: Option<fn(&TraceEvent) -> bool>,
    events: Vec<TraceEvent>,
    total: u64,
}

impl TraceCapture {
    /// Retention of the first `cap` events; `full` retains every event
    /// kind, otherwise only the stable decision-level stream
    /// ([`decision_filter`]) is retained.
    pub fn capture(cap: usize, full: bool) -> Self {
        TraceCapture {
            cap,
            filter: if full { None } else { Some(decision_filter) },
            events: Vec::with_capacity(cap.min(1024)),
            total: 0,
        }
    }

    /// The retained events, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that passed the retention filter (retained or not).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` when the cap dropped at least one filtered event.
    pub fn truncated(&self) -> bool {
        self.total > self.events.len() as u64
    }
}

impl TraceSink for TraceCapture {
    fn event(&mut self, event: TraceEvent) {
        if let Some(f) = self.filter {
            if !f(&event) {
                return;
            }
        }
        self.total += 1;
        if self.events.len() < self.cap {
            self.events.push(event);
        }
    }
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

/// Number of buckets: 16 exact unit buckets for 0..16, then four
/// sub-buckets per power of two up to `u64::MAX`.
const NUM_BUCKETS: usize = 16 + (64 - 4) * 4;

/// An HDR-style log-bucketed integer histogram.
///
/// Values 0..16 land in exact unit buckets; larger values land in one
/// of four sub-buckets per octave (relative error ≤ 25%, ≤ 12.5% above
/// 32). Everything is pure integer arithmetic over a fixed bucket
/// array, so the same recorded multiset renders byte-identical output
/// on every run, platform, and compiler — the property the golden
/// `METRICS` test and the determinism proptest pin.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0; NUM_BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index `value` lands in.
    pub fn bucket_index(value: u64) -> usize {
        if value < 16 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (msb - 2)) & 3) as usize;
        16 + (msb - 4) * 4 + sub
    }

    /// The smallest value that lands in bucket `index`.
    pub fn bucket_lo(index: usize) -> u64 {
        if index < 16 {
            return index as u64;
        }
        let octave = (index - 16) / 4 + 4;
        let sub = ((index - 16) % 4) as u64;
        (1u64 << octave) + (sub << (octave - 2))
    }

    /// The largest value that lands in bucket `index`.
    pub fn bucket_hi(index: usize) -> u64 {
        if index + 1 >= NUM_BUCKETS {
            return u64::MAX;
        }
        Histogram::bucket_lo(index + 1) - 1
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Occupied buckets as `(bucket_lo, count)` pairs, ascending.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Histogram::bucket_lo(i), c))
            .collect()
    }

    /// An upper bound for the `q`-quantile (0 ≤ q ≤ 100), from the
    /// bucket the rank falls in. 0 when empty.
    pub fn quantile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, rounding up.
        let rank = (self.count * q.min(100)).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Deterministic sparse JSON: `{"count":N,"sum":S,"max":M,`
    /// `"buckets":[[lo,count],...]}` with ascending `lo`.
    pub fn to_json(&self) -> String {
        let buckets = self
            .nonzero()
            .iter()
            .map(|(lo, c)| format!("[{lo},{c}]"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[{buckets}]}}",
            self.count, self.sum, self.max
        )
    }
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

struct TelemetryInner {
    next_id: u64,
    ring_cap: usize,
    ring: VecDeque<RequestSpan>,
    latency: Vec<Histogram>,
    attempts: Vec<Histogram>,
    counts: [u64; Outcome::ALL.len()],
    /// `OK` requests answered from the cache.
    hits: u64,
    rejects: [u64; 5],
    deadline_events: u64,
    trace_requests: u64,
    trace_events_streamed: u64,
}

/// The service's one ledger: every finished request is counted here
/// once, by [`record`](Telemetry::record), into per-outcome counts,
/// latency/attempts histograms and a span ring behind one mutex. `STATS`
/// and `METRICS` both render from it. The acceptor's two counts
/// (connections accepted, connections whose socket timeouts could not
/// be armed) are atomics, so accepting takes no lock.
///
/// The schema version below covers the `METRICS` JSON *and* the
/// Prometheus exposition; bump it when either changes shape.
pub struct Telemetry {
    inner: Mutex<TelemetryInner>,
    started: Instant,
    connections: AtomicU64,
    timeout_config_failures: AtomicU64,
}

/// Version of the `METRICS` JSON schema (also exported by `STATS`).
pub const METRICS_SCHEMA: u32 = 1;

impl Telemetry {
    /// A store whose span ring holds the most recent `ring_cap`
    /// requests.
    pub fn new(ring_cap: usize) -> Self {
        Telemetry {
            inner: Mutex::new(TelemetryInner {
                next_id: 1,
                ring_cap,
                ring: VecDeque::with_capacity(ring_cap),
                latency: (0..Outcome::ALL.len()).map(|_| Histogram::new()).collect(),
                attempts: (0..Outcome::ALL.len()).map(|_| Histogram::new()).collect(),
                counts: [0; Outcome::ALL.len()],
                hits: 0,
                rejects: [0; 5],
                deadline_events: 0,
                trace_requests: 0,
                trace_events_streamed: 0,
            }),
            started: Instant::now(),
            connections: AtomicU64::new(0),
            timeout_config_failures: AtomicU64::new(0),
        }
    }

    /// Counts one accepted connection, shed or not.
    pub(crate) fn connection_accepted(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection closed because its socket timeouts could
    /// not be armed.
    pub(crate) fn timeout_config_failed(&self) {
        self.timeout_config_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Allocates the next request id (monotonic from 1).
    pub fn next_request_id(&self) -> u64 {
        match self.inner.lock() {
            Ok(mut inner) => {
                let id = inner.next_id;
                inner.next_id += 1;
                id
            }
            Err(_) => 0,
        }
    }

    /// Records one finished request: folds it into the histograms and
    /// pushes it onto the ring (evicting the oldest at capacity).
    pub fn record(&self, span: RequestSpan) {
        let Ok(mut inner) = self.inner.lock() else {
            return;
        };
        let slot = span.outcome.index();
        inner.counts[slot] += 1;
        if span.cache == CacheDisposition::Hit
            && matches!(span.outcome, Outcome::Ok | Outcome::Degraded)
        {
            inner.hits += 1;
        }
        inner.latency[slot].record(span.total_us);
        inner.attempts[slot].record(span.attempts);
        for (total, n) in inner.rejects.iter_mut().zip(span.rejects) {
            *total += n;
        }
        inner.deadline_events += span.deadline_events;
        if span.verb == "TRACE" {
            inner.trace_requests += 1;
        }
        if inner.ring_cap > 0 {
            if inner.ring.len() == inner.ring_cap {
                inner.ring.pop_front();
            }
            inner.ring.push_back(span);
        }
    }

    /// Accounts `n` trace events streamed back over the wire.
    pub fn add_trace_events(&self, n: u64) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.trace_events_streamed += n;
        }
    }

    /// Snapshot of the span ring, oldest first.
    pub fn spans(&self) -> Vec<RequestSpan> {
        match self.inner.lock() {
            Ok(inner) => inner.ring.iter().cloned().collect(),
            Err(_) => Vec::new(),
        }
    }

    /// The `STATS` line: the schema, the uptime since this store was
    /// made, and the `serve` counters, with the cache's own section
    /// (`cache`, already rendered) nested last. Every counter but the
    /// acceptor's two derives from the per-outcome counts: `ok` is ok +
    /// degraded, `shed` is overload, and of the `OK` requests `hits` came
    /// from the cache and `misses` did not (a `TRACE` is a miss).
    /// `uptime_ms` is the one non-deterministic field, placed right after
    /// the schema so the deterministic remainder still diffs cleanly.
    pub(crate) fn stats_json(&self, cache: &str) -> String {
        let Ok(inner) = self.inner.lock() else {
            return format!("{{\"schema\":{METRICS_SCHEMA}}}");
        };
        let count = |outcome: Outcome| inner.counts[outcome.index()];
        let ok = count(Outcome::Ok) + count(Outcome::Degraded);
        format!(
            "{{\"schema\":{METRICS_SCHEMA},\"uptime_ms\":{},\
             \"serve\":{{\"requests\":{},\"ok\":{ok},\"hits\":{},\"misses\":{},\"shed\":{},\
             \"malformed\":{},\"deadline\":{},\"sched_errors\":{},\"degraded\":{},\
             \"internal_errors\":{},\"timeout_config_failures\":{},\
             \"cache\":{cache}}}}}",
            u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            self.connections.load(Ordering::Relaxed),
            inner.hits,
            ok - inner.hits,
            count(Outcome::Overload),
            count(Outcome::Malformed),
            count(Outcome::Deadline),
            count(Outcome::Sched),
            count(Outcome::Degraded),
            count(Outcome::Internal),
            self.timeout_config_failures.load(Ordering::Relaxed),
        )
    }

    /// One deterministic JSON line: schema, per-outcome counts, the
    /// attempts and latency histograms, the reject rollup, trace-verb
    /// counters, and the span ring.
    ///
    /// Key order is fixed, and the purely workload-determined content
    /// (schema, counts, attempts histograms, rejects) renders before
    /// the wall-clock-dependent content (latency, spans): two runs of
    /// the same seeded workload produce lines with an identical
    /// deterministic prefix even though their latency tails differ.
    pub fn metrics_json(&self) -> String {
        let Ok(inner) = self.inner.lock() else {
            return format!("{{\"schema\":{METRICS_SCHEMA}}}");
        };
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("{{\"schema\":{METRICS_SCHEMA},\"requests\":{{"));
        for (i, o) in Outcome::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", o.as_str(), inner.counts[i]));
        }
        out.push_str("},\"attempts\":{");
        for (i, o) in Outcome::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                o.as_str(),
                inner.attempts[i].to_json()
            ));
        }
        out.push_str("},\"rejects\":{");
        for (i, r) in RejectReason::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", r.as_str(), inner.rejects[i]));
        }
        out.push_str(&format!(
            "}},\"deadline_events\":{},\"trace_requests\":{},\
             \"trace_events_streamed\":{},\"latency_us\":{{",
            inner.deadline_events, inner.trace_requests, inner.trace_events_streamed
        ));
        for (i, o) in Outcome::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                o.as_str(),
                inner.latency[i].to_json()
            ));
        }
        out.push_str("},\"spans\":[");
        for (i, span) in inner.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&span.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Prometheus-style text exposition: `# HELP`/`# TYPE` headers,
    /// per-outcome counters, and cumulative histograms with `le`
    /// buckets (only occupied boundaries are emitted, plus `+Inf`).
    pub fn prometheus(&self) -> String {
        let Ok(inner) = self.inner.lock() else {
            return String::new();
        };
        let mut out = String::with_capacity(2048);
        out.push_str("# HELP csched_requests_total Requests by outcome.\n");
        out.push_str("# TYPE csched_requests_total counter\n");
        for (i, o) in Outcome::ALL.iter().enumerate() {
            out.push_str(&format!(
                "csched_requests_total{{outcome=\"{}\"}} {}\n",
                o.as_str(),
                inner.counts[i]
            ));
        }
        out.push_str("# HELP csched_rejects_total Placement rejects by reason.\n");
        out.push_str("# TYPE csched_rejects_total counter\n");
        for (i, r) in RejectReason::ALL.iter().enumerate() {
            out.push_str(&format!(
                "csched_rejects_total{{reason=\"{}\"}} {}\n",
                r.as_str(),
                inner.rejects[i]
            ));
        }
        out.push_str("# HELP csched_request_duration_us Request latency, microseconds.\n");
        out.push_str("# TYPE csched_request_duration_us histogram\n");
        for (i, o) in Outcome::ALL.iter().enumerate() {
            prometheus_histogram(
                &mut out,
                "csched_request_duration_us",
                o.as_str(),
                &inner.latency[i],
            );
        }
        out.push_str("# HELP csched_request_attempts Placement attempts per request.\n");
        out.push_str("# TYPE csched_request_attempts histogram\n");
        for (i, o) in Outcome::ALL.iter().enumerate() {
            prometheus_histogram(
                &mut out,
                "csched_request_attempts",
                o.as_str(),
                &inner.attempts[i],
            );
        }
        out
    }
}

/// Emits one outcome's cumulative `le` buckets plus `_sum`/`_count`.
fn prometheus_histogram(out: &mut String, name: &str, outcome: &str, h: &Histogram) {
    let mut cumulative = 0u64;
    for (lo, c) in h.nonzero() {
        cumulative += c;
        // The bucket's upper bound is the le boundary; lo identifies the
        // bucket, hi bounds its contents.
        let le = Histogram::bucket_hi(Histogram::bucket_index(lo));
        out.push_str(&format!(
            "{name}_bucket{{outcome=\"{outcome}\",le=\"{le}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{outcome=\"{outcome}\",le=\"+Inf\"}} {}\n",
        h.count()
    ));
    out.push_str(&format!(
        "{name}_sum{{outcome=\"{outcome}\"}} {}\n",
        h.sum()
    ));
    out.push_str(&format!(
        "{name}_count{{outcome=\"{outcome}\"}} {}\n",
        h.count()
    ));
}

// ---------------------------------------------------------------------
// Prometheus grammar check
// ---------------------------------------------------------------------

/// Validates the line grammar of a Prometheus text exposition: every
/// line is a `# HELP`/`# TYPE` header or a
/// `name{label="value",...} number` sample whose name matches
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, braces balance, and the value parses as
/// a number (`+Inf` allowed as an `le` label only).
///
/// # Errors
///
/// The 1-based line number and what is wrong with it.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    for (n, line) in text.lines().enumerate() {
        let n = n + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return Err(format!("line {n}: comment is neither HELP nor TYPE"));
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => return Err(format!("line {n}: sample line has no value")),
        };
        if value_part.parse::<f64>().is_err() {
            return Err(format!("line {n}: value {value_part:?} is not a number"));
        }
        let name = match name_part.split_once('{') {
            Some((name, labels)) => {
                let Some(labels) = labels.strip_suffix('}') else {
                    return Err(format!("line {n}: unbalanced braces"));
                };
                for pair in labels.split(',') {
                    let Some((k, v)) = pair.split_once('=') else {
                        return Err(format!("line {n}: label {pair:?} has no ="));
                    };
                    if !is_metric_name(k) {
                        return Err(format!("line {n}: bad label name {k:?}"));
                    }
                    if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                        return Err(format!("line {n}: label value {v:?} is not quoted"));
                    }
                }
                name
            }
            None => name_part,
        };
        if !is_metric_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
    }
    Ok(())
}

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

// ---------------------------------------------------------------------
// Client-side snapshot parsing (the dashboard's half of the wire)
// ---------------------------------------------------------------------

/// A parsed `METRICS` JSON line — the subset the dashboard renders.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Schema version (0 when absent).
    pub schema: u64,
    /// Request counts by outcome label.
    pub requests: Vec<(String, u64)>,
    /// Latency histogram buckets by outcome label, `(bucket_lo, count)`
    /// ascending.
    pub latency: Vec<(String, Vec<(u64, u64)>)>,
    /// The span ring, oldest first, as raw JSON objects.
    pub spans: Vec<SpanSummary>,
}

/// The span fields the dashboard renders.
#[derive(Clone, Debug, Default)]
pub struct SpanSummary {
    /// Request id.
    pub id: u64,
    /// Kernel name.
    pub kernel: String,
    /// Outcome label.
    pub outcome: String,
    /// Total wall time, microseconds.
    pub total_us: u64,
    /// Schedule-stage time, microseconds.
    pub sched_us: u64,
    /// Placement attempts.
    pub attempts: u64,
    /// Achieved II.
    pub ii: u64,
    /// Binding-constraint attribution.
    pub binding: String,
}

impl MetricsSnapshot {
    /// Parses the `METRICS` JSON line. Tolerant by design — missing
    /// sections parse as empty, so a newer server never strands an
    /// older dashboard.
    ///
    /// # Errors
    ///
    /// When `line` is not the object this module's
    /// [`Telemetry::metrics_json`] emits (no `"schema"` key).
    pub fn parse(line: &str) -> Result<MetricsSnapshot, String> {
        let mut snap = MetricsSnapshot {
            schema: num_field(line, "schema").ok_or("missing \"schema\" key")?,
            ..MetricsSnapshot::default()
        };
        if let Some(requests) = field(line, "requests") {
            snap.requests = members(requests)
                .into_iter()
                .filter_map(|(label, count)| Some((label, num(count)?)))
                .collect();
        }
        if let Some(latency) = field(line, "latency_us") {
            for (label, histogram) in members(latency) {
                let buckets = field(histogram, "buckets").map_or_else(Vec::new, |buckets| {
                    elements(buckets)
                        .into_iter()
                        .filter_map(|pair| match elements(pair)[..] {
                            [lo, count] => Some((num(lo)?, num(count)?)),
                            _ => None,
                        })
                        .collect()
                });
                snap.latency.push((label, buckets));
            }
        }
        if let Some(spans) = field(line, "spans") {
            for span in elements(spans) {
                snap.spans.push(SpanSummary {
                    id: num_field(span, "id").unwrap_or(0),
                    kernel: str_field(span, "kernel").unwrap_or_default(),
                    outcome: str_field(span, "outcome").unwrap_or_default(),
                    total_us: num_field(span, "total_us").unwrap_or(0),
                    sched_us: num_field(span, "sched_us").unwrap_or(0),
                    attempts: num_field(span, "attempts").unwrap_or(0),
                    ii: num_field(span, "ii").unwrap_or(0),
                    binding: str_field(span, "binding").unwrap_or_default(),
                });
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_inverse() {
        // Every bucket's lo maps back to that bucket, and hi is the
        // last value that does.
        for index in 0..NUM_BUCKETS {
            let lo = Histogram::bucket_lo(index);
            assert_eq!(Histogram::bucket_index(lo), index, "lo of bucket {index}");
            let hi = Histogram::bucket_hi(index);
            assert_eq!(Histogram::bucket_index(hi), index, "hi of bucket {index}");
            if hi < u64::MAX {
                assert_eq!(
                    Histogram::bucket_index(hi + 1),
                    index + 1,
                    "hi+1 of bucket {index}"
                );
            }
        }
    }

    #[test]
    fn bucket_index_covers_extremes() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(15), 15);
        assert_eq!(Histogram::bucket_index(16), 16);
        assert!(Histogram::bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn histogram_quantiles_bound_recorded_values() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1116);
        assert_eq!(h.max(), 1000);
        assert!(h.quantile(50) >= 3);
        assert_eq!(h.quantile(100), 1000);
        assert_eq!(Histogram::new().quantile(50), 0);
    }

    #[test]
    fn histogram_json_is_sparse_and_deterministic() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5u64, 5, 17, 900_000] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().starts_with("{\"count\":4,\"sum\":900027,"));
        // Three distinct buckets, each with its lo bound.
        assert_eq!(a.nonzero().len(), 3);
        assert_eq!(a.nonzero()[0], (5, 2));
    }

    #[test]
    fn trace_capture_filters_and_caps() {
        for limit in [2, 0] {
            let mut cap = TraceCapture::capture(limit, false);
            for i in 0..4u32 {
                cap.event(TraceEvent::IiStart { ii: i });
                cap.event(TraceEvent::PlaceReject {
                    op: i,
                    fu: 0,
                    cycle: 0,
                    reason: RejectReason::Timing,
                });
            }
            cap.event(TraceEvent::RungAdvanced {
                attempt: 2,
                relaxation: "x".into(),
                max_ii: 8,
            });
            // The capture keeps the first `limit` decision events (rejects
            // and rung markers are filtered out) and counts all 4, a zero
            // cap included.
            assert_eq!(cap.events().len(), limit);
            assert_eq!(cap.total(), 4);
            assert!(cap.truncated());
        }
    }

    #[test]
    fn telemetry_records_and_renders() {
        let t = Telemetry::new(2);
        assert_eq!(t.next_request_id(), 1);
        assert_eq!(t.next_request_id(), 2);
        for (id, outcome) in [(1, Outcome::Ok), (2, Outcome::Ok), (3, Outcome::Deadline)] {
            let mut span = RequestSpan::new(id, "SCHED");
            span.outcome = outcome;
            span.total_us = id * 100;
            span.attempts = id * 7;
            t.record(span);
        }
        // Ring holds the newest two of three.
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 2);
        let json = t.metrics_json();
        assert!(json.starts_with("{\"schema\":1,\"requests\":{\"ok\":2,"));
        assert!(json.contains("\"deadline\":1"));
        let prom = t.prometheus();
        validate_prometheus(&prom).unwrap();
        assert!(prom.contains("csched_requests_total{outcome=\"ok\"} 2"));
    }

    #[test]
    fn metrics_snapshot_roundtrips() {
        let t = Telemetry::new(4);
        let mut span = RequestSpan::new(9, "SCHED");
        span.kernel = "fig4".into();
        span.outcome = Outcome::Ok;
        span.total_us = 1234;
        span.stages.sched_us = 1000;
        span.attempts = 42;
        span.ii = 3;
        span.binding = "resource";
        t.record(span);
        let snap = MetricsSnapshot::parse(&t.metrics_json()).unwrap();
        assert_eq!(snap.schema, u64::from(METRICS_SCHEMA));
        assert_eq!(
            snap.requests.iter().find(|(l, _)| l == "ok"),
            Some(&("ok".to_string(), 1))
        );
        let (label, buckets) = &snap.latency[0];
        assert_eq!(label, "ok");
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].1, 1);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].kernel, "fig4");
        assert_eq!(snap.spans[0].binding, "resource");
        assert_eq!(snap.spans[0].total_us, 1234);
    }

    #[test]
    fn validate_prometheus_rejects_bad_lines() {
        assert!(validate_prometheus("ok_metric 3\n").is_ok());
        assert!(validate_prometheus("x{a=\"b\"} 1.5\n").is_ok());
        assert!(validate_prometheus("# BOGUS comment\n").is_err());
        assert!(validate_prometheus("novalue\n").is_err());
        assert!(validate_prometheus("m{unclosed=\"x\" 1\n").is_err());
        assert!(validate_prometheus("m{a=unquoted} 1\n").is_err());
        assert!(validate_prometheus("9bad 1\n").is_err());
        assert!(validate_prometheus("m nan_value\n").is_err());
    }

    #[test]
    fn span_json_has_fixed_shape() {
        let mut span = RequestSpan::new(7, "TRACE");
        span.kernel = "k\"q".into();
        span.outcome = Outcome::Degraded;
        span.cache = CacheDisposition::Bypass;
        span.degraded = true;
        let json = span.to_json();
        assert!(json.starts_with("{\"id\":7,\"verb\":\"TRACE\",\"kernel\":\"k\\\"q\","));
        assert!(json.contains("\"outcome\":\"degraded\""));
        assert!(json.contains("\"cache\":\"bypass\""));
        assert!(json.ends_with("\"degraded\":1,\"binding\":\"\"}"));
    }
}
