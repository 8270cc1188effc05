//! Structured event tracing for the scheduling pipeline.
//!
//! The scheduler is transactional: placements are attempted, stubs are
//! tentatively allocated, and whole subtrees of work are rolled back when
//! a permutation or a copy chain fails. That makes it a black box — when
//! an II is missed there is normally no record of *why*. This module is
//! the observability layer: the engine, driver, and retry ladder emit
//! typed [`TraceEvent`]s into a [`TraceSink`] supplied by the caller.
//!
//! Tracing is **zero-cost when disabled**: the engine holds an
//! `Option<&mut dyn TraceSink>` that defaults to `None`, so the untraced
//! entry points ([`schedule_kernel`]) pay a single never-taken branch per
//! emission site (measured by perfbench's `bench.trace_overhead_pct`).
//!
//! Two sinks are provided: [`RingBufferSink`] keeps the last *N* events
//! in memory for post-mortem inspection, and [`JsonlSink`] renders each
//! event as one line of JSON for machine consumption (golden-file tests,
//! external tooling).
//!
//! Events are emitted *as decisions are explored*, not only for the
//! surviving schedule: an accepted placement inside a copy chain that is
//! later rolled back still appears in the stream. This is deliberate —
//! the trace records search effort, while [`ScheduleMetrics`] summarises
//! the surviving schedule.
//!
//! ```
//! use csched_core::trace::{RingBufferSink, TraceEvent};
//! use csched_core::{schedule_kernel_traced, SchedulerConfig};
//! use csched_ir::KernelBuilder;
//! use csched_machine::{toy, Opcode};
//!
//! let mut kb = KernelBuilder::new("sum");
//! let b = kb.straight_block("b");
//! let s = kb.push(b, Opcode::IAdd, [1i64.into(), 2i64.into()]);
//! kb.push(b, Opcode::IAdd, [s.into(), 3i64.into()]);
//! let kernel = kb.build()?;
//!
//! let arch = toy::motivating_example();
//! let mut sink = RingBufferSink::new(1024);
//! let schedule = schedule_kernel_traced(&arch, &kernel, SchedulerConfig::default(), &mut sink)?;
//! let accepts = sink
//!     .events()
//!     .filter(|e| matches!(e, TraceEvent::PlaceAccept { .. }))
//!     .count();
//! assert!(accepts >= 2, "every op placement is traced");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`schedule_kernel`]: crate::schedule_kernel
//! [`ScheduleMetrics`]: crate::metrics::ScheduleMetrics

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Why the engine rejected a tentative placement.
///
/// Carried by [`TraceEvent::PlaceReject`]; the reasons mirror the §4.3
/// placement steps, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The candidate cycle violated a dependence or loop-carried timing
    /// constraint before any resource was tried.
    Timing,
    /// Step 1 failed: the functional unit's issue slot (or its pipeline
    /// interval) was already claimed in the candidate cycle.
    IssueSlot,
    /// Steps 2–3 failed: no permutation of read stubs for the operation's
    /// operands fit the read ports and buses.
    ReadPermutation,
    /// Step 4 failed: no write-stub allocation for the operation's result
    /// (or a required revision of an earlier stub) fit.
    WritePermutation,
    /// Step 5 failed: a communication that became fully placed could not
    /// be closed into a route, and copy insertion also failed.
    Closing,
}

impl RejectReason {
    /// Every reason, in declaration (placement-step) order — the index
    /// of a reason here is its slot in aggregated reject arrays.
    pub const ALL: [RejectReason; 5] = [
        RejectReason::Timing,
        RejectReason::IssueSlot,
        RejectReason::ReadPermutation,
        RejectReason::WritePermutation,
        RejectReason::Closing,
    ];

    /// Stable lower-snake-case name, used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::Timing => "timing",
            RejectReason::IssueSlot => "issue_slot",
            RejectReason::ReadPermutation => "read_permutation",
            RejectReason::WritePermutation => "write_permutation",
            RejectReason::Closing => "closing",
        }
    }
}

/// One typed event from the scheduling pipeline.
///
/// Identifiers are raw indices into the schedule's op/comm universe and
/// the architecture's resource tables (`op` ↔ [`SOpId`], `comm` ↔
/// [`CommId`], `fu`/`rf`/`bus` ↔ the machine description), kept as plain
/// integers so events are cheap to construct and trivially serialisable.
///
/// [`SOpId`]: crate::SOpId
/// [`CommId`]: crate::CommId
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// The driver started (or restarted) a scheduling attempt at this
    /// initiation interval.
    IiStart {
        /// Candidate initiation interval for the loop block.
        ii: u32,
    },
    /// The driver widened the cross-block slack for a backtracking round.
    SlackWidened {
        /// New slack bound (cycles of extra room for cross-block copies).
        slack: i64,
    },
    /// The engine is about to test a placement of `op` on `fu` at `cycle`.
    PlaceAttempt {
        /// Scheduled-op index.
        op: u32,
        /// Functional-unit index.
        fu: u32,
        /// Candidate issue cycle.
        cycle: i64,
    },
    /// The placement survived all five steps and was committed.
    PlaceAccept {
        /// Scheduled-op index.
        op: u32,
        /// Functional-unit index.
        fu: u32,
        /// Issue cycle.
        cycle: i64,
    },
    /// The placement failed and was rolled back.
    PlaceReject {
        /// Scheduled-op index.
        op: u32,
        /// Functional-unit index.
        fu: u32,
        /// Candidate issue cycle.
        cycle: i64,
        /// Which step failed.
        reason: RejectReason,
    },
    /// A read stub was tentatively allocated for one operand of `op`.
    ReadStubAllocated {
        /// Consumer scheduled-op index.
        op: u32,
        /// Operand slot on the consumer.
        slot: u32,
        /// Register file the stub reads from.
        rf: u32,
        /// Bus carrying the value to the consumer's input.
        bus: u32,
    },
    /// A write stub was tentatively allocated for `comm`'s producer.
    WriteStubAllocated {
        /// Communication index.
        comm: u32,
        /// Register file the stub writes into.
        rf: u32,
        /// Bus carrying the value from the producer's output.
        bus: u32,
    },
    /// An already-allocated write stub was revised to target a new
    /// register file so a later consumer could be reached.
    WriteStubRevised {
        /// Communication index.
        comm: u32,
        /// Register file the stub now writes into.
        rf: u32,
    },
    /// Both stubs of `comm` were frozen prior to copy insertion: they can
    /// no longer be permuted or revised.
    StubsFrozen {
        /// Communication index.
        comm: u32,
    },
    /// `comm` closed into a finished route.
    RouteClosed {
        /// Communication index.
        comm: u32,
        /// Staging register file of the route.
        rf: u32,
        /// `true` for a direct (zero-copy) close; `false` when the route
        /// was completed through a copy chain.
        direct: bool,
    },
    /// A new copy operation was inserted and scheduled to bridge `comm`.
    CopyInserted {
        /// Communication index being bridged.
        comm: u32,
        /// Scheduled-op index of the new copy.
        copy: u32,
    },
    /// An existing scheduled copy of the same value was reused for `comm`.
    CopyReused {
        /// Communication index being bridged.
        comm: u32,
        /// Scheduled-op index of the reused copy.
        copy: u32,
    },
    /// The register post-pass computed the demand of one register file.
    RfPressure {
        /// Register-file index.
        rf: u32,
        /// Registers the schedule requires in the file.
        required: u32,
        /// Registers the file physically has.
        capacity: u32,
    },
    /// The register post-pass proposed spilling a value out of an
    /// overflowing register file.
    SpillPlanned {
        /// Producing operation of the value to spill.
        value: u32,
        /// The overflowing file it stages through.
        from: u32,
        /// Proposed destination file index, or -1 when no file has room.
        to: i64,
        /// Copies needed per direction to reach the destination.
        copies: u32,
    },
    /// A [`StepBudget`](crate::StepBudget) refused further work: the
    /// placement-attempt limit was reached, or the attached
    /// [`CancelToken`](crate::CancelToken) fired.
    DeadlineExceeded {
        /// Placement attempts charged when the budget tripped.
        spent: u64,
        /// The configured limit.
        limit: u64,
        /// Pipeline phase that hit the limit (`"placement"`,
        /// `"regalloc"`).
        phase: String,
        /// `true` when the stop came from cancellation rather than the
        /// attempt limit.
        cancelled: bool,
    },
    /// The retry ladder advanced to its next relaxation rung.
    RungAdvanced {
        /// 1-based attempt number.
        attempt: u32,
        /// Human-readable description of the cumulative relaxation.
        relaxation: String,
        /// II cap in force for this rung.
        max_ii: u32,
    },
    /// The exact oracle started a branch-and-bound search at this
    /// candidate initiation interval.
    ExactIiStart {
        /// Candidate initiation interval under search.
        ii: u32,
    },
    /// The exact oracle finished searching one candidate II; the node and
    /// prune counters say *why* an infeasible II failed (which resource
    /// class dominated the refutation).
    ExactIiDone {
        /// Candidate initiation interval searched.
        ii: u32,
        /// Whether a schedule was found.
        feasible: bool,
        /// Search nodes expanded.
        nodes: u64,
        /// Trials pruned by occupied issue slots.
        pruned_issue: u64,
        /// Placements pruned by empty dependence windows.
        pruned_timing: u64,
        /// Routing trials pruned by stub resource conflicts.
        pruned_routing: u64,
    },
    /// A kernel failed to parse; the span information of
    /// [`csched_ir::text::ParseError`] is preserved structurally.
    ParseFailed {
        /// 1-based line (0 when unlocated).
        line: u32,
        /// 1-based column (0 when unlocated).
        column: u32,
        /// The offending source line.
        snippet: String,
        /// What went wrong.
        message: String,
    },
}

impl TraceEvent {
    /// Builds a [`TraceEvent::ParseFailed`] from an IR text-format parse
    /// error, keeping its span and snippet instead of flattening the
    /// error to a display string.
    pub fn parse_failed(err: &csched_ir::text::ParseError) -> Self {
        TraceEvent::ParseFailed {
            line: err.line as u32,
            column: err.column as u32,
            snippet: err.snippet.clone(),
            message: err.message.clone(),
        }
    }

    /// Stable lower-snake-case event name, used as the `"event"` key in
    /// the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::IiStart { .. } => "ii_start",
            TraceEvent::SlackWidened { .. } => "slack_widened",
            TraceEvent::PlaceAttempt { .. } => "place_attempt",
            TraceEvent::PlaceAccept { .. } => "place_accept",
            TraceEvent::PlaceReject { .. } => "place_reject",
            TraceEvent::ReadStubAllocated { .. } => "read_stub_allocated",
            TraceEvent::WriteStubAllocated { .. } => "write_stub_allocated",
            TraceEvent::WriteStubRevised { .. } => "write_stub_revised",
            TraceEvent::StubsFrozen { .. } => "stubs_frozen",
            TraceEvent::RouteClosed { .. } => "route_closed",
            TraceEvent::CopyInserted { .. } => "copy_inserted",
            TraceEvent::CopyReused { .. } => "copy_reused",
            TraceEvent::RfPressure { .. } => "rf_pressure",
            TraceEvent::SpillPlanned { .. } => "spill_planned",
            TraceEvent::DeadlineExceeded { .. } => "deadline_exceeded",
            TraceEvent::RungAdvanced { .. } => "rung_advanced",
            TraceEvent::ExactIiStart { .. } => "exact_ii_start",
            TraceEvent::ExactIiDone { .. } => "exact_ii_done",
            TraceEvent::ParseFailed { .. } => "parse_failed",
        }
    }

    /// Renders the event as a single-line JSON object.
    ///
    /// The first key is always `"event"` with the [`kind`](Self::kind)
    /// name; remaining keys are the variant's fields in declaration
    /// order. Strings are escaped with [`json_escape`].
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = write!(s, "{{\"event\":\"{}\"", self.kind());
        match self {
            TraceEvent::IiStart { ii } => {
                let _ = write!(s, ",\"ii\":{ii}");
            }
            TraceEvent::SlackWidened { slack } => {
                let _ = write!(s, ",\"slack\":{slack}");
            }
            TraceEvent::PlaceAttempt { op, fu, cycle }
            | TraceEvent::PlaceAccept { op, fu, cycle } => {
                let _ = write!(s, ",\"op\":{op},\"fu\":{fu},\"cycle\":{cycle}");
            }
            TraceEvent::PlaceReject {
                op,
                fu,
                cycle,
                reason,
            } => {
                let _ = write!(
                    s,
                    ",\"op\":{op},\"fu\":{fu},\"cycle\":{cycle},\"reason\":\"{}\"",
                    reason.as_str()
                );
            }
            TraceEvent::ReadStubAllocated { op, slot, rf, bus } => {
                let _ = write!(s, ",\"op\":{op},\"slot\":{slot},\"rf\":{rf},\"bus\":{bus}");
            }
            TraceEvent::WriteStubAllocated { comm, rf, bus } => {
                let _ = write!(s, ",\"comm\":{comm},\"rf\":{rf},\"bus\":{bus}");
            }
            TraceEvent::WriteStubRevised { comm, rf } => {
                let _ = write!(s, ",\"comm\":{comm},\"rf\":{rf}");
            }
            TraceEvent::StubsFrozen { comm } => {
                let _ = write!(s, ",\"comm\":{comm}");
            }
            TraceEvent::RouteClosed { comm, rf, direct } => {
                let _ = write!(s, ",\"comm\":{comm},\"rf\":{rf},\"direct\":{direct}");
            }
            TraceEvent::CopyInserted { comm, copy } | TraceEvent::CopyReused { comm, copy } => {
                let _ = write!(s, ",\"comm\":{comm},\"copy\":{copy}");
            }
            TraceEvent::RfPressure {
                rf,
                required,
                capacity,
            } => {
                let _ = write!(
                    s,
                    ",\"rf\":{rf},\"required\":{required},\"capacity\":{capacity}"
                );
            }
            TraceEvent::SpillPlanned {
                value,
                from,
                to,
                copies,
            } => {
                let _ = write!(
                    s,
                    ",\"value\":{value},\"from\":{from},\"to\":{to},\"copies\":{copies}"
                );
            }
            TraceEvent::DeadlineExceeded {
                spent,
                limit,
                phase,
                cancelled,
            } => {
                let _ = write!(
                    s,
                    ",\"spent\":{spent},\"limit\":{limit},\"phase\":\"{}\",\"cancelled\":{cancelled}",
                    json_escape(phase)
                );
            }
            TraceEvent::RungAdvanced {
                attempt,
                relaxation,
                max_ii,
            } => {
                let _ = write!(
                    s,
                    ",\"attempt\":{attempt},\"relaxation\":\"{}\",\"max_ii\":{max_ii}",
                    json_escape(relaxation)
                );
            }
            TraceEvent::ExactIiStart { ii } => {
                let _ = write!(s, ",\"ii\":{ii}");
            }
            TraceEvent::ExactIiDone {
                ii,
                feasible,
                nodes,
                pruned_issue,
                pruned_timing,
                pruned_routing,
            } => {
                let _ = write!(
                    s,
                    ",\"ii\":{ii},\"feasible\":{feasible},\"nodes\":{nodes},\
                     \"pruned_issue\":{pruned_issue},\"pruned_timing\":{pruned_timing},\
                     \"pruned_routing\":{pruned_routing}"
                );
            }
            TraceEvent::ParseFailed {
                line,
                column,
                snippet,
                message,
            } => {
                let _ = write!(
                    s,
                    ",\"line\":{line},\"column\":{column},\"snippet\":\"{}\",\"message\":\"{}\"",
                    json_escape(snippet),
                    json_escape(message)
                );
            }
        }
        s.push('}');
        s
    }
}

/// The stable *decision-level* event filter: keeps the events that
/// describe the surviving schedule's construction (II starts, accepted
/// placements, stub freezes, route closures, copy insertion/reuse) and
/// drops the search-order-dependent attempt/reject stream.
///
/// This is the filter behind the golden-trace acceptance tests and the
/// serve layer's `TRACE` wire verb: a stream filtered this way is a
/// deterministic function of (kernel, architecture, configuration).
pub fn decision_filter(e: &TraceEvent) -> bool {
    matches!(
        e,
        TraceEvent::IiStart { .. }
            | TraceEvent::PlaceAccept { .. }
            | TraceEvent::StubsFrozen { .. }
            | TraceEvent::RouteClosed { .. }
            | TraceEvent::CopyInserted { .. }
            | TraceEvent::CopyReused { .. }
    )
}

/// A sink retaining the *first* `cap` events that pass its filter — the
/// streaming complement of [`RingBufferSink`] (which keeps the last N).
///
/// Built for wire streaming: a consumer that relays the retained events
/// to a socket is bounded by construction, no matter how many events the
/// schedule produces, and [`truncated`](Self::truncated) says whether
/// the cap cut the stream short. The total pass-filter count keeps
/// accumulating after the cap so the loss is quantifiable.
#[derive(Debug)]
pub struct CappingSink {
    cap: usize,
    filter: Option<fn(&TraceEvent) -> bool>,
    events: Vec<TraceEvent>,
    total: u64,
}

impl CappingSink {
    /// A sink keeping the first `cap` events of any kind.
    pub fn new(cap: usize) -> Self {
        CappingSink {
            cap,
            filter: None,
            events: Vec::new(),
            total: 0,
        }
    }

    /// A sink keeping the first `cap` events for which `filter` is true;
    /// events failing the filter are neither retained nor counted.
    pub fn with_filter(cap: usize, filter: fn(&TraceEvent) -> bool) -> Self {
        CappingSink {
            cap,
            filter: Some(filter),
            events: Vec::new(),
            total: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total events that passed the filter, including dropped ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether the cap dropped at least one passing event.
    pub fn truncated(&self) -> bool {
        self.total > self.events.len() as u64
    }
}

impl TraceSink for CappingSink {
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

/// Escapes `s` for inclusion inside a JSON string literal.
///
/// Handles the two mandatory escapes (`"` and `\`) plus control
/// characters; everything else passes through as UTF-8 (valid in JSON).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Receiver for pipeline [`TraceEvent`]s.
///
/// Implementations must be cheap: the engine calls [`event`](Self::event)
/// from the innermost placement loop. Sinks that need filtering should
/// filter on [`TraceEvent::kind`] before doing any formatting work.
pub trait TraceSink {
    /// Consumes one event.
    fn event(&mut self, event: TraceEvent);
}

/// A bounded in-memory sink keeping the most recent events.
///
/// When the buffer is full the oldest event is dropped; the total number
/// of events ever observed stays available via [`total`](Self::total),
/// so overflow is detectable.
#[derive(Debug, Default)]
pub struct RingBufferSink {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    total: u64,
}

impl RingBufferSink {
    /// Creates a sink retaining at most `capacity` events (0 keeps none
    /// but still counts).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            total: 0,
        }
    }

    /// Iterates the retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events observed, including those dropped by overflow.
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl TraceSink for RingBufferSink {
    fn event(&mut self, event: TraceEvent) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(event);
    }
}

/// A sink rendering each event as one line of JSON (JSONL).
///
/// An optional filter restricts which events are rendered — useful for
/// golden-file tests that want only the stable, decision-level events
/// and not the (search-order-dependent) attempt stream.
#[derive(Default)]
pub struct JsonlSink {
    out: String,
    filter: Option<fn(&TraceEvent) -> bool>,
    lines: u64,
}

impl JsonlSink {
    /// Creates a sink accepting every event.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// Creates a sink rendering only events for which `filter` returns
    /// `true`.
    pub fn with_filter(filter: fn(&TraceEvent) -> bool) -> Self {
        JsonlSink {
            out: String::new(),
            filter: Some(filter),
            lines: 0,
        }
    }

    /// The JSONL document accumulated so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the JSONL document.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Number of lines written (after filtering).
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl TraceSink for JsonlSink {
    fn event(&mut self, event: TraceEvent) {
        if let Some(f) = self.filter {
            if !f(&event) {
                return;
            }
        }
        self.out.push_str(&event.to_json());
        self.out.push('\n');
        self.lines += 1;
    }
}

/// A failed write or flush from a [`JsonlWriterSink`].
///
/// Carries which operation failed and how many lines had been durably
/// handed to the writer before the failure, so a consumer (e.g. a
/// campaign journal) knows exactly what survived.
#[derive(Debug)]
pub struct TraceWriteError {
    /// `"write"` or `"flush"`.
    pub operation: &'static str,
    /// Lines successfully written before the failure.
    pub lines_written: u64,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for TraceWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace {} failed after {} lines: {}",
            self.operation, self.lines_written, self.source
        )
    }
}

impl std::error::Error for TraceWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A sink streaming each event as one line of JSON into an
/// [`std::io::Write`] (a file, a pipe, a socket).
///
/// [`TraceSink::event`] cannot return a result, so write failures are
/// *latched* instead of swallowed: after the first failure the sink
/// stops writing, and [`finish`](Self::finish) (or
/// [`take_error`](Self::take_error)) surfaces the typed
/// [`TraceWriteError`]. Dropping the sink without calling `finish`
/// loses the error but never panics.
#[derive(Debug)]
pub struct JsonlWriterSink<W: std::io::Write> {
    writer: W,
    lines: u64,
    error: Option<TraceWriteError>,
}

impl<W: std::io::Write> JsonlWriterSink<W> {
    /// Wraps `writer`. Wrap in [`std::io::BufWriter`] for unbuffered
    /// targets — the sink writes one line per event.
    pub fn new(writer: W) -> Self {
        JsonlWriterSink {
            writer,
            lines: 0,
            error: None,
        }
    }

    /// Lines successfully handed to the writer so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Returns and clears the latched write failure, if any. Once a
    /// failure is latched the sink drops all further events.
    pub fn take_error(&mut self) -> Option<TraceWriteError> {
        self.error.take()
    }

    /// Flushes the writer and consumes the sink, surfacing any latched
    /// write failure (or the flush failure) as a typed error.
    ///
    /// # Errors
    ///
    /// The first [`TraceWriteError`] the sink observed.
    pub fn finish(mut self) -> Result<u64, TraceWriteError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        match self.writer.flush() {
            Ok(()) => Ok(self.lines),
            Err(source) => Err(TraceWriteError {
                operation: "flush",
                lines_written: self.lines,
                source,
            }),
        }
    }
}

impl<W: std::io::Write> TraceSink for JsonlWriterSink<W> {
    fn event(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = event.to_json();
        line.push('\n');
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(source) => {
                self.error = Some(TraceWriteError {
                    operation: "write",
                    lines_written: self.lines,
                    source,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn event_json_shapes() {
        let e = TraceEvent::PlaceReject {
            op: 3,
            fu: 1,
            cycle: -2,
            reason: RejectReason::ReadPermutation,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"place_reject\",\"op\":3,\"fu\":1,\"cycle\":-2,\
             \"reason\":\"read_permutation\"}"
        );
        let e = TraceEvent::ParseFailed {
            line: 2,
            column: 5,
            snippet: "x = bogus \"q\"".into(),
            message: "unknown mnemonic".into(),
        };
        assert!(e.to_json().contains("\"snippet\":\"x = bogus \\\"q\\\"\""));
    }

    #[test]
    fn ring_buffer_wraps_and_counts() {
        let mut sink = RingBufferSink::new(2);
        for ii in 0..5 {
            sink.event(TraceEvent::IiStart { ii });
        }
        assert_eq!(sink.total(), 5);
        assert_eq!(sink.len(), 2);
        let iis: Vec<u32> = sink
            .events()
            .map(|e| match e {
                TraceEvent::IiStart { ii } => *ii,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(iis, vec![3, 4]);
    }

    #[test]
    fn capping_sink_keeps_first_events_and_counts_overflow() {
        let mut sink = CappingSink::with_filter(2, decision_filter);
        sink.event(TraceEvent::PlaceAttempt {
            op: 0,
            fu: 0,
            cycle: 0,
        }); // filtered out: neither retained nor counted
        for ii in 0..5 {
            sink.event(TraceEvent::IiStart { ii });
        }
        assert_eq!(sink.total(), 5);
        assert!(sink.truncated());
        let iis: Vec<u32> = sink
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::IiStart { ii } => *ii,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(iis, vec![0, 1], "the first events survive, not the last");
        let mut roomy = CappingSink::new(8);
        roomy.event(TraceEvent::IiStart { ii: 1 });
        assert!(!roomy.truncated());
    }

    #[test]
    fn jsonl_filter() {
        let mut sink = JsonlSink::with_filter(|e| matches!(e, TraceEvent::IiStart { .. }));
        sink.event(TraceEvent::IiStart { ii: 4 });
        sink.event(TraceEvent::StubsFrozen { comm: 0 });
        assert_eq!(sink.as_str(), "{\"event\":\"ii_start\",\"ii\":4}\n");
        assert_eq!(sink.lines(), 1);
    }

    #[test]
    fn writer_sink_streams_and_latches_failures() {
        let mut ok_sink = JsonlWriterSink::new(Vec::new());
        ok_sink.event(TraceEvent::IiStart { ii: 3 });
        ok_sink.event(TraceEvent::StubsFrozen { comm: 1 });
        assert_eq!(ok_sink.lines(), 2);
        assert!(ok_sink.finish().is_ok());

        /// A writer that fails after a fixed byte capacity.
        struct Full {
            room: usize,
        }
        impl std::io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.len() > self.room {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::StorageFull,
                        "disk full",
                    ));
                }
                self.room -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut sink = JsonlWriterSink::new(Full { room: 30 });
        sink.event(TraceEvent::IiStart { ii: 1 }); // fits (24 bytes)
        sink.event(TraceEvent::IiStart { ii: 2 }); // fails
        sink.event(TraceEvent::IiStart { ii: 3 }); // dropped, error latched
        let err = sink.finish().expect_err("write failure must surface");
        assert_eq!(err.operation, "write");
        assert_eq!(err.lines_written, 1);
        assert_eq!(err.source.kind(), std::io::ErrorKind::StorageFull);
        assert!(err.to_string().contains("after 1 lines"), "{err}");
    }

    #[test]
    fn enospc_latches_once_and_later_events_never_touch_the_writer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// A writer simulating a disk that runs out of space: accepts
        /// `room` bytes, then fails every write with `StorageFull`,
        /// counting how often it is even asked.
        struct Enospc {
            attempts: Arc<AtomicUsize>,
            room: usize,
        }
        impl std::io::Write for Enospc {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.attempts.fetch_add(1, Ordering::SeqCst);
                if buf.len() > self.room {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::StorageFull,
                        "no space left on device",
                    ));
                }
                self.room -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let attempts = Arc::new(AtomicUsize::new(0));
        let mut sink = JsonlWriterSink::new(Enospc {
            attempts: Arc::clone(&attempts),
            room: 30, // one ii_start line fits, the second overflows
        });
        sink.event(TraceEvent::IiStart { ii: 1 });
        sink.event(TraceEvent::IiStart { ii: 2 }); // ENOSPC: latches
        assert_eq!(attempts.load(Ordering::SeqCst), 2);

        // Every later event is a pure no-op: the full disk is not
        // retried per event, the line count stays frozen.
        for ii in 3..100 {
            sink.event(TraceEvent::IiStart { ii });
        }
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            2,
            "a latched sink must stop hammering the full disk"
        );
        assert_eq!(sink.lines(), 1);

        // The first failure is reported exactly once via take_error…
        let err = sink.take_error().expect("failure must be latched");
        assert_eq!(err.operation, "write");
        assert_eq!(err.lines_written, 1);
        assert_eq!(err.source.kind(), std::io::ErrorKind::StorageFull);
        assert!(sink.take_error().is_none(), "error reported once");

        // …which re-arms the sink: the next event hits the (still full)
        // writer again and `finish` surfaces the fresh failure.
        sink.event(TraceEvent::IiStart { ii: 50 });
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        let err = sink.finish().expect_err("still-full disk latches again");
        assert_eq!(err.lines_written, 1);
        assert_eq!(err.source.kind(), std::io::ErrorKind::StorageFull);
    }

    #[test]
    fn deadline_event_json_shape() {
        let e = TraceEvent::DeadlineExceeded {
            spent: 40,
            limit: 40,
            phase: "placement".into(),
            cancelled: false,
        };
        assert_eq!(e.kind(), "deadline_exceeded");
        assert_eq!(
            e.to_json(),
            "{\"event\":\"deadline_exceeded\",\"spent\":40,\"limit\":40,\
             \"phase\":\"placement\",\"cancelled\":false}"
        );
    }

    #[test]
    fn parse_failed_preserves_span() {
        let err = csched_ir::text::ParseError {
            line: 7,
            column: 3,
            snippet: "  y = frob x".into(),
            message: "unknown mnemonic `frob`".into(),
        };
        let ev = TraceEvent::parse_failed(&err);
        match &ev {
            TraceEvent::ParseFailed {
                line,
                column,
                snippet,
                ..
            } => {
                assert_eq!((*line, *column), (7, 3));
                assert_eq!(snippet, "  y = frob x");
            }
            _ => unreachable!(),
        }
    }
}
