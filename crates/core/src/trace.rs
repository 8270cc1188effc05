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
//! [`JsonlSink`] renders each event as one line of JSON for machine
//! consumption (golden-file tests, external tooling). A consumer that
//! folds events into its own counters (the benchmark ledger) implements
//! [`TraceSink`] directly. The rejects by reason and the budget stops
//! need no sink: the engine counts them where it emits them, and
//! [`AnytimeReport`](crate::AnytimeReport) carries a call's totals.
//!
//! Events are emitted *as decisions are explored*, not only for the
//! surviving schedule: an accepted placement inside a copy chain that is
//! later rolled back still appears in the stream. This is deliberate —
//! the trace records search effort, while [`ScheduleMetrics`] summarises
//! the surviving schedule.
//!
//! ```
//! use csched_core::trace::{JsonlSink, TraceEvent};
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
//! let mut sink = JsonlSink::with_filter(|e| matches!(e, TraceEvent::PlaceAccept { .. }));
//! schedule_kernel_traced(&arch, &kernel, SchedulerConfig::default(), &mut sink)?;
//! assert!(sink.lines() >= 2, "every op placement is traced");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`schedule_kernel`]: crate::schedule_kernel
//! [`ScheduleMetrics`]: crate::metrics::ScheduleMetrics

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
    /// The loop block did not schedule at this initiation interval: `op`
    /// found no placement, and the driver moves on to a larger II.
    IiFailed {
        /// The initiation interval that failed.
        ii: u32,
        /// Kernel-op index of the operation that could not be placed.
        op: u32,
        /// Placement attempts made at this II.
        attempts: u64,
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
    /// A copy search for `comm` found no placement in its copy range
    /// `lo..=hi` before the range, the search's try cap or the
    /// placement's copy work ran out.
    CopyFailed {
        /// Communication index that stayed unbridged.
        comm: u32,
        /// First cycle of the copy range.
        lo: i64,
        /// Last cycle of the copy range.
        hi: i64,
        /// (unit, cycle) candidates the search reached.
        tries: u32,
    },
    /// A [`StepBudget`](crate::StepBudget) refused further work: the
    /// placement-attempt limit was reached, or the attached
    /// [`CancelToken`](crate::CancelToken) fired.
    DeadlineExceeded {
        /// Placement attempts charged when the budget tripped.
        spent: u64,
        /// The configured limit.
        limit: u64,
        /// Pipeline phase that hit the limit (`"placement"`).
        phase: String,
        /// `true` when the stop came from cancellation rather than the
        /// attempt limit.
        cancelled: bool,
    },
    /// The anytime ladder started a rung (rung 0, the caller's
    /// configuration, included).
    RungAdvanced {
        /// The rung's index, 0–5.
        attempt: u32,
        /// Human-readable description of the cumulative relaxation.
        relaxation: String,
        /// II cap in force for this rung.
        max_ii: u32,
    },
}

impl TraceEvent {
    /// Stable lower-snake-case event name, used as the `"event"` key in
    /// the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::IiStart { .. } => "ii_start",
            TraceEvent::SlackWidened { .. } => "slack_widened",
            TraceEvent::IiFailed { .. } => "ii_failed",
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
            TraceEvent::CopyFailed { .. } => "copy_failed",
            TraceEvent::DeadlineExceeded { .. } => "deadline_exceeded",
            TraceEvent::RungAdvanced { .. } => "rung_advanced",
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
            TraceEvent::IiFailed { ii, op, attempts } => {
                let _ = write!(s, ",\"ii\":{ii},\"op\":{op},\"attempts\":{attempts}");
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
            TraceEvent::CopyFailed {
                comm,
                lo,
                hi,
                tries,
            } => {
                let _ = write!(
                    s,
                    ",\"comm\":{comm},\"lo\":{lo},\"hi\":{hi},\"tries\":{tries}"
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
        let e = TraceEvent::IiFailed {
            ii: 19,
            op: 168,
            attempts: 3100,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"ii_failed\",\"ii\":19,\"op\":168,\"attempts\":3100}"
        );
        let f = TraceEvent::CopyFailed {
            comm: 30,
            lo: 11,
            hi: 57,
            tries: 18,
        };
        assert_eq!(
            f.to_json(),
            "{\"event\":\"copy_failed\",\"comm\":30,\"lo\":11,\"hi\":57,\"tries\":18}"
        );
        assert!(!decision_filter(&e) && !decision_filter(&f));
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
}
