//! The communication-scheduling engine (paper §4).
//!
//! The engine owns the scheduling state for one kernel on one
//! architecture: operation placements, the per-block resource tables, and
//! the state of every communication. Its central entry point,
//! [`Engine::place`], implements the five steps of §4.3 for one tentative
//! operation placement:
//!
//! 1. determine the valid read/write stubs (precomputed per architecture);
//! 2. find a non-conflicting permutation of read stubs for all
//!    communications read on the issue row;
//! 3. find a non-conflicting permutation of write stubs for all
//!    communications written on the completion row;
//! 4. assign a route to each closing communication whose stubs meet in
//!    one register file;
//! 5. insert and recursively schedule copy operations for the rest.
//!
//! Every mutation — placements, stub choices, communication state, table
//! claims, even universe growth from copy insertion — is journalled, so a
//! failed placement rolls back exactly and the scheduler can retry on
//! another functional unit or cycle (the accept/reject protocol of
//! Figure 11).
//!
//! # Hot-path discipline (DESIGN.md §14)
//!
//! The attempt loop — [`Engine::place_ext`] down through stub permutation
//! and route search — is engineered for O(1) probes and reused buffers.
//! Even a savepoint allocates nothing: its table positions go on a stack
//! the engine keeps.
//!
//! - resource claims go through the dense modulo tables of
//!   [`crate::table`], and a permutation resolves its row once;
//! - the full §4.3 re-permutation takes its participants from a per-row
//!   index of the placed operations (`RowIndex`), not from a scan of
//!   every operation or communication;
//! - when that re-permutation moves no stub, the closing it would rerun
//!   starts from the state the failed fast-path closing started from, so
//!   the engine replays that closing's record (`ClosingRecord`) instead
//!   of rerunning it;
//! - the write-stub search is [`WriteSearch`], which checks each
//!   candidate against the row's existing claims once and memoises the
//!   verdict, and each communication's ranked candidate list is memoised
//!   on everything the ranking reads (`WriteMemo`);
//! - every copy-distance score is a flat-array read from the shared
//!   [`ConnCache`] (`Arc`-held, so the whole II search and retry ladder
//!   reuse one cache);
//! - candidate enumeration scores stubs per register-file *group* (all
//!   stubs targeting one file share a score) and keeps only the
//!   configured top-k by `select_nth_unstable` before sorting the
//!   surviving prefix — exact, because every sort key in this module is a
//!   total order (a `(port, bus)` pair identifies a stub uniquely);
//! - the permutation searches, closing lists, and revision scans run in
//!   reusable scratch buffers (`Scratch`) that keep their capacity across
//!   attempts.
//!
//! Any change here must preserve *schedule identity*: identical candidate
//! sets, identical orderings, identical tiebreaks, identical table
//! contents (the same claims in each cell; no admission reads their
//! order) — see the invariants in DESIGN.md §14 and the byte-identity
//! gates in `ci.sh`.

use std::ops::Range;
use std::sync::Arc;

use csched_ir::{BlockId, Kernel};
use csched_machine::{Architecture, Capability, FuId, Opcode, ReadStub, RfId, WriteStub};

use crate::conn::ConnCache;

use crate::budget::{BudgetStop, StepBudget};
use crate::config::{SchedulerConfig, MAX_STUB_CANDIDATES};
use crate::error::SchedError;
use crate::schedule::{CommDisposition, Route, SchedStats, Schedule, ScheduledOp};
use crate::table::{ResourceTable, WriteSearch};
use crate::trace::{RejectReason, TraceEvent, TraceSink};
use crate::universe::{Comm, CommId, SOpId, Universe};

/// Mutable per-communication scheduling state.
#[derive(Clone, Copy, Debug, Default)]
struct CommInfo {
    /// Tentative (or frozen) write stub once the producer is scheduled.
    wstub: Option<WriteStub>,
    /// Whether the write stub may no longer be revised.
    wstub_frozen: bool,
    /// Final disposition once closed.
    disposition: Option<CommDisposition>,
}

/// Journal entries for engine-state rollback.
#[derive(Clone, Debug)]
enum Undo {
    Comm(CommId, CommInfo),
    Operand(usize, Option<ReadStub>, bool),
    Place(SOpId),
    CopyAdded {
        ops: usize,
        comms: usize,
        operands: usize,
    },
    CommAdded,
}

/// The events a rollup counts, counted where the engine emits them, so
/// an untraced run knows them too: [`TraceEvent::PlaceReject`] by
/// [`RejectReason`] (indexed in [`RejectReason::ALL`] order) and
/// [`TraceEvent::DeadlineExceeded`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    pub(crate) rejects: [u64; 5],
    pub(crate) deadline_events: u64,
}

impl Tally {
    pub(crate) fn add(&mut self, other: &Tally) {
        for (total, n) in self.rejects.iter_mut().zip(other.rejects) {
            *total += n;
        }
        self.deadline_events += other.deadline_events;
    }

    /// What was counted since `earlier`, a copy of this tally.
    fn since(&self, earlier: &Tally) -> Tally {
        let mut rejects = self.rejects;
        for (n, before) in rejects.iter_mut().zip(earlier.rejects) {
            *n -= before;
        }
        Tally {
            rejects,
            deadline_events: self.deadline_events - earlier.deadline_events,
        }
    }
}

/// Cached lookup of the `CSCHED_DEBUG{n}` environment flags.
///
/// Setting `CSCHED_DEBUG2=1` prints failed copy insertions and
/// `CSCHED_DEBUG3=1` prints every rejected copy placement with the phase
/// that rejected it; the driver prints per-II failures under
/// `CSCHED_DEBUG=1`. These exist for scheduler debugging and are
/// read once per process.
pub(crate) fn debug_env(n: usize) -> bool {
    use std::sync::OnceLock;
    static FLAGS: OnceLock<[bool; 4]> = OnceLock::new();
    FLAGS.get_or_init(|| {
        [0, 1, 2, 3].map(|i| std::env::var_os(format!("CSCHED_DEBUG{i}")).is_some())
    })[n]
}

/// An engine savepoint: a journal position, and where the tables'
/// positions start on the engine's savepoint stack (`Engine::marks`).
/// Savepoints nest: each is rolled back or released before any taken
/// earlier.
#[derive(Clone, Copy, Debug)]
struct EngineSavepoint {
    journal: usize,
    marks: usize,
}

/// A memory-ordering constraint (from the kernel dependence graph): the
/// `to` operation of iteration `i` must issue after the `from` operation
/// of iteration `i - distance` completes.
#[derive(Clone, Copy, Debug)]
pub struct OrderEdge {
    /// Operation that must complete first.
    pub from: SOpId,
    /// Operation that must wait.
    pub to: SOpId,
    /// Iteration distance.
    pub distance: u32,
}

/// Reusable scratch buffers for the permutation searches of §4.3 steps
/// 2–3 and the closing machinery of steps 4–5. Buffers keep their
/// capacity across placement attempts. None of them is live across a
/// recursive [`Engine::place`] (copy insertion): the permutation
/// buffers are taken and restored within one permutation call, and the
/// closing list uses a pop/push pool so each recursion depth gets its
/// own vector.
#[derive(Default)]
struct Scratch {
    rperm: RPermBufs,
    wperm: WPermBufs,
    closing_pool: Vec<Vec<CommId>>,
    revise: Vec<(u32, WriteStub)>,
    /// Closing records, one per [`Engine::place_inner`] in progress
    /// (pop/push like `closing_pool`).
    records: Vec<ClosingRecord>,
    wmemo: WriteMemo,
}

/// How a §4.3 stub permutation (step 2 or 3) ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Permutation {
    /// No assignment fit.
    Failed,
    /// Every participant other than the operation being placed kept the
    /// stub it had.
    Kept,
    /// Some other participant's stub changed.
    Moved,
}

/// What a failed fast-path closing (§4.3 steps 4–5) of one operation did.
///
/// The slow path re-permutes every open stub on the operation's rows and
/// closes again. When that re-permutation leaves every stub where the
/// fast path had it, the closing starts from the same state as the failed
/// one, so it would fail the same way: the engine replays this record
/// instead — adds the counters, charges the budget, uses up the copy work
/// and re-emits the events. DESIGN.md §14 gives the argument and the
/// cases that rerun instead.
#[derive(Clone, Debug, Default)]
struct ClosingRecord {
    /// Whether the closing failed on its own terms (not on the budget,
    /// cancellation or an internal error), so a replay is exact.
    replayable: bool,
    /// The operation's read stub per operand slot and write stub per
    /// outgoing communication (in `comms_from` order) when it started.
    reads: Vec<Option<ReadStub>>,
    writes: Vec<Option<WriteStub>>,
    /// Placement attempts the closing made; with a budget attached, each
    /// charged one step.
    attempts: u64,
    rejections: u64,
    cross_block_copy_failures: u64,
    tally: Tally,
    /// Copy work it used up.
    copy_work: u32,
    /// Its events in [`EventLog::events`] (empty when untraced).
    events: Range<usize>,
}

/// What closing for real did where a replay was about to stand in
/// (debug builds check every replay against one).
struct ClosingRerun {
    /// Whether it succeeded or hit an internal error (never, when the
    /// replay is exact).
    ok: bool,
    stats: SchedStats,
    tally: Tally,
    /// Placement attempts it made (budget steps, with a budget).
    attempts: u64,
    copy_work: u32,
    events: Vec<TraceEvent>,
}

/// Events emitted while a fast-path closing is being recorded, so a
/// replay can re-emit them. Kept only when a trace sink is attached.
#[derive(Default)]
struct EventLog {
    events: Vec<TraceEvent>,
    /// Recordings in progress (copy insertion nests them).
    open: usize,
    /// Record without forwarding to the sink (the debug replay check).
    muted: bool,
}

/// Everything [`Engine::write_candidates_into`] reads besides the fixed
/// architecture and configuration: the producer (its rotation seed), the
/// consumer (its opcode) and operand slot, the producing unit, and the
/// file of the consumer operand's read stub, if it has one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WriteKey {
    producer: SOpId,
    consumer: SOpId,
    slot: u32,
    fu: FuId,
    rf: Option<RfId>,
}

/// Memoised write-stub rankings: each key's ranked candidates, best
/// first, as indices among the producing unit's write stubs
/// ([`ConnCache::write_stub_groups`]), stored back to back in `stubs`.
///
/// Entries are chained per communication id rather than hashed, so no
/// kernel can make lookups collide: a kernel communication's chain holds
/// one entry per producing unit and read-stub file it was ranked under.
/// The key still names the producer, consumer and slot, because rollback
/// reuses an inserted copy's communication ids.
#[derive(Default)]
struct WriteMemo {
    /// Per communication id, its newest entry (`u32::MAX` for none).
    heads: Vec<u32>,
    /// `(key, start, end, next)`: the ranking at `stubs[start..end]` and
    /// the communication's next older entry.
    entries: Vec<(WriteKey, u32, u32, u32)>,
    stubs: Vec<u16>,
}

impl WriteMemo {
    /// The memoised ranking of `cid` under `key`, if any.
    fn get(&self, cid: CommId, key: &WriteKey) -> Option<&[u16]> {
        let mut at = *self.heads.get(cid.index())?;
        while let Some(&(k, start, end, next)) = self.entries.get(at as usize) {
            if k == *key {
                return self.stubs.get(start as usize..end as usize);
            }
            at = next;
        }
        None
    }

    /// Memoises `stubs[start..]`, the ranking last pushed, for `cid` under
    /// `key`.
    fn insert(&mut self, cid: CommId, key: WriteKey, start: usize) {
        if self.heads.len() <= cid.index() {
            self.heads.resize(cid.index() + 1, u32::MAX);
        }
        let next = std::mem::replace(&mut self.heads[cid.index()], self.entries.len() as u32);
        let end = self.stubs.len() as u32;
        self.entries.push((key, start as u32, end, next));
    }
}

/// A read-permutation participant: a consumer operand `(op, slot)`.
type RParticipant = (SOpId, usize);

/// Buffers for one read-stub permutation (participants, §4.4 ordering,
/// flattened candidate lists, and the backtracking state).
#[derive(Default)]
struct RPermBufs {
    participants: Vec<RParticipant>,
    keyed: Vec<(i64, usize, RParticipant)>,
    scored: Vec<(i64, ReadStub)>,
    cand: Vec<ReadStub>,
    ranges: Vec<(u32, u32)>,
    pos: Vec<usize>,
    chosen: Vec<Option<ReadStub>>,
}

/// A write-permutation participant: the communication and the producing
/// unit.
type WParticipant = (CommId, FuId);

/// Buffers for one write-stub permutation.
#[derive(Default)]
struct WPermBufs {
    participants: Vec<WParticipant>,
    keyed: Vec<(i64, i64, u32, WParticipant)>,
    /// `(score, rotated port, port-run index)` per candidate port run.
    scored: Vec<(i64, u32, u32)>,
    search: WriteSearch,
}

/// The placed operations of one block by table row, each list in
/// placement order: `issue[r]` holds the operations issuing on row `r`,
/// `completion[r]` those completing on it. Placement adds to the lists
/// and rollback removes from them, so they always match `placements`.
#[derive(Clone, Debug, Default)]
struct RowIndex {
    issue: Vec<Vec<SOpId>>,
    completion: Vec<Vec<SOpId>>,
}

impl RowIndex {
    fn add(&mut self, issue_row: usize, completion_row: usize, op: SOpId) {
        for (rows, row) in [
            (&mut self.issue, issue_row),
            (&mut self.completion, completion_row),
        ] {
            if rows.len() <= row {
                rows.resize_with(row + 1, Vec::new);
            }
            rows[row].push(op);
        }
    }

    /// Removes `op` from its rows. Rollback unwinds placements in
    /// reverse, so `op` is the last entry of each.
    fn remove(&mut self, issue_row: usize, completion_row: usize, op: SOpId) {
        for (rows, row) in [
            (&mut self.issue, issue_row),
            (&mut self.completion, completion_row),
        ] {
            let list = rows.get_mut(row);
            debug_assert_eq!(list.as_ref().and_then(|l| l.last()), Some(&op));
            if let Some(list) = list {
                if let Some(pos) = list.iter().rposition(|&o| o == op) {
                    list.remove(pos);
                }
            }
        }
    }
}

/// The scheduling engine. See the module docs.
pub struct Engine<'a> {
    arch: &'a Architecture,
    kernel: &'a Kernel,
    /// Shared dense connectivity tables (see [`crate::conn`]).
    cache: Arc<ConnCache>,
    config: SchedulerConfig,
    /// Operations and communications (grows with copy insertion).
    pub(crate) universe: Universe,
    tables: Vec<ResourceTable>,
    placements: Vec<Option<ScheduledOp>>,
    /// Placed operations by table row, one index per block.
    row_index: Vec<RowIndex>,
    comm_info: Vec<CommInfo>,
    /// Chosen read stub per consumer operand (shared by the operand's
    /// communications).
    operand_stub: Vec<Option<ReadStub>>,
    operand_frozen: Vec<bool>,
    /// Memory-ordering edges among kernel operations.
    order_edges: Vec<OrderEdge>,
    /// ASAP estimate per kernel op (for the copy-range term of eq 1).
    asap: Vec<i64>,
    /// Current loop initiation interval (1 when scheduling straight code).
    ii: u32,
    journal: Vec<Undo>,
    /// The tables' journal positions of every live savepoint, oldest
    /// first (see [`EngineSavepoint`]).
    marks: Vec<crate::table::Savepoint>,
    /// First internal invariant violation detected during this engine's
    /// run, if any. Invariant breaks surface as placement failure (so the
    /// current attempt unwinds via the normal rollback path) and the
    /// driver converts the recorded error into [`SchedError::Internal`]
    /// instead of retrying.
    internal_error: Option<SchedError>,
    /// Remaining copy-scheduling attempts within the current top-level
    /// placement (bounds the multiplicative cost of recursive copy
    /// insertion).
    copy_work: u32,
    pub(crate) stats: SchedStats,
    /// Rejects and budget refusals so far (see [`Tally`]).
    pub(crate) tally: Tally,
    /// Number of placed operations per unit, maintained incrementally
    /// (placement increments, rollback decrements) — the driver's
    /// load tiebreak reads it in O(1) instead of scanning all ops.
    fu_load: Vec<i64>,
    /// Reusable hot-path buffers (see [`Scratch`]).
    scratch: Scratch,
    /// Optional event sink; `None` (the default) makes every emission a
    /// single never-taken branch.
    trace: Option<&'a mut dyn TraceSink>,
    /// Events of the closings being recorded (traced runs only).
    events: EventLog,
    /// Optional shared work budget, charged one step per placement
    /// attempt. `None` (the default) keeps the hot loop unbudgeted.
    budget: Option<&'a StepBudget>,
    /// First budget refusal observed, if any. Once set, every further
    /// placement attempt fails immediately without charging the budget,
    /// so a tripped engine unwinds within the contract's one-attempt
    /// overrun bound.
    budget_stop: Option<BudgetStop>,
    /// Step that failed the most recent [`Engine::place_inner`] run,
    /// reported by the rejection event.
    last_reject: RejectReason,
}

impl<'a> std::fmt::Debug for Engine<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("arch", &self.arch.name())
            .field("kernel", &self.kernel.name())
            .field("ops", &self.universe.num_ops())
            .field("ii", &self.ii)
            .finish()
    }
}

impl<'a> Engine<'a> {
    /// Creates an engine for `kernel` on `arch`. `order_edges` carries the
    /// kernel's memory-ordering constraints; `asap` the per-kernel-op ASAP
    /// estimates used by the eq 1 heuristic. `ii` configures the loop
    /// block's modulo table (pass 1 when the kernel has no loop).
    ///
    /// Builds a private [`ConnCache`]; the driver's II search uses
    /// [`Engine::with_cache`] to share one cache across every engine it
    /// creates.
    pub fn new(
        arch: &'a Architecture,
        kernel: &'a Kernel,
        config: SchedulerConfig,
        order_edges: Vec<OrderEdge>,
        asap: Vec<i64>,
        ii: u32,
    ) -> Self {
        let cache = Arc::new(ConnCache::new(arch));
        Self::with_cache(arch, kernel, config, order_edges, asap, ii, cache)
    }

    /// [`Engine::new`] with a shared connectivity cache. The cache holds
    /// no scheduling state (see [`crate::conn`]), so sharing it across II
    /// attempts and retry rungs cannot change any placement decision.
    pub fn with_cache(
        arch: &'a Architecture,
        kernel: &'a Kernel,
        config: SchedulerConfig,
        order_edges: Vec<OrderEdge>,
        asap: Vec<i64>,
        ii: u32,
        cache: Arc<ConnCache>,
    ) -> Self {
        let universe = Universe::build(kernel);
        let tables = ResourceTable::per_block(arch, kernel, ii);
        let num_ops = universe.num_ops();
        let num_operands: usize = universe.ops.iter().map(|o| o.num_operands).sum();
        let num_comms = universe.num_comms();
        Engine {
            arch,
            kernel,
            cache,
            config,
            universe,
            row_index: vec![RowIndex::default(); tables.len()],
            tables,
            placements: vec![None; num_ops],
            comm_info: vec![CommInfo::default(); num_comms],
            operand_stub: vec![None; num_operands],
            operand_frozen: vec![false; num_operands],
            order_edges,
            asap,
            ii,
            journal: Vec::new(),
            marks: Vec::new(),
            internal_error: None,
            copy_work: 0,
            stats: SchedStats::default(),
            tally: Tally::default(),
            fu_load: vec![0; arch.num_fus()],
            scratch: Scratch::default(),
            trace: None,
            events: EventLog::default(),
            budget: None,
            budget_stop: None,
            last_reject: RejectReason::Timing,
        }
    }

    /// Attaches a trace sink: subsequent placement decisions emit
    /// [`TraceEvent`]s into it. Events are emitted as decisions are
    /// explored — an accepted placement inside a subtree that is later
    /// rolled back still appears in the stream.
    pub fn set_trace_sink(&mut self, sink: &'a mut dyn TraceSink) {
        self.trace = Some(sink);
    }

    /// Attaches a shared [`StepBudget`]: every subsequent placement
    /// attempt charges one step, and the first refused charge makes this
    /// engine fail all further placements (see
    /// [`take_budget_stop`](Self::take_budget_stop)).
    pub fn set_budget(&mut self, budget: &'a StepBudget) {
        self.budget = Some(budget);
    }

    /// Whether the attached budget has refused a charge: every further
    /// placement attempt on this engine fails immediately.
    pub fn budget_stopped(&self) -> bool {
        self.budget_stop.is_some()
    }

    /// Returns and clears the budget refusal that stopped this engine,
    /// if any. The driver converts it into the typed
    /// [`SchedError::DeadlineExceeded`] / [`SchedError::Cancelled`]
    /// instead of misreporting the failure as budget exhaustion of the
    /// II search.
    pub fn take_budget_stop(&mut self) -> Option<BudgetStop> {
        self.budget_stop.take()
    }

    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            if self.events.open > 0 {
                self.events.events.push(event.clone());
            }
            if !self.events.muted {
                sink.event(event);
            }
        }
    }

    /// The architecture being scheduled for.
    pub fn arch(&self) -> &Architecture {
        self.arch
    }

    /// The shared connectivity cache.
    pub fn conn_cache(&self) -> &ConnCache {
        &self.cache
    }

    /// Number of operations currently placed on `fu` (maintained
    /// incrementally; the driver's unit-ordering tiebreak).
    pub fn fu_load(&self, fu: FuId) -> i64 {
        self.fu_load[fu.index()]
    }

    /// The configured initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Placement of `op`, if scheduled.
    pub fn placement(&self, op: SOpId) -> Option<ScheduledOp> {
        self.placements[op.index()]
    }

    /// Records an internal invariant violation and reports failure.
    ///
    /// Returns `false` so call sites can unwind through the normal
    /// placement-rejection path (which rolls the tables back); only the
    /// first violation is kept.
    fn fail_internal(&mut self, stage: &'static str, detail: impl Into<String>) -> bool {
        if self.internal_error.is_none() {
            self.internal_error = Some(SchedError::internal(stage, detail));
        }
        false
    }

    /// Takes the first internal invariant violation recorded during this
    /// engine's run, if any. The driver checks this after a failed run and
    /// reports it instead of retrying at another II.
    pub fn take_internal_error(&mut self) -> Option<SchedError> {
        self.internal_error.take()
    }

    // ----- journalling -----

    fn savepoint(&mut self) -> EngineSavepoint {
        let marks = self.marks.len();
        self.marks.extend(self.tables.iter().map(|t| t.savepoint()));
        EngineSavepoint {
            journal: self.journal.len(),
            marks,
        }
    }

    /// Keeps the work done since `sp` and forgets `sp` (with any
    /// savepoint taken after it).
    fn release(&mut self, sp: EngineSavepoint) {
        self.marks.truncate(sp.marks);
    }

    fn rollback(&mut self, sp: EngineSavepoint) {
        while self.journal.len() > sp.journal {
            let Some(entry) = self.journal.pop() else {
                break; // unreachable: the loop condition guarantees an entry
            };
            match entry {
                Undo::Comm(id, info) => self.comm_info[id.index()] = info,
                Undo::Operand(idx, stub, frozen) => {
                    self.operand_stub[idx] = stub;
                    self.operand_frozen[idx] = frozen;
                }
                Undo::Place(op) => {
                    if let Some(p) = self.placements[op.index()] {
                        self.fu_load[p.fu.index()] -= 1;
                        let block = self.block_of(op);
                        let issue_row = self.row_slot(block, p.cycle);
                        let completion_row = self.row_slot(block, p.completion());
                        self.row_index[block.index()].remove(issue_row, completion_row, op);
                    }
                    self.placements[op.index()] = None;
                }
                Undo::CommAdded => {
                    self.universe.remove_last_comm();
                    self.comm_info.pop();
                }
                Undo::CopyAdded {
                    ops,
                    comms,
                    operands,
                } => {
                    self.universe.remove_last_copy();
                    debug_assert_eq!(self.universe.num_ops(), ops);
                    debug_assert_eq!(self.universe.num_comms(), comms);
                    debug_assert_eq!(
                        self.universe
                            .ops
                            .iter()
                            .map(|o| o.num_operands)
                            .sum::<usize>(),
                        operands
                    );
                    self.placements.truncate(ops);
                    self.comm_info.truncate(comms);
                    self.operand_stub.truncate(operands);
                    self.operand_frozen.truncate(operands);
                }
            }
        }
        debug_assert!(sp.marks <= self.marks.len(), "savepoint already released");
        let marks = self.marks.get(sp.marks..).unwrap_or_default();
        for (t, &tsp) in self.tables.iter_mut().zip(marks) {
            t.rollback(tsp);
        }
        self.marks.truncate(sp.marks);
    }

    fn set_comm_info(&mut self, comm: CommId, info: CommInfo) {
        self.journal
            .push(Undo::Comm(comm, self.comm_info[comm.index()]));
        self.comm_info[comm.index()] = info;
    }

    fn set_operand(&mut self, idx: usize, stub: Option<ReadStub>, frozen: bool) {
        self.journal.push(Undo::Operand(
            idx,
            self.operand_stub[idx],
            self.operand_frozen[idx],
        ));
        self.operand_stub[idx] = stub;
        self.operand_frozen[idx] = frozen;
    }

    // ----- small helpers -----

    fn capability(&self, op: SOpId, fu: FuId) -> Option<Capability> {
        self.arch.fu(fu).capability(self.universe.op(op).opcode)
    }

    fn block_of(&self, op: SOpId) -> BlockId {
        self.universe.op(op).block
    }

    fn is_loop_block(&self, block: BlockId) -> bool {
        self.kernel.block(block).is_loop()
    }

    fn same_row(&self, block: BlockId, a: i64, b: i64) -> bool {
        if self.is_loop_block(block) {
            a.rem_euclid(self.ii as i64) == b.rem_euclid(self.ii as i64)
        } else {
            a == b
        }
    }

    /// The row of `block`'s table that `cycle` folds onto: `cycle mod II`
    /// in the loop block, the cycle itself in straight-line blocks (where
    /// placed cycles are never negative).
    fn row_slot(&self, block: BlockId, cycle: i64) -> usize {
        if self.is_loop_block(block) {
            cycle.rem_euclid(self.ii as i64) as usize
        } else {
            cycle.max(0) as usize
        }
    }

    fn block_ii(&self, block: BlockId) -> i64 {
        if self.is_loop_block(block) {
            self.ii as i64
        } else {
            // Straight-line blocks never have distance > 0 communications.
            1
        }
    }

    fn comm_closed(&self, comm: CommId) -> bool {
        self.comm_info[comm.index()].disposition.is_some()
    }

    /// Whether `comm` is *closing*: both endpoints placed and not yet
    /// closed.
    fn comm_closing(&self, comm: CommId) -> bool {
        if self.comm_closed(comm) {
            return false;
        }
        let c = self.universe.comm(comm);
        self.placements[c.producer.index()].is_some()
            && self.placements[c.consumer.index()].is_some()
    }

    /// The flat cycle on which `comm`'s value is read, in the producer's
    /// iteration frame (consumer issue + distance × II).
    fn comm_read_cycle(&self, comm: &Comm) -> Option<i64> {
        let p = self.placements[comm.consumer.index()]?;
        let block = self.block_of(comm.consumer);
        Some(p.cycle + comm.distance as i64 * self.block_ii(block))
    }

    /// The copy range (in flat producer-frame cycles) available to connect
    /// `comm`'s stubs: `None` if an endpoint is unscheduled.
    fn copy_range(&self, comm_id: CommId) -> Option<(i64, i64)> {
        let comm = self.universe.comm(comm_id);
        let wp = self.placements[comm.producer.index()]?;
        let first = wp.completion() + 1;
        if self.block_of(comm.producer) != self.block_of(comm.consumer) {
            // Cross-block: the rest of the writer's block (paper Fig 23),
            // bounded by the configured slack.
            return Some((first, wp.completion() + self.config.cross_block_copy_slack));
        }
        let read = self.comm_read_cycle(comm)?;
        Some((first, read - 1))
    }

    // ----- the five steps -----

    /// Attempts to schedule `op` on `fu` at `cycle` (block-local). Returns
    /// `true` and keeps all state on success; rolls back everything on
    /// failure. `depth` guards copy-insertion recursion.
    pub fn place(&mut self, op: SOpId, fu: FuId, cycle: i64, depth: usize) -> bool {
        self.place_ext(op, fu, cycle, depth, true)
    }

    /// [`Engine::place`] with copy insertion optionally disabled: the
    /// driver first sweeps the placement window without copies (delaying
    /// an operation is usually cheaper than a copy's unit slot and
    /// latency), then retries allowing them. Reusing an existing copy is
    /// always allowed — it consumes no new resources.
    pub fn place_ext(
        &mut self,
        op: SOpId,
        fu: FuId,
        cycle: i64,
        depth: usize,
        allow_copies: bool,
    ) -> bool {
        if self.budget_stop.is_some() {
            return false;
        }
        let Some(cap) = self.capability(op, fu) else {
            return false;
        };
        if let Some(budget) = self.budget {
            if let Err(stop) = budget.step() {
                self.budget_stop = Some(stop);
                self.tally.deadline_events += 1;
                let phase = "placement";
                self.emit(TraceEvent::DeadlineExceeded {
                    spent: budget.spent(),
                    limit: budget.limit(),
                    phase: phase.to_string(),
                    cancelled: stop == BudgetStop::Cancelled,
                });
                return false;
            }
        }
        self.stats.attempts += 1;
        self.emit(TraceEvent::PlaceAttempt {
            op: op.index() as u32,
            fu: fu.index() as u32,
            cycle,
        });
        if depth == 0 {
            self.copy_work = self.config.max_copy_attempts as u32 * 4;
        }

        if !self.timing_feasible(op, cycle, cap.latency) {
            self.tally.rejects[RejectReason::Timing as usize] += 1;
            self.emit(TraceEvent::PlaceReject {
                op: op.index() as u32,
                fu: fu.index() as u32,
                cycle,
                reason: RejectReason::Timing,
            });
            return false;
        }

        let sp = self.savepoint();
        let ok = self.place_inner(op, fu, cycle, cap, depth, allow_copies);
        if !ok {
            self.stats.rejections += 1;
            self.rollback(sp);
            let reason = self.last_reject;
            self.tally.rejects[reason as usize] += 1;
            self.emit(TraceEvent::PlaceReject {
                op: op.index() as u32,
                fu: fu.index() as u32,
                cycle,
                reason,
            });
        } else {
            self.release(sp);
            self.emit(TraceEvent::PlaceAccept {
                op: op.index() as u32,
                fu: fu.index() as u32,
                cycle,
            });
        }
        debug_assert!(
            depth > 0 || self.marks.is_empty(),
            "savepoint never released"
        );
        ok
    }

    /// Timing feasibility of issuing `op` at `cycle` against its
    /// already-scheduled communication partners and memory-order edges.
    fn timing_feasible(&self, op: SOpId, cycle: i64, latency: u32) -> bool {
        let block = self.block_of(op);
        let bii = self.block_ii(block);
        for slot in 0..self.universe.op(op).num_operands {
            for &cid in self.universe.comms_to_operand(op, slot) {
                let c = self.universe.comm(cid);
                if self.block_of(c.producer) != block {
                    continue; // blocks execute sequentially
                }
                if let Some(p) = self.placements[c.producer.index()] {
                    if cycle + c.distance as i64 * bii < p.completion() + 1 {
                        return false;
                    }
                }
            }
        }
        for &cid in self.universe.comms_from(op) {
            let c = self.universe.comm(cid);
            if self.block_of(c.consumer) != block {
                continue;
            }
            if let Some(p) = self.placements[c.consumer.index()] {
                if p.cycle + c.distance as i64 * bii < cycle + latency as i64 {
                    return false;
                }
            }
        }
        for e in &self.order_edges {
            if e.to == op {
                if let Some(p) = self.placements[e.from.index()] {
                    if cycle + e.distance as i64 * bii < p.completion() + 1 {
                        return false;
                    }
                }
            }
            if e.from == op {
                if let Some(p) = self.placements[e.to.index()] {
                    if p.cycle + e.distance as i64 * bii < cycle + latency as i64 {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn place_inner(
        &mut self,
        op: SOpId,
        fu: FuId,
        cycle: i64,
        cap: Capability,
        depth: usize,
        allow_copies: bool,
    ) -> bool {
        let dbg = self.universe.op(op).opcode == Opcode::Copy && debug_env(3);
        let block = self.block_of(op);
        if !self.tables[block.index()].place_issue(cycle, fu, cap.issue_interval, op) {
            if dbg {
                eprintln!("[copyplace] {op} {fu}@{cycle}: issue slot busy");
            }
            self.last_reject = RejectReason::IssueSlot;
            return false;
        }
        self.journal.push(Undo::Place(op));
        let placed = ScheduledOp {
            fu,
            cycle,
            latency: cap.latency,
        };
        self.placements[op.index()] = Some(placed);
        self.fu_load[fu.index()] += 1;
        let (issue_row, completion_row) = (
            self.row_slot(block, cycle),
            self.row_slot(block, placed.completion()),
        );
        self.row_index[block.index()].add(issue_row, completion_row, op);

        // Fast path: choose stubs only for the new operation against the
        // existing claims. If any of steps 2-5 then fails, fall back to the
        // full §4.3 re-permutation of every open stub on the affected rows
        // (which may revise other open communications' stubs to make room).
        let sp_steps = self.savepoint();
        let mut record = self.scratch.records.pop().unwrap_or_default();
        record.replayable = false;
        let steps = |engine: &mut Self, fast, record: &mut ClosingRecord| {
            engine.steps_two_to_five(op, fu, cycle, cap, depth, fast, allow_copies, dbg, record)
        };
        let ok = if steps(self, true, &mut record) {
            self.release(sp_steps);
            true
        } else {
            self.rollback(sp_steps);
            steps(self, false, &mut record)
        };
        self.scratch.records.push(record);
        if self.events.open == 0 {
            self.events.events.clear();
        }
        ok
    }

    /// Steps 2–5 of §4.3 on the fast path (`fast`: only the new
    /// operation's stubs, filling `record` when its closing fails) or the
    /// slow path (every open stub on its rows, replaying `record` when
    /// that moves no stub).
    #[allow(clippy::too_many_arguments)]
    fn steps_two_to_five(
        &mut self,
        op: SOpId,
        fu: FuId,
        cycle: i64,
        cap: Capability,
        depth: usize,
        fast: bool,
        allow_copies: bool,
        dbg: bool,
        record: &mut ClosingRecord,
    ) -> bool {
        let block = self.block_of(op);
        // Step 2: permutation of read stubs on the issue row.
        let reads = self.permute_reads(block, cycle, op, fast);
        if reads == Permutation::Failed {
            if dbg {
                eprintln!("[copyplace] {op} {fu}@{cycle}: read permutation failed (fast={fast})");
            }
            self.last_reject = RejectReason::ReadPermutation;
            return false;
        }
        // Step 3: permutation of write stubs on the completion row.
        let completion = cycle + cap.latency as i64 - 1;
        let writes = if self.universe.op(op).has_result {
            self.permute_writes(block, completion, op, fast)
        } else {
            Permutation::Kept
        };
        if writes == Permutation::Failed {
            if dbg {
                eprintln!("[copyplace] {op} {fu}@{cycle}: write permutation failed (fast={fast})");
            }
            self.last_reject = RejectReason::WritePermutation;
            return false;
        }
        // Steps 4 + 5: assign routes / insert copies for closing comms.
        let r = if fast {
            self.close_comms_recorded(op, depth, allow_copies, record)
        } else if reads == Permutation::Kept
            && writes == Permutation::Kept
            && self.replay_closing(op, depth, allow_copies, record)
        {
            false
        } else {
            self.close_comms(op, depth, allow_copies)
        };
        if !r {
            if dbg {
                eprintln!("[copyplace] {op} {fu}@{cycle}: closing failed (fast={fast})");
            }
            self.last_reject = RejectReason::Closing;
        }
        r
    }

    // ----- step 2: read-stub permutation -----

    /// Step 2 for `op`, just placed issuing on `cycle`: with `fast`, a
    /// permutation of its own read stubs only; otherwise of every open
    /// read stub on the row.
    fn permute_reads(&mut self, block: BlockId, cycle: i64, op: SOpId, fast: bool) -> Permutation {
        // The scratch buffers are taken out of the engine for the duration
        // of the call (no `place` recursion crosses a permutation, so a
        // single set suffices) and restored on every exit path.
        let mut bufs = std::mem::take(&mut self.scratch.rperm);
        let outcome = self.permute_reads_inner(block, cycle, op, fast, &mut bufs);
        self.scratch.rperm = bufs;
        outcome
    }

    /// Collects participants for [`Engine::permute_reads`]: non-frozen
    /// operands of `o` with at least one unclosed communication.
    fn read_participants_of(&self, o: SOpId, out: &mut Vec<RParticipant>) {
        for slot in 0..self.universe.op(o).num_operands {
            let idx = self.universe.operand_index(o, slot);
            if self.operand_frozen[idx] {
                continue;
            }
            let comms = self.universe.comms_to_operand(o, slot);
            if comms.is_empty() {
                continue;
            }
            if comms.iter().all(|&c| self.comm_closed(c)) {
                continue;
            }
            out.push((o, slot));
        }
    }

    /// The participants of a full read permutation on `cycle`'s row found
    /// by scanning every operation: the reference debug builds check the
    /// row index against.
    fn read_participants_scan(&self, block: BlockId, cycle: i64) -> Vec<RParticipant> {
        let mut out = Vec::new();
        for o in self.universe.op_ids() {
            if self.block_of(o) != block {
                continue;
            }
            if let Some(p) = self.placements[o.index()] {
                if self.same_row(block, p.cycle, cycle) {
                    self.read_participants_of(o, &mut out);
                }
            }
        }
        out
    }

    fn permute_reads_inner(
        &mut self,
        block: BlockId,
        cycle: i64,
        op: SOpId,
        fast: bool,
        bufs: &mut RPermBufs,
    ) -> Permutation {
        // Participants: non-frozen operands of ops placed in `block` whose
        // issue shares this row, having at least one unclosed
        // communication, in (op, slot) order. With `fast`, restrict to
        // `op`'s operands.
        bufs.participants.clear();
        if fast {
            let on_row =
                self.placements[op.index()].is_some_and(|p| self.same_row(block, p.cycle, cycle));
            if self.block_of(op) == block && on_row {
                self.read_participants_of(op, &mut bufs.participants);
            }
        } else {
            let row = self.row_slot(block, cycle);
            if let Some(ops) = self.row_index[block.index()].issue.get(row) {
                for &o in ops {
                    self.read_participants_of(o, &mut bufs.participants);
                }
            }
            bufs.participants.sort_unstable();
            debug_assert_eq!(
                bufs.participants,
                self.read_participants_scan(block, cycle),
                "row index disagrees with a full scan"
            );
        }
        if bufs.participants.is_empty() {
            return Permutation::Kept;
        }
        let Some(row) = self.tables[block.index()].claim_row(cycle) else {
            return Permutation::Failed;
        };

        // Release current tentative stubs. Nothing reads a participant's
        // `operand_stub` until the search ends, so it keeps the old stub
        // for the comparison below (a failed search is rolled back).
        for &(o, slot) in &bufs.participants {
            let idx = self.universe.operand_index(o, slot);
            if let Some(stub) = self.operand_stub[idx] {
                self.tables[block.index()].unplace_read_stub_at(row, stub, o, slot);
            }
        }

        // Order: operands with closing communications first, smallest copy
        // range first (§4.4); ties keep the (op, slot) order.
        if self.config.closing_first {
            bufs.keyed.clear();
            for (i, &(o, slot)) in bufs.participants.iter().enumerate() {
                let key = self.operand_search_key(o, slot);
                bufs.keyed.push((key, i, (o, slot)));
            }
            bufs.keyed.sort_unstable();
            bufs.participants.clear();
            bufs.participants
                .extend(bufs.keyed.iter().map(|&(_, _, p)| p));
        }

        // Candidate stubs per participant, scored, flattened into one
        // buffer with per-participant ranges.
        bufs.cand.clear();
        bufs.ranges.clear();
        for i in 0..bufs.participants.len() {
            let (o, slot) = bufs.participants[i];
            let start = bufs.cand.len() as u32;
            self.read_candidates_into(o, slot, &mut bufs.scored, &mut bufs.cand);
            bufs.ranges.push((start, bufs.cand.len() as u32));
        }

        // Backtracking assignment.
        let mut budget = self.config.search_budget;
        let n = bufs.participants.len();
        bufs.pos.clear();
        bufs.pos.resize(n, 0);
        bufs.chosen.clear();
        bufs.chosen.resize(n, None);
        let mut i = 0usize;
        while i < n {
            let (o, slot) = bufs.participants[i];
            let (start, end) = bufs.ranges[i];
            let ncand = (end - start) as usize;
            let mut advanced = false;
            while bufs.pos[i] < ncand {
                if budget == 0 {
                    return Permutation::Failed;
                }
                budget -= 1;
                let stub = bufs.cand[start as usize + bufs.pos[i]];
                if self.tables[block.index()].place_read_stub_at(row, stub, o, slot) {
                    bufs.chosen[i] = Some(stub);
                    advanced = true;
                    break;
                }
                bufs.pos[i] += 1;
            }
            if advanced {
                i += 1;
                if i < n {
                    bufs.pos[i] = 0;
                }
            } else {
                if i == 0 {
                    return Permutation::Failed;
                }
                i -= 1;
                let (po, pslot) = bufs.participants[i];
                let Some(stub) = bufs.chosen[i].take() else {
                    self.fail_internal(
                        "permute_reads",
                        format!("backtracked to {po} slot {pslot} with no chosen stub"),
                    );
                    return Permutation::Failed;
                };
                self.tables[block.index()].unplace_read_stub_at(row, stub, po, pslot);
                bufs.pos[i] += 1;
            }
        }
        let mut outcome = Permutation::Kept;
        for k in 0..n {
            let (o, slot) = bufs.participants[k];
            let idx = self.universe.operand_index(o, slot);
            if self.operand_stub[idx] != bufs.chosen[k] {
                if o != op {
                    outcome = Permutation::Moved;
                }
                self.set_operand(idx, bufs.chosen[k], false);
            }
            if let Some(stub) = bufs.chosen[k] {
                self.emit(TraceEvent::ReadStubAllocated {
                    op: o.index() as u32,
                    slot: slot as u32,
                    rf: stub.rf.index() as u32,
                    bus: stub.bus.index() as u32,
                });
            }
        }
        outcome
    }

    /// Sort key for the §4.4 ordering: closing communications first
    /// (smaller key), by smallest copy range.
    fn operand_search_key(&self, o: SOpId, slot: usize) -> i64 {
        let mut best: i64 = i64::MAX / 2; // open-only operands go last
        for &cid in self.universe.comms_to_operand(o, slot) {
            if self.comm_closing(cid) {
                if let Some((lo, hi)) = self.copy_range(cid) {
                    best = best.min(hi - lo);
                }
            }
        }
        best
    }

    /// Scores and ranks the read stubs available to operand (`o`, `slot`),
    /// appending the best [`MAX_STUB_CANDIDATES`] to `out`. `scored` is a
    /// scratch buffer; all scoring is O(1) reads of the shared
    /// [`ConnCache`]. The sort key `(score, port, bus)` is a total order
    /// ((port, bus) identifies a stub), so ranking is deterministic.
    fn read_candidates_into(
        &self,
        o: SOpId,
        slot: usize,
        scored: &mut Vec<(i64, ReadStub)>,
        out: &mut Vec<ReadStub>,
    ) {
        let fu = match self.placements[o.index()] {
            Some(p) => p.fu,
            None => return,
        };
        let arch = self.arch;
        let comms = self.universe.comms_to_operand(o, slot);
        scored.clear();
        for &stub in arch.read_stubs(fu, slot) {
            let mut score = 0i64;
            for &cid in comms {
                if self.comm_closed(cid) {
                    continue;
                }
                let c = self.universe.comm(cid);
                let info = self.comm_info[cid.index()];
                let d = if let (true, Some(w)) = (info.wstub_frozen, info.wstub) {
                    self.cache.copy_distance(w.rf, stub.rf)
                } else if let Some(p) = self.placements[c.producer.index()] {
                    self.cache.fu_to_rf(p.fu, stub.rf.index())
                } else {
                    // Unscheduled producer: optimistic minimum over all
                    // units able to run it.
                    let opcode = self.universe.op(c.producer).opcode;
                    self.cache.producer_to_rf(opcode, stub.rf.index())
                };
                score += match d {
                    Some(copies) => copies as i64 * 16,
                    None => 100_000,
                };
            }
            scored.push((score, stub));
        }
        let max = MAX_STUB_CANDIDATES;
        if scored.len() > max {
            scored.select_nth_unstable_by_key(max - 1, |&(s, stub)| (s, stub.port, stub.bus));
            scored.truncate(max);
        }
        scored.sort_unstable_by_key(|&(s, stub)| (s, stub.port, stub.bus));
        out.extend(scored.iter().map(|&(_, s)| s));
    }

    // ----- step 3: write-stub permutation -----

    /// Step 3 for `op`, just placed completing on `completion`: with
    /// `fast`, a permutation of its own write stubs only; otherwise of
    /// every open write stub on the row.
    fn permute_writes(
        &mut self,
        block: BlockId,
        completion: i64,
        op: SOpId,
        fast: bool,
    ) -> Permutation {
        // Scratch buffers are taken/restored exactly as in
        // [`Engine::permute_reads`].
        let mut bufs = std::mem::take(&mut self.scratch.wperm);
        let outcome = self.permute_writes_inner(block, completion, op, fast, &mut bufs);
        self.scratch.wperm = bufs;
        outcome
    }

    /// Whether `cid` participates in a write permutation on `completion`'s
    /// row of `block`; returns it with the producing unit.
    fn write_participant(
        &self,
        cid: CommId,
        block: BlockId,
        completion: i64,
    ) -> Option<WParticipant> {
        if self.comm_closed(cid) || self.comm_info[cid.index()].wstub_frozen {
            return None;
        }
        let c = self.universe.comm(cid);
        if self.block_of(c.producer) != block {
            return None;
        }
        let p = self.placements[c.producer.index()]?;
        if !self.same_row(block, p.completion(), completion) {
            return None;
        }
        Some((cid, p.fu))
    }

    /// The participants of a full write permutation on `completion`'s row
    /// found by scanning every communication: the reference debug builds
    /// check the row index against.
    fn write_participants_scan(&self, block: BlockId, completion: i64) -> Vec<WParticipant> {
        self.universe
            .comm_ids()
            .filter_map(|cid| self.write_participant(cid, block, completion))
            .collect()
    }

    fn permute_writes_inner(
        &mut self,
        block: BlockId,
        completion: i64,
        op: SOpId,
        fast: bool,
        bufs: &mut WPermBufs,
    ) -> Permutation {
        // Participants in ascending communication id. With `fast`, walk
        // just `op`'s outgoing communications, which `comms_from` lists in
        // ascending id order; otherwise those of every operation
        // completing on the row.
        bufs.participants.clear();
        if fast {
            for &cid in self.universe.comms_from(op) {
                if let Some(part) = self.write_participant(cid, block, completion) {
                    bufs.participants.push(part);
                }
            }
        } else {
            let row = self.row_slot(block, completion);
            if let Some(ops) = self.row_index[block.index()].completion.get(row) {
                for &o in ops {
                    for &cid in self.universe.comms_from(o) {
                        if let Some(part) = self.write_participant(cid, block, completion) {
                            bufs.participants.push(part);
                        }
                    }
                }
            }
            bufs.participants.sort_unstable_by_key(|&(cid, _)| cid);
            debug_assert_eq!(
                bufs.participants,
                self.write_participants_scan(block, completion),
                "row index disagrees with a full scan"
            );
        }
        if bufs.participants.is_empty() {
            return Permutation::Kept;
        }
        let Some(row) = self.tables[block.index()].claim_row(completion) else {
            return Permutation::Failed;
        };

        // As in step 2, a released stub stays in `comm_info` until the
        // search ends.
        for &(cid, _) in &bufs.participants {
            if let Some(stub) = self.comm_info[cid.index()].wstub {
                let producer = self.universe.comm(cid).producer;
                self.tables[block.index()].unplace_write_stub_at(row, stub, producer);
            }
        }

        if self.config.closing_first {
            // Sort key: closing comms first, narrowest copy range first,
            // comm index as the tiebreak.
            bufs.keyed.clear();
            for &(cid, pfu) in bufs.participants.iter() {
                let closing = self.comm_closing(cid);
                let range = if closing {
                    self.copy_range(cid).map(|(lo, hi)| hi - lo).unwrap_or(0)
                } else {
                    i64::MAX / 2
                };
                bufs.keyed.push((
                    if closing { 0 } else { 1 },
                    range,
                    cid.index() as u32,
                    (cid, pfu),
                ));
            }
            bufs.keyed.sort_unstable();
            bufs.participants.clear();
            bufs.participants
                .extend(bufs.keyed.iter().map(|&(_, _, _, c)| c));
        }

        bufs.search.clear();
        for &(cid, pfu) in &bufs.participants {
            let producer = self.universe.comm(cid).producer;
            let fanout = self.arch.fu(pfu).output_fanout();
            let out = bufs.search.add_participant(producer, fanout);
            self.ranked_write_candidates(cid, pfu, &mut bufs.scored, out);
        }
        let budget = self.config.search_budget;
        let table = &mut self.tables[block.index()];
        if !bufs.search.run(table, row, budget) {
            return Permutation::Failed;
        }
        let mut outcome = Permutation::Kept;
        for (k, &(cid, _)) in bufs.participants.iter().enumerate() {
            let info = self.comm_info[cid.index()];
            let chosen = bufs.search.chosen(k);
            if info.wstub != chosen {
                if self.universe.comm(cid).producer != op {
                    outcome = Permutation::Moved;
                }
                self.set_comm_info(
                    cid,
                    CommInfo {
                        wstub: chosen,
                        ..info
                    },
                );
            }
            if let Some(stub) = chosen {
                self.emit(TraceEvent::WriteStubAllocated {
                    comm: cid.index() as u32,
                    rf: stub.rf.index() as u32,
                    bus: stub.bus.index() as u32,
                });
            }
        }
        outcome
    }

    /// [`Engine::write_candidates_into`] through the engine's memo:
    /// appends `cid`'s ranked write stubs from producing unit `fu` to
    /// `out`. The memo keeps each stub as its index among `fu`'s write
    /// stubs. Debug builds check every hit against a fresh ranking.
    fn ranked_write_candidates(
        &mut self,
        cid: CommId,
        fu: FuId,
        scored: &mut Vec<(i64, u32, u32)>,
        out: &mut Vec<WriteStub>,
    ) {
        if self.cache.write_stub_groups(fu).0.len() > usize::from(u16::MAX) {
            return self.write_candidates_into(cid, scored, out);
        }
        let c = self.universe.comm(cid);
        let producer = c.producer;
        let key = WriteKey {
            producer,
            consumer: c.consumer,
            slot: c.slot as u32,
            fu,
            rf: self.operand_stub[self.universe.operand_index(c.consumer, c.slot)].map(|s| s.rf),
        };
        let taken = out.len();
        if let Some(hit) = self.scratch.wmemo.get(cid, &key) {
            let (stubs, _) = self.cache.write_stub_groups(fu);
            out.extend(hit.iter().map(|&i| stubs[usize::from(i)]));
            if cfg!(debug_assertions) {
                let mut fresh = Vec::new();
                self.write_candidates_into(cid, scored, &mut fresh);
                debug_assert_eq!(
                    fresh,
                    out[taken..],
                    "memoised write-stub ranking for {key:?} is stale"
                );
            }
            return;
        }
        if self.rank_write_runs(cid, scored).is_none() {
            return;
        }
        let mut memo = std::mem::take(&mut self.scratch.wmemo);
        let start = memo.stubs.len();
        let (stubs, _) = self.cache.write_stub_groups(fu);
        let ranked = scored.iter().map(|&(_, _, ri)| ri);
        self.emit_write_runs(fu, producer, ranked, |i| {
            out.push(stubs[i]);
            memo.stubs.push(i as u16); // `i` < `stubs.len()`, checked above
        });
        memo.insert(cid, key, start);
        self.scratch.wmemo = memo;
    }

    /// Scores and ranks the write stubs available to `cid`'s producer,
    /// appending the best [`MAX_STUB_CANDIDATES`] to `out`. Scores depend
    /// only on a stub's register file, so the [`ConnCache`]'s per-RF stub
    /// groups let each file be scored once instead of once per stub.
    fn write_candidates_into(
        &self,
        cid: CommId,
        scored: &mut Vec<(i64, u32, u32)>,
        out: &mut Vec<WriteStub>,
    ) {
        if let Some(fu) = self.rank_write_runs(cid, scored) {
            let producer = self.universe.comm(cid).producer;
            let (stubs, _) = self.cache.write_stub_groups(fu);
            let ranked = scored.iter().map(|&(_, _, ri)| ri);
            self.emit_write_runs(fu, producer, ranked, |i| out.push(stubs[i]));
        }
    }

    /// Ranks the `(file, port)` runs of the write stubs of `cid`'s
    /// producing unit into `scored` as `(score, rotated port, run)`, best
    /// first, and returns the unit; `None` if the producer is unplaced.
    fn rank_write_runs(&self, cid: CommId, scored: &mut Vec<(i64, u32, u32)>) -> Option<FuId> {
        let c = self.universe.comm(cid);
        let producer = c.producer;
        let consumer = c.consumer;
        let slot = c.slot;
        let fu = self.placements[producer.index()]?.fu;
        // Equal-score candidates are rotated by a per-producer seed:
        // communications from different producers spread across ports and
        // buses (instead of competing for the first few once the list is
        // truncated), while sibling communications of one result keep the
        // same bus order, so broadcasts to several register files align on
        // a single bus and respect the output fanout.
        let seed = producer.index() as u32;
        let nports = self.arch.num_write_ports().max(1) as u32;
        let operand_idx = self.universe.operand_index(consumer, slot);
        let target_rf = self.operand_stub[operand_idx].map(|s| s.rf);
        let opcode = self.universe.op(consumer).opcode;
        let (_, groups) = self.cache.write_stub_groups(fu);
        let runs = self.cache.write_stub_port_runs(fu);
        scored.clear();
        for g in groups {
            // A stub whose register file has no copy path to the
            // consumer's (possible) read files can never close this
            // communication: the read side is fixed by the consumer's
            // unit and no copy can move the value out of a dead-end
            // file. Offering such stubs lets a placement be accepted
            // whose communication is permanently unroutable, which
            // violates the §4.3 accept/reject contract — so they are
            // excluded rather than merely sorted last.
            let score = match target_rf {
                Some(rf) => match self.cache.copy_distance(g.rf, rf) {
                    Some(copies) => copies as i64 * 16,
                    None => continue,
                },
                None => {
                    // Consumer unscheduled: minimum copies to any file
                    // readable by any unit able to run the consumer.
                    match self.cache.rf_to_consumer(g.rf.index(), opcode, slot) {
                        Some(copies) => copies as i64,
                        None => continue,
                    }
                }
            };
            for ri in g.runs_start..g.runs_end {
                let rot_port = runs[ri as usize].port.wrapping_add(seed.wrapping_mul(7));
                scored.push((score, rot_port % nports, ri));
            }
        }
        scored.sort_unstable();
        Some(fu)
    }

    /// Takes the stubs of `fu`'s port runs in `ranked` order, passing each
    /// one's index among `fu`'s regrouped write stubs to `take`, until
    /// [`MAX_STUB_CANDIDATES`] are taken.
    ///
    /// The full ranking sorts stubs by `(score, rotated port, rotated
    /// bus)`. That key factors over the per-`(file, port)` runs: the score
    /// is constant per file and the rotated port per run, and a write port
    /// belongs to exactly one file, so `(score, rotated port)` is a total
    /// order over runs. Within a run the buses are sorted ascending, and
    /// ascending *rotated* bus order is the same array rotated at the wrap
    /// point `split` (the first bus whose rotation folds to zero). Taking
    /// runs in sorted order and each run's bus ring from `split` therefore
    /// reproduces exactly the stub order of sorting every `(score, port,
    /// bus)` key — without materialising or sorting per-stub keys.
    fn emit_write_runs(
        &self,
        fu: FuId,
        producer: SOpId,
        ranked: impl Iterator<Item = u32>,
        mut take: impl FnMut(usize),
    ) {
        let (stubs, _) = self.cache.write_stub_groups(fu);
        let runs = self.cache.write_stub_port_runs(fu);
        let nbuses = self.arch.num_buses().max(1) as u32;
        let shift = (producer.index() as u32).wrapping_mul(13) % nbuses;
        let split = (nbuses - shift) % nbuses;
        let max = MAX_STUB_CANDIDATES;
        let mut taken = 0;
        for ri in ranked {
            let run = &runs[ri as usize];
            let (start, end) = (run.start as usize, run.end as usize);
            let pivot =
                start + stubs[start..end].partition_point(|s| (s.bus.index() as u32) < split);
            for i in (pivot..end).chain(start..pivot) {
                take(i);
                taken += 1;
                if taken >= max {
                    return;
                }
            }
        }
    }

    // ----- steps 4 and 5: route assignment and copy insertion -----

    fn close_comms(&mut self, op: SOpId, depth: usize, allow_copies: bool) -> bool {
        // The closing list lives across the `place` recursion below (copy
        // insertion re-enters `close_comms`), so it is drawn from a pool of
        // reusable buffers rather than a single scratch slot.
        let mut closing = self.scratch.closing_pool.pop().unwrap_or_default();
        closing.clear();
        for slot in 0..self.universe.op(op).num_operands {
            for &c in self.universe.comms_to_operand(op, slot) {
                if self.comm_closing(c) {
                    closing.push(c);
                }
            }
        }
        for &c in self.universe.comms_from(op) {
            if self.comm_closing(c) {
                closing.push(c);
            }
        }
        closing.sort_unstable();
        closing.dedup();
        // Smallest copy range first, so tight communications claim routes
        // before flexible ones.
        closing.sort_by_key(|&c| self.copy_range(c).map(|(lo, hi)| hi - lo).unwrap_or(0));

        let mut ok = true;
        for &cid in &closing {
            if self.comm_closed(cid) {
                continue; // may have been split while closing another
            }
            if !self.close_one(cid, depth, allow_copies) {
                ok = false;
                break;
            }
        }
        self.scratch.closing_pool.push(closing);
        ok
    }

    /// `op`'s read stub per operand slot.
    fn op_read_stubs(&self, op: SOpId) -> impl Iterator<Item = Option<ReadStub>> + use<'_, 'a> {
        (0..self.universe.op(op).num_operands)
            .map(move |slot| self.operand_stub[self.universe.operand_index(op, slot)])
    }

    /// `op`'s write stub per outgoing communication.
    fn op_write_stubs(&self, op: SOpId) -> impl Iterator<Item = Option<WriteStub>> + use<'_, 'a> {
        self.universe
            .comms_from(op)
            .iter()
            .map(|c| self.comm_info[c.index()].wstub)
    }

    /// Starts recording emitted events when traced; returns where the
    /// recording starts in the log.
    fn open_recording(&mut self) -> usize {
        if self.trace.is_some() {
            self.events.open += 1;
        }
        self.events.events.len()
    }

    /// Ends the recording [`Engine::open_recording`] started; returns
    /// where it ends in the log.
    fn close_recording(&mut self) -> usize {
        if self.trace.is_some() {
            self.events.open -= 1;
        }
        self.events.events.len()
    }

    /// [`Engine::close_comms`] on the fast path, recording in `record`
    /// what it did and whether a replay of it would be exact.
    fn close_comms_recorded(
        &mut self,
        op: SOpId,
        depth: usize,
        allow_copies: bool,
        record: &mut ClosingRecord,
    ) -> bool {
        record.reads.clear();
        record.reads.extend(self.op_read_stubs(op));
        record.writes.clear();
        record.writes.extend(self.op_write_stubs(op));
        let (stats, tally, copy_work) = (self.stats, self.tally, self.copy_work);
        let start = self.open_recording();
        let ok = self.close_comms(op, depth, allow_copies);
        let end = self.close_recording();
        // A closing that stopped on the budget, on cancellation or on an
        // internal error is never replayed.
        record.replayable = !ok && self.budget_stop.is_none() && self.internal_error.is_none();
        record.attempts = self.stats.attempts - stats.attempts;
        record.rejections = self.stats.rejections - stats.rejections;
        record.cross_block_copy_failures =
            self.stats.cross_block_copy_failures - stats.cross_block_copy_failures;
        record.tally = self.tally.since(&tally);
        record.copy_work = copy_work - self.copy_work;
        record.events = start..end;
        ok
    }

    /// Replays the failed fast-path closing of `op` in `record`, if closing
    /// again from here would fail the same way, and returns whether it did.
    ///
    /// The caller has seen the slow path's permutations keep every other
    /// stub, and `op`'s stubs are checked here, so the closing would start
    /// from the state the recorded one started from. Only the copy work
    /// and budget left differ: a rerun could run out of either where the
    /// recorded closing did not, or see the budget's token cancelled, and
    /// those cases rerun for real.
    fn replay_closing(
        &mut self,
        op: SOpId,
        depth: usize,
        allow_copies: bool,
        record: &ClosingRecord,
    ) -> bool {
        if !record.replayable
            || self.copy_work < record.copy_work
            || !self.op_read_stubs(op).eq(record.reads.iter().copied())
            || !self.op_write_stubs(op).eq(record.writes.iter().copied())
        {
            return false;
        }
        // Debug builds close for real first and check the replay against
        // what that did.
        let check = cfg!(debug_assertions).then(|| {
            let spent = self.budget.map(StepBudget::spent);
            (self.rerun_closing(op, depth, allow_copies), spent)
        });
        if let Some(budget) = self.budget {
            if !budget.charge(record.attempts) {
                return false;
            }
        }
        self.stats.attempts += record.attempts;
        self.stats.rejections += record.rejections;
        self.stats.cross_block_copy_failures += record.cross_block_copy_failures;
        self.tally.add(&record.tally);
        self.copy_work -= record.copy_work;
        for i in record.events.clone() {
            let event = self.events.events[i].clone();
            self.emit(event);
        }
        if let Some((rerun, spent)) = check {
            debug_assert!(!rerun.ok, "replayed a closing that reruns differently");
            debug_assert_eq!(self.stats, rerun.stats, "replayed counters differ");
            debug_assert_eq!(self.tally, rerun.tally, "replayed rejects differ");
            debug_assert_eq!(
                self.copy_work, rerun.copy_work,
                "replayed copy work differs"
            );
            debug_assert_eq!(
                self.events.events[record.events.clone()],
                rerun.events[..],
                "replayed events differ"
            );
            if let (Some(budget), Some(spent)) = (self.budget, spent) {
                debug_assert_eq!(
                    budget.spent() - spent,
                    rerun.attempts,
                    "replayed budget charge differs"
                );
            }
        }
        true
    }

    /// Closes `op` for real from here, muted and without the budget, and
    /// returns what that did, leaving the engine as it was (the debug
    /// check of [`Engine::replay_closing`]).
    fn rerun_closing(&mut self, op: SOpId, depth: usize, allow_copies: bool) -> ClosingRerun {
        let sp = self.savepoint();
        let (stats, tally, copy_work) = (self.stats, self.tally, self.copy_work);
        let budget = self.budget.take();
        let muted = std::mem::replace(&mut self.events.muted, true);
        let start = self.open_recording();
        let ok = self.close_comms(op, depth, allow_copies);
        self.close_recording();
        let rerun = ClosingRerun {
            ok: ok || self.internal_error.is_some(),
            stats: self.stats,
            tally: self.tally,
            attempts: self.stats.attempts - stats.attempts,
            copy_work: self.copy_work,
            events: self.events.events.split_off(start),
        };
        self.events.muted = muted;
        self.budget = budget;
        self.rollback(sp);
        (self.stats, self.tally, self.copy_work) = (stats, tally, copy_work);
        rerun
    }

    fn close_one(&mut self, cid: CommId, depth: usize, allow_copies: bool) -> bool {
        let c = self.universe.comm(cid).clone();
        let operand_idx = self.universe.operand_index(c.consumer, c.slot);
        let Some(rstub) = self.operand_stub[operand_idx] else {
            return self.fail_internal(
                "close_one",
                format!(
                    "{cid:?} closing but consumer {} has no read stub",
                    c.consumer
                ),
            );
        };
        let info = self.comm_info[cid.index()];
        let Some(wstub) = info.wstub else {
            return self.fail_internal(
                "close_one",
                format!(
                    "{cid:?} closing but producer {} has no write stub",
                    c.producer
                ),
            );
        };

        if wstub.rf == rstub.rf {
            return self.close_direct(cid, Route { wstub, rstub });
        }
        // Revise the write stub toward the read stub (the nested write
        // permutation of §4.3 step 2, simplified to a per-comm revision):
        // the best reachable file is the read stub's own file (a route), or
        // failing that the file with the fewest copies to it.
        if !info.wstub_frozen {
            self.revise_wstub_toward(cid, rstub.rf);
            let Some(w) = self.comm_info[cid.index()].wstub else {
                return self.fail_internal(
                    "close_one",
                    format!("{cid:?} lost its write stub during revision"),
                );
            };
            if w.rf == rstub.rf {
                return self.close_direct(cid, Route { wstub: w, rstub });
            }
        }
        let Some(wstub) = self.comm_info[cid.index()].wstub else {
            return self.fail_internal(
                "close_one",
                format!("{cid:?} lost its write stub during revision"),
            );
        };
        // Try revising the read stub to meet the write stub.
        if !self.operand_frozen[operand_idx] && self.try_revise_rstub(cid, wstub.rf) {
            let Some(r) = self.operand_stub[operand_idx] else {
                return self.fail_internal(
                    "close_one",
                    format!("{cid:?} read-stub revision succeeded but left no stub"),
                );
            };
            return self.close_direct(cid, Route { wstub, rstub: r });
        }
        // Step 5: connect the stubs with a copy operation.
        if debug_env(2) {
            let info2 = self.comm_info[cid.index()];
            eprintln!(
                "[closeone] {cid:?} prod={:?} cons={:?} slot={} wstub_frozen={} op_frozen={} wrf={:?} rrf={:?}",
                c.producer, c.consumer, c.slot, info2.wstub_frozen,
                self.operand_frozen[operand_idx],
                info2.wstub.map(|w| w.rf), rstub.rf
            );
        }
        self.insert_copy(cid, depth, allow_copies)
    }

    /// Re-chooses `cid`'s tentative write stub to minimise the copy
    /// distance to `target` (0 = forms a route). Keeps the old stub if no
    /// strictly better placement is possible.
    fn revise_wstub_toward(&mut self, cid: CommId, target: csched_machine::RfId) {
        let c = self.universe.comm(cid).clone();
        // Revision is an optional improvement: on a broken precondition
        // (unplaced producer or missing stub) keep the current stub rather
        // than failing the placement.
        let Some(p) = self.placements[c.producer.index()] else {
            return;
        };
        let block = self.block_of(c.producer);
        let info = self.comm_info[cid.index()];
        let Some(old) = info.wstub else {
            return;
        };
        let current = self
            .cache
            .copy_distance(old.rf, target)
            .map_or(u32::MAX, |d| d);
        if current == 0 {
            return;
        }
        // Candidate stubs strictly closer to `target`, scored per register
        // file via the cache's stub groups and collected into a reusable
        // scratch buffer.
        let mut candidates = std::mem::take(&mut self.scratch.revise);
        candidates.clear();
        let (stubs, groups) = self.cache.write_stub_groups(p.fu);
        for g in groups {
            let d = self
                .cache
                .copy_distance(g.rf, target)
                .map_or(u32::MAX, |d| d);
            if d >= current {
                continue;
            }
            for &stub in &stubs[g.start as usize..g.end as usize] {
                candidates.push((d, stub));
            }
        }
        candidates.sort_unstable_by_key(|&(d, s)| (d, s.port, s.bus));
        if candidates.is_empty() {
            self.scratch.revise = candidates;
            return;
        }
        let fanout = self.arch.fu(p.fu).output_fanout();
        let sp = self.savepoint();
        self.tables[block.index()].unplace_write_stub(p.completion(), old, c.producer);
        let mut placed = None;
        for &(_, stub) in &candidates {
            if self.tables[block.index()].place_write_stub(p.completion(), stub, c.producer, fanout)
            {
                placed = Some(stub);
                break;
            }
        }
        self.scratch.revise = candidates;
        match placed {
            Some(stub) => {
                self.release(sp);
                self.set_comm_info(
                    cid,
                    CommInfo {
                        wstub: Some(stub),
                        ..info
                    },
                );
                self.emit(TraceEvent::WriteStubRevised {
                    comm: cid.index() as u32,
                    rf: stub.rf.index() as u32,
                });
            }
            None => self.rollback(sp),
        }
    }

    fn close_direct(&mut self, cid: CommId, route: Route) -> bool {
        let c = self.universe.comm(cid).clone();
        let operand_idx = self.universe.operand_index(c.consumer, c.slot);
        self.set_comm_info(
            cid,
            CommInfo {
                wstub: Some(route.wstub),
                wstub_frozen: true,
                disposition: Some(CommDisposition::Direct(route)),
            },
        );
        let stub = self.operand_stub[operand_idx];
        self.set_operand(operand_idx, stub, true);
        self.emit(TraceEvent::RouteClosed {
            comm: cid.index() as u32,
            rf: route.wstub.rf.index() as u32,
            direct: true,
        });
        true
    }

    fn try_revise_rstub(&mut self, cid: CommId, target: csched_machine::RfId) -> bool {
        let c = self.universe.comm(cid).clone();
        // Like write-stub revision, this is best-effort: broken
        // preconditions mean no revision, not a failed placement.
        let Some(q) = self.placements[c.consumer.index()] else {
            return false;
        };
        let block = self.block_of(c.consumer);
        let operand_idx = self.universe.operand_index(c.consumer, c.slot);
        let Some(old) = self.operand_stub[operand_idx] else {
            return false;
        };
        let sp = self.savepoint();
        self.tables[block.index()].unplace_read_stub(q.cycle, old, c.consumer, c.slot);
        let arch = self.arch;
        for &stub in arch.read_stubs(q.fu, c.slot) {
            if stub.rf != target {
                continue;
            }
            if self.tables[block.index()].place_read_stub(q.cycle, stub, c.consumer, c.slot) {
                self.release(sp);
                self.set_operand(operand_idx, Some(stub), false);
                return true;
            }
        }
        self.rollback(sp);
        false
    }

    /// Attaches `cid` to an already-scheduled copy that moves the same
    /// value into the read stub's register file, if one exists and
    /// completes before the consumer reads.
    fn try_reuse_copy(
        &mut self,
        cid: CommId,
        c: &Comm,
        rstub: ReadStub,
        cross_block: bool,
    ) -> bool {
        let producer_block = self.block_of(c.producer);
        let read_at = if cross_block {
            None
        } else {
            self.comm_read_cycle(c)
        };
        let mut found: Option<(SOpId, WriteStub)> = None;
        for cand_idx in self.universe.num_kernel_ops()..self.universe.num_ops() {
            let cand = SOpId::from_raw(cand_idx);
            if self.universe.op(cand).block != producer_block {
                continue;
            }
            let Some(cp) = self.placements[cand.index()] else {
                continue;
            };
            // Must carry this very value (a distance-0 communication from
            // the same producer into the copy's operand).
            let feeds = self.universe.comms_to_operand(cand, 0).iter().any(|&c1| {
                let k = self.universe.comm(c1);
                k.producer == c.producer && k.distance == 0
            });
            if !feeds {
                continue;
            }
            // Must already deliver into the target file.
            let wstub = self.universe.comms_from(cand).iter().find_map(|&c2| {
                match self.comm_info[c2.index()].disposition {
                    Some(CommDisposition::Direct(r)) if r.wstub.rf == rstub.rf => Some(r.wstub),
                    _ => None,
                }
            });
            let Some(wstub) = wstub else { continue };
            // Must complete before the consumer reads.
            if let Some(read_at) = read_at {
                if cp.completion() + 1 > read_at {
                    continue;
                }
            }
            found = Some((cand, wstub));
            break;
        }
        let Some((cop, wstub)) = found else {
            return false;
        };
        let Some(cp) = self.placements[cop.index()] else {
            return false; // unreachable: `found` requires a placement
        };
        // Bump the shared write-stub claim for the new communication (an
        // identical claim, so it can only dedupe).
        let fanout = self.arch.fu(cp.fu).output_fanout();
        if !self.tables[producer_block.index()].place_write_stub(
            cp.completion(),
            wstub,
            cop,
            fanout,
        ) {
            return false;
        }
        self.universe.add_comm(Comm {
            producer: cop,
            consumer: c.consumer,
            slot: c.slot,
            distance: c.distance,
        });
        self.comm_info.push(CommInfo {
            wstub: Some(wstub),
            wstub_frozen: true,
            disposition: Some(CommDisposition::Direct(Route { wstub, rstub })),
        });
        self.journal.push(Undo::CommAdded);
        // Freeze the consumer operand and close the original through the
        // reused copy.
        let operand_idx = self.universe.operand_index(c.consumer, c.slot);
        let stub = self.operand_stub[operand_idx];
        self.set_operand(operand_idx, stub, true);
        let info = self.comm_info[cid.index()];
        self.set_comm_info(
            cid,
            CommInfo {
                disposition: Some(CommDisposition::Via(cop)),
                ..info
            },
        );
        self.emit(TraceEvent::CopyReused {
            comm: cid.index() as u32,
            copy: cop.index() as u32,
        });
        self.emit(TraceEvent::RouteClosed {
            comm: cid.index() as u32,
            rf: rstub.rf.index() as u32,
            direct: false,
        });
        true
    }

    fn insert_copy(&mut self, cid: CommId, depth: usize, allow_copies: bool) -> bool {
        if depth >= self.config.max_copy_depth {
            return false;
        }
        let c = self.universe.comm(cid).clone();
        let operand_idx = self.universe.operand_index(c.consumer, c.slot);
        let info = self.comm_info[cid.index()];
        let Some(wstub) = info.wstub else {
            return self.fail_internal(
                "insert_copy",
                format!("{cid:?} needs a copy but has no write stub"),
            );
        };
        let Some(rstub) = self.operand_stub[operand_idx] else {
            return self.fail_internal(
                "insert_copy",
                format!("{cid:?} needs a copy but its consumer has no read stub"),
            );
        };
        let Some((range_lo, range_hi)) = self.copy_range(cid) else {
            return false;
        };
        if range_lo > range_hi {
            return false;
        }
        let cross_block = self.block_of(c.producer) != self.block_of(c.consumer);
        let copy_block = self.block_of(c.producer);

        // Prefer reusing an existing copy of the same value into the same
        // register file: one copy operation can serve every communication
        // that needs the value there (the hardware reads the register as
        // often as it likes).
        if self.try_reuse_copy(cid, &c, rstub, cross_block) {
            return true;
        }
        if !allow_copies {
            return false; // the driver retries this window allowing copies
        }

        // Freeze the endpoints: the copy connects exactly these stubs.
        self.set_comm_info(
            cid,
            CommInfo {
                wstub: Some(wstub),
                wstub_frozen: true,
                disposition: None, // set to Via after the copy schedules
            },
        );
        let rs = self.operand_stub[operand_idx];
        self.set_operand(operand_idx, rs, true);
        self.emit(TraceEvent::StubsFrozen {
            comm: cid.index() as u32,
        });

        let ops_before = self.universe.num_ops();
        let comms_before = self.universe.num_comms();
        let operands_before = self.operand_stub.len();
        let copy = self.universe.add_copy(copy_block);
        // First leg: producer -> copy (same iteration frame); second leg:
        // copy -> consumer, carrying the original distance.
        self.universe.add_comm(Comm {
            producer: c.producer,
            consumer: copy,
            slot: 0,
            distance: 0,
        });
        self.universe.add_comm(Comm {
            producer: copy,
            consumer: c.consumer,
            slot: c.slot,
            distance: c.distance,
        });
        self.placements.push(None);
        self.comm_info.push(CommInfo {
            wstub: Some(wstub),
            wstub_frozen: true,
            disposition: None,
        });
        self.comm_info.push(CommInfo::default());
        self.operand_stub.push(None);
        self.operand_frozen.push(false);
        self.journal.push(Undo::CopyAdded {
            ops: ops_before,
            comms: comms_before,
            operands: operands_before,
        });
        self.set_comm_info(
            cid,
            CommInfo {
                wstub: Some(wstub),
                wstub_frozen: true,
                disposition: Some(CommDisposition::Via(copy)),
            },
        );

        // Schedule the copy like any other operation, restricted to the
        // copy range. Only units that can read the staged file directly can
        // complete the route without further copies; a couple of indirect
        // units are tried as well while recursion depth remains. The
        // ranked unit list is precomputed per source file in the shared
        // [`ConnCache`] (cloned `Arc` so `self` stays borrowable below).
        let cache = Arc::clone(&self.cache);
        let rank = cache.copy_rank(wstub.rf);
        let keep = if depth + 1 < self.config.max_copy_depth {
            rank.direct_count() + 2
        } else {
            rank.direct_count()
        };
        let ranked = rank.fus();
        let fus = &ranked[..ranked.len().min(keep.max(1))];

        let mut tries = 0usize;
        'search: for cycle in range_lo..=range_hi {
            for &(score, f) in fus {
                if score >= 100_000 {
                    continue;
                }
                let lat = match self.capability(copy, f) {
                    Some(cap) => cap.latency as i64,
                    None => continue,
                };
                // The copy must complete within the range (completion =
                // cycle + lat - 1 <= range_hi).
                if !cross_block && cycle + lat > range_hi + 1 {
                    continue;
                }
                tries += 1;
                if tries > self.config.max_copy_attempts || self.copy_work == 0 {
                    break 'search;
                }
                self.copy_work -= 1;
                if self.place(copy, f, cycle, depth + 1) {
                    self.emit(TraceEvent::CopyInserted {
                        comm: cid.index() as u32,
                        copy: copy.index() as u32,
                    });
                    self.emit(TraceEvent::RouteClosed {
                        comm: cid.index() as u32,
                        rf: rstub.rf.index() as u32,
                        direct: false,
                    });
                    return true;
                }
            }
        }
        if cross_block {
            // A cross-block copy range cannot grow by delaying the reader;
            // the driver widens the writer-side slack instead (the paper's
            // §4.5 backtracking, expressed as range growth).
            self.stats.cross_block_copy_failures += 1;
        }
        if debug_env(2) {
            eprintln!(
                "[copyfail] comm {cid:?} range {range_lo}..={range_hi} wrf={:?} rrf={:?} fus={:?} tries={tries}",
                wstub.rf,
                rstub.rf,
                fus.iter().take(4).collect::<Vec<_>>()
            );
        }
        false
    }

    // ----- finishing -----

    /// Whether every communication has been closed.
    pub fn all_closed(&self) -> bool {
        self.universe
            .comm_ids()
            .all(|c| self.comm_info[c.index()].disposition.is_some())
    }

    /// Consumes the engine into a [`Schedule`].
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Internal`] if any operation is unplaced, any
    /// communication is unclosed, or an internal invariant violation was
    /// recorded during the run — all states the driver never reaches on a
    /// successful run, reported as typed errors rather than panics.
    pub fn into_schedule(mut self, has_loop: bool) -> Result<Schedule, SchedError> {
        if let Some(e) = self.take_internal_error() {
            return Err(e);
        }
        let mut placements: Vec<ScheduledOp> = Vec::with_capacity(self.placements.len());
        for (i, p) in self.placements.iter().enumerate() {
            match p {
                Some(p) => placements.push(*p),
                None => {
                    return Err(SchedError::internal(
                        "into_schedule",
                        format!("{} is unplaced in a finished run", SOpId::from_raw(i)),
                    ));
                }
            }
        }
        let mut dispositions: Vec<CommDisposition> = Vec::with_capacity(self.comm_info.len());
        for (i, info) in self.comm_info.iter().enumerate() {
            match info.disposition {
                Some(d) => dispositions.push(d),
                None => {
                    return Err(SchedError::internal(
                        "into_schedule",
                        format!("{} is unclosed in a finished run", CommId::from_raw(i)),
                    ));
                }
            }
        }
        let mut block_len = vec![0i64; self.kernel.blocks().len()];
        for (i, p) in placements.iter().enumerate() {
            let b = self.universe.ops[i].block.index();
            block_len[b] = block_len[b].max(p.completion() + 1);
        }
        let mut stats = self.stats;
        stats.copies_inserted = (self.universe.num_ops() - self.universe.num_kernel_ops()) as u64;
        Ok(Schedule {
            arch_name: self.arch.name().to_string(),
            kernel_name: self.kernel.name().to_string(),
            universe: self.universe,
            placements,
            dispositions,
            block_len,
            ii: has_loop.then_some(self.ii),
            stats,
        })
    }

    /// The communication-cost heuristic of §4.6 (eq 1): estimated copies
    /// divided by (1 + copy range) summed over the open communications
    /// that assigning `op` to `fu` at `cycle` would affect.
    pub fn comm_cost(&self, op: SOpId, fu: FuId, cycle: i64) -> f64 {
        let mut cost = 0.0f64;
        let bii = self.block_ii(self.block_of(op));
        for slot in 0..self.universe.op(op).num_operands {
            for &cid in self.universe.comms_to_operand(op, slot) {
                let c = self.universe.comm(cid);
                if self.comm_closed(cid) {
                    continue;
                }
                let (copies, prod_done) = match self.placements[c.producer.index()] {
                    Some(p) => {
                        let best = self
                            .arch
                            .read_stubs(fu, c.slot)
                            .iter()
                            .filter_map(|rs| self.cache.fu_to_rf(p.fu, rs.rf.index()))
                            .min();
                        (best, p.completion())
                    }
                    None => {
                        let kop = self.universe.op(c.producer).kernel_op;
                        let est = kop.map(|k| self.asap[k.index()]).unwrap_or(0);
                        (Some(0), est)
                    }
                };
                let Some(copies) = copies else {
                    cost += 1000.0;
                    continue;
                };
                if copies == 0 {
                    continue;
                }
                let range = (cycle + c.distance as i64 * bii - 1 - prod_done).max(0);
                cost += copies as f64 / (1.0 + range as f64);
            }
        }
        for &cid in self.universe.comms_from(op) {
            let c = self.universe.comm(cid);
            if self.comm_closed(cid) {
                continue;
            }
            let cap = match self.capability(op, fu) {
                Some(cap) => cap,
                None => continue,
            };
            let completion = cycle + cap.latency as i64 - 1;
            let (copies, read_at) = match self.placements[c.consumer.index()] {
                Some(q) => {
                    let best = self.cache.min_route_copies(fu, q.fu, c.slot);
                    (best, q.cycle + c.distance as i64 * bii)
                }
                None => {
                    let opcode = self.universe.op(c.consumer).opcode;
                    let best = self.cache.fu_to_consumer(fu, opcode, c.slot);
                    let kop = self.universe.op(c.consumer).kernel_op;
                    let est = kop.map(|k| self.asap[k.index()]).unwrap_or(0);
                    (best, est + c.distance as i64 * bii)
                }
            };
            let Some(copies) = copies else {
                cost += 1000.0;
                continue;
            };
            if copies == 0 {
                continue;
            }
            let range = (read_at - 1 - completion).max(0);
            cost += copies as f64 / (1.0 + range as f64);
        }
        cost
    }
}
