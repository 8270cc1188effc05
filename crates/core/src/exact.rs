//! Exact-scheduling oracle: branch-and-bound certification of the
//! minimum initiation interval.
//!
//! The paper's scheduler is a heuristic — it reports *an* II, never *the*
//! II. This module is the correctness oracle behind the gap reports in
//! `csched-eval`: for a candidate II it runs a complete backtracking
//! search over (functional unit, cycle) placements × (write stub, read
//! stub) routings, on the same transactional [`ResourceTable`]s the
//! engine uses, and either produces a schedule (independently re-checked
//! by [`validate`]) or proves that no schedule exists in
//! the normalised search space. Iterating the candidate II upward from
//! `max(RecMII, ResMII)` certifies the minimum (DESIGN.md §17).
//!
//! # The normalised search space
//!
//! A complete search over unbounded schedules is impossible, so the
//! oracle searches a *normalised* space and its `Infeasible` verdict is
//! relative to it:
//!
//! - every operation issues within a window of `II +` [`WINDOW_SLACK`]
//!   cycles (straight-line blocks: [`STRAIGHT_HORIZON`]) past its
//!   earliest feasible cycle given already-placed neighbours — any modulo
//!   schedule can be compacted operation-by-operation into this window,
//!   with [`WINDOW_SLACK`] covering back-edge effects;
//! - copy chains have depth ≤ 1 and at most [`MAX_COPIES`] copies, each
//!   issuing within [`COPY_SLACK`] cycles of its producer's completion
//!   (the paper machines never need more on the evaluation kernels; on a
//!   machine that does, the verdict is *conservative*: an `Infeasible`,
//!   or a `Certified` II above the true minimum, never an invalid
//!   witness).
//!
//! A `Certified` witness is unconditional: it passed the independent
//! validator. Its minimality, like `Infeasible`, holds within the space
//! above: every smaller II was exhaustively refuted there. So when a
//! validated schedule sits at an II the verdict excludes, either that
//! schedule lies outside the normalised space or one of the two checkers
//! is wrong; the gap pass in `csched-eval` grades both as a
//! `disagreement`, to be looked at by hand.
//!
//! # Budgets
//!
//! Every search node (one placement or routing trial) charges one step of
//! the caller's [`StepBudget`], so oracle runs are deterministic and
//! bounded; exhausting the budget yields the typed
//! [`ExactVerdict::GapUnknown`] rather than an error. Search statistics
//! (nodes expanded, prunes by reason) are surfaced per candidate II in
//! [`ExactReport::per_ii`] and rendered by
//! [`ExactReport::render_text`].
//!
//! ```
//! use csched_core::exact::{certify_min_ii, ExactVerdict};
//! use csched_core::StepBudget;
//! use csched_ir::KernelBuilder;
//! use csched_machine::{toy, Opcode};
//!
//! let mut kb = KernelBuilder::new("inc");
//! let lp = kb.loop_block("body");
//! let i = kb.loop_var(lp, 0i64.into());
//! let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
//! kb.set_update(i, i1.into());
//! let kernel = kb.build()?;
//!
//! let arch = toy::motivating_example();
//! let budget = StepBudget::new(100_000);
//! let report = certify_min_ii(&arch, &kernel, 128, &budget)?;
//! assert_eq!(report.verdict, ExactVerdict::Certified { ii: 1 });
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;

use csched_ir::{BlockId, Kernel};
use csched_machine::{Architecture, Capability, FuId, Opcode, ReadStub};

use crate::budget::{BudgetStop, StepBudget};
use crate::driver::{prepare, Prepared};
use crate::error::SchedError;
use crate::schedule::{CommDisposition, Route, SchedStats, Schedule, ScheduledOp};
use crate::table::{ResourceTable, Savepoint};
use crate::universe::{Comm, CommId, SOpId, Universe};
use crate::validate;

// The normalised search space the `Infeasible` verdict is relative to
// (module docs). Gap journals key on these values.

/// Extra cycles past `II` in each loop operation's issue window.
pub const WINDOW_SLACK: i64 = 8;
/// Issue-window length for straight-line block operations.
pub const STRAIGHT_HORIZON: i64 = 64;
/// Maximum copies live in one candidate schedule.
pub const MAX_COPIES: usize = 4;
/// Cycles past its producer's completion a copy may issue.
pub const COPY_SLACK: i64 = 8;

/// The oracle's answer for one `(architecture, kernel)` cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExactVerdict {
    /// `ii` is the minimum initiation interval: a validated schedule
    /// exists at `ii` and every II below it (down to the MII) was
    /// exhaustively refuted. Kernels without a loop block certify as
    /// `ii = 0` (schedulability proven; II is a loop metric).
    Certified {
        /// The certified minimum initiation interval.
        ii: u32,
    },
    /// The step budget ran out before the search settled; the optimality
    /// gap at this cell stays unknown.
    GapUnknown {
        /// Search steps charged when the budget tripped.
        spent: u64,
        /// The configured budget limit.
        limit: u64,
    },
    /// No schedule exists within the normalised search space for any II
    /// up to the `max_ii` cap.
    Infeasible {
        /// The largest candidate II refuted.
        max_ii: u32,
    },
}

impl ExactVerdict {
    /// Stable lower-snake-case verdict name (used in gap-report JSON).
    pub fn name(&self) -> &'static str {
        match self {
            ExactVerdict::Certified { .. } => "certified",
            ExactVerdict::GapUnknown { .. } => "gap_unknown",
            ExactVerdict::Infeasible { .. } => "infeasible",
        }
    }

    /// The certified II, when the verdict is [`ExactVerdict::Certified`].
    pub fn certified_ii(&self) -> Option<u32> {
        match self {
            ExactVerdict::Certified { ii } => Some(*ii),
            _ => None,
        }
    }
}

/// Search statistics for one candidate II.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IiStats {
    /// The candidate initiation interval.
    pub ii: u32,
    /// Whether a schedule was found at this II.
    pub feasible: bool,
    /// Search nodes expanded (placement and routing trials).
    pub nodes: u64,
    /// Trials pruned by an occupied issue slot.
    pub pruned_issue: u64,
    /// Placements pruned by an empty dependence window.
    pub pruned_timing: u64,
    /// Routing trials pruned by stub resource conflicts.
    pub pruned_routing: u64,
}

impl IiStats {
    /// The dominant prune reason at this II, as a stable name (`None`
    /// when nothing was pruned).
    pub fn dominant_prune(&self) -> Option<&'static str> {
        let ranked = [
            (self.pruned_issue, "issue_slot"),
            (self.pruned_timing, "timing_window"),
            (self.pruned_routing, "routing"),
        ];
        ranked
            .iter()
            .max_by_key(|(n, _)| *n)
            .filter(|(n, _)| *n > 0)
            .map(|&(_, name)| name)
    }
}

/// The full result of a [`certify_min_ii`] run.
#[derive(Clone, Debug)]
pub struct ExactReport {
    /// The oracle's verdict.
    pub verdict: ExactVerdict,
    /// The lower bound the II iteration started from
    /// (`max(RecMII, ResMII)`; 0 for kernels without a loop).
    pub mii: u32,
    /// Per-candidate-II search statistics, in search order.
    pub per_ii: Vec<IiStats>,
    /// The witness schedule, when the verdict is `Certified`. Always
    /// passes [`validate`] (checked internally).
    pub schedule: Option<Schedule>,
}

impl ExactReport {
    /// Total search nodes expanded across every candidate II.
    pub fn nodes(&self) -> u64 {
        self.per_ii.iter().map(|s| s.nodes).sum()
    }

    /// Renders the search as human-readable text: one line per candidate
    /// II with its node and prune counts, then the verdict.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.per_ii {
            let _ = write!(
                out,
                "II={}: {} after {} nodes (issue {}, timing {}, routing {})",
                s.ii,
                if s.feasible { "feasible" } else { "infeasible" },
                s.nodes,
                s.pruned_issue,
                s.pruned_timing,
                s.pruned_routing,
            );
            if !s.feasible {
                if let Some(why) = s.dominant_prune() {
                    let _ = write!(out, " — dominated by {why} prunes");
                }
            }
            out.push('\n');
        }
        let _ = match self.verdict {
            ExactVerdict::Certified { ii } => {
                writeln!(out, "verdict: certified minimum II={ii} (MII={})", self.mii)
            }
            ExactVerdict::GapUnknown { spent, limit } => {
                writeln!(out, "verdict: gap unknown (budget {spent}/{limit} spent)")
            }
            ExactVerdict::Infeasible { max_ii } => writeln!(
                out,
                "verdict: infeasible up to II={max_ii} within the search space"
            ),
        };
        out
    }
}

/// Certifies the minimum initiation interval of `kernel` on `arch`.
///
/// Iterates candidate IIs upward from `max(RecMII, ResMII)` to `max_ii`,
/// running a complete branch-and-bound search at each; the first II with
/// a schedule is the certified minimum (every smaller II was refuted).
/// The witness schedule is re-checked by the independent validator
/// before the verdict is issued.
///
/// # Errors
///
/// [`SchedError::NotCopyConnected`] / [`SchedError::NoCapableUnit`] when
/// `arch` cannot execute `kernel` at all, and [`SchedError::Internal`]
/// if a found schedule fails validation (an oracle bug, never silent).
/// Budget exhaustion is *not* an error: it yields
/// [`ExactVerdict::GapUnknown`].
pub fn certify_min_ii(
    arch: &Architecture,
    kernel: &Kernel,
    max_ii: u32,
    budget: &StepBudget,
) -> Result<ExactReport, SchedError> {
    let prep = prepare(arch, kernel)?;
    let has_loop = prep.has_loop;
    let mii = if has_loop { prep.mii } else { 0 };
    let first = mii.max(1);
    let last = if has_loop { max_ii } else { first };

    let mut per_ii = Vec::new();
    for ii in first..=last {
        let mut search = Searcher::new(arch, kernel, &prep, budget, ii);
        let outcome = search.run();
        let mut stats = search.stats;
        stats.ii = ii;
        stats.feasible = matches!(outcome, Ok(true));
        per_ii.push(stats);
        match outcome {
            Ok(true) => {
                let schedule = search.into_schedule(mii)?;
                if let Err(errors) = validate::validate(arch, kernel, &schedule) {
                    return Err(SchedError::internal(
                        "exact",
                        format!(
                            "oracle schedule for {} on {} failed validation: {:?}",
                            kernel.name(),
                            arch.name(),
                            errors.first()
                        ),
                    ));
                }
                let certified = if has_loop { ii } else { 0 };
                return Ok(ExactReport {
                    verdict: ExactVerdict::Certified { ii: certified },
                    mii,
                    per_ii,
                    schedule: Some(schedule),
                });
            }
            Ok(false) => {}
            Err(_stop) => {
                return Ok(ExactReport {
                    verdict: ExactVerdict::GapUnknown {
                        spent: budget.spent(),
                        limit: budget.limit(),
                    },
                    mii,
                    per_ii,
                    schedule: None,
                });
            }
        }
    }
    Ok(ExactReport {
        verdict: ExactVerdict::Infeasible { max_ii: last },
        mii,
        per_ii,
        schedule: None,
    })
}

/// One candidate-II branch-and-bound search (module docs).
struct Searcher<'a> {
    arch: &'a Architecture,
    kernel: &'a Kernel,
    budget: &'a StepBudget,
    ii: u32,
    universe: Universe,
    placements: Vec<Option<ScheduledOp>>,
    dispositions: Vec<Option<CommDisposition>>,
    tables: Vec<ResourceTable>,
    /// The one read stub every communication into `(consumer, slot)` must
    /// share (the §4.2 operand-sharing rule the validator enforces).
    operand_stub: HashMap<(u32, u32), ReadStub>,
    /// Kernel operations in placement order (per block, decreasing
    /// critical-path height — the same order the heuristic uses, so the
    /// feasible case is found fast).
    order: Vec<SOpId>,
    /// Candidate `(unit, capability)` pairs per kernel operation.
    cand: Vec<Vec<(FuId, Capability)>>,
    /// Candidate `(unit, capability)` pairs for inserted copies.
    copy_cand: Vec<(FuId, Capability)>,
    /// Same-block memory-order predecessors `(pred, distance)` per op.
    order_preds: Vec<Vec<(SOpId, u32)>>,
    /// Same-block memory-order successors `(succ, distance)` per op.
    order_succs: Vec<Vec<(SOpId, u32)>>,
    copies_used: usize,
    copy_depth: usize,
    stats: IiStats,
}

impl<'a> Searcher<'a> {
    fn new(
        arch: &'a Architecture,
        kernel: &'a Kernel,
        prep: &Prepared,
        budget: &'a StepBudget,
        ii: u32,
    ) -> Self {
        let universe = Universe::build(kernel);
        let num_ops = universe.num_ops();
        let num_comms = universe.num_comms();
        let tables = ResourceTable::per_block(arch, kernel, ii);
        let mut order = Vec::with_capacity(num_ops);
        for block in kernel.block_ids() {
            for op in prep.graph.operation_order(kernel, block) {
                order.push(SOpId::from_raw(op.index()));
            }
        }
        let cand: Vec<Vec<(FuId, Capability)>> = kernel
            .op_ids()
            .map(|op| fu_candidates(arch, kernel.op(op).opcode()))
            .collect();
        let copy_cand = fu_candidates(arch, Opcode::Copy);
        let mut order_preds = vec![Vec::new(); num_ops];
        let mut order_succs = vec![Vec::new(); num_ops];
        for e in &prep.order_edges {
            order_preds[e.to.index()].push((e.from, e.distance));
            order_succs[e.from.index()].push((e.to, e.distance));
        }
        Searcher {
            arch,
            kernel,
            budget,
            ii,
            universe,
            placements: vec![None; num_ops],
            dispositions: vec![None; num_comms],
            tables,
            operand_stub: HashMap::new(),
            order,
            cand,
            copy_cand,
            order_preds,
            order_succs,
            copies_used: 0,
            copy_depth: 0,
            stats: IiStats::default(),
        }
    }

    fn block_ii(&self, block: BlockId) -> i64 {
        if self.kernel.block(block).is_loop() {
            self.ii as i64
        } else {
            1
        }
    }

    fn savepoints(&self) -> Vec<Savepoint> {
        self.tables.iter().map(ResourceTable::savepoint).collect()
    }

    fn rollback(&mut self, sps: &[Savepoint]) {
        for (table, &sp) in self.tables.iter_mut().zip(sps) {
            table.rollback(sp);
        }
    }

    /// Runs the search: `Ok(true)` leaves the searcher holding a complete
    /// placement + routing, `Ok(false)` proves the space empty at this II.
    fn run(&mut self) -> Result<bool, BudgetStop> {
        self.place_from(0)
    }

    /// Places `order[idx..]`, backtracking over units, cycles, and routes.
    fn place_from(&mut self, idx: usize) -> Result<bool, BudgetStop> {
        if idx == self.order.len() {
            return Ok(true);
        }
        let op = self.order[idx];
        let block = self.universe.op(op).block;
        let bii = self.block_ii(block);
        let is_loop = self.kernel.block(block).is_loop();

        // Earliest issue cycle: every placed same-block producer (data or
        // memory order) must complete before this op reads/issues.
        let mut lo = 0i64;
        for slot in 0..self.universe.op(op).num_operands {
            for &cid in self.universe.comms_to_operand(op, slot) {
                let c = self.universe.comm(cid);
                if self.universe.op(c.producer).block != block {
                    continue;
                }
                if let Some(p) = self.placements[c.producer.index()] {
                    lo = lo.max(p.completion() + 1 - c.distance as i64 * bii);
                }
            }
        }
        for &(pred, dist) in &self.order_preds[op.index()] {
            if let Some(p) = self.placements[pred.index()] {
                lo = lo.max(p.completion() + 1 - dist as i64 * bii);
            }
        }
        lo = lo.max(0);
        let window = if is_loop {
            self.ii as i64 + WINDOW_SLACK
        } else {
            STRAIGHT_HORIZON
        };

        for ci in 0..self.cand[op.index()].len() {
            let (fu, cap) = self.cand[op.index()][ci];
            // Latest issue cycle on this unit: every placed same-block
            // consumer must issue after this op completes.
            let mut hi = lo + window - 1;
            for &cid in self.universe.comms_from(op) {
                let c = self.universe.comm(cid);
                if self.universe.op(c.consumer).block != block {
                    continue;
                }
                if let Some(q) = self.placements[c.consumer.index()] {
                    hi = hi.min(q.cycle + c.distance as i64 * bii - cap.latency as i64);
                }
            }
            for &(succ, dist) in &self.order_succs[op.index()] {
                if let Some(q) = self.placements[succ.index()] {
                    hi = hi.min(q.cycle + dist as i64 * bii - cap.latency as i64);
                }
            }
            if hi < lo {
                self.stats.pruned_timing += 1;
                continue;
            }
            for cycle in lo..=hi {
                self.stats.nodes += 1;
                self.budget.step()?;
                let sps = self.savepoints();
                if !self.tables[block.index()].place_issue(cycle, fu, cap.issue_interval, op) {
                    self.stats.pruned_issue += 1;
                    continue;
                }
                self.placements[op.index()] = Some(ScheduledOp {
                    fu,
                    cycle,
                    latency: cap.latency,
                });
                let closable = self.closable_comms(op);
                if self.route_comms(&closable, 0, idx + 1)? {
                    return Ok(true);
                }
                self.placements[op.index()] = None;
                self.rollback(&sps);
            }
        }
        Ok(false)
    }

    /// Communications touching `op` whose both endpoints are now placed
    /// and which have no disposition yet, in id order.
    fn closable_comms(&self, op: SOpId) -> Vec<CommId> {
        let mut out: Vec<CommId> = Vec::new();
        for slot in 0..self.universe.op(op).num_operands {
            out.extend_from_slice(self.universe.comms_to_operand(op, slot));
        }
        out.extend_from_slice(self.universe.comms_from(op));
        out.retain(|&cid| {
            let c = self.universe.comm(cid);
            self.dispositions[cid.index()].is_none()
                && self.placements[c.producer.index()].is_some()
                && self.placements[c.consumer.index()].is_some()
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Routes `comms[k..]`, then continues placing from `order[next_idx]`.
    fn route_comms(
        &mut self,
        comms: &[CommId],
        k: usize,
        next_idx: usize,
    ) -> Result<bool, BudgetStop> {
        if k == comms.len() {
            return self.place_from(next_idx);
        }
        let cid = comms[k];
        let c = self.universe.comm(cid).clone();
        let Some(p) = self.placements[c.producer.index()] else {
            return Ok(false); // unreachable: closable_comms filtered
        };
        let Some(q) = self.placements[c.consumer.index()] else {
            return Ok(false);
        };
        let pblock = self.universe.op(c.producer).block;
        let qblock = self.universe.op(c.consumer).block;
        let fanout = self.arch.fu(p.fu).output_fanout();
        let key = (c.consumer.0, c.slot as u32);
        let locked = self.operand_stub.get(&key).copied();

        // Direct routes: one write stub on the producer's unit, one read
        // stub on the consumer's operand, meeting in one register file.
        for wi in 0..self.arch.write_stubs(p.fu).len() {
            let wstub = self.arch.write_stubs(p.fu)[wi];
            for ri in 0..self.arch.read_stubs(q.fu, c.slot).len() {
                let rstub = self.arch.read_stubs(q.fu, c.slot)[ri];
                if wstub.rf != rstub.rf {
                    continue;
                }
                if let Some(l) = locked {
                    if rstub != l {
                        continue;
                    }
                }
                self.stats.nodes += 1;
                self.budget.step()?;
                let sps = self.savepoints();
                let placed = self.tables[pblock.index()].place_write_stub(
                    p.completion(),
                    wstub,
                    c.producer,
                    fanout,
                ) && self.tables[qblock.index()]
                    .place_read_stub(q.cycle, rstub, c.consumer, c.slot);
                if !placed {
                    self.stats.pruned_routing += 1;
                    self.rollback(&sps);
                    continue;
                }
                self.dispositions[cid.index()] =
                    Some(CommDisposition::Direct(Route { wstub, rstub }));
                if locked.is_none() {
                    self.operand_stub.insert(key, rstub);
                }
                if self.route_comms(comms, k + 1, next_idx)? {
                    return Ok(true);
                }
                if locked.is_none() {
                    self.operand_stub.remove(&key);
                }
                self.dispositions[cid.index()] = None;
                self.rollback(&sps);
            }
        }

        // Depth-1 copy insertion: split the communication through a copy
        // in the producer's block (cross-block values stage there too,
        // mirroring the engine's preamble copies).
        if self.copies_used >= MAX_COPIES || self.copy_depth > 0 {
            return Ok(false);
        }
        let cblock = pblock;
        let cbii = self.block_ii(cblock);
        for ci in 0..self.copy_cand.len() {
            let (cfu, ccap) = self.copy_cand[ci];
            let lo_c = p.completion() + 1;
            let mut hi_c = lo_c + COPY_SLACK - 1;
            if cblock == qblock {
                hi_c = hi_c.min(q.cycle + c.distance as i64 * cbii - ccap.latency as i64);
            }
            for ccycle in lo_c..=hi_c {
                self.stats.nodes += 1;
                self.budget.step()?;
                let sps = self.savepoints();
                let copy = self.universe.add_copy(cblock);
                if !self.tables[cblock.index()].place_issue(ccycle, cfu, ccap.issue_interval, copy)
                {
                    self.stats.pruned_issue += 1;
                    self.universe.remove_last_copy();
                    continue;
                }
                // Split: producer -> copy carries distance 0; copy ->
                // consumer carries the original distance (engine §4.3
                // step 5 convention, which the validator's transport
                // resolution relies on).
                let leg1 = self.universe.add_comm(Comm {
                    producer: c.producer,
                    consumer: copy,
                    slot: 0,
                    distance: 0,
                });
                let leg2 = self.universe.add_comm(Comm {
                    producer: copy,
                    consumer: c.consumer,
                    slot: c.slot,
                    distance: c.distance,
                });
                self.placements.push(Some(ScheduledOp {
                    fu: cfu,
                    cycle: ccycle,
                    latency: ccap.latency,
                }));
                self.dispositions.push(None);
                self.dispositions.push(None);
                self.dispositions[cid.index()] = Some(CommDisposition::Via(copy));
                self.copies_used += 1;
                self.copy_depth += 1;
                let mut rest = vec![leg1, leg2];
                rest.extend_from_slice(&comms[k + 1..]);
                let found = self.route_comms(&rest, 0, next_idx)?;
                self.copy_depth -= 1;
                if found {
                    return Ok(true);
                }
                self.copies_used -= 1;
                self.dispositions[cid.index()] = None;
                self.dispositions.pop();
                self.dispositions.pop();
                self.placements.pop();
                self.universe.remove_last_copy();
                self.rollback(&sps);
            }
        }
        Ok(false)
    }

    /// Consumes a successful search into a [`Schedule`].
    fn into_schedule(self, mii: u32) -> Result<Schedule, SchedError> {
        let mut placements = Vec::with_capacity(self.placements.len());
        for (i, p) in self.placements.iter().enumerate() {
            match p {
                Some(p) => placements.push(*p),
                None => {
                    return Err(SchedError::internal(
                        "exact",
                        format!("operation s{i} unplaced in a found schedule"),
                    ))
                }
            }
        }
        let mut dispositions = Vec::with_capacity(self.dispositions.len());
        for (i, d) in self.dispositions.iter().enumerate() {
            match d {
                Some(d) => dispositions.push(*d),
                None => {
                    return Err(SchedError::internal(
                        "exact",
                        format!("communication c{i} unrouted in a found schedule"),
                    ))
                }
            }
        }
        let mut block_len: Vec<i64> = self.kernel.block_ids().map(|_| 0).collect();
        for op in self.universe.op_ids() {
            let block = self.universe.op(op).block;
            let end = placements[op.index()].completion() + 1;
            block_len[block.index()] = block_len[block.index()].max(end);
        }
        let ii = self.kernel.loop_block().map(|lb| {
            block_len[lb.index()] = block_len[lb.index()].max(self.ii as i64);
            self.ii
        });
        let stats = SchedStats {
            attempts: self.stats.nodes,
            rejections: self.stats.pruned_issue + self.stats.pruned_routing,
            copies_inserted: self.copies_used as u64,
            ii_tried: ii.map_or(1, |ii| ii - mii.max(1) + 1),
            cross_block_copy_failures: 0,
            backtracked: false,
        };
        Ok(Schedule {
            arch_name: self.arch.name().to_string(),
            kernel_name: self.kernel.name().to_string(),
            universe: self.universe,
            placements,
            dispositions,
            block_len,
            ii,
            stats,
        })
    }
}

/// Candidate `(unit, capability)` pairs for `opcode`, in unit-id order
/// (deterministic).
fn fu_candidates(arch: &Architecture, opcode: Opcode) -> Vec<(FuId, Capability)> {
    arch.fus_for(opcode)
        .into_iter()
        .filter_map(|fu| arch.fu(fu).capability(opcode).map(|cap| (fu, cap)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule_kernel, SchedulerConfig};
    use csched_ir::KernelBuilder;
    use csched_machine::{imagine, toy};

    fn pressured_loop() -> Kernel {
        let mut kb = KernelBuilder::new("pressured");
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let a = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        let b = kb.push(lp, Opcode::IAdd, [a.into(), 2i64.into()]);
        let _c = kb.push(lp, Opcode::IAdd, [b.into(), 3i64.into()]);
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        kb.build().unwrap()
    }

    #[test]
    fn certifies_the_motivating_example_kernel() {
        // Golden certification: 4 add-class ops on the toy machine's 2
        // adders have ResMII 2, and a modulo schedule at II=2 exists; the
        // oracle must certify exactly 2 and produce a valid witness.
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let budget = StepBudget::new(5_000_000);
        let report = certify_min_ii(&arch, &kernel, 128, &budget).unwrap();
        assert_eq!(report.verdict, ExactVerdict::Certified { ii: 2 }, "{}", {
            report.render_text()
        });
        let schedule = report.schedule.as_ref().unwrap();
        assert!(validate::validate(&arch, &kernel, schedule).is_ok());
        assert_eq!(schedule.ii(), Some(2));
    }

    #[test]
    fn exact_never_exceeds_the_heuristic() {
        let arch = imagine::central();
        let mut kb = KernelBuilder::new("scale");
        let input = kb.region("in", true);
        let output = kb.region("out", true);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let x = kb.load(lp, input, i.into(), 0i64.into());
        let y = kb.push(lp, Opcode::IMul, [x.into(), 3i64.into()]);
        kb.store(lp, output, i.into(), 0i64.into(), y.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        let kernel = kb.build().unwrap();

        let heuristic = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let budget = StepBudget::new(5_000_000);
        let report = certify_min_ii(&arch, &kernel, 128, &budget).unwrap();
        let exact = report.verdict.certified_ii().unwrap();
        assert!(exact <= heuristic.ii().unwrap());
        assert!(report.mii <= exact);
    }

    #[test]
    fn straight_line_kernels_certify_as_zero() {
        let arch = toy::motivating_example();
        let mut kb = KernelBuilder::new("straight");
        let b = kb.straight_block("b");
        let x = kb.push(b, Opcode::IAdd, [1i64.into(), 2i64.into()]);
        kb.push(b, Opcode::IAdd, [x.into(), 3i64.into()]);
        let kernel = kb.build().unwrap();
        let budget = StepBudget::new(100_000);
        let report = certify_min_ii(&arch, &kernel, 128, &budget).unwrap();
        assert_eq!(report.verdict, ExactVerdict::Certified { ii: 0 });
        let schedule = report.schedule.unwrap();
        assert_eq!(schedule.ii(), None);
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
    }

    #[test]
    fn tight_budget_yields_gap_unknown() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let budget = StepBudget::new(3);
        let report = certify_min_ii(&arch, &kernel, 128, &budget).unwrap();
        assert_eq!(
            report.verdict,
            ExactVerdict::GapUnknown { spent: 3, limit: 3 }
        );
        assert!(report.schedule.is_none());
    }

    /// A loop that is *bus*-bound on the toy machine: MII = 2 from issue
    /// pressure (4 adds on 2 adders, 2 loads on LS), but the iteration
    /// communicates 5 distinct values and the machine has only
    /// 2 buses × II cycles of write bandwidth — so II = 2 admits at most
    /// 4 communicated values and is genuinely infeasible. ResMII cannot
    /// see this; only the exhaustive search can refute it.
    fn bus_bound_loop() -> Kernel {
        let mut kb = KernelBuilder::new("busbound");
        let data = kb.region("data", true);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let x = kb.load(lp, data, i.into(), 0i64.into());
        let y = kb.load(lp, data, i.into(), 64i64.into());
        let a = kb.push(lp, Opcode::IAdd, [x.into(), 1i64.into()]);
        let b = kb.push(lp, Opcode::IAdd, [y.into(), 2i64.into()]);
        let _c = kb.push(lp, Opcode::IAdd, [a.into(), b.into()]);
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        kb.build().unwrap()
    }

    #[test]
    fn refutes_a_bus_bound_ii_the_mii_cannot_see() {
        let arch = toy::motivating_example();
        let kernel = bus_bound_loop();
        let budget = StepBudget::new(20_000_000);
        let report = certify_min_ii(&arch, &kernel, 2, &budget).unwrap();
        assert_eq!(report.mii, 2, "issue pressure alone says 2");
        assert_eq!(
            report.verdict,
            ExactVerdict::Infeasible { max_ii: 2 },
            "{}",
            report.render_text()
        );
        assert_eq!(report.per_ii.len(), 1);
        assert!(!report.per_ii[0].feasible);
        assert!(report.per_ii[0].nodes > 0);
    }

    #[test]
    fn empty_ii_range_is_infeasible_without_search() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let budget = StepBudget::new(5_000_000);
        // A cap of 1 is below the MII of 2: nothing to search.
        let report = certify_min_ii(&arch, &kernel, 1, &budget).unwrap();
        assert_eq!(report.verdict, ExactVerdict::Infeasible { max_ii: 1 });
        assert!(report.per_ii.is_empty());
    }

    #[test]
    fn certification_is_deterministic() {
        let arch = imagine::clustered(2);
        let kernel = pressured_loop();
        let run = || {
            let budget = StepBudget::new(5_000_000);
            certify_min_ii(&arch, &kernel, 128, &budget).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.per_ii, b.per_ii, "node/prune counts must be replayable");
    }

    #[test]
    fn render_text_names_the_dominant_prune() {
        let report = ExactReport {
            verdict: ExactVerdict::Infeasible { max_ii: 3 },
            mii: 3,
            per_ii: vec![IiStats {
                ii: 3,
                feasible: false,
                nodes: 100,
                pruned_issue: 80,
                pruned_timing: 5,
                pruned_routing: 10,
            }],
            schedule: None,
        };
        let text = report.render_text();
        assert!(text.contains("II=3: infeasible after 100 nodes"), "{text}");
        assert!(text.contains("dominated by issue_slot prunes"), "{text}");
        assert!(text.contains("verdict: infeasible up to II=3"), "{text}");
    }
}
