//! The scheduler driver: the outer loop of Figure 11.
//!
//! Straight-line blocks are list-scheduled; the loop block is modulo
//! scheduled with an initiation-interval search starting at
//! `max(RecMII, ResMII)`. Operations are visited in *operation order*
//! (decreasing critical-path height, §4.6) by default, or in cycle order
//! for the ablation configuration. Every tentative placement is accepted
//! or rejected by communication scheduling ([`Engine::place`]).

use std::sync::Arc;

use csched_ir::{BlockId, DepGraph, DepKind, Kernel, OpId};
use csched_machine::{Architecture, FuId, Opcode};

use crate::budget::StepBudget;
use crate::config::{ScheduleOrder, SchedulerConfig, MAX_FU_CANDIDATES};
use crate::conn::ConnCache;
use crate::engine::{Engine, OrderEdge, Tally};
use crate::schedule::Schedule;
use crate::trace::{TraceEvent, TraceSink};
use crate::universe::SOpId;

pub use crate::error::SchedError;

/// Builds the [`SchedError::NotCopyConnected`] diagnostic from the
/// connectivity analysis, resolving unit names.
pub(crate) fn not_copy_connected(arch: &Architecture) -> SchedError {
    let conn = arch.copy_connectivity();
    let mut violations: Vec<String> = conn
        .violations()
        .iter()
        .take(4)
        .map(|&(p, q, slot)| {
            format!(
                "{} cannot reach {} input {slot} by copies",
                arch.fu(p).name(),
                arch.fu(q).name()
            )
        })
        .collect();
    let extra = conn.violations().len().saturating_sub(violations.len());
    if extra > 0 {
        violations.push(format!("... and {extra} more"));
    }
    SchedError::NotCopyConnected { violations }
}

/// Builds the [`SchedError::BlockFailed`] diagnostic, resolving the block
/// name and opcode.
fn block_failed(kernel: &Kernel, block: BlockId, op: OpId) -> SchedError {
    SchedError::BlockFailed {
        block,
        block_name: kernel.block(block).name().to_string(),
        op,
        opcode: kernel.op(op).opcode(),
    }
}

/// The resource-constrained minimum initiation interval: each operation
/// spreads its issue-occupancy over the units able to execute it.
pub fn res_mii(arch: &Architecture, kernel: &Kernel) -> u32 {
    issue_bound(&issue_load(arch, kernel, None))
}

/// The per-unit spread issue load of the loop block: each operation adds
/// `issue_interval / n` to each of the `n` units able to execute it.
/// With `clone_of`, a ghost copy of that unit joins every candidate set
/// it belongs to, and its load is appended as the last element.
pub(crate) fn issue_load(arch: &Architecture, kernel: &Kernel, clone_of: Option<FuId>) -> Vec<f64> {
    let mut load = vec![0.0f64; arch.num_fus() + usize::from(clone_of.is_some())];
    let Some(lb) = kernel.loop_block() else {
        return load;
    };
    for &op in kernel.block(lb).ops() {
        let opcode = kernel.op(op).opcode();
        let fus = arch.fus_for(opcode);
        if fus.is_empty() {
            continue;
        }
        let ghost = clone_of.and_then(|f| arch.fu(f).capability(opcode));
        let share = 1.0 / (fus.len() + usize::from(ghost.is_some())) as f64;
        for &fu in &fus {
            let interval = arch
                .fu(fu)
                .capability(opcode)
                .map(|c| c.issue_interval)
                .unwrap_or(1);
            load[fu.index()] += share * interval as f64;
        }
        if let Some(cap) = ghost {
            load[arch.num_fus()] += share * cap.issue_interval as f64;
        }
    }
    load
}

/// The II an issue load forces: its largest entry, rounded up, at least 1.
pub(crate) fn issue_bound(load: &[f64]) -> u32 {
    load.iter().fold(1.0f64, |a, &b| a.max(b)).ceil() as u32
}

/// Minimum latency of `opcode` over all capable units.
pub(crate) fn min_latency(arch: &Architecture, opcode: Opcode) -> u32 {
    arch.fus_for(opcode)
        .into_iter()
        .filter_map(|f| arch.fu(f).capability(opcode))
        .map(|c| c.latency)
        .min()
        .unwrap_or(1)
}

/// Everything about an `(Architecture, Kernel)` pair that is independent
/// of the scheduler configuration and the initiation interval: the dense
/// connectivity cache, the dependence graph, memory-order edges, ASAP
/// levels, and the minimum II.
///
/// Building one of these is the expensive front half of
/// [`schedule_kernel`]; the II search inside a single call shares it
/// across every II attempt, and the retry ladder in [`crate::retry`]
/// builds one per `(arch, kernel)` and reuses it for the whole ladder
/// (every rung varies only the [`SchedulerConfig`], which no `Prepared`
/// field depends on). The exact oracle ([`crate::exact`]) starts from
/// the same checks, dependence graph, memory-order edges and MII.
pub(crate) struct Prepared {
    cache: Arc<ConnCache>,
    pub(crate) graph: DepGraph,
    pub(crate) order_edges: Vec<OrderEdge>,
    asap: Vec<i64>,
    pub(crate) mii: u32,
    pub(crate) has_loop: bool,
}

/// Runs the configuration-independent front half of [`schedule_kernel`]:
/// connectivity and capability checks, dependence analysis, and the dense
/// connectivity cache build.
///
/// # Errors
///
/// [`SchedError::NotCopyConnected`] / [`SchedError::NoCapableUnit`] when
/// `arch` cannot execute `kernel` at all.
pub(crate) fn prepare(arch: &Architecture, kernel: &Kernel) -> Result<Prepared, SchedError> {
    let cache = Arc::new(ConnCache::new(arch));
    if !cache.connectivity().is_copy_connected() {
        return Err(not_copy_connected(arch));
    }
    for op in kernel.op_ids() {
        if cache.fus_for(kernel.op(op).opcode()).is_empty() {
            return Err(SchedError::NoCapableUnit {
                opcode: kernel.op(op).opcode(),
            });
        }
    }

    let graph = DepGraph::build(kernel, |opcode| min_latency(arch, opcode));
    let order_edges: Vec<OrderEdge> = graph
        .edges()
        .iter()
        .filter(|e| e.kind == DepKind::Mem)
        .filter(|e| kernel.op(e.from).block() == kernel.op(e.to).block())
        .map(|e| OrderEdge {
            from: SOpId::from_raw(e.from.index()),
            to: SOpId::from_raw(e.to.index()),
            distance: e.distance,
        })
        .collect();
    let asap = graph.asap(kernel);

    let has_loop = kernel.loop_block().is_some();
    let mii = if has_loop {
        graph.rec_mii(kernel).max(res_mii(arch, kernel))
    } else {
        1
    };
    Ok(Prepared {
        cache,
        graph,
        order_edges,
        asap,
        mii,
        has_loop,
    })
}

/// The memory one scheduling call shares across every II attempt and
/// ladder rung: the lazily built [`Prepared`], and what the call's
/// engines counted.
pub(crate) struct PrepCache {
    prepared: Option<Prepared>,
    /// Rejects and budget refusals of every II attempt.
    pub(crate) tally: Tally,
}

impl PrepCache {
    pub(crate) fn new() -> Self {
        PrepCache {
            prepared: None,
            tally: Tally::default(),
        }
    }
}

/// Schedules `kernel` on `arch` with the paper's algorithm.
///
/// # Errors
///
/// See [`SchedError`]. On copy-connected architectures with capable units,
/// failures only arise from exhausting the configured II or delay budgets.
///
/// # Examples
///
/// ```
/// use csched_core::{schedule_kernel, SchedulerConfig};
/// use csched_ir::KernelBuilder;
/// use csched_machine::{toy, Opcode};
///
/// let mut kb = KernelBuilder::new("tiny");
/// let b = kb.straight_block("b");
/// let x = kb.push(b, Opcode::IAdd, [1i64.into(), 2i64.into()]);
/// kb.push(b, Opcode::IAdd, [x.into(), 3i64.into()]);
/// let kernel = kb.build()?;
///
/// let arch = toy::motivating_example();
/// let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default())?;
/// assert!(schedule.ii().is_none()); // no loop block
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule_kernel(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
) -> Result<Schedule, SchedError> {
    schedule_kernel_impl(arch, kernel, config, None, None, &mut PrepCache::new())
}

/// [`schedule_kernel`] under a deterministic [`StepBudget`]: every
/// placement attempt charges one step of `budget`, and the schedule
/// either completes within the budget or fails with
/// [`SchedError::DeadlineExceeded`] (or [`SchedError::Cancelled`] when
/// the budget's [`CancelToken`](crate::CancelToken) fires).
///
/// The budget is denominated in placement attempts, not wall-clock time,
/// so budgeted runs are reproducible: the same inputs spend exactly the
/// same number of steps on every machine.
///
/// # Errors
///
/// [`SchedError::DeadlineExceeded`] / [`SchedError::Cancelled`] when the
/// budget stops the search; otherwise identical to [`schedule_kernel`].
pub fn schedule_kernel_budgeted(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    budget: &StepBudget,
) -> Result<Schedule, SchedError> {
    schedule_kernel_impl(
        arch,
        kernel,
        config,
        None,
        Some(budget),
        &mut PrepCache::new(),
    )
}

/// [`schedule_kernel`] with every pipeline decision traced into `sink`.
///
/// Emits [`TraceEvent`]s for the driver's II search
/// ([`TraceEvent::IiStart`], [`TraceEvent::SlackWidened`]) and for every
/// engine decision (placement attempts/accepts/rejects, stub allocation
/// and revision, route closing, copy insertion). The untraced entry point
/// pays only a never-taken branch per emission site (perfbench's
/// `bench.trace_overhead_pct` compares traced and untraced runs).
///
/// # Errors
///
/// Identical to [`schedule_kernel`].
pub fn schedule_kernel_traced(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    sink: &mut dyn TraceSink,
) -> Result<Schedule, SchedError> {
    schedule_kernel_impl(
        arch,
        kernel,
        config,
        Some(sink),
        None,
        &mut PrepCache::new(),
    )
}

/// The II search of Figure 11 under `config`, sharing `memo` with the
/// other calls of one scheduling request (a ladder's rungs).
pub(crate) fn schedule_kernel_impl(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    mut sink: Option<&mut dyn TraceSink>,
    budget: Option<&StepBudget>,
    memo: &mut PrepCache,
) -> Result<Schedule, SchedError> {
    let PrepCache { prepared, tally } = memo;
    let prep = match prepared {
        Some(p) => &*p,
        None => prepared.insert(prepare(arch, kernel)?),
    };
    let mii = prep.mii;

    let mut slack = config.cross_block_copy_slack;
    for slack_round in 0..2 {
        let mut cfg = config.clone();
        cfg.cross_block_copy_slack = slack;
        let mut ii = mii;
        let mut failures = 0u32;
        while ii <= config.max_ii {
            let mut engine = Engine::with_cache(
                arch,
                kernel,
                cfg.clone(),
                prep.order_edges.clone(),
                prep.asap.clone(),
                ii,
                Arc::clone(&prep.cache),
            );
            engine.stats.ii_tried = ii - mii + 1;
            engine.stats.backtracked = slack_round > 0;
            if let Some(s) = sink.as_mut() {
                s.event(TraceEvent::IiStart { ii });
                engine.set_trace_sink(&mut **s);
            }
            if let Some(b) = budget {
                engine.set_budget(b);
            }
            let result = run_blocks(&mut engine, kernel, &prep.graph, &cfg);
            tally.add(&engine.tally);
            let Err(RunError::Block(block, op)) = result else {
                debug_assert!(engine.all_closed());
                return engine.into_schedule(prep.has_loop);
            };
            if let Some(e) = engine.take_internal_error() {
                return Err(e);
            }
            if let (Some(stop), Some(b)) = (engine.take_budget_stop(), budget) {
                return Err(b.stop_error(stop, "placement"));
            }
            let is_loop = kernel.block(block).is_loop();
            if is_loop && std::env::var_os("CSCHED_DEBUG").is_some() {
                eprintln!(
                    "[csched] II={ii} failed at {op} ({:?}) in block {block}, attempts={}",
                    kernel.op(op).opcode(),
                    engine.stats.attempts
                );
            }
            if engine.stats.cross_block_copy_failures > 0 && slack_round == 0 {
                break; // §4.5: widen the writer-side copy range and retry
            }
            if !is_loop {
                return Err(block_failed(kernel, block, op));
            }
            // Escalating II steps keep the search near-linear in
            // schedule quality while bounding its cost on kernels
            // whose achievable II sits far above the MII.
            failures += 1;
            ii += match failures {
                0..=4 => 1,
                5..=10 => 2,
                11..=16 => 4,
                _ => 8,
            };
        }
        if ii > config.max_ii {
            return Err(SchedError::IiExhausted {
                mii,
                max_ii: config.max_ii,
            });
        }
        slack *= 8;
        if let Some(s) = sink.as_mut() {
            s.event(TraceEvent::SlackWidened { slack });
        }
    }
    Err(SchedError::IiExhausted {
        mii,
        max_ii: config.max_ii,
    })
}

enum RunError {
    Block(BlockId, OpId),
}

fn run_blocks(
    engine: &mut Engine<'_>,
    kernel: &Kernel,
    graph: &DepGraph,
    config: &SchedulerConfig,
) -> Result<(), RunError> {
    let mut scratch = DriverScratch::default();
    for block in kernel.block_ids() {
        match config.order {
            ScheduleOrder::Operation => {
                for op in graph.operation_order(kernel, block) {
                    if !place_with_window(engine, kernel, op, config, &mut scratch) {
                        return Err(RunError::Block(block, op));
                    }
                }
            }
            ScheduleOrder::Recurrence => {
                for op in graph.recurrence_order(kernel, block) {
                    if !place_with_window(engine, kernel, op, config, &mut scratch) {
                        return Err(RunError::Block(block, op));
                    }
                }
            }
            ScheduleOrder::Cycle => {
                schedule_block_cycle_order(engine, kernel, graph, block, config, &mut scratch)
                    .map_err(|op| RunError::Block(block, op))?;
            }
        }
    }
    Ok(())
}

/// Window of feasible issue cycles for `op` given already-placed partners.
fn window(engine: &Engine<'_>, kernel: &Kernel, op: OpId) -> (i64, Option<i64>) {
    let sop = SOpId::from_raw(op.index());
    let block = kernel.op(op).block();
    let is_loop = kernel.block(block).is_loop();
    let bii = if is_loop { engine.ii() as i64 } else { 1 };
    let u = engine_universe(engine);
    let mut earliest = 0i64;
    let mut latest: Option<i64> = None;
    for slot in 0..u.op(sop).num_operands {
        for &cid in u.comms_to_operand(sop, slot) {
            let c = u.comm(cid);
            if engine_block(engine, c.producer) != block {
                continue;
            }
            if let Some(p) = engine.placement(c.producer) {
                earliest = earliest.max(p.completion() + 1 - c.distance as i64 * bii);
            }
        }
    }
    for &cid in u.comms_from(sop) {
        let c = u.comm(cid);
        if engine_block(engine, c.consumer) != block {
            continue;
        }
        if let Some(q) = engine.placement(c.consumer) {
            // op must complete before the consumer reads; conservative with
            // min latency 1.
            let bound = q.cycle + c.distance as i64 * bii - 1;
            latest = Some(latest.map_or(bound, |l: i64| l.min(bound)));
        }
    }
    (earliest, latest)
}

fn engine_universe<'e>(engine: &'e Engine<'_>) -> &'e crate::universe::Universe {
    &engine.universe
}

fn engine_block(engine: &Engine<'_>, op: SOpId) -> BlockId {
    engine.universe.op(op).block
}

/// Reusable buffers for [`ordered_fus_into`]: one set per driver run,
/// so the per-(op, cycle) unit ranking allocates nothing.
#[derive(Default)]
struct DriverScratch {
    scored: Vec<(i64, i64, usize, FuId)>,
    fus: Vec<FuId>,
}

/// Candidate functional units for `op` at `cycle`, best first, written
/// into `scratch.fus`. The sort key ends in the unit id, so the ranking
/// is a total order and deterministic.
fn ordered_fus_into(
    engine: &Engine<'_>,
    kernel: &Kernel,
    op: OpId,
    cycle: i64,
    use_cost: bool,
    scratch: &mut DriverScratch,
) {
    let sop = SOpId::from_raw(op.index());
    let opcode = kernel.op(op).opcode();
    scratch.scored.clear();
    for &fu in engine.conn_cache().fus_for(opcode) {
        let cost = if use_cost {
            (engine.comm_cost(sop, fu, cycle) * 1024.0) as i64
        } else {
            0
        };
        // Prefer less-capable units (save flexible ones) and lighter
        // load as tie-breakers.
        let load = engine.fu_load(fu);
        let caps = engine.arch().fu(fu).capabilities().len();
        scratch.scored.push((cost, load, caps, fu));
    }
    scratch.scored.sort_unstable();
    scratch.scored.truncate(MAX_FU_CANDIDATES);
    scratch.fus.clear();
    scratch
        .fus
        .extend(scratch.scored.iter().map(|&(_, _, _, f)| f));
}

fn place_with_window(
    engine: &mut Engine<'_>,
    kernel: &Kernel,
    op: OpId,
    config: &SchedulerConfig,
    scratch: &mut DriverScratch,
) -> bool {
    let (earliest, latest) = window(engine, kernel, op);
    let block = kernel.op(op).block();
    let is_loop = kernel.block(block).is_loop();
    let cap = if is_loop {
        // Beyond earliest + II the resource rows repeat, so further delay
        // only shifts pipeline stages; a little slack helps copy ranges.
        (engine.ii() as i64 + 8).min(config.max_delay)
    } else {
        config.max_delay
    };
    let hard_latest = latest.unwrap_or(i64::MAX).min(earliest + cap);
    let sop = SOpId::from_raw(op.index());
    // First sweep the window without copy insertion (a short delay is
    // usually cheaper than a copy's unit slot and latency), then allow
    // copies (Figure 11's "assign to a different unit / delay" loop with
    // §4.3 step 5 as the fallback).
    for allow_copies in [false, true] {
        let last = if allow_copies {
            hard_latest
        } else {
            hard_latest.min(earliest + config.no_copy_scan)
        };
        let mut cycle = earliest;
        while cycle <= last {
            if engine.stats.attempts > config.max_attempts_per_ii || engine.budget_stopped() {
                return false;
            }
            ordered_fus_into(
                engine,
                kernel,
                op,
                cycle,
                config.comm_cost_heuristic,
                scratch,
            );
            for i in 0..scratch.fus.len() {
                if engine.place_ext(sop, scratch.fus[i], cycle, 0, allow_copies) {
                    return true;
                }
            }
            cycle += 1;
        }
    }
    false
}

/// Cycle-order ablation: fill each cycle greedily before advancing.
fn schedule_block_cycle_order(
    engine: &mut Engine<'_>,
    kernel: &Kernel,
    graph: &DepGraph,
    block: BlockId,
    config: &SchedulerConfig,
    scratch: &mut DriverScratch,
) -> Result<(), OpId> {
    let mut remaining: Vec<OpId> = graph.operation_order(kernel, block);
    let mut cycle = 0i64;
    let limit = config.max_delay * 4 + 64;
    while !remaining.is_empty() {
        if cycle > limit || engine.budget_stopped() {
            return Err(remaining[0]);
        }
        let mut next_round = Vec::new();
        for op in remaining {
            let sop = SOpId::from_raw(op.index());
            // Ready: every same-block producer is placed.
            let ready = (0..engine.universe.op(sop).num_operands).all(|slot| {
                engine
                    .universe
                    .comms_to_operand(sop, slot)
                    .iter()
                    .all(|&cid| {
                        let c = engine.universe.comm(cid);
                        engine_block(engine, c.producer) != block
                            || c.distance > 0
                            || engine.placement(c.producer).is_some()
                    })
            });
            let mut placed = false;
            if ready {
                let (earliest, latest) = window(engine, kernel, op);
                if earliest <= cycle && latest.is_none_or(|l| cycle <= l) {
                    'fu: for allow_copies in [false, true] {
                        ordered_fus_into(
                            engine,
                            kernel,
                            op,
                            cycle,
                            config.comm_cost_heuristic,
                            scratch,
                        );
                        for i in 0..scratch.fus.len() {
                            if engine.place_ext(sop, scratch.fus[i], cycle, 0, allow_copies) {
                                placed = true;
                                break 'fu;
                            }
                        }
                    }
                } else if latest.is_some_and(|l| l < cycle) {
                    return Err(op);
                }
            }
            if !placed {
                next_round.push(op);
            }
        }
        remaining = next_round;
        cycle += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csched_ir::KernelBuilder;
    use csched_machine::toy;

    #[test]
    fn res_mii_counts_unit_pressure() {
        let arch = toy::motivating_example();
        // Loop with 3 adds and one induction increment: 4 add-class ops on
        // 2 adders -> ResMII >= 2.
        let mut kb = KernelBuilder::new("addy");
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let a = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        let b = kb.push(lp, Opcode::IAdd, [a.into(), 2i64.into()]);
        let _c = kb.push(lp, Opcode::IAdd, [b.into(), 3i64.into()]);
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        let k = kb.build().unwrap();
        assert_eq!(res_mii(&arch, &k), 2);
    }

    #[test]
    fn rejects_unsupported_opcode() {
        let arch = toy::motivating_example();
        let mut kb = KernelBuilder::new("fp");
        let b = kb.straight_block("b");
        kb.push(b, Opcode::FMul, [1.0f64.into(), 2.0f64.into()]);
        let k = kb.build().unwrap();
        assert_eq!(
            schedule_kernel(&arch, &k, SchedulerConfig::default()).unwrap_err(),
            SchedError::NoCapableUnit {
                opcode: Opcode::FMul
            }
        );
    }
}
