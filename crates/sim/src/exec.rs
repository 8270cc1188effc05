//! Cycle-level execution of a schedule.
//!
//! The simulator runs a [`Schedule`] the way the hardware would: each
//! operation issues on its scheduled cycle and functional unit, reads its
//! operands out of the register files its routes stage them in, and drives
//! its result through its write stubs on its completion cycle. The loop
//! block executes software-pipelined — iteration `k` is offset by
//! `k · II` — so operations from several iterations are in flight at once,
//! exactly as on the machine.
//!
//! Register files hold *value instances* keyed by `(producing operation,
//! iteration)`. A read that finds no instance in the expected file is a
//! scheduling bug (a value that was never routed there), reported as
//! [`SimError::ValueNotRouted`]; the differential tests against the IR
//! interpreter then check that the memory image matches exactly.

use std::collections::HashMap;

use csched_core::{SOpId, Schedule};
use csched_ir::{interp, Imm, Kernel, Memory, Operand, ValueDef, Word};
use csched_machine::{Opcode, ReadStub, RfId, WriteStub};

use crate::timeline::{TimelineEvent, TimelineSink};

/// Errors raised while executing a schedule.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// An operation read a register file that does not hold the expected
    /// value instance — the schedule never routed the value there.
    ValueNotRouted {
        /// The reading operation.
        op: SOpId,
        /// Loop iteration of the reader.
        iteration: u64,
        /// Operand slot.
        slot: usize,
        /// Register file that was read.
        rf: RfId,
    },
    /// An operand had no route and no immediate (internal inconsistency).
    MissingOperand {
        /// The reading operation.
        op: SOpId,
        /// Operand slot.
        slot: usize,
    },
    /// The underlying operation semantics failed (type error, division by
    /// zero, uninitialised load).
    Semantics(interp::InterpError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ValueNotRouted {
                op,
                iteration,
                slot,
                rf,
            } => write!(
                f,
                "{op} (iteration {iteration}) operand {slot}: no value staged in {rf}"
            ),
            SimError::MissingOperand { op, slot } => {
                write!(f, "{op} operand {slot}: no route and no immediate")
            }
            SimError::Semantics(e) => write!(f, "operation semantics: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<interp::InterpError> for SimError {
    fn from(e: interp::InterpError) -> Self {
        SimError::Semantics(e)
    }
}

/// Execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total machine cycles simulated (preamble + pipelined loop).
    pub cycles: u64,
    /// Dynamic operations executed (including copies).
    pub ops_executed: u64,
    /// Dynamic copy operations executed.
    pub copies_executed: u64,
    /// Values transported over buses (write-stub activations).
    pub bus_transfers: u64,
    /// Dynamic transfers per bus (indexed by `BusId`): one per write-stub
    /// activation on that bus. Sums to `bus_transfers`.
    pub bus_transfers_per_bus: Vec<u64>,
    /// Dynamic issues per functional unit (indexed by `FuId`).
    pub fu_issues: Vec<u64>,
    /// Dynamic register-file writes per file (indexed by `RfId`): one per
    /// write-stub activation that lands a value in that file.
    pub rf_writes: Vec<u64>,
    /// Dynamic register-file reads per file (indexed by `RfId`): one per
    /// operand resolved through a read stub on that file.
    pub rf_reads: Vec<u64>,
}

impl SimStats {
    /// Utilisation per functional unit: `(name, issues / cycles)`.
    pub fn utilization(&self, arch: &csched_machine::Architecture) -> Vec<(String, f64)> {
        let cycles = self.cycles.max(1) as f64;
        arch.fu_ids()
            .map(|fu| {
                let issues = self.fu_issues.get(fu.index()).copied().unwrap_or(0);
                (arch.fu(fu).name().to_string(), issues as f64 / cycles)
            })
            .collect()
    }

    /// Dynamic traffic per bus: `(name, transfers)`, covering every bus
    /// in the machine (zero for buses the schedule never used).
    pub fn bus_traffic(&self, arch: &csched_machine::Architecture) -> Vec<(String, u64)> {
        arch.bus_ids()
            .map(|bus| {
                (
                    arch.bus(bus).name().to_string(),
                    self.bus_transfers_per_bus
                        .get(bus.index())
                        .copied()
                        .unwrap_or(0),
                )
            })
            .collect()
    }

    /// Dynamic traffic per register file: `(name, writes, reads)`.
    pub fn rf_traffic(&self, arch: &csched_machine::Architecture) -> Vec<(String, u64, u64)> {
        arch.rf_ids()
            .map(|rf| {
                (
                    arch.rf(rf).name().to_string(),
                    self.rf_writes.get(rf.index()).copied().unwrap_or(0),
                    self.rf_reads.get(rf.index()).copied().unwrap_or(0),
                )
            })
            .collect()
    }
}

/// Increments a dynamically-sized per-resource counter.
fn bump(counters: &mut Vec<u64>, index: usize) {
    if counters.len() <= index {
        counters.resize(index + 1, 0);
    }
    counters[index] += 1;
}

/// How one operand of one operation obtains its value each iteration.
#[derive(Clone, Debug)]
enum OperandSource {
    /// An immediate, encoded in the instruction.
    Imm(Word),
    /// A register read through `stub`. `init` feeds iteration 0 (and
    /// straight-line code); `carried` feeds iterations ≥ its distance.
    /// `seed` holds the value pre-loaded into the file for iterations
    /// before the carried distance when there is no init producer.
    Read {
        stub: ReadStub,
        /// Distance-0 producer and whether it lives in an earlier block
        /// (cross-block producers execute once; same-block producers
        /// execute every iteration).
        init: Option<(SOpId, bool)>,
        carried: Option<(SOpId, u32)>,
        seed: Option<Word>,
    },
}

/// A staged write: the producing operation's value goes through `stub` on
/// its completion cycle.
#[derive(Clone, Copy, Debug)]
struct StagedWrite {
    stub: WriteStub,
}

/// The per-operation execution plan derived from the schedule's routes.
#[derive(Clone, Debug)]
struct OpPlan {
    opcode: Opcode,
    cycle: i64,
    /// Each operand in kernel order, with the input slot it is bound to.
    operands: Vec<(usize, OperandSource)>,
    writes: Vec<StagedWrite>,
    region_kind: RegionKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RegionKind {
    None,
    Main,
    Scratch,
}

/// Executes `schedule` for `trip` iterations of the kernel's loop,
/// mutating `memory` in place (inputs pre-loaded by the caller, exactly as
/// for the interpreter).
///
/// # Errors
///
/// Returns a [`SimError`] when the schedule fails to transport a value to
/// its reader or an operation's semantics fail.
pub fn execute(
    kernel: &Kernel,
    schedule: &Schedule,
    memory: &mut Memory,
    trip: u64,
) -> Result<SimStats, SimError> {
    execute_timed(kernel, schedule, memory, trip, None)
}

/// [`execute`], additionally streaming per-cycle events into `timeline`.
///
/// With `timeline: None` this *is* `execute` — the sink costs one branch
/// per event site. With a sink (for example
/// [`Timeline`](crate::Timeline)), every functional-unit issue, bus
/// transfer and register-file port access is reported with its flat
/// machine cycle and loop iteration, in execution order. The simulated
/// behaviour and the returned [`SimStats`] are identical either way.
///
/// # Errors
///
/// Returns a [`SimError`] when the schedule fails to transport a value to
/// its reader or an operation's semantics fail.
pub fn execute_timed(
    kernel: &Kernel,
    schedule: &Schedule,
    memory: &mut Memory,
    trip: u64,
    mut timeline: Option<&mut dyn TimelineSink>,
) -> Result<SimStats, SimError> {
    let plans = build_plans(kernel, schedule);
    let mut stats = SimStats {
        fu_issues: vec![
            0;
            schedule
                .universe()
                .op_ids()
                .map(|o| schedule.placement(o).fu.index() + 1)
                .max()
                .unwrap_or(0)
        ],
        ..SimStats::default()
    };

    // Register files: (rf, producer, iteration-frame) -> word.
    let mut rfs: HashMap<(RfId, SOpId, u64), Word> = HashMap::new();
    // Seed pre-loaded constants for carried reads at early iterations.
    for plan in plans.values() {
        for (_, source) in &plan.operands {
            if let OperandSource::Read {
                stub,
                carried: Some((producer, distance)),
                seed: Some(seed),
                init: None,
            } = source
            {
                for k in 0..*distance {
                    // Iteration k reads frame k - distance (mod nothing:
                    // represent pre-loop frames as u64 wrap-around keys).
                    let frame = pre_frame(k, *distance);
                    rfs.insert((stub.rf, *producer, frame), *seed);
                }
            }
        }
    }

    let u = schedule.universe();

    // --- straight-line blocks, in order ---
    // `base` tracks the flat machine cycle each block starts on, so
    // timeline events from consecutive blocks land on a single axis.
    let mut base: i64 = 0;
    for block in kernel.block_ids() {
        if kernel.block(block).is_loop() {
            continue;
        }
        let mut ops: Vec<SOpId> = u.op_ids().filter(|&o| u.op(o).block == block).collect();
        ops.sort_by_key(|&o| (plans[&o].cycle, o));
        for op in ops {
            exec_op(
                schedule,
                &plans,
                &mut rfs,
                memory,
                &mut stats,
                op,
                0,
                base,
                &mut timeline,
            )?;
        }
        let len = schedule.block_len(block).max(0);
        stats.cycles += len as u64;
        base += len;
    }

    // --- the software-pipelined loop ---
    if let Some(block) = kernel.loop_block() {
        let ii = schedule.ii().unwrap_or(1) as i64;
        let loop_ops: Vec<SOpId> = u.op_ids().filter(|&o| u.op(o).block == block).collect();
        // Event-driven: (flat cycle, op, iteration) sorted by cycle.
        let mut events: Vec<(i64, SOpId, u64)> = Vec::new();
        for &op in &loop_ops {
            let cycle = plans[&op].cycle;
            for k in 0..trip {
                events.push((cycle + k as i64 * ii, op, k));
            }
        }
        events.sort_by_key(|&(t, op, k)| (t, k, op));
        for (_, op, k) in events {
            exec_op(
                schedule,
                &plans,
                &mut rfs,
                memory,
                &mut stats,
                op,
                k,
                base + k as i64 * ii,
                &mut timeline,
            )?;
        }
        if trip > 0 {
            stats.cycles += (trip as i64 - 1).max(0) as u64 * ii as u64
                + schedule.block_len(block).max(0) as u64;
        }
    }

    Ok(stats)
}

/// Key for register-file frames before iteration 0 (seeded constants):
/// iteration `k` reading at distance `d` needs frame `k - d < 0`, encoded
/// by wrapping below `u64::MAX / 2`.
fn pre_frame(k: u32, distance: u32) -> u64 {
    u64::MAX - (distance - k) as u64
}

#[allow(clippy::too_many_arguments)]
fn exec_op(
    schedule: &Schedule,
    plans: &HashMap<SOpId, OpPlan>,
    rfs: &mut HashMap<(RfId, SOpId, u64), Word>,
    memory: &mut Memory,
    stats: &mut SimStats,
    op: SOpId,
    iteration: u64,
    time_offset: i64,
    timeline: &mut Option<&mut dyn TimelineSink>,
) -> Result<(), SimError> {
    let plan = &plans[&op];
    // Flat machine cycles of this dynamic instance: reads happen on the
    // issue cycle, write stubs fire on the completion cycle.
    let issue_cycle = time_offset + plan.cycle;
    // Gather operand values in kernel order, each through its bound slot,
    // so a rebound commutative operation evaluates exactly as written.
    let mut args = Vec::with_capacity(plan.operands.len());
    for &(slot, ref source) in &plan.operands {
        let word = match source {
            OperandSource::Imm(w) => *w,
            OperandSource::Read {
                stub,
                init,
                carried,
                seed: _,
            } => {
                let init_frame =
                    |producer: SOpId, cross: bool| (producer, if cross { 0u64 } else { iteration });
                let (producer, frame) = match (init, carried) {
                    (Some((init, cross)), Some(_)) if iteration == 0 => init_frame(*init, *cross),
                    (Some((init, cross)), None) => init_frame(*init, *cross),
                    (_, Some((carried, d))) => {
                        let frame = if iteration >= *d as u64 {
                            iteration - *d as u64
                        } else {
                            pre_frame(iteration as u32, *d)
                        };
                        (*carried, frame)
                    }
                    (None, None) => return Err(SimError::MissingOperand { op, slot }),
                };
                match rfs.get(&(stub.rf, producer, frame)) {
                    Some(w) => {
                        bump(&mut stats.rf_reads, stub.rf.index());
                        if let Some(sink) = timeline.as_deref_mut() {
                            sink.event(TimelineEvent::RfRead {
                                cycle: issue_cycle,
                                rf: stub.rf,
                                port: stub.port,
                                op,
                                slot,
                                iteration,
                            });
                        }
                        *w
                    }
                    None => {
                        return Err(SimError::ValueNotRouted {
                            op,
                            iteration,
                            slot,
                            rf: stub.rf,
                        })
                    }
                }
            }
        };
        args.push(word);
    }

    stats.ops_executed += 1;
    if plan.opcode == Opcode::Copy {
        stats.copies_executed += 1;
    }
    let placement = schedule.placement(op);
    {
        let fu = placement.fu.index();
        if stats.fu_issues.len() <= fu {
            stats.fu_issues.resize(fu + 1, 0);
        }
        stats.fu_issues[fu] += 1;
    }
    if let Some(sink) = timeline.as_deref_mut() {
        sink.event(TimelineEvent::FuIssue {
            cycle: issue_cycle,
            fu: placement.fu,
            op,
            iteration,
            is_copy: plan.opcode == Opcode::Copy,
        });
    }

    // Execute.
    let ir_op = schedule
        .universe()
        .op(op)
        .kernel_op
        .map(|k| csched_ir::OpId::from_raw(k.index()))
        .unwrap_or(csched_ir::OpId::from_raw(0));
    let result: Option<Word> = match plan.opcode {
        Opcode::Load | Opcode::SpRead => {
            let addr = args[0]
                .as_int()
                .zip(args[1].as_int())
                .map(|(b, o)| b.wrapping_add(o))
                .ok_or(interp::InterpError::TypeMismatch {
                    op: ir_op,
                    opcode: plan.opcode,
                })?;
            let space = if plan.region_kind == RegionKind::Scratch {
                &memory.scratch
            } else {
                &memory.main
            };
            Some(
                *space
                    .get(&addr)
                    .ok_or(interp::InterpError::UninitializedLoad { op: ir_op, addr })?,
            )
        }
        Opcode::Store | Opcode::SpWrite => {
            let addr = args[0]
                .as_int()
                .zip(args[1].as_int())
                .map(|(b, o)| b.wrapping_add(o))
                .ok_or(interp::InterpError::TypeMismatch {
                    op: ir_op,
                    opcode: plan.opcode,
                })?;
            let space = if plan.region_kind == RegionKind::Scratch {
                &mut memory.scratch
            } else {
                &mut memory.main
            };
            space.insert(addr, args[2]);
            None
        }
        opcode => Some(interp::eval_pure(ir_op, opcode, &args)?),
    };

    // Drive the write stubs.
    if let Some(word) = result {
        let completion_cycle = issue_cycle + placement.latency as i64 - 1;
        for write in &plan.writes {
            rfs.insert((write.stub.rf, op, iteration), word);
            stats.bus_transfers += 1;
            bump(&mut stats.bus_transfers_per_bus, write.stub.bus.index());
            bump(&mut stats.rf_writes, write.stub.rf.index());
            if let Some(sink) = timeline.as_deref_mut() {
                sink.event(TimelineEvent::BusTransfer {
                    cycle: completion_cycle,
                    bus: write.stub.bus,
                    rf: write.stub.rf,
                    producer: op,
                    iteration,
                });
                sink.event(TimelineEvent::RfWrite {
                    cycle: completion_cycle,
                    rf: write.stub.rf,
                    port: write.stub.port,
                    producer: op,
                    iteration,
                });
            }
        }
    }
    Ok(())
}

fn build_plans(kernel: &Kernel, schedule: &Schedule) -> HashMap<SOpId, OpPlan> {
    let u = schedule.universe();
    // Routes per operand: (producer, distance, cross-block, read stub).
    type OperandRoute = (SOpId, u32, bool, ReadStub);
    let mut operand_routes: HashMap<(SOpId, usize), Vec<OperandRoute>> = HashMap::new();
    let mut writes: HashMap<SOpId, Vec<StagedWrite>> = HashMap::new();
    for cid in u.comm_ids() {
        for (leg_id, route) in schedule.transport(cid) {
            let leg = u.comm(leg_id);
            let cross = u.op(leg.producer).block != u.op(leg.consumer).block;
            operand_routes
                .entry((leg.consumer, leg.slot))
                .or_default()
                .push((leg.producer, leg.distance, cross, route.rstub));
            let entry = writes.entry(leg.producer).or_default();
            if !entry.iter().any(|w| w.stub == route.wstub) {
                entry.push(StagedWrite { stub: route.wstub });
            }
        }
    }

    let mut plans = HashMap::new();
    for op in u.op_ids() {
        let sop = u.op(op);
        let p = schedule.placement(op);
        let mut operands = Vec::with_capacity(sop.num_operands);
        for operand in 0..sop.num_operands {
            let slot = sop.slot_of(operand);
            let source = match operand_routes.get(&(op, slot)) {
                None => {
                    // No communications: must be an immediate (kernel op).
                    let imm = sop
                        .kernel_op
                        .and_then(|k| match kernel.op(k).operands()[operand] {
                            Operand::Imm(i) => Some(i.to_word()),
                            Operand::Value(_) => None,
                        });
                    match imm {
                        Some(w) => OperandSource::Imm(w),
                        // A value operand with no comm can only be a
                        // loop variable whose producers were optimised
                        // away; treat as seeded zero (cannot happen for
                        // validated kernels).
                        None => OperandSource::Imm(Word::I(0)),
                    }
                }
                Some(routes) => {
                    let stub = routes[0].3;
                    let mut init = None;
                    let mut carried = None;
                    for &(producer, distance, cross, _) in routes {
                        if distance >= 1 {
                            carried = Some((producer, distance));
                        } else {
                            init = Some((producer, cross));
                        }
                    }
                    // Seed for carried reads before the first produced
                    // frame: the loop variable's immediate init.
                    let seed = if init.is_none() {
                        sop.kernel_op
                            .and_then(|k| match kernel.op(k).operands()[operand] {
                                Operand::Value(v) => match kernel.value_def(v) {
                                    ValueDef::LoopVar(b, idx) => {
                                        match kernel.block(b).loop_vars()[idx].init() {
                                            Operand::Imm(Imm::Int(i)) => Some(Word::I(i)),
                                            Operand::Imm(Imm::Float(f)) => Some(Word::F(f)),
                                            Operand::Value(_) => None,
                                        }
                                    }
                                    ValueDef::Op(_) => None,
                                },
                                Operand::Imm(_) => None,
                            })
                    } else {
                        None
                    };
                    OperandSource::Read {
                        stub,
                        init,
                        carried,
                        seed,
                    }
                }
            };
            operands.push((slot, source));
        }
        let region_kind = match sop.opcode {
            Opcode::Load | Opcode::Store => RegionKind::Main,
            Opcode::SpRead | Opcode::SpWrite => RegionKind::Scratch,
            _ => RegionKind::None,
        };
        plans.insert(
            op,
            OpPlan {
                opcode: sop.opcode,
                cycle: p.cycle,
                operands,
                writes: writes.remove(&op).unwrap_or_default(),
                region_kind,
            },
        );
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use csched_core::{schedule_kernel, SchedulerConfig};
    use csched_ir::KernelBuilder;
    use csched_machine::imagine;

    fn streaming_kernel() -> Kernel {
        // out[i] = 2*in[i] + running_sum(in), with an accumulator and an
        // induction variable — covers carried values, imm seeds and loads.
        let mut kb = KernelBuilder::new("mix");
        let input = kb.region("in", true);
        let output = kb.region("out", true);
        let pre = kb.straight_block("pre");
        let zero = kb.push(pre, Opcode::IAdd, [Operand::from(0i64), 0i64.into()]);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let acc = kb.loop_var(lp, zero.into());
        let x = kb.load(lp, input, i.into(), 0i64.into());
        let acc1 = kb.push(lp, Opcode::IAdd, [acc.into(), x.into()]);
        let two_x = kb.push(lp, Opcode::Shl, [x.into(), 1i64.into()]);
        let y = kb.push(lp, Opcode::IAdd, [two_x.into(), acc1.into()]);
        kb.store(lp, output, i.into(), 500i64.into(), y.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        kb.set_update(acc, acc1.into());
        kb.build().unwrap()
    }

    fn inputs() -> Memory {
        let mut mem = Memory::new();
        mem.write_block(0, (0..32).map(|v| Word::I(v * 7 - 13)));
        mem
    }

    #[test]
    fn matches_interpreter_on_all_variants() {
        let kernel = streaming_kernel();
        let trip = 16u64;
        let mut expected = inputs();
        interp::run(&kernel, &mut expected, trip).unwrap();
        for arch in imagine::all_variants() {
            let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", arch.name()));
            let mut mem = inputs();
            let stats = execute(&kernel, &schedule, &mut mem, trip)
                .unwrap_or_else(|e| panic!("{}: {e}", arch.name()));
            assert_eq!(mem.main, expected.main, "{}", arch.name());
            assert!(stats.cycles > 0);
            assert!(stats.ops_executed >= 6 * trip, "all loop iterations ran");
        }
    }

    #[test]
    fn rf_traffic_counters_balance() {
        let kernel = streaming_kernel();
        let arch = imagine::distributed();
        let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let trip = 16u64;
        let mut mem = inputs();
        let stats = execute(&kernel, &schedule, &mut mem, trip).unwrap();
        // Every bus transfer lands a value in exactly one register file.
        assert_eq!(stats.rf_writes.iter().sum::<u64>(), stats.bus_transfers);
        // Every executed value is read at least once overall, and every
        // file that is read was written (or pre-seeded, which the
        // streaming kernel does not use).
        let reads: u64 = stats.rf_reads.iter().sum();
        assert!(reads >= stats.bus_transfers / 2, "reads {reads}");
        for (name, writes, rd) in stats.rf_traffic(&arch) {
            if rd > 0 {
                assert!(writes > 0, "{name} read but never written");
            }
        }
        // The traffic report covers every register file in the machine.
        assert_eq!(stats.rf_traffic(&arch).len(), arch.num_rfs());
    }

    #[test]
    fn pipelined_iterations_overlap() {
        let kernel = streaming_kernel();
        let arch = imagine::distributed();
        let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let ii = schedule.ii().unwrap() as u64;
        let lb = kernel.loop_block().unwrap();
        let flat = schedule.block_len(lb) as u64;
        // With software pipelining the loop body is longer than II, so
        // iterations overlap.
        let trip = 16u64;
        let mut mem = inputs();
        let stats = execute(&kernel, &schedule, &mut mem, trip).unwrap();
        assert_eq!(
            stats.cycles,
            schedule.block_len(csched_ir::BlockId::from_raw(0)) as u64 + (trip - 1) * ii + flat
        );
        assert!(flat >= ii);
    }

    #[test]
    fn copies_execute_on_clustered_machines() {
        let kernel = streaming_kernel();
        let arch = imagine::clustered(4);
        let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let trip = 8u64;
        let mut mem = inputs();
        let stats = execute(&kernel, &schedule, &mut mem, trip).unwrap();
        if schedule.num_copies() > 0 {
            assert!(stats.copies_executed > 0);
        }
        let mut expected = inputs();
        interp::run(&kernel, &mut expected, trip).unwrap();
        assert_eq!(mem.main, expected.main);
    }
}

#[cfg(test)]
mod utilization_tests {
    use super::*;
    use csched_core::{schedule_kernel, SchedulerConfig};
    use csched_ir::KernelBuilder;
    use csched_machine::imagine;

    #[test]
    fn utilization_counts_add_up() {
        let mut kb = KernelBuilder::new("u");
        let input = kb.region("in", true);
        let output = kb.region("out", true);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let x = kb.load(lp, input, i.into(), 0i64.into());
        let y = kb.push(lp, Opcode::IMul, [x.into(), 5i64.into()]);
        kb.store(lp, output, i.into(), 50i64.into(), y.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        let kernel = kb.build().unwrap();

        let arch = imagine::distributed();
        let s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let trip = 6u64;
        let mut mem = Memory::new();
        mem.write_block(0, (0..trip as i64).map(Word::I));
        let stats = execute(&kernel, &s, &mut mem, trip).unwrap();
        let total: u64 = stats.fu_issues.iter().sum();
        assert_eq!(total, stats.ops_executed);
        let util = stats.utilization(&arch);
        assert_eq!(util.len(), arch.num_fus());
        assert!(util.iter().all(|&(_, u)| (0.0..=1.0).contains(&u)));
        assert!(util.iter().any(|&(_, u)| u > 0.0));
    }
}
