//! Independent schedule validation.
//!
//! Re-derives every constraint a correct schedule must satisfy — a legal
//! operand binding, unit capability, dependence timing, route
//! well-formedness, operand stub consistency, and cycle-level resource
//! exclusivity — directly from the finished [`Schedule`], the
//! [`Architecture`] and the [`Kernel`]. The scheduler never consults this
//! module, so bookkeeping bugs in the engine cannot hide here; the
//! property tests lean on it heavily.

use std::collections::{HashMap, HashSet};
use std::fmt;

use csched_ir::{resolve_producers, DepGraph, DepKind, Kernel, Operand};
use csched_machine::{Architecture, WriteStub};

use crate::schedule::Schedule;
use crate::table::ResourceTable;
use crate::universe::{CommId, SOpId};

/// One validation failure.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ValidationError {
    /// A kernel operation's operand binding is not a permutation of its
    /// operands, or permutes the operands of a non-commutative opcode.
    IllegalBinding {
        /// The operation.
        op: SOpId,
    },
    /// The communications into an input slot do not come from the kernel
    /// operand bound to that slot.
    MisboundOperand {
        /// The consuming operation.
        op: SOpId,
        /// The input slot.
        slot: usize,
    },
    /// An operation is placed on a unit that cannot execute it.
    IncapableUnit {
        /// The operation.
        op: SOpId,
    },
    /// The recorded latency disagrees with the unit's capability.
    WrongLatency {
        /// The operation.
        op: SOpId,
    },
    /// A same-block dependence or communication is not satisfied in time.
    TimingViolated {
        /// Producing operation.
        from: SOpId,
        /// Consuming operation.
        to: SOpId,
        /// Iteration distance of the dependence.
        distance: u32,
    },
    /// A route's stubs do not match the endpoint placements or do not meet
    /// in one register file.
    MalformedRoute {
        /// The communication.
        comm: CommId,
        /// Human-readable reason.
        reason: String,
    },
    /// Two communications into one operand use different read stubs.
    InconsistentOperand {
        /// The consuming operation.
        op: SOpId,
        /// The operand slot.
        slot: usize,
    },
    /// Replaying the schedule's claims found a hardware resource conflict.
    ResourceConflict {
        /// Human-readable description of the conflicting claim.
        what: String,
    },
    /// A copy operation landed outside its communication's copy range.
    CopyOutOfRange {
        /// The copy operation.
        copy: SOpId,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::IllegalBinding { op } => {
                write!(f, "{op}: illegal operand binding")
            }
            ValidationError::MisboundOperand { op, slot } => {
                write!(f, "{op} slot {slot}: communications from the wrong operand")
            }
            ValidationError::IncapableUnit { op } => write!(f, "{op}: unit cannot execute it"),
            ValidationError::WrongLatency { op } => write!(f, "{op}: latency mismatch"),
            ValidationError::TimingViolated { from, to, distance } => {
                write!(
                    f,
                    "dependence {from} -> {to} (distance {distance}) violated"
                )
            }
            ValidationError::MalformedRoute { comm, reason } => {
                write!(f, "{comm}: malformed route: {reason}")
            }
            ValidationError::InconsistentOperand { op, slot } => {
                write!(f, "{op} operand {slot}: read stubs differ")
            }
            ValidationError::ResourceConflict { what } => {
                write!(f, "resource conflict: {what}")
            }
            ValidationError::CopyOutOfRange { copy } => {
                write!(f, "{copy}: copy scheduled outside its copy range")
            }
        }
    }
}

/// Validates `schedule` against `arch` and `kernel`.
///
/// # Errors
///
/// Returns every violation found (an empty `Ok(())` means the schedule is
/// consistent).
pub fn validate(
    arch: &Architecture,
    kernel: &Kernel,
    schedule: &Schedule,
) -> Result<(), Vec<ValidationError>> {
    let mut errors = Vec::new();
    let u = schedule.universe();
    let ii = schedule.ii().unwrap_or(1) as i64;

    check_binding(kernel, schedule, &mut errors);

    // --- capability and latency ---
    for op in u.op_ids() {
        let p = schedule.placement(op);
        match arch.fu(p.fu).capability(u.op(op).opcode) {
            None => errors.push(ValidationError::IncapableUnit { op }),
            Some(cap) => {
                if cap.latency != p.latency {
                    errors.push(ValidationError::WrongLatency { op });
                }
            }
        }
    }

    let block_ii = |block: csched_ir::BlockId| -> i64 {
        if kernel.block(block).is_loop() {
            ii
        } else {
            1
        }
    };

    // --- communication timing (same block) ---
    for cid in u.comm_ids() {
        let c = u.comm(cid);
        let bp = u.op(c.producer).block;
        let bq = u.op(c.consumer).block;
        if bp != bq {
            continue;
        }
        let p = schedule.placement(c.producer);
        let q = schedule.placement(c.consumer);
        if q.cycle + c.distance as i64 * block_ii(bp) < p.completion() + 1 {
            errors.push(ValidationError::TimingViolated {
                from: c.producer,
                to: c.consumer,
                distance: c.distance,
            });
        }
    }

    // --- memory ordering (kernel ops only) ---
    let graph = DepGraph::build(kernel, csched_machine::default_latency);
    for e in graph.edges() {
        if e.kind != DepKind::Mem {
            continue;
        }
        if kernel.op(e.from).block() != kernel.op(e.to).block() {
            continue;
        }
        let from = SOpId::from_raw(e.from.index());
        let to = SOpId::from_raw(e.to.index());
        let p = schedule.placement(from);
        let q = schedule.placement(to);
        if q.cycle + e.distance as i64 * block_ii(kernel.op(e.from).block()) < p.completion() + 1 {
            errors.push(ValidationError::TimingViolated {
                from,
                to,
                distance: e.distance,
            });
        }
    }

    // --- route well-formedness ---
    let mut operand_stub: HashMap<(SOpId, usize), csched_machine::ReadStub> = HashMap::new();
    for cid in u.comm_ids() {
        for (leg_id, route) in schedule.transport(cid) {
            let leg = u.comm(leg_id);
            let p = schedule.placement(leg.producer);
            let q = schedule.placement(leg.consumer);
            if route.wstub.fu != p.fu {
                errors.push(ValidationError::MalformedRoute {
                    comm: leg_id,
                    reason: format!("write stub unit {} != producer unit", route.wstub.fu),
                });
            }
            if route.rstub.fu != q.fu || route.rstub.slot as usize != leg.slot {
                errors.push(ValidationError::MalformedRoute {
                    comm: leg_id,
                    reason: "read stub does not match consumer input".into(),
                });
            }
            if route.wstub.rf != route.rstub.rf {
                errors.push(ValidationError::MalformedRoute {
                    comm: leg_id,
                    reason: format!(
                        "stubs meet in different files ({} vs {})",
                        route.wstub.rf, route.rstub.rf
                    ),
                });
            }
            if !arch.write_stubs(p.fu).contains(&route.wstub) {
                errors.push(ValidationError::MalformedRoute {
                    comm: leg_id,
                    reason: "write stub not valid for this unit".into(),
                });
            }
            if !arch.read_stubs(q.fu, leg.slot).contains(&route.rstub) {
                errors.push(ValidationError::MalformedRoute {
                    comm: leg_id,
                    reason: "read stub not valid for this input".into(),
                });
            }
            // Operand consistency across communications.
            match operand_stub.entry((leg.consumer, leg.slot)) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(route.rstub);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != route.rstub {
                        errors.push(ValidationError::InconsistentOperand {
                            op: leg.consumer,
                            slot: leg.slot,
                        });
                    }
                }
            }
        }
    }

    // --- copy ranges ---
    for cid in u.comm_ids() {
        let legs = schedule.transport(cid);
        if legs.len() < 2 {
            continue;
        }
        let original = u.comm(cid);
        let same_block = u.op(original.producer).block == u.op(original.consumer).block;
        for window in legs.windows(2) {
            let first = u.comm(window[0].0);
            let copy = first.consumer;
            let p = schedule.placement(first.producer);
            let cp = schedule.placement(copy);
            if cp.cycle < p.completion() + 1 {
                errors.push(ValidationError::CopyOutOfRange { copy });
            }
            if same_block {
                let q = schedule.placement(original.consumer);
                let read_at =
                    q.cycle + original.distance as i64 * block_ii(u.op(original.consumer).block);
                if cp.completion() + 1 > read_at {
                    errors.push(ValidationError::CopyOutOfRange { copy });
                }
            }
        }
    }

    replay_claims(arch, kernel, schedule, &mut errors);

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Checks every kernel operation's operand binding without recomputing
/// the rule that chose it: the binding must permute the operands, may
/// differ from the kernel's order only for a commutative opcode, and each
/// input slot's communications from kernel producers must be exactly the
/// producers of the operand bound to that slot.
fn check_binding(kernel: &Kernel, schedule: &Schedule, errors: &mut Vec<ValidationError>) {
    let u = schedule.universe();
    for op in u.op_ids().take(u.num_kernel_ops()) {
        let sop = u.op(op);
        let Some(k) = sop.kernel_op else {
            continue;
        };
        let n = sop.num_operands;
        let slots = &sop.slots[..n];
        let permutes = (0..n).all(|slot| slots.iter().any(|&s| usize::from(s) == slot));
        let identity = slots.iter().enumerate().all(|(i, &s)| usize::from(s) == i);
        if !permutes || (!identity && !sop.opcode.is_commutative()) {
            errors.push(ValidationError::IllegalBinding { op });
            continue;
        }
        for (&operand, &slot) in kernel.op(k).operands().iter().zip(slots) {
            let slot = usize::from(slot);
            let mut want: Vec<(usize, u32)> = match operand {
                Operand::Value(v) => resolve_producers(kernel, v)
                    .into_iter()
                    .map(|(p, d)| (p.index(), d))
                    .collect(),
                Operand::Imm(_) => Vec::new(),
            };
            let mut got: Vec<(usize, u32)> = u
                .comms_to_operand(op, slot)
                .iter()
                .map(|&c| u.comm(c))
                .filter(|c| c.producer.index() < u.num_kernel_ops())
                .map(|c| (c.producer.index(), c.distance))
                .collect();
            want.sort_unstable();
            got.sort_unstable();
            if want != got {
                errors.push(ValidationError::MisboundOperand { op, slot });
            }
        }
    }
}

/// Replays `schedule`'s resource claims into fresh per-block tables:
/// the issue slots of every operation, one write-stub claim per distinct
/// `(producer, stub)` and one read-stub claim per consumer operand. Each
/// claim the tables refuse is pushed onto `errors` as a
/// [`ValidationError::ResourceConflict`]. The metrics report reads its
/// occupancy profiles from the returned tables.
pub(crate) fn replay_claims(
    arch: &Architecture,
    kernel: &Kernel,
    schedule: &Schedule,
    errors: &mut Vec<ValidationError>,
) -> Vec<ResourceTable> {
    let u = schedule.universe();
    let mut tables = ResourceTable::per_block(arch, kernel, schedule.ii().unwrap_or(1));
    for op in u.op_ids() {
        let p = schedule.placement(op);
        let block = u.op(op).block;
        let interval = arch
            .fu(p.fu)
            .capability(u.op(op).opcode)
            .map(|c| c.issue_interval)
            .unwrap_or(1);
        if !tables[block.index()].place_issue(p.cycle, p.fu, interval, op) {
            errors.push(ValidationError::ResourceConflict {
                what: format!("issue slot of {} at cycle {} ({op})", p.fu, p.cycle),
            });
        }
    }
    let mut placed_writes: HashSet<(SOpId, WriteStub)> = HashSet::new();
    let mut placed_reads: HashSet<(SOpId, usize)> = HashSet::new();
    for cid in u.comm_ids() {
        for (leg_id, route) in schedule.transport(cid) {
            let leg = u.comm(leg_id);
            let p = schedule.placement(leg.producer);
            let q = schedule.placement(leg.consumer);
            let pb = u.op(leg.producer).block;
            let qb = u.op(leg.consumer).block;
            if placed_writes.insert((leg.producer, route.wstub)) {
                let fanout = arch.fu(p.fu).output_fanout();
                if !tables[pb.index()].place_write_stub(
                    p.completion(),
                    route.wstub,
                    leg.producer,
                    fanout,
                ) {
                    errors.push(ValidationError::ResourceConflict {
                        what: format!("write stub of {leg_id} at cycle {}", p.completion()),
                    });
                }
            }
            if placed_reads.insert((leg.consumer, leg.slot))
                && !tables[qb.index()].place_read_stub(q.cycle, route.rstub, leg.consumer, leg.slot)
            {
                errors.push(ValidationError::ResourceConflict {
                    what: format!("read stub of {leg_id} at cycle {}", q.cycle),
                });
            }
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule_kernel, SchedulerConfig};
    use csched_ir::KernelBuilder;
    use csched_machine::{imagine, toy, Opcode};

    fn loopy_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("loopy");
        let input = kb.region("in", true);
        let output = kb.region("out", true);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let x = kb.load(lp, input, i.into(), 0i64.into());
        let y = kb.push(lp, Opcode::IAdd, [x.into(), x.into()]);
        kb.store(lp, output, i.into(), 0i64.into(), y.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        kb.build().unwrap()
    }

    #[test]
    fn valid_schedules_pass() {
        let kernel = loopy_kernel();
        for arch in [toy::motivating_example(), imagine::distributed()] {
            let s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
            validate(&arch, &kernel, &s).unwrap_or_else(|e| {
                panic!("{}: {:?}", arch.name(), e);
            });
        }
    }

    #[test]
    fn corrupted_placement_is_caught() {
        let kernel = loopy_kernel();
        let arch = imagine::distributed();
        let mut s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        // Shift an op off its legal cycle: breaks timing or resources.
        s.placements[0].cycle += 1;
        assert!(validate(&arch, &kernel, &s).is_err());
    }

    #[test]
    fn communications_that_do_not_follow_the_binding_are_caught() {
        let kernel = loopy_kernel();
        let arch = imagine::distributed();
        let mut s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        // `i + 1` is commutative, so binding `i` to slot 1 is legal, but
        // its communications still arrive in slot 0.
        let inc = SOpId::from_raw(3);
        assert_eq!(s.universe().op(inc).opcode, Opcode::IAdd);
        assert!(s.swap_binding_for_tests(inc));
        let errors = validate(&arch, &kernel, &s).unwrap_err();
        assert!(
            errors.contains(&ValidationError::MisboundOperand { op: inc, slot: 1 }),
            "{errors:?}"
        );
        assert!(!errors
            .iter()
            .any(|e| matches!(e, ValidationError::IllegalBinding { .. })));
    }

    #[test]
    fn corrupted_route_is_caught() {
        let kernel = loopy_kernel();
        let arch = imagine::distributed();
        let mut s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        // Point one direct route's read stub at a different register file.
        let victim = s
            .dispositions
            .iter()
            .position(|d| matches!(d, crate::schedule::CommDisposition::Direct(_)))
            .expect("some direct route");
        if let crate::schedule::CommDisposition::Direct(ref mut r) = s.dispositions[victim] {
            r.rstub.rf = csched_machine::RfId::from_raw((r.rstub.rf.index() + 1) % arch.num_rfs());
        }
        assert!(validate(&arch, &kernel, &s).is_err());
    }
}
