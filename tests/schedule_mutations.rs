//! Mutation property tests for the independent validator: starting from a
//! schedule the scheduler produced (and the validator accepted), each
//! mutation corrupts one aspect — an operation's issue cycle, a route's
//! meeting register file, the write stub carrying a communication, or a
//! non-commutative operation's operand binding — and the validator must
//! reject the corrupted schedule with the matching
//! violation kind. This checks the validator actually *re-derives* the
//! constraints rather than trusting the scheduler's bookkeeping.

mod common;

use common::{random_kernel_with_ops, TOY_OPS};
use csched::core::validate::{validate, ValidationError};
use csched::core::{schedule_kernel, CommId, SOpId, Schedule, SchedulerConfig};
use csched::ir::Kernel;
use csched::machine::{toy, Architecture, RfId};
use proptest::prelude::*;

/// Schedules a random toy-machine kernel, asserting the baseline is valid.
fn valid_schedule(arch: &Architecture, seed: u64, ops: usize) -> (Kernel, Schedule) {
    let kernel = random_kernel_with_ops(seed, ops, TOY_OPS);
    let schedule = schedule_kernel(arch, &kernel, SchedulerConfig::default())
        .unwrap_or_else(|e| panic!("seed {seed}: toy kernels must schedule: {e}"));
    validate(arch, &kernel, &schedule).expect("baseline schedule must validate");
    (kernel, schedule)
}

/// A same-block, distance-0 communication between kernel operations whose
/// producer can be pushed past the end of its block to break timing.
fn same_block_comm(schedule: &Schedule) -> Option<CommId> {
    let u = schedule.universe();
    u.comm_ids().find(|&cid| {
        let c = u.comm(cid);
        c.distance == 0
            && u.op(c.producer).kernel_op.is_some()
            && u.op(c.consumer).kernel_op.is_some()
            && u.op(c.producer).block == u.op(c.consumer).block
    })
}

/// The first kernel operation with two or more operands whose opcode is
/// not commutative, so no binding but the kernel's own order is legal.
fn non_commutative_op(schedule: &Schedule) -> Option<SOpId> {
    let u = schedule.universe();
    u.op_ids().take(u.num_kernel_ops()).find(|&op| {
        let sop = u.op(op);
        sop.num_operands >= 2 && !sop.opcode.is_commutative()
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Moving a producer past the end of its block must surface as a
    /// timing violation on one of its communications.
    #[test]
    fn moved_op_is_rejected_as_timing_violation(seed in 1u64..u64::MAX, ops in 3usize..10) {
        let arch = toy::motivating_example();
        let (kernel, mut schedule) = valid_schedule(&arch, seed, ops);
        let Some(cid) = same_block_comm(&schedule) else {
            // Degenerate kernel with no same-block value flow; nothing to
            // corrupt in this case.
            return Ok(());
        };
        let c = schedule.universe().comm(cid).clone();
        let block = schedule.universe().op(c.producer).block;
        let push = schedule.block_len(block) + 8;
        schedule.corrupt_placement_for_tests(c.producer, push);
        let errors = validate(&arch, &kernel, &schedule)
            .expect_err("moved producer must invalidate the schedule");
        prop_assert!(
            errors.iter().any(|e| matches!(
                e,
                ValidationError::TimingViolated { from, .. } if *from == c.producer
            )),
            "seed {}: expected TimingViolated from {}, got {:?}",
            seed, c.producer, errors
        );
    }

    /// Redirecting a route's read stub into a different register file than
    /// its write stub must surface as a malformed route.
    #[test]
    fn clobbered_route_is_rejected_as_malformed(seed in 1u64..u64::MAX, ops in 3usize..10) {
        let arch = toy::motivating_example();
        let (kernel, mut schedule) = valid_schedule(&arch, seed, ops);
        // Find a directly-routed communication and send its read stub to
        // some other register file.
        let u = schedule.universe();
        let direct: Vec<CommId> = u.comm_ids().collect();
        let mut clobbered = None;
        for cid in direct {
            let legs = schedule.transport(cid);
            let Some(&(leg, route)) = legs.first() else { continue };
            let wrong_rf = RfId::from_raw((route.wstub.rf.index() + 1) % arch.num_rfs());
            if wrong_rf == route.wstub.rf {
                continue;
            }
            if schedule.corrupt_route_for_tests(leg, wrong_rf) {
                clobbered = Some(leg);
                break;
            }
        }
        let Some(leg) = clobbered else { return Ok(()); };
        let errors = validate(&arch, &kernel, &schedule)
            .expect_err("clobbered route must invalidate the schedule");
        prop_assert!(
            errors.iter().any(|e| matches!(
                e,
                ValidationError::MalformedRoute { comm, .. } if *comm == leg
            )),
            "seed {}: expected MalformedRoute on {}, got {:?}",
            seed, leg, errors
        );
    }

    /// Swapping the input slots of a non-commutative operation's operands
    /// must surface as an illegal binding.
    #[test]
    fn rebound_non_commutative_op_is_rejected_as_illegal_binding(
        seed in 1u64..u64::MAX,
        ops in 3usize..10,
    ) {
        let arch = toy::motivating_example();
        let (kernel, mut schedule) = valid_schedule(&arch, seed, ops);
        let Some(victim) = non_commutative_op(&schedule) else {
            return Ok(());
        };
        prop_assert!(schedule.swap_binding_for_tests(victim));
        let errors = validate(&arch, &kernel, &schedule)
            .expect_err("a rebound non-commutative op must invalidate the schedule");
        prop_assert!(
            errors.iter().any(|e| matches!(
                e,
                ValidationError::IllegalBinding { op } if *op == victim
            )),
            "seed {}: expected IllegalBinding on {}, got {:?}",
            seed, victim, errors
        );
    }

    /// Forcing two communications from different producers onto the same
    /// write stub (same bus, port, and cycle) must surface as a resource
    /// conflict when the validator replays the schedule's claims.
    #[test]
    fn double_booked_bus_is_rejected_as_resource_conflict(
        seed in 1u64..u64::MAX,
        ops in 4usize..12,
    ) {
        let arch = toy::motivating_example();
        let (kernel, mut schedule) = valid_schedule(&arch, seed, ops);
        let Some(_victim) = schedule.double_book_bus_for_tests(&kernel) else {
            // No two direct routes complete on the same table cycle in
            // this schedule; nothing to double-book.
            return Ok(());
        };
        let errors = validate(&arch, &kernel, &schedule)
            .expect_err("double-booked write stub must invalidate the schedule");
        prop_assert!(
            errors.iter().any(|e| matches!(
                e,
                ValidationError::ResourceConflict { what } if what.contains("write stub")
            )),
            "seed {}: expected a write-stub ResourceConflict, got {:?}",
            seed, errors
        );
    }
}

/// The mutations must fire on at least some inputs: a deterministic sweep
/// proving the proptest cases above are not vacuously passing via their
/// `None` escapes.
#[test]
fn mutations_are_reachable() {
    let arch = toy::motivating_example();
    let (mut moved, mut clobbered, mut double_booked) = (0usize, 0usize, 0usize);
    let mut rebindable = 0usize;
    for seed in 1..40u64 {
        let (kernel, schedule) = valid_schedule(&arch, seed, 6);
        if same_block_comm(&schedule).is_some() {
            moved += 1;
        }
        if schedule
            .universe()
            .comm_ids()
            .next()
            .is_some_and(|c| !schedule.transport(c).is_empty())
        {
            clobbered += 1;
        }
        if non_commutative_op(&schedule).is_some() {
            rebindable += 1;
        }
        let mut s = schedule.clone();
        if s.double_book_bus_for_tests(&kernel).is_some() {
            double_booked += 1;
        }
    }
    assert!(
        moved > 20,
        "same-block comms found in only {moved}/39 schedules"
    );
    assert!(
        clobbered > 20,
        "direct routes found in only {clobbered}/39 schedules"
    );
    assert!(
        rebindable > 20,
        "non-commutative ops found in only {rebindable}/39 schedules"
    );
    assert!(
        double_booked > 5,
        "double-bookable stub pairs found in only {double_booked}/39 schedules"
    );
}
