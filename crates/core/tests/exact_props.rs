//! Property tests for the exact-scheduling oracle: across random small
//! kernels and machines, a certified II never exceeds the heuristic's
//! (the oracle is sound as a lower bound), every exact witness passes
//! the independent validator, and certification is deterministic.

use csched_core::exact::{certify_min_ii, ExactVerdict};
use csched_core::{schedule_kernel, validate, SchedulerConfig, StepBudget};
use csched_ir::{Kernel, KernelBuilder};
use csched_machine::{imagine, toy, Architecture, Opcode};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A random small loop kernel (at most 6 operations): an optional
/// leading load, a chain of adds and multiplies, an optional store, and
/// the induction update.
fn small_kernel(adds: usize, muls: usize, loads: usize, store: bool) -> Kernel {
    let mut kb = KernelBuilder::new("prop");
    let input = kb.region("in", true);
    let output = kb.region("out", true);
    let lp = kb.loop_block("body");
    let i = kb.loop_var(lp, 0i64.into());
    let mut last = None;
    for k in 0..loads {
        let x = kb.load(lp, input, i.into(), (8 * k as i64).into());
        last = Some(x);
    }
    for k in 0..adds {
        let operand = last.map_or_else(|| i.into(), Into::into);
        let v = kb.push(lp, Opcode::IAdd, [operand, (k as i64 + 1).into()]);
        last = Some(v);
    }
    for _ in 0..muls {
        let operand = last.map_or_else(|| i.into(), Into::into);
        let v = kb.push(lp, Opcode::IMul, [operand, 3i64.into()]);
        last = Some(v);
    }
    if store {
        if let Some(v) = last {
            kb.store(lp, output, i.into(), 0i64.into(), v.into());
        }
    }
    let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
    kb.set_update(i, i1.into());
    kb.build().unwrap()
}

fn machine(which: usize) -> Architecture {
    match which {
        0 => toy::motivating_example(),
        1 => imagine::central(),
        _ => imagine::clustered(2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The certified minimum II never exceeds a validated heuristic II,
    /// and the oracle's witness schedule passes the independent
    /// validator.
    #[test]
    fn exact_never_exceeds_heuristic_and_witnesses_validate(
        adds in 0usize..3,
        muls in 0usize..2,
        loads in 0usize..2,
        store in any::<bool>(),
        which in 0usize..3,
    ) {
        // The toy machine has no multiplier: keep its kernels mul-free.
        let muls = if which == 0 { 0 } else { muls };
        let kernel = small_kernel(adds, muls, loads, store);
        prop_assert!(kernel.num_ops() <= 8, "generator must stay small");
        let arch = machine(which);
        let budget = StepBudget::new(3_000_000);
        let report = certify_min_ii(&arch, &kernel, 128, &budget)
            .map_err(|e| TestCaseError::fail(format!("oracle: {e}")))?;
        if let Some(witness) = &report.schedule {
            prop_assert!(
                validate::validate(&arch, &kernel, witness).is_ok(),
                "exact witness must pass the validator"
            );
        }
        let heuristic_ii = schedule_kernel(&arch, &kernel, SchedulerConfig::default())
            .ok()
            .map(|s| s.ii().unwrap_or(0));
        match (report.verdict, heuristic_ii) {
            (ExactVerdict::Certified { ii }, Some(h)) => {
                prop_assert!(ii <= h, "certified {ii} > heuristic {h}: soundness bug");
            }
            // An infeasibility proof within the heuristic's reach is a
            // contradiction: the validator accepted a refuted II.
            (ExactVerdict::Infeasible { max_ii }, Some(h)) => {
                prop_assert!(
                    h > max_ii,
                    "oracle refuted II<={max_ii} but the validator accepted {h}"
                );
            }
            _ => {}
        }
    }

    /// Certification is deterministic: two runs agree on the verdict and
    /// on every per-II node count.
    #[test]
    fn certification_is_deterministic_across_runs(
        adds in 0usize..3,
        loads in 0usize..2,
        which in 0usize..3,
    ) {
        let kernel = small_kernel(adds, 0, loads, false);
        let arch = machine(which);
        let run = || {
            let budget = StepBudget::new(500_000);
            certify_min_ii(&arch, &kernel, 128, &budget)
        };
        let a = run().map_err(|e| TestCaseError::fail(format!("oracle: {e}")))?;
        let b = run().map_err(|e| TestCaseError::fail(format!("oracle: {e}")))?;
        prop_assert_eq!(&a.verdict, &b.verdict);
        prop_assert_eq!(a.per_ii.len(), b.per_ii.len());
        for (x, y) in a.per_ii.iter().zip(&b.per_ii) {
            prop_assert_eq!(x.ii, y.ii);
            prop_assert_eq!(x.nodes, y.nodes);
            prop_assert_eq!(x.feasible, y.feasible);
        }
    }
}
