//! Property tests for the placement-attempt budget: across random retry
//! policies and budget limits, `schedule_kernel_anytime` never spends
//! more placement attempts than its budget (summed over every rung of
//! the relaxation ladder), a shared caller
//! budget bounds the whole call the same way, and an exhausted budget is
//! always a typed stop, never an internal error.

use csched_core::{
    schedule_kernel_anytime, CancelToken, RetryPolicy, SchedError, SchedulerConfig, StepBudget,
};
use csched_ir::{Kernel, KernelBuilder};
use csched_machine::{imagine, Opcode};
use proptest::prelude::*;

/// A loop kernel with `width` independent multiply/add chains: enough
/// placement work that small budgets genuinely trip mid-search.
fn chained_kernel(width: usize) -> Kernel {
    let mut kb = KernelBuilder::new("chains");
    let input = kb.region("in", true);
    let output = kb.region("out", true);
    let lp = kb.loop_block("body");
    let i = kb.loop_var(lp, 0i64.into());
    for k in 0..width {
        let x = kb.load(lp, input, i.into(), (8 * k as i64).into());
        let m = kb.push(lp, Opcode::IMul, [x.into(), 3i64.into()]);
        let s = kb.push(lp, Opcode::IAdd, [m.into(), (k as i64).into()]);
        kb.store(lp, output, i.into(), (8 * k as i64).into(), s.into());
    }
    let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
    kb.set_update(i, i1.into());
    kb.build().unwrap()
}

/// A budget spent or cancelled before the first rung starts is answered
/// with the budget's own typed refusal, not an internal error.
#[test]
fn zero_budget_is_a_typed_stop_not_an_internal_error() {
    let arch = imagine::distributed();
    let merge = csched_kernels::by_name("Merge").unwrap();
    let run = |budget: &StepBudget| {
        schedule_kernel_anytime(
            &arch,
            &merge.kernel,
            SchedulerConfig::default(),
            &RetryPolicy::default(),
            budget,
        )
    };

    let (result, report) = run(&StepBudget::new(0));
    assert_eq!(
        result.err(),
        Some(SchedError::DeadlineExceeded {
            spent: 0,
            limit: 0,
            phase: "placement"
        })
    );
    assert!(report.attempts.is_empty());
    assert!(report.budget_exhausted);
    assert_eq!(report.attempts_spent, 0);

    let token = CancelToken::new();
    token.cancel();
    let (result, _) = run(&StepBudget::new(0).with_cancel(token));
    assert_eq!(
        result.err(),
        Some(SchedError::Cancelled { phase: "placement" })
    );
}

proptest! {
    /// The anytime call never spends more than its budget's placement
    /// attempts in total, no matter how the policy is shaped.
    #[test]
    fn anytime_never_exceeds_its_budget(
        budget in 0u64..400,
        max_attempts in 1usize..6,
        width in 1usize..4,
    ) {
        let arch = imagine::distributed();
        let kernel = chained_kernel(width);
        let policy = RetryPolicy { max_attempts };
        let steps = StepBudget::new(budget);
        let (result, report) = schedule_kernel_anytime(
            &arch, &kernel, SchedulerConfig::default(), &policy, &steps);
        prop_assert!(
            report.attempts_spent <= budget,
            "spent {} of budget {}",
            report.attempts_spent, budget
        );
        // Per-rung grants are each within the budget too.
        for a in &report.attempts {
            prop_assert!(a.attempts_granted <= budget);
        }
        // A tripped budget surfaces as the typed deadline error, never a
        // panic, an internal error or a silent success.
        if let Err(SchedError::DeadlineExceeded { spent, limit, .. }) = &result {
            prop_assert_eq!(*limit, budget);
            prop_assert!(*spent <= *limit);
        }
        prop_assert!(
            !matches!(result, Err(SchedError::Internal { .. })),
            "{:?}", result.err()
        );
    }

    /// A caller-supplied shared budget bounds the whole call: spend never
    /// exceeds the limit and the reported spend matches the budget's own
    /// counter.
    #[test]
    fn shared_budget_bounds_the_whole_call(limit in 1u64..300, width in 1usize..3) {
        let arch = imagine::distributed();
        let kernel = chained_kernel(width);
        let budget = StepBudget::new(limit);
        let policy = RetryPolicy::default();
        let (result, report) = schedule_kernel_anytime(
            &arch, &kernel, SchedulerConfig::default(), &policy, &budget);
        prop_assert!(budget.spent() <= limit);
        prop_assert_eq!(report.attempts_spent, budget.spent());
        prop_assert!(
            !matches!(result, Err(SchedError::Internal { .. })),
            "{:?}", result.err()
        );
    }
}
