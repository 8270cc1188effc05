//! Anytime scheduling: a relaxation ladder that stops at its first
//! schedule.
//!
//! [`schedule_kernel`] fails with [`SchedError::BlockFailed`] or
//! [`SchedError::IiExhausted`] when its delay, copy, or II budgets run out
//! — budgets that exist to bound scheduling *time*, not because the kernel
//! is unschedulable. [`schedule_kernel_anytime`] climbs a fixed ladder of
//! six relaxed configurations until one schedules:
//!
//! 0. the caller's configuration unchanged;
//! 1. relaxed delay and copy budgets (wider placement windows, deeper
//!    copy recursion, larger cross-block slack — the §4.5 levers), which
//!    every later rung keeps;
//! 2. the exact-mined recurrence-first operation order
//!    ([`ScheduleOrder::Recurrence`]): certified minimum-II schedules
//!    from the [`exact`](crate::exact) oracle place recurrence
//!    operations *early*, where the plain height order leaves them for
//!    last and fails at IIs the machine can actually sustain;
//! 3. the caller's initiation-interval cap ×4;
//! 4. the cycle-order ablation under that cap (a differently-shaped
//!    search that escapes operation-order pathologies);
//! 5. the caller's II cap ×8 and delay budget ×4.
//!
//! Each rung answers inputs that no earlier rung answers
//! (`tests/anytime_ladder.rs` pins one for each of rungs 3–5). Errors
//! that no relaxation can fix — a machine that is not copy-connected, an
//! opcode with no capable unit, a budget stop, an internal invariant
//! break — end the ladder immediately. Like the paper's modulo scheduler
//! (Figure 11), which stops at the first II that schedules, the ladder
//! stops at the first rung that schedules: that rung's schedule is the
//! answer. The call's [`AnytimeReport`] names the last rung started; a
//! traced call's [`TraceEvent::RungAdvanced`] events record each rung's
//! relaxation and II cap.
//!
//! [`schedule_kernel`]: crate::schedule_kernel

use csched_ir::Kernel;
use csched_machine::Architecture;

use crate::budget::{BudgetStop, StepBudget};
use crate::config::{ScheduleOrder, SchedulerConfig};
use crate::driver::{schedule_kernel_impl, PrepCache};
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::trace::{TraceEvent, TraceSink};

/// The ladder's length: rungs 0–5 (module docs).
const RUNGS: u32 = 6;

/// The settings of [`schedule_kernel_anytime`]'s ladder: none, since its
/// six rungs are fixed (module docs). The parameter stays so that
/// existing callers keep compiling.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetryPolicy;

/// Diagnostic attached to every [`schedule_kernel_anytime`] result: the
/// last rung started, what the call spent, and what its engines counted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnytimeReport {
    /// The last rung started (0 when the caller's configuration answered,
    /// or when no rung started): the highest
    /// [`TraceEvent::RungAdvanced`] attempt of a traced call.
    pub rung: u32,
    /// Placement attempts charged across every rung, as counted by the
    /// shared [`StepBudget`]. Never exceeds the budget's limit.
    pub attempts_spent: u64,
    /// Equals `attempts_spent` on every path, failures included: the
    /// first schedule is the answer, so nothing is spent after it. Kept
    /// because `perfbench` reads it.
    pub acquired_spent: u64,
    /// `true` when the budget shaped the returned schedule: the steps
    /// left when the acquiring rung started cut its per-II
    /// placement-attempt cap below the caller's
    /// [`SchedulerConfig::max_attempts_per_ii`]. Every rung keeps the
    /// caller's cap and the budget only falls, so this is also "some
    /// rung's effort was cut". `false` whenever scheduling failed.
    pub degraded: bool,
    /// Placement rejects over the whole call, by
    /// [`RejectReason`](crate::trace::RejectReason) in
    /// [`RejectReason::ALL`](crate::trace::RejectReason::ALL) order: what
    /// a sink counts from a traced call's
    /// [`TraceEvent::PlaceReject`] events.
    pub rejects: [u64; 5],
    /// Budget refusals over the whole call: a traced call's
    /// [`TraceEvent::DeadlineExceeded`] events.
    pub deadline_events: u64,
}

/// The configuration and label of ladder rung `n` (module docs).
fn rung(base: &SchedulerConfig, n: u32) -> (SchedulerConfig, &'static str) {
    let mut cfg = base.clone();
    if n == 0 {
        return (cfg, "caller configuration");
    }
    // Rung 1 on: relax the delay/copy budgets (§4.5 levers).
    cfg.max_delay = base.max_delay.saturating_mul(2);
    cfg.no_copy_scan = base.no_copy_scan.saturating_mul(2).saturating_add(4);
    cfg.cross_block_copy_slack = base.cross_block_copy_slack.saturating_mul(4);
    cfg.search_budget = base.search_budget.saturating_mul(2);
    cfg.max_copy_attempts = base.max_copy_attempts.saturating_mul(2);
    cfg.max_copy_depth = base.max_copy_depth + 1;
    let label = match n {
        1 => "relaxed delay and copy budgets",
        // The recurrence-first order runs *before* the II cap widens: on
        // cells with a real optimality gap it recovers the better II
        // instead of settling for a larger one.
        2 => {
            cfg.order = ScheduleOrder::Recurrence;
            "exact-mined recurrence-first order"
        }
        3 => {
            cfg.max_ii = base.max_ii.saturating_mul(4);
            "widened II cap"
        }
        4 => {
            cfg.max_ii = base.max_ii.saturating_mul(4);
            cfg.order = ScheduleOrder::Cycle;
            "cycle-order ablation"
        }
        _ => {
            cfg.max_ii = base.max_ii.saturating_mul(8);
            cfg.max_delay = base.max_delay.saturating_mul(4);
            "doubled II cap and delay budget"
        }
    };
    (cfg, label)
}

/// *Anytime* scheduling: the relaxation ladder (module docs), every rung
/// charging the one shared `budget`, answering with the first schedule a
/// rung finds.
///
/// Each rung searches with the caller's per-II placement-attempt cap,
/// cut to the budget's remaining steps when fewer remain; an answer
/// found under a cut cap is flagged [`AnytimeReport::degraded`]. A budget
/// stop — the limit reached mid-rung or before a rung starts, or the
/// budget's [`CancelToken`](crate::CancelToken) fired, for instance by
/// its wall deadline — ends the ladder with an error. Every schedule
/// returned is therefore a function of the inputs and the budget's limit
/// alone.
///
/// This is the bounded-work primitive for a scheduling service: a
/// request's limit caps how much the ladder may spend, and the report
/// says how much of its answer the limit shaped.
///
/// # Errors
///
/// Only when *no* rung schedules: the last rung's error, under the same
/// taxonomy as [`schedule_kernel`](crate::schedule_kernel) plus
/// [`SchedError::DeadlineExceeded`] / [`SchedError::Cancelled`] when the
/// budget stops the ladder — also for a budget spent before any rung, or
/// cancelled before the first rung starts.
pub fn schedule_kernel_anytime(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    _policy: &RetryPolicy,
    budget: &StepBudget,
) -> (Result<Schedule, SchedError>, AnytimeReport) {
    anytime(arch, kernel, config, budget, None)
}

/// [`schedule_kernel_anytime`] with every pipeline decision traced into
/// `sink`, the ladder's [`TraceEvent::RungAdvanced`] markers included.
/// The answer and the report are the untraced call's.
///
/// Restricted to [`crate::trace::decision_filter`] events, this stream
/// equals that of [`schedule_kernel_traced`](crate::schedule_kernel_traced)
/// on the same inputs whenever the first rung schedules under the
/// caller's full per-II cap: that rung runs the caller's configuration
/// unchanged, and the decision filter drops the ladder markers.
///
/// # Errors
///
/// As [`schedule_kernel_anytime`].
pub fn schedule_kernel_anytime_traced(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    _policy: &RetryPolicy,
    budget: &StepBudget,
    sink: &mut dyn TraceSink,
) -> (Result<Schedule, SchedError>, AnytimeReport) {
    anytime(arch, kernel, config, budget, Some(sink))
}

/// The relaxation ladder: on a retryable error
/// ([`SchedError::is_retryable`]) the scheduler reruns with the next
/// rung's configuration, every rung charging the one shared `budget` and
/// sharing one [`PrepCache`].
fn anytime(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    budget: &StepBudget,
    mut sink: Option<&mut dyn TraceSink>,
) -> (Result<Schedule, SchedError>, AnytimeReport) {
    let mut prep = PrepCache::new();
    let mut report = AnytimeReport::default();
    let mut n = 0;
    let result = loop {
        let remaining = budget.remaining();
        if remaining == 0 {
            // Spent before this rung (or cancelled with nothing left):
            // the budget's refusal, which charges nothing, is the answer.
            let stop = budget.step().err().unwrap_or(BudgetStop::Deadline);
            break Err(budget.stop_error(stop, "placement"));
        }
        let (mut cfg, relaxation) = rung(&config, n);
        // The per-II cap still shapes when a rung gives up and relaxes,
        // but the shared budget is the hard bound: the engine charges it
        // per placement attempt and stops mid-rung when it runs dry.
        cfg.max_attempts_per_ii = cfg.max_attempts_per_ii.min(remaining);
        report.rung = n;
        if let Some(s) = sink.as_mut() {
            s.event(TraceEvent::RungAdvanced {
                attempt: n,
                relaxation: relaxation.to_string(),
                max_ii: cfg.max_ii,
            });
        }
        let outcome = schedule_kernel_impl(
            arch,
            kernel,
            cfg,
            sink.as_mut().map(|s| &mut **s as &mut dyn TraceSink),
            Some(budget),
            &mut prep,
        );
        match outcome {
            Err(e) if e.is_retryable() && n + 1 < RUNGS => n += 1,
            outcome => {
                report.degraded = outcome.is_ok() && remaining < config.max_attempts_per_ii;
                break outcome;
            }
        }
    };
    report.attempts_spent = budget.spent();
    report.acquired_spent = report.attempts_spent;
    report.rejects = prep.tally.rejects;
    report.deadline_events = prep.tally.deadline_events;
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule_kernel_budgeted, validate};
    use csched_ir::KernelBuilder;
    use csched_machine::{toy, Opcode};

    /// A loop with enough add pressure that its achievable II exceeds 1.
    fn pressured_loop() -> Kernel {
        let mut kb = KernelBuilder::new("pressure");
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
    fn ladder_recovers_from_too_small_ii_cap() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        // Four add-class ops on two adders: MII = 2, so max_ii = 1 cannot
        // succeed until the ladder widens the cap.
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let budget = StepBudget::new(1 << 20);
        let (result, report) = schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy, &budget);
        let schedule = result.expect("the widened II cap must recover this kernel");
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        // Rungs 0–2 keep the cap of 1; rung 3 is the first to widen it.
        assert_eq!(report.rung, 3, "{report:?}");
    }

    #[test]
    fn mined_recurrence_rung_closes_a_certified_optimality_gap() {
        use crate::exact::{certify_min_ii, ExactVerdict};

        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        // The oracle certifies II = 2 on this cell; the plain height
        // order cannot reach it (it settles at 3).
        let budget = StepBudget::new(10_000_000);
        let report = certify_min_ii(&arch, &kernel, 128, &budget).expect("the oracle must run");
        assert_eq!(report.verdict, ExactVerdict::Certified { ii: 2 });

        // Pin the II cap at the certified minimum: the caller rung and
        // the budget-relaxation rung exhaust, and the mined
        // recurrence-first rung (rung 2, which keeps the caller's cap)
        // schedules at the optimum.
        let cfg = SchedulerConfig {
            max_ii: 2,
            ..SchedulerConfig::default()
        };
        let budget = StepBudget::new(1 << 20);
        let (result, report) = schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy, &budget);
        let schedule = result.expect("the mined rung must close the gap");
        assert_eq!(schedule.ii(), Some(2), "{report:?}");
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        assert_eq!(report.rung, 2, "{report:?}");
    }

    /// A budget spent before a rung starts answers the budget's deadline,
    /// not the previous rung's retryable error. At `max_ii: 2`, rung 0
    /// fails with `IiExhausted`; limits one step below its spend (the
    /// budget trips inside rung 0), at it (nothing is left for rung 1)
    /// and one step above (rung 1 trips) all answer `DeadlineExceeded`.
    #[test]
    fn a_budget_spent_between_rungs_answers_the_deadline() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 2,
            ..SchedulerConfig::default()
        };
        let rung0 = StepBudget::unlimited();
        assert_eq!(
            schedule_kernel_budgeted(&arch, &kernel, cfg.clone(), &rung0).err(),
            Some(SchedError::IiExhausted { mii: 2, max_ii: 2 })
        );
        let spend = rung0.spent();
        assert_eq!(spend, 29);
        for limit in [spend - 1, spend, spend + 1] {
            let (result, report) = schedule_kernel_anytime(
                &arch,
                &kernel,
                cfg.clone(),
                &RetryPolicy,
                &StepBudget::new(limit),
            );
            assert_eq!(
                result.err(),
                Some(SchedError::DeadlineExceeded {
                    spent: limit,
                    limit,
                    phase: "placement"
                }),
                "limit {limit}"
            );
            assert_eq!(report.attempts_spent, limit);
        }
    }

    #[test]
    fn non_retryable_errors_stop_the_ladder() {
        let arch = toy::motivating_example();
        let mut kb = KernelBuilder::new("fp");
        let b = kb.straight_block("b");
        kb.push(b, Opcode::FMul, [1.0f64.into(), 2.0f64.into()]);
        let kernel = kb.build().unwrap();
        let (result, report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            SchedulerConfig::default(),
            &RetryPolicy,
            &StepBudget::new(1 << 20),
        );
        assert!(matches!(
            result,
            Err(SchedError::NoCapableUnit {
                opcode: Opcode::FMul
            })
        ));
        assert_eq!(report.rung, 0, "{report:?}");
    }

    #[test]
    fn success_on_first_attempt_stops_at_rung_zero() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let (result, report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            SchedulerConfig::default(),
            &RetryPolicy,
            &StepBudget::new(1 << 20),
        );
        assert!(result.is_ok());
        assert_eq!(report.rung, 0);
    }

    #[test]
    fn budget_bounds_the_ladder() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        // Too small to place even the kernel's five operations: once a
        // rung widens the II cap enough to actually search, the shared
        // budget trips mid-rung.
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy, &StepBudget::new(3));
        assert!(
            matches!(
                result,
                Err(SchedError::DeadlineExceeded {
                    spent: 3,
                    limit: 3,
                    ..
                })
            ),
            "{result:?}\n{report:?}"
        );
        // Exact accounting: the budget counts real placement attempts
        // (the early IiExhausted rungs never reach the engine's hot
        // loop), and never overruns.
        assert_eq!(report.attempts_spent, 3, "{report:?}");
        // The deadline is non-retryable: the ladder stopped on it, in
        // rung 3, the first to search.
        assert_eq!(report.rung, 3, "{report:?}");
    }

    #[test]
    fn one_step_budget_still_surfaces_a_typed_error() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy, &StepBudget::new(1));
        // The ladder runs until its one real placement attempt has been
        // charged; the result is a typed deadline.
        assert!(
            matches!(
                result,
                Err(SchedError::DeadlineExceeded {
                    spent: 1,
                    limit: 1,
                    ..
                })
            ),
            "{result:?}\n{report:?}"
        );
        assert_eq!(report.attempts_spent, 1, "{report:?}");
    }

    #[test]
    fn a_full_per_ii_cap_answers_the_unlimited_schedule() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        // max_ii = 1 forces the ladder to relax before it can schedule
        // (MII = 2).
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let (unlimited, reference) = schedule_kernel_anytime(
            &arch,
            &kernel,
            cfg.clone(),
            &RetryPolicy,
            &StepBudget::unlimited(),
        );
        let unlimited = unlimited.expect("the ladder must recover this kernel");
        assert!(reference.rung > 0, "{reference:?}");
        assert!(!reference.degraded);
        // Every rung starts with at least the full per-II cap left.
        let limit = reference.attempts_spent + cfg.max_attempts_per_ii;
        let budget = StepBudget::new(limit);
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg.clone(), &RetryPolicy, &budget);
        let schedule = result.expect("a full cap finds the unlimited schedule");
        assert!(!report.degraded, "{report:?}");
        assert_eq!(format!("{schedule:?}"), format!("{unlimited:?}"));
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        assert_eq!(report.attempts_spent, reference.attempts_spent);
        assert_eq!(report.acquired_spent, report.attempts_spent);
        assert_eq!(report.attempts_spent, budget.spent());
    }

    #[test]
    fn a_limit_below_the_cap_degrades_the_answer() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig::default();
        let (_, reference) = schedule_kernel_anytime(
            &arch,
            &kernel,
            cfg.clone(),
            &RetryPolicy,
            &StepBudget::unlimited(),
        );
        assert_eq!(reference.rung, 0, "{reference:?}");
        // Enough steps to schedule, too few for the full per-II cap: the
        // budget cut the acquiring rung's effort, so the answer is
        // flagged even though the cut never bound.
        let limit = reference.attempts_spent;
        assert!(limit < cfg.max_attempts_per_ii);
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy, &StepBudget::new(limit));
        let schedule = result.expect("the limit covers the unlimited spend");
        assert!(report.degraded, "{report:?}");
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        assert!(report.attempts_spent <= limit);
    }

    #[test]
    fn anytime_on_unschedulable_kernel_surfaces_the_ladder_error() {
        let arch = toy::motivating_example();
        let mut kb = KernelBuilder::new("fp");
        let b = kb.straight_block("b");
        kb.push(b, Opcode::FMul, [1.0f64.into(), 2.0f64.into()]);
        let kernel = kb.build().unwrap();
        let budget = StepBudget::new(1 << 20);
        let (result, report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            SchedulerConfig::default(),
            &RetryPolicy,
            &budget,
        );
        assert!(matches!(result, Err(SchedError::NoCapableUnit { .. })));
        assert!(!report.degraded);
        assert_eq!(report.rung, 0, "{report:?}");
    }

    #[test]
    fn caller_supplied_budget_is_shared_and_cancellable() {
        use crate::budget::CancelToken;
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let token = CancelToken::new();
        token.cancel();
        let budget = StepBudget::new(1 << 20).with_cancel(token);
        let (result, report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            SchedulerConfig::default(),
            &RetryPolicy,
            &budget,
        );
        assert!(matches!(
            result,
            Err(SchedError::Cancelled { phase: "placement" })
        ));
        assert_eq!(report.attempts_spent, 0);
    }
}
