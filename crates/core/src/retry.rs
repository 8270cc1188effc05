//! Anytime scheduling: a relaxation ladder that stops at its first
//! schedule.
//!
//! [`schedule_kernel`] fails with [`SchedError::BlockFailed`] or
//! [`SchedError::IiExhausted`] when its delay, copy, or II budgets run out
//! — budgets that exist to bound scheduling *time*, not because the kernel
//! is unschedulable. [`schedule_kernel_anytime`] climbs a ladder of
//! relaxed configurations until one schedules:
//!
//! 1. the caller's configuration unchanged;
//! 2. relaxed delay and copy budgets (wider placement windows, deeper
//!    copy recursion, larger cross-block slack — the §4.5 levers);
//! 3. the exact-mined recurrence-first operation order
//!    ([`ScheduleOrder::Recurrence`]): certified minimum-II schedules
//!    from the [`exact`](crate::exact) oracle place recurrence
//!    operations *early*, where the plain height order leaves them for
//!    last and fails at IIs the machine can actually sustain;
//! 4. a widened initiation-interval cap;
//! 5. the cycle-order ablation (a differently-shaped search that escapes
//!    operation-order pathologies);
//! 6. further doubling of the II cap and delay budget.
//!
//! Every rung is recorded in the call's [`AnytimeReport`] so a caller can
//! see which relaxation recovered a failing kernel and at what cost.
//! Errors that no relaxation can fix — a machine that is not
//! copy-connected, an opcode with no capable unit, a budget stop, an
//! internal invariant break — end the ladder immediately. Like the
//! paper's modulo scheduler (Figure 11), which stops at the first II that
//! schedules, the ladder stops at the first rung that schedules: that
//! rung's schedule is the answer.
//!
//! [`schedule_kernel`]: crate::schedule_kernel

use csched_ir::Kernel;
use csched_machine::Architecture;

use crate::budget::StepBudget;
use crate::config::{ScheduleOrder, SchedulerConfig};
use crate::driver::{schedule_kernel_impl, PrepCache};
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::trace::{TraceEvent, TraceSink};

/// Bounds for the relaxation ladder of [`schedule_kernel_anytime`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum scheduling attempts, counting the initial un-relaxed one.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 6 }
    }
}

/// Record of one rung of the retry ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// Zero-based attempt number.
    pub attempt: usize,
    /// Human-readable description of the relaxation applied.
    pub relaxation: &'static str,
    /// The II cap this attempt searched under.
    pub max_ii: u32,
    /// The per-II placement-attempt cap granted from the budget.
    pub attempts_granted: u64,
    /// The error, if the attempt failed (`None` on success).
    pub error: Option<SchedError>,
}

/// Diagnostic attached to every [`schedule_kernel_anytime`] result: the
/// ladder's rungs, what the call spent, and what its engines counted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnytimeReport {
    /// Every rung tried, in order; the last one's `error` is `None`
    /// exactly when scheduling succeeded.
    pub attempts: Vec<Attempt>,
    /// Whether the ladder stopped because the shared [`StepBudget`] ran
    /// out or was cancelled.
    pub budget_exhausted: bool,
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

impl AnytimeReport {
    /// The index of the last rung tried (0 when the caller's
    /// configuration answered, or when no rung started): the highest
    /// [`TraceEvent::RungAdvanced`] attempt of a traced call.
    pub fn rung(&self) -> u32 {
        self.attempts.last().map_or(0, |a| a.attempt as u32)
    }

    /// Whether a retry rung succeeded after at least one failed attempt.
    pub fn recovered(&self) -> bool {
        self.attempts.len() > 1 && self.attempts.last().is_some_and(|a| a.error.is_none())
    }

    /// Renders the report as one line per attempt.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for a in &self.attempts {
            let _ = writeln!(
                s,
                "attempt {}: {} (II cap {}, {} placement attempts/II): {}",
                a.attempt,
                a.relaxation,
                a.max_ii,
                a.attempts_granted,
                match &a.error {
                    None => "ok".to_string(),
                    Some(e) => e.to_string(),
                }
            );
        }
        if self.budget_exhausted {
            let _ = writeln!(
                s,
                "retry budget exhausted ({} placement attempts spent)",
                self.attempts_spent
            );
        }
        s
    }
}

/// The configuration for ladder rung `attempt` (cumulative relaxations).
fn rung(base: &SchedulerConfig, attempt: usize) -> (SchedulerConfig, &'static str) {
    let mut cfg = base.clone();
    if attempt == 0 {
        return (cfg, "caller configuration");
    }
    // Rung 1+: relax the delay/copy budgets (§4.5 levers).
    cfg.max_delay = base.max_delay.saturating_mul(2);
    cfg.no_copy_scan = base.no_copy_scan.saturating_mul(2).saturating_add(4);
    cfg.cross_block_copy_slack = base.cross_block_copy_slack.saturating_mul(4);
    cfg.search_budget = base.search_budget.saturating_mul(2);
    cfg.max_copy_attempts = base.max_copy_attempts.saturating_mul(2);
    cfg.max_copy_depth = base.max_copy_depth + 1;
    if attempt == 1 {
        return (cfg, "relaxed delay and copy budgets");
    }
    if attempt == 2 {
        // Rung 2: the recurrence-first operation order, mined from the
        // exact oracle's certified minimum-II schedules. It runs *before*
        // the II cap widens: on cells with a real optimality gap it
        // recovers the better II instead of settling for a larger one.
        cfg.order = ScheduleOrder::Recurrence;
        return (cfg, "exact-mined recurrence-first order");
    }
    // Rung 3+: widen the II cap.
    cfg.max_ii = base.max_ii.saturating_mul(4);
    if attempt == 3 {
        return (cfg, "widened II cap");
    }
    if attempt == 4 {
        // Rung 4: a differently-shaped search.
        cfg.order = ScheduleOrder::Cycle;
        return (cfg, "cycle-order ablation");
    }
    // Rung 5+: keep doubling the II cap and delay budget.
    let extra = (attempt - 4) as u32;
    cfg.max_ii = cfg.max_ii.saturating_mul(1 << extra.min(16));
    cfg.max_delay = cfg.max_delay.saturating_mul(1i64 << extra.min(16));
    (cfg, "doubled II cap and delay budget")
}

/// *Anytime* scheduling: the relaxation ladder (module docs), every rung
/// charging the one shared `budget`, answering with the first schedule a
/// rung finds.
///
/// Each rung searches with the caller's per-II placement-attempt cap,
/// cut to the budget's remaining steps when fewer remain; an answer
/// found under a cut cap is flagged [`AnytimeReport::degraded`]. A budget
/// stop — the limit reached mid-rung, or the budget's
/// [`CancelToken`](crate::CancelToken) fired, for instance by its wall
/// deadline — ends the ladder with an error. Every schedule returned is
/// therefore a function of the inputs and the budget's limit alone.
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
/// budget stops the ladder — also when it is spent or cancelled before
/// the first rung starts.
pub fn schedule_kernel_anytime(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    policy: &RetryPolicy,
    budget: &StepBudget,
) -> (Result<Schedule, SchedError>, AnytimeReport) {
    anytime(arch, kernel, config, policy, budget, None)
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
    policy: &RetryPolicy,
    budget: &StepBudget,
    sink: &mut dyn TraceSink,
) -> (Result<Schedule, SchedError>, AnytimeReport) {
    anytime(arch, kernel, config, policy, budget, Some(sink))
}

/// The relaxation ladder: on a retryable error
/// ([`SchedError::is_retryable`]) the scheduler reruns with the next
/// rung's configuration, up to [`RetryPolicy::max_attempts`] times, every
/// rung charging the one shared `budget` and sharing one [`PrepCache`].
fn anytime(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    policy: &RetryPolicy,
    budget: &StepBudget,
    mut sink: Option<&mut dyn TraceSink>,
) -> (Result<Schedule, SchedError>, AnytimeReport) {
    let mut prep = PrepCache::new();
    let mut report = AnytimeReport::default();
    let mut result = None;
    for attempt in 0..policy.max_attempts.max(1) {
        let remaining = budget.remaining();
        if remaining == 0 {
            report.budget_exhausted = true;
            break;
        }
        let (mut cfg, relaxation) = rung(&config, attempt);
        // The per-II cap still shapes when a rung gives up and relaxes,
        // but the shared budget is the hard bound: the engine charges it
        // per placement attempt and stops mid-rung when it runs dry.
        cfg.max_attempts_per_ii = cfg.max_attempts_per_ii.min(remaining);
        let record = Attempt {
            attempt,
            relaxation,
            max_ii: cfg.max_ii,
            attempts_granted: cfg.max_attempts_per_ii,
            error: None,
        };
        if let Some(s) = sink.as_mut() {
            s.event(TraceEvent::RungAdvanced {
                attempt: attempt as u32,
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
        let stop = match &outcome {
            Ok(_) => {
                report.degraded = record.attempts_granted < config.max_attempts_per_ii;
                true
            }
            Err(e) => {
                report.budget_exhausted |= e.is_budget_stop();
                !e.is_retryable()
            }
        };
        report.attempts.push(Attempt {
            error: outcome.as_ref().err().cloned(),
            ..record
        });
        result = Some(outcome);
        if stop {
            break;
        }
    }
    report.attempts_spent = budget.spent();
    report.acquired_spent = report.attempts_spent;
    report.rejects = prep.tally.rejects;
    report.deadline_events = prep.tally.deadline_events;
    let result = result.unwrap_or_else(|| {
        Err(match budget.step() {
            // No rung started: the budget was already spent or cancelled,
            // and its refusal (which charges nothing) is the answer.
            Err(stop) => budget.stop_error(stop, "placement"),
            Ok(()) => SchedError::internal("retry", "no scheduling attempt was made".to_string()),
        })
    });
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;
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
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy::default(), &budget);
        let schedule = result.expect("the widened II cap must recover this kernel");
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        assert!(report.recovered(), "{}", report.render());
        assert!(report.attempts.len() >= 2);
        assert!(matches!(
            report.attempts[0].error,
            Some(SchedError::IiExhausted { mii: 2, max_ii: 1 })
        ));
        assert!(report.attempts.last().unwrap().error.is_none());
        // The recovering rung really did widen the cap.
        assert!(report.attempts.last().unwrap().max_ii > 1);
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
        // recurrence-first rung schedules at the optimum.
        let cfg = SchedulerConfig {
            max_ii: 2,
            ..SchedulerConfig::default()
        };
        let budget = StepBudget::new(1 << 20);
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy::default(), &budget);
        let schedule = result.expect("the mined rung must close the gap");
        assert_eq!(schedule.ii(), Some(2), "{}", report.render());
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        assert!(report.recovered(), "{}", report.render());
        let winner = report.attempts.last().unwrap();
        assert_eq!(winner.relaxation, "exact-mined recurrence-first order");
        assert_eq!(winner.max_ii, 2, "the II cap never widened");
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
            &RetryPolicy::default(),
            &StepBudget::new(1 << 20),
        );
        assert!(matches!(
            result,
            Err(SchedError::NoCapableUnit {
                opcode: Opcode::FMul
            })
        ));
        assert_eq!(report.attempts.len(), 1, "{}", report.render());
        assert!(!report.recovered());
    }

    #[test]
    fn success_on_first_attempt_records_one_attempt() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let (result, report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            SchedulerConfig::default(),
            &RetryPolicy::default(),
            &StepBudget::new(1 << 20),
        );
        assert!(result.is_ok());
        assert_eq!(report.attempts.len(), 1);
        assert!(!report.recovered());
        assert_eq!(report.attempts[0].relaxation, "caller configuration");
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
        let policy = RetryPolicy { max_attempts: 8 };
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &policy, &StepBudget::new(3));
        assert!(
            matches!(
                result,
                Err(SchedError::DeadlineExceeded {
                    spent: 3,
                    limit: 3,
                    ..
                })
            ),
            "{result:?}\n{}",
            report.render()
        );
        assert!(report.budget_exhausted);
        // Exact accounting: the budget counts real placement attempts
        // (the early IiExhausted rungs never reach the engine's hot
        // loop), and never overruns.
        assert_eq!(report.attempts_spent, 3, "{}", report.render());
        // The deadline is non-retryable: the ladder stopped on it.
        assert!(matches!(
            report.attempts.last().and_then(|a| a.error.as_ref()),
            Some(SchedError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn one_step_budget_still_surfaces_a_typed_error() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let policy = RetryPolicy { max_attempts: 8 };
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &policy, &StepBudget::new(1));
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
            "{result:?}\n{}",
            report.render()
        );
        assert_eq!(report.attempts_spent, 1, "{}", report.render());
        assert!(report.budget_exhausted);
        // The rungs that never charged the budget still reported their
        // real errors.
        assert!(matches!(
            report.attempts[0].error,
            Some(SchedError::IiExhausted { mii: 2, max_ii: 1 })
        ));
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
            &RetryPolicy::default(),
            &StepBudget::unlimited(),
        );
        let unlimited = unlimited.expect("the ladder must recover this kernel");
        assert!(reference.recovered(), "{}", reference.render());
        assert!(!reference.degraded);
        // Every rung starts with at least the full per-II cap left.
        let limit = reference.attempts_spent + cfg.max_attempts_per_ii;
        let budget = StepBudget::new(limit);
        let (result, report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            cfg.clone(),
            &RetryPolicy::default(),
            &budget,
        );
        let schedule = result.expect("a full cap finds the unlimited schedule");
        assert!(!report.degraded, "{}", report.render());
        assert_eq!(format!("{schedule:?}"), format!("{unlimited:?}"));
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        assert!(report
            .attempts
            .iter()
            .all(|a| a.attempts_granted == cfg.max_attempts_per_ii));
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
            &RetryPolicy::default(),
            &StepBudget::unlimited(),
        );
        assert_eq!(reference.attempts.len(), 1, "{}", reference.render());
        // Enough steps to schedule, too few for the full per-II cap: the
        // budget cut the acquiring rung's effort, so the answer is
        // flagged even though the cut never bound.
        let limit = reference.attempts_spent;
        assert!(limit < cfg.max_attempts_per_ii);
        let (result, report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            cfg,
            &RetryPolicy::default(),
            &StepBudget::new(limit),
        );
        let schedule = result.expect("the limit covers the unlimited spend");
        assert!(report.degraded, "{}", report.render());
        assert_eq!(report.attempts[0].attempts_granted, limit);
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
            &RetryPolicy::default(),
            &budget,
        );
        assert!(matches!(result, Err(SchedError::NoCapableUnit { .. })));
        assert!(!report.degraded);
        assert_eq!(report.attempts.len(), 1, "{}", report.render());
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
            &RetryPolicy::default(),
            &budget,
        );
        assert!(matches!(
            result,
            Err(SchedError::Cancelled { phase: "placement" })
        ));
        assert!(report.budget_exhausted);
        assert_eq!(report.attempts_spent, 0);
    }
}
