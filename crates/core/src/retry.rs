//! Anytime scheduling: a relaxation ladder, then an improvement search.
//!
//! [`schedule_kernel`] fails with [`SchedError::BlockFailed`] or
//! [`SchedError::IiExhausted`] when its delay, copy, or II budgets run out
//! — budgets that exist to bound scheduling *time*, not because the kernel
//! is unschedulable. [`schedule_kernel_anytime`] first climbs a ladder of
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
//! Every rung is recorded in a [`ScheduleReport`] so a caller can see
//! which relaxation recovered a failing kernel and at what cost. Errors
//! that no relaxation can fix — a machine that is not copy-connected, an
//! opcode with no capable unit, an internal invariant break — abort the
//! ladder immediately. Once a rung schedules, the rest of the budget goes
//! to searching below the II it found.
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

/// The relaxation ladder's record, carried as [`AnytimeReport::ladder`]:
/// one [`Attempt`] per rung tried, in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Every attempt made, in order; the last one's `error` is `None`
    /// exactly when scheduling succeeded.
    pub attempts: Vec<Attempt>,
    /// Whether the ladder stopped because the shared [`StepBudget`] ran
    /// out or was cancelled.
    pub budget_exhausted: bool,
    /// Exact placement attempts charged across every rung, as counted by
    /// the shared [`StepBudget`]. Never exceeds the budget's limit.
    pub attempts_spent: u64,
}

impl ScheduleReport {
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

/// The relaxation ladder: the acquisition phase of
/// [`schedule_kernel_anytime`]. On a retryable error
/// ([`SchedError::is_retryable`]) the scheduler is re-run with
/// progressively relaxed budgets, up to [`RetryPolicy::max_attempts`]
/// times, every rung charging the one shared `budget`.
fn run_ladder(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    policy: &RetryPolicy,
    budget: &StepBudget,
    mut sink: Option<&mut dyn TraceSink>,
    prep: &mut PrepCache,
) -> (Result<Schedule, SchedError>, ScheduleReport) {
    let mut report = ScheduleReport::default();
    let mut last_err: Option<SchedError> = None;
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
        // The prepared tables are shared by every rung; a build error is
        // handled exactly like the same error from the driver itself.
        let result = match prep.get(arch, kernel) {
            Ok(p) => schedule_kernel_impl(
                arch,
                kernel,
                cfg,
                sink.as_mut().map(|s| &mut **s as &mut dyn TraceSink),
                Some(budget),
                Some(p),
            ),
            Err(e) => Err(e),
        };
        match result {
            Ok(schedule) => {
                report.attempts.push(record);
                report.attempts_spent = budget.spent();
                return (Ok(schedule), report);
            }
            Err(e) => {
                let stop = !e.is_retryable();
                if e.is_budget_stop() {
                    report.budget_exhausted = true;
                }
                report.attempts.push(Attempt {
                    error: Some(e.clone()),
                    ..record
                });
                last_err = Some(e);
                if stop {
                    break;
                }
            }
        }
    }
    report.attempts_spent = budget.spent();
    let err = last_err.unwrap_or_else(|| match budget.step() {
        // No rung started: the budget was already spent or cancelled, and
        // its refusal (which charges nothing) is the answer.
        Err(stop) => budget.stop_error(stop, "placement"),
        Ok(()) => SchedError::internal("retry", "no scheduling attempt was made".to_string()),
    });
    (Err(err), report)
}

/// Diagnostic attached to every [`schedule_kernel_anytime`] result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnytimeReport {
    /// The acquisition ladder: the relaxation rungs run first to get
    /// *some* schedule.
    pub ladder: ScheduleReport,
    /// Improvement rungs tried after the first schedule was acquired,
    /// each searching below the best II found so far with escalating
    /// per-II effort.
    pub improvements: Vec<Attempt>,
    /// Budget spent when the first schedule was acquired (equals
    /// `ladder.attempts_spent`; 0 when acquisition failed outright).
    pub acquired_spent: u64,
    /// Total placement attempts charged across acquisition and
    /// improvement. Never exceeds the budget's limit.
    pub attempts_spent: u64,
    /// `true` when the budget (or a cancellation) expired mid-ladder and
    /// the returned schedule is merely the best one found so far — the
    /// improvement search was cut short before it could prove no better
    /// II exists. `false` both on full completion and on outright error.
    pub degraded: bool,
    /// The initiation interval of the returned schedule (`None` for
    /// straight-line kernels or when scheduling failed).
    pub best_ii: Option<u32>,
}

/// *Anytime* scheduling: acquire a schedule fast, then spend the rest of
/// the budget improving it, and always return the best one found.
///
/// Phase one runs the relaxation ladder (module docs), every rung
/// charging `budget`. Phase two repeatedly re-schedules with the II cap
/// lowered to one below the best II achieved, escalating the per-II
/// placement-attempt cap each rung (a backoff ladder in reverse: more
/// effort per rung as cheaper rungs fail), until either
///
/// - an improvement rung fails with [`SchedError::IiExhausted`] at its
///   full escalated effort — no better schedule was found, the result is
///   *not* degraded; or
/// - the shared budget runs dry (or the budget's
///   [`CancelToken`](crate::CancelToken) fires) mid-rung — the
///   best-so-far schedule is returned with
///   [`AnytimeReport::degraded`] set.
///
/// This is the graceful-degradation primitive for a scheduling service:
/// a request whose deadline expires mid-ladder still gets the best
/// relaxed-II schedule completed so far instead of an error, and the
/// report says exactly how much confidence the answer carries.
///
/// # Errors
///
/// Only when *no* schedule was found at all: the acquisition ladder's
/// final error, under the same taxonomy as
/// [`schedule_kernel`](crate::schedule_kernel) plus
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
    schedule_anytime_impl(arch, kernel, config, policy, budget, None)
}

/// [`schedule_kernel_anytime`] with every pipeline decision traced into
/// `sink` — the acquisition ladder (including its
/// [`TraceEvent::RungAdvanced`] markers) *and* the improvement rungs, so
/// a service attaching a sink sees exactly where a degraded request's
/// budget went.
///
/// Restricted to [`crate::trace::decision_filter`] events, the stream of
/// a successful un-degraded run is byte-identical to
/// [`schedule_kernel_traced`](crate::schedule_kernel_traced) on the same
/// inputs: the first acquisition rung runs the caller's configuration
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
    schedule_anytime_impl(arch, kernel, config, policy, budget, Some(sink))
}

fn schedule_anytime_impl(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    policy: &RetryPolicy,
    budget: &StepBudget,
    mut sink: Option<&mut dyn TraceSink>,
) -> (Result<Schedule, SchedError>, AnytimeReport) {
    let mut prep = PrepCache::new();
    let (acquired, ladder) = run_ladder(
        arch,
        kernel,
        config.clone(),
        policy,
        budget,
        sink.as_mut().map(|s| &mut **s as &mut dyn TraceSink),
        &mut prep,
    );
    let mut report = AnytimeReport {
        acquired_spent: ladder.attempts_spent,
        attempts_spent: ladder.attempts_spent,
        ..AnytimeReport::default()
    };
    let successful_rung = ladder.attempts.last().map_or(0, |a| a.attempt);
    report.ladder = ladder;
    let mut best = match acquired {
        Ok(schedule) => schedule,
        Err(e) => return (Err(e), report),
    };
    report.best_ii = best.ii();
    // Straight-line kernels have no II to improve; an II of 1 is already
    // the floor.
    let Some(mut best_ii) = best.ii().filter(|&ii| ii > 1) else {
        return (Ok(best), report);
    };
    // Improvement rungs reuse the configuration of the rung that
    // succeeded (its relaxations are what made the kernel schedulable).
    let (rung_config, _) = rung(&config, successful_rung);
    let mut escalation = 0u32;
    loop {
        if best_ii <= 1 {
            break;
        }
        let remaining = budget.remaining();
        if remaining == 0 {
            // The deadline expired before this rung could start: the
            // result is the best schedule completed so far.
            report.degraded = true;
            break;
        }
        let mut cfg = rung_config.clone();
        cfg.max_ii = best_ii - 1;
        let effort = rung_config
            .max_attempts_per_ii
            .saturating_mul(1 << escalation.min(16));
        let truncated = effort > remaining;
        cfg.max_attempts_per_ii = effort.min(remaining);
        let mut record = Attempt {
            attempt: report.improvements.len(),
            relaxation: "improvement: lowered II cap",
            max_ii: cfg.max_ii,
            attempts_granted: cfg.max_attempts_per_ii,
            error: None,
        };
        let improved = match prep.get(arch, kernel) {
            Ok(p) => schedule_kernel_impl(
                arch,
                kernel,
                cfg,
                sink.as_mut().map(|s| &mut **s as &mut dyn TraceSink),
                Some(budget),
                Some(p),
            ),
            Err(e) => Err(e),
        };
        match improved {
            Ok(better) => {
                report.improvements.push(record);
                best_ii = better.ii().unwrap_or(1);
                report.best_ii = Some(best_ii);
                best = better;
                escalation = escalation.saturating_add(1);
            }
            Err(e) => {
                let budget_stop = e.is_budget_stop();
                let exhausted_ii = matches!(e, SchedError::IiExhausted { .. });
                record.error = Some(e);
                report.improvements.push(record);
                if budget_stop || (exhausted_ii && truncated) {
                    // The budget cut the search short (mid-rung, or by
                    // truncating the rung's effort): degrade gracefully.
                    report.degraded = true;
                }
                // IiExhausted at full effort proves (heuristically) that
                // no better II exists; any other error also stops the
                // ladder — the acquired schedule stands.
                break;
            }
        }
    }
    report.attempts_spent = budget.spent();
    (Ok(best), report)
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

    /// The relaxation ladder alone, untraced.
    fn ladder(
        arch: &Architecture,
        kernel: &Kernel,
        config: SchedulerConfig,
        policy: &RetryPolicy,
        budget: &StepBudget,
    ) -> (Result<Schedule, SchedError>, ScheduleReport) {
        run_ladder(
            arch,
            kernel,
            config,
            policy,
            budget,
            None,
            &mut PrepCache::new(),
        )
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
        let (result, report) = ladder(&arch, &kernel, cfg, &RetryPolicy::default(), &budget);
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
        use crate::exact::{certify_min_ii, ExactConfig, ExactVerdict};

        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        // The oracle certifies II = 2 on this cell; the plain height
        // order cannot reach it (it settles at 3).
        let budget = StepBudget::new(10_000_000);
        let report = certify_min_ii(&arch, &kernel, &ExactConfig::default(), &budget)
            .expect("the oracle must run");
        assert_eq!(report.verdict, ExactVerdict::Certified { ii: 2 });

        // Pin the II cap at the certified minimum: the caller rung and
        // the budget-relaxation rung exhaust, and the mined
        // recurrence-first rung schedules at the optimum.
        let cfg = SchedulerConfig {
            max_ii: 2,
            ..SchedulerConfig::default()
        };
        let budget = StepBudget::new(1 << 20);
        let (result, report) = ladder(&arch, &kernel, cfg, &RetryPolicy::default(), &budget);
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
        let (result, report) = ladder(
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
        let (result, report) = ladder(
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
        let (result, report) = ladder(&arch, &kernel, cfg, &policy, &StepBudget::new(3));
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
        let (result, report) = ladder(&arch, &kernel, cfg, &policy, &StepBudget::new(1));
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
    fn anytime_reaches_a_proven_best_with_budget_to_spare() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        // max_ii = 1 forces the acquisition ladder to relax before it can
        // schedule (MII = 2); improvement then tries II cap 1 and proves
        // IiExhausted at full effort — not degraded.
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let budget = StepBudget::new(1 << 20);
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy::default(), &budget);
        let schedule = result.expect("anytime must return the acquired schedule");
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        // MII is 2, but stub/copy pressure on the toy machine makes 3 the
        // achievable floor: the improvement rung searches II = 2 at full
        // effort and proves exhaustion.
        assert_eq!(report.best_ii, Some(3));
        assert!(!report.degraded, "full completion must not be degraded");
        assert!(report.ladder.recovered());
        // The improvement ladder ran and stopped on a genuine proof.
        assert!(matches!(
            report.improvements.last().and_then(|a| a.error.as_ref()),
            Some(SchedError::IiExhausted { .. })
        ));
        assert!(report.attempts_spent >= report.acquired_spent);
        assert!(report.attempts_spent <= budget.limit());
    }

    #[test]
    fn deadline_mid_ladder_degrades_to_best_rung_completed_so_far() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        // Reference run: learn the deterministic acquisition cost and the
        // best II the full ladder reaches.
        let reference = StepBudget::new(1 << 20);
        let (ref_result, ref_report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            cfg.clone(),
            &RetryPolicy::default(),
            &reference,
        );
        let ref_ii = ref_result.unwrap().ii().unwrap();
        let acquired = ref_report.acquired_spent;
        assert!(acquired > 0);

        // A budget that dies exactly when acquisition completes: the
        // improvement ladder is cut short before it can run, and the
        // degraded result is the best (only) rung completed so far.
        let limit = acquired;
        let budget = StepBudget::new(limit);
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy::default(), &budget);
        let schedule = result.expect("the acquired schedule must be returned, degraded");
        assert!(report.degraded, "deadline mid-ladder must degrade");
        assert_eq!(
            schedule.ii().unwrap(),
            ref_ii,
            "degraded result must be the best rung completed so far"
        );
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        // The hard contract: a budgeted call never overruns its limit.
        assert!(
            report.attempts_spent <= limit,
            "attempts_spent {} > limit {limit}",
            report.attempts_spent
        );
        assert_eq!(report.attempts_spent, budget.spent());
    }

    #[test]
    fn deadline_mid_improvement_rung_still_returns_acquired_schedule() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let reference = StepBudget::new(1 << 20);
        let (_, ref_report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            cfg.clone(),
            &RetryPolicy::default(),
            &reference,
        );
        // One attempt of headroom: the improvement rung starts, charges
        // work, and trips the deadline mid-search (or proves exhaustion
        // under truncated effort) — either way a degraded-or-proven
        // answer within budget.
        let limit = ref_report.acquired_spent + 1;
        let budget = StepBudget::new(limit);
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy::default(), &budget);
        assert!(result.is_ok());
        assert!(report.attempts_spent <= limit);
        assert!(!report.improvements.is_empty());
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
        assert_eq!(report.best_ii, None);
        assert!(report.improvements.is_empty());
    }

    #[test]
    fn caller_supplied_budget_is_shared_and_cancellable() {
        use crate::budget::CancelToken;
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let token = CancelToken::new();
        token.cancel();
        let budget = StepBudget::new(1 << 20).with_cancel(token);
        let (result, report) = ladder(
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
