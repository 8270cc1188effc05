//! Deterministic work budgets and cooperative cancellation.
//!
//! The scheduler explores an open-ended placement/routing space, and a
//! pathological kernel × architecture pair can keep a campaign binary
//! busy long past any useful deadline. [`StepBudget`] bounds that work
//! *deterministically*: it is denominated in placement attempts (the
//! engine's innermost unit of work), not wall-clock time, so a budgeted
//! run either succeeds identically on every machine or trips at exactly
//! the same attempt. Tripping surfaces as
//! [`SchedError::DeadlineExceeded`] — a typed, non-retryable error that
//! carries how much work was spent, what the limit was, and which
//! pipeline phase hit it.
//!
//! [`CancelToken`] is the wall-clock escape hatch: a cheap, thread-safe
//! flag that another thread can set at any moment, optionally with a
//! deadline after which it reads as set by itself. The scheduler polls it
//! cooperatively at every budget step, so cancellation lands within one
//! placement attempt.
//!
//! A budget is shared by everything downstream of one scheduling call:
//! the anytime ladder hands the *same* budget to every rung, so the sum
//! of work over all relaxation attempts stays bounded — see
//! [`schedule_kernel_anytime`].
//!
//! ```
//! use csched_core::{schedule_kernel_budgeted, SchedError, SchedulerConfig, StepBudget};
//! use csched_ir::KernelBuilder;
//! use csched_machine::{toy, Opcode};
//!
//! let mut kb = KernelBuilder::new("tiny");
//! let b = kb.straight_block("b");
//! let x = kb.push(b, Opcode::IAdd, [1i64.into(), 2i64.into()]);
//! kb.push(b, Opcode::IAdd, [x.into(), 3i64.into()]);
//! let kernel = kb.build()?;
//! let arch = toy::motivating_example();
//!
//! // A generous budget schedules normally ...
//! let budget = StepBudget::new(10_000);
//! assert!(schedule_kernel_budgeted(&arch, &kernel, SchedulerConfig::default(), &budget).is_ok());
//!
//! // ... a one-attempt budget trips with a typed error.
//! let budget = StepBudget::new(1);
//! match schedule_kernel_budgeted(&arch, &kernel, SchedulerConfig::default(), &budget) {
//!     Err(SchedError::DeadlineExceeded { spent, limit, .. }) => {
//!         assert_eq!((spent, limit), (1, 1));
//!     }
//!     other => panic!("expected DeadlineExceeded, got {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`schedule_kernel_anytime`]: crate::schedule_kernel_anytime

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::SchedError;

/// A cooperative cancellation flag, cheaply cloneable across threads.
///
/// Cancelling is sticky: once [`cancel`](CancelToken::cancel) has been
/// called every clone observes it forever, and a token built
/// [`with_deadline`](CancelToken::with_deadline) reads as cancelled from
/// its deadline on. The scheduler polls the token at each
/// [`StepBudget::step`], so a cancelled schedule aborts within one
/// placement attempt with [`SchedError::Cancelled`]. Only a token with a
/// deadline reads the clock when polled.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that reads as cancelled once `deadline` has passed: the
    /// "answer or degrade by then" form of a wall-clock bound.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested or the deadline has
    /// passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Why a [`StepBudget::step`] refused more work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetStop {
    /// The placement-attempt limit was reached.
    Deadline,
    /// The attached [`CancelToken`] was cancelled.
    Cancelled,
}

/// A deterministic work budget denominated in placement attempts.
///
/// The budget uses interior mutability so one `&StepBudget` can be
/// shared by the driver, the engine, and every rung of the anytime
/// ladder of a single scheduling call; it is intentionally *not* `Sync` —
/// cross-thread control goes through [`CancelToken`].
#[derive(Debug)]
pub struct StepBudget {
    limit: u64,
    spent: Cell<u64>,
    cancel: Option<CancelToken>,
}

impl StepBudget {
    /// A budget of `limit` placement attempts.
    pub fn new(limit: u64) -> Self {
        StepBudget {
            limit,
            spent: Cell::new(0),
            cancel: None,
        }
    }

    /// A budget that never trips on work (cancellation still applies if a
    /// token is attached with [`with_cancel`](Self::with_cancel)).
    pub fn unlimited() -> Self {
        Self::new(u64::MAX)
    }

    /// Attaches a cancellation token, polled at every [`step`](Self::step).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Placement attempts charged so far. Never exceeds the limit: the
    /// charge that would cross it is refused instead.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// Attempts remaining before the budget trips.
    pub fn remaining(&self) -> u64 {
        self.limit - self.spent.get()
    }

    /// Charges one placement attempt.
    ///
    /// Checks *before* spending: when the limit is already reached the
    /// charge is refused and `spent` stays at `limit`, so a budgeted
    /// scheduling call never overruns its budget.
    pub fn step(&self) -> Result<(), BudgetStop> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(BudgetStop::Cancelled);
            }
        }
        let spent = self.spent.get();
        if spent >= self.limit {
            return Err(BudgetStop::Deadline);
        }
        self.spent.set(spent + 1);
        Ok(())
    }

    /// Charges `steps` placement attempts at once when `steps` single
    /// [`step`](Self::step)s would all be granted: the token is not
    /// cancelled and at least `steps` remain. Otherwise charges nothing
    /// and returns `false`. The engine charges a replayed closing's
    /// attempts with it.
    pub(crate) fn charge(&self, steps: u64) -> bool {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) || self.remaining() < steps {
            return false;
        }
        self.spent.set(self.spent.get() + steps);
        true
    }

    /// The typed [`SchedError`] for a refusal from [`step`](Self::step),
    /// attributed to `phase` (`"placement"`).
    pub fn stop_error(&self, stop: BudgetStop, phase: &'static str) -> SchedError {
        match stop {
            BudgetStop::Deadline => SchedError::DeadlineExceeded {
                spent: self.spent.get(),
                limit: self.limit,
                phase,
            },
            BudgetStop::Cancelled => SchedError::Cancelled { phase },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_never_overruns() {
        let b = StepBudget::new(3);
        assert_eq!(b.remaining(), 3);
        assert!(b.step().is_ok());
        assert!(b.step().is_ok());
        assert!(b.step().is_ok());
        assert_eq!(b.step(), Err(BudgetStop::Deadline));
        // Refused charges do not advance `spent`.
        assert_eq!(b.step(), Err(BudgetStop::Deadline));
        assert_eq!(b.spent(), 3);
        assert_eq!(b.remaining(), 0);
        match b.stop_error(BudgetStop::Deadline, "placement") {
            SchedError::DeadlineExceeded {
                spent,
                limit,
                phase,
            } => {
                assert_eq!((spent, limit, phase), (3, 3, "placement"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bulk_charge_is_all_or_nothing() {
        let b = StepBudget::new(5);
        assert!(b.charge(3));
        assert_eq!(b.spent(), 3);
        // Three more would cross the limit: nothing is charged.
        assert!(!b.charge(3));
        assert_eq!(b.spent(), 3);
        assert!(b.charge(2));
        assert_eq!(b.remaining(), 0);
        assert!(b.charge(0));

        let token = CancelToken::new();
        let b = StepBudget::new(10).with_cancel(token.clone());
        token.cancel();
        assert!(!b.charge(1));
        assert_eq!(b.spent(), 0);
    }

    #[test]
    fn zero_budget_refuses_immediately() {
        let b = StepBudget::new(0);
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.step(), Err(BudgetStop::Deadline));
        assert_eq!(b.spent(), 0);
    }

    #[test]
    fn cancellation_preempts_remaining_work() {
        let token = CancelToken::new();
        let b = StepBudget::new(100).with_cancel(token.clone());
        assert!(b.step().is_ok());
        assert!(!token.is_cancelled());
        token.cancel();
        assert_eq!(b.step(), Err(BudgetStop::Cancelled));
        // Sticky across clones.
        assert!(token.clone().is_cancelled());
        assert!(matches!(
            b.stop_error(BudgetStop::Cancelled, "placement"),
            SchedError::Cancelled { phase: "placement" }
        ));
    }

    #[test]
    fn unlimited_budget_only_trips_on_cancel() {
        let b = StepBudget::unlimited();
        for _ in 0..10_000 {
            assert!(b.step().is_ok());
        }
        assert_eq!(b.spent(), 10_000);
        assert_eq!(b.remaining(), u64::MAX - 10_000);
    }

    #[test]
    fn a_passed_deadline_cancels_and_a_future_one_grants() {
        let past = CancelToken::with_deadline(Instant::now());
        let b = StepBudget::new(100).with_cancel(past.clone());
        assert!(past.is_cancelled());
        assert_eq!(b.step(), Err(BudgetStop::Cancelled));
        assert!(!b.charge(1));
        assert_eq!(b.spent(), 0);

        let future =
            CancelToken::with_deadline(Instant::now() + std::time::Duration::from_secs(600));
        let b = StepBudget::new(100).with_cancel(future.clone());
        assert!(b.step().is_ok());
        assert!(b.charge(2));
        assert_eq!(b.spent(), 3);
        // The flag still cancels a token that carries a deadline.
        future.cancel();
        assert_eq!(b.step(), Err(BudgetStop::Cancelled));
    }
}
