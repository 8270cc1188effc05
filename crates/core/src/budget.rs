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
//! flag that a supervisor (signal handler, watchdog thread, UI) can set
//! at any moment. The scheduler polls it cooperatively at every budget
//! step, so cancellation lands within one placement attempt.
//!
//! A budget is shared by everything downstream of one scheduling call:
//! the anytime ladder hands the *same* budget to every rung, so the sum
//! of work over all relaxation and improvement attempts stays bounded —
//! see [`schedule_kernel_anytime`].
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
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::error::SchedError;

/// A cooperative cancellation flag, cheaply cloneable across threads.
///
/// Cancelling is sticky: once [`cancel`](CancelToken::cancel) has been
/// called every clone observes it forever. The scheduler polls the token
/// at each [`StepBudget::step`], so a cancelled schedule aborts within
/// one placement attempt with [`SchedError::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
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

    /// Whether the budget can grant no further work.
    pub fn is_exhausted(&self) -> bool {
        self.spent.get() >= self.limit
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

/// Shared state between a [`Watchdog`] and its timer thread.
struct WatchdogState {
    /// Armed deadlines: `(registration id, deadline, token)`.
    entries: Vec<(u64, Instant, CancelToken)>,
    next_id: u64,
    shutdown: bool,
}

/// A wall-clock deadline service over [`CancelToken`]s.
///
/// [`StepBudget`] deadlines are denominated in placement attempts and
/// therefore deterministic — but a long-running service also needs a
/// *wall-clock* bound per request ("answer or degrade within 250 ms"),
/// which no attempt count can promise on a loaded machine. `Watchdog`
/// provides that bound without a sleeper thread per request: one shared
/// timer thread waits on the earliest armed deadline and
/// [`cancel`](CancelToken::cancel)s every token whose deadline has
/// passed. The scheduler already polls its token at each budget step, so
/// an expired request stops cooperatively within one placement attempt.
///
/// Arming returns a [`WatchGuard`]; dropping the guard (the request
/// finished in time) disarms the deadline without cancelling. Dropping
/// the watchdog itself stops the timer thread; already-armed tokens are
/// simply never cancelled by it.
#[derive(Debug)]
pub struct Watchdog {
    shared: Arc<(Mutex<WatchdogState>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WatchdogState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchdogState")
            .field("entries", &self.entries.len())
            .field("shutdown", &self.shutdown)
            .finish()
    }
}

impl Watchdog {
    /// Starts the shared timer thread.
    pub fn new() -> Self {
        let shared = Arc::new((
            Mutex::new(WatchdogState {
                entries: Vec::new(),
                next_id: 0,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::spawn(move || Self::run(&thread_shared));
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    fn run(shared: &(Mutex<WatchdogState>, Condvar)) {
        let (lock, cvar) = shared;
        let Ok(mut state) = lock.lock() else {
            return; // a panicking registrar poisoned the lock; stand down
        };
        loop {
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            // Cancel and drop every expired entry.
            state.entries.retain(|(_, deadline, token)| {
                if *deadline <= now {
                    token.cancel();
                    false
                } else {
                    true
                }
            });
            let earliest = state.entries.iter().map(|(_, d, _)| *d).min();
            let wait = match earliest {
                Some(deadline) => {
                    let timeout = deadline.saturating_duration_since(now);
                    match cvar.wait_timeout(state, timeout) {
                        Ok((guard, _)) => guard,
                        Err(_) => return,
                    }
                }
                None => match cvar.wait(state) {
                    Ok(guard) => guard,
                    Err(_) => return,
                },
            };
            state = wait;
        }
    }

    /// Arms `token` to be cancelled `timeout` from now — the common
    /// "answer or degrade within N milliseconds" form of
    /// [`watch`](Self::watch), so callers never compute the absolute
    /// deadline themselves.
    pub fn watch_for(&self, token: CancelToken, timeout: std::time::Duration) -> WatchGuard {
        self.watch(token, Instant::now() + timeout)
    }

    /// Arms `token` to be cancelled at `deadline`. The returned guard
    /// disarms on drop; keep it alive for the duration of the request.
    pub fn watch(&self, token: CancelToken, deadline: Instant) -> WatchGuard {
        let (lock, cvar) = &*self.shared;
        let id = match lock.lock() {
            Ok(mut state) => {
                let id = state.next_id;
                state.next_id += 1;
                state.entries.push((id, deadline, token));
                id
            }
            // A poisoned watchdog can no longer cancel anything; the
            // guard becomes a no-op rather than a panic.
            Err(_) => u64::MAX,
        };
        cvar.notify_one();
        WatchGuard {
            shared: Arc::clone(&self.shared),
            id,
        }
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.shared;
        if let Ok(mut state) = lock.lock() {
            state.shutdown = true;
        }
        cvar.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Disarms a [`Watchdog`] deadline on drop (the request finished before
/// its wall-clock deadline, so the token must not be cancelled).
#[derive(Debug)]
pub struct WatchGuard {
    shared: Arc<(Mutex<WatchdogState>, Condvar)>,
    id: u64,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.shared;
        if let Ok(mut state) = lock.lock() {
            state.entries.retain(|(id, _, _)| *id != self.id);
        }
        cvar.notify_one();
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
        assert!(b.is_exhausted());
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
        assert!(b.is_exhausted());
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
        assert!(b.is_exhausted());
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
        assert!(!b.is_exhausted());
    }

    #[test]
    fn watchdog_cancels_expired_deadlines() {
        let dog = Watchdog::new();
        let token = CancelToken::new();
        let _guard = dog.watch(
            token.clone(),
            Instant::now() + std::time::Duration::from_millis(20),
        );
        let start = Instant::now();
        while !token.is_cancelled() {
            assert!(
                start.elapsed() < std::time::Duration::from_secs(10),
                "watchdog never fired"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // The budget sees the cancellation as usual.
        let b = StepBudget::new(100).with_cancel(token);
        assert_eq!(b.step(), Err(BudgetStop::Cancelled));
    }

    #[test]
    fn dropping_the_guard_disarms_the_deadline() {
        let dog = Watchdog::new();
        let token = CancelToken::new();
        let guard = dog.watch(
            token.clone(),
            Instant::now() + std::time::Duration::from_millis(30),
        );
        drop(guard);
        std::thread::sleep(std::time::Duration::from_millis(80));
        assert!(
            !token.is_cancelled(),
            "a disarmed deadline must not cancel its token"
        );
    }

    #[test]
    fn watchdog_handles_many_deadlines_in_any_order() {
        let dog = Watchdog::new();
        let soon = CancelToken::new();
        let later = CancelToken::new();
        // Register the *later* deadline first so the timer thread has to
        // re-sort on the second registration.
        let _g2 = dog.watch(
            later.clone(),
            Instant::now() + std::time::Duration::from_secs(600),
        );
        let _g1 = dog.watch(
            soon.clone(),
            Instant::now() + std::time::Duration::from_millis(20),
        );
        let start = Instant::now();
        while !soon.is_cancelled() {
            assert!(start.elapsed() < std::time::Duration::from_secs(10));
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(!later.is_cancelled());
        // Dropping the watchdog joins the timer thread promptly even with
        // a ten-minute deadline still armed.
        drop(dog);
        assert!(!later.is_cancelled());
    }
}
