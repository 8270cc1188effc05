//! The scheduler's error taxonomy.
//!
//! Every failure of [`schedule_kernel`](crate::schedule_kernel) is a typed
//! [`SchedError`] — the pipeline never panics on well-formed inputs. Errors
//! carry resolved names (operation opcodes, block names, unit names), not
//! just opaque ids, so a diagnostic can be printed without the kernel and
//! architecture at hand.
//!
//! The variants split into three groups:
//!
//! - **Machine problems** ([`SchedError::NotCopyConnected`],
//!   [`SchedError::NoCapableUnit`]): the architecture cannot run this
//!   kernel at all. Degraded machines built with
//!   [`Architecture::with_faults`](csched_machine::Architecture::with_faults)
//!   commonly fail this way once a fault breaks the Appendix A guarantee.
//! - **Budget exhaustion** ([`SchedError::BlockFailed`],
//!   [`SchedError::IiExhausted`]): the search ran out of delay slack or
//!   initiation intervals. These are *retryable* — the
//!   [`RetryPolicy`](crate::RetryPolicy) ladder relaxes the budgets and
//!   tries again.
//! - **Internal invariant breaks** ([`SchedError::Internal`]): a bug in
//!   the scheduler itself, reported as an error instead of a panic so a
//!   long campaign (fault injection, design-space sweeps) survives it.
//! - **Deadline and cancellation** ([`SchedError::DeadlineExceeded`],
//!   [`SchedError::Cancelled`]): the caller's
//!   [`StepBudget`](crate::StepBudget) ran dry or its
//!   [`CancelToken`](crate::CancelToken) fired. *Not* retryable — the
//!   budget is shared across the whole retry ladder, so the ladder stops
//!   rather than relax its way past a hard bound.

use std::fmt;

use csched_ir::{BlockId, OpId};
use csched_machine::Opcode;

/// Errors from [`schedule_kernel`](crate::schedule_kernel).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedError {
    /// The architecture violates the Appendix A copy-connectivity
    /// constraint, so communication scheduling cannot guarantee
    /// completion.
    NotCopyConnected {
        /// Human-readable descriptions of the unreachable unit pairs,
        /// worst first (at most a handful are kept).
        violations: Vec<String>,
    },
    /// No functional unit can execute `opcode`.
    NoCapableUnit {
        /// The unsupported opcode.
        opcode: Opcode,
    },
    /// A straight-line block operation could not be placed within the
    /// configured delay budget.
    BlockFailed {
        /// The block that failed.
        block: BlockId,
        /// The block's name in the kernel.
        block_name: String,
        /// The kernel operation that could not be placed.
        op: OpId,
        /// That operation's opcode.
        opcode: Opcode,
    },
    /// No initiation interval up to the configured maximum produced a
    /// valid loop schedule.
    IiExhausted {
        /// The minimum II the search started from (max of RecMII and
        /// ResMII).
        mii: u32,
        /// The maximum II tried.
        max_ii: u32,
    },
    /// The scheduling call's [`StepBudget`](crate::StepBudget) ran out of
    /// placement attempts before a schedule was found.
    ///
    /// Deterministic (the budget is denominated in placement attempts,
    /// not wall-clock time) and *non-retryable*: unlike
    /// [`SchedError::IiExhausted`] the budget is shared by every retry
    /// rung, so relaxing a per-attempt knob cannot buy more work.
    DeadlineExceeded {
        /// Placement attempts charged before the budget tripped.
        spent: u64,
        /// The configured limit.
        limit: u64,
        /// The pipeline phase that hit the limit (`"placement"`).
        phase: &'static str,
    },
    /// The scheduling call's [`CancelToken`](crate::CancelToken) was
    /// cancelled; work stopped cooperatively within one placement
    /// attempt.
    Cancelled {
        /// The pipeline phase that observed the cancellation.
        phase: &'static str,
    },
    /// A scheduler invariant was violated. This is a bug in the scheduler,
    /// not in the kernel or machine description; it is reported as an
    /// error rather than a panic so long campaigns survive it.
    Internal {
        /// The pipeline stage that detected the broken invariant.
        stage: &'static str,
        /// What was violated.
        detail: String,
    },
}

impl SchedError {
    /// Builds an [`SchedError::Internal`] (used throughout the engine's
    /// invariant checks).
    pub(crate) fn internal(stage: &'static str, detail: impl Into<String>) -> Self {
        SchedError::Internal {
            stage,
            detail: detail.into(),
        }
    }

    /// Whether retrying with relaxed budgets could plausibly succeed.
    ///
    /// Budget exhaustion ([`SchedError::BlockFailed`],
    /// [`SchedError::IiExhausted`]) is retryable; a machine that cannot
    /// run the kernel at all, or a scheduler bug, is not.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SchedError::BlockFailed { .. } | SchedError::IiExhausted { .. }
        )
    }

    /// Whether this error is a budget stop — the caller's
    /// [`StepBudget`](crate::StepBudget) ran dry
    /// ([`SchedError::DeadlineExceeded`]) or its
    /// [`CancelToken`](crate::CancelToken) fired
    /// ([`SchedError::Cancelled`]).
    ///
    /// Budget stops are the *caller's* bound, not a verdict on the
    /// kernel/machine pair: a service maps them to a typed deadline
    /// response, a campaign records
    /// the cell as `TimedOut`, and neither treats them as a scheduling
    /// failure.
    pub fn is_budget_stop(&self) -> bool {
        matches!(
            self,
            SchedError::DeadlineExceeded { .. } | SchedError::Cancelled { .. }
        )
    }
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NotCopyConnected { violations } => {
                write!(f, "architecture is not copy-connected (Appendix A)")?;
                if !violations.is_empty() {
                    write!(f, ": {}", violations.join("; "))?;
                }
                Ok(())
            }
            SchedError::NoCapableUnit { opcode } => {
                write!(f, "no functional unit can execute {opcode}")
            }
            SchedError::BlockFailed {
                block,
                block_name,
                op,
                opcode,
            } => {
                write!(
                    f,
                    "could not place {op} ({opcode}) in block \"{block_name}\" ({block})"
                )
            }
            SchedError::IiExhausted { mii, max_ii } => {
                write!(f, "no valid loop schedule in II range {mii}..={max_ii}")
            }
            SchedError::DeadlineExceeded {
                spent,
                limit,
                phase,
            } => {
                write!(
                    f,
                    "deadline exceeded in {phase}: {spent} of {limit} placement attempts spent"
                )
            }
            SchedError::Cancelled { phase } => {
                write!(f, "cancelled in {phase}")
            }
            SchedError::Internal { stage, detail } => {
                write!(
                    f,
                    "internal scheduler invariant violated in {stage}: {detail} \
                     (this is a scheduler bug)"
                )
            }
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_resolves_names() {
        let e = SchedError::BlockFailed {
            block: BlockId::from_raw(1),
            block_name: "body".into(),
            op: OpId::from_raw(3),
            opcode: Opcode::IMul,
        };
        let s = e.to_string();
        assert!(s.contains("body"), "{s}");
        assert!(s.contains("imul"), "{s}");
        assert!(e.is_retryable());
    }

    #[test]
    fn display_shows_ii_range_and_violations() {
        let e = SchedError::IiExhausted { mii: 3, max_ii: 64 };
        assert_eq!(e.to_string(), "no valid loop schedule in II range 3..=64");
        assert!(e.is_retryable());

        let e = SchedError::NotCopyConnected {
            violations: vec!["ALU0 cannot reach MUL0 input 1".into()],
        };
        assert!(e.to_string().contains("ALU0 cannot reach MUL0"), "{e}");
        assert!(!e.is_retryable());
    }

    #[test]
    fn deadline_and_cancellation_are_not_retryable() {
        let e = SchedError::DeadlineExceeded {
            spent: 512,
            limit: 512,
            phase: "placement",
        };
        assert!(!e.is_retryable());
        assert!(e.is_budget_stop());
        assert!(SchedError::Cancelled { phase: "placement" }.is_budget_stop());
        assert!(!SchedError::IiExhausted { mii: 1, max_ii: 2 }.is_budget_stop());
        assert_eq!(
            e.to_string(),
            "deadline exceeded in placement: 512 of 512 placement attempts spent"
        );

        let e = SchedError::Cancelled { phase: "regalloc" };
        assert!(!e.is_retryable());
        assert_eq!(e.to_string(), "cancelled in regalloc");
    }

    #[test]
    fn internal_is_not_retryable() {
        let e = SchedError::internal("close_one", "write stub missing");
        assert!(!e.is_retryable());
        assert!(e.to_string().contains("scheduler bug"), "{e}");
    }
}
