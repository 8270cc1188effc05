//! # csched-core — communication scheduling
//!
//! The primary contribution of Mattson et al., *Communication Scheduling*
//! (ASPLOS 2000): a VLIW scheduler component that enables scheduling to
//! architectures in which functional units share buses and register-file
//! ports. Every producer→consumer *communication* is made explicit and
//! composed incrementally from a write stub, zero or more copy operations,
//! and a read stub; stubs are tentatively allocated as each endpoint
//! operation is scheduled and frozen into routes when the communication
//! closes.
//!
//! The crate provides:
//!
//! - [`schedule_kernel`]: the full scheduler (UAS-style list scheduling
//!   for straight-line blocks, modulo scheduling for the software-pipelined
//!   loop, both gated by communication scheduling);
//! - [`Engine`]: the placement accept/reject machinery (the five steps of
//!   paper §4.3), reusable inside other scheduling algorithms;
//! - [`validate`]: an independent checker that re-derives every resource
//!   and dependence constraint from a finished [`Schedule`];
//! - [`regalloc`]: the §7 register-pressure post-pass;
//! - [`exact`]: a branch-and-bound oracle that certifies the *minimum*
//!   initiation interval of small cells, turning the heuristic-vs-exact
//!   gap into a measurable quantity.
//!
//! ## Quick start
//!
//! ```
//! use csched_core::{schedule_kernel, SchedulerConfig};
//! use csched_ir::KernelBuilder;
//! use csched_machine::{imagine, Opcode};
//!
//! // out[i] = in[i] * 3 on the distributed register file machine.
//! let mut kb = KernelBuilder::new("scale3");
//! let input = kb.region("in", true);
//! let output = kb.region("out", true);
//! let lp = kb.loop_block("body");
//! let i = kb.loop_var(lp, 0i64.into());
//! let x = kb.load(lp, input, i.into(), 0i64.into());
//! let y = kb.push(lp, Opcode::IMul, [x.into(), 3i64.into()]);
//! kb.store(lp, output, i.into(), 0i64.into(), y.into());
//! let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
//! kb.set_update(i, i1.into());
//! let kernel = kb.build()?;
//!
//! let arch = imagine::distributed();
//! let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default())?;
//! assert!(schedule.ii().unwrap() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// The scheduler must be panic-free on well-formed inputs: outside of test
// code, potential panics must be converted to `SchedError` (or a skipped
// degraded state) rather than unwrapped.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod budget;
mod config;
pub mod conn;
mod driver;
mod engine;
mod error;
pub mod exact;
pub mod explain;
pub mod faultinject;
pub mod metrics;
pub mod regalloc;
mod retry;
mod schedule;
mod table;
pub mod trace;
mod universe;
pub mod validate;

pub use budget::{BudgetStop, CancelToken, StepBudget};
pub use config::{ScheduleOrder, SchedulerConfig, MAX_FU_CANDIDATES, MAX_STUB_CANDIDATES};
pub use conn::ConnCache;
pub use driver::{res_mii, schedule_kernel, schedule_kernel_budgeted, schedule_kernel_traced};
pub use engine::{Engine, OrderEdge};
pub use error::SchedError;
pub use exact::{certify_min_ii, ExactReport, ExactVerdict};
pub use explain::{explain, Binding, Counterfactual, Explanation, ResourceRank};
pub use metrics::ScheduleMetrics;
pub use retry::{
    schedule_kernel_anytime, schedule_kernel_anytime_traced, AnytimeReport, Attempt, RetryPolicy,
};
pub use schedule::{CommDisposition, Route, SchedStats, Schedule, ScheduledOp};
pub use table::{ResourceTable, Row, TableMode, WriteSearch};
pub use trace::{decision_filter, JsonlSink, TraceEvent, TraceSink};
pub use universe::{Comm, CommId, SOp, SOpId, Universe};

// Compile-time Send/Sync audit of the scheduling pipeline's inputs and
// outputs. Parallel harnesses (`csched_eval::explore`, `table1 --jobs`)
// share architectures, kernels, and configurations across scoped worker
// threads by reference and move schedules/errors back across thread
// boundaries; these assertions pin that contract so an accidental
// `Rc`/`RefCell`/raw-pointer field turns into a compile error here, next
// to the scheduler, rather than a confusing one in a downstream crate.
// `StepBudget` is deliberately only `Send` (interior `Cell` mutability;
// cross-thread control goes through `CancelToken`), so it is asserted
// separately and must *not* appear in the `Sync` list.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    const fn moved_between_threads<T: Send>() {}
    shared_across_threads::<csched_machine::Architecture>();
    shared_across_threads::<csched_ir::Kernel>();
    shared_across_threads::<SchedulerConfig>();
    shared_across_threads::<Schedule>();
    shared_across_threads::<SchedError>();
    shared_across_threads::<AnytimeReport>();
    shared_across_threads::<ScheduleMetrics>();
    shared_across_threads::<CancelToken>();
    moved_between_threads::<StepBudget>();
};
