//! # csched-ir — kernel IR for communication scheduling
//!
//! The compiler IR consumed by the communication scheduler: SSA-form
//! kernels shaped like the paper's evaluation programs ("a short preamble
//! followed by a single software-pipelined loop"), a dependence graph with
//! loop-carried distances, a reference interpreter used as the semantic
//! oracle for the cycle-level simulator, a loop unroller (for the `-U2` /
//! `-U4` kernel variants), and a textual kernel language.
//!
//! ## Quick start
//!
//! ```
//! use csched_ir::{KernelBuilder, DepGraph, interp};
//! use csched_machine::{Opcode, default_latency};
//!
//! // out[i] = in[i] + 1
//! let mut kb = KernelBuilder::new("inc");
//! let input = kb.region("in", true);
//! let output = kb.region("out", true);
//! let lp = kb.loop_block("body");
//! let i = kb.loop_var(lp, 0i64.into());
//! let x = kb.load(lp, input, i.into(), 0i64.into());
//! let y = kb.push(lp, Opcode::IAdd, [x.into(), 1i64.into()]);
//! kb.store(lp, output, i.into(), 0i64.into(), y.into());
//! let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
//! kb.set_update(i, i1.into());
//! let kernel = kb.build()?;
//!
//! let graph = DepGraph::build(&kernel, default_latency);
//! assert_eq!(graph.rec_mii(&kernel), 1);
//! # Ok::<(), csched_ir::KernelError>(())
//! ```

#![warn(missing_docs)]
// Kernel construction and interpretation must be panic-free on
// well-formed inputs: outside of test code, checked invariants use
// `unreachable!` with a message and everything else returns typed
// errors. The one documented exception (`KernelBuilder::set_update`)
// carries a targeted allow.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_debug_implementations)]

mod depgraph;
pub mod interp;
mod kernel;
pub mod text;
mod unroll;
mod value;

pub use depgraph::{resolve_producers, DepEdge, DepGraph, DepKind};
pub use interp::{InterpError, InterpStats, Memory};
pub use kernel::{
    BasicBlock, BlockId, Kernel, KernelBuilder, KernelError, LoopVar, MemRegion, OpId, Operand,
    Operation, RegionId, ValueDef, ValueId,
};
pub use unroll::unroll;
pub use value::{Imm, Word};
