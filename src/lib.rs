//! # csched — communication scheduling for shared-interconnect VLIW machines
//!
//! A from-scratch reproduction of Mattson, Dally, Rixner, Kapasi and Owens,
//! *Communication Scheduling* (ASPLOS 2000): a VLIW scheduler component
//! that makes every producer→consumer communication explicit and composes
//! it from a write stub, zero or more copy operations, and a read stub —
//! enabling scheduling to architectures whose functional units share buses
//! and register-file ports, such as the Imagine stream processor's
//! distributed register files.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`machine`]: architecture descriptions, the four Imagine register-file
//!   organisations, copy-connectivity (Appendix A), and the VLSI cost
//!   model (Figures 25–27);
//! - [`ir`]: the kernel IR, dependence graph, reference interpreter and
//!   loop unroller;
//! - [`core`]: the communication-scheduling engine, list/modulo
//!   schedulers, schedule validator and register-pressure analysis;
//! - [`sim`]: the cycle-level simulator;
//! - [`kernels`]: the ten Table 1 evaluation workloads;
//! - [`eval`]: the harness regenerating every table and figure.
//!
//! ## Quick start
//!
//! ```
//! use csched::core::{schedule_kernel, SchedulerConfig};
//! use csched::ir::KernelBuilder;
//! use csched::machine::{imagine, Opcode};
//!
//! // A kernel: out[i] = in[i] * in[i]
//! let mut kb = KernelBuilder::new("square");
//! let input = kb.region("in", true);
//! let output = kb.region("out", true);
//! let lp = kb.loop_block("body");
//! let i = kb.loop_var(lp, 0i64.into());
//! let x = kb.load(lp, input, i.into(), 0i64.into());
//! let y = kb.push(lp, Opcode::IMul, [x.into(), x.into()]);
//! kb.store(lp, output, i.into(), 0i64.into(), y.into());
//! let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
//! kb.set_update(i, i1.into());
//! let kernel = kb.build()?;
//!
//! // Schedule it onto the distributed register file machine.
//! let arch = imagine::distributed();
//! let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default())?;
//! println!("II = {}", schedule.ii().unwrap());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## The kernel text language
//!
//! Kernels can also be written textually ([`ir::text`]): a kernel is a
//! named set of memory regions plus blocks; a `loop` block carries
//! `var` declarations (loop variables with init and update operands);
//! each operation names its opcode and operands; loads and stores
//! address a region as `[index + offset]`. The grammar below is the
//! README's example, parsed and scheduled for real:
//!
//! ```
//! let kernel = csched::ir::text::parse(
//!     r#"
//! kernel "triple" {
//!   region in disjoint
//!   region out disjoint
//!   loop body {
//!     var i = init 0 update i1
//!     x = load in [i + 0]
//!     y = imul x, 3
//!     store out [i + 50], y
//!     i1 = iadd i, 1
//!   }
//! }
//! "#,
//! )?;
//! let arch = csched::machine::imagine::distributed();
//! let config = csched::core::SchedulerConfig::default();
//! let schedule = csched::core::schedule_kernel(&arch, &kernel, config)?;
//! assert!(schedule.ii().unwrap() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Observing a scheduling run
//!
//! The scheduler streams typed events (placement attempts and rejects
//! with reasons, stub allocation and revision, route closing, copy
//! insertion) into any [`core::TraceSink`], and a finished schedule
//! summarises into [`core::ScheduleMetrics`] — achieved II vs its
//! lower bounds, copies per communication, and per-resource occupancy:
//!
//! ```
//! use csched::core::{schedule_kernel_traced, JsonlSink, ScheduleMetrics};
//! # let kernel = csched::ir::text::parse(r#"
//! # kernel "triple" {
//! #   region in disjoint
//! #   region out disjoint
//! #   loop body {
//! #     var i = init 0 update i1
//! #     x = load in [i + 0]
//! #     y = imul x, 3
//! #     store out [i + 50], y
//! #     i1 = iadd i, 1
//! #   }
//! # }
//! # "#)?;
//! let arch = csched::machine::imagine::distributed();
//! let mut sink = JsonlSink::new();
//! let schedule = schedule_kernel_traced(&arch, &kernel, Default::default(), &mut sink)?;
//! assert!(sink.lines() > 0);
//! let metrics = ScheduleMetrics::compute(&arch, &kernel, &schedule);
//! assert_eq!(metrics.ii, schedule.ii());
//! println!("{}", metrics.render_heatmap());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

// The README's Rust examples, compiled and run as doctests.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use csched_core as core;
pub use csched_eval as eval;
pub use csched_ir as ir;
pub use csched_kernels as kernels;
pub use csched_machine as machine;
pub use csched_sim as sim;
