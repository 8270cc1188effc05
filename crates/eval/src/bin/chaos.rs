//! Seeded multi-fault chaos campaign against the scheduler.
//!
//! Usage: `cargo run --release -p csched-eval --bin chaos --
//! [--seed <n>] [--runs <n>] [--max-faults <n>] [--step-limit <n>]
//! [--arch <name>] [--kernels <n>]`, where `--arch` takes a name from
//! `csched_eval::cli::ARCH_NAMES` (default `distributed`).
//!
//! Draws `--runs` pseudo-random combinations of up to `--max-faults`
//! simultaneous resource faults (dead buses, ports, functional units),
//! schedules the first `--kernels` Table 1 workloads on each degraded
//! machine under a hard `--step-limit` placement-attempt budget, and
//! prints the campaign digest. The digest is a pure function of the
//! seed, machine, kernels, and configuration — rerunning with the same
//! arguments reproduces it byte for byte.
//!
//! Exits 0 when every run held the robustness contract (valid schedule,
//! typed rejection, or in-deadline stop — never a panic, never a budget
//! overrun), 1 otherwise, 2 on a usage error. CI runs a tiny seeded
//! campaign as a smoke test.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::process::ExitCode;

use csched_core::faultinject::{chaos_campaign, render_chaos_campaign, ChaosConfig};
use csched_core::SchedulerConfig;
use csched_eval::cli::{self, Args, CliError};
use csched_ir::Kernel;

fn main() -> ExitCode {
    cli::main("chaos", run)
}

fn run(args: &Args) -> Result<ExitCode, CliError> {
    let defaults = ChaosConfig::default();
    let chaos = ChaosConfig {
        seed: args.num("--seed")?.unwrap_or(defaults.seed),
        runs: args.num("--runs")?.unwrap_or(defaults.runs),
        max_faults: args.num("--max-faults")?.unwrap_or(defaults.max_faults),
        step_limit: args.num("--step-limit")?.unwrap_or(defaults.step_limit),
    };
    let arch = cli::arch(args.value("--arch")?.unwrap_or("distributed"))?;
    let kernel_count: usize = args.num("--kernels")?.unwrap_or(3);

    let workloads = csched_kernels::all();
    let kernels: Vec<(&str, &Kernel)> = workloads
        .iter()
        .take(kernel_count.max(1))
        .map(|w| (w.kernel.name(), &w.kernel))
        .collect();

    let entries = chaos_campaign(&arch, &kernels, &SchedulerConfig::default(), &chaos);
    print!("{}", render_chaos_campaign(&entries));

    let violations: Vec<_> = entries
        .iter()
        .filter(|e| !e.verdict.contract_held() || e.attempts_spent > e.step_limit)
        .collect();
    for v in &violations {
        eprintln!(
            "CONTRACT VIOLATION: run {} kernel {} faults {:?}: {:?}",
            v.run, v.kernel, v.fault_descs, v.verdict
        );
    }
    Ok(if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
