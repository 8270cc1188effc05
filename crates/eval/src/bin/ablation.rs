//! One-shot ablation table (quality only; perfbench does the timing):
//! the §4.4/§4.6 design choices on a subset of kernels across the
//! distributed and clustered(4) machines.
//!
//! Usage: `cargo run --release -p csched-eval --bin ablation` (no
//! arguments; any argument is a usage error, exit 2).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::process::ExitCode;

use csched_core::{schedule_kernel, SchedulerConfig};
use csched_eval::cli::{self, Args, CliError};

/// Every flag this binary reads.
const FLAGS: &[&str] = &[];

fn main() -> ExitCode {
    cli::main("ablation", FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, CliError> {
    if !args.is_empty() {
        return Err(CliError::Usage("takes no arguments".to_string()));
    }
    let kernels = ["FFT", "DCT", "Sort", "Merge", "Block Warp"];
    let archs = [
        csched_machine::imagine::distributed(),
        csched_machine::imagine::clustered(4),
    ];
    let configs: Vec<(&str, SchedulerConfig)> = vec![
        ("paper", SchedulerConfig::default()),
        ("cycle-order", SchedulerConfig::cycle_order()),
        ("no-comm-cost", SchedulerConfig::without_comm_cost()),
        ("no-closing-first", SchedulerConfig::without_closing_first()),
        (
            "budget-8",
            SchedulerConfig {
                search_budget: 8,
                ..SchedulerConfig::default()
            },
        ),
    ];
    for arch in &archs {
        println!("=== {} : II (copies) ===", arch.name());
        print!("{:<18}", "config");
        for k in kernels {
            print!("{k:>14}");
        }
        println!();
        for (label, config) in &configs {
            print!("{label:<18}");
            for k in kernels {
                let w = cli::kernel(k)?;
                match schedule_kernel(arch, &w.kernel, config.clone()) {
                    Ok(s) => print!(
                        "{:>14}",
                        format!("{} ({})", s.ii().unwrap_or(0), s.num_copies())
                    ),
                    Err(_) => print!("{:>14}", "fail"),
                }
            }
            println!();
        }
        println!();
    }
    Ok(ExitCode::SUCCESS)
}
