//! Performance at scale: schedule kernels on the scaled Imagine machines
//! (the §8 projection covers cost only; this appendix checks that
//! communication scheduling keeps working as the machine grows, and that
//! larger distributed machines buy lower IIs through extra buses and
//! units).
//!
//! Usage: `cargo run --release -p csched-eval --bin scale-perf` (no
//! arguments). Each cell is scheduled once and checked by the
//! independent validator; the time shown is that one schedule's wall
//! clock. Exit codes: 0 every cell scheduled and validated, 1 otherwise,
//! 2 usage error.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::process::ExitCode;
use std::time::Instant;

use csched_core::{schedule_kernel, validate, SchedulerConfig};
use csched_eval::cli::{self, Args, CliError};
use csched_machine::imagine;

fn main() -> ExitCode {
    cli::main("scale-perf", run)
}

fn run(args: &Args) -> Result<ExitCode, CliError> {
    if !args.is_empty() {
        return Err(CliError::Usage("takes no arguments".to_string()));
    }
    println!(
        "{:<10} {:>6} {:>8} {:>14} {:>10} {:>10}",
        "kernel", "scale", "units", "arch", "II", "copies"
    );
    let mut failed = 0;
    for name in ["FFT", "DCT", "FIR-FP", "Sort"] {
        let w = cli::kernel(name)?;
        for scale in [1usize, 2, 4] {
            for arch in [
                imagine::central_scaled(scale),
                imagine::distributed_scaled(scale),
            ] {
                let label = format!(
                    "{:<10} {:>6} {:>8} {:>14}",
                    name,
                    scale,
                    12 * scale,
                    arch.name().replace("imagine-", "")
                );
                let start = Instant::now();
                let scheduled = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default());
                let elapsed = start.elapsed();
                let outcome = scheduled.map_err(|e| e.to_string()).and_then(|s| {
                    match validate::validate(&arch, &w.kernel, &s) {
                        Ok(()) => Ok(s),
                        Err(errors) => Err(format!(
                            "validation failed ({} errors): {}",
                            errors.len(),
                            errors.first().map(ToString::to_string).unwrap_or_default()
                        )),
                    }
                });
                match outcome {
                    Ok(s) => println!(
                        "{label} {:>10} {:>10}   ({:.1} ms)",
                        s.ii().unwrap_or(0),
                        s.num_copies(),
                        elapsed.as_secs_f64() * 1e3
                    ),
                    Err(detail) => {
                        failed += 1;
                        println!("{label}   failed: {detail}");
                    }
                }
            }
        }
    }
    Ok(if failed > 0 {
        eprintln!("scale-perf: {failed} cell(s) failed to schedule or validate");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
