//! Regenerates Table 1 (the kernel inventory) and self-checks every kernel
//! against its scalar reference implementation.
//!
//! Usage: `cargo run --release -p csched-eval --bin table1 --
//! [--metrics-json | --campaign-json] [--journal <path>] [--resume <path>]
//! [--step-limit <attempts>] [--jobs <threads>] [extra-kernel.k ...]`
//!
//! With `--metrics-json`, schedules every Table 1 kernel on all four
//! Imagine register-file organisations and prints the full
//! [`csched_core::ScheduleMetrics`] grid as one JSON document instead of
//! the plain-text table.
//!
//! With `--campaign-json`, runs the same kernel × architecture grid as a
//! crash-consistent *campaign*: every cell is scheduled under a hard
//! placement-attempt budget (`--step-limit`, default 1,000,000), one bad
//! cell never aborts the rest, each completed cell is journaled to
//! `--journal` as soon as it finishes, and `--resume` replays a previous
//! journal so only missing cells are recomputed. The report is a pure
//! function of the cell records, so a resumed campaign prints the same
//! bytes as an uninterrupted one. `--jobs N` spreads the campaign's
//! cells over N worker threads; the report stays byte-identical because
//! results merge in grid order and the journal is written only from the
//! main thread.
//!
//! The heuristic-vs-exact optimality-gap table is `oracle --table`.
//!
//! Extra positional arguments name kernel text files (the
//! `csched_ir::text` language). A file that fails to parse no longer
//! aborts the run: its structured parse error goes to stderr, the
//! remaining kernels are still processed, and the process exits with
//! status 2 (parse failures present) or 1 (any cell Failed or TimedOut);
//! 0 means every cell was Ok.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::path::Path;
use std::process::ExitCode;

use csched_core::{schedule_kernel, ScheduleMetrics, SchedulerConfig};
use csched_eval::campaign::{self, CellRecord, CellStatus, Journal};
use csched_eval::cli::{self, Args, CliError};
use csched_eval::report;
use csched_ir::Kernel;

/// Every flag this binary reads.
const FLAGS: &[&str] = &[
    "--campaign-json",
    "--jobs",
    "--journal",
    "--metrics-json",
    "--resume",
    "--step-limit",
];

fn main() -> ExitCode {
    cli::main("table1", FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, CliError> {
    let journal_path = args.value("--journal")?.map(Path::new);
    let resume_path = args.value("--resume")?.map(Path::new);
    let step_limit: u64 = args.num("--step-limit")?.unwrap_or(1_000_000);
    let jobs: usize = args.num("--jobs")?.unwrap_or(1);
    let files = args.positional(&["--journal", "--resume", "--step-limit", "--jobs"]);

    // Parse extra kernels, collecting failures instead of aborting: the
    // rest of the evaluation still runs, and failed files surface as
    // Skipped cells (campaign mode) plus a nonzero exit.
    let mut extra_kernels: Vec<Kernel> = Vec::new();
    let mut parse_failures: Vec<CellRecord> = Vec::new();
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: {e}");
                parse_failures.push(CellRecord::skipped(file, e.to_string()));
                continue;
            }
        };
        match csched_ir::text::parse(&text) {
            Ok(kernel) => extra_kernels.push(kernel),
            Err(err) => {
                eprintln!("{}", report::parse_error_json(file, &err));
                parse_failures.push(CellRecord::skipped(file, err.to_string()));
            }
        }
    }
    // A file that failed to parse (exit 2) outranks a failed cell (exit 1).
    let exit = |failed: bool| match (parse_failures.is_empty(), failed) {
        (false, _) => ExitCode::from(2),
        (true, true) => ExitCode::FAILURE,
        (true, false) => ExitCode::SUCCESS,
    };

    let workloads = csched_kernels::all();

    if args.has("--campaign-json") {
        let archs = csched_machine::imagine::all_variants();
        let config = SchedulerConfig::default();
        let mut kernels: Vec<(&str, &Kernel)> = workloads
            .iter()
            .map(|w| (w.kernel.name(), &w.kernel))
            .collect();
        for k in &extra_kernels {
            kernels.push((k.name(), k));
        }
        let result =
            Journal::open_resumable(journal_path, resume_path).and_then(|(mut journal, resume)| {
                campaign::run_campaign_jobs(
                    &kernels,
                    &archs,
                    &config,
                    step_limit,
                    journal.as_mut(),
                    &resume,
                    jobs,
                )
            });
        let mut records = match result {
            Ok(result) => result.records,
            Err(e) => {
                eprintln!("{e}");
                return Ok(ExitCode::from(2));
            }
        };
        records.extend(parse_failures.iter().cloned());
        println!("{}", campaign::campaign_json(&records));
        let bad = records
            .iter()
            .any(|r| matches!(r.status, CellStatus::Failed | CellStatus::TimedOut));
        return Ok(exit(bad));
    }

    if args.has("--metrics-json") {
        let archs = csched_machine::imagine::all_variants();
        let grid =
            match csched_eval::run_grid(&workloads, &archs, &SchedulerConfig::default(), false) {
                Ok(grid) => grid,
                Err(e) => {
                    eprintln!("grid failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
        let mut extra = Vec::new();
        for kernel in &extra_kernels {
            for arch in &archs {
                match schedule_kernel(arch, kernel, SchedulerConfig::default()) {
                    Ok(schedule) => extra.push(ScheduleMetrics::compute(arch, kernel, &schedule)),
                    Err(e) => {
                        eprintln!("{} on {}: {e}", kernel.name(), arch.name());
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
        }
        println!("{}", report::metrics_json(&grid, &extra));
        return Ok(exit(false));
    }

    println!("{}", report::table1(&workloads));
    for kernel in &extra_kernels {
        println!(
            "parsed {}: {} loop ops ({} blocks)",
            kernel.name(),
            kernel.loop_ops().len(),
            kernel.blocks().len()
        );
    }
    let mut self_check_failed = false;
    for w in &workloads {
        if let Err(e) = w.self_check() {
            eprintln!("self-check failed: {e}");
            self_check_failed = true;
        }
    }
    if !self_check_failed {
        println!(
            "all {} kernels match their scalar references",
            workloads.len()
        );
    }
    Ok(exit(self_check_failed))
}
