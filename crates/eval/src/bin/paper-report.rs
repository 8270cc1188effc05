//! Regenerates every table and figure of the paper in one run.
//!
//! Usage: `cargo run --release -p csched-eval --bin paper-report
//! [--no-sim] [--csv] [--campaign] [--journal <path>] [--resume <path>]
//! [--step-limit <attempts>]` (`--csv` appends machine-readable blocks
//! for plotting).
//!
//! `--campaign` (implied by `--journal`/`--resume`) switches the grid to
//! crash-consistent campaign mode: every cell runs under a hard
//! placement-attempt budget with per-cell isolation, completed cells are
//! checkpointed to `--journal`, and `--resume` replays a previous journal
//! so an interrupted evaluation picks up where it stopped and produces
//! the identical report. Campaign mode skips simulation (figures need
//! only the journaled IIs) and exits 1 if any cell Failed or TimedOut.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::path::Path;
use std::process::ExitCode;

use csched_core::SchedulerConfig;
use csched_eval::campaign::{self, CellStatus, Journal};
use csched_eval::cli::{self, Args, CliError};
use csched_eval::{costs, grid, report};
use csched_ir::Kernel;

/// Every flag this binary reads.
const FLAGS: &[&str] = &[
    "--campaign",
    "--csv",
    "--journal",
    "--no-sim",
    "--resume",
    "--step-limit",
];

fn main() -> ExitCode {
    cli::main("paper-report", FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, CliError> {
    let journal_path = args.value("--journal")?.map(Path::new);
    let resume_path = args.value("--resume")?.map(Path::new);
    let campaign_mode = args.has("--campaign") || journal_path.is_some() || resume_path.is_some();
    let step_limit: u64 = args.num("--step-limit")?.unwrap_or(1_000_000);

    let workloads = csched_kernels::all();
    println!("{}", report::table1(&workloads));

    let (rows, headline) =
        match costs::figures_25_27().and_then(|rows| Ok((rows, costs::headline()?))) {
            Ok(costs) => costs,
            Err(e) => {
                eprintln!("cost model: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
    println!("{}", report::figures_25_27(&rows));

    let archs = csched_machine::imagine::all_variants();
    let config = SchedulerConfig::default();
    let start = std::time::Instant::now();

    let (grid, bad_cells) = if campaign_mode {
        let kernels: Vec<(&str, &Kernel)> = workloads
            .iter()
            .map(|w| (w.kernel.name(), &w.kernel))
            .collect();
        let result =
            Journal::open_resumable(journal_path, resume_path).and_then(|(mut journal, resume)| {
                campaign::run_campaign(
                    &kernels,
                    &archs,
                    &config,
                    step_limit,
                    journal.as_mut(),
                    &resume,
                )
            });
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{e}");
                return Ok(ExitCode::from(2));
            }
        };
        eprintln!(
            "(campaign: {} cells, {} resumed, scheduled in {:.1?})",
            result.records.len(),
            result.resumed,
            start.elapsed()
        );
        let arch_names: Vec<String> = archs.iter().map(|a| a.name().to_string()).collect();
        let grid = campaign::grid_from_records(&result.records, &arch_names);
        let bad: Vec<String> = result
            .records
            .iter()
            .filter(|r| matches!(r.status, CellStatus::Failed | CellStatus::TimedOut))
            .map(|r| {
                format!(
                    "{} on {}: {}: {}",
                    r.kernel,
                    r.arch,
                    r.status.name(),
                    r.detail
                )
            })
            .collect();
        (grid, bad)
    } else {
        let grid = match grid::run_grid(&workloads, &archs, &config, !args.has("--no-sim")) {
            Ok(grid) => grid,
            Err(e) => {
                eprintln!("evaluation failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        eprintln!("(grid scheduled in {:.1?})", start.elapsed());
        (grid, Vec::new())
    };

    if !grid.rows.is_empty() {
        println!("{}", report::figure28(&grid));
        println!("{}", report::figure29(&grid));
        println!("{}", report::headline(&headline, Some(&grid)));
    } else {
        println!("{}", report::headline(&headline, None));
    }
    println!("{}", report::scaling(&costs::scaling(&[1, 2, 4])));

    if args.has("--csv") {
        println!("--- grid.csv ---");
        print!("{}", report::grid_csv(&grid));
        println!("--- cost.csv ---");
        print!("{}", report::cost_csv(&rows));
    }

    for line in &bad_cells {
        eprintln!("bad cell: {line}");
    }
    Ok(if bad_cells.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
