//! Design-space exploration CLI: search architectures around the
//! paper's four machines and print the Pareto frontier.
//!
//! Usage: `cargo run --release -p csched-eval --bin explore --
//! [--candidates N] [--seed N] [--rounds N] [--step-limit N] [--jobs N]
//! [--kernels Merge,Sort] [--no-anchors] [--json]
//! [--journal <path>] [--resume <path>]`
//!
//! Candidates are drawn from the default
//! [`csched_machine::gen::DesignSpace`] (enumerated when it fits inside
//! `--candidates`, sampled from `--seed` otherwise), the full Table 1
//! kernel suite is scheduled on each one under a shared placement-attempt
//! budget, and the four-objective Pareto frontier (harmonic-mean II,
//! register-file area, power, delay) is printed as a text table — or as
//! the full deterministic JSON report with `--json`, which is
//! byte-identical for every `--jobs` value and across `--resume`.
//!
//! `--journal` checkpoints completed cells; `--resume` replays a journal
//! so a killed sweep only recomputes unfinished candidates. Exit codes:
//! 0 on success, 2 on usage/journal errors.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::path::Path;
use std::process::ExitCode;

use csched_eval::campaign::Journal;
use csched_eval::cli::{self, Args, CliError};
use csched_eval::explore::{explore, ExploreConfig};
use csched_ir::Kernel;

const USAGE: &str = "usage: explore [--candidates N] [--seed N] [--rounds N] \
[--step-limit N] [--jobs N] [--kernels A,B,...] [--no-anchors] [--json] \
[--journal PATH] [--resume PATH]";

/// Every flag this binary reads.
const FLAGS: &[&str] = &[
    "--candidates",
    "--help",
    "--jobs",
    "--journal",
    "--json",
    "--kernels",
    "--no-anchors",
    "--resume",
    "--rounds",
    "--seed",
    "--step-limit",
];

fn main() -> ExitCode {
    cli::main("explore", FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, CliError> {
    if args.has("--help") || args.has("-h") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }

    let config = ExploreConfig {
        candidates: args.num("--candidates")?.unwrap_or(24),
        seed: args.num("--seed")?.unwrap_or(0xC5C4ED),
        refine_rounds: args.num("--rounds")?.unwrap_or(1),
        step_limit: args.num("--step-limit")?.unwrap_or(1_000_000),
        anchors: !args.has("--no-anchors"),
        ..ExploreConfig::default()
    };
    let jobs: usize = args.num("--jobs")?.unwrap_or(1);
    let workloads = match args.value("--kernels")? {
        Some(list) => cli::kernels(list)?,
        None => csched_kernels::all(),
    };
    let kernels: Vec<(&str, &Kernel)> = workloads
        .iter()
        .map(|w| (w.kernel.name(), &w.kernel))
        .collect();
    let resume_path = args.value("--resume")?.map(Path::new);
    let journal_path = args.value("--journal")?.map(Path::new);

    let start = std::time::Instant::now();
    let report =
        Journal::open_resumable(journal_path, resume_path).and_then(|(mut journal, resume)| {
            explore(&config, &kernels, jobs, journal.as_mut(), &resume)
        });
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("explore: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    // Timing and resume statistics go to stderr only: stdout must be a
    // pure function of the search, identical across --jobs and --resume.
    eprintln!(
        "(explored {} candidates, {} resumed, {} on frontier, jobs={jobs}, {:.1?})",
        report.candidates.len(),
        report.resumed,
        report.frontier.len(),
        start.elapsed()
    );

    if args.has("--json") {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_frontier());
    }
    Ok(ExitCode::SUCCESS)
}
