//! Exact-scheduling oracle: certifies minimum IIs and reports the
//! heuristic optimality gap.
//!
//! Usage: `cargo run --release -p csched-eval --bin oracle --
//! [--cell <kernel> <arch>]... [--journal <path>] [--resume]
//! [--exact-steps <n>] [--heuristic-steps <n>] [--max-ii <n>]
//! [--explore-sample <n>] [--seed <n>] [--table] [--help]`
//!
//! With no `--cell` flags the oracle sweeps the full paper grid (ten
//! Table 1 kernels × four Imagine register-file organisations) plus
//! `--explore-sample` seeded explore-family machines; each `--cell`
//! restricts the run to that kernel × architecture pair (`arch` is
//! `central`, `clustered2`, `clustered4`, or `distributed`). `--journal`
//! appends each finished cell to a JSONL journal as soon as it
//! completes; `--resume` replays completed cells from that journal so a
//! killed run recomputes nothing, and the report is byte-identical to an
//! uninterrupted one. Output is the `gap-v1` JSON report (or a
//! plain-text table with `--table`).
//!
//! Exit status: 0 on success (including `gap_unknown` cells — an
//! exhausted search budget is an answer, not an error), 1 when any cell
//! records a `disagreement` (the oracle certified a minimum II *above* a
//! validated heuristic schedule — a soundness bug), 2 on usage or
//! journal errors.

// The oracle is the soundness arbiter: it must report typed failures,
// never panic its way out of a cell.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::Path;
use std::process::ExitCode;

use csched_eval::cli::{self, Args, CliError};
use csched_eval::gap::{gap_json, gap_table, run_gap, run_gap_over, GapCell, GapConfig};

const HELP: &str = "usage: oracle [flags]
  --cell <kernel> <arch>  certify one cell (repeatable); arch is central |
                          clustered2 | clustered4 | distributed
  --journal <path>        append each finished cell to a JSONL journal
  --resume                replay completed cells from --journal
  --exact-steps <n>       oracle step budget per cell (default 2000000)
  --heuristic-steps <n>   heuristic step budget per cell (default 400000)
  --max-ii <n>            oracle II search cap (default 128)
  --explore-sample <n>    seeded explore machines appended to the grid
  --seed <n>              explore subsample seed (default 2000)
  --table                 plain-text table instead of gap-v1 JSON
  --help                  this text
exit status: 0 ok, 1 soundness disagreement, 2 usage/journal error";

/// Every flag this binary reads.
const FLAGS: &[&str] = &[
    "--cell",
    "--exact-steps",
    "--explore-sample",
    "--help",
    "--heuristic-steps",
    "--journal",
    "--max-ii",
    "--resume",
    "--seed",
    "--table",
];

fn main() -> ExitCode {
    cli::main("oracle", FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, CliError> {
    if args.has("--help") {
        println!("{HELP}");
        return Ok(ExitCode::SUCCESS);
    }

    let mut cfg = GapConfig::default();
    cfg.exact_step_limit = args.num("--exact-steps")?.unwrap_or(cfg.exact_step_limit);
    cfg.heuristic_step_limit = args
        .num("--heuristic-steps")?
        .unwrap_or(cfg.heuristic_step_limit);
    cfg.seed = args.num("--seed")?.unwrap_or(cfg.seed);
    cfg.exact.max_ii = args.num("--max-ii")?.unwrap_or(cfg.exact.max_ii);
    cfg.explore_sample = args.num("--explore-sample")?.unwrap_or(cfg.explore_sample);

    let journal = args.value("--journal")?.map(Path::new);
    let resume = args.has("--resume");
    if resume && journal.is_none() {
        return Err(CliError::Usage("--resume needs --journal".to_string()));
    }

    let mut cells: Vec<GapCell> = Vec::new();
    for cell in args.repeated("--cell", 2)? {
        cells.push(GapCell {
            kernel: cli::kernel(&cell[0])?.kernel,
            arch: cli::arch(&cell[1])?,
        });
    }

    let report = if cells.is_empty() {
        run_gap(&cfg, journal, resume)
    } else {
        run_gap_over(&cells, &cfg, journal, resume)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("oracle: {e}");
            return Ok(ExitCode::from(2));
        }
    };

    if args.has("--table") {
        print!("{}", gap_table(&report));
    } else {
        println!("{}", gap_json(&report));
    }
    for r in report.disagreements() {
        eprintln!(
            "oracle: SOUNDNESS DISAGREEMENT on {} x {}: {}",
            r.kernel, r.arch, r.detail
        );
    }
    Ok(if report.disagreements().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
