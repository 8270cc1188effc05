//! Schedules one Table 1 kernel on one Imagine organisation and prints
//! the II, copy count and scheduler statistics — the unit of the
//! Figure 28 grid, for debugging and exploration.
//!
//! Usage:
//! `cargo run --release -p csched-eval --bin one-cell -- <kernel>
//! [central|clustered2|clustered4|distributed] [--sim] [--copies]
//! [--heatmap] [--metrics-json] [--explain] [--explain-json]
//! [--timeline <path>] [--gantt] [--help]`
//!
//! `--sim` executes the schedule against the scalar reference and prints
//! per-unit utilisation; `--copies` lists every communication that needed
//! a copy operation; `--certify` runs the exact oracle after the
//! heuristic and grades the II (`(optimal)`, `(exact=N, gap=G)`, or
//! `(exact search exhausted ...)`) — exiting nonzero if the oracle and
//! the validated heuristic schedule disagree; `--heatmap` renders the
//! per-resource occupancy heatmap; `--metrics-json` prints the cell's
//! schedule metrics as JSON;
//! `--explain` first lists each II the search gave up on: the operation
//! left unplaced, the attempts, and the failed copy searches (how many,
//! the widest copy range, the most tries). `--explain` / `--explain-json`
//! attribute the achieved II to its binding constraint (recurrence cycle,
//! saturating unit, or transport resource) with counterfactual bounds;
//! `--timeline <path>` simulates
//! the schedule and writes a Chrome trace-event JSON cycle timeline
//! (open in Perfetto or `chrome://tracing`); `--gantt` simulates and
//! renders the timeline as a terminal Gantt chart (iteration digits on
//! FU rows, `=` on bus rows).
//!
//! Exit codes: 0 ok, 1 the cell failed to schedule, validate, simulate
//! or certify, 2 usage error (unknown kernel or arch, missing value).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::process::ExitCode;

use csched_core::{
    explain, schedule_kernel, schedule_kernel_traced, validate, CommDisposition, Schedule,
    ScheduleMetrics, SchedulerConfig, TraceEvent, TraceSink,
};
use csched_eval::cli::{self, Args, CliError};
use csched_eval::gap::{self, GapConfig};
use csched_ir::OpId;
use csched_kernels::Workload;
use csched_machine::Architecture;
use csched_sim::Timeline;

const HELP: &str = "usage: one-cell <kernel> [arch] [flags]
  kernel   a Table 1 kernel name (e.g. FFT, DCT, Merge; case-insensitive)
  arch     central | clustered2 | clustered4 | distributed (default)
flags:
  --sim             execute the schedule and print utilisation + traffic
  --copies          list every communication that needed a copy
  --certify         run the exact oracle and grade the heuristic II;
                    exits 1 if the oracle disagrees with the validator
  --heatmap         render the per-resource occupancy heatmap
  --metrics-json    print the schedule metrics as JSON
  --explain         list the failed IIs of the search, then attribute the II
                    to its binding constraint (text)
  --explain-json    same attribution as JSON
  --timeline <path> simulate and write a Chrome trace-event JSON timeline
                    (open in Perfetto or chrome://tracing)
  --gantt           simulate and render a terminal Gantt chart
  --help            this text";

/// Every flag this binary reads.
const FLAGS: &[&str] = &[
    "--certify",
    "--copies",
    "--explain",
    "--explain-json",
    "--gantt",
    "--heatmap",
    "--help",
    "--metrics-json",
    "--sim",
    "--timeline",
];

fn main() -> ExitCode {
    cli::main("one-cell", FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, CliError> {
    if args.has("--help") || args.is_empty() {
        println!("{HELP}");
        return Ok(ExitCode::SUCCESS);
    }
    let names = args.positional(&["--timeline"]);
    let Some(kernel) = names.first() else {
        return Err(CliError::Usage(
            "need a kernel name; see --help".to_string(),
        ));
    };
    let w = cli::kernel(kernel)?;
    let arch = cli::arch(names.get(1).copied().unwrap_or("distributed"))?;
    let timeline = args.value("--timeline")?;
    Ok(match report(args, &w, &arch, timeline) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("one-cell: {e}");
            ExitCode::FAILURE
        }
    })
}

/// Schedules, validates and reports the cell; any failure is exit 1.
fn report(
    args: &Args,
    w: &Workload,
    arch: &Architecture,
    timeline: Option<&str>,
) -> Result<(), String> {
    let t = std::time::Instant::now();
    let mut search = SearchLog::default();
    let s = if args.has("--explain") {
        schedule_kernel_traced(arch, &w.kernel, SchedulerConfig::default(), &mut search)
    } else {
        schedule_kernel(arch, &w.kernel, SchedulerConfig::default())
    };
    let s = s.map_err(|e| {
        format!(
            "scheduling {} on {} failed: {e}",
            w.kernel.name(),
            arch.name()
        )
    })?;
    println!(
        "{} on {}: II={} copies={} attempts={} rejections={} ii_tried={} in {:.2?}",
        w.kernel.name(),
        arch.name(),
        s.ii().unwrap_or(0),
        s.num_copies(),
        s.stats().attempts,
        s.stats().rejections,
        s.stats().ii_tried,
        t.elapsed()
    );
    for f in &search.failed {
        let opcode = w.kernel.op(OpId::from_raw(f.op as usize)).opcode();
        print!(
            "  II {} failed at op{} ({opcode:?}) after {} attempts; ",
            f.ii, f.op, f.attempts
        );
        match f.widest {
            None => println!("no copy search failed"),
            Some((lo, hi)) => println!(
                "{} copy searches failed, widest range {lo}..={hi}, most tries {}",
                f.copies, f.most_tries
            ),
        }
    }
    validate::validate(arch, &w.kernel, &s).map_err(|errors| {
        let errors: Vec<String> = errors.iter().map(ToString::to_string).collect();
        format!("invalid schedule: {}", errors.join("; "))
    })?;
    if args.has("--certify") {
        certify(arch, w, &s)?;
    }
    if args.has("--heatmap") {
        let m = ScheduleMetrics::compute(arch, &w.kernel, &s);
        println!("{}", m.render_heatmap());
    }
    if args.has("--metrics-json") {
        let m = ScheduleMetrics::compute(arch, &w.kernel, &s);
        println!("{}", m.to_json());
    }
    if args.has("--explain") {
        print!("{}", explain::explain(arch, &w.kernel, &s).render_text());
    }
    if args.has("--explain-json") {
        println!("{}", explain::explain(arch, &w.kernel, &s).to_json());
    }
    if args.has("--copies") {
        let u = s.universe();
        for cid in u.comm_ids() {
            if let CommDisposition::Via(copy) = s.disposition(cid) {
                let c = u.comm(cid);
                let p = s.placement(c.producer);
                let q = s.placement(c.consumer);
                eprintln!(
                    "copy {:?} for {:?}({:?}@{}) -> {:?}({:?}@{}) d={}",
                    copy,
                    u.op(c.producer).opcode,
                    p.fu,
                    p.cycle,
                    u.op(c.consumer).opcode,
                    q.fu,
                    q.cycle,
                    c.distance,
                );
            }
        }
    }
    let want_gantt = args.has("--gantt");
    if timeline.is_some() || want_gantt {
        let mut mem = w.memory();
        let mut tl = Timeline::new();
        let stats = csched_sim::execute_timed(&w.kernel, &s, &mut mem, w.trip, Some(&mut tl))
            .map_err(|e| format!("simulation failed: {e}"))?;
        if let Some(path) = timeline {
            std::fs::write(path, tl.chrome_trace(arch, &s)).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "  timeline: {} events over {} cycles -> {path} (open in Perfetto)",
                tl.events().len(),
                stats.cycles
            );
        }
        if want_gantt {
            print!("{}", tl.render_gantt(arch, 120));
        }
    }
    if args.has("--sim") {
        let mut mem = w.memory();
        let stats = csched_sim::execute(&w.kernel, &s, &mut mem, w.trip)
            .map_err(|e| format!("simulation failed: {e}"))?;
        w.verify(&mem)
            .map_err(|e| format!("simulation does not match the reference: {e}"))?;
        println!(
            "  simulated OK: {} cycles, {} ops ({} copies), {} bus transfers",
            stats.cycles, stats.ops_executed, stats.copies_executed, stats.bus_transfers
        );
        let mut util = stats.utilization(arch);
        util.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, u) in util.iter().take(6) {
            println!("    {name:<6} {:>5.1}%", u * 100.0);
        }
        println!("  register-file traffic (writes/reads):");
        for (name, writes, reads) in stats.rf_traffic(arch) {
            if writes + reads > 0 {
                println!("    {name:<6} {writes:>6} / {reads}");
            }
        }
        println!("  bus traffic:");
        for (name, transfers) in stats.bus_traffic(arch) {
            if transfers > 0 {
                println!("    {name:<6} {transfers:>6}");
            }
        }
    }
    Ok(())
}

/// One II the search gave up on, with the copy searches that failed at it.
#[derive(Default)]
struct FailedIi {
    ii: u32,
    op: u32,
    attempts: u64,
    copies: u64,
    widest: Option<(i64, i64)>,
    most_tries: u32,
}

/// Collects the failed IIs of one traced search. The copy searches an II
/// fails come before its `IiFailed`, and the II after it starts afresh.
#[derive(Default)]
struct SearchLog {
    open: FailedIi,
    failed: Vec<FailedIi>,
}

impl TraceSink for SearchLog {
    fn event(&mut self, event: TraceEvent) {
        let o = &mut self.open;
        match event {
            TraceEvent::CopyFailed { lo, hi, tries, .. } => {
                o.copies += 1;
                o.most_tries = o.most_tries.max(tries);
                if o.widest.is_none_or(|(l, h)| hi - lo > h - l) {
                    o.widest = Some((lo, hi));
                }
            }
            TraceEvent::IiFailed { ii, op, attempts } => {
                (o.ii, o.op, o.attempts) = (ii, op, attempts);
                self.failed.push(std::mem::take(o));
            }
            _ => {}
        }
    }
}

/// Grades the heuristic schedule against the exact oracle by the gap
/// pass's rule ([`gap::grade`]), with its default II cap and step budget.
fn certify(arch: &Architecture, w: &Workload, s: &Schedule) -> Result<(), String> {
    let cfg = GapConfig::default();
    let record = gap::grade(arch, &w.kernel, Ok(s), &cfg);
    let ii = record.heuristic_ii.unwrap_or(0);
    match (record.status.as_str(), record.exact_ii) {
        ("certified", Some(exact)) if exact == ii => println!("  II={ii} (optimal)"),
        ("certified", Some(exact)) => println!("  II={ii} (exact={exact}, gap={})", ii - exact),
        ("gap_unknown", _) => println!(
            "  II={ii} (exact search exhausted its budget of {} steps; gap unknown)",
            cfg.exact_step_limit
        ),
        ("infeasible", _) => {
            println!(
                "  II={ii} (exact search capped at II={}; gap unknown)",
                cfg.max_ii
            );
        }
        ("disagreement", _) => return Err(format!("SOUNDNESS DISAGREEMENT: {}", record.detail)),
        _ => return Err(format!("exact {}", record.detail)),
    }
    Ok(())
}
