//! `csched-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run checks the program's outputs before printing any metric and
//! ends its standard output with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! `--trace 0` measures the end-to-end metrics with no tracing attached,
//! split across [`PROCESSES`] child processes; `--trace 1` replays the
//! same seeded inputs in this process with a span around every call into
//! a layer and prints the per-layer ledger. See `README.md`.

mod grid;
mod ledger;
mod probes;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::stats::median;

/// Child processes one `--trace 0` run is split across, each measuring
/// for an equal share of `--seconds`. On a small VM a process tends to
/// keep its speed for its whole life, so the median over processes is
/// steadier than more passes in one process.
const PROCESSES: usize = 5;

/// End-to-end metrics that must read the same in every process.
const DETERMINISTIC: [&str; 3] = ["ii_geomean", "copies_total", "ok_cells"];

/// Every unit a run reports.
const UNITS: [&str; 10] = [
    "cells/s", "ms", "cycles", "count", "s", "MiB", "us", "ns", "ratio", "%",
];

/// What one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Reads back a line [`to_json`](Self::to_json) wrote.
    fn parse(json: &str) -> Option<Report> {
        let field = |key: &str| {
            let rest = &json[json.find(&format!("\"{key}\":"))? + key.len() + 3..];
            rest.find([',', '}']).map(|end| &rest[..end])
        };
        let mut report = Report {
            correct: field("correct")? == "true",
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics: Vec::new(),
        };
        let mut rest = &json[json.find("\"metrics\":{")? + 11..];
        while let Some(start) = rest.find('"') {
            rest = &rest[start + 1..];
            let name = &rest[..rest.find('"')?];
            rest = &rest[rest.find("\"value\":")? + 8..];
            let value = rest[..rest.find(',')?].parse().ok()?;
            rest = &rest[rest.find("\"unit\":\"")? + 8..];
            let unit = &rest[..rest.find('"')?];
            let unit = UNITS.iter().find(|u| **u == unit)?;
            rest = &rest[rest.find('}')? + 1..];
            report.metrics.push((name.to_string(), value, *unit));
        }
        Some(report)
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Grid,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Serve => "serve",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Measure in this process as one of a run's [`PROCESSES`].
    pub child: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag}: not a whole number"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: want 0 or 1, got {other}")),
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let workload = match value("--workload")? {
        "grid" => Workload::Grid,
        "serve" => Workload::Serve,
        other => return Err(format!("unknown workload {other} (want grid | serve)")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        child: args.iter().any(|a| a == "--child"),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <grid|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = match (args.trace || args.child, args.workload) {
        (true, Workload::Grid) => grid::run(&args),
        (true, Workload::Serve) => serve::run(&args),
        (false, _) => run_children(&args),
    };
    match result {
        Ok(report) => {
            let correct = report.correct;
            println!("{}", report.to_json());
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs [`PROCESSES`] children one after another and reports the median of
/// each metric over them. Deterministic metrics must agree, and for
/// `serve` every child's miss responses must be identical before they are
/// checked against the in-process reference.
fn run_children(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    let seconds = (args.seconds / PROCESSES as f64).to_string();
    let seed = args.seed.to_string();
    let mut reports = Vec::with_capacity(PROCESSES);
    let mut misses: Vec<Vec<String>> = Vec::with_capacity(PROCESSES);
    for _ in 0..PROCESSES {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", "0", "--child"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running child: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let json = lines.pop().unwrap_or_default();
        let report = Report::parse(json)
            .ok_or_else(|| format!("child exited with {} and no result", out.status))?;
        misses.push(
            lines
                .iter()
                .filter_map(|l| l.strip_prefix("miss "))
                .map(str::to_string)
                .collect(),
        );
        for line in lines.iter().filter(|l| !l.starts_with("miss ")) {
            println!("  {line}");
        }
        reports.push(report);
    }

    let mut correct = reports.iter().all(|r| r.correct);
    if misses.iter().any(|m| *m != misses[0]) {
        eprintln!("perfbench: miss responses differ between processes");
        correct = false;
    }
    if args.workload == Workload::Serve {
        for error in serve::check_misses(&misses[0]) {
            eprintln!("serve: {error}");
            correct = false;
        }
    }
    let first = &reports[0];
    let mut metrics = Vec::with_capacity(first.metrics.len());
    for (i, (name, _, unit)) in first.metrics.iter().enumerate() {
        let values: Vec<f64> = reports
            .iter()
            .map(|r| {
                r.metrics
                    .get(i)
                    .filter(|m| m.0 == *name)
                    .map_or(f64::NAN, |m| m.1)
            })
            .collect();
        if values.iter().any(|v| v.is_nan())
            || DETERMINISTIC.contains(&name.as_str()) && values.iter().any(|v| *v != values[0])
        {
            eprintln!("perfbench: {name} differs between processes: {values:?}");
            correct = false;
        }
        metrics.push((name.clone(), median(&values), *unit));
    }
    Ok(Report {
        correct,
        attempted: reports.iter().map(|r| r.attempted).sum(),
        failed: reports.iter().map(|r| r.failed).sum(),
        metrics,
    })
}
