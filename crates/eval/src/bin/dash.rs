//! `dash` — a live terminal dashboard for the scheduler service.
//!
//! Polls a running `serve` instance's `STATS` and `METRICS` verbs and
//! renders, in place:
//!
//! - request totals and per-second rates by outcome
//!   (`ok|degraded|overload|deadline|sched|malformed|internal`);
//! - the hostile-environment counters from PR 8 (shed connections,
//!   degraded answers, quarantined cache entries, the ENOSPC
//!   write-degraded latch) so overload and disk trouble are visible at
//!   a glance instead of inferred;
//! - latency histogram sparklines per outcome, drawn from the
//!   deterministic log-bucketed histograms in
//!   [`csched_eval::telemetry`];
//! - the slowest recent requests from the span ring, each with its
//!   stage split (sched vs everything else), attempts, achieved II,
//!   and the binding-constraint attribution the server computed via
//!   [`mod@csched_core::explain`] — the paper's §6 "why is the II what it
//!   is" answer, per request, live.
//!
//! `--once` prints a single frame and exits (the CI smoke mode);
//! otherwise the dashboard refreshes every `--interval-ms` until
//! interrupted or `--frames` runs out.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::process::ExitCode;
use std::time::{Duration, Instant};

use csched_eval::cli::{self, Args, CliError};
use csched_eval::jsonl::num_field;
use csched_eval::serve::{client_metrics, client_stats};
use csched_eval::telemetry::{MetricsSnapshot, SpanSummary};

const HELP: &str = "usage: dash --addr <host:port> [flags]
  --interval-ms N   poll period (default 1000)
  --frames N        stop after N frames (default: run until killed)
  --once            print one frame without clearing and exit
  --slow N          rows in the slow-request table (default 5)
  --help            this text";

const TIMEOUT: Duration = Duration::from_secs(10);

/// The outcome labels, in display order (matches telemetry's rendering
/// order, so rows line up with the METRICS JSON).
const OUTCOMES: [&str; 7] = [
    "ok",
    "degraded",
    "overload",
    "deadline",
    "sched",
    "malformed",
    "internal",
];

struct Plan {
    addr: String,
    interval: Duration,
    frames: Option<u64>,
    once: bool,
    slow_rows: usize,
}

fn parse_plan(args: &Args) -> Result<Plan, CliError> {
    let addr = args
        .value("--addr")?
        .ok_or_else(|| CliError::Usage("need --addr <host:port>".to_string()))?;
    Ok(Plan {
        addr: addr.to_string(),
        interval: Duration::from_millis(args.num("--interval-ms")?.unwrap_or(1000).max(50)),
        frames: args.num("--frames")?,
        once: args.has("--once"),
        slow_rows: args.num("--slow")?.unwrap_or(5),
    })
}

/// One poll's worth of parsed server state.
struct Frame {
    uptime_ms: u64,
    requests_total: u64,
    shed: u64,
    degraded: u64,
    quarantined: u64,
    write_degraded: u64,
    hits: u64,
    misses: u64,
    metrics: MetricsSnapshot,
}

fn poll(addr: &str) -> Result<Frame, String> {
    let stats = client_stats(addr, TIMEOUT).map_err(|e| format!("STATS failed: {e}"))?;
    let metrics_text = client_metrics(addr, TIMEOUT).map_err(|e| format!("METRICS failed: {e}"))?;
    let json_line = metrics_text.lines().next().unwrap_or("");
    let metrics = MetricsSnapshot::parse(json_line)
        .map_err(|e| format!("unparseable METRICS line ({e}): {json_line}"))?;
    Ok(Frame {
        uptime_ms: num_field(&stats, "uptime_ms").unwrap_or(0),
        requests_total: num_field(&stats, "requests").unwrap_or(0),
        shed: num_field(&stats, "shed").unwrap_or(0),
        degraded: num_field(&stats, "degraded").unwrap_or(0),
        quarantined: num_field(&stats, "quarantined").unwrap_or(0),
        write_degraded: num_field(&stats, "write_degraded").unwrap_or(0),
        hits: num_field(&stats, "hits").unwrap_or(0),
        misses: num_field(&stats, "misses").unwrap_or(0),
        metrics,
    })
}

/// Renders bucket counts as a fixed-width sparkline: each cell is one
/// occupied-bucket's count scaled against the busiest bucket.
fn sparkline(buckets: &[(u64, u64)], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if buckets.is_empty() {
        return "-".repeat(width);
    }
    // Resample the occupied buckets onto `width` cells.
    let max = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
    let mut out = String::with_capacity(width * 3);
    for cell in 0..width {
        let lo = cell * buckets.len() / width;
        let hi = (((cell + 1) * buckets.len()).div_ceil(width)).min(buckets.len());
        let count: u64 = buckets[lo..hi.max(lo + 1).min(buckets.len())]
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0);
        if count == 0 {
            out.push(' ');
        } else {
            let idx = ((count * 7).div_ceil(max) as usize).min(7);
            out.push(BARS[idx]);
        }
    }
    out
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn outcome_count(metrics: &MetricsSnapshot, label: &str) -> u64 {
    metrics
        .requests
        .iter()
        .find(|(l, _)| l == label)
        .map_or(0, |&(_, n)| n)
}

fn render(frame: &Frame, prev: Option<&(Frame, Instant)>, slow_rows: usize) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "csched dash · uptime {}s · {} conns · cache {}h/{}m · shed {} · degraded {} · \
         quarantined {}{}\n\n",
        frame.uptime_ms / 1000,
        frame.requests_total,
        frame.hits,
        frame.misses,
        frame.shed,
        frame.degraded,
        frame.quarantined,
        if frame.write_degraded > 0 {
            " · WRITE-DEGRADED (ENOSPC)"
        } else {
            ""
        },
    ));
    out.push_str("  outcome     total    rate/s   latency\n");
    for label in OUTCOMES {
        let total = outcome_count(&frame.metrics, label);
        let rate = match prev {
            Some((p, at)) => {
                let dt = at.elapsed().as_secs_f64().max(1e-9);
                (total.saturating_sub(outcome_count(&p.metrics, label))) as f64 / dt
            }
            None => 0.0,
        };
        let empty = Vec::new();
        let buckets = frame
            .metrics
            .latency
            .iter()
            .find(|(l, _)| l == label)
            .map_or(&empty, |(_, b)| b);
        if total == 0 && buckets.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "  {label:<10} {total:>7} {rate:>8.1}   {}\n",
            sparkline(buckets, 24)
        ));
    }
    let mut slow: Vec<&SpanSummary> = frame.metrics.spans.iter().collect();
    slow.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.id.cmp(&b.id)));
    slow.truncate(slow_rows);
    if !slow.is_empty() {
        out.push_str("\n  slowest recent requests\n");
        out.push_str(
            "  req     kernel           outcome    total     sched  attempts  ii  binding\n",
        );
        for s in slow {
            out.push_str(&format!(
                "  #{:<6} {:<16} {:<9} {:>7} {:>9} {:>9} {:>3}  {}\n",
                s.id,
                truncate(&s.kernel, 16),
                s.outcome,
                fmt_us(s.total_us),
                fmt_us(s.sched_us),
                s.attempts,
                s.ii,
                s.binding,
            ));
        }
    }
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

fn run(plan: &Plan) -> Result<(), String> {
    let mut prev: Option<(Frame, Instant)> = None;
    let mut frames_done = 0u64;
    loop {
        let frame = poll(&plan.addr)?;
        let text = render(&frame, prev.as_ref(), plan.slow_rows);
        if plan.once {
            print!("{text}");
            return Ok(());
        }
        // Clear the screen and home the cursor; a fresh frame replaces
        // the old one in place.
        print!("\u{1b}[2J\u{1b}[H{text}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = Some((frame, Instant::now()));
        frames_done += 1;
        if plan.frames.is_some_and(|n| frames_done >= n) {
            return Ok(());
        }
        std::thread::sleep(plan.interval);
    }
}

fn main() -> ExitCode {
    cli::main("dash", |args| {
        if args.has("--help") || args.is_empty() {
            println!("{HELP}");
            return Ok(ExitCode::SUCCESS);
        }
        Ok(match run(&parse_plan(args)?) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("dash: {message}");
                ExitCode::FAILURE
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_handles_empty_and_scales() {
        assert_eq!(sparkline(&[], 4), "----");
        let line = sparkline(&[(0, 1), (16, 8)], 2);
        assert_eq!(line.chars().count(), 2);
        assert!(line.ends_with('█'));
    }

    #[test]
    fn fmt_us_picks_units() {
        assert_eq!(fmt_us(900), "900us");
        assert_eq!(fmt_us(1_500), "1.5ms");
        assert_eq!(fmt_us(2_500_000), "2.50s");
    }

    #[test]
    fn truncate_is_char_safe() {
        assert_eq!(truncate("short", 16), "short");
        assert_eq!(truncate("0123456789abcdef0", 16), "0123456789abcde…");
    }
}
