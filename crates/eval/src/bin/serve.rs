//! Hosts the hardened scheduler service (`csched_eval::serve`) and ships
//! a small client for exercising it — including the cold-vs-warm cache
//! check the CI smoke run gates on.
//!
//! Server: `serve --addr 127.0.0.1:0 [--cache <path>] [--durable]
//! [--jobs N] [--queue N] [--step-limit N] [--wall-ms N]` — prints
//! `listening on <addr>` (port 0 resolved) and serves until killed.
//!
//! Client: `serve --client <addr>` plus one of
//! `--kernel <name> --arch <org>` (one request; add `--limit`/`--wall-ms`),
//! `--stats` (the counters JSON line), `--malformed` (a deliberately
//! broken request, expecting `ERR malformed`), or `--bench-suite`
//! (schedule the whole Table 1 suite twice, print both passes' rates,
//! and exit 1 unless every second-pass reply is a `CACHE hit` of the
//! cell's first-pass `OK` line).
//!
//! Exit codes: 0 ok, 1 a failed request or gate, 2 usage error (unknown
//! kernel or arch, a bad number, no mode).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::process::ExitCode;
use std::time::{Duration, Instant};

use csched_eval::cli::{self, Args, CliError};
use csched_eval::serve::{
    client_metrics, client_raw, client_request, client_request_retry, client_stats, client_trace,
    RetryConfig, ServeConfig, Server,
};
use csched_ir::text as ir_text;
use csched_machine::text as machine_text;

const HELP: &str = "usage:
  serve --addr <host:port> [server flags]    host the service
  serve --client <host:port> <client mode>   talk to a running service
server flags:
  --cache <path>    persistent schedule-cache journal
  --durable         fsync each cache append
  --jobs N          worker threads (default 4)
  --queue N         admission-queue capacity (default 16)
  --step-limit N    default placement-attempt budget per request
  --wall-ms N       wall-clock deadline per request
  --compact-bytes N journal byte threshold for compaction
  --compact-entries N
                    cache entry cap (oldest evicted beyond it)
  --read-phase-ms N budget to read one whole request (slowloris guard)
  --no-telemetry    disable per-request spans and histograms
client modes:
  --kernel <name> --arch <org> [--limit N] [--wall-ms N]
                    one SCHED request (org: central | clustered2 |
                    clustered4 | distributed); add --retries N
                    [--backoff-ms N] [--retry-seed N] to retry torn or
                    transient failures with seeded jittered backoff;
                    add --trace [--events N] [--full] to stream the
                    schedule's trace events as JSONL instead (under the
                    same --limit and --wall-ms)
  --stats           print the service counters JSON line
  --metrics         print the METRICS JSON line + Prometheus exposition
  --malformed       send a broken request; expect ERR malformed
  --bench-suite     the kernel suite twice; print both passes'
                    requests/sec, exit 1 unless every second-pass
                    reply hits the cache with the first-pass OK line
  --help            this text";

const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Every flag this binary reads.
const FLAGS: &[&str] = &[
    "--addr",
    "--arch",
    "--backoff-ms",
    "--bench-suite",
    "--cache",
    "--client",
    "--compact-bytes",
    "--compact-entries",
    "--durable",
    "--events",
    "--full",
    "--help",
    "--jobs",
    "--kernel",
    "--limit",
    "--malformed",
    "--metrics",
    "--no-telemetry",
    "--queue",
    "--read-phase-ms",
    "--retries",
    "--retry-seed",
    "--stats",
    "--step-limit",
    "--trace",
    "--wall-ms",
];

fn main() -> ExitCode {
    cli::main("serve", FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, CliError> {
    if args.has("--help") || args.is_empty() {
        println!("{HELP}");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(addr) = args.value("--addr")? {
        run_server(addr, args)
    } else if let Some(addr) = args.value("--client")? {
        run_client(addr, args)
    } else {
        Err(CliError::Usage(
            "need --addr (server) or --client (client); see --help".to_string(),
        ))
    }
}

fn run_server(addr: &str, args: &Args) -> Result<ExitCode, CliError> {
    let defaults = ServeConfig::default();
    let mut config = ServeConfig {
        cache_path: args.value("--cache")?.map(Into::into),
        durable: args.has("--durable"),
        wall_ms: args.num("--wall-ms")?,
        jobs: args.num("--jobs")?.unwrap_or(defaults.jobs),
        queue_cap: args.num("--queue")?.unwrap_or(defaults.queue_cap),
        step_limit: args.num("--step-limit")?.unwrap_or(defaults.step_limit),
        read_phase_ms: args
            .num("--read-phase-ms")?
            .unwrap_or(defaults.read_phase_ms),
        telemetry: !args.has("--no-telemetry"),
        ..defaults
    };
    let compaction = &mut config.compaction;
    compaction.max_journal_bytes = args
        .num("--compact-bytes")?
        .unwrap_or(compaction.max_journal_bytes);
    compaction.max_entries = args
        .num("--compact-entries")?
        .unwrap_or(compaction.max_entries);
    let (server, load) = match Server::bind(addr, config) {
        Ok(bound) => bound,
        Err(e) => {
            eprintln!("serve: cannot start on {addr}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "cache: {} entries, {} quarantined, {} corrupt lines, {} torn bytes repaired",
        load.entries, load.quarantined, load.corrupt_lines, load.repaired_bytes
    );
    // Flushed before the address so scripts can parse the last line.
    println!("listening on {}", server.addr());
    // Serve until killed; the cache journal is flushed per append, so an
    // abrupt SIGKILL here is exactly the crash-consistency test case.
    loop {
        std::thread::park();
    }
}

/// Runs one client mode against `addr` and prints the reply. Exit 1
/// when the exchange fails or the reply is an `ERR` (for `--malformed`:
/// anything but `ERR malformed`).
fn run_client(addr: &str, args: &Args) -> Result<ExitCode, CliError> {
    let reply = if args.has("--stats") {
        client_stats(addr, CLIENT_TIMEOUT).map(|stats| format!("{stats}\n"))
    } else if args.has("--metrics") {
        client_metrics(addr, CLIENT_TIMEOUT)
    } else if args.has("--malformed") {
        client_raw(addr, b"BOGUS request\n", CLIENT_TIMEOUT)
    } else if args.has("--bench-suite") {
        return Ok(match bench_suite(addr) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("serve: {e}");
                ExitCode::FAILURE
            }
        });
    } else if let Some(kernel_name) = args.value("--kernel")? {
        let kernel_text = ir_text::print(&cli::kernel(kernel_name)?.kernel);
        let arch_text =
            machine_text::print(&cli::arch(args.value("--arch")?.unwrap_or("distributed"))?);
        let limit = args.num("--limit")?;
        let wall_ms = args.num("--wall-ms")?;
        if args.has("--trace") {
            let events = args.num("--events")?;
            let full = args.has("--full");
            client_trace(
                addr,
                &kernel_text,
                &arch_text,
                limit,
                wall_ms,
                events,
                full,
                CLIENT_TIMEOUT,
            )
        } else if let Some(retries) = args.num("--retries")? {
            let retry = RetryConfig {
                retries,
                backoff_ms: args.num("--backoff-ms")?.unwrap_or(50),
                seed: args.num("--retry-seed")?.unwrap_or(0x5eed),
            };
            let (outcome, report) = client_request_retry(
                addr,
                &kernel_text,
                &arch_text,
                limit,
                wall_ms,
                CLIENT_TIMEOUT,
                &retry,
            );
            eprintln!(
                "retry: {} attempts, {} ms backoff{}",
                report.attempts,
                report.total_backoff_ms,
                if report.retried.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", report.retried.join("; "))
                }
            );
            outcome
        } else {
            client_request(
                addr,
                &kernel_text,
                &arch_text,
                limit,
                wall_ms,
                CLIENT_TIMEOUT,
            )
        }
    } else {
        return Err(CliError::Usage(
            "need a client mode; see --help".to_string(),
        ));
    };
    let reply = match reply {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("serve: request to {addr} failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    print!("{reply}");
    let ok = if args.has("--malformed") {
        reply.starts_with("ERR malformed")
    } else {
        !reply.lines().last().is_some_and(|l| l.starts_with("ERR "))
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Schedules the whole kernel suite against the four Imagine machines
/// twice and gates on the cache: the first pass fills it, and every
/// second-pass reply must be `CACHE hit` followed by that cell's
/// first-pass `OK` line, byte for byte. Both passes' rates and their
/// ratio are printed but not gated: the ratio moves with scheduler
/// speed, and perfbench's serve workload gates hit latency.
fn bench_suite(addr: &str) -> Result<(), String> {
    let archs = csched_machine::imagine::all_variants();
    let arch_texts: Vec<String> = archs.iter().map(machine_text::print).collect();
    let requests: Vec<(String, String, &String)> = csched_kernels::all()
        .iter()
        .flat_map(|w| {
            let kernel_text = ir_text::print(&w.kernel);
            archs.iter().zip(&arch_texts).map(move |(arch, arch_text)| {
                (
                    format!("{} on {}", w.kernel.name(), arch.name()),
                    kernel_text.clone(),
                    arch_text,
                )
            })
        })
        .collect();

    let pass = |label: &str| -> Result<(Vec<String>, f64), String> {
        let start = Instant::now();
        let mut replies = Vec::with_capacity(requests.len());
        for (_, kernel_text, arch_text) in &requests {
            let reply = client_request(addr, kernel_text, arch_text, None, None, CLIENT_TIMEOUT)
                .map_err(|e| format!("suite request: {e}"))?;
            replies.push(reply);
        }
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let rps = requests.len() as f64 / elapsed;
        let hits = replies
            .iter()
            .filter(|r| r.starts_with("CACHE hit\n"))
            .count();
        println!(
            "{label}: {} requests in {elapsed:.3}s = {rps:.1} req/s ({hits}/{} hit)",
            requests.len(),
            requests.len(),
        );
        Ok((replies, rps))
    };

    let (cold, cold_rps) = pass("cold")?;
    let (warm, warm_rps) = pass("warm")?;
    println!("warm/cold ratio: {:.1}x", warm_rps / cold_rps.max(1e-9));
    for ((cell, _, _), (first, second)) in requests.iter().zip(cold.iter().zip(&warm)) {
        let ok = match first.split_once('\n') {
            Some((_, ok)) if ok.starts_with("OK ") => ok,
            _ => return Err(format!("{cell}: first request failed: {first}")),
        };
        if *second != format!("CACHE hit\n{ok}") {
            return Err(format!(
                "FAIL: {cell}: second reply is not a hit of {ok:?}: {second:?}"
            ));
        }
    }
    Ok(())
}
