//! `soak` — seeded chaos soak harness for the scheduler service.
//!
//! Spawns the real `serve` binary as a child process, puts a
//! deterministic fault-injecting proxy ([`csched_eval::chaosnet`]) in
//! front of it, and drives seeded mixed good/evil clients through the
//! proxy while periodically SIGKILLing and restarting the server.
//! At the end it asserts the service's robustness invariants:
//!
//! - the retrying clients reach **100% eventual success** while the
//!   no-retry control client demonstrably fails;
//! - `attempts <= step limit` on every single response;
//! - after the final SIGKILL + restart the cache reports
//!   **zero quarantined** and zero corrupt lines, and serves every key
//!   **byte-identically** to the first answer recorded for it;
//! - journal **compaction** actually ran (when the thresholds say it
//!   must);
//! - no worker is left hung — a full clean pass over every key
//!   completes after the storm.
//!
//! Exit codes: 0 all invariants held, 1 invariant violations (each
//! printed), 2 setup/usage error. The whole run — fault schedule,
//! retry jitter, client mix — derives from `--seed`, so any failure
//! reproduces by re-running with the same flags.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use csched_core::faultinject::ChaosRng;
use csched_eval::chaosnet::{ChaosNetConfig, ChaosProxy, FaultAction, FaultKind};
use csched_eval::cli::{self, Args, CliError};
use csched_eval::jsonl::{num, num_field};
use csched_eval::serve::{
    client_request, client_request_retry, client_stats, response_complete, RetryConfig,
};

const HELP: &str = "usage: soak [flags]
  --seed N             master seed for faults, jitter, client mix (default 3405691582)
  --clients N          concurrent retrying clients (default 4)
  --rounds N           passes each client makes over the key set (default 3)
  --fault-permille N   fraction of proxied connections faulted (default 200)
  --kills N            mid-run SIGKILL+restart cycles (default 1)
  --step-limit N       per-request placement-attempt budget (default 200000)
  --retries N          retry budget per request (default 6)
  --backoff-ms N       base backoff, exponential with full jitter (default 50)
  --compact-bytes N    journal byte threshold for compaction (default 4194304)
  --compact-entries N  cache entry cap, evicts oldest beyond it (default 8)
  --read-phase-ms N    server budget to read one whole request (default 2000)
  --require-faults a,b fault kinds that must appear in the proxy log
                       (latency|disconnect|torn-write|slowloris|truncate)
  --cache PATH         cache journal path (default: temp file per run)
  --server-bin PATH    serve binary (default: sibling of this binary)
  --help               this text";

const TIMEOUT: Duration = Duration::from_secs(60);

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------

struct Plan {
    seed: u64,
    clients: u64,
    rounds: u64,
    fault_permille: u32,
    kills: u64,
    step_limit: u64,
    retries: u32,
    backoff_ms: u64,
    compact_bytes: u64,
    compact_entries: u64,
    read_phase_ms: u64,
    require_faults: Vec<FaultKind>,
    cache: PathBuf,
    server_bin: PathBuf,
}

fn parse_plan(args: &Args) -> Result<Plan, CliError> {
    let mut plan = Plan {
        seed: args.num("--seed")?.unwrap_or(0xCAFE_BABE),
        clients: args.num("--clients")?.unwrap_or(4).max(1),
        rounds: args.num("--rounds")?.unwrap_or(3).max(1),
        fault_permille: args.num("--fault-permille")?.unwrap_or(200),
        kills: args.num("--kills")?.unwrap_or(1),
        step_limit: args.num("--step-limit")?.unwrap_or(200_000),
        retries: args.num("--retries")?.unwrap_or(6),
        backoff_ms: args.num("--backoff-ms")?.unwrap_or(50),
        compact_bytes: args.num("--compact-bytes")?.unwrap_or(1 << 22),
        compact_entries: args.num("--compact-entries")?.unwrap_or(8),
        read_phase_ms: args.num("--read-phase-ms")?.unwrap_or(2_000),
        require_faults: Vec::new(),
        cache: match args.value("--cache")? {
            Some(path) => PathBuf::from(path),
            None => std::env::temp_dir().join(format!("csched-soak-{}.jsonl", std::process::id())),
        },
        server_bin: match args.value("--server-bin")? {
            Some(path) => PathBuf::from(path),
            None => std::env::current_exe()
                .ok()
                .and_then(|exe| Some(exe.parent()?.join("serve")))
                .ok_or_else(|| {
                    CliError::Usage("cannot locate the serve binary; pass --server-bin".into())
                })?,
        },
    };
    if let Some(list) = args.value("--require-faults")? {
        for name in list.split(',').filter(|s| !s.is_empty()) {
            let kind = FaultKind::from_name(name).ok_or_else(|| {
                CliError::Usage(format!("unknown fault kind {name} in --require-faults"))
            })?;
            plan.require_faults.push(kind);
        }
    }
    if !plan.server_bin.exists() {
        return Err(CliError::Usage(format!(
            "serve binary not found at {} (pass --server-bin)",
            plan.server_bin.display()
        )));
    }
    Ok(plan)
}

// ---------------------------------------------------------------------
// Child server management
// ---------------------------------------------------------------------

struct ChildServer {
    child: Child,
    addr: SocketAddr,
    /// The `cache: E entries, Q quarantined, C corrupt lines, …` load
    /// line the server printed on startup.
    cache_line: String,
    /// Kept open so the child's stdout pipe outlives the parse.
    _stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_server(plan: &Plan) -> Result<ChildServer, String> {
    let mut child = Command::new(&plan.server_bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--cache",
            &plan.cache.display().to_string(),
            "--jobs",
            "2",
            "--queue",
            "16",
            "--step-limit",
            &plan.step_limit.to_string(),
            "--compact-bytes",
            &plan.compact_bytes.to_string(),
            "--compact-entries",
            &plan.compact_entries.to_string(),
            "--read-phase-ms",
            &plan.read_phase_ms.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", plan.server_bin.display()))?;
    let stdout = child.stdout.take().ok_or("child stdout was not captured")?;
    let mut reader = BufReader::new(stdout);
    let mut cache_line = String::new();
    let addr = loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading server startup output: {e}"))?;
        if n == 0 {
            let _ = child.kill();
            return Err("server exited before printing its address".to_string());
        }
        if line.starts_with("cache: ") {
            cache_line = line.trim_end().to_string();
        }
        if let Some(rest) = line.trim_end().strip_prefix("listening on ") {
            break rest
                .parse()
                .map_err(|e| format!("bad server address {rest}: {e}"))?;
        }
    };
    Ok(ChildServer {
        child,
        addr,
        cache_line,
        _stdout: reader,
    })
}

/// SIGKILL the child — the crash under test, not a graceful stop.
fn kill_server(mut server: ChildServer) {
    let _ = server.child.kill();
    let _ = server.child.wait();
}

// ---------------------------------------------------------------------
// Request keys and response lines
// ---------------------------------------------------------------------

struct RequestKey {
    label: String,
    kernel_text: String,
    arch_text: String,
}

fn request_keys() -> Result<Vec<RequestKey>, CliError> {
    let mut keys = Vec::new();
    for kernel in ["Merge", "FIR-int", "Sort", "DCT"] {
        let kernel_text = csched_ir::text::print(&cli::kernel(kernel)?.kernel);
        for arch in ["central", "clustered4", "distributed"] {
            keys.push(RequestKey {
                label: format!("{kernel}/{arch}"),
                kernel_text: kernel_text.clone(),
                arch_text: csched_machine::text::print(&cli::arch(arch)?),
            });
        }
    }
    Ok(keys)
}

fn ok_line(response: &str) -> Option<&str> {
    response.lines().find(|l| l.starts_with("OK "))
}

// ---------------------------------------------------------------------
// The soak itself
// ---------------------------------------------------------------------

struct Shared {
    proxy_addr: String,
    step_limit: u64,
    retry_base: RetryConfig,
    /// First OK line recorded per key label; later answers must match.
    first_answers: Mutex<HashMap<String, String>>,
    violations: Mutex<Vec<String>>,
    completed: AtomicU64,
    retried_total: AtomicU64,
    backoff_total_ms: AtomicU64,
}

impl Shared {
    fn violate(&self, message: String) {
        lock(&self.violations).push(message);
    }

    /// Record/verify an OK response for `label`; returns false when the
    /// response is not a complete success.
    fn book_response(&self, label: &str, response: &str) -> bool {
        if !response_complete(response) {
            return false;
        }
        let Some(ok) = ok_line(response) else {
            return false;
        };
        match ok_attempts(ok) {
            Some(attempts) if attempts <= self.step_limit => {}
            Some(attempts) => {
                self.violate(format!(
                    "{label}: spent {attempts} attempts over the {} limit",
                    self.step_limit
                ));
            }
            None => self.violate(format!("{label}: OK line without attempts: {ok}")),
        }
        let mut first = lock(&self.first_answers);
        match first.get(label) {
            None => {
                first.insert(label.to_string(), ok.to_string());
            }
            Some(prev) if prev != ok => {
                self.violate(format!(
                    "{label}: answer changed mid-run: {prev:?} vs {ok:?}"
                ));
            }
            Some(_) => {}
        }
        true
    }
}

/// The `attempts=N` count of an `OK` response line.
fn ok_attempts(ok: &str) -> Option<u64> {
    let at = ok.find("attempts=")? + "attempts=".len();
    num(&ok[at..])
}

fn good_client(shared: &Shared, keys: &[RequestKey], rounds: u64, client_index: u64) {
    let mut seeds = ChaosRng::substream(shared.retry_base.seed, 7_000 + client_index);
    for round in 0..rounds {
        for key in keys {
            let retry = RetryConfig {
                seed: seeds.next_u64(),
                ..shared.retry_base
            };
            let (outcome, report) = client_request_retry(
                &shared.proxy_addr,
                &key.kernel_text,
                &key.arch_text,
                None,
                None,
                TIMEOUT,
                &retry,
            );
            shared.retried_total.fetch_add(
                u64::from(report.attempts.saturating_sub(1)),
                Ordering::Relaxed,
            );
            shared
                .backoff_total_ms
                .fetch_add(report.total_backoff_ms, Ordering::Relaxed);
            let booked = match &outcome {
                Ok(response) => shared.book_response(&key.label, response),
                Err(_) => false,
            };
            if !booked {
                shared.violate(format!(
                    "client {client_index} round {round} {}: no eventual success after \
                     {} attempts ({:?} / retried {:?})",
                    key.label, report.attempts, outcome, report.retried
                ));
            }
            shared.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Evil clients: protocol abusers aimed through the proxy. None of
/// them should wedge a worker or corrupt anyone else's answer.
fn evil_client(proxy_addr: &str, seed: u64, iterations: u64) {
    let mut rng = ChaosRng::substream(seed, 13_000);
    for i in 0..iterations {
        match i % 3 {
            // Garbage bytes, then read whatever comes back.
            0 => {
                if let Ok(mut s) = TcpStream::connect(proxy_addr) {
                    let junk: Vec<u8> = (0..64).map(|_| (rng.next_u64() & 0xff) as u8).collect();
                    let _ = s.write_all(&junk);
                    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
                    let mut sink = [0u8; 256];
                    let _ = std::io::Read::read(&mut s, &mut sink);
                }
            }
            // Manual slowloris: drip a real-looking header one byte at
            // a time, slower than the server should tolerate.
            1 => {
                if let Ok(mut s) = TcpStream::connect(proxy_addr) {
                    for byte in b"SCHED\nKERNEL 4096\n" {
                        if s.write_all(std::slice::from_ref(byte)).is_err() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(40));
                    }
                }
            }
            // Half-open: partial request, then silence and close.
            _ => {
                if let Ok(mut s) = TcpStream::connect(proxy_addr) {
                    let _ = s.write_all(b"SCHED\nKERNEL 10\n");
                    std::thread::sleep(Duration::from_millis(300));
                }
            }
        }
    }
}

struct Summary {
    requests: u64,
    retried: u64,
    backoff_ms: u64,
    kills: u64,
    compactions: u64,
    control_failures: u64,
    faults_by_kind: Vec<(FaultKind, usize)>,
}

#[allow(clippy::too_many_lines)]
fn soak(plan: &Plan) -> Result<(Summary, Vec<String>), String> {
    let _ = std::fs::remove_file(&plan.cache);
    let keys = request_keys().map_err(|e| e.to_string())?;

    let chaos = ChaosNetConfig {
        seed: plan.seed,
        fault_permille: plan.fault_permille,
        ..ChaosNetConfig::default()
    };
    // Deterministic precondition: the control window must contain both
    // a fault and a clean slot, or the control-phase assertions are
    // meaningless for this seed.
    let control_window = 12u64;
    let schedule: Vec<FaultAction> = (0..control_window).map(|i| chaos.action_for(i)).collect();
    if plan.fault_permille > 0 && schedule.iter().all(|a| *a == FaultAction::Clean) {
        return Err(format!(
            "seed {} injects no fault in the first {control_window} connections; \
             pick another seed",
            plan.seed
        ));
    }
    if !schedule.contains(&FaultAction::Clean) {
        return Err(format!(
            "seed {} leaves no clean connection in the control window",
            plan.seed
        ));
    }

    let mut server = spawn_server(plan)?;
    let proxy =
        ChaosProxy::start(chaos, server.addr).map_err(|e| format!("starting proxy: {e}"))?;
    let proxy_addr = proxy.addr().to_string();

    // ---- Phase A: no-retry control client ----------------------------
    // Sequential requests over the deterministic fault window: without
    // retries, at least one must fail (faults are real), and at least
    // one must succeed (the service works).
    let control_key = keys.first().ok_or("empty key set")?;
    let mut control_failures = 0u64;
    let mut control_successes = 0u64;
    for _ in 0..control_window {
        let outcome = client_request(
            &proxy_addr,
            &control_key.kernel_text,
            &control_key.arch_text,
            None,
            None,
            TIMEOUT,
        );
        match outcome {
            Ok(response) if response_complete(&response) && ok_line(&response).is_some() => {
                control_successes += 1;
            }
            _ => control_failures += 1,
        }
    }
    let mut violations = Vec::new();
    if plan.fault_permille > 0 && control_failures == 0 {
        violations
            .push("control: the no-retry client never failed against injected faults".to_string());
    }
    if control_successes == 0 {
        violations.push("control: the no-retry client never succeeded".to_string());
    }

    // ---- Phase B: retry storm with SIGKILL+restart cycles ------------
    let shared = Arc::new(Shared {
        proxy_addr: proxy_addr.clone(),
        step_limit: plan.step_limit,
        retry_base: RetryConfig {
            retries: plan.retries,
            backoff_ms: plan.backoff_ms,
            seed: plan.seed,
        },
        first_answers: Mutex::new(HashMap::new()),
        violations: Mutex::new(std::mem::take(&mut violations)),
        completed: AtomicU64::new(0),
        retried_total: AtomicU64::new(0),
        backoff_total_ms: AtomicU64::new(0),
    });
    let keys = Arc::new(keys);
    let mut workers = Vec::new();
    for client_index in 0..plan.clients {
        let shared = Arc::clone(&shared);
        let keys = Arc::clone(&keys);
        let rounds = plan.rounds;
        let handle = std::thread::Builder::new()
            .name(format!("soak-good-{client_index}"))
            .spawn(move || good_client(&shared, &keys, rounds, client_index))
            .map_err(|e| format!("spawning client thread: {e}"))?;
        workers.push(handle);
    }
    let evil = {
        let addr = proxy_addr.clone();
        let seed = plan.seed;
        let iterations = 3 * plan.rounds;
        std::thread::Builder::new()
            .name("soak-evil".to_string())
            .spawn(move || evil_client(&addr, seed, iterations))
            .map_err(|e| format!("spawning evil thread: {e}"))?
    };

    // Kill+restart when the completed-request counter crosses evenly
    // spaced thresholds — guaranteed mid-run, independent of timing.
    let total_requests = plan.clients * plan.rounds * keys.len() as u64;
    let mut compactions_total = 0u64;
    let mut kills_done = 0u64;
    while workers.iter().any(|w| !w.is_finished()) {
        let done = shared.completed.load(Ordering::Relaxed);
        let next_threshold = (kills_done + 1) * total_requests / (plan.kills + 1);
        if kills_done < plan.kills && done >= next_threshold && done < total_requests {
            if let Ok(stats) = client_stats(&server.addr.to_string(), TIMEOUT) {
                compactions_total += num_field(&stats, "compactions").unwrap_or(0);
            }
            kill_server(server);
            server = spawn_server(plan)?;
            proxy.set_upstream(server.addr);
            kills_done += 1;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    for worker in workers {
        let _ = worker.join();
    }
    let _ = evil.join();
    if kills_done < plan.kills {
        // The storm outran the thresholds (tiny run): take the missing
        // kills now, before the verification pass.
        while kills_done < plan.kills {
            if let Ok(stats) = client_stats(&server.addr.to_string(), TIMEOUT) {
                compactions_total += num_field(&stats, "compactions").unwrap_or(0);
            }
            kill_server(server);
            server = spawn_server(plan)?;
            proxy.set_upstream(server.addr);
            kills_done += 1;
        }
    }

    // ---- Phase C: verification --------------------------------------
    // Snapshot compactions of the surviving process, then one final
    // SIGKILL+restart: the reopened cache must be fully healed.
    if let Ok(stats) = client_stats(&server.addr.to_string(), TIMEOUT) {
        compactions_total += num_field(&stats, "compactions").unwrap_or(0);
    }
    kill_server(server);
    let server = spawn_server(plan)?;
    proxy.set_upstream(server.addr);

    let mut violations = lock(&shared.violations).clone();
    let healed = server
        .cache_line
        .contains(" 0 quarantined, 0 corrupt lines");
    if !healed {
        violations.push(format!(
            "after final SIGKILL+restart the cache is not healed: {}",
            server.cache_line
        ));
    }

    // Warm pass, direct to the server (no faults): every key answers,
    // byte-identically to the first recorded answer. This doubles as
    // the no-hung-worker check — a wedged worker pool cannot complete
    // a full pass.
    let first = lock(&shared.first_answers).clone();
    for key in keys.iter() {
        let outcome = client_request(
            &server.addr.to_string(),
            &key.kernel_text,
            &key.arch_text,
            None,
            None,
            TIMEOUT,
        );
        let response = match outcome {
            Ok(r) => r,
            Err(e) => {
                violations.push(format!("warm pass {}: {e}", key.label));
                continue;
            }
        };
        let Some(warm) = ok_line(&response) else {
            violations.push(format!("warm pass {}: {response:?}", key.label));
            continue;
        };
        match first.get(&key.label) {
            Some(cold) if cold != warm => violations.push(format!(
                "{}: warm answer diverged: cold {cold:?} vs warm {warm:?}",
                key.label
            )),
            Some(_) => {}
            None => violations.push(format!(
                "{}: never successfully scheduled during the storm",
                key.label
            )),
        }
    }
    if let Ok(stats) = client_stats(&server.addr.to_string(), TIMEOUT) {
        if num_field(&stats, "quarantined") != Some(0) {
            violations.push(format!("quarantined != 0 after heal: {stats}"));
        }
    } else {
        violations.push("final STATS request failed".to_string());
    }

    // Compaction must have fired when the entry cap demands it.
    let expects_compaction = (keys.len() as u64) > plan.compact_entries;
    if expects_compaction && compactions_total == 0 {
        violations.push(format!(
            "no compaction ran despite {} keys over the {}-entry cap",
            keys.len(),
            plan.compact_entries
        ));
    }

    // Required fault kinds must actually have *fired* — the proxy's
    // injection counters increment at relay time, not at schedule time,
    // so a fault planned against a dead upstream doesn't satisfy the
    // requirement.
    println!("soak: proxy {}", proxy.stats_line());
    let faults_by_kind: Vec<(FaultKind, usize)> = proxy
        .fault_counts()
        .iter()
        .map(|&(k, n)| (k, n as usize))
        .collect();
    for kind in &plan.require_faults {
        let seen = proxy.injected(*kind);
        if seen == 0 {
            violations.push(format!(
                "required fault kind {} was never injected (seed {})",
                kind.name(),
                plan.seed
            ));
        }
    }

    kill_server(server);
    proxy.shutdown();
    let summary = Summary {
        requests: shared.completed.load(Ordering::Relaxed),
        retried: shared.retried_total.load(Ordering::Relaxed),
        backoff_ms: shared.backoff_total_ms.load(Ordering::Relaxed),
        kills: kills_done + 1,
        compactions: compactions_total,
        control_failures,
        faults_by_kind,
    };
    Ok((summary, violations))
}

fn main() -> ExitCode {
    cli::main("soak", |args| {
        if args.has("--help") {
            println!("{HELP}");
            return Ok(ExitCode::SUCCESS);
        }
        let plan = parse_plan(args)?;
        let (summary, violations) = match soak(&plan) {
            Ok(outcome) => outcome,
            Err(message) => {
                eprintln!("soak: setup failed: {message}");
                return Ok(ExitCode::from(2));
            }
        };
        let faults: Vec<String> = summary
            .faults_by_kind
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(k, n)| format!("{}x{n}", k.name()))
            .collect();
        println!(
            "soak: {} requests ({} retried, {} ms backoff), {} control failures, \
             {} SIGKILLs, {} compactions, faults [{}]",
            summary.requests,
            summary.retried,
            summary.backoff_ms,
            summary.control_failures,
            summary.kills,
            summary.compactions,
            faults.join(", ")
        );
        if violations.is_empty() {
            println!("soak: all invariants held");
            return Ok(ExitCode::SUCCESS);
        }
        for violation in &violations {
            eprintln!("soak: VIOLATION: {violation}");
        }
        Ok(ExitCode::FAILURE)
    })
}
