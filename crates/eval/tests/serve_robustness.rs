//! Robustness tests for the scheduler service: overload shedding,
//! corruption quarantine, crash-consistent restart, deadline handling,
//! and malformed-request rejection — each an ISSUE acceptance criterion.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use csched_eval::serve::{client_raw, client_request, client_stats, ServeConfig, Server};

mod common;
use common::{merge_request, tmp_path};

const TIMEOUT: Duration = Duration::from_secs(60);

fn fir_request() -> (String, String) {
    let w = csched_kernels::by_name("FIR-int").unwrap();
    (
        csched_ir::text::print(&w.kernel),
        csched_machine::text::print(&csched_machine::imagine::central()),
    )
}

/// Overload: with one worker pinned by a slow client and the one-slot
/// queue full, the next connection gets a typed `ERR overload` response
/// quickly — the server answers, it never hangs.
#[test]
fn overload_sheds_with_a_typed_response_and_never_hangs() {
    let config = ServeConfig {
        jobs: 1,
        queue_cap: 1,
        // Short I/O timeout so the deliberately stalled connections
        // below are reclaimed quickly after the assertion.
        io_timeout: Duration::from_millis(2_000),
        ..ServeConfig::default()
    };
    let (server, _) = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    // Pin the single worker with a connection that sends a partial
    // request (header, no body) and then stalls.
    let partial = b"SCHED\nKERNEL 10\n";
    let mut s1 = TcpStream::connect(addr).unwrap();
    s1.write_all(partial).unwrap();
    // Fill the single queue slot the same way. If the worker has not
    // claimed the first connection yet, the acceptor sheds this one
    // instead (we see its `ERR overload` bytes) — retry until it is
    // genuinely queued (the peek times out with nothing to read).
    let s2 = loop {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(partial).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut buf = [0u8; 1];
        match s.peek(&mut buf) {
            Ok(_) => std::thread::sleep(Duration::from_millis(50)), // shed; retry
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break s; // silence: admitted and waiting in the queue
            }
            Err(e) => panic!("unexpected peek error: {e}"),
        }
    };
    // Worker pinned, queue full: the next connection must be shed fast.
    let start = std::time::Instant::now();
    let response = client_raw(&addr.to_string(), b"STATS\n", Duration::from_secs(10)).unwrap();
    assert!(
        response.starts_with("ERR overload"),
        "expected typed shed, got: {response}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shedding must be immediate, took {:?}",
        start.elapsed()
    );

    // Closing the stalled connections frees the worker (its blocked
    // body read sees EOF) and the service recovers.
    drop(s1);
    drop(s2);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match client_stats(&addr.to_string(), TIMEOUT) {
            Ok(stats) if stats.starts_with('{') => break,
            _ if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            other => panic!("service never recovered from overload: {other:?}"),
        }
    }
    let stats = client_stats(&addr.to_string(), TIMEOUT).unwrap();
    // At least the probe was shed (setup retries may add more).
    assert!(
        stats.contains("\"shed\":") && !stats.contains("\"shed\":0,"),
        "shed counter recorded: {stats}"
    );
    server.shutdown();
}

/// Corruption quarantine: bit-flip one cached entry on disk; the restart
/// quarantines exactly that key (the rest still serve warm), the next
/// request for it re-schedules and re-journals, and a second restart
/// loads the healed entry.
#[test]
fn bit_flipped_cache_entry_is_quarantined_then_healed_by_rescheduling() {
    let path = tmp_path("quarantine.jsonl");
    let config = || ServeConfig {
        jobs: 2,
        cache_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let (merge_k, merge_a) = merge_request();
    let (fir_k, fir_a) = fir_request();
    let addr_of = |server: &Server| server.addr().to_string();

    // Populate two entries.
    let (server, load) = Server::bind("127.0.0.1:0", config()).unwrap();
    assert_eq!((load.entries, load.quarantined), (0, 0));
    let merge_cold =
        client_request(&addr_of(&server), &merge_k, &merge_a, None, None, TIMEOUT).unwrap();
    let fir_cold = client_request(&addr_of(&server), &fir_k, &fir_a, None, None, TIMEOUT).unwrap();
    assert!(merge_cold.starts_with("CACHE miss\nOK "), "{merge_cold}");
    assert!(fir_cold.starts_with("CACHE miss\nOK "), "{fir_cold}");
    server.shutdown();

    // Bit-flip the first entry's payload on disk.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    assert_eq!(lines.len(), 2);
    let flipped = lines[0].replacen("\"ii\":", "\"ii\":9", 1); // prefix a digit: value corrupted
    assert_ne!(flipped, lines[0]);
    lines[0] = flipped;
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

    // Restart: the corrupt key is quarantined, the clean one serves.
    let (server, load) = Server::bind("127.0.0.1:0", config()).unwrap();
    assert_eq!(load.entries, 1, "one clean entry survives");
    assert_eq!(load.quarantined, 1, "the corrupt key is quarantined");
    assert_eq!(load.corrupt_lines, 1);
    let fir_warm = client_request(&addr_of(&server), &fir_k, &fir_a, None, None, TIMEOUT).unwrap();
    assert!(
        fir_warm.starts_with("CACHE hit\n"),
        "clean entry must keep serving warm: {fir_warm}"
    );
    // The quarantined key misses, is re-scheduled, and matches the
    // original cold answer.
    let merge_requarantined =
        client_request(&addr_of(&server), &merge_k, &merge_a, None, None, TIMEOUT).unwrap();
    assert!(
        merge_requarantined.starts_with("CACHE miss\n"),
        "quarantined key must miss: {merge_requarantined}"
    );
    assert_eq!(
        merge_requarantined.trim_start_matches("CACHE miss\n"),
        merge_cold.trim_start_matches("CACHE miss\n"),
        "re-scheduling is deterministic"
    );
    let stats = client_stats(&addr_of(&server), TIMEOUT).unwrap();
    assert!(stats.contains("\"quarantined\":0"), "healed: {stats}");
    server.shutdown();

    // Second restart: the re-journaled entry wins over the corrupt line.
    let (server, load) = Server::bind("127.0.0.1:0", config()).unwrap();
    assert_eq!(load.entries, 2, "both keys clean after healing");
    assert_eq!(load.quarantined, 0);
    let merge_warm =
        client_request(&addr_of(&server), &merge_k, &merge_a, None, None, TIMEOUT).unwrap();
    assert!(merge_warm.starts_with("CACHE hit\n"), "{merge_warm}");
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Crash consistency: warm responses after a restart are byte-identical
/// to the responses before it (the cache key and entry rendering are
/// stable across processes).
#[test]
fn restart_serves_warm_hits_byte_identical_to_pre_restart() {
    let path = tmp_path("restart.jsonl");
    let config = || ServeConfig {
        jobs: 2,
        cache_path: Some(path.clone()),
        durable: true, // exercise the fsync path end to end
        ..ServeConfig::default()
    };
    let (kernel, arch) = merge_request();

    let (server, _) = Server::bind("127.0.0.1:0", config()).unwrap();
    let addr = server.addr().to_string();
    let cold = client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    let warm_before = client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    assert!(cold.starts_with("CACHE miss\n"), "{cold}");
    assert!(warm_before.starts_with("CACHE hit\n"), "{warm_before}");
    assert_eq!(
        cold.trim_start_matches("CACHE miss\n"),
        warm_before.trim_start_matches("CACHE hit\n"),
        "warm OK line is byte-identical to the cold one"
    );
    server.shutdown();

    let (server, load) = Server::bind("127.0.0.1:0", config()).unwrap();
    assert_eq!(load.entries, 1);
    let warm_after = client_request(
        &server.addr().to_string(),
        &kernel,
        &arch,
        None,
        None,
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(
        warm_after, warm_before,
        "restart must not change the answer"
    );
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// A request whose placement-attempt budget is too small to finish the
/// ladder gets a typed `ERR deadline`, not a hang or a panic — and is
/// not cached, so a follow-up with real budget succeeds.
#[test]
fn exhausted_budget_is_a_typed_deadline_error_and_not_cached() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let (kernel, arch) = merge_request();
    let starved = client_request(&addr, &kernel, &arch, Some(1), None, TIMEOUT).unwrap();
    assert!(
        starved.starts_with("ERR deadline"),
        "expected typed deadline error, got: {starved}"
    );
    let retry = client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    assert!(
        retry.starts_with("CACHE miss\nOK "),
        "failed request must not poison the cache: {retry}"
    );
    let stats = client_stats(&addr, TIMEOUT).unwrap();
    assert!(stats.contains("\"deadline\":1"), "{stats}");
    server.shutdown();
}

/// A limit spent exactly by a failing ladder rung is `ERR deadline`, as
/// a limit one step either side of it is, not that rung's `ERR sched`.
/// 300 independent adds in one block fail rung 0 (the service's
/// configuration, run alone) with `BlockFailed`; at a limit of exactly
/// that rung's spend no step is left for rung 1.
#[test]
fn a_limit_spent_by_a_failing_rung_is_err_deadline() {
    use csched_core::{schedule_kernel_budgeted, SchedError, SchedulerConfig, StepBudget};

    let mut kb = csched_ir::KernelBuilder::new("adds");
    let b = kb.straight_block("b");
    for _ in 0..300 {
        kb.push(b, csched_machine::Opcode::IAdd, [1i64.into(), 2i64.into()]);
    }
    let kernel = csched_ir::text::print(&kb.build().unwrap());
    let arch = csched_machine::text::print(&csched_machine::toy::motivating_example());
    let rung0 = StepBudget::unlimited();
    let first = schedule_kernel_budgeted(
        &csched_machine::text::parse(&arch).unwrap(),
        &csched_ir::text::parse(&kernel).unwrap(),
        SchedulerConfig::default(),
        &rung0,
    );
    assert!(
        matches!(first, Err(SchedError::BlockFailed { .. })),
        "{first:?}"
    );
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    for limit in [rung0.spent() - 1, rung0.spent(), rung0.spent() + 1] {
        let reply = client_request(&addr, &kernel, &arch, Some(limit), None, TIMEOUT).unwrap();
        assert!(reply.starts_with("ERR deadline "), "limit {limit}: {reply}");
    }
    server.shutdown();
}

/// A cached answer is served only at the step limit it was computed
/// under. Sort × distributed spends 3,166 steps, so a fresh server
/// answers `limit=3000` with `ERR deadline`; after a default-limit
/// request has cached the schedule, `limit=3000` still misses the cache
/// and answers `ERR deadline`, and the default entry keeps serving.
#[test]
fn a_cached_answer_is_served_only_at_its_own_step_limit() {
    let w = csched_kernels::by_name("Sort").unwrap();
    let kernel = csched_ir::text::print(&w.kernel);
    let arch = csched_machine::text::print(&csched_machine::imagine::distributed());
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let request = |limit| client_request(&addr, &kernel, &arch, limit, None, TIMEOUT).unwrap();
    let cold = request(None);
    assert!(cold.starts_with("CACHE miss\nOK "), "{cold}");
    let cut = request(Some(3_000));
    assert!(cut.starts_with("ERR deadline "), "{cut}");
    let stats = client_stats(&addr, TIMEOUT).unwrap();
    for needle in ["\"hits\":0", "\"misses\":1", "\"deadline\":1"] {
        assert!(stats.contains(needle), "missing {needle} in {stats}");
    }
    assert_eq!(request(None), cold.replacen("CACHE miss", "CACHE hit", 1));
    server.shutdown();
}

/// The cache holds one entry per (key, step limit), so a key asked at
/// two limits is served warm at both: Sort × distributed at the default
/// limit, at `limit=3166` (the steps it spends), at the default again
/// and at 3,166 again answers miss, miss, hit, hit, with two entries,
/// and a server reopened on the journal hits at both limits.
#[test]
fn a_key_asked_at_two_limits_is_cached_at_both() {
    let path = tmp_path("two-limits.jsonl");
    let config = || ServeConfig {
        cache_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let w = csched_kernels::by_name("Sort").unwrap();
    let kernel = csched_ir::text::print(&w.kernel);
    let arch = csched_machine::text::print(&csched_machine::imagine::distributed());
    let request = |server: &Server, limit| {
        let addr = server.addr().to_string();
        client_request(&addr, &kernel, &arch, limit, None, TIMEOUT).unwrap()
    };

    let limits = [None, Some(3_166)];

    let (server, _) = Server::bind("127.0.0.1:0", config()).unwrap();
    let cold = limits.map(|limit| request(&server, limit));
    for reply in &cold {
        assert!(reply.starts_with("CACHE miss\nOK "), "{reply}");
    }
    let hits_at_both = |server: &Server| {
        for (limit, cold) in limits.into_iter().zip(&cold) {
            assert_eq!(
                request(server, limit),
                cold.replacen("CACHE miss", "CACHE hit", 1)
            );
        }
    };
    hits_at_both(&server);
    let stats = client_stats(&server.addr().to_string(), TIMEOUT).unwrap();
    for needle in ["\"hits\":2", "\"misses\":2", "\"entries\":2"] {
        assert!(stats.contains(needle), "missing {needle} in {stats}");
    }
    server.shutdown();

    let (server, load) = Server::bind("127.0.0.1:0", config()).unwrap();
    assert_eq!(load.entries, 2);
    hits_at_both(&server);
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// A `wall_ms=` deadline can only stop the ladder, never shape its
/// answer: a request answers `ERR deadline` or the deadline-free line,
/// and every `OK` is cached. A deadline that has passed before the first
/// placement step (`wall_ms=0`) answers `ERR deadline` and caches
/// nothing; a deadline the ladder finishes well inside answers the
/// deadline-free line, which the next request then hits.
#[test]
fn a_wall_deadline_answers_err_deadline_or_the_deadline_free_answer() {
    let (kernel, arch) = merge_request();
    let fresh_server = || {
        Server::bind("127.0.0.1:0", ServeConfig::default())
            .unwrap()
            .0
    };
    let request =
        |addr: &str, wall_ms| client_request(addr, &kernel, &arch, None, wall_ms, TIMEOUT).unwrap();

    let server = fresh_server();
    let fresh = request(&server.addr().to_string(), None);
    server.shutdown();
    let ok = fresh.strip_prefix("CACHE miss\n").unwrap_or("");
    assert!(
        ok.starts_with("OK ") && ok.ends_with(" degraded=0\n"),
        "{fresh}"
    );

    let server = fresh_server();
    let addr = server.addr().to_string();
    let expired = request(&addr, Some(0));
    assert!(expired.starts_with("ERR deadline "), "{expired}");
    assert_eq!(request(&addr, None), fresh, "after wall_ms=0");
    server.shutdown();

    let server = fresh_server();
    let addr = server.addr().to_string();
    assert_eq!(request(&addr, Some(600_000)), fresh);
    assert_eq!(request(&addr, None), format!("CACHE hit\n{ok}"));
    server.shutdown();
}

/// Malformed requests of several shapes are rejected with one-line typed
/// errors and never take the service down; `TRACE` shares `SCHED`'s
/// framing and rejects the same shapes the same way.
#[test]
fn malformed_requests_get_typed_errors_and_service_survives() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let cases: [&[u8]; 8] = [
        b"BOGUS\n",
        b"SCHED frobnicate=1\nKERNEL 0\nARCH 0\nEND\n",
        b"SCHED\nKERNEL nine\n",
        b"SCHED\nKERNEL 7\nnot ir!ARCH 0\nEND\n",
        b"TRACE frobnicate=1\nKERNEL 0\nARCH 0\nEND\n",
        b"TRACE\nKERNEL nine\n",
        b"TRACE\nKERNEL 7\nnot ir!ARCH 0\nEND\n",
        b"\n",
    ];
    for request in cases {
        let response = client_raw(&addr, request, TIMEOUT).unwrap();
        assert!(
            response.starts_with("ERR malformed"),
            "request {:?} got: {response}",
            String::from_utf8_lossy(request)
        );
        assert_eq!(response.lines().count(), 1, "one-line error: {response}");
    }
    // The service still schedules fine afterwards.
    let (kernel, arch) = merge_request();
    let ok = client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    assert!(ok.starts_with("CACHE miss\nOK "), "{ok}");
    let stats = client_stats(&addr, TIMEOUT).unwrap();
    assert!(stats.contains("\"malformed\":8"), "{stats}");
    server.shutdown();
}

/// A machine text that once panicked the parser (`latency 0`) is a
/// typed `ERR malformed machine`, and the lone worker of a `jobs: 1`
/// server lives on to answer the next request.
#[test]
fn zero_latency_machine_is_malformed_and_the_worker_survives() {
    let config = ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    };
    let (server, _) = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.addr().to_string();
    let (kernel, arch) = merge_request();
    let bad = arch.replacen("latency 1", "latency 0", 1);
    assert_ne!(bad, arch);
    let rejected =
        client_request(&addr, &kernel, &bad, None, None, TIMEOUT).unwrap_or_else(|e| e.to_string());
    let ok = client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    assert!(ok.starts_with("CACHE miss\nOK "), "{ok}");
    assert!(rejected.starts_with("ERR malformed machine:"), "{rejected}");
    server.shutdown();
}

/// The server reuses the parse of payload bytes it has seen, yet the
/// cache key stays canonical: a kernel text padded with comments and
/// blank lines, and a machine text whose units are renamed, are new
/// bytes that hit the first request's entry with its `OK` line.
#[test]
fn reformatted_kernel_and_renamed_machine_hit_the_first_entry() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let request = |kernel: &str, arch: &str| {
        client_request(&addr, kernel, arch, None, None, TIMEOUT).unwrap()
    };
    let (kernel, arch) = merge_request();
    let cold = request(&kernel, &arch);
    assert!(cold.starts_with("CACHE miss\nOK "), "{cold}");
    let hit = cold.replacen("CACHE miss", "CACHE hit", 1);

    let padded: String = std::iter::once("; padded\n\n".to_string())
        .chain(kernel.lines().map(|l| format!("{l}  ; same kernel\n\n")))
        .collect();
    let renamed = arch.replace("ADD", "Adder");
    assert_ne!(renamed, arch);
    assert_eq!(request(&padded, &arch), hit, "padded kernel");
    assert_eq!(request(&kernel, &renamed), hit, "renamed units");
    assert_eq!(request(&padded, &renamed), hit, "both");
    server.shutdown();
}

/// A payload that fails to parse is never kept: after a good request, a
/// malformed kernel sent with that request's machine text, and a
/// malformed machine sent with its kernel text, answer the same
/// `ERR malformed` line as on a fresh server, every time, and with both
/// malformed the kernel's error answers.
#[test]
fn malformed_payloads_answer_as_on_a_fresh_server_after_a_good_request() {
    let (kernel, arch) = merge_request();
    let bad_kernel = kernel.replacen(" = ", " == ", 1);
    let bad_arch = arch.replacen("latency 1", "latency 0", 1);
    let on_fresh_server = |kernel: &str, arch: &str| {
        let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.addr().to_string();
        let reply = client_request(&addr, kernel, arch, None, None, TIMEOUT).unwrap();
        server.shutdown();
        reply
    };
    let kernel_err = on_fresh_server(&bad_kernel, &arch);
    let machine_err = on_fresh_server(&kernel, &bad_arch);
    assert!(
        kernel_err.starts_with("ERR malformed kernel: "),
        "{kernel_err}"
    );
    assert!(
        machine_err.starts_with("ERR malformed machine: "),
        "{machine_err}"
    );

    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let request = |kernel: &str, arch: &str| {
        client_request(&addr, kernel, arch, None, None, TIMEOUT).unwrap()
    };
    let ok = request(&kernel, &arch);
    assert!(ok.starts_with("CACHE miss\nOK "), "{ok}");
    for _ in 0..2 {
        assert_eq!(request(&bad_kernel, &arch), kernel_err);
        assert_eq!(request(&kernel, &bad_arch), machine_err);
        assert_eq!(request(&bad_kernel, &bad_arch), kernel_err);
    }
    assert_eq!(
        request(&kernel, &arch),
        ok.replacen("CACHE miss", "CACHE hit", 1)
    );
    server.shutdown();
}

/// The stats line always carries the full counter and cache sections.
#[test]
fn stats_reports_counters_and_cache_state() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let (kernel, arch) = fir_request();
    client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    let stats = client_stats(&addr, TIMEOUT).unwrap();
    for needle in [
        "\"ok\":2",
        "\"hits\":1",
        "\"misses\":1",
        "\"cache\":{\"entries\":1",
        "\"quarantined\":0",
    ] {
        assert!(stats.contains(needle), "missing {needle} in {stats}");
    }
    server.shutdown();
}
