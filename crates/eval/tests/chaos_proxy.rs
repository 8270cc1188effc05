//! Integration tests for the deterministic fault-injecting proxy
//! ([`csched_eval::chaosnet`]) fronting a live scheduler service:
//! clean passthrough, schedule determinism, retry-through-faults
//! eventual success, slowloris boundedness, and upstream swap across a
//! server restart.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use csched_eval::chaosnet::{ChaosNetConfig, ChaosProxy, FaultAction, FaultKind};
use csched_eval::serve::{
    client_request, client_request_retry, client_stats, response_complete, RetryConfig,
    ServeConfig, Server,
};

mod common;
use common::{merge_request, tmp_path};

const TIMEOUT: Duration = Duration::from_secs(30);

fn start_server(cache: Option<PathBuf>) -> Server {
    let config = ServeConfig {
        jobs: 2,
        queue_cap: 8,
        io_timeout: Duration::from_millis(2_000),
        cache_path: cache,
        ..ServeConfig::default()
    };
    let (server, _) = Server::bind("127.0.0.1:0", config).unwrap();
    server
}

fn ok_line(response: &str) -> &str {
    response
        .lines()
        .find(|l| l.starts_with("OK "))
        .unwrap_or_else(|| panic!("no OK line in {response:?}"))
}

/// A fault-free proxy is transparent: the scheduling answer through the
/// proxy is byte-identical to the direct answer, and STATS flows too.
#[test]
fn clean_proxy_is_byte_transparent() {
    let server = start_server(None);
    let proxy = ChaosProxy::start(
        ChaosNetConfig {
            fault_permille: 0,
            ..ChaosNetConfig::default()
        },
        server.addr(),
    )
    .unwrap();
    let (kernel, arch) = merge_request();

    let direct = client_request(
        &server.addr().to_string(),
        &kernel,
        &arch,
        None,
        None,
        TIMEOUT,
    )
    .unwrap();
    let proxied = client_request(
        &proxy.addr().to_string(),
        &kernel,
        &arch,
        None,
        None,
        TIMEOUT,
    )
    .unwrap();
    // The cold/warm CACHE line differs by design; the answer must not.
    assert_eq!(ok_line(&direct), ok_line(&proxied));
    assert!(proxied.starts_with("CACHE hit\n"), "{proxied:?}");

    let stats = client_stats(&proxy.addr().to_string(), TIMEOUT).unwrap();
    assert!(stats.contains("\"cache\""), "{stats:?}");

    // Every connection was logged, all Clean.
    let log = proxy.log();
    assert!(log.len() >= 2);
    assert!(log.iter().all(|r| r.action == FaultAction::Clean));
    proxy.shutdown();
    server.shutdown();
}

/// The proxy's live log matches the pure offline schedule — the fault
/// plan really is a function of (seed, connection index).
#[test]
fn live_fault_log_matches_offline_schedule() {
    let server = start_server(None);
    let config = ChaosNetConfig {
        seed: 77,
        fault_permille: 500,
        // Cheap, instant faults only: this test is about the log.
        kinds: vec![FaultKind::Disconnect, FaultKind::Truncate],
        ..ChaosNetConfig::default()
    };
    let offline: Vec<FaultAction> = (0..8).map(|i| config.action_for(i)).collect();
    let proxy = ChaosProxy::start(config, server.addr()).unwrap();
    let (kernel, arch) = merge_request();
    for _ in 0..8 {
        // Outcomes vary (some conns are severed); the log is the point.
        let _ = client_request(
            &proxy.addr().to_string(),
            &kernel,
            &arch,
            None,
            None,
            TIMEOUT,
        );
    }
    let log = proxy.log();
    assert_eq!(log.len(), 8);
    for (i, record) in log.iter().enumerate() {
        assert_eq!(record.conn_index, i as u64);
        assert_eq!(record.action, offline[i], "connection {i}");
    }
    proxy.shutdown();
    server.shutdown();
}

/// Against ~40% injected faults, a no-retry client demonstrably fails
/// while the retrying client reaches 100% eventual success — the core
/// resilience claim of the issue.
#[test]
fn retrying_client_succeeds_where_single_attempt_client_fails() {
    let config = ChaosNetConfig {
        seed: 9,
        fault_permille: 400,
        kinds: vec![
            FaultKind::Disconnect,
            FaultKind::TornWrite,
            FaultKind::Truncate,
        ],
        ..ChaosNetConfig::default()
    };
    // Preconditions on the (deterministic) schedule so the assertions
    // below cannot flake: the first 12 connections include a fault and
    // a clean slot, and no fault streak exceeds the retry budget.
    let schedule: Vec<FaultAction> = (0..64).map(|i| config.action_for(i)).collect();
    assert!(schedule[..12].iter().any(|a| *a != FaultAction::Clean));
    assert!(schedule[..12].contains(&FaultAction::Clean));
    let longest_streak = schedule
        .split(|a| *a == FaultAction::Clean)
        .map(<[FaultAction]>::len)
        .max()
        .unwrap_or(0);
    assert!(
        longest_streak <= 6,
        "streak {longest_streak} exceeds retry budget"
    );

    let server = start_server(None);
    let proxy = ChaosProxy::start(config, server.addr()).unwrap();
    let (kernel, arch) = merge_request();
    let addr = proxy.addr().to_string();

    // Phase 1 — no retries: some of the first 12 requests must fail.
    let mut failures = 0usize;
    for _ in 0..12 {
        match client_request(&addr, &kernel, &arch, None, None, TIMEOUT) {
            Ok(response) if response_complete(&response) && !response.contains("ERR ") => {}
            _ => failures += 1,
        }
    }
    assert!(failures > 0, "the no-retry client must demonstrably fail");

    // Phase 2 — with retries: every request eventually succeeds.
    let retry = RetryConfig {
        retries: 6,
        backoff_ms: 5,
        seed: 0xfeed,
    };
    for round in 0..12 {
        let (outcome, report) =
            client_request_retry(&addr, &kernel, &arch, None, None, TIMEOUT, &retry);
        let response = outcome.unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(response_complete(&response), "round {round}: {response:?}");
        assert!(
            response.contains("\nOK "),
            "round {round} ended in error: {response:?} after {report:?}"
        );
    }
    // The proxy must actually have injected something during all that.
    assert!(proxy.log().iter().any(|r| r.action != FaultAction::Clean));
    proxy.shutdown();
    server.shutdown();
}

/// A slowloris connection cannot pin a server worker past the read
/// phase budget: the server answers `ERR malformed` within the budget
/// and the next (clean, direct) request is served promptly.
#[test]
fn slowloris_is_cut_off_by_the_read_phase_budget() {
    let config = ServeConfig {
        jobs: 1,
        queue_cap: 2,
        read_phase_ms: 600,
        io_timeout: Duration::from_millis(2_000),
        ..ServeConfig::default()
    };
    let (server, _) = Server::bind("127.0.0.1:0", config).unwrap();
    let chaos = ChaosNetConfig {
        fault_permille: 1000,
        kinds: vec![FaultKind::Slowloris],
        slow_tick_ms: 100,
        slow_max_bytes: 10_000, // would take ~17 minutes to drip fully
        ..ChaosNetConfig::default()
    };
    let proxy = ChaosProxy::start(chaos, server.addr()).unwrap();
    let (kernel, arch) = merge_request();

    let started = Instant::now();
    let dripped = client_request(
        &proxy.addr().to_string(),
        &kernel,
        &arch,
        None,
        None,
        TIMEOUT,
    );
    let elapsed = started.elapsed();
    // The server must cut the drip off with a typed response (or sever
    // the socket) well inside the timeout — never serve it to the end.
    assert!(
        elapsed < Duration::from_secs(10),
        "slowloris pinned the worker for {elapsed:?}"
    );
    if let Ok(response) = &dripped {
        assert!(
            response.is_empty() || response.starts_with("ERR malformed"),
            "unexpected slowloris response: {response:?}"
        );
    }

    // The worker is free: a direct clean request completes.
    let direct = client_request(
        &server.addr().to_string(),
        &kernel,
        &arch,
        None,
        None,
        TIMEOUT,
    )
    .unwrap();
    assert!(direct.contains("\nOK "), "{direct:?}");
    proxy.shutdown();
    server.shutdown();
}

/// `set_upstream` carries one proxy (and its fault schedule) across a
/// server restart: the restarted server answers warm, byte-identically,
/// through the same proxy.
#[test]
fn upstream_swap_survives_server_restart() {
    let cache = tmp_path("swap.jsonl");
    let server1 = start_server(Some(cache.clone()));
    let proxy = ChaosProxy::start(
        ChaosNetConfig {
            fault_permille: 0,
            ..ChaosNetConfig::default()
        },
        server1.addr(),
    )
    .unwrap();
    let (kernel, arch) = merge_request();
    let addr = proxy.addr().to_string();

    let cold = client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    assert!(cold.starts_with("CACHE miss\n"), "{cold:?}");
    server1.shutdown();

    // Upstream gone: the proxy severs rather than hanging the client.
    let during = client_request(&addr, &kernel, &arch, None, None, TIMEOUT);
    assert!(
        match &during {
            Ok(r) => r.is_empty(),
            Err(_) => true,
        },
        "expected a fast failure while upstream is down, got {during:?}"
    );

    let server2 = start_server(Some(cache.clone()));
    proxy.set_upstream(server2.addr());
    let warm = client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    assert!(warm.starts_with("CACHE hit\n"), "{warm:?}");
    assert_eq!(
        ok_line(&cold),
        ok_line(&warm),
        "warm must be byte-identical"
    );
    proxy.shutdown();
    server2.shutdown();
    let _ = std::fs::remove_file(&cache);
}
