//! Wire-level telemetry acceptance tests:
//!
//! - `TRACE` streams the motivating example's decision trace
//!   byte-identical to the core golden JSONL (modulo the injected
//!   `"req"` field) and terminates with the summary + status lines;
//! - the `events=` cap bounds the stream and reports truncation;
//! - `METRICS` returns a parseable JSON line plus a grammar-valid
//!   Prometheus exposition whose counts reflect the served requests;
//! - span accounting: per-stage durations sum to at most the span's
//!   total wall time, for every span the server retains;
//! - `STATS` carries the schema version and a monotonic uptime;
//! - deadline-outcome requests land in the histograms and span ring.

use std::time::Duration;

use csched_eval::jsonl::{elements, field, num_field};
use csched_eval::serve::{
    client_metrics, client_request, client_stats, client_trace, ServeConfig, Server,
    TRACE_EVENT_CAP,
};
use csched_eval::telemetry::{validate_prometheus, MetricsSnapshot};
use csched_ir::{Kernel, KernelBuilder};

mod common;
use common::merge_request;

const TIMEOUT: Duration = Duration::from_secs(60);

/// Figure 4 of the paper, as in `core/tests/trace_golden.rs`: the
/// kernel whose trace the PR-2 golden file records.
fn figure4() -> Kernel {
    let mut kb = KernelBuilder::new("fig4");
    let mem = kb.region("mem", true);
    let b = kb.straight_block("b");
    let a = kb.load(b, mem, 0i64.into(), 0i64.into());
    let bv = kb.push(b, csched_machine::Opcode::IAdd, [1i64.into(), 2i64.into()]);
    let cv = kb.push(b, csched_machine::Opcode::IAdd, [3i64.into(), 4i64.into()]);
    let s4 = kb.push(b, csched_machine::Opcode::IAdd, [a.into(), bv.into()]);
    let s5 = kb.push(b, csched_machine::Opcode::IAdd, [a.into(), cv.into()]);
    kb.store(b, mem, 10i64.into(), 0i64.into(), s4.into());
    kb.store(b, mem, 11i64.into(), 0i64.into(), s5.into());
    kb.build().unwrap()
}

fn figure4_request() -> (String, String) {
    (
        csched_ir::text::print(&figure4()),
        csched_machine::text::print(&csched_machine::toy::motivating_example()),
    )
}

/// Drops the injected `"req":N,` field from a streamed trace line,
/// recovering the core `TraceEvent::to_json` encoding.
fn strip_req(line: &str) -> String {
    let rest = line
        .strip_prefix("{\"req\":")
        .unwrap_or_else(|| panic!("trace line missing req field: {line}"));
    let comma = rest.find(',').expect("req field is never last");
    format!("{{{}", &rest[comma + 1..])
}

/// The acceptance criterion: issuing `TRACE` for the motivating example
/// streams, over the wire, the exact decision trace the PR-2 golden
/// file pinned — the service added transport, not interpretation.
#[test]
fn trace_streams_the_motivating_example_golden_byte_identically() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let (kernel, arch) = figure4_request();
    let response = client_trace(&addr, &kernel, &arch, None, None, None, false, TIMEOUT).unwrap();

    let mut got = String::new();
    let mut tail = Vec::new();
    for line in response.lines() {
        if line.starts_with('{') {
            got.push_str(&strip_req(line));
            got.push('\n');
        } else {
            tail.push(line.to_string());
        }
    }
    assert_eq!(tail.len(), 2, "want summary + status lines, got {tail:?}");
    assert!(
        tail[0].starts_with("TRACE end ") && tail[0].ends_with("truncated=0"),
        "unexpected summary: {}",
        tail[0]
    );
    assert!(
        tail[1].starts_with("OK ii="),
        "unexpected status: {}",
        tail[1]
    );

    let want = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../core/tests/golden/motivating_trace.jsonl"
    ))
    .expect("core golden trace present");
    assert_eq!(
        got, want,
        "wire trace diverged from the core golden JSONL (modulo req ids)"
    );
    server.shutdown();
}

/// `events=` caps the stream: the response carries exactly that many
/// JSONL lines, reports `truncated=1`, and still ends with a status.
#[test]
fn trace_event_cap_bounds_the_stream_and_reports_truncation() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let (kernel, arch) = figure4_request();
    let response =
        client_trace(&addr, &kernel, &arch, None, None, Some(3), false, TIMEOUT).unwrap();

    let events = response.lines().filter(|l| l.starts_with('{')).count();
    assert_eq!(events, 3, "cap must bound the stream:\n{response}");
    let summary = response
        .lines()
        .find(|l| l.starts_with("TRACE end "))
        .expect("summary line");
    assert!(
        summary.contains("events=3") && summary.ends_with("truncated=1"),
        "unexpected summary: {summary}"
    );
    assert!(
        response
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("OK ii=")),
        "capped trace still answers:\n{response}"
    );

    // The client `events=` can only tighten the server-side cap: a full
    // stream longer than the cap is clamped to it.
    let w = csched_kernels::by_name("Block Warp-U2").unwrap();
    let wide = client_trace(
        &addr,
        &csched_ir::text::print(&w.kernel),
        &csched_machine::text::print(&csched_machine::imagine::clustered(2)),
        None,
        None,
        Some(1_000_000),
        true,
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(
        wide.lines().filter(|l| l.starts_with('{')).count(),
        TRACE_EVENT_CAP,
        "client may not widen the server cap"
    );
    let summary = wide
        .lines()
        .find(|l| l.starts_with("TRACE end "))
        .expect("summary line");
    let total: usize = summary
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("total="))
        .and_then(|v| v.parse().ok())
        .expect("total= in summary");
    assert!(total > TRACE_EVENT_CAP, "{summary}");
    assert!(summary.ends_with("truncated=1"), "{summary}");
    server.shutdown();
}

/// The client's `--limit` and `--wall-ms` bound a `--trace` request too:
/// a one-step budget cannot schedule a loop, so the reply ends in
/// `ERR deadline` and the client exits 1.
#[test]
fn client_trace_forwards_the_step_limit() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--client",
            &addr,
            "--kernel",
            "Merge",
            "--arch",
            "distributed",
        ])
        .args(["--trace", "--limit", "1", "--wall-ms", "60000"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("ERR deadline ")),
        "{stdout}"
    );
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    server.shutdown();
}

/// A `SCHED` miss runs sink-free and reads its span's rollup from the
/// scheduler's counters; a `TRACE` of the same cell runs traced. Sort on
/// distributed fails two IIs below its answer, so both spans count
/// rejects, and they carry the same attempts, rung and rejects.
#[test]
fn sched_and_trace_spans_carry_the_same_rollup() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let w = csched_kernels::by_name("Sort").unwrap();
    let kernel = csched_ir::text::print(&w.kernel);
    let arch = csched_machine::text::print(&csched_machine::imagine::distributed());
    let miss = client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    assert!(miss.starts_with("CACHE miss\nOK "), "{miss}");
    let trace = client_trace(&addr, &kernel, &arch, None, None, Some(1), false, TIMEOUT).unwrap();
    assert!(
        trace.lines().last().is_some_and(|l| l.starts_with("OK ")),
        "{trace}"
    );

    let metrics = client_metrics(&addr, TIMEOUT).unwrap();
    let json_line = metrics.lines().next().unwrap();
    let spans = elements(field(json_line, "spans").expect("spans array present"));
    let rollup = |verb: &str| {
        let span = spans
            .iter()
            .find(|s| s.contains(&format!("\"verb\":\"{verb}\"")))
            .unwrap_or_else(|| panic!("no {verb} span: {json_line}"));
        (
            num_field(span, "attempts").unwrap(),
            num_field(span, "rung").unwrap(),
            field(span, "rejects").unwrap().to_string(),
        )
    };
    let sched = rollup("SCHED");
    assert_eq!(sched, rollup("TRACE"));
    assert_eq!(sched.0, 3_166, "{json_line}");
    assert_ne!(sched.2, "[0,0,0,0,0]", "{json_line}");
    server.shutdown();
}

/// `METRICS` after a known request mix: the JSON line parses, the
/// Prometheus exposition passes the grammar check, and the counts
/// reflect what was served (including a deadline outcome).
#[test]
fn metrics_line_parses_and_prometheus_grammar_holds() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let (kernel, arch) = figure4_request();
    // Two ok requests (one miss, one hit) and one budget-starved
    // deadline on a harder kernel.
    for _ in 0..2 {
        let response = client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
        assert!(response.contains("OK ii="), "{response}");
    }
    let (merge, merge_arch) = merge_request();
    let starved = client_request(&addr, &merge, &merge_arch, Some(1), None, TIMEOUT).unwrap();
    assert!(starved.starts_with("ERR deadline"), "{starved}");

    let metrics = client_metrics(&addr, TIMEOUT).unwrap();
    let (json_line, prometheus) = metrics.split_once('\n').expect("JSON line + exposition");
    let snapshot = MetricsSnapshot::parse(json_line).expect("METRICS line parses");
    validate_prometheus(prometheus).expect("grammar-valid exposition");

    let count = |label: &str| {
        snapshot
            .requests
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |&(_, n)| n)
    };
    assert_eq!(count("ok"), 2, "{json_line}");
    assert_eq!(count("deadline"), 1, "{json_line}");
    assert!(
        prometheus.contains("csched_requests_total{outcome=\"ok\"} 2"),
        "{prometheus}"
    );
    // The ok latency histogram saw both requests.
    let ok_latency = snapshot
        .latency
        .iter()
        .find(|(l, _)| l == "ok")
        .map(|(_, buckets)| buckets.iter().map(|&(_, c)| c).sum::<u64>())
        .unwrap_or(0);
    assert_eq!(ok_latency, 2, "{json_line}");
    server.shutdown();
}

/// Span accounting: for every span the server retains, the per-stage
/// durations sum to at most the span's total wall time, and a cold
/// SCHED span attributes time to the scheduling stage.
#[test]
fn span_stage_durations_sum_to_at_most_total_wall_time() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let (kernel, arch) = figure4_request();
    for _ in 0..2 {
        client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    }
    let metrics = client_metrics(&addr, TIMEOUT).unwrap();
    let json_line = metrics.lines().next().unwrap();
    let spans = elements(field(json_line, "spans").expect("spans array present"));
    assert!(spans.len() >= 2, "want both spans retained: {json_line}");
    for span in &spans {
        let total = num_field(span, "total_us").expect("total_us");
        let stage_sum: u64 = [
            "read_us",
            "parse_us",
            "cache_us",
            "sched_us",
            "journal_us",
            "respond_us",
        ]
        .iter()
        .map(|key| num_field(span, key).expect("stage field"))
        .sum();
        assert!(
            stage_sum <= total,
            "stage sum {stage_sum} exceeds total {total}: {span}"
        );
    }
    // The first (cold) span did real scheduling work; the second (warm)
    // span was a cache hit and skipped it.
    assert!(spans[0].contains("\"cache\":\"miss\""), "{json_line}");
    assert!(spans[1].contains("\"cache\":\"hit\""), "{json_line}");
    server.shutdown();
}

/// `STATS` leads with the schema version and a monotonic uptime, so
/// scrapers can dispatch on shape instead of guessing.
#[test]
fn stats_reports_schema_and_monotonic_uptime() {
    let (server, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let first = client_stats(&addr, TIMEOUT).unwrap();
    assert!(first.starts_with("{\"schema\":1,\"uptime_ms\":"), "{first}");
    let t1 = num_field(&first, "uptime_ms").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let second = client_stats(&addr, TIMEOUT).unwrap();
    let t2 = num_field(&second, "uptime_ms").unwrap();
    assert!(t2 >= t1, "uptime went backwards: {t1} -> {t2}");
    server.shutdown();
}

/// With telemetry disabled, the service still answers all verbs:
/// `METRICS` renders an empty store and spans are not retained.
#[test]
fn disabled_telemetry_serves_but_records_nothing() {
    let config = ServeConfig {
        telemetry: false,
        ..ServeConfig::default()
    };
    let (server, _) = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.addr().to_string();
    let (kernel, arch) = figure4_request();
    let response = client_request(&addr, &kernel, &arch, None, None, TIMEOUT).unwrap();
    assert!(response.contains("OK ii="), "{response}");
    let metrics = client_metrics(&addr, TIMEOUT).unwrap();
    let json_line = metrics.lines().next().unwrap();
    let snapshot = MetricsSnapshot::parse(json_line).expect("parses when disabled");
    let total: u64 = snapshot.requests.iter().map(|&(_, n)| n).sum();
    assert_eq!(total, 0, "disabled telemetry must not record: {json_line}");
    assert!(json_line.contains("\"spans\":[]"), "{json_line}");
    server.shutdown();
}
