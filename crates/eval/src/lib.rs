//! # csched-eval — evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! - [`grid::run_grid`] schedules the Table 1 kernels on the four Imagine
//!   register-file organisations, validates and simulates every schedule,
//!   and produces the Figure 28 per-kernel speedups and the Figure 29
//!   overall (geometric-mean) speedup;
//! - [`costs`] reproduces the Figures 25–27 area/power/delay bars, the
//!   §1/§8 headline ratios, and the §8 scaling projection;
//! - [`report`] renders everything as plain-text tables;
//! - [`mod@explore`] searches a parameterised design space around the four
//!   paper machines on a multi-threaded worker pool ([`pool`]) and
//!   reports the Pareto frontier over (harmonic-mean II, area, power,
//!   delay), with journal-backed resume;
//! - the `paper-report` binary runs the full evaluation in one shot and
//!   the `explore` binary runs the design-space search;
//! - [`serve`] turns the scheduler into a hardened long-running service:
//!   bounded admission with typed load shedding, per-request deadlines
//!   with graceful degradation, slowloris read-phase budgets, journal
//!   compaction with a disk-full serve-from-memory latch, and a
//!   crash-consistent checksummed schedule cache that quarantines
//!   corrupt entries (the `serve` binary hosts it);
//! - [`chaosnet`] is a deterministic fault-injecting TCP proxy (seeded
//!   disconnects, torn writes, slowloris drips, response truncation,
//!   latency) used by the `soak` binary to hammer the service through a
//!   hostile network and assert its invariants survive;
//! - [`gap`] runs the heuristic and the exact oracle
//!   ([`csched_core::exact`]) side by side across the paper grid (plus a
//!   seeded explore subsample), journals each cell, and reports the
//!   optimality gap per cell (the `oracle` binary drives it);
//! - [`telemetry`] is the service's one ledger: per-request structured
//!   spans, deterministic log-bucketed latency/attempts histograms, and
//!   the renderings behind the `STATS` and `METRICS` (JSON + Prometheus
//!   exposition) verbs, plus the bounded capture `TRACE` streams as
//!   JSONL decision events; the `dash` binary polls them into a live
//!   terminal dashboard;
//! - [`cli`] is the command line every binary shares (flags, kernel and
//!   architecture names, exit codes), and [`jsonl`] is the one reader
//!   for the JSON lines the crate writes and reads back (journals,
//!   `STATS`, `METRICS`).

#![warn(missing_docs)]
// The evaluation harness reports typed failures per cell; outside of test
// code, potential panics must become `CampaignError`/`GridError` (or a
// recorded Failed cell) rather than unwrapped.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod campaign;
pub mod chaosnet;
pub mod cli;
pub mod costs;
pub mod explore;
pub mod gap;
pub mod grid;
pub mod jsonl;
pub mod pool;
pub mod report;
pub mod serve;
pub mod telemetry;

pub use campaign::{
    campaign_json, cell_key, config_fingerprint, grid_from_records, run_campaign,
    run_campaign_jobs, CampaignError, CampaignResult, CellRecord, CellStatus, Journal,
};
pub use chaosnet::{ChaosNetConfig, ChaosProxy, FaultAction, FaultKind, FaultRecord};
pub use explore::{explore, pareto, CandidateReport, ExploreConfig, ExploreReport, Origin, Score};
pub use gap::{
    gap_cells, gap_fingerprint, gap_json, gap_table, load_gap_journal, measure_gap_cell, run_gap,
    run_gap_over, GapCell, GapConfig, GapRecord, GapReport,
};
pub use grid::{run_grid, Grid, GridError};
pub use pool::{run_indexed, Rejected, Service};
pub use serve::{
    cache_key, client_metrics, client_raw, client_request, client_request_retry, client_stats,
    client_trace, kernel_hash, response_complete, response_retryable, CacheEntry, CacheLoadReport,
    CompactionPolicy, RetryConfig, RetryReport, ScheduleCache, ServeConfig, ServeError, Server,
};
pub use telemetry::{
    validate_prometheus, CacheDisposition, Histogram, MetricsSnapshot, Outcome, RequestSpan,
    SpanSummary, StageTimes, Telemetry, TraceCapture, METRICS_SCHEMA,
};
