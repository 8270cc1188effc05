//! The traced run's instruments, all on the benchmark side of the
//! program's public API: an in-memory span recorder wrapped around each
//! call into a layer, and a counting [`TraceSink`] handed to the
//! scheduler's traced entry points.
//!
//! Spans record a name, start, end, parent and the id of the cell or
//! request they belong to. They stay in memory until the run ends and are
//! then written out as JSON lines. A layer's self time is its span's
//! duration minus the durations of its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use csched_core::trace::RejectReason;
use csched_core::{TraceEvent, TraceSink};

use crate::stats::median;

/// Scheduler events counted by kind. Attempts are totals over every II
/// the driver tried, unlike `SchedStats::attempts`, which counts only the
/// attempts made at the final II.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub attempts: u64,
    pub accepts: u64,
    /// Indexed like [`RejectReason::ALL`].
    pub rejects: [u64; 5],
    pub ii_starts: u64,
    pub copies_inserted: u64,
    pub copies_reused: u64,
    pub stub_revisions: u64,
    pub routes_closed: u64,
    pub rungs: u64,
}

impl TraceSink for EventCounts {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::PlaceAttempt { .. } => self.attempts += 1,
            TraceEvent::PlaceAccept { .. } => self.accepts += 1,
            TraceEvent::PlaceReject { reason, .. } => {
                let slot = RejectReason::ALL
                    .iter()
                    .position(|r| *r == reason)
                    .unwrap_or(0);
                self.rejects[slot] += 1;
            }
            TraceEvent::IiStart { .. } => self.ii_starts += 1,
            TraceEvent::CopyInserted { .. } => self.copies_inserted += 1,
            TraceEvent::CopyReused { .. } => self.copies_reused += 1,
            TraceEvent::WriteStubRevised { .. } => self.stub_revisions += 1,
            TraceEvent::RouteClosed { .. } => self.routes_closed += 1,
            TraceEvent::RungAdvanced { .. } => self.rungs += 1,
            _ => {}
        }
    }
}

impl EventCounts {
    pub fn add(&mut self, other: &EventCounts) {
        self.attempts += other.attempts;
        self.accepts += other.accepts;
        for (a, b) in self.rejects.iter_mut().zip(other.rejects) {
            *a += b;
        }
        self.ii_starts += other.ii_starts;
        self.copies_inserted += other.copies_inserted;
        self.copies_reused += other.copies_reused;
        self.stub_revisions += other.stub_revisions;
        self.routes_closed += other.routes_closed;
        self.rungs += other.rungs;
    }

    /// The engine's per-layer counts, named as in the ledger.
    pub fn metrics(&self, out: &mut Vec<(String, f64, &'static str)>) {
        let ratio = if self.attempts == 0 {
            0.0
        } else {
            self.accepts as f64 / self.attempts as f64
        };
        out.push(("core.engine.attempts".into(), self.attempts as f64, "count"));
        out.push(("core.engine.accept_ratio".into(), ratio, "ratio"));
        for (reason, n) in RejectReason::ALL.iter().zip(self.rejects) {
            out.push((
                format!("core.engine.rejects.{}", reason.as_str()),
                n as f64,
                "count",
            ));
        }
        out.push((
            "core.engine.copies_inserted".into(),
            self.copies_inserted as f64,
            "count",
        ));
        out.push((
            "core.engine.copies_reused".into(),
            self.copies_reused as f64,
            "count",
        ));
        out.push((
            "core.engine.stub_revisions".into(),
            self.stub_revisions as f64,
            "count",
        ));
        out.push((
            "core.engine.routes_closed".into(),
            self.routes_closed as f64,
            "count",
        ));
    }
}

/// One recorded span.
struct Span {
    name: &'static str,
    /// The cell or request the span belongs to.
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// A call the workload's own path does not make, timed on its own
    /// so that every layer has a figure on every workload.
    probe: bool,
}

/// In-memory span recorder.
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// A disabled ledger runs the same calls and records nothing: the
    /// untraced baseline of the tracing overhead.
    enabled: bool,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    pub fn disabled() -> Self {
        Ledger {
            enabled: false,
            ..Ledger::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that later spans nest under until [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            probe: false,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a leaf span of the workload's own path.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.record(name, id, false, f)
    }

    /// Times `f` as a probe: a layer call made only to measure that layer.
    pub fn probe<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.record(name, id, true, f)
    }

    fn record<T>(&mut self, name: &'static str, id: u64, probe: bool, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        let out = std::hint::black_box(f());
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            probe,
        });
        out
    }

    /// Self time of every span in nanoseconds.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Per layer and source (path or probe): calls and self times.
    pub fn layers(&self) -> Layers {
        let own = self.self_ns();
        let mut by: BTreeMap<(&'static str, bool), Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            by.entry((s.name, s.probe))
                .or_default()
                .push(ns as f64 / 1e3);
        }
        Layers(
            by.into_iter()
                .map(|(k, v)| {
                    let stat = LayerStat {
                        calls: v.len(),
                        median_us: median(&v),
                        total_us: v.iter().sum(),
                    };
                    (k, stat)
                })
                .collect(),
        )
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut text = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{self_ns},\"probe\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns, s.probe
            );
        }
        std::fs::write(path, text)
    }

    /// Prints the ledger table and writes the spans under `.bench_out/`.
    pub fn finish(&self, workload: &str, seed: u64) -> Result<(), String> {
        println!("layer                              calls   median_us      total_ms  source");
        for ((name, probe), s) in &self.layers().0 {
            println!(
                "{name:<34} {:>6} {:>11.2} {:>13.3}  {}",
                s.calls,
                s.median_us,
                s.total_us / 1e3,
                if *probe { "probe" } else { "path" }
            );
        }
        let path = PathBuf::from(".bench_out").join(format!("{workload}-seed{seed}.spans.jsonl"));
        self.write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} written to {}", self.spans.len(), path.display());
        Ok(())
    }
}

pub struct LayerStat {
    pub calls: usize,
    pub median_us: f64,
    pub total_us: f64,
}

/// Self-time statistics keyed by layer name and whether the calls were
/// probes.
pub struct Layers(BTreeMap<(&'static str, bool), LayerStat>);

impl Layers {
    /// Median self time in µs of `name`, from the workload's own path if
    /// it made the call, else from probes.
    pub fn median_us(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|((n, _), _)| *n == name)
            .min_by_key(|((_, probe), _)| *probe)
            .map_or(0.0, |(_, s)| s.median_us)
    }

    /// Summed self time in ms of the path (non-probe) calls of `names`.
    pub fn path_ms(&self, names: &[&str]) -> f64 {
        self.0
            .iter()
            .filter(|((n, probe), _)| !probe && names.contains(n))
            .map(|(_, s)| s.total_us / 1e3)
            .sum()
    }
}

/// Whole-run figures the per-layer metrics derive from, besides spans.
#[derive(Default)]
pub struct Tally {
    /// Scheduler events over one pass or round.
    pub events: EventCounts,
    /// Placement attempts at the final II (`SchedStats::attempts`).
    pub final_ii_attempts: u64,
    /// Attempts spent by anytime calls, in total and before each first
    /// schedule was acquired.
    pub anytime_spent: u64,
    pub anytime_acquired: u64,
    /// Per-round service counters from `STATS`.
    pub serve_hits: u64,
    pub serve_misses: u64,
    pub serve_shed: u64,
    pub serve_errors: u64,
    /// Attempts spent by anytime calls whose budget ran out first.
    pub exhausted_attempts: u64,
    /// Untraced end-to-end time of the traced calls, and the summed self
    /// time of the path's layers; the difference is left unexplained.
    pub e2e_ms: f64,
    pub layers_ms: f64,
    /// The same calls timed without and with tracing.
    pub untraced_ms: f64,
    pub traced_ms: f64,
}

/// Layer metrics whose figure is a median self time per call.
const TIMED: [(&str, &str, f64, &str); 19] = [
    ("core.conn.busy_us", "core.conn", 1.0, "us"),
    ("ir.depgraph.busy_us", "ir.depgraph", 1.0, "us"),
    ("core.driver.busy_ms", "core.driver", 1e-3, "ms"),
    ("core.retry.busy_ms", "core.retry", 1e-3, "ms"),
    ("core.validate.busy_us", "core.validate", 1.0, "us"),
    ("core.regalloc.busy_us", "core.regalloc", 1.0, "us"),
    ("core.metrics.busy_us", "core.metrics", 1.0, "us"),
    ("core.explain.busy_us", "core.explain", 1.0, "us"),
    ("sim.exec.busy_us", "sim.exec", 1.0, "us"),
    ("kernels.workload.busy_us", "kernels.workload", 1.0, "us"),
    ("machine.text.busy_us", "machine.text", 1.0, "us"),
    ("ir.text.busy_us", "ir.text", 1.0, "us"),
    (
        "eval.serve.kernel_hash_us",
        "eval.serve.kernel_hash",
        1.0,
        "us",
    ),
    (
        "machine.arch.fingerprint_us",
        "machine.arch.fingerprint",
        1.0,
        "us",
    ),
    (
        "eval.serve.cache_lookup_us",
        "eval.serve.cache_lookup",
        1.0,
        "us",
    ),
    (
        "eval.serve.cache_insert_us",
        "eval.serve.cache_insert",
        1.0,
        "us",
    ),
    ("eval.serve.stats_rtt_us", "eval.serve.stats_rtt", 1.0, "us"),
    ("machine.gen.busy_us", "machine.gen", 1.0, "us"),
    ("machine.cost.busy_us", "machine.cost", 1.0, "us"),
];

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Ledger {
    /// Every per-layer metric, in `BENCHMARK.json` order, after printing
    /// the ledger and the reconciliation with the untraced time.
    pub fn per_layer(&self, tally: &Tally) -> Vec<(String, f64, &'static str)> {
        let layers = self.layers();
        let mut out: Vec<(String, f64, &'static str)> = TIMED
            .iter()
            .map(|&(metric, layer, scale, unit)| {
                (metric.to_string(), layers.median_us(layer) * scale, unit)
            })
            .collect();
        // The workload's own scheduling entry point: the driver on the
        // grid, the anytime ladder in the service.
        let driver_ns = layers.path_ms(&["core.driver", "core.retry"]) * 1e6;
        let e = &tally.events;
        out.push((
            "core.engine.ns_per_attempt".into(),
            if e.attempts == 0 {
                0.0
            } else {
                driver_ns / e.attempts as f64
            },
            "ns",
        ));
        out.push(("core.driver.ii_tried".into(), e.ii_starts as f64, "count"));
        out.push((
            "core.driver.final_ii_share".into(),
            share(tally.final_ii_attempts, e.attempts),
            "ratio",
        ));
        e.metrics(&mut out);
        out.push((
            "core.retry.improve_share".into(),
            share(
                tally.anytime_spent - tally.anytime_acquired.min(tally.anytime_spent),
                tally.anytime_spent,
            ),
            "ratio",
        ));
        out.push(("core.retry.rungs".into(), e.rungs as f64, "count"));
        out.push(("eval.serve.hits".into(), tally.serve_hits as f64, "count"));
        out.push((
            "eval.serve.misses".into(),
            tally.serve_misses as f64,
            "count",
        ));
        out.push(("eval.serve.shed".into(), tally.serve_shed as f64, "count"));
        out.push((
            "eval.serve.errors".into(),
            tally.serve_errors as f64,
            "count",
        ));
        out.push((
            "core.retry.exhausted_share".into(),
            share(tally.exhausted_attempts, tally.anytime_spent),
            "ratio",
        ));
        let pct = |x: f64, base: f64| if base > 0.0 { x / base * 100.0 } else { 0.0 };
        let overhead = pct(tally.traced_ms - tally.untraced_ms, tally.untraced_ms);
        let unexplained = pct(tally.e2e_ms - tally.layers_ms, tally.e2e_ms);
        println!(
            "reconcile: untraced end to end {:.3} ms = layer self time {:.3} ms + unexplained \
             {:.3} ms ({unexplained:.2} %)",
            tally.e2e_ms,
            tally.layers_ms,
            tally.e2e_ms - tally.layers_ms,
        );
        println!(
            "tracing overhead: {:.3} ms untraced, {:.3} ms traced ({overhead:.2} %)",
            tally.untraced_ms, tally.traced_ms
        );
        out.push(("bench.trace_overhead_pct".into(), overhead, "%"));
        out.push(("bench.unexplained_pct".into(), unexplained, "%"));
        out
    }
}
