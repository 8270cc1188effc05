//! `grid`: the paper's own workload. Closed loop, one thread, in process.
//! It runs pass after pass of all 40 cells — the ten Table 1 kernels on
//! the four Imagine register-file organisations — each pass in a new
//! seeded order, each cell through `run_grid` with simulation, the path
//! `paper-report` runs: schedule, validate, simulate against the scalar
//! reference, register analysis and schedule metrics.
//!
//! A [`Reference`] loop is timed between cells, and every reported time is
//! brought to the reference speed with it; the figures as measured are
//! printed beside it.

use std::slice::from_ref;
use std::time::Instant;

use csched_core::{
    regalloc, schedule_kernel_anytime_traced, schedule_kernel_traced, validate, RetryPolicy,
    ScheduleMetrics, SchedulerConfig, StepBudget,
};
use csched_eval::run_grid;
use csched_eval::serve::{cache_key, kernel_hash, CacheEntry};
use csched_kernels::Workload;
use csched_machine::{imagine, Architecture};

use crate::ledger::{EventCounts, Ledger, Tally};
use crate::stats::{
    band_quantile, geomean, median, ms_since, peak_rss_mb, remove_scratch, scratch_dir,
    timed_setup, Reference, Rng,
};
use crate::{probes, Args, Report};

/// Set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 15;
/// Passes made even when `--seconds` runs out first, so every cell has
/// a median across passes.
const MIN_PASSES: usize = 2;
/// Placement-attempt budget of the anytime probe, the service default.
const ANYTIME_LIMIT: u64 = 200_000;

pub struct Inputs {
    pub workloads: Vec<Workload>,
    pub archs: Vec<Architecture>,
}

impl Inputs {
    pub fn new() -> Self {
        Inputs {
            workloads: csched_kernels::all(),
            archs: imagine::all_variants(),
        }
    }

    /// Every (kernel, architecture) index pair, kernel-major.
    pub fn cells(&self) -> Vec<(usize, usize)> {
        (0..self.workloads.len())
            .flat_map(|w| (0..self.archs.len()).map(move |a| (w, a)))
            .collect()
    }

    pub fn label(&self, (w, a): (usize, usize)) -> String {
        format!(
            "{}/{}",
            self.workloads[w].kernel.name(),
            self.archs[a].name()
        )
    }
}

/// The deterministic outputs of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CellOut {
    ii: u32,
    copies: usize,
    /// `SchedStats::attempts`: attempts at the final II only.
    attempts: u64,
    max_registers: usize,
}

fn run_cell(
    inputs: &Inputs,
    (w, a): (usize, usize),
    config: &SchedulerConfig,
) -> Result<CellOut, String> {
    let grid = run_grid(
        from_ref(&inputs.workloads[w]),
        from_ref(&inputs.archs[a]),
        config,
        true,
    )
    .map_err(|e| e.to_string())?;
    let cell = &grid.rows[0].cells[0];
    if !cell.validated || cell.simulated != Some(true) {
        return Err("run_grid returned an unchecked cell".to_string());
    }
    Ok(CellOut {
        ii: cell.ii,
        copies: cell.copies,
        attempts: cell.stats.attempts,
        max_registers: cell.max_registers,
    })
}

/// Checks `out` against the first output seen for the same cell: every
/// output is a function of the cell alone, whatever the order or pass.
fn check_repeat(reference: &mut Option<CellOut>, out: CellOut, label: &str) -> bool {
    match reference {
        Some(r) if *r != out => {
            eprintln!("grid: {label} changed between passes: {r:?} then {out:?}");
            false
        }
        Some(_) => true,
        None => {
            *reference = Some(out);
            true
        }
    }
}

/// The seeded stream of cells: pass after pass of all cells, each pass in
/// a new order.
struct Stream {
    rng: Rng,
    order: Vec<usize>,
    next: usize,
    taken: usize,
}

impl Stream {
    fn new(seed: u64, cells: usize) -> Self {
        Stream {
            rng: Rng::new(seed),
            order: (0..cells).collect(),
            next: cells,
            taken: 0,
        }
    }

    fn peek(&mut self) -> usize {
        if self.next == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.order[self.next]
    }

    fn advance(&mut self) {
        self.next += 1;
        self.taken += 1;
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (inputs, setup_s) = timed_setup(SETUP_REPS, Inputs::new);
    if args.trace {
        return traced(args, &inputs);
    }
    let cells = inputs.cells();
    let config = SchedulerConfig::default();
    let mut stream = Stream::new(args.seed, cells.len());
    let mut host = Reference::new();
    let mut reference: Vec<Option<CellOut>> = vec![None; cells.len()];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let deadline_ms = args.seconds * 1e3;
    let start = Instant::now();
    loop {
        host.tick();
        let c = stream.peek();
        // Stop before a cell that would end past `--seconds`, judged by
        // its last time.
        let last_ms = times[c].last().copied().unwrap_or(0.0);
        if stream.taken >= MIN_PASSES * cells.len() && ms_since(start) + last_ms > deadline_ms {
            break;
        }
        stream.advance();
        let t = Instant::now();
        let out = run_cell(&inputs, cells[c], &config);
        let ms = ms_since(t);
        attempted += 1;
        match out {
            Ok(out) => {
                correct &= check_repeat(&mut reference[c], out, &inputs.label(cells[c]));
                times[c].push(ms);
            }
            Err(e) => {
                eprintln!("grid: {}: {e}", inputs.label(cells[c]));
                failed += 1;
            }
        }
    }
    host.tick();
    let elapsed = start.elapsed().as_secs_f64();
    correct &= failed == 0;

    let outs: Vec<CellOut> = reference.iter().flatten().copied().collect();
    let all_ms: Vec<f64> = times.iter().flatten().copied().collect();
    let cell_medians: Vec<f64> = times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    // A pass by each cell's median time. It counts every cell once; a rate
    // of cells finished over the phase would also count the cells that
    // happen to fall into the last, unfinished pass.
    let pass_ms: f64 = cell_medians.iter().sum();
    let cells_per_s = if outs.len() == cells.len() {
        cells.len() as f64 / (pass_ms / 1e3)
    } else {
        0.0
    };
    let op_p50_ms = band_quantile(&all_ms, 0.5);
    let cold_ms = geomean(&cell_medians);
    let ii_geomean = geomean(
        &outs
            .iter()
            .map(|o| f64::from(o.ii.max(1)))
            .collect::<Vec<_>>(),
    );
    let copies_total: usize = outs.iter().map(|o| o.copies).sum();
    let scale = host.scale();
    println!(
        "grid: {attempted} cells in {elapsed:.3} s ({:.1} passes); as measured: {:.3} cells/s, \
         p50 {op_p50_ms:.3} ms, geomean {cold_ms:.3} ms, p90 {:.3} ms, set-up {:.3} ms; \
         reference loop {:.3} ms over {} runs, scale {scale:.4}",
        attempted as f64 / cells.len() as f64,
        cells_per_s,
        band_quantile(&all_ms, 0.9),
        setup_s * 1e3,
        host.median_ms(),
        host.runs(),
    );
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics: vec![
            ("cells_per_s".into(), cells_per_s / scale, "cells/s"),
            ("op_p50_ms".into(), op_p50_ms * scale, "ms"),
            ("cold_ms_geomean".into(), cold_ms * scale, "ms"),
            ("ii_geomean".into(), ii_geomean, "cycles"),
            ("copies_total".into(), copies_total as f64, "count"),
            ("ok_cells".into(), outs.len() as f64, "count"),
            ("setup_s".into(), setup_s * scale, "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ],
    })
}

/// Two untraced passes, then the same pass with a span around every layer
/// call, then probes of the layers the grid path does not call.
fn traced(args: &Args, inputs: &Inputs) -> Result<Report, String> {
    let cells = inputs.cells();
    let config = SchedulerConfig::default();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    Rng::new(args.seed).shuffle(&mut order);

    // The first untraced pass warms caches and the allocator; the second
    // is the baseline the traced pass is compared with.
    let mut untraced = Vec::with_capacity(cells.len());
    let mut untraced_ms = 0.0;
    for _ in 0..2 {
        untraced.clear();
        untraced_ms = 0.0;
        for &c in &order {
            let t = Instant::now();
            let out = run_cell(inputs, cells[c], &config);
            untraced_ms += ms_since(t);
            untraced.push(out.map_err(|e| format!("{}: {e}", inputs.label(cells[c])))?);
        }
    }

    let mut ledger = Ledger::new();
    let mut tally = Tally::default();
    let mut correct = true;
    let mut entries = Vec::new();
    for (i, &c) in order.iter().enumerate() {
        let (w, a) = cells[c];
        let (work, arch) = (&inputs.workloads[w], &inputs.archs[a]);
        let id = c as u64;
        let label = inputs.label(cells[c]);
        probes::front(&mut ledger, id, arch, &work.kernel);

        let t = Instant::now();
        ledger.open("cell", id);
        let mut counts = EventCounts::default();
        let schedule = ledger
            .time("core.driver", id, || {
                schedule_kernel_traced(arch, &work.kernel, config.clone(), &mut counts)
            })
            .map_err(|e| format!("{label}: {e}"))?;
        ledger
            .time("core.validate", id, || {
                validate::validate(arch, &work.kernel, &schedule)
            })
            .map_err(|_| format!("{label}: traced schedule failed validation"))?;
        probes::simulate(&mut ledger, id, false, work, &schedule)
            .map_err(|e| format!("{label}: {e}"))?;
        let pressure = ledger.time("core.regalloc", id, || {
            regalloc::analyze(arch, &work.kernel, &schedule)
        });
        ledger.time("core.metrics", id, || {
            ScheduleMetrics::compute(arch, &work.kernel, &schedule)
        });
        ledger.close();
        tally.traced_ms += ms_since(t);

        let stats = schedule.stats();
        let out = CellOut {
            ii: schedule.ii().unwrap_or(1),
            copies: schedule.num_copies(),
            attempts: stats.attempts,
            max_registers: pressure.max_required(),
        };
        if out != untraced[i] {
            eprintln!(
                "grid: {label}: traced {out:?} differs from untraced {:?}",
                untraced[i]
            );
            correct = false;
        }
        tally.final_ii_attempts += stats.attempts;
        tally.events.add(&counts);
        probes::back(
            &mut ledger,
            id,
            arch,
            &work.kernel,
            &schedule,
            &["core.validate", "core.regalloc", "core.metrics"],
        );

        // The anytime ladder the service runs, which the grid never does.
        let mut rungs = EventCounts::default();
        let budget = StepBudget::new(ANYTIME_LIMIT);
        let (_, report) = ledger.probe("core.retry", id, || {
            schedule_kernel_anytime_traced(
                arch,
                &work.kernel,
                config.clone(),
                &RetryPolicy::default(),
                &budget,
                &mut rungs,
            )
        });
        tally.anytime_spent += report.attempts_spent;
        tally.anytime_acquired += report.acquired_spent;
        if report.degraded {
            tally.exhausted_attempts += report.attempts_spent;
        }
        tally.events.rungs += rungs.rungs;
        entries.push((
            cache_key(kernel_hash(&work.kernel), arch.fingerprint(), "perfbench"),
            CacheEntry {
                ii: out.ii,
                copies: out.copies as u64,
                max_registers: out.max_registers as u64,
                attempts: stats.attempts,
                degraded: false,
                limit: ANYTIME_LIMIT,
            },
        ));
    }
    let dir = scratch_dir("grid")?;
    let probed = probes::cache(&mut ledger, &dir, &entries)
        .and_then(|()| probes::stats_rtt(&mut ledger, true, 20));
    remove_scratch(&dir);
    probed?;
    probes::generator(&mut ledger, args.seed, 10);

    tally.e2e_ms = untraced_ms;
    tally.untraced_ms = untraced_ms;
    tally.layers_ms = ledger.layers().path_ms(&[
        "core.driver",
        "core.validate",
        "kernels.workload",
        "sim.exec",
        "core.regalloc",
        "core.metrics",
    ]);
    ledger.finish("grid", args.seed)?;
    let metrics = ledger.per_layer(&tally);
    Ok(Report {
        correct,
        attempted: cells.len() as u64,
        failed: 0,
        metrics,
    })
}
