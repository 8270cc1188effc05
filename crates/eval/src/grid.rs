//! The kernel × architecture evaluation grid behind Figures 28 and 29.
//!
//! For every Table 1 workload and every register-file organisation, the
//! grid schedules the kernel, validates the schedule, optionally executes
//! it on the cycle simulator against the scalar reference, and records the
//! loop initiation interval. Speedups follow the paper's definition:
//! "the inverse of the schedule length of that loop normalized to the
//! schedule length for the central register file architecture".

use csched_core::{
    regalloc, schedule_kernel, validate, SchedError, SchedStats, ScheduleMetrics, SchedulerConfig,
};
use csched_kernels::Workload;
use csched_machine::Architecture;

/// Result of scheduling one kernel on one architecture.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Architecture name.
    pub arch: String,
    /// Loop initiation interval (the paper's performance metric).
    pub ii: u32,
    /// Copy operations in the final schedule.
    pub copies: usize,
    /// Scheduler statistics.
    pub stats: SchedStats,
    /// Whether the independent validator accepted the schedule.
    pub validated: bool,
    /// Whether the cycle simulator reproduced the scalar reference
    /// (`None` if simulation was skipped).
    pub simulated: Option<bool>,
    /// Maximum register demand in any single file.
    pub max_registers: usize,
    /// Whether every register file holds its demand under the schedule
    /// ([`regalloc::PressureReport::fits`]). The scheduler never reads a
    /// file's capacity (§7), so a schedule can overflow its files.
    pub fits: bool,
    /// Full schedule metrics (occupancy, copies per communication,
    /// placement effort) for this kernel × architecture cell.
    pub metrics: ScheduleMetrics,
}

/// Results of one kernel across all architectures.
#[derive(Clone, Debug)]
pub struct Row {
    /// Kernel name (Table 1).
    pub kernel: String,
    /// One cell per architecture, in the order given to [`run_grid`].
    pub cells: Vec<Cell>,
}

impl Row {
    /// Speedup of architecture index `i` relative to architecture index 0
    /// (the central organisation by convention).
    pub fn speedup(&self, i: usize) -> f64 {
        self.cells[0].ii as f64 / self.cells[i].ii as f64
    }
}

/// The whole grid.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Architecture names, column order.
    pub archs: Vec<String>,
    /// One row per kernel.
    pub rows: Vec<Row>,
}

impl Grid {
    /// Geometric-mean speedup per architecture (Figure 29's bars).
    pub fn overall_speedups(&self) -> Vec<f64> {
        (0..self.archs.len())
            .map(|i| {
                let product: f64 = self.rows.iter().map(|r| r.speedup(i).ln()).sum();
                (product / self.rows.len() as f64).exp()
            })
            .collect()
    }

    /// Minimum kernel speedup per architecture (the paper quotes 0.91 for
    /// distributed, 0.56 for clustered).
    pub fn min_speedups(&self) -> Vec<f64> {
        (0..self.archs.len())
            .map(|i| {
                self.rows
                    .iter()
                    .map(|r| r.speedup(i))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Number of kernels at parity (speedup ≥ threshold) per architecture.
    pub fn kernels_at_parity(&self, i: usize, threshold: f64) -> usize {
        self.rows
            .iter()
            .filter(|r| r.speedup(i) >= threshold)
            .count()
    }
}

/// Errors from the grid runner.
#[derive(Debug)]
pub enum GridError {
    /// Scheduling failed.
    Sched {
        /// Kernel name.
        kernel: String,
        /// Architecture name.
        arch: String,
        /// The scheduler error.
        error: SchedError,
    },
    /// The validator rejected a schedule.
    Invalid {
        /// Kernel name.
        kernel: String,
        /// Architecture name.
        arch: String,
        /// Validator findings.
        detail: String,
    },
    /// The simulator diverged from the scalar reference.
    Diverged {
        /// Kernel name.
        kernel: String,
        /// Architecture name.
        arch: String,
        /// Mismatch description.
        detail: String,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Sched {
                kernel,
                arch,
                error,
            } => {
                write!(f, "{kernel} on {arch}: scheduling failed: {error}")
            }
            GridError::Invalid {
                kernel,
                arch,
                detail,
            } => {
                write!(f, "{kernel} on {arch}: invalid schedule: {detail}")
            }
            GridError::Diverged {
                kernel,
                arch,
                detail,
            } => {
                write!(f, "{kernel} on {arch}: simulation diverged: {detail}")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// Runs the grid.
///
/// # Errors
///
/// Fails fast on the first scheduling failure, validation failure or
/// simulator divergence — the evaluation is only meaningful when every
/// cell is correct.
pub fn run_grid(
    workloads: &[Workload],
    archs: &[Architecture],
    config: &SchedulerConfig,
    simulate: bool,
) -> Result<Grid, GridError> {
    let mut rows = Vec::with_capacity(workloads.len());
    for w in workloads {
        let mut cells = Vec::with_capacity(archs.len());
        for arch in archs {
            let schedule = schedule_kernel(arch, &w.kernel, config.clone()).map_err(|error| {
                GridError::Sched {
                    kernel: w.kernel.name().to_string(),
                    arch: arch.name().to_string(),
                    error,
                }
            })?;
            validate::validate(arch, &w.kernel, &schedule).map_err(|errors| {
                GridError::Invalid {
                    kernel: w.kernel.name().to_string(),
                    arch: arch.name().to_string(),
                    detail: errors
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("; "),
                }
            })?;
            let simulated = if simulate {
                let mut mem = w.memory();
                let sim = csched_sim::execute(&w.kernel, &schedule, &mut mem, w.trip)
                    .map_err(|e| GridError::Diverged {
                        kernel: w.kernel.name().to_string(),
                        arch: arch.name().to_string(),
                        detail: e.to_string(),
                    })
                    .map(|_| ())
                    .and_then(|()| {
                        w.verify(&mem).map_err(|detail| GridError::Diverged {
                            kernel: w.kernel.name().to_string(),
                            arch: arch.name().to_string(),
                            detail,
                        })
                    });
                sim?;
                Some(true)
            } else {
                None
            };
            let pressure = regalloc::analyze(arch, &w.kernel, &schedule);
            let metrics = ScheduleMetrics::compute(arch, &w.kernel, &schedule);
            cells.push(Cell {
                arch: arch.name().to_string(),
                ii: schedule.ii().unwrap_or(1),
                copies: schedule.num_copies(),
                stats: schedule.stats(),
                validated: true,
                simulated,
                max_registers: pressure.max_required(),
                fits: pressure.fits(),
                metrics,
            });
        }
        rows.push(Row {
            kernel: w.kernel.name().to_string(),
            cells,
        });
    }
    Ok(Grid {
        archs: archs.iter().map(|a| a.name().to_string()).collect(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csched_machine::imagine;

    #[test]
    fn small_grid_end_to_end_with_simulation() {
        let workloads: Vec<Workload> = ["Merge"]
            .iter()
            .map(|n| csched_kernels::by_name(n).expect("known kernel"))
            .collect();
        let archs = [imagine::central(), imagine::clustered(2)];
        let grid = run_grid(&workloads, &archs, &SchedulerConfig::default(), true)
            .expect("small grid runs");
        assert_eq!(grid.rows.len(), 1);
        assert_eq!(grid.rows[0].cells.len(), 2);
        for cell in &grid.rows[0].cells {
            assert!(cell.validated);
            assert_eq!(cell.simulated, Some(true));
            assert!(cell.ii >= 1);
            assert!(cell.max_registers > 0);
            assert_eq!(cell.metrics.ii, Some(cell.ii));
            assert_eq!(cell.metrics.copies, cell.copies);
        }
        // Merge is recurrence-bound: parity across these organisations.
        assert!((grid.rows[0].speedup(1) - 1.0).abs() < 1e-9);
        assert_eq!(grid.overall_speedups().len(), 2);
    }

    #[test]
    fn grid_errors_are_descriptive() {
        let e = GridError::Sched {
            kernel: "K".into(),
            arch: "A".into(),
            error: csched_core::SchedError::IiExhausted { mii: 1, max_ii: 4 },
        };
        assert!(e.to_string().contains("K on A"));
    }
}
