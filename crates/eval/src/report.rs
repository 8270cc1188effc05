//! Plain-text rendering of the evaluation tables and figures.

use std::fmt::Write as _;

use crate::costs::{CostRow, Headline, ScalePoint};
use crate::grid::Grid;

/// Renders a Figure 28-style table: per-kernel speedups by architecture.
/// A `*` marks a cell whose schedule needs more registers than one of
/// its files holds.
pub fn figure28(grid: &Grid) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 28: Kernel Speedup vs Register File Architecture");
    let _ = write!(s, "{:<20}", "Kernel");
    for a in &grid.archs {
        let _ = write!(s, "{:>22}", short(a));
    }
    let _ = writeln!(s);
    for row in &grid.rows {
        let _ = write!(s, "{:<20}", row.kernel);
        for i in 0..grid.archs.len() {
            let cell = &row.cells[i];
            let _ = write!(
                s,
                "{:>13}{} (II={:>3})",
                format!("{:.2}", row.speedup(i)),
                if cell.fits { ' ' } else { '*' },
                cell.ii
            );
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "{:<20}", "copies/iter");
    for i in 0..grid.archs.len() {
        let total: usize = grid.rows.iter().map(|r| r.cells[i].copies).sum();
        let _ = write!(s, "{:>22}", total);
    }
    let _ = writeln!(s);
    if grid.rows.iter().flat_map(|r| &r.cells).any(|c| !c.fits) {
        let _ = writeln!(
            s,
            "* the schedule needs more registers than a file holds \
             (the scheduler leaves allocation to a post-pass, §7)"
        );
    }
    s
}

/// Renders the Figure 29 overall (geometric mean) speedups.
pub fn figure29(grid: &Grid) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 29: Overall Speedup vs Register File Architecture"
    );
    let overall = grid.overall_speedups();
    let mins = grid.min_speedups();
    for (i, a) in grid.archs.iter().enumerate() {
        let _ = writeln!(
            s,
            "{:<22} {:>5.2}   (min {:.2})  {}",
            short(a),
            overall[i],
            mins[i],
            bar(overall[i])
        );
    }
    s
}

/// Renders the Figures 25–27 cost bars.
pub fn figures_25_27(rows: &[CostRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figures 25-27: register file area / power / delay (normalized to central)"
    );
    for r in rows {
        let _ = writeln!(s, "{}:", short(&r.arch));
        let _ = writeln!(s, "  area  {:>6.3} {}", r.area, bar(r.area));
        let _ = writeln!(s, "  power {:>6.3} {}", r.power, bar(r.power));
        let _ = writeln!(s, "  delay {:>6.3} {}", r.delay, bar(r.delay));
    }
    s
}

/// Renders the §1/§8 headline ratios.
pub fn headline(h: &Headline, grid: Option<&Grid>) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Headline comparisons (paper §1/§8 -> measured):");
    let (a, p, d) = h.dist_vs_central;
    let _ = writeln!(
        s,
        "  distributed vs central:    area 9% -> {:.0}%, power 6% -> {:.0}%, delay 37% -> {:.0}%",
        a * 100.0,
        p * 100.0,
        d * 100.0
    );
    let (a2, p2, _) = h.dist_vs_clustered;
    let _ = writeln!(
        s,
        "  distributed vs clustered4: area 56% -> {:.0}%, power 50% -> {:.0}%",
        a2 * 100.0,
        p2 * 100.0
    );
    if let Some(grid) = grid {
        let overall = grid.overall_speedups();
        if grid.archs.len() >= 4 {
            let _ = writeln!(
                s,
                "  performance: distributed/central 98% -> {:.0}%, distributed/clustered4 120% -> {:.0}%",
                overall[3] * 100.0,
                overall[3] / overall[2] * 100.0
            );
        }
    }
    s
}

/// Renders the §8 scaling projection.
pub fn scaling(points: &[ScalePoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Scaling projection (paper §8: at 48 units distributed needs 12% of clustered area, 9% power)"
    );
    let _ = writeln!(
        s,
        "{:>6} {:>8} {:>16} {:>16} {:>16}",
        "scale", "arith", "area/clustered", "power/clustered", "area/central"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>6} {:>8} {:>15.0}% {:>15.0}% {:>15.1}%",
            p.scale,
            p.arithmetic_units,
            p.area_ratio * 100.0,
            p.power_ratio * 100.0,
            p.area_vs_central * 100.0
        );
    }
    s
}

/// Renders Table 1 (the kernel inventory with static statistics).
pub fn table1(workloads: &[csched_kernels::Workload]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1: Evaluation kernels");
    let _ = writeln!(
        s,
        "{:<20} {:>8} {:>7} {:>7} {:>7}  Description",
        "Name", "loop ops", "loads", "stores", "trip"
    );
    for w in workloads {
        let h = w.kernel.opcode_histogram();
        let _ = writeln!(
            s,
            "{:<20} {:>8} {:>7} {:>7} {:>7}  {}",
            w.kernel.name(),
            w.kernel.loop_ops().len(),
            h.get(&csched_machine::Opcode::Load).copied().unwrap_or(0),
            h.get(&csched_machine::Opcode::Store).copied().unwrap_or(0),
            w.trip,
            w.kernel.description()
        );
    }
    s
}

fn short(name: &str) -> String {
    name.replace("imagine-", "")
}

fn bar(v: f64) -> String {
    let n = (v * 40.0).round().clamp(0.0, 60.0) as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Cell, Row};
    use csched_core::SchedStats;

    fn tiny_grid() -> Grid {
        let cell = |arch: &str, ii: u32| Cell {
            arch: arch.into(),
            ii,
            copies: 0,
            stats: SchedStats::default(),
            validated: true,
            simulated: None,
            max_registers: 4,
            fits: ii < 20,
            metrics: Default::default(),
        };
        Grid {
            archs: vec!["imagine-central".into(), "imagine-distributed".into()],
            rows: vec![
                Row {
                    kernel: "A".into(),
                    cells: vec![cell("imagine-central", 10), cell("imagine-distributed", 10)],
                },
                Row {
                    kernel: "B".into(),
                    cells: vec![cell("imagine-central", 10), cell("imagine-distributed", 20)],
                },
            ],
        }
    }

    #[test]
    fn speedups_and_geomean() {
        let g = tiny_grid();
        assert_eq!(g.rows[1].speedup(1), 0.5);
        let overall = g.overall_speedups();
        assert!((overall[0] - 1.0).abs() < 1e-12);
        assert!((overall[1] - (0.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(g.min_speedups()[1], 0.5);
        assert_eq!(g.kernels_at_parity(1, 0.99), 1);
    }

    #[test]
    fn renders_contain_key_fields() {
        let g = tiny_grid();
        let f28 = figure28(&g);
        assert!(f28.contains("central"));
        assert!(f28.contains("0.50* (II= 20)"), "{f28}");
        assert!(f28.contains("1.00  (II= 10)"), "{f28}");
        assert!(f28.contains("* the schedule needs more registers"), "{f28}");
        let f29 = figure29(&g);
        assert!(f29.contains("min 0.50"));
    }
}

/// Renders the grid as CSV (one row per kernel × architecture) for
/// downstream plotting: `kernel,arch,ii,speedup,copies,max_registers`.
pub fn grid_csv(grid: &Grid) -> String {
    let mut s = String::from("kernel,arch,ii,speedup,copies,max_registers\n");
    for row in &grid.rows {
        for (i, cell) in row.cells.iter().enumerate() {
            let _ = writeln!(
                s,
                "{},{},{},{:.4},{},{}",
                row.kernel,
                short(&cell.arch),
                cell.ii,
                row.speedup(i),
                cell.copies,
                cell.max_registers
            );
        }
    }
    s
}

/// Renders the grid's full schedule metrics as one JSON document:
/// `{"archs":[...],"cells":[<ScheduleMetrics>...]}` with one cell object
/// per kernel × architecture. `extra` metrics (e.g. from kernels parsed
/// off the command line) are appended to the same `cells` array.
pub fn metrics_json(grid: &Grid, extra: &[csched_core::ScheduleMetrics]) -> String {
    use csched_core::trace::json_escape;
    let mut s = String::from("{\"archs\":[");
    for (i, a) in grid.archs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", json_escape(a));
    }
    s.push_str("],\"cells\":[");
    let mut first = true;
    let cells = grid
        .rows
        .iter()
        .flat_map(|r| r.cells.iter().map(|c| &c.metrics));
    for m in cells.chain(extra.iter()) {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&m.to_json());
    }
    s.push_str("]}");
    s
}

/// Renders a [`csched_ir::text::ParseError`] as a structured JSON object,
/// preserving the line, column and offending snippet as separate fields
/// instead of flattening them into a display string.
pub fn parse_error_json(file: &str, err: &csched_ir::text::ParseError) -> String {
    use csched_core::trace::json_escape;
    format!(
        "{{\"file\":\"{}\",\"error\":{{\"event\":\"parse_failed\",\"line\":{},\"column\":{},\
         \"snippet\":\"{}\",\"message\":\"{}\"}}}}",
        json_escape(file),
        err.line,
        err.column,
        json_escape(&err.snippet),
        json_escape(&err.message)
    )
}

/// Renders the cost rows as CSV: `arch,area,power,delay` (normalised).
pub fn cost_csv(rows: &[CostRow]) -> String {
    let mut s = String::from("arch,area,power,delay\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{:.6},{:.6},{:.6}",
            short(&r.arch),
            r.area,
            r.power,
            r.delay
        );
    }
    s
}

#[cfg(test)]
mod csv_tests {
    use super::*;
    use crate::grid::{Cell, Grid, Row};
    use csched_core::SchedStats;

    #[test]
    fn csv_shapes() {
        let cell = |arch: &str, ii: u32| Cell {
            arch: arch.into(),
            ii,
            copies: 1,
            stats: SchedStats::default(),
            validated: true,
            simulated: Some(true),
            max_registers: 7,
            fits: true,
            metrics: Default::default(),
        };
        let grid = Grid {
            archs: vec!["imagine-central".into()],
            rows: vec![Row {
                kernel: "K".into(),
                cells: vec![cell("imagine-central", 5)],
            }],
        };
        let csv = grid_csv(&grid);
        assert!(csv.starts_with("kernel,arch,ii,"));
        assert!(csv.contains("K,central,5,1.0000,1,7"));

        let cost = cost_csv(&[CostRow {
            arch: "imagine-distributed".into(),
            area: 0.5,
            power: 0.25,
            delay: 0.125,
        }]);
        assert!(cost.contains("distributed,0.500000,0.250000,0.125000"));
    }

    #[test]
    fn metrics_json_document_shape() {
        let grid = Grid {
            archs: vec!["imagine-central".into()],
            rows: vec![Row {
                kernel: "K".into(),
                cells: vec![Cell {
                    arch: "imagine-central".into(),
                    ii: 5,
                    copies: 1,
                    stats: SchedStats::default(),
                    validated: true,
                    simulated: None,
                    max_registers: 7,
                    fits: true,
                    metrics: Default::default(),
                }],
            }],
        };
        let json = metrics_json(&grid, &[Default::default()]);
        assert!(json.starts_with("{\"archs\":[\"imagine-central\"],\"cells\":["));
        assert!(json.ends_with("]}"));
        // One grid cell plus one extra metrics object.
        assert_eq!(json.matches("\"kernel\":").count(), 2);
    }

    #[test]
    fn parse_errors_stay_structured() {
        let err = csched_ir::text::ParseError {
            line: 3,
            column: 9,
            snippet: "t2 = add t0, \"oops".into(),
            message: "unterminated string".into(),
        };
        let json = parse_error_json("kernels/bad.k", &err);
        assert!(json.contains("\"file\":\"kernels/bad.k\""));
        assert!(json.contains("\"line\":3"));
        assert!(json.contains("\"column\":9"));
        // The snippet arrives as its own escaped field, not flattened
        // into a prose message.
        assert!(json.contains("\"snippet\":\"t2 = add t0, \\\"oops\""));
        assert!(json.contains("\"message\":\"unterminated string\""));
    }
}
