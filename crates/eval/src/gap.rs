//! Heuristic-vs-exact optimality-gap reports.
//!
//! The exact oracle ([`csched_core::exact`]) certifies the *minimum* II
//! of a cell; this pass runs heuristic and oracle side by side across
//! the paper grid (ten Table 1 kernels × four Imagine register-file
//! organisations) plus an optional seeded subsample of the explore
//! design family, and reports the optimality gap per cell:
//!
//! - `certified` with `gap = 0`: the heuristic's II is provably optimal;
//! - `certified` with `gap > 0`: the heuristic left cycles on the table
//!   — these cells are the mining ground for new retry-ladder rungs;
//! - `gap_unknown`: the oracle's step budget ran out first (large
//!   kernels are expected to land here);
//! - `disagreement`: the heuristic's schedule failed the validator (a
//!   soundness bug), or the oracle's verdict excludes the II of a
//!   schedule the validator accepted: it certified a *larger* II, or
//!   proved infeasible an II range that holds it. The oracle's verdicts
//!   hold within its normalised search space ([`csched_core::exact`]),
//!   so the latter means that schedule lies outside that space or one
//!   of the two checkers is wrong. Either way the cell needs a look by
//!   hand, which is why the `oracle` binary and `one-cell --certify`
//!   exit nonzero on it.
//!
//! Like the table1 campaign, the pass journals each finished cell to a
//! JSONL file (flushed per line, torn-tail tolerant) so a killed run
//! resumes without recomputation, and the rendered report is
//! byte-identical whether it was computed fresh, resumed, or replayed
//! entirely from the journal.

use std::collections::HashMap;
use std::path::Path;

use csched_core::exact::{
    certify_min_ii, ExactVerdict, COPY_SLACK, MAX_COPIES, STRAIGHT_HORIZON, WINDOW_SLACK,
};
use csched_core::{
    schedule_kernel_budgeted, validate, SchedError, Schedule, SchedulerConfig, StepBudget,
};
use csched_ir::Kernel;
use csched_machine::gen::{DesignSpace, Rng};
use csched_machine::{imagine, Architecture};

use crate::campaign::{cell_key, load_keyed, CampaignError, Journal};
use crate::jsonl::{num_field, str_field};

/// Configuration of one gap campaign.
#[derive(Clone, Debug)]
pub struct GapConfig {
    /// The largest II the oracle tries; reaching it without a schedule
    /// records `infeasible`.
    pub max_ii: u32,
    /// Step budget for the heuristic schedule of each cell.
    pub heuristic_step_limit: u64,
    /// Step budget for the oracle search of each cell (exhausting it
    /// records `gap_unknown`).
    pub exact_step_limit: u64,
    /// Number of seeded explore-family machines appended to the paper
    /// grid (each paired with the smallest Table 1 kernel, `Merge`).
    pub explore_sample: usize,
    /// Seed for the explore subsample.
    pub seed: u64,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            max_ii: 128,
            heuristic_step_limit: 400_000,
            exact_step_limit: 2_000_000,
            explore_sample: 0,
            seed: 2000,
        }
    }
}

/// A deterministic fingerprint of everything that affects a cell's gap
/// record, the oracle's normalised search space included; folded into
/// the journal key so a journal written under one configuration is never
/// resumed under another.
pub fn gap_fingerprint(cfg: &GapConfig) -> String {
    format!(
        "gap-v1 hsl={} xsl={} maxii={} ws={WINDOW_SLACK} sh={STRAIGHT_HORIZON} \
         copies={MAX_COPIES} cs={COPY_SLACK} ac=true",
        cfg.heuristic_step_limit, cfg.exact_step_limit, cfg.max_ii,
    )
}

/// The outcome of one gap cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GapRecord {
    /// Kernel name.
    pub kernel: String,
    /// Architecture name (paper machine or explore-point label).
    pub arch: String,
    /// `certified`, `gap_unknown`, `infeasible`, `disagreement`, or
    /// `error`.
    pub status: String,
    /// The heuristic's II (0 for loop-less kernels), or `None` when the
    /// heuristic failed.
    pub heuristic_ii: Option<u64>,
    /// The certified minimum II, when the verdict is `certified`.
    pub exact_ii: Option<u64>,
    /// The II lower bound the oracle started from.
    pub mii: u64,
    /// Total oracle search nodes expanded.
    pub nodes: u64,
    /// Error or verdict detail (empty when uneventful).
    pub detail: String,
}

impl GapRecord {
    /// The optimality gap `heuristic − exact`, when both sides are known.
    /// Negative only for `disagreement` records.
    pub fn gap(&self) -> Option<i64> {
        match (self.heuristic_ii, self.exact_ii) {
            (Some(h), Some(x)) => Some(h as i64 - x as i64),
            _ => None,
        }
    }

    fn json_fields(&self) -> String {
        use csched_core::trace::json_escape;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        format!(
            "\"kernel\":\"{}\",\"arch\":\"{}\",\"status\":\"{}\",\
             \"heuristic_ii\":{},\"exact_ii\":{},\"mii\":{},\"nodes\":{},\"detail\":\"{}\"",
            json_escape(&self.kernel),
            json_escape(&self.arch),
            json_escape(&self.status),
            opt(self.heuristic_ii),
            opt(self.exact_ii),
            self.mii,
            self.nodes,
            json_escape(&self.detail),
        )
    }
}

/// Result of [`run_gap`].
#[derive(Clone, Debug)]
pub struct GapReport {
    /// One record per cell, in enumeration order (paper grid
    /// kernel-major, then explore cells in sample order).
    pub records: Vec<GapRecord>,
    /// Cells satisfied from the resume journal instead of recomputed.
    pub resumed: usize,
}

impl GapReport {
    /// Records whose heuristic II is provably not optimal.
    pub fn nonzero_gaps(&self) -> Vec<&GapRecord> {
        self.records
            .iter()
            .filter(|r| r.status == "certified" && r.gap().is_some_and(|g| g > 0))
            .collect()
    }

    /// Records where the oracle's verdict excludes the validated
    /// heuristic II (a larger certified II, or an infeasibility proof
    /// that covers it), or where the heuristic schedule failed
    /// validation.
    pub fn disagreements(&self) -> Vec<&GapRecord> {
        self.records
            .iter()
            .filter(|r| r.status == "disagreement")
            .collect()
    }
}

/// One cell of a gap campaign: a named architecture and the kernel to
/// certify on it.
pub struct GapCell {
    /// The machine.
    pub arch: Architecture,
    /// The kernel.
    pub kernel: Kernel,
}

/// The default cell list: the full paper grid (ten kernels × four
/// Imagine organisations), plus `cfg.explore_sample` seeded
/// explore-family machines each paired with `Merge` (the smallest Table
/// 1 kernel — explore points are certified where the search is
/// tractable).
pub fn gap_cells(cfg: &GapConfig) -> Vec<GapCell> {
    let mut cells = Vec::new();
    for w in csched_kernels::all() {
        for arch in imagine::all_variants() {
            cells.push(GapCell {
                arch,
                kernel: w.kernel.clone(),
            });
        }
    }
    if cfg.explore_sample > 0 {
        if let Some(merge) = csched_kernels::by_name("Merge") {
            let space = DesignSpace::default();
            let mut rng = Rng::new(cfg.seed);
            let mut found = 0usize;
            // Sampling can yield unbuildable points; bound the retries so
            // a degenerate space cannot loop forever.
            for _ in 0..cfg.explore_sample * 16 {
                if found == cfg.explore_sample {
                    break;
                }
                let Some(point) = space.sample(&mut rng) else {
                    continue;
                };
                let Ok(arch) = point.build() else {
                    continue;
                };
                cells.push(GapCell {
                    arch,
                    kernel: merge.kernel.clone(),
                });
                found += 1;
            }
        }
    }
    cells
}

/// Measures one gap cell: heuristic schedule and oracle certification
/// under their respective step budgets.
pub fn measure_gap_cell(arch: &Architecture, kernel: &Kernel, cfg: &GapConfig) -> GapRecord {
    let hb = StepBudget::new(cfg.heuristic_step_limit);
    let heuristic = schedule_kernel_budgeted(arch, kernel, SchedulerConfig::default(), &hb);
    grade(arch, kernel, heuristic.as_ref(), cfg)
}

/// Why the oracle's `verdict` excludes a validated heuristic II, if it
/// does: a certified minimum above that II, or an infeasibility proof
/// whose II range holds it. Either the heuristic schedule lies outside
/// the oracle's normalised search space or a checker is wrong.
fn disagreement(verdict: &ExactVerdict, heuristic_ii: Option<u64>) -> Option<String> {
    let h = heuristic_ii?;
    match *verdict {
        ExactVerdict::Certified { ii } if u64::from(ii) > h => Some(format!(
            "oracle certified II={ii} above the validated heuristic II={h}"
        )),
        ExactVerdict::Infeasible { max_ii } if h <= u64::from(max_ii) => Some(format!(
            "oracle proved II<={max_ii} infeasible in its normalised space, \
             yet the validator accepted II={h}"
        )),
        _ => None,
    }
}

/// Validates the heuristic's answer and grades it against the oracle,
/// certifying under `cfg`'s II cap and oracle step budget.
pub fn grade(
    arch: &Architecture,
    kernel: &Kernel,
    heuristic: Result<&Schedule, &SchedError>,
    cfg: &GapConfig,
) -> GapRecord {
    let mut invalid = None;
    let (heuristic_ii, mut detail) = match heuristic {
        Ok(s) => match validate::validate(arch, kernel, s) {
            // Loop-less kernels report II 0, matching the oracle's sentinel.
            Ok(()) => (Some(s.ii().unwrap_or(0) as u64), String::new()),
            Err(violations) => {
                let text = violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ");
                invalid = Some(format!("heuristic schedule failed validation: {text}"));
                (None, String::new())
            }
        },
        Err(e) => (None, format!("heuristic: {e}")),
    };

    let xb = StepBudget::new(cfg.exact_step_limit);
    let mut record = match certify_min_ii(arch, kernel, cfg.max_ii, &xb) {
        Err(e) => GapRecord {
            kernel: kernel.name().to_string(),
            arch: arch.name().to_string(),
            status: "error".to_string(),
            heuristic_ii,
            exact_ii: None,
            mii: 0,
            nodes: 0,
            detail: format!("oracle: {e}"),
        },
        Ok(report) => {
            let exact_ii = report.verdict.certified_ii().map(u64::from);
            let status = match disagreement(&report.verdict, heuristic_ii) {
                Some(why) => {
                    detail = why;
                    "disagreement".to_string()
                }
                None => report.verdict.name().to_string(),
            };
            GapRecord {
                kernel: kernel.name().to_string(),
                arch: arch.name().to_string(),
                status,
                heuristic_ii,
                exact_ii,
                mii: report.mii as u64,
                nodes: report.nodes(),
                detail,
            }
        }
    };
    // A heuristic schedule the validator rejects is a soundness bug
    // whatever the oracle found.
    if let Some(violations) = invalid {
        record.status = "disagreement".to_string();
        record.detail = violations;
    }
    record
}

/// Runs a gap campaign over [`gap_cells`], journalling each finished
/// cell to `journal` (when given) and resuming completed cells from it
/// (when `resume`).
///
/// # Errors
///
/// [`CampaignError`] for journal I/O or corruption; individual cell
/// failures are recorded, never fatal.
pub fn run_gap(
    cfg: &GapConfig,
    journal: Option<&Path>,
    resume: bool,
) -> Result<GapReport, CampaignError> {
    run_gap_over(&gap_cells(cfg), cfg, journal, resume)
}

/// [`run_gap`] over an explicit cell list (the `oracle --cell` path).
///
/// # Errors
///
/// As [`run_gap`].
pub fn run_gap_over(
    cells: &[GapCell],
    cfg: &GapConfig,
    journal: Option<&Path>,
    resume: bool,
) -> Result<GapReport, CampaignError> {
    let fingerprint = gap_fingerprint(cfg);
    let done: HashMap<u64, GapRecord> = match (journal, resume) {
        (Some(path), true) if path.exists() => load_gap_journal(path)?,
        _ => HashMap::new(),
    };
    let mut journal = match journal {
        Some(path) => Some(Journal::open(path)?),
        None => None,
    };
    let mut records = Vec::with_capacity(cells.len());
    let mut resumed = 0usize;
    for cell in cells {
        let key = cell_key(cell.kernel.name(), cell.arch.name(), &fingerprint);
        if let Some(record) = done.get(&key) {
            records.push(record.clone());
            resumed += 1;
            continue;
        }
        let record = measure_gap_cell(&cell.arch, &cell.kernel, cfg);
        if let Some(j) = journal.as_mut() {
            j.append_line(&format!("{{\"key\":{key},{}}}", record.json_fields()))?;
        }
        records.push(record);
    }
    Ok(GapReport { records, resumed })
}

/// Loads a gap journal into a key → record map for `--resume`. Follows
/// the campaign journal's crash tolerance: a torn final line is ignored,
/// a malformed line anywhere else is [`CampaignError::Corrupt`].
///
/// # Errors
///
/// [`CampaignError::Io`] / [`CampaignError::Corrupt`].
pub fn load_gap_journal(path: &Path) -> Result<HashMap<u64, GapRecord>, CampaignError> {
    load_keyed(path, "gap journal", parse_gap_line)
}

fn parse_gap_line(line: &str) -> Option<(u64, GapRecord)> {
    if !line.starts_with("{\"key\":") || !line.ends_with('}') {
        return None;
    }
    let key = num_field(line, "key")?;
    Some((
        key,
        GapRecord {
            kernel: str_field(line, "kernel")?,
            arch: str_field(line, "arch")?,
            status: str_field(line, "status")?,
            heuristic_ii: num_field(line, "heuristic_ii"),
            exact_ii: num_field(line, "exact_ii"),
            mii: num_field(line, "mii")?,
            nodes: num_field(line, "nodes")?,
            detail: str_field(line, "detail")?,
        },
    ))
}

/// Renders a gap report as deterministic single-line-records JSON
/// (schema `gap-v1`): summary counts first, then every record in
/// campaign order. Byte-identical for identical records, however they
/// were obtained.
pub fn gap_json(report: &GapReport) -> String {
    use std::fmt::Write as _;
    let count = |status: &str| report.records.iter().filter(|r| r.status == status).count();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"gap-v1\",\"cells\":{},\"certified\":{},\"gap_unknown\":{},\
         \"infeasible\":{},\"disagreements\":{},\"errors\":{},\"nonzero_gaps\":{},\
         \"records\":[",
        report.records.len(),
        count("certified"),
        count("gap_unknown"),
        count("infeasible"),
        count("disagreement"),
        count("error"),
        report.nonzero_gaps().len(),
    );
    for (i, r) in report.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let gap = r.gap().map_or("null".to_string(), |g| g.to_string());
        let _ = write!(out, "{{{},\"gap\":{}}}", r.json_fields(), gap);
    }
    out.push_str("]}");
    out
}

/// Renders a gap report as a plain-text table.
pub fn gap_table(report: &GapReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<22} {:>5} {:>6} {:>4} {:>4}  status",
        "kernel", "arch", "heur", "exact", "gap", "mii"
    );
    for r in &report.records {
        let opt = |v: Option<u64>| v.map_or("?".to_string(), |v| v.to_string());
        let gap = r.gap().map_or("?".to_string(), |g| g.to_string());
        let _ = writeln!(
            out,
            "{:<20} {:<22} {:>5} {:>6} {:>4} {:>4}  {}",
            r.kernel,
            r.arch,
            opt(r.heuristic_ii),
            opt(r.exact_ii),
            gap,
            r.mii,
            r.status
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> GapConfig {
        GapConfig {
            heuristic_step_limit: 100_000,
            exact_step_limit: 500_000,
            ..GapConfig::default()
        }
    }

    fn merge_cells() -> Vec<GapCell> {
        let merge = csched_kernels::by_name("Merge").unwrap();
        vec![
            GapCell {
                arch: imagine::central(),
                kernel: merge.kernel.clone(),
            },
            GapCell {
                arch: imagine::clustered(2),
                kernel: merge.kernel.clone(),
            },
        ]
    }

    #[test]
    fn merge_cells_certify_with_zero_gap() {
        let cfg = tiny_cfg();
        let report = run_gap_over(&merge_cells(), &cfg, None, false).unwrap();
        assert_eq!(report.records.len(), 2);
        for r in &report.records {
            assert_eq!(r.status, "certified", "{r:?}");
            assert_eq!(r.gap(), Some(0), "Merge heuristic hits the MII: {r:?}");
            assert!(r.nodes > 0);
        }
        assert!(report.disagreements().is_empty());
    }

    #[test]
    fn an_oracle_verdict_that_excludes_a_validated_ii_is_a_disagreement() {
        let certified = ExactVerdict::Certified { ii: 5 };
        let infeasible = ExactVerdict::Infeasible { max_ii: 8 };
        let unknown = ExactVerdict::GapUnknown {
            spent: 10,
            limit: 10,
        };
        // A certified minimum above the heuristic II.
        assert_eq!(
            disagreement(&certified, Some(4)).as_deref(),
            Some("oracle certified II=5 above the validated heuristic II=4")
        );
        // An infeasibility proof whose range holds the heuristic II.
        assert_eq!(
            disagreement(&infeasible, Some(8)).as_deref(),
            Some(
                "oracle proved II<=8 infeasible in its normalised space, \
                 yet the validator accepted II=8"
            )
        );
        // Verdicts that leave the heuristic II possible.
        for (verdict, h) in [
            (certified, Some(5)),
            (certified, Some(9)),
            (infeasible, Some(9)),
            (unknown, Some(1)),
            (certified, None),
            (infeasible, None),
        ] {
            assert_eq!(disagreement(&verdict, h), None, "{verdict:?} vs {h:?}");
        }
    }

    #[test]
    fn an_invalid_heuristic_schedule_is_a_disagreement() {
        let merge = csched_kernels::by_name("Merge").unwrap();
        let arch = imagine::central();
        let mut schedule =
            csched_core::schedule_kernel(&arch, &merge.kernel, SchedulerConfig::default()).unwrap();
        // Push a producer past the end of its block: its consumer now
        // reads the value before it exists.
        let u = schedule.universe();
        let cid = u
            .comm_ids()
            .find(|&c| u.op(u.comm(c).producer).block == u.op(u.comm(c).consumer).block)
            .unwrap();
        let producer = u.comm(cid).producer;
        let push = schedule.block_len(u.op(producer).block) + 8;
        schedule.corrupt_placement_for_tests(producer, push);

        let record = grade(&arch, &merge.kernel, Ok(&schedule), &tiny_cfg());
        assert_eq!(record.status, "disagreement", "{record:?}");
        assert_eq!(record.heuristic_ii, None);
        assert!(
            record
                .detail
                .starts_with("heuristic schedule failed validation: "),
            "{record:?}"
        );
        let report = GapReport {
            records: vec![record],
            resumed: 0,
        };
        assert_eq!(report.disagreements().len(), 1);
        let json = gap_json(&report);
        assert!(json.contains("\"heuristic_ii\":null"), "{json}");
        assert!(json.contains("\"disagreements\":1"), "{json}");
    }

    #[test]
    fn journal_resume_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("csched-gap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("gap.jsonl");
        let _ = std::fs::remove_file(&journal);

        let cfg = tiny_cfg();
        let cells = merge_cells();
        let fresh = run_gap_over(&cells, &cfg, Some(&journal), false).unwrap();
        assert_eq!(fresh.resumed, 0);
        let fresh_json = gap_json(&fresh);

        // Simulate a SIGKILL mid-append: clip the journal to a torn tail.
        let full = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(full.lines().count(), 2);
        let first_line_end = full.find('\n').unwrap();
        let torn = &full[..first_line_end + 1 + 10]; // second record torn
        std::fs::write(&journal, torn).unwrap();

        let resumed = run_gap_over(&cells, &cfg, Some(&journal), true).unwrap();
        assert_eq!(resumed.resumed, 1, "first cell resumes, torn cell reruns");
        assert_eq!(
            gap_json(&resumed),
            fresh_json,
            "resume must not change a byte of the report"
        );

        // A third, fully-resumed run is also identical.
        let replay = run_gap_over(&cells, &cfg, Some(&journal), true).unwrap();
        assert_eq!(replay.resumed, 2);
        assert_eq!(gap_json(&replay), fresh_json);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gap_json_counts_statuses() {
        let report = GapReport {
            records: vec![
                GapRecord {
                    kernel: "A".into(),
                    arch: "m1".into(),
                    status: "certified".into(),
                    heuristic_ii: Some(5),
                    exact_ii: Some(4),
                    mii: 4,
                    nodes: 10,
                    detail: String::new(),
                },
                GapRecord {
                    kernel: "B".into(),
                    arch: "m1".into(),
                    status: "gap_unknown".into(),
                    heuristic_ii: Some(7),
                    exact_ii: None,
                    mii: 3,
                    nodes: 99,
                    detail: String::new(),
                },
            ],
            resumed: 0,
        };
        let json = gap_json(&report);
        assert!(
            json.starts_with("{\"schema\":\"gap-v1\",\"cells\":2,"),
            "{json}"
        );
        assert!(json.contains("\"certified\":1"), "{json}");
        assert!(json.contains("\"gap_unknown\":1"), "{json}");
        assert!(json.contains("\"nonzero_gaps\":1"), "{json}");
        assert!(json.contains("\"gap\":1"), "{json}");
        assert!(json.contains("\"exact_ii\":null"), "{json}");
        assert_eq!(report.nonzero_gaps().len(), 1);
    }

    /// Gap journals fold this text into their keys, so a change to it
    /// orphans every journal already written.
    #[test]
    fn default_fingerprint_keeps_its_text() {
        assert_eq!(
            gap_fingerprint(&GapConfig::default()),
            "gap-v1 hsl=400000 xsl=2000000 maxii=128 ws=8 sh=64 copies=4 cs=8 ac=true"
        );
    }

    #[test]
    fn fingerprint_changes_with_the_search_space() {
        let a = gap_fingerprint(&GapConfig::default());
        let cfg = GapConfig {
            max_ii: 64,
            ..GapConfig::default()
        };
        assert_ne!(a, gap_fingerprint(&cfg));
    }

    #[test]
    fn explore_sample_extends_the_cell_list() {
        let cfg = GapConfig {
            explore_sample: 3,
            ..GapConfig::default()
        };
        let cells = gap_cells(&cfg);
        assert_eq!(cells.len(), 43, "40 paper cells + 3 sampled");
        let again = gap_cells(&cfg);
        assert_eq!(
            cells.iter().map(|c| c.arch.name()).collect::<Vec<_>>(),
            again.iter().map(|c| c.arch.name()).collect::<Vec<_>>(),
            "seeded sampling is reproducible"
        );
    }
}
