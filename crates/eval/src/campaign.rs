//! Crash-consistent evaluation campaigns with per-cell isolation.
//!
//! A *campaign* is the kernel × architecture grid of [`crate::grid`],
//! rerun with three robustness upgrades:
//!
//! 1. **Per-cell isolation** — every cell finishes with a typed
//!    [`CellStatus`] (`Ok`, `Failed`, `TimedOut`, or `Skipped`); one bad
//!    cell never aborts the rest of the grid, unlike the fail-fast
//!    [`crate::grid::run_grid`].
//! 2. **Deadlines** — every scheduling call runs under a hard
//!    [`StepBudget`] of placement attempts, so no cell can stall the
//!    campaign; the attempt-denominated budget keeps timeouts
//!    deterministic across machines.
//! 3. **Checkpointing** — each completed cell is appended to a JSONL
//!    [`Journal`] keyed by a hash of (kernel, architecture, scheduler
//!    configuration) and flushed immediately. A campaign killed mid-run
//!    resumes from its journal, skips completed cells, and — because the
//!    scheduler and budget are deterministic — produces a report
//!    byte-for-byte identical to the uninterrupted run. A torn final
//!    line (the crash arriving mid-write) is tolerated on load.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use csched_core::trace::json_escape;
use csched_core::{
    regalloc, schedule_kernel_budgeted, validate, SchedError, SchedulerConfig, StepBudget,
    MAX_FU_CANDIDATES, MAX_STUB_CANDIDATES,
};
use csched_ir::Kernel;
use csched_machine::Architecture;

use crate::grid::{Cell, Grid, Row};
use crate::jsonl::{num_field, str_field};

/// How one campaign cell ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Scheduled and validated on its architecture.
    Ok,
    /// The scheduler returned a typed error, or validation rejected the
    /// schedule.
    Failed,
    /// The cell's placement-attempt budget ran dry before an answer.
    TimedOut,
    /// The cell never ran (for example its kernel file failed to parse).
    Skipped,
}

impl CellStatus {
    /// Stable lower-snake name used in journals and reports.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::TimedOut => "timed_out",
            CellStatus::Skipped => "skipped",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(CellStatus::Ok),
            "failed" => Some(CellStatus::Failed),
            "timed_out" => Some(CellStatus::TimedOut),
            "skipped" => Some(CellStatus::Skipped),
            _ => None,
        }
    }
}

/// One journaled campaign cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellRecord {
    /// Kernel name.
    pub kernel: String,
    /// Architecture name (`-` for cells that never reached a machine).
    pub arch: String,
    /// How the cell ended.
    pub status: CellStatus,
    /// Loop initiation interval (0 unless `status == Ok`).
    pub ii: u32,
    /// Copy operations in the schedule (0 unless `status == Ok`).
    pub copies: usize,
    /// Maximum register demand in any file (0 unless `status == Ok`).
    pub max_registers: usize,
    /// Placement attempts the cell charged to its budget.
    pub attempts: u64,
    /// Error or skip reason; empty on `Ok`.
    pub detail: String,
}

impl CellRecord {
    /// A `Skipped` record for work that never ran (e.g. a parse failure).
    pub fn skipped(kernel: &str, detail: String) -> Self {
        CellRecord {
            kernel: kernel.to_string(),
            arch: "-".to_string(),
            status: CellStatus::Skipped,
            ii: 0,
            copies: 0,
            max_registers: 0,
            attempts: 0,
            detail,
        }
    }

    /// Renders the record as one JSON object (one journal line, sans the
    /// key field the journal itself adds).
    pub(crate) fn json_fields(&self) -> String {
        format!(
            "\"kernel\":\"{}\",\"arch\":\"{}\",\"status\":\"{}\",\"ii\":{},\"copies\":{},\
             \"max_registers\":{},\"attempts\":{},\"detail\":\"{}\"",
            json_escape(&self.kernel),
            json_escape(&self.arch),
            self.status.name(),
            self.ii,
            self.copies,
            self.max_registers,
            self.attempts,
            json_escape(&self.detail),
        )
    }
}

/// FNV-1a over the cell's identity: kernel name, architecture name, and
/// the scheduler-configuration fingerprint. Journal entries from a
/// different configuration therefore never match on resume.
pub fn cell_key(kernel: &str, arch: &str, fingerprint: &str) -> u64 {
    fnv1a([kernel, "\u{1f}", arch, "\u{1f}", fingerprint].map(str::as_bytes))
}

/// FNV-1a over `parts` read as one byte string: the campaign's cell key
/// and the schedule cache's line checksum and kernel hash.
pub(crate) fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in parts.into_iter().flatten() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A stable fingerprint of everything that decides a cell's outcome:
/// the scheduler configuration knobs and candidate limits plus the
/// campaign step limit.
pub fn config_fingerprint(config: &SchedulerConfig, step_limit: u64) -> String {
    format!(
        "order={:?};heur={};closing={};search={};stubs={MAX_STUB_CANDIDATES};copyatt={};\
         noscan={};copydepth={};delay={};xslack={};maxii={};attperii={};\
         fucand={MAX_FU_CANDIDATES};step_limit={step_limit}",
        config.order,
        config.comm_cost_heuristic,
        config.closing_first,
        config.search_budget,
        config.max_copy_attempts,
        config.no_copy_scan,
        config.max_copy_depth,
        config.max_delay,
        config.cross_block_copy_slack,
        config.max_ii,
        config.max_attempts_per_ii,
    )
}

/// Typed errors from the campaign's journal I/O.
#[derive(Debug)]
pub enum CampaignError {
    /// A journal file operation failed.
    Io {
        /// The journal path.
        path: PathBuf,
        /// What was being done ("open", "append", "flush", "read").
        operation: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A journal line other than a torn final line failed to parse.
    Corrupt {
        /// The journal path.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// The journal cannot be created at this path at all — its parent
    /// directory is missing, or the location is read-only. Unlike the
    /// transient [`CampaignError::Io`], retrying cannot help; the path
    /// itself is wrong.
    Unwritable {
        /// The journal path that was requested.
        path: PathBuf,
        /// Why the path cannot hold a journal.
        detail: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io {
                path,
                operation,
                source,
            } => write!(
                f,
                "journal {}: {operation} failed: {source}",
                path.display()
            ),
            CampaignError::Corrupt { path, line, detail } => {
                write!(f, "journal {} line {line}: {detail}", path.display())
            }
            CampaignError::Unwritable { path, detail } => {
                write!(f, "journal path {} is unusable: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io { source, .. } => Some(source),
            CampaignError::Corrupt { .. } | CampaignError::Unwritable { .. } => None,
        }
    }
}

/// An append-only JSONL checkpoint journal: one line per completed cell,
/// flushed as soon as it is written so a crash loses at most the line in
/// flight — which [`Journal::load`] tolerates as a torn tail.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    durable: bool,
    repaired: u64,
}

impl Journal {
    /// Opens `path` for appending, creating it if needed.
    ///
    /// If the previous campaign crashed mid-append the file ends in a
    /// torn, newline-less fragment; appending after it would weld the
    /// fragment onto the next record. Open therefore *repairs* first:
    /// anything after the last newline is truncated away (the cell it
    /// belonged to was never completed, so nothing is lost).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Unwritable`] when the path cannot hold a journal
    /// at all (missing parent directory, read-only location);
    /// [`CampaignError::Io`] for transient I/O failures.
    pub fn open(path: &Path) -> Result<Journal, CampaignError> {
        let io = |operation: &'static str| {
            let path = path.to_path_buf();
            move |source| CampaignError::Io {
                path,
                operation,
                source,
            }
        };
        // Diagnose the two permanently-wrong cases up front with a typed
        // error naming the path, instead of letting the raw OS error
        // (which names neither the path nor the reason it is wrong)
        // bubble out of `open`.
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() && !parent.exists() {
                return Err(CampaignError::Unwritable {
                    path: path.to_path_buf(),
                    detail: format!("parent directory {} does not exist", parent.display()),
                });
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|source| {
                if source.kind() == std::io::ErrorKind::PermissionDenied {
                    CampaignError::Unwritable {
                        path: path.to_path_buf(),
                        detail: "permission denied (read-only directory or file)".to_string(),
                    }
                } else {
                    CampaignError::Io {
                        path: path.to_path_buf(),
                        operation: "open",
                        source,
                    }
                }
            })?;
        let contents = std::fs::read(path).map_err(io("read"))?;
        let keep = match contents.iter().rposition(|&b| b == b'\n') {
            Some(last_newline) => last_newline as u64 + 1,
            None => 0,
        };
        if keep != contents.len() as u64 {
            file.set_len(keep).map_err(io("truncate"))?;
        }
        use std::io::Seek as _;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0)).map_err(io("seek"))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            durable: false,
            repaired: contents.len() as u64 - keep,
        })
    }

    /// Bytes of torn tail (a crash arriving mid-append) that
    /// [`open`](Self::open) truncated away; 0 for a cleanly closed
    /// journal.
    pub fn repaired_bytes(&self) -> u64 {
        self.repaired
    }

    /// Switches durable sync on or off.
    ///
    /// With durable sync **off** (the default), [`append`](Self::append)
    /// flushes to the OS — enough to survive a killed *process* (the
    /// campaign contract) but not a lost *machine*: data sitting in the
    /// page cache dies with a power loss. With durable sync **on**,
    /// every append additionally `fsync`s file data to the device before
    /// returning, so a journal whose append succeeded survives power
    /// loss too. The serve cache runs durable; bulk campaigns usually
    /// prefer the faster flush-only mode.
    pub fn set_durable(&mut self, durable: bool) {
        self.durable = durable;
    }

    /// Whether durable (fsync-per-append) mode is on.
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// The path this journal appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one raw, newline-terminated-by-us line and flushes it to
    /// the OS (and, in durable mode, to the device) before returning —
    /// the primitive under [`append`](Self::append), exposed so other
    /// journal-backed stores (the serve schedule cache) reuse the same
    /// open/repair/flush machinery with their own record format.
    ///
    /// `line` must not itself contain a newline.
    pub fn append_line(&mut self, line: &str) -> Result<(), CampaignError> {
        let io = |operation: &'static str, path: &Path| {
            let path = path.to_path_buf();
            move |source| CampaignError::Io {
                path,
                operation,
                source,
            }
        };
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.file
            .write_all(framed.as_bytes())
            .map_err(io("append", &self.path))?;
        self.file.flush().map_err(io("flush", &self.path))?;
        if self.durable {
            self.file.sync_data().map_err(io("sync", &self.path))?;
        }
        Ok(())
    }

    /// Appends one cell under its key and flushes to the OS immediately
    /// (and to the device, in [durable](Self::set_durable) mode).
    pub fn append(&mut self, key: u64, record: &CellRecord) -> Result<(), CampaignError> {
        self.append_line(&format!("{{\"key\":{key},{}}}", record.json_fields()))
    }

    /// Loads a journal into a key → record map for `--resume`.
    ///
    /// A final line that does not parse is treated as torn by the crash
    /// that interrupted the campaign and ignored; a malformed line
    /// anywhere else is [`CampaignError::Corrupt`].
    pub fn load(path: &Path) -> Result<HashMap<u64, CellRecord>, CampaignError> {
        load_keyed(path, "journal", parse_journal_line)
    }

    /// What a run's `--journal`/`--resume` paths name: the journal opened
    /// for appending (when given) and the records to replay (empty when
    /// not). The replay is loaded first, so both may name one file.
    ///
    /// # Errors
    ///
    /// As [`Journal::load`] and [`Journal::open`].
    pub fn open_resumable(
        journal: Option<&Path>,
        resume: Option<&Path>,
    ) -> Result<(Option<Journal>, HashMap<u64, CellRecord>), CampaignError> {
        let replay = match resume {
            Some(path) => Journal::load(path)?,
            None => HashMap::new(),
        };
        Ok((journal.map(Journal::open).transpose()?, replay))
    }
}

/// The loader behind [`Journal::load`] and
/// [`crate::gap::load_gap_journal`]: `parse` turns a line into its
/// `(key, record)`, the last record per key wins, and a torn final line
/// is ignored (its cell simply reruns).
pub(crate) fn load_keyed<T>(
    path: &Path,
    what: &str,
    parse: impl Fn(&str) -> Option<(u64, T)>,
) -> Result<HashMap<u64, T>, CampaignError> {
    let contents = std::fs::read_to_string(path).map_err(|source| CampaignError::Io {
        path: path.to_path_buf(),
        operation: "read",
        source,
    })?;
    let lines: Vec<&str> = contents.lines().collect();
    let mut map = HashMap::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Some((key, record)) => {
                map.insert(key, record);
            }
            None if idx + 1 == lines.len() => {}
            None => {
                return Err(CampaignError::Corrupt {
                    path: path.to_path_buf(),
                    line: idx + 1,
                    detail: format!("unparseable {what} entry"),
                });
            }
        }
    }
    Ok(map)
}

fn parse_journal_line(line: &str) -> Option<(u64, CellRecord)> {
    if !line.starts_with("{\"key\":") || !line.ends_with('}') {
        return None;
    }
    let key = num_field(line, "key")?;
    let status = CellStatus::from_name(&str_field(line, "status")?)?;
    Some((
        key,
        CellRecord {
            kernel: str_field(line, "kernel")?,
            arch: str_field(line, "arch")?,
            status,
            ii: u32::try_from(num_field(line, "ii")?).ok()?,
            copies: usize::try_from(num_field(line, "copies")?).ok()?,
            max_registers: usize::try_from(num_field(line, "max_registers")?).ok()?,
            attempts: num_field(line, "attempts")?,
            detail: str_field(line, "detail")?,
        },
    ))
}

/// Result of [`run_campaign`].
#[derive(Debug)]
pub struct CampaignResult {
    /// One record per (kernel, architecture) cell, kernel-major in the
    /// order given, architecture-minor in the order given.
    pub records: Vec<CellRecord>,
    /// How many cells were satisfied from the resume map instead of
    /// being recomputed.
    pub resumed: usize,
}

impl CampaignResult {
    /// Whether every cell ended `Ok`.
    pub fn all_ok(&self) -> bool {
        self.records.iter().all(|r| r.status == CellStatus::Ok)
    }

    /// Count of cells with the given status.
    pub fn count(&self, status: CellStatus) -> usize {
        self.records.iter().filter(|r| r.status == status).count()
    }
}

/// Runs a campaign over `kernels` × `archs` with per-cell isolation.
///
/// Each cell schedules under a fresh [`StepBudget`] of `step_limit`
/// placement attempts and is recorded as `Ok`, `Failed`, or `TimedOut` —
/// never aborting the rest of the grid. Cells found in `resume` (keyed by
/// [`cell_key`]) are reused verbatim and **not** re-journaled; newly
/// computed cells are appended to `journal` (when given) and flushed
/// before the next cell starts.
pub fn run_campaign(
    kernels: &[(&str, &Kernel)],
    archs: &[Architecture],
    config: &SchedulerConfig,
    step_limit: u64,
    journal: Option<&mut Journal>,
    resume: &HashMap<u64, CellRecord>,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_jobs(kernels, archs, config, step_limit, journal, resume, 1)
}

/// [`run_campaign`] on up to `jobs` worker threads.
///
/// Cells are evaluated through [`crate::pool::run_indexed`]: workers
/// claim cells dynamically, but the records come back in the same
/// kernel-major order as the sequential run and journal appends happen
/// only on the calling thread, so both the report and the
/// crash-consistency guarantees are identical for every `jobs` — a
/// parallel campaign's [`campaign_json`] is byte-for-byte the
/// single-threaded one.
pub fn run_campaign_jobs(
    kernels: &[(&str, &Kernel)],
    archs: &[Architecture],
    config: &SchedulerConfig,
    step_limit: u64,
    mut journal: Option<&mut Journal>,
    resume: &HashMap<u64, CellRecord>,
    jobs: usize,
) -> Result<CampaignResult, CampaignError> {
    let fingerprint = config_fingerprint(config, step_limit);
    let mut items: Vec<(&str, &Kernel, &Architecture, u64)> =
        Vec::with_capacity(kernels.len() * archs.len());
    for &(name, kernel) in kernels {
        for arch in archs {
            items.push((
                name,
                kernel,
                arch,
                cell_key(name, arch.name(), &fingerprint),
            ));
        }
    }
    let mut resumed = 0usize;
    let results = crate::pool::run_indexed(
        &items,
        jobs,
        |_, &(name, kernel, arch, key)| match resume.get(&key) {
            Some(done) => (false, key, done.clone()),
            None => {
                let budget = StepBudget::new(step_limit);
                let timed_out = format!("step limit {step_limit} exhausted");
                let record = run_cell(name, kernel, arch, config, &budget, &timed_out);
                (true, key, record)
            }
        },
        |_, (fresh, key, record)| {
            if *fresh {
                if let Some(j) = journal.as_deref_mut() {
                    j.append(*key, record)?;
                }
            } else {
                resumed += 1;
            }
            Ok(())
        },
    )?;
    Ok(CampaignResult {
        records: results.into_iter().map(|(_, _, r)| r).collect(),
        resumed,
    })
}

/// Schedules one cell under `budget`, validates the schedule and reads
/// its register demand. A budget stop records `timed_out` as the detail.
/// The record's attempts are what `budget` spent during this call, so a
/// budget shared across cells charges each cell its own share.
pub(crate) fn run_cell(
    name: &str,
    kernel: &Kernel,
    arch: &Architecture,
    config: &SchedulerConfig,
    budget: &StepBudget,
    timed_out: &str,
) -> CellRecord {
    let before = budget.spent();
    let mut record = CellRecord {
        kernel: name.to_string(),
        arch: arch.name().to_string(),
        status: CellStatus::Failed,
        ii: 0,
        copies: 0,
        max_registers: 0,
        attempts: 0,
        detail: String::new(),
    };
    match schedule_kernel_budgeted(arch, kernel, config.clone(), budget) {
        Ok(schedule) => match validate::validate(arch, kernel, &schedule) {
            Ok(()) => {
                record.status = CellStatus::Ok;
                record.ii = schedule.ii().unwrap_or(1);
                record.copies = schedule.num_copies();
                record.max_registers = regalloc::analyze(arch, kernel, &schedule).max_required();
            }
            Err(violations) => {
                record.detail = format!(
                    "invalid schedule: {}",
                    violations
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("; ")
                );
            }
        },
        Err(SchedError::DeadlineExceeded { .. } | SchedError::Cancelled { .. }) => {
            record.status = CellStatus::TimedOut;
            record.detail = timed_out.to_string();
        }
        Err(e) => {
            record.detail = e.to_string();
        }
    }
    record.attempts = budget.spent() - before;
    record
}

/// Renders the campaign as one deterministic JSON document. The text is
/// a pure function of the records, so a resumed campaign whose records
/// match the uninterrupted run renders byte-for-byte identically.
pub fn campaign_json(records: &[CellRecord]) -> String {
    let mut s = String::from("{\"campaign\":{\"cells\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        s.push_str(&r.json_fields());
        s.push('}');
    }
    let count = |status: CellStatus| records.iter().filter(|r| r.status == status).count();
    s.push_str(&format!(
        "],\"summary\":{{\"total\":{},\"ok\":{},\"failed\":{},\"timed_out\":{},\"skipped\":{}}}}}}}",
        records.len(),
        count(CellStatus::Ok),
        count(CellStatus::Failed),
        count(CellStatus::TimedOut),
        count(CellStatus::Skipped),
    ));
    s
}

/// Rebuilds a figure-ready [`Grid`] from campaign records over `archs`:
/// rows are the kernels whose every cell is `Ok` (speedups need the full
/// row), in record order. Scheduler statistics and metrics are not
/// journaled, so the rebuilt cells carry defaults for those fields —
/// enough for the Figure 28/29 renderers, which read `ii` and `fits`.
/// `fits` compares the record's `max_registers` with the machine's
/// smallest file, which is exact when, as on the Imagine machines, all
/// of a machine's files hold the same number of registers.
pub fn grid_from_records(records: &[CellRecord], archs: &[Architecture]) -> Grid {
    let mut rows: Vec<Row> = Vec::new();
    let mut order: Vec<String> = Vec::new();
    let mut by_kernel: HashMap<String, Vec<&CellRecord>> = HashMap::new();
    for r in records {
        if !by_kernel.contains_key(&r.kernel) {
            order.push(r.kernel.clone());
        }
        by_kernel.entry(r.kernel.clone()).or_default().push(r);
    }
    for kernel in order {
        let Some(cells) = by_kernel.get(&kernel) else {
            continue;
        };
        let mut row_cells = Vec::with_capacity(archs.len());
        for arch in archs {
            match cells
                .iter()
                .find(|r| r.arch == arch.name() && r.status == CellStatus::Ok)
            {
                Some(r) => row_cells.push(Cell {
                    arch: arch.name().to_string(),
                    ii: r.ii.max(1),
                    copies: r.copies,
                    stats: Default::default(),
                    validated: true,
                    simulated: None,
                    max_registers: r.max_registers,
                    fits: arch
                        .rf_ids()
                        .all(|rf| r.max_registers <= arch.rf(rf).capacity()),
                    metrics: Default::default(),
                }),
                None => break,
            }
        }
        if row_cells.len() == archs.len() {
            rows.push(Row {
                kernel,
                cells: row_cells,
            });
        }
    }
    Grid {
        archs: archs.iter().map(|a| a.name().to_string()).collect(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csched_machine::imagine;

    fn record(kernel: &str, arch: &str, status: CellStatus, ii: u32) -> CellRecord {
        CellRecord {
            kernel: kernel.to_string(),
            arch: arch.to_string(),
            status,
            ii,
            copies: 2,
            max_registers: 7,
            attempts: 41,
            detail: if status == CellStatus::Ok {
                String::new()
            } else {
                "deliberate \"detail\"\nwith escapes".to_string()
            },
        }
    }

    #[test]
    fn rebuilt_cells_fit_only_when_their_files_hold_the_demand() {
        let archs = [imagine::distributed(), imagine::clustered(4)];
        let records = [
            CellRecord {
                max_registers: 17,
                ..record("FIR", "imagine-distributed", CellStatus::Ok, 25)
            },
            CellRecord {
                max_registers: 64,
                ..record("FIR", "imagine-clustered-4", CellStatus::Ok, 19)
            },
        ];
        let grid = grid_from_records(&records, &archs);
        let fits: Vec<bool> = grid.rows[0].cells.iter().map(|c| c.fits).collect();
        assert_eq!(fits, [false, true]);
    }

    #[test]
    fn keys_and_checksums_keep_their_fnv1a_values() {
        assert_eq!(fnv1a([b"a".as_slice()]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(cell_key("FFT", "central", "fp"), 8_527_896_245_817_773_696);
    }

    #[test]
    fn journal_round_trips_records() {
        let dir = std::env::temp_dir().join(format!("csched-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let a = record("Conv", "central", CellStatus::Ok, 11);
        let b = record("FFT", "clustered-2", CellStatus::Failed, 0);
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(cell_key("Conv", "central", "fp"), &a).unwrap();
            j.append(cell_key("FFT", "clustered-2", "fp"), &b).unwrap();
        }
        let map = Journal::load(&path).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map[&cell_key("Conv", "central", "fp")], a);
        assert_eq!(map[&cell_key("FFT", "clustered-2", "fp")], b);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_but_interior_corruption_is_typed() {
        let dir = std::env::temp_dir().join(format!("csched-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        let a = record("Conv", "central", CellStatus::Ok, 11);
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(1, &a).unwrap();
        }
        // Simulate a crash mid-append: a torn, unterminated final line.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":2,\"kernel\":\"FF").unwrap();
        }
        let map = Journal::load(&path).unwrap();
        assert_eq!(map.len(), 1, "torn tail must be ignored");

        // Reopening for append repairs the torn tail, so the next record
        // never welds onto the fragment.
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(3, &record("FIR", "central", CellStatus::Ok, 5))
                .unwrap();
        }
        let map = Journal::load(&path).unwrap();
        assert_eq!(map.len(), 2);
        assert!(map.contains_key(&1) && map.contains_key(&3));

        // Genuine interior corruption is a typed error, not silent loss.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "not json at all").unwrap();
            writeln!(
                f,
                "{{\"key\":4,{}}}",
                record("DCT", "central", CellStatus::Ok, 9).json_fields()
            )
            .unwrap();
        }
        match Journal::load(&path) {
            Err(CampaignError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_sync_mode_toggles_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("csched-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("durable.jsonl");
        let _ = std::fs::remove_file(&path);
        let a = record("Conv", "central", CellStatus::Ok, 11);
        let b = record("FFT", "central", CellStatus::Ok, 7);
        {
            // Start durable, then toggle off mid-journal: both appends
            // must land, bytes identical to the flush-only journal.
            let mut j = Journal::open(&path).unwrap();
            j.set_durable(true);
            assert!(j.is_durable());
            j.append(1, &a).unwrap();
            j.set_durable(false);
            assert!(!j.is_durable());
            j.append(2, &b).unwrap();
        }
        let map = Journal::load(&path).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map[&1], a);
        assert_eq!(map[&2], b);
        // A plain journal of the same records is byte-identical: durable
        // mode changes when bytes reach the device, never what they are.
        let plain = dir.join("plain.jsonl");
        let _ = std::fs::remove_file(&plain);
        {
            let mut j = Journal::open(&plain).unwrap();
            assert!(!j.is_durable());
            j.append(1, &a).unwrap();
            j.append(2, &b).unwrap();
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&plain).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&plain).unwrap();
    }

    #[test]
    fn missing_parent_directory_is_a_typed_unwritable_error() {
        let dir = std::env::temp_dir().join(format!(
            "csched-journal-missing-{}/no/such/dir",
            std::process::id()
        ));
        let path = dir.join("j.jsonl");
        match Journal::open(&path) {
            Err(CampaignError::Unwritable { path: p, detail }) => {
                assert_eq!(p, path);
                assert!(detail.contains("does not exist"), "{detail}");
                assert!(detail.contains("no/such/dir"), "{detail}");
            }
            other => panic!("expected Unwritable, got {other:?}"),
        }
        // The error's Display names the path — no bare I/O strings.
        let err = Journal::open(&path).unwrap_err();
        assert!(err.to_string().contains("j.jsonl"), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn read_only_directory_is_a_typed_unwritable_error() {
        use std::os::unix::fs::PermissionsExt as _;
        let dir = std::env::temp_dir().join(format!("csched-journal-ro-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut perms = std::fs::metadata(&dir).unwrap().permissions();
        perms.set_mode(0o555);
        std::fs::set_permissions(&dir, perms.clone()).unwrap();
        let path = dir.join("j.jsonl");
        let result = Journal::open(&path);
        // Restore before asserting so a failure doesn't leave a
        // read-only temp directory behind.
        perms.set_mode(0o755);
        std::fs::set_permissions(&dir, perms).unwrap();
        // Root (some CI containers) ignores directory permission bits;
        // everyone else must get the typed error with the path.
        match result {
            Err(CampaignError::Unwritable { path: p, detail }) => {
                assert_eq!(p, path);
                assert!(detail.contains("permission denied"), "{detail}");
            }
            Ok(_) => {} // running as root: the open legitimately succeeds
            other => panic!("expected Unwritable, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_key_separates_kernels_archs_and_configs() {
        let fp1 = config_fingerprint(&SchedulerConfig::default(), 1000);
        let fp2 = config_fingerprint(&SchedulerConfig::default(), 2000);
        assert_ne!(fp1, fp2);
        assert_ne!(cell_key("A", "x", &fp1), cell_key("A", "y", &fp1));
        assert_ne!(cell_key("A", "x", &fp1), cell_key("B", "x", &fp1));
        assert_ne!(cell_key("A", "x", &fp1), cell_key("A", "x", &fp2));
        // The separator keeps ("AB","C") distinct from ("A","BC").
        assert_ne!(cell_key("AB", "C", &fp1), cell_key("A", "BC", &fp1));
    }

    /// Serve cache keys and campaign and explore journals fold this text
    /// in, so a change to it orphans every key already written.
    #[test]
    fn default_fingerprint_keeps_its_text() {
        assert_eq!(
            config_fingerprint(&SchedulerConfig::default(), 0),
            "order=Operation;heur=true;closing=true;search=256;stubs=32;copyatt=64;noscan=6;\
             copydepth=3;delay=96;xslack=32;maxii=512;attperii=40000;fucand=10;step_limit=0"
        );
    }

    #[test]
    fn campaign_isolates_failures_and_reports_them() {
        let w = csched_kernels::by_name("Merge").unwrap();
        let kernels: Vec<(&str, &Kernel)> = vec![("Merge", &w.kernel)];
        let archs = [imagine::central(), imagine::clustered(2)];
        // A starvation budget times every cell out...
        let starved = run_campaign(
            &kernels,
            &archs,
            &SchedulerConfig::default(),
            2,
            None,
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(starved.count(CellStatus::TimedOut), 2);
        assert!(!starved.all_ok());
        for r in &starved.records {
            assert!(r.attempts <= 2);
        }
        // ...while a real budget completes the same cells.
        let healthy = run_campaign(
            &kernels,
            &archs,
            &SchedulerConfig::default(),
            200_000,
            None,
            &HashMap::new(),
        )
        .unwrap();
        assert!(healthy.all_ok(), "{:?}", healthy.records);
        let grid = grid_from_records(&healthy.records, &archs);
        assert_eq!(grid.rows.len(), 1);
        assert!(grid.rows[0].speedup(1) > 0.0);
    }

    #[test]
    fn parallel_campaign_matches_sequential_byte_for_byte() {
        let merge = csched_kernels::by_name("Merge").unwrap();
        let sort = csched_kernels::by_name("Sort").unwrap();
        let kernels: Vec<(&str, &Kernel)> = vec![("Merge", &merge.kernel), ("Sort", &sort.kernel)];
        let archs = [imagine::central(), imagine::distributed()];
        let config = SchedulerConfig::default();
        let golden = run_campaign(&kernels, &archs, &config, 200_000, None, &HashMap::new())
            .map(|r| campaign_json(&r.records))
            .unwrap();
        for jobs in [2, 4] {
            let got = run_campaign_jobs(
                &kernels,
                &archs,
                &config,
                200_000,
                None,
                &HashMap::new(),
                jobs,
            )
            .map(|r| campaign_json(&r.records))
            .unwrap();
            assert_eq!(got, golden, "jobs={jobs}");
        }
    }
}
