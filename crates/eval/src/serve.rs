//! `csched-serve` — a hardened, long-running scheduler service.
//!
//! The library turns one machine into a scheduling server: clients send
//! a kernel and a machine description in the existing textual wire
//! formats ([`csched_ir::text`], [`csched_machine::text`]) over TCP and
//! get back the scheduled initiation interval, copy count, and register
//! demand. Finished schedules are remembered in a **content-addressed
//! cache** keyed by (canonical kernel text hash ×
//! [`Architecture::fingerprint`](csched_machine::Architecture::fingerprint)
//! × scheduler-configuration fingerprint), persisted in a checksummed
//! journal, so a warm request skips scheduling entirely.
//!
//! Every edge is hardened:
//!
//! - **Admission control.** Connections are admitted to a *bounded*
//!   queue in front of the deterministic worker pool
//!   ([`crate::pool::Service`]). When the queue is full the acceptor
//!   sheds the connection with a typed `ERR overload` response in
//!   microseconds — an overloaded server answers, it never hangs, and
//!   admitted work is never abandoned.
//! - **Per-request deadlines.** Each request schedules under a
//!   [`StepBudget`] of placement attempts (deterministic), optionally
//!   fenced by a wall-clock deadline carried by the budget's
//!   [`CancelToken`], which reads as cancelled once the deadline passes.
//!   Socket reads and writes carry timeouts, so a stalled client cannot
//!   pin a worker.
//! - **Bounded work, cacheable answers.** Scheduling runs the anytime
//!   ladder ([`csched_core::schedule_kernel_anytime`]), which answers
//!   with its first schedule. A step limit too small for the scheduler's
//!   full per-II effort cuts that effort, and the answer is flagged
//!   `degraded=1`; a step limit or wall-clock deadline that runs out
//!   before any schedule is found answers `ERR deadline`. Every computed
//!   `OK` is therefore a function of the key and the step limit, and
//!   every one is cached, to be served only at that same step limit.
//! - **Corruption quarantine.** The cache journal checksums every
//!   entry. A torn final line (crash mid-append) is repaired silently;
//!   a bit-flipped interior entry is *quarantined* on load — serving
//!   continues, the key misses, is re-scheduled on its next request,
//!   and the fresh entry is re-journaled (last record wins on the next
//!   load, lifting the quarantine).
//! - **Crash consistency.** Entries are journaled (flushed, and
//!   `fsync`ed in durable mode) before the response is sent, so a
//!   `kill -9` mid-request loses only the requests in flight: a
//!   restarted server answers every previously cached key byte-for-byte
//!   identically.
//! - **Slowloris defense.** The whole request-read runs under one
//!   per-phase wall deadline ([`ServeConfig::read_phase_ms`]): header
//!   lines and body chunks are read piecewise with the deadline checked
//!   and the socket timeout re-armed between reads, so a client
//!   dripping one byte per tick is cut off with `ERR malformed` when
//!   the phase budget expires — a per-call socket timeout alone can
//!   never fire against such a client.
//! - **Journal compaction.** When the journal grows past
//!   [`CompactionPolicy`] thresholds it is rewritten last-record-wins
//!   into a temp file and atomically renamed over the original;
//!   over-cap caches evict their oldest-inserted entries first.
//!   Compaction physically drops quarantined lines, so a heal is
//!   complete the moment a compaction lands. `compactions`,
//!   `evicted_entries`, `journal_bytes`, and `degraded_writes` are all
//!   surfaced in `STATS`.
//! - **Degraded serve-from-memory.** When the disk fills (`ENOSPC`)
//!   mid-journal-append, the cache latches into a degraded mode:
//!   scheduling and serving continue from memory, writes stop (the full
//!   disk is not retried on every request), and the latch is visible in
//!   `STATS` as `write_degraded` — the service degrades to
//!   non-persistent instead of dying.
//! - **Client-side retries.** [`client_request_retry`] classifies
//!   responses ([`response_complete`]/[`response_retryable`]) and
//!   retries transient failures under a seeded full-jitter exponential
//!   backoff ([`RetryConfig`]), returning a [`RetryReport`] of every
//!   attempt. Retries are idempotent by construction: the server
//!   journals before responding, so a retried key at worst hits the
//!   cache.
//!
//! ## Wire protocol
//!
//! One request per connection, newline-framed headers with byte-counted
//! bodies:
//!
//! ```text
//! SCHED [limit=<attempts>] [wall_ms=<ms>]
//! KERNEL <len>
//! <len bytes of kernel text>
//! ARCH <len>
//! <len bytes of machine text>
//! END
//! ```
//!
//! The server replies `CACHE hit|miss`, then either
//! `OK ii=<n> copies=<n> max_registers=<n> attempts=<n> degraded=<0|1>`
//! or `ERR <kind> <detail>` with `kind` one of `overload`, `malformed`,
//! `deadline`, `sched`, `internal` — then closes the connection.
//! `STATS` on a connection of its own returns one JSON line of
//! counters.
//!
//! Three observability verbs ride the same framing
//! (see [`crate::telemetry`]):
//!
//! - `METRICS` returns one JSON line (schema-versioned counts,
//!   deterministic log-bucketed latency/attempts histograms per
//!   outcome, the recent-request span ring) followed by a
//!   Prometheus-style text exposition;
//! - `TRACE [limit=] [wall_ms=] [events=<cap>] [full=1]` frames,
//!   schedules and validates exactly like `SCHED`, but *bypasses the
//!   cache*, attaches a [`TraceSink`](csched_core::trace::TraceSink)
//!   to the scheduler, and streams
//!   the decision-level trace events back as JSONL (each line gains a
//!   leading `"req"` key), then a
//!   `TRACE end events=<sent> total=<seen> truncated=<0|1>` summary,
//!   then the usual `OK`/`ERR` line. The event cap (client-requested,
//!   clamped to [`TRACE_EVENT_CAP`]) bounds what a worker
//!   will ever write, so a slow trace reader cannot pin a worker any
//!   longer than an ordinary slow client;
//! - every `SCHED`/`TRACE` request is recorded as a
//!   [`RequestSpan`] with per-stage
//!   timings — including shed connections (recorded by the acceptor),
//!   wall-clock deadline expiries, and requests served during the ENOSPC
//!   degraded latch — unless [`ServeConfig::telemetry`] is off, in
//!   which case the schedule path runs sink-free and records nothing.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csched_core::{
    explain, regalloc, schedule_kernel_anytime, schedule_kernel_anytime_traced, validate,
    CancelToken, RetryPolicy, SchedulerConfig, StepBudget,
};
use csched_ir::Kernel;

use crate::campaign::{cell_key, config_fingerprint, fnv1a, CampaignError, Journal};
use crate::jsonl::num_field;
use crate::pool::{Rejected, Service};
use crate::telemetry::{
    elapsed_us, CacheDisposition, Outcome as SpanOutcome, RequestSpan, Telemetry, TraceCapture,
    METRICS_SCHEMA,
};

/// Typed failures of the serve layer (distinct from
/// [`csched_core::SchedError`]: these
/// are service problems — sockets, cache storage, protocol — not
/// scheduling ones).
#[derive(Debug)]
pub enum ServeError {
    /// Binding or accepting on the listen address failed.
    Bind {
        /// The address that could not be served.
        addr: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A socket read/write failed (client side or server side).
    Io {
        /// What was being done.
        context: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The persistent cache store failed (journal I/O).
    Cache(CampaignError),
    /// A response (client side) or request (server side) violated the
    /// wire protocol.
    Protocol {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot serve on {addr}: {source}"),
            ServeError::Io { context, source } => write!(f, "{context}: {source}"),
            ServeError::Cache(e) => write!(f, "schedule cache: {e}"),
            ServeError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } | ServeError::Io { source, .. } => Some(source),
            ServeError::Cache(e) => Some(e),
            ServeError::Protocol { .. } => None,
        }
    }
}

/// Server tunables. `Default` is sized for tests and smoke runs; a real
/// deployment raises `jobs`/`queue_cap`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads scheduling requests.
    pub jobs: usize,
    /// Admission-queue capacity; connections beyond `jobs + queue_cap`
    /// in flight are shed with `ERR overload`.
    pub queue_cap: usize,
    /// Default per-request placement-attempt budget.
    pub step_limit: u64,
    /// Server-wide wall-clock deadline per request, in milliseconds
    /// (`None` = placement-attempt budget only).
    pub wall_ms: Option<u64>,
    /// Socket read/write timeout per *call* — a stalled client cannot
    /// pin a worker in one blocking read longer than this.
    pub io_timeout: Duration,
    /// Wall budget for reading one *whole* request (headers and bodies
    /// together). A per-call timeout alone cannot stop a slowloris
    /// client dripping one byte per tick — every individual read
    /// succeeds — so the read phase also carries this total deadline,
    /// checked between reads, with the remaining time re-armed as the
    /// socket timeout so the worker is freed within the budget.
    pub read_phase_ms: u64,
    /// Persistent cache journal path (`None` = in-memory cache only).
    pub cache_path: Option<PathBuf>,
    /// `fsync` each cache append (survives power loss, not just
    /// `kill -9`).
    pub durable: bool,
    /// Journal compaction thresholds (see [`CompactionPolicy`]).
    pub compaction: CompactionPolicy,
    /// Record per-request telemetry spans and histograms. When off, the
    /// schedule path runs with no trace sink attached and records
    /// nothing — `METRICS`/`TRACE` still answer, over empty
    /// aggregates.
    pub telemetry: bool,
}

/// Hard cap on client-requested budgets (`limit=` is clamped here).
const MAX_STEP_LIMIT: u64 = 1 << 22;
/// Maximum bytes accepted for one kernel or machine body.
const MAX_REQUEST_BYTES: usize = 1 << 20;
/// Capacity of the recent-request span ring.
const SPAN_RING: usize = 64;
/// Hard cap on trace events streamed per `TRACE` request
/// (client-requested `events=` is clamped here).
pub const TRACE_EVENT_CAP: usize = 4096;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: 4,
            queue_cap: 16,
            step_limit: 200_000,
            wall_ms: None,
            io_timeout: Duration::from_millis(5_000),
            read_phase_ms: 10_000,
            cache_path: None,
            durable: false,
            compaction: CompactionPolicy::default(),
            telemetry: true,
        }
    }
}

/// When and how far the schedule-cache journal is compacted.
///
/// An append-only journal grows without bound: every re-scheduled key,
/// every quarantine heal, and every corrupt line stays on disk forever.
/// Compaction rewrites the journal *last-record-wins* — one checksummed
/// line per live entry — into a temp file that is atomically renamed
/// over the journal, so a crash at any instant leaves either the old or
/// the new journal, never a mix. Corrupt lines and superseded records
/// are dropped by construction; quarantined keys simply vanish (their
/// payload was never trustworthy) and miss until re-scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact when the journal exceeds this many bytes *and* holds at
    /// least one dead line (a rewrite that cannot shrink is pointless).
    pub max_journal_bytes: u64,
    /// Hard cap on live cache entries. When an insert pushes the map
    /// past this, compaction also *evicts* the oldest-inserted entries
    /// down to 3/4 of the cap (the slack stops a full cache from
    /// rewriting the journal on every insert).
    pub max_entries: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_journal_bytes: 1 << 22,
            max_entries: 1 << 16,
        }
    }
}

/// One cached scheduling outcome — everything a response needs, nothing
/// machine-specific, so a warm response is a pure function of the entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// Initiation interval (0 for straight-line kernels).
    pub ii: u32,
    /// Copy operations inserted.
    pub copies: u64,
    /// Maximum register demand in any file.
    pub max_registers: u64,
    /// Placement attempts the cold schedule charged.
    pub attempts: u64,
    /// Whether the step limit shaped the result: it cut the scheduler's
    /// per-II effort ([`csched_core::AnytimeReport::degraded`]).
    pub degraded: bool,
    /// The placement-attempt budget the entry was computed under. The
    /// entry answers only requests at this limit: the anytime answer is
    /// a function of (key, limit) but does not grow with the limit, so
    /// another limit can answer otherwise, `ERR deadline` included.
    pub limit: u64,
}

impl CacheEntry {
    /// The checksummed journal line body (sans `sum`).
    fn body(&self, key: u64) -> String {
        format!(
            "\"key\":{key},\"ii\":{},\"copies\":{},\"max_registers\":{},\"attempts\":{},\
             \"degraded\":{},\"limit\":{}",
            self.ii,
            self.copies,
            self.max_registers,
            self.attempts,
            u8::from(self.degraded),
            self.limit,
        )
    }

    /// Renders the full journal line: `{<body>,"sum":<fnv1a(body)>}`.
    fn to_line(&self, key: u64) -> String {
        let body = self.body(key);
        format!("{{{body},\"sum\":{}}}", fnv1a([body.as_bytes()]))
    }

    /// Parses and checksum-verifies one journal line.
    fn parse_line(line: &str) -> Option<(u64, CacheEntry)> {
        let rest = line.strip_prefix('{')?.strip_suffix('}')?;
        let sum_at = rest.rfind(",\"sum\":")?;
        let (body, sum_text) = rest.split_at(sum_at);
        let sum: u64 = sum_text.strip_prefix(",\"sum\":")?.parse().ok()?;
        if fnv1a([body.as_bytes()]) != sum {
            return None;
        }
        let entry = CacheEntry {
            ii: u32::try_from(num_field(body, "ii")?).ok()?,
            copies: num_field(body, "copies")?,
            max_registers: num_field(body, "max_registers")?,
            attempts: num_field(body, "attempts")?,
            degraded: num_field(body, "degraded")? != 0,
            limit: num_field(body, "limit")?,
        };
        Some((num_field(body, "key")?, entry))
    }
}

/// The content hash of a kernel: FNV-1a over its *canonical* textual
/// form, so semantically identical requests (same kernel, different
/// whitespace or comments) share one cache slot.
pub fn kernel_hash(kernel: &Kernel) -> u64 {
    fnv1a([csched_ir::text::print(kernel).as_bytes()])
}

/// The content-addressed cache key of one request:
/// (kernel text hash × architecture structural fingerprint × scheduler
/// configuration fingerprint).
pub fn cache_key(kernel_hash: u64, arch_fingerprint: u64, config_fp: &str) -> u64 {
    cell_key(
        &format!("{kernel_hash:016x}"),
        &format!("{arch_fingerprint:016x}"),
        config_fp,
    )
}

/// What [`ScheduleCache::open`] found on disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheLoadReport {
    /// Entries loaded clean (checksum verified).
    pub entries: usize,
    /// Keys quarantined: their newest journal line was corrupt.
    pub quarantined: usize,
    /// Corrupt (checksum-failing or unparseable) lines seen, including
    /// ones whose key could not be recovered.
    pub corrupt_lines: usize,
    /// Bytes of torn tail (crash mid-append) repaired on open.
    pub repaired_bytes: u64,
}

/// The content-addressed schedule cache: an in-memory map backed by a
/// checksummed, append-only journal (reusing the campaign
/// [`Journal`]'s open/repair/flush machinery), compacted last-record-wins
/// when the journal outgrows its [`CompactionPolicy`], and latched into a
/// degraded serve-from-memory mode when the disk fills (the first full
/// disk stops all journaling instead of hammering the device on every
/// request).
#[derive(Debug)]
pub struct ScheduleCache {
    map: HashMap<u64, CacheEntry>,
    /// Keys whose newest journal line failed its checksum: known to
    /// exist but untrusted, so they miss until re-scheduled.
    quarantined: HashSet<u64>,
    /// Insertion sequence per key — the eviction order (oldest first).
    touch: HashMap<u64, u64>,
    next_seq: u64,
    journal: Option<Journal>,
    policy: CompactionPolicy,
    corrupt_lines: usize,
    repaired_bytes: u64,
    /// Journal size tracking for the byte-threshold compaction trigger.
    journal_bytes: u64,
    journal_lines: u64,
    /// Monotonic counters surfaced through `STATS`.
    compactions: u64,
    evicted_entries: u64,
    degraded_writes: u64,
    /// Latched on the first ENOSPC: all further inserts stay in memory.
    degraded: bool,
}

impl ScheduleCache {
    /// Opens (or creates) the cache with the default
    /// [`CompactionPolicy`]. Corrupt entries are quarantined and
    /// reported, never fatal: a served cache heals by re-scheduling.
    ///
    /// # Errors
    ///
    /// Only journal I/O ([`CampaignError::Io`] /
    /// [`CampaignError::Unwritable`]); corruption is *not* an error.
    pub fn open(
        path: Option<&Path>,
        durable: bool,
    ) -> Result<(ScheduleCache, CacheLoadReport), CampaignError> {
        Self::open_with(path, durable, CompactionPolicy::default())
    }

    /// [`open`](Self::open) with an explicit compaction policy.
    ///
    /// # Errors
    ///
    /// Only journal I/O ([`CampaignError::Io`] /
    /// [`CampaignError::Unwritable`]); corruption is *not* an error.
    pub fn open_with(
        path: Option<&Path>,
        durable: bool,
        policy: CompactionPolicy,
    ) -> Result<(ScheduleCache, CacheLoadReport), CampaignError> {
        let mut cache = ScheduleCache {
            map: HashMap::new(),
            quarantined: HashSet::new(),
            touch: HashMap::new(),
            next_seq: 0,
            journal: None,
            policy,
            corrupt_lines: 0,
            repaired_bytes: 0,
            journal_bytes: 0,
            journal_lines: 0,
            compactions: 0,
            evicted_entries: 0,
            degraded_writes: 0,
            degraded: false,
        };
        let Some(path) = path else {
            return Ok((cache, CacheLoadReport::default()));
        };
        if path.exists() {
            // Read raw bytes, not a String: a single non-UTF-8 byte
            // (disk corruption) must cost one quarantined line, never
            // the whole cache.
            let bytes = std::fs::read(path).map_err(|source| CampaignError::Io {
                path: path.to_path_buf(),
                operation: "read",
                source,
            })?;
            let ends_with_newline = bytes.last() == Some(&b'\n');
            let lines: Vec<std::borrow::Cow<'_, str>> = bytes
                .split(|b| *b == b'\n')
                .map(String::from_utf8_lossy)
                .filter(|l| !l.trim().is_empty())
                .collect();
            for (idx, line) in lines.iter().enumerate() {
                let line = line.strip_suffix('\r').unwrap_or(line);
                cache.journal_lines += 1;
                match CacheEntry::parse_line(line) {
                    Some((key, entry)) => {
                        // Last record wins: a re-journaled entry lifts an
                        // earlier quarantine of the same key.
                        cache.map.insert(key, entry);
                        cache.quarantined.remove(&key);
                        let seq = cache.next_seq;
                        cache.next_seq += 1;
                        cache.touch.insert(key, seq);
                    }
                    None if idx == lines.len() - 1 && !ends_with_newline => {
                        // Torn tail: the crash arrived mid-append; the
                        // journal open below truncates it away.
                        cache.journal_lines -= 1;
                    }
                    None => {
                        cache.corrupt_lines += 1;
                        // Quarantine the key if it is still legible, so
                        // the bit-flipped payload is never served.
                        if let Some(key) = num_field(line, "key") {
                            cache.map.remove(&key);
                            cache.touch.remove(&key);
                            cache.quarantined.insert(key);
                        }
                    }
                }
            }
        }
        let mut journal = if durable {
            Journal::open_durable(path)?
        } else {
            Journal::open(path)?
        };
        journal.set_durable(durable);
        cache.repaired_bytes = journal.repaired_bytes();
        cache.journal_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        cache.journal = Some(journal);
        let report = CacheLoadReport {
            entries: cache.map.len(),
            quarantined: cache.quarantined.len(),
            corrupt_lines: cache.corrupt_lines,
            repaired_bytes: cache.repaired_bytes,
        };
        Ok((cache, report))
    }

    /// Looks up a warm entry for a request budgeted at `limit`: only an
    /// entry computed at that same limit answers. Quarantined keys always
    /// miss.
    pub fn lookup(&self, key: u64, limit: u64) -> Option<&CacheEntry> {
        if self.quarantined.contains(&key) {
            return None;
        }
        self.map.get(&key).filter(|e| e.limit == limit)
    }

    /// Inserts and journals an entry (journaled *before* it is visible,
    /// so a response is only ever sent for a durably recorded entry).
    /// Re-inserting a quarantined key lifts the quarantine. May trigger
    /// a [compaction](CompactionPolicy) afterwards.
    ///
    /// A full disk (ENOSPC) does **not** fail the insert: the cache
    /// latches into degraded serve-from-memory mode — the entry lands in
    /// the map, `degraded_writes` counts it, and no further journal
    /// writes are attempted until the process restarts. Losing
    /// crash-durability beats refusing to serve.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on journal failures other than a full disk.
    pub fn insert(&mut self, key: u64, entry: CacheEntry) -> Result<(), CampaignError> {
        if self.journal.is_some() {
            if self.degraded {
                self.degraded_writes += 1;
            } else {
                let line = entry.to_line(key);
                // Borrow the journal only for the append so the latch
                // path below can mutate the rest of the cache.
                let appended = match self.journal.as_mut() {
                    Some(journal) => journal.append_line(&line),
                    None => Ok(()),
                };
                match appended {
                    Ok(()) => {
                        self.journal_bytes += line.len() as u64 + 1;
                        self.journal_lines += 1;
                    }
                    Err(e) if is_disk_full(&e) => {
                        self.degraded = true;
                        self.degraded_writes += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        self.quarantined.remove(&key);
        self.map.insert(key, entry);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.touch.insert(key, seq);
        self.maybe_compact()
    }

    /// Whether the journal currently deserves a compaction pass.
    fn wants_compaction(&self) -> bool {
        if self.journal.is_none() || self.degraded {
            return false;
        }
        let over_cap = self.map.len() > self.policy.max_entries;
        // The byte trigger only fires when a rewrite can actually
        // shrink the file (dead lines exist: superseded or corrupt).
        let oversized = self.journal_bytes > self.policy.max_journal_bytes
            && self.journal_lines > self.map.len() as u64;
        over_cap || oversized
    }

    fn maybe_compact(&mut self) -> Result<(), CampaignError> {
        if self.wants_compaction() {
            self.compact()
        } else {
            Ok(())
        }
    }

    /// Rewrites the journal last-record-wins (evicting down to the entry
    /// cap first): live entries stream into `<path>.compact`, the temp
    /// file is fsynced and atomically renamed over the journal, and the
    /// journal handle is reopened on the new file. A crash anywhere in
    /// between leaves either the complete old journal or the complete
    /// new one.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on temp-file/rename failures — except a
    /// full disk, which latches degraded mode (the old journal stays in
    /// place and serving continues from memory).
    pub fn compact(&mut self) -> Result<(), CampaignError> {
        let Some(journal) = self.journal.take() else {
            return Ok(());
        };
        let path = journal.path().to_path_buf();
        let durable = journal.is_durable();
        drop(journal); // close the append handle before the rename dance

        // Evict oldest-inserted entries down to 3/4 of the cap.
        if self.map.len() > self.policy.max_entries {
            let target = (self.policy.max_entries - self.policy.max_entries / 4).max(1);
            let mut order: Vec<(u64, u64)> = self
                .map
                .keys()
                .map(|&k| (self.touch.get(&k).copied().unwrap_or(0), k))
                .collect();
            order.sort_unstable();
            let doomed = self.map.len().saturating_sub(target);
            for &(_, key) in order.iter().take(doomed) {
                self.map.remove(&key);
                self.touch.remove(&key);
                self.evicted_entries += 1;
            }
        }

        let mut failure = None;
        let mut rewrote = false;
        match self.write_compacted(&path, durable) {
            Ok(()) => {
                // The corrupt lines are gone from disk, so their keys no
                // longer need an in-memory quarantine: a missing key
                // misses exactly like a quarantined one.
                self.quarantined.clear();
                self.compactions += 1;
                rewrote = true;
            }
            Err(e) if is_disk_full(&e) => {
                // No room for the rewrite: keep serving from memory with
                // the old journal file intact on disk.
                self.degraded = true;
            }
            Err(e) => failure = Some(e),
        }
        // Always reopen the journal (the compacted file on success, the
        // untouched original otherwise) so the cache keeps journaling
        // even when this pass failed.
        let reopened = if durable {
            Journal::open_durable(&path)
        } else {
            Journal::open(&path)
        };
        match reopened {
            Ok(j) => {
                self.journal_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                if rewrote {
                    self.journal_lines = self.map.len() as u64;
                }
                self.journal = Some(j);
            }
            Err(e) if is_disk_full(&e) => {
                self.degraded = true;
            }
            Err(e) => {
                if failure.is_none() {
                    failure = Some(e);
                }
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Streams the live entries (in insertion order) into a temp file and
    /// atomically renames it over `path`.
    fn write_compacted(&self, path: &Path, durable: bool) -> Result<(), CampaignError> {
        use std::io::Write as _;
        let io = |operation: &'static str| {
            let path = path.to_path_buf();
            move |source| CampaignError::Io {
                path,
                operation,
                source,
            }
        };
        let tmp = path.with_extension("compact");
        {
            let file = std::fs::File::create(&tmp).map_err(io("create temp"))?;
            let mut writer = std::io::BufWriter::new(file);
            let mut order: Vec<(u64, u64)> = self
                .map
                .keys()
                .map(|&k| (self.touch.get(&k).copied().unwrap_or(0), k))
                .collect();
            order.sort_unstable();
            for &(_, key) in &order {
                if let Some(entry) = self.map.get(&key) {
                    writeln!(writer, "{}", entry.to_line(key)).map_err(io("write temp"))?;
                }
            }
            writer.flush().map_err(io("flush temp"))?;
            // Sync before the rename regardless of durable mode: the
            // rename must never become visible ahead of the data.
            writer.get_ref().sync_data().map_err(io("sync temp"))?;
            let _ = durable; // durability of appends is re-armed on reopen
        }
        std::fs::rename(&tmp, path).map_err(io("rename"))
    }

    /// Cached entries currently servable.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Keys currently quarantined (corrupt on disk, awaiting
    /// re-scheduling).
    pub fn quarantined(&self) -> usize {
        self.quarantined.len()
    }

    /// Compactions performed since open.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Entries evicted (oldest-inserted first) by over-cap compactions.
    pub fn evicted_entries(&self) -> u64 {
        self.evicted_entries
    }

    /// Current journal size in bytes (0 for an in-memory cache).
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes
    }

    /// Current journal line count, dead lines included.
    pub fn journal_lines(&self) -> u64 {
        self.journal_lines
    }

    /// Inserts that could not be journaled because the cache is latched
    /// in degraded (full-disk) mode.
    pub fn degraded_writes(&self) -> u64 {
        self.degraded_writes
    }

    /// Whether the ENOSPC latch has tripped (serving from memory only).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Test hook: trips the full-disk latch as if an append had just
    /// returned ENOSPC, so degraded mode is exercised without an actual
    /// full device.
    #[cfg(test)]
    fn latch_degraded_for_test(&mut self) {
        self.degraded = true;
    }
}

/// Whether a journal failure means the disk is full (ENOSPC or quota) —
/// the one I/O error class the cache degrades through instead of
/// propagating.
fn is_disk_full(e: &CampaignError) -> bool {
    match e {
        CampaignError::Io { source, .. } => {
            matches!(
                source.kind(),
                std::io::ErrorKind::StorageFull | std::io::ErrorKind::QuotaExceeded
            ) || source.raw_os_error() == Some(28) // ENOSPC
        }
        _ => false,
    }
}

/// Monotonic service counters, exported by `STATS`.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted (including shed ones).
    pub requests: AtomicU64,
    /// Requests answered `OK`.
    pub ok: AtomicU64,
    /// Warm cache hits.
    pub hits: AtomicU64,
    /// Cold misses that went to the scheduler.
    pub misses: AtomicU64,
    /// Connections shed by admission control.
    pub shed: AtomicU64,
    /// Requests rejected as malformed (parse error, framing error,
    /// oversized body, read timeout).
    pub malformed: AtomicU64,
    /// Requests whose deadline expired with nothing to return.
    pub deadline: AtomicU64,
    /// Requests that failed with a typed scheduling error.
    pub sched_errors: AtomicU64,
    /// Cold `OK` responses that were degraded (the step limit cut the
    /// scheduler's per-II effort).
    pub degraded: AtomicU64,
    /// Internal failures (cache I/O, invariant breaks).
    pub internal_errors: AtomicU64,
    /// Connections closed because their socket read/write timeouts could
    /// not be armed — serving without a deadline would hand a hostile
    /// client an unbounded worker, so the connection is dropped and the
    /// failure counted instead of silently ignored.
    pub timeout_config_failures: AtomicU64,
}

struct ServerState {
    config: ServeConfig,
    config_fp: String,
    stats: ServeStats,
    cache: Mutex<ScheduleCache>,
    telemetry: Telemetry,
    started: Instant,
}

impl ServerState {
    /// One JSON line of counters and cache state. `schema` versions the
    /// field set so dashboards and CI diffs detect format drift instead
    /// of guessing; `uptime_ms` is monotonic since bind (the one
    /// non-deterministic field, placed right after the schema so the
    /// deterministic remainder still diffs cleanly).
    fn stats_json(&self) -> String {
        let s = &self.stats;
        let cache_json = match self.cache.lock() {
            Ok(cache) => format!(
                "{{\"entries\":{},\"quarantined\":{},\"corrupt_lines\":{},\
                 \"repaired_bytes\":{},\"compactions\":{},\"evicted_entries\":{},\
                 \"journal_bytes\":{},\"journal_lines\":{},\"degraded_writes\":{},\
                 \"write_degraded\":{}}}",
                cache.len(),
                cache.quarantined(),
                cache.corrupt_lines,
                cache.repaired_bytes,
                cache.compactions(),
                cache.evicted_entries(),
                cache.journal_bytes(),
                cache.journal_lines(),
                cache.degraded_writes(),
                u8::from(cache.is_degraded()),
            ),
            Err(_) => "{}".to_string(),
        };
        format!(
            "{{\"schema\":{METRICS_SCHEMA},\"uptime_ms\":{},\
             \"serve\":{{\"requests\":{},\"ok\":{},\"hits\":{},\"misses\":{},\"shed\":{},\
             \"malformed\":{},\"deadline\":{},\"sched_errors\":{},\"degraded\":{},\
             \"internal_errors\":{},\"timeout_config_failures\":{},\
             \"cache\":{cache_json}}}}}",
            u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            s.requests.load(Ordering::Relaxed),
            s.ok.load(Ordering::Relaxed),
            s.hits.load(Ordering::Relaxed),
            s.misses.load(Ordering::Relaxed),
            s.shed.load(Ordering::Relaxed),
            s.malformed.load(Ordering::Relaxed),
            s.deadline.load(Ordering::Relaxed),
            s.sched_errors.load(Ordering::Relaxed),
            s.degraded.load(Ordering::Relaxed),
            s.internal_errors.load(Ordering::Relaxed),
            s.timeout_config_failures.load(Ordering::Relaxed),
        )
    }
}

/// A running server: accepted connections flow through admission control
/// onto the worker pool until [`shutdown`](Server::shutdown).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound,
    /// [`ServeError::Cache`] when the cache journal cannot be opened.
    pub fn bind(addr: &str, config: ServeConfig) -> Result<(Server, CacheLoadReport), ServeError> {
        let listener = TcpListener::bind(addr).map_err(|source| ServeError::Bind {
            addr: addr.to_string(),
            source,
        })?;
        Server::start(listener, config)
    }

    /// Starts serving on an already bound listener.
    ///
    /// # Errors
    ///
    /// [`ServeError::Cache`] when the cache journal cannot be opened;
    /// [`ServeError::Bind`] when the listener's address cannot be read.
    pub fn start(
        listener: TcpListener,
        config: ServeConfig,
    ) -> Result<(Server, CacheLoadReport), ServeError> {
        let addr = listener.local_addr().map_err(|source| ServeError::Bind {
            addr: "<unbound listener>".to_string(),
            source,
        })?;
        let (cache, load_report) = ScheduleCache::open_with(
            config.cache_path.as_deref(),
            config.durable,
            config.compaction,
        )
        .map_err(ServeError::Cache)?;
        let config_fp = config_fingerprint(&SchedulerConfig::default(), 0);
        let telemetry = Telemetry::new(SPAN_RING);
        let state = Arc::new(ServerState {
            config,
            config_fp,
            stats: ServeStats::default(),
            cache: Mutex::new(cache),
            telemetry,
            started: Instant::now(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept_state = Arc::clone(&state);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            let worker_state = Arc::clone(&accept_state);
            let pool = Service::new(
                accept_state.config.jobs,
                accept_state.config.queue_cap,
                move |_, stream: TcpStream| handle_connection(&worker_state, &stream),
            );
            loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(_) => continue,
                };
                if accept_stop.load(Ordering::Acquire) {
                    break; // the shutdown self-connection
                }
                accept_state.stats.requests.fetch_add(1, Ordering::Relaxed);
                if configure_stream(&stream, accept_state.config.io_timeout).is_err() {
                    // A connection without I/O deadlines is a connection
                    // that can pin a worker forever: close it and count
                    // the failure rather than serving unprotected.
                    accept_state
                        .stats
                        .timeout_config_failures
                        .fetch_add(1, Ordering::Relaxed);
                    drop(stream);
                    continue;
                }
                if let Err(Rejected(stream)) = pool.try_submit(stream) {
                    // Admission queue full: shed with a typed response.
                    // A short detached thread writes it, half-closes, and
                    // drains the client's unread bytes (dropping them
                    // unread would RST the response away); each is
                    // bounded by the socket timeouts, and the acceptor
                    // itself never blocks on a shed client.
                    accept_state.stats.shed.fetch_add(1, Ordering::Relaxed);
                    if accept_state.config.telemetry {
                        // A shed connection never reaches a worker, so
                        // the acceptor records its span: zero stages,
                        // outcome overload.
                        let id = accept_state.telemetry.next_request_id();
                        let mut span = RequestSpan::new(id, "SCHED");
                        span.outcome = SpanOutcome::Overload;
                        accept_state.telemetry.record(span);
                    }
                    std::thread::spawn(move || {
                        let mut stream = stream;
                        let _ = stream.write_all(b"ERR overload admission queue full\n");
                        let _ = stream.shutdown(std::net::Shutdown::Write);
                        let mut sink = [0u8; 1024];
                        while matches!(std::io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0)
                        {
                        }
                    });
                }
            }
            // Dropping the pool drains admitted connections and joins
            // the workers: graceful shutdown never abandons admitted
            // work.
        });
        Ok((
            Server {
                addr,
                state,
                stop,
                accept_thread: Some(accept_thread),
            },
            load_report,
        ))
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The stats JSON line, as `STATS` would return it.
    pub fn stats_json(&self) -> String {
        self.state.stats_json()
    }

    /// Stops accepting, drains admitted requests, and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a self-connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

/// Arms socket timeouts. A connection whose deadlines cannot be armed
/// must not be served (a stalled peer would pin a worker forever), so
/// the failure is returned for the caller to count and close on —
/// never silently swallowed. `set_nodelay` stays advisory: losing Nagle
/// batching costs latency, not safety.
fn configure_stream(stream: &TcpStream, timeout: Duration) -> Result<(), std::io::Error> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let _ = stream.set_nodelay(true);
    Ok(())
}

/// The wall budget for one whole request-read phase.
///
/// The per-call socket timeout bounds each individual `read`, but a
/// slowloris client defeats it by dripping one byte per tick: every read
/// succeeds, the phase never ends. `ReadPhase` closes that hole — it is
/// checked between reads ([`tick`](Self::tick)), fails the phase once
/// the total deadline passes, and re-arms the socket read timeout to the
/// remaining time so even the final blocking read cannot overshoot.
struct ReadPhase<'a> {
    stream: Option<&'a TcpStream>,
    deadline: Option<Instant>,
    io_timeout: Duration,
}

impl ReadPhase<'_> {
    /// A phase bound to a live socket.
    fn bounded(stream: &TcpStream, budget: Duration, io_timeout: Duration) -> ReadPhase<'_> {
        ReadPhase {
            stream: Some(stream),
            deadline: Some(Instant::now() + budget),
            io_timeout,
        }
    }

    /// No deadline at all — for unit tests over in-memory readers.
    #[cfg(test)]
    fn unbounded() -> ReadPhase<'static> {
        ReadPhase {
            stream: None,
            deadline: None,
            io_timeout: Duration::from_secs(0),
        }
    }

    /// Charges one inter-read check: fails once the phase deadline has
    /// passed, and otherwise shrinks the socket read timeout to
    /// `min(io_timeout, remaining)` so the next blocking read cannot
    /// sleep past the phase end.
    fn tick(&self) -> Result<(), std::io::Error> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let now = Instant::now();
        if now >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "read phase deadline exceeded (slow client)",
            ));
        }
        if let Some(stream) = self.stream {
            let remaining = (deadline - now)
                .min(self.io_timeout)
                .max(Duration::from_millis(1));
            stream.set_read_timeout(Some(remaining))?;
        }
        Ok(())
    }
}

/// Reads one `\n`-terminated header line of at most `max` bytes.
/// Returns `Ok(None)` at EOF before any byte. A trailing `\r` (CRLF
/// framing) is stripped, so `SCHED\r\n` parses like `SCHED\n`.
fn read_header_line(
    reader: &mut impl BufRead,
    max: usize,
    phase: &ReadPhase<'_>,
) -> Result<Option<String>, std::io::Error> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        phase.tick()?;
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                ))
            };
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            break;
        }
        line.extend_from_slice(buf);
        let n = buf.len();
        reader.consume(n);
        if line.len() > max {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "header line too long",
            ));
        }
    }
    if line.ends_with(b"\r") {
        line.pop();
    }
    if line.len() > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "header line too long",
        ));
    }
    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
}

/// How one request ended, for the stats counters.
enum Outcome {
    OkWarm,
    OkCold {
        degraded: bool,
    },
    /// A `STATS` request: counted as a request, not a schedule.
    Stats,
    Malformed,
    Deadline,
    Sched,
    Internal,
}

/// Flattens a detail message onto one response line.
fn one_line(detail: &str) -> String {
    detail.replace(['\n', '\r'], "; ")
}

fn respond(stream: &TcpStream, text: &str) -> Result<(), std::io::Error> {
    let mut stream = stream;
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

/// The deterministic `OK` line for an entry — used identically for cold
/// and warm responses, so a warm hit is byte-for-byte the cold answer.
fn ok_line(entry: &CacheEntry) -> String {
    format!(
        "OK ii={} copies={} max_registers={} attempts={} degraded={}\n",
        entry.ii,
        entry.copies,
        entry.max_registers,
        entry.attempts,
        u8::from(entry.degraded),
    )
}

fn handle_connection(state: &ServerState, stream: &TcpStream) {
    let outcome = serve_one(state, stream);
    let s = &state.stats;
    match outcome {
        Outcome::OkWarm => {
            s.ok.fetch_add(1, Ordering::Relaxed);
            s.hits.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::OkCold { degraded } => {
            s.ok.fetch_add(1, Ordering::Relaxed);
            s.misses.fetch_add(1, Ordering::Relaxed);
            if degraded {
                s.degraded.fetch_add(1, Ordering::Relaxed);
            }
        }
        Outcome::Stats => {}
        Outcome::Malformed => {
            s.malformed.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::Deadline => {
            s.deadline.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::Sched => {
            s.sched_errors.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::Internal => {
            s.internal_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn serve_one(state: &ServerState, stream: &TcpStream) -> Outcome {
    let req_start = Instant::now();
    let mut reader = BufReader::new(stream);
    let phase = ReadPhase::bounded(
        stream,
        Duration::from_millis(state.config.read_phase_ms),
        state.config.io_timeout,
    );
    let header = match read_header_line(&mut reader, 256, &phase) {
        Ok(Some(h)) => h,
        Ok(None) => {
            let _ = respond(stream, "ERR malformed empty request\n");
            return Outcome::Malformed;
        }
        Err(e) => {
            let _ = respond(stream, &format!("ERR malformed request read failed: {e}\n"));
            return Outcome::Malformed;
        }
    };
    let header_us = elapsed_us(req_start);
    let mut words = header.split_whitespace();
    match words.next() {
        Some("STATS") => {
            let _ = respond(stream, &format!("{}\n", state.stats_json()));
            Outcome::Stats
        }
        Some("METRICS") => {
            let _ = respond(
                stream,
                &format!(
                    "{}\n{}",
                    state.telemetry.metrics_json(),
                    state.telemetry.prometheus()
                ),
            );
            Outcome::Stats
        }
        Some("SCHED") => {
            let mut span = new_span(state, "SCHED", header_us);
            let outcome = serve_sched(state, &mut reader, stream, words, &phase, &mut span);
            finish_span(state, span, req_start, &outcome);
            outcome
        }
        Some("TRACE") => {
            let mut span = new_span(state, "TRACE", header_us);
            span.cache = CacheDisposition::Bypass;
            let outcome = serve_trace(state, &mut reader, stream, words, &phase, &mut span);
            finish_span(state, span, req_start, &outcome);
            outcome
        }
        Some(other) => {
            let _ = respond(
                stream,
                &format!("ERR malformed unknown command {}\n", one_line(other)),
            );
            Outcome::Malformed
        }
        None => {
            let _ = respond(stream, "ERR malformed empty request\n");
            Outcome::Malformed
        }
    }
}

/// A span for one schedule-class request. When telemetry is off the id
/// stays 0 and the span is never recorded (see [`finish_span`]), so the
/// only cost on the disabled path is a stack value.
fn new_span(state: &ServerState, verb: &'static str, header_us: u64) -> RequestSpan {
    let id = if state.config.telemetry {
        state.telemetry.next_request_id()
    } else {
        0
    };
    let mut span = RequestSpan::new(id, verb);
    span.stages.read_us = header_us;
    span
}

/// Stamps the span's total wall time and outcome and records it.
fn finish_span(state: &ServerState, mut span: RequestSpan, req_start: Instant, outcome: &Outcome) {
    if !state.config.telemetry {
        return;
    }
    span.total_us = elapsed_us(req_start);
    span.outcome = match outcome {
        Outcome::OkWarm | Outcome::OkCold { degraded: false } => SpanOutcome::Ok,
        Outcome::OkCold { degraded: true } => SpanOutcome::Degraded,
        Outcome::Stats => return,
        Outcome::Malformed => SpanOutcome::Malformed,
        Outcome::Deadline => SpanOutcome::Deadline,
        Outcome::Sched => SpanOutcome::Sched,
        Outcome::Internal => SpanOutcome::Internal,
    };
    state.telemetry.record(span);
}

/// Reads one `NAME <len>` section header plus its body. The body is
/// read in bounded chunks with a phase-deadline check between chunks, so
/// a client dripping a large body slowly cannot outlive the read phase.
fn read_section(
    reader: &mut impl BufRead,
    name: &str,
    max: usize,
    phase: &ReadPhase<'_>,
) -> Result<String, String> {
    let header = match read_header_line(reader, 256, phase) {
        Ok(Some(h)) => h,
        Ok(None) => return Err(format!("missing {name} section")),
        Err(e) => return Err(format!("reading {name} header: {e}")),
    };
    let mut words = header.split_whitespace();
    if words.next() != Some(name) {
        return Err(format!(
            "expected {name} section, got {}",
            one_line(&header)
        ));
    }
    let len: usize = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("{name} section needs a byte length"))?;
    if len > max {
        return Err(format!(
            "{name} section of {len} bytes exceeds the {max}-byte cap"
        ));
    }
    let mut body = vec![0u8; len];
    let mut off = 0usize;
    while off < len {
        phase
            .tick()
            .map_err(|e| format!("reading {name} body: {e}"))?;
        let end = (off + 4096).min(len);
        reader
            .read_exact(&mut body[off..end])
            .map_err(|e| format!("reading {name} body: {e}"))?;
        off = end;
    }
    String::from_utf8(body).map_err(|_| format!("{name} body is not UTF-8"))
}

/// A fully read and parsed `SCHED`/`TRACE` request.
struct Request {
    kernel: Kernel,
    arch: csched_machine::Architecture,
    /// Placement-attempt budget, clamped to the server's cap.
    limit: u64,
    /// Wall-clock deadline: the server's, tightened (never widened) by
    /// the request.
    wall_ms: Option<u64>,
}

/// Reads the rest of a `SCHED`/`TRACE` request: the header options, the
/// `KERNEL`/`ARCH`/`END` sections and both payloads. Every option other
/// than `limit=`/`wall_ms=` goes to `verb_option`, which rejects it with
/// an error detail. Answers `ERR malformed` itself on any failure.
fn read_request<'a>(
    state: &ServerState,
    reader: &mut impl BufRead,
    stream: &TcpStream,
    options: impl Iterator<Item = &'a str>,
    phase: &ReadPhase<'_>,
    span: &mut RequestSpan,
    mut verb_option: impl FnMut(&str) -> Result<(), String>,
) -> Option<Request> {
    let mut limit = state.config.step_limit;
    let mut wall_ms = state.config.wall_ms;
    for opt in options {
        let parsed = if let Some(v) = opt.strip_prefix("limit=") {
            v.parse()
                .map(|v| limit = v)
                .map_err(|_| "bad limit= value".to_string())
        } else if let Some(v) = opt.strip_prefix("wall_ms=") {
            v.parse::<u64>()
                .map(|v| wall_ms = Some(wall_ms.map_or(v, |server| server.min(v))))
                .map_err(|_| "bad wall_ms= value".to_string())
        } else {
            verb_option(opt)
        };
        if let Err(detail) = parsed {
            let _ = respond(stream, &format!("ERR malformed {detail}\n"));
            return None;
        }
    }
    let limit = limit.clamp(1, MAX_STEP_LIMIT);

    let t_read = Instant::now();
    let (kernel_text, arch_text) = match read_bodies(reader, MAX_REQUEST_BYTES, phase) {
        Ok(bodies) => bodies,
        Err(detail) => {
            let _ = respond(stream, &format!("ERR malformed {}\n", one_line(&detail)));
            return None;
        }
    };
    span.stages.read_us += elapsed_us(t_read);
    // The request is fully read: restore the full per-call timeout for
    // the (possibly much later) response write.
    let _ = stream.set_read_timeout(Some(state.config.io_timeout));

    // Parse both wire payloads with spanned errors.
    let t_parse = Instant::now();
    let parsed = parse_payloads(stream, &kernel_text, &arch_text);
    span.stages.parse_us = elapsed_us(t_parse);
    let (kernel, arch) = parsed?;
    span.kernel = kernel.name().to_string();
    Some(Request {
        kernel,
        arch,
        limit,
        wall_ms,
    })
}

/// Reads the `KERNEL` and `ARCH` sections and the closing `END` line.
fn read_bodies(
    reader: &mut impl BufRead,
    max: usize,
    phase: &ReadPhase<'_>,
) -> Result<(String, String), String> {
    let kernel_text = read_section(reader, "KERNEL", max, phase)?;
    let arch_text = read_section(reader, "ARCH", max, phase)?;
    match read_header_line(reader, 256, phase) {
        Ok(Some(end)) if end.trim() == "END" => Ok((kernel_text, arch_text)),
        Ok(_) | Err(_) => Err("missing END".to_string()),
    }
}

/// The cold path `SCHED` misses and every `TRACE` share: schedules the
/// request under its step budget and wall deadline (with `capture`
/// attached for `TRACE`), validates the schedule independently, and
/// builds its cache entry. The span's reject, budget-stop and rung
/// rollup comes from the scheduler's report either way. A failure comes
/// back as its outcome and `ERR` line.
fn schedule_request(
    state: &ServerState,
    req: &Request,
    capture: Option<&mut TraceCapture>,
    span: &mut RequestSpan,
) -> Result<CacheEntry, (Outcome, String)> {
    let t_sched = Instant::now();
    let token = req.wall_ms.map_or_else(CancelToken::new, |ms| {
        CancelToken::with_deadline(t_sched + Duration::from_millis(ms))
    });
    let budget = StepBudget::new(req.limit).with_cancel(token);
    let (result, report) = match capture {
        Some(sink) => schedule_kernel_anytime_traced(
            &req.arch,
            &req.kernel,
            SchedulerConfig::default(),
            &RetryPolicy::default(),
            &budget,
            sink,
        ),
        None => schedule_kernel_anytime(
            &req.arch,
            &req.kernel,
            SchedulerConfig::default(),
            &RetryPolicy::default(),
            &budget,
        ),
    };
    span.rejects = report.rejects;
    span.deadline_events = report.deadline_events;
    span.rung = report.rung();
    span.attempts = report.attempts_spent;
    span.degraded = report.degraded;
    let entry = match result {
        Ok(schedule) => match validate::validate(&req.arch, &req.kernel, &schedule) {
            Err(violations) => {
                let detail = violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ");
                Err((
                    Outcome::Internal,
                    format!("ERR internal invalid schedule: {}\n", one_line(&detail)),
                ))
            }
            Ok(()) => {
                span.ii = schedule.ii().unwrap_or(0);
                if state.config.telemetry {
                    // Binding-constraint attribution for the dashboard's
                    // slow-request ring: one cheap analysis pass over
                    // the finished schedule.
                    span.binding = explain::explain(&req.arch, &req.kernel, &schedule)
                        .binding
                        .kind();
                }
                Ok(CacheEntry {
                    ii: schedule.ii().unwrap_or(0),
                    copies: schedule.num_copies() as u64,
                    max_registers: regalloc::analyze(&req.arch, &req.kernel, &schedule)
                        .max_required() as u64,
                    attempts: report.attempts_spent,
                    degraded: report.degraded,
                    limit: req.limit,
                })
            }
        },
        Err(e) if e.is_budget_stop() => Err((
            Outcome::Deadline,
            format!("ERR deadline {}\n", one_line(&e.to_string())),
        )),
        Err(e) => Err((
            Outcome::Sched,
            format!("ERR sched {}\n", one_line(&e.to_string())),
        )),
    };
    span.stages.sched_us = elapsed_us(t_sched);
    entry
}

fn serve_sched<'a>(
    state: &ServerState,
    reader: &mut impl BufRead,
    stream: &TcpStream,
    options: impl Iterator<Item = &'a str>,
    phase: &ReadPhase<'_>,
    span: &mut RequestSpan,
) -> Outcome {
    let Some(req) = read_request(state, reader, stream, options, phase, span, |opt| {
        Err(format!("unknown option {}", one_line(opt)))
    }) else {
        return Outcome::Malformed;
    };
    let key = cache_key(
        kernel_hash(&req.kernel),
        req.arch.fingerprint(),
        &state.config_fp,
    );

    // Warm path: serve straight from the cache.
    let t_cache = Instant::now();
    {
        let Ok(cache) = state.cache.lock() else {
            let _ = respond(stream, "ERR internal cache lock poisoned\n");
            return Outcome::Internal;
        };
        if let Some(entry) = cache.lookup(key, req.limit) {
            let line = ok_line(entry);
            span.cache = CacheDisposition::Hit;
            span.stages.cache_us = elapsed_us(t_cache);
            span.attempts = entry.attempts;
            span.ii = entry.ii;
            drop(cache);
            let t_respond = Instant::now();
            let _ = respond(stream, &format!("CACHE hit\n{line}"));
            span.stages.respond_us = elapsed_us(t_respond);
            return Outcome::OkWarm;
        }
    }
    span.cache = CacheDisposition::Miss;
    span.stages.cache_us = elapsed_us(t_cache);

    // Cold path, sink-free: no event is even constructed. The span's
    // reject and rung rollup comes from the scheduler's own counters.
    let entry = match schedule_request(state, &req, None, span) {
        Ok(scheduled) => scheduled,
        Err((outcome, line)) => {
            let _ = respond(stream, &line);
            return outcome;
        }
    };
    // Journal before responding: a response is only ever sent for a
    // durably recorded entry, so a crash immediately after the response
    // still serves this key warm on restart.
    let t_journal = Instant::now();
    {
        let Ok(mut cache) = state.cache.lock() else {
            let _ = respond(stream, "ERR internal cache lock poisoned\n");
            return Outcome::Internal;
        };
        if let Err(e) = cache.insert(key, entry.clone()) {
            drop(cache);
            let _ = respond(
                stream,
                &format!("ERR internal cache append: {}\n", one_line(&e.to_string())),
            );
            return Outcome::Internal;
        }
    }
    span.stages.journal_us = elapsed_us(t_journal);
    let t_respond = Instant::now();
    let _ = respond(stream, &format!("CACHE miss\n{}", ok_line(&entry)));
    span.stages.respond_us = elapsed_us(t_respond);
    Outcome::OkCold {
        degraded: entry.degraded,
    }
}

/// Parses the two wire payloads, answering `ERR malformed` itself on
/// failure.
fn parse_payloads(
    stream: &TcpStream,
    kernel_text: &str,
    arch_text: &str,
) -> Option<(Kernel, csched_machine::Architecture)> {
    let kernel = match csched_ir::text::parse(kernel_text) {
        Ok(k) => k,
        Err(e) => {
            let _ = respond(
                stream,
                &format!("ERR malformed kernel: {}\n", one_line(&e.to_string())),
            );
            return None;
        }
    };
    let arch = match csched_machine::text::parse(arch_text) {
        Ok(a) => a,
        Err(e) => {
            let _ = respond(
                stream,
                &format!("ERR malformed machine: {}\n", one_line(&e.to_string())),
            );
            return None;
        }
    };
    Some((kernel, arch))
}

/// `TRACE`: frames exactly like `SCHED` (plus `events=`/`full=`
/// options), always bypasses the cache, schedules with a bounded
/// [`TraceCapture`] attached, and streams the retained events back as
/// JSONL — each line gains a leading `"req"` key — before a
/// `TRACE end` summary and the final `OK`/`ERR` line.
fn serve_trace<'a>(
    state: &ServerState,
    reader: &mut impl BufRead,
    stream: &TcpStream,
    options: impl Iterator<Item = &'a str>,
    phase: &ReadPhase<'_>,
    span: &mut RequestSpan,
) -> Outcome {
    let mut event_cap = TRACE_EVENT_CAP;
    let mut full = false;
    let Some(req) = read_request(state, reader, stream, options, phase, span, |opt| {
        if let Some(v) = opt.strip_prefix("events=") {
            // The client may tighten the server's event cap, never widen
            // it — the cap is the worker-protection bound.
            let v: usize = v.parse().map_err(|_| "bad events= value".to_string())?;
            event_cap = event_cap.min(v);
        } else if opt == "full=1" {
            full = true;
        } else if opt == "full=0" {
            full = false;
        } else {
            return Err(format!("unknown option {}", one_line(opt)));
        }
        Ok(())
    }) else {
        return Outcome::Malformed;
    };

    // Cache deliberately bypassed: a trace of a warm hit would be
    // empty, and the point of TRACE is the event stream.
    let mut capture = TraceCapture::capture(event_cap, full);
    let result = schedule_request(state, &req, Some(&mut capture), span);

    // The event stream and summary precede the final status line, so a
    // client can parse the response as: JSONL until a non-`{` line,
    // one `TRACE end` summary, one `OK`/`ERR`.
    let mut text = String::with_capacity(capture.events().len() * 48 + 128);
    for event in capture.events() {
        let json = event.to_json();
        // `{"event":...}` becomes `{"req":N,"event":...}`.
        text.push_str(&format!("{{\"req\":{},{}\n", span.id, &json[1..]));
    }
    text.push_str(&format!(
        "TRACE end events={} total={} truncated={}\n",
        capture.events().len(),
        capture.total(),
        u8::from(capture.truncated()),
    ));
    if state.config.telemetry {
        state
            .telemetry
            .add_trace_events(capture.events().len() as u64);
    }

    let outcome = match result {
        Ok(entry) => {
            text.push_str(&ok_line(&entry));
            Outcome::OkCold {
                degraded: entry.degraded,
            }
        }
        Err((outcome, line)) => {
            text.push_str(&line);
            outcome
        }
    };
    let t_respond = Instant::now();
    let _ = respond(stream, &text);
    span.stages.respond_us = elapsed_us(t_respond);
    outcome
}

// ---------------------------------------------------------------------
// Client helpers (used by the `serve` binary, the CI smoke script, and
// the robustness tests).
// ---------------------------------------------------------------------

/// Sends one `SCHED` request and returns the server's full response
/// text (both lines on success, the `ERR` line on failure).
///
/// # Errors
///
/// [`ServeError::Io`] when the connection fails or times out.
pub fn client_request(
    addr: &str,
    kernel_text: &str,
    arch_text: &str,
    limit: Option<u64>,
    wall_ms: Option<u64>,
    timeout: Duration,
) -> Result<String, ServeError> {
    let head = request_head("SCHED", limit, wall_ms);
    client_raw(
        addr,
        framed(head, kernel_text, arch_text).as_bytes(),
        timeout,
    )
}

/// The header line of a `verb` request up to its newline: the verb and
/// its `limit=` and `wall_ms=` options.
fn request_head(verb: &str, limit: Option<u64>, wall_ms: Option<u64>) -> String {
    let mut head = verb.to_string();
    if let Some(limit) = limit {
        head.push_str(&format!(" limit={limit}"));
    }
    if let Some(wall) = wall_ms {
        head.push_str(&format!(" wall_ms={wall}"));
    }
    head
}

/// A whole request: `head`, then the `KERNEL` and `ARCH` sections and
/// `END`.
fn framed(head: String, kernel_text: &str, arch_text: &str) -> String {
    format!(
        "{head}\nKERNEL {}\n{kernel_text}ARCH {}\n{arch_text}END\n",
        kernel_text.len(),
        arch_text.len()
    )
}

/// Sends `STATS` and returns the JSON line.
///
/// # Errors
///
/// [`ServeError::Io`] when the connection fails or times out.
pub fn client_stats(addr: &str, timeout: Duration) -> Result<String, ServeError> {
    client_raw(addr, b"STATS\n", timeout).map(|s| s.trim_end().to_string())
}

/// Sends `METRICS` and returns the raw response: one JSON line followed
/// by the Prometheus text exposition.
///
/// # Errors
///
/// [`ServeError::Io`] when the connection fails or times out.
pub fn client_metrics(addr: &str, timeout: Duration) -> Result<String, ServeError> {
    client_raw(addr, b"METRICS\n", timeout)
}

/// Sends one `TRACE` request and returns the full response text: the
/// JSONL event lines, the `TRACE end` summary, and the final `OK`/`ERR`
/// line. `limit` and `wall_ms` bound the scheduling as for
/// [`client_request`].
///
/// # Errors
///
/// [`ServeError::Io`] when the connection fails or times out.
#[allow(clippy::too_many_arguments)]
pub fn client_trace(
    addr: &str,
    kernel_text: &str,
    arch_text: &str,
    limit: Option<u64>,
    wall_ms: Option<u64>,
    events: Option<usize>,
    full: bool,
    timeout: Duration,
) -> Result<String, ServeError> {
    let mut head = request_head("TRACE", limit, wall_ms);
    if let Some(events) = events {
        head.push_str(&format!(" events={events}"));
    }
    if full {
        head.push_str(" full=1");
    }
    client_raw(
        addr,
        framed(head, kernel_text, arch_text).as_bytes(),
        timeout,
    )
}

/// Sends raw request bytes and reads the response to EOF — the hook for
/// malformed-request testing.
///
/// # Errors
///
/// [`ServeError::Io`] when the connection fails or times out.
pub fn client_raw(addr: &str, request: &[u8], timeout: Duration) -> Result<String, ServeError> {
    let io = |context: &'static str| move |source| ServeError::Io { context, source };
    let mut stream = TcpStream::connect(addr).map_err(io("connect"))?;
    configure_stream(&stream, timeout).map_err(io("arm socket timeouts"))?;
    stream.write_all(request).map_err(io("send request"))?;
    // Half-close so a server reading to EOF is never stuck on us.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(io("read response"))?;
    Ok(response)
}

// ---------------------------------------------------------------------
// Client-side resilience: seeded retry with exponential backoff.
// ---------------------------------------------------------------------

/// How a client retries a failed request. Retries are
/// idempotent-by-construction: the server journals an entry *before*
/// responding, and requests are content-addressed, so re-sending the
/// same request can only hit the cache or recompute the identical
/// deterministic answer — never double-apply anything.
#[derive(Clone, Debug)]
pub struct RetryConfig {
    /// Retry budget: total attempts are `1 + retries`.
    pub retries: u32,
    /// Base backoff in milliseconds; attempt `n` waits
    /// `backoff_ms * 2^n` plus a uniform jitter of the same magnitude
    /// (capped at [`RetryConfig::MAX_BACKOFF_MS`]).
    pub backoff_ms: u64,
    /// Seed for the jitter stream — the same seed replays the same
    /// backoff schedule.
    pub seed: u64,
}

impl RetryConfig {
    /// Cap on one backoff step, jitter included.
    pub const MAX_BACKOFF_MS: u64 = 5_000;
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            retries: 4,
            backoff_ms: 50,
            seed: 0x5eed,
        }
    }
}

/// What a retried request cost: every attempt, every reason, all the
/// waiting — the typed receipt for post-hoc analysis and the soak
/// harness's invariants.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetryReport {
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Milliseconds spent backing off between attempts.
    pub total_backoff_ms: u64,
    /// One reason per retried attempt, in order.
    pub retried: Vec<String>,
}

/// Whether `response` is a *complete* wire response: one `ERR` line, or
/// a `CACHE hit|miss` line followed by an `OK`/`ERR` line, all
/// newline-terminated. A torn TCP stream (proxy truncation, server
/// crash mid-write) fails this check and is therefore retryable.
pub fn response_complete(response: &str) -> bool {
    if !response.ends_with('\n') {
        return false;
    }
    let mut lines = response.lines();
    match lines.next() {
        Some(first) if first.starts_with("ERR ") => true,
        Some("CACHE hit") | Some("CACHE miss") => matches!(
            lines.next(),
            Some(second) if second.starts_with("OK ") || second.starts_with("ERR ")
        ),
        _ => false,
    }
}

/// Whether a (complete or torn) response deserves a retry. Transient
/// server states retry: `overload` (shed), `deadline` (contention), and
/// torn/incomplete responses (the transport failed, not the request).
/// `ERR malformed` also retries: the request the *caller* built is
/// well-formed by construction, so a malformed verdict means the bytes
/// were mangled in flight (exactly what a chaos proxy's torn writes
/// do). Genuine scheduling failures (`sched`, `internal`) do not retry
/// — the same deterministic answer would come back.
pub fn response_retryable(response: &str) -> bool {
    if !response_complete(response) {
        return true;
    }
    let err_line = response
        .lines()
        .find(|l| l.starts_with("ERR "))
        .unwrap_or("");
    err_line.starts_with("ERR overload")
        || err_line.starts_with("ERR deadline")
        || err_line.starts_with("ERR malformed")
}

/// [`client_request`] with seeded exponential backoff: retries transport
/// failures and transient server errors up to `retry.retries` times,
/// returning the final result plus a [`RetryReport`] of what the
/// resilience cost.
///
/// # Errors
///
/// [`ServeError::Io`] when the final attempt still failed at the
/// transport level (the report says how hard it tried).
pub fn client_request_retry(
    addr: &str,
    kernel_text: &str,
    arch_text: &str,
    limit: Option<u64>,
    wall_ms: Option<u64>,
    timeout: Duration,
    retry: &RetryConfig,
) -> (Result<String, ServeError>, RetryReport) {
    let mut rng = csched_core::faultinject::ChaosRng::new(retry.seed);
    let mut report = RetryReport::default();
    loop {
        report.attempts += 1;
        let outcome = client_request(addr, kernel_text, arch_text, limit, wall_ms, timeout);
        let reason = match &outcome {
            Ok(response) if !response_retryable(response) => {
                return (outcome, report);
            }
            Ok(response) if !response_complete(response) => "torn response".to_string(),
            Ok(response) => {
                let err = response
                    .lines()
                    .find(|l| l.starts_with("ERR "))
                    .unwrap_or("ERR");
                one_line(err)
            }
            Err(e) => format!("io: {e}"),
        };
        if report.attempts > retry.retries {
            return (outcome, report);
        }
        report.retried.push(reason);
        // Exponential base with full jitter, capped: deterministic per
        // seed, decorrelated across clients via distinct seeds.
        let exp = report.attempts.saturating_sub(1).min(16);
        let base = retry
            .backoff_ms
            .saturating_mul(1u64 << exp)
            .min(RetryConfig::MAX_BACKOFF_MS);
        let jitter = if base == 0 {
            0
        } else {
            rng.below_u64(base + 1)
        };
        let wait = (base + jitter).min(RetryConfig::MAX_BACKOFF_MS);
        report.total_backoff_ms += wait;
        std::thread::sleep(Duration::from_millis(wait));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: u64 = 200_000;

    fn entry(ii: u32) -> CacheEntry {
        CacheEntry {
            ii,
            copies: 3,
            max_registers: 9,
            attempts: 1234,
            degraded: false,
            limit: LIMIT,
        }
    }

    #[test]
    fn cache_line_round_trips_and_checksum_rejects_bit_flips() {
        let e = entry(7);
        let line = e.to_line(42);
        assert_eq!(CacheEntry::parse_line(&line), Some((42, e)));
        // Flip one payload character: the checksum must reject it.
        let flipped = line.replacen("\"ii\":7", "\"ii\":9", 1);
        assert_ne!(flipped, line);
        assert_eq!(CacheEntry::parse_line(&flipped), None);
        // Corrupt the checksum itself: also rejected.
        let broken_sum = line.replacen("\"sum\":", "\"sum\":1", 1);
        assert_eq!(CacheEntry::parse_line(&broken_sum), None);
    }

    #[test]
    fn cache_load_quarantines_corrupt_entries_and_heals_on_insert() {
        let dir = std::env::temp_dir().join(format!("csched-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (mut cache, report) = ScheduleCache::open(Some(&path), false).unwrap();
            assert_eq!(report, CacheLoadReport::default());
            cache.insert(1, entry(4)).unwrap();
            cache.insert(2, entry(6)).unwrap();
        }
        // Bit-flip the first (interior) entry on disk.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[0] = lines[0].replacen("\"ii\":4", "\"ii\":5", 1);
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let (mut cache, report) = ScheduleCache::open(Some(&path), false).unwrap();
        assert_eq!(report.entries, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.corrupt_lines, 1);
        assert!(
            cache.lookup(1, LIMIT).is_none(),
            "corrupt entry must not serve"
        );
        assert_eq!(cache.lookup(2, LIMIT), Some(&entry(6)));

        // Re-scheduling the key re-journals it and lifts the quarantine…
        cache.insert(1, entry(4)).unwrap();
        assert_eq!(cache.quarantined(), 0);
        assert_eq!(cache.lookup(1, LIMIT), Some(&entry(4)));
        drop(cache);

        // …and the *next* load sees the healed entry (last record wins
        // over the still-present corrupt line).
        let (cache, report) = ScheduleCache::open(Some(&path), false).unwrap();
        assert_eq!(report.entries, 2);
        assert_eq!(report.quarantined, 0);
        assert_eq!(
            report.corrupt_lines, 1,
            "the old corrupt line is still counted"
        );
        assert_eq!(cache.lookup(1, LIMIT), Some(&entry(4)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_repaired_not_quarantined() {
        let dir = std::env::temp_dir().join(format!("csched-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (mut cache, _) = ScheduleCache::open(Some(&path), false).unwrap();
            cache.insert(1, entry(4)).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":2,\"ii\":9").unwrap(); // no newline: torn
        }
        let (cache, report) = ScheduleCache::open(Some(&path), false).unwrap();
        assert_eq!(report.entries, 1);
        assert_eq!(report.quarantined, 0, "a torn tail is not corruption");
        assert_eq!(report.corrupt_lines, 0);
        assert!(report.repaired_bytes > 0);
        assert_eq!(cache.lookup(1, LIMIT), Some(&entry(4)));
        std::fs::remove_file(&path).unwrap();
    }

    // --- wire-framing edge cases (read_header_line / read_section) ---

    use std::io::Cursor;

    fn header(text: &str) -> Result<Option<String>, std::io::Error> {
        read_header_line(
            &mut Cursor::new(text.as_bytes()),
            64,
            &ReadPhase::unbounded(),
        )
    }

    #[test]
    fn header_line_handles_eof_crlf_and_oversize() {
        // Clean LF line.
        assert_eq!(header("SCHED\nrest").unwrap(), Some("SCHED".to_string()));
        // CRLF framing parses identically to LF.
        assert_eq!(header("SCHED\r\nrest").unwrap(), Some("SCHED".to_string()));
        // EOF before any byte is a clean None…
        assert_eq!(header("").unwrap(), None);
        // …but EOF mid-line is a typed error, not a silent partial line.
        let err = header("SCHED with no newline").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // A line exactly at the cap passes; one byte over fails.
        let exactly = "x".repeat(64);
        assert_eq!(header(&format!("{exactly}\n")).unwrap(), Some(exactly));
        let over = "x".repeat(65);
        let err = header(&format!("{over}\n")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    fn section(text: &str, max: usize) -> Result<String, String> {
        read_section(
            &mut Cursor::new(text.as_bytes()),
            "KERNEL",
            max,
            &ReadPhase::unbounded(),
        )
    }

    #[test]
    fn section_reads_exact_bodies_and_rejects_liars() {
        // Exact byte count round-trips, including newlines in the body.
        assert_eq!(section("KERNEL 5\nab\ncd", 10).unwrap(), "ab\ncd");
        // A body exactly at the cap is accepted…
        assert_eq!(section("KERNEL 4\nwxyz", 4).unwrap(), "wxyz");
        // …and one byte over the cap is rejected before any read.
        let err = section("KERNEL 5\nwxyzq", 4).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        // A count larger than what the client sends hits EOF, typed.
        let err = section("KERNEL 10\nabc", 64).unwrap_err();
        assert!(err.contains("body"), "{err}");
        // A count smaller than the real body silently swallows the
        // excess into the next read — the *next* header then fails.
        let mut cursor = Cursor::new(&b"KERNEL 3\nabcdef\nEND\n"[..]);
        let body = read_section(&mut cursor, "KERNEL", 64, &ReadPhase::unbounded()).unwrap();
        assert_eq!(body, "abc");
        let next = read_header_line(&mut cursor, 64, &ReadPhase::unbounded())
            .unwrap()
            .unwrap();
        assert_eq!(next, "def", "the lied-about bytes surface as garbage");
        // Missing section header entirely.
        let err = section("", 64).unwrap_err();
        assert!(err.contains("missing KERNEL"), "{err}");
        // Wrong section name.
        let err = section("ARCH 3\nabc", 64).unwrap_err();
        assert!(err.contains("expected KERNEL"), "{err}");
        // No byte length.
        let err = section("KERNEL\nabc", 64).unwrap_err();
        assert!(err.contains("byte length"), "{err}");
        // Non-UTF-8 body.
        let mut raw = Cursor::new(&b"KERNEL 2\n\xff\xfe"[..]);
        let err = read_section(&mut raw, "KERNEL", 64, &ReadPhase::unbounded()).unwrap_err();
        assert!(err.contains("UTF-8"), "{err}");
    }

    #[test]
    fn expired_read_phase_fails_between_reads() {
        let phase = ReadPhase {
            stream: None,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            io_timeout: Duration::from_secs(1),
        };
        let err = read_header_line(&mut Cursor::new(&b"SCHED\n"[..]), 64, &phase).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        let err = read_section(
            &mut Cursor::new(&b"KERNEL 3\nabc"[..]),
            "KERNEL",
            64,
            &phase,
        )
        .unwrap_err();
        assert!(err.contains("deadline"), "{err}");
    }

    // --- compaction and degraded-write mode ---

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("csched-serve-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.jsonl"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn compaction_rewrites_last_record_wins_and_reload_matches() {
        let path = tmp("compact");
        let policy = CompactionPolicy {
            max_journal_bytes: 1, // every dead line triggers
            max_entries: 1 << 16,
        };
        let (mut cache, _) = ScheduleCache::open_with(Some(&path), false, policy).unwrap();
        // Write each key several times: only the newest version may
        // survive compaction.
        for round in 0..3u32 {
            for key in 0..4u64 {
                cache.insert(key, entry(10 + round)).unwrap();
            }
        }
        assert!(
            cache.compactions() >= 1,
            "dead lines must trigger compaction"
        );
        assert_eq!(cache.len(), 4);
        let pre: Vec<Option<CacheEntry>> =
            (0..4).map(|k| cache.lookup(k, LIMIT).cloned()).collect();
        drop(cache);
        // The on-disk journal now holds exactly the live entries…
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4, "compacted journal is minimal");
        // …and reloads to the exact same entry set.
        let (reloaded, report) = ScheduleCache::open_with(Some(&path), false, policy).unwrap();
        assert_eq!(report.entries, 4);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.corrupt_lines, 0);
        for (k, expect) in pre.iter().enumerate() {
            assert_eq!(reloaded.lookup(k as u64, LIMIT), expect.as_ref());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_drops_corrupt_lines_and_clears_quarantine() {
        let path = tmp("compact-heal");
        {
            let (mut cache, _) = ScheduleCache::open(Some(&path), false).unwrap();
            cache.insert(1, entry(4)).unwrap();
            cache.insert(2, entry(6)).unwrap();
        }
        // Bit-flip entry 1 on disk, reload: quarantined.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[0] = lines[0].replacen("\"ii\":4", "\"ii\":5", 1);
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let policy = CompactionPolicy {
            max_journal_bytes: 1,
            max_entries: 1 << 16,
        };
        let (mut cache, report) = ScheduleCache::open_with(Some(&path), false, policy).unwrap();
        assert_eq!(report.quarantined, 1);
        // The corrupt line is a dead line: the next insert compacts it
        // away, and the quarantine clears with it (nothing corrupt is
        // left on disk to mistrust).
        cache.insert(3, entry(7)).unwrap();
        assert!(cache.compactions() >= 1);
        assert_eq!(cache.quarantined(), 0);
        drop(cache);
        let (_, report) = ScheduleCache::open_with(Some(&path), false, policy).unwrap();
        assert_eq!(report.quarantined, 0, "no corrupt line survives compaction");
        assert_eq!(report.corrupt_lines, 0);
        assert_eq!(
            report.entries, 2,
            "key 1 is gone until re-scheduled; 2 and 3 live"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn over_cap_insert_evicts_oldest_entries() {
        let path = tmp("evict");
        let policy = CompactionPolicy {
            max_journal_bytes: u64::MAX,
            max_entries: 8,
        };
        let (mut cache, _) = ScheduleCache::open_with(Some(&path), false, policy).unwrap();
        for key in 0..9u64 {
            cache.insert(key, entry(key as u32)).unwrap();
        }
        // 9 > 8 triggered an evicting compaction down to 6 (3/4 of 8).
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.evicted_entries(), 3);
        assert!(
            cache.lookup(0, LIMIT).is_none(),
            "oldest keys evicted first"
        );
        assert!(cache.lookup(1, LIMIT).is_none());
        assert!(cache.lookup(2, LIMIT).is_none());
        assert!(cache.lookup(8, LIMIT).is_some(), "newest key survives");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn degraded_latch_keeps_serving_from_memory() {
        let path = tmp("degraded");
        let (mut cache, _) = ScheduleCache::open(Some(&path), false).unwrap();
        cache.insert(1, entry(4)).unwrap();
        cache.latch_degraded_for_test();
        // Inserts still succeed and serve…
        cache.insert(2, entry(6)).unwrap();
        cache.insert(3, entry(8)).unwrap();
        assert_eq!(cache.lookup(2, LIMIT), Some(&entry(6)));
        assert_eq!(cache.degraded_writes(), 2);
        assert!(cache.is_degraded());
        drop(cache);
        // …but never touched the journal: only the pre-latch entry is on
        // disk.
        let (reloaded, report) = ScheduleCache::open(Some(&path), false).unwrap();
        assert_eq!(report.entries, 1);
        assert_eq!(reloaded.lookup(1, LIMIT), Some(&entry(4)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disk_full_errors_are_classified() {
        let full = CampaignError::Io {
            path: "x".into(),
            operation: "append",
            source: std::io::Error::from_raw_os_error(28), // ENOSPC
        };
        assert!(is_disk_full(&full));
        let other = CampaignError::Io {
            path: "x".into(),
            operation: "append",
            source: std::io::Error::new(std::io::ErrorKind::PermissionDenied, "nope"),
        };
        assert!(!is_disk_full(&other));
    }

    // --- retry classification ---

    #[test]
    fn response_completeness_and_retryability_classify_correctly() {
        // Complete successes are final.
        assert!(response_complete(
            "CACHE miss\nOK ii=5 copies=2 max_registers=9 attempts=7 degraded=0\n"
        ));
        assert!(!response_retryable(
            "CACHE miss\nOK ii=5 copies=2 max_registers=9 attempts=7 degraded=0\n"
        ));
        // Torn responses retry: mid-line cut, missing OK line, empty.
        assert!(!response_complete("CACHE miss\nOK ii=5 cop"));
        assert!(response_retryable("CACHE miss\nOK ii=5 cop"));
        assert!(!response_complete("CACHE hit\n"));
        assert!(response_retryable("CACHE hit\n"));
        assert!(!response_complete(""));
        assert!(response_retryable(""));
        // Transient server errors retry; hard errors do not.
        assert!(response_retryable("ERR overload admission queue full\n"));
        assert!(response_retryable("ERR deadline budget exhausted\n"));
        assert!(response_retryable("ERR malformed torn request\n"));
        assert!(!response_retryable("ERR sched no capable unit\n"));
        assert!(!response_retryable("ERR internal cache append\n"));
    }

    #[test]
    fn retry_backoff_schedule_is_deterministic_per_seed() {
        // Drive the jitter stream exactly as client_request_retry does
        // and check the same seed replays the same schedule.
        let schedule = |seed: u64| -> Vec<u64> {
            let mut rng = csched_core::faultinject::ChaosRng::new(seed);
            (0u32..5)
                .map(|attempt| {
                    let base = 50u64
                        .saturating_mul(1 << attempt.min(16))
                        .min(RetryConfig::MAX_BACKOFF_MS);
                    (base + rng.below_u64(base + 1)).min(RetryConfig::MAX_BACKOFF_MS)
                })
                .collect()
        };
        assert_eq!(schedule(1), schedule(1));
        assert_ne!(
            schedule(1),
            schedule(2),
            "different seeds, different jitter"
        );
    }

    #[test]
    fn kernel_hash_is_whitespace_insensitive_via_canonical_text() {
        let w = csched_kernels::by_name("Merge").unwrap();
        let canonical = csched_ir::text::print(&w.kernel);
        let reparsed = csched_ir::text::parse(&canonical).unwrap();
        assert_eq!(kernel_hash(&w.kernel), kernel_hash(&reparsed));
    }

    #[test]
    fn cache_key_separates_kernel_arch_and_config() {
        let fp_a = "cfg-a";
        let fp_b = "cfg-b";
        assert_ne!(cache_key(1, 2, fp_a), cache_key(1, 3, fp_a));
        assert_ne!(cache_key(1, 2, fp_a), cache_key(2, 2, fp_a));
        assert_ne!(cache_key(1, 2, fp_a), cache_key(1, 2, fp_b));
    }
}
