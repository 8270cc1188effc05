//! Decision-stream golden for the paper grid: every scheduler decision,
//! not just its outcome.
//!
//! `grid_golden` pins `(II, copies, attempts at the final II)` under the
//! default configuration. That cannot see a search that changed at an
//! earlier II, a different stub chosen for a communication that later
//! closes the same way, or a reordered ablation path. This test hashes
//! the full [`TraceEvent`] stream and the final [`Schedule`] of
//!
//! - all 40 cells (10 Table 1 kernels × 4 Imagine organisations) under
//!   `default`, `cycle_order`, `without_comm_cost`,
//!   `without_closing_first` and `recurrence_order`;
//! - the 40 cells through `schedule_kernel_anytime` at the service's
//!   200,000-step limit (the retry ladder), and at 5,000 and 50,000
//!   steps, limits that stop the ladder on 18 and 2 of the cells, so
//!   the step at which a budget trips is pinned too.
//!
//! The digest is a hand-written FNV-1a over the events' fields (not their
//! `Debug` text, which is slow, and not `DefaultHasher`, whose output is
//! not promised stable across Rust releases). A scheduler change that is
//! meant to be a pure speed-up must leave every digest unchanged; update
//! the pins only when a change is meant to alter decisions, and say so in
//! the commit message.
//!
//! Debug builds take minutes for this, so the test is ignored there; CI
//! runs it with `cargo test --release -p csched-core --test
//! decision_golden -- --include-ignored`.

use csched_core::{
    schedule_kernel_anytime, schedule_kernel_anytime_traced, schedule_kernel_traced,
    CommDisposition, CommId, RetryPolicy, SOpId, SchedError, Schedule, SchedulerConfig, StepBudget,
    TraceEvent, TraceSink,
};
use csched_machine::{imagine, Architecture};

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// A sink folding every event's tag and fields into one digest.
struct HashSink {
    h: Fnv1a,
    events: u64,
}

impl TraceSink for HashSink {
    fn event(&mut self, event: TraceEvent) {
        self.events += 1;
        let h = &mut self.h;
        h.str(event.kind());
        match event {
            TraceEvent::IiStart { ii } => h.u64(ii as u64),
            TraceEvent::SlackWidened { slack } => h.i64(slack),
            TraceEvent::IiFailed { ii, op, attempts } => {
                h.u64(ii as u64);
                h.u64(op as u64);
                h.u64(attempts);
            }
            TraceEvent::PlaceAttempt { op, fu, cycle }
            | TraceEvent::PlaceAccept { op, fu, cycle } => {
                h.u64(op as u64);
                h.u64(fu as u64);
                h.i64(cycle);
            }
            TraceEvent::PlaceReject {
                op,
                fu,
                cycle,
                reason,
            } => {
                h.u64(op as u64);
                h.u64(fu as u64);
                h.i64(cycle);
                h.str(reason.as_str());
            }
            TraceEvent::ReadStubAllocated { op, slot, rf, bus } => {
                for v in [op, slot, rf, bus] {
                    h.u64(v as u64);
                }
            }
            TraceEvent::WriteStubAllocated { comm, rf, bus } => {
                for v in [comm, rf, bus] {
                    h.u64(v as u64);
                }
            }
            TraceEvent::WriteStubRevised { comm, rf } => {
                h.u64(comm as u64);
                h.u64(rf as u64);
            }
            TraceEvent::StubsFrozen { comm } => h.u64(comm as u64),
            TraceEvent::RouteClosed { comm, rf, direct } => {
                h.u64(comm as u64);
                h.u64(rf as u64);
                h.u64(direct as u64);
            }
            TraceEvent::CopyInserted { comm, copy } | TraceEvent::CopyReused { comm, copy } => {
                h.u64(comm as u64);
                h.u64(copy as u64);
            }
            TraceEvent::CopyFailed {
                comm,
                lo,
                hi,
                tries,
            } => {
                h.u64(comm as u64);
                h.i64(lo);
                h.i64(hi);
                h.u64(tries as u64);
            }
            TraceEvent::DeadlineExceeded {
                spent,
                limit,
                phase,
                cancelled,
            } => {
                h.u64(spent);
                h.u64(limit);
                h.str(&phase);
                h.u64(cancelled as u64);
            }
            TraceEvent::RungAdvanced {
                attempt,
                relaxation,
                max_ii,
            } => {
                h.u64(attempt as u64);
                h.str(&relaxation);
                h.u64(max_ii as u64);
            }
        }
    }
}

/// Folds a schedule result into `h`: every placement, every
/// communication's disposition (stubs included), block lengths, the II
/// and the search statistics — or the error's text.
fn hash_result(h: &mut Fnv1a, result: &Result<Schedule, SchedError>) {
    let s = match result {
        Ok(s) => s,
        Err(e) => {
            h.str("err");
            h.str(&e.to_string());
            return;
        }
    };
    h.str("ok");
    h.u64(s.ii().map_or(u64::MAX, u64::from));
    let u = s.universe();
    h.u64(u.num_ops() as u64);
    for i in 0..u.num_ops() {
        let op = SOpId::from_raw(i);
        let p = s.placement(op);
        h.u64(u.op(op).block.index() as u64);
        h.u64(p.fu.index() as u64);
        h.i64(p.cycle);
        h.u64(p.latency as u64);
        h.i64(s.block_len(u.op(op).block));
    }
    h.u64(u.num_comms() as u64);
    for i in 0..u.num_comms() {
        let cid = CommId::from_raw(i);
        let c = u.comm(cid);
        h.u64(c.producer.index() as u64);
        h.u64(c.consumer.index() as u64);
        h.u64(c.slot as u64);
        h.u64(c.distance as u64);
        match s.disposition(cid) {
            CommDisposition::Direct(r) => {
                h.u64(0);
                let w = r.wstub;
                for v in [w.fu.index(), w.bus.index(), w.rf.index(), w.port.index()] {
                    h.u64(v as u64);
                }
                let rs = r.rstub;
                for v in [
                    rs.rf.index(),
                    rs.port.index(),
                    rs.bus.index(),
                    rs.fu.index(),
                ] {
                    h.u64(v as u64);
                }
                h.u64(rs.slot as u64);
            }
            CommDisposition::Via(copy) => {
                h.u64(1);
                h.u64(copy.index() as u64);
            }
        }
    }
    let st = s.stats();
    for v in [
        st.attempts,
        st.rejections,
        st.copies_inserted,
        st.ii_tried as u64,
        st.cross_block_copy_failures,
        st.backtracked as u64,
    ] {
        h.u64(v);
    }
}

/// The Table 1 kernels, in the table's order.
const KERNELS: [&str; 10] = [
    "DCT",
    "FFT",
    "FFT-U4",
    "FIR-FP",
    "FIR-INT",
    "Block Warp",
    "Block Warp-U2",
    "Triangle Transform",
    "Sort",
    "Merge",
];

fn archs() -> [Architecture; 4] {
    [
        imagine::central(),
        imagine::clustered(2),
        imagine::clustered(4),
        imagine::distributed(),
    ]
}

/// How one cell is scheduled.
#[derive(Clone, Copy)]
enum Run {
    /// `schedule_kernel_traced` under a configuration.
    Single(fn() -> SchedulerConfig),
    /// `schedule_kernel_anytime_traced` under a step limit.
    Anytime(u64),
}

/// Digest of one cell: its event count and the FNV-1a of its event
/// stream followed by its result.
fn cell_digest(run: Run, arch: &Architecture, kernel: &str) -> (u64, u64) {
    let w = csched_kernels::by_name(kernel).unwrap_or_else(|| panic!("unknown kernel {kernel}"));
    let mut sink = HashSink {
        h: Fnv1a::new(),
        events: 0,
    };
    let result = match run {
        Run::Single(config) => schedule_kernel_traced(arch, &w.kernel, config(), &mut sink),
        Run::Anytime(steps) => {
            let budget = StepBudget::new(steps);
            let (result, report) = schedule_kernel_anytime_traced(
                arch,
                &w.kernel,
                SchedulerConfig::default(),
                &RetryPolicy,
                &budget,
                &mut sink,
            );
            sink.h.u64(report.attempts_spent);
            sink.h.u64(report.degraded as u64);
            result
        }
    };
    hash_result(&mut sink.h, &result);
    (sink.events, sink.h.0)
}

/// Pinned `(name, run, total events, digest)` per run kind, over the 40
/// cells in kernel-major order.
const GOLDEN: [(&str, Run, u64, u64); 8] = [
    (
        "default",
        Run::Single(SchedulerConfig::default),
        1827099,
        0xd2cf9afa6472d36b,
    ),
    (
        "cycle_order",
        Run::Single(SchedulerConfig::cycle_order),
        88824900,
        0xfadf47edca18bc90,
    ),
    (
        "without_comm_cost",
        Run::Single(SchedulerConfig::without_comm_cost),
        1785207,
        0x9822c8e0bda8a679,
    ),
    (
        "without_closing_first",
        Run::Single(SchedulerConfig::without_closing_first),
        9804282,
        0x5f95442688934c19,
    ),
    (
        "recurrence_order",
        Run::Single(SchedulerConfig::recurrence_order),
        1814125,
        0xc0e9a53a1c650374,
    ),
    // The service's default per-request step limit.
    (
        "anytime",
        Run::Anytime(200_000),
        1827139,
        0x620b89fb26b7f559,
    ),
    // Limits that stop the ladder on 18 and 2 of the 40 cells.
    (
        "anytime_5k",
        Run::Anytime(5_000),
        536708,
        0x12822051a63b63ba,
    ),
    (
        "anytime_50k",
        Run::Anytime(50_000),
        1597781,
        0xf6791fac675a8de7,
    ),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "320 traced runs; CI runs it under the release profile"
)]
fn decision_streams_match_the_pinned_digests() {
    let archs = archs();
    let mut report = String::new();
    let mut drifted = Vec::new();
    for &(name, run, want_events, want_digest) in &GOLDEN {
        let mut h = Fnv1a::new();
        let mut events = 0u64;
        for kernel in KERNELS {
            for arch in &archs {
                let (n, d) = cell_digest(run, arch, kernel);
                report.push_str(&format!(
                    "{name:>22} {kernel:>18} on {:<12} events {n:>9} digest {d:#018x}\n",
                    arch.name()
                ));
                events += n;
                h.u64(n);
                h.u64(d);
            }
        }
        println!("(\"{name}\", {events}, {:#018x}),", h.0);
        if (events, h.0) != (want_events, want_digest) {
            drifted.push(name);
        }
    }
    assert!(
        drifted.is_empty(),
        "decision streams drifted for {drifted:?}; per-cell digests:\n{report}"
    );
}

/// Pinned `(step limit, digest)` of the untraced anytime answers alone:
/// [`hash_result`] of each of the 40 cells' results in kernel-major
/// order, with no event and no report field folded in. The decision
/// digests above also pin how a ladder got to its answer; these pin only
/// the answer a `SCHED` request gets.
const RESULT_GOLDEN: [(u64, u64); 3] = [
    (200_000, 0x2b6d6a89c97232ad),
    (50_000, 0x97bd6c8b74ce7c14),
    (5_000, 0xab744eef48843259),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "120 anytime runs; CI runs it under the release profile"
)]
fn anytime_answers_match_the_pinned_digests() {
    let archs = archs();
    let mut drifted = Vec::new();
    for &(limit, want) in &RESULT_GOLDEN {
        let mut h = Fnv1a::new();
        for kernel in KERNELS {
            let w = csched_kernels::by_name(kernel).unwrap_or_else(|| panic!("{kernel}"));
            for arch in &archs {
                let (result, _) = schedule_kernel_anytime(
                    arch,
                    &w.kernel,
                    SchedulerConfig::default(),
                    &RetryPolicy,
                    &StepBudget::new(limit),
                );
                hash_result(&mut h, &result);
            }
        }
        println!("({limit}, {:#018x}),", h.0);
        if h.0 != want {
            drifted.push(limit);
        }
    }
    assert!(drifted.is_empty(), "anytime answers drifted at {drifted:?}");
}
