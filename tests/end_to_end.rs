//! End-to-end integration: every Table 1 kernel schedules on the central
//! register file machine, passes independent validation, and the cycle
//! simulator reproduces the scalar reference output exactly.
//!
//! (The full 10 × 4 grid incl. the clustered and distributed machines runs
//! in release mode via `cargo run --release -p csched-eval --bin
//! paper-report`; debug-mode integration keeps to the fast baseline plus
//! spot checks so `cargo test` stays snappy.)

mod common;

use csched::core::{
    regalloc, schedule_kernel, schedule_kernel_traced, validate, SchedulerConfig, TraceEvent,
    TraceSink,
};
use csched::machine::imagine;

#[test]
fn all_kernels_end_to_end_on_central() {
    let arch = imagine::central();
    for w in csched::kernels::all() {
        let schedule = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.kernel.name()));
        validate::validate(&arch, &w.kernel, &schedule)
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.kernel.name()));
        // No copies ever needed on a central register file.
        assert_eq!(schedule.num_copies(), 0, "{}", w.kernel.name());

        let mut mem = w.memory();
        csched::sim::execute(&w.kernel, &schedule, &mut mem, w.trip)
            .unwrap_or_else(|e| panic!("{}: {e}", w.kernel.name()));
        w.verify(&mem).unwrap_or_else(|e| panic!("{e}"));

        // Register demand is well-formed and fits the central file.
        let pressure = regalloc::analyze(&arch, &w.kernel, &schedule);
        assert!(pressure.total_required() > 0, "{}", w.kernel.name());
        assert!(
            pressure.fits(),
            "{}: demand {} exceeds central capacity",
            w.kernel.name(),
            pressure.max_required()
        );
    }
}

#[test]
fn spot_check_distributed_machine() {
    let arch = imagine::distributed();
    for name in ["FFT", "Merge", "Block Warp"] {
        let w = csched::kernels::by_name(name).expect("known kernel");
        let schedule = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        validate::validate(&arch, &w.kernel, &schedule).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let mut mem = w.memory();
        csched::sim::execute(&w.kernel, &schedule, &mut mem, w.trip)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        w.verify(&mem).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Each FIR multiply is `mul x, c` with a loaded `x` used once. On the
/// distributed machine every unit input reads its own file, so binding
/// half the multiplies' values to slot 1 spreads the 56 loaded values
/// over both input files of the three multipliers instead of piling them
/// into the slot-0 files' write ports.
#[test]
fn fir_on_distributed_binds_its_multiplies_to_both_slots() {
    let arch = imagine::distributed();
    for name in ["FIR-FP", "FIR-INT"] {
        let w = csched::kernels::by_name(name).expect("known kernel");
        let schedule = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let ii = schedule.ii().expect("FIR has a loop");
        assert!(ii <= 23, "{name}: II {ii}");
        assert!(
            schedule.num_copies() <= 2,
            "{name}: {} copies",
            schedule.num_copies()
        );
        validate::validate(&arch, &w.kernel, &schedule).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let mut mem = w.memory();
        csched::sim::execute(&w.kernel, &schedule, &mut mem, w.trip)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        w.verify(&mem).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The failed IIs and copy searches of one traced schedule.
#[derive(Default)]
struct SearchFailures {
    iis: Vec<(u32, u32, u64)>,
    copies: Vec<(i64, i64, u32)>,
}

impl TraceSink for SearchFailures {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::IiFailed { ii, op, attempts } => self.iis.push((ii, op, attempts)),
            TraceEvent::CopyFailed { lo, hi, tries, .. } => self.copies.push((lo, hi, tries)),
            _ => {}
        }
    }
}

/// The II search of FIR-INT on distributed, read from the trace: every
/// attempt at IIs 19–22 fails at op168, the loop variable's `i + 1`
/// update, which operation order places last. ROADMAP item 1 (lever B)
/// is expected to re-pin these four events. FFT on distributed fails no
/// II but does fail a copy search, so the copy checks see an event.
#[test]
fn failed_iis_and_copy_searches_are_traced() {
    let arch = imagine::distributed();
    for (name, want) in [
        (
            "FIR-INT",
            &[
                (19, 168, 3100),
                (20, 168, 3108),
                (21, 168, 3109),
                (22, 168, 3147),
            ][..],
        ),
        ("FFT", &[]),
    ] {
        let w = csched::kernels::by_name(name).expect("known kernel");
        let mut sink = SearchFailures::default();
        let traced =
            schedule_kernel_traced(&arch, &w.kernel, SchedulerConfig::default(), &mut sink)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sink.iis, want, "{name}");
        assert_eq!(sink.copies.is_empty(), name == "FIR-INT", "{name}");
        for &(lo, hi, tries) in &sink.copies {
            assert!(lo <= hi && tries >= 1, "{name}: {lo}..={hi}, {tries} tries");
        }
        let plain = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default()).unwrap();
        assert_eq!(traced.ii(), plain.ii(), "{name}");
        assert_eq!(traced.stats(), plain.stats(), "{name}");
        let u = plain.universe();
        let sizes = |u: &csched::core::Universe| (u.num_ops(), u.num_comms());
        assert_eq!(sizes(traced.universe()), sizes(u), "{name}");
        for op in u.op_ids() {
            assert_eq!(traced.placement(op), plain.placement(op), "{name}: {op:?}");
        }
        for cid in u.comm_ids() {
            assert_eq!(
                traced.disposition(cid),
                plain.disposition(cid),
                "{name}: {cid:?}"
            );
        }
    }
}

#[test]
fn spot_check_clustered_machine() {
    let arch = imagine::clustered(4);
    for name in ["DCT", "Sort", "Merge"] {
        let w = csched::kernels::by_name(name).expect("known kernel");
        let schedule = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        validate::validate(&arch, &w.kernel, &schedule).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let mut mem = w.memory();
        csched::sim::execute(&w.kernel, &schedule, &mut mem, w.trip)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        w.verify(&mem).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn unrolled_kernels_schedule_everywhere() {
    // The unroller's output must remain schedulable (it stresses operand
    // counts and memory ordering).
    let arch = imagine::central();
    for name in ["FFT-U4", "Block Warp-U2"] {
        let w = csched::kernels::by_name(name).expect("known kernel");
        let schedule = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(schedule.ii().is_some());
    }
}
