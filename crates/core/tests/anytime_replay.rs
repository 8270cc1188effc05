//! The anytime ladder's II replay: an untraced `schedule_kernel_anytime`
//! replays each II attempt it already failed instead of rerunning it, and
//! must answer exactly what a traced call, which reruns everything,
//! answers — the same schedule, the same `AnytimeReport`, the same budget
//! spend, and reject and budget-stop counts equal to what a sink counts
//! from the traced call's events.
//!
//! The grid-wide tests take about a minute under the debug profile, so
//! they are ignored there; CI runs them with `cargo test --release -p
//! csched-core --test anytime_replay -- --include-ignored`. The small
//! Sort × distributed case runs under every profile, so a debug run
//! exercises the engine's rerun of every replayed II.

use csched_core::trace::decision_filter;
use csched_core::{
    schedule_kernel_anytime, schedule_kernel_anytime_traced, schedule_kernel_traced, AnytimeReport,
    RetryPolicy, SchedulerConfig, StepBudget, TraceEvent, TraceSink,
};
use csched_machine::{imagine, Architecture};

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

/// What a span rollup counts from the events of a traced call.
#[derive(Default)]
struct Rollup {
    rejects: [u64; 5],
    deadline_events: u64,
    rung: u32,
}

impl TraceSink for Rollup {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::PlaceReject { reason, .. } => self.rejects[reason as usize] += 1,
            TraceEvent::DeadlineExceeded { .. } => self.deadline_events += 1,
            TraceEvent::RungAdvanced { attempt, .. } => self.rung = self.rung.max(attempt),
            _ => {}
        }
    }
}

/// Schedules `kernel` on `arch` under `limit` steps untraced and traced,
/// asserts that the two calls agree, and returns the untraced report.
fn untraced_matches_traced(arch: &Architecture, kernel: &str, limit: u64) -> AnytimeReport {
    let w = csched_kernels::by_name(kernel).unwrap_or_else(|| panic!("unknown kernel {kernel}"));
    let label = format!("{kernel} on {} at {limit} steps", arch.name());
    let anytime = |budget: &StepBudget, sink: Option<&mut Rollup>| match sink {
        Some(sink) => schedule_kernel_anytime_traced(
            arch,
            &w.kernel,
            SchedulerConfig::default(),
            &RetryPolicy::default(),
            budget,
            sink,
        ),
        None => schedule_kernel_anytime(
            arch,
            &w.kernel,
            SchedulerConfig::default(),
            &RetryPolicy::default(),
            budget,
        ),
    };
    let budget = StepBudget::new(limit);
    let (result, report) = anytime(&budget, None);
    let traced_budget = StepBudget::new(limit);
    let mut rollup = Rollup::default();
    let (traced_result, traced_report) = anytime(&traced_budget, Some(&mut rollup));

    assert_eq!(
        format!("{result:?}"),
        format!("{traced_result:?}"),
        "{label}: the answers differ"
    );
    assert_eq!(
        traced_report.replayed_spent, 0,
        "{label}: a traced call replayed"
    );
    let replayed = AnytimeReport {
        replayed_spent: 0,
        ..report.clone()
    };
    assert_eq!(replayed, traced_report, "{label}: the reports differ");
    assert_eq!(
        budget.spent(),
        traced_budget.spent(),
        "{label}: spend differs"
    );
    assert_eq!(report.attempts_spent, budget.spent(), "{label}");
    assert_eq!(
        (report.rejects, report.deadline_events, report.rung()),
        (rollup.rejects, rollup.deadline_events, rollup.rung),
        "{label}: the counters differ from the traced events"
    );
    report
}

/// On every grid cell at the service's 200,000-step limit, and at 50,000
/// and 5,000 steps, where the budget runs out mid-search on 5 and 20
/// cells. At 200,000 steps no improvement rung succeeds, so the first
/// one repeats exactly the IIs the acquiring rung failed: replay charges
/// every step the improvement phase spends.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "240 anytime calls; CI runs it under the release profile"
)]
fn replay_is_exact_on_the_grid_and_charges_the_whole_improvement_phase() {
    let archs = archs();
    for limit in [200_000, 50_000, 5_000] {
        let mut replayed = 0;
        for kernel in KERNELS {
            for arch in &archs {
                let report = untraced_matches_traced(arch, kernel, limit);
                if limit == 200_000 {
                    assert_eq!(
                        report.replayed_spent,
                        report.attempts_spent - report.acquired_spent,
                        "{kernel} on {}",
                        arch.name()
                    );
                }
                replayed += report.replayed_spent;
            }
        }
        if limit == 200_000 {
            assert_eq!(replayed, 421_487);
        }
    }
}

/// Sort on distributed fails IIs 7 and 8 (1,520 and 1,340 steps) and
/// schedules at 9, so its improvement rung repeats both. At the full
/// limit both replay; one step short of the full spend, II 7 replays and
/// the budget refuses II 8's charge, so II 8 runs for real and the budget
/// stops it.
#[test]
fn replay_reruns_an_ii_whose_charge_the_budget_refuses() {
    let arch = imagine::distributed();
    let full = untraced_matches_traced(&arch, "Sort", 200_000);
    let improvement = full.attempts_spent - full.acquired_spent;
    assert!(improvement > 0, "Sort on distributed fails an II");
    assert_eq!(full.replayed_spent, improvement);
    assert!(!full.degraded);

    let short = untraced_matches_traced(&arch, "Sort", full.attempts_spent - 1);
    assert!(short.degraded);
    assert_eq!(short.deadline_events, 1);
    assert!(
        0 < short.replayed_spent && short.replayed_spent < improvement - 1,
        "replayed {} of {}",
        short.replayed_spent,
        improvement - 1
    );
}

/// The decision stream of a single traced run is a prefix of the anytime
/// ladder's, and the two are equal only on the cells where no II below
/// the answer failed: elsewhere the first improvement rung retries those
/// IIs, and a traced call runs them for real.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "80 traced calls; CI runs it under the release profile"
)]
fn single_run_decisions_are_a_prefix_of_the_ladder_decisions() {
    #[derive(Default)]
    struct Decisions(Vec<TraceEvent>);
    impl TraceSink for Decisions {
        fn event(&mut self, event: TraceEvent) {
            if decision_filter(&event) {
                self.0.push(event);
            }
        }
    }
    let mut longer = 0;
    for kernel in KERNELS {
        let w = csched_kernels::by_name(kernel).unwrap();
        for arch in &archs() {
            let mut single = Decisions::default();
            let schedule =
                schedule_kernel_traced(arch, &w.kernel, SchedulerConfig::default(), &mut single)
                    .unwrap();
            let mut ladder = Decisions::default();
            let (result, report) = schedule_kernel_anytime_traced(
                arch,
                &w.kernel,
                SchedulerConfig::default(),
                &RetryPolicy::default(),
                &StepBudget::new(200_000),
                &mut ladder,
            );
            let label = format!("{kernel} on {}", arch.name());
            assert!(
                result.is_ok() && !report.degraded && report.rung() == 0,
                "{label}"
            );
            assert!(ladder.0.starts_with(&single.0), "{label}");
            // `ii_tried` is 1 exactly when the first II, the MII, fit.
            let none_failed = schedule.stats().ii_tried == 1;
            assert_eq!(ladder.0.len() == single.0.len(), none_failed, "{label}");
            if kernel == "FIR-INT" && arch.name() == "imagine-distributed" {
                assert_eq!((single.0.len(), ladder.0.len()), (29_965, 54_900));
            }
            longer += usize::from(!none_failed);
        }
    }
    assert_eq!(longer, 21);
}
