//! The anytime ladder: `schedule_kernel_anytime` answers with the first
//! rung that schedules, and an untraced call must answer exactly what a
//! traced call answers — the same schedule, the same `AnytimeReport`,
//! the same budget spend — with reject and budget-stop counts equal to
//! what a sink counts from the traced call's events.
//!
//! Rungs 3–5 each answer an input on the toy machine that no earlier
//! rung answers, so every rung of the ladder is pinned by a schedule.
//!
//! The grid-wide tests and the rung-5 case take about a minute under the
//! debug profile, so they are ignored there; CI runs them with `cargo
//! test --release -p csched-core --test anytime_ladder --
//! --include-ignored`. The small Sort × distributed case and the rung 3
//! and 4 cases run under every profile, so a debug run covers the ladder
//! too.

use csched_core::trace::decision_filter;
use csched_core::{
    schedule_kernel_anytime, schedule_kernel_anytime_traced, schedule_kernel_traced, validate,
    AnytimeReport, RetryPolicy, SchedError, Schedule, SchedulerConfig, StepBudget, TraceEvent,
    TraceSink,
};
use csched_ir::{Kernel, KernelBuilder};
use csched_machine::{imagine, toy, Architecture, Opcode};

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
/// asserts that the two calls agree, and returns the untraced answer.
fn untraced_matches_traced(
    arch: &Architecture,
    kernel: &str,
    limit: u64,
) -> (Result<Schedule, SchedError>, AnytimeReport) {
    let w = csched_kernels::by_name(kernel).unwrap_or_else(|| panic!("unknown kernel {kernel}"));
    let label = format!("{kernel} on {} at {limit} steps", arch.name());
    let anytime = |budget: &StepBudget, sink: Option<&mut Rollup>| match sink {
        Some(sink) => schedule_kernel_anytime_traced(
            arch,
            &w.kernel,
            SchedulerConfig::default(),
            &RetryPolicy,
            budget,
            sink,
        ),
        None => schedule_kernel_anytime(
            arch,
            &w.kernel,
            SchedulerConfig::default(),
            &RetryPolicy,
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
    assert_eq!(report, traced_report, "{label}: the reports differ");
    assert_eq!(
        budget.spent(),
        traced_budget.spent(),
        "{label}: spend differs"
    );
    assert_eq!(report.attempts_spent, budget.spent(), "{label}");
    assert_eq!(report.acquired_spent, report.attempts_spent, "{label}");
    assert_eq!(
        (report.rejects, report.deadline_events, report.rung),
        (rollup.rejects, rollup.deadline_events, rollup.rung),
        "{label}: the counters differ from the traced events"
    );
    (result, report)
}

/// On every grid cell at the service's 200,000-step limit, and at 50,000
/// and 5,000 steps, where the budget stops the ladder on 4 and 18 cells.
/// `degraded` flags exactly the answers whose acquiring rung started with
/// fewer steps left than the 40,000-attempt per-II cap: none at 200,000
/// or 50,000 steps, and every answer at 5,000.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "240 anytime calls; CI runs it under the release profile"
)]
fn untraced_and_traced_calls_agree_on_the_grid() {
    let archs = archs();
    // (limit, answers, degraded answers, steps spent over the 40 cells)
    let mut totals = Vec::new();
    for limit in [200_000, 50_000, 5_000] {
        let (mut answers, mut degraded, mut spent) = (0, 0, 0);
        for kernel in KERNELS {
            for arch in &archs {
                let (result, report) = untraced_matches_traced(arch, kernel, limit);
                answers += u32::from(result.is_ok());
                degraded += u32::from(report.degraded);
                spent += report.attempts_spent;
            }
        }
        totals.push((limit, answers, degraded, spent));
    }
    assert_eq!(
        totals,
        [
            (200_000, 40, 0, 390_210),
            (50_000, 38, 0, 342_879),
            (5_000, 22, 22, 117_736),
        ]
    );
}

/// Sort on distributed fails IIs 7 and 8 and schedules at 9 with the
/// caller's configuration. A limit of exactly that spend answers the same
/// schedule, flagged degraded because the cap was cut to it; one step
/// fewer stops the ladder with a typed deadline.
#[test]
fn a_limit_at_the_spend_answers_degraded_and_one_less_stops() {
    let arch = imagine::distributed();
    let (full, report) = untraced_matches_traced(&arch, "Sort", 200_000);
    let full = full.expect("Sort schedules on distributed");
    assert_eq!((full.ii(), full.stats().ii_tried), (Some(9), 3));
    assert!(!report.degraded);
    assert_eq!((report.rung, report.attempts_spent), (0, 3_166));

    let (exact, at_spend) = untraced_matches_traced(&arch, "Sort", report.attempts_spent);
    assert_eq!(
        format!("{exact:?}"),
        format!("{:?}", Ok::<_, SchedError>(full))
    );
    assert!(at_spend.degraded);
    assert_eq!(at_spend.attempts_spent, report.attempts_spent);

    let (short, below) = untraced_matches_traced(&arch, "Sort", report.attempts_spent - 1);
    assert!(
        matches!(short, Err(SchedError::DeadlineExceeded { .. })),
        "{short:?}"
    );
    assert!(!below.degraded);
    assert_eq!(below.deadline_events, 1);
}

/// With the full per-II cap, the ladder's first rung is a single run of
/// the caller's configuration, so the two decision streams are equal on
/// every cell.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "80 traced calls; CI runs it under the release profile"
)]
fn single_run_decisions_equal_the_ladder_decisions() {
    #[derive(Default)]
    struct Decisions(Vec<TraceEvent>);
    impl TraceSink for Decisions {
        fn event(&mut self, event: TraceEvent) {
            if decision_filter(&event) {
                self.0.push(event);
            }
        }
    }
    for kernel in KERNELS {
        let w = csched_kernels::by_name(kernel).unwrap();
        for arch in &archs() {
            let mut single = Decisions::default();
            schedule_kernel_traced(arch, &w.kernel, SchedulerConfig::default(), &mut single)
                .unwrap();
            let mut ladder = Decisions::default();
            let (result, report) = schedule_kernel_anytime_traced(
                arch,
                &w.kernel,
                SchedulerConfig::default(),
                &RetryPolicy,
                &StepBudget::new(200_000),
                &mut ladder,
            );
            let label = format!("{kernel} on {}", arch.name());
            assert!(
                result.is_ok() && !report.degraded && report.rung == 0,
                "{label}"
            );
            assert!(ladder.0 == single.0, "{label}");
            if kernel == "FIR-INT" && arch.name() == "imagine-distributed" {
                assert_eq!(ladder.0.len(), 2_031);
            }
        }
    }
}

/// A loop whose `n` one-cycle adds form one recurrence through its loop
/// variable, so no II below `n` can schedule it.
fn add_recurrence(n: usize) -> Kernel {
    let mut kb = KernelBuilder::new("recurrence");
    let lp = kb.loop_block("body");
    let x = kb.loop_var(lp, 0i64.into());
    let mut v = x;
    for _ in 0..n {
        v = kb.push(lp, Opcode::IAdd, [v.into(), 1i64.into()]);
    }
    kb.set_update(x, v.into());
    kb.build().unwrap()
}

/// One straight-line block of `n` independent adds.
fn independent_adds(n: usize) -> Kernel {
    let mut kb = KernelBuilder::new("adds");
    let b = kb.straight_block("b");
    for _ in 0..n {
        kb.push(b, Opcode::IAdd, [1i64.into(), 2i64.into()]);
    }
    kb.build().unwrap()
}

/// Runs the ladder on the toy machine under `limit` steps and returns
/// the answer, checked by the validator, with the rung that gave it.
fn answer_on_toy(kernel: &Kernel, limit: u64) -> (Schedule, u32) {
    let arch = toy::motivating_example();
    let (result, report) = schedule_kernel_anytime(
        &arch,
        kernel,
        SchedulerConfig::default(),
        &RetryPolicy,
        &StepBudget::new(limit),
    );
    let schedule = result.unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    validate::validate(&arch, kernel, &schedule).unwrap();
    (schedule, report.rung)
}

/// Rung 3 is the first whose II cap (4 × 512) reaches a 600-add
/// recurrence's II of 600. Rung 4's cycle order is the first to place
/// 300 independent adds in one block: every earlier rung gives up on the
/// block, and the call spends 231,252 steps in all, so at the service's
/// 200,000 the budget stops it inside rung 4.
#[test]
fn rungs_3_and_4_answer_inputs_no_earlier_rung_answers() {
    let (schedule, rung) = answer_on_toy(&add_recurrence(600), 200_000);
    assert_eq!((rung, schedule.ii()), (3, Some(600)));

    let adds = independent_adds(300);
    let (schedule, rung) = answer_on_toy(&adds, 4_194_304);
    assert_eq!((rung, schedule.ii()), (4, None));

    let (result, report) = schedule_kernel_anytime(
        &toy::motivating_example(),
        &adds,
        SchedulerConfig::default(),
        &RetryPolicy,
        &StepBudget::new(200_000),
    );
    assert!(
        matches!(result, Err(SchedError::DeadlineExceeded { .. })),
        "{result:?}"
    );
    assert_eq!(report.rung, 4);
}

/// Rung 5 is the first whose II cap (8 × 512) reaches a 2,100-add
/// recurrence's II of 2,100.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 20 s under the debug profile; CI runs it under the release profile"
)]
fn rung_5_answers_a_recurrence_no_earlier_rung_answers() {
    let (schedule, rung) = answer_on_toy(&add_recurrence(2_100), 200_000);
    assert_eq!((rung, schedule.ii()), (5, Some(2_100)));
}
