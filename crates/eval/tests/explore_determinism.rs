//! The exploration engine's headline guarantees, pinned end to end:
//!
//! 1. **Thread-count invariance** — `explore` renders byte-identical
//!    JSON for `jobs` = 1, 2, and 8 on the same configuration.
//! 2. **Frontier soundness** — every reported frontier member is
//!    non-dominated under an independent recheck.
//! 3. **Crash-consistent resume** — a sweep killed mid-run (torn
//!    journal) resumes without re-scheduling finished candidates and
//!    renders the identical report.
//! 4. **Anchor placement** — the distributed machine shows up on or
//!    near the Pareto frontier, the paper's headline trade-off.

use csched_eval::campaign::{CellStatus, Journal};
use csched_eval::explore::{explore, ExploreConfig, ExploreReport};
use csched_ir::Kernel;
use csched_machine::gen::DesignSpace;
use std::collections::HashMap;
use std::io::Write as _;

mod common;
use common::tmp_path;

fn suite() -> Vec<csched_kernels::Workload> {
    ["Merge", "Sort"]
        .iter()
        .map(|n| csched_kernels::by_name(n).unwrap())
        .collect()
}

fn small_config() -> ExploreConfig {
    ExploreConfig {
        space: DesignSpace {
            clusters: (0, 2),
            alus: (2, 3),
            buses: (2, 2),
            rf_capacities: vec![16],
            write_ports: (1, 1),
        },
        candidates: 16,
        refine_rounds: 1,
        step_limit: 500_000,
        anchors: true,
        ..ExploreConfig::default()
    }
}

fn run(config: &ExploreConfig, jobs: usize) -> ExploreReport {
    let workloads = suite();
    let kernels: Vec<(&str, &Kernel)> = workloads
        .iter()
        .map(|w| (w.kernel.name(), &w.kernel))
        .collect();
    explore(config, &kernels, jobs, None, &HashMap::new()).unwrap()
}

#[test]
fn json_is_byte_identical_across_thread_counts_and_the_frontier_is_sound() {
    let config = small_config();
    let report = run(&config, 1);
    let golden = report.to_json();
    for jobs in [2, 8] {
        assert_eq!(
            run(&config, jobs).to_json(),
            golden,
            "jobs={jobs} must render the jobs=1 bytes"
        );
    }
    check_frontier_non_dominated(&report);
    check_distributed_anchor(&report);
}

fn check_frontier_non_dominated(report: &ExploreReport) {
    assert!(!report.frontier.is_empty());
    let scored: Vec<_> = report
        .candidates
        .iter()
        .filter_map(|c| c.score.map(|s| (c.name.clone(), s)))
        .collect();
    assert!(scored.len() >= 2, "need a populated trade-off space");
    for &idx in &report.frontier {
        let member = &report.candidates[idx];
        let mine = member.score.unwrap();
        assert_eq!(member.dominated_by, 0);
        for (name, other) in &scored {
            assert!(
                !other.dominates(&mine),
                "{} dominates frontier member {}",
                name,
                member.name
            );
        }
    }
    // Non-frontier scored candidates carry honest domination counts.
    for c in &report.candidates {
        if c.score.is_some() && !c.on_frontier() {
            assert!(c.dominated_by > 0, "{} claims 0 dominators", c.name);
        }
    }
}

fn check_distributed_anchor(report: &ExploreReport) {
    let dist = report
        .candidates
        .iter()
        .find(|c| c.name == "imagine-distributed")
        .expect("distributed anchor evaluated");
    assert!(
        dist.kernels.iter().all(|r| r.status == CellStatus::Ok),
        "distributed must schedule the suite: {:?}",
        dist.kernels
    );
    // The paper's headline: the distributed organisation trades a small
    // II increase for much cheaper register files. On (II, area, power,
    // delay) it must be on the frontier or dominated by at most one
    // design.
    assert!(
        dist.dominated_by <= 1,
        "distributed dominated by {} designs",
        dist.dominated_by
    );
}

#[test]
fn torn_journal_resume_reuses_candidates_and_reproduces_the_report() {
    let workloads = suite();
    let kernels: Vec<(&str, &Kernel)> = workloads
        .iter()
        .map(|w| (w.kernel.name(), &w.kernel))
        .collect();
    let config = small_config();

    // Uninterrupted run, journaling every cell. jobs=1 so the journal's
    // line order is candidate-major (parallel runs journal in completion
    // order), which lets the tear below split cleanly between candidates.
    let full_journal = tmp_path("explore-full.jsonl");
    let golden = {
        let mut journal = Journal::open(&full_journal).unwrap();
        let report = explore(&config, &kernels, 1, Some(&mut journal), &HashMap::new()).unwrap();
        assert_eq!(report.resumed, 0);
        report.to_json()
    };

    // Crash simulation: keep the first candidate's two cells (one per
    // kernel), tear the third line mid-write, drop the rest.
    let torn_journal = tmp_path("explore-torn.jsonl");
    let bytes = std::fs::read(&full_journal).unwrap();
    let mut newlines = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i);
    let second_newline = newlines.nth(1).unwrap();
    let cut = second_newline + 1 + 17;
    assert!(cut < bytes.len(), "journal long enough to tear");
    std::fs::File::create(&torn_journal)
        .unwrap()
        .write_all(&bytes[..cut])
        .unwrap();

    // Resume: the fully journaled candidate is reused (all-or-nothing
    // per candidate), everything else is recomputed, and the report is
    // byte-identical — at any thread count.
    let resume = Journal::load(&torn_journal).unwrap();
    assert_eq!(resume.len(), 2, "two whole cells survived the crash");
    let mut journal = Journal::open(&torn_journal).unwrap();
    let report = explore(&config, &kernels, 2, Some(&mut journal), &resume).unwrap();
    assert_eq!(
        report.resumed, 1,
        "exactly the fully-journaled candidate resumes"
    );
    assert_eq!(report.to_json(), golden);

    // The repaired journal now holds the full sweep: a second resume
    // re-schedules nothing.
    let resume_all = Journal::load(&torn_journal).unwrap();
    let report = explore(&config, &kernels, 4, None, &resume_all).unwrap();
    assert_eq!(report.resumed, report.candidates.len());
    assert_eq!(report.to_json(), golden);

    let _ = std::fs::remove_file(&full_journal);
    let _ = std::fs::remove_file(&torn_journal);
}

/// Acceptance-scale sweep: a 50+-candidate space, parallel, with the
/// full four-objective frontier. Ignored by default (expensive in debug
/// builds); ci.sh exercises the release binary equivalent.
#[test]
#[ignore = "acceptance-scale; run explicitly or via ci.sh"]
fn fifty_candidate_sweep_is_thread_invariant() {
    let config = ExploreConfig {
        candidates: 50,
        refine_rounds: 0,
        step_limit: 200_000,
        ..ExploreConfig::default()
    };
    let golden = run(&config, 1).to_json();
    assert_eq!(run(&config, 8).to_json(), golden);
}
