//! Golden crash/resume test: a campaign killed mid-run and resumed from
//! its (possibly torn) journal must produce a report byte-for-byte
//! identical to the uninterrupted run.

use csched_eval::campaign::{campaign_json, run_campaign, CellStatus, Journal};
use csched_ir::Kernel;
use std::collections::HashMap;
use std::io::Write as _;

use csched_core::SchedulerConfig;
use csched_machine::imagine;

mod common;
use common::tmp_path;

#[test]
fn resumed_campaign_reproduces_the_uninterrupted_report() {
    let merge = csched_kernels::by_name("Merge").unwrap();
    let sort = csched_kernels::by_name("Sort").unwrap();
    let kernels: Vec<(&str, &Kernel)> = vec![("Merge", &merge.kernel), ("Sort", &sort.kernel)];
    let archs = [imagine::central(), imagine::clustered(2)];
    let config = SchedulerConfig::default();
    let step_limit = 500_000;

    // Uninterrupted run, journaling every cell.
    let full_journal = tmp_path("full.jsonl");
    let golden = {
        let mut journal = Journal::open(&full_journal).unwrap();
        let result = run_campaign(
            &kernels,
            &archs,
            &config,
            step_limit,
            Some(&mut journal),
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(result.resumed, 0);
        assert!(result.all_ok(), "{:?}", result.records);
        campaign_json(&result.records)
    };

    // Simulate a crash: keep the first journal line whole, tear the
    // second mid-write, drop the rest.
    let torn_journal = tmp_path("torn.jsonl");
    let bytes = std::fs::read(&full_journal).unwrap();
    let first_newline = bytes.iter().position(|&b| b == b'\n').unwrap();
    let cut = first_newline + 1 + 17; // 17 bytes into the second line
    assert!(cut < bytes.len(), "journal long enough to tear");
    std::fs::File::create(&torn_journal)
        .unwrap()
        .write_all(&bytes[..cut])
        .unwrap();

    // Resume: the torn tail is ignored, the completed cell is reused,
    // the interrupted and remaining cells are recomputed and journaled.
    let resume = Journal::load(&torn_journal).unwrap();
    assert_eq!(resume.len(), 1, "only the first cell survived the crash");
    let mut journal = Journal::open(&torn_journal).unwrap();
    let result = run_campaign(
        &kernels,
        &archs,
        &config,
        step_limit,
        Some(&mut journal),
        &resume,
    )
    .unwrap();
    assert_eq!(result.resumed, 1);
    assert_eq!(
        campaign_json(&result.records),
        golden,
        "resumed campaign must render the identical report"
    );

    // The repaired journal now checkpoints the full campaign: a second
    // resume recomputes nothing.
    let resume_all = Journal::load(&torn_journal).unwrap();
    assert_eq!(resume_all.len(), kernels.len() * archs.len());
    let result = run_campaign(&kernels, &archs, &config, step_limit, None, &resume_all).unwrap();
    assert_eq!(result.resumed, kernels.len() * archs.len());
    assert_eq!(campaign_json(&result.records), golden);

    let _ = std::fs::remove_file(&full_journal);
    let _ = std::fs::remove_file(&torn_journal);
}

#[test]
fn timed_out_cells_checkpoint_and_resume_like_any_other() {
    let merge = csched_kernels::by_name("Merge").unwrap();
    let kernels: Vec<(&str, &Kernel)> = vec![("Merge", &merge.kernel)];
    let archs = [imagine::central()];
    let config = SchedulerConfig::default();

    let journal_path = tmp_path("starved.jsonl");
    let golden = {
        let mut journal = Journal::open(&journal_path).unwrap();
        let result = run_campaign(
            &kernels,
            &archs,
            &config,
            3,
            Some(&mut journal),
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(result.count(CellStatus::TimedOut), 1);
        assert!(result.records[0].attempts <= 3);
        campaign_json(&result.records)
    };

    // Resuming under the same configuration reuses the TimedOut record
    // verbatim instead of burning the budget again.
    let resume = Journal::load(&journal_path).unwrap();
    let result = run_campaign(&kernels, &archs, &config, 3, None, &resume).unwrap();
    assert_eq!(result.resumed, 1);
    assert_eq!(campaign_json(&result.records), golden);

    // A different step limit changes the fingerprint: nothing resumes.
    let result = run_campaign(&kernels, &archs, &config, 500_000, None, &resume).unwrap();
    assert_eq!(result.resumed, 0);
    assert!(result.all_ok());

    let _ = std::fs::remove_file(&journal_path);
}

/// The table1 binary collects kernel-file parse failures instead of
/// aborting, still prints its report, and exits nonzero.
#[test]
fn table1_binary_survives_a_bad_kernel_file_with_nonzero_exit() {
    let bad = tmp_path("bad.k");
    std::fs::write(&bad, "kernel \"broken {{{").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "parse failure must exit 2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("kernels match their scalar references"),
        "report must still be emitted: {stdout}"
    );
    let _ = std::fs::remove_file(&bad);
}
