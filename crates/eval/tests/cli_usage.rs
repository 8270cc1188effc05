//! Every csched-eval binary turns bad input (an unknown architecture or
//! kernel, a value that is not a number, an argument it does not take)
//! into exit status 2 with one stderr line, never a panic; a cell that
//! fails to schedule is exit 1.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

#[test]
fn bad_input_exits_2_with_one_stderr_line() {
    let cases: [(&str, &[&str]); 13] = [
        (env!("CARGO_BIN_EXE_ablation"), &["bogus"]),
        (env!("CARGO_BIN_EXE_chaos"), &["--arch", "bogus"]),
        (
            env!("CARGO_BIN_EXE_dash"),
            &["--addr", "127.0.0.1:1", "--frames", "abc"],
        ),
        (env!("CARGO_BIN_EXE_explore"), &["--jobs", "abc"]),
        (env!("CARGO_BIN_EXE_one-cell"), &["FFT", "bogus"]),
        (env!("CARGO_BIN_EXE_one-cell"), &["NOPE", "central"]),
        (env!("CARGO_BIN_EXE_oracle"), &["--cell", "FFT", "bogus"]),
        (env!("CARGO_BIN_EXE_paper-report"), &["--step-limit", "abc"]),
        (env!("CARGO_BIN_EXE_scale-perf"), &["--json"]),
        (
            env!("CARGO_BIN_EXE_serve"),
            &[
                "--client",
                "127.0.0.1:1",
                "--kernel",
                "FFT",
                "--arch",
                "bogus",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_serve"),
            &["--addr", "127.0.0.1:0", "--jobs", "abc"],
        ),
        (env!("CARGO_BIN_EXE_soak"), &["--seed", "abc"]),
        (env!("CARGO_BIN_EXE_table1"), &["--jobs", "abc"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn one_cell_exits_1_when_the_cell_fails_to_schedule() {
    // The motivating-example machine has no shifter, so FFT cannot run.
    let out = run(env!("CARGO_BIN_EXE_one-cell"), &["FFT", "toy"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("scheduling FFT"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
