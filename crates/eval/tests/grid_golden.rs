//! Golden byte-identity for the paper grid: every Table 1 kernel ×
//! Imagine organisation cell must schedule to exactly the pinned
//! `(II, copies, attempts)` triple.
//!
//! The scheduler is deterministic, so these triples are part of its
//! observable contract: *any* drift — a reordered candidate list, a
//! changed tie-break, a table that admits a claim it used to reject —
//! shows up here even when the schedule remains valid. The hot-path data
//! structures of DESIGN.md §14 (dense modulo tables, the connectivity
//! cache, the port-run candidate ranking) were each landed against this
//! grid: they are pure reformulations, so the triples survived unchanged.
//!
//! `decision_golden` (csched-core) pins the decision stream behind these
//! triples. Update them only when a change is *meant* to alter scheduling
//! decisions, and say so in the commit message.
//!
//! The full 10×4 grid takes minutes under the debug profile, so plain
//! `cargo test` runs a 3×2 subgrid and the full grid is `#[ignore]`d;
//! CI runs it with `cargo test --release -p csched-eval --test
//! grid_golden -- --include-ignored`.

use csched_core::{schedule_kernel, validate, SchedulerConfig};
use csched_machine::imagine;

/// A pinned `(ii, copies, attempts)` triple.
type Triple = (u32, u64, u64);

/// Pinned triples per kernel, in architecture order central,
/// clustered(2), clustered(4), distributed.
const GOLDEN: &[(&str, [Triple; 4])] = &[
    (
        "DCT",
        [(8, 0, 400), (10, 9, 1276), (11, 20, 3205), (9, 3, 906)],
    ),
    ("FFT", [(3, 0, 84), (4, 3, 214), (5, 8, 371), (3, 1, 113)]),
    (
        "FFT-U4",
        [
            (13, 0, 1413),
            (14, 17, 2287),
            (16, 23, 2164),
            (13, 11, 1836),
        ],
    ),
    (
        "FIR-FP",
        [(19, 0, 2824), (19, 34, 7319), (19, 63, 5781), (23, 1, 2949)],
    ),
    (
        "FIR-INT",
        [(19, 0, 2826), (19, 34, 5554), (19, 64, 6208), (23, 1, 2991)],
    ),
    (
        "Block Warp",
        [(6, 0, 151), (6, 9, 448), (6, 12, 740), (6, 0, 182)],
    ),
    (
        "Block Warp-U2",
        [(12, 0, 496), (12, 15, 980), (12, 23, 1140), (12, 0, 4546)],
    ),
    (
        "Triangle Transform",
        [
            (16, 0, 1383),
            (17, 25, 2476),
            (17, 39, 10513),
            (16, 4, 9456),
        ],
    ),
    (
        "Sort",
        [(7, 0, 323), (10, 11, 1940), (15, 12, 1195), (9, 0, 306)],
    ),
    ("Merge", [(7, 0, 9), (7, 0, 9), (9, 2, 77), (7, 0, 10)]),
];

fn arch_by_index(i: usize) -> csched_machine::Architecture {
    match i {
        0 => imagine::central(),
        1 => imagine::clustered(2),
        2 => imagine::clustered(4),
        _ => imagine::distributed(),
    }
}

fn check_cell(kernel_name: &str, arch_index: usize, want: Triple) {
    let w = csched_kernels::by_name(kernel_name)
        .unwrap_or_else(|| panic!("unknown kernel {kernel_name:?}"));
    let arch = arch_by_index(arch_index);
    let cell = format!("{} on {}", kernel_name, arch.name());
    let s = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default())
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
    validate::validate(&arch, &w.kernel, &s)
        .unwrap_or_else(|e| panic!("{cell}: invalid schedule: {e:?}"));
    let got = (
        s.ii().unwrap_or(0),
        s.num_copies() as u64,
        s.stats().attempts,
    );
    assert_eq!(
        got, want,
        "{cell}: (ii, copies, attempts) drifted from the golden triple"
    );
}

fn golden_for(kernel: &str) -> &'static [Triple; 4] {
    GOLDEN
        .iter()
        .find(|(k, _)| *k == kernel)
        .map(|(_, t)| t)
        .unwrap_or_else(|| panic!("no golden triple for {kernel:?}"))
}

/// Fast subgrid for the debug-profile run: the two extreme organisations
/// on the kernels that stress different paths (FFT: copy on distributed;
/// Merge: recurrence-bound; DCT: transport-heavy when distributed).
#[test]
fn golden_triples_hold_on_the_subgrid() {
    for kernel in ["FFT", "Merge", "DCT"] {
        let triples = golden_for(kernel);
        for arch_index in [0, 3] {
            check_cell(kernel, arch_index, triples[arch_index]);
        }
    }
}

/// Every paper-grid cell. Minutes under the debug profile, so ignored by
/// default; CI runs it with `--release -- --include-ignored`.
#[test]
#[ignore = "full 10x4 grid; CI runs it under the release profile"]
fn golden_triples_hold_on_every_paper_grid_cell() {
    for (kernel, triples) in GOLDEN {
        for (arch_index, want) in triples.iter().enumerate() {
            check_cell(kernel, arch_index, *want);
        }
    }
}
