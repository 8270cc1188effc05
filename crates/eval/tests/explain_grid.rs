//! Grid-wide agreement for the bottleneck attributor: on every Table 1
//! kernel × Imagine organisation cell, `csched_core::explain`'s RecMII
//! and ResMII must equal independent recomputations (the dependence
//! graph's recurrence bound and the public `res_mii` spread-load bound),
//! the named binding must be consistent with how the achieved II
//! relates to those bounds, and `explain::binding_kind` must name it too.
//!
//! The full 10×4 grid schedules 40 cells, which is minutes under the
//! debug profile, so plain `cargo test` runs a 2×2 subgrid and the full
//! grid is `#[ignore]`d; CI runs it under the release profile with
//! `cargo test --release -p csched-eval --test explain_grid --
//! --include-ignored`.

use csched_core::{explain, res_mii, schedule_kernel, Binding, ScheduleMetrics, SchedulerConfig};
use csched_ir::DepGraph;
use csched_machine::{imagine, Architecture, Opcode};

/// Minimum latency any capable unit offers for `opcode` — the same
/// optimistic latency model the scheduler's own RecMII uses.
fn min_latency(arch: &Architecture, opcode: Opcode) -> u32 {
    arch.fus_for(opcode)
        .into_iter()
        .filter_map(|f| arch.fu(f).capability(opcode))
        .map(|c| c.latency)
        .min()
        .unwrap_or(1)
}

fn grid_archs() -> Vec<Architecture> {
    vec![
        imagine::central(),
        imagine::clustered(2),
        imagine::clustered(4),
        imagine::distributed(),
    ]
}

/// Schedules one cell and checks every explain contract on it: bound
/// agreement, binding consistency, ranking order, and counterfactual
/// sanity.
fn check_cell(arch: &Architecture, w: &csched_kernels::Workload) {
    let cell = format!("{} on {}", w.kernel.name(), arch.name());
    let s = schedule_kernel(arch, &w.kernel, SchedulerConfig::default())
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
    let ex = explain::explain(arch, &w.kernel, &s);

    // Bounds agree with independent recomputation.
    let graph = DepGraph::build(&w.kernel, |opc| min_latency(arch, opc));
    let independent_rec = graph.rec_mii(&w.kernel);
    let independent_res = res_mii(arch, &w.kernel);
    assert_eq!(ex.rec_mii, independent_rec, "{cell}: RecMII");
    assert_eq!(ex.res_mii, independent_res, "{cell}: ResMII");
    assert_eq!(ex.ii, s.ii(), "{cell}: achieved II");

    // The serve path's tag, read from the schedule's II and `ii_tried`,
    // names the same binding; it rests on ii_tried == II − MII + 1.
    assert_eq!(
        explain::binding_kind(arch, &w.kernel, &s),
        ex.binding.kind(),
        "{cell}: binding tag"
    );
    let metrics = ScheduleMetrics::compute(arch, &w.kernel, &s);
    if let Some(ii) = metrics.ii {
        assert_eq!(
            metrics.ii_tried,
            ii - metrics.rec_mii.max(metrics.res_mii) + 1,
            "{cell}: ii_tried"
        );
    }

    // The named binding is consistent with how the II relates to the
    // bounds.
    match (&ex.binding, ex.ii) {
        (Binding::Straightline, ii) => {
            assert!(ii.is_none(), "{cell}: straightline binding but II={ii:?}");
        }
        (b, None) => panic!("{cell}: loop-free cell named binding {b:?}"),
        (Binding::Transport { occupancy, .. }, Some(ii)) => {
            assert!(
                ii > ex.rec_mii.max(ex.res_mii),
                "{cell}: transport binding but II {ii} within bounds \
                 (rec {}, res {})",
                ex.rec_mii,
                ex.res_mii
            );
            assert!(*occupancy > 0.0, "{cell}: idle transport resource named");
        }
        (Binding::Resource { load, .. }, Some(ii)) => {
            assert_eq!(ii, ex.res_mii, "{cell}: resource-bound II != ResMII");
            assert!(ex.res_mii >= ex.rec_mii, "{cell}: resource bound under rec");
            // The saturating unit's spread load rounds up to ResMII.
            assert_eq!(load.ceil() as u32, ex.res_mii, "{cell}: load vs ResMII");
        }
        (
            Binding::Recurrence {
                path,
                latency,
                distance,
            },
            Some(ii),
        ) => {
            assert_eq!(ii, ex.rec_mii, "{cell}: recurrence-bound II != RecMII");
            assert!(
                ex.rec_mii > ex.res_mii,
                "{cell}: recurrence bound under res"
            );
            assert!(!path.is_empty(), "{cell}: empty critical cycle");
            assert!(*distance > 0, "{cell}: recurrence with zero distance");
            // The reported cycle itself achieves the bound:
            // ceil(latency / distance) == RecMII.
            assert_eq!(
                latency.div_ceil(*distance),
                ex.rec_mii,
                "{cell}: critical cycle does not achieve RecMII"
            );
        }
        (other, Some(_)) => panic!("{cell}: unexpected binding {other:?}"),
    }

    // The ranking covers at least the issue resources and is sorted
    // most-occupied first.
    assert!(!ex.ranking.is_empty(), "{cell}: empty ranking");
    for pair in ex.ranking.windows(2) {
        assert!(
            pair[0].occupancy >= pair[1].occupancy,
            "{cell}: ranking not sorted"
        );
    }
    // Counterfactual bounds never exceed their baseline (adding
    // hardware cannot raise a lower bound).
    for c in &ex.counterfactuals {
        assert!(
            c.after <= c.before,
            "{cell}: counterfactual {:?} raised {} from {} to {}",
            c.change,
            c.metric,
            c.before,
            c.after
        );
    }
}

/// Fast subgrid for the debug-profile test run: three kernels that bind
/// differently (FFT saturates a unit, Merge carries a recurrence, DCT
/// goes transport-bound when distributed) on the two extreme
/// organisations.
#[test]
fn explain_agrees_on_the_subgrid() {
    for name in ["FFT", "Merge", "DCT"] {
        let w = csched_kernels::by_name(name).unwrap();
        for arch in [imagine::central(), imagine::distributed()] {
            check_cell(&arch, &w);
        }
    }
}

/// Every paper-grid cell. Minutes under the debug profile, so ignored
/// by default; CI runs it with `--release -- --include-ignored`.
#[test]
#[ignore = "full 10x4 grid; CI runs it under the release profile"]
fn explain_agrees_on_every_paper_grid_cell() {
    for w in csched_kernels::all() {
        for arch in grid_archs() {
            check_cell(&arch, &w);
        }
    }
}
