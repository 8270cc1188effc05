//! Chaos harness watchdog tests: seeded multi-fault campaigns must hold
//! the robustness contract — every entry is a valid schedule, a typed
//! rejection, or an in-deadline stop; no entry ever spends more than its
//! placement-attempt budget; and the same seed reproduces the campaign
//! byte-for-byte.

use csched_core::faultinject::{
    chaos_campaign, render_chaos_campaign, schedule_degraded, ChaosConfig, FaultVerdict,
};
use csched_core::{SchedulerConfig, StepBudget};
use csched_ir::{Kernel, KernelBuilder};
use csched_machine::{imagine, toy, Opcode};

/// out[i] = (in[i] * 3 + in[i+1]) — enough communications to make the
/// scheduler work for its answer on a degraded machine.
fn streaming_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("stream");
    let input = kb.region("in", true);
    let output = kb.region("out", true);
    let lp = kb.loop_block("body");
    let i = kb.loop_var(lp, 0i64.into());
    let a = kb.load(lp, input, i.into(), 0i64.into());
    let b = kb.load(lp, input, i.into(), 8i64.into());
    let m = kb.push(lp, Opcode::IMul, [a.into(), 3i64.into()]);
    let s = kb.push(lp, Opcode::IAdd, [m.into(), b.into()]);
    kb.store(lp, output, i.into(), 0i64.into(), s.into());
    let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
    kb.set_update(i, i1.into());
    kb.build().unwrap()
}

fn tiny_loop() -> Kernel {
    let mut kb = KernelBuilder::new("tiny");
    let lp = kb.loop_block("body");
    let i = kb.loop_var(lp, 0i64.into());
    let a = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
    kb.set_update(i, a.into());
    kb.build().unwrap()
}

/// Watchdog: across a multi-fault campaign on two machines, every entry
/// holds the contract and never overruns its budget — the budget refuses
/// the attempt that would overrun, so `spent <= limit` exactly.
#[test]
fn chaos_campaign_never_panics_and_never_overruns() {
    let stream = streaming_kernel();
    let tiny = tiny_loop();
    let kernels: Vec<(&str, &Kernel)> = vec![("stream", &stream), ("tiny", &tiny)];
    let chaos = ChaosConfig {
        seed: 0xdecade,
        runs: 24,
        max_faults: 3,
        step_limit: 10_000,
    };
    for arch in [toy::motivating_example(), imagine::distributed()] {
        let entries = chaos_campaign(&arch, &kernels, &SchedulerConfig::default(), &chaos);
        assert_eq!(entries.len(), chaos.runs * kernels.len());
        for e in &entries {
            assert!(
                e.verdict.contract_held(),
                "contract violated: kernel {} faults {:?}: {:?}",
                e.kernel,
                e.fault_descs,
                e.verdict
            );
            assert!(
                e.attempts_spent <= e.step_limit,
                "budget overrun: spent {} of {}",
                e.attempts_spent,
                e.step_limit
            );
            if let FaultVerdict::TimedOut { spent, limit } = e.verdict {
                assert_eq!(limit, e.step_limit);
                assert!(spent <= limit);
            }
        }
    }
}

/// Reproducibility: the same seed renders the identical campaign digest,
/// byte for byte, across two independent runs.
#[test]
fn seeded_chaos_campaign_is_byte_for_byte_reproducible() {
    let arch = imagine::distributed();
    let stream = streaming_kernel();
    let kernels: Vec<(&str, &Kernel)> = vec![("stream", &stream)];
    let chaos = ChaosConfig {
        seed: 99,
        runs: 16,
        max_faults: 4,
        step_limit: 8_000,
    };
    let first = render_chaos_campaign(&chaos_campaign(
        &arch,
        &kernels,
        &SchedulerConfig::default(),
        &chaos,
    ));
    let second = render_chaos_campaign(&chaos_campaign(
        &arch,
        &kernels,
        &SchedulerConfig::default(),
        &chaos,
    ));
    assert!(!first.is_empty());
    assert_eq!(first, second, "same seed must reproduce the same campaign");
}

/// A starvation-level budget forces a typed in-deadline stop rather than
/// a panic or an unbounded search, and reports exact spend.
#[test]
fn starved_budget_times_out_with_exact_spend() {
    let arch = imagine::distributed();
    let kernel = streaming_kernel();
    let budget = StepBudget::new(3);
    let verdict = schedule_degraded(&arch, &[], &kernel, SchedulerConfig::default(), &budget);
    match verdict {
        FaultVerdict::TimedOut { spent, limit } => {
            assert_eq!(limit, 3);
            assert_eq!(spent, 3, "budget must stop at exactly its limit");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert_eq!(budget.spent(), 3);
}
