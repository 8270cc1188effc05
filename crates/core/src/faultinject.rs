//! Fault-injection campaigns: scheduling on degraded machines.
//!
//! The paper's Appendix A guarantee — communication scheduling completes
//! on any copy-connected machine — is a statement about machine
//! *descriptions*. This module stress-tests the implementation's side of
//! that contract: for an architecture degraded by
//! [`Architecture::with_faults`] (a failed bus, register-file port, copy
//! unit, or whole functional unit), [`schedule_kernel`] must either
//! produce a schedule that passes independent validation on the degraded
//! machine or return a typed [`SchedError`] — never panic and never
//! return a schedule that validation rejects.
//!
//! [`single_fault_campaign`] runs that check for every single-resource
//! fault of a machine across a set of kernels; [`breaking_faults`]
//! pre-computes which faults break the machine outright (copy
//! connectivity lost, or an opcode left without a capable unit) so a
//! campaign can distinguish "rejected because the machine is broken" from
//! "rejected because the search ran out of budget".
//!
//! [`chaos_campaign`] goes further: *seeded multi-fault chaos*. Each run
//! degrades the machine by a pseudo-randomly drawn combination of `1..=k`
//! simultaneous faults and schedules under a hard
//! [`StepBudget`], asserting the watchdog contract —
//! **valid schedule, typed error, or deadline; never a panic, never
//! unbounded work**. The fault draw is driven by a deterministic
//! splitmix64 generator, so a campaign seed reproduces the exact same
//! fault combinations (and, because the scheduler and budget are both
//! deterministic, the exact same verdicts) on every machine.
//!
//! [`schedule_kernel`]: crate::schedule_kernel

use csched_ir::Kernel;
use csched_machine::{Architecture, FaultSpec};

use crate::budget::StepBudget;
use crate::config::SchedulerConfig;
use crate::driver::{not_copy_connected, schedule_kernel_budgeted};
use crate::error::SchedError;
use crate::validate;

/// Outcome of scheduling one kernel on one degraded machine.
#[derive(Clone, Debug)]
pub enum FaultVerdict {
    /// The scheduler produced a schedule and it passed validation on the
    /// degraded machine.
    Scheduled {
        /// The achieved initiation interval (for loop kernels).
        ii: Option<u32>,
        /// Copy operations the schedule needed.
        copies: usize,
    },
    /// The scheduler returned a typed error.
    Rejected(SchedError),
    /// The scheduling call's [`StepBudget`] ran dry before an answer —
    /// the bounded-work half of the chaos contract, kept distinct from
    /// [`FaultVerdict::Rejected`] so campaigns can report how often the
    /// deadline (rather than the search) decided the outcome.
    TimedOut {
        /// Placement attempts charged when the budget tripped.
        spent: u64,
        /// The budget limit.
        limit: u64,
    },
    /// The scheduler accepted the kernel but its schedule failed
    /// independent validation on the degraded machine — a scheduler bug
    /// the campaign surfaces instead of hiding.
    Invalid(String),
}

impl FaultVerdict {
    /// Whether the scheduler held its contract (scheduled-and-valid,
    /// typed rejection, or in-deadline stop).
    pub fn contract_held(&self) -> bool {
        !matches!(self, FaultVerdict::Invalid(_))
    }

    /// Stable one-line rendering (used by the reproducibility digest of
    /// [`render_chaos_campaign`]).
    pub fn render(&self) -> String {
        match self {
            FaultVerdict::Scheduled { ii, copies } => match ii {
                Some(ii) => format!("scheduled II={ii} copies={copies}"),
                None => format!("scheduled copies={copies}"),
            },
            FaultVerdict::Rejected(e) => format!("rejected: {e}"),
            FaultVerdict::TimedOut { spent, limit } => {
                format!("timed out: {spent}/{limit} placement attempts")
            }
            FaultVerdict::Invalid(detail) => format!("INVALID: {detail}"),
        }
    }
}

/// One row of a campaign: a fault set, a kernel, and what happened.
#[derive(Clone, Debug)]
pub struct CampaignEntry {
    /// The injected fault.
    pub fault: FaultSpec,
    /// The fault resolved against the healthy machine's names.
    pub fault_desc: String,
    /// The kernel's name.
    pub kernel: String,
    /// What the scheduler did.
    pub verdict: FaultVerdict,
}

/// Schedules `kernel` on `arch` degraded by `faults` under `budget`,
/// validating any produced schedule against the degraded machine; a
/// tripped or cancelled budget becomes [`FaultVerdict::TimedOut`].
pub fn schedule_degraded(
    arch: &Architecture,
    faults: &[FaultSpec],
    kernel: &Kernel,
    config: SchedulerConfig,
    budget: &StepBudget,
) -> FaultVerdict {
    let degraded = arch.with_faults(faults);
    match schedule_kernel_budgeted(&degraded, kernel, config, budget) {
        Err(SchedError::DeadlineExceeded { spent, limit, .. }) => {
            FaultVerdict::TimedOut { spent, limit }
        }
        Err(SchedError::Cancelled { .. }) => FaultVerdict::TimedOut {
            spent: budget.spent(),
            limit: budget.limit(),
        },
        Ok(schedule) => match validate::validate(&degraded, kernel, &schedule) {
            Ok(()) => FaultVerdict::Scheduled {
                ii: schedule.ii(),
                copies: schedule.num_copies(),
            },
            Err(violations) => FaultVerdict::Invalid(
                violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            ),
        },
        Err(e) => FaultVerdict::Rejected(e),
    }
}

/// Runs every single-resource fault of `arch` against every kernel in
/// `kernels`, returning one [`CampaignEntry`] per (fault, kernel) pair.
pub fn single_fault_campaign(
    arch: &Architecture,
    kernels: &[(&str, &Kernel)],
    config: &SchedulerConfig,
) -> Vec<CampaignEntry> {
    let mut entries = Vec::new();
    for fault in arch.single_resource_faults() {
        let fault_desc = fault.describe(arch);
        for &(name, kernel) in kernels {
            let verdict = schedule_degraded(
                arch,
                &[fault],
                kernel,
                config.clone(),
                &StepBudget::unlimited(),
            );
            entries.push(CampaignEntry {
                fault,
                fault_desc: fault_desc.clone(),
                kernel: name.to_string(),
                verdict,
            });
        }
    }
    entries
}

/// Single-resource faults that make `arch` unschedulable for `kernel`
/// before any search runs: the degraded machine loses Appendix A copy
/// connectivity, or some opcode of the kernel loses every capable unit.
/// Returned with the typed error [`schedule_kernel`](crate::schedule_kernel)
/// would report.
pub fn breaking_faults(arch: &Architecture, kernel: &Kernel) -> Vec<(FaultSpec, SchedError)> {
    let mut broken = Vec::new();
    for fault in arch.single_resource_faults() {
        let degraded = arch.with_faults(&[fault]);
        if !degraded.copy_connectivity().is_copy_connected() {
            broken.push((fault, not_copy_connected(&degraded)));
            continue;
        }
        for op in kernel.op_ids() {
            let opcode = kernel.op(op).opcode();
            if degraded.fus_for(opcode).is_empty() {
                broken.push((fault, SchedError::NoCapableUnit { opcode }));
                break;
            }
        }
    }
    broken
}

/// A deterministic splitmix64 generator — the chaos campaign's only
/// source of randomness, hand-rolled so campaigns reproduce bit-for-bit
/// with no dependency on an external RNG crate.
#[derive(Clone, Debug)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Creates a generator from a campaign seed.
    pub fn new(seed: u64) -> Self {
        ChaosRng { state: seed }
    }

    /// Next raw 64-bit output (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (`bound` must be nonzero). Uses simple
    /// modulo reduction: the bias for the tiny bounds a chaos campaign
    /// uses (tens of faults) is negligible and determinism is what
    /// matters here.
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    /// Uniform draw in `0..bound` over the full `u64` range (`bound`
    /// must be nonzero) — the wide-bound sibling of
    /// [`below`](Self::below), used for byte offsets and millisecond
    /// delays in network fault schedules.
    pub fn below_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound.max(1)
    }

    /// Derives the `index`-th independent substream of `seed`: a fresh
    /// generator whose outputs do not collide with adjacent indices (the
    /// index is run through the splitmix64 finalizer before it perturbs
    /// the seed, so `substream(s, 0)` and `substream(s, 1)` diverge
    /// immediately). This is how per-connection fault schedules and
    /// per-client retry jitter stay deterministic under concurrency:
    /// every connection index owns its own reproducible stream,
    /// whatever order the threads actually run in.
    pub fn substream(seed: u64, index: u64) -> ChaosRng {
        let mut mix = ChaosRng::new(index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed);
        let perturbed = mix.next_u64();
        ChaosRng::new(seed ^ perturbed)
    }
}

/// Parameters for a seeded multi-fault chaos campaign.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for the fault-combination generator. The same seed on the
    /// same machine and kernel set reproduces the campaign exactly.
    pub seed: u64,
    /// Number of fault combinations to draw.
    pub runs: usize,
    /// Faults per run are drawn uniformly from `1..=max_faults`
    /// (clamped to the machine's fault population).
    pub max_faults: usize,
    /// Hard placement-attempt budget for each scheduling call.
    pub step_limit: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xc5c4ed,
            runs: 32,
            max_faults: 3,
            step_limit: 20_000,
        }
    }
}

/// One run of a chaos campaign: a drawn fault combination, a kernel, the
/// verdict, and what the run cost.
#[derive(Clone, Debug)]
pub struct ChaosEntry {
    /// Index of the run within the campaign (fault combinations are
    /// reused across kernels, so several entries share a run index).
    pub run: usize,
    /// The injected fault combination.
    pub faults: Vec<FaultSpec>,
    /// The combination resolved against the healthy machine's names.
    pub fault_descs: Vec<String>,
    /// The kernel's name.
    pub kernel: String,
    /// What the scheduler did.
    pub verdict: FaultVerdict,
    /// Placement attempts the run charged to its budget.
    pub attempts_spent: u64,
    /// The budget limit the run was held to.
    pub step_limit: u64,
}

/// Draws `k` distinct faults from `population` without replacement
/// (partial Fisher–Yates over an index vector).
fn draw_combination(rng: &mut ChaosRng, population: &[FaultSpec], k: usize) -> Vec<FaultSpec> {
    let mut indices: Vec<usize> = (0..population.len()).collect();
    let k = k.min(indices.len());
    let mut picked = Vec::with_capacity(k);
    for slot in 0..k {
        let j = slot + rng.below(indices.len() - slot);
        indices.swap(slot, j);
        picked.push(population[indices[slot]]);
    }
    picked
}

/// Runs a seeded multi-fault chaos campaign: `config.runs` fault
/// combinations, each scheduled for every kernel under a fresh
/// [`StepBudget`] of `config.step_limit` attempts.
///
/// Every entry satisfies the watchdog contract checkable via
/// [`FaultVerdict::contract_held`] *and* the bounded-work guarantee
/// `attempts_spent <= step_limit` (the budget refuses the attempt that
/// would overrun, so it can never be exceeded — not even by one).
pub fn chaos_campaign(
    arch: &Architecture,
    kernels: &[(&str, &Kernel)],
    config: &SchedulerConfig,
    chaos: &ChaosConfig,
) -> Vec<ChaosEntry> {
    let population = arch.single_resource_faults();
    let mut rng = ChaosRng::new(chaos.seed);
    let mut entries = Vec::new();
    if population.is_empty() {
        return entries;
    }
    let max_k = chaos.max_faults.clamp(1, population.len());
    for run in 0..chaos.runs {
        let k = 1 + rng.below(max_k);
        let faults = draw_combination(&mut rng, &population, k);
        let fault_descs: Vec<String> = faults.iter().map(|f| f.describe(arch)).collect();
        for &(name, kernel) in kernels {
            let budget = StepBudget::new(chaos.step_limit);
            let verdict = schedule_degraded(arch, &faults, kernel, config.clone(), &budget);
            entries.push(ChaosEntry {
                run,
                faults: faults.clone(),
                fault_descs: fault_descs.clone(),
                kernel: name.to_string(),
                verdict,
                attempts_spent: budget.spent(),
                step_limit: chaos.step_limit,
            });
        }
    }
    entries
}

/// Renders a chaos campaign as a stable multi-line digest: one line per
/// entry plus a summary tail. Two campaigns with the same seed, machine,
/// kernels, and configuration render byte-for-byte identically — the
/// reproducibility test and the CI smoke run both compare this string.
pub fn render_chaos_campaign(entries: &[ChaosEntry]) -> String {
    let mut out = String::new();
    let mut scheduled = 0usize;
    let mut rejected = 0usize;
    let mut timed_out = 0usize;
    let mut invalid = 0usize;
    for e in entries {
        match e.verdict {
            FaultVerdict::Scheduled { .. } => scheduled += 1,
            FaultVerdict::Rejected(_) => rejected += 1,
            FaultVerdict::TimedOut { .. } => timed_out += 1,
            FaultVerdict::Invalid(_) => invalid += 1,
        }
        out.push_str(&format!(
            "run {:03} kernel {} faults [{}] attempts {}/{}: {}\n",
            e.run,
            e.kernel,
            e.fault_descs.join(", "),
            e.attempts_spent,
            e.step_limit,
            e.verdict.render()
        ));
    }
    out.push_str(&format!(
        "chaos summary: {} entries, {scheduled} scheduled, {rejected} rejected, \
         {timed_out} timed out, {invalid} INVALID\n",
        entries.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use csched_ir::KernelBuilder;
    use csched_machine::{toy, Opcode};

    fn tiny_loop() -> Kernel {
        let mut kb = KernelBuilder::new("tiny");
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let a = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, a.into());
        kb.build().unwrap()
    }

    #[test]
    fn campaign_holds_contract_on_toy_machine() {
        let arch = toy::motivating_example();
        let kernel = tiny_loop();
        let entries =
            single_fault_campaign(&arch, &[("tiny", &kernel)], &SchedulerConfig::default());
        assert!(!entries.is_empty());
        for e in &entries {
            assert!(
                e.verdict.contract_held(),
                "{} on fault {}: {:?}",
                e.kernel,
                e.fault_desc,
                e.verdict
            );
        }
    }

    #[test]
    fn chaos_rng_is_deterministic_and_draws_are_distinct() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let arch = toy::motivating_example();
        let population = arch.single_resource_faults();
        let mut rng = ChaosRng::new(7);
        for _ in 0..50 {
            let k = 1 + rng.below(population.len());
            let combo = draw_combination(&mut rng, &population, k);
            assert_eq!(combo.len(), k);
            for i in 0..combo.len() {
                for j in (i + 1)..combo.len() {
                    assert_ne!(combo[i], combo[j], "duplicate fault in combination");
                }
            }
        }
    }

    #[test]
    fn tiny_chaos_campaign_holds_contract() {
        let arch = toy::motivating_example();
        let kernel = tiny_loop();
        let chaos = ChaosConfig {
            seed: 1,
            runs: 8,
            max_faults: 2,
            step_limit: 5_000,
        };
        let entries = chaos_campaign(
            &arch,
            &[("tiny", &kernel)],
            &SchedulerConfig::default(),
            &chaos,
        );
        assert_eq!(entries.len(), 8);
        for e in &entries {
            assert!(e.verdict.contract_held(), "{:?}", e);
            assert!(e.attempts_spent <= e.step_limit, "{:?}", e);
        }
    }

    #[test]
    fn substreams_are_deterministic_and_adjacent_indices_diverge() {
        for index in 0..8u64 {
            let mut a = ChaosRng::substream(99, index);
            let mut b = ChaosRng::substream(99, index);
            for _ in 0..10 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
        // Adjacent indices must not share a stream (the seed-aliasing
        // trap the gen::Rng fix in PR 5 closed).
        let first: Vec<u64> = (0..16)
            .map(|i| ChaosRng::substream(7, i).next_u64())
            .collect();
        for i in 0..first.len() {
            for j in (i + 1)..first.len() {
                assert_ne!(first[i], first[j], "substreams {i} and {j} collide");
            }
        }
    }

    #[test]
    fn breaking_faults_report_typed_errors() {
        let arch = toy::motivating_example();
        let kernel = tiny_loop();
        for (fault, err) in breaking_faults(&arch, &kernel) {
            assert!(
                matches!(
                    err,
                    SchedError::NotCopyConnected { .. } | SchedError::NoCapableUnit { .. }
                ),
                "fault {} produced {err:?}",
                fault.describe(&arch)
            );
        }
    }
}
