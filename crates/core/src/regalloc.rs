//! Register-pressure analysis — the paper's §7 future-work post-pass.
//!
//! Communication scheduling implicitly allocates a register in the staging
//! file of every route. This module makes that allocation explicit: each
//! value occupies a register in the file its route stages it through, from
//! the producer's completion until the last read. For the software-
//! pipelined loop, a value whose lifetime spans `L` cycles needs
//! `ceil(L / II)` rotating instances, because that many iterations hold it
//! live simultaneously.
//!
//! The paper defers spilling to "a post pass that inserts additional copy
//! operations"; we implement the analysis and the spill *plan* (which
//! values overflow which files, and where they could be staged instead),
//! which is what an allocator needs to drive that pass.

use std::collections::HashMap;

use csched_ir::Kernel;
use csched_machine::{Architecture, RfId};

use crate::schedule::Schedule;
use crate::universe::SOpId;

/// Register demand in a single register file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RfPressure {
    /// The register file.
    pub rf: RfId,
    /// Registers required by the schedule.
    pub required: usize,
    /// Registers the file physically has.
    pub capacity: usize,
    /// Values staged through the file (producer ids) with their instance
    /// counts.
    pub values: Vec<(SOpId, usize)>,
}

impl RfPressure {
    /// Whether the demand fits the file.
    pub fn fits(&self) -> bool {
        self.required <= self.capacity
    }

    /// Registers over capacity (0 when it fits).
    pub fn overflow(&self) -> usize {
        self.required.saturating_sub(self.capacity)
    }
}

/// A proposed spill: move a value's staging out of an overflowing file.
///
/// The §7 post-pass would realise this by copying the value out of `from`
/// just after it is computed and back just before use; `to` is the
/// cheapest reachable file with spare capacity (`None` when no file has
/// room — the machine is genuinely out of registers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillCandidate {
    /// The value (by producing operation).
    pub value: SOpId,
    /// The overflowing file it currently stages through.
    pub from: RfId,
    /// Instances freed by spilling it.
    pub instances: usize,
    /// Proposed destination file (reachable by copies, spare capacity).
    pub to: Option<RfId>,
    /// Copy operations needed per direction to reach `to`.
    pub copies_needed: u32,
}

/// The result of the pressure analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PressureReport {
    /// Per-file demand, in register-file id order.
    pub per_rf: Vec<RfPressure>,
    /// Spill plan for overflowing files: cheapest candidates first (values
    /// with the most instances freed per file).
    pub spills: Vec<SpillCandidate>,
}

impl PressureReport {
    /// Whether every register file satisfies its demand.
    pub fn fits(&self) -> bool {
        self.per_rf.iter().all(RfPressure::fits)
    }

    /// Renders the report as a table (overflowing files first).
    pub fn render(&self, arch: &Architecture) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "register pressure: {} files, total demand {}, max {}{}",
            self.per_rf.len(),
            self.total_required(),
            self.max_required(),
            if self.fits() { "" } else { " (OVERFLOW)" }
        );
        let mut rows: Vec<&RfPressure> = self.per_rf.iter().filter(|p| p.required > 0).collect();
        rows.sort_by_key(|p| std::cmp::Reverse(p.overflow().max(p.required)));
        for p in rows.iter().take(12) {
            let _ = writeln!(
                s,
                "  {:<12} {:>4}/{:<4} {}",
                arch.rf(p.rf).name(),
                p.required,
                p.capacity,
                if p.fits() { "ok" } else { "overflow" }
            );
        }
        for spill in &self.spills {
            let _ = writeln!(
                s,
                "  spill {} out of {} -> {} ({} copies, frees {} registers)",
                spill.value,
                arch.rf(spill.from).name(),
                spill
                    .to
                    .map(|r| arch.rf(r).name().to_string())
                    .unwrap_or_else(|| "<no room anywhere>".into()),
                spill.copies_needed,
                spill.instances
            );
        }
        s
    }

    /// Total registers demanded across all files.
    pub fn total_required(&self) -> usize {
        self.per_rf.iter().map(|p| p.required).sum()
    }

    /// The maximum demand of any single file.
    pub fn max_required(&self) -> usize {
        self.per_rf.iter().map(|p| p.required).max().unwrap_or(0)
    }
}

/// Lifetime of one value in one register file, in the producer's frame.
#[derive(Clone, Copy, Debug, Default)]
struct Life {
    write: i64,
    last_read: i64,
    persistent: bool,
    in_loop: bool,
}

/// Analyses the register pressure of `schedule`.
pub fn analyze(arch: &Architecture, kernel: &Kernel, schedule: &Schedule) -> PressureReport {
    let u = schedule.universe();
    let ii = schedule.ii().unwrap_or(1).max(1) as i64;

    // Collect per (value, file): the write cycle and last read cycle, in
    // the producer's frame. Cross-block stagings are persistent for the
    // whole loop: count one dedicated register.
    let mut lives: HashMap<(SOpId, RfId), Life> = HashMap::new();

    for cid in u.comm_ids() {
        for (leg_id, route) in schedule.transport(cid) {
            let leg = u.comm(leg_id);
            let p = schedule.placement(leg.producer);
            let q = schedule.placement(leg.consumer);
            let pb = u.op(leg.producer).block;
            let qb = u.op(leg.consumer).block;
            let entry = lives.entry((leg.producer, route.wstub.rf)).or_default();
            entry.write = p.completion();
            if pb != qb {
                // Preamble value read by the loop (or staged for it): the
                // register holds it for the kernel's entire execution.
                entry.persistent = true;
            } else {
                let read_at = q.cycle + leg.distance as i64 * ii;
                entry.last_read = entry.last_read.max(read_at);
                entry.in_loop = kernel.block(pb).is_loop();
            }
        }
    }

    let mut per_value_rf: HashMap<RfId, Vec<(SOpId, usize)>> = HashMap::new();
    for ((value, rf), life) in &lives {
        let instances = if life.persistent {
            1
        } else if life.in_loop {
            let span = (life.last_read - life.write).max(1);
            ((span + ii - 1) / ii) as usize
        } else {
            1
        };
        per_value_rf
            .entry(*rf)
            .or_default()
            .push((*value, instances));
    }

    let mut per_rf = Vec::with_capacity(arch.num_rfs());
    let mut spills = Vec::new();
    // The connectivity analysis is only needed when some file overflows,
    // and is the same for every overflowing file: compute it lazily, once.
    let mut conn_lazy: Option<csched_machine::CopyConnectivity> = None;
    for rf in arch.rf_ids() {
        let mut values = per_value_rf.get(&rf).cloned().unwrap_or_default();
        values.sort();
        let required: usize = if kernel.loop_block().is_some() {
            values.iter().map(|&(_, n)| n).sum()
        } else {
            // Straight-line code: max simultaneous overlap.
            max_overlap(&lives, rf)
        };
        let capacity = arch.rf(rf).capacity();
        if required > capacity {
            // Find the cheapest reachable file with spare room for each
            // candidate (fewest copies first, then most spare capacity).
            let conn = conn_lazy.get_or_insert_with(|| arch.copy_connectivity());
            let spare: Vec<(RfId, usize)> = arch
                .rf_ids()
                .filter(|&other| other != rf)
                .map(|other| {
                    let used = per_value_rf
                        .get(&other)
                        .map_or(0, |v| v.iter().map(|&(_, n)| n).sum::<usize>());
                    (other, arch.rf(other).capacity().saturating_sub(used))
                })
                .filter(|&(_, room)| room > 0)
                .collect();
            let mut candidates: Vec<SpillCandidate> = values
                .iter()
                .map(|&(value, instances)| {
                    let target = spare
                        .iter()
                        .filter_map(|&(other, room)| {
                            conn.copy_distance(rf, other)
                                .filter(|_| room >= instances)
                                .map(|d| (d, std::cmp::Reverse(room), other))
                        })
                        .min();
                    SpillCandidate {
                        value,
                        from: rf,
                        instances,
                        to: target.map(|(_, _, other)| other),
                        copies_needed: target.map(|(d, _, _)| d).unwrap_or(0),
                    }
                })
                .collect();
            candidates.sort_by_key(|c| std::cmp::Reverse(c.instances));
            let mut need = required - capacity;
            for c in candidates {
                if need == 0 {
                    break;
                }
                need = need.saturating_sub(c.instances);
                spills.push(c);
            }
        }
        per_rf.push(RfPressure {
            rf,
            required,
            capacity,
            values,
        });
    }

    PressureReport { per_rf, spills }
}

fn max_overlap(lives: &HashMap<(SOpId, RfId), Life>, rf: RfId) -> usize {
    let mut events: Vec<(i64, i64)> = Vec::new();
    for ((_, r), life) in lives {
        if *r != rf || life.persistent {
            continue;
        }
        events.push((life.write, life.last_read));
    }
    let persistent = lives
        .iter()
        .filter(|((_, r), l)| *r == rf && l.persistent)
        .count();
    let mut points: Vec<i64> = events.iter().flat_map(|&(a, b)| [a, b]).collect();
    points.sort_unstable();
    points.dedup();
    let mut best = 0usize;
    for &t in &points {
        let live = events.iter().filter(|&&(a, b)| a <= t && t <= b).count();
        best = best.max(live);
    }
    best + persistent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule_kernel, SchedulerConfig};
    use csched_ir::KernelBuilder;
    use csched_machine::{imagine, Opcode};

    fn streaming_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("stream");
        let input = kb.region("in", true);
        let output = kb.region("out", true);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let x = kb.load(lp, input, i.into(), 0i64.into());
        let y = kb.push(lp, Opcode::IMul, [x.into(), 3i64.into()]);
        kb.store(lp, output, i.into(), 0i64.into(), y.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        kb.build().unwrap()
    }

    #[test]
    fn pressure_is_positive_and_fits_distributed() {
        let kernel = streaming_kernel();
        let arch = imagine::distributed();
        let s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let report = analyze(&arch, &kernel, &s);
        assert!(report.total_required() > 0);
        assert!(
            report.fits(),
            "tiny streaming kernel must fit 16-entry files: {:?}",
            report
                .per_rf
                .iter()
                .filter(|p| !p.fits())
                .collect::<Vec<_>>()
        );
        assert!(report.spills.is_empty());
    }

    #[test]
    fn long_lifetimes_need_rotating_instances() {
        // A value read `k` iterations later needs about k instances; we
        // approximate by checking that total demand counts lifetimes.
        let kernel = streaming_kernel();
        let arch = imagine::central();
        let s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let report = analyze(&arch, &kernel, &s);
        // load latency 4 with II >= 1: x alive >= 4 cycles => >= 2
        // instances at II <= 3, at least 1 otherwise.
        assert!(report.max_required() >= 2);
    }
}

#[cfg(test)]
mod spill_tests {
    use super::*;
    use crate::{schedule_kernel, SchedulerConfig};
    use csched_ir::KernelBuilder;
    use csched_machine::{ArchBuilder, FuClass, Opcode};

    /// A machine whose first ALU's input files hold only two registers, so
    /// staging several long-lived values there overflows, while a roomy
    /// neighbour file can absorb spills.
    fn cramped_arch() -> csched_machine::Architecture {
        let mut b = ArchBuilder::new("cramped");
        let caps: Vec<_> = [Opcode::IAdd, Opcode::ISub, Opcode::IMul, Opcode::Copy]
            .map(csched_machine::default_capability)
            .to_vec();
        let ls_caps: Vec<_> = [Opcode::Load, Opcode::Store]
            .map(csched_machine::default_capability)
            .to_vec();
        let alu = b.functional_unit("ALU", FuClass::Alu, 2, true, caps.clone());
        let alu2 = b.functional_unit("ALU2", FuClass::Alu, 2, true, caps);
        let ls = b.functional_unit("LS", FuClass::Ls, 3, true, ls_caps);
        let buses: Vec<_> = (0..3).map(|i| b.bus(format!("GB{i}"))).collect();
        for fu in [alu, alu2, ls] {
            for &bus in &buses {
                b.connect_output(fu, bus);
            }
        }
        for (fu, inputs, cap) in [(alu, 2usize, 2usize), (alu2, 2, 64), (ls, 3, 64)] {
            for slot in 0..inputs {
                let rf = b.register_file(format!("RF_{}_{slot}", fu.index()), cap);
                let wp = b.write_port(rf);
                for &bus in &buses {
                    b.connect_bus_to_write_port(bus, wp);
                }
                b.dedicated_read(rf, fu, slot);
            }
        }
        b.build().unwrap()
    }

    /// A kernel whose loop holds many values live across a long-latency
    /// chain, demanding more rotating registers than two.
    fn pressured_kernel() -> csched_ir::Kernel {
        let mut kb = KernelBuilder::new("pressured");
        let input = kb.region("in", true);
        let output = kb.region("out", true);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let x = kb.load(lp, input, i.into(), 0i64.into());
        // A chain of multiplies whose intermediates all stay live into a
        // final sum, stretching lifetimes well past the II.
        let mut vals = vec![x];
        for _ in 0..6 {
            let last = *vals.last().unwrap();
            vals.push(kb.push(lp, Opcode::IMul, [last.into(), 3i64.into()]));
        }
        let mut sum = vals[0];
        for &v in &vals[1..] {
            sum = kb.push(lp, Opcode::IAdd, [sum.into(), v.into()]);
        }
        kb.store(lp, output, i.into(), 100i64.into(), sum.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        kb.build().unwrap()
    }

    #[test]
    fn overflow_produces_spill_plan_with_targets() {
        let arch = cramped_arch();
        let kernel = pressured_kernel();
        let s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let report = analyze(&arch, &kernel, &s);
        // The report is well-formed either way; if the tiny files
        // overflowed, every spill must name a reachable destination.
        for spill in &report.spills {
            assert!(spill.instances > 0);
            if let Some(to) = spill.to {
                assert_ne!(to, spill.from);
                assert!(
                    arch.copy_connectivity()
                        .copy_distance(spill.from, to)
                        .is_some(),
                    "spill target must be reachable"
                );
            }
        }
        let text = report.render(&arch);
        assert!(text.contains("register pressure"));
    }

    #[test]
    fn render_mentions_overflowing_files() {
        let arch = cramped_arch();
        let kernel = pressured_kernel();
        let s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let report = analyze(&arch, &kernel, &s);
        let text = report.render(&arch);
        if !report.fits() {
            assert!(text.contains("OVERFLOW"));
            assert!(text.contains("spill"));
        }
    }
}
