//! Schedule metrics: a per-kernel×architecture summary of schedule
//! quality and resource pressure.
//!
//! Where [`trace`](crate::trace) records the scheduler's *search*
//! (every attempt, including rolled-back subtrees),
//! [`ScheduleMetrics`] summarises the *surviving schedule*: the achieved
//! II against its ResMII/RecMII lower bounds, how many copies each
//! communication cost, and a per-resource occupancy profile read from
//! the validator's replay of the schedule's resource claims
//! ([`validate`](crate::validate)) — issue slots for every operation,
//! one write-stub claim per distinct `(producer, stub)`, one read-stub
//! claim per consumer operand.
//!
//! The summary serialises to JSON ([`ScheduleMetrics::to_json`], used by
//! `csched-eval`'s `table1 --metrics-json`) and renders as a
//! reservation-table/occupancy heatmap
//! ([`ScheduleMetrics::render_heatmap`], surfaced by the `one-cell
//! --heatmap` binary).

use std::fmt::Write as _;

use csched_ir::{DepGraph, Kernel};
use csched_machine::{Architecture, ReadPortId, Resource, RfId, WritePortId};

use crate::driver::{min_latency, res_mii};
use crate::schedule::Schedule;
use crate::trace::json_escape;
use crate::validate::replay_claims;

/// Occupancy profile of one resource over a block's rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceLoad {
    /// Display name of the resource (bus name, or `RF.w0` / `RF.r1` for
    /// ports, or the unit name for issue slots).
    pub name: String,
    /// Claims per row: `profile[c]` is the number of distinct claims on
    /// row `c` (0 = free).
    pub profile: Vec<usize>,
}

impl ResourceLoad {
    /// Total claims over all rows.
    pub fn total(&self) -> usize {
        self.profile.iter().sum()
    }
}

/// Per-block occupancy: one [`ResourceLoad`] per issue slot, bus, and
/// register-file port.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockOccupancy {
    /// Block name from the kernel.
    pub name: String,
    /// Whether this is the software-pipelined loop block (modulo rows).
    pub is_loop: bool,
    /// Number of rows profiled: the II for the loop block, the block
    /// length for straight-line blocks.
    pub rows: i64,
    /// Issue-slot occupancy per functional unit.
    pub fu_issue: Vec<ResourceLoad>,
    /// Bus occupancy.
    pub buses: Vec<ResourceLoad>,
    /// Register-file write-port occupancy.
    pub write_ports: Vec<ResourceLoad>,
    /// Register-file read-port occupancy.
    pub read_ports: Vec<ResourceLoad>,
}

/// Summary of one finished schedule on one architecture, built by
/// [`ScheduleMetrics::compute`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScheduleMetrics {
    /// Kernel name.
    pub kernel: String,
    /// Architecture name.
    pub arch: String,
    /// Achieved loop initiation interval (`None` for loop-free kernels).
    pub ii: Option<u32>,
    /// Recurrence-constrained lower bound on the II.
    pub rec_mii: u32,
    /// Resource-constrained lower bound on the II.
    pub res_mii: u32,
    /// Number of producer→consumer communications in the kernel (between
    /// kernel operations; copy legs are not counted separately).
    pub comms: usize,
    /// Copy operations inserted by the scheduler.
    pub copies: usize,
    /// Histogram of copies per communication: `copies_per_comm[k]`
    /// communications needed exactly `k` copies.
    pub copies_per_comm: Vec<usize>,
    /// Total placement attempts made while scheduling.
    pub attempts: u64,
    /// Placement attempts rejected by the five-step check.
    pub rejections: u64,
    /// Attempts divided by the number of scheduled operations (kernel
    /// operations plus copies).
    pub attempts_per_op: f64,
    /// Number of candidate IIs tried (1 = scheduled at the first II).
    pub ii_tried: u32,
    /// Whether the §4.5 slack-widening backtracking round was needed.
    pub backtracked: bool,
    /// Per-block resource occupancy.
    pub blocks: Vec<BlockOccupancy>,
}

impl ScheduleMetrics {
    /// Computes the metrics for `schedule`, reading its occupancy from
    /// the validator's replay of its resource claims.
    ///
    /// `schedule` is assumed to have passed
    /// [`validate`](crate::validate::validate), so claim failures (which
    /// cannot happen on a valid schedule) are ignored rather than
    /// reported here.
    pub fn compute(arch: &Architecture, kernel: &Kernel, schedule: &Schedule) -> Self {
        let u = schedule.universe();
        let stats = schedule.stats();
        let ii = schedule.ii();
        let rows_of = |block: csched_ir::BlockId| -> i64 {
            if kernel.block(block).is_loop() {
                ii.unwrap_or(1) as i64
            } else {
                schedule.block_len(block)
            }
        };

        // The validator's replay; a valid schedule has no conflicts to
        // report.
        let tables = replay_claims(arch, kernel, schedule, &mut Vec::new());

        // --- per-block occupancy profiles ---
        let blocks: Vec<BlockOccupancy> = kernel
            .block_ids()
            .map(|block| {
                let rows = rows_of(block);
                let table = &tables[block.index()];
                let fu_issue = arch
                    .fu_ids()
                    .map(|f| ResourceLoad {
                        name: arch.fu(f).name().to_string(),
                        profile: table.occupancy_profile(Resource::FuIssue(f), rows),
                    })
                    .collect();
                let buses = arch
                    .bus_ids()
                    .map(|b| ResourceLoad {
                        name: arch.bus(b).name().to_string(),
                        profile: table.occupancy_profile(Resource::Bus(b), rows),
                    })
                    .collect();
                let write_ports = (0..arch.num_write_ports())
                    .map(|i| {
                        let port = WritePortId::from_raw(i);
                        ResourceLoad {
                            name: port_name(arch, arch.write_port_rf(port), i, true),
                            profile: table.occupancy_profile(Resource::WritePort(port), rows),
                        }
                    })
                    .collect();
                let read_ports = (0..arch.num_read_ports())
                    .map(|i| {
                        let port = ReadPortId::from_raw(i);
                        ResourceLoad {
                            name: port_name(arch, arch.read_port_rf(port), i, false),
                            profile: table.occupancy_profile(Resource::ReadPort(port), rows),
                        }
                    })
                    .collect();
                BlockOccupancy {
                    name: kernel.block(block).name().to_string(),
                    is_loop: kernel.block(block).is_loop(),
                    rows,
                    fu_issue,
                    buses,
                    write_ports,
                    read_ports,
                }
            })
            .collect();

        // --- copies per communication ---
        let num_kernel_ops = u.num_kernel_ops();
        let mut copies_per_comm: Vec<usize> = Vec::new();
        let mut comms = 0usize;
        for cid in u.comm_ids() {
            let c = u.comm(cid);
            if c.producer.index() >= num_kernel_ops || c.consumer.index() >= num_kernel_ops {
                continue; // a leg added for a copy, not a kernel communication
            }
            comms += 1;
            let legs = schedule.transport(cid).len();
            let k = legs.saturating_sub(1);
            if copies_per_comm.len() <= k {
                copies_per_comm.resize(k + 1, 0);
            }
            copies_per_comm[k] += 1;
        }

        let rec_mii = if kernel.loop_block().is_some() {
            DepGraph::build(kernel, |opcode| min_latency(arch, opcode)).rec_mii(kernel)
        } else {
            1
        };
        let num_ops = u.num_ops();
        let attempts_per_op = if num_ops > 0 {
            stats.attempts as f64 / num_ops as f64
        } else {
            0.0
        };

        ScheduleMetrics {
            kernel: schedule.kernel_name().to_string(),
            arch: schedule.arch_name().to_string(),
            ii,
            rec_mii,
            res_mii: res_mii(arch, kernel),
            comms,
            copies: schedule.num_copies(),
            copies_per_comm,
            attempts: stats.attempts,
            rejections: stats.rejections,
            attempts_per_op,
            ii_tried: stats.ii_tried,
            backtracked: stats.backtracked,
            blocks,
        }
    }

    /// Renders the metrics as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"kernel\":\"{}\",\"arch\":\"{}\",\"ii\":{},\"rec_mii\":{},\"res_mii\":{}",
            json_escape(&self.kernel),
            json_escape(&self.arch),
            match self.ii {
                Some(ii) => ii.to_string(),
                None => "null".to_string(),
            },
            self.rec_mii,
            self.res_mii,
        );
        let _ = write!(
            s,
            ",\"comms\":{},\"copies\":{},\"copies_per_comm\":{:?}",
            self.comms, self.copies, self.copies_per_comm
        );
        let _ = write!(
            s,
            ",\"attempts\":{},\"rejections\":{},\"attempts_per_op\":{:.3},\"ii_tried\":{},\
             \"backtracked\":{}",
            self.attempts, self.rejections, self.attempts_per_op, self.ii_tried, self.backtracked
        );
        s.push_str(",\"blocks\":[");
        for (i, b) in self.blocks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"is_loop\":{},\"rows\":{}",
                json_escape(&b.name),
                b.is_loop,
                b.rows
            );
            for (key, loads) in [
                ("fu_issue", &b.fu_issue),
                ("buses", &b.buses),
                ("write_ports", &b.write_ports),
                ("read_ports", &b.read_ports),
            ] {
                let _ = write!(s, ",\"{key}\":[");
                for (j, load) in loads.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(
                        s,
                        "{{\"name\":\"{}\",\"profile\":{:?}}}",
                        json_escape(&load.name),
                        load.profile
                    );
                }
                s.push(']');
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Renders the per-block occupancy as a text heatmap: resources as
    /// rows, table rows (cycles) as columns; `.` marks a free row, digits
    /// the claim count, `#` ten or more claims.
    pub fn render_heatmap(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} on {}: II {} (RecMII {}, ResMII {}), {} copies over {} comms",
            self.kernel,
            self.arch,
            match self.ii {
                Some(ii) => ii.to_string(),
                None => "-".to_string(),
            },
            self.rec_mii,
            self.res_mii,
            self.copies,
            self.comms
        );
        for b in &self.blocks {
            let _ = writeln!(
                out,
                "block {} ({}, {} rows):",
                b.name,
                if b.is_loop { "modulo" } else { "linear" },
                b.rows
            );
            let width = b
                .fu_issue
                .iter()
                .chain(&b.buses)
                .chain(&b.write_ports)
                .chain(&b.read_ports)
                .map(|l| l.name.len())
                .max()
                .unwrap_or(4)
                .max(4);
            let mut cycles = String::new();
            for c in 0..b.rows {
                let _ = write!(cycles, "{}", c % 10);
            }
            let _ = writeln!(out, "  {:width$}  {}", "", cycles);
            for (label, loads) in [
                ("issue", &b.fu_issue),
                ("bus", &b.buses),
                ("wport", &b.write_ports),
                ("rport", &b.read_ports),
            ] {
                for load in loads.iter() {
                    let cells: String = load
                        .profile
                        .iter()
                        .map(|&n| match n {
                            0 => '.',
                            1..=9 => char::from(b'0' + n as u8),
                            _ => '#',
                        })
                        .collect();
                    let _ = writeln!(out, "  {:width$}  {}  [{}]", load.name, cells, label);
                }
            }
        }
        out
    }
}

/// `RF.w0` / `RF.r1`-style port label: the owning file's name plus the
/// port's ordinal *within that file*.
fn port_name(arch: &Architecture, rf: RfId, global_index: usize, write: bool) -> String {
    let ordinal = if write {
        (0..global_index)
            .filter(|&i| arch.write_port_rf(WritePortId::from_raw(i)) == rf)
            .count()
    } else {
        (0..global_index)
            .filter(|&i| arch.read_port_rf(ReadPortId::from_raw(i)) == rf)
            .count()
    };
    format!(
        "{}.{}{}",
        arch.rf(rf).name(),
        if write { 'w' } else { 'r' },
        ordinal
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::schedule_kernel;
    use crate::SchedulerConfig;
    use csched_ir::KernelBuilder;
    use csched_machine::{toy, Opcode};

    fn figure4() -> Kernel {
        let mut kb = KernelBuilder::new("fig4");
        let mem = kb.region("mem", true);
        let b = kb.straight_block("b");
        let a = kb.load(b, mem, 0i64.into(), 0i64.into());
        let s2 = kb.push(b, Opcode::IAdd, [1i64.into(), 2i64.into()]);
        let s3 = kb.push(b, Opcode::IAdd, [3i64.into(), 4i64.into()]);
        let s4 = kb.push(b, Opcode::IAdd, [a.into(), s2.into()]);
        let s5 = kb.push(b, Opcode::IAdd, [a.into(), s3.into()]);
        kb.store(b, mem, 10i64.into(), 0i64.into(), s4.into());
        kb.store(b, mem, 11i64.into(), 0i64.into(), s5.into());
        kb.build().unwrap()
    }

    #[test]
    fn metrics_of_the_motivating_example() {
        let arch = toy::motivating_example();
        let kernel = figure4();
        let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let m = ScheduleMetrics::compute(&arch, &kernel, &schedule);
        assert_eq!(m.kernel, "fig4");
        assert_eq!(m.ii, None);
        assert_eq!(m.copies, schedule.num_copies());
        assert!(m.copies >= 1, "the motivating example needs a copy");
        // Every kernel communication lands in exactly one histogram bin.
        assert_eq!(m.copies_per_comm.iter().sum::<usize>(), m.comms);
        // At least one communication (a → s4, paper Figure 13) needed a
        // copy, so the histogram has a non-zero-copies bin.
        assert!(m.copies_per_comm.len() >= 2);
        assert!(m.copies_per_comm[1..].iter().sum::<usize>() >= 1);
        assert!(m.attempts > 0 && m.attempts_per_op > 0.0);
        // One block, linear, with as many rows as the block is long.
        assert_eq!(m.blocks.len(), 1);
        assert!(!m.blocks[0].is_loop);
        assert!(m.blocks[0].rows > 0);
        // Issue-slot occupancy counts every op exactly once per issue row.
        let issued: usize = m.blocks[0].fu_issue.iter().map(|l| l.total()).sum();
        assert_eq!(issued, schedule.universe().num_ops());
        let json = m.to_json();
        assert!(json.starts_with("{\"kernel\":\"fig4\""));
        assert!(json.contains(&format!("\"copies\":{}", m.copies)));
        let heat = m.render_heatmap();
        assert!(heat.contains("block b (linear"));
        assert!(heat.contains("[bus]"));
    }

    #[test]
    fn heatmap_marks_loop_blocks_modulo() {
        let arch = toy::motivating_example();
        let mut kb = KernelBuilder::new("looped");
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        let kernel = kb.build().unwrap();
        let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let m = ScheduleMetrics::compute(&arch, &kernel, &schedule);
        assert_eq!(m.ii, Some(schedule.ii().unwrap()));
        assert!(m.rec_mii >= 1 && m.res_mii >= 1);
        let body = &m.blocks[0];
        assert!(body.is_loop);
        assert_eq!(body.rows, m.ii.unwrap() as i64);
        assert!(m.render_heatmap().contains("(modulo"));
    }

    /// Independent recount of every distinct claim a schedule makes,
    /// without going through [`ResourceTable`]: plain hash sets keyed by
    /// `(resource, row, claim identity)`, mirroring the sharing rules
    /// (identical claims count once; out-of-range rows are dropped, as
    /// the profile does).
    fn recount(
        arch: &Architecture,
        kernel: &Kernel,
        schedule: &Schedule,
    ) -> std::collections::HashMap<(Resource, i64), std::collections::HashSet<RecountClaim>> {
        use std::collections::{HashMap, HashSet};
        let u = schedule.universe();
        let ii = schedule.ii();
        let row_of = |block: csched_ir::BlockId, cycle: i64| -> Option<i64> {
            if kernel.block(block).is_loop() {
                Some(cycle.rem_euclid(ii.unwrap_or(1).max(1) as i64))
            } else {
                (cycle >= 0).then_some(cycle)
            }
        };
        let mut counts: HashMap<(Resource, i64), HashSet<RecountClaim>> = HashMap::new();
        let add = |counts: &mut HashMap<(Resource, i64), HashSet<RecountClaim>>,
                   r: Resource,
                   row: Option<i64>,
                   claim: RecountClaim| {
            if let Some(row) = row {
                counts.entry((r, row)).or_default().insert(claim);
            }
        };
        for op in u.op_ids() {
            let p = schedule.placement(op);
            let block = u.op(op).block;
            let interval = arch
                .fu(p.fu)
                .capability(u.op(op).opcode)
                .map(|c| c.issue_interval)
                .unwrap_or(1);
            for i in 0..interval as i64 {
                add(
                    &mut counts,
                    Resource::FuIssue(p.fu),
                    row_of(block, p.cycle + i),
                    RecountClaim::Op(op.index()),
                );
            }
        }
        let mut placed_writes = HashSet::new();
        let mut placed_reads = HashSet::new();
        for cid in u.comm_ids() {
            for (leg_id, route) in schedule.transport(cid) {
                let leg = u.comm(leg_id);
                let p = schedule.placement(leg.producer);
                let q = schedule.placement(leg.consumer);
                if placed_writes.insert((leg.producer, route.wstub)) {
                    let row = row_of(u.op(leg.producer).block, p.completion());
                    let value = leg.producer.index();
                    let bus = route.wstub.bus.index();
                    add(
                        &mut counts,
                        Resource::FuOutput(route.wstub.fu),
                        row,
                        RecountClaim::Write(value, bus),
                    );
                    add(
                        &mut counts,
                        Resource::Bus(route.wstub.bus),
                        row,
                        RecountClaim::WriteBus(value),
                    );
                    add(
                        &mut counts,
                        Resource::WritePort(route.wstub.port),
                        row,
                        RecountClaim::Write(value, bus),
                    );
                }
                if placed_reads.insert((leg.consumer, leg.slot)) {
                    let row = row_of(u.op(leg.consumer).block, q.cycle);
                    let claim = RecountClaim::Read(leg.consumer.index(), leg.slot);
                    add(
                        &mut counts,
                        Resource::ReadPort(route.rstub.port),
                        row,
                        claim,
                    );
                    add(
                        &mut counts,
                        Resource::Bus(route.rstub.bus),
                        row,
                        RecountClaim::ReadBus(route.rstub.port.index()),
                    );
                    add(
                        &mut counts,
                        Resource::FuInput(route.rstub.input()),
                        row,
                        claim,
                    );
                }
            }
        }
        counts
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum RecountClaim {
        Op(usize),
        Write(usize, usize),
        WriteBus(usize),
        ReadBus(usize),
        Read(usize, usize),
    }

    /// Pins the dense table's `occupancy_profile` (as surfaced through the
    /// metrics replay) against the independent recount, for every
    /// resource and row of both a linear and a modulo schedule.
    fn assert_profiles_match_recount(arch: &Architecture, kernel: &Kernel) {
        let schedule = schedule_kernel(arch, kernel, SchedulerConfig::default()).unwrap();
        let m = ScheduleMetrics::compute(arch, kernel, &schedule);
        let counts = recount(arch, kernel, &schedule);
        let expect = |r: Resource, row: i64| counts.get(&(r, row)).map_or(0, |s| s.len());
        for (bi, block) in m.blocks.iter().enumerate() {
            assert_eq!(bi, 0, "single-block kernels expected here");
            for (i, load) in block.fu_issue.iter().enumerate() {
                let fu = csched_machine::FuId::from_raw(i);
                for (row, &n) in load.profile.iter().enumerate() {
                    assert_eq!(
                        n,
                        expect(Resource::FuIssue(fu), row as i64),
                        "issue {i}@{row}"
                    );
                }
            }
            for (i, load) in block.buses.iter().enumerate() {
                let bus = csched_machine::BusId::from_raw(i);
                for (row, &n) in load.profile.iter().enumerate() {
                    assert_eq!(n, expect(Resource::Bus(bus), row as i64), "bus {i}@{row}");
                }
            }
            for (i, load) in block.write_ports.iter().enumerate() {
                let port = WritePortId::from_raw(i);
                for (row, &n) in load.profile.iter().enumerate() {
                    assert_eq!(
                        n,
                        expect(Resource::WritePort(port), row as i64),
                        "wport {i}@{row}"
                    );
                }
            }
            for (i, load) in block.read_ports.iter().enumerate() {
                let port = ReadPortId::from_raw(i);
                for (row, &n) in load.profile.iter().enumerate() {
                    assert_eq!(
                        n,
                        expect(Resource::ReadPort(port), row as i64),
                        "rport {i}@{row}"
                    );
                }
            }
        }
        // Completeness: the recount holds no claim the profiles missed
        // (every counted (resource, row) is inside the profiled range for
        // the resources the metrics expose; FuInput is not profiled).
        for ((r, row), set) in &counts {
            let within = *row >= 0 && *row < m.blocks[0].rows;
            if !within || matches!(r, Resource::FuInput(_)) {
                continue;
            }
            assert!(!set.is_empty(), "empty recount bucket for {r:?}@{row}");
        }
    }

    #[test]
    fn occupancy_profile_matches_independent_recount_linear() {
        let arch = toy::motivating_example();
        assert_profiles_match_recount(&arch, &figure4());
    }

    #[test]
    fn occupancy_profile_matches_independent_recount_modulo() {
        let arch = toy::motivating_example();
        let mut kb = KernelBuilder::new("looped");
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let x = kb.push(lp, Opcode::IAdd, [i.into(), 2i64.into()]);
        let y = kb.push(lp, Opcode::IAdd, [x.into(), i.into()]);
        let i1 = kb.push(lp, Opcode::IAdd, [y.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        let kernel = kb.build().unwrap();
        assert_profiles_match_recount(&arch, &kernel);
    }
}
