//! The output of the scheduler: operation placements and communication
//! routes.

use std::collections::HashMap;
use std::fmt;

use csched_ir::{BlockId, Kernel};
use csched_machine::{Architecture, FuId, ReadStub, WriteStub};

use crate::universe::{CommId, SOpId, Universe};

/// A completed route: the write stub and read stub that carry one
/// communication (paper Fig 12). Copies appear as separate scheduled
/// operations whose own communications have their own routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Interconnect writing the value to `wstub.rf` on the producer's
    /// completion cycle.
    pub wstub: WriteStub,
    /// Interconnect reading the value from `rstub.rf` (same register file)
    /// on the consumer's issue cycle.
    pub rstub: ReadStub,
}

/// The final disposition of one communication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommDisposition {
    /// Routed directly through one register file.
    Direct(Route),
    /// Split by an inserted copy operation (paper Fig 22); the copy's own
    /// communications carry the value.
    Via(SOpId),
}

/// Placement of one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledOp {
    /// The functional unit executing the operation.
    pub fu: FuId,
    /// Issue cycle, local to the operation's block (for the loop block, a
    /// flat software-pipeline cycle; resources repeat every II).
    pub cycle: i64,
    /// Latency on the chosen unit; the result is written on
    /// `cycle + latency - 1`.
    pub latency: u32,
}

impl ScheduledOp {
    /// The cycle the operation completes (write stubs are allocated here).
    pub fn completion(&self) -> i64 {
        self.cycle + self.latency as i64 - 1
    }
}

/// Counters describing the scheduling run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Placement attempts (operation × fu × cycle trials).
    pub attempts: u64,
    /// Placements rejected by communication scheduling.
    pub rejections: u64,
    /// Copy operations inserted (surviving in the final schedule).
    pub copies_inserted: u64,
    /// How far above the MII the achieved II lies, counted from 1:
    /// II − MII + 1 (1 at the MII, and for a loop-free kernel). Not the
    /// number of IIs tried: the driver's II step grows after repeated
    /// failures, so Sort on clustered4 reads 9 after trying 7 IIs (7–11,
    /// 13 and 15).
    pub ii_tried: u32,
    /// Failed cross-block copy insertions (the precondition of the §4.5
    /// special case).
    pub cross_block_copy_failures: u64,
    /// Whether the §4.5 cross-block backtracking case was ever triggered
    /// (the driver had to widen the writer-side copy range and retry).
    pub backtracked: bool,
}

/// A complete schedule for one kernel on one architecture.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub(crate) arch_name: String,
    pub(crate) kernel_name: String,
    pub(crate) universe: Universe,
    pub(crate) placements: Vec<ScheduledOp>,
    pub(crate) dispositions: Vec<CommDisposition>,
    pub(crate) block_len: Vec<i64>,
    pub(crate) ii: Option<u32>,
    pub(crate) stats: SchedStats,
}

impl Schedule {
    /// Name of the architecture scheduled for.
    pub fn arch_name(&self) -> &str {
        &self.arch_name
    }

    /// Name of the kernel scheduled.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// The scheduling universe (kernel operations plus inserted copies and
    /// all communications).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Placement of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn placement(&self, op: SOpId) -> ScheduledOp {
        self.placements[op.index()]
    }

    /// Disposition of `comm`.
    ///
    /// # Panics
    ///
    /// Panics if `comm` is out of range.
    pub fn disposition(&self, comm: CommId) -> CommDisposition {
        self.dispositions[comm.index()]
    }

    /// The loop's initiation interval, if the kernel has a loop block.
    /// This is the paper's per-kernel performance metric ("the schedule
    /// length of that loop").
    pub fn ii(&self) -> Option<u32> {
        self.ii
    }

    /// Schedule length of `block` in cycles (for the loop block: the flat
    /// length of one iteration's schedule, ≥ II).
    pub fn block_len(&self, block: BlockId) -> i64 {
        self.block_len[block.index()]
    }

    /// Shifts an operation's issue cycle without touching its routes —
    /// **test support only**: produces an inconsistent schedule for
    /// exercising the validator's and simulator's error paths.
    #[doc(hidden)]
    pub fn corrupt_placement_for_tests(&mut self, op: SOpId, delta: i64) {
        self.placements[op.index()].cycle += delta;
    }

    /// Redirects a directly-routed communication's read stub into register
    /// file `rf` without touching anything else — **test support only**:
    /// when `rf` differs from the route's meeting file, validation must
    /// report the route as malformed.
    ///
    /// Returns `false` (schedule untouched) if `comm` is not `Direct`.
    #[doc(hidden)]
    pub fn corrupt_route_for_tests(&mut self, comm: CommId, rf: csched_machine::RfId) -> bool {
        match &mut self.dispositions[comm.index()] {
            CommDisposition::Direct(route) => {
                route.rstub.rf = rf;
                true
            }
            CommDisposition::Via(_) => false,
        }
    }

    /// Swaps the input slots bound to `op`'s first two operands without
    /// touching its communications or routes — **test support only**:
    /// when the opcode is not commutative, validation must report the
    /// binding as illegal.
    ///
    /// Returns `false` (schedule untouched) if `op` has fewer than two
    /// operands.
    #[doc(hidden)]
    pub fn swap_binding_for_tests(&mut self, op: SOpId) -> bool {
        let sop = &mut self.universe.ops[op.index()];
        if sop.num_operands < 2 {
            return false;
        }
        sop.slots.swap(0, 1);
        true
    }

    /// Forces two directly-routed communications with distinct producers
    /// onto the *same* write stub (same bus, port, and file) on the same
    /// resource-table cycle — **test support only**: validation must
    /// report the double-booked interconnect as a resource conflict.
    ///
    /// Returns the clobbered communication, or `None` if the schedule has
    /// no pair of direct routes whose producers complete on the same
    /// table cycle (same block; modulo II in the loop block).
    #[doc(hidden)]
    pub fn double_book_bus_for_tests(&mut self, kernel: &Kernel) -> Option<CommId> {
        let ii = self.ii.unwrap_or(1).max(1) as i64;
        let direct: Vec<(usize, Route)> = self
            .dispositions
            .iter()
            .enumerate()
            .filter_map(|(i, d)| match d {
                CommDisposition::Direct(r) => Some((i, *r)),
                CommDisposition::Via(_) => None,
            })
            .collect();
        for (n, &(ia, ra)) in direct.iter().enumerate() {
            let pa = self.universe.comm(CommId::from_raw(ia)).producer;
            for &(ib, rb) in &direct[n + 1..] {
                let pb = self.universe.comm(CommId::from_raw(ib)).producer;
                if pa == pb || ra.wstub == rb.wstub {
                    continue;
                }
                let (ba, bb) = (self.universe.op(pa).block, self.universe.op(pb).block);
                if ba != bb {
                    continue;
                }
                let ca = self.placements[pa.index()].completion();
                let cb = self.placements[pb.index()].completion();
                let same_cycle = if kernel.block(ba).is_loop() {
                    (ca - cb) % ii == 0
                } else {
                    ca == cb
                };
                if !same_cycle {
                    continue;
                }
                if let CommDisposition::Direct(route) = &mut self.dispositions[ib] {
                    route.wstub = ra.wstub;
                }
                return Some(CommId::from_raw(ib));
            }
        }
        None
    }

    /// Run statistics.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Number of copy operations in the final schedule.
    pub fn num_copies(&self) -> usize {
        self.universe.num_ops() - self.universe.num_kernel_ops()
    }

    /// Resolves the transport of `comm` to its final leg routes, flattening
    /// any copy chain: returns `(comm, route)` pairs in producer-to-consumer
    /// order.
    pub fn transport(&self, comm: CommId) -> Vec<(CommId, Route)> {
        let mut legs = Vec::new();
        self.collect_transport(comm, &mut legs);
        legs
    }

    fn collect_transport(&self, comm: CommId, legs: &mut Vec<(CommId, Route)>) {
        match self.disposition(comm) {
            CommDisposition::Direct(route) => legs.push((comm, route)),
            CommDisposition::Via(copy) => {
                // comm was split into (producer -> copy) and (copy -> consumer).
                let original = self.universe.comm(comm);
                // The engine splits a Via communication into exactly these
                // two legs; their absence means the schedule was built by
                // hand or corrupted. Resolve to no legs (which validation
                // reports) rather than panic.
                let first = self
                    .universe
                    .comms_to_operand(copy, 0)
                    .iter()
                    .copied()
                    .find(|&c| self.universe.comm(c).producer == original.producer);
                let second = self.universe.comms_from(copy).iter().copied().find(|&c| {
                    let k = self.universe.comm(c);
                    k.consumer == original.consumer
                        && k.slot == original.slot
                        && k.distance == original.distance
                });
                let (Some(first), Some(second)) = (first, second) else {
                    debug_assert!(false, "split comms missing for {comm}");
                    return;
                };
                self.collect_transport(first, legs);
                self.collect_transport(second, legs);
            }
        }
    }

    /// Renders the schedule as a cycle × functional-unit grid in the style
    /// of the paper's Figure 7, one grid per block.
    pub fn render(&self, arch: &Architecture, kernel: &Kernel) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for block in kernel.block_ids() {
            let _ = writeln!(
                out,
                "block {} ({}){}:",
                block,
                kernel.block(block).name(),
                match (kernel.block(block).is_loop(), self.ii) {
                    (true, Some(ii)) => format!(" II={ii}"),
                    _ => String::new(),
                }
            );
            // Collect placements for this block.
            let mut grid: HashMap<(i64, usize), String> = HashMap::new();
            let mut max_cycle = 0i64;
            for op in self.universe.op_ids() {
                if self.universe.op(op).block != block {
                    continue;
                }
                let p = self.placement(op);
                max_cycle = max_cycle.max(p.cycle);
                let label = match self.universe.op(op).kernel_op {
                    Some(k) => format!("{}:{}", k, kernel.op(k).opcode()),
                    None => format!("{op}:copy"),
                };
                grid.insert((p.cycle, p.fu.index()), label);
            }
            let width = 14usize;
            let _ = write!(out, "{:>6} ", "cycle");
            for fu in arch.fu_ids() {
                let _ = write!(out, "{:width$}", arch.fu(fu).name());
            }
            let _ = writeln!(out);
            for cycle in 0..=max_cycle {
                let _ = write!(out, "{cycle:>6} ");
                for fu in arch.fu_ids() {
                    let cell = grid
                        .get(&(cycle, fu.index()))
                        .map(String::as_str)
                        .unwrap_or(".");
                    let _ = write!(out, "{cell:width$}");
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule of {} on {}: {} ops ({} copies){}",
            self.kernel_name,
            self.arch_name,
            self.universe.num_ops(),
            self.num_copies(),
            match self.ii {
                Some(ii) => format!(", II={ii}"),
                None => String::new(),
            }
        )
    }
}
