//! Dependence graph over a kernel's operations.
//!
//! Edges carry an iteration *distance*: 0 for dependences within one
//! iteration (or within straight-line code), ≥ 1 for loop-carried
//! dependences through loop variables or through memory. The graph drives
//! the scheduler's priority function (critical-path heights, scheduled in
//! *operation order* per paper §4.6) and the recurrence-constrained
//! minimum initiation interval of the modulo scheduler.

use std::collections::HashMap;

use csched_machine::Opcode;

use crate::kernel::{BlockId, Kernel, OpId, Operand, ValueDef};

/// Why one operation must wait for another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepKind {
    /// The consumer reads the producer's result in operand `slot`.
    Flow {
        /// Operand position of the use.
        slot: usize,
    },
    /// Memory or scratchpad ordering within one region.
    Mem,
}

/// One dependence edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// The operation that must execute first.
    pub from: OpId,
    /// The operation that must wait.
    pub to: OpId,
    /// The reason for the ordering.
    pub kind: DepKind,
    /// Iteration distance: the `to` operation of iteration `i` depends on
    /// the `from` operation of iteration `i - distance`.
    pub distance: u32,
}

/// The dependence graph of one kernel.
#[derive(Clone, Debug)]
pub struct DepGraph {
    edges: Vec<DepEdge>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    heights: Vec<u64>,
    latencies: Vec<u32>,
}

impl DepGraph {
    /// Builds the graph for `kernel`, using `latency_of` as the (FU
    /// independent) latency estimate for priority computation.
    pub fn build(kernel: &Kernel, latency_of: impl Fn(Opcode) -> u32) -> Self {
        let n = kernel.num_ops();
        let mut edges: Vec<DepEdge> = Vec::new();

        // --- flow edges ---
        for op_id in kernel.op_ids() {
            let op = kernel.op(op_id);
            for (slot, operand) in op.operands().iter().enumerate() {
                let Some(v) = operand.as_value() else {
                    continue;
                };
                for (producer, distance) in resolve_producers(kernel, v) {
                    edges.push(DepEdge {
                        from: producer,
                        to: op_id,
                        kind: DepKind::Flow { slot },
                        distance,
                    });
                }
            }
        }

        // --- memory edges, per block, per region ---
        for b in kernel.block_ids() {
            let block = kernel.block(b);
            // Per region: program-ordered lists of (op, is_store).
            let mut per_region: HashMap<usize, Vec<(OpId, bool)>> = HashMap::new();
            for &op_id in block.ops() {
                let op = kernel.op(op_id);
                if let Some(region) = op.region() {
                    let writes = !op.opcode().has_result(); // Store / SpWrite
                    per_region
                        .entry(region.index())
                        .or_default()
                        .push((op_id, writes));
                }
            }
            for (region_idx, accesses) in &per_region {
                // Within-iteration ordering: every access depends on the
                // most recent store before it; every store also depends on
                // the loads since that store (anti-dependence).
                let mut last_store: Option<OpId> = None;
                let mut loads_since: Vec<OpId> = Vec::new();
                for &(op, is_store) in accesses {
                    if let Some(s) = last_store {
                        edges.push(DepEdge {
                            from: s,
                            to: op,
                            kind: DepKind::Mem,
                            distance: 0,
                        });
                    }
                    if is_store {
                        for &l in &loads_since {
                            edges.push(DepEdge {
                                from: l,
                                to: op,
                                kind: DepKind::Mem,
                                distance: 0,
                            });
                        }
                        loads_since.clear();
                        last_store = Some(op);
                    } else {
                        loads_since.push(op);
                    }
                }
                // Loop-carried ordering, unless the region promises
                // iteration disjointness.
                let region = kernel.region(crate::kernel::RegionId::from_raw(*region_idx));
                if block.is_loop() && !region.iteration_disjoint() {
                    for &(a, a_store) in accesses {
                        for &(bq, b_store) in accesses {
                            if a_store || b_store {
                                edges.push(DepEdge {
                                    from: a,
                                    to: bq,
                                    kind: DepKind::Mem,
                                    distance: 1,
                                });
                            }
                        }
                    }
                }
            }
        }

        edges.sort_by_key(|e| (e.from, e.to, e.distance));
        edges.dedup();

        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            preds[e.to.index()].push(i);
            succs[e.from.index()].push(i);
        }

        let latencies: Vec<u32> = kernel
            .op_ids()
            .map(|op| latency_of(kernel.op(op).opcode()))
            .collect();

        // Heights over distance-0 edges (acyclic): longest latency-weighted
        // path from the op to any sink.
        let heights = compute_heights(kernel, &edges, &succs, &latencies);

        DepGraph {
            edges,
            preds,
            succs,
            heights,
            latencies,
        }
    }

    /// All edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Edges into `op`.
    pub fn preds(&self, op: OpId) -> impl Iterator<Item = &DepEdge> + '_ {
        self.preds[op.index()].iter().map(move |&i| &self.edges[i])
    }

    /// Edges out of `op`.
    pub fn succs(&self, op: OpId) -> impl Iterator<Item = &DepEdge> + '_ {
        self.succs[op.index()].iter().map(move |&i| &self.edges[i])
    }

    /// Critical-path height of `op`: its latency plus the maximum height of
    /// its distance-0 successors. The scheduler processes operations in
    /// decreasing height ("along the critical path first", §4.6).
    pub fn height(&self, op: OpId) -> u64 {
        self.heights[op.index()]
    }

    /// The latency estimate the graph was built with.
    pub fn latency(&self, op: OpId) -> u32 {
        self.latencies[op.index()]
    }

    /// Operations of `block` ordered by decreasing height (ties broken by
    /// program order): the paper's *operation order*.
    pub fn operation_order(&self, kernel: &Kernel, block: BlockId) -> Vec<OpId> {
        let mut ops: Vec<OpId> = kernel.block(block).ops().to_vec();
        ops.sort_by_key(|&op| (std::cmp::Reverse(self.height(op)), op));
        ops
    }

    /// Operations of `block` that lie on a dependence cycle (a
    /// *recurrence*): a self-edge at any distance, or a path through
    /// block-local edges — loop-carried ones included — that returns to
    /// the operation.
    pub fn recurrence_members(&self, kernel: &Kernel, block: BlockId) -> Vec<OpId> {
        let ops = kernel.block(block).ops();
        let in_block: std::collections::HashSet<OpId> = ops.iter().copied().collect();
        ops.iter()
            .copied()
            .filter(|&start| {
                // DFS from each successor of `start`: on a cycle iff some
                // edge path leads back to it (self-edges included).
                let mut stack: Vec<OpId> = self
                    .succs(start)
                    .filter(|e| in_block.contains(&e.to))
                    .map(|e| e.to)
                    .collect();
                let mut seen = std::collections::HashSet::new();
                while let Some(op) = stack.pop() {
                    if op == start {
                        return true;
                    }
                    if seen.insert(op) {
                        stack.extend(
                            self.succs(op)
                                .filter(|e| in_block.contains(&e.to))
                                .map(|e| e.to),
                        );
                    }
                }
                false
            })
            .collect()
    }

    /// Operations of `block` with recurrence members first, then by
    /// decreasing height (ties by program order) within each class: the
    /// *recurrence-first* order, mined from exact minimum-II schedules.
    /// A loop update sits on the critical recurrence but has no
    /// same-iteration successors, so the plain height order of
    /// [`operation_order`](Self::operation_order) places it last — after
    /// the issue slots and ports its tight window needs are taken.
    pub fn recurrence_order(&self, kernel: &Kernel, block: BlockId) -> Vec<OpId> {
        let members: std::collections::HashSet<OpId> =
            self.recurrence_members(kernel, block).into_iter().collect();
        let mut ops: Vec<OpId> = kernel.block(block).ops().to_vec();
        ops.sort_by_key(|&op| {
            (
                std::cmp::Reverse(members.contains(&op)),
                std::cmp::Reverse(self.height(op)),
                op,
            )
        });
        ops
    }

    /// Earliest feasible issue cycle per operation over distance-0 edges
    /// (ASAP schedule, unit-resource-free).
    pub fn asap(&self, kernel: &Kernel) -> Vec<i64> {
        let mut asap = vec![0i64; kernel.num_ops()];
        for block in kernel.block_ids() {
            for &op in kernel.block(block).ops() {
                let mut earliest = 0i64;
                for e in self.preds(op) {
                    if e.distance == 0 && kernel.op(e.from).block() == block {
                        earliest = earliest.max(asap[e.from.index()] + self.latency(e.from) as i64);
                    }
                }
                asap[op.index()] = earliest;
            }
        }
        asap
    }

    /// The recurrence-constrained minimum initiation interval of the loop
    /// block: the smallest `ii` such that no dependence cycle requires
    /// `Σ latency > ii · Σ distance`. Returns 1 if the kernel has no loop
    /// or no recurrence.
    pub fn rec_mii(&self, kernel: &Kernel) -> u32 {
        let Some(lb) = kernel.loop_block() else {
            return 1;
        };
        let loop_ops: Vec<OpId> = kernel.block(lb).ops().to_vec();
        let index_of: HashMap<OpId, usize> =
            loop_ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        let m = loop_ops.len();
        if m == 0 {
            return 1;
        }
        let loop_edges: Vec<&DepEdge> = self
            .edges
            .iter()
            .filter(|e| index_of.contains_key(&e.from) && index_of.contains_key(&e.to))
            .collect();

        // Binary search the smallest ii with no positive cycle of weight
        // latency(from) - ii * distance.
        let hi_bound: u32 = self.latencies.iter().sum::<u32>().max(1);
        let has_positive_cycle = |ii: i64| -> bool {
            // Bellman-Ford longest path with |V| relaxation rounds; a
            // further improvement implies a positive cycle.
            let mut dist = vec![0i64; m];
            for round in 0..=m {
                let mut changed = false;
                for e in &loop_edges {
                    let w = self.latencies[e.from.index()] as i64 - ii * e.distance as i64;
                    let (fi, ti) = (index_of[&e.from], index_of[&e.to]);
                    if dist[fi] + w > dist[ti] {
                        dist[ti] = dist[fi] + w;
                        changed = true;
                    }
                }
                if !changed {
                    return false;
                }
                if round == m {
                    return true;
                }
            }
            false
        };

        let (mut lo, mut hi) = (1u32, hi_bound);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if has_positive_cycle(mid as i64) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// All producers of `value`, with iteration distances. An operation-defined
/// value has one producer at distance 0. A loop variable's carried value
/// resolves through its update chain (distance ≥ 1); its init producer (if
/// the init is a preamble value) is reported at distance 0 — the scheduler
/// treats that edge as satisfied by the loop prologue, while communication
/// scheduling still routes it (both routes must share the read stub).
pub fn resolve_producers(kernel: &Kernel, value: ValueId) -> Vec<(OpId, u32)> {
    let mut out = Vec::new();
    match kernel.value_def(value) {
        ValueDef::Op(op) => out.push((op, 0)),
        ValueDef::LoopVar(block, idx) => {
            // Init producer (distance 0, cross-block).
            let lv = &kernel.block(block).loop_vars()[idx];
            if let Some(init) = lv.init().as_value() {
                if let ValueDef::Op(op) = kernel.value_def(init) {
                    out.push((op, 0));
                }
            }
            // Carried producer: follow update chains through other loop
            // variables, accumulating one iteration per hop.
            let mut distance = 1u32;
            let mut current: Operand = lv.update();
            let mut hops = 0usize;
            loop {
                match current.as_value() {
                    None => break, // immediate update: rejected by validate
                    Some(v) => match kernel.value_def(v) {
                        ValueDef::Op(op) => {
                            out.push((op, distance));
                            break;
                        }
                        ValueDef::LoopVar(b2, i2) => {
                            hops += 1;
                            if hops > kernel.block(b2).loop_vars().len() {
                                break; // cyclic phi chain; no op producer
                            }
                            distance += 1;
                            current = kernel.block(b2).loop_vars()[i2].update();
                        }
                    },
                }
            }
        }
    }
    out
}

use crate::kernel::ValueId;

fn compute_heights(
    kernel: &Kernel,
    edges: &[DepEdge],
    succs: &[Vec<usize>],
    latencies: &[u32],
) -> Vec<u64> {
    // Heights over distance-0 edges only; the kernel's validation
    // guarantees this restriction is acyclic (defs precede uses in program
    // order within a block, blocks are ordered).
    let n = kernel.num_ops();
    let mut heights = vec![0u64; n];
    // Process ops in reverse global program order (blocks in order, ops in
    // order), which is a reverse topological order for distance-0 edges.
    let mut order: Vec<OpId> = Vec::with_capacity(n);
    for b in kernel.block_ids() {
        order.extend_from_slice(kernel.block(b).ops());
    }
    for &op in order.iter().rev() {
        let mut best = 0u64;
        for &ei in &succs[op.index()] {
            let e = &edges[ei];
            if e.distance == 0 {
                best = best.max(heights[e.to.index()]);
            }
        }
        heights[op.index()] = best + latencies[op.index()] as u64;
    }
    heights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use csched_machine::{default_latency, Opcode};

    fn chain_kernel() -> Kernel {
        // v0 = 1+1; v1 = v0+1; v2 = v1*v0
        let mut kb = KernelBuilder::new("chain");
        let b = kb.straight_block("b");
        let v0 = kb.push(b, Opcode::IAdd, [Operand::from(1i64), 1i64.into()]);
        let v1 = kb.push(b, Opcode::IAdd, [v0.into(), 1i64.into()]);
        let _v2 = kb.push(b, Opcode::IMul, [v1.into(), v0.into()]);
        kb.build().unwrap()
    }

    #[test]
    fn flow_edges_and_heights() {
        let k = chain_kernel();
        let g = DepGraph::build(&k, default_latency);
        let flow: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, DepKind::Flow { .. }))
            .collect();
        assert_eq!(flow.len(), 3);
        // heights: op2 (imul, lat 2) = 2; op1 = 1 + 2 = 3; op0 = 1 + 3 = 4
        assert_eq!(g.height(OpId::from_raw(2)), 2);
        assert_eq!(g.height(OpId::from_raw(1)), 3);
        assert_eq!(g.height(OpId::from_raw(0)), 4);
        let order = g.operation_order(&k, crate::kernel::BlockId::from_raw(0));
        assert_eq!(
            order,
            vec![OpId::from_raw(0), OpId::from_raw(1), OpId::from_raw(2)]
        );
    }

    fn accumulator_kernel() -> Kernel {
        // loop: acc = fadd(acc, x); x loaded per iteration.
        let mut kb = KernelBuilder::new("acc");
        let data = kb.region("data", true);
        let pre = kb.straight_block("pre");
        let zero = kb.push(pre, Opcode::ItoF, [Operand::from(0i64)]);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let acc = kb.loop_var(lp, zero.into());
        let x = kb.load(lp, data, i.into(), 0i64.into());
        let acc1 = kb.push(lp, Opcode::FAdd, [acc.into(), x.into()]);
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(acc, acc1.into());
        kb.set_update(i, i1.into());
        kb.build().unwrap()
    }

    #[test]
    fn loop_carried_flow_edges() {
        let k = accumulator_kernel();
        let g = DepGraph::build(&k, default_latency);
        // acc1 (fadd) depends on itself at distance 1 through the loop var.
        let fadd = k
            .op_ids()
            .find(|&o| k.op(o).opcode() == Opcode::FAdd)
            .unwrap();
        let self_edge = g
            .edges()
            .iter()
            .find(|e| e.from == fadd && e.to == fadd && e.distance == 1);
        assert!(self_edge.is_some(), "accumulator recurrence edge missing");
        // Its init producer (the preamble itof) also feeds it at distance 0.
        let itof = k
            .op_ids()
            .find(|&o| k.op(o).opcode() == Opcode::ItoF)
            .unwrap();
        assert!(g
            .edges()
            .iter()
            .any(|e| e.from == itof && e.to == fadd && e.distance == 0));
    }

    #[test]
    fn rec_mii_of_accumulator_is_fadd_latency() {
        let k = accumulator_kernel();
        let g = DepGraph::build(&k, default_latency);
        // The tightest recurrence is acc -> acc with distance 1 and FAdd
        // latency 2.
        assert_eq!(g.rec_mii(&k), default_latency(Opcode::FAdd));
    }

    #[test]
    fn rec_mii_without_recurrence_is_one() {
        let mut kb = KernelBuilder::new("norec");
        let data = kb.region("data", true);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let x = kb.load(lp, data, i.into(), 0i64.into());
        let _y = kb.push(lp, Opcode::IAdd, [x.into(), 1i64.into()]);
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        let k = kb.build().unwrap();
        let g = DepGraph::build(&k, default_latency);
        // Only the induction i -> i at distance 1, latency 1: RecMII = 1.
        assert_eq!(g.rec_mii(&k), 1);
    }

    #[test]
    fn memory_ordering_within_region() {
        let mut kb = KernelBuilder::new("mem");
        let r = kb.region("r", true);
        let b = kb.straight_block("b");
        let x = kb.load(b, r, Operand::from(0i64), 0i64.into());
        let st = kb.store(b, r, 1i64.into(), 0i64.into(), x.into());
        let y = kb.load(b, r, Operand::from(1i64), 0i64.into());
        let k = kb.build().unwrap();
        let g = DepGraph::build(&k, default_latency);
        // load(x) -> store (anti), store -> load(y)
        let mem: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| e.kind == DepKind::Mem)
            .collect();
        assert_eq!(mem.len(), 2);
        assert!(mem.iter().any(|e| e.to == st && e.distance == 0));
        let _ = y;
    }

    #[test]
    fn disjoint_regions_have_no_cross_edges() {
        let mut kb = KernelBuilder::new("mem2");
        let r1 = kb.region("a", true);
        let r2 = kb.region("b", true);
        let b = kb.straight_block("b");
        let x = kb.load(b, r1, Operand::from(0i64), 0i64.into());
        kb.store(b, r2, 0i64.into(), 0i64.into(), x.into());
        let _y = kb.load(b, r1, Operand::from(1i64), 0i64.into());
        let k = kb.build().unwrap();
        let g = DepGraph::build(&k, default_latency);
        assert!(g.edges().iter().all(|e| e.kind != DepKind::Mem));
    }

    #[test]
    fn loop_carried_memory_for_aliasing_region() {
        let mut kb = KernelBuilder::new("scratch");
        let r = kb.region("sp", false); // iterations may alias
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let x = kb.load(lp, r, i.into(), 0i64.into());
        kb.store(lp, r, i.into(), 0i64.into(), x.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        let k = kb.build().unwrap();
        let g = DepGraph::build(&k, default_latency);
        assert!(
            g.edges()
                .iter()
                .any(|e| e.kind == DepKind::Mem && e.distance == 1),
            "expected loop-carried memory dependence"
        );
        // And it raises RecMII to at least load+store chain / 1.
        assert!(g.rec_mii(&k) >= 2);
    }

    #[test]
    fn chained_phi_updates_are_rejected() {
        // var a's update naming var b would require routing values that no
        // communication covers; the kernel validator forbids it.
        let mut kb = KernelBuilder::new("phichain");
        let lp = kb.loop_block("body");
        let a = kb.loop_var(lp, 0i64.into());
        let bvar = kb.loop_var(lp, 0i64.into());
        let upd = kb.push(lp, Opcode::IAdd, [bvar.into(), 1i64.into()]);
        kb.set_update(a, bvar.into());
        kb.set_update(bvar, upd.into());
        assert!(matches!(
            kb.build(),
            Err(crate::kernel::KernelError::BadLoopUpdate { .. })
        ));
    }
}

impl DepGraph {
    /// Renders the graph in Graphviz dot format (flow edges solid, memory
    /// edges dashed, loop-carried edges labelled with their distance).
    pub fn to_dot(&self, kernel: &Kernel) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph depgraph {\n  rankdir=TB;\n");
        for block in kernel.block_ids() {
            let _ = writeln!(
                s,
                "  subgraph cluster_{} {{ label=\"{}\";",
                block.index(),
                kernel.block(block).name()
            );
            for &op in kernel.block(block).ops() {
                let _ = writeln!(
                    s,
                    "    n{} [label=\"{}: {}\"];",
                    op.index(),
                    op,
                    kernel.op(op).opcode()
                );
            }
            let _ = writeln!(s, "  }}");
        }
        for e in self.edges() {
            let style = match e.kind {
                DepKind::Flow { .. } => "solid",
                DepKind::Mem => "dashed",
            };
            let label = if e.distance > 0 {
                format!(" label=\"d{}\"", e.distance)
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "  n{} -> n{} [style={style}{label}];",
                e.from.index(),
                e.to.index()
            );
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use csched_machine::default_latency;

    #[test]
    fn dot_output_contains_blocks_and_edges() {
        let mut kb = KernelBuilder::new("dotty");
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let i1 = kb.push(lp, csched_machine::Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        let k = kb.build().unwrap();
        let g = DepGraph::build(&k, default_latency);
        let dot = g.to_dot(&k);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("iadd"));
        assert!(dot.contains("d1"), "loop-carried edge labelled: {dot}");
    }
}

#[cfg(test)]
mod slack_tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use csched_machine::{default_latency, Opcode};

    #[test]
    fn asap_respects_latencies() {
        let mut kb = KernelBuilder::new("lat");
        let input = kb.region("in", true);
        let b = kb.straight_block("b");
        let x = kb.load(b, input, 0i64.into(), 0i64.into()); // latency 4
        let _y = kb.push(b, Opcode::IAdd, [x.into(), 1i64.into()]);
        let k = kb.build().unwrap();
        let g = DepGraph::build(&k, default_latency);
        let asap = g.asap(&k);
        assert_eq!(asap[0], 0);
        assert_eq!(asap[1], 4);
    }
}
