//! The scheduling universe: the set of operations and communications the
//! scheduler works on.
//!
//! The universe starts as a one-to-one image of the kernel's operations and
//! grows as communication scheduling inserts copy operations (paper §4.3
//! step 5, Figure 21). Communications are the paper's §3 abstraction: one
//! per (producer result, consumer operand) pair, including the two
//! communications a loop-carried variable induces (one from the preamble
//! init producer, one from the previous iteration's update producer) —
//! both of which must share the consumer operand's read stub.
//!
//! Each kernel operand is bound to one input slot of its operation's
//! unit, and a communication reads through its operand's *bound* slot.
//! The binding is the kernel's own order except where
//! [`Universe::build`] moves a commutative operation's lone single-use
//! value to its less-loaded slot (DESIGN.md §5).

use core::fmt;

use csched_ir::{resolve_producers, BlockId, Kernel, OpId, Operand};
use csched_machine::{FuId, Opcode};

use crate::conn::ConnCache;

/// Most operands any opcode takes (`select`, `store`, `spwrite`).
const MAX_OPERANDS: usize = 3;

/// The identity binding: operand `i` reads through input slot `i`.
const IDENTITY: [u8; MAX_OPERANDS] = [0, 1, 2];

/// Identifies an operation in the scheduling universe (kernel operations
/// first, then inserted copies, in insertion order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SOpId(pub(crate) u32);

impl SOpId {
    /// Creates an id from a raw dense index.
    pub fn from_raw(index: usize) -> Self {
        SOpId(index as u32)
    }

    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SOpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for SOpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifies a communication.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommId(pub(crate) u32);

impl CommId {
    /// Creates an id from a raw dense index.
    pub fn from_raw(index: usize) -> Self {
        CommId(index as u32)
    }

    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CommId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CommId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An operation in the scheduling universe.
#[derive(Clone, Debug)]
pub struct SOp {
    /// The opcode.
    pub opcode: Opcode,
    /// The block the operation belongs to (copies inherit the block they
    /// were inserted into).
    pub block: BlockId,
    /// The kernel operation this mirrors, or `None` for inserted copies.
    pub kernel_op: Option<OpId>,
    /// Number of operand slots (equals `opcode.num_operands()`).
    pub num_operands: usize,
    /// Whether the operation produces a result.
    pub has_result: bool,
    /// The input slot each operand is bound to: operand `i`, in kernel
    /// order, is read through slot `slots[i]`. The identity except for a
    /// commutative operation [`Universe::build`] rebinds.
    pub(crate) slots: [u8; MAX_OPERANDS],
}

impl SOp {
    /// The input slot kernel operand `operand` is bound to.
    pub fn slot_of(&self, operand: usize) -> usize {
        usize::from(self.slots[operand])
    }
}

/// One communication: the use of one producer's result as one operand of
/// one consumer (paper §3).
#[derive(Clone, Debug)]
pub struct Comm {
    /// The operation producing the value.
    pub producer: SOpId,
    /// The consuming operation.
    pub consumer: SOpId,
    /// The consumer's input slot: the slot its kernel operand is bound to
    /// ([`SOp::slot_of`]).
    pub slot: usize,
    /// Iteration distance: the consumer of iteration `i` reads the
    /// producer's result from iteration `i - distance` (0 within an
    /// iteration or for cross-block/init communications).
    pub distance: u32,
}

/// The set of operations and communications being scheduled.
#[derive(Clone, Debug)]
pub struct Universe {
    pub(crate) ops: Vec<SOp>,
    pub(crate) comms: Vec<Comm>,
    /// Communications grouped by consumer operand `(consumer, slot)`;
    /// the groups sharing one read stub.
    pub(crate) operand_comms: Vec<Vec<CommId>>,
    /// Flattened index: for op `o`, `operand_base[o.index()] + slot` indexes
    /// `operand_comms`.
    pub(crate) operand_base: Vec<usize>,
    /// Communications grouped by producer.
    pub(crate) producer_comms: Vec<Vec<CommId>>,
    /// Number of operations that came from the kernel (a prefix of `ops`).
    pub(crate) num_kernel_ops: usize,
}

impl Universe {
    /// Builds the universe for `kernel` on the machine `cache` describes:
    /// one [`SOp`] per kernel operation, its operands bound to input slots
    /// (module docs), and one [`Comm`] per (producer,
    /// consumer-operand) pair, resolving loop variables to their init and
    /// carried producers.
    pub fn build(kernel: &Kernel, cache: &ConnCache) -> Self {
        let slots = bind_operands(kernel, cache);
        let mut ops = Vec::with_capacity(kernel.num_ops());
        for op_id in kernel.op_ids() {
            let op = kernel.op(op_id);
            ops.push(SOp {
                opcode: op.opcode(),
                block: op.block(),
                kernel_op: Some(op_id),
                num_operands: op.operands().len(),
                has_result: op.result().is_some(),
                slots: slots[op_id.index()],
            });
        }
        let mut u = Universe {
            ops,
            comms: Vec::new(),
            operand_comms: Vec::new(),
            operand_base: Vec::new(),
            producer_comms: Vec::new(),
            num_kernel_ops: kernel.num_ops(),
        };
        u.rebuild_operand_index();

        for op_id in kernel.op_ids() {
            let op = kernel.op(op_id);
            let bound = slots[op_id.index()];
            for (i, operand) in op.operands().iter().enumerate() {
                let Operand::Value(v) = *operand else {
                    continue;
                };
                for (producer, distance) in resolve_producers(kernel, v) {
                    u.add_comm(Comm {
                        producer: SOpId::from_raw(producer.index()),
                        consumer: SOpId::from_raw(op_id.index()),
                        slot: usize::from(bound[i]),
                        distance,
                    });
                }
            }
        }
        u
    }

    fn rebuild_operand_index(&mut self) {
        self.operand_base.clear();
        let mut total = 0usize;
        for op in &self.ops {
            self.operand_base.push(total);
            total += op.num_operands;
        }
        self.operand_comms.resize(total, Vec::new());
        self.producer_comms.resize(self.ops.len(), Vec::new());
    }

    /// Adds a communication (used during construction and by copy
    /// insertion) and returns its id.
    pub fn add_comm(&mut self, comm: Comm) -> CommId {
        let id = CommId::from_raw(self.comms.len());
        let oi = self.operand_index(comm.consumer, comm.slot);
        self.operand_comms[oi].push(id);
        self.producer_comms[comm.producer.index()].push(id);
        self.comms.push(comm);
        id
    }

    /// Adds a copy operation in `block` and returns its id. The caller
    /// wires up its communications with [`Universe::add_comm`].
    pub fn add_copy(&mut self, block: BlockId) -> SOpId {
        let id = SOpId::from_raw(self.ops.len());
        self.ops.push(SOp {
            opcode: Opcode::Copy,
            block,
            kernel_op: None,
            num_operands: 1,
            has_result: true,
            slots: IDENTITY,
        });
        self.operand_base.push(self.operand_comms.len());
        self.operand_comms.push(Vec::new());
        self.producer_comms.push(Vec::new());
        id
    }

    /// Removes the most recently added communication (used to roll back a
    /// reused-copy attachment). Does nothing if there are none.
    pub fn remove_last_comm(&mut self) {
        let Some(last) = self.comms.last() else {
            return;
        };
        let cid = CommId::from_raw(self.comms.len() - 1);
        let oi = self.operand_index(last.consumer, last.slot);
        self.operand_comms[oi].retain(|&c| c != cid);
        self.producer_comms[last.producer.index()].retain(|&c| c != cid);
        self.comms.pop();
    }

    /// Removes the most recently added copy operation and any
    /// communications attached to it (used to roll back a failed copy
    /// insertion). The copy must be the last operation and its comms the
    /// last comms. Does nothing if the last operation is not an inserted
    /// copy (kernel operations are never removed).
    pub fn remove_last_copy(&mut self) {
        let Some(op) = self.ops.last() else {
            return;
        };
        if op.kernel_op.is_some() {
            return;
        }
        let id = SOpId::from_raw(self.ops.len() - 1);
        // Drop comms touching the copy; they are by construction the most
        // recently added ones, but scan defensively.
        while let Some(last) = self.comms.last() {
            if last.producer == id || last.consumer == id {
                let cid = CommId::from_raw(self.comms.len() - 1);
                let oi = self.operand_index(last.consumer, last.slot);
                self.operand_comms[oi].retain(|&c| c != cid);
                self.producer_comms[last.producer.index()].retain(|&c| c != cid);
                self.comms.pop();
            } else {
                break;
            }
        }
        self.ops.pop();
        self.operand_base.pop();
        self.operand_comms.pop();
        self.producer_comms.pop();
    }

    /// Dense index of the operand `(op, slot)`.
    pub fn operand_index(&self, op: SOpId, slot: usize) -> usize {
        self.operand_base[op.index()] + slot
    }

    /// The operation `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn op(&self, op: SOpId) -> &SOp {
        &self.ops[op.index()]
    }

    /// The communication `comm`.
    ///
    /// # Panics
    ///
    /// Panics if `comm` is out of range.
    pub fn comm(&self, comm: CommId) -> &Comm {
        &self.comms[comm.index()]
    }

    /// Number of operations currently in the universe.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of communications.
    pub fn num_comms(&self) -> usize {
        self.comms.len()
    }

    /// Number of operations that mirror kernel operations.
    pub fn num_kernel_ops(&self) -> usize {
        self.num_kernel_ops
    }

    /// Iterates over all operation ids.
    pub fn op_ids(&self) -> impl Iterator<Item = SOpId> + '_ {
        (0..self.ops.len()).map(SOpId::from_raw)
    }

    /// Iterates over all communication ids.
    pub fn comm_ids(&self) -> impl Iterator<Item = CommId> + '_ {
        (0..self.comms.len()).map(CommId::from_raw)
    }

    /// Communications whose consumer operand is `(op, slot)`.
    pub fn comms_to_operand(&self, op: SOpId, slot: usize) -> &[CommId] {
        &self.operand_comms[self.operand_index(op, slot)]
    }

    /// Communications out of `op`'s result.
    pub fn comms_from(&self, op: SOpId) -> &[CommId] {
        &self.producer_comms[op.index()]
    }
}

/// The operand binding of every kernel operation, indexed by [`OpId`].
///
/// One pass in program order keeps, for each set of capable units
/// ([`ConnCache::fus_for`]), a count of the value operands bound so far
/// to each input slot. A commutative operation whose two operands are one
/// immediate and one value used exactly once in the kernel (a store or a
/// loop-variable init or update counts as a use) binds that value to the
/// slot with the lower count, slot 0 on a tie. Every other operation
/// binds as written. Each bound value operand then adds one to its slot's
/// count.
///
/// On a machine whose units read each input from its own file, the slot
/// decides which file, and so which write port, the value must reach;
/// where both slots read one file the choice moves no value to another
/// file. Only a single-use value moves: it costs one write wherever it
/// lands, while splitting a shared value's readers across both slots
/// writes it into more files (DESIGN.md §5).
fn bind_operands(kernel: &Kernel, cache: &ConnCache) -> Vec<[u8; MAX_OPERANDS]> {
    let mut uses = vec![0u32; kernel.num_values()];
    let operands = kernel
        .op_ids()
        .flat_map(|op| kernel.op(op).operands().iter().copied());
    let loop_vars = kernel
        .blocks()
        .iter()
        .flat_map(|b| b.loop_vars())
        .flat_map(|lv| [lv.init(), lv.update()]);
    for v in operands.chain(loop_vars).filter_map(Operand::as_value) {
        uses[v.index()] += 1;
    }

    let mut slots = vec![IDENTITY; kernel.num_ops()];
    let mut per_set: Vec<(&[FuId], [u32; MAX_OPERANDS])> = Vec::new();
    for block in kernel.block_ids() {
        for &op_id in kernel.block(block).ops() {
            let op = kernel.op(op_id);
            let fus = cache.fus_for(op.opcode());
            let at = match per_set.iter().position(|(set, _)| *set == fus) {
                Some(at) => at,
                None => {
                    per_set.push((fus, [0; MAX_OPERANDS]));
                    per_set.len() - 1
                }
            };
            let count = &mut per_set[at].1;
            let bound = &mut slots[op_id.index()];
            let lone_value = match *op.operands() {
                [Operand::Value(v), Operand::Imm(_)] if uses[v.index()] == 1 => Some(0),
                [Operand::Imm(_), Operand::Value(v)] if uses[v.index()] == 1 => Some(1),
                _ => None,
            };
            if let Some(operand) = lone_value.filter(|_| op.opcode().is_commutative()) {
                let slot = u8::from(count[1] < count[0]);
                bound[operand] = slot;
                bound[1 - operand] = 1 - slot;
            }
            for (i, operand) in op.operands().iter().enumerate() {
                if operand.as_value().is_some() {
                    count[usize::from(bound[i])] += 1;
                }
            }
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use csched_ir::{KernelBuilder, ValueDef, ValueId};
    use csched_machine::{imagine, Opcode};

    fn build(k: &Kernel) -> Universe {
        Universe::build(k, &ConnCache::new(&imagine::distributed()))
    }

    /// The universe operation that defines `v`.
    fn def(k: &Kernel, v: ValueId) -> SOpId {
        match k.value_def(v) {
            ValueDef::Op(op) => SOpId::from_raw(op.index()),
            ValueDef::LoopVar(..) => panic!("{v:?} is a loop variable"),
        }
    }

    fn sample() -> Kernel {
        let mut kb = KernelBuilder::new("sample");
        let data = kb.region("data", true);
        let pre = kb.straight_block("pre");
        let base = kb.push(pre, Opcode::IAdd, [Operand::from(0i64), 0i64.into()]);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, base.into());
        let x = kb.load(lp, data, i.into(), 0i64.into());
        let y = kb.push(lp, Opcode::IAdd, [x.into(), x.into()]);
        kb.store(lp, data, i.into(), 0i64.into(), y.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        kb.build().unwrap()
    }

    #[test]
    fn comm_extraction() {
        let k = sample();
        let u = build(&k);
        assert_eq!(u.num_ops(), 5);
        // i used by: load addr, store addr, increment -> each has 2 comms
        // (init producer `base` + carried producer `i1`): 6
        // x used twice by y: 2 comms; y used by store: 1.
        assert_eq!(u.num_comms(), 9);
        // load is op index 1 in kernel order (pre op is 0).
        let load = SOpId::from_raw(1);
        let to_load = u.comms_to_operand(load, 0);
        assert_eq!(to_load.len(), 2);
        let dists: Vec<u32> = to_load.iter().map(|&c| u.comm(c).distance).collect();
        assert!(dists.contains(&0) && dists.contains(&1));
    }

    #[test]
    fn same_value_used_twice_gets_two_comms() {
        let k = sample();
        let u = build(&k);
        let y = SOpId::from_raw(2);
        assert_eq!(u.comms_to_operand(y, 0).len(), 1);
        assert_eq!(u.comms_to_operand(y, 1).len(), 1);
        assert_ne!(
            u.comms_to_operand(y, 0)[0],
            u.comms_to_operand(y, 1)[0],
            "each operand gets a separate communication (paper §3)"
        );
    }

    #[test]
    fn fir_int_binds_half_its_multiply_values_to_each_slot() {
        let k = csched_kernels::by_name("FIR-INT").expect("FIR-INT").kernel;
        let u = build(&k);
        let mut per_slot = [0; 2];
        for op in u.op_ids().filter(|&op| u.op(op).opcode == Opcode::IMul) {
            let slot = u.op(op).slot_of(0);
            per_slot[slot] += 1;
            assert_eq!(u.comms_to_operand(op, slot).len(), 1, "{op}");
            assert!(u.comms_to_operand(op, 1 - slot).is_empty(), "{op}");
        }
        assert_eq!(per_slot, [28, 28]);
    }

    #[test]
    fn only_a_commutative_ops_lone_single_use_value_is_rebound() {
        let mut kb = KernelBuilder::new("bind");
        let data = kb.region("data", true);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let load = |kb: &mut KernelBuilder, at: i64| kb.load(lp, data, i.into(), at.into());
        let (x, y, z, w) = (
            load(&mut kb, 0),
            load(&mut kb, 1),
            load(&mut kb, 2),
            load(&mut kb, 3),
        );
        // The first single-use value takes slot 0 on a tie, the second the
        // multipliers' emptier slot 1.
        let a = kb.push(lp, Opcode::IMul, [x.into(), 3i64.into()]);
        let b = kb.push(lp, Opcode::IMul, [y.into(), 5i64.into()]);
        // `z` has two uses, so both its multiplies read it as written.
        let c = kb.push(lp, Opcode::IMul, [z.into(), 7i64.into()]);
        let d = kb.push(lp, Opcode::IMul, [z.into(), 9i64.into()]);
        // Not commutative, and two values: as written.
        let e = kb.push(lp, Opcode::ISub, [5i64.into(), w.into()]);
        let f = kb.push(lp, Opcode::IAdd, [a.into(), b.into()]);
        let g = kb.push(lp, Opcode::IAdd, [c.into(), d.into()]);
        let h = kb.push(lp, Opcode::IAdd, [f.into(), g.into()]);
        let out = kb.push(lp, Opcode::IAdd, [h.into(), e.into()]);
        kb.store(lp, data, i.into(), 8i64.into(), out.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        let k = kb.build().expect("well-formed");
        let u = build(&k);

        let slots = |v| u.op(def(&k, v)).slots;
        assert_eq!(slots(a), IDENTITY);
        assert_eq!(slots(b), [1, 0, 2]);
        let from_y = u.comms_to_operand(def(&k, b), 1);
        assert_eq!(from_y.len(), 1);
        assert_eq!(u.comm(from_y[0]).producer, def(&k, y));
        assert!(u.comms_to_operand(def(&k, b), 0).is_empty());
        for v in [c, d, e, f, g, h, out, i1] {
            assert_eq!(slots(v), IDENTITY, "{v:?}");
        }
    }

    #[test]
    fn copy_add_remove_round_trip() {
        let k = sample();
        let mut u = build(&k);
        let before_ops = u.num_ops();
        let before_comms = u.num_comms();
        let copy = u.add_copy(BlockId::from_raw(1));
        u.add_comm(Comm {
            producer: SOpId::from_raw(1),
            consumer: copy,
            slot: 0,
            distance: 0,
        });
        u.add_comm(Comm {
            producer: copy,
            consumer: SOpId::from_raw(2),
            slot: 0,
            distance: 0,
        });
        assert_eq!(u.num_ops(), before_ops + 1);
        assert_eq!(u.num_comms(), before_comms + 2);
        assert_eq!(u.comms_from(copy).len(), 1);
        u.remove_last_copy();
        assert_eq!(u.num_ops(), before_ops);
        assert_eq!(u.num_comms(), before_comms);
        assert!(u
            .comm_ids()
            .all(|c| u.comm(c).producer.index() < before_ops));
    }
}
