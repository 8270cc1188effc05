//! Kernels: the compiler IR that communication scheduling consumes.
//!
//! A kernel follows the structure of the paper's evaluation programs
//! (§5, Table 1): "a short preamble followed by a single
//! software-pipelined loop". It is a sequence of straight-line basic
//! blocks, optionally ending in one loop block. Values are in SSA form;
//! the only join points are *loop variables* (phi-like values carried
//! around the loop), which is exactly the "operation could use one of
//! several results ... due to different control flows" case of the paper's
//! communication definition (§3).

use core::fmt;
use std::collections::HashMap;

use csched_machine::Opcode;

use crate::value::Imm;

macro_rules! ir_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates an id from a raw dense index.
            pub fn from_raw(index: usize) -> Self {
                Self(index as u32)
            }

            /// The raw dense index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

ir_id!(
    /// Identifies an operation within a kernel.
    OpId,
    "op"
);
ir_id!(
    /// Identifies an SSA value within a kernel.
    ValueId,
    "v"
);
ir_id!(
    /// Identifies a basic block within a kernel.
    BlockId,
    "bb"
);
ir_id!(
    /// Identifies a memory region (used for alias information).
    RegionId,
    "region"
);

/// An operand of an operation: either an SSA value (which requires a
/// communication and a read stub) or an immediate (encoded in the
/// instruction, consuming no interconnect).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// A value produced by another operation or a loop variable.
    Value(ValueId),
    /// An immediate.
    Imm(Imm),
}

impl Operand {
    /// The value id, if the operand is a value.
    pub fn as_value(self) -> Option<ValueId> {
        match self {
            Operand::Value(v) => Some(v),
            Operand::Imm(_) => None,
        }
    }
}

impl From<ValueId> for Operand {
    fn from(v: ValueId) -> Self {
        Operand::Value(v)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(Imm::Int(v))
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::Imm(Imm::Float(v))
    }
}

impl From<Imm> for Operand {
    fn from(v: Imm) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Value(v) => write!(f, "{v}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// One operation of a kernel.
#[derive(Clone, Debug)]
pub struct Operation {
    pub(crate) opcode: Opcode,
    pub(crate) operands: Vec<Operand>,
    pub(crate) result: Option<ValueId>,
    pub(crate) block: BlockId,
    pub(crate) region: Option<RegionId>,
}

impl Operation {
    /// The operation's opcode.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// The operands in slot order.
    pub fn operands(&self) -> &[Operand] {
        &self.operands
    }

    /// The result value, if the opcode produces one.
    pub fn result(&self) -> Option<ValueId> {
        self.result
    }

    /// The containing block.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// The memory region accessed, for memory and scratchpad operations.
    pub fn region(&self) -> Option<RegionId> {
        self.region
    }
}

/// A value carried around the loop: reads of [`LoopVar::value`] see `init`
/// on the first iteration and the previous iteration's `update` afterwards.
#[derive(Clone, Debug)]
pub struct LoopVar {
    pub(crate) value: ValueId,
    pub(crate) init: Operand,
    pub(crate) update: Operand,
}

impl LoopVar {
    /// The phi-like value read inside the loop.
    pub fn value(&self) -> ValueId {
        self.value
    }

    /// The value before the first iteration (an immediate or a value from a
    /// preceding straight-line block).
    pub fn init(&self) -> Operand {
        self.init
    }

    /// The value at the end of each iteration.
    pub fn update(&self) -> Operand {
        self.update
    }
}

/// A basic block: straight-line code, or the kernel's single loop.
#[derive(Clone, Debug)]
pub struct BasicBlock {
    pub(crate) name: String,
    pub(crate) ops: Vec<OpId>,
    pub(crate) is_loop: bool,
    pub(crate) loop_vars: Vec<LoopVar>,
}

impl BasicBlock {
    /// The block's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The block's operations in program order.
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }

    /// Whether the block is the kernel's software-pipelined loop.
    pub fn is_loop(&self) -> bool {
        self.is_loop
    }

    /// The block's loop-carried variables (empty for straight-line blocks).
    pub fn loop_vars(&self) -> &[LoopVar] {
        &self.loop_vars
    }
}

/// Alias information for a set of memory addresses.
#[derive(Clone, Debug)]
pub struct MemRegion {
    pub(crate) name: String,
    pub(crate) iteration_disjoint: bool,
}

impl MemRegion {
    /// The region's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether distinct loop iterations are guaranteed to access disjoint
    /// addresses within this region (true for streaming input/output
    /// regions), eliminating loop-carried memory dependences.
    pub fn iteration_disjoint(&self) -> bool {
        self.iteration_disjoint
    }
}

/// What defines a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueDef {
    /// The result of an operation.
    Op(OpId),
    /// A loop variable of a block (the `usize` indexes
    /// [`BasicBlock::loop_vars`]).
    LoopVar(BlockId, usize),
}

/// Errors detected while building or validating a kernel.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum KernelError {
    /// Wrong number of operands for the opcode.
    Arity {
        /// The offending operation.
        op: OpId,
        /// Its opcode.
        opcode: Opcode,
        /// Operand count supplied.
        got: usize,
    },
    /// A memory or scratchpad operation without a region tag.
    MissingRegion {
        /// The offending operation.
        op: OpId,
    },
    /// Use of a value that is not visible at the use site (defined later in
    /// the same block, or in a later block).
    UseBeforeDef {
        /// The using operation.
        op: OpId,
        /// The value used.
        value: ValueId,
    },
    /// A loop variable's update operand was never set, or names a value not
    /// defined in the loop body or another loop variable.
    BadLoopUpdate {
        /// The loop variable's value.
        value: ValueId,
    },
    /// A loop variable's init operand must be an immediate or a value from
    /// a straight-line block.
    BadLoopInit {
        /// The loop variable's value.
        value: ValueId,
    },
    /// More than one loop block, or a loop block that is not last.
    BadLoopStructure,
    /// The kernel has no operations.
    Empty,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Arity { op, opcode, got } => {
                write!(
                    f,
                    "{op}: {opcode} takes {} operands, got {got}",
                    opcode.num_operands()
                )
            }
            KernelError::MissingRegion { op } => {
                write!(f, "{op}: memory operation without a region tag")
            }
            KernelError::UseBeforeDef { op, value } => {
                write!(f, "{op}: {value} is not visible here")
            }
            KernelError::BadLoopUpdate { value } => {
                write!(f, "loop variable {value} has an invalid update")
            }
            KernelError::BadLoopInit { value } => {
                write!(f, "loop variable {value} has an invalid init")
            }
            KernelError::BadLoopStructure => {
                write!(
                    f,
                    "kernel must be straight-line blocks then at most one loop block"
                )
            }
            KernelError::Empty => write!(f, "kernel has no operations"),
        }
    }
}

impl std::error::Error for KernelError {}

/// A complete, validated kernel.
///
/// Build one with [`KernelBuilder`].
#[derive(Clone, Debug)]
pub struct Kernel {
    pub(crate) name: String,
    pub(crate) description: String,
    pub(crate) ops: Vec<Operation>,
    pub(crate) value_defs: Vec<ValueDef>,
    pub(crate) value_names: Vec<Option<String>>,
    pub(crate) blocks: Vec<BasicBlock>,
    pub(crate) regions: Vec<MemRegion>,
}

impl Kernel {
    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A one-line description (Table 1 of the paper).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Renames the kernel (used after transformations like unrolling to
    /// restore the paper's kernel names).
    pub fn set_name(&mut self, name: impl Into<String>, description: impl Into<String>) {
        self.name = name.into();
        self.description = description.into();
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of values.
    pub fn num_values(&self) -> usize {
        self.value_defs.len()
    }

    /// The operation `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn op(&self, op: OpId) -> &Operation {
        &self.ops[op.index()]
    }

    /// The block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block(&self, block: BlockId) -> &BasicBlock {
        &self.blocks[block.index()]
    }

    /// The region `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    pub fn region(&self, region: RegionId) -> &MemRegion {
        &self.regions[region.index()]
    }

    /// All blocks in execution order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// All regions.
    pub fn regions(&self) -> &[MemRegion] {
        &self.regions
    }

    /// Iterates over all block ids in execution order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::from_raw)
    }

    /// Iterates over all operation ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len()).map(OpId::from_raw)
    }

    /// What defines `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is out of range.
    pub fn value_def(&self, value: ValueId) -> ValueDef {
        self.value_defs[value.index()]
    }

    /// The diagnostic name attached to `value`, if any.
    pub fn value_name(&self, value: ValueId) -> Option<&str> {
        self.value_names[value.index()].as_deref()
    }

    /// The kernel's loop block, if it has one.
    pub fn loop_block(&self) -> Option<BlockId> {
        self.block_ids().find(|&b| self.block(b).is_loop())
    }

    /// All `(op, slot)` uses of `value` as an operation operand.
    pub fn uses(&self, value: ValueId) -> Vec<(OpId, usize)> {
        let mut uses = Vec::new();
        for op in self.op_ids() {
            for (slot, operand) in self.op(op).operands().iter().enumerate() {
                if operand.as_value() == Some(value) {
                    uses.push((op, slot));
                }
            }
        }
        uses
    }

    /// Counts operations by opcode (used by the Table 1 report).
    pub fn opcode_histogram(&self) -> HashMap<Opcode, usize> {
        let mut h = HashMap::new();
        for op in &self.ops {
            *h.entry(op.opcode()).or_insert(0) += 1;
        }
        h
    }

    /// Operations of the loop block (empty if there is no loop).
    pub fn loop_ops(&self) -> &[OpId] {
        match self.loop_block() {
            Some(b) => self.block(b).ops(),
            None => &[],
        }
    }
}

/// Incrementally builds a [`Kernel`].
///
/// # Examples
///
/// ```
/// use csched_ir::{KernelBuilder, Operand};
/// use csched_machine::Opcode;
///
/// let mut kb = KernelBuilder::new("axpy-ish");
/// let data = kb.region("data", true);
/// let lp = kb.loop_block("body");
/// let i = kb.loop_var(lp, 0i64.into());
/// let x = kb.load(lp, data, i.into(), 0i64.into());
/// let y = kb.push(lp, Opcode::IAdd, [x.into(), Operand::from(10i64)]);
/// kb.store(lp, data, Operand::from(100i64), 0i64.into(), y.into());
/// let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
/// kb.set_update(i, i1.into());
/// let kernel = kb.build()?;
/// assert_eq!(kernel.num_ops(), 4);
/// # Ok::<(), csched_ir::KernelError>(())
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    description: String,
    ops: Vec<Operation>,
    value_defs: Vec<ValueDef>,
    value_names: Vec<Option<String>>,
    blocks: Vec<BasicBlock>,
    regions: Vec<MemRegion>,
}

impl KernelBuilder {
    /// Starts a new kernel.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            description: String::new(),
            ops: Vec::new(),
            value_defs: Vec::new(),
            value_names: Vec::new(),
            blocks: Vec::new(),
            regions: Vec::new(),
        }
    }

    /// Sets the kernel's one-line description.
    pub fn description(&mut self, text: impl Into<String>) -> &mut Self {
        self.description = text.into();
        self
    }

    /// Declares a memory region; `iteration_disjoint` asserts that distinct
    /// loop iterations access disjoint addresses in it.
    pub fn region(&mut self, name: impl Into<String>, iteration_disjoint: bool) -> RegionId {
        let id = RegionId::from_raw(self.regions.len());
        self.regions.push(MemRegion {
            name: name.into(),
            iteration_disjoint,
        });
        id
    }

    /// Adds a straight-line block.
    pub fn straight_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::from_raw(self.blocks.len());
        self.blocks.push(BasicBlock {
            name: name.into(),
            ops: Vec::new(),
            is_loop: false,
            loop_vars: Vec::new(),
        });
        id
    }

    /// Adds the loop block (must be the last block added).
    pub fn loop_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::from_raw(self.blocks.len());
        self.blocks.push(BasicBlock {
            name: name.into(),
            ops: Vec::new(),
            is_loop: true,
            loop_vars: Vec::new(),
        });
        id
    }

    fn fresh_value(&mut self, def: ValueDef) -> ValueId {
        let id = ValueId::from_raw(self.value_defs.len());
        self.value_defs.push(def);
        self.value_names.push(None);
        id
    }

    fn push_raw(
        &mut self,
        block: BlockId,
        opcode: Opcode,
        operands: Vec<Operand>,
        region: Option<RegionId>,
    ) -> (OpId, Option<ValueId>) {
        let id = OpId::from_raw(self.ops.len());
        let result = opcode
            .has_result()
            .then(|| self.fresh_value(ValueDef::Op(id)));
        self.ops.push(Operation {
            opcode,
            operands,
            result,
            block,
            region,
        });
        self.blocks[block.index()].ops.push(id);
        (id, result)
    }

    /// Appends a pure, result-producing operation and returns its value.
    ///
    /// # Panics
    ///
    /// Panics if `opcode` produces no result or is a memory/scratchpad
    /// operation (use [`KernelBuilder::load`] / [`KernelBuilder::store`] /
    /// [`KernelBuilder::push_mem`]).
    pub fn push(
        &mut self,
        block: BlockId,
        opcode: Opcode,
        operands: impl IntoIterator<Item = Operand>,
    ) -> ValueId {
        assert!(opcode.has_result(), "{opcode} has no result; use push_mem");
        assert!(
            opcode.is_pure(),
            "{opcode} accesses memory; use push_mem/load/store"
        );
        let (_, result) = self.push_raw(block, opcode, operands.into_iter().collect(), None);
        result.unwrap_or_else(|| unreachable!("checked has_result above"))
    }

    /// Appends a memory or scratchpad operation tagged with `region`.
    pub fn push_mem(
        &mut self,
        block: BlockId,
        opcode: Opcode,
        operands: impl IntoIterator<Item = Operand>,
        region: RegionId,
    ) -> (OpId, Option<ValueId>) {
        assert!(
            opcode.is_memory() || opcode.is_scratchpad(),
            "{opcode} is not a memory operation"
        );
        self.push_raw(block, opcode, operands.into_iter().collect(), Some(region))
    }

    /// Appends a load from `region` at `base + offset`.
    pub fn load(
        &mut self,
        block: BlockId,
        region: RegionId,
        base: Operand,
        offset: Operand,
    ) -> ValueId {
        self.push_mem(block, Opcode::Load, [base, offset], region)
            .1
            .unwrap_or_else(|| unreachable!("loads produce results"))
    }

    /// Appends a store to `region`: `mem[base + offset] = value`.
    pub fn store(
        &mut self,
        block: BlockId,
        region: RegionId,
        base: Operand,
        offset: Operand,
        value: Operand,
    ) -> OpId {
        self.push_mem(block, Opcode::Store, [base, offset, value], region)
            .0
    }

    /// Declares a loop-carried variable of `block` with initial value
    /// `init`; set its per-iteration update with
    /// [`KernelBuilder::set_update`].
    pub fn loop_var(&mut self, block: BlockId, init: Operand) -> ValueId {
        let idx = self.blocks[block.index()].loop_vars.len();
        let value = self.fresh_value(ValueDef::LoopVar(block, idx));
        self.blocks[block.index()].loop_vars.push(LoopVar {
            value,
            init,
            update: init, // placeholder until set_update; validated in build
        });
        value
    }

    /// Sets the end-of-iteration update of loop variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a loop variable.
    // Documented builder contract: passing a non-loop-variable is a
    // caller bug caught at construction time, not a recoverable state.
    #[allow(clippy::panic)]
    pub fn set_update(&mut self, var: ValueId, update: Operand) {
        match self.value_defs[var.index()] {
            ValueDef::LoopVar(block, idx) => {
                self.blocks[block.index()].loop_vars[idx].update = update;
            }
            ValueDef::Op(_) => panic!("{var} is not a loop variable"),
        }
    }

    /// Attaches a diagnostic name to `value`.
    pub fn name_value(&mut self, value: ValueId, name: impl Into<String>) {
        self.value_names[value.index()] = Some(name.into());
    }

    /// Validates and builds the kernel.
    ///
    /// # Errors
    ///
    /// Returns the first [`KernelError`] found: arity mismatches, missing
    /// region tags, use-before-def, malformed loop variables, or a bad
    /// block structure.
    pub fn build(self) -> Result<Kernel, KernelError> {
        let kernel = Kernel {
            name: self.name,
            description: self.description,
            ops: self.ops,
            value_defs: self.value_defs,
            value_names: self.value_names,
            blocks: self.blocks,
            regions: self.regions,
        };
        kernel.validate()?;
        Ok(kernel)
    }
}

impl Kernel {
    /// Validates the structural invariants described on [`KernelError`].
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), KernelError> {
        if self.ops.is_empty() {
            return Err(KernelError::Empty);
        }
        // Loop structure: at most one loop block and it must be last.
        let loops: Vec<_> = self
            .block_ids()
            .filter(|&b| self.block(b).is_loop())
            .collect();
        if loops.len() > 1 {
            return Err(KernelError::BadLoopStructure);
        }
        if let Some(&lb) = loops.first() {
            if lb.index() + 1 != self.blocks.len() {
                return Err(KernelError::BadLoopStructure);
            }
        }
        for b in self.block_ids() {
            if !self.block(b).is_loop() && !self.block(b).loop_vars.is_empty() {
                return Err(KernelError::BadLoopStructure);
            }
        }

        // Visibility: position of each op-defined value.
        // A value is visible to op `o` in block `bo` at position `po` if it
        // is a loop var of `bo`, or defined by an op in an earlier block,
        // or defined earlier in `bo`.
        let mut op_pos: HashMap<OpId, (BlockId, usize)> = HashMap::new();
        for b in self.block_ids() {
            for (i, &op) in self.block(b).ops().iter().enumerate() {
                op_pos.insert(op, (b, i));
            }
        }
        let visible = |value: ValueId, at_block: BlockId, at_pos: usize| -> bool {
            match self.value_def(value) {
                ValueDef::LoopVar(b, _) => b == at_block,
                ValueDef::Op(def_op) => {
                    let (db, dp) = op_pos[&def_op];
                    db.index() < at_block.index() || (db == at_block && dp < at_pos)
                }
            }
        };

        for op_id in self.op_ids() {
            let op = self.op(op_id);
            if op.operands().len() != op.opcode().num_operands() {
                return Err(KernelError::Arity {
                    op: op_id,
                    opcode: op.opcode(),
                    got: op.operands().len(),
                });
            }
            if (op.opcode().is_memory() || op.opcode().is_scratchpad()) && op.region().is_none() {
                return Err(KernelError::MissingRegion { op: op_id });
            }
            let (b, p) = op_pos[&op_id];
            for operand in op.operands() {
                if let Some(v) = operand.as_value() {
                    if !visible(v, b, p) {
                        return Err(KernelError::UseBeforeDef {
                            op: op_id,
                            value: v,
                        });
                    }
                }
            }
        }

        // Loop variables: init must be imm or pre-loop value; update must be
        // imm, a value defined in the loop body, or another loop var of the
        // same block.
        for b in self.block_ids() {
            let block = self.block(b);
            for lv in block.loop_vars() {
                if let Some(v) = lv.init.as_value() {
                    let ok = match self.value_def(v) {
                        ValueDef::Op(def_op) => op_pos[&def_op].0.index() < b.index(),
                        ValueDef::LoopVar(..) => false,
                    };
                    if !ok {
                        return Err(KernelError::BadLoopInit { value: lv.value });
                    }
                }
                match lv.update.as_value() {
                    // The update must be the result of an operation in the
                    // loop body. Chaining to another loop variable would
                    // make intermediate iterations read values no
                    // communication ever routes, and an immediate update
                    // would make the operand read an immediate on some
                    // iterations and a register on others — neither is
                    // expressible with a single read stub.
                    Some(v) => {
                        let ok = match self.value_def(v) {
                            ValueDef::Op(def_op) => op_pos[&def_op].0 == b,
                            ValueDef::LoopVar(..) => false,
                        };
                        if !ok {
                            return Err(KernelError::BadLoopUpdate { value: lv.value });
                        }
                    }
                    None => return Err(KernelError::BadLoopUpdate { value: lv.value }),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_loop() -> Kernel {
        let mut kb = KernelBuilder::new("simple");
        let data = kb.region("data", true);
        let out = kb.region("out", true);
        let pre = kb.straight_block("pre");
        let base = kb.push(pre, Opcode::IAdd, [Operand::from(0i64), 0i64.into()]);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, base.into());
        kb.name_value(i, "i");
        let x = kb.load(lp, data, i.into(), 0i64.into());
        let y = kb.push(lp, Opcode::IAdd, [x.into(), 5i64.into()]);
        kb.store(lp, out, i.into(), 0i64.into(), y.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        kb.build().unwrap()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let k = simple_loop();
        assert_eq!(k.num_ops(), 5);
        assert_eq!(k.blocks().len(), 2);
        let lb = k.loop_block().unwrap();
        assert_eq!(k.block(lb).ops().len(), 4);
        assert_eq!(k.block(lb).loop_vars().len(), 1);
        assert_eq!(k.value_name(k.block(lb).loop_vars()[0].value()), Some("i"));
    }

    #[test]
    fn uses_and_defs() {
        let k = simple_loop();
        let lb = k.loop_block().unwrap();
        let i = k.block(lb).loop_vars()[0].value();
        let uses = k.uses(i);
        assert_eq!(uses.len(), 3); // load addr, store addr, increment
        assert_eq!(k.value_def(i), ValueDef::LoopVar(lb, 0));
    }

    #[test]
    fn rejects_missing_region() {
        // Bypass builder convenience by constructing a raw op via push_mem
        // with the wrong opcode is impossible; instead check arity error.
        let mut kb = KernelBuilder::new("bad");
        let b = kb.straight_block("b");
        // Build an op with wrong arity by using push_raw through push:
        // IAdd with 2 operands is fine; force arity error via direct kernel
        // construction instead.
        let v = kb.push(b, Opcode::IAdd, [Operand::from(1i64), 2i64.into()]);
        let mut k = kb.build().unwrap();
        k.ops[0].operands.pop();
        assert!(matches!(k.validate(), Err(KernelError::Arity { .. })));
        let _ = v;
    }

    #[test]
    fn rejects_use_before_def() {
        let mut kb = KernelBuilder::new("bad");
        let b = kb.straight_block("b");
        let v1 = kb.push(b, Opcode::IAdd, [Operand::from(1i64), 1i64.into()]);
        let v2 = kb.push(b, Opcode::IAdd, [v1.into(), 1i64.into()]);
        let mut k = kb.build().unwrap();
        // Swap the two ops in program order: now op0 uses op1's result.
        k.blocks[0].ops.swap(0, 1);
        assert!(matches!(
            k.validate(),
            Err(KernelError::UseBeforeDef { .. })
        ));
        let _ = v2;
    }

    #[test]
    fn rejects_loop_before_straight_block() {
        let mut kb = KernelBuilder::new("bad");
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        let post = kb.straight_block("post");
        kb.push(post, Opcode::IAdd, [Operand::from(1i64), 1i64.into()]);
        assert_eq!(kb.build().unwrap_err(), KernelError::BadLoopStructure);
    }

    #[test]
    fn rejects_bad_loop_init() {
        let mut kb = KernelBuilder::new("bad");
        let lp = kb.loop_block("body");
        let x = kb.push(lp, Opcode::IAdd, [Operand::from(1i64), 1i64.into()]);
        // init referencing a value defined inside the loop body
        let i = kb.loop_var(lp, x.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        assert!(matches!(kb.build(), Err(KernelError::BadLoopInit { .. })));
    }

    #[test]
    fn rejects_cross_block_loop_update() {
        let mut kb = KernelBuilder::new("bad");
        let pre = kb.straight_block("pre");
        let outside = kb.push(pre, Opcode::IAdd, [Operand::from(1i64), 1i64.into()]);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, outside.into());
        assert!(matches!(kb.build(), Err(KernelError::BadLoopUpdate { .. })));
    }

    #[test]
    fn histogram_counts() {
        let k = simple_loop();
        let h = k.opcode_histogram();
        assert_eq!(h[&Opcode::IAdd], 3);
        assert_eq!(h[&Opcode::Load], 1);
        assert_eq!(h[&Opcode::Store], 1);
    }

    #[test]
    #[should_panic(expected = "has no result")]
    fn push_rejects_store() {
        let mut kb = KernelBuilder::new("bad");
        let b = kb.straight_block("b");
        kb.push(b, Opcode::Store, [Operand::from(0i64), 0i64.into()]);
    }

    #[test]
    fn empty_kernel_rejected() {
        assert_eq!(
            KernelBuilder::new("empty").build().unwrap_err(),
            KernelError::Empty
        );
    }
}
