//! Architecture descriptions: functional units, register files, buses and
//! the connectivity between them.
//!
//! The model is deliberately uniform: *every* transfer of a value goes
//! functional-unit output → bus → register-file write port on the producing
//! side, and register-file read port → bus → functional-unit input on the
//! consuming side. Architectures with dedicated wires (the central and
//! clustered register files of the paper) are expressed with
//! single-driver/single-receiver buses, so the scheduler needs no special
//! cases.

use std::collections::HashMap;
use std::fmt;

use crate::ids::{BusId, FuId, InputRef, ReadPortId, RfId, WritePortId};
use crate::op::{Capability, Opcode};
use crate::stub::{ReadStub, WriteStub};

/// Broad classification of a functional unit, used for display, for cost
/// accounting, and by architecture builders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FuClass {
    /// General ALU (the paper's adders).
    Alu,
    /// Multiplier.
    Mul,
    /// Divider / square-root unit.
    Div,
    /// Permutation unit.
    Pu,
    /// Scratchpad unit.
    Sp,
    /// Load/store unit.
    Ls,
    /// Dedicated inter-cluster copy unit (clustered architectures only).
    CopyUnit,
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::Alu => "alu",
            FuClass::Mul => "mul",
            FuClass::Div => "div",
            FuClass::Pu => "pu",
            FuClass::Sp => "sp",
            FuClass::Ls => "ls",
            FuClass::CopyUnit => "copy",
        };
        f.write_str(s)
    }
}

/// A functional unit: a named execution resource with input slots, an
/// optional output, and a set of opcode capabilities.
#[derive(Clone, Debug)]
pub struct FunctionalUnit {
    pub(crate) name: String,
    pub(crate) class: FuClass,
    pub(crate) caps: Vec<Capability>,
    pub(crate) num_inputs: usize,
    pub(crate) has_output: bool,
    /// Maximum number of buses the output may drive simultaneously on one
    /// cycle (always with the same value). The Imagine distributed machine
    /// uses 1; the motivating example's ADD1 "can drive either or both
    /// buses" (2).
    pub(crate) output_fanout: usize,
}

impl FunctionalUnit {
    /// The unit's display name (e.g. `"ADD0"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unit's class.
    pub fn class(&self) -> FuClass {
        self.class
    }

    /// The unit's capability list.
    pub fn capabilities(&self) -> &[Capability] {
        &self.caps
    }

    /// Returns the capability for `op`, if the unit can execute it.
    pub fn capability(&self, op: Opcode) -> Option<Capability> {
        self.caps.iter().copied().find(|c| c.opcode == op)
    }

    /// Whether the unit can execute `op`.
    pub fn can_execute(&self, op: Opcode) -> bool {
        self.capability(op).is_some()
    }

    /// Number of operand input slots.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Whether the unit has a result output.
    pub fn has_output(&self) -> bool {
        self.has_output
    }

    /// Maximum simultaneous buses the output can drive.
    pub fn output_fanout(&self) -> usize {
        self.output_fanout
    }
}

/// A register file: named storage with a capacity and read/write ports.
#[derive(Clone, Debug)]
pub struct RegisterFile {
    pub(crate) name: String,
    pub(crate) capacity: usize,
    pub(crate) read_ports: Vec<ReadPortId>,
    pub(crate) write_ports: Vec<WritePortId>,
}

impl RegisterFile {
    /// The register file's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of registers (words) the file holds. Used by the register
    /// pressure post-pass and the simulator; the scheduler itself follows
    /// the paper in assuming registers are plentiful (§7).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The file's read ports.
    pub fn read_ports(&self) -> &[ReadPortId] {
        &self.read_ports
    }

    /// The file's write ports.
    pub fn write_ports(&self) -> &[WritePortId] {
        &self.write_ports
    }
}

/// A bus: carries one value per cycle from one driver to one or more
/// receivers.
#[derive(Clone, Debug)]
pub struct Bus {
    pub(crate) name: String,
}

impl Bus {
    /// The bus's display name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Errors produced when validating an architecture description.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArchError {
    /// A functional unit has a capability producing results but no output.
    OutputlessProducer {
        /// The offending unit.
        fu: FuId,
        /// The capability that needs an output.
        opcode: Opcode,
    },
    /// A functional unit has a capability with more operands than the unit
    /// has input slots.
    NotEnoughInputs {
        /// The offending unit.
        fu: FuId,
        /// The capability that needs more inputs.
        opcode: Opcode,
    },
    /// A unit with an output has no path to any register file.
    UnreachableOutput {
        /// The offending unit.
        fu: FuId,
    },
    /// A unit input used by some capability cannot read from any register
    /// file.
    UnreachableInput {
        /// The offending input.
        input: InputRef,
    },
    /// A bus feeds an input slot at or past its unit's inputs.
    NoSuchInput {
        /// The missing input.
        input: InputRef,
    },
    /// The architecture has no functional units.
    Empty,
    /// `output_fanout` is zero for a unit with an output.
    ZeroFanout {
        /// The offending unit.
        fu: FuId,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::OutputlessProducer { fu, opcode } => {
                write!(f, "unit {fu} executes {opcode} but has no output")
            }
            ArchError::NotEnoughInputs { fu, opcode } => {
                write!(f, "unit {fu} executes {opcode} but has too few inputs")
            }
            ArchError::UnreachableOutput { fu } => {
                write!(f, "output of unit {fu} cannot reach any register file")
            }
            ArchError::UnreachableInput { input } => {
                write!(f, "input {input} cannot read from any register file")
            }
            ArchError::NoSuchInput { input } => {
                write!(f, "input {input} is past its unit's inputs")
            }
            ArchError::Empty => write!(f, "architecture has no functional units"),
            ArchError::ZeroFanout { fu } => {
                write!(f, "unit {fu} has an output with zero fanout")
            }
        }
    }
}

impl std::error::Error for ArchError {}

/// A complete, validated machine description.
///
/// Construct one with [`ArchBuilder`] or use the pre-built Imagine variants
/// in [`crate::imagine`] and the toy machine in [`crate::toy`].
///
/// # Examples
///
/// ```
/// use csched_machine::imagine;
///
/// let arch = imagine::distributed();
/// assert_eq!(arch.num_rfs(), 43); // one register file per FU input
/// assert!(arch.copy_connectivity().is_copy_connected());
/// ```
#[derive(Clone)]
pub struct Architecture {
    pub(crate) name: String,
    pub(crate) fus: Vec<FunctionalUnit>,
    pub(crate) rfs: Vec<RegisterFile>,
    pub(crate) buses: Vec<Bus>,
    /// Register file owning each write port (indexed by `WritePortId`).
    pub(crate) wport_rf: Vec<RfId>,
    /// Register file owning each read port (indexed by `ReadPortId`).
    pub(crate) rport_rf: Vec<RfId>,
    /// Buses each functional unit output can drive.
    pub(crate) output_buses: Vec<Vec<BusId>>,
    /// Write ports each bus can drive.
    pub(crate) bus_wports: Vec<Vec<WritePortId>>,
    /// Buses each read port can drive.
    pub(crate) rport_buses: Vec<Vec<BusId>>,
    /// Inputs each bus can feed, per bus.
    pub(crate) bus_inputs: Vec<Vec<InputRef>>,
    /// Precomputed write stubs per functional unit.
    pub(crate) write_stubs: Vec<Vec<WriteStub>>,
    /// Precomputed read stubs per (fu, slot), indexed by input offset.
    pub(crate) read_stubs: Vec<Vec<ReadStub>>,
    /// Offset of (fu, slot 0) into flattened input-indexed arrays.
    pub(crate) input_offsets: Vec<usize>,
    /// Total number of inputs across all units.
    pub(crate) total_inputs: usize,
}

impl fmt::Debug for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Architecture")
            .field("name", &self.name)
            .field("fus", &self.fus.len())
            .field("rfs", &self.rfs.len())
            .field("buses", &self.buses.len())
            .finish()
    }
}

impl Architecture {
    /// The architecture's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of functional units.
    pub fn num_fus(&self) -> usize {
        self.fus.len()
    }

    /// Number of register files.
    pub fn num_rfs(&self) -> usize {
        self.rfs.len()
    }

    /// Number of buses.
    pub fn num_buses(&self) -> usize {
        self.buses.len()
    }

    /// Total number of write ports across all register files.
    pub fn num_write_ports(&self) -> usize {
        self.wport_rf.len()
    }

    /// Total number of read ports across all register files.
    pub fn num_read_ports(&self) -> usize {
        self.rport_rf.len()
    }

    /// Total number of functional-unit input slots.
    pub fn num_inputs(&self) -> usize {
        self.total_inputs
    }

    /// The functional unit `fu`.
    ///
    /// # Panics
    ///
    /// Panics if `fu` is out of range.
    pub fn fu(&self, fu: FuId) -> &FunctionalUnit {
        &self.fus[fu.index()]
    }

    /// The register file `rf`.
    ///
    /// # Panics
    ///
    /// Panics if `rf` is out of range.
    pub fn rf(&self, rf: RfId) -> &RegisterFile {
        &self.rfs[rf.index()]
    }

    /// The bus `bus`.
    ///
    /// # Panics
    ///
    /// Panics if `bus` is out of range.
    pub fn bus(&self, bus: BusId) -> &Bus {
        &self.buses[bus.index()]
    }

    /// Iterates over all functional unit ids.
    pub fn fu_ids(&self) -> impl Iterator<Item = FuId> + '_ {
        (0..self.fus.len()).map(FuId::from_raw)
    }

    /// Iterates over all register file ids.
    pub fn rf_ids(&self) -> impl Iterator<Item = RfId> + '_ {
        (0..self.rfs.len()).map(RfId::from_raw)
    }

    /// Iterates over all bus ids.
    pub fn bus_ids(&self) -> impl Iterator<Item = BusId> + '_ {
        (0..self.buses.len()).map(BusId::from_raw)
    }

    /// The register file a write port belongs to.
    pub fn write_port_rf(&self, port: WritePortId) -> RfId {
        self.wport_rf[port.index()]
    }

    /// The register file a read port belongs to.
    pub fn read_port_rf(&self, port: ReadPortId) -> RfId {
        self.rport_rf[port.index()]
    }

    /// Buses the output of `fu` can drive.
    pub fn output_buses(&self, fu: FuId) -> &[BusId] {
        &self.output_buses[fu.index()]
    }

    /// Write ports `bus` can drive.
    pub fn bus_write_ports(&self, bus: BusId) -> &[WritePortId] {
        &self.bus_wports[bus.index()]
    }

    /// Buses read port `port` can drive.
    pub fn read_port_buses(&self, port: ReadPortId) -> &[BusId] {
        &self.rport_buses[port.index()]
    }

    /// Inputs `bus` can feed.
    pub fn bus_inputs(&self, bus: BusId) -> &[InputRef] {
        &self.bus_inputs[bus.index()]
    }

    /// Dense index of an input reference, for per-input tables.
    pub fn input_index(&self, input: InputRef) -> usize {
        self.input_offsets[input.fu.index()] + input.slot()
    }

    /// All valid write stubs for results produced on `fu` (paper Fig 15):
    /// every `(output, bus, write port)` path from the unit's output.
    pub fn write_stubs(&self, fu: FuId) -> &[WriteStub] {
        &self.write_stubs[fu.index()]
    }

    /// All valid read stubs for operand `slot` of operations on `fu` (paper
    /// Fig 16): every `(read port, bus, input)` path into the input.
    pub fn read_stubs(&self, fu: FuId, slot: usize) -> &[ReadStub] {
        &self.read_stubs[self.input_index(InputRef::new(fu, slot))]
    }

    /// Register files the output of `fu` can write directly (through one
    /// write stub).
    pub fn writable_rfs(&self, fu: FuId) -> Vec<RfId> {
        let mut rfs: Vec<RfId> = self.write_stubs(fu).iter().map(|s| s.rf).collect();
        rfs.sort_unstable();
        rfs.dedup();
        rfs
    }

    /// Register files input `slot` of `fu` can read directly.
    pub fn readable_rfs(&self, fu: FuId, slot: usize) -> Vec<RfId> {
        let mut rfs: Vec<RfId> = self.read_stubs(fu, slot).iter().map(|s| s.rf).collect();
        rfs.sort_unstable();
        rfs.dedup();
        rfs
    }

    /// Functional units able to execute `op`.
    pub fn fus_for(&self, op: Opcode) -> Vec<FuId> {
        self.fu_ids()
            .filter(|&fu| self.fu(fu).can_execute(op))
            .collect()
    }

    /// Looks up a functional unit by name.
    pub fn fu_by_name(&self, name: &str) -> Option<FuId> {
        self.fu_ids().find(|&fu| self.fu(fu).name() == name)
    }

    /// Looks up a register file by name.
    pub fn rf_by_name(&self, name: &str) -> Option<RfId> {
        self.rf_ids().find(|&rf| self.rf(rf).name() == name)
    }

    /// A multi-line human-readable summary of the machine.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{}: {} FUs, {} RFs, {} buses, {} read ports, {} write ports",
            self.name,
            self.num_fus(),
            self.num_rfs(),
            self.num_buses(),
            self.num_read_ports(),
            self.num_write_ports()
        );
        for fu in self.fu_ids() {
            let u = self.fu(fu);
            let _ = writeln!(
                s,
                "  {} {} ({}): {} inputs, {} write stubs",
                fu,
                u.name(),
                u.class(),
                u.num_inputs(),
                self.write_stubs(fu).len()
            );
        }
        for rf in self.rf_ids() {
            let r = self.rf(rf);
            let _ = writeln!(
                s,
                "  {} {}: {} regs, {}r/{}w ports",
                rf,
                r.name(),
                r.capacity(),
                r.read_ports().len(),
                r.write_ports().len()
            );
        }
        s
    }

    /// A stable 64-bit content hash of the machine's *structure*: unit
    /// classes, capabilities (opcode, latency, issue interval), input
    /// counts, output fanout, register-file capacities and port counts,
    /// and the full output/bus/port/input connectivity — everything the
    /// scheduler and the cost model observe. Names are deliberately
    /// excluded, so two differently-named but structurally identical
    /// machines fingerprint identically; design-space exploration uses
    /// this for candidate dedup and for crash-consistent journal keys.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a tagged byte stream.
        struct Fnv(u64);
        impl Fnv {
            fn eat(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 ^= u64::from(b);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn num(&mut self, n: usize) {
                let mut bytes = [0u8; 9];
                bytes[..8].copy_from_slice(&(n as u64).to_le_bytes());
                bytes[8] = 0xfe; // field separator
                self.eat(&bytes);
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.num(self.num_fus());
        for fu in self.fu_ids() {
            let u = self.fu(fu);
            h.eat(u.class().to_string().as_bytes());
            h.num(u.num_inputs());
            h.num(usize::from(u.has_output()));
            h.num(u.output_fanout());
            h.num(u.capabilities().len());
            for cap in u.capabilities() {
                h.eat(cap.opcode.mnemonic().as_bytes());
                h.num(cap.latency as usize);
                h.num(cap.issue_interval as usize);
            }
            h.num(self.output_buses(fu).len());
            for bus in self.output_buses(fu) {
                h.num(bus.index());
            }
        }
        h.num(self.num_rfs());
        for rf in self.rf_ids() {
            let r = self.rf(rf);
            h.num(r.capacity());
            h.num(r.read_ports().len());
            for &rp in r.read_ports() {
                h.num(rp.index());
            }
            h.num(r.write_ports().len());
            for &wp in r.write_ports() {
                h.num(wp.index());
            }
        }
        h.num(self.num_buses());
        for bus in self.bus_ids() {
            h.num(self.bus_write_ports(bus).len());
            for &wp in self.bus_write_ports(bus) {
                h.num(wp.index());
            }
            h.num(self.bus_inputs(bus).len());
            for input in self.bus_inputs(bus) {
                h.num(input.fu.index());
                h.num(usize::from(input.slot));
            }
        }
        h.num(self.num_read_ports());
        for rp in 0..self.num_read_ports() {
            let rp = crate::ids::ReadPortId::from_raw(rp);
            h.num(self.read_port_rf(rp).index());
            h.num(self.read_port_buses(rp).len());
            for bus in self.read_port_buses(rp) {
                h.num(bus.index());
            }
        }
        h.0
    }
}

/// Incrementally constructs and validates an [`Architecture`].
///
/// # Examples
///
/// ```
/// use csched_machine::{ArchBuilder, FuClass, Opcode, default_capability};
///
/// let mut b = ArchBuilder::new("tiny");
/// let rf = b.register_file("RF", 16);
/// let alu = b.functional_unit("ALU", FuClass::Alu, 2, true,
///     [Opcode::IAdd, Opcode::Copy].iter().map(|&op| default_capability(op)));
/// b.dedicated_write(alu, rf);
/// b.dedicated_read(rf, alu, 0);
/// b.dedicated_read(rf, alu, 1);
/// let arch = b.build()?;
/// assert_eq!(arch.num_fus(), 1);
/// # Ok::<(), csched_machine::ArchError>(())
/// ```
#[derive(Debug)]
pub struct ArchBuilder {
    name: String,
    fus: Vec<FunctionalUnit>,
    rfs: Vec<RegisterFile>,
    buses: Vec<Bus>,
    wport_rf: Vec<RfId>,
    rport_rf: Vec<RfId>,
    output_buses: Vec<Vec<BusId>>,
    bus_wports: Vec<Vec<WritePortId>>,
    rport_buses: Vec<Vec<BusId>>,
    bus_inputs: Vec<Vec<InputRef>>,
}

impl ArchBuilder {
    /// Starts a new architecture description.
    pub fn new(name: impl Into<String>) -> Self {
        ArchBuilder {
            name: name.into(),
            fus: Vec::new(),
            rfs: Vec::new(),
            buses: Vec::new(),
            wport_rf: Vec::new(),
            rport_rf: Vec::new(),
            output_buses: Vec::new(),
            bus_wports: Vec::new(),
            rport_buses: Vec::new(),
            bus_inputs: Vec::new(),
        }
    }

    /// Adds a functional unit and returns its id.
    pub fn functional_unit(
        &mut self,
        name: impl Into<String>,
        class: FuClass,
        num_inputs: usize,
        has_output: bool,
        caps: impl IntoIterator<Item = Capability>,
    ) -> FuId {
        let id = FuId::from_raw(self.fus.len());
        self.fus.push(FunctionalUnit {
            name: name.into(),
            class,
            caps: caps.into_iter().collect(),
            num_inputs,
            has_output,
            output_fanout: 1,
        });
        self.output_buses.push(Vec::new());
        id
    }

    /// Sets how many buses the unit's output may drive on one cycle.
    pub fn set_output_fanout(&mut self, fu: FuId, fanout: usize) {
        self.fus[fu.index()].output_fanout = fanout;
    }

    /// Adds a register file with `capacity` registers and returns its id.
    /// Ports are added separately with [`ArchBuilder::write_port`] and
    /// [`ArchBuilder::read_port`].
    pub fn register_file(&mut self, name: impl Into<String>, capacity: usize) -> RfId {
        let id = RfId::from_raw(self.rfs.len());
        self.rfs.push(RegisterFile {
            name: name.into(),
            capacity,
            read_ports: Vec::new(),
            write_ports: Vec::new(),
        });
        id
    }

    /// Adds a bus and returns its id.
    pub fn bus(&mut self, name: impl Into<String>) -> BusId {
        let id = BusId::from_raw(self.buses.len());
        self.buses.push(Bus { name: name.into() });
        self.bus_wports.push(Vec::new());
        self.bus_inputs.push(Vec::new());
        id
    }

    /// Adds a write port to `rf` and returns its id.
    pub fn write_port(&mut self, rf: RfId) -> WritePortId {
        let id = WritePortId::from_raw(self.wport_rf.len());
        self.wport_rf.push(rf);
        self.rfs[rf.index()].write_ports.push(id);
        id
    }

    /// Adds a read port to `rf` and returns its id.
    pub fn read_port(&mut self, rf: RfId) -> ReadPortId {
        let id = ReadPortId::from_raw(self.rport_rf.len());
        self.rport_rf.push(rf);
        self.rfs[rf.index()].read_ports.push(id);
        self.rport_buses.push(Vec::new());
        id
    }

    /// Allows the output of `fu` to drive `bus`.
    pub fn connect_output(&mut self, fu: FuId, bus: BusId) {
        let list = &mut self.output_buses[fu.index()];
        if !list.contains(&bus) {
            list.push(bus);
        }
    }

    /// Allows `bus` to drive write port `port`.
    pub fn connect_bus_to_write_port(&mut self, bus: BusId, port: WritePortId) {
        let list = &mut self.bus_wports[bus.index()];
        if !list.contains(&port) {
            list.push(port);
        }
    }

    /// Allows read port `port` to drive `bus`.
    pub fn connect_read_port_to_bus(&mut self, port: ReadPortId, bus: BusId) {
        let list = &mut self.rport_buses[port.index()];
        if !list.contains(&bus) {
            list.push(bus);
        }
    }

    /// Allows `bus` to feed input `slot` of `fu`.
    pub fn connect_bus_to_input(&mut self, bus: BusId, fu: FuId, slot: usize) {
        let input = InputRef::new(fu, slot);
        let list = &mut self.bus_inputs[bus.index()];
        if !list.contains(&input) {
            list.push(input);
        }
    }

    /// Convenience: gives `fu` a dedicated path (private bus and write port)
    /// into `rf`, as in central and clustered register files.
    pub fn dedicated_write(&mut self, fu: FuId, rf: RfId) -> (BusId, WritePortId) {
        let bus = self.bus(format!(
            "{}->{}_w",
            self.fus[fu.index()].name,
            self.rfs[rf.index()].name
        ));
        let port = self.write_port(rf);
        self.connect_output(fu, bus);
        self.connect_bus_to_write_port(bus, port);
        (bus, port)
    }

    /// Convenience: gives input `slot` of `fu` a dedicated path (private read
    /// port and bus) from `rf`.
    pub fn dedicated_read(&mut self, rf: RfId, fu: FuId, slot: usize) -> (ReadPortId, BusId) {
        let port = self.read_port(rf);
        let bus = self.bus(format!(
            "{}->{}.in{}_r",
            self.rfs[rf.index()].name,
            self.fus[fu.index()].name,
            slot
        ));
        self.connect_read_port_to_bus(port, bus);
        self.connect_bus_to_input(bus, fu, slot);
        (port, bus)
    }

    /// Validates the description and builds the final [`Architecture`].
    ///
    /// # Errors
    ///
    /// Returns an [`ArchError`] if a unit's capabilities are inconsistent
    /// with its inputs/output, if a bus feeds an input the unit does not
    /// have, or if a used input or output has no path to any register
    /// file.
    pub fn build(self) -> Result<Architecture, ArchError> {
        if self.fus.is_empty() {
            return Err(ArchError::Empty);
        }
        // Per-fu structural validation.
        for (i, fu) in self.fus.iter().enumerate() {
            let id = FuId::from_raw(i);
            for cap in &fu.caps {
                if cap.opcode.has_result() && !fu.has_output {
                    return Err(ArchError::OutputlessProducer {
                        fu: id,
                        opcode: cap.opcode,
                    });
                }
                if cap.opcode.num_operands() > fu.num_inputs {
                    return Err(ArchError::NotEnoughInputs {
                        fu: id,
                        opcode: cap.opcode,
                    });
                }
            }
            if fu.has_output && fu.output_fanout == 0 {
                return Err(ArchError::ZeroFanout { fu: id });
            }
        }

        // Input offsets.
        let mut input_offsets = Vec::with_capacity(self.fus.len());
        let mut total_inputs = 0usize;
        for fu in &self.fus {
            input_offsets.push(total_inputs);
            total_inputs += fu.num_inputs;
        }

        // Precompute write stubs per fu.
        let mut write_stubs: Vec<Vec<WriteStub>> = Vec::with_capacity(self.fus.len());
        for (i, fu) in self.fus.iter().enumerate() {
            let id = FuId::from_raw(i);
            let mut stubs = Vec::new();
            if fu.has_output {
                for &bus in &self.output_buses[i] {
                    for &port in &self.bus_wports[bus.index()] {
                        stubs.push(WriteStub {
                            fu: id,
                            bus,
                            rf: self.wport_rf[port.index()],
                            port,
                        });
                    }
                }
            }
            // A producer must be able to reach some register file.
            let produces = fu.caps.iter().any(|c| c.opcode.has_result());
            if produces && stubs.is_empty() {
                return Err(ArchError::UnreachableOutput { fu: id });
            }
            write_stubs.push(stubs);
        }

        // Precompute read stubs per input, via reverse maps.
        let mut input_buses: Vec<Vec<BusId>> = vec![Vec::new(); total_inputs];
        for (b, inputs) in self.bus_inputs.iter().enumerate() {
            for input in inputs {
                if input.slot() >= self.fus[input.fu.index()].num_inputs {
                    return Err(ArchError::NoSuchInput { input: *input });
                }
                let idx = input_offsets[input.fu.index()] + input.slot();
                input_buses[idx].push(BusId::from_raw(b));
            }
        }
        let mut bus_rports: Vec<Vec<ReadPortId>> = vec![Vec::new(); self.buses.len()];
        for (p, buses) in self.rport_buses.iter().enumerate() {
            for &bus in buses {
                bus_rports[bus.index()].push(ReadPortId::from_raw(p));
            }
        }
        let mut read_stubs: Vec<Vec<ReadStub>> = vec![Vec::new(); total_inputs];
        for (i, fu) in self.fus.iter().enumerate() {
            for slot in 0..fu.num_inputs {
                let input = InputRef::new(FuId::from_raw(i), slot);
                let idx = input_offsets[i] + slot;
                let mut stubs = Vec::new();
                for &bus in &input_buses[idx] {
                    for &port in &bus_rports[bus.index()] {
                        stubs.push(ReadStub {
                            rf: self.rport_rf[port.index()],
                            port,
                            bus,
                            fu: input.fu,
                            slot: input.slot,
                        });
                    }
                }
                // An input used by some capability must be readable.
                let used = fu.caps.iter().any(|c| c.opcode.num_operands() > slot);
                if used && stubs.is_empty() {
                    return Err(ArchError::UnreachableInput { input });
                }
                read_stubs[idx] = stubs;
            }
        }

        // Check that fu names are unique (helps debugging; not an error the
        // scheduler cares about, so only a debug assertion here).
        debug_assert_eq!(
            {
                let mut names: Vec<&str> = self.fus.iter().map(|f| f.name.as_str()).collect();
                names.sort_unstable();
                names.dedup();
                names.len()
            },
            self.fus.len(),
            "functional unit names should be unique"
        );

        Ok(Architecture {
            name: self.name,
            fus: self.fus,
            rfs: self.rfs,
            buses: self.buses,
            wport_rf: self.wport_rf,
            rport_rf: self.rport_rf,
            output_buses: self.output_buses,
            bus_wports: self.bus_wports,
            rport_buses: self.rport_buses,
            bus_inputs: self.bus_inputs,
            write_stubs,
            read_stubs,
            input_offsets,
            total_inputs,
        })
    }
}

/// Per-class counts of the units in an architecture, used in reports.
pub fn class_histogram(arch: &Architecture) -> HashMap<FuClass, usize> {
    let mut h = HashMap::new();
    for fu in arch.fu_ids() {
        *h.entry(arch.fu(fu).class()).or_insert(0) += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::default_capability;

    fn tiny() -> Architecture {
        let mut b = ArchBuilder::new("tiny");
        let rf = b.register_file("RF", 8);
        let alu = b.functional_unit(
            "ALU",
            FuClass::Alu,
            2,
            true,
            [Opcode::IAdd, Opcode::Copy].map(default_capability),
        );
        b.dedicated_write(alu, rf);
        b.dedicated_read(rf, alu, 0);
        b.dedicated_read(rf, alu, 1);
        b.build().expect("tiny machine is valid")
    }

    #[test]
    fn tiny_machine_shape() {
        let a = tiny();
        assert_eq!(a.num_fus(), 1);
        assert_eq!(a.num_rfs(), 1);
        assert_eq!(a.num_buses(), 3); // 1 write + 2 read wires
        assert_eq!(a.num_write_ports(), 1);
        assert_eq!(a.num_read_ports(), 2);
        assert_eq!(a.num_inputs(), 2);
    }

    #[test]
    fn stub_enumeration() {
        let a = tiny();
        let fu = FuId::from_raw(0);
        assert_eq!(a.write_stubs(fu).len(), 1);
        assert_eq!(a.read_stubs(fu, 0).len(), 1);
        assert_eq!(a.read_stubs(fu, 1).len(), 1);
        let ws = a.write_stubs(fu)[0];
        assert_eq!(ws.rf, RfId::from_raw(0));
        let rs = a.read_stubs(fu, 1)[0];
        assert_eq!(rs.slot, 1);
        assert_ne!(a.read_stubs(fu, 0)[0].port, rs.port);
    }

    #[test]
    fn writable_and_readable_rfs() {
        let a = tiny();
        let fu = FuId::from_raw(0);
        assert_eq!(a.writable_rfs(fu), vec![RfId::from_raw(0)]);
        assert_eq!(a.readable_rfs(fu, 0), vec![RfId::from_raw(0)]);
    }

    #[test]
    fn rejects_outputless_producer() {
        let mut b = ArchBuilder::new("bad");
        let _rf = b.register_file("RF", 8);
        b.functional_unit(
            "ALU",
            FuClass::Alu,
            2,
            false,
            [default_capability(Opcode::IAdd)],
        );
        match b.build() {
            Err(ArchError::OutputlessProducer { opcode, .. }) => {
                assert_eq!(opcode, Opcode::IAdd)
            }
            other => panic!("expected OutputlessProducer, got {other:?}"),
        }
    }

    #[test]
    fn rejects_not_enough_inputs() {
        let mut b = ArchBuilder::new("bad");
        let rf = b.register_file("RF", 8);
        let alu = b.functional_unit(
            "ALU",
            FuClass::Alu,
            1,
            true,
            [default_capability(Opcode::IAdd)],
        );
        b.dedicated_write(alu, rf);
        b.dedicated_read(rf, alu, 0);
        assert!(matches!(b.build(), Err(ArchError::NotEnoughInputs { .. })));
    }

    #[test]
    fn rejects_unreachable_output() {
        let mut b = ArchBuilder::new("bad");
        let rf = b.register_file("RF", 8);
        let alu = b.functional_unit(
            "ALU",
            FuClass::Alu,
            2,
            true,
            [default_capability(Opcode::IAdd)],
        );
        b.dedicated_read(rf, alu, 0);
        b.dedicated_read(rf, alu, 1);
        assert!(matches!(
            b.build(),
            Err(ArchError::UnreachableOutput { .. })
        ));
    }

    #[test]
    fn rejects_unreachable_input() {
        let mut b = ArchBuilder::new("bad");
        let rf = b.register_file("RF", 8);
        let alu = b.functional_unit(
            "ALU",
            FuClass::Alu,
            2,
            true,
            [default_capability(Opcode::IAdd)],
        );
        b.dedicated_write(alu, rf);
        b.dedicated_read(rf, alu, 0);
        assert!(matches!(b.build(), Err(ArchError::UnreachableInput { .. })));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            ArchBuilder::new("empty").build().unwrap_err(),
            ArchError::Empty
        );
    }

    #[test]
    fn shared_bus_fanout() {
        // One ALU whose output drives a shared bus reaching two RFs.
        let mut b = ArchBuilder::new("fanout");
        let rf0 = b.register_file("RF0", 8);
        let rf1 = b.register_file("RF1", 8);
        let alu = b.functional_unit(
            "ALU",
            FuClass::Alu,
            2,
            true,
            [default_capability(Opcode::IAdd)],
        );
        let bus = b.bus("SHARED");
        b.connect_output(alu, bus);
        let wp0 = b.write_port(rf0);
        let wp1 = b.write_port(rf1);
        b.connect_bus_to_write_port(bus, wp0);
        b.connect_bus_to_write_port(bus, wp1);
        b.dedicated_read(rf0, alu, 0);
        b.dedicated_read(rf1, alu, 1);
        let a = b.build().unwrap();
        assert_eq!(a.write_stubs(alu).len(), 2);
        assert_eq!(a.writable_rfs(alu), vec![rf0, rf1]);
    }

    #[test]
    fn lookup_by_name() {
        let a = tiny();
        assert_eq!(a.fu_by_name("ALU"), Some(FuId::from_raw(0)));
        assert_eq!(a.rf_by_name("RF"), Some(RfId::from_raw(0)));
        assert_eq!(a.fu_by_name("NOPE"), None);
    }

    #[test]
    fn summary_mentions_name() {
        let a = tiny();
        assert!(a.summary().contains("tiny"));
    }

    #[test]
    fn error_display_nonempty() {
        let e = ArchError::Empty;
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn fingerprint_is_stable_and_name_blind() {
        use crate::imagine;
        // Deterministic across rebuilds of the same structure.
        assert_eq!(
            imagine::distributed().fingerprint(),
            imagine::distributed().fingerprint()
        );
        // The four organisations are structurally distinct.
        let fps: std::collections::HashSet<u64> = imagine::all_variants()
            .iter()
            .map(|a| a.fingerprint())
            .collect();
        assert_eq!(fps.len(), 4);
        // Renaming everything leaves the fingerprint unchanged.
        let mk = |name: &str, fu: &str, rf: &str| {
            let mut b = ArchBuilder::new(name);
            let r = b.register_file(rf, 8);
            let alu = b.functional_unit(
                fu,
                FuClass::Alu,
                2,
                true,
                [Opcode::IAdd, Opcode::Copy]
                    .iter()
                    .map(|&op| crate::op::default_capability(op)),
            );
            b.dedicated_write(alu, r);
            b.dedicated_read(r, alu, 0);
            b.dedicated_read(r, alu, 1);
            b.build().unwrap()
        };
        assert_eq!(
            mk("a", "ALU", "RF").fingerprint(),
            mk("b", "ADDER", "FILE").fingerprint()
        );
        // A structural difference (capacity) changes it.
        let mut b = ArchBuilder::new("c");
        let r = b.register_file("RF", 16);
        let alu = b.functional_unit(
            "ALU",
            FuClass::Alu,
            2,
            true,
            [Opcode::IAdd, Opcode::Copy]
                .iter()
                .map(|&op| crate::op::default_capability(op)),
        );
        b.dedicated_write(alu, r);
        b.dedicated_read(r, alu, 0);
        b.dedicated_read(r, alu, 1);
        assert_ne!(
            b.build().unwrap().fingerprint(),
            mk("a", "ALU", "RF").fingerprint()
        );
    }
}
