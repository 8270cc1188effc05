//! Property tests for the transactional resource table: after any sequence
//! of placements, releases and nested savepoint/rollback pairs, rolling
//! back restores the table's claims exactly; and the sharing rules are
//! honoured under randomly colliding stubs.

use csched_core::{ResourceTable, SOpId, TableMode};
use csched_machine::{toy, Architecture, ResourceMap};
use proptest::prelude::*;

fn arch() -> Architecture {
    toy::motivating_example()
}

#[derive(Clone, Debug)]
enum Action {
    Issue {
        fu: usize,
        cycle: i64,
        op: usize,
    },
    WriteStub {
        fu: usize,
        stub: usize,
        cycle: i64,
        value: usize,
    },
    ReadStub {
        fu: usize,
        slot: usize,
        cycle: i64,
        op: usize,
    },
    Checkpoint,
    Rollback,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..3usize, 0..6i64, 0..8usize).prop_map(|(fu, cycle, op)| Action::Issue { fu, cycle, op }),
        (0..3usize, 0..4usize, 0..6i64, 0..8usize).prop_map(|(fu, stub, cycle, value)| {
            Action::WriteStub {
                fu,
                stub,
                cycle,
                value,
            }
        }),
        (0..3usize, 0..2usize, 0..6i64, 0..8usize).prop_map(|(fu, slot, cycle, op)| {
            Action::ReadStub {
                fu,
                slot,
                cycle,
                op,
            }
        }),
        Just(Action::Checkpoint),
        Just(Action::Rollback),
    ]
}

fn apply(table: &mut ResourceTable, arch: &Architecture, action: &Action) {
    match *action {
        Action::Issue { fu, cycle, op } => {
            let fu = csched_machine::FuId::from_raw(fu);
            let _ = table.place_issue(cycle, fu, 1, SOpId::from_raw(op));
        }
        Action::WriteStub {
            fu,
            stub,
            cycle,
            value,
        } => {
            let fu = csched_machine::FuId::from_raw(fu);
            let stubs = arch.write_stubs(fu);
            if stubs.is_empty() {
                return;
            }
            let stub = stubs[stub % stubs.len()];
            let fanout = arch.fu(fu).output_fanout();
            let _ = table.place_write_stub(cycle, stub, SOpId::from_raw(value), fanout);
        }
        Action::ReadStub {
            fu,
            slot,
            cycle,
            op,
        } => {
            let fu = csched_machine::FuId::from_raw(fu);
            let slot = slot % arch.fu(fu).num_inputs();
            let stubs = arch.read_stubs(fu, slot);
            if stubs.is_empty() {
                return;
            }
            let _ = table.place_read_stub(cycle, stubs[0], SOpId::from_raw(op), slot);
        }
        Action::Checkpoint | Action::Rollback => unreachable!("handled by caller"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Nested savepoint/rollback restores the exact claim state no matter
    /// what happened in between (including failed placements, which must
    /// clean up after themselves).
    #[test]
    fn rollback_is_exact(actions in prop::collection::vec(action_strategy(), 1..60),
                         modulo in prop::option::of(2u32..6)) {
        let arch = arch();
        let mode = match modulo {
            Some(ii) => TableMode::Modulo(ii),
            None => TableMode::Linear,
        };
        let mut table = ResourceTable::new(ResourceMap::new(&arch), mode);
        // Stack of (savepoint, fingerprint-at-savepoint).
        let mut stack = Vec::new();
        for action in &actions {
            match action {
                Action::Checkpoint => {
                    stack.push((table.savepoint(), table.fingerprint()));
                }
                Action::Rollback => {
                    if let Some((sp, fp)) = stack.pop() {
                        table.rollback(sp);
                        prop_assert_eq!(table.fingerprint(), fp, "rollback must be exact");
                    }
                }
                other => apply(&mut table, &arch, other),
            }
        }
        // Unwind everything that remains.
        while let Some((sp, fp)) = stack.pop() {
            table.rollback(sp);
            prop_assert_eq!(table.fingerprint(), fp);
        }
    }

    /// A failed placement leaves the table untouched.
    #[test]
    fn failed_placements_are_clean(actions in prop::collection::vec(action_strategy(), 1..40)) {
        let arch = arch();
        let mut table = ResourceTable::new(ResourceMap::new(&arch), TableMode::Linear);
        for action in &actions {
            if matches!(action, Action::Checkpoint | Action::Rollback) {
                continue;
            }
            let before = table.fingerprint();
            let changed = match *action {
                Action::Issue { fu, cycle, op } => table.place_issue(
                    cycle,
                    csched_machine::FuId::from_raw(fu),
                    1,
                    SOpId::from_raw(op),
                ),
                Action::WriteStub { fu, stub, cycle, value } => {
                    let fu = csched_machine::FuId::from_raw(fu);
                    let stubs = arch.write_stubs(fu);
                    let stub = stubs[stub % stubs.len()];
                    table.place_write_stub(
                        cycle,
                        stub,
                        SOpId::from_raw(value),
                        arch.fu(fu).output_fanout(),
                    )
                }
                Action::ReadStub { fu, slot, cycle, op } => {
                    let fu = csched_machine::FuId::from_raw(fu);
                    let slot = slot % arch.fu(fu).num_inputs();
                    table.place_read_stub(cycle, arch.read_stubs(fu, slot)[0], SOpId::from_raw(op), slot)
                }
                _ => unreachable!(),
            };
            if !changed {
                prop_assert_eq!(table.fingerprint(), before, "failed placement must not mutate");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential model: the dense modulo-indexed table against a reference
// hashmap implementation of the same admission rules (the design the dense
// layout replaced). Every placement decision and every observable occupancy
// count must agree, across savepoint/rollback and stub releases.
// ---------------------------------------------------------------------------

use csched_machine::{FuId, ReadPortId, ReadStub, Resource, WritePortId, WriteStub};
use std::collections::HashMap;

/// Reference mirror of the table's (private) claim payloads, built from
/// public ids only.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RefClaim {
    Op(usize),
    Write { value: usize, bus: usize },
    WriteBus { value: usize },
    ReadBus { port: usize },
    Read { op: usize, slot: usize },
}

enum RefAdmission {
    Identical(usize),
    Additional,
    Conflict,
}

/// The reference table: a hashmap of claim lists keyed by (row, resource),
/// with savepoints implemented by cloning the whole map.
#[derive(Clone, Debug, Default)]
struct RefTable {
    cells: HashMap<(usize, Resource), Vec<(RefClaim, u32)>>,
}

fn ref_row(mode: TableMode, cycle: i64) -> Option<usize> {
    match mode {
        TableMode::Linear => (cycle >= 0).then_some(cycle as usize),
        TableMode::Modulo(ii) => Some(cycle.rem_euclid(ii as i64) as usize),
    }
}

fn ref_admit_exclusive(list: &[(RefClaim, u32)], p: RefClaim) -> RefAdmission {
    match list.first() {
        Some((e, _)) if *e == p => RefAdmission::Identical(0),
        Some(_) => RefAdmission::Conflict,
        None => RefAdmission::Additional,
    }
}

fn ref_admit_output(
    list: &[(RefClaim, u32)],
    value: usize,
    bus: usize,
    fanout: usize,
) -> RefAdmission {
    for (e, _) in list {
        match e {
            RefClaim::Write { value: ev, .. } if *ev == value => {}
            _ => return RefAdmission::Conflict,
        }
    }
    let p = RefClaim::Write { value, bus };
    if let Some(pos) = list.iter().position(|(e, _)| *e == p) {
        return RefAdmission::Identical(pos);
    }
    let mut buses: Vec<usize> = vec![bus];
    for (e, _) in list {
        if let RefClaim::Write { bus: eb, .. } = e {
            if !buses.contains(eb) {
                buses.push(*eb);
            }
        }
    }
    if buses.len() <= fanout {
        RefAdmission::Additional
    } else {
        RefAdmission::Conflict
    }
}

impl RefTable {
    fn list(&self, row: usize, r: Resource) -> &[(RefClaim, u32)] {
        self.cells.get(&(row, r)).map_or(&[], |v| v.as_slice())
    }

    fn apply(&mut self, row: usize, r: Resource, claim: RefClaim, adm: RefAdmission) {
        let list = self.cells.entry((row, r)).or_default();
        match adm {
            RefAdmission::Identical(pos) => list[pos].1 += 1,
            RefAdmission::Additional => list.push((claim, 1)),
            RefAdmission::Conflict => unreachable!("conflicting claim applied"),
        }
    }

    fn release(&mut self, row: usize, r: Resource, claim: RefClaim) {
        if let Some(list) = self.cells.get_mut(&(row, r)) {
            if let Some(pos) = list.iter().position(|(c, _)| *c == claim) {
                if list[pos].1 > 1 {
                    list[pos].1 -= 1;
                } else {
                    list.swap_remove(pos);
                }
            }
        }
    }

    fn occupancy(&self, mode: TableMode, cycle: i64, r: Resource) -> usize {
        ref_row(mode, cycle).map_or(0, |row| self.list(row, r).len())
    }

    fn place_issue(
        &mut self,
        mode: TableMode,
        cycle: i64,
        fu: FuId,
        interval: u32,
        op: usize,
    ) -> bool {
        if let TableMode::Modulo(ii) = mode {
            if interval > ii {
                return false;
            }
        }
        let claim = RefClaim::Op(op);
        let mut rows = Vec::new();
        for i in 0..interval as i64 {
            let Some(row) = ref_row(mode, cycle + i) else {
                return false;
            };
            rows.push(row);
        }
        for &row in &rows {
            if matches!(
                ref_admit_exclusive(self.list(row, Resource::FuIssue(fu)), claim),
                RefAdmission::Conflict
            ) {
                return false;
            }
        }
        for &row in &rows {
            let adm = ref_admit_exclusive(self.list(row, Resource::FuIssue(fu)), claim);
            self.apply(row, Resource::FuIssue(fu), claim, adm);
        }
        true
    }

    fn place_write_stub(
        &mut self,
        mode: TableMode,
        cycle: i64,
        stub: WriteStub,
        value: usize,
        fanout: usize,
    ) -> bool {
        let Some(row) = ref_row(mode, cycle) else {
            return false;
        };
        let bus = stub.bus.index();
        let wclaim = RefClaim::Write { value, bus };
        let o_adm = ref_admit_output(
            self.list(row, Resource::FuOutput(stub.fu)),
            value,
            bus,
            fanout,
        );
        if matches!(o_adm, RefAdmission::Conflict) {
            return false;
        }
        let b_adm = ref_admit_exclusive(
            self.list(row, Resource::Bus(stub.bus)),
            RefClaim::WriteBus { value },
        );
        if matches!(b_adm, RefAdmission::Conflict) {
            return false;
        }
        let p_adm = ref_admit_exclusive(self.list(row, Resource::WritePort(stub.port)), wclaim);
        if matches!(p_adm, RefAdmission::Conflict) {
            return false;
        }
        self.apply(row, Resource::FuOutput(stub.fu), wclaim, o_adm);
        self.apply(
            row,
            Resource::Bus(stub.bus),
            RefClaim::WriteBus { value },
            b_adm,
        );
        self.apply(row, Resource::WritePort(stub.port), wclaim, p_adm);
        true
    }

    fn place_read_stub(
        &mut self,
        mode: TableMode,
        cycle: i64,
        stub: ReadStub,
        op: usize,
        slot: usize,
    ) -> bool {
        let Some(row) = ref_row(mode, cycle) else {
            return false;
        };
        let claim = RefClaim::Read { op, slot };
        let r_adm = ref_admit_exclusive(self.list(row, Resource::ReadPort(stub.port)), claim);
        if matches!(r_adm, RefAdmission::Conflict) {
            return false;
        }
        let b_adm = ref_admit_exclusive(
            self.list(row, Resource::Bus(stub.bus)),
            RefClaim::ReadBus {
                port: stub.port.index(),
            },
        );
        if matches!(b_adm, RefAdmission::Conflict) {
            return false;
        }
        let i_adm = ref_admit_exclusive(self.list(row, Resource::FuInput(stub.input())), claim);
        if matches!(i_adm, RefAdmission::Conflict) {
            return false;
        }
        self.apply(row, Resource::ReadPort(stub.port), claim, r_adm);
        self.apply(
            row,
            Resource::Bus(stub.bus),
            RefClaim::ReadBus {
                port: stub.port.index(),
            },
            b_adm,
        );
        self.apply(row, Resource::FuInput(stub.input()), claim, i_adm);
        true
    }
}

/// Every resource of `arch`, for exhaustive occupancy comparison.
fn all_resources(arch: &Architecture) -> Vec<Resource> {
    let mut rs = Vec::new();
    for fu in arch.fu_ids() {
        rs.push(Resource::FuIssue(fu));
        rs.push(Resource::FuOutput(fu));
        for slot in 0..arch.fu(fu).num_inputs() {
            for stub in arch.read_stubs(fu, slot) {
                let r = Resource::FuInput(stub.input());
                if !rs.contains(&r) {
                    rs.push(r);
                }
            }
        }
    }
    for b in arch.bus_ids() {
        rs.push(Resource::Bus(b));
    }
    for i in 0..arch.num_write_ports() {
        rs.push(Resource::WritePort(WritePortId::from_raw(i)));
    }
    for i in 0..arch.num_read_ports() {
        rs.push(Resource::ReadPort(ReadPortId::from_raw(i)));
    }
    rs
}

#[derive(Clone, Debug)]
enum MAction {
    Issue {
        fu: usize,
        cycle: i64,
        interval: u32,
        op: usize,
    },
    WriteStub {
        fu: usize,
        stub: usize,
        cycle: i64,
        value: usize,
    },
    ReadStub {
        fu: usize,
        slot: usize,
        stub: usize,
        cycle: i64,
        op: usize,
    },
    UnplaceWrite(usize),
    UnplaceRead(usize),
    Checkpoint,
    Rollback,
}

fn model_action_strategy() -> impl Strategy<Value = MAction> {
    prop_oneof![
        (0..3usize, 0..6i64, 1..3u32, 0..8usize).prop_map(|(fu, cycle, interval, op)| {
            MAction::Issue {
                fu,
                cycle,
                interval,
                op,
            }
        }),
        (0..3usize, 0..8usize, 0..6i64, 0..8usize).prop_map(|(fu, stub, cycle, value)| {
            MAction::WriteStub {
                fu,
                stub,
                cycle,
                value,
            }
        }),
        (0..3usize, 0..2usize, 0..4usize, 0..6i64, 0..8usize).prop_map(
            |(fu, slot, stub, cycle, op)| MAction::ReadStub {
                fu,
                slot,
                stub,
                cycle,
                op,
            }
        ),
        (0..16usize).prop_map(MAction::UnplaceWrite),
        (0..16usize).prop_map(MAction::UnplaceRead),
        Just(MAction::Checkpoint),
        Just(MAction::Rollback),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The dense table and the reference hashmap accept/reject every
    /// placement identically and expose identical occupancy everywhere,
    /// through placements, releases, and nested savepoint/rollback.
    #[test]
    fn dense_table_matches_reference_hashmap(
        actions in prop::collection::vec(model_action_strategy(), 1..80),
        modulo in prop::option::of(2u32..6),
    ) {
        let arch = arch();
        let mode = match modulo {
            Some(ii) => TableMode::Modulo(ii),
            None => TableMode::Linear,
        };
        let mut table = ResourceTable::new(ResourceMap::new(&arch), mode);
        let mut model = RefTable::default();
        let resources = all_resources(&arch);
        // Successful placements eligible for release.
        let mut placed_w: Vec<(i64, WriteStub, usize)> = Vec::new();
        let mut placed_r: Vec<(i64, ReadStub, usize, usize)> = Vec::new();
        let mut stack = Vec::new();
        for action in &actions {
            match *action {
                MAction::Issue { fu, cycle, interval, op } => {
                    let fu = FuId::from_raw(fu);
                    let got = table.place_issue(cycle, fu, interval, SOpId::from_raw(op));
                    let want = model.place_issue(mode, cycle, fu, interval, op);
                    prop_assert_eq!(got, want, "issue decision diverged");
                }
                MAction::WriteStub { fu, stub, cycle, value } => {
                    let fu = FuId::from_raw(fu);
                    let stubs = arch.write_stubs(fu);
                    if stubs.is_empty() {
                        continue;
                    }
                    let stub = stubs[stub % stubs.len()];
                    let fanout = arch.fu(fu).output_fanout();
                    let got = table.place_write_stub(cycle, stub, SOpId::from_raw(value), fanout);
                    let want = model.place_write_stub(mode, cycle, stub, value, fanout);
                    prop_assert_eq!(got, want, "write-stub decision diverged");
                    if got {
                        placed_w.push((cycle, stub, value));
                    }
                }
                MAction::ReadStub { fu, slot, stub, cycle, op } => {
                    let fu = FuId::from_raw(fu);
                    let slot = slot % arch.fu(fu).num_inputs();
                    let stubs = arch.read_stubs(fu, slot);
                    if stubs.is_empty() {
                        continue;
                    }
                    let stub = stubs[stub % stubs.len()];
                    let got = table.place_read_stub(cycle, stub, SOpId::from_raw(op), slot);
                    let want = model.place_read_stub(mode, cycle, stub, op, slot);
                    prop_assert_eq!(got, want, "read-stub decision diverged");
                    if got {
                        placed_r.push((cycle, stub, op, slot));
                    }
                }
                MAction::UnplaceWrite(i) => {
                    if placed_w.is_empty() {
                        continue;
                    }
                    let (cycle, stub, value) = placed_w.swap_remove(i % placed_w.len());
                    table.unplace_write_stub(cycle, stub, SOpId::from_raw(value));
                    if let Some(row) = ref_row(mode, cycle) {
                        let bus = stub.bus.index();
                        let wclaim = RefClaim::Write { value, bus };
                        model.release(row, Resource::FuOutput(stub.fu), wclaim);
                        model.release(row, Resource::Bus(stub.bus), RefClaim::WriteBus { value });
                        model.release(row, Resource::WritePort(stub.port), wclaim);
                    }
                }
                MAction::UnplaceRead(i) => {
                    if placed_r.is_empty() {
                        continue;
                    }
                    let (cycle, stub, op, slot) = placed_r.swap_remove(i % placed_r.len());
                    table.unplace_read_stub(cycle, stub, SOpId::from_raw(op), slot);
                    if let Some(row) = ref_row(mode, cycle) {
                        let claim = RefClaim::Read { op, slot };
                        model.release(row, Resource::ReadPort(stub.port), claim);
                        model.release(
                            row,
                            Resource::Bus(stub.bus),
                            RefClaim::ReadBus { port: stub.port.index() },
                        );
                        model.release(row, Resource::FuInput(stub.input()), claim);
                    }
                }
                MAction::Checkpoint => {
                    stack.push((table.savepoint(), model.clone(), placed_w.clone(), placed_r.clone()));
                }
                MAction::Rollback => {
                    if let Some((sp, m, pw, pr)) = stack.pop() {
                        table.rollback(sp);
                        model = m;
                        placed_w = pw;
                        placed_r = pr;
                    }
                }
            }
            for &r in &resources {
                for cycle in 0..10i64 {
                    prop_assert_eq!(
                        table.occupancy(cycle, r),
                        model.occupancy(mode, cycle, r),
                        "occupancy diverged at cycle {} on {:?}",
                        cycle,
                        r
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential check of the memoised write-stub search: `WriteSearch`
// against a probe-by-probe reference that places and releases every
// candidate on the table. Verdict, chosen stubs, budget spent and the
// resulting claims must all agree.
// ---------------------------------------------------------------------------

use csched_core::WriteSearch;
use csched_machine::{ArchBuilder, Capability, FuClass, Opcode};

/// Three units whose outputs each reach all four buses, and five write
/// ports in three files, most reachable from two buses: rows where
/// sibling broadcasts, shared ports and output fanouts all bind. One
/// read port shares bus 1, so read claims can block write stubs too.
fn crossbar() -> Architecture {
    let mut b = ArchBuilder::new("crossbar");
    let rfs: Vec<_> = (0..3)
        .map(|i| b.register_file(format!("R{i}"), 8))
        .collect();
    let fus: Vec<_> = (0..3)
        .map(|i| {
            b.functional_unit(
                format!("U{i}"),
                FuClass::Alu,
                2,
                true,
                [
                    Capability::new(Opcode::IAdd, 1),
                    Capability::new(Opcode::Copy, 1),
                ],
            )
        })
        .collect();
    let buses: Vec<_> = (0..4).map(|i| b.bus(format!("B{i}"))).collect();
    for &fu in &fus {
        for &bus in &buses {
            b.connect_output(fu, bus);
        }
    }
    let ports: Vec<_> = [0, 0, 1, 1, 2]
        .iter()
        .map(|&r| b.write_port(rfs[r]))
        .collect();
    for (bus, reach) in [
        (0, &[0, 2, 4][..]),
        (1, &[1, 2]),
        (2, &[0, 3, 4]),
        (3, &[1, 3]),
    ] {
        for &p in reach {
            b.connect_bus_to_write_port(buses[bus], ports[p]);
        }
    }
    for (i, &fu) in fus.iter().enumerate() {
        b.dedicated_read(rfs[i], fu, 0);
        b.dedicated_read(rfs[(i + 1) % 3], fu, 1);
    }
    let shared = b.read_port(rfs[0]);
    b.connect_read_port_to_bus(shared, buses[1]);
    b.connect_bus_to_input(buses[1], fus[1], 0);
    b.build().expect("crossbar machine is well-formed")
}

/// A reference participant: value, fanout, candidate stubs best first.
type RefPart = (SOpId, usize, Vec<WriteStub>);

/// Probe-by-probe backtracking over `parts` on `cycle`'s row, charging
/// one step of `budget` per candidate tried. On failure the table is
/// rolled back, so it is left as it was. Returns the verdict, the chosen
/// stubs and the budget spent.
fn probe_search(
    table: &mut ResourceTable,
    cycle: i64,
    parts: &[RefPart],
    budget: usize,
) -> (bool, Vec<WriteStub>, usize) {
    let sp = table.savepoint();
    let n = parts.len();
    let mut pos = vec![0usize; n];
    let mut chosen: Vec<Option<WriteStub>> = vec![None; n];
    let mut spent = 0;
    let mut i = 0;
    while i < n {
        let (value, fanout, cand) = &parts[i];
        let mut advanced = false;
        while pos[i] < cand.len() {
            if spent == budget {
                table.rollback(sp);
                return (false, Vec::new(), spent);
            }
            spent += 1;
            if table.place_write_stub(cycle, cand[pos[i]], *value, *fanout) {
                chosen[i] = Some(cand[pos[i]]);
                advanced = true;
                break;
            }
            pos[i] += 1;
        }
        if advanced {
            i += 1;
            if i < n {
                pos[i] = 0;
            }
        } else {
            if i == 0 {
                table.rollback(sp);
                return (false, Vec::new(), spent);
            }
            i -= 1;
            let stub = chosen[i]
                .take()
                .expect("backtracked to a chosen participant");
            table.unplace_write_stub(cycle, stub, parts[i].0);
            pos[i] += 1;
        }
    }
    (true, chosen.into_iter().flatten().collect(), spent)
}

/// Budgets from tiny (the search runs out) to the engine's default.
fn budget_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![0..6usize, 6..40usize, Just(256usize)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// The memoised search decides exactly as the probe-by-probe search
    /// on random rows: fixed write and read claims around the row, then
    /// participants whose values repeat (sibling communications of one
    /// producer share its unit's output, with fanout 1-3) and whose
    /// candidate lists repeat and collide.
    #[test]
    fn memoised_write_search_matches_probe_search(
        fixed_writes in prop::collection::vec((0..3usize, 0..10usize, 0..8i64, 0..6usize), 0..16),
        fixed_reads in prop::collection::vec((0..3usize, 0..2usize, 0..2usize, 0..8i64, 0..6usize), 0..8),
        parts in prop::collection::vec((0..4usize, prop::collection::vec(0..10usize, 0..7)), 0..8),
        fanouts in (1..=3usize, 1..=3usize, 1..=3usize),
        row in (prop::option::of(2u32..6), 0..6i64),
        budget in budget_strategy(),
    ) {
        let arch = crossbar();
        let (modulo, cycle) = row;
        let mode = match modulo {
            Some(ii) => TableMode::Modulo(ii),
            None => TableMode::Linear,
        };
        let fanout_of = |fu: FuId| [fanouts.0, fanouts.1, fanouts.2][fu.index() % 3];
        let mut table = ResourceTable::new(ResourceMap::new(&arch), mode);
        for &(fu, stub, c, value) in &fixed_writes {
            let fu = FuId::from_raw(fu);
            let stubs = arch.write_stubs(fu);
            let _ = table.place_write_stub(c, stubs[stub % stubs.len()], SOpId::from_raw(value), fanout_of(fu));
        }
        for &(fu, slot, stub, c, op) in &fixed_reads {
            let fu = FuId::from_raw(fu);
            let slot = slot % arch.fu(fu).num_inputs();
            let stubs = arch.read_stubs(fu, slot);
            let _ = table.place_read_stub(c, stubs[stub % stubs.len()], SOpId::from_raw(op), slot);
        }
        // A participant's value fixes its producing unit, so siblings
        // (equal values) share one output.
        let ref_parts: Vec<RefPart> = parts
            .iter()
            .map(|(value, picks)| {
                let fu = FuId::from_raw(value % arch.num_fus());
                let stubs = arch.write_stubs(fu);
                let cand = picks.iter().map(|&k| stubs[k % stubs.len()]).collect();
                (SOpId::from_raw(*value), fanout_of(fu), cand)
            })
            .collect();

        let mut reference = table.clone();
        let (want_ok, want_chosen, want_spent) = probe_search(&mut reference, cycle, &ref_parts, budget);

        let mut search = WriteSearch::default();
        for (value, fanout, cand) in &ref_parts {
            search.add_participant(*value, *fanout).extend(cand.iter().copied());
        }
        let before = table.fingerprint();
        let r = table.claim_row(cycle).expect("non-negative cycle");
        let got_ok = search.run(&mut table, r, budget);
        prop_assert_eq!(got_ok, want_ok, "verdict diverged");
        prop_assert_eq!(search.spent(), want_spent, "budget spent diverged");
        let got_chosen: Vec<WriteStub> = (0..search.len()).filter_map(|i| search.chosen(i)).collect();
        prop_assert_eq!(got_chosen, want_chosen, "chosen stubs diverged");
        prop_assert_eq!(table.fingerprint(), reference.fingerprint(), "claims diverged");
        if !got_ok {
            prop_assert_eq!(table.fingerprint(), before, "a failed search must not claim");
        }
    }
}
