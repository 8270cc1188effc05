//! Transactional per-cycle resource tables on dense modulo-indexed
//! occupancy arrays.
//!
//! Communication scheduling is trial-heavy: a placement attempt claims
//! issue slots, outputs, buses and ports, and the whole attempt must be
//! rolled back exactly if any later step fails (paper §4.3: "if
//! communication scheduling fails, any routes assigned to communications
//! to/from the current operation are unassigned"). The table therefore
//! journals every claim and exposes savepoint/rollback.
//!
//! # Hot-path layout (DESIGN.md §14)
//!
//! The table is a flat `Vec` of *cells*, one per `(row, resource)` pair,
//! indexed `row * num_resources + resource_index` with the dense resource
//! indices of [`ResourceMap`]. In modulo mode the row is `cycle mod II`
//! and all `II` rows are allocated up front; in linear mode the row is
//! the cycle itself and rows grow geometrically on demand. A cell is a
//! small inline list of `(payload, refcount)` claims whose capacity is
//! *retained* when the cell empties, so steady-state claims and releases
//! allocate nothing — the previous design paid a hashmap probe (hash +
//! bucket walk) per claim and allocated a fresh list per occupied
//! `(cycle, resource)` key.
//!
//! Savepoint/rollback is an undo log: every mutation appends a
//! [`JournalEntry`] naming the flat cell it touched, a [`Savepoint`] is
//! the journal length, and rolling back pops entries in reverse. A stale
//! savepoint — one that points past the journal's end because an
//! enclosing rollback already unwound past it — trips a debug assertion
//! and is a no-op in release builds.
//!
//! The claim functions come in two forms: a cycle form
//! (`place_write_stub(cycle, ..)`) and a row form
//! (`place_write_stub_at(row, ..)`) taking a [`Row`] resolved once by
//! [`ResourceTable::claim_row`]. The cycle forms are thin wrappers over
//! the row forms; the §4.3 permutation searches, whose participants all
//! share one row, resolve it once per search. The step-3 write-stub
//! search itself lives here as [`WriteSearch`], which memoises each
//! candidate's check against the row's existing claims.
//!
//! The table understands the paper's sharing rules (§4.2):
//!
//! - a functional-unit output produces one result per cycle but may drive
//!   up to `fanout` buses with it;
//! - a bus carries one value per cycle and may broadcast it to several
//!   write ports ("two write stubs for the same result only conflict if
//!   they write to the same register file using different buses or
//!   register file ports");
//! - a write port accepts one (value, bus) pair per cycle;
//! - read-side resources are claimed per consumer operand; the
//!   communications of one operand (e.g. a loop variable's init and
//!   carried communications) share one read stub ("two read stubs for the
//!   same operand conflict if they are not identical").
//!
//! In modulo mode (software pipelining), cycles fold into `cycle mod II`.
//! Linear tables expect non-negative cycles (the driver never schedules
//! below cycle 0); a negative linear cycle is rejected as a conflict.

use csched_ir::Kernel;
use csched_machine::{Architecture, FuId, ReadPortId, ReadStub, Resource, ResourceMap, WriteStub};

use crate::universe::SOpId;

/// How cycles map onto table rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableMode {
    /// Straight-line code: each cycle is its own row.
    Linear,
    /// Modulo scheduling with the given initiation interval.
    Modulo(u32),
}

/// What occupies a resource on a cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Payload {
    /// Issue slot held by an operation.
    Op(SOpId),
    /// Write-side claim: the producing operation (result identity) and the
    /// bus used.
    Write { value: SOpId, bus: u32 },
    /// Write-side bus claim: the value on the bus.
    WriteBus { value: SOpId },
    /// Read-side bus claim: the read port driving the bus.
    ReadBus { port: ReadPortId },
    /// Read-side claim by a consumer operand.
    Read { op: SOpId, slot: u8 },
}

/// A claim journal entry for rollback: the flat cell touched, the payload,
/// and whether it was added (rollback removes) or released (rollback
/// re-adds).
#[derive(Clone, Copy, Debug)]
struct JournalEntry {
    /// Flat cell index `row * num_resources + resource_index`.
    cell: u32,
    payload: Payload,
    /// `true` for claims added, `false` for claims released (rollback
    /// re-adds those).
    added: bool,
}

/// The per-block resource table. See the module docs for the layout.
#[derive(Clone, Debug)]
pub struct ResourceTable {
    mode: TableMode,
    map: ResourceMap,
    /// Number of resources (row stride).
    nres: usize,
    /// Allocated rows (`cells.len() / nres`). Fixed at the II in modulo
    /// mode; grows on demand in linear mode.
    rows: usize,
    /// `cells[row * nres + resource]` = the claims on that resource in
    /// that row. Emptied cells keep their capacity.
    cells: Vec<Vec<(Payload, u32)>>,
    journal: Vec<JournalEntry>,
}

/// A savepoint for rollback: a journal position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Savepoint {
    len: usize,
}

/// A table row resolved by [`ResourceTable::claim_row`]: `cycle mod II`
/// in modulo mode, the cycle itself in linear mode. A resolved row is
/// allocated, so the row forms of the claim functions index it directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row(usize);

impl ResourceTable {
    /// Creates an empty table for an architecture's resources.
    pub fn new(map: ResourceMap, mode: TableMode) -> Self {
        let nres = map.len();
        let rows = match mode {
            TableMode::Linear => 0,
            TableMode::Modulo(ii) => ii.max(1) as usize,
        };
        ResourceTable {
            mode,
            map,
            nres,
            rows,
            cells: vec![Vec::new(); rows * nres],
            journal: Vec::new(),
        }
    }

    /// One empty table per block of `kernel`, in block order: modulo
    /// rows at `ii` for the loop block, linear rows for straight-line
    /// blocks.
    pub(crate) fn per_block(arch: &Architecture, kernel: &Kernel, ii: u32) -> Vec<Self> {
        let map = ResourceMap::new(arch);
        kernel
            .blocks()
            .iter()
            .map(|b| {
                let mode = if b.is_loop() {
                    TableMode::Modulo(ii.max(1))
                } else {
                    TableMode::Linear
                };
                ResourceTable::new(map.clone(), mode)
            })
            .collect()
    }

    /// The table's mode.
    pub fn mode(&self) -> TableMode {
        self.mode
    }

    /// The row `cycle` folds onto, or `None` for a negative linear cycle
    /// (never scheduled; see the module docs).
    #[inline]
    fn fold(&self, cycle: i64) -> Option<usize> {
        match self.mode {
            TableMode::Linear => (cycle >= 0).then_some(cycle as usize),
            TableMode::Modulo(ii) => Some(cycle.rem_euclid(ii as i64) as usize),
        }
    }

    /// Flat cell index for reading: `None` when the row was never
    /// allocated (trivially unoccupied).
    #[inline]
    fn cell_read(&self, cycle: i64, resource: Resource) -> Option<usize> {
        let row = self.allocated_row(cycle)?;
        Some(self.cell(row, resource))
    }

    /// The row `cycle` folds onto if it is allocated.
    #[inline]
    fn allocated_row(&self, cycle: i64) -> Option<Row> {
        self.fold(cycle).filter(|&r| r < self.rows).map(Row)
    }

    /// Flat cell index of `resource` on an allocated row.
    #[inline]
    fn cell(&self, row: Row, resource: Resource) -> usize {
        row.0 * self.nres + self.map.index(resource)
    }

    /// Resolves the row `cycle` folds onto for claiming, growing linear
    /// tables on demand. `None` only for negative linear cycles.
    pub fn claim_row(&mut self, cycle: i64) -> Option<Row> {
        let row = self.fold(cycle)?;
        if row >= self.rows {
            debug_assert!(matches!(self.mode, TableMode::Linear));
            // Geometric growth keeps amortised claim cost O(1); retained
            // cells are reused for the rest of the schedule.
            let new_rows = (row + 1).next_power_of_two().max(8);
            self.cells.resize(new_rows * self.nres, Vec::new());
            self.rows = new_rows;
        }
        Some(Row(row))
    }

    /// Whether `row` is allocated in this table. Rows only ever come from
    /// [`ResourceTable::claim_row`] and tables never shrink, so this fails
    /// only for a row resolved by another, larger table — an engine bug,
    /// refused (debug builds trip an assertion) rather than indexed.
    #[inline]
    fn owns(&self, row: Row) -> bool {
        debug_assert!(row.0 < self.rows, "row from another table");
        row.0 < self.rows
    }

    /// Number of distinct claims on `resource` at `cycle` (0 = free).
    pub fn occupancy(&self, cycle: i64, resource: Resource) -> usize {
        self.cell_read(cycle, resource)
            .map_or(0, |c| self.cells[c].len())
    }

    /// Per-row occupancy of `resource` over the first `rows` rows
    /// (`0..rows`): the table's occupancy histogram for one resource,
    /// used by the metrics layer. For a modulo table, `rows` is normally
    /// the II; rows past the fold repeat. The dense layout makes this a
    /// strided walk over one column — the resource index is resolved
    /// once, not once per row.
    pub fn occupancy_profile(&self, resource: Resource, rows: i64) -> Vec<usize> {
        let n = rows.max(0) as usize;
        let ridx = self.map.index(resource);
        (0..n)
            .map(|r| {
                let row = match self.mode {
                    TableMode::Linear => r,
                    TableMode::Modulo(ii) => r % ii.max(1) as usize,
                };
                if row >= self.rows {
                    0
                } else {
                    self.cells[row * self.nres + ridx].len()
                }
            })
            .collect()
    }

    /// An order-independent digest of the table's current claims (used by
    /// tests to prove that rollback restores state exactly, and handy when
    /// debugging the scheduler).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.is_empty() {
                continue;
            }
            // Entries within a cell are order-independent (swap_remove
            // reorders them): combine per-entry hashes commutatively.
            let mut combined: u64 = 0;
            for entry in cell {
                let mut eh = std::collections::hash_map::DefaultHasher::new();
                entry.hash(&mut eh);
                combined = combined.wrapping_add(eh.finish());
            }
            (i as u64, cell.len() as u64, combined).hash(&mut h);
        }
        h.finish()
    }

    /// Marks the current journal position.
    pub fn savepoint(&self) -> Savepoint {
        Savepoint {
            len: self.journal.len(),
        }
    }

    /// Reverts every claim change (addition or release) made since `sp`.
    pub fn rollback(&mut self, sp: Savepoint) {
        // A savepoint whose position an enclosing rollback has already
        // unwound past is stale. Trip debug builds; in release the loop
        // below does nothing (the placement fails and validation rejects
        // the schedule).
        debug_assert!(
            sp.len <= self.journal.len(),
            "stale savepoint: journal already unwound past it"
        );
        while self.journal.len() > sp.len {
            let Some(entry) = self.journal.pop() else {
                break; // unreachable: the loop condition guarantees an entry
            };
            let list = &mut self.cells[entry.cell as usize];
            if entry.added {
                // A journalled addition always has a matching live claim;
                // tolerate its absence (skip) rather than panic, so a
                // corrupted table degrades into a failed schedule that
                // validation rejects instead of aborting the process.
                let Some(pos) = list.iter().position(|(p, _)| *p == entry.payload) else {
                    debug_assert!(false, "journalled claim missing on rollback");
                    continue;
                };
                if list[pos].1 > 1 {
                    list[pos].1 -= 1;
                } else {
                    list.swap_remove(pos);
                }
            } else {
                // Re-add a released claim.
                match list.iter_mut().find(|(p, _)| *p == entry.payload) {
                    Some((_, count)) => *count += 1,
                    None => list.push((entry.payload, 1)),
                }
            }
        }
    }

    fn release(&mut self, cell: usize, payload: Payload) {
        // Releasing a claim that is not held indicates an engine bug; skip
        // (and trip debug builds) rather than panic — the resulting table
        // can only over-constrain later placements, never corrupt a
        // schedule that validation accepts.
        let list = &mut self.cells[cell];
        let Some(pos) = list.iter().position(|(p, _)| *p == payload) else {
            debug_assert!(false, "released claim missing");
            return;
        };
        if list[pos].1 > 1 {
            list[pos].1 -= 1;
        } else {
            list.swap_remove(pos);
        }
        self.journal.push(JournalEntry {
            cell: cell as u32,
            payload,
            added: false,
        });
    }

    /// Releases one placement of a write stub made with
    /// [`ResourceTable::place_write_stub`] (used when the permutation
    /// search revises a tentative open-communication stub, paper §4.3
    /// step 2/3). The release itself is journalled, so a later rollback
    /// restores the claim. Releasing a stub that was never placed is an
    /// engine bug; it is skipped (debug builds trip an assertion).
    pub fn unplace_write_stub(&mut self, cycle: i64, stub: WriteStub, value: SOpId) {
        let Some(row) = self.allocated_row(cycle) else {
            debug_assert!(false, "released claim on an unallocated row");
            return;
        };
        self.unplace_write_stub_at(row, stub, value);
    }

    /// [`ResourceTable::unplace_write_stub`] on a resolved row.
    pub fn unplace_write_stub_at(&mut self, row: Row, stub: WriteStub, value: SOpId) {
        if !self.owns(row) {
            return;
        }
        let payload = Payload::Write {
            value,
            bus: stub.bus.index() as u32,
        };
        let [o, b, p] = stub.resources();
        self.release(self.cell(row, o), payload);
        self.release(self.cell(row, b), Payload::WriteBus { value });
        self.release(self.cell(row, p), payload);
    }

    /// Releases one placement of a read stub made with
    /// [`ResourceTable::place_read_stub`]. Releasing a stub that was never
    /// placed is an engine bug; it is skipped (debug builds trip an
    /// assertion).
    pub fn unplace_read_stub(&mut self, cycle: i64, stub: ReadStub, op: SOpId, slot: usize) {
        let Some(row) = self.allocated_row(cycle) else {
            debug_assert!(false, "released claim on an unallocated row");
            return;
        };
        self.unplace_read_stub_at(row, stub, op, slot);
    }

    /// [`ResourceTable::unplace_read_stub`] on a resolved row.
    pub fn unplace_read_stub_at(&mut self, row: Row, stub: ReadStub, op: SOpId, slot: usize) {
        if !self.owns(row) {
            return;
        }
        let payload = Payload::Read {
            op,
            slot: slot as u8,
        };
        let [r, b, i] = stub.resources();
        self.release(self.cell(row, r), payload);
        self.release(self.cell(row, b), Payload::ReadBus { port: stub.port });
        self.release(self.cell(row, i), payload);
    }

    /// Applies an admission decision computed by `admit_exclusive` /
    /// `admit_output` against the cell's current claim list, journalling
    /// the addition. `Conflict` must be filtered out by the caller before
    /// mutating anything; it is tolerated here as a no-op (debug builds
    /// trip an assertion) so a logic error degrades into a failed schedule
    /// rather than a corrupted table.
    fn apply_claim(&mut self, cell: usize, payload: Payload, adm: Admission) {
        let list = &mut self.cells[cell];
        match adm {
            Admission::Conflict => {
                debug_assert!(false, "applied a conflicting claim");
                return;
            }
            Admission::Identical(pos) => list[pos].1 += 1,
            Admission::Additional => list.push((payload, 1)),
        }
        self.journal.push(JournalEntry {
            cell: cell as u32,
            payload,
            added: true,
        });
    }

    /// Claims the issue slot of `fu` for `op` on cycles
    /// `cycle .. cycle + interval` (partially pipelined capabilities hold
    /// the unit for several cycles). Leaves the table untouched on failure.
    pub fn place_issue(&mut self, cycle: i64, fu: FuId, interval: u32, op: SOpId) -> bool {
        if let TableMode::Modulo(ii) = self.mode {
            if interval > ii {
                return false; // cannot re-issue fast enough
            }
        }
        // The claimed cycles map to distinct cells (`interval <= II` in
        // modulo mode), so the admissions are independent: check them all
        // read-only, then mutate only when every cycle admits. The failure
        // path touches neither the cells nor the journal, so the hot
        // permutation search never pays for journalling doomed claims.
        let payload = Payload::Op(op);
        for i in 0..interval as i64 {
            let Some(row) = self.claim_row(cycle + i) else {
                return false;
            };
            let cell = self.cell(row, Resource::FuIssue(fu));
            if matches!(
                admit_exclusive(&self.cells[cell], payload),
                Admission::Conflict
            ) {
                return false;
            }
        }
        for i in 0..interval as i64 {
            let Some(row) = self.claim_row(cycle + i) else {
                debug_assert!(false, "claimable row vanished between check and apply");
                return false;
            };
            let cell = self.cell(row, Resource::FuIssue(fu));
            let adm = admit_exclusive(&self.cells[cell], payload);
            self.apply_claim(cell, payload, adm);
        }
        true
    }

    /// Claims the resources of a write stub on `cycle` for the result of
    /// `value` (identified by its producing operation). `fanout` is the
    /// producing unit's maximum simultaneous bus drive count. Leaves the
    /// table untouched on failure.
    pub fn place_write_stub(
        &mut self,
        cycle: i64,
        stub: WriteStub,
        value: SOpId,
        fanout: usize,
    ) -> bool {
        match self.claim_row(cycle) {
            Some(row) => self.place_write_stub_at(row, stub, value, fanout),
            None => false,
        }
    }

    /// [`ResourceTable::place_write_stub`] on a resolved row.
    pub fn place_write_stub_at(
        &mut self,
        row: Row,
        stub: WriteStub,
        value: SOpId,
        fanout: usize,
    ) -> bool {
        if !self.owns(row) {
            return false;
        }
        let wpayload = Payload::Write {
            value,
            bus: stub.bus.index() as u32,
        };

        // The three claims live in distinct cells (distinct resource
        // kinds), so their admissions are independent: resolve every cell,
        // check every admission read-only, and mutate only when all three
        // admit. The failure path touches neither the cells nor the
        // journal.
        let [o, b, p] = stub.resources();
        let (ocell, bcell, pcell) = (self.cell(row, o), self.cell(row, b), self.cell(row, p));

        // Output: one value; up to `fanout` distinct buses.
        let o_adm = admit_output(&self.cells[ocell], wpayload, fanout);
        if matches!(o_adm, Admission::Conflict) {
            return false;
        }
        // Bus: one value, broadcast allowed.
        let b_adm = admit_exclusive(&self.cells[bcell], Payload::WriteBus { value });
        if matches!(b_adm, Admission::Conflict) {
            return false;
        }
        // Write port: one (value, bus) pair.
        let p_adm = admit_exclusive(&self.cells[pcell], wpayload);
        if matches!(p_adm, Admission::Conflict) {
            return false;
        }

        self.apply_claim(ocell, wpayload, o_adm);
        self.apply_claim(bcell, Payload::WriteBus { value }, b_adm);
        self.apply_claim(pcell, wpayload, p_adm);
        true
    }

    /// Claims the resources of a read stub on `cycle` for consumer operand
    /// `(op, slot)`. Leaves the table untouched on failure.
    pub fn place_read_stub(&mut self, cycle: i64, stub: ReadStub, op: SOpId, slot: usize) -> bool {
        match self.claim_row(cycle) {
            Some(row) => self.place_read_stub_at(row, stub, op, slot),
            None => false,
        }
    }

    /// [`ResourceTable::place_read_stub`] on a resolved row.
    pub fn place_read_stub_at(&mut self, row: Row, stub: ReadStub, op: SOpId, slot: usize) -> bool {
        if !self.owns(row) {
            return false;
        }
        let payload = Payload::Read {
            op,
            slot: slot as u8,
        };
        // As in `place_write_stub_at`: distinct cells, so check all three
        // admissions read-only before mutating anything.
        let [r, b, i] = stub.resources();
        let (rcell, bcell, icell) = (self.cell(row, r), self.cell(row, b), self.cell(row, i));

        let r_adm = admit_exclusive(&self.cells[rcell], payload);
        if matches!(r_adm, Admission::Conflict) {
            return false;
        }
        // Bus: shareable between identical source ports (broadcast).
        let b_adm = admit_exclusive(&self.cells[bcell], Payload::ReadBus { port: stub.port });
        if matches!(b_adm, Admission::Conflict) {
            return false;
        }
        let i_adm = admit_exclusive(&self.cells[icell], payload);
        if matches!(i_adm, Admission::Conflict) {
            return false;
        }

        self.apply_claim(rcell, payload, r_adm);
        self.apply_claim(bcell, Payload::ReadBus { port: stub.port }, b_adm);
        self.apply_claim(icell, payload, i_adm);
        true
    }
}

enum Admission {
    /// Same claim already present: bump its refcount.
    Identical(usize),
    /// Compatible new claim.
    Additional,
    /// Incompatible.
    Conflict,
}

/// Admission for resources carrying one claim per cycle: identical claims
/// share (refcounted), anything else conflicts.
fn admit_exclusive(list: &[(Payload, u32)], p: Payload) -> Admission {
    match list.first() {
        Some((e, _)) if *e == p => Admission::Identical(0),
        Some(_) => Admission::Conflict,
        None => Admission::Additional,
    }
}

/// What a unit output's claims say about adding the claim `p`
/// (`Write { value, bus }`): `None` when the output already carries
/// another value; otherwise the position of an identical claim, if any,
/// and the number of distinct buses the output already drives.
fn output_load(list: &[(Payload, u32)], p: Payload) -> Option<(Option<usize>, usize)> {
    let Payload::Write { value, .. } = p else {
        return None;
    };
    // The list is at most `fanout` long: count distinct buses in place
    // instead of allocating a set.
    let mut identical = None;
    let mut buses = 0;
    for (i, (e, _)) in list.iter().enumerate() {
        let Payload::Write { value: ev, bus: eb } = *e else {
            return None;
        };
        if ev != value {
            return None;
        }
        if identical.is_none() && *e == p {
            identical = Some(i);
        }
        let first = !list[..i]
            .iter()
            .any(|(prev, _)| matches!(prev, Payload::Write { bus: pb, .. } if *pb == eb));
        if first {
            buses += 1;
        }
    }
    Some((identical, buses))
}

/// The fanout rule: a unit output admits its value onto a bus it already
/// drives, or onto a new bus while it drives fewer than `fanout`.
fn output_admits(drives_bus: bool, buses: usize, fanout: usize) -> bool {
    drives_bus || buses < fanout
}

/// Admission for a unit's output: one value per cycle, broadcast onto up
/// to `fanout` distinct buses. `p` is the `Write { value, bus }` claim.
fn admit_output(list: &[(Payload, u32)], p: Payload, fanout: usize) -> Admission {
    match output_load(list, p) {
        None => Admission::Conflict,
        Some((Some(pos), _)) => Admission::Identical(pos),
        Some((None, buses)) if output_admits(false, buses, fanout) => Admission::Additional,
        Some(_) => Admission::Conflict,
    }
}

/// What a [`WriteSearch`] knows about one candidate stub.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Memo {
    /// Not yet checked against the row's existing claims.
    Unchecked,
    /// Refused by the row's existing claims: its bus or write port is
    /// held by another claim, or its unit output carries another value.
    /// Chosen stubs only add claims, so it stays refused for the search.
    Refused,
    /// Admitted by the row's existing bus and port claims, with no other
    /// value on the output. Whether the output can drive one more bus
    /// also depends on the stubs chosen in the search, so the output's
    /// existing load is kept: whether it already drives the stub's bus,
    /// and how many distinct buses it drives.
    Open { drives_bus: bool, buses: u32 },
}

impl ResourceTable {
    /// Checks a write stub for `value` against the existing claims of an
    /// allocated row alone, for [`WriteSearch`].
    fn write_memo(&self, row: Row, stub: WriteStub, value: SOpId) -> Memo {
        let wpayload = Payload::Write {
            value,
            bus: stub.bus.index() as u32,
        };
        let [o, b, p] = stub.resources();
        let Some((identical, buses)) = output_load(&self.cells[self.cell(row, o)], wpayload) else {
            return Memo::Refused;
        };
        let bus = admit_exclusive(&self.cells[self.cell(row, b)], Payload::WriteBus { value });
        let port = admit_exclusive(&self.cells[self.cell(row, p)], wpayload);
        if matches!(bus, Admission::Conflict) || matches!(port, Admission::Conflict) {
            return Memo::Refused;
        }
        Memo::Open {
            drives_bus: identical.is_some(),
            buses: buses as u32,
        }
    }
}

/// The §4.3 step-3 search for a non-conflicting assignment of write
/// stubs to the communications written on one table row, with buffers
/// that keep their capacity across searches.
///
/// Participants are added in search order with
/// [`WriteSearch::add_participant`], each with its value, the output
/// fanout of its producing unit and its candidate stubs, best first.
/// [`WriteSearch::run`] backtracks through the candidates in that order
/// and charges one step of its budget per candidate tried. It makes the
/// decisions that placing and releasing each candidate on the table would
/// make, without touching the table: each candidate is checked against
/// the row's existing claims once and the verdict is memoised, and every
/// visit checks it against the stubs chosen so far in the search under
/// the table's sharing rules. On success the winning assignment is
/// claimed once, through the journalled claim path; on failure the table
/// is untouched.
#[derive(Clone, Debug, Default)]
pub struct WriteSearch {
    /// `(value, fanout, index of the first candidate)` per participant.
    parts: Vec<(SOpId, usize, usize)>,
    cand: Vec<WriteStub>,
    memo: Vec<Memo>,
    /// Per participant, the index into `cand` of the candidate being
    /// tried; for the participants before the current one, of the chosen
    /// candidate.
    at: Vec<usize>,
    spent: usize,
    found: bool,
}

impl WriteSearch {
    /// Empties the search for a new set of participants.
    pub fn clear(&mut self) {
        self.parts.clear();
        self.cand.clear();
        self.found = false;
    }

    /// Adds the next participant: the value its stub carries (the
    /// producing operation) and the output fanout of the producing unit.
    /// Returns the buffer to append its candidate stubs to, best first.
    pub fn add_participant(&mut self, value: SOpId, fanout: usize) -> &mut Vec<WriteStub> {
        self.parts.push((value, fanout, self.cand.len()));
        self.found = false;
        &mut self.cand
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the search has no participants.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The stub chosen for participant `i` by the last successful
    /// [`WriteSearch::run`]; `None` before one or after a failed run.
    pub fn chosen(&self, i: usize) -> Option<WriteStub> {
        if !self.found || i >= self.parts.len() {
            return None;
        }
        self.at.get(i).and_then(|&k| self.cand.get(k)).copied()
    }

    /// Candidates tried by the last [`WriteSearch::run`].
    pub fn spent(&self) -> usize {
        self.spent
    }

    /// One past the last candidate of participant `i`.
    fn end(&self, i: usize) -> usize {
        self.parts.get(i + 1).map_or(self.cand.len(), |p| p.2)
    }

    /// Searches for a stub per participant on `row` of `table`, trying
    /// at most `budget` candidates, and claims the assignment found.
    /// Returns `false`, leaving the table untouched, when the budget runs
    /// out or no assignment exists.
    pub fn run(&mut self, table: &mut ResourceTable, row: Row, budget: usize) -> bool {
        self.spent = 0;
        self.found = false;
        if !table.owns(row) {
            return false;
        }
        let n = self.parts.len();
        self.memo.clear();
        self.memo.resize(self.cand.len(), Memo::Unchecked);
        self.at.clear();
        self.at.extend(self.parts.iter().map(|p| p.2));
        let mut i = 0usize;
        while i < n {
            let end = self.end(i);
            let mut advanced = false;
            while self.at[i] < end {
                if self.spent == budget {
                    return false;
                }
                self.spent += 1;
                if self.admits(table, row, i) {
                    advanced = true;
                    break;
                }
                self.at[i] += 1;
            }
            if advanced {
                i += 1;
                if i < n {
                    self.at[i] = self.parts[i].2;
                }
            } else {
                if i == 0 {
                    return false;
                }
                i -= 1;
                self.at[i] += 1;
            }
        }
        for (&(value, fanout, _), &k) in self.parts.iter().zip(&self.at) {
            if !table.place_write_stub_at(row, self.cand[k], value, fanout) {
                debug_assert!(false, "memoised verdict disagreed with the table");
                return false;
            }
        }
        self.found = true;
        true
    }

    /// Whether the table would admit participant `i`'s current candidate
    /// on `row` with the stubs of participants `0..i` placed.
    fn admits(&mut self, table: &ResourceTable, row: Row, i: usize) -> bool {
        let k = self.at[i];
        let stub = self.cand[k];
        let (value, fanout, _) = self.parts[i];
        if self.memo[k] == Memo::Unchecked {
            self.memo[k] = table.write_memo(row, stub, value);
        }
        let Memo::Open {
            mut drives_bus,
            buses,
        } = self.memo[k]
        else {
            return false;
        };
        let mut buses = buses as usize;
        for j in 0..i {
            let c = self.cand[self.at[j]];
            let cvalue = self.parts[j].0;
            // A bus carries one value; a write port takes one
            // (value, bus) pair.
            if c.bus == stub.bus && cvalue != value {
                return false;
            }
            if c.port == stub.port && (cvalue, c.bus) != (value, stub.bus) {
                return false;
            }
            if c.fu != stub.fu {
                continue;
            }
            // A unit output carries one value, onto `fanout` buses.
            if cvalue != value {
                return false;
            }
            if c.bus == stub.bus {
                drives_bus = true;
            } else if !self.drives_existing(j) && !self.chosen_drive(j, c) {
                buses += 1;
            }
        }
        output_admits(drives_bus, buses, fanout)
    }

    /// Whether participant `j`'s chosen stub uses a bus its unit output
    /// already drove before the search.
    fn drives_existing(&self, j: usize) -> bool {
        matches!(
            self.memo[self.at[j]],
            Memo::Open {
                drives_bus: true,
                ..
            }
        )
    }

    /// Whether a participant before `j` chose a stub driving `c`'s bus
    /// from `c`'s unit output (so that bus is already counted).
    fn chosen_drive(&self, j: usize, c: WriteStub) -> bool {
        self.at[..j].iter().any(|&k| {
            let e = self.cand[k];
            e.fu == c.fu && e.bus == c.bus
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csched_machine::{toy, Architecture};

    fn setup() -> (Architecture, ResourceTable) {
        let arch = toy::motivating_example();
        let table = ResourceTable::new(ResourceMap::new(&arch), TableMode::Linear);
        (arch, table)
    }

    fn op(i: usize) -> SOpId {
        SOpId::from_raw(i)
    }

    #[test]
    fn issue_slot_is_exclusive() {
        let (arch, mut t) = setup();
        let fu = arch.fu_by_name("ADD0").unwrap();
        assert!(t.place_issue(0, fu, 1, op(0)));
        assert!(!t.place_issue(0, fu, 1, op(1)));
        assert!(t.place_issue(1, fu, 1, op(1)));
    }

    #[test]
    fn issue_interval_occupies_multiple_cycles() {
        let (arch, mut t) = setup();
        let fu = arch.fu_by_name("ADD0").unwrap();
        assert!(t.place_issue(0, fu, 3, op(0)));
        assert!(!t.place_issue(2, fu, 1, op(1)));
        assert!(t.place_issue(3, fu, 1, op(1)));
    }

    #[test]
    fn bus_conflict_between_different_values() {
        let (arch, mut t) = setup();
        // ADD0 and LS both drive BUS0; two different results on the same
        // cycle conflict — the Figure 6 incorrect-schedule scenario.
        let add0 = arch.fu_by_name("ADD0").unwrap();
        let ls = arch.fu_by_name("LS").unwrap();
        let s_add = arch.write_stubs(add0)[0];
        let s_ls = arch
            .write_stubs(ls)
            .iter()
            .copied()
            .find(|s| s.bus == s_add.bus)
            .unwrap();
        assert!(t.place_write_stub(0, s_add, op(0), 1));
        assert!(!t.place_write_stub(0, s_ls, op(1), 2));
        // A different cycle is fine.
        assert!(t.place_write_stub(1, s_ls, op(1), 2));
    }

    #[test]
    fn bus_broadcast_of_same_value() {
        let (arch, mut t) = setup();
        // LS's BUS1 reaches RF1 and RFC: same value to both ports is legal.
        let ls = arch.fu_by_name("LS").unwrap();
        let stubs: Vec<_> = arch
            .write_stubs(ls)
            .iter()
            .copied()
            .filter(|s| arch.bus(s.bus).name() == "BUS1")
            .collect();
        assert_eq!(stubs.len(), 2);
        assert!(t.place_write_stub(0, stubs[0], op(0), 2));
        assert!(t.place_write_stub(0, stubs[1], op(0), 2));
    }

    #[test]
    fn output_fanout_limits_distinct_buses() {
        let (arch, mut t) = setup();
        let ls = arch.fu_by_name("LS").unwrap();
        let bus0_stub = arch
            .write_stubs(ls)
            .iter()
            .copied()
            .find(|s| arch.bus(s.bus).name() == "BUS0")
            .unwrap();
        let bus1_stub = arch
            .write_stubs(ls)
            .iter()
            .copied()
            .find(|s| arch.bus(s.bus).name() == "BUS1")
            .unwrap();
        // Fanout 1: one bus only.
        assert!(t.place_write_stub(0, bus0_stub, op(0), 1));
        assert!(!t.place_write_stub(0, bus1_stub, op(0), 1));
        // Fanout 2 (LS's real capability): both buses, same value.
        assert!(t.place_write_stub(1, bus0_stub, op(0), 2));
        assert!(t.place_write_stub(1, bus1_stub, op(0), 2));
    }

    #[test]
    fn output_single_value_per_cycle() {
        let (arch, mut t) = setup();
        let ls = arch.fu_by_name("LS").unwrap();
        let stubs = arch.write_stubs(ls);
        assert!(t.place_write_stub(0, stubs[0], op(0), 2));
        let other_bus = stubs
            .iter()
            .copied()
            .find(|s| s.bus != stubs[0].bus)
            .unwrap();
        assert!(!t.place_write_stub(0, other_bus, op(1), 2));
    }

    #[test]
    fn write_port_same_value_different_bus_conflicts() {
        let (arch, mut t) = setup();
        // RFC's shared port is reachable from BUS0 and BUS1. The same value
        // through different buses conflicts (paper §4.2).
        let ls = arch.fu_by_name("LS").unwrap();
        let rfc = arch.rf_by_name("RFC").unwrap();
        let to_rfc: Vec<_> = arch
            .write_stubs(ls)
            .iter()
            .copied()
            .filter(|s| s.rf == rfc)
            .collect();
        assert_eq!(to_rfc.len(), 2);
        assert!(t.place_write_stub(0, to_rfc[0], op(0), 2));
        assert!(!t.place_write_stub(0, to_rfc[1], op(0), 2));
    }

    #[test]
    fn read_stub_dedupe_and_conflict() {
        let (arch, mut t) = setup();
        let add0 = arch.fu_by_name("ADD0").unwrap();
        let stub = arch.read_stubs(add0, 0)[0];
        // Same operand twice (init + carried communications): dedupes.
        assert!(t.place_read_stub(0, stub, op(5), 0));
        assert!(t.place_read_stub(0, stub, op(5), 0));
        // A different operand on the same port conflicts.
        assert!(!t.place_read_stub(0, stub, op(6), 0));
    }

    #[test]
    fn rollback_restores_everything() {
        let (arch, mut t) = setup();
        let add0 = arch.fu_by_name("ADD0").unwrap();
        let stub = arch.write_stubs(add0)[0];
        assert!(t.place_write_stub(0, stub, op(0), 1));
        let sp = t.savepoint();
        assert!(t.place_issue(0, add0, 1, op(1)));
        let rstub = arch.read_stubs(add0, 0)[0];
        assert!(t.place_read_stub(0, rstub, op(1), 0));
        t.rollback(sp);
        // Issue and read slots are free again; the earlier write remains.
        assert!(t.place_issue(0, add0, 1, op(9)));
        assert!(t.place_read_stub(0, rstub, op(9), 0));
        let other = arch.fu_by_name("LS").unwrap();
        let conflicting = arch
            .write_stubs(other)
            .iter()
            .copied()
            .find(|s| s.bus == stub.bus)
            .unwrap();
        assert!(!t.place_write_stub(0, conflicting, op(9), 2));
    }

    #[test]
    fn refcounted_rollback_keeps_shared_claims() {
        let (arch, mut t) = setup();
        let add0 = arch.fu_by_name("ADD0").unwrap();
        let rstub = arch.read_stubs(add0, 0)[0];
        assert!(t.place_read_stub(0, rstub, op(5), 0));
        let sp = t.savepoint();
        assert!(t.place_read_stub(0, rstub, op(5), 0)); // second comm, same operand
        t.rollback(sp);
        // Operand claim is still held by the first communication.
        assert!(!t.place_read_stub(0, rstub, op(6), 0));
    }

    #[test]
    fn modulo_mode_folds_cycles() {
        let (arch, _) = setup();
        let mut t = ResourceTable::new(ResourceMap::new(&arch), TableMode::Modulo(4));
        let fu = arch.fu_by_name("ADD0").unwrap();
        assert!(t.place_issue(1, fu, 1, op(0)));
        // Cycle 5 maps to the same modulo slot.
        assert!(!t.place_issue(5, fu, 1, op(1)));
        assert!(t.place_issue(6, fu, 1, op(1)));
    }

    #[test]
    fn modulo_rejects_interval_beyond_ii() {
        let (arch, _) = setup();
        let mut t = ResourceTable::new(ResourceMap::new(&arch), TableMode::Modulo(3));
        let fu = arch.fu_by_name("ADD0").unwrap();
        assert!(!t.place_issue(0, fu, 4, op(0)));
        assert!(t.place_issue(0, fu, 3, op(0)));
    }

    #[test]
    fn negative_linear_cycle_is_rejected_not_corrupting() {
        let (arch, mut t) = setup();
        let fu = arch.fu_by_name("ADD0").unwrap();
        let fp = t.fingerprint();
        assert!(!t.place_issue(-1, fu, 1, op(0)));
        assert_eq!(t.occupancy(-1, Resource::FuIssue(fu)), 0);
        assert_eq!(t.fingerprint(), fp);
        // Modulo mode folds negatives instead.
        let mut m = ResourceTable::new(ResourceMap::new(&arch), TableMode::Modulo(4));
        assert!(m.place_issue(-1, fu, 1, op(0)));
        assert!(!m.place_issue(3, fu, 1, op(1))); // -1 mod 4 == 3
    }

    #[test]
    fn modulo_profile_repeats_past_the_fold() {
        let (arch, _) = setup();
        let mut t = ResourceTable::new(ResourceMap::new(&arch), TableMode::Modulo(3));
        let fu = arch.fu_by_name("ADD0").unwrap();
        assert!(t.place_issue(1, fu, 1, op(0)));
        assert_eq!(
            t.occupancy_profile(Resource::FuIssue(fu), 7),
            vec![0, 1, 0, 0, 1, 0, 0]
        );
    }

    #[test]
    fn stale_savepoint_is_ignored_in_release() {
        let (arch, mut t) = setup();
        let fu = arch.fu_by_name("ADD0").unwrap();
        let outer = t.savepoint();
        assert!(t.place_issue(0, fu, 1, op(0)));
        let inner = t.savepoint();
        t.rollback(outer);
        // `inner` now points past the journal's end: a stale position.
        // Rolling back to it must not invent claims.
        let fp = t.fingerprint();
        if !cfg!(debug_assertions) {
            t.rollback(inner);
            assert_eq!(t.fingerprint(), fp);
        }
        assert!(inner.len > t.savepoint().len);
    }
}
