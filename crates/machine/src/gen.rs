//! Deterministic random architecture generation, for property testing and
//! design-space sampling.
//!
//! Two random families are provided, both copy-connected by construction:
//!
//! - [`random_distributed`]: per-input register files over a random number
//!   of shared global buses (every output reaches every file directly);
//! - [`random_clustered`]: two cluster register files with dedicated ports
//!   and copy units bridging both directions (cross-cluster communications
//!   force copy insertion).
//!
//! On top of the random families, [`DesignSpace`] and [`DesignPoint`]
//! parameterise a *systematic* family for design-space exploration: a
//! cross product of register-file organisation (shared files vs.
//! per-input files), ALU count, shared-bus count and write-port count,
//! every point of which covers the full opcode set of the Table 1 kernel
//! suite. Register-file capacity is not an axis: no schedule depends on
//! it, so exploration sizes the files from the schedules' demand instead.
//! Points enumerate in a stable order, sample reproducibly, and mutate
//! into neighbouring points for local search.
//!
//! Generation is seeded and reproducible; the same seed always yields the
//! same machine.

use crate::arch::{ArchBuilder, ArchError, Architecture, FuClass};
use crate::ids::FuId;
use crate::op::{default_capability, Capability, Opcode};

/// Small deterministic generator (xorshift64*) so machine generation does
/// not depend on external crates.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed.
    ///
    /// The seed is passed through a splitmix64 finalizer (the same mixer
    /// as `csched_core::faultinject::ChaosRng`) so that nearby seeds
    /// diverge immediately. The previous `seed | 1` mapping aliased every
    /// even seed `2k` onto `2k + 1`, silently halving the generated
    /// population; the finalizer is a bijection, so distinct seeds now
    /// yield distinct states (0 is remapped because xorshift64* requires
    /// a non-zero state).
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng(if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0 = self.0.wrapping_mul(0x2545F4914F6CDD1D);
        self.0
    }

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }
}

/// Integer opcodes every generated ALU supports (no division or floating
/// point, so differential tests never trap and are bit-exact).
pub const GEN_ALU_OPS: &[Opcode] = &[
    Opcode::IAdd,
    Opcode::ISub,
    Opcode::IMin,
    Opcode::IMax,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::ICmpEq,
    Opcode::ICmpLt,
    Opcode::ICmpLe,
    Opcode::Select,
];

fn caps(ops: &[Opcode]) -> Vec<Capability> {
    ops.iter().map(|&o| default_capability(o)).collect()
}

/// Generates a distributed-style machine: 1–3 ALUs, one multiplier and one
/// load/store unit, per-input register files, 1–4 shared global buses.
pub fn random_distributed(seed: u64) -> Architecture {
    let mut rng = Rng::new(seed.rotate_left(17));
    let alus = 1 + rng.below(3);
    let buses = 1 + rng.below(4);
    let mut b = ArchBuilder::new(format!("gen-dist-{seed:x}"));
    let mut alu_ops: Vec<Opcode> = GEN_ALU_OPS.to_vec();
    alu_ops.push(Opcode::Copy);

    let mut units: Vec<(FuId, usize)> = Vec::new();
    for i in 0..alus {
        units.push((
            b.functional_unit(format!("ALU{i}"), FuClass::Alu, 3, true, caps(&alu_ops)),
            3,
        ));
    }
    units.push((
        b.functional_unit(
            "MUL",
            FuClass::Mul,
            2,
            true,
            caps(&[Opcode::IMul, Opcode::Copy]),
        ),
        2,
    ));
    units.push((
        b.functional_unit(
            "LS",
            FuClass::Ls,
            3,
            true,
            caps(&[Opcode::Load, Opcode::Store]),
        ),
        3,
    ));
    let bus_ids: Vec<_> = (0..buses).map(|i| b.bus(format!("GB{i}"))).collect();
    for &(fu, _) in &units {
        for &bus in &bus_ids {
            b.connect_output(fu, bus);
        }
        if buses > 1 && rng.below(3) == 0 {
            b.set_output_fanout(fu, 2);
        }
    }
    for &(fu, inputs) in &units {
        for slot in 0..inputs {
            let rf = b.register_file(format!("RF_{}_{slot}", fu.index()), 16);
            let wp = b.write_port(rf);
            for &bus in &bus_ids {
                b.connect_bus_to_write_port(bus, wp);
            }
            b.dedicated_read(rf, fu, slot);
        }
    }
    b.build().expect("generated machines are well-formed")
}

/// Generates a two-cluster machine with copy units bridging both
/// directions.
pub fn random_clustered(seed: u64) -> Architecture {
    let mut rng = Rng::new(seed.rotate_left(29));
    let mut b = ArchBuilder::new(format!("gen-clus-{seed:x}"));

    let rf0 = b.register_file("RF0", 32);
    let rf1 = b.register_file("RF1", 32);
    let rfs = [rf0, rf1];

    let assign = |b: &mut ArchBuilder, fu, cluster: usize, inputs: usize| {
        b.dedicated_write(fu, rfs[cluster]);
        for slot in 0..inputs {
            b.dedicated_read(rfs[cluster], fu, slot);
        }
    };
    let alus = 1 + rng.below(2);
    for i in 0..=alus {
        let fu = b.functional_unit(format!("ALU{i}"), FuClass::Alu, 3, true, caps(GEN_ALU_OPS));
        assign(&mut b, fu, i % 2, 3);
    }
    let mul = b.functional_unit("MUL", FuClass::Mul, 2, true, caps(&[Opcode::IMul]));
    assign(&mut b, mul, rng.below(2), 2);
    let ls = b.functional_unit(
        "LS",
        FuClass::Ls,
        3,
        true,
        caps(&[Opcode::Load, Opcode::Store]),
    );
    assign(&mut b, ls, rng.below(2), 3);

    for (from, to) in [(0usize, 1usize), (1, 0)] {
        let cp = b.functional_unit(
            format!("CP{from}"),
            FuClass::CopyUnit,
            1,
            true,
            caps(&[Opcode::Copy]),
        );
        b.dedicated_read(rfs[from], cp, 0);
        b.dedicated_write(cp, rfs[to]);
    }
    b.build().expect("generated machines are well-formed")
}

/// A parameterised design space for systematic architecture search.
///
/// Every axis is inclusive. `clusters == 0` denotes the distributed
/// organisation (one small file per functional unit input); `clusters >=
/// 1` builds that many shared register files with functional units
/// assigned round-robin. The space is the cross product of all four axes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DesignSpace {
    /// Shared register files (0 = per-input distributed organisation).
    pub clusters: (usize, usize),
    /// General ALU count (every point also gets one MUL, DIV and LS unit).
    pub alus: (usize, usize),
    /// Shared global writeback buses.
    pub buses: (usize, usize),
    /// Write ports per register file (each fed by every global bus).
    pub write_ports: (usize, usize),
}

impl Default for DesignSpace {
    /// A 90-point space spanning the paper's organisational spectrum:
    /// distributed (0) through 1–4 shared files, 1–3 ALUs, 1–3 buses and
    /// 1–2 write ports.
    fn default() -> Self {
        DesignSpace {
            clusters: (0, 4),
            alus: (1, 3),
            buses: (1, 3),
            write_ports: (1, 2),
        }
    }
}

fn axis_len(range: (usize, usize)) -> usize {
    range.1.saturating_sub(range.0).saturating_add(1)
}

impl DesignSpace {
    /// Number of points in the space.
    pub fn size(&self) -> usize {
        axis_len(self.clusters)
            * axis_len(self.alus)
            * axis_len(self.buses)
            * axis_len(self.write_ports)
    }

    /// Whether `point` lies inside the space.
    pub fn contains(&self, point: &DesignPoint) -> bool {
        (self.clusters.0..=self.clusters.1).contains(&point.clusters)
            && (self.alus.0..=self.alus.1).contains(&point.alus)
            && (self.buses.0..=self.buses.1).contains(&point.buses)
            && (self.write_ports.0..=self.write_ports.1).contains(&point.write_ports)
    }

    /// Every point of the space, in a stable lexicographic order
    /// (clusters, ALUs, buses, write ports).
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        let mut points = Vec::with_capacity(self.size());
        for clusters in self.clusters.0..=self.clusters.1 {
            for alus in self.alus.0..=self.alus.1 {
                for buses in self.buses.0..=self.buses.1 {
                    for write_ports in self.write_ports.0..=self.write_ports.1 {
                        points.push(DesignPoint {
                            clusters,
                            alus,
                            buses,
                            write_ports,
                        });
                    }
                }
            }
        }
        points
    }

    /// Draws one uniform point (each axis drawn independently).
    ///
    /// Returns `None` when the space is empty (an inverted range).
    pub fn sample(&self, rng: &mut Rng) -> Option<DesignPoint> {
        if self.clusters.0 > self.clusters.1
            || self.alus.0 > self.alus.1
            || self.buses.0 > self.buses.1
            || self.write_ports.0 > self.write_ports.1
        {
            return None;
        }
        let draw = |rng: &mut Rng, range: (usize, usize)| range.0 + rng.below(axis_len(range));
        Some(DesignPoint {
            clusters: draw(rng, self.clusters),
            alus: draw(rng, self.alus),
            buses: draw(rng, self.buses),
            write_ports: draw(rng, self.write_ports),
        })
    }
}

/// One concrete point of a [`DesignSpace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// Shared register files (0 = per-input distributed organisation).
    pub clusters: usize,
    /// General ALU count.
    pub alus: usize,
    /// Shared global writeback buses.
    pub buses: usize,
    /// Write ports per register file.
    pub write_ports: usize,
}

impl DesignPoint {
    /// Registers per file in every machine [`DesignPoint::build`] returns.
    /// No scheduling, validation or simulation stage reads a file's
    /// capacity; design-space exploration re-sizes the files to the
    /// demand of the candidate's schedules before costing them
    /// ([`Architecture::with_rf_capacity`]).
    pub const RF_CAPACITY: usize = 16;

    /// Compact stable label, used as the generated machine's name suffix
    /// (e.g. `c2-a3-b2-w1`; `c0` is the distributed organisation).
    pub fn label(&self) -> String {
        format!(
            "c{}-a{}-b{}-w{}",
            self.clusters, self.alus, self.buses, self.write_ports
        )
    }

    /// The neighbouring points reachable by moving exactly one axis one
    /// step, clipped to the space. Order is stable: axis by axis, down
    /// first, then up.
    pub fn neighbours(&self, space: &DesignSpace) -> Vec<DesignPoint> {
        let mut out = Vec::new();
        let mut push = |p: DesignPoint| {
            if space.contains(&p) && p != *self {
                out.push(p);
            }
        };
        for delta in [-1isize, 1] {
            let step = |v: usize| v.checked_add_signed(delta);
            if let Some(clusters) = step(self.clusters) {
                push(DesignPoint { clusters, ..*self });
            }
            if let Some(alus) = step(self.alus) {
                push(DesignPoint { alus, ..*self });
            }
            if let Some(buses) = step(self.buses) {
                push(DesignPoint { buses, ..*self });
            }
            if let Some(write_ports) = step(self.write_ports) {
                push(DesignPoint {
                    write_ports,
                    ..*self
                });
            }
        }
        out
    }

    /// Builds the architecture for this point.
    ///
    /// Unit mix: `alus` general ALUs (full integer + floating-point
    /// repertoire, `copy`-capable), one multiplier (`imul`/`fmul`/`copy`),
    /// one divider (`fdiv` and friends, `copy`) and one load/store unit —
    /// together covering every opcode the Table 1 kernels use. All
    /// outputs drive all `buses` global buses. With `clusters == 0` every
    /// input gets its own file (the distributed organisation); otherwise
    /// units are assigned round-robin to `clusters` shared files and read
    /// only their own file, while any bus can reach any file's write
    /// ports — so every point is copy-connected by construction.
    ///
    /// # Errors
    ///
    /// Returns the builder's [`ArchError`] if the point describes a
    /// malformed machine (e.g. zero buses or zero write ports).
    pub fn build(&self) -> Result<Architecture, ArchError> {
        let mut b = ArchBuilder::new(format!("dse-{}", self.label()));

        use Opcode::*;
        let alu_ops: Vec<Opcode> = vec![
            IAdd, ISub, INeg, IAbs, IMin, IMax, And, Or, Xor, Not, Shl, Shr, Sra, ICmpEq, ICmpLt,
            ICmpLe, Select, ItoF, FtoI, FAdd, FSub, FNeg, FAbs, FMin, FMax, FCmpEq, FCmpLt, FCmpLe,
            Copy,
        ];

        let mut units: Vec<(FuId, usize)> = Vec::new();
        for i in 0..self.alus {
            let fu = b.functional_unit(format!("ALU{i}"), FuClass::Alu, 3, true, caps(&alu_ops));
            units.push((fu, 3));
        }
        let mul = b.functional_unit("MUL", FuClass::Mul, 2, true, caps(&[IMul, FMul, Copy]));
        units.push((mul, 2));
        let div = b.functional_unit(
            "DIV",
            FuClass::Div,
            2,
            true,
            caps(&[IDiv, IRem, FDiv, FSqrt, Copy]),
        );
        units.push((div, 2));
        let ls = b.functional_unit("LS", FuClass::Ls, 3, true, caps(&[Load, Store]));
        units.push((ls, 3));

        let bus_ids: Vec<_> = (0..self.buses).map(|i| b.bus(format!("GB{i}"))).collect();
        for &(fu, _) in &units {
            for &bus in &bus_ids {
                b.connect_output(fu, bus);
            }
        }

        if self.clusters == 0 {
            // Distributed: one small file per input, write ports fed by
            // every bus, dedicated read path.
            for &(fu, inputs) in &units {
                for slot in 0..inputs {
                    let rf =
                        b.register_file(format!("RF_{}_{slot}", fu.index()), Self::RF_CAPACITY);
                    for _ in 0..self.write_ports {
                        let wp = b.write_port(rf);
                        for &bus in &bus_ids {
                            b.connect_bus_to_write_port(bus, wp);
                        }
                    }
                    b.dedicated_read(rf, fu, slot);
                }
            }
        } else {
            // Shared files: units round-robin across clusters, reads stay
            // inside the cluster, writes reach any file over the buses.
            let rfs: Vec<_> = (0..self.clusters)
                .map(|c| b.register_file(format!("RF{c}"), Self::RF_CAPACITY))
                .collect();
            for &rf in &rfs {
                for _ in 0..self.write_ports {
                    let wp = b.write_port(rf);
                    for &bus in &bus_ids {
                        b.connect_bus_to_write_port(bus, wp);
                    }
                }
            }
            for (i, &(fu, inputs)) in units.iter().enumerate() {
                let rf = rfs[i % self.clusters];
                for slot in 0..inputs {
                    b.dedicated_read(rf, fu, slot);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [1u64, 42, 0xDEAD] {
            let a = random_distributed(seed);
            let b = random_distributed(seed);
            assert_eq!(a.num_fus(), b.num_fus());
            assert_eq!(a.num_rfs(), b.num_rfs());
            assert_eq!(a.num_buses(), b.num_buses());
            assert_eq!(a.name(), b.name());
        }
    }

    #[test]
    fn all_generated_machines_are_copy_connected() {
        for seed in 0..50u64 {
            let d = random_distributed(seed);
            assert!(
                d.copy_connectivity().is_copy_connected(),
                "distributed seed {seed}"
            );
            let c = random_clustered(seed);
            assert!(
                c.copy_connectivity().is_copy_connected(),
                "clustered seed {seed}"
            );
        }
    }

    #[test]
    fn clustered_machines_need_copies_across_clusters() {
        let arch = random_clustered(7);
        let conn = arch.copy_connectivity();
        let rf0 = arch.rf_by_name("RF0").unwrap();
        let rf1 = arch.rf_by_name("RF1").unwrap();
        assert_eq!(conn.copy_distance(rf0, rf1), Some(1));
        assert_eq!(conn.copy_distance(rf1, rf0), Some(1));
    }

    #[test]
    fn generated_machines_round_trip_through_text() {
        for seed in [3u64, 9, 27] {
            let arch = random_distributed(seed);
            let text = crate::text::print(&arch);
            let parsed = crate::text::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(parsed.num_fus(), arch.num_fus());
            assert_eq!(parsed.num_rfs(), arch.num_rfs());
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn rng_rejects_empty_range() {
        Rng::new(1).below(0);
    }

    #[test]
    fn distinct_seeds_have_distinct_streams() {
        // Regression for the `seed | 1` aliasing bug: seeds 2k and 2k+1
        // used to produce identical generators. The splitmix64 finalizer
        // is a bijection and xorshift64*'s state update is invertible, so
        // distinct seeds must yield distinct first outputs.
        let mut firsts: Vec<u64> = (0..256u64).map(|s| Rng::new(s).next_u64()).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 256, "seed aliasing detected");
    }

    #[test]
    fn adjacent_seeds_generate_distinct_machines() {
        // With the old mapping, random_distributed(2k) == random_distributed(2k+1)
        // structurally for every k. Now the pairs must diverge somewhere.
        let distinct_pairs = (0..16u64)
            .filter(|&k| {
                random_distributed(2 * k).fingerprint()
                    != random_distributed(2 * k + 1).fingerprint()
            })
            .count();
        assert!(
            distinct_pairs >= 8,
            "even/odd seed pairs still alias: only {distinct_pairs}/16 distinct"
        );
    }

    #[test]
    fn design_space_enumerates_its_size_in_stable_order() {
        let space = DesignSpace::default();
        let points = space.enumerate();
        assert_eq!(points.len(), space.size());
        assert_eq!(points.len(), 5 * 3 * 3 * 2);
        // Stable lexicographic order, all points in-space and distinct.
        let mut seen = std::collections::HashSet::new();
        for p in &points {
            assert!(space.contains(p));
            assert!(seen.insert(*p), "duplicate point {p:?}");
        }
        assert_eq!(points[0].label(), "c0-a1-b1-w1");
        assert_eq!(points.last().unwrap().label(), "c4-a3-b3-w2");
    }

    #[test]
    fn sampling_is_seeded_and_in_space() {
        let space = DesignSpace::default();
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        for _ in 0..50 {
            let pa = space.sample(&mut a).unwrap();
            let pb = space.sample(&mut b).unwrap();
            assert_eq!(pa, pb);
            assert!(space.contains(&pa));
        }
        let empty = DesignSpace {
            buses: (2, 1),
            ..space
        };
        assert!(empty.sample(&mut a).is_none());
    }

    #[test]
    fn neighbours_move_one_axis_and_stay_in_space() {
        let space = DesignSpace::default();
        let p = DesignPoint {
            clusters: 2,
            alus: 2,
            buses: 2,
            write_ports: 1,
        };
        let ns = p.neighbours(&space);
        // Interior point except write_ports at the lower edge: 2*3 + 1.
        assert_eq!(ns.len(), 7);
        for n in &ns {
            assert!(space.contains(n), "{n:?}");
            let moved = [
                n.clusters != p.clusters,
                n.alus != p.alus,
                n.buses != p.buses,
                n.write_ports != p.write_ports,
            ]
            .iter()
            .filter(|&&m| m)
            .count();
            assert_eq!(moved, 1, "{n:?} moved more than one axis");
        }
        // Corner point: only upward moves remain.
        let corner = DesignPoint {
            clusters: 0,
            alus: 1,
            buses: 1,
            write_ports: 1,
        };
        assert_eq!(corner.neighbours(&space).len(), 4);
    }

    #[test]
    fn every_design_point_builds_copy_connected() {
        for p in DesignSpace::default().enumerate() {
            let arch = p.build().unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert!(
                arch.copy_connectivity().is_copy_connected(),
                "{p:?} not copy-connected"
            );
            assert_eq!(arch.num_fus(), p.alus + 3);
            assert!(arch.num_buses() >= p.buses);
            if p.clusters > 0 {
                assert_eq!(arch.num_rfs(), p.clusters);
            } else {
                assert_eq!(arch.num_rfs(), arch.num_inputs());
            }
        }
    }

    #[test]
    fn fingerprints_separate_design_points() {
        let space = DesignSpace::default();
        let mut fps = std::collections::HashSet::new();
        for p in space.enumerate() {
            let arch = p.build().unwrap();
            assert!(
                fps.insert(arch.fingerprint()),
                "fingerprint collision at {p:?}"
            );
        }
    }
}
