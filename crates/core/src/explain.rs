//! Bottleneck attribution: *why* a schedule's II is what it is.
//!
//! [`crate::metrics::ScheduleMetrics`] reports the
//! achieved II next to its RecMII/ResMII lower bounds;
//! [`explain`] goes one step further and names the **binding
//! constraint** — the paper's central question when comparing the
//! central, clustered, and distributed register-file organisations
//! (Table 1, §7):
//!
//! - **recurrence-bound** (`II == RecMII`): the dependence cycle
//!   achieving the bound is extracted from the [`DepGraph`] and reported
//!   op by op (`Σ latency / Σ distance` realises the RecMII);
//! - **resource-bound** (`II == ResMII`): the functional unit whose
//!   issue load saturates the bound is named, with its spread load in
//!   issue-slots per iteration;
//! - **transport-bound** (`II > max(RecMII, ResMII)`): neither classic
//!   bound explains the II — communication did. The most-occupied
//!   resource at the achieved II (usually a bus or a register-file
//!   port) is named.
//!
//! Alongside the verdict, an [`Explanation`] ranks every resource by
//! occupancy at the achieved II and computes **counterfactual bounds**
//! ("with +1 bus, the aggregate bus bound drops from 7 to 5") under a
//! full-connectivity approximation, the same what-if shape
//! crossbar-sizing methodologies iterate on. Rendered as a text report
//! ([`Explanation::render_text`]) and JSON ([`Explanation::to_json`]);
//! surfaced by `one-cell --explain` / `--explain-json` in `csched-eval`.

use std::collections::HashMap;
use std::fmt::Write as _;

use csched_ir::{DepEdge, DepGraph, Kernel, OpId};
use csched_machine::{Architecture, FuId, ReadPortId, WritePortId};

use crate::driver::min_latency;
use crate::metrics::{BlockOccupancy, ScheduleMetrics};
use crate::schedule::Schedule;
use crate::trace::json_escape;

/// One resource's occupancy at the achieved II, for ranking.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceRank {
    /// Display name (unit name, bus name, or `RF.w0`-style port label).
    pub name: String,
    /// Resource family: `"issue"`, `"bus"`, `"wport"`, or `"rport"`.
    pub kind: &'static str,
    /// Distinct claims on the resource per iteration (loop block) or per
    /// run (straight-line block).
    pub claims: usize,
    /// Rows the claims are spread over (the II for the loop block).
    pub rows: i64,
    /// `claims / rows`: 1.0 means the resource is busy every cycle.
    pub occupancy: f64,
}

/// A what-if lower bound: how an aggregate bound moves when one copy of
/// a resource is added.
///
/// Aggregate bounds assume full connectivity (any claim may use any
/// instance of the resource family), so they are *lower* bounds on the
/// benefit — the real machine's partial connectivity can only do worse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterfactual {
    /// Human description of the change, e.g. `"+1 unit like ADD0"`.
    pub change: String,
    /// The bound the change moves (`"res_mii"`, `"bus_bound"`,
    /// `"write_port_bound"`, `"read_port_bound"`).
    pub metric: String,
    /// The bound before the change.
    pub before: u32,
    /// The bound after the change.
    pub after: u32,
}

/// The constraint that binds the achieved II.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Binding {
    /// The kernel has no loop: there is no II to bind.
    Straightline,
    /// `II == RecMII ≥ ResMII`: a dependence cycle sets the II.
    Recurrence {
        /// The ops on the critical cycle, in dependence order
        /// (`"o4:IAdd"`-style labels).
        path: Vec<String>,
        /// Total latency around the cycle.
        latency: u32,
        /// Total iteration distance around the cycle.
        distance: u32,
    },
    /// `II == ResMII ≥ RecMII`: one unit's issue bandwidth sets the II.
    Resource {
        /// The saturating functional unit.
        resource: String,
        /// Its spread issue load (issue-slots per iteration).
        load: f64,
    },
    /// `II > max(RecMII, ResMII)`: communication resources forced the
    /// scheduler past both classic bounds.
    Transport {
        /// The most-occupied resource at the achieved II.
        resource: String,
        /// That resource's family (`"bus"`, `"wport"`, …).
        kind: &'static str,
        /// Its occupancy at the achieved II.
        occupancy: f64,
    },
}

impl Binding {
    /// Short tag for serialisation: `"straightline"`, `"recurrence"`,
    /// `"resource"`, or `"transport"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Binding::Straightline => "straightline",
            Binding::Recurrence { .. } => "recurrence",
            Binding::Resource { .. } => "resource",
            Binding::Transport { .. } => "transport",
        }
    }
}

/// The full attribution for one scheduled kernel on one architecture.
#[derive(Clone, Debug, PartialEq)]
pub struct Explanation {
    /// Kernel name.
    pub kernel: String,
    /// Architecture name.
    pub arch: String,
    /// Achieved loop II (`None` for loop-free kernels).
    pub ii: Option<u32>,
    /// Recurrence-constrained lower bound (from the [`DepGraph`]).
    pub rec_mii: u32,
    /// Resource-constrained lower bound (from [`crate::res_mii`]).
    pub res_mii: u32,
    /// The binding constraint.
    pub binding: Binding,
    /// Every resource of the profiled block, most occupied first.
    pub ranking: Vec<ResourceRank>,
    /// What-if bounds for the saturating unit, the buses, and the
    /// hottest register file's ports (loop kernels only).
    pub counterfactuals: Vec<Counterfactual>,
}

/// Attributes the achieved II of `schedule` to its binding constraint.
///
/// The verdict agrees with the independent bound computations by
/// construction: recurrence-bound iff `II == RecMII > ResMII`,
/// resource-bound iff `II == ResMII ≥ RecMII`, transport-bound iff the
/// II exceeds both.
pub fn explain(arch: &Architecture, kernel: &Kernel, schedule: &Schedule) -> Explanation {
    let metrics = ScheduleMetrics::compute(arch, kernel, schedule);
    let profiled = metrics
        .blocks
        .iter()
        .find(|b| b.is_loop)
        .or_else(|| metrics.blocks.first());
    let ranking = profiled.map(ranking_of).unwrap_or_default();

    let binding = if kernel.loop_block().is_none() {
        Binding::Straightline
    } else {
        let ii = metrics.ii.unwrap_or(1);
        if ii > metrics.rec_mii.max(metrics.res_mii) {
            let top = top_transport(&ranking);
            Binding::Transport {
                resource: top.map(|r| r.name.clone()).unwrap_or_default(),
                kind: top.map(|r| r.kind).unwrap_or("bus"),
                occupancy: top.map(|r| r.occupancy).unwrap_or(0.0),
            }
        } else if metrics.res_mii >= metrics.rec_mii {
            let (fu, load) = saturating_fu(arch, kernel);
            Binding::Resource {
                resource: fu
                    .map(|f| arch.fu(f).name().to_string())
                    .unwrap_or_default(),
                load,
            }
        } else {
            match critical_cycle(arch, kernel) {
                Some((ops, latency, distance)) => Binding::Recurrence {
                    path: ops
                        .iter()
                        .map(|&o| format!("{o}:{:?}", kernel.op(o).opcode()))
                        .collect(),
                    latency,
                    distance,
                },
                // RecMII > ResMII implies RecMII ≥ 2, so a positive cycle
                // exists at II − 1 and extraction cannot fail; keep a
                // degenerate arm rather than unwrap.
                None => Binding::Recurrence {
                    path: Vec::new(),
                    latency: metrics.rec_mii,
                    distance: 1,
                },
            }
        }
    };

    let counterfactuals = if kernel.loop_block().is_some() {
        counterfactuals_for(arch, kernel, profiled, metrics.res_mii)
    } else {
        Vec::new()
    };

    Explanation {
        kernel: metrics.kernel,
        arch: metrics.arch,
        ii: metrics.ii,
        rec_mii: metrics.rec_mii,
        res_mii: metrics.res_mii,
        binding,
        ranking,
        counterfactuals,
    }
}

/// Flattens one block's occupancy profiles into a ranking, most
/// occupied first (ties broken by family then name, deterministically).
fn ranking_of(block: &BlockOccupancy) -> Vec<ResourceRank> {
    let rows = block.rows.max(1);
    let mut ranking: Vec<ResourceRank> = Vec::new();
    for (kind, loads) in [
        ("issue", &block.fu_issue),
        ("bus", &block.buses),
        ("wport", &block.write_ports),
        ("rport", &block.read_ports),
    ] {
        for load in loads {
            let claims = load.total();
            ranking.push(ResourceRank {
                name: load.name.clone(),
                kind,
                claims,
                rows,
                occupancy: claims as f64 / rows as f64,
            });
        }
    }
    ranking.sort_by(|a, b| {
        b.occupancy
            .total_cmp(&a.occupancy)
            .then_with(|| a.kind.cmp(b.kind))
            .then_with(|| a.name.cmp(&b.name))
    });
    ranking
}

/// The resource to blame when the II beats both classic bounds: the
/// most-occupied one, preferring transport resources (buses, ports)
/// over issue slots on a tie.
fn top_transport(ranking: &[ResourceRank]) -> Option<&ResourceRank> {
    let best = ranking.first()?;
    Some(
        ranking
            .iter()
            .filter(|r| r.occupancy >= best.occupancy - 1e-9)
            .min_by_key(|r| (r.kind == "issue", r.name.clone()))
            .unwrap_or(best),
    )
}

/// The unit whose spread issue load realises the ResMII, with that load
/// (mirrors [`res_mii`]'s load-spreading computation).
fn saturating_fu(arch: &Architecture, kernel: &Kernel) -> (Option<FuId>, f64) {
    let load = fu_load(arch, kernel, None);
    let best = arch
        .fu_ids()
        .max_by(|&a, &b| load[a.index()].total_cmp(&load[b.index()]));
    (best, best.map(|f| load[f.index()]).unwrap_or(0.0))
}

/// The per-unit spread issue load of the loop block, optionally with a
/// ghost clone of `clone_of` added to every candidate set it belongs
/// to. The ghost's load is appended as the last element.
fn fu_load(arch: &Architecture, kernel: &Kernel, clone_of: Option<FuId>) -> Vec<f64> {
    let mut load = vec![0.0f64; arch.num_fus() + 1];
    let Some(lb) = kernel.loop_block() else {
        return load;
    };
    for &op in kernel.block(lb).ops() {
        let opcode = kernel.op(op).opcode();
        let fus = arch.fus_for(opcode);
        if fus.is_empty() {
            continue;
        }
        let ghost = clone_of.and_then(|f| arch.fu(f).capability(opcode).map(|c| (f, c)));
        let n = fus.len() + usize::from(ghost.is_some());
        let share = 1.0 / n as f64;
        for &fu in &fus {
            let interval = arch
                .fu(fu)
                .capability(opcode)
                .map(|c| c.issue_interval)
                .unwrap_or(1);
            load[fu.index()] += share * interval as f64;
        }
        if let Some((_, cap)) = ghost {
            load[arch.num_fus()] += share * cap.issue_interval as f64;
        }
    }
    load
}

/// ResMII if the machine grew one more unit identical to `like`.
fn res_mii_with_clone(arch: &Architecture, kernel: &Kernel, like: FuId) -> u32 {
    fu_load(arch, kernel, Some(like))
        .iter()
        .fold(1.0f64, |a, &b| a.max(b))
        .ceil() as u32
}

fn ceil_div(a: usize, b: usize) -> u32 {
    if b == 0 {
        0
    } else {
        a.div_ceil(b).max(1) as u32
    }
}

/// Aggregate what-if bounds: +1 saturating unit, +1 bus, +1 write/read
/// port on the hottest register file.
fn counterfactuals_for(
    arch: &Architecture,
    kernel: &Kernel,
    block: Option<&BlockOccupancy>,
    res_mii_now: u32,
) -> Vec<Counterfactual> {
    let mut out = Vec::new();
    if let (Some(fu), _) = saturating_fu(arch, kernel) {
        out.push(Counterfactual {
            change: format!("+1 unit like {}", arch.fu(fu).name()),
            metric: "res_mii".to_string(),
            before: res_mii_now,
            after: res_mii_with_clone(arch, kernel, fu),
        });
    }
    let Some(block) = block else {
        return out;
    };
    // Bus aggregate: total transfers per iteration over all buses.
    let bus_claims: usize = block.buses.iter().map(|l| l.total()).sum();
    if bus_claims > 0 && arch.num_buses() > 0 {
        out.push(Counterfactual {
            change: "+1 bus".to_string(),
            metric: "bus_bound".to_string(),
            before: ceil_div(bus_claims, arch.num_buses()),
            after: ceil_div(bus_claims, arch.num_buses() + 1),
        });
    }
    // Hottest register file by write-port claims, then by read-port
    // claims; one counterfactual each.
    let mut wclaims: HashMap<usize, usize> = HashMap::new();
    for (i, l) in block.write_ports.iter().enumerate() {
        let rf = arch.write_port_rf(WritePortId::from_raw(i)).index();
        *wclaims.entry(rf).or_insert(0) += l.total();
    }
    if let Some((&rf, &claims)) = wclaims.iter().max_by_key(|&(rf, c)| (*c, usize::MAX - rf)) {
        let ports = (0..arch.num_write_ports())
            .filter(|&i| arch.write_port_rf(WritePortId::from_raw(i)).index() == rf)
            .count();
        if claims > 0 && ports > 0 {
            out.push(Counterfactual {
                change: format!(
                    "+1 write port on {}",
                    arch.rf(csched_machine::RfId::from_raw(rf)).name()
                ),
                metric: "write_port_bound".to_string(),
                before: ceil_div(claims, ports),
                after: ceil_div(claims, ports + 1),
            });
        }
    }
    let mut rclaims: HashMap<usize, usize> = HashMap::new();
    for (i, l) in block.read_ports.iter().enumerate() {
        let rf = arch.read_port_rf(ReadPortId::from_raw(i)).index();
        *rclaims.entry(rf).or_insert(0) += l.total();
    }
    if let Some((&rf, &claims)) = rclaims.iter().max_by_key(|&(rf, c)| (*c, usize::MAX - rf)) {
        let ports = (0..arch.num_read_ports())
            .filter(|&i| arch.read_port_rf(ReadPortId::from_raw(i)).index() == rf)
            .count();
        if claims > 0 && ports > 0 {
            out.push(Counterfactual {
                change: format!(
                    "+1 read port on {}",
                    arch.rf(csched_machine::RfId::from_raw(rf)).name()
                ),
                metric: "read_port_bound".to_string(),
                before: ceil_div(claims, ports),
                after: ceil_div(claims, ports + 1),
            });
        }
    }
    out
}

/// Extracts a dependence cycle achieving the RecMII: the positive cycle
/// that exists at `II = RecMII − 1`, found by Bellman–Ford with parent
/// tracking. Returns `(ops on the cycle, Σ latency, Σ distance)`.
fn critical_cycle(arch: &Architecture, kernel: &Kernel) -> Option<(Vec<OpId>, u32, u32)> {
    let lb = kernel.loop_block()?;
    let graph = DepGraph::build(kernel, |opc| min_latency(arch, opc));
    let rec = graph.rec_mii(kernel);
    if rec <= 1 {
        return None;
    }
    let ii = (rec - 1) as i64;
    let loop_ops: Vec<OpId> = kernel.block(lb).ops().to_vec();
    let index_of: HashMap<OpId, usize> =
        loop_ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let m = loop_ops.len();
    let edges: Vec<&DepEdge> = graph
        .edges()
        .iter()
        .filter(|e| index_of.contains_key(&e.from) && index_of.contains_key(&e.to))
        .collect();
    let mut dist = vec![0i64; m];
    let mut parent: Vec<Option<usize>> = vec![None; m];
    let mut last_updated: Option<usize> = None;
    for _ in 0..=m {
        last_updated = None;
        for (ei, e) in edges.iter().enumerate() {
            let w = graph.latency(e.from) as i64 - ii * e.distance as i64;
            let (fi, ti) = (*index_of.get(&e.from)?, *index_of.get(&e.to)?);
            if dist[fi] + w > dist[ti] {
                dist[ti] = dist[fi] + w;
                parent[ti] = Some(ei);
                last_updated = Some(ti);
            }
        }
        // Converged: no positive cycle (cannot happen at rec−1).
        last_updated?;
    }
    // Walk m parent steps to land inside the cycle, then collect it.
    let mut x = last_updated?;
    for _ in 0..m {
        x = *index_of.get(&edges[parent[x]?].from)?;
    }
    let start = x;
    let mut cycle_edges: Vec<usize> = Vec::new();
    for _ in 0..=m {
        let ei = parent[x]?;
        cycle_edges.push(ei);
        x = *index_of.get(&edges[ei].from)?;
        if x == start {
            cycle_edges.reverse();
            let ops: Vec<OpId> = cycle_edges.iter().map(|&ei| edges[ei].from).collect();
            let latency: u32 = ops.iter().map(|&o| graph.latency(o)).sum();
            let distance: u32 = cycle_edges.iter().map(|&ei| edges[ei].distance).sum();
            return Some((ops, latency, distance));
        }
    }
    None
}

impl Explanation {
    /// Renders the attribution as a terminal report: the verdict line,
    /// the top of the occupancy ranking, and the counterfactual bounds.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} on {}: II {} (RecMII {}, ResMII {})",
            self.kernel,
            self.arch,
            match self.ii {
                Some(ii) => ii.to_string(),
                None => "-".to_string(),
            },
            self.rec_mii,
            self.res_mii
        );
        match &self.binding {
            Binding::Straightline => {
                let _ = writeln!(
                    out,
                    "  binding: none — the kernel has no loop, no II to bind"
                );
            }
            Binding::Recurrence {
                path,
                latency,
                distance,
            } => {
                let _ = writeln!(
                    out,
                    "  binding: recurrence — cycle [{}] needs {latency} cycles over distance \
                     {distance} (ceil {latency}/{distance} = RecMII {})",
                    path.join(" -> "),
                    self.rec_mii
                );
            }
            Binding::Resource { resource, load } => {
                let _ = writeln!(
                    out,
                    "  binding: resource — issue bandwidth of {resource} (spread load {load:.2} \
                     issue-slots/iteration sets ResMII {})",
                    self.res_mii
                );
            }
            Binding::Transport {
                resource,
                kind,
                occupancy,
            } => {
                let _ = writeln!(
                    out,
                    "  binding: transport — II exceeds both bounds; busiest resource is \
                     {resource} [{kind}] at {:.0}% occupancy",
                    occupancy * 100.0
                );
            }
        }
        let _ = writeln!(out, "  occupancy at the profiled rows (top 10):");
        for r in self.ranking.iter().take(10) {
            let _ = writeln!(
                out,
                "    {:<10} [{:<5}] {:>3}/{:<3} {:>5.1}%",
                r.name,
                r.kind,
                r.claims,
                r.rows,
                r.occupancy * 100.0
            );
        }
        if !self.counterfactuals.is_empty() {
            let _ = writeln!(
                out,
                "  counterfactual bounds (full-connectivity approximation):"
            );
            for c in &self.counterfactuals {
                let _ = writeln!(
                    out,
                    "    {:<24} {} {} -> {}",
                    c.change, c.metric, c.before, c.after
                );
            }
        }
        out
    }

    /// Renders the attribution as one JSON object (stable field order;
    /// consumed by the CI explain smoke step).
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
            self.res_mii
        );
        let _ = write!(s, ",\"binding\":{{\"kind\":\"{}\"", self.binding.kind());
        match &self.binding {
            Binding::Straightline => {}
            Binding::Recurrence {
                path,
                latency,
                distance,
            } => {
                s.push_str(",\"path\":[");
                for (i, p) in path.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{}\"", json_escape(p));
                }
                let _ = write!(s, "],\"latency\":{latency},\"distance\":{distance}");
            }
            Binding::Resource { resource, load } => {
                let _ = write!(
                    s,
                    ",\"resource\":\"{}\",\"load\":{load:.3}",
                    json_escape(resource)
                );
            }
            Binding::Transport {
                resource,
                kind,
                occupancy,
            } => {
                let _ = write!(
                    s,
                    ",\"resource\":\"{}\",\"resource_kind\":\"{kind}\",\"occupancy\":{occupancy:.3}",
                    json_escape(resource)
                );
            }
        }
        s.push_str("},\"ranking\":[");
        for (i, r) in self.ranking.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"claims\":{},\"rows\":{},\
                 \"occupancy\":{:.3}}}",
                json_escape(&r.name),
                r.kind,
                r.claims,
                r.rows,
                r.occupancy
            );
        }
        s.push_str("],\"counterfactuals\":[");
        for (i, c) in self.counterfactuals.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"change\":\"{}\",\"metric\":\"{}\",\"before\":{},\"after\":{}}}",
                json_escape(&c.change),
                json_escape(&c.metric),
                c.before,
                c.after
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{res_mii, schedule_kernel};
    use crate::SchedulerConfig;
    use csched_ir::KernelBuilder;
    use csched_ir::Operand;
    use csched_machine::{imagine, toy, Opcode};

    /// acc = ((acc + x) + y) each iteration: a two-add recurrence, so
    /// RecMII ≥ 2 while the 12-unit central machine keeps ResMII low.
    fn recurrence_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("rec");
        let input = kb.region("in", true);
        let output = kb.region("out", true);
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let acc = kb.loop_var(lp, 1i64.into());
        let x = kb.load(lp, input, i.into(), 0i64.into());
        let a1 = kb.push(lp, Opcode::IAdd, [acc.into(), x.into()]);
        let a2 = kb.push(lp, Opcode::IAdd, [a1.into(), x.into()]);
        kb.store(lp, output, i.into(), 100i64.into(), a2.into());
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        kb.set_update(acc, a2.into());
        kb.build().unwrap()
    }

    #[test]
    fn recurrence_bound_names_the_cycle() {
        let kernel = recurrence_kernel();
        let arch = imagine::central();
        let s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let ex = explain(&arch, &kernel, &s);
        assert_eq!(ex.rec_mii, {
            let g = DepGraph::build(&kernel, |o| min_latency(&arch, o));
            g.rec_mii(&kernel)
        });
        if ex.rec_mii > ex.res_mii && ex.ii == Some(ex.rec_mii) {
            let Binding::Recurrence {
                path,
                latency,
                distance,
            } = &ex.binding
            else {
                panic!("expected recurrence binding, got {:?}", ex.binding);
            };
            assert!(!path.is_empty(), "critical cycle extracted");
            assert_eq!(
                (*latency as f64 / *distance as f64).ceil() as u32,
                ex.rec_mii,
                "the reported cycle realises the RecMII"
            );
        }
        let text = ex.render_text();
        assert!(text.contains("binding:"));
        let json = ex.to_json();
        assert!(json.contains("\"binding\""));
        assert!(json.contains("\"counterfactuals\""));
    }

    #[test]
    fn binding_agrees_with_bounds_on_toy_loop() {
        let arch = toy::motivating_example();
        let mut kb = KernelBuilder::new("looped");
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let i1 = kb.push(lp, Opcode::IAdd, [Operand::from(i), 1i64.into()]);
        kb.set_update(i, i1.into());
        let kernel = kb.build().unwrap();
        let s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let ex = explain(&arch, &kernel, &s);
        let ii = ex.ii.unwrap();
        match &ex.binding {
            Binding::Recurrence { .. } => {
                assert_eq!(ii, ex.rec_mii);
                assert!(ex.rec_mii > ex.res_mii);
            }
            Binding::Resource { resource, .. } => {
                assert_eq!(ii, ex.res_mii);
                assert!(ex.res_mii >= ex.rec_mii);
                assert!(!resource.is_empty());
            }
            Binding::Transport { .. } => assert!(ii > ex.rec_mii.max(ex.res_mii)),
            Binding::Straightline => panic!("loop kernel cannot be straightline-bound"),
        }
        assert!(!ex.ranking.is_empty());
        // Ranking is sorted by occupancy.
        for w in ex.ranking.windows(2) {
            assert!(w[0].occupancy >= w[1].occupancy - 1e-9);
        }
    }

    #[test]
    fn straightline_kernels_have_no_binding_ii() {
        let arch = toy::motivating_example();
        let mut kb = KernelBuilder::new("straight");
        let mem = kb.region("mem", true);
        let b = kb.straight_block("b");
        let x = kb.push(b, Opcode::IAdd, [1i64.into(), 2i64.into()]);
        kb.store(b, mem, 0i64.into(), 0i64.into(), x.into());
        let kernel = kb.build().unwrap();
        let s = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        let ex = explain(&arch, &kernel, &s);
        assert_eq!(ex.binding, Binding::Straightline);
        assert_eq!(ex.ii, None);
        assert!(ex.counterfactuals.is_empty());
        assert!(ex.to_json().contains("\"kind\":\"straightline\""));
    }

    #[test]
    fn clone_counterfactual_never_raises_the_bound() {
        let kernel = recurrence_kernel();
        for arch in imagine::all_variants() {
            let before = res_mii(&arch, &kernel);
            for fu in arch.fu_ids() {
                let after = res_mii_with_clone(&arch, &kernel, fu);
                assert!(
                    after <= before,
                    "{}: +1 {} raised ResMII {before} -> {after}",
                    arch.name(),
                    arch.fu(fu).name()
                );
            }
        }
    }
}
