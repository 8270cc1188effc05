//! Layer probes: calls into a layer's public functions on one workload's
//! own cells, made only to time that layer. Every traced run probes the
//! layers its path does not call, so each per-layer metric has a figure
//! on every workload; the ledger marks these spans `probe` and leaves
//! them out of the reconciliation with the end-to-end time.

use std::path::Path;
use std::time::Duration;

use csched_core::{explain, regalloc, res_mii, validate, ConnCache, Schedule, ScheduleMetrics};
use csched_eval::serve::{self, CacheEntry, ScheduleCache, ServeConfig, Server};
use csched_ir::{DepGraph, Kernel};
use csched_kernels::Workload;
use csched_machine::cost::{self, CostParams};
use csched_machine::gen::{DesignSpace, Rng as GenRng};
use csched_machine::{Architecture, Opcode};

use crate::ledger::Ledger;

/// The fastest capable unit's latency: the edge weight the scheduler's
/// dependence analysis uses.
fn min_latency(arch: &Architecture, opcode: Opcode) -> u32 {
    arch.fus_for(opcode)
        .into_iter()
        .filter_map(|f| arch.fu(f).capability(opcode))
        .map(|c| c.latency)
        .min()
        .unwrap_or(1)
}

/// Configuration-independent layers of one cell: connectivity cache,
/// dependence analysis with both MII bounds, both text formats, the
/// cache-key hashes and the VLSI cost model.
pub fn front(ledger: &mut Ledger, id: u64, arch: &Architecture, kernel: &Kernel) {
    ledger.probe("core.conn", id, || ConnCache::new(arch));
    ledger.probe("ir.depgraph", id, || {
        let graph = DepGraph::build(kernel, |op| min_latency(arch, op));
        let asap = graph.asap(kernel);
        (asap, graph.rec_mii(kernel), res_mii(arch, kernel))
    });
    let machine_text = csched_machine::text::print(arch);
    let kernel_text = csched_ir::text::print(kernel);
    let _ = ledger.probe("machine.text", id, || {
        csched_machine::text::parse(&machine_text)
    });
    let _ = ledger.probe("ir.text", id, || csched_ir::text::parse(&kernel_text));
    ledger.probe("eval.serve.kernel_hash", id, || serve::kernel_hash(kernel));
    ledger.probe("machine.arch.fingerprint", id, || arch.fingerprint());
    ledger.probe("machine.cost", id, || {
        cost::estimate(arch, &CostParams::default())
    });
}

/// Post-schedule layers of one finished schedule that the workload's path
/// does not call itself.
pub fn back(
    ledger: &mut Ledger,
    id: u64,
    arch: &Architecture,
    kernel: &Kernel,
    schedule: &Schedule,
    skip: &[&str],
) {
    let mut probe = |name: &'static str, f: &mut dyn FnMut()| {
        if !skip.contains(&name) {
            ledger.probe(name, id, f);
        }
    };
    probe("core.validate", &mut || {
        let _ = validate::validate(arch, kernel, schedule);
    });
    probe("core.regalloc", &mut || {
        let _ = regalloc::analyze(arch, kernel, schedule);
    });
    probe("core.metrics", &mut || {
        let _ = ScheduleMetrics::compute(arch, kernel, schedule);
    });
    probe("core.explain", &mut || {
        let _ = explain::explain(arch, kernel, schedule);
    });
}

/// Executes `schedule` on the simulator against the scalar reference,
/// timing input generation, execution and verification.
///
/// # Errors
///
/// The simulator's error or the first mismatching output.
pub fn simulate(
    ledger: &mut Ledger,
    id: u64,
    probe: bool,
    w: &Workload,
    schedule: &Schedule,
) -> Result<(), String> {
    let record = |ledger: &mut Ledger, name, f: &mut dyn FnMut() -> Result<(), String>| {
        if probe {
            ledger.probe(name, id, f)
        } else {
            ledger.time(name, id, f)
        }
    };
    let mut mem = None;
    record(ledger, "kernels.workload", &mut || {
        mem = Some(w.memory());
        Ok(())
    })?;
    let mut mem = mem.ok_or("no input memory")?;
    record(ledger, "sim.exec", &mut || {
        csched_sim::execute(&w.kernel, schedule, &mut mem, w.trip)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    record(ledger, "kernels.workload", &mut || w.verify(&mem))
}

/// Builds `points` generated machines drawn from the default design space.
pub fn generator(ledger: &mut Ledger, seed: u64, points: usize) {
    let space = DesignSpace::default();
    let mut rng = GenRng::new(seed);
    for i in 0..points {
        if let Some(point) = space.sample(&mut rng) {
            let _ = ledger.probe("machine.gen", i as u64, || point.build());
        }
    }
}

/// Inserts then looks up one entry per cell in a journaled cache under
/// `dir`.
///
/// # Errors
///
/// Cache I/O, or a lookup that misses a key just inserted.
pub fn cache(ledger: &mut Ledger, dir: &Path, entries: &[(u64, CacheEntry)]) -> Result<(), String> {
    let journal = dir.join("probe-cache.jsonl");
    let (mut cache, _) = ScheduleCache::open(Some(&journal), false).map_err(|e| e.to_string())?;
    for (i, (key, entry)) in entries.iter().enumerate() {
        ledger
            .probe("eval.serve.cache_insert", i as u64, || {
                cache.insert(*key, entry.clone())
            })
            .map_err(|e| e.to_string())?;
    }
    for (i, (key, entry)) in entries.iter().enumerate() {
        let hit = ledger.probe("eval.serve.cache_lookup", i as u64, || {
            cache.lookup(*key, entry.limit).cloned()
        });
        if hit.as_ref() != Some(entry) {
            return Err(format!("cache probe: key {key} did not read back"));
        }
    }
    Ok(())
}

/// Round trips of `STATS` to a fresh two-worker server: connect,
/// admission and response with no parsing, the transport floor.
///
/// # Errors
///
/// Bind or connection failures.
pub fn stats_rtt(ledger: &mut Ledger, probe: bool, trips: usize) -> Result<(), String> {
    let config = ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    };
    let (server, _) = Server::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    let mut result = Ok(());
    for i in 0..trips {
        let call = || serve::client_stats(&addr, Duration::from_secs(30));
        let reply = if probe {
            ledger.probe("eval.serve.stats_rtt", i as u64, call)
        } else {
            ledger.time("eval.serve.stats_rtt", i as u64, call)
        };
        if let Err(e) = reply {
            result = Err(format!("STATS: {e}"));
            break;
        }
    }
    server.shutdown();
    result
}
