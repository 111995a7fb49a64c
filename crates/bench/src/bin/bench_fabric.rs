//! Cross-device soak benchmark for the multi-GPU fabric (`gnoc-fabric`).
//!
//! Three row families, all over 4-device jobs of 5x5 dies:
//!
//! 1. `soak_<topo>_d4` — fault-free cross-device soak per topology (line,
//!    ring, fully, switch). Reports delivery, mean/max latency, and fabric
//!    hop counts; asserts 100% delivery.
//! 2. `failover_ring_d4` — one fabric link dies mid-traffic (onset 200)
//!    with fault-aware routing: every transfer must still deliver, the
//!    long-way reroute showing up as extra hops and latency.
//! 3. `selfheal_ring_d4` — the same dead link hidden from routing: the
//!    per-link breaker must detect and quarantine it within the same
//!    latency bound the chaos detection oracle enforces (6000 cycles), so
//!    this artifact doubles as a regression tripwire for fabric failover.
//!
//! Rows `{schema, bench, devices, topology, delivered, lost, mean_latency,
//! max_latency, fabric_hops, retries, reroutes, detect_latency, wall_ms}`
//! go to `BENCH_fabric.json` (or the path given as the first argument).
//! Only `wall_ms` is machine-dependent; every other column is
//! deterministic.

use gnoc_core::faults::{FabricLinkFault, LinkFaultKind};
use gnoc_core::soak;
use gnoc_core::{
    FabricConfig, FabricHealthConfig, FabricHealthMonitor, FabricSim, FabricTopology, FaultPlan,
};
use std::time::Instant;

/// Mirrors the chaos detection oracle's fabric-link latency bound.
const DETECT_LATENCY_BOUND: u64 = 6_000;
/// The failover rows' dead link manifests here — mid-traffic for the
/// 256-transfer soak, whose fault-free drain takes ~500 cycles.
const ONSET: u64 = 200;
const DEVICES: u32 = 4;
const TRANSFERS: usize = 256;
const SOAK_BUDGET: u64 = 200_000;

struct Row {
    bench: String,
    topology: FabricTopology,
    delivered: u64,
    lost: u64,
    mean_latency: f64,
    max_latency: u64,
    fabric_hops: u64,
    retries: u64,
    reroutes: u64,
    detect_latency: u64,
    wall_ms: u64,
}

fn row_from(bench: String, topology: FabricTopology, sim: &FabricSim, wall_ms: u64) -> Row {
    let s = sim.stats();
    Row {
        bench,
        topology,
        delivered: s.delivered,
        lost: s.lost_total(),
        mean_latency: s.mean_latency(),
        max_latency: s.latency_max,
        fabric_hops: s.fabric_hops,
        retries: s.fabric_retries,
        reroutes: s.reroutes,
        detect_latency: 0,
        wall_ms,
    }
}

fn soak_row(topology: FabricTopology) -> Row {
    let start = Instant::now();
    let mut sim = FabricSim::new(FabricConfig::new(DEVICES, topology)).expect("valid config");
    soak::submit_fabric_soak(&mut sim, 11, TRANSFERS).expect("in-range endpoints");
    assert!(sim.run_until_quiescent(SOAK_BUDGET), "benign soak quiesces");
    let wall_ms = start.elapsed().as_millis() as u64;
    let row = row_from(format!("soak_{topology}_d4"), topology, &sim, wall_ms);
    assert_eq!(
        row.lost, 0,
        "benign {topology} soak must deliver everything"
    );
    row
}

/// A ring plan with the 0<->1 fabric link dying at [`ONSET`].
fn dead_link_plan() -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.fabric.links.push(FabricLinkFault {
        a: 0,
        b: 1,
        kind: LinkFaultKind::Dead,
        onset: ONSET,
    });
    plan
}

fn failover_row() -> Row {
    let topology = FabricTopology::Ring;
    let start = Instant::now();
    let mut sim = FabricSim::with_faults(FabricConfig::new(DEVICES, topology), &dead_link_plan())
        .expect("plan fits the ring");
    soak::submit_fabric_soak(&mut sim, 11, TRANSFERS).expect("in-range endpoints");
    assert!(
        sim.run_until_quiescent(SOAK_BUDGET),
        "failover soak quiesces"
    );
    let wall_ms = start.elapsed().as_millis() as u64;
    let row = row_from("failover_ring_d4".to_owned(), topology, &sim, wall_ms);
    assert_eq!(
        row.lost, 0,
        "a ring survives one dead link; everything reroutes the long way"
    );
    assert!(row.reroutes > 0, "the dead link must force a reroute");
    row
}

fn selfheal_row() -> Row {
    let topology = FabricTopology::Ring;
    let start = Instant::now();
    let mut cfg = FabricConfig::new(DEVICES, topology);
    cfg.self_healing = true;
    let mut sim = FabricSim::with_faults(cfg, &dead_link_plan()).expect("plan fits the ring");
    let mut monitor = FabricHealthMonitor::new(&sim, FabricHealthConfig::default());
    monitor.run_detection(&mut sim, ONSET + DETECT_LATENCY_BOUND);
    let wall_ms = start.elapsed().as_millis() as u64;
    let detected = monitor.detected_links(&sim);
    assert!(
        detected.iter().any(|&(a, b, _)| (a, b) == (0, 1)),
        "the breaker must detect the dead 0<->1 link"
    );
    let detect_latency = detected
        .iter()
        .filter(|&&(a, b, _)| (a, b) == (0, 1))
        .map(|&(_, _, at)| at.saturating_sub(ONSET))
        .max()
        .unwrap_or(0);
    assert!(
        detect_latency <= DETECT_LATENCY_BOUND,
        "detection latency {detect_latency} exceeds the oracle bound {DETECT_LATENCY_BOUND}"
    );
    let mut row = row_from("selfheal_ring_d4".to_owned(), topology, &sim, wall_ms);
    row.detect_latency = detect_latency;
    row
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fabric.json".to_string());
    let mut rows = Vec::new();
    for topology in [
        FabricTopology::Line,
        FabricTopology::Ring,
        FabricTopology::FullyConnected,
        FabricTopology::Switch,
    ] {
        rows.push(soak_row(topology));
    }
    rows.push(failover_row());
    rows.push(selfheal_row());

    for r in &rows {
        println!(
            "{:<22} delivered={:<4} lost={:<2} latency mean={:<7.1} max={:<5} hops={:<4} \
             retries={:<4} reroutes={:<3} detect={:<5} {} ms",
            r.bench,
            r.delivered,
            r.lost,
            r.mean_latency,
            r.max_latency,
            r.fabric_hops,
            r.retries,
            r.reroutes,
            r.detect_latency,
            r.wall_ms
        );
    }
    let body = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"schema\": 1, \"bench\": \"{}\", \"devices\": {DEVICES}, \
                 \"topology\": \"{}\", \"delivered\": {}, \"lost\": {}, \
                 \"mean_latency\": {:.3}, \"max_latency\": {}, \"fabric_hops\": {}, \
                 \"retries\": {}, \"reroutes\": {}, \"detect_latency\": {}, \
                 \"wall_ms\": {}}}",
                r.bench,
                r.topology,
                r.delivered,
                r.lost,
                r.mean_latency,
                r.max_latency,
                r.fabric_hops,
                r.retries,
                r.reroutes,
                r.detect_latency,
                r.wall_ms
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write(&out, format!("[\n{body}\n]\n")).expect("write benchmark artifact");
    println!("wrote {out} (failover and detection inside the chaos oracle bounds)");
}
