//! Detection-latency and recovery-cost benchmark for the self-healing layer
//! (`gnoc-health`).
//!
//! Every run hides the fault plan from routing (self-healing mode) and lets
//! the health monitors infer faults from behavioral telemetry alone:
//!
//! 1. `link_detect_fXX` — a 6x6 mesh with a dead-link fraction of XX%, all
//!    faults onsetting at cycle 1000. Reports the worst first-open latency
//!    (cycles from onset to the breaker opening) across all dead links plus
//!    the recovery cost (retransmissions spent, route-table rebuilds).
//! 2. `slice_detect_v100` — a V100 device with two latent dead L2 slices.
//!    Reports the worst first-open latency in health *windows*.
//!
//! Latencies are asserted against the same bounds the chaos detection oracle
//! enforces (6000 cycles / 3 windows), so this artifact doubles as a
//! regression tripwire: a slower detector fails the bench before it fails
//! the soak. Rows `{schema, bench, faults, latency, retries, reroutes, wall_ms}` go
//! to `BENCH_health.json` (or the path given as the first argument). Only
//! `wall_ms` is machine-dependent; every other column is deterministic.

use gnoc_core::health::run_slice_detection_for_spec;
use gnoc_core::{
    spec_for_preset, ArbiterKind, FaultGenConfig, FaultPlan, HealthConfig, MeshConfig, RetryConfig,
    SelfHealingMesh,
};
use std::time::Instant;

/// Mirrors the chaos detection oracle's link-latency bound.
const LINK_LATENCY_BOUND: u64 = 6_000;
/// Mirrors the chaos detection oracle's slice-window bound.
const SLICE_WINDOW_BOUND: u64 = 3;
/// All injected faults onset here, so latency = first_open - ONSET.
const ONSET: u64 = 1_000;

struct Row {
    bench: String,
    faults: usize,
    latency: u64,
    retries: u64,
    reroutes: u64,
    wall_ms: u64,
}

fn link_row(dead_frac: f64) -> Row {
    let cfg = FaultGenConfig {
        dead_link_fraction: dead_frac,
        onset: ONSET,
        ..FaultGenConfig::benign(7, 6, 6)
    };
    let plan = FaultPlan::try_generate(&cfg).expect("benign-derived config is valid");
    let mesh_cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin);
    let start = Instant::now();
    let mut healer = SelfHealingMesh::new(
        mesh_cfg,
        &plan,
        RetryConfig::default(),
        HealthConfig::default(),
    )
    .expect("plan fits the mesh");
    healer
        .run_detection(ONSET + LINK_LATENCY_BOUND)
        .expect("detection run");
    let wall_ms = start.elapsed().as_millis() as u64;

    let detected = healer.detected_links();
    assert_eq!(
        detected.len(),
        plan.links.len(),
        "every dead link must be detected (recall 1.0)"
    );
    let latency = detected
        .iter()
        .map(|&(_, _, at)| at - ONSET)
        .max()
        .unwrap_or(0);
    assert!(
        latency <= LINK_LATENCY_BOUND,
        "detection latency {latency} exceeds the oracle bound {LINK_LATENCY_BOUND}"
    );
    let report = healer.report();
    Row {
        bench: format!("link_detect_f{:02}", (dead_frac * 100.0) as u32),
        faults: plan.links.len(),
        latency,
        retries: report.retries,
        reroutes: report.reroutes,
        wall_ms,
    }
}

fn slice_row() -> Row {
    let spec = spec_for_preset("v100").expect("v100 preset");
    let num_slices = spec.hierarchy().num_slices() as u32;
    let mut plan = FaultPlan::none();
    plan.disabled_slices = vec![1, num_slices - 2];
    let start = Instant::now();
    let (_dev, monitor) = run_slice_detection_for_spec(spec, &plan, 7, HealthConfig::default(), 16)
        .expect("latent-fault device");
    let wall_ms = start.elapsed().as_millis() as u64;

    let found = monitor.detected_slices();
    assert_eq!(found.len(), 2, "both dead slices must be detected");
    let latency = found.iter().map(|&(_, w)| w).max().unwrap_or(0);
    assert!(
        latency <= SLICE_WINDOW_BOUND,
        "slice detection took {latency} windows, bound is {SLICE_WINDOW_BOUND}"
    );
    Row {
        bench: "slice_detect_v100".to_owned(),
        faults: 2,
        latency,
        retries: 0,
        reroutes: 0,
        wall_ms,
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_health.json".to_string());
    let mut rows = Vec::new();
    for dead_frac in [0.05, 0.10, 0.20] {
        rows.push(link_row(dead_frac));
    }
    rows.push(slice_row());

    for r in &rows {
        println!(
            "{:<18} faults={:<3} latency={:<5} retries={:<5} reroutes={:<3} {} ms",
            r.bench, r.faults, r.latency, r.retries, r.reroutes, r.wall_ms
        );
    }
    let body = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"schema\": 1, \"bench\": \"{}\", \"faults\": {}, \"latency\": {}, \
                 \"retries\": {}, \"reroutes\": {}, \"wall_ms\": {}}}",
                r.bench, r.faults, r.latency, r.retries, r.reroutes, r.wall_ms
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write(&out, format!("[\n{body}\n]\n")).expect("write benchmark artifact");
    println!("wrote {out} (latencies inside the chaos oracle bounds)");
}
