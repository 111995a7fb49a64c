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
//! 3. `patrol_detect_5x5` — host time of the chaos detection phase's link
//!    detection (`SelfHealingMesh::run_detection` on the soak's 5x5 mesh)
//!    over the die plans of chaos seeds 0..80: reps, min and median in µs,
//!    and the noise band `(max - min) / min` across reps. A speedup claimed
//!    for the patrol path must exceed that band.
//!
//! Latencies are asserted against the same bounds the chaos detection oracle
//! enforces (6000 cycles / 3 windows), so this artifact doubles as a
//! regression tripwire: a slower detector fails the bench before it fails
//! the soak. Rows `{schema, bench, faults, latency, retries, reroutes, wall_ms}`
//! plus the patrol timing row go to `BENCH_health.json` (or the path given
//! as the first argument). Only the wall-time columns are machine-dependent;
//! every other column is deterministic.

use gnoc_chaos::ChaosConfig;
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
/// Mirrors the chaos detection phase: cycles run past the last onset.
const DETECTION_RUN_MARGIN: u64 = 8_000;
/// Chaos seeds whose die plans the patrol row detects over.
const PATROL_SEEDS: std::ops::Range<u64> = 0..80;
/// Timed repetitions of the patrol row.
const PATROL_REPS: usize = 5;

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

struct PatrolRow {
    plans: usize,
    detections: usize,
    wall_us: Vec<u64>,
}

impl PatrolRow {
    fn min_us(&self) -> u64 {
        self.wall_us[0]
    }

    fn median_us(&self) -> u64 {
        self.wall_us[self.wall_us.len() / 2]
    }

    /// Spread of the reps relative to the fastest, in percent.
    fn noise_pct(&self) -> f64 {
        let max = self.wall_us[self.wall_us.len() - 1];
        100.0 * (max - self.min_us()) as f64 / self.min_us().max(1) as f64
    }
}

fn patrol_row() -> PatrolRow {
    let chaos = ChaosConfig::default();
    let slices = spec_for_preset("v100")
        .expect("v100 preset")
        .hierarchy()
        .num_slices() as u32;
    let plans: Vec<FaultPlan> = PATROL_SEEDS
        .map(|seed| chaos.plan_for_seed(seed, slices))
        .collect();
    let mesh_cfg = MeshConfig::new(
        chaos.width as usize,
        chaos.height as usize,
        ArbiterKind::RoundRobin,
    );
    let mut detections = 0;
    let mut wall_us = Vec::with_capacity(PATROL_REPS);
    for _ in 0..PATROL_REPS {
        detections = 0;
        let start = Instant::now();
        for plan in &plans {
            let mut healer =
                SelfHealingMesh::new(mesh_cfg, plan, chaos.retry, HealthConfig::default())
                    .expect("chaos plans fit the soak mesh");
            let last_onset = plan.links.iter().map(|l| l.onset).max().unwrap_or(0);
            healer
                .run_detection(last_onset + DETECTION_RUN_MARGIN)
                .expect("detection run");
            detections += healer.detected_links().len();
        }
        wall_us.push(start.elapsed().as_micros() as u64);
    }
    wall_us.sort_unstable();
    PatrolRow {
        plans: plans.len(),
        detections,
        wall_us,
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
    let patrol = patrol_row();

    for r in &rows {
        println!(
            "{:<18} faults={:<3} latency={:<5} retries={:<5} reroutes={:<3} {} ms",
            r.bench, r.faults, r.latency, r.retries, r.reroutes, r.wall_ms
        );
    }
    println!(
        "patrol_detect_5x5  plans={} detections={} reps={} min {} us, median {} us, noise {:.1}%",
        patrol.plans,
        patrol.detections,
        patrol.wall_us.len(),
        patrol.min_us(),
        patrol.median_us(),
        patrol.noise_pct()
    );
    let mut body = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"schema\": 1, \"bench\": \"{}\", \"faults\": {}, \"latency\": {}, \
                 \"retries\": {}, \"reroutes\": {}, \"wall_ms\": {}}}",
                r.bench, r.faults, r.latency, r.retries, r.reroutes, r.wall_ms
            )
        })
        .collect::<Vec<_>>();
    body.push(format!(
        "  {{\"schema\": 1, \"bench\": \"patrol_detect_5x5\", \"plans\": {}, \
         \"detections\": {}, \"reps\": {}, \"min_us\": {}, \"median_us\": {}, \
         \"noise_pct\": {:.1}}}",
        patrol.plans,
        patrol.detections,
        patrol.wall_us.len(),
        patrol.min_us(),
        patrol.median_us(),
        patrol.noise_pct()
    ));
    let body = body.join(",\n");
    std::fs::write(&out, format!("[\n{body}\n]\n")).expect("write benchmark artifact");
    println!("wrote {out} (latencies inside the chaos oracle bounds)");
}
