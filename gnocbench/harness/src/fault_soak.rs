//! `fault_soak`: `gnoc_chaos::run_chaos` over seed-derived ranges.
//!
//! Two ranges: single-die iterations with the detection and replay oracles
//! plus the default device-campaign oracles, and a 4-device ring range.
//! The runs are idle-heavy and faulted, so health polling windows, retry
//! deadlines, event-core skips, fault plans and the `par` pool dominate —
//! the regime opposite to `noc_loaded`.
//!
//! The untraced run calls `run_chaos` at `jobs = nproc`. The traced run is
//! serial: per seed it times `ChaosConfig::plan_for_seed` plus
//! `ReliableMesh::with_faults_shared` (faults), `run_iteration` (chaos),
//! and the health layer's detection runs on the same plan, and its oracle
//! pass counts must equal the untraced report's.

use crate::spans::{self, Tracer};
use crate::{Ctx, Rep, Rng};
use gnoc_chaos::{run_chaos, run_iteration, ChaosConfig, ChaosOptions};
use gnoc_core::health::FabricHealthConfig;
use gnoc_core::noc::RouteOrder;
use gnoc_core::telemetry::TelemetryHandle;
use gnoc_core::{
    device_for_preset, ArbiterKind, FabricConfig, FabricHealthMonitor, FabricSim, FabricTopology,
    FaultPlan, HealthConfig, MeshConfig, ReliableMesh, SelfHealingMesh,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Mirrors the chaos detection phase's run margin past the last onset.
const DETECTION_RUN_MARGIN: u64 = 8_000;

struct Range {
    label: &'static str,
    cfg: ChaosConfig,
    seeds: Vec<u64>,
    /// The slice count of the configured device (0 without one).
    slices: u32,
    /// Each seed's fault plan, generated in set-up.
    plans: Vec<Arc<FaultPlan>>,
}

impl Range {
    fn new(label: &'static str, cfg: ChaosConfig, seeds: Vec<u64>) -> Self {
        let slices = num_slices(&cfg);
        let plans = seeds
            .iter()
            .map(|&s| Arc::new(cfg.plan_for_seed(s, slices)))
            .collect();
        Self {
            label,
            cfg,
            seeds,
            slices,
            plans,
        }
    }
}

/// Chaos seed ranges are drawn from `0..SEED_SPACE`.
const SEED_SPACE: u64 = 1_000;

/// Oracle violations HEAD produces inside the seed space the ranges are
/// drawn from, as `(range, seed, oracle)`. They are
/// open defects of the simulator, not of the benchmark: a listed violation
/// is reported in `chaos.violations` and pinned by the report digest, and
/// any violation not listed here fails the run.
/// All are slow on-die hidden-plan detections on onset-storm plans (seed
/// ≡ 3 mod 5): every dead link opens late, in one window, past the bound.
/// The ring configuration shares the die plans, so it fails on the same
/// seeds.
const KNOWN_VIOLATIONS: &[(&str, u64, &str)] = &[
    ("die", 223, "detection"),
    ("die", 653, "detection"),
    ("die", 873, "detection"),
    ("ring4", 223, "detection"),
    ("ring4", 653, "detection"),
    ("ring4", 873, "detection"),
];

/// Records the violations of one range: known ones are counted, others fail.
fn check_violations(rep: &mut Rep, label: &str, found: &[(u64, String)]) {
    for (seed, oracle) in found {
        let known = KNOWN_VIOLATIONS
            .iter()
            .any(|&(l, s, o)| l == label && s == *seed && o == oracle);
        rep.check(known, || {
            format!("{label}: unexpected {oracle} violation at chaos seed {seed}")
        });
    }
}

fn ranges(ctx: &Ctx) -> Vec<Range> {
    // Die ranges start on a multiple of 20 and ring ranges on a multiple
    // of 10, so every range holds the same mix of the five fault
    // archetypes and of device-oracle seeds.
    let die_n: u64 = ctx.size.pick(80, 5);
    let ring_n: u64 = ctx.size.pick(20, 5);
    let mut rng = Rng::new(ctx.seed, 4);
    let die_start = 20 * rng.below((SEED_SPACE - die_n) / 20 + 1);
    let ring_start = 10 * rng.below((SEED_SPACE - ring_n) / 10 + 1);
    let die = ChaosConfig {
        detection: true,
        replay: true,
        ..ChaosConfig::default()
    };
    let ring = ChaosConfig {
        devices: 4,
        topology: "ring".to_string(),
        device: None,
        detection: true,
        replay: true,
        ..ChaosConfig::default()
    };
    vec![
        Range::new("die", die, (die_start..die_start + die_n).collect()),
        Range::new("ring4", ring, (ring_start..ring_start + ring_n).collect()),
    ]
}

fn num_slices(cfg: &ChaosConfig) -> u32 {
    cfg.device.as_deref().map_or(0, |name| {
        device_for_preset(name, 0, None)
            .expect("chaos device preset exists")
            .hierarchy()
            .num_slices() as u32
    })
}

fn mesh_cfg(cfg: &ChaosConfig) -> MeshConfig {
    MeshConfig {
        width: cfg.width as usize,
        height: cfg.height as usize,
        buffer_packets: 4,
        arbiter: ArbiterKind::RoundRobin,
        route_order: RouteOrder::Xy,
        vcs: 1,
    }
}

fn record_passes(rep: &mut Rep, label: &str, passes: &BTreeMap<String, u64>) {
    for (oracle, n) in passes {
        rep.count(format!("{label}.passes.{oracle}"), *n as f64);
    }
}

/// Seeds per `run_chaos` call: one operation of the untraced run.
const CHUNK: usize = 4;

fn untraced(ctx: &Ctx, ranges: &[Range], rep: &mut Rep) {
    let started = Instant::now();
    for r in ranges {
        let mut passes: BTreeMap<String, u64> = BTreeMap::new();
        let (mut seeds, mut violations, mut panics) = (Vec::<u64>::new(), 0u64, 0u64);
        for chunk in r.seeds.chunks(CHUNK) {
            let opts = ChaosOptions {
                seeds: chunk.to_vec(),
                jobs: ctx.jobs,
                ..ChaosOptions::default()
            };
            let s = Instant::now();
            let run = run_chaos(&r.cfg, &opts, &TelemetryHandle::disabled());
            rep.ops_ms.push(s.elapsed().as_secs_f64() * 1e3);
            let Ok(run) = run else {
                rep.check(false, || format!("{}: run_chaos errored", r.label));
                continue;
            };
            for (oracle, n) in &run.report.oracle_passes {
                *passes.entry(oracle.clone()).or_insert(0) += n;
            }
            seeds.extend(&run.report.completed_seeds);
            violations += run.report.violations.len() as u64;
            panics += run.report.panics;
            let found: Vec<(u64, String)> = run
                .report
                .violations
                .iter()
                .map(|v| (v.seed, v.oracle.name().to_string()))
                .collect();
            check_violations(rep, r.label, &found);
            rep.check(run.finished && run.report.panics == 0, || {
                format!("{}: unfinished or panicked chaos run", r.label)
            });
        }
        rep.digest(
            format!("{}.report", r.label),
            &format!("{seeds:?} {passes:?} {violations} {panics}"),
        );
        record_passes(rep, r.label, &passes);
        rep.count(format!("{}.violations", r.label), violations as f64);
        rep.count(format!("{}.panics", r.label), panics as f64);
    }
    rep.extra
        .insert("par_wall_s", started.elapsed().as_secs_f64());
}

fn traced_run(ranges: &[Range], rep: &mut Rep, t: &mut Tracer) {
    let (mut windows, mut detections) = (0u64, 0u64);
    for r in ranges {
        let s = Instant::now();
        let mut passes: BTreeMap<String, u64> = BTreeMap::new();
        let mut violations = 0u64;
        let mut panics = 0u64;
        for (&seed, expected) in r.seeds.iter().zip(&r.plans) {
            t.span("seed", seed, |t| {
                let plan = t.span("faults.plan", seed, |_| {
                    let plan = Arc::new(r.cfg.plan_for_seed(seed, r.slices));
                    if r.cfg.devices < 2 {
                        let _ = ReliableMesh::with_faults_shared(
                            mesh_cfg(&r.cfg),
                            Arc::clone(&plan),
                            r.cfg.retry,
                        );
                    }
                    plan
                });
                rep.check(plan == *expected, || {
                    format!("seed {seed}: plan is not deterministic")
                });
                let run_device = r.cfg.device.is_some()
                    && r.cfg.device_every > 0
                    && seed % r.cfg.device_every == 0;
                let out = t.span("chaos.iteration", seed, |_| {
                    run_iteration(&r.cfg, seed, &plan, run_device)
                });
                for kind in &out.passes {
                    *passes.entry(kind.name().to_string()).or_insert(0) += 1;
                }
                violations += out.violations.len() as u64;
                panics += u64::from(out.panicked);
                let found: Vec<(u64, String)> = out
                    .violations
                    .iter()
                    .map(|v| (seed, v.oracle.name().to_string()))
                    .collect();
                check_violations(rep, r.label, &found);
                // The detection the iteration ran, re-run through the health
                // layer's public entry points so its host time is visible.
                t.span("health.detect", seed, |_| {
                    if r.cfg.devices >= 2 {
                        let mut fc = FabricConfig::new(r.cfg.devices, FabricTopology::Ring);
                        fc.mesh = mesh_cfg(&r.cfg);
                        fc.retry = r.cfg.retry;
                        fc.self_healing = true;
                        if let Ok(mut sim) = FabricSim::with_faults(fc, &plan) {
                            let mut mon =
                                FabricHealthMonitor::new(&sim, FabricHealthConfig::default());
                            let last = plan
                                .fabric
                                .links
                                .iter()
                                .map(|l| l.onset)
                                .chain(plan.fabric.devices.iter().map(|d| d.onset))
                                .chain(plan.fabric.dead_switch)
                                .max()
                                .unwrap_or(0);
                            mon.run_detection(&mut sim, last + DETECTION_RUN_MARGIN);
                            detections += mon.detected_links(&sim).len() as u64;
                        }
                    }
                    if let Ok(mut healer) = SelfHealingMesh::new(
                        mesh_cfg(&r.cfg),
                        &plan,
                        r.cfg.retry,
                        HealthConfig::default(),
                    ) {
                        let last = plan.links.iter().map(|l| l.onset).max().unwrap_or(0);
                        if healer.run_detection(last + DETECTION_RUN_MARGIN).is_ok() {
                            windows += healer.monitor().windows();
                            detections += healer.detected_links().len() as u64;
                        }
                    }
                });
            });
        }
        rep.ops_ms.push(s.elapsed().as_secs_f64() * 1e3);
        record_passes(rep, r.label, &passes);
        rep.count(format!("{}.violations", r.label), violations as f64);
        rep.count(format!("{}.panics", r.label), panics as f64);
        rep.check(panics == 0, || format!("{}: {panics} panic(s)", r.label));
    }
    rep.count("health.windows", windows as f64);
    rep.count("health.detections", detections as f64);
}

pub fn rep(ctx: &mut Ctx, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let setup = Instant::now();
    let ranges = ranges(ctx);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut t = Tracer::new(traced);
    if traced {
        traced_run(&ranges, &mut rep, &mut t);
    } else {
        untraced(ctx, &ranges, &mut rep);
    }
    rep.wall_s = started.elapsed().as_secs_f64();

    if traced {
        let spans = t.into_spans();
        let st = spans::self_times(&spans);
        let s = |name: &str| st.get(name).copied().unwrap_or(0.0);
        let c = |name: &str| rep.counts.get(name).copied().unwrap_or(0.0);
        let iters: Vec<f64> = spans::durations(&spans, "chaos.iteration")
            .iter()
            .map(|x| x * 1e3)
            .collect();
        let l = &mut rep.layer;
        l.insert("health.detect_s", s("health.detect"));
        l.insert(
            "health.s_per_window",
            s("health.detect") / c("health.windows").max(1.0),
        );
        l.insert("health.windows", c("health.windows"));
        l.insert("health.detections", c("health.detections"));
        l.insert("faults.plan_s", s("faults.plan"));
        l.insert("chaos.iteration_ms_p50", spans::quantile(&iters, 0.5));
        l.insert("chaos.iteration_ms_p90", spans::quantile(&iters, 0.9));
        l.insert(
            "chaos.violations",
            c("die.violations") + c("ring4.violations"),
        );
        rep.extra
            .insert("par_serial_s", s("faults.plan") + s("chaos.iteration"));
        rep.spans = spans;
    }
    rep
}
