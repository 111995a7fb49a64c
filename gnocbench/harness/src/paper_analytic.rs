//! `paper_analytic`: the figure kernels behind the slowest `reproduce.sh`
//! entries, on the analytic device model alone (no NoC simulator runs).
//!
//! Kernels: `run_aes_attack` (static and random scheduling, Fig. 18),
//! `run_rsa_attack`, a V100 latency campaign
//! (`CheckpointedCampaign::run_to_completion_par`; serial `step_row` in the
//! traced run), bandwidth sweeps through `GpuDevice::solve_bandwidth`, the
//! paper's bandwidth points through `microbench::bandwidth`, and bfs and
//! gaussian `replay::replay`.
//!
//! `paper_err_pct` compares the campaign's latency spread and the
//! bandwidth points with the DESIGN.md §4 targets. The model was tuned to
//! those targets, so this is an error against calibration targets, not a
//! held-out validation.

use crate::spans::{self, Tracer};
use crate::{Ctx, Rep, Rng};
use gnoc_core::microbench::bandwidth::{cross_flows, sms_to_slice_gbps};
use gnoc_core::trace_digest::campaign_stats_line;
use gnoc_core::workloads::replay::{replay, ReplayConfig};
use gnoc_core::workloads::{bfs, gaussian, MemoryTrace};
use gnoc_core::{
    run_aes_attack, run_rsa_attack, AccessKind, AesAttackConfig, CheckpointedCampaign,
    CtaScheduler, GpcId, GpuDevice, LatencyProbe, PartitionId, RsaAttackConfig, SliceId, SmId,
    Summary, WorkerPool,
};
use std::time::Instant;

/// DESIGN.md §4 targets: V100 hit latency min/max/mean (cycles), V100
/// SM→slice and GPC→slice bandwidth, A100 near and far slice bandwidth
/// (GB/s).
const TARGETS: [(&str, f64); 7] = [
    ("v100_lat_min", 175.0),
    ("v100_lat_max", 248.0),
    ("v100_lat_mean", 212.0),
    ("v100_sm_slice_gbps", 34.0),
    ("v100_gpc_slice_gbps", 85.0),
    ("a100_near_gbps", 39.5),
    ("a100_far_gbps", 26.0),
];

/// The BFS graph is fixed: its depth sets the replay's step count, and with
/// it the work, which would otherwise swing several-fold between seeds.
/// The seed still varies the device instance, scheduler and keys.
const BFS_GRAPH_SEED: u64 = 16;

struct Inputs {
    key: [u8; 16],
    position: usize,
    aes_seed: u64,
    aes_samples: usize,
    rsa_seed: u64,
    rsa: RsaAttackConfig,
    campaign_seed: u64,
    probe: LatencyProbe,
    dev_seed: u64,
    traces: Vec<MemoryTrace>,
    replay_seed: u64,
}

fn gen_inputs(ctx: &Ctx) -> Inputs {
    let mut rng = Rng::new(ctx.seed, 5);
    let mut key = [0u8; 16];
    for b in &mut key {
        *b = rng.below(256) as u8;
    }
    let traces = vec![
        bfs::generate(
            bfs::BfsConfig {
                nodes: ctx.size.pick(2_000, 200),
                avg_degree: 8,
            },
            BFS_GRAPH_SEED,
        ),
        gaussian::generate(gaussian::GaussianConfig {
            n: ctx.size.pick(64, 32),
            step_stride: 16,
        }),
    ];
    Inputs {
        key,
        position: rng.below(16) as usize,
        aes_seed: rng.next_u64(),
        aes_samples: ctx.size.pick(1_000, 100),
        rsa_seed: rng.next_u64(),
        rsa: RsaAttackConfig {
            samples: ctx.size.pick(40, 8),
            ..RsaAttackConfig::default()
        },
        campaign_seed: rng.next_u64(),
        probe: LatencyProbe {
            working_set_lines: ctx.size.pick(8, 2),
            samples: ctx.size.pick(12, 2),
        },
        dev_seed: rng.next_u64(),
        traces,
        replay_seed: rng.next_u64(),
    }
}

fn floats_line(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{:016x}", x.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Mean relative error (%) of `measured` against [`TARGETS`].
fn paper_err_pct(measured: &[(&str, f64)]) -> f64 {
    let errs: Vec<f64> = TARGETS
        .iter()
        .filter_map(|&(name, target)| {
            measured
                .iter()
                .find(|(m, _)| *m == name)
                .map(|&(_, v)| (v - target).abs() / target * 100.0)
        })
        .collect();
    spans::mean(&errs)
}

/// Fresh devices for each kernel, built in set-up; kernels take them.
struct Devices {
    aes: Vec<GpuDevice>,
    rsa: GpuDevice,
    solve: Vec<GpuDevice>,
    v100: GpuDevice,
    a100: GpuDevice,
    replay: Vec<GpuDevice>,
}

impl Devices {
    fn new(seed: u64) -> Self {
        Self {
            aes: vec![GpuDevice::a100(seed), GpuDevice::a100(seed)],
            rsa: GpuDevice::a100(seed),
            solve: vec![GpuDevice::v100(seed), GpuDevice::a100(seed)],
            v100: GpuDevice::v100(seed),
            a100: GpuDevice::a100(seed),
            replay: vec![GpuDevice::a100(seed), GpuDevice::a100(seed)],
        }
    }
}

pub fn rep(ctx: &mut Ctx, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let setup = Instant::now();
    let inp = gen_inputs(ctx);
    let mut devs = Devices::new(inp.dev_seed);
    let pool = WorkerPool::new(if traced { 1 } else { ctx.jobs });
    rep.setup_s = setup.elapsed().as_secs_f64();

    let mut t = Tracer::new(traced);
    let started = Instant::now();
    let mut measured: Vec<(&str, f64)> = Vec::new();
    let mut l2_accesses = 0u64;
    let timed = |rep: &mut Rep,
                 t: &mut Tracer,
                 name: &'static str,
                 unit: u64,
                 f: &mut dyn FnMut(&mut Rep, &mut Tracer)| {
        let s = Instant::now();
        t.span(name, unit, |t| f(rep, t));
        rep.ops_ms.push(s.elapsed().as_secs_f64() * 1e3);
    };

    for (unit, scheduler) in [(0, CtaScheduler::Static), (1, CtaScheduler::RandomSeed)] {
        timed(&mut rep, &mut t, "sidechannel.aes", unit, &mut |rep, _| {
            let dev = &mut devs.aes[unit as usize];
            let cfg = AesAttackConfig {
                key: inp.key,
                samples: inp.aes_samples,
                position: inp.position,
                scheduler,
            };
            let r = run_aes_attack(dev, &cfg, inp.aes_seed);
            l2_accesses += dev.profiler().total();
            rep.digest(
                format!("aes{unit}.correlations"),
                &format!("{}:{}", r.best_guess, floats_line(&r.correlations)),
            );
            rep.count(format!("aes{unit}.best_guess"), f64::from(r.best_guess));
            rep.count(
                format!("aes{unit}.l2_accesses"),
                dev.profiler().total() as f64,
            );
            rep.check(r.correlations.len() == 256, || {
                "aes: 256 correlations".into()
            });
        });
    }
    timed(&mut rep, &mut t, "sidechannel.rsa", 2, &mut |rep, _| {
        let r = run_rsa_attack(&devs.rsa, &inp.rsa, inp.rsa_seed);
        let times: Vec<f64> = r.samples.iter().map(|s| s.time).collect();
        rep.digest("rsa.samples", &floats_line(&times));
        rep.count("rsa.weight_uncertainty", r.weight_uncertainty as f64);
        rep.check(r.samples.len() == inp.rsa.samples, || {
            "rsa: sample count".into()
        });
    });
    timed(&mut rep, &mut t, "core.campaign", 3, &mut |rep, t| {
        let mut c = CheckpointedCampaign::new("v100", inp.campaign_seed, inp.probe, None)
            .expect("v100 preset exists");
        let result = if t.is_on() {
            let mut row = 0;
            while t.span("core.row", row, |_| c.step_row().expect("row measures")) {
                row += 1;
            }
            c.finish()
        } else {
            c.run_to_completion_par(None, &pool)
        };
        let Ok(result) = result else {
            rep.check(false, || "campaign failed".into());
            return;
        };
        rep.digest("campaign.stats", &campaign_stats_line("v100", &result));
        let all: Vec<f64> = result.matrix.iter().flatten().copied().collect();
        let s = Summary::of(&all);
        measured.extend([
            ("v100_lat_min", s.min),
            ("v100_lat_max", s.max),
            ("v100_lat_mean", s.mean),
        ]);
        rep.count("campaign.rows", result.matrix.len() as f64);
        rep.check(!all.is_empty(), || "campaign measured nothing".into());
    });
    timed(&mut rep, &mut t, "engine.solve", 4, &mut |rep, _| {
        let mut rates = Vec::new();
        let mut calls = 0u64;
        for dev in &devs.solve {
            let gpc: Vec<SmId> = dev.hierarchy().sms_in_gpc(GpcId::new(0)).to_vec();
            let slices = dev.hierarchy().num_slices() as u32;
            for k in 1..=gpc.len().min(8) {
                for slice in (0..slices).step_by((slices as usize / 8).max(1)) {
                    let flows = cross_flows(&gpc[..k], &[SliceId::new(slice)], AccessKind::ReadHit);
                    rates.push(dev.solve_bandwidth(&flows).total_gbps);
                    calls += 1;
                }
            }
        }
        rep.digest("bandwidth.sweep", &floats_line(&rates));
        rep.count("engine.solve_calls", calls as f64);
    });
    timed(
        &mut rep,
        &mut t,
        "microbench.bandwidth",
        5,
        &mut |rep, _| {
            let v = &mut devs.v100;
            let gpc = v.hierarchy().sms_in_gpc(GpcId::new(0)).to_vec();
            let single = sms_to_slice_gbps(v, &[SmId::new(0)], SliceId::new(0));
            let group = sms_to_slice_gbps(v, &gpc, SliceId::new(0));
            let a = &mut devs.a100;
            let h = a.hierarchy().clone();
            let sm = h.sms_in_partition(PartitionId::new(0))[0];
            let near = sms_to_slice_gbps(a, &[sm], h.slices_in_partition(PartitionId::new(0))[0]);
            let far = sms_to_slice_gbps(a, &[sm], h.slices_in_partition(PartitionId::new(1))[0]);
            measured.extend([
                ("v100_sm_slice_gbps", single),
                ("v100_gpc_slice_gbps", group),
                ("a100_near_gbps", near),
                ("a100_far_gbps", far),
            ]);
            rep.digest(
                "bandwidth.points",
                &floats_line(&[single, group, near, far]),
            );
        },
    );
    for (i, trace) in inp.traces.iter().enumerate() {
        timed(
            &mut rep,
            &mut t,
            "workloads.replay",
            6 + i as u64,
            &mut |rep, _| {
                let dev = &devs.replay[i];
                let cfg = ReplayConfig {
                    seed: inp.replay_seed,
                    ..ReplayConfig::default()
                };
                let r = replay(dev, trace, &cfg);
                rep.digest(format!("replay.{}", trace.name), &floats_line(&r.step_gbps));
                rep.check(r.total_bytes > 0.0, || {
                    format!("{} replay moved nothing", trace.name)
                });
            },
        );
    }
    rep.wall_s = started.elapsed().as_secs_f64();
    rep.count("engine.l2_accesses", l2_accesses as f64);
    let err = paper_err_pct(&measured);
    rep.extra.insert("paper_err_pct", err);
    rep.count("paper_err_pct", err);

    if traced {
        let spans = t.into_spans();
        let st = spans::self_times(&spans);
        let s = |name: &str| st.get(name).copied().unwrap_or(0.0);
        let c = |name: &str| rep.counts.get(name).copied().unwrap_or(0.0);
        let rows: Vec<f64> = spans::durations(&spans, "core.row")
            .iter()
            .map(|x| x * 1e3)
            .collect();
        let campaign_s = spans::total(&spans, "core.campaign");
        let aes_samples = 2.0 * inp.aes_samples as f64;
        let l = &mut rep.layer;
        l.insert("engine.l2_accesses", c("engine.l2_accesses"));
        l.insert(
            "engine.ns_per_access",
            s("sidechannel.aes") * 1e9 / c("engine.l2_accesses").max(1.0),
        );
        l.insert("engine.solve_s", s("engine.solve"));
        l.insert("engine.solve_calls", c("engine.solve_calls"));
        l.insert("microbench.bandwidth_s", s("microbench.bandwidth"));
        l.insert("sidechannel.aes_s", s("sidechannel.aes"));
        l.insert("sidechannel.rsa_s", s("sidechannel.rsa"));
        l.insert(
            "sidechannel.us_per_sample",
            (s("sidechannel.aes") + s("sidechannel.rsa")) * 1e6
                / (aes_samples + inp.rsa.samples as f64),
        );
        l.insert("workloads.replay_s", s("workloads.replay"));
        l.insert("core.campaign_s", campaign_s);
        l.insert("core.row_ms_p50", spans::quantile(&rows, 0.5));
        l.insert("core.row_ms_p90", spans::quantile(&rows, 0.9));
        rep.extra.insert("par_serial_s", campaign_s);
        rep.spans = spans;
    } else {
        let campaign_ms = rep.ops_ms[3];
        rep.extra.insert("par_wall_s", campaign_ms / 1e3);
    }
    rep
}
