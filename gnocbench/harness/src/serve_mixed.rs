//! `serve_mixed`: an in-process `gnoc serve` engine driven open loop.
//!
//! Set-up opens `gnoc_serve::Engine` on a fresh state directory, records
//! the replay jobs' traces, and generates the request schedule. One
//! generator thread then admits requests at seeded Poisson arrival times
//! through `EngineHandle::admit`, whatever the engine's state, and one
//! collector thread gathers outcomes. The offered rate is above what the
//! engine can serve, so the queue builds and `wall_s` (first scheduled send
//! to last outcome) is the time the engine takes to drain the fixed request
//! set, not the length of the schedule. Latency is timed from each
//! request's scheduled send time. About half the requests repeat an earlier
//! spec, so cache reads and attaches sit beside new keys (journal append
//! plus execution).
//!
//! Every payload must be byte-equal to `gnoc_serve::run::execute` for the
//! same spec, computed after the timed region.

use crate::spans::{self, Tracer};
use crate::{Ctx, Rep, Rng};
use gnoc_core::noc::{NodeId, PacketClass, RouteOrder};
use gnoc_core::telemetry::TelemetryHandle;
use gnoc_core::trace::{to_hex, TraceHeader, TraceTap};
use gnoc_core::trace_digest::{line_digest, mesh_stats_line};
use gnoc_core::{
    ArbiterKind, FaultGenConfig, FaultPlan, Mesh, MeshConfig, ReliableMesh, RetryConfig,
};
use gnoc_serve::{run, Admission, Engine, JobOutcome, JobSpec, ServeConfig};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests slower than this, measured from their scheduled send time,
/// miss the latency objective; rejected and failed requests always miss.
const SLO_MS: f64 = 250.0;

/// Offered load of the full-size schedule, in requests per second. On a
/// 2-vCPU host (2.0 GHz) two workers serve this job mix at about 200
/// requests/s, so the 800 requests arrive within 1 s and the engine drains
/// them over about 4 s. `wall_s` stays engine-bound until the engine gets
/// about four times faster.
const OFFERED_PER_S: f64 = 800.0;

/// Share of requests that repeat an earlier spec (a cache read, or an
/// attach while the first is still queued or running). Below one half, so
/// the median request is an executed one rather than sitting on the edge
/// between the two latency modes.
const REPEAT_SHARE: f64 = 0.4;

struct Request {
    due: Duration,
    spec: usize,
}

fn replay_trace(seed: u64, transfers: usize) -> String {
    let cfg = MeshConfig {
        width: 6,
        height: 6,
        buffer_packets: 4,
        arbiter: ArbiterKind::RoundRobin,
        route_order: RouteOrder::Xy,
        vcs: 1,
    };
    let mut rm = ReliableMesh::new(Mesh::new(cfg), RetryConfig::default());
    rm.attach_trace_tap(TraceTap::in_memory(&TraceHeader::mesh(
        6,
        6,
        seed,
        transfers as u64,
        0,
    )));
    let mut rng = Rng::new(seed, 7);
    for _ in 0..transfers {
        let s = rng.below(36) as u32;
        let d = (s + 1 + rng.below(35) as u32) % 36;
        rm.submit(
            NodeId::new(s),
            NodeId::new(d),
            1 + rng.below(4) as u32,
            PacketClass::Request,
        );
    }
    rm.run_until_quiescent(2_000_000);
    let line = mesh_stats_line(&rm).expect("mesh stats serialize");
    let tap = rm.take_trace_tap().expect("tap attached");
    to_hex(
        &tap.finish_bytes(line_digest(&line))
            .expect("in-memory tap cannot fail"),
    )
}

/// The seeded job mix and arrival schedule.
fn gen_inputs(ctx: &Ctx) -> (Vec<JobSpec>, Vec<Request>) {
    let n: usize = ctx.size.pick(800, 24);
    let rate: f64 = ctx.size.pick(OFFERED_PER_S, 200.0);
    let mut rng = Rng::new(ctx.seed, 6);
    // A Poisson process conditioned on `n` arrivals in `n / rate` seconds:
    // sorted uniform arrival times, so every seed offers the same load.
    let span = n as f64 / rate;
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * span).collect();
    times.sort_by(f64::total_cmp);
    // Exactly REPEAT_SHARE of the requests (the first excepted) repeat an
    // earlier spec; which ones is seeded.
    let repeats = (n as f64 * REPEAT_SHARE) as usize;
    let mut repeat = vec![false; n];
    let mut placed = 0;
    while placed < repeats {
        let i = 1 + rng.below(n as u64 - 1) as usize;
        if !repeat[i] {
            repeat[i] = true;
            placed += 1;
        }
    }
    // The kind mix of new specs is fixed (7:3:4:3:3 mesh, faulted mesh,
    // fabric, campaign, replay); only its order is seeded.
    let fresh = n - repeats;
    let mut kinds: Vec<u64> = (0..fresh as u64).map(|i| i * 20 / fresh as u64).collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut kinds = kinds.into_iter();
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut requests = Vec::with_capacity(n);
    for (at, again) in times.into_iter().zip(repeat) {
        let spec = if again {
            rng.below(specs.len() as u64) as usize
        } else {
            let seed = rng.next_u64() >> 16;
            let kind = kinds.next().expect("one kind per new spec");
            specs.push(match kind {
                0..=6 => JobSpec::Mesh {
                    seed,
                    transfers: 1000,
                    plan: None,
                },
                7..=9 => {
                    let mut g = FaultGenConfig::benign(seed, 6, 6);
                    g.dead_link_fraction = 0.06;
                    JobSpec::Mesh {
                        seed,
                        transfers: 1000,
                        plan: Some(FaultPlan::generate(&g)),
                    }
                }
                10..=13 => JobSpec::Fabric {
                    devices: 2,
                    topology: "ring".to_string(),
                    seed,
                    transfers: 500,
                },
                14..=16 => JobSpec::Campaign {
                    device: "v100".to_string(),
                    seed,
                    lines: 1,
                    samples: 1,
                    deadline_rows: Some(2),
                    plan: None,
                },
                _ => JobSpec::Replay {
                    trace_hex: replay_trace(seed, 500),
                    plan: None,
                },
            });
            specs.len() - 1
        };
        requests.push(Request {
            due: Duration::from_secs_f64(at),
            spec,
        });
    }
    (specs, requests)
}

/// What happened to one request.
#[derive(Default, Clone)]
struct Served {
    latency_ms: Option<f64>,
    payload: Option<String>,
    admit_us: f64,
    late_ms: f64,
    wait_ms: Option<f64>,
    queue_depth: f64,
}

pub fn rep(ctx: &mut Ctx, traced: bool) -> Rep {
    let mut rep = Rep::default();
    // Clearing the previous repetition's state is not set-up: its cost is
    // the size of the old cache on disk.
    let state_dir = ctx.scratch.join("serve-state");
    let _ = std::fs::remove_dir_all(&state_dir);
    let setup = Instant::now();
    let (specs, requests) = gen_inputs(ctx);
    let cfg = ServeConfig {
        queue_cap: 4096,
        session_cap: 4096,
        jobs: ctx.jobs,
        ..ServeConfig::new(&state_dir)
    };
    let engine = Engine::open(cfg, TelemetryHandle::disabled()).expect("engine opens");
    rep.setup_s = setup.elapsed().as_secs_f64();

    let handle = engine.handle();
    let origin = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, Instant, mpsc::Receiver<JobOutcome>)>();
    let mut served = vec![Served::default(); requests.len()];
    let mut t = Tracer::with_origin(traced, origin);
    let mut last_done = origin;

    std::thread::scope(|scope| {
        // The scheduler runs jobs in admission order, so the collector
        // blocks on each outcome in turn and spends no CPU the workers need.
        // A request that finishes before an earlier one is stamped when the
        // earlier one arrives.
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(|(i, admitted, orx)| {
                    let result = orx
                        .recv()
                        .map_or_else(|_| Err("outcome channel closed".to_string()), |o| o.result);
                    (i, admitted, Instant::now(), result)
                })
                .collect::<Vec<_>>()
        });

        for (i, req) in requests.iter().enumerate() {
            let due = origin + req.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let start = Instant::now();
            let admission = handle.admit(i as u64, &specs[req.spec]);
            let end = Instant::now();
            t.record("serve.admit", i as u64, start, end);
            let s = &mut served[i];
            s.late_ms = start.saturating_duration_since(due).as_secs_f64() * 1e3;
            s.admit_us = (end - start).as_secs_f64() * 1e6;
            if traced {
                s.queue_depth = handle.health().queue_depth as f64;
            }
            match admission {
                Admission::Cached { payload } => {
                    s.latency_ms = Some((end - due).as_secs_f64() * 1e3);
                    s.payload = Some(payload);
                    last_done = last_done.max(end);
                }
                Admission::Enqueued { rx, .. } | Admission::Attached { rx, .. } => {
                    tx.send((i, end, rx)).expect("collector is running");
                }
                Admission::Rejected { .. } => {}
            }
        }
        drop(tx);
        for (i, admitted, at, result) in collector.join().expect("collector thread panicked") {
            t.record("serve.wait", i as u64, admitted, at);
            let due = origin + requests[i].due;
            let s = &mut served[i];
            s.wait_ms = Some((at - admitted).as_secs_f64() * 1e3);
            if let Ok(payload) = result {
                s.latency_ms = Some((at - due).as_secs_f64() * 1e3);
                s.payload = Some(payload);
            }
            last_done = last_done.max(at);
        }
    });
    rep.wall_s = (last_done - origin).as_secs_f64();
    let health = handle.health();
    drop(engine);

    // Reference payloads, outside the timed region.
    let ckpt = ctx.scratch.join("reference-ckpt.json");
    let mut digest_line = String::new();
    for (i, (req, s)) in requests.iter().zip(&served).enumerate() {
        let spec = &specs[req.spec];
        let key = spec.cache_key();
        let want = ctx.refs.entry(key).or_insert_with(|| {
            let _ = std::fs::remove_file(&ckpt);
            run::execute(spec, &ckpt, 0)
                .result
                .unwrap_or_else(|e| format!("error: {e}"))
        });
        rep.check(s.payload.as_deref() == Some(want.as_str()), || {
            format!(
                "request {i} ({}): payload {} the reference",
                spec.kind(),
                if s.payload.is_some() {
                    "differs from"
                } else {
                    "missing; expected"
                }
            )
        });
        digest_line.push_str(&format!("{:016x}\n", line_digest(want)));
    }
    let _ = std::fs::remove_file(&ckpt);
    rep.digest("payloads", &digest_line);
    rep.count("requests", requests.len() as f64);
    rep.count("distinct_specs", specs.len() as f64);

    let latencies: Vec<f64> = served.iter().filter_map(|s| s.latency_ms).collect();
    let misses = served
        .iter()
        .filter(|s| s.latency_ms.is_none_or(|l| l > SLO_MS))
        .count();
    rep.ops_ms = served
        .iter()
        .map(|s| s.latency_ms.unwrap_or(f64::INFINITY))
        .filter(|l| l.is_finite())
        .collect();
    rep.extra
        .insert("req_ms_p50", spans::quantile(&latencies, 0.5));
    rep.extra
        .insert("req_ms_p99", spans::quantile(&latencies, 0.99));
    rep.extra
        .insert("req_slo_miss_ratio", misses as f64 / requests.len() as f64);
    rep.extra.insert("requests", requests.len() as f64);

    if traced {
        let admit: Vec<f64> = served.iter().map(|s| s.admit_us).collect();
        let wait: Vec<f64> = served.iter().filter_map(|s| s.wait_ms).collect();
        let late: Vec<f64> = served.iter().map(|s| s.late_ms).collect();
        let depth: Vec<f64> = served.iter().map(|s| s.queue_depth).collect();
        let lookups = (health.cache_hits + health.cache_misses).max(1);
        let l = &mut rep.layer;
        l.insert("serve.admit_us_p50", spans::quantile(&admit, 0.5));
        l.insert("serve.admit_us_p99", spans::quantile(&admit, 0.99));
        l.insert("serve.wait_ms_p50", spans::quantile(&wait, 0.5));
        l.insert(
            "serve.cache_hit_ratio",
            health.cache_hits as f64 / lookups as f64,
        );
        l.insert("serve.queue_depth_mean", spans::mean(&depth));
        l.insert("serve.rejected", health.jobs_rejected as f64);
        l.insert("loadgen.late_ms_p99", spans::quantile(&late, 0.99));
        rep.spans = t.into_spans();
    }
    rep
}
