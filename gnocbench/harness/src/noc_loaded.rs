//! `noc_loaded`: saturated on-die and multi-die traffic.
//!
//! Every cycle moves flits, so the event core never skips and the analytic
//! engine is never called: host time is the mesh route/arbitrate/forward
//! path and fabric crossings. Scenarios:
//!
//! 1. the paper's 6×6 mesh (Fig. 23) above MC saturation, round-robin and
//!    age arbiters, driven by `Mesh::try_inject_with_birth` + `Mesh::step`;
//! 2. 8×8 `ReliableMesh` uniform and hotspot soaks run to quiescence;
//! 3. 4-device ring `FabricSim` soaks;
//! 4. the first uniform soak re-run with the flight recorder attached;
//! 5. the first uniform soak re-run with an in-memory `TraceTap`, then
//!    validated and replayed into a fresh mesh.
//!
//! Soaks are several independent draws rather than one large one: how long
//! a burst takes to drain depends on where its traffic happens to collide,
//! and averaging over draws keeps the work per seed nearly constant.
//! Recorded, tapped and replayed runs must reproduce the bare run's digest.

use crate::spans::{self, Tracer};
use crate::{Ctx, Rep, Rng};
use gnoc_core::noc::{NodeId, PacketClass, RouteOrder};
use gnoc_core::trace::{validate_stream, TraceHeader, TraceReader, TraceTap};
use gnoc_core::trace_digest::{fabric_stats_line, line_digest, mesh_stats_line};
use gnoc_core::{
    ArbiterKind, FabricConfig, FabricSim, FabricTopology, Mesh, MeshConfig, ReliableMesh,
    RetryConfig, TransferOutcome,
};
use std::collections::VecDeque;
use std::time::Instant;

/// One transfer request: source, destination, flits, class.
type Transfer = (u32, u32, u32, PacketClass);
/// One fabric transfer: source device and node, destination device and
/// node, flits.
type FabricTransfer = (u32, u32, u32, u32, u32);

struct Inputs {
    /// Per-cycle MC-bound arrivals `(cycle, src, dst)` on the 6×6 mesh.
    arrivals: Vec<(u32, u32, u32)>,
    mesh_cycles: u32,
    uniform: Vec<Vec<Transfer>>,
    hotspot: Vec<Vec<Transfer>>,
    fabric: Vec<Vec<FabricTransfer>>,
}

const SOAK_DIM: usize = 8;
const FABRIC_DEVICES: u32 = 4;
const FABRIC_DIE: u32 = 25;
const BUDGET: u64 = 2_000_000;

fn soak_cfg() -> MeshConfig {
    MeshConfig {
        width: SOAK_DIM,
        height: SOAK_DIM,
        buffer_packets: 4,
        arbiter: ArbiterKind::RoundRobin,
        route_order: RouteOrder::Xy,
        vcs: 2,
    }
}

fn class(i: usize) -> PacketClass {
    if i.is_multiple_of(2) {
        PacketClass::Request
    } else {
        PacketClass::Reply
    }
}

/// `n` transfers between distinct nodes; with `hot`, half of them target
/// one of the hot nodes.
fn soak_traffic(rng: &mut Rng, n: usize, hot: &[u32]) -> Vec<Transfer> {
    let nodes = (SOAK_DIM * SOAK_DIM) as u64;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let s = rng.below(nodes) as u32;
        let d = if !hot.is_empty() && rng.below(2) == 0 {
            hot[rng.below(hot.len() as u64) as usize]
        } else {
            rng.below(nodes) as u32
        };
        if s != d {
            out.push((s, d, 1 + rng.below(4) as u32, class(out.len())));
        }
    }
    out
}

fn fabric_traffic(rng: &mut Rng, n: usize) -> Vec<FabricTransfer> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let sd = rng.below(u64::from(FABRIC_DEVICES)) as u32;
        let dd = rng.below(u64::from(FABRIC_DEVICES)) as u32;
        let s = rng.below(u64::from(FABRIC_DIE)) as u32;
        let d = rng.below(u64::from(FABRIC_DIE)) as u32;
        if sd != dd || s != d {
            out.push((sd, s, dd, d, 1 + rng.below(4) as u32));
        }
    }
    out
}

fn gen_inputs(ctx: &Ctx) -> Inputs {
    let mesh_cycles: u32 = ctx.size.pick(6_000, 300);
    let draws: usize = ctx.size.pick(4, 1);
    let soak_n: usize = ctx.size.pick(1_500, 200);
    let fabric_n: usize = ctx.size.pick(500, 100);

    // Fig. 23 traffic: 30 compute nodes offer 0.3 packets/cycle each to the
    // six bottom-row MCs, 1.5x the MC ejection capacity.
    let mut rng = Rng::new(ctx.seed, 1);
    let mut arrivals = Vec::new();
    for cycle in 0..mesh_cycles {
        for src in 6..36u32 {
            if rng.unit() < 0.3 {
                arrivals.push((cycle, src, rng.below(6) as u32));
            }
        }
    }

    let mut rng = Rng::new(ctx.seed, 2);
    let uniform = (0..draws)
        .map(|_| soak_traffic(&mut rng, soak_n, &[]))
        .collect();
    let hotspot = (0..draws)
        .map(|_| {
            // Four distinct hot nodes per draw.
            let mut hot: Vec<u32> = Vec::new();
            while hot.len() < 4 {
                let h = rng.below((SOAK_DIM * SOAK_DIM) as u64) as u32;
                if !hot.contains(&h) {
                    hot.push(h);
                }
            }
            soak_traffic(&mut rng, soak_n, &hot)
        })
        .collect();
    let mut rng = Rng::new(ctx.seed, 3);
    let fabric = (0..draws)
        .map(|_| fabric_traffic(&mut rng, fabric_n))
        .collect();
    Inputs {
        arrivals,
        mesh_cycles,
        uniform,
        hotspot,
        fabric,
    }
}

fn add(rep: &mut Rep, name: &str, v: f64) {
    *rep.counts.entry(name.to_string()).or_insert(0.0) += v;
}

/// The Fig. 23 drive loop: per-node source queues stamped with generation
/// time, one injection attempt per node per cycle.
fn drive_paper_mesh(inp: &Inputs, arbiter: ArbiterKind, rep: &mut Rep, label: &str) {
    let mut mesh = Mesh::new(MeshConfig::paper_6x6(arbiter));
    let mut backlog: Vec<VecDeque<(u64, NodeId)>> = vec![VecDeque::new(); 36];
    let (mut attempts, mut refused, mut flits) = (0u64, 0u64, 0u64);
    let mut next = 0;
    for cycle in 0..inp.mesh_cycles {
        while let Some(&(c, src, dst)) = inp.arrivals.get(next) {
            if c != cycle {
                break;
            }
            backlog[src as usize].push_back((u64::from(cycle), NodeId::new(dst)));
            next += 1;
        }
        for (src, queue) in backlog.iter_mut().enumerate() {
            if let Some(&(birth, dst)) = queue.front() {
                attempts += 1;
                let node = NodeId::new(src as u32);
                if mesh.try_inject_with_birth(node, dst, 1, PacketClass::Request, birth) {
                    queue.pop_front();
                } else {
                    refused += 1;
                }
            }
        }
        mesh.step();
        flits += mesh
            .drain_ejected()
            .iter()
            .map(|p| u64::from(p.flits))
            .sum::<u64>();
    }
    let stats = serde_json::to_string(mesh.stats()).expect("mesh stats serialize");
    rep.digest(
        format!("{label}.stats"),
        &format!("{{\"cycle\":{},\"stats\":{stats}}}", mesh.cycle()),
    );
    add(rep, "noc.cycles", mesh.cycle() as f64);
    add(rep, "noc.flits_delivered", flits as f64);
    add(rep, "noc.inject_attempts", attempts as f64);
    add(rep, "noc.inject_refused", refused as f64);
    add(rep, "noc.latency_sum", mesh.stats().latency_sum as f64);
    add(rep, "noc.packets", mesh.stats().delivered_total as f64);
    rep.count(
        format!("{label}.delivered"),
        mesh.stats().delivered_total as f64,
    );
    rep.count(
        format!("{label}.latency_p99"),
        mesh.stats().latency_quantile(0.99),
    );
    rep.check(mesh.stats().delivered_total > 0, || {
        format!("{label}: nothing delivered")
    });
}

fn submit_all(rm: &mut ReliableMesh, transfers: &[Transfer]) {
    for &(s, d, f, c) in transfers {
        rm.submit(NodeId::new(s), NodeId::new(d), f, c);
    }
}

/// Runs a reliable soak to quiescence and returns its canonical stats line.
fn finish_soak(rm: &mut ReliableMesh, rep: &mut Rep, label: &str) -> String {
    let quiesced = rm.run_until_quiescent(BUDGET);
    let line = mesh_stats_line(rm).expect("mesh stats serialize");
    let stats = rm.stats();
    rep.check(quiesced && stats.lost_total() == 0, || {
        format!("{label}: quiesced={quiesced} lost={}", stats.lost_total())
    });
    rep.count(format!("{label}.delivered"), stats.delivered as f64);
    rep.count(format!("{label}.cycles"), rm.mesh().cycle() as f64);
    line
}

/// A bare reliable soak, timed as `noc.step`; returns its stats line.
fn soak(transfers: &[Transfer], rep: &mut Rep, t: &mut Tracer, label: &str, unit: u64) -> String {
    let mut rm = ReliableMesh::new(Mesh::new(soak_cfg()), RetryConfig::default());
    submit_all(&mut rm, transfers);
    let line = t.span("noc.step", unit, |_| finish_soak(&mut rm, rep, label));
    let flits: u64 = rm
        .outcomes()
        .iter()
        .zip(transfers)
        .filter(|(o, _)| matches!(o, TransferOutcome::Delivered { .. }))
        .map(|(_, x)| u64::from(x.2))
        .sum();
    let s = rm.stats();
    add(rep, "noc.cycles", rm.mesh().cycle() as f64);
    add(rep, "noc.flits_delivered", flits as f64);
    add(rep, "noc.latency_sum", s.latency_sum as f64);
    add(rep, "noc.packets", s.delivered as f64);
    add(rep, "noc.retries", s.retries as f64);
    add(rep, "noc.submitted", s.submitted as f64);
    rep.digest(format!("{label}.stats"), &line);
    line
}

fn fabric_soak(
    transfers: &[FabricTransfer],
    rep: &mut Rep,
    t: &mut Tracer,
    label: &str,
    unit: u64,
) {
    let mut sim = FabricSim::new(FabricConfig::new(FABRIC_DEVICES, FabricTopology::Ring))
        .expect("4-device ring is a valid fabric");
    for &(sd, s, dd, d, f) in transfers {
        sim.submit(
            sd,
            NodeId::new(s),
            dd,
            NodeId::new(d),
            f,
            PacketClass::Request,
        )
        .expect("generated endpoints are in range");
    }
    let quiesced = t.span("fabric.run", unit, |_| sim.run_until_quiescent(BUDGET));
    let line = fabric_stats_line(&sim).expect("fabric stats serialize");
    let s = sim.stats();
    rep.check(quiesced && s.lost_total() == 0, || {
        format!("{label}: quiesced={quiesced} lost={}", s.lost_total())
    });
    let flits: u64 = sim
        .outcomes()
        .iter()
        .zip(transfers)
        .filter(|(o, _)| matches!(o, TransferOutcome::Delivered { .. }))
        .map(|(_, x)| u64::from(x.4))
        .sum();
    rep.digest(format!("{label}.stats"), &line);
    add(rep, "fabric.cycles", sim.cycle() as f64);
    add(rep, "fabric.flits_delivered", flits as f64);
    add(rep, "fabric.hops", s.fabric_hops as f64);
    add(rep, "fabric.crossing_retries", s.fabric_retries as f64);
    add(rep, "fabric.latency_sum", s.latency_sum as f64);
    add(rep, "fabric.delivered", s.delivered as f64);
}

/// The first uniform draw re-run with the flight recorder attached:
/// observing must not change the run.
fn recorded_soak(transfers: &[Transfer], bare: &str, rep: &mut Rep, t: &mut Tracer, unit: u64) {
    let mut rm = ReliableMesh::new(Mesh::new(soak_cfg()), RetryConfig::default());
    rm.mesh_mut().attach_flight_recorder();
    submit_all(&mut rm, transfers);
    let line = t.span("telemetry.recorded_run", unit, |_| {
        finish_soak(&mut rm, rep, "recorded_uniform")
    });
    rep.check(line == bare, || {
        "recorded uniform soak differs from the bare run".to_string()
    });
}

/// The first uniform draw re-run with an in-memory trace tap, then the
/// trace validated and replayed into a fresh mesh.
fn tapped_soak(
    transfers: &[Transfer],
    bare: &str,
    seed: u64,
    rep: &mut Rep,
    t: &mut Tracer,
    unit: u64,
) {
    let cfg = soak_cfg();
    let header = TraceHeader::mesh(
        cfg.width as u32,
        cfg.height as u32,
        seed,
        transfers.len() as u64,
        0,
    );
    let mut rm = ReliableMesh::new(Mesh::new(cfg), RetryConfig::default());
    let line = t.span("trace.tapped_run", unit, |_| {
        rm.attach_trace_tap(TraceTap::in_memory(&header));
        submit_all(&mut rm, transfers);
        finish_soak(&mut rm, rep, "tapped_uniform")
    });
    let tap = rm.take_trace_tap().expect("tap attached");
    let events = tap.events();
    let bytes = tap
        .finish_bytes(line_digest(&line))
        .expect("in-memory tap cannot fail");
    let summary = t.span("trace.validate", unit, |_| {
        let mut reader = TraceReader::from_bytes(bytes.clone()).expect("fresh trace reads");
        validate_stream(&mut reader)
    });
    rep.check(
        matches!(&summary, Ok(s) if s.complete && s.events == events),
        || format!("tapped trace failed validation: {summary:?}"),
    );
    let replayed = t.span("trace.replay", unit, |_| {
        let mut reader = TraceReader::from_bytes(bytes.clone()).expect("fresh trace reads");
        let mut twin = ReliableMesh::new(Mesh::new(cfg), RetryConfig::default());
        let outcome = twin.replay_from(&mut reader);
        twin.run_until_quiescent(BUDGET);
        outcome.map(|_| mesh_stats_line(&twin).expect("mesh stats serialize"))
    });
    rep.check(
        line == bare && matches!(&replayed, Ok(l) if *l == line),
        || "tapped or replayed uniform soak differs from the bare run".to_string(),
    );
    rep.count("trace.events", events as f64);
    rep.count("trace.bytes", bytes.len() as f64);
}

pub fn rep(ctx: &mut Ctx, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let setup = Instant::now();
    let inp = gen_inputs(ctx);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let mut t = Tracer::new(traced);
    let started = Instant::now();
    let mut unit = 0u64;
    let mut op = |rep: &mut Rep, t: &mut Tracer, f: &mut dyn FnMut(&mut Rep, &mut Tracer, u64)| {
        let s = Instant::now();
        t.span("scenario", unit, |t| f(rep, t, unit));
        rep.ops_ms.push(s.elapsed().as_secs_f64() * 1e3);
        unit += 1;
    };

    for (arbiter, label) in [
        (ArbiterKind::RoundRobin, "mesh6_rr"),
        (ArbiterKind::AgeBased, "mesh6_age"),
    ] {
        op(&mut rep, &mut t, &mut |rep, t, u| {
            t.span("noc.step", u, |_| {
                drive_paper_mesh(&inp, arbiter, rep, label)
            });
        });
    }
    let mut bare = String::new();
    let mut bare_unit = 0;
    for (i, transfers) in inp.uniform.iter().enumerate() {
        op(&mut rep, &mut t, &mut |rep, t, u| {
            let line = soak(transfers, rep, t, &format!("soak_uniform{i}"), u);
            if i == 0 {
                bare = line;
                bare_unit = u;
            }
        });
    }
    for (i, transfers) in inp.hotspot.iter().enumerate() {
        op(&mut rep, &mut t, &mut |rep, t, u| {
            soak(transfers, rep, t, &format!("soak_hotspot{i}"), u);
        });
    }
    for (i, transfers) in inp.fabric.iter().enumerate() {
        op(&mut rep, &mut t, &mut |rep, t, u| {
            fabric_soak(transfers, rep, t, &format!("fabric_ring{i}"), u);
        });
    }
    op(&mut rep, &mut t, &mut |rep, t, u| {
        recorded_soak(&inp.uniform[0], &bare, rep, t, u);
    });
    op(&mut rep, &mut t, &mut |rep, t, u| {
        tapped_soak(&inp.uniform[0], &bare, ctx.seed, rep, t, u);
    });
    rep.wall_s = started.elapsed().as_secs_f64();

    let c = |name: &str| rep.counts.get(name).copied().unwrap_or(0.0);
    let flits = c("noc.flits_delivered") + c("fabric.flits_delivered");
    rep.extra.insert("flits_per_s", flits / rep.wall_s);

    if traced {
        let spans = t.into_spans();
        let st = spans::self_times(&spans);
        let s = |name: &str| st.get(name).copied().unwrap_or(0.0);
        let step_s = spans::total(&spans, "noc.step");
        let bare_s = spans
            .iter()
            .find(|x| x.name == "noc.step" && x.unit == bare_unit)
            .map_or(0.0, spans::Span::secs);
        let cycles = c("noc.cycles");
        let l = &mut rep.layer;
        l.insert("noc.step_s", step_s);
        l.insert("noc.ns_per_cycle", step_s * 1e9 / cycles.max(1.0));
        l.insert(
            "noc.ns_per_flit",
            step_s * 1e9 / c("noc.flits_delivered").max(1.0),
        );
        l.insert("noc.cycles", cycles);
        l.insert("noc.flits_delivered", c("noc.flits_delivered"));
        l.insert(
            "noc.latency_cycles_mean",
            c("noc.latency_sum") / c("noc.packets").max(1.0),
        );
        l.insert(
            "noc.latency_cycles_p99",
            c("mesh6_rr.latency_p99").max(c("mesh6_age.latency_p99")),
        );
        l.insert(
            "noc.inject_refused_ratio",
            c("noc.inject_refused") / c("noc.inject_attempts").max(1.0),
        );
        l.insert("noc.retries", c("noc.retries"));
        l.insert(
            "noc.retry_ratio",
            c("noc.retries") / c("noc.submitted").max(1.0),
        );
        let fabric_s = s("fabric.run");
        l.insert("fabric.run_s", fabric_s);
        l.insert(
            "fabric.ns_per_cycle",
            fabric_s * 1e9 / c("fabric.cycles").max(1.0),
        );
        l.insert("fabric.hops", c("fabric.hops"));
        l.insert("fabric.crossing_retries", c("fabric.crossing_retries"));
        l.insert(
            "fabric.latency_cycles_mean",
            c("fabric.latency_sum") / c("fabric.delivered").max(1.0),
        );
        l.insert("telemetry.recorded_run_s", s("telemetry.recorded_run"));
        l.insert(
            "telemetry.recorder_overhead_ratio",
            s("telemetry.recorded_run") / bare_s.max(1e-12),
        );
        l.insert(
            "trace.record_overhead_ratio",
            s("trace.tapped_run") / bare_s.max(1e-12),
        );
        l.insert("trace.replay_s", s("trace.replay"));
        l.insert("trace.validate_s", s("trace.validate"));
        l.insert("trace.events", c("trace.events"));
        l.insert(
            "trace.bytes_per_event",
            c("trace.bytes") / c("trace.events").max(1.0),
        );
        rep.spans = spans;
    }
    rep
}
