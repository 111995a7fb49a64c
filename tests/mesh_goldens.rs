//! Cross-version goldens for what one mesh step does.
//!
//! The differential suites (`event_core`, `trace_replay`) compare two
//! engines or two runs of the *same* build, so a change to the step's
//! semantics — arbitration order, credit accounting, fault-draw order —
//! passes them as long as both sides change together. These tests pin
//! FNV-1a 64 digests of fixed workloads instead, so any behavioural
//! change to `Mesh::step` (or the reliable and fabric layers above it)
//! fails here, in tier 1, naming the workload. A deliberate semantic
//! change must update the pinned value and say why.
//!
//! Every workload is generated from a fixed splitmix64 stream, so the
//! digests depend on nothing but the simulator.

use gnoc_core::faults::{Direction, LinkFault, LinkFaultKind, RouterStall, TransientFaults};
use gnoc_core::noc::{
    ArbiterKind, MeshConfig, NodeId, PacketClass, ReliableMesh, RetryConfig, RouteOrder,
};
use gnoc_core::trace::fnv1a64;
use gnoc_core::trace_digest::{fabric_stats_line, line_digest, mesh_stats_line};
use gnoc_core::{
    FabricConfig, FabricHealthConfig, FabricHealthMonitor, FabricSim, FabricTopology,
    FaultGenConfig, FaultPlan, FlakyBurst, HealthConfig, Mesh, ProfileReport, RegionFault,
    SelfHealingMesh,
};
use std::collections::VecDeque;

/// splitmix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Folds `value` into a running FNV-1a 64 digest.
fn fold(h: &mut u64, value: u64) {
    for b in value.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The paper's Fig. 23 drive: 30 compute nodes offer 0.3 packets/cycle each
/// to the six bottom-row MCs (1.5x their ejection capacity), stamped with
/// generation time, one injection attempt per node per cycle. Returns the
/// digest of the final `{cycle, stats}` line and of the ejection sequence.
fn paper_drive(arbiter: ArbiterKind) -> (String, String) {
    let mut mesh = Mesh::new(MeshConfig::paper_6x6(arbiter));
    let mut backlog: Vec<VecDeque<(u64, u32)>> = vec![VecDeque::new(); 36];
    let mut state = 23u64;
    let mut ejections = 0xcbf2_9ce4_8422_2325u64;
    for cycle in 0..2_000u64 {
        for queue in backlog.iter_mut().skip(6) {
            if mix(&mut state) % 10 < 3 {
                queue.push_back((cycle, (mix(&mut state) % 6) as u32));
            }
        }
        for (src, queue) in backlog.iter_mut().enumerate() {
            if let Some(&(birth, dst)) = queue.front() {
                let node = NodeId::new(src as u32);
                if mesh.try_inject_with_birth(
                    node,
                    NodeId::new(dst),
                    1,
                    PacketClass::Request,
                    birth,
                ) {
                    queue.pop_front();
                }
            }
        }
        mesh.step();
        for p in mesh.drain_ejected() {
            fold(&mut ejections, p.id);
            fold(&mut ejections, mesh.cycle());
        }
    }
    assert!(mesh.stats().delivered_total > 0);
    let stats = serde_json::to_string(mesh.stats()).expect("mesh stats serialize");
    let line = format!("{{\"cycle\":{},\"stats\":{stats}}}", mesh.cycle());
    (hex(fnv1a64(line.as_bytes())), hex(ejections))
}

#[test]
fn paper_6x6_round_robin_drive_is_pinned() {
    let (stats, ejections) = paper_drive(ArbiterKind::RoundRobin);
    assert_eq!(stats, "d8eefbb92a7207d6", "stats digest");
    assert_eq!(ejections, "7593330e86fb806b", "ejection-order digest");
}

#[test]
fn paper_6x6_age_drive_is_pinned() {
    let (stats, ejections) = paper_drive(ArbiterKind::AgeBased);
    assert_eq!(stats, "b6019a1c282f30eb", "stats digest");
    assert_eq!(ejections, "7c677de8272e5afb", "ejection-order digest");
}

/// The 8x8, 2-VC, 4-packet-buffer soak geometry under `arbiter`.
fn soak_cfg(arbiter: ArbiterKind) -> MeshConfig {
    MeshConfig {
        width: 8,
        height: 8,
        buffer_packets: 4,
        arbiter,
        route_order: RouteOrder::Xy,
        vcs: 2,
    }
}

/// Submits `n` transfers of 1–4 flits between distinct nodes, alternating
/// request and reply classes; with `hot`, half target one of the hot nodes.
fn submit_soak(rm: &mut ReliableMesh, seed: u64, n: usize, hot: &[u32]) {
    let nodes = rm.mesh().config().num_nodes() as u64;
    let mut state = seed;
    let mut submitted = 0usize;
    while submitted < n {
        let src = (mix(&mut state) % nodes) as u32;
        let dst = if !hot.is_empty() && mix(&mut state).is_multiple_of(2) {
            hot[(mix(&mut state) % hot.len() as u64) as usize]
        } else {
            (mix(&mut state) % nodes) as u32
        };
        if src == dst {
            continue;
        }
        let flits = 1 + (mix(&mut state) % 4) as u32;
        let class = if submitted.is_multiple_of(2) {
            PacketClass::Request
        } else {
            PacketClass::Reply
        };
        rm.submit(NodeId::new(src), NodeId::new(dst), flits, class);
        submitted += 1;
    }
}

fn soak_digest(rm: &mut ReliableMesh) -> String {
    assert!(rm.run_until_quiescent(2_000_000), "soak must quiesce");
    hex(line_digest(
        &mesh_stats_line(rm).expect("mesh stats serialize"),
    ))
}

#[test]
fn reliable_8x8_uniform_soak_is_pinned() {
    let mut rm = ReliableMesh::new(
        Mesh::new(soak_cfg(ArbiterKind::RoundRobin)),
        RetryConfig::default(),
    );
    submit_soak(&mut rm, 5, 800, &[]);
    assert_eq!(soak_digest(&mut rm), "bb2dd21ab20496df");
}

#[test]
fn reliable_8x8_hotspot_soak_is_pinned() {
    let cfg = soak_cfg(ArbiterKind::AgeBased);
    let mut rm = ReliableMesh::new(Mesh::new(cfg), RetryConfig::default());
    submit_soak(&mut rm, 6, 800, &[9, 27, 36, 54]);
    assert_eq!(soak_digest(&mut rm), "5500416bb529727f");
}

/// A 6x6 plan exercising every per-step fault path: a mid-run dead link
/// (switching routing onto the up*/down* tables), a flaky link, transient
/// drops and corruption, and a router stall window.
fn faulted_plan() -> FaultPlan {
    FaultPlan {
        seed: 41,
        links: vec![
            LinkFault {
                router: 14,
                dir: Direction::East,
                kind: LinkFaultKind::Dead,
                onset: 150,
            },
            LinkFault {
                router: 20,
                dir: Direction::North,
                kind: LinkFaultKind::Flaky { drop_prob: 0.2 },
                onset: 40,
            },
        ],
        routers: vec![RouterStall {
            router: 21,
            onset: 250,
            duration: 200,
        }],
        transient: TransientFaults {
            drop_prob: 0.002,
            corrupt_prob: 0.004,
            onset: 0,
        },
        ..FaultPlan::none()
    }
}

#[test]
fn faulted_mesh_soak_is_pinned() {
    let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin).with_vcs(2);
    let mut rm = ReliableMesh::with_faults(cfg, &faulted_plan(), RetryConfig::default())
        .expect("plan fits the mesh");
    submit_soak(&mut rm, 7, 600, &[]);
    let reliable = soak_digest(&mut rm);
    let s = rm.mesh().stats();
    // The golden is only worth pinning if every fault path fired.
    assert!(s.reroutes > 0, "dead-link onset never rerouted");
    assert!(s.dropped_flaky > 0, "flaky link never dropped");
    assert!(s.corrupted > 0, "transient corruption never fired");
    assert!(s.dropped_transient > 0, "transient drop never fired");
    let mesh_line = format!(
        "{{\"cycle\":{},\"stats\":{}}}",
        rm.mesh().cycle(),
        serde_json::to_string(s).expect("mesh stats serialize")
    );
    assert_eq!(reliable, "473f8a7084fafe82", "reliable stats digest");
    assert_eq!(
        hex(fnv1a64(mesh_line.as_bytes())),
        "6989ef810bc89671",
        "mesh stats digest"
    );
}

#[test]
fn fabric_ring_soak_is_pinned() {
    let mut sim = FabricSim::new(FabricConfig::new(4, FabricTopology::Ring))
        .expect("4-device ring is a valid fabric");
    let nodes = sim.config().mesh.num_nodes() as u64;
    let mut state = 8u64;
    let mut submitted = 0;
    while submitted < 300 {
        let sd = (mix(&mut state) % 4) as u32;
        let dd = (mix(&mut state) % 4) as u32;
        let s = (mix(&mut state) % nodes) as u32;
        let d = (mix(&mut state) % nodes) as u32;
        if sd == dd && s == d {
            continue;
        }
        let flits = 1 + (mix(&mut state) % 4) as u32;
        sim.submit(
            sd,
            NodeId::new(s),
            dd,
            NodeId::new(d),
            flits,
            PacketClass::Request,
        )
        .expect("generated endpoints are in range");
        submitted += 1;
    }
    assert!(
        sim.run_until_quiescent(2_000_000),
        "fabric soak must quiesce"
    );
    let line = fabric_stats_line(&sim).expect("fabric stats serialize");
    assert_eq!(hex(line_digest(&line)), "b037ef10496af5c8");
}

#[test]
fn flight_recorded_soak_profile_is_pinned() {
    let cfg = soak_cfg(ArbiterKind::RoundRobin);
    let mut rm = ReliableMesh::new(Mesh::new(cfg), RetryConfig::default());
    rm.mesh_mut().attach_flight_recorder();
    submit_soak(&mut rm, 9, 400, &[18, 45]);
    let stats = soak_digest(&mut rm);
    let cycles = rm.mesh().cycle();
    let rec = rm
        .mesh_mut()
        .take_flight_recorder()
        .expect("recorder attached above");
    let report = ProfileReport::from_recorder(&rec, cfg.width, cfg.height, cycles, 5);
    let profile = hex(fnv1a64(report.to_json_pretty().as_bytes()));
    assert_eq!(stats, "017cd6347291f86e", "stats digest");
    assert_eq!(profile, "e9a4b98d848562f9", "profile digest");
}

/// The chaos soak's die-level fault archetypes on its 5x5 mesh, selected by
/// `seed % 5`: benign; 12% dead links; dead + flaky links and a stalled
/// router; a dead-link onset storm over a regional failure; a flaky burst
/// with transient drops and corruption. With `devices` set, a 4-device ring
/// plan that also kills one fabric link.
fn chaos_plan(seed: u64, devices: u32) -> FaultPlan {
    let mut g = FaultGenConfig::benign(seed, 5, 5);
    if devices >= 2 {
        g.devices = devices;
        g.fabric_topology = FabricTopology::Ring;
        g.dead_fabric_links = 1;
    }
    match seed % 5 {
        0 => {}
        1 => g.dead_link_fraction = 0.12,
        2 => {
            g.dead_link_fraction = 0.06;
            g.flaky_links = 4;
            g.flaky_drop_prob = 0.30;
            g.stalled_routers = 1;
            g.stall_duration = 500;
            g.onset = 64;
        }
        3 => {
            g.dead_link_fraction = 0.05;
            g.onset_storm_span = 4_000;
            g.region = Some(RegionFault {
                center: 12,
                radius: 2,
                dead_fraction: 0.6,
            });
        }
        _ => {
            g.burst = Some(FlakyBurst {
                links: 6,
                drop_prob: 0.25,
                onset: 1_500,
            });
            g.transient_drop_prob = 0.0015;
            g.transient_corrupt_prob = 0.0008;
            g.onset = 200;
        }
    }
    FaultPlan::generate(&g)
}

/// Hidden-plan link detection as the chaos detection oracle runs it: a
/// self-healing 5x5 mesh patrolled until 8000 cycles past the last onset.
/// Digests the health report, the retry layer's stats and the mesh stats.
fn detection_digest(seed: u64) -> String {
    let plan = chaos_plan(seed, 1);
    let mut healer = SelfHealingMesh::new(
        MeshConfig::new(5, 5, ArbiterKind::RoundRobin),
        &plan,
        RetryConfig::default(),
        HealthConfig::default(),
    )
    .expect("chaos plans fit the mesh");
    // The golden is only worth pinning if each archetype carries its faults.
    match seed % 5 {
        0 => assert!(plan.links.is_empty(), "benign plan"),
        2 => assert!(!plan.routers.is_empty(), "router stall"),
        4 => assert!(plan.transient.is_active(), "transient drop/corruption"),
        _ => assert!(!plan.links.is_empty(), "dead links"),
    }
    let last_onset = plan.links.iter().map(|l| l.onset).max().unwrap_or(0);
    healer
        .run_detection(last_onset + 8_000)
        .expect("detection run");
    let rm = healer.rm();
    let line = format!(
        "{}\n{}\n{{\"cycle\":{},\"stats\":{}}}",
        serde_json::to_string(&healer.report()).expect("health report serializes"),
        serde_json::to_string(rm.stats()).expect("reliability stats serialize"),
        rm.mesh().cycle(),
        serde_json::to_string(rm.mesh().stats()).expect("mesh stats serialize"),
    );
    hex(fnv1a64(line.as_bytes()))
}

#[test]
fn self_healing_detection_is_pinned() {
    let pinned = [
        (0, "789c52c3d2c5037a"),
        (1, "f581d8c70c364343"),
        (2, "f2bcb5c58a1e7e43"),
        (3, "405d0d75874a4ab6"),
        (4, "c4aa8b93e5a23a45"),
    ];
    let got: Vec<(u64, String)> = pinned
        .iter()
        .map(|&(seed, _)| (seed, detection_digest(seed)))
        .collect();
    for ((seed, want), (_, digest)) in pinned.iter().zip(&got) {
        assert_eq!(
            digest, want,
            "detection digest for chaos plan {seed}: {got:?}"
        );
    }

    // Fabric-link detection on a 4-device ring with one dead fabric link.
    let plan = chaos_plan(1, 4);
    let mut fc = FabricConfig::new(4, FabricTopology::Ring);
    fc.mesh = MeshConfig::new(5, 5, ArbiterKind::RoundRobin);
    fc.self_healing = true;
    let mut sim = FabricSim::with_faults(fc, &plan).expect("ring plan fits the fabric");
    let mut monitor = FabricHealthMonitor::new(&sim, FabricHealthConfig::default());
    let last_onset = plan.fabric.links.iter().map(|l| l.onset).max().unwrap_or(0);
    monitor.run_detection(&mut sim, last_onset + 8_000);
    assert!(
        !monitor.detected_links(&sim).is_empty(),
        "the dead fabric link must be detected"
    );
    let line = format!(
        "{}\n{}",
        serde_json::to_string(&monitor.report(&sim)).expect("fabric report serializes"),
        fabric_stats_line(&sim).expect("fabric stats serialize"),
    );
    assert_eq!(
        hex(fnv1a64(line.as_bytes())),
        "532eacc7f0c234e9",
        "fabric detection digest"
    );
}
