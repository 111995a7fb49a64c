//! The cycle-level multi-device fabric simulator.

use crate::config::{FabricConfig, FabricError};
use gnoc_faults::{FabricFaults, FaultPlan, LinkFaultKind};
use gnoc_noc::{LossReason, Mesh, NodeId, PacketClass, ReliableMesh, TransferId, TransferOutcome};
use gnoc_telemetry::{FlightRecorder, StallKind, FABRIC_PORT};
use gnoc_topo::hash::{SplitMix64, GOLDEN_GAMMA};
use serde::{Deserialize, Serialize};

/// Salt xored into the plan seed for the fabric's private RNG stream, so
/// fabric draws never alias the per-die mesh streams.
const FABRIC_RNG_SALT: u64 = 0x6661_6272_6963_5f6c;

/// Handle for one transfer submitted to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FabricTransferId(usize);

impl FabricTransferId {
    /// The transfer's dense index (submission order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One undirected inter-device link with per-direction occupancy.
#[derive(Debug, Clone)]
struct FabricLink {
    a: u32,
    b: u32,
    /// Cycle each direction is busy until (0 = `a→b`, 1 = `b→a`).
    busy_until: [u64; 2],
    dead_onset: Option<u64>,
    /// `(drop_prob, onset)` for a flaky link.
    flaky: Option<(f64, u64)>,
    quarantined: bool,
}

impl FabricLink {
    fn dead_at(&self, cycle: u64) -> bool {
        self.dead_onset.is_some_and(|o| o <= cycle)
    }

    fn flaky_at(&self, cycle: u64) -> Option<f64> {
        self.flaky
            .and_then(|(p, o)| if o <= cycle { Some(p) } else { None })
    }
}

/// Where a fabric transfer currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Travelling across the source die towards its egress port.
    SourceDie(TransferId),
    /// At fabric node `at`, becoming actionable at `ready_at`; `attempts`
    /// counts crossing attempts at the current hop.
    Fabric {
        at: u32,
        ready_at: u64,
        attempts: u32,
    },
    /// Travelling across the destination die from its ingress port.
    DestDie(TransferId),
    /// Resolved (delivered or lost).
    Done,
}

#[derive(Debug, Clone)]
struct FabricTransfer {
    src_dev: u32,
    dst_dev: u32,
    dst: NodeId,
    flits: u32,
    class: PacketClass,
    birth: u64,
    leg: Leg,
    state: TransferOutcome,
}

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FabricStats {
    /// Transfers submitted (same-device ones included).
    pub submitted: u64,
    /// Submitted transfers whose endpoints are on different devices.
    pub cross_device: u64,
    /// Transfers delivered, each exactly once.
    pub delivered: u64,
    /// Transfers lost because the fabric was severed between their devices
    /// (dead links, a dead switch, or a lost device).
    pub lost_partitioned: u64,
    /// Transfers lost inside a die leg, any die-level reason.
    pub lost_die: u64,
    /// Transfers lost after a fabric hop's crossing-retry budget drained.
    pub lost_fabric_retries: u64,
    /// Transfers written off by the fabric watchdog.
    pub lost_watchdog: u64,
    /// Fabric-link crossing attempts that dropped and were retried.
    pub fabric_retries: u64,
    /// Fabric-link crossings completed.
    pub fabric_hops: u64,
    /// Route-table recomputations that changed at least one route.
    pub reroutes: u64,
    /// Sum of delivered-transfer latencies.
    pub latency_sum: u64,
    /// Worst delivered-transfer latency.
    pub latency_max: u64,
}

impl FabricStats {
    /// Total transfers lost, any reason.
    pub fn lost_total(&self) -> u64 {
        self.lost_partitioned + self.lost_die + self.lost_fabric_retries + self.lost_watchdog
    }

    /// Mean delivered-transfer latency in cycles (0 with no deliveries).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered as f64
        }
    }
}

/// A multi-device fabric: one [`ReliableMesh`] per device, stepped in
/// lockstep, joined by an inter-device topology with per-link bandwidth
/// modelling, BFS multi-hop routing, and fault-aware failover.
///
/// A cross-device transfer runs source die mesh → egress port (node 0) →
/// fabric hops → ingress port (node 0) → destination die mesh. Every
/// submitted transfer reaches exactly one terminal state, mirroring
/// [`ReliableMesh`]'s contract.
///
/// Everything is deterministic: same config, plan, and submission sequence →
/// bit-identical outcomes and stats. The optional flight recorder observes
/// but cannot influence the simulation, so a profiled run is byte-identical
/// to a bare one.
#[derive(Debug)]
pub struct FabricSim {
    cfg: FabricConfig,
    dies: Vec<ReliableMesh>,
    links: Vec<FabricLink>,
    /// `adj[node]` = `(neighbour, link index)` sorted by neighbour id.
    adj: Vec<Vec<(u32, usize)>>,
    /// `routes[node][dst_device]` = next fabric node, `None` = unreachable.
    routes: Vec<Vec<Option<u32>>>,
    transfers: Vec<FabricTransfer>,
    /// Indices of the transfers not yet resolved, ascending: the step's
    /// poll worklist. Submission appends; each step prunes what it
    /// resolved, so per-cycle work follows live transfers, not history.
    live: Vec<usize>,
    now: u64,
    /// Fabric-link fault draws. Only probabilistic faults (flaky links) and
    /// link probes advance it, so benign plans draw nothing.
    rng: SplitMix64,
    fabric_faults: FabricFaults,
    /// Sorted distinct fabric fault onsets not yet applied.
    pending_onsets: Vec<u64>,
    device_dead: Vec<bool>,
    switch_dead: bool,
    stats: FabricStats,
    /// Per-link crossing drops, for the health monitor's delta windows.
    link_drops: Vec<u64>,
    outstanding: usize,
    last_progress: u64,
    recorder: Option<Box<FlightRecorder>>,
    /// Workload record tap (`gnoc trace record`): observes every submit,
    /// absent by default. Like the flight recorder it cannot influence the
    /// simulation, so tapped runs stay byte-identical to bare ones.
    trace_tap: Option<Box<gnoc_trace::TraceTap>>,
    #[cfg(feature = "bug-hooks")]
    stuck_crossing_bug: bool,
}

impl FabricSim {
    /// A fault-free fabric.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::Config`] on an invalid configuration.
    pub fn new(cfg: FabricConfig) -> Result<Self, FabricError> {
        Self::with_faults(cfg, &FaultPlan::none())
    }

    /// Builds the fabric and applies `plan`: the per-die portion is applied
    /// to **every** die (with a per-device seed variation so the dies'
    /// probabilistic faults draw independent streams) and the `fabric`
    /// portion drives the inter-device links, switch, and device losses.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::Plan`] when the plan's fabric section does not
    /// fit the topology, and [`FabricError::Noc`] / [`FabricError::Config`]
    /// on invalid die or fabric configuration.
    pub fn with_faults(cfg: FabricConfig, plan: &FaultPlan) -> Result<Self, FabricError> {
        cfg.validate()?;
        plan.validate_for_fabric(cfg.devices, cfg.topology)?;

        let mut dies = Vec::with_capacity(cfg.devices as usize);
        for d in 0..cfg.devices {
            let mut die_plan = plan.clone();
            die_plan.seed = plan
                .seed
                .wrapping_add(GOLDEN_GAMMA.wrapping_mul(u64::from(d)));
            die_plan.fabric = FabricFaults::default();
            // Note: `cfg.self_healing` governs only *fabric* routing. The
            // dies stay fault-aware — the fabric health monitor watches
            // inter-device links, not die links. The per-die plan is built
            // once and shared into the mesh behind an `Arc` (the seed
            // variation forces one plan per die, but not one per apply).
            dies.push(ReliableMesh::with_faults_shared(
                cfg.mesh,
                std::sync::Arc::new(die_plan),
                cfg.retry,
            )?);
        }

        let node_count = cfg.topology.node_count(cfg.devices) as usize;
        let mut links: Vec<FabricLink> = cfg
            .topology
            .links(cfg.devices)
            .into_iter()
            .map(|(a, b)| FabricLink {
                a,
                b,
                busy_until: [0, 0],
                dead_onset: None,
                flaky: None,
                quarantined: false,
            })
            .collect();
        for f in &plan.fabric.links {
            let pair = (f.a.min(f.b), f.a.max(f.b));
            let link = links
                .iter_mut()
                .find(|l| (l.a, l.b) == pair)
                .expect("validated against topology");
            match f.kind {
                LinkFaultKind::Dead => link.dead_onset = Some(f.onset),
                LinkFaultKind::Flaky { drop_prob } => link.flaky = Some((drop_prob, f.onset)),
            }
        }

        let mut adj = vec![Vec::new(); node_count];
        for (i, l) in links.iter().enumerate() {
            adj[l.a as usize].push((l.b, i));
            adj[l.b as usize].push((l.a, i));
        }
        for n in &mut adj {
            n.sort_unstable();
        }

        let mut pending_onsets: Vec<u64> = plan
            .fabric
            .links
            .iter()
            .map(|l| l.onset)
            .chain(plan.fabric.devices.iter().map(|d| d.onset))
            .chain(plan.fabric.dead_switch)
            .collect();
        pending_onsets.sort_unstable();
        pending_onsets.dedup();

        let link_count = links.len();
        let mut sim = Self {
            dies,
            links,
            adj,
            routes: Vec::new(),
            transfers: Vec::new(),
            live: Vec::new(),
            now: 0,
            rng: SplitMix64::new(plan.seed ^ FABRIC_RNG_SALT),
            fabric_faults: plan.fabric.clone(),
            pending_onsets,
            device_dead: vec![false; cfg.devices as usize],
            switch_dead: false,
            stats: FabricStats::default(),
            link_drops: vec![0; link_count],
            outstanding: 0,
            last_progress: 0,
            recorder: None,
            trace_tap: None,
            #[cfg(feature = "bug-hooks")]
            stuck_crossing_bug: false,
            cfg,
        };
        sim.recompute_routes(false);
        Ok(sim)
    }

    /// **Test hook (feature `bug-hooks`).** Re-introduces a lost-wakeup
    /// retry bug: a crossing that drops is never rescheduled (its retry
    /// timer parks at the end of time), so the transfer hangs mid-fabric
    /// until the watchdog writes it off. Exists solely so the chaos harness
    /// can prove its fabric progress oracle catches the bug.
    #[cfg(feature = "bug-hooks")]
    pub fn enable_stuck_crossing_bug(&mut self) {
        self.stuck_crossing_bug = true;
    }

    /// The configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Unresolved transfers.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The per-device dies, in device order.
    pub fn dies(&self) -> &[ReliableMesh] {
        &self.dies
    }

    /// One device's die.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn die(&self, device: u32) -> &ReliableMesh {
        &self.dies[device as usize]
    }

    /// Mutable access to one device's die (telemetry attachment etc.).
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn die_mut(&mut self, device: u32) -> &mut Mesh {
        self.dies[device as usize].mesh_mut()
    }

    /// The fabric's undirected links as `(a, b)` endpoint pairs, in link
    /// index order (the index space [`FabricSim::link_drops`] and the
    /// quarantine calls use).
    pub fn fabric_links(&self) -> Vec<(u32, u32)> {
        self.links.iter().map(|l| (l.a, l.b)).collect()
    }

    /// Per-link crossing-drop counters, by link index.
    pub fn link_drops(&self) -> &[u64] {
        &self.link_drops
    }

    /// Indices of currently-quarantined fabric links.
    pub fn quarantined_fabric_links(&self) -> Vec<usize> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.quarantined)
            .map(|(i, _)| i)
            .collect()
    }

    /// Devices currently dead (a [`gnoc_faults::DeviceFault`] onset passed).
    pub fn dead_devices(&self) -> Vec<u32> {
        self.device_dead
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Attaches a fresh flight recorder capturing every **cross-device**
    /// transfer: its source-die leg becomes `source_wait`, each fabric-link
    /// crossing a hop whose waiting cycles are charged to
    /// [`StallKind::FabricHop`], and the destination-die leg the final hop's
    /// residency. Same-device transfers are not recorded here (attach a
    /// recorder to the die for those). Recording never perturbs the
    /// simulation.
    pub fn attach_flight_recorder(&mut self) {
        self.recorder = Some(Box::default());
    }

    /// The attached recorder, if any.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_deref()
    }

    /// Detaches and returns the recorder.
    pub fn take_flight_recorder(&mut self) -> Option<Box<FlightRecorder>> {
        self.recorder.take()
    }

    /// Attaches a workload record tap: every subsequent [`FabricSim::
    /// submit`] is appended to the trace. The tap observes but cannot
    /// influence the simulation (its I/O errors are stashed sticky), so a
    /// recorded run is byte-identical to an untapped one.
    pub fn attach_trace_tap(&mut self, tap: gnoc_trace::TraceTap) {
        self.trace_tap = Some(Box::new(tap));
    }

    /// The attached workload record tap, if any.
    pub fn trace_tap(&self) -> Option<&gnoc_trace::TraceTap> {
        self.trace_tap.as_deref()
    }

    /// Detaches and returns the workload record tap for finalization.
    pub fn take_trace_tap(&mut self) -> Option<gnoc_trace::TraceTap> {
        self.trace_tap.take().map(|b| *b)
    }

    /// Replays a recorded submission stream into this fabric: every event
    /// is re-submitted in order (stepping the simulation up to the event's
    /// recorded cycle first), reproducing the recorded run bit for bit when
    /// the fabric was built from the trace header's configuration and plan.
    ///
    /// A truncated trace replays its complete prefix and reports the
    /// truncation point in [`gnoc_trace::ReplayOutcome::truncated`]; the
    /// caller decides whether that is a warning or an error.
    ///
    /// # Errors
    ///
    /// [`gnoc_trace::ReplayError::Trace`] on a corrupt or unreadable
    /// stream; [`gnoc_trace::ReplayError::Event`] when a CRC-valid event
    /// does not fit this fabric (device or node out of range) — never a
    /// panic.
    pub fn replay_from<R: std::io::Read>(
        &mut self,
        reader: &mut gnoc_trace::TraceReader<R>,
    ) -> Result<gnoc_trace::ReplayOutcome, gnoc_trace::ReplayError> {
        reader.replay(|ev| {
            let class = PacketClass::from_trace_code(ev.class)
                .ok_or_else(|| format!("unknown packet class {}", ev.class))?;
            while self.now < ev.cycle {
                self.step();
            }
            self.submit(
                ev.src_dev,
                NodeId::new(ev.src),
                ev.dst_dev,
                NodeId::new(ev.dst),
                ev.flits,
                class,
            )
            .map(drop)
            .map_err(|e| e.to_string())
        })
    }

    /// Submits a transfer from `(src_dev, src)` to `(dst_dev, dst)`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::DeviceOutOfRange`] or [`FabricError::Noc`]
    /// (node out of range) on bad endpoints.
    pub fn submit(
        &mut self,
        src_dev: u32,
        src: NodeId,
        dst_dev: u32,
        dst: NodeId,
        flits: u32,
        class: PacketClass,
    ) -> Result<FabricTransferId, FabricError> {
        for dev in [src_dev, dst_dev] {
            if dev >= self.cfg.devices {
                return Err(FabricError::DeviceOutOfRange {
                    device: dev,
                    devices: self.cfg.devices,
                });
            }
        }
        let nodes = self.cfg.mesh.num_nodes() as u32;
        for node in [src, dst] {
            if node.index() as u32 >= nodes {
                return Err(FabricError::Noc(gnoc_noc::NocError::NodeOutOfRange {
                    node: node.index() as u32,
                    num_nodes: nodes,
                }));
            }
        }

        if let Some(tap) = self.trace_tap.as_deref_mut() {
            tap.record(&gnoc_trace::TraceEvent {
                cycle: self.now,
                src_dev,
                src: src.index() as u32,
                dst_dev,
                dst: dst.index() as u32,
                flits,
                class: class.trace_code(),
            });
        }
        let id = FabricTransferId(self.transfers.len());
        let birth = self.now;
        let cross = src_dev != dst_dev;
        let leg = if !cross {
            // Same-device traffic rides the die directly.
            let tid = self.dies[src_dev as usize].submit(src, dst, flits, class);
            Leg::DestDie(tid)
        } else if src.index() == 0 {
            // Already at the egress port: straight into the fabric. The
            // recorder sees the injection now (source_wait = 0).
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.on_inject(id.0 as u64, src_dev, dst_dev, flits, birth, birth);
            }
            Leg::Fabric {
                at: src_dev,
                ready_at: birth,
                attempts: 0,
            }
        } else {
            let tid = self.dies[src_dev as usize].submit(src, NodeId::new(0), flits, class);
            Leg::SourceDie(tid)
        };
        self.live.push(id.0);
        self.transfers.push(FabricTransfer {
            src_dev,
            dst_dev,
            dst,
            flits,
            class,
            birth,
            leg,
            state: TransferOutcome::InFlight,
        });
        self.stats.submitted += 1;
        if cross {
            self.stats.cross_device += 1;
        }
        self.outstanding += 1;
        Ok(id)
    }

    /// Current state of a transfer.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this fabric's `submit`.
    pub fn outcome(&self, id: FabricTransferId) -> TransferOutcome {
        self.transfers[id.0].state
    }

    /// All transfer outcomes in submission order.
    pub fn outcomes(&self) -> Vec<TransferOutcome> {
        self.transfers.iter().map(|t| t.state).collect()
    }

    /// Quarantines a fabric link: routing stops using it immediately.
    /// Refused when it would disconnect the fabric's devices from each other
    /// (counting only quarantines — the monitor calling this does not know
    /// the fault plan), so a well-meaning breaker can never partition a
    /// healthy fabric.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::LinkOutOfRange`] for a bad index and
    /// [`FabricError::QuarantineWouldPartition`] on refusal.
    pub fn quarantine_fabric_link(&mut self, index: usize) -> Result<(), FabricError> {
        let links = self.links.len();
        let Some(link) = self.links.get(index) else {
            return Err(FabricError::LinkOutOfRange { index, links });
        };
        if link.quarantined {
            return Ok(());
        }
        let (a, b) = (link.a, link.b);
        let mut dead: Vec<(u32, u32)> = self
            .links
            .iter()
            .filter(|l| l.quarantined)
            .map(|l| (l.a, l.b))
            .collect();
        dead.push((a, b));
        if !gnoc_faults::fabric_connected_with(
            self.cfg.devices,
            self.cfg.topology,
            &dead,
            false,
            &[],
        ) {
            return Err(FabricError::QuarantineWouldPartition { a, b });
        }
        self.links[index].quarantined = true;
        self.recompute_routes(true);
        Ok(())
    }

    /// Releases a quarantined fabric link back into routing.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::LinkOutOfRange`] for a bad index.
    pub fn release_fabric_link(&mut self, index: usize) -> Result<(), FabricError> {
        let links = self.links.len();
        let Some(link) = self.links.get_mut(index) else {
            return Err(FabricError::LinkOutOfRange { index, links });
        };
        if link.quarantined {
            link.quarantined = false;
            self.recompute_routes(true);
        }
        Ok(())
    }

    /// Sends one probe flit across a fabric link and reports whether it
    /// survived: `false` on a (physically) dead link, a flaky draw, or a
    /// dead endpoint. Deterministic given the RNG stream position.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::LinkOutOfRange`] for a bad index.
    pub fn probe_fabric_link(&mut self, index: usize) -> Result<bool, FabricError> {
        let links = self.links.len();
        let Some(link) = self.links.get(index) else {
            return Err(FabricError::LinkOutOfRange { index, links });
        };
        if link.dead_at(self.now) || !self.node_alive(link.a) || !self.node_alive(link.b) {
            return Ok(false);
        }
        if let Some(p) = link.flaky_at(self.now) {
            return Ok(self.rng.next_f64() >= p);
        }
        Ok(true)
    }

    /// Whether fabric node `n` (device or switch) is currently alive.
    fn node_alive(&self, n: u32) -> bool {
        if n < self.cfg.devices {
            !self.device_dead[n as usize]
        } else {
            !self.switch_dead
        }
    }

    /// The links routing must avoid: quarantined ones always; physically
    /// dead ones only in fault-aware mode (self-healing routing has to
    /// *discover* deadness through the health monitor).
    fn routing_dead_link(&self, l: &FabricLink) -> bool {
        l.quarantined || (!self.cfg.self_healing && l.dead_at(self.now))
    }

    fn routing_node_alive(&self, n: u32) -> bool {
        if self.cfg.self_healing {
            true
        } else {
            self.node_alive(n)
        }
    }

    /// Recomputes the per-destination BFS route tables over the currently
    /// usable fabric graph. Next hops tie-break on the lowest neighbour id,
    /// so the tables are a pure function of the usable graph. The resulting
    /// per-destination trees are loops-free by construction, which (with
    /// unbounded fabric receive queues) is the fabric's deadlock-freedom
    /// argument — the inter-device analogue of the die's up*/down* rule
    /// (see DESIGN.md).
    fn recompute_routes(&mut self, count_reroute: bool) {
        let nodes = self.adj.len();
        let devices = self.cfg.devices as usize;
        let mut routes = vec![vec![None; devices]; nodes];
        for dst in 0..devices {
            if !self.routing_node_alive(dst as u32) {
                continue;
            }
            // BFS distance field from the destination device.
            let mut dist = vec![u32::MAX; nodes];
            dist[dst] = 0;
            let mut queue = std::collections::VecDeque::from([dst as u32]);
            while let Some(u) = queue.pop_front() {
                for &(v, li) in &self.adj[u as usize] {
                    if self.routing_dead_link(&self.links[li]) || !self.routing_node_alive(v) {
                        continue;
                    }
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = dist[u as usize] + 1;
                        queue.push_back(v);
                    }
                }
            }
            for n in 0..nodes {
                if n == dst || dist[n] == u32::MAX {
                    continue;
                }
                // Lowest-id neighbour strictly closer to the destination.
                routes[n][dst] = self.adj[n]
                    .iter()
                    .find(|&&(v, li)| {
                        !self.routing_dead_link(&self.links[li]) && dist[v as usize] == dist[n] - 1
                    })
                    .map(|&(v, _)| v);
            }
        }
        if count_reroute && routes != self.routes {
            self.stats.reroutes += 1;
        }
        self.routes = routes;
    }

    /// Applies fabric fault onsets due at `now`: marks devices/switch dead,
    /// writes off transfers stranded on dead devices as
    /// [`LossReason::Partitioned`], and (in fault-aware mode) recomputes the
    /// routes so failover starts the same cycle.
    fn apply_onsets(&mut self, now: u64) {
        if self.pending_onsets.first().is_none_or(|&o| o > now) {
            return;
        }
        self.pending_onsets.retain(|&o| o > now);

        let newly_dead_devices: Vec<u32> = self
            .fabric_faults
            .devices
            .iter()
            .filter(|d| d.onset <= now && !self.device_dead[d.device as usize])
            .map(|d| d.device)
            .collect();
        for &d in &newly_dead_devices {
            self.device_dead[d as usize] = true;
        }
        if self.fabric_faults.dead_switch.is_some_and(|o| o <= now) {
            self.switch_dead = true;
        }

        // Strand transfers on newly-dead devices (either endpoint, or
        // sitting mid-fabric at a node that just died).
        for idx in 0..self.transfers.len() {
            let t = &self.transfers[idx];
            if t.state.is_resolved() {
                continue;
            }
            let at_dead_node = match t.leg {
                Leg::Fabric { at, .. } => !self.node_alive(at),
                _ => false,
            };
            if at_dead_node
                || self.device_dead[t.src_dev as usize]
                || self.device_dead[t.dst_dev as usize]
            {
                self.resolve_lost(idx, LossReason::Partitioned, now);
            }
        }

        // Fault-aware routing reacts at onset; self-healing routing stays
        // blind until the monitor quarantines.
        if !self.cfg.self_healing {
            self.recompute_routes(true);
        }
    }

    fn resolve_lost(&mut self, idx: usize, reason: LossReason, now: u64) {
        let t = &mut self.transfers[idx];
        if t.state.is_resolved() {
            return;
        }
        t.state = TransferOutcome::Lost { reason };
        t.leg = Leg::Done;
        match reason {
            LossReason::Partitioned => self.stats.lost_partitioned += 1,
            LossReason::RetriesExhausted => self.stats.lost_fabric_retries += 1,
            LossReason::Watchdog => self.stats.lost_watchdog += 1,
            _ => self.stats.lost_die += 1,
        }
        self.outstanding -= 1;
        self.last_progress = now;
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.on_lost(idx as u64, now, &format!("{reason:?}"));
        }
    }

    fn resolve_die_lost(&mut self, idx: usize, reason: LossReason, now: u64) {
        let t = &mut self.transfers[idx];
        if t.state.is_resolved() {
            return;
        }
        t.state = TransferOutcome::Lost { reason };
        t.leg = Leg::Done;
        self.stats.lost_die += 1;
        self.outstanding -= 1;
        self.last_progress = now;
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.on_lost(idx as u64, now, &format!("{reason:?}"));
        }
    }

    fn resolve_delivered(&mut self, idx: usize, now: u64) {
        let t = &mut self.transfers[idx];
        let latency = now - t.birth;
        t.state = TransferOutcome::Delivered { latency };
        t.leg = Leg::Done;
        self.stats.delivered += 1;
        self.stats.latency_sum += latency;
        if latency > self.stats.latency_max {
            self.stats.latency_max = latency;
        }
        self.outstanding -= 1;
        self.last_progress = now;
    }

    /// One poll of transfer `idx` at cycle `now`. Returns `true` if the
    /// transfer should be polled again this cycle (a leg transition that can
    /// make progress immediately).
    fn poll_transfer(&mut self, idx: usize, now: u64) -> bool {
        let leg = self.transfers[idx].leg;
        match leg {
            Leg::Done => false,
            Leg::SourceDie(tid) => {
                let dev = self.transfers[idx].src_dev;
                match self.dies[dev as usize].outcome(tid) {
                    TransferOutcome::Delivered { .. } => {
                        // Reached the egress port: enter the fabric.
                        let t = &self.transfers[idx];
                        let (src_dev, dst_dev, flits, birth) =
                            (t.src_dev, t.dst_dev, t.flits, t.birth);
                        if let Some(rec) = self.recorder.as_deref_mut() {
                            rec.on_inject(idx as u64, src_dev, dst_dev, flits, birth, now);
                        }
                        self.transfers[idx].leg = Leg::Fabric {
                            at: src_dev,
                            ready_at: now,
                            attempts: 0,
                        };
                        self.last_progress = now;
                        true
                    }
                    TransferOutcome::Lost { reason } => {
                        self.resolve_die_lost(idx, reason, now);
                        false
                    }
                    _ => false,
                }
            }
            Leg::Fabric {
                at,
                ready_at,
                attempts,
            } => {
                if now < ready_at {
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        rec.charge(idx as u64, StallKind::FabricHop);
                    }
                    return false;
                }
                let dst_dev = self.transfers[idx].dst_dev;
                if at == dst_dev {
                    // Ingress: hand over to the destination die.
                    let t = &self.transfers[idx];
                    let (dst, flits, class) = (t.dst, t.flits, t.class);
                    if dst.index() == 0 {
                        // Already at the ingress port: delivered.
                        if let Some(rec) = self.recorder.as_deref_mut() {
                            rec.on_grant(idx as u64, 0, now);
                            rec.on_deliver(idx as u64, now);
                        }
                        self.resolve_delivered(idx, now);
                        return false;
                    }
                    let tid = self.dies[dst_dev as usize].submit(NodeId::new(0), dst, flits, class);
                    self.transfers[idx].leg = Leg::DestDie(tid);
                    self.last_progress = now;
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        rec.charge(idx as u64, StallKind::FabricHop);
                    }
                    return false;
                }
                // Route one hop.
                let Some(next) = self.routes[at as usize][dst_dev as usize] else {
                    self.resolve_lost(idx, LossReason::Partitioned, now);
                    return false;
                };
                let li = self.adj[at as usize]
                    .iter()
                    .find(|&&(v, _)| v == next)
                    .map(|&(_, li)| li)
                    .expect("route follows an adjacency edge");
                let link = &self.links[li];
                if link.quarantined {
                    // Stale route (recompute is pending this cycle ordering)
                    // — treat as a blocked cycle; the fresh table is used on
                    // the next poll.
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        rec.charge(idx as u64, StallKind::FabricHop);
                    }
                    return false;
                }
                let dir = usize::from(at != link.a);
                if link.busy_until[dir] > now {
                    // The link is serializing an earlier packet.
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        rec.charge(idx as u64, StallKind::FabricHop);
                    }
                    return false;
                }
                // Attempt the crossing. Drops (dead or flaky link) are
                // caught by the link-level check immediately; the packet
                // retries from this node after a backoff, which keeps a
                // dead link's drop rate visible to the health monitor for
                // long enough that breaker failover beats the retry budget.
                let flits = self.transfers[idx].flits;
                let dead = link.dead_at(now) || !self.node_alive(next);
                let flaky_drop = match link.flaky_at(now) {
                    Some(p) if !dead => self.rng.next_f64() < p,
                    _ => false,
                };
                if dead || flaky_drop {
                    self.link_drops[li] += 1;
                    self.stats.fabric_retries += 1;
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        rec.charge(idx as u64, StallKind::FabricHop);
                    }
                    if attempts + 1 > self.cfg.max_hop_retries {
                        self.resolve_lost(idx, LossReason::RetriesExhausted, now);
                    } else {
                        #[allow(unused_mut)]
                        let mut backoff = self.cfg.hop_retry_backoff_cycles;
                        #[cfg(feature = "bug-hooks")]
                        if self.stuck_crossing_bug {
                            backoff = u64::MAX;
                        }
                        self.transfers[idx].leg = Leg::Fabric {
                            at,
                            ready_at: now.saturating_add(backoff),
                            attempts: attempts + 1,
                        };
                    }
                    return false;
                }
                let ser = u64::from(flits) * self.cfg.flit_cycles;
                self.links[li].busy_until[dir] = now + ser;
                let arrive = now + ser + self.cfg.link_latency_cycles;
                self.stats.fabric_hops += 1;
                self.last_progress = now;
                if let Some(rec) = self.recorder.as_deref_mut() {
                    rec.on_grant(idx as u64, FABRIC_PORT, now);
                    rec.on_enqueue(idx as u64, next, FABRIC_PORT, now + 1);
                }
                self.transfers[idx].leg = Leg::Fabric {
                    at: next,
                    ready_at: arrive,
                    attempts: 0,
                };
                false
            }
            Leg::DestDie(tid) => {
                let dev = self.transfers[idx].dst_dev;
                let cross = self.transfers[idx].src_dev != dev;
                match self.dies[dev as usize].outcome(tid) {
                    TransferOutcome::Delivered { .. } => {
                        if cross {
                            if let Some(rec) = self.recorder.as_deref_mut() {
                                rec.on_grant(idx as u64, 0, now);
                                rec.on_deliver(idx as u64, now);
                            }
                        }
                        self.resolve_delivered(idx, now);
                        false
                    }
                    TransferOutcome::Lost { reason } => {
                        self.resolve_die_lost(idx, reason, now);
                        false
                    }
                    _ => {
                        if cross {
                            if let Some(rec) = self.recorder.as_deref_mut() {
                                rec.charge(idx as u64, StallKind::FabricHop);
                            }
                        }
                        false
                    }
                }
            }
        }
    }

    /// Advances the whole fabric one cycle: applies fault onsets, polls
    /// every unresolved transfer (in submission order — the determinism
    /// anchor; resolved ones would return at once), then steps every die in
    /// lockstep.
    pub fn step(&mut self) {
        let now = self.now;
        self.apply_onsets(now);
        let live = std::mem::take(&mut self.live);
        for &idx in &live {
            // A leg transition (die → fabric) may immediately take its first
            // fabric hop in the same cycle.
            while self.poll_transfer(idx, now) {}
        }
        self.live = live;
        self.check_watchdog(now);
        self.live
            .retain(|&idx| !self.transfers[idx].state.is_resolved());
        for die in &mut self.dies {
            die.step();
        }
        self.now += 1;
    }

    /// The fabric-level watchdog: the die legs are covered by each die's own
    /// watchdog, so this only has to catch transfers stuck *between* dies.
    /// It waits two die-watchdog windows so a die watchdog always fires
    /// first for traffic it owns.
    fn check_watchdog(&mut self, now: u64) {
        if self.outstanding == 0
            || now.saturating_sub(self.last_progress) <= self.cfg.retry.watchdog_cycles * 2
        {
            return;
        }
        for idx in 0..self.transfers.len() {
            if !self.transfers[idx].state.is_resolved() {
                self.resolve_lost(idx, LossReason::Watchdog, now);
            }
        }
    }

    /// Event-driven fast-forward across a fabric-quiet span, to at most
    /// `limit`. A span is skippable only when *every* layer is provably
    /// inert: no pending fault onset, no fabric watchdog boundary, every
    /// in-fabric transfer still waiting out its `ready_at`, every die's own
    /// protocol quiet (ACK timeouts, watchdogs, mesh activity all bounded).
    /// The dies are then fast-forwarded in lockstep to the same cycle and
    /// the per-cycle `FabricHop` waiting charges are batch-replicated, so
    /// the result is bit-identical to stepping cycle by cycle. No-op under
    /// the cycle-exact engine.
    pub fn skip_quiet(&mut self, limit: u64) {
        if !gnoc_noc::event_skip_enabled() {
            return;
        }
        let now = self.now;
        let mut bound = limit;
        if let Some(&onset) = self.pending_onsets.first() {
            bound = bound.min(onset);
        }
        if self.outstanding > 0 {
            // First cycle where `now - last_progress > 2 * watchdog`.
            bound = bound.min(
                self.last_progress
                    .saturating_add(self.cfg.retry.watchdog_cycles.saturating_mul(2))
                    .saturating_add(1),
            );
        }
        for t in self.live.iter().map(|&idx| &self.transfers[idx]) {
            if t.state.is_resolved() {
                continue;
            }
            match t.leg {
                Leg::Done => {}
                Leg::Fabric { ready_at, .. } => {
                    if ready_at <= now {
                        return; // crossing attempt due this very cycle
                    }
                    bound = bound.min(ready_at);
                }
                // Die-resident legs: an already-resolved die transfer would
                // transition on the next poll, so it forbids skipping; an
                // unresolved one can only resolve through die activity,
                // which the per-die quiet bounds below cap.
                Leg::SourceDie(tid) => {
                    if self.dies[t.src_dev as usize].outcome(tid).is_resolved() {
                        return;
                    }
                }
                Leg::DestDie(tid) => {
                    if self.dies[t.dst_dev as usize].outcome(tid).is_resolved() {
                        return;
                    }
                }
            }
        }
        for die in &self.dies {
            bound = bound.min(die.quiet_bound());
        }
        if bound <= now {
            return;
        }
        let n = bound - now;
        // Batch-replicate the per-cycle waiting charges the skipped polls
        // would have made: every unresolved in-fabric transfer and every
        // cross-device transfer waiting on its destination die charges one
        // FabricHop per cycle.
        if self.recorder.is_some() {
            let waiting: Vec<u64> = self
                .live
                .iter()
                .map(|&idx| (idx, &self.transfers[idx]))
                .filter(|(_, t)| !t.state.is_resolved())
                .filter_map(|(idx, t)| match t.leg {
                    Leg::Fabric { .. } => Some(idx as u64),
                    Leg::DestDie(_) if t.src_dev != t.dst_dev => Some(idx as u64),
                    _ => None,
                })
                .collect();
            if let Some(rec) = self.recorder.as_deref_mut() {
                for idx in waiting {
                    rec.charge_n(idx, StallKind::FabricHop, n);
                }
            }
        }
        // Advance the dies in lockstep to exactly the fabric bound: each
        // die's quiet bound is >= `bound`, so its skip lands on it.
        for die in &mut self.dies {
            die.skip_quiet(bound);
            debug_assert_eq!(
                die.mesh().cycle(),
                bound,
                "die fell out of lockstep during a fabric skip"
            );
        }
        self.now = bound;
    }

    /// Steps until every submitted transfer resolves or `max_cycles` elapse.
    /// Returns `true` when fully quiescent.
    ///
    /// Runs on the event-driven engine: spans where every transfer is
    /// waiting (fabric backoffs, die ACK timeouts, watchdog countdowns) are
    /// skipped, bit-identically to
    /// [`FabricSim::run_until_quiescent_cycle_exact`].
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        let start = self.now;
        let end = start.saturating_add(max_cycles);
        while self.outstanding > 0 && self.now < end {
            self.step();
            if self.outstanding > 0 {
                self.skip_quiet(end);
            }
        }
        self.outstanding == 0
    }

    /// The cycle-exact reference for [`FabricSim::run_until_quiescent`]:
    /// identical observables, every cycle stepped.
    pub fn run_until_quiescent_cycle_exact(&mut self, max_cycles: u64) -> bool {
        let start = self.now;
        while self.outstanding > 0 && self.now - start < max_cycles {
            self.step();
        }
        self.outstanding == 0
    }
}
