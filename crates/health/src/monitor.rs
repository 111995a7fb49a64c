//! Per-link and per-slice health monitors.
//!
//! Monitors consume only *behavioral* telemetry — per-link drop counters
//! ([`MeshStats::link_drops`]) and timed probe reads — never the ground-truth
//! [`gnoc_faults::FaultPlan`]. Each monitored resource gets its own
//! [`CircuitBreaker`]; an Open breaker quarantines the resource (incremental
//! reroute for links, address-hash remap for slices) and HalfOpen probation
//! tests recovery.
//!
//! [`MeshStats::link_drops`]: gnoc_noc::MeshStats

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use gnoc_engine::{DeviceError, GpuDevice};
use gnoc_faults::Direction;
use gnoc_noc::{NocError, ReliableMesh, NUM_PORTS};
use gnoc_topo::{SliceId, SmId};
use serde::{Deserialize, Serialize};

/// Health-layer tuning shared by the link and slice monitors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Cycles between monitor polls (one breaker window).
    pub window_cycles: u64,
    /// Packet drops within one window that mark a link's window as failing.
    pub link_drop_threshold: u64,
    /// Breaker state-machine tuning.
    pub breaker: BreakerConfig,
    /// Cycles above the calibrated per-slice hit latency that mark a slice
    /// probe as failing. Must sit well above measurement jitter and well
    /// below the latent-fault penalty; see DESIGN.md.
    pub slice_margin_cycles: f64,
    /// EWMA smoothing factor for slice probe latencies (weight of the newest
    /// observation).
    pub slice_ewma_alpha: f64,
    /// Timed probe reads per slice per window.
    pub slice_probe_reads: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            window_cycles: 256,
            link_drop_threshold: 1,
            breaker: BreakerConfig::default(),
            slice_margin_cycles: 300.0,
            slice_ewma_alpha: 0.5,
            slice_probe_reads: 2,
        }
    }
}

/// Health-layer tuning for inter-device fabric links, consumed by
/// `gnoc-fabric`'s per-fabric-link monitor. Kept here, next to the die-level
/// [`HealthConfig`], so the two detection policies are tuned side by side.
///
/// Fabric links differ from mesh links in two ways that shape the defaults
/// (justified in DESIGN.md): crossings are much rarer than per-cycle flit
/// hops, so one window sees few chances to fail and the drop threshold must
/// stay at 1; and a fabric retransmission is far more expensive than a mesh
/// retry, so the breaker uses the same hysteresis but the fabric layer sizes
/// its retry budget to outlive `failure_windows` full windows of drops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricHealthConfig {
    /// Cycles between fabric monitor polls (one breaker window).
    pub window_cycles: u64,
    /// Crossing drops within one window that mark a fabric link's window as
    /// failing.
    pub link_drop_threshold: u64,
    /// Breaker state-machine tuning (shared hysteresis discipline with the
    /// die-level monitors).
    pub breaker: BreakerConfig,
}

impl Default for FabricHealthConfig {
    fn default() -> Self {
        Self {
            window_cycles: 256,
            link_drop_threshold: 1,
            breaker: BreakerConfig::default(),
        }
    }
}

/// One breaker transition, stamped with when and for which resource.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionRecord {
    /// Mesh cycle (links) or window index (slices) of the transition.
    pub at: u64,
    /// Human-readable resource name, e.g. `link 7:East` or `slice 12`.
    pub resource: String,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// A resource whose breaker has opened at least once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Resource name, matching [`TransitionRecord::resource`].
    pub resource: String,
    /// When the breaker first opened (mesh cycle for links, window index for
    /// slices).
    pub first_open_at: u64,
    /// Breaker state at the end of the run.
    pub state: BreakerState,
}

fn dir_of_port(port: usize) -> Option<Direction> {
    match port {
        1 => Some(Direction::North),
        2 => Some(Direction::East),
        3 => Some(Direction::South),
        4 => Some(Direction::West),
        _ => None,
    }
}

/// Watches every directed mesh link through its drop counter and drives one
/// breaker per link.
#[derive(Debug)]
pub struct LinkHealthMonitor {
    cfg: HealthConfig,
    /// One breaker per `router * NUM_PORTS + port` slot (LOCAL slots idle).
    breakers: Vec<CircuitBreaker>,
    last_drops: Vec<u64>,
    windows: u64,
    transitions: Vec<TransitionRecord>,
    first_open: Vec<Option<u64>>,
    /// Links whose quarantine was refused because it would disconnect the
    /// mesh — detected but left in service.
    refused: Vec<(u32, Direction)>,
}

impl LinkHealthMonitor {
    /// A monitor for a mesh with `num_routers` routers.
    pub fn new(num_routers: usize, cfg: HealthConfig) -> Self {
        let n = num_routers * NUM_PORTS;
        Self {
            cfg,
            breakers: vec![CircuitBreaker::new(cfg.breaker); n],
            last_drops: vec![0; n],
            windows: 0,
            transitions: Vec::new(),
            first_open: vec![None; n],
            refused: Vec::new(),
        }
    }

    /// Runs one health window: reads drop deltas, advances every breaker,
    /// and applies quarantine / probe / release actions on the mesh.
    ///
    /// # Errors
    ///
    /// Propagates [`NocError`] from mesh reconfiguration, except
    /// [`NocError::QuarantineWouldDisconnect`], which is recorded as a
    /// refusal and leaves the link in service.
    pub fn poll(&mut self, rm: &mut ReliableMesh) -> Result<(), NocError> {
        let cycle = rm.mesh().cycle();
        debug_assert_eq!(rm.mesh().stats().link_drops.len(), self.breakers.len());
        #[allow(clippy::needless_range_loop)] // idx addresses four parallel arrays
        for idx in 0..self.breakers.len() {
            let Some(dir) = dir_of_port(idx % NUM_PORTS) else {
                continue;
            };
            let router = (idx / NUM_PORTS) as u32;
            // Quarantine, probe and release below never touch the drop
            // counters, so reading them live equals reading a snapshot.
            let delta = rm.mesh().stats().link_drops[idx].saturating_sub(self.last_drops[idx]);
            let breaker = &mut self.breakers[idx];
            match breaker.state() {
                BreakerState::Closed | BreakerState::Open => {
                    let failing = delta >= self.cfg.link_drop_threshold.max(1);
                    if let Some(t) = breaker.on_window(failing) {
                        self.transitions.push(TransitionRecord {
                            at: cycle,
                            resource: link_name(router, dir),
                            from: t.from,
                            to: t.to,
                        });
                        if t.to == BreakerState::Open {
                            self.first_open[idx].get_or_insert(cycle);
                            match rm.mesh_mut().quarantine_link(router, dir) {
                                Ok(()) => {}
                                Err(NocError::QuarantineWouldDisconnect { .. }) => {
                                    self.refused.push((router, dir));
                                }
                                Err(e) => return Err(e),
                            }
                        }
                    }
                }
                BreakerState::HalfOpen => {
                    let ok = rm.mesh_mut().probe_link(router, dir)?;
                    if let Some(t) = self.breakers[idx].on_probe(ok) {
                        self.transitions.push(TransitionRecord {
                            at: cycle,
                            resource: link_name(router, dir),
                            from: t.from,
                            to: t.to,
                        });
                        if t.to == BreakerState::Closed {
                            rm.mesh_mut().release_link(router, dir)?;
                        }
                    }
                }
            }
        }
        self.last_drops
            .copy_from_slice(&rm.mesh().stats().link_drops);
        self.windows += 1;
        Ok(())
    }

    /// Every breaker transition so far, in poll order.
    pub fn transitions(&self) -> &[TransitionRecord] {
        &self.transitions
    }

    /// Links whose breaker has ever opened, with first-open cycle.
    pub fn detections(&self) -> Vec<Detection> {
        self.first_open
            .iter()
            .enumerate()
            .filter_map(|(idx, at)| {
                let at = (*at)?;
                let dir = dir_of_port(idx % NUM_PORTS)?;
                Some(Detection {
                    resource: link_name((idx / NUM_PORTS) as u32, dir),
                    first_open_at: at,
                    state: self.breakers[idx].state(),
                })
            })
            .collect()
    }

    /// Links whose breaker first opened, as `(router, dir, cycle)` triples.
    pub fn detected_links(&self) -> Vec<(u32, Direction, u64)> {
        self.first_open
            .iter()
            .enumerate()
            .filter_map(|(idx, at)| {
                let at = (*at)?;
                let dir = dir_of_port(idx % NUM_PORTS)?;
                Some(((idx / NUM_PORTS) as u32, dir, at))
            })
            .collect()
    }

    /// Quarantine refusals (would disconnect the mesh).
    pub fn refused(&self) -> &[(u32, Direction)] {
        &self.refused
    }

    /// Completed health windows.
    pub fn windows(&self) -> u64 {
        self.windows
    }
}

fn link_name(router: u32, dir: Direction) -> String {
    format!("link {router}:{dir:?}")
}

/// Watches every L2 slice through timed probe reads and drives one breaker
/// per slice. The failing criterion is a latency EWMA sitting more than
/// [`HealthConfig::slice_margin_cycles`] above the device's calibrated hit
/// latency for that (SM, slice) pair.
#[derive(Debug)]
pub struct SliceHealthMonitor {
    cfg: HealthConfig,
    /// The SM issuing probe reads.
    sm: SmId,
    breakers: Vec<CircuitBreaker>,
    ewma: Vec<Option<f64>>,
    windows: u64,
    transitions: Vec<TransitionRecord>,
    first_open: Vec<Option<u64>>,
    /// Slices whose quarantine was refused (would empty the L2 or a
    /// partition) — detected but left in service.
    refused: Vec<u32>,
}

impl SliceHealthMonitor {
    /// A monitor probing from `sm` over `num_slices` slices.
    pub fn new(num_slices: usize, sm: SmId, cfg: HealthConfig) -> Self {
        Self {
            cfg,
            sm,
            breakers: vec![CircuitBreaker::new(cfg.breaker); num_slices],
            ewma: vec![None; num_slices],
            windows: 0,
            transitions: Vec::new(),
            first_open: vec![None; num_slices],
            refused: Vec::new(),
        }
    }

    /// Runs one health window of probe reads against `dev`.
    ///
    /// # Errors
    ///
    /// Propagates [`DeviceError`] from the release remap; quarantine
    /// refusals ([`DeviceError`] from the disable remap) are recorded and
    /// leave the slice in service.
    pub fn poll(&mut self, dev: &mut GpuDevice) -> Result<(), DeviceError> {
        let window = self.windows;
        for idx in 0..self.breakers.len() {
            let slice = SliceId::new(idx as u32);
            let expected = dev.hit_cycles_mean(self.sm, slice);
            let limit = expected + self.cfg.slice_margin_cycles;
            match self.breakers[idx].state() {
                BreakerState::Closed => {
                    let reads = self.cfg.slice_probe_reads.max(1);
                    let mut sum = 0u64;
                    for _ in 0..reads {
                        sum += dev.probe_slice_latency(self.sm, slice);
                    }
                    let obs = sum as f64 / f64::from(reads);
                    let alpha = self.cfg.slice_ewma_alpha.clamp(0.0, 1.0);
                    let ewma = match self.ewma[idx] {
                        Some(prev) => alpha * obs + (1.0 - alpha) * prev,
                        None => obs,
                    };
                    self.ewma[idx] = Some(ewma);
                    let failing = ewma > limit;
                    if let Some(t) = self.breakers[idx].on_window(failing) {
                        self.transitions.push(TransitionRecord {
                            at: window,
                            resource: slice_name(idx),
                            from: t.from,
                            to: t.to,
                        });
                        self.first_open[idx].get_or_insert(window);
                        if dev.quarantine_slice(slice).is_err() {
                            self.refused.push(idx as u32);
                        }
                    }
                }
                BreakerState::Open => {
                    if let Some(t) = self.breakers[idx].on_window(false) {
                        self.transitions.push(TransitionRecord {
                            at: window,
                            resource: slice_name(idx),
                            from: t.from,
                            to: t.to,
                        });
                    }
                }
                BreakerState::HalfOpen => {
                    let obs = dev.probe_slice_latency(self.sm, slice) as f64;
                    let ok = obs <= limit;
                    if let Some(t) = self.breakers[idx].on_probe(ok) {
                        self.transitions.push(TransitionRecord {
                            at: window,
                            resource: slice_name(idx),
                            from: t.from,
                            to: t.to,
                        });
                        if t.to == BreakerState::Closed {
                            dev.release_slice(slice)?;
                            self.ewma[idx] = None;
                        }
                    }
                }
            }
        }
        self.windows += 1;
        Ok(())
    }

    /// Every breaker transition so far, in poll order.
    pub fn transitions(&self) -> &[TransitionRecord] {
        &self.transitions
    }

    /// Slices whose breaker has ever opened, with first-open window.
    pub fn detections(&self) -> Vec<Detection> {
        self.first_open
            .iter()
            .enumerate()
            .filter_map(|(idx, at)| {
                Some(Detection {
                    resource: slice_name(idx),
                    first_open_at: (*at)?,
                    state: self.breakers[idx].state(),
                })
            })
            .collect()
    }

    /// Slices whose breaker first opened, as `(slice, window)` pairs.
    pub fn detected_slices(&self) -> Vec<(u32, u64)> {
        self.first_open
            .iter()
            .enumerate()
            .filter_map(|(idx, at)| Some((idx as u32, (*at)?)))
            .collect()
    }

    /// Quarantine refusals (remap rejected).
    pub fn refused(&self) -> &[u32] {
        &self.refused
    }

    /// Completed health windows.
    pub fn windows(&self) -> u64 {
        self.windows
    }
}

fn slice_name(idx: usize) -> String {
    format!("slice {idx}")
}
