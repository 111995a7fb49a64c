//! The chaos runner: seeded iterations, oracle dispatch, resumable state,
//! reproducer emission, and the `catch_unwind` panic audit.

use crate::config::{calibration_safe, ChaosConfig};
use crate::oracle::{
    check_calibration, check_delivery, check_differential, check_fabric_differential,
    check_progress, check_resume, OracleKind, Violation,
};
use crate::shrink::{ddmin, decompose};
use crate::ChaosError;
use gnoc_core::faults::LinkFaultKind;
use gnoc_core::health::run_slice_detection_for_spec;
use gnoc_core::noc::{NodeId, PacketClass};
use gnoc_core::soak::Soak;
use gnoc_core::telemetry::TelemetryHandle;
use gnoc_core::topo::hash::SplitMix64;
use gnoc_core::trace::{from_hex, to_hex, TraceHeader, TraceReader, TraceTap};
use gnoc_core::trace_digest;
use gnoc_core::{
    device_for_preset, spec_for_preset, ArbiterKind, CheckpointedCampaign, FabricConfig,
    FabricHealthConfig, FabricHealthMonitor, FabricSim, FaultPlan, HealthConfig, MeshConfig,
    ReliableMesh, SelfHealingMesh, WorkerPool,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Format version of chaos state files.
pub const CHAOS_STATE_VERSION: u32 = 1;
/// Format version of reproducer files. Since version 2 the embedded trace's
/// footer seals the canonical stats-line digest, the one every replay path
/// recomputes; older files are refused rather than replayed against it.
pub const REPRODUCER_VERSION: u32 = 2;

/// Predicate-evaluation budget handed to the shrinker per violation.
const SHRINK_MAX_TESTS: usize = 96;

/// How long the hidden-plan detection run patrols past the last fault onset.
/// Must exceed [`DETECTION_LATENCY_BOUND`] so a timely detection of the
/// latest-onset fault still fits inside the run.
const DETECTION_RUN_MARGIN: u64 = 8_000;

/// Latest acceptable first-open cycle for a dead link's breaker, relative to
/// the fault's onset. Drop evidence accumulates across retry timeouts
/// (128..2048 cycles) and 256-cycle health windows; an open normally lands
/// within ~1k cycles of onset, so 6k flags genuine sluggishness, not jitter.
const DETECTION_LATENCY_BOUND: u64 = 6_000;

/// Health windows of slice probing in the hidden-plan device run.
const SLICE_DETECTION_WINDOWS: u64 = 16;

/// Latest acceptable first-open window for a latent-faulty slice. The EWMA
/// crosses the margin on the first probe (the 900-cycle penalty dwarfs the
/// 300-cycle margin) and the leaky bucket needs two failing windows.
const SLICE_DETECTION_WINDOW_BOUND: u64 = 3;

/// Salt xored into an iteration seed for its traffic stream.
const TRAFFIC_SALT: u64 = 0x6368_616f_735f_7278;

/// An iteration's traffic stream: the shared splitmix64 on the salted seed.
fn traffic_stream(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ TRAFFIC_SALT)
}

/// A uniform node and a distinct uniform partner among `n` nodes.
fn distinct_endpoints(rng: &mut SplitMix64, n: u64) -> (u64, u64) {
    let src = rng.next() % n;
    (src, (src + 1 + rng.next() % (n - 1)) % n)
}

/// Even-numbered transfers are requests, odd ones replies.
fn alternating_class(i: u32) -> PacketClass {
    if i.is_multiple_of(2) {
        PacketClass::Request
    } else {
        PacketClass::Reply
    }
}

/// The single-die soak's transfers: `cfg.transfers` of them, with distinct
/// endpoints, 1–4 flits, and alternating classes.
fn mesh_transfers(
    cfg: &ChaosConfig,
    seed: u64,
) -> impl Iterator<Item = (NodeId, NodeId, u32, PacketClass)> {
    let n = u64::from(cfg.width) * u64::from(cfg.height);
    let mut rng = traffic_stream(seed);
    (0..cfg.transfers).map(move |i| {
        let (src, dst) = distinct_endpoints(&mut rng, n);
        let flits = 1 + (rng.next() % 4) as u32;
        let (src, dst) = (NodeId::new(src as u32), NodeId::new(dst as u32));
        (src, dst, flits, alternating_class(i))
    })
}

/// The per-die mesh every chaos soak, twin, and detection run builds.
fn soak_mesh_config(cfg: &ChaosConfig) -> MeshConfig {
    MeshConfig::new(
        cfg.width as usize,
        cfg.height as usize,
        ArbiterKind::RoundRobin,
    )
}

/// The chaos soak for `cfg` under `plan`: a reliable die mesh, or the
/// fabric for multi-device configs, with the configured bug hook armed.
/// Every soak an iteration, its replay twin, its reproducer recording, and
/// its profile run builds comes from here, so they cannot drift apart.
fn build_soak(cfg: &ChaosConfig, plan: &FaultPlan) -> Result<Soak, String> {
    let soak = if cfg.devices >= 2 {
        let sim = FabricSim::with_faults(fabric_config(cfg), plan).map_err(|e| e.to_string())?;
        Soak::Fabric(Box::new(sim))
    } else {
        let rm = ReliableMesh::with_faults(soak_mesh_config(cfg), plan, cfg.retry)
            .map_err(|e| e.to_string())?;
        Soak::Mesh(Box::new(rm))
    };
    #[cfg(feature = "bug-hooks")]
    let soak = {
        let mut soak = soak;
        match &mut soak {
            Soak::Mesh(rm) if cfg.greedy_reroute_bug => rm.mesh_mut().enable_greedy_reroute_bug(),
            Soak::Fabric(sim) if cfg.fabric_stuck_crossing_bug => sim.enable_stuck_crossing_bug(),
            _ => {}
        }
        soak
    };
    Ok(soak)
}

/// The digest a soak's trace footer seals: the canonical stats line's, the
/// same one `gnoc trace replay` and the daemon recompute.
fn sealed_digest(soak: &Soak) -> Result<u64, String> {
    soak.stats_line()
        .map(|line| trace_digest::line_digest(&line))
        .map_err(|e| format!("harness: stats line failed: {e}"))
}

/// The trace header a chaos soak records under.
fn trace_header(cfg: &ChaosConfig, seed: u64, plan: &FaultPlan) -> TraceHeader {
    let transfers = u64::from(cfg.transfers);
    let plan_fnv = trace_digest::plan_digest(Some(plan));
    if cfg.devices >= 2 {
        TraceHeader::fabric(
            cfg.devices,
            cfg.fabric_topology().name(),
            cfg.width,
            cfg.height,
            seed,
            transfers,
            plan_fnv,
        )
    } else {
        TraceHeader::mesh(cfg.width, cfg.height, seed, transfers, plan_fnv)
    }
}

/// What one chaos iteration observed.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationOutcome {
    /// The iteration seed.
    pub seed: u64,
    /// Violations observed (empty = clean iteration).
    pub violations: Vec<Violation>,
    /// Oracles that ran and passed.
    pub passes: Vec<OracleKind>,
    /// Whether the iteration panicked (also reported as a
    /// [`OracleKind::NoPanic`] violation).
    pub panicked: bool,
}

impl IterationOutcome {
    /// Whether every oracle that ran passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.panicked
    }
}

/// One recorded violation, with its plan and (when shrinking ran) the
/// minimized reproducer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViolationRecord {
    /// The oracle that fired.
    pub oracle: OracleKind,
    /// The iteration seed.
    pub seed: u64,
    /// Violation specifics.
    pub detail: String,
    /// The full plan the violation was observed on.
    pub plan: FaultPlan,
    /// The ddmin-shrunk plan (still violating), when shrinking ran.
    pub shrunk: Option<FaultPlan>,
    /// Fault atoms in the full plan.
    pub atoms_before: usize,
    /// Fault atoms left after shrinking.
    pub atoms_after: Option<usize>,
    /// Path of the written reproducer file, when one was emitted.
    pub reproducer: Option<String>,
}

/// Aggregate result of a chaos run (also the persisted state's payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The configuration every iteration ran under.
    pub config: ChaosConfig,
    /// Seeds fully processed, in order.
    pub completed_seeds: Vec<u64>,
    /// Pass counts per oracle name.
    pub oracle_passes: BTreeMap<String, u64>,
    /// Every violation observed.
    pub violations: Vec<ViolationRecord>,
    /// Iterations that panicked (each also has a `no-panic` violation).
    pub panics: u64,
}

impl ChaosReport {
    fn new(config: ChaosConfig) -> Self {
        Self {
            config,
            completed_seeds: Vec::new(),
            oracle_passes: BTreeMap::new(),
            violations: Vec::new(),
            panics: 0,
        }
    }

    /// Whether the run saw zero violations and zero panics.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.panics == 0
    }

    /// Writes the report as pretty JSON (for `gnoc chaos run --report`).
    ///
    /// # Errors
    ///
    /// [`ChaosError::Io`] / [`ChaosError::Parse`].
    pub fn save(&self, path: &Path) -> Result<(), ChaosError> {
        let text =
            serde_json::to_string_pretty(self).map_err(|e| ChaosError::Parse(e.to_string()))?;
        gnoc_core::atomic_write(path, text.as_bytes()).map_err(|e| ChaosError::Io(e.to_string()))
    }
}

/// Resumable on-disk chaos state: the report so far plus the seeds still
/// pending. Rewritten (atomically) after every iteration, so killing a soak
/// loses at most the iteration in progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosState {
    /// Format version ([`CHAOS_STATE_VERSION`]).
    pub version: u32,
    /// Seeds not yet processed.
    pub pending: Vec<u64>,
    /// Results accumulated so far.
    pub report: ChaosReport,
}

impl ChaosState {
    /// Loads and version-checks a state file.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Io`] / [`ChaosError::Parse`] / [`ChaosError::Version`].
    pub fn load(path: &Path) -> Result<Self, ChaosError> {
        let text = std::fs::read_to_string(path).map_err(|e| ChaosError::Io(e.to_string()))?;
        let state: Self =
            serde_json::from_str(&text).map_err(|e| ChaosError::Parse(e.to_string()))?;
        if state.version != CHAOS_STATE_VERSION {
            return Err(ChaosError::Version(state.version));
        }
        Ok(state)
    }

    /// Writes the state atomically and durably via the shared
    /// [`gnoc_core::atomic_write`] (temp sibling + fsync + rename).
    ///
    /// # Errors
    ///
    /// [`ChaosError::Io`] / [`ChaosError::Parse`].
    pub fn save(&self, path: &Path) -> Result<(), ChaosError> {
        let text =
            serde_json::to_string_pretty(self).map_err(|e| ChaosError::Parse(e.to_string()))?;
        gnoc_core::atomic_write(path, text.as_bytes()).map_err(|e| ChaosError::Io(e.to_string()))
    }
}

/// Where a flight-recorder capture of this failure lives: the profile
/// artifact path plus the virtual-cycle window it covers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceWindow {
    /// The stall-attribution profile written by the chaos run's `--profile`
    /// flag (a Chrome trace sits alongside it at `<profile>.trace.json`).
    pub profile: String,
    /// First virtual cycle covered by the trace.
    pub start: u64,
    /// Last virtual cycle covered by the trace.
    pub end: u64,
}

/// A self-contained failing-iteration record: config + seed + (shrunk)
/// plan, plus the exact CLI command that replays it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Reproducer {
    /// Format version ([`REPRODUCER_VERSION`]).
    pub version: u32,
    /// The oracle that fired.
    pub oracle: OracleKind,
    /// The iteration seed.
    pub seed: u64,
    /// Violation specifics at record time.
    pub detail: String,
    /// The configuration to replay under.
    pub config: ChaosConfig,
    /// The (shrunk) fault plan that still violates the oracle.
    pub plan: FaultPlan,
    /// The exact command that replays this failure.
    pub command: String,
    /// Flight-recorder capture of this failure, when the run profiled it.
    pub trace: Option<TraceWindow>,
    /// Hex-encoded `gnoc-trace` stream of the failing soak's submissions —
    /// a self-contained replayable workload (`gnoc trace replay` accepts it
    /// once decoded, and [`replay`] re-verifies it against a fresh twin).
    pub traffic_trace: Option<String>,
}

// Manual impl: `trace` is optional so pre-profiling reproducer files (and
// hand-written ones) still load; the derive treats missing fields as errors.
impl Deserialize for Reproducer {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            version: Deserialize::deserialize_value(value.field("version")?)?,
            oracle: Deserialize::deserialize_value(value.field("oracle")?)?,
            seed: Deserialize::deserialize_value(value.field("seed")?)?,
            detail: Deserialize::deserialize_value(value.field("detail")?)?,
            config: Deserialize::deserialize_value(value.field("config")?)?,
            plan: Deserialize::deserialize_value(value.field("plan")?)?,
            command: Deserialize::deserialize_value(value.field("command")?)?,
            trace: match value.field("trace") {
                Ok(v) => Deserialize::deserialize_value(v)?,
                Err(_) => None,
            },
            traffic_trace: match value.field("traffic_trace") {
                Ok(v) => Deserialize::deserialize_value(v)?,
                Err(_) => None,
            },
        })
    }
}

impl Reproducer {
    /// Loads and version-checks a reproducer file.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Io`] / [`ChaosError::Parse`] / [`ChaosError::Version`].
    pub fn load(path: &Path) -> Result<Self, ChaosError> {
        let text = std::fs::read_to_string(path).map_err(|e| ChaosError::Io(e.to_string()))?;
        let repro: Self =
            serde_json::from_str(&text).map_err(|e| ChaosError::Parse(e.to_string()))?;
        if repro.version != REPRODUCER_VERSION {
            return Err(ChaosError::Version(repro.version));
        }
        Ok(repro)
    }

    /// Writes the reproducer as pretty JSON, atomically: a half-written
    /// reproducer is worse than none, because it looks like a replayable
    /// artifact but silently drops plan atoms.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Io`] / [`ChaosError::Parse`].
    pub fn save(&self, path: &Path) -> Result<(), ChaosError> {
        let text =
            serde_json::to_string_pretty(self).map_err(|e| ChaosError::Parse(e.to_string()))?;
        gnoc_core::atomic_write(path, text.as_bytes()).map_err(|e| ChaosError::Io(e.to_string()))
    }
}

/// Options orthogonal to [`ChaosConfig`]: which seeds, where to persist,
/// and the wall-clock budget.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosOptions {
    /// Seeds to run, in order (ignored when resuming from a state file,
    /// whose pending list wins).
    pub seeds: Vec<u64>,
    /// Resumable state file, rewritten after every iteration.
    pub state_path: Option<PathBuf>,
    /// Wall-clock budget in milliseconds; the run stops *between*
    /// iterations when exceeded and salvages everything completed.
    pub wall_budget_ms: Option<u64>,
    /// Shrink failing plans with ddmin before recording them.
    pub shrink: bool,
    /// Directory for reproducer JSON files (created on demand); `None`
    /// records violations in the report only.
    pub repro_dir: Option<PathBuf>,
    /// Worker count for iteration fan-out (0 and 1 both mean serial).
    /// Iterations are computed in parallel batches, but their results are
    /// folded into the report *in seed order*, and the state file is still
    /// rewritten after every folded iteration — the report, state, and
    /// reproducers are bit-identical for any value of `jobs`.
    pub jobs: usize,
    /// Flight-record the first violating seed's NoC soak (falling back to
    /// the first completed seed when the run is clean) and write the
    /// stall-attribution profile here, with a Chrome trace alongside it at
    /// `<path>.trace.json`. Profiling replays the seed with a recorder
    /// attached; the fuzzing iterations themselves are untouched, so the
    /// report stays bit-identical to an unprofiled run.
    pub profile: Option<PathBuf>,
}

/// Outcome of [`run_chaos`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRun {
    /// The accumulated report (partial when `finished` is false).
    pub report: ChaosReport,
    /// Whether every requested seed was processed (false = the wall budget
    /// expired first; resume from the state file to continue).
    pub finished: bool,
    /// Seeds left unprocessed by a budget stop.
    pub pending: Vec<u64>,
}

/// Runs one chaos iteration: fault-plan application, reliable-mesh soak,
/// and (when `run_device` is set and a device is configured) the campaign
/// oracles. The whole iteration runs under `catch_unwind`; a panic anywhere
/// becomes a [`OracleKind::NoPanic`] violation instead of aborting the
/// soak.
pub fn run_iteration(
    cfg: &ChaosConfig,
    seed: u64,
    plan: &FaultPlan,
    run_device: bool,
) -> IterationOutcome {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        iteration_body(cfg, seed, plan, run_device)
    }));
    match caught {
        Ok((violations, passes)) => IterationOutcome {
            seed,
            violations,
            passes,
            panicked: false,
        },
        Err(payload) => IterationOutcome {
            seed,
            violations: vec![Violation {
                oracle: OracleKind::NoPanic,
                seed,
                detail: format!("iteration panicked: {}", panic_message(&payload)),
            }],
            passes: Vec::new(),
            panicked: true,
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn iteration_body(
    cfg: &ChaosConfig,
    seed: u64,
    plan: &FaultPlan,
    run_device: bool,
) -> (Vec<Violation>, Vec<OracleKind>) {
    let mut violations = Vec::new();
    let mut passes = Vec::new();
    let record = |kind: OracleKind,
                  result: Result<(), String>,
                  violations: &mut Vec<Violation>,
                  passes: &mut Vec<OracleKind>| match result {
        Ok(()) => passes.push(kind),
        Err(detail) => violations.push(Violation {
            oracle: kind,
            seed,
            detail,
        }),
    };

    // --- Soak: reliable delivery over the faulted die, or, for
    // multi-device configs, over the inter-device fabric (the dies still
    // run, composed under every transfer's first and last leg). ---
    for (kind, result) in soak_phase(cfg, seed, plan) {
        record(kind, result, &mut violations, &mut passes);
    }

    // --- Hidden-plan detection oracle. ---
    if cfg.detection {
        record(
            OracleKind::Detection,
            detection_phase(cfg, seed, plan),
            &mut violations,
            &mut passes,
        );
    }

    // --- Device campaign oracles. ---
    if run_device {
        if let Some(device) = &cfg.device {
            match device_phase(cfg, device, seed, plan) {
                Ok(results) => {
                    for (kind, result) in results {
                        record(kind, result, &mut violations, &mut passes);
                    }
                }
                Err(e) => violations.push(Violation {
                    oracle: OracleKind::Resume,
                    seed,
                    detail: format!("device campaign phase failed: {e}"),
                }),
            }
        }
    }

    (violations, passes)
}

/// Runs golden, faulted, and kill/resume campaigns for one iteration and
/// evaluates the calibration, resume, and differential oracles.
#[allow(clippy::type_complexity)]
fn device_phase(
    cfg: &ChaosConfig,
    device: &str,
    seed: u64,
    plan: &FaultPlan,
) -> Result<Vec<(OracleKind, Result<(), String>)>, String> {
    let probe = cfg.probe();
    let err = |e: gnoc_core::CheckpointError| e.to_string();

    let golden = CheckpointedCampaign::new(device, seed, probe, None)
        .map_err(err)?
        .run_to_completion(None)
        .map_err(err)?;
    let straight = CheckpointedCampaign::new(device, seed, probe, Some(plan.clone()))
        .map_err(err)?
        .run_to_completion(None)
        .map_err(err)?;

    // Kill/resume: run a third of the rows, checkpoint, "die", resume.
    let path = scratch_checkpoint_path(seed);
    let _ = std::fs::remove_file(&path);
    let mut partial =
        CheckpointedCampaign::new(device, seed, probe, Some(plan.clone())).map_err(err)?;
    let rows = (partial.num_sms() / 3).max(1);
    for _ in 0..rows {
        partial.step_row().map_err(err)?;
    }
    partial.save(&path).map_err(err)?;
    drop(partial);
    let resumed = CheckpointedCampaign::resume(&path, device, seed, probe, Some(plan.clone()))
        .map_err(err)?
        .run_to_completion(Some(&path))
        .map_err(err)?;
    let _ = std::fs::remove_file(&path);

    let mut results = vec![(OracleKind::Resume, check_resume(&straight, &resumed))];
    let untouched = calibration_safe(plan);
    if untouched {
        match check_calibration(device, &straight) {
            Ok(true) => results.push((OracleKind::Calibration, Ok(()))),
            Ok(false) => {} // no pinned band for this preset: oracle didn't run
            Err(detail) => results.push((OracleKind::Calibration, Err(detail))),
        }
    }
    results.push((
        OracleKind::Differential,
        check_differential(untouched, &golden, &straight),
    ));
    Ok(results)
}

/// Submits the soak's deterministic traffic: `cfg.transfers` transfers
/// with alternating packet classes and 1–4 flits, drawn from the seeded
/// splitmix stream.
fn submit_traffic(soak: &mut Soak, cfg: &ChaosConfig, seed: u64) -> Result<(), String> {
    match soak {
        Soak::Mesh(rm) => {
            for (src, dst, flits, class) in mesh_transfers(cfg, seed) {
                rm.submit_checked(src, dst, flits, class)
                    .map_err(|e| format!("harness: in-range submit rejected: {e}"))?;
            }
            Ok(())
        }
        Soak::Fabric(sim) => submit_fabric_traffic(sim, cfg, seed),
    }
}

/// The fabric configuration a multi-device chaos iteration runs under: the
/// same per-die mesh and retry policy as the single-die soak, on the
/// configured device count and topology.
fn fabric_config(cfg: &ChaosConfig) -> FabricConfig {
    let mut fc = FabricConfig::new(cfg.devices, cfg.fabric_topology());
    fc.mesh = soak_mesh_config(cfg);
    fc.retry = cfg.retry;
    fc
}

/// Submits the fabric soak's deterministic traffic: `cfg.transfers`
/// transfers whose endpoints (devices and on-die nodes) come from the same
/// seeded splitmix stream the single-die soak uses. Device picks are
/// uniform, so roughly `1/devices` of the traffic stays on its source die
/// and exercises the composition path; the rest crosses the fabric.
fn submit_fabric_traffic(sim: &mut FabricSim, cfg: &ChaosConfig, seed: u64) -> Result<(), String> {
    let n = u64::from(cfg.width) * u64::from(cfg.height);
    let devs = u64::from(cfg.devices);
    let mut rng = traffic_stream(seed);
    for i in 0..cfg.transfers {
        let src_dev = (rng.next() % devs) as u32;
        let dst_dev = (rng.next() % devs) as u32;
        // Same-device transfers keep the single-die soak's distinct-endpoint
        // rule; cross-device endpoints are free (both draws always happen,
        // so the stream stays aligned across the two shapes).
        let (src, dst) = if src_dev == dst_dev {
            distinct_endpoints(&mut rng, n)
        } else {
            (rng.next() % n, rng.next() % n)
        };
        let flits = 1 + (rng.next() % 4) as u32;
        sim.submit(
            src_dev,
            NodeId::new(src as u32),
            dst_dev,
            NodeId::new(dst as u32),
            flits,
            alternating_class(i),
        )
        .map_err(|e| format!("harness: in-range submit rejected: {e}"))?;
    }
    Ok(())
}

/// The soak phase of an iteration: deterministic traffic over the faulted
/// die or fabric, checked by the delivery and progress oracles, then (for
/// a fabric) the golden differential and (with `cfg.replay`) the
/// recorded-vs-replayed oracle.
///
/// A single die uses single-VC wormhole buffers: legitimate for independent
/// transfers (no request/reply coupling) and exactly the surface the
/// historical reroute-deadlock bug lived on, so the progress oracle keeps
/// bite.
fn soak_phase(
    cfg: &ChaosConfig,
    seed: u64,
    plan: &FaultPlan,
) -> Vec<(OracleKind, Result<(), String>)> {
    let mut soak = match build_soak(cfg, plan) {
        Err(e) => {
            let kind = if cfg.devices >= 2 { "fabric" } else { "mesh" };
            return vec![(
                OracleKind::Delivery,
                Err(format!("harness: {kind} rejected a generated plan: {e}")),
            )];
        }
        Ok(soak) => soak,
    };
    if cfg.replay {
        soak.attach_trace_tap(TraceTap::in_memory(&trace_header(cfg, seed, plan)));
    }
    if let Err(detail) = submit_traffic(&mut soak, cfg, seed) {
        return vec![(OracleKind::Delivery, Err(detail))];
    }
    let quiesced = soak.run_until_quiescent(cfg.soak_cycle_budget);
    let mut results = vec![
        (
            OracleKind::Delivery,
            check_delivery(u64::from(cfg.transfers), quiesced, &soak),
        ),
        (OracleKind::Progress, check_progress(quiesced, &soak)),
    ];
    if let Soak::Fabric(sim) = &soak {
        match golden_fabric(cfg, seed, plan) {
            Err(detail) => return vec![(OracleKind::Differential, Err(detail))],
            Ok(golden) => results.push((
                OracleKind::Differential,
                check_fabric_differential(plan.is_benign(), &golden, sim),
            )),
        }
    }
    if cfg.replay {
        results.push((
            OracleKind::Replay,
            check_replay(cfg, plan, &mut soak, quiesced),
        ));
    }
    results
}

/// The differential oracle's golden run: the fabric soak's traffic on an
/// empty plan carrying the same seed, so a benign generated plan
/// constructs a bit-identical twin (a benign plan draws nothing from the
/// fault RNG — only the seed's identity matters for the comparison).
fn golden_fabric(cfg: &ChaosConfig, seed: u64, plan: &FaultPlan) -> Result<FabricSim, String> {
    let golden_plan = FaultPlan {
        seed: plan.seed,
        ..FaultPlan::default()
    };
    let mut golden = FabricSim::with_faults(fabric_config(cfg), &golden_plan)
        .map_err(|e| format!("harness: golden fabric construction failed: {e}"))?;
    let _ = submit_fabric_traffic(&mut golden, cfg, seed);
    golden.run_until_quiescent(cfg.soak_cycle_budget);
    Ok(golden)
}

/// The recorded-vs-replayed oracle: finalizes the trace the soak just
/// recorded, replays it into a freshly built twin (same plan, same bug
/// hooks), runs the twin under the same cycle budget, and demands an
/// identical canonical stats digest. Any nondeterminism between recording
/// and replaying — in the trace codec, the replay driver, or the simulator
/// itself — surfaces here as a violation.
fn check_replay(
    cfg: &ChaosConfig,
    plan: &FaultPlan,
    soak: &mut Soak,
    quiesced: bool,
) -> Result<(), String> {
    let tap = soak
        .take_trace_tap()
        .ok_or_else(|| "harness: replay oracle ran without a record tap".to_string())?;
    let recorded = sealed_digest(soak)?;
    let bytes = tap
        .finish_bytes(recorded)
        .map_err(|e| format!("harness: trace capture failed: {e}"))?;

    let mut twin = build_soak(cfg, plan)
        .map_err(|e| format!("harness: replay twin construction failed: {e}"))?;
    let mut reader = TraceReader::from_bytes(bytes)
        .map_err(|e| format!("recorded trace failed to parse: {e}"))?;
    let outcome = twin
        .replay_from(&mut reader)
        .map_err(|e| format!("replay diverged at submit time: {e}"))?;
    if let Some((chunk, offset)) = outcome.truncated {
        return Err(format!(
            "in-memory trace reported truncation at chunk {chunk}, offset {offset}"
        ));
    }
    let twin_quiesced = twin.run_until_quiescent(cfg.soak_cycle_budget);
    if twin_quiesced != quiesced {
        return Err(format!(
            "replayed quiescence {twin_quiesced} != recorded {quiesced}"
        ));
    }
    let replayed = sealed_digest(&twin)?;
    if replayed != recorded {
        return Err(format!(
            "replayed outcome fingerprint {replayed:016x} != recorded {recorded:016x} \
             over {} events",
            outcome.replayed
        ));
    }
    Ok(())
}

/// The hidden-plan detection phase: the plan is physically applied but
/// *never shown* to the health layer, which must infer every fault from
/// behavioral telemetry alone. Scores three properties against ground truth:
///
/// - **precision** — no breaker opens on a healthy link or slice (die-wide
///   transient noise is exempt for links: under it, any link can
///   legitimately accumulate drops);
/// - **recall** — every dead link and every disabled slice is detected;
/// - **latency** — each detection lands within a fixed bound of its fault's
///   onset.
///
/// Flaky links sit between the two: detecting one is correct (it is a real
/// fault), missing one is tolerated (drops are probabilistic).
fn detection_phase(cfg: &ChaosConfig, seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let mut problems: Vec<String> = Vec::new();

    // Link detection on a self-healing mesh (same geometry as the soak).
    let mesh_cfg = soak_mesh_config(cfg);
    let mut healer = SelfHealingMesh::new(mesh_cfg, plan, cfg.retry, HealthConfig::default())
        .map_err(|e| format!("harness: self-healing mesh rejected the plan: {e}"))?;
    let last_onset = plan.links.iter().map(|l| l.onset).max().unwrap_or(0);
    healer
        .run_detection(last_onset + DETECTION_RUN_MARGIN)
        .map_err(|e| format!("harness: detection run failed: {e}"))?;

    problems.extend(score_link_detection(plan, &healer.detected_links()));

    // Fabric-link detection for multi-device configs: the fabric plan is
    // applied but concealed from a self-healing fabric, whose per-link
    // drop-window breakers must find every dead inter-device link from
    // crossing-drop evidence alone.
    if cfg.devices >= 2 {
        problems.extend(fabric_detection(cfg, plan)?);
    }

    // Slice detection on a latent-fault device, when one is configured. The
    // device never remaps around `plan.disabled_slices` itself; the monitor
    // must find them from probe latencies.
    if let Some(device) = &cfg.device {
        let spec = spec_for_preset(device).map_err(|e| format!("harness: {e}"))?;
        let (_dev, monitor) = run_slice_detection_for_spec(
            spec,
            plan,
            seed,
            HealthConfig::default(),
            SLICE_DETECTION_WINDOWS,
        )
        .map_err(|e| format!("harness: slice detection failed: {e}"))?;
        problems.extend(score_slice_detection(plan, &monitor.detected_slices()));
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Scores a detected-link set against the plan's ground truth: false
/// positives on healthy links (unless die-wide transient noise is active,
/// under which any link legitimately accumulates drops), misses on dead
/// links, and detections past the latency bound. Flaky links may be
/// detected (they are real faults) but are never required to be.
fn score_link_detection(
    plan: &FaultPlan,
    detected: &[(u32, gnoc_core::faults::Direction, u64)],
) -> Vec<String> {
    let mut problems = Vec::new();
    let has_fault = |r: u32, d: gnoc_core::faults::Direction| {
        plan.links.iter().any(|l| l.router == r && l.dir == d)
    };
    if !plan.transient.is_active() {
        for &(r, d, at) in detected {
            if !has_fault(r, d) {
                problems.push(format!(
                    "false positive: breaker for healthy link {r}:{d} opened at cycle {at}"
                ));
            }
        }
    }
    for l in &plan.links {
        if !matches!(l.kind, LinkFaultKind::Dead) {
            continue;
        }
        let (r, d) = (l.router, l.dir);
        match detected.iter().find(|&&(dr, dd, _)| dr == r && dd == d) {
            None => problems.push(format!(
                "miss: dead link {r}:{d} (onset {}) never detected",
                l.onset
            )),
            Some(&(_, _, at)) if at > l.onset + DETECTION_LATENCY_BOUND => {
                problems.push(format!(
                    "slow detection: dead link {r}:{d} (onset {}) first opened at cycle \
                     {at}, past the bound {}",
                    l.onset,
                    l.onset + DETECTION_LATENCY_BOUND
                ));
            }
            Some(_) => {}
        }
    }
    problems
}

/// Runs the hidden-plan fabric detection: a self-healing fabric (routing
/// blind to the plan, reacting only to monitor quarantines) patrolled by
/// the per-link breaker monitor until every onset has had
/// [`DETECTION_RUN_MARGIN`] cycles to surface.
fn fabric_detection(cfg: &ChaosConfig, plan: &FaultPlan) -> Result<Vec<String>, String> {
    let mut fc = fabric_config(cfg);
    fc.self_healing = true;
    let mut sim = FabricSim::with_faults(fc, plan)
        .map_err(|e| format!("harness: self-healing fabric rejected the plan: {e}"))?;
    let mut monitor = FabricHealthMonitor::new(&sim, FabricHealthConfig::default());
    let last_onset = plan
        .fabric
        .links
        .iter()
        .map(|l| l.onset)
        .chain(plan.fabric.devices.iter().map(|d| d.onset))
        .chain(plan.fabric.dead_switch)
        .max()
        .unwrap_or(0);
    monitor.run_detection(&mut sim, last_onset + DETECTION_RUN_MARGIN);
    Ok(score_fabric_detection(
        cfg,
        plan,
        &monitor.detected_links(&sim),
    ))
}

/// Scores fabric-link detections against the plan's ground truth. A
/// detection is legitimate when the link itself is faulted (dead or flaky)
/// or when one of its endpoints is a lost device or the dead switch — the
/// link is then genuinely unusable and quarantining it is correct. Recall
/// and latency are required only for dead links whose endpoints stay
/// alive: traffic toward a dead node is stranded as `Partitioned` before
/// any crossing is attempted, so no drop evidence can accumulate there.
fn score_fabric_detection(
    cfg: &ChaosConfig,
    plan: &FaultPlan,
    detected: &[(u32, u32, u64)],
) -> Vec<String> {
    let mut problems = Vec::new();
    let topo = cfg.fabric_topology();
    let dead_devices = plan.fabric.dead_devices();
    let switch = topo.switch_node(cfg.devices);
    let endpoint_dead = |n: u32| {
        dead_devices.contains(&n) || (Some(n) == switch && plan.fabric.dead_switch.is_some())
    };
    let has_fault = |a: u32, b: u32| {
        plan.fabric
            .links
            .iter()
            .any(|l| (l.a.min(l.b), l.a.max(l.b)) == (a, b))
    };
    for &(a, b, at) in detected {
        if !has_fault(a, b) && !endpoint_dead(a) && !endpoint_dead(b) {
            problems.push(format!(
                "false positive: breaker for healthy fabric link {a}<->{b} opened at cycle {at}"
            ));
        }
    }
    for l in &plan.fabric.links {
        if !matches!(l.kind, LinkFaultKind::Dead) || endpoint_dead(l.a) || endpoint_dead(l.b) {
            continue;
        }
        let (a, b) = (l.a.min(l.b), l.a.max(l.b));
        match detected.iter().find(|&&(da, db, _)| (da, db) == (a, b)) {
            None => problems.push(format!(
                "miss: dead fabric link {a}<->{b} (onset {}) never detected",
                l.onset
            )),
            Some(&(_, _, at)) if at > l.onset + DETECTION_LATENCY_BOUND => {
                problems.push(format!(
                    "slow detection: dead fabric link {a}<->{b} (onset {}) first opened at \
                     cycle {at}, past the bound {}",
                    l.onset,
                    l.onset + DETECTION_LATENCY_BOUND
                ));
            }
            Some(_) => {}
        }
    }
    problems
}

/// Scores a detected-slice set against `plan.disabled_slices`: false
/// positives on healthy slices, misses on disabled ones, and first-open
/// windows past [`SLICE_DETECTION_WINDOW_BOUND`].
fn score_slice_detection(plan: &FaultPlan, found: &[(u32, u64)]) -> Vec<String> {
    let mut problems = Vec::new();
    for &(slice, window) in found {
        if !plan.disabled_slices.contains(&slice) {
            problems.push(format!(
                "false positive: breaker for healthy slice {slice} opened in window {window}"
            ));
        }
    }
    for &slice in &plan.disabled_slices {
        match found.iter().find(|&&(s, _)| s == slice) {
            None => problems.push(format!("miss: faulty slice {slice} never detected")),
            Some(&(_, window)) if window > SLICE_DETECTION_WINDOW_BOUND => {
                problems.push(format!(
                    "slow detection: faulty slice {slice} first opened in window \
                     {window}, past the bound {SLICE_DETECTION_WINDOW_BOUND}"
                ));
            }
            Some(_) => {}
        }
    }
    problems
}

/// A collision-free scratch path for the kill/resume oracle's checkpoint.
fn scratch_checkpoint_path(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gnoc-chaos-ckpt-{}-{:?}-{seed}.json",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Shrinks a violating plan: re-runs the iteration on ddmin candidates and
/// keeps the smallest plan on which the same oracle still fires.
pub fn shrink_violation(
    cfg: &ChaosConfig,
    seed: u64,
    plan: &FaultPlan,
    oracle: OracleKind,
    run_device: bool,
) -> FaultPlan {
    let fails = |candidate: &FaultPlan| {
        run_iteration(cfg, seed, candidate, run_device)
            .violations
            .iter()
            .any(|v| v.oracle == oracle)
    };
    ddmin(plan, cfg.width, cfg.height, fails, SHRINK_MAX_TESTS)
}

/// Replays a reproducer: one full iteration (device oracles included when
/// the embedded config names a device) on the embedded plan. When the
/// reproducer carries an embedded traffic trace, it is additionally decoded
/// and replayed into a fresh twin, and the twin's canonical stats digest is
/// checked against the one the recording run sealed into the trace footer
/// — a mismatch is reported as an [`OracleKind::Replay`] violation.
pub fn replay(repro: &Reproducer) -> IterationOutcome {
    let mut outcome = run_iteration(
        &repro.config,
        repro.seed,
        &repro.plan,
        repro.config.device.is_some(),
    );
    if let Some(hex) = &repro.traffic_trace {
        match verify_embedded_trace(&repro.config, &repro.plan, hex) {
            Ok(()) => outcome.passes.push(OracleKind::Replay),
            Err(detail) => outcome.violations.push(Violation {
                oracle: OracleKind::Replay,
                seed: repro.seed,
                detail: format!("embedded trace: {detail}"),
            }),
        }
    }
    outcome
}

/// Re-runs a seed's soak with an in-memory record tap attached and returns
/// the finished trace, hex-encoded — the replayable artifact embedded in
/// reproducers. `None` when the soak cannot be reconstructed under this
/// plan (the reproducer is still valid without the artifact).
fn record_soak_trace(cfg: &ChaosConfig, seed: u64, plan: &FaultPlan) -> Option<String> {
    let mut soak = build_soak(cfg, plan).ok()?;
    soak.attach_trace_tap(TraceTap::in_memory(&trace_header(cfg, seed, plan)));
    submit_traffic(&mut soak, cfg, seed).ok()?;
    soak.run_until_quiescent(cfg.soak_cycle_budget);
    let tap = soak.take_trace_tap()?;
    let digest = sealed_digest(&soak).ok()?;
    tap.finish_bytes(digest).ok().map(|b| to_hex(&b))
}

/// Decodes a reproducer's embedded trace, checks it was recorded against
/// this plan, replays it into a fresh twin, and compares the twin's
/// canonical stats digest with the one sealed into the trace footer.
fn verify_embedded_trace(cfg: &ChaosConfig, plan: &FaultPlan, hex: &str) -> Result<(), String> {
    let bytes = from_hex(hex).map_err(|e| format!("undecodable hex: {e}"))?;
    let mut reader =
        TraceReader::from_bytes(bytes).map_err(|e| format!("unreadable trace: {e}"))?;
    let expected_plan = trace_digest::plan_digest(Some(plan));
    let header_plan = reader.header().plan_fnv;
    if header_plan != expected_plan {
        return Err(format!(
            "trace was recorded against plan {header_plan:016x}, \
             reproducer carries plan {expected_plan:016x}"
        ));
    }
    let mut twin = build_soak(cfg, plan).map_err(|e| format!("twin construction failed: {e}"))?;
    let outcome = twin
        .replay_from(&mut reader)
        .map_err(|e| format!("replay failed: {e}"))?;
    if let Some((chunk, offset)) = outcome.truncated {
        return Err(format!(
            "embedded trace is truncated at chunk {chunk}, offset {offset}"
        ));
    }
    twin.run_until_quiescent(cfg.soak_cycle_budget);
    let replayed_digest = sealed_digest(&twin)?;
    let sealed = reader
        .footer()
        .ok_or_else(|| "trace has no footer".to_string())?
        .stats_fnv;
    if replayed_digest != sealed {
        return Err(format!(
            "replayed outcome fingerprint {replayed_digest:016x} != recorded {sealed:016x}"
        ));
    }
    Ok(())
}

/// Runs a chaos soak over `opts.seeds` (or the pending seeds of a resumed
/// state file), evaluating every oracle, shrinking and recording failures,
/// and persisting resumable state. Deterministic in (config, seeds) — never
/// in `opts.jobs`, which only fans iteration computation across workers; the
/// wall budget only decides how far the run gets.
///
/// # Errors
///
/// [`ChaosError`] for configuration or state-file problems; invariant
/// violations are *data* in the returned [`ChaosReport`], not errors.
pub fn run_chaos(
    cfg: &ChaosConfig,
    opts: &ChaosOptions,
    telemetry: &TelemetryHandle,
) -> Result<ChaosRun, ChaosError> {
    cfg.validate()?;
    let num_slices = match &cfg.device {
        Some(name) => device_for_preset(name, 0, None)
            .map_err(|e| ChaosError::Config(e.to_string()))?
            .hierarchy()
            .num_slices() as u32,
        None => 0,
    };

    let (mut pending, mut report) = match &opts.state_path {
        Some(path) if path.exists() => {
            let state = ChaosState::load(path)?;
            if state.report.config != *cfg {
                return Err(ChaosError::StateMismatch("config"));
            }
            (state.pending, state.report)
        }
        _ => (opts.seeds.clone(), ChaosReport::new(cfg.clone())),
    };

    let pool = {
        let mut p = WorkerPool::new(opts.jobs.max(1));
        p.set_telemetry(telemetry.clone());
        p
    };
    // Serial pools run one seed per batch (the exact historical cadence);
    // parallel pools pull two seeds per worker so a slow iteration does not
    // idle the rest of the pool.
    let batch_size = if pool.jobs() <= 1 { 1 } else { pool.jobs() * 2 };

    let started = Instant::now();
    let mut finished = true;
    // The profiled seed and its trace window, once one has been captured.
    // Folding is seed-ordered, so "first violating seed" is deterministic
    // regardless of `jobs`.
    let mut profiled: Option<(u64, TraceWindow)> = None;
    while !pending.is_empty() {
        if let Some(budget) = opts.wall_budget_ms {
            if started.elapsed().as_millis() as u64 >= budget {
                finished = false;
                break;
            }
        }
        // Compute the batch in parallel: each seed's iteration (and its
        // shrinks) is a pure function of (config, seed), so workers never
        // race. Everything order-sensitive — telemetry, reproducer I/O,
        // report folding, state saves — happens below, in seed order.
        let take = batch_size.min(pending.len());
        let batch: Vec<u64> = pending[..take].to_vec();
        let results = pool.par_map(&batch, |&seed| {
            process_seed(cfg, seed, num_slices, opts.shrink)
        });

        for sr in results {
            pending.remove(0);
            report.completed_seeds.push(sr.seed);
            telemetry.counter_add("chaos.seeds", 1);
            for kind in &sr.outcome.passes {
                *report
                    .oracle_passes
                    .entry(kind.name().to_string())
                    .or_insert(0) += 1;
                telemetry.counter_add(&format!("chaos.oracle.{}.pass", kind.name()), 1);
            }
            if sr.outcome.panicked {
                report.panics += 1;
                telemetry.counter_add("chaos.panics", 1);
            }
            // Capture the first violating seed on the flight recorder: the
            // replay uses the same (config, seed, plan) pure function as the
            // iteration, so the trace shows exactly the failing traffic.
            if let Some(path) = &opts.profile {
                if profiled.is_none() && !sr.records.is_empty() {
                    let window = write_profile(
                        cfg,
                        sr.seed,
                        &sr.records[0].plan,
                        &sr.outcome.violations,
                        path,
                    )?;
                    profiled = Some((sr.seed, window));
                }
            }
            for mut rec in sr.records {
                telemetry.counter_add("chaos.violations", 1);
                if let Some(dir) = &opts.repro_dir {
                    let trace = profiled
                        .as_ref()
                        .filter(|(seed, _)| *seed == rec.seed)
                        .map(|(_, w)| w);
                    rec.reproducer = Some(write_reproducer(dir, cfg, &rec, trace)?);
                }
                report.violations.push(rec);
            }
            if let Some(path) = &opts.state_path {
                ChaosState {
                    version: CHAOS_STATE_VERSION,
                    pending: pending.clone(),
                    report: report.clone(),
                }
                .save(path)?;
            }
        }
    }

    // Clean run: nothing violated, so profile the first completed seed —
    // still a representative soak over this config's fault plans.
    if let Some(path) = &opts.profile {
        if profiled.is_none() {
            if let Some(&seed) = report.completed_seeds.first() {
                let plan = cfg.plan_for_seed(seed, num_slices);
                write_profile(cfg, seed, &plan, &[], path)?;
            }
        }
    }

    Ok(ChaosRun {
        finished: finished && pending.is_empty(),
        pending,
        report,
    })
}

/// Replays `seed`'s soak with a flight recorder attached (same config,
/// plan, and traffic recipe as [`run_iteration`]'s soak phase), annotates
/// the seed's oracle violations on the timeline, and writes the
/// stall-attribution profile to `path` plus a Chrome trace to
/// `<path>.trace.json`. Returns the trace's cycle window.
///
/// A fabric records at the fabric layer: die legs appear as source wait
/// and final-hop residency, crossings are charged to the `fabric` stall
/// class, and the profile's router axis is the fabric node id — devices
/// first, then the switch when the topology has one.
fn write_profile(
    cfg: &ChaosConfig,
    seed: u64,
    plan: &FaultPlan,
    violations: &[Violation],
    path: &Path,
) -> Result<TraceWindow, ChaosError> {
    let mut soak =
        build_soak(cfg, plan).map_err(|e| ChaosError::Config(format!("profile replay: {e}")))?;
    soak.attach_flight_recorder();
    let _ = submit_traffic(&mut soak, cfg, seed);
    soak.run_until_quiescent(cfg.soak_cycle_budget);
    let cycles = soak.cycle();
    let (columns, rows) = soak.profile_grid();
    let mut rec = soak
        .take_flight_recorder()
        .expect("recorder attached above");
    for v in violations {
        rec.note(
            gnoc_core::telemetry::TraceEvent::new(cycles, "chaos", "oracle_violation")
                .with("oracle", v.oracle.name())
                .with("seed", v.seed)
                .with("detail", v.detail.clone()),
        );
    }
    let report =
        gnoc_core::analysis::profile::ProfileReport::from_recorder(&rec, columns, rows, cycles, 5);
    std::fs::write(path, report.to_json_pretty()).map_err(|e| ChaosError::Io(e.to_string()))?;
    let mut trace_name = path.file_name().unwrap_or_default().to_os_string();
    trace_name.push(".trace.json");
    let trace_path = path.with_file_name(trace_name);
    std::fs::write(&trace_path, rec.chrome_trace()).map_err(|e| ChaosError::Io(e.to_string()))?;
    Ok(TraceWindow {
        profile: path.display().to_string(),
        start: 0,
        end: cycles,
    })
}

/// Everything one seed's iteration produces, computed worker-side (the
/// iteration itself, plus any ddmin shrinks — both deterministic per seed).
/// Reproducer paths are filled in later by the sequential fold.
struct SeedOutcome {
    seed: u64,
    outcome: IterationOutcome,
    records: Vec<ViolationRecord>,
}

/// The pure per-seed work of a chaos run: plan generation, the iteration,
/// and (when requested) shrinking each violation. Safe to run on any worker
/// because its result depends only on `(cfg, seed, num_slices, shrink)`.
fn process_seed(cfg: &ChaosConfig, seed: u64, num_slices: u32, shrink: bool) -> SeedOutcome {
    let plan = cfg.plan_for_seed(seed, num_slices);
    let run_device =
        cfg.device.is_some() && cfg.device_every > 0 && seed.is_multiple_of(cfg.device_every);
    let outcome = run_iteration(cfg, seed, &plan, run_device);
    let atoms_before = decompose(&plan, cfg.width, cfg.height).len();
    let records = outcome
        .violations
        .iter()
        .map(|v| {
            let mut rec = ViolationRecord {
                oracle: v.oracle,
                seed,
                detail: v.detail.clone(),
                plan: plan.clone(),
                shrunk: None,
                atoms_before,
                atoms_after: None,
                reproducer: None,
            };
            if shrink {
                let shrunk = shrink_violation(cfg, seed, &plan, v.oracle, run_device);
                rec.atoms_after = Some(decompose(&shrunk, cfg.width, cfg.height).len());
                rec.shrunk = Some(shrunk);
            }
            rec
        })
        .collect();
    SeedOutcome {
        seed,
        outcome,
        records,
    }
}

/// Writes a reproducer for `rec` into `dir`, returning the path.
fn write_reproducer(
    dir: &Path,
    cfg: &ChaosConfig,
    rec: &ViolationRecord,
    trace: Option<&TraceWindow>,
) -> Result<String, ChaosError> {
    std::fs::create_dir_all(dir).map_err(|e| ChaosError::Io(e.to_string()))?;
    let path = dir.join(format!("repro-{}-seed{}.json", rec.oracle.name(), rec.seed));
    let plan = rec.shrunk.clone().unwrap_or_else(|| rec.plan.clone());
    // Re-record the failing soak against the embedded plan so the artifact
    // replays against exactly what the reproducer ships.
    let traffic_trace = record_soak_trace(cfg, rec.seed, &plan);
    let repro = Reproducer {
        version: REPRODUCER_VERSION,
        oracle: rec.oracle,
        seed: rec.seed,
        detail: rec.detail.clone(),
        config: cfg.clone(),
        plan,
        command: format!("gnoc chaos replay --repro {}", path.display()),
        trace: trace.cloned(),
        traffic_trace,
    };
    repro.save(&path)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc_only() -> ChaosConfig {
        ChaosConfig {
            device: None,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn benign_iteration_passes_the_noc_oracles() {
        let cfg = noc_only();
        let plan = cfg.plan_for_seed(0, 0);
        let out = run_iteration(&cfg, 0, &plan, false);
        assert!(out.is_clean(), "violations: {:?}", out.violations);
        assert!(out.passes.contains(&OracleKind::Delivery));
        assert!(out.passes.contains(&OracleKind::Progress));
    }

    #[test]
    fn link_detection_scoring_has_teeth() {
        use gnoc_core::faults::{Direction, LinkFault};
        let mut plan = FaultPlan::default();
        plan.links.push(LinkFault {
            router: 7,
            dir: Direction::East,
            kind: LinkFaultKind::Dead,
            onset: 1_000,
        });

        // Perfect detection: found the dead link, promptly, nothing else.
        let good = vec![(7, Direction::East, 1_200)];
        assert!(score_link_detection(&plan, &good).is_empty());

        // Empty detected set → a miss naming the link.
        let miss = score_link_detection(&plan, &[]);
        assert_eq!(miss.len(), 1);
        assert!(
            miss[0].contains("miss") && miss[0].contains("7:east"),
            "{miss:?}"
        );

        // A healthy link in the detected set → a false positive.
        let fp = score_link_detection(
            &plan,
            &[(7, Direction::East, 1_200), (3, Direction::North, 500)],
        );
        assert_eq!(fp.len(), 1);
        assert!(fp[0].contains("false positive"), "{fp:?}");

        // Detection past the latency bound → slow detection.
        let slow = score_link_detection(
            &plan,
            &[(7, Direction::East, 1_000 + DETECTION_LATENCY_BOUND + 1)],
        );
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("slow detection"), "{slow:?}");

        // With die-wide transient noise active, link false positives are
        // exempt (but misses still count).
        plan.transient.drop_prob = 0.001;
        assert!(score_link_detection(&plan, &fp_input(&plan)).is_empty());
    }

    fn fp_input(plan: &FaultPlan) -> Vec<(u32, gnoc_core::faults::Direction, u64)> {
        use gnoc_core::faults::Direction;
        let mut v = vec![(3, Direction::North, 500)];
        for l in &plan.links {
            v.push((l.router, l.dir, l.onset + 100));
        }
        v
    }

    #[test]
    fn slice_detection_scoring_has_teeth() {
        let plan = FaultPlan {
            disabled_slices: vec![4, 9],
            ..FaultPlan::default()
        };
        assert!(score_slice_detection(&plan, &[(4, 1), (9, 2)]).is_empty());
        let problems = score_slice_detection(&plan, &[(4, 1), (2, 1)]);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems
            .iter()
            .any(|p| p.contains("false positive") && p.contains("slice 2")));
        assert!(problems
            .iter()
            .any(|p| p.contains("miss") && p.contains("slice 9")));
        let slow = score_slice_detection(&plan, &[(4, 1), (9, SLICE_DETECTION_WINDOW_BOUND + 1)]);
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("slow detection"), "{slow:?}");
    }

    #[test]
    fn detection_phase_passes_on_every_archetype_without_a_device() {
        let cfg = ChaosConfig {
            detection: true,
            ..noc_only()
        };
        for seed in 0..5 {
            let plan = cfg.plan_for_seed(seed, 0);
            let out = run_iteration(&cfg, seed, &plan, false);
            assert!(
                out.is_clean(),
                "seed {seed} violations: {:?}",
                out.violations
            );
            assert!(out.passes.contains(&OracleKind::Detection));
        }
    }

    fn fabric_only(devices: u32, topology: &str) -> ChaosConfig {
        ChaosConfig {
            device: None,
            devices,
            topology: topology.to_string(),
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn replay_oracle_is_clean_on_noc_soaks() {
        let cfg = ChaosConfig {
            replay: true,
            ..noc_only()
        };
        for seed in 0..6 {
            let plan = cfg.plan_for_seed(seed, 0);
            let out = run_iteration(&cfg, seed, &plan, false);
            assert!(
                out.violations
                    .iter()
                    .all(|v| v.oracle != OracleKind::Replay),
                "seed {seed}: {:?}",
                out.violations
            );
            assert!(
                out.passes.contains(&OracleKind::Replay),
                "seed {seed}: replay oracle did not run"
            );
        }
    }

    #[test]
    fn replay_oracle_is_clean_on_fabric_soaks() {
        let cfg = ChaosConfig {
            replay: true,
            device: None,
            devices: 4,
            topology: "ring".to_string(),
            ..ChaosConfig::default()
        };
        for seed in 0..4 {
            let plan = cfg.plan_for_seed(seed, 0);
            let out = run_iteration(&cfg, seed, &plan, false);
            assert!(
                out.violations
                    .iter()
                    .all(|v| v.oracle != OracleKind::Replay),
                "seed {seed}: {:?}",
                out.violations
            );
            assert!(
                out.passes.contains(&OracleKind::Replay),
                "seed {seed}: replay oracle did not run"
            );
        }
    }

    #[test]
    fn reproducer_embedded_trace_round_trips_through_replay() {
        let cfg = noc_only();
        let plan = cfg.plan_for_seed(3, 0);
        let hex = record_soak_trace(&cfg, 3, &plan).expect("soak should record");
        let repro = Reproducer {
            version: REPRODUCER_VERSION,
            oracle: OracleKind::Delivery,
            seed: 3,
            detail: String::new(),
            config: cfg.clone(),
            plan: plan.clone(),
            command: String::new(),
            trace: None,
            traffic_trace: Some(hex.clone()),
        };
        let out = replay(&repro);
        assert!(
            out.passes.contains(&OracleKind::Replay),
            "embedded trace failed to verify: {:?}",
            out.violations
        );

        // The same trace against a different plan is refused, not replayed.
        let other_plan = cfg.plan_for_seed(4, 0);
        let err = verify_embedded_trace(&cfg, &other_plan, &hex)
            .expect_err("plan digest mismatch must be detected");
        assert!(err.contains("recorded against plan"), "{err}");
    }

    #[test]
    fn fabric_iterations_pass_every_archetype_on_every_topology() {
        for topology in ["ring", "line", "fully", "switch"] {
            let cfg = fabric_only(4, topology);
            for seed in 0..5 {
                let plan = cfg.plan_for_seed(seed, 0);
                let out = run_iteration(&cfg, seed, &plan, false);
                assert!(
                    out.is_clean(),
                    "{topology} seed {seed}: {:?}",
                    out.violations
                );
                assert!(out.passes.contains(&OracleKind::Delivery));
                assert!(out.passes.contains(&OracleKind::Progress));
                assert!(out.passes.contains(&OracleKind::Differential));
            }
        }
    }

    #[test]
    fn fabric_iterations_are_deterministic() {
        let cfg = fabric_only(3, "ring");
        for seed in 0..5 {
            let plan = cfg.plan_for_seed(seed, 0);
            let a = run_iteration(&cfg, seed, &plan, false);
            let b = run_iteration(&cfg, seed, &plan, false);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn fabric_detection_passes_every_archetype() {
        let cfg = ChaosConfig {
            detection: true,
            ..fabric_only(4, "ring")
        };
        for seed in 0..5 {
            let plan = cfg.plan_for_seed(seed, 0);
            let out = run_iteration(&cfg, seed, &plan, false);
            assert!(out.is_clean(), "seed {seed}: {:?}", out.violations);
            assert!(out.passes.contains(&OracleKind::Detection));
        }
    }

    #[test]
    fn fabric_detection_scoring_has_teeth() {
        use gnoc_core::faults::{FabricLinkFault, LinkFaultKind};
        let cfg = fabric_only(4, "ring");
        let mut plan = FaultPlan::default();
        plan.fabric.links.push(FabricLinkFault {
            a: 1,
            b: 2,
            kind: LinkFaultKind::Dead,
            onset: 500,
        });

        // Perfect detection: found the dead link, promptly, nothing else.
        assert!(score_fabric_detection(&cfg, &plan, &[(1, 2, 900)]).is_empty());

        // Empty detected set → a miss naming the link.
        let miss = score_fabric_detection(&cfg, &plan, &[]);
        assert_eq!(miss.len(), 1);
        assert!(
            miss[0].contains("miss") && miss[0].contains("1<->2"),
            "{miss:?}"
        );

        // A healthy link in the detected set → a false positive.
        let fp = score_fabric_detection(&cfg, &plan, &[(1, 2, 900), (0, 1, 700)]);
        assert_eq!(fp.len(), 1);
        assert!(fp[0].contains("false positive"), "{fp:?}");

        // Detection past the latency bound → slow detection.
        let slow =
            score_fabric_detection(&cfg, &plan, &[(1, 2, 500 + DETECTION_LATENCY_BOUND + 1)]);
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("slow detection"), "{slow:?}");

        // Once device 1 is lost, its links are exempt both ways: detecting
        // 0<->1 is legitimate, and missing the dead 1<->2 is tolerated
        // (stranded traffic produces no crossing drops there).
        plan.fabric.devices.push(gnoc_core::faults::DeviceFault {
            device: 1,
            onset: 0,
        });
        assert!(score_fabric_detection(&cfg, &plan, &[(0, 1, 700)]).is_empty());
        assert!(score_fabric_detection(&cfg, &plan, &[]).is_empty());
    }

    #[cfg(feature = "bug-hooks")]
    #[test]
    fn stuck_crossing_bug_is_caught_and_shrinks_to_the_culprit_link() {
        let cfg = ChaosConfig {
            fabric_stuck_crossing_bug: true,
            ..fabric_only(4, "ring")
        };
        // Archetype 2 makes one fabric link flaky. (A dead link would not
        // trigger the bug: fault-aware routing avoids it from onset, so
        // nothing ever drops there.) With the lost-wakeup bug armed, the
        // first transfer whose crossing drops hangs forever.
        let plan = cfg.plan_for_seed(2, 0);
        let out = run_iteration(&cfg, 2, &plan, false);
        let progress: Vec<_> = out
            .violations
            .iter()
            .filter(|v| v.oracle == OracleKind::Progress)
            .collect();
        assert!(!progress.is_empty(), "violations: {:?}", out.violations);
        let shrunk = shrink_violation(&cfg, 2, &plan, OracleKind::Progress, false);
        let atoms = decompose(&shrunk, cfg.width, cfg.height);
        assert!(
            atoms.len() <= 3,
            "shrunk reproducer still has {} atoms: {atoms:?}",
            atoms.len()
        );
        assert!(
            !shrunk.fabric.links.is_empty(),
            "the culprit fabric link must survive shrinking"
        );
    }

    #[test]
    fn iterations_are_deterministic() {
        let cfg = noc_only();
        for seed in [1, 2, 3, 4] {
            let plan = cfg.plan_for_seed(seed, 0);
            let a = run_iteration(&cfg, seed, &plan, false);
            let b = run_iteration(&cfg, seed, &plan, false);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn panics_are_caught_and_reported_not_propagated() {
        // An invalid mesh geometry cannot panic anymore (typed error), so
        // exercise the catch_unwind boundary directly.
        let out = catch_unwind(AssertUnwindSafe(|| {
            panic!("synthetic failure");
        }));
        assert!(out.is_err());
        let msg = panic_message(&*out.unwrap_err());
        assert!(msg.contains("synthetic failure"));
    }

    #[test]
    fn state_round_trips_and_rejects_bad_versions() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("gnoc-chaos-state-{}.json", std::process::id()));
        let state = ChaosState {
            version: CHAOS_STATE_VERSION,
            pending: vec![5, 6],
            report: ChaosReport::new(noc_only()),
        };
        state.save(&path).unwrap();
        assert_eq!(ChaosState::load(&path).unwrap(), state);

        let bad = ChaosState {
            version: 99,
            ..state.clone()
        };
        bad.save(&path).unwrap();
        assert_eq!(
            ChaosState::load(&path).unwrap_err(),
            ChaosError::Version(99)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wall_budget_zero_salvages_partial_state_and_resumes() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("gnoc-chaos-resume-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = noc_only();
        let opts = ChaosOptions {
            seeds: vec![0, 1, 2],
            state_path: Some(path.clone()),
            wall_budget_ms: Some(0), // expires before the first iteration
            shrink: false,
            repro_dir: None,
            jobs: 1,
            profile: None,
        };
        let run = run_chaos(&cfg, &opts, &TelemetryHandle::disabled()).unwrap();
        assert!(!run.finished);
        assert_eq!(run.pending, vec![0, 1, 2]);

        // No budget now: but the state file does not exist yet (nothing
        // completed), so the fresh run processes everything and persists.
        let opts = ChaosOptions {
            wall_budget_ms: None,
            ..opts
        };
        let run = run_chaos(&cfg, &opts, &TelemetryHandle::disabled()).unwrap();
        assert!(run.finished);
        assert_eq!(run.report.completed_seeds, vec![0, 1, 2]);
        assert!(run.report.is_clean(), "{:?}", run.report.violations);

        // Resuming a finished state is a no-op that keeps the report.
        let resumed = run_chaos(&cfg, &opts, &TelemetryHandle::disabled()).unwrap();
        assert!(resumed.finished);
        assert_eq!(resumed.report.completed_seeds, vec![0, 1, 2]);

        // A different config must be rejected, not silently mixed in.
        let other = ChaosConfig {
            transfers: 8,
            ..noc_only()
        };
        assert_eq!(
            run_chaos(&other, &opts, &TelemetryHandle::disabled()).unwrap_err(),
            ChaosError::StateMismatch("config")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profiling_writes_artifacts_without_changing_the_report() {
        let dir = std::env::temp_dir();
        let profile = dir.join(format!("gnoc-chaos-profile-{}.json", std::process::id()));
        let trace = dir.join(format!(
            "gnoc-chaos-profile-{}.json.trace.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&profile);
        let _ = std::fs::remove_file(&trace);
        let cfg = noc_only();
        let bare = ChaosOptions {
            seeds: vec![0, 1],
            ..ChaosOptions::default()
        };
        let with_profile = ChaosOptions {
            profile: Some(profile.clone()),
            ..bare.clone()
        };
        let a = run_chaos(&cfg, &bare, &TelemetryHandle::disabled()).unwrap();
        let b = run_chaos(&cfg, &with_profile, &TelemetryHandle::disabled()).unwrap();
        // The recorder replays a seed on the side; the fuzzing results are
        // byte-for-byte those of an unprofiled run.
        assert_eq!(a, b);
        let report = std::fs::read_to_string(&profile).unwrap();
        assert!(report.trim_start().starts_with("{\n  \"schema\": 1"));
        let chrome = std::fs::read_to_string(&trace).unwrap();
        assert!(serde_json::from_str::<serde::Value>(&chrome).is_ok());
        let _ = std::fs::remove_file(&profile);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn chaos_metrics_flow_through_telemetry() {
        let cfg = noc_only();
        let telemetry = TelemetryHandle::enabled();
        let opts = ChaosOptions {
            seeds: vec![0, 1],
            ..ChaosOptions::default()
        };
        let run = run_chaos(&cfg, &opts, &telemetry).unwrap();
        assert!(run.report.is_clean());
        let registry = telemetry.snapshot_registry().unwrap();
        assert_eq!(registry.counter("chaos.seeds"), 2);
        assert_eq!(registry.counter("chaos.violations"), 0);
        assert_eq!(registry.counter("chaos.oracle.delivery.pass"), 2);
        assert_eq!(registry.counter("chaos.oracle.progress.pass"), 2);
    }
}
