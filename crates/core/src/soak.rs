//! The seeded soaks every front end runs, the simulator they run on, and
//! the one trace-replay verdict.
//!
//! `gnoc mesh --faults`, `gnoc fabric`, `gnoc profile`, `gnoc trace`, the
//! daemon's jobs, and the benches all drive the same traffic from the same
//! seed, so the streams live here once: "daemon result == one-shot result"
//! holds because both call the same function, not because two copies were
//! kept in step. [`Soak`] is the single-die mesh or the multi-device fabric
//! a soak runs on, so the lifecycle around a stream (tap, record, run,
//! digest, profile) is written once for both. Likewise [`replay`] is the
//! single path from a trace artifact to a verdict; front ends only format
//! it.

use crate::trace_digest;
use crate::{CheckpointedCampaign, LatencyCampaign};
use gnoc_fabric::{FabricConfig, FabricError, FabricSim};
use gnoc_faults::FaultPlan;
use gnoc_microbench::LatencyProbe;
use gnoc_noc::{
    ArbiterKind, MeshConfig, NodeId, PacketClass, ReliableMesh, RetryConfig, TransferOutcome,
};
use gnoc_telemetry::{FlightRecorder, TelemetryHandle};
use gnoc_topo::hash::SplitMix64;
use gnoc_topo::FabricTopology;
use gnoc_trace::{validate_stream, ReplayError, ReplayOutcome, TraceKind, TraceReader, TraceTap};
use std::io::Read;

/// Cycle budget the CLI soaks, the daemon's jobs, and replay twins give a
/// run to quiesce.
pub const QUIESCE_BUDGET: u64 = 2_000_000;

/// The simulator a soak runs on: one reliable die mesh, or the
/// multi-device fabric. Every caller picks it at run time (device count,
/// trace kind, record target), and the lifecycle around a soak is the same
/// on both, so it is an enum. Submission streams stay with the concrete
/// types: a caller matches once to submit, then drives the soak through
/// these methods. Both variants are boxed: the two simulators differ in
/// size by hundreds of bytes, and a soak is built once per run.
#[derive(Debug)]
pub enum Soak {
    /// A single die: the reliable layer over one mesh.
    Mesh(Box<ReliableMesh>),
    /// Several dies joined by the inter-device fabric.
    Fabric(Box<FabricSim>),
}

impl Soak {
    /// `"mesh"` or `"fabric"`, as front ends name the run.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Mesh(_) => "mesh",
            Self::Fabric(_) => "fabric",
        }
    }

    /// Runs until every transfer resolves or `max_cycles` pass; `true` when
    /// the run quiesced.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        match self {
            Self::Mesh(rm) => rm.run_until_quiescent(max_cycles),
            Self::Fabric(sim) => sim.run_until_quiescent(max_cycles),
        }
    }

    /// The current simulation cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match self {
            Self::Mesh(rm) => rm.mesh().cycle(),
            Self::Fabric(sim) => sim.cycle(),
        }
    }

    /// Transfers not yet resolved.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        match self {
            Self::Mesh(rm) => rm.outstanding(),
            Self::Fabric(sim) => sim.outstanding(),
        }
    }

    /// Attaches a record tap that captures every later submission.
    pub fn attach_trace_tap(&mut self, tap: TraceTap) {
        match self {
            Self::Mesh(rm) => rm.attach_trace_tap(tap),
            Self::Fabric(sim) => sim.attach_trace_tap(tap),
        }
    }

    /// Detaches the record tap for finalization.
    pub fn take_trace_tap(&mut self) -> Option<TraceTap> {
        match self {
            Self::Mesh(rm) => rm.take_trace_tap(),
            Self::Fabric(sim) => sim.take_trace_tap(),
        }
    }

    /// Replays a recorded submission stream into this soak (see
    /// [`ReliableMesh::replay_from`] and [`FabricSim::replay_from`]).
    ///
    /// # Errors
    ///
    /// The simulator's [`ReplayError`].
    pub fn replay_from<R: Read>(
        &mut self,
        reader: &mut TraceReader<R>,
    ) -> Result<ReplayOutcome, ReplayError> {
        match self {
            Self::Mesh(rm) => rm.replay_from(reader),
            Self::Fabric(sim) => sim.replay_from(reader),
        }
    }

    /// Attaches a flight recorder: to the die mesh for a mesh, to the
    /// fabric layer for a fabric.
    pub fn attach_flight_recorder(&mut self) {
        match self {
            Self::Mesh(rm) => rm.mesh_mut().attach_flight_recorder(),
            Self::Fabric(sim) => sim.attach_flight_recorder(),
        }
    }

    /// Detaches the flight recorder.
    pub fn take_flight_recorder(&mut self) -> Option<Box<FlightRecorder>> {
        match self {
            Self::Mesh(rm) => rm.mesh_mut().take_flight_recorder(),
            Self::Fabric(sim) => sim.take_flight_recorder(),
        }
    }

    /// The grid a flight-recorder profile is laid out on: the die's
    /// `width x height`, or one row of fabric nodes (devices, then the
    /// switch when the topology has one).
    #[must_use]
    pub fn profile_grid(&self) -> (usize, usize) {
        match self {
            Self::Mesh(rm) => {
                let cfg = rm.mesh().config();
                (cfg.width, cfg.height)
            }
            Self::Fabric(sim) => {
                let cfg = sim.config();
                (cfg.topology.node_count(cfg.devices) as usize, 1)
            }
        }
    }

    /// The canonical stats line a trace footer seals (through
    /// [`trace_digest::line_digest`]).
    ///
    /// # Errors
    ///
    /// Propagates stats serialization failure (practically unreachable).
    pub fn stats_line(&self) -> Result<String, String> {
        match self {
            Self::Mesh(rm) => trace_digest::mesh_stats_line(rm),
            Self::Fabric(sim) => trace_digest::fabric_stats_line(sim),
        }
    }

    /// Every transfer's outcome, in submission order.
    #[must_use]
    pub fn outcomes(&self) -> Vec<TransferOutcome> {
        match self {
            Self::Mesh(rm) => rm.outcomes(),
            Self::Fabric(sim) => sim.outcomes(),
        }
    }

    /// Transfers submitted.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        match self {
            Self::Mesh(rm) => rm.stats().submitted,
            Self::Fabric(sim) => sim.stats().submitted,
        }
    }

    /// Transfers delivered.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        match self {
            Self::Mesh(rm) => rm.stats().delivered,
            Self::Fabric(sim) => sim.stats().delivered,
        }
    }

    /// Transfers lost, any reason.
    #[must_use]
    pub fn lost(&self) -> u64 {
        match self {
            Self::Mesh(rm) => rm.stats().lost_total(),
            Self::Fabric(sim) => sim.stats().lost_total(),
        }
    }
}

/// The `gnoc mesh` soak: `transfers` single-flit requests between
/// uniform-random distinct nodes, drawn from the splitmix64 stream `seed`.
pub fn submit_mesh_soak(rm: &mut ReliableMesh, seed: u64, transfers: usize) {
    submit_mesh_stream(rm, seed, transfers, false);
}

/// The `gnoc profile` variant of [`submit_mesh_soak`]: each transfer also
/// draws a 1–4 flit length, so serialization stalls show up in a profile.
pub fn submit_profile_soak(rm: &mut ReliableMesh, seed: u64, transfers: usize) {
    submit_mesh_stream(rm, seed, transfers, true);
}

fn submit_mesh_stream(rm: &mut ReliableMesh, seed: u64, transfers: usize, varied_flits: bool) {
    let nodes = rm.mesh().config().num_nodes() as u64;
    let mut rng = SplitMix64::new(seed);
    let mut submitted = 0usize;
    while submitted < transfers {
        let src = (rng.next() % nodes) as u32;
        let dst = (rng.next() % nodes) as u32;
        let flits = if varied_flits {
            1 + (rng.next() % 4) as u32
        } else {
            1
        };
        if src == dst {
            continue;
        }
        rm.submit(NodeId(src), NodeId(dst), flits, PacketClass::Request);
        submitted += 1;
    }
}

/// The `gnoc fabric` soak: `transfers` requests with uniform-random device
/// and node endpoints (same-device pairs included, so die-local and
/// cross-device traffic mix) and 1–4 flit lengths, drawn from the
/// splitmix64 stream `seed`.
///
/// # Errors
///
/// Propagates a submission the fabric refuses.
pub fn submit_fabric_soak(
    sim: &mut FabricSim,
    seed: u64,
    transfers: usize,
) -> Result<(), FabricError> {
    let devs = u64::from(sim.config().devices);
    let nodes = sim.config().mesh.num_nodes() as u64;
    let mut rng = SplitMix64::new(seed);
    let mut submitted = 0usize;
    while submitted < transfers {
        let src_dev = (rng.next() % devs) as u32;
        let dst_dev = (rng.next() % devs) as u32;
        let src = (rng.next() % nodes) as u32;
        let dst = (rng.next() % nodes) as u32;
        if src_dev == dst_dev && src == dst {
            continue;
        }
        let flits = 1 + (rng.next() % 4) as u32;
        sim.submit(
            src_dev,
            NodeId(src),
            dst_dev,
            NodeId(dst),
            flits,
            PacketClass::Request,
        )?;
        submitted += 1;
    }
    Ok(())
}

/// The one-line summary of a finished campaign: what `gnoc campaign` prints
/// and what the daemon's campaign payload carries as `summary`.
#[must_use]
pub fn campaign_summary(
    device: &str,
    result: &LatencyCampaign,
    degraded: bool,
    has_plan: bool,
) -> String {
    let grand = result.grand_mean();
    if degraded {
        let plan = if has_plan { ", fault plan applied" } else { "" };
        format!("{device}: grand mean latency {grand:.0} cycles (degraded campaign{plan})")
    } else {
        let rows = result.matrix.len();
        let cols = result.matrix.first().map_or(0, Vec::len);
        let plan = if has_plan {
            " (fault plan applied)"
        } else {
            ""
        };
        format!("{device}: grand mean latency {grand:.0} cycles over {rows}x{cols} pairs{plan}")
    }
}

/// How a replay's recomputed digest relates to the recording's footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seal {
    /// The footer's digest equals the replay's.
    Matches,
    /// The footer seals a different digest: the replay diverged.
    Diverges(u64),
    /// The footer seals 0, which the trace format defines as "unknown":
    /// there is nothing to compare against, and that is not a failure.
    Unsealed,
    /// The trace ends before its footer; the complete prefix was replayed.
    Truncated {
        /// Index of the chunk the stream broke off in.
        chunk: u32,
        /// Byte offset of the break.
        offset: u64,
    },
}

/// What a finished replay computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayVerdict {
    /// The trace's kind.
    pub kind: TraceKind,
    /// Events replayed (for a campaign, events validated).
    pub events: u64,
    /// The replayed run's canonical stats line.
    pub line: String,
    /// [`trace_digest::line_digest`] of `line`.
    pub digest: u64,
    /// The comparison against the recording.
    pub seal: Seal,
}

/// Why [`replay`] could not reach a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayFailure {
    /// The trace was recorded against a different fault plan.
    PlanMismatch {
        /// The plan digest the trace header pins.
        recorded: u64,
        /// The digest of the plan the caller supplied.
        supplied: u64,
    },
    /// The header names a fabric topology this build does not know.
    UnknownTopology(String),
    /// Building or running the twin failed. `stage` is one of
    /// `mesh setup`, `fabric setup`, `campaign setup`, or `campaign`.
    Setup {
        /// Which step failed.
        stage: &'static str,
        /// The underlying error.
        error: String,
    },
    /// The stream is corrupt, unreadable, or carries an event the twin
    /// cannot take.
    Stream(ReplayError),
    /// The stats line could not be serialized.
    Stats(String),
}

fn setup(stage: &'static str, error: impl ToString) -> ReplayFailure {
    ReplayFailure::Setup {
        stage,
        error: error.to_string(),
    }
}

/// Replays a trace: builds the twin its header describes, with `plan`
/// applied, drives the recorded events into it, lets it quiesce, and
/// compares the recomputed stats digest with the sealed footer. A campaign
/// trace carries no events; its header alone re-runs the campaign.
/// `telemetry` is attached to the mesh and campaign twins.
///
/// # Errors
///
/// See [`ReplayFailure`]. A divergent digest is not an error: it is
/// [`Seal::Diverges`] in the verdict, next to the recomputed stats line.
pub fn replay<R: Read>(
    reader: &mut TraceReader<R>,
    plan: Option<&FaultPlan>,
    telemetry: &TelemetryHandle,
) -> Result<ReplayVerdict, ReplayFailure> {
    let header = reader.header().clone();
    let supplied = trace_digest::plan_digest(plan);
    if header.plan_fnv != supplied {
        return Err(ReplayFailure::PlanMismatch {
            recorded: header.plan_fnv,
            supplied,
        });
    }
    let benign = FaultPlan::none();
    let mesh_cfg = MeshConfig::new(
        header.width as usize,
        header.height as usize,
        ArbiterKind::RoundRobin,
    );
    let (events, truncated, line) = match header.kind {
        TraceKind::Mesh | TraceKind::Fabric => {
            let plan = plan.unwrap_or(&benign);
            let mut soak = if header.kind == TraceKind::Mesh {
                let mut rm = ReliableMesh::with_faults(mesh_cfg, plan, RetryConfig::default())
                    .map_err(|e| setup("mesh setup", e))?;
                rm.mesh_mut().set_telemetry(telemetry.clone());
                Soak::Mesh(Box::new(rm))
            } else {
                let topo = FabricTopology::parse(&header.topology)
                    .ok_or_else(|| ReplayFailure::UnknownTopology(header.topology.clone()))?;
                let mut cfg = FabricConfig::new(header.devices, topo);
                cfg.mesh = mesh_cfg;
                let sim =
                    FabricSim::with_faults(cfg, plan).map_err(|e| setup("fabric setup", e))?;
                Soak::Fabric(Box::new(sim))
            };
            let outcome = soak.replay_from(reader).map_err(ReplayFailure::Stream)?;
            soak.run_until_quiescent(QUIESCE_BUDGET);
            let line = soak.stats_line().map_err(ReplayFailure::Stats)?;
            (outcome.replayed, outcome.truncated, line)
        }
        TraceKind::Campaign => {
            // No events to drive: CRC-check the (empty) stream, then re-run
            // the campaign from the header.
            let summary = validate_stream(reader).map_err(|e| ReplayFailure::Stream(e.into()))?;
            let device = header.device.clone().unwrap_or_default();
            let probe = LatencyProbe {
                working_set_lines: header.lines as usize,
                samples: header.samples as usize,
            };
            let mut campaign =
                CheckpointedCampaign::new(&device, header.seed, probe, plan.cloned())
                    .map_err(|e| setup("campaign setup", e))?;
            campaign.set_telemetry(telemetry.clone());
            let result = campaign
                .run_to_completion(None)
                .map_err(|e| setup("campaign", e))?;
            let line = trace_digest::campaign_stats_line(&device, &result);
            (summary.events, summary.truncated, line)
        }
    };
    let digest = trace_digest::line_digest(&line);
    let seal = match (truncated, reader.footer().map(|f| f.stats_fnv)) {
        (Some((chunk, offset)), _) => Seal::Truncated { chunk, offset },
        (None, None | Some(0)) => Seal::Unsealed,
        (None, Some(rec)) if rec == digest => Seal::Matches,
        (None, Some(rec)) => Seal::Diverges(rec),
    };
    Ok(ReplayVerdict {
        kind: header.kind,
        events,
        line,
        digest,
        seal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_trace::{TraceHeader, TraceTap};

    /// Records a 50-transfer mesh soak sealed with `seal`, or with its true
    /// digest when `None`, and replays it.
    fn replay_sealed(seal: Option<u64>) -> ReplayVerdict {
        let mut rm = ReliableMesh::with_faults(
            MeshConfig::paper_6x6(ArbiterKind::RoundRobin),
            &FaultPlan::none(),
            RetryConfig::default(),
        )
        .unwrap();
        rm.attach_trace_tap(TraceTap::in_memory(&TraceHeader::mesh(6, 6, 3, 50, 0)));
        submit_mesh_soak(&mut rm, 3, 50);
        assert!(rm.run_until_quiescent(QUIESCE_BUDGET));
        let line = trace_digest::mesh_stats_line(&rm).unwrap();
        let sealed = seal.unwrap_or_else(|| trace_digest::line_digest(&line));
        let bytes = rm.take_trace_tap().unwrap().finish_bytes(sealed).unwrap();
        let mut reader = TraceReader::from_bytes(bytes).unwrap();
        replay(&mut reader, None, &TelemetryHandle::disabled()).unwrap()
    }

    #[test]
    fn seal_follows_the_footer_and_zero_means_unknown() {
        let faithful = replay_sealed(None);
        assert_eq!(faithful.seal, Seal::Matches);
        assert_eq!(faithful.events, 50);
        assert_eq!(replay_sealed(Some(0)).seal, Seal::Unsealed);
        assert_eq!(
            replay_sealed(Some(0xdead_beef)).seal,
            Seal::Diverges(0xdead_beef)
        );
    }

    #[test]
    fn campaign_summary_forms() {
        // No per-SM summaries, so the grand mean is 0.
        let result = LatencyCampaign {
            matrix: vec![vec![100.0, 200.0]],
            sm_summaries: Vec::new(),
            correlation: Vec::new(),
        };
        assert_eq!(
            campaign_summary("v100", &result, false, true),
            "v100: grand mean latency 0 cycles over 1x2 pairs (fault plan applied)"
        );
        assert_eq!(
            campaign_summary("v100", &result, true, false),
            "v100: grand mean latency 0 cycles (degraded campaign)"
        );
    }
}
