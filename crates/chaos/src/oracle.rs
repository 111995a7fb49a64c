//! The invariant oracles a chaos iteration checks, and the violation record
//! they produce.

use gnoc_core::soak::Soak;
use gnoc_core::{FabricSim, LatencyCampaign, TransferOutcome};
use serde::{Deserialize, Serialize};

/// Which invariant a chaos iteration checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OracleKind {
    /// Every submitted transfer is delivered exactly once or reported lost
    /// with a reason; the accounting always balances.
    Delivery,
    /// The network quiesces within the virtual-cycle budget and the
    /// deadlock watchdog never trips.
    Progress,
    /// Campaign grand means stay inside the calibrated per-preset band on
    /// plans that leave the device untouched.
    Calibration,
    /// Kill/resume through a checkpoint is bit-identical to the
    /// uninterrupted run.
    Resume,
    /// A faulted campaign agrees with the golden campaign on every
    /// untouched (SM, slice) pair.
    Differential,
    /// No code path panics; typed errors are the contract.
    NoPanic,
    /// Hidden-plan self-healing: with the fault plan concealed from the
    /// device under test, the health layer must detect every dead link and
    /// faulty slice (recall), blame nothing healthy (precision), and do so
    /// within a bounded latency after each fault's onset.
    Detection,
    /// Recorded-vs-replayed equality: the iteration's submission stream is
    /// captured to an in-memory trace and replayed into an identically
    /// configured twin; any divergence in outcomes or stats means record/
    /// replay is not deterministic.
    Replay,
}

impl OracleKind {
    /// Every oracle, in reporting order.
    pub const ALL: [Self; 8] = [
        Self::Delivery,
        Self::Progress,
        Self::Calibration,
        Self::Resume,
        Self::Differential,
        Self::NoPanic,
        Self::Detection,
        Self::Replay,
    ];

    /// Stable lowercase name (used in reports, metrics, and file names).
    pub fn name(self) -> &'static str {
        match self {
            Self::Delivery => "delivery",
            Self::Progress => "progress",
            Self::Calibration => "calibration",
            Self::Resume => "resume",
            Self::Differential => "differential",
            Self::NoPanic => "no-panic",
            Self::Detection => "detection",
            Self::Replay => "replay",
        }
    }
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One invariant violation observed during an iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The oracle that fired.
    pub oracle: OracleKind,
    /// The iteration seed it fired on.
    pub seed: u64,
    /// Human-readable specifics (counts, means, first mismatching cell).
    pub detail: String,
}

/// Checks the exactly-once-or-reported-lost delivery accounting: every
/// transfer submitted to the die (or, across devices, to the fabric) is
/// delivered exactly once or reported lost with a reason, and the outcome
/// list agrees with the aggregate counters.
pub(crate) fn check_delivery(
    expected_submitted: u64,
    quiesced: bool,
    soak: &Soak,
) -> Result<(), String> {
    let submitted = soak.submitted();
    if submitted != expected_submitted {
        return Err(format!(
            "submitted accounting off: stats say {submitted} but {expected_submitted} were submitted"
        ));
    }
    let mut delivered = 0u64;
    let mut lost = 0u64;
    let mut unresolved = 0u64;
    for o in soak.outcomes() {
        match o {
            TransferOutcome::Delivered { .. } => delivered += 1,
            TransferOutcome::Lost { .. } => lost += 1,
            TransferOutcome::Pending | TransferOutcome::InFlight => unresolved += 1,
        }
    }
    if delivered != soak.delivered() || lost != soak.lost() {
        return Err(format!(
            "outcome/stats disagree: outcomes say {delivered} delivered + {lost} lost, \
             stats say {} delivered + {} lost",
            soak.delivered(),
            soak.lost()
        ));
    }
    if delivered + lost + unresolved != expected_submitted {
        return Err(format!(
            "transfers unaccounted for: {delivered} delivered + {lost} lost + \
             {unresolved} unresolved != {expected_submitted} submitted"
        ));
    }
    if quiesced && unresolved != 0 {
        return Err(format!(
            "{unresolved} transfers neither delivered nor reported lost after quiescence"
        ));
    }
    Ok(())
}

/// Checks deadlock/livelock freedom: the run must quiesce within its budget
/// and no watchdog may write transfers off. Stalls and retries are bounded
/// (stall durations, retry timeouts, and the fabric's 64 crossing attempts
/// x 16-cycle backoff are orders of magnitude below the watchdog window),
/// so a trip on correct routing is impossible — it means packets are
/// holding buffers in a cycle, or the fabric stopped making progress.
pub(crate) fn check_progress(quiesced: bool, soak: &Soak) -> Result<(), String> {
    match soak {
        Soak::Mesh(rm) if rm.watchdog_tripped() => {
            let stats = rm.stats();
            return Err(format!(
                "watchdog tripped {} time(s), writing off {} transfer(s): the network \
                 stopped making progress",
                stats.watchdog_trips, stats.lost_watchdog
            ));
        }
        Soak::Fabric(sim) if sim.stats().lost_watchdog > 0 => {
            return Err(format!(
                "watchdog wrote off {} transfer(s): the fabric stopped making progress",
                sim.stats().lost_watchdog
            ));
        }
        _ => {}
    }
    if !quiesced {
        return Err(format!(
            "{} transfer(s) still unresolved when the virtual-cycle budget ran out",
            soak.outstanding()
        ));
    }
    Ok(())
}

/// Checks faulted-vs-golden agreement for a fabric iteration. The golden
/// run (same config, same traffic, empty fault plan) must deliver every
/// transfer — a fault-free fabric that loses packets is broken regardless
/// of what the faulted run did. And when the generated plan is benign, the
/// faulted run must reproduce the golden one bit for bit (outcomes and
/// stats), because nothing distinguishes the two simulations.
pub(crate) fn check_fabric_differential(
    plan_benign: bool,
    golden: &FabricSim,
    faulted: &FabricSim,
) -> Result<(), String> {
    let g = golden.stats();
    if g.delivered != g.submitted {
        return Err(format!(
            "golden fabric run lost {} of {} transfers without any faults",
            g.submitted - g.delivered,
            g.submitted
        ));
    }
    if plan_benign {
        let (go, fo) = (golden.outcomes(), faulted.outcomes());
        if go != fo {
            let first = go
                .iter()
                .zip(&fo)
                .position(|(a, b)| a != b)
                .map_or("length".to_string(), |i| format!("transfer {i}"));
            return Err(format!(
                "benign plan diverged from golden: first difference at {first}"
            ));
        }
        if g != faulted.stats() {
            return Err("benign plan diverged from golden: stats differ".to_string());
        }
    }
    Ok(())
}

/// Checks the calibrated grand-mean band for `device`, when one is pinned.
/// Returns `Ok(false)` when the preset has no pinned band (nothing ran).
pub(crate) fn check_calibration(device: &str, campaign: &LatencyCampaign) -> Result<bool, String> {
    let Some((lo, hi)) = crate::config::band_for_preset(device) else {
        return Ok(false);
    };
    let mean = campaign.grand_mean();
    if !(lo..hi).contains(&mean) {
        return Err(format!(
            "{device} grand mean {mean:.2} left the calibrated band [{lo}, {hi})"
        ));
    }
    Ok(true)
}

/// Checks that the kill/resume campaign reproduced the uninterrupted one
/// bit for bit.
pub(crate) fn check_resume(
    straight: &LatencyCampaign,
    resumed: &LatencyCampaign,
) -> Result<(), String> {
    if straight == resumed {
        return Ok(());
    }
    Err(first_matrix_diff(&straight.matrix, &resumed.matrix)
        .unwrap_or_else(|| "summaries differ despite identical matrices".to_string()))
}

/// Checks faulted-vs-golden agreement. When the plan leaves the device
/// untouched (`device_untouched`), every (SM, slice) pair is untouched and
/// the matrices must be bit-identical. Otherwise (disabled slices change
/// the matrix geometry and column identity) the check is structural: same
/// row count as measured, finite positive latencies, and a grand mean
/// within a factor of two of golden.
pub(crate) fn check_differential(
    device_untouched: bool,
    golden: &LatencyCampaign,
    faulted: &LatencyCampaign,
) -> Result<(), String> {
    if device_untouched {
        if golden.matrix == faulted.matrix {
            return Ok(());
        }
        return Err(first_matrix_diff(&golden.matrix, &faulted.matrix)
            .unwrap_or_else(|| "matrices differ".to_string()));
    }
    if faulted.matrix.is_empty() {
        return Err("faulted campaign produced an empty matrix".to_string());
    }
    for (sm, row) in faulted.matrix.iter().enumerate() {
        if row.is_empty() {
            return Err(format!("faulted campaign row {sm} is empty"));
        }
        if let Some(bad) = row.iter().find(|v| !v.is_finite() || **v <= 0.0) {
            return Err(format!(
                "faulted campaign row {sm} holds a non-physical latency {bad}"
            ));
        }
    }
    let (g, f) = (golden.grand_mean(), faulted.grand_mean());
    if f < 0.5 * g || f > 2.0 * g {
        return Err(format!(
            "faulted grand mean {f:.2} implausibly far from golden {g:.2}"
        ));
    }
    Ok(())
}

/// The first cell where two matrices differ, rendered for a violation
/// detail; `None` when they are equal.
fn first_matrix_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("row counts differ: {} vs {}", a.len(), b.len()));
    }
    for (sm, (ra, rb)) in a.iter().zip(b).enumerate() {
        if ra.len() != rb.len() {
            return Some(format!(
                "row {sm} widths differ: {} vs {}",
                ra.len(),
                rb.len()
            ));
        }
        for (slice, (va, vb)) in ra.iter().zip(rb).enumerate() {
            if va != vb {
                return Some(format!(
                    "first divergence at (sm {sm}, slice {slice}): {va} vs {vb}"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_names_are_stable_and_distinct() {
        let names: Vec<&str> = OracleKind::ALL.iter().map(|k| k.name()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(OracleKind::Progress.to_string(), "progress");
    }

    #[test]
    fn matrix_diff_pinpoints_the_first_divergent_cell() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let mut b = a.clone();
        b[1][0] = 9.0;
        let msg = first_matrix_diff(&a, &b).unwrap();
        assert!(msg.contains("sm 1"), "{msg}");
        assert!(msg.contains("slice 0"), "{msg}");
        assert!(first_matrix_diff(&a, &a).is_none());
    }
}
