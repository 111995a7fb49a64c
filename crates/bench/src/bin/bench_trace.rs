//! Trace record/replay overhead benchmark (`gnoc-trace`).
//!
//! Three claims from the trace subsystem's design get pinned here:
//!
//! 1. **Recording is cheap.** An A/B/A sandwich runs the paper 6x6 mesh
//!    soak bare (phase A), with a `TraceTap` attached (phase B), then bare
//!    again (phase C). Min-of-K wall times for the two bare phases must
//!    agree within `max(5%, phase-A spread)` — attaching and tearing down
//!    a tap leaves no residual cost — and every phase must produce the
//!    same canonical stats line (the tap is observation-only). The enabled
//!    overhead (B vs A) is reported but not asserted.
//! 2. **Replay is not slower than synthesis.** Replaying the recorded
//!    stream through `replay_from` is compared against regenerating the
//!    same traffic from the seed; both are reported (informational — the
//!    claim is "same order of magnitude", not a strict bound) and both
//!    must land on the recorded stats digest.
//! 3. **Corruption is detected fast.** A bit flipped in the middle of the
//!    trace must be caught by `validate_stream` in well under the time one
//!    replay takes — detection reads and CRCs chunks, it never simulates.
//!
//! Rows `{schema, bench, rep, wall_us}` go to `BENCH_trace.json` (or the
//! path given as the first argument). Only `wall_us` is machine-dependent.

use gnoc_core::soak;
use gnoc_core::trace::{validate_stream, TraceHeader, TraceReader, TraceTap};
use gnoc_core::trace_digest;
use gnoc_core::{ArbiterKind, FaultPlan, MeshConfig, ReliableMesh, RetryConfig};
use std::time::Instant;

/// Reps per phase; min-of-K filters scheduler noise.
const REPS: usize = 5;
/// Floor on the allowed phase-A/phase-C disagreement.
const TOLERANCE: f64 = 0.05;
/// Transfers per soak — big enough to dominate setup cost.
const TRANSFERS: usize = 4000;
const SEED: u64 = 11;

struct Row {
    bench: String,
    rep: usize,
    wall_us: u64,
}

/// One soak; returns (wall_us, canonical stats line, trace bytes if taped).
fn run_soak(tap: bool) -> (u64, String, Option<Vec<u8>>) {
    let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin);
    let plan = FaultPlan::none();
    let start = Instant::now();
    let mut rm =
        ReliableMesh::with_faults(cfg, &plan, RetryConfig::default()).expect("benign mesh builds");
    if tap {
        let header = TraceHeader::mesh(
            cfg.width as u32,
            cfg.height as u32,
            SEED,
            TRANSFERS as u64,
            0,
        );
        rm.attach_trace_tap(TraceTap::in_memory(&header));
    }
    soak::submit_mesh_soak(&mut rm, SEED, TRANSFERS);
    assert!(rm.run_until_quiescent(2_000_000), "soak quiesces");
    let line = trace_digest::mesh_stats_line(&rm).expect("stats serialize");
    let bytes = rm.take_trace_tap().map(|t| {
        t.finish_bytes(trace_digest::line_digest(&line))
            .expect("in-memory finalize")
    });
    (start.elapsed().as_micros() as u64, line, bytes)
}

fn min_of_phase(
    bench: &str,
    tap: bool,
    reference: &mut Option<String>,
    rows: &mut Vec<Row>,
) -> (u64, u64, Option<Vec<u8>>) {
    let mut walls = Vec::with_capacity(REPS);
    let mut trace = None;
    for rep in 0..REPS {
        let (wall_us, line, bytes) = run_soak(tap);
        match reference {
            Some(r) => assert_eq!(*r, line, "the tap perturbed the soak in {bench}"),
            None => *reference = Some(line),
        }
        if bytes.is_some() {
            trace = bytes;
        }
        walls.push(wall_us);
        rows.push(Row {
            bench: bench.to_string(),
            rep,
            wall_us,
        });
    }
    let min = *walls.iter().min().expect("REPS > 0");
    let max = *walls.iter().max().expect("REPS > 0");
    (min, max, trace)
}

/// One replay of `trace`; returns (wall_us, canonical stats line).
fn run_replay(trace: &[u8]) -> (u64, String) {
    let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin);
    let plan = FaultPlan::none();
    let start = Instant::now();
    let mut reader = TraceReader::from_bytes(trace.to_vec()).expect("recorded trace opens");
    let mut rm =
        ReliableMesh::with_faults(cfg, &plan, RetryConfig::default()).expect("benign mesh builds");
    let outcome = rm.replay_from(&mut reader).expect("recorded trace replays");
    assert_eq!(outcome.replayed, TRANSFERS as u64);
    assert!(outcome.truncated.is_none());
    assert!(rm.run_until_quiescent(2_000_000), "replay quiesces");
    let line = trace_digest::mesh_stats_line(&rm).expect("stats serialize");
    (start.elapsed().as_micros() as u64, line)
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_trace.json".to_string());
    let mut rows = Vec::new();
    let mut reference = None;

    // Claim 1: record overhead, A/B/A.
    let (min_a, max_a, _) = min_of_phase("trace_record_off_a", false, &mut reference, &mut rows);
    let (min_b, _, trace) = min_of_phase("trace_record_on_b", true, &mut reference, &mut rows);
    let (min_c, _, _) = min_of_phase("trace_record_off_c", false, &mut reference, &mut rows);
    let trace = trace.expect("phase B recorded a trace");
    let line = reference.clone().expect("phases ran");
    let digest = trace_digest::line_digest(&line);

    let spread_a = (max_a - min_a) as f64 / min_a as f64;
    let drift = (min_c as f64 - min_a as f64).abs() / min_a as f64;
    let enabled = (min_b as f64 - min_a as f64) / min_a as f64;
    println!(
        "tap off   min {min_a} us (phase spread {:.1}%)",
        100.0 * spread_a
    );
    println!(
        "tap on    min {min_b} us ({:+.1}% vs off — informational; {} trace bytes)",
        100.0 * enabled,
        trace.len()
    );
    println!("off again min {min_c} us (drift {:.1}%)", 100.0 * drift);
    let bound = TOLERANCE.max(spread_a);
    assert!(
        drift <= bound,
        "bare-soak wall time drifted {:.1}% across the A/B/A sandwich (bound {:.1}%): \
         the trace tap is not free when absent",
        100.0 * drift,
        100.0 * bound
    );

    // Claim 2: replay vs synthetic wall time.
    let mut replay_walls = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let (wall_us, replay_line) = run_replay(&trace);
        assert_eq!(
            trace_digest::line_digest(&replay_line),
            digest,
            "replay diverged from the recording"
        );
        replay_walls.push(wall_us);
        rows.push(Row {
            bench: "trace_replay".to_string(),
            rep,
            wall_us,
        });
    }
    let min_replay = *replay_walls.iter().min().expect("REPS > 0");
    println!(
        "replay    min {min_replay} us ({:+.1}% vs synthetic — informational)",
        100.0 * (min_replay as f64 - min_a as f64) / min_a as f64
    );

    // Claim 3: corrupt-trace detection latency. Flip one byte mid-stream;
    // detection must cost well under one replay (it only reads and CRCs).
    let mut corrupt = trace.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    let start = Instant::now();
    let detected = match TraceReader::from_bytes(corrupt) {
        Ok(mut r) => validate_stream(&mut r).is_err(),
        Err(_) => true,
    };
    let detect_us = start.elapsed().as_micros() as u64;
    assert!(detected, "a mid-stream bit flip must be detected");
    rows.push(Row {
        bench: "trace_corrupt_detect".to_string(),
        rep: 0,
        wall_us: detect_us,
    });
    println!("corrupt-trace detection: {detect_us} us");
    assert!(
        detect_us < min_replay.max(1),
        "detection ({detect_us} us) must undercut a replay ({min_replay} us)"
    );

    let body = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"schema\": 1, \"bench\": \"{}\", \"rep\": {}, \"wall_us\": {}}}",
                r.bench, r.rep, r.wall_us
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write(&out, format!("[\n{body}\n]\n")).expect("write benchmark artifact");
    println!(
        "wrote {out} (record-off drift within {:.0}%)",
        100.0 * bound
    );
}
