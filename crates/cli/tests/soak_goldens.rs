//! Byte-identity pins for the soak paths the mesh and the multi-device
//! fabric share: profiles, trace recordings, chaos replay and profile
//! artifacts, and a chaos reproducer's embedded traffic trace. Each artifact
//! is reduced to an FNV-1a 64 digest and compared with the value captured
//! before the mesh and fabric soak code was merged into one path, so any
//! drift in what those paths write fails here.
//!
//! The file also pins the replay driver's refusal text for crafted traces
//! and checks that a chaos reproducer's embedded trace replays through
//! `gnoc trace replay` and the daemon's `replay` job.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use gnoc_chaos::{run_chaos, ChaosConfig, ChaosOptions, Reproducer};
use gnoc_core::faults::{Direction, LinkFault, LinkFaultKind};
use gnoc_core::telemetry::TelemetryHandle;
use gnoc_core::trace::{fnv1a64, from_hex, TraceEvent, TraceHeader, TraceTap};
use gnoc_core::FaultPlan;

/// A fresh per-test scratch directory.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnoc-goldens-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_gnoc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gnoc"))
        .args(args)
        .output()
        .expect("spawn gnoc")
}

/// Runs `gnoc` and returns its stdout with `dir` replaced by `<dir>`, so
/// printed artifact paths do not depend on the scratch location.
fn gnoc_ok(dir: &Path, args: &[&str]) -> String {
    let out = run_gnoc(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "gnoc {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).replace(dir.to_str().unwrap(), "<dir>")
}

fn file_digest(path: &Path) -> u64 {
    fnv1a64(&std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

/// The bytes of a trace stream before its footer chunk. A stream is an
/// 8-byte magic and a 4-byte schema, then `[type u8][len u32][crc u32]
/// [payload]` chunks; type 3 is the footer.
fn before_footer(bytes: &[u8]) -> &[u8] {
    let mut at = 12;
    while at < bytes.len() {
        if bytes[at] == 3 {
            return &bytes[..at];
        }
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        at += 9 + len;
    }
    panic!("trace has no footer chunk");
}

/// A plan with two dead links and a flaky one on the paper 6x6 mesh.
fn mesh_plan() -> FaultPlan {
    let mut plan = FaultPlan::none();
    for (router, dir, kind, onset) in [
        (7, Direction::East, LinkFaultKind::Dead, 0),
        (20, Direction::North, LinkFaultKind::Dead, 300),
        (
            14,
            Direction::West,
            LinkFaultKind::Flaky { drop_prob: 0.2 },
            0,
        ),
    ] {
        plan.links.push(LinkFault {
            router,
            dir,
            kind,
            onset,
        });
    }
    plan
}

/// Chaos seed 223 under the default config with detection on: a known
/// detection violation. Returns its unshrunk reproducer, written and loaded
/// through the library.
fn seed_223_reproducer(dir: &Path) -> Reproducer {
    let cfg = ChaosConfig {
        detection: true,
        ..ChaosConfig::default()
    };
    let opts = ChaosOptions {
        seeds: vec![223],
        shrink: false,
        repro_dir: Some(dir.to_path_buf()),
        jobs: 1,
        ..ChaosOptions::default()
    };
    let run = run_chaos(&cfg, &opts, &TelemetryHandle::disabled()).unwrap();
    let rec = run
        .report
        .violations
        .first()
        .expect("seed 223 violates the detection oracle");
    Reproducer::load(Path::new(rec.reproducer.as_ref().unwrap())).unwrap()
}

#[test]
fn soak_artifacts_match_their_goldens() {
    let dir = scratch_dir("artifacts");
    let d = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let mut got: Vec<(&str, u64)> = Vec::new();

    // gnoc profile: single die and a 4-device ring.
    for (label, extra) in [
        ("profile", &[][..]),
        (
            "profile ring",
            &["--devices", "4", "--topology", "ring"][..],
        ),
    ] {
        let (report, perfetto) = (d("profile.json"), d("profile.trace.json"));
        let mut args = vec![
            "profile",
            "--transfers",
            "300",
            "--report",
            &report,
            "--perfetto",
            &perfetto,
        ];
        args.extend_from_slice(extra);
        let stdout = gnoc_ok(&dir, &args);
        got.push((label, fnv1a64(stdout.as_bytes())));
        got.push((label, file_digest(Path::new(&report))));
        got.push((label, file_digest(Path::new(&perfetto))));
    }

    // gnoc trace record: a faulted mesh and a 4-device ring fabric.
    let plan = d("plan.json");
    mesh_plan().save(Path::new(&plan)).unwrap();
    let (trc, stats) = (d("mesh.trc"), d("mesh-stats.json"));
    let stdout = gnoc_ok(
        &dir,
        &[
            "--faults",
            &plan,
            "trace",
            "record",
            "mesh",
            "--seed",
            "5",
            "--transfers",
            "800",
            "--out",
            &trc,
            "--stats",
            &stats,
        ],
    );
    got.push(("record mesh", fnv1a64(stdout.as_bytes())));
    got.push(("record mesh", file_digest(Path::new(&trc))));
    got.push(("record mesh", file_digest(Path::new(&stats))));
    let (trc, stats) = (d("fabric.trc"), d("fabric-stats.json"));
    let stdout = gnoc_ok(
        &dir,
        &[
            "trace",
            "record",
            "fabric",
            "--devices",
            "4",
            "--topology",
            "ring",
            "--seed",
            "9",
            "--transfers",
            "400",
            "--out",
            &trc,
            "--stats",
            &stats,
        ],
    );
    got.push(("record fabric", fnv1a64(stdout.as_bytes())));
    got.push(("record fabric", file_digest(Path::new(&trc))));
    got.push(("record fabric", file_digest(Path::new(&stats))));

    // gnoc chaos run --replay: die seeds 0..6, 4-device ring seeds 0..4.
    for (label, extra) in [
        ("chaos replay", &["--seeds", "0..6"][..]),
        (
            "chaos replay ring",
            &["--seeds", "0..4", "--devices", "4", "--topology", "ring"][..],
        ),
    ] {
        let report = d("chaos-report.json");
        let mut args = vec!["chaos", "run", "--replay", "--report", &report];
        args.extend_from_slice(extra);
        gnoc_ok(&dir, &args);
        got.push((label, file_digest(Path::new(&report))));
    }

    // gnoc chaos run --profile: die and ring, seeds 0..3.
    for (label, extra) in [
        ("chaos profile", &[][..]),
        (
            "chaos profile ring",
            &["--devices", "4", "--topology", "ring"][..],
        ),
    ] {
        let profile = d("chaos-profile.json");
        let mut args = vec!["chaos", "run", "--seeds", "0..3", "--profile", &profile];
        args.extend_from_slice(extra);
        gnoc_ok(&dir, &args);
        got.push((label, file_digest(Path::new(&profile))));
        got.push((
            label,
            file_digest(Path::new(&format!("{profile}.trace.json"))),
        ));
    }

    // The seed-223 reproducer's traffic trace, up to its footer chunk.
    let repro = seed_223_reproducer(&dir.join("repros"));
    let bytes = from_hex(repro.traffic_trace.as_ref().unwrap()).unwrap();
    got.push(("repro 223 trace", fnv1a64(before_footer(&bytes))));

    let expected: &[(&str, u64)] = &[
        ("profile", 0xd4e63ddd36e0bf6a),
        ("profile", 0x09a5f9e6cc9aa030),
        ("profile", 0x7ae8cb2fc3447a37),
        ("profile ring", 0xf794059fa960e56e),
        ("profile ring", 0x52d48241efca7b00),
        ("profile ring", 0x35cb8dc242a8de41),
        ("record mesh", 0xac050b1dac1a0cb6),
        ("record mesh", 0x241fe8d60c748692),
        ("record mesh", 0xe8d04766d05226ee),
        ("record fabric", 0x73226240f5231b38),
        ("record fabric", 0xc230166f0c2b0baa),
        ("record fabric", 0x6102c609439fd69e),
        ("chaos replay", 0xe808c15e0aea06d7),
        ("chaos replay ring", 0xc07e09297076a6dd),
        ("chaos profile", 0x3ca8402592574485),
        ("chaos profile", 0xbe4435a1b8f440aa),
        ("chaos profile ring", 0xef3e0835863b7a67),
        ("chaos profile ring", 0x18fc90c6e0751e25),
        ("repro 223 trace", 0x82c3ce64ca891bf1),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    let listing: String = got
        .iter()
        .map(|(label, digest)| format!("        ({label:?}, 0x{digest:016x}),\n"))
        .collect();
    assert_eq!(got, expected, "actual digests:\n{listing}");
}

/// A CRC-valid trace under `header`: one in-range event, then `bad`.
fn crafted_trace(path: &Path, header: &TraceHeader, bad: TraceEvent) {
    let mut tap = TraceTap::to_file(path, header).unwrap();
    tap.record(&TraceEvent {
        cycle: 0,
        src_dev: 0,
        src: 0,
        dst_dev: 0,
        dst: 7,
        flits: 1,
        class: 0,
    });
    tap.record(&bad);
    tap.finish_file(0).unwrap();
}

#[test]
fn replay_refuses_crafted_events_with_pinned_messages() {
    let dir = scratch_dir("crafted");
    let event = TraceEvent {
        cycle: 3,
        src_dev: 0,
        src: 2,
        dst_dev: 0,
        dst: 9,
        flits: 2,
        class: 0,
    };
    let mesh = TraceHeader::mesh(6, 6, 1, 2, 0);
    let ring = TraceHeader::fabric(4, "ring", 6, 6, 1, 2, 0);
    // An unknown class code never reaches a simulator: the codec refuses
    // it while decoding the chunk, so it is corruption (exit 1), not a
    // misfit event (exit 2).
    let cases: [(&str, &TraceHeader, TraceEvent, i32, &str); 6] = [
        (
            "mesh-class",
            &mesh,
            TraceEvent { class: 9, ..event },
            1,
            "error: corrupt trace: chunk 1 at byte offset 92: packet class 9 out of range\n",
        ),
        (
            "mesh-device",
            &mesh,
            TraceEvent { src_dev: 1, ..event },
            2,
            "error: trace event 1 cannot be replayed: mesh replay saw device (1, 0) — a fabric trace?\n",
        ),
        (
            "mesh-node",
            &mesh,
            TraceEvent { dst: 36, ..event },
            2,
            "error: trace event 1 cannot be replayed: node 36 out of range (36 terminals)\n",
        ),
        (
            "fabric-class",
            &ring,
            TraceEvent { class: 9, ..event },
            1,
            "error: corrupt trace: chunk 1 at byte offset 96: packet class 9 out of range\n",
        ),
        (
            "fabric-device",
            &ring,
            TraceEvent { dst_dev: 4, ..event },
            2,
            "error: trace event 1 cannot be replayed: device 4 out of range (fabric has 4)\n",
        ),
        (
            "fabric-node",
            &ring,
            TraceEvent { src: 36, ..event },
            2,
            "error: trace event 1 cannot be replayed: node 36 out of range (36 terminals)\n",
        ),
    ];
    for (name, header, bad, code, message) in cases {
        let path = dir.join(format!("{name}.trc"));
        crafted_trace(&path, header, bad);
        let out = run_gnoc(&["trace", "replay", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(code), "{name}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), message, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_reproducer_trace_replays_in_cli_and_daemon() {
    let dir = scratch_dir("repro");
    let repro = seed_223_reproducer(&dir);
    let hex = repro
        .traffic_trace
        .clone()
        .expect("reproducer embeds a trace");
    let trace = dir.join("repro.trc");
    std::fs::write(&trace, from_hex(&hex).unwrap()).unwrap();
    let plan = dir.join("plan.json");
    repro.plan.save(&plan).unwrap();

    let out = run_gnoc(&[
        "--faults",
        plan.to_str().unwrap(),
        "trace",
        "replay",
        trace.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("matches the recording"), "{stdout}");

    let spec = gnoc_serve::JobSpec::Replay {
        trace_hex: hex,
        plan: Some(repro.plan.clone()),
    };
    let outcome = gnoc_serve::run::execute(&spec, &dir.join("ckpt.json"), 0);
    let payload = outcome.result.expect("daemon replays the reproducer trace");
    assert!(payload.contains("\"complete\":true"), "{payload}");

    // A version-1 reproducer sealed a chaos-only fingerprint instead: it is
    // refused as a version mismatch, not replayed into a false violation.
    let v1 = dir.join("repro-v1.json");
    Reproducer {
        version: 1,
        ..repro
    }
    .save(&v1)
    .unwrap();
    let out = run_gnoc(&["chaos", "replay", "--repro", v1.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}
