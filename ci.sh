#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build+test check.
# Usage: ./ci.sh
set -euo pipefail

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== one source: hash constants only in the hash module =="
# The splitmix64 gamma and the FNV-1a offset basis are defined once, in
# crates/topo/src/hash.rs; either literal anywhere else under crates/*/src
# is a re-forked stream or hash. tests/, crates/*/tests and gnocbench/ keep
# independent reference copies on purpose and are not scanned. Underscore
# digit separators are ignored when matching.
hex_pat() { echo "0x$(echo "$1" | sed 's/./&_*/g')"; }
forks=$(grep -rliE "$(hex_pat 9e3779b97f4a7c15)|$(hex_pat cbf29ce484222325)" \
    crates/*/src --include='*.rs' | grep -vx 'crates/topo/src/hash.rs' || true)
if [ -n "$forks" ]; then
    echo "error: hash constant copied outside crates/topo/src/hash.rs in:" >&2
    echo "$forks" >&2
    exit 1
fi

echo "== tier-1: cargo build --release && cargo test -q (GNOC_JOBS=2) =="
cargo build --release
# GNOC_JOBS=2 routes every env-resolved worker pool through the parallel
# path; all results are asserted bit-identical to serial, so this only
# widens coverage, never changes expectations.
GNOC_JOBS=2 cargo test -q

echo "== gnocbench: every workload's outputs against goldens.json (tiny, one pass) =="
# One pass per workload at the tiny size: run.py checks every simulated
# output digest against gnocbench/goldens.json and exits 1 on a mismatch,
# so a change to what the simulator computes fails here, not only in the
# benchmark. Timing is not judged.
for workload in noc_loaded fault_soak paper_analytic serve_mixed; do
    python3 gnocbench/run.py --workload "$workload" --size tiny --seconds 0 > /dev/null
done

echo "== bench: serial-vs-parallel wall time (BENCH_par.json) =="
cargo run --release -q -p gnoc-bench --bin bench_par -- BENCH_par.json

echo "== bench: cycle-vs-event engine speedup guard (BENCH_noc.json) =="
# The event core must stay bit-identical to cycle-exact stepping (asserted
# inside the bench before any timing is trusted) and at least 3x faster on
# the idle-heavy soak, or the idle-tick fix has regressed.
cargo run --release -q -p gnoc-bench --bin bench_noc -- BENCH_noc.json --min-ratio 3

echo "== profile: trace determinism (same soak twice, --jobs 1 vs 2) =="
# The flight recorder timestamps in virtual cycles only, so the same soak
# must produce byte-identical traces across runs and worker counts. Any
# wall-clock or thread-id leak into the trace fails the gate here.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 1 mesh --profile "$tmp/prof_a.json" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 1 mesh --profile "$tmp/prof_b.json" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 2 mesh --profile "$tmp/prof_c.json" > /dev/null
cmp "$tmp/prof_a.json" "$tmp/prof_b.json"
cmp "$tmp/prof_a.json" "$tmp/prof_c.json"
cmp "$tmp/prof_a.json.trace.json" "$tmp/prof_b.json.trace.json"
cmp "$tmp/prof_a.json.trace.json" "$tmp/prof_c.json.trace.json"

echo "== profile: 4-device ring fabric determinism (--jobs 1 vs 2, cycle vs event) =="
# The mesh and the fabric share one profile path; the fabric's report,
# Perfetto trace, and chaos profile artifacts must be as worker-count- and
# engine-independent as the die's.
fabric_profile() { # <tag> <global flags...>
    local tag=$1
    shift
    cargo run --release -q -p gnoc-cli --bin gnoc -- "$@" \
        profile --devices 4 --topology ring --report "$tmp/fprof_$tag.json" \
        --perfetto "$tmp/fprof_$tag.trace.json" > /dev/null
}
fabric_profile j1 --jobs 1
fabric_profile j2 --jobs 2
fabric_profile cyc --engine cycle
for other in j2 cyc; do
    cmp "$tmp/fprof_j1.json" "$tmp/fprof_$other.json"
    cmp "$tmp/fprof_j1.trace.json" "$tmp/fprof_$other.trace.json"
done
for jobs in 1 2; do
    cargo run --release -q -p gnoc-cli --bin gnoc -- --jobs "$jobs" \
        chaos run --devices 4 --topology ring --seeds 0..3 \
        --report "$tmp/fchaos_j$jobs.report.json" \
        --profile "$tmp/fchaos_j$jobs.json" > /dev/null
done
cmp "$tmp/fchaos_j1.report.json" "$tmp/fchaos_j2.report.json"
cmp "$tmp/fchaos_j1.json" "$tmp/fchaos_j2.json"
cmp "$tmp/fchaos_j1.json.trace.json" "$tmp/fchaos_j2.json.trace.json"

echo "== engine parity: cycle-exact artifacts byte-identical to event =="
# The same soaks forced onto the cycle-exact core (--engine cycle) must
# reproduce the event engine's profile, trace, and chaos artifacts byte for
# byte — the engines differ in wall time only.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --engine cycle mesh --profile "$tmp/prof_cyc.json" > /dev/null
cmp "$tmp/prof_a.json" "$tmp/prof_cyc.json"
cmp "$tmp/prof_a.json.trace.json" "$tmp/prof_cyc.json.trace.json"
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    chaos run --seeds 0..6 --report "$tmp/chaos_evt.json" > /dev/null
GNOC_ENGINE=cycle cargo run --release -q -p gnoc-cli --bin gnoc -- \
    chaos run --seeds 0..6 --report "$tmp/chaos_cyc.json" > /dev/null
cmp "$tmp/chaos_evt.json" "$tmp/chaos_cyc.json"

echo "== profile: bounded gnoc profile smoke on a chaos-style soak =="
# Same traffic recipe the chaos harness soaks with, bounded transfer count;
# exercises the report/trace/JSONL/SVG writers end to end.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    profile --transfers 500 --report "$tmp/smoke.json" \
    --perfetto "$tmp/smoke.trace.json" --jsonl "$tmp/smoke.jsonl" \
    --svg "$tmp/smoke.svg" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    chaos run --seeds 0..3 --profile "$tmp/chaos_prof.json" > /dev/null

echo "== fault suite smoke: plan round-trip + degraded campaign =="
cargo test -q -p gnoc-faults
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    faults gen --out "$tmp/plan.json" --seed 1 --dead-frac 0.02
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    faults check "$tmp/plan.json"
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    campaign a100fs --seed 1 --lines 2 --samples 2 \
    --checkpoint "$tmp/campaign.json"

echo "== trace: record -> replay byte-identity across engines and job counts =="
# A faulted mesh soak is recorded once, then replayed under every worker
# count and both engine cores; each replay's canonical stats line must be
# byte-identical to the recording's (the footer digest seals the same
# bytes, so gnoc also self-checks — a divergence exits 1 before the cmp).
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace record mesh --seed 5 --transfers 800 --faults "$tmp/plan.json" \
    --out "$tmp/mesh.trc" --stats "$tmp/mesh-rec.json" > /dev/null
for jobs in 1 2 7; do
    cargo run --release -q -p gnoc-cli --bin gnoc -- \
        --jobs "$jobs" trace replay "$tmp/mesh.trc" --faults "$tmp/plan.json" \
        --stats "$tmp/mesh-rep-j$jobs.json" > /dev/null
    cmp "$tmp/mesh-rec.json" "$tmp/mesh-rep-j$jobs.json"
done
for engine in cycle event; do
    cargo run --release -q -p gnoc-cli --bin gnoc -- \
        --engine "$engine" trace replay "$tmp/mesh.trc" --faults "$tmp/plan.json" \
        --stats "$tmp/mesh-rep-$engine.json" > /dev/null
    cmp "$tmp/mesh-rec.json" "$tmp/mesh-rep-$engine.json"
done

echo "== trace: 4-device ring fabric and campaign record -> replay =="
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace record fabric --devices 4 --topology ring --seed 9 --transfers 400 \
    --out "$tmp/fabric.trc" --stats "$tmp/fabric-rec.json" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace replay "$tmp/fabric.trc" --stats "$tmp/fabric-rep.json" > /dev/null
cmp "$tmp/fabric-rec.json" "$tmp/fabric-rep.json"
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace record campaign v100 --seed 2 --lines 2 --samples 2 \
    --out "$tmp/camp.trc" --stats "$tmp/camp-rec.json" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace replay "$tmp/camp.trc" --stats "$tmp/camp-rep.json" > /dev/null
cmp "$tmp/camp-rec.json" "$tmp/camp-rep.json"

echo "== trace: record -> kill -> validate -> replay salvage, corrupt -> exit 1 =="
# A writer killed mid-stream leaves a truncated artifact. Simulated by
# cutting the recording short of its footer: validate must warn and call it
# salvageable (exit 0), replay must drive the complete prefix (exit 0).
size=$(wc -c < "$tmp/mesh.trc")
head -c "$((size - 500))" "$tmp/mesh.trc" > "$tmp/mesh-cut.trc"
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace validate "$tmp/mesh-cut.trc" > "$tmp/cut.out" 2>&1
grep -q "truncated" "$tmp/cut.out"
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace replay "$tmp/mesh-cut.trc" --faults "$tmp/plan.json" > /dev/null
# A flipped byte is corruption, not truncation: exit 1, naming the chunk.
cp "$tmp/mesh.trc" "$tmp/mesh-bad.trc"
printf '\xff' | dd of="$tmp/mesh-bad.trc" bs=1 seek="$((size / 2))" \
    conv=notrunc 2> /dev/null
set +e
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace validate "$tmp/mesh-bad.trc" 2> "$tmp/corrupt.err"
corrupt_rc=$?
set -e
[ "$corrupt_rc" -eq 1 ]
grep -q "chunk" "$tmp/corrupt.err"

echo "== chaos: oracle-catches-bugs suite (bug-hooks) =="
cargo test -q -p gnoc-chaos --features bug-hooks

echo "== chaos: bounded soak with replay differential oracle =="
# A violation prints the oracle name plus the shrunk reproducer path and
# exits nonzero, failing the gate. --replay records each iteration's
# traffic and re-drives it through a fresh simulator: any recorded-vs-
# replayed stats divergence is a determinism bug and fires the oracle.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 2 chaos run --replay --seeds 0..12 --wall-ms 120000 \
    --state "$tmp/chaos-state.json" --repro-dir "$tmp/repros"

echo "== chaos: hidden-plan detection soak (fixed seeds, wall deadline) =="
# Plans are applied physically but hidden from routing; the detection
# oracle scores the health layer's detected-vs-ground-truth set. Any miss,
# false quarantine, or late detection prints the oracle name plus the
# shrunk reproducer path and exits nonzero, failing the gate.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 2 chaos run --detect --seeds 0..12 --wall-ms 120000 \
    --state "$tmp/chaos-detect-state.json" --repro-dir "$tmp/repros-detect"

echo "== fabric: bounded multi-GPU chaos soak (fixed seeds, wall deadline) =="
# Cross-device soaks over a 4-device ring compose the fabric with the
# per-die reliable mesh; a delivery/progress/differential/detection
# violation prints the oracle name plus the shrunk reproducer path and
# exits nonzero, failing the gate.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 2 chaos run --seeds 0..12 --devices 4 --topology ring \
    --wall-ms 120000 --state "$tmp/chaos-fabric-state.json" \
    --repro-dir "$tmp/repros-fabric"

echo "== serve: daemon smoke (overload-safe queue, cache, crash recovery) =="
# A daemon under --row-delay-ms so the kill -9 below reliably lands mid-
# campaign; the campaign checkpoint and the fsynced journal must carry the
# job across the crash.
gnoc_bin="target/release/gnoc"
serve_state="$tmp/serve-state"
serve_sock="$tmp/serve.sock"
"$gnoc_bin" serve --state "$serve_state" --socket "$serve_sock" \
    --row-delay-ms 20 > "$tmp/serve1.log" &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.05; done

# Leg (a): the one-shot CLI's output line for the same request.
"$gnoc_bin" campaign v100 --seed 7 --lines 2 --samples 2 \
    | tail -1 > "$tmp/oneshot.txt"

# Kill -9 mid-campaign; the victim client dies with the daemon.
"$gnoc_bin" submit campaign v100 --seed 7 --lines 2 --samples 2 \
    --socket "$serve_sock" > /dev/null 2>&1 &
victim_pid=$!
sleep 0.7
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
wait "$victim_pid" 2>/dev/null || true
ls "$serve_state"/ckpt/*.json > /dev/null  # the checkpoint survived

# Restart: journal replay resumes the campaign; the same request completes
# (leg d) and then hits the cache (leg c). Run the resumed leg at --jobs 2
# and the cached leg at --jobs 1 to cross worker counts too.
rm -f "$serve_sock"
"$gnoc_bin" --jobs 2 serve --state "$serve_state" --socket "$serve_sock" \
    > "$tmp/serve2.log" &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.05; done
"$gnoc_bin" submit campaign v100 --seed 7 --lines 2 --samples 2 \
    --socket "$serve_sock" --payload-out "$tmp/resumed.json" \
    --summary > "$tmp/resumed-summary.txt"
"$gnoc_bin" submit campaign v100 --seed 7 --lines 2 --samples 2 \
    --socket "$serve_sock" --payload-out "$tmp/cached.json" \
    | grep -q '"cached":true'
# A chaos job, a trace replay, and a health snapshot exercise the other
# op paths; the daemon's replay verdict must match the local recording.
"$gnoc_bin" submit chaos --seed-count 2 --transfers 16 \
    --socket "$serve_sock" > /dev/null
"$gnoc_bin" trace record mesh --seed 3 --transfers 200 \
    --out "$tmp/serve.trc" > /dev/null
"$gnoc_bin" submit replay "$tmp/serve.trc" --socket "$serve_sock" --summary \
    > "$tmp/replay-summary.txt"
grep -q "matches the recording" "$tmp/replay-summary.txt"
"$gnoc_bin" submit health --socket "$serve_sock" | grep -q '"overload":"closed"'
"$gnoc_bin" submit shutdown --socket "$serve_sock" > /dev/null
wait "$serve_pid"
grep -q "recovered 1 unfinished job(s) from the journal" "$tmp/serve2.log"

# Leg (b): the same request served cold by a fresh single-worker daemon.
"$gnoc_bin" --jobs 1 serve --state "$tmp/serve-cold" --socket "$serve_sock" \
    > /dev/null &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.05; done
"$gnoc_bin" submit campaign v100 --seed 7 --lines 2 --samples 2 \
    --socket "$serve_sock" --payload-out "$tmp/cold.json" > /dev/null
"$gnoc_bin" submit shutdown --socket "$serve_sock" > /dev/null
wait "$serve_pid"

# The determinism pin: (b) cold, (c) cached, and (d) crash-resumed payloads
# are byte-identical across --jobs 1 and 2, and the payload summary equals
# the one-shot CLI line (a).
cmp "$tmp/cold.json" "$tmp/resumed.json"
cmp "$tmp/cold.json" "$tmp/cached.json"
cmp "$tmp/oneshot.txt" "$tmp/resumed-summary.txt"

echo "== bench: serve cold-vs-cached latency and throughput (BENCH_serve.json) =="
cargo run --release -q -p gnoc-bench --bin bench_serve -- BENCH_serve.json

echo "== bench: detection latency within oracle bounds (BENCH_health.json) =="
cargo run --release -q -p gnoc-bench --bin bench_health -- BENCH_health.json

echo "== bench: flight-recorder overhead A/B/A (BENCH_profile.json) =="
cargo run --release -q -p gnoc-bench --bin bench_profile -- BENCH_profile.json

echo "== bench: cross-device soak latency/retry/failover (BENCH_fabric.json) =="
cargo run --release -q -p gnoc-bench --bin bench_fabric -- BENCH_fabric.json

echo "== bench: trace record overhead A/B/A + corrupt detection (BENCH_trace.json) =="
cargo run --release -q -p gnoc-bench --bin bench_trace -- BENCH_trace.json

echo "== validate: every artifact row carries schema 1 =="
cargo run --release -q -p gnoc-bench --bin validate_bench -- \
    BENCH_par.json BENCH_noc.json BENCH_health.json BENCH_profile.json \
    BENCH_fabric.json BENCH_serve.json BENCH_trace.json \
    "$tmp/prof_a.json" "$tmp/smoke.json" "$tmp/chaos_prof.json"

echo "ci.sh: all green"
