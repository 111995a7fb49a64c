#!/usr/bin/env python3
"""The gnoc benchmark: one command, four workloads.

Run from the root of a gnoc source tree:

    python3 gnocbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: noc_loaded, fault_soak, paper_analytic, serve_mixed (see
gnocbench/README.md). The script builds the harness in gnocbench/harness
(a Cargo package of its own, path-dependent on the workspace crates) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload in its own
process with the worker count and engine pinned, and prints every metric by
name and unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics of
a separate traced run with --trace 1. The full results, with provenance
(nproc, git revision, rustc version, seed), are written to
$CARGO_TARGET_DIR/gnocbench/.

Exit codes: 0 when every correctness check passed, 1 when a check failed or
the build or run did not complete, 2 when the source tree is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ["noc_loaded", "fault_soak", "paper_analytic", "serve_mixed"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160


def log(msg):
    print(f"gnocbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(env):
    """Builds the harness; returns the binary path or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build did not complete: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "gnocbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--goldens", default=os.path.join(HERE, "goldens.json"))
    p.add_argument("--write-goldens", action="store_true")
    args = p.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates"))):
        log(f"no gnoc source tree at {ROOT} (Cargo.toml and crates/ are required)")
        return 2

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target_dir()
    binary = build(env)
    if binary is None:
        return 1

    # Pin everything ambient that could change a number: worker count and
    # engine come from the command line, temp files stay in the checkout.
    out_dir = os.path.join(env["CARGO_TARGET_DIR"], "gnocbench")
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    for var in ("GNOC_JOBS", "GNOC_ENGINE"):
        env.pop(var, None)
    env["TMPDIR"] = tmp
    jobs = nproc()
    # Pin glibc's heap layout so peak memory does not depend on thread
    # timing: one arena per worker plus the main thread, and a fixed mmap
    # threshold (glibc's initial 128 KiB, without its dynamic raise after
    # the first large free). With the defaults, fault_soak's peak memory was
    # bimodal between identical runs (23 or 27-31 MB); wall time is unchanged.
    env["MALLOC_ARENA_MAX"] = str(jobs + 1)
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    result_path = os.path.join(out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--jobs", str(jobs),
        "--out", result_path,
        "--goldens", args.goldens,
    ]
    if args.write_goldens:
        cmd.append("--write-goldens")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stdout, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.flush()
    if not os.path.exists(result_path):
        log(f"harness exited with code {done.returncode} and wrote no results")
        return 1
    with open(result_path) as f:
        result = json.load(f)

    result["provenance"] = {
        "nproc": jobs,
        "git_head": command_output(["git", "rev-parse", "HEAD"]),
        "rustc": command_output(["rustc", "-V"]),
        "seed": args.seed,
        "workload": args.workload,
    }
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1)
    print(f"  provenance: nproc={jobs} git={result['provenance']['git_head']} "
          f"rustc={result['provenance']['rustc']!r} results={os.path.relpath(result_path, ROOT)}")

    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
