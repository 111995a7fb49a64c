//! gnocbench: the gnoc benchmark harness.
//!
//! Runs one named workload for a fixed measuring time, checks every
//! simulated output, and writes the workload's end-to-end metrics (or, with
//! `--trace 1`, its per-layer metrics) to a JSON results file. Inputs are
//! generated from `--seed`; the simulator only ever sees generated inputs.
//!
//! ```text
//! gnocbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --out <results.json> [--size full|tiny] [--jobs <n>]
//!           [--goldens <file>] [--write-goldens]
//! ```
//!
//! Exit codes: 0 when every check passed, 1 when a check failed (the
//! results file is still written), 2 on bad arguments.

mod fault_soak;
mod noc_loaded;
mod paper_analytic;
mod serve_mixed;
mod spans;

use serde_json::Value;
use spans::{median, quantile, Span};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload size: `full` is what the benchmark measures, `tiny` is the
/// same code on inputs small enough for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// `full` for the measured size, `tiny` otherwise.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }

    fn name(self) -> &'static str {
        self.pick("full", "tiny")
    }
}

/// What a workload needs to run one repetition.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub size: Size,
    /// Worker count of the untraced run (the traced run is serial).
    pub jobs: usize,
    /// Scratch directory inside the benchmark's output directory.
    pub scratch: PathBuf,
    /// Reference payloads computed once per run, outside any timed region.
    pub refs: BTreeMap<String, String>,
}

/// One repetition of a workload's fixed work.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds spent generating inputs and building the system.
    pub setup_s: f64,
    /// Host seconds of the fixed work.
    pub wall_s: f64,
    /// Host latency of each operation (scenario, chaos range, kernel or
    /// request), in milliseconds.
    pub ops_ms: Vec<f64>,
    /// FNV-1a digests of the simulated outputs.
    pub digests: BTreeMap<String, u64>,
    /// Simulated counts and values that must repeat exactly.
    pub counts: BTreeMap<String, f64>,
    /// Operations checked in this repetition.
    pub attempted: u64,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// Workload-specific readings (flits, request latencies, model error).
    pub extra: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced repetitions only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Recorded spans (traced repetitions only).
    pub spans: Vec<Span>,
}

impl Rep {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn digest(&mut self, name: impl Into<String>, line: &str) {
        self.digests
            .insert(name.into(), gnoc_core::trace_digest::line_digest(line));
    }

    pub fn count(&mut self, name: impl Into<String>, v: impl Into<f64>) {
        self.counts.insert(name.into(), v.into());
    }
}

/// Deterministic splitmix64 stream: the benchmark's only source of input
/// randomness, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub const WORKLOADS: [&str; 4] = ["noc_loaded", "fault_soak", "paper_analytic", "serve_mixed"];

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced run. A layer that does not run in a
/// workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("noc.step_s", "s"),
    ("noc.ns_per_cycle", "ns"),
    ("noc.ns_per_flit", "ns"),
    ("noc.cycles", "cycles"),
    ("noc.flits_delivered", "flits"),
    ("noc.latency_cycles_mean", "cycles"),
    ("noc.latency_cycles_p99", "cycles"),
    ("noc.inject_refused_ratio", "ratio"),
    ("noc.retries", "count"),
    ("noc.retry_ratio", "ratio"),
    ("fabric.run_s", "s"),
    ("fabric.ns_per_cycle", "ns"),
    ("fabric.hops", "count"),
    ("fabric.crossing_retries", "count"),
    ("fabric.latency_cycles_mean", "cycles"),
    ("health.detect_s", "s"),
    ("health.s_per_window", "s"),
    ("health.windows", "count"),
    ("health.detections", "count"),
    ("faults.plan_s", "s"),
    ("telemetry.recorded_run_s", "s"),
    ("telemetry.recorder_overhead_ratio", "ratio"),
    ("trace.record_overhead_ratio", "ratio"),
    ("trace.replay_s", "s"),
    ("trace.validate_s", "s"),
    ("trace.events", "count"),
    ("trace.bytes_per_event", "bytes"),
    ("engine.l2_accesses", "count"),
    ("engine.ns_per_access", "ns"),
    ("engine.solve_s", "s"),
    ("engine.solve_calls", "count"),
    ("microbench.bandwidth_s", "s"),
    ("sidechannel.aes_s", "s"),
    ("sidechannel.rsa_s", "s"),
    ("sidechannel.us_per_sample", "us"),
    ("workloads.replay_s", "s"),
    ("core.campaign_s", "s"),
    ("core.row_ms_p50", "ms"),
    ("core.row_ms_p90", "ms"),
    ("par.efficiency", "ratio"),
    ("chaos.iteration_ms_p50", "ms"),
    ("chaos.iteration_ms_p90", "ms"),
    ("chaos.violations", "count"),
    ("serve.admit_us_p50", "us"),
    ("serve.admit_us_p99", "us"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_depth_mean", "count"),
    ("serve.rejected", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Workload-specific end-to-end readings, printed by name but not part of
/// the end-to-end metric set (they do not exist on every workload).
pub const EXTRA_UNITS: [(&str, &str); 10] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("flits_per_s", "flits/s"),
    ("req_ms_p50", "ms"),
    ("req_ms_p99", "ms"),
    ("req_slo_miss_ratio", "ratio"),
    ("paper_err_pct", "%"),
    ("fail_ratio", "ratio"),
    ("requests", "count"),
    ("ops", "count"),
];

fn run_rep(workload: &str, ctx: &mut Ctx, traced: bool) -> Rep {
    match workload {
        "noc_loaded" => noc_loaded::rep(ctx, traced),
        "fault_soak" => fault_soak::rep(ctx, traced),
        "paper_analytic" => paper_analytic::rep(ctx, traced),
        "serve_mixed" => serve_mixed::rep(ctx, traced),
        other => unreachable!("workload {other} was validated"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    size: Size,
    jobs: usize,
    goldens: Option<PathBuf>,
    write_goldens: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("gnocbench-result.json"),
        size: Size::Full,
        jobs: 0,
        goldens: None,
        write_goldens: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-goldens" {
            args.write_goldens = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--out" => args.out = PathBuf::from(value),
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad(&"expected full or tiny")),
                }
            }
            "--jobs" => args.jobs = value.parse().map_err(|e| bad(&e))?,
            "--goldens" => args.goldens = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.jobs == 0 {
        args.jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    Ok(args)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap pages to the OS, then resets this process's peak
/// resident set (VmHWM) to its current one, so the next reading is one
/// repetition's own peak rather than the heap the allocator kept from
/// earlier repetitions.
fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim takes no pointers and only releases free
    // heap pages; it may be called at any time from any thread.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Compares `b`'s digests and counts with `a`'s wherever both have a
/// value, recording each comparison on `into`.
fn cross_check(label: &str, a: &Rep, b: &Rep, into: &mut Rep) {
    let mut compared = 0;
    for (k, va) in &a.digests {
        if let Some(vb) = b.digests.get(k) {
            compared += 1;
            into.check(va == vb, || {
                format!("{label}: digest {k} differs ({va:016x} vs {vb:016x})")
            });
        }
    }
    for (k, va) in &a.counts {
        if let Some(vb) = b.counts.get(k) {
            compared += 1;
            into.check(va.to_bits() == vb.to_bits(), || {
                format!("{label}: count {k} differs ({va} vs {vb})")
            });
        }
    }
    into.check(compared > 0, || format!("{label}: nothing to compare"));
}

fn golden_key(workload: &str, size: Size, seed: u64) -> String {
    format!("{workload}/{}/{seed}", size.name())
}

type Goldens = BTreeMap<String, BTreeMap<String, String>>;

fn load_goldens(path: &PathBuf) -> Result<Goldens, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn save_goldens(path: &PathBuf, goldens: &Goldens) {
    let text = serde_json::to_string_pretty(goldens).expect("goldens serialize");
    std::fs::write(path, text + "\n").expect("goldens file is writable");
}

/// `{"value": v, "unit": u}`, plus `"samples": n` when given.
fn metric_json(value: f64, unit: &str, samples: Option<usize>) -> Value {
    let mut fields = vec![
        ("value".to_string(), Value::F64(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ];
    if let Some(n) = samples {
        fields.push(("samples".to_string(), Value::U64(n as u64)));
    }
    Value::Object(fields)
}

fn numbers_json(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::F64(x)).collect())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gnocbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the engine: an ambient GNOC_ENGINE must not change a number.
    gnoc_core::noc::set_event_skip_enabled(true);

    let out_dir = args
        .out
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let scratch = out_dir.join(format!("scratch-{}", args.workload));
    std::fs::create_dir_all(&scratch).expect("scratch directory is creatable");
    let mut ctx = Ctx {
        seed: args.seed,
        size: args.size,
        jobs: args.jobs,
        scratch,
        refs: BTreeMap::new(),
    };

    // Repetitions until the measuring time is spent. The untraced run
    // repeats the workload; the traced run alternates untraced and traced
    // repetitions so both see the same machine state.
    let budget = Duration::from_secs_f64(args.seconds);
    let min_reps = if args.trace { 2 } else { 3 };
    let started = Instant::now();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut rss: Vec<f64> = Vec::new();
    loop {
        reset_peak_rss();
        untraced.push(run_rep(&args.workload, &mut ctx, false));
        rss.push(peak_rss_mb());
        if args.trace {
            traced.push(run_rep(&args.workload, &mut ctx, true));
        }
        let reps = untraced.len() + traced.len();
        if reps >= min_reps && started.elapsed() >= budget {
            break;
        }
    }

    // Correctness: every repetition must reproduce the first one's outputs,
    // the traced (serial) run must agree with the untraced one, and the
    // default-size outputs must match the stored goldens.
    let mut gate = Rep::default();
    let first = &untraced[0];
    for (i, r) in untraced.iter().enumerate().skip(1) {
        cross_check(&format!("untraced rep {i} vs rep 0"), first, r, &mut gate);
    }
    for (i, r) in traced.iter().enumerate() {
        cross_check(&format!("traced rep {i} vs untraced"), first, r, &mut gate);
    }
    let key = golden_key(&args.workload, args.size, args.seed);
    if let Some(path) = &args.goldens {
        let hex: BTreeMap<String, String> = first
            .digests
            .iter()
            .map(|(k, v)| (k.clone(), format!("{v:016x}")))
            .collect();
        if args.write_goldens {
            // A goldens file that does not exist yet starts empty.
            let mut goldens = if path.exists() {
                load_goldens(path).unwrap_or_else(|e| {
                    eprintln!("gnocbench: unreadable goldens file {e}");
                    std::process::exit(2);
                })
            } else {
                Goldens::new()
            };
            goldens.insert(key.clone(), hex);
            save_goldens(path, &goldens);
            println!("wrote goldens for {key} to {}", path.display());
        } else {
            match load_goldens(path) {
                Ok(goldens) => {
                    for (name, want) in goldens.get(&key).into_iter().flatten() {
                        let got = hex.get(name).map_or("missing", String::as_str);
                        gate.check(got == want, || {
                            format!("golden {key} {name}: expected {want}, got {got}")
                        });
                    }
                }
                Err(e) => gate.check(false, || format!("goldens file unreadable: {e}")),
            }
        }
    }

    // End-to-end metrics, from the untraced repetitions only.
    let setup: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
    let wall: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let ops: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.ops_ms.iter().copied())
        .collect();
    let e2e: Vec<(&str, f64, usize)> = vec![
        ("setup_s", median(&setup), setup.len()),
        ("wall_s", median(&wall), wall.len()),
        ("peak_rss_mb", median(&rss), rss.len()),
    ];
    debug_assert_eq!(e2e.len(), END_TO_END.len());

    let mut extra: BTreeMap<&str, f64> = BTreeMap::new();
    let keys: Vec<&str> = untraced
        .iter()
        .flat_map(|r| r.extra.keys().copied())
        .collect();
    for k in keys {
        let vs: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.extra.get(k).copied())
            .collect();
        extra.insert(k, median(&vs));
    }
    extra.insert("op_ms_p50", quantile(&ops, 0.5));
    extra.insert("op_ms_p90", quantile(&ops, 0.9));
    extra.insert("ops", ops.len() as f64);

    // Per-layer metrics, from the traced repetitions.
    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        for (name, _) in PER_LAYER {
            let vs: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layer.get(name).copied())
                .collect();
            layer.insert(name, if vs.is_empty() { 0.0 } else { median(&vs) });
        }
        let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
        layer.insert(
            "bench.trace_overhead_ratio",
            median(&traced_wall) / median(&wall).max(1e-12),
        );
        // par.efficiency: serial per-unit time over jobs × parallel wall.
        let par_wall: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.extra.get("par_wall_s").copied())
            .collect();
        let serial: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.extra.get("par_serial_s").copied())
            .collect();
        if !par_wall.is_empty() && !serial.is_empty() {
            layer.insert(
                "par.efficiency",
                median(&serial) / (args.jobs as f64 * median(&par_wall)),
            );
        }
        let mut jsonl = String::new();
        for r in &traced {
            jsonl.push_str(&spans::to_jsonl(&r.spans));
        }
        let span_path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&span_path, jsonl).expect("span file is writable");
    }

    // A metric that is not a finite number is a failed check, not a value.
    let reported = e2e
        .iter()
        .map(|&(n, v, _)| (n, v))
        .chain(extra.iter().chain(&layer).map(|(&n, &v)| (n, v)));
    for (name, v) in reported {
        gate.check(v.is_finite(), || {
            format!("metric {name} is not finite ({v})")
        });
    }

    let all = untraced
        .iter()
        .chain(traced.iter())
        .chain(std::iter::once(&gate));
    let attempted: u64 = all.clone().map(|r| r.attempted).sum();
    let failures: Vec<&String> = all.flat_map(|r| r.failures.iter()).collect();
    let failed = failures.len() as u64;
    let correct = failed == 0;

    extra.insert("fail_ratio", failed as f64 / attempted.max(1) as f64);

    // Human-readable report.
    println!(
        "gnocbench workload={} seed={} size={} jobs={} reps={} traced_reps={}",
        args.workload,
        args.seed,
        args.size.name(),
        args.jobs,
        untraced.len(),
        traced.len()
    );
    for &(name, value, n) in &e2e {
        let unit = END_TO_END
            .iter()
            .find(|(m, _)| *m == name)
            .map_or("", |u| u.1);
        println!("  {name:<28} {value:>14.6} {unit:<8} (n={n})");
    }
    for (name, value) in &extra {
        if let Some((_, unit)) = EXTRA_UNITS.iter().find(|(m, _)| m == name) {
            println!("  {name:<28} {value:>14.6} {unit:<8}");
        }
    }
    for (name, unit) in PER_LAYER {
        if let Some(v) = layer.get(name) {
            println!("  {name:<34} {v:>14.6} {unit}");
        }
    }
    for f in failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
    println!("  correct={correct} attempted={attempted} failed={failed}");

    // Results file.
    let e2e_json = e2e
        .iter()
        .map(|&(n, v, samples)| {
            let unit = END_TO_END.iter().find(|(m, _)| *m == n).map_or("", |u| u.1);
            (n.to_string(), metric_json(v, unit, Some(samples)))
        })
        .collect();
    let layer_json = PER_LAYER
        .iter()
        .filter_map(|&(n, u)| {
            layer
                .get(n)
                .map(|&v| (n.to_string(), metric_json(v, u, None)))
        })
        .collect();
    let extra_json = extra
        .iter()
        .filter_map(|(n, &v)| {
            EXTRA_UNITS
                .iter()
                .find(|(m, _)| m == n)
                .map(|&(_, u)| (n.to_string(), metric_json(v, u, None)))
        })
        .collect();
    let digests_json = first
        .digests
        .iter()
        .map(|(k, v)| (k.clone(), Value::Str(format!("{v:016x}"))))
        .collect();
    let rep_walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let body = Value::Object(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::U64(args.seed)),
        ("size".into(), Value::Str(args.size.name().into())),
        ("trace".into(), Value::Bool(args.trace)),
        ("jobs".into(), Value::U64(args.jobs as u64)),
        ("reps".into(), Value::U64(untraced.len() as u64)),
        ("traced_reps".into(), Value::U64(traced.len() as u64)),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("end_to_end".into(), Value::Object(e2e_json)),
        ("per_layer".into(), Value::Object(layer_json)),
        ("extra".into(), Value::Object(extra_json)),
        ("rep_wall_s".into(), numbers_json(&rep_walls)),
        ("rep_setup_s".into(), numbers_json(&setup)),
        ("rep_peak_rss_mb".into(), numbers_json(&rss)),
        ("first_rep_ops_ms".into(), numbers_json(&first.ops_ms)),
        ("digests".into(), Value::Object(digests_json)),
        (
            "failures".into(),
            Value::Array(
                failures
                    .iter()
                    .take(50)
                    .map(|f| Value::Str(f.to_string()))
                    .collect(),
            ),
        ),
    ]);
    let body = serde_json::to_string_pretty(&body).expect("results serialize") + "\n";
    std::fs::write(&args.out, body).expect("results file is writable");
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    if !correct {
        std::process::exit(1);
    }
}
