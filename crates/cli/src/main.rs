//! The `gnoc` command-line tool: run the paper's characterisation and
//! experiments from the shell. See `gnoc help`.

use gnoc_chaos::{
    decompose, replay as replay_reproducer, run_chaos, run_iteration, shrink_violation,
    ChaosOptions, ChaosRun, Reproducer,
};
use gnoc_cli::{
    parse_invocation, AttackKind, ChaosAction, Command, FaultsAction, GpuChoice, SubmitWhat,
    TraceAction, TraceTarget, WorkloadKind, EXIT_CHECK_FAILED, EXIT_INVALID_INPUT, EXIT_IO,
    EXIT_OK, USAGE,
};
use gnoc_core::microbench::bandwidth::{aggregate_fabric_gbps, aggregate_memory_gbps};
use gnoc_core::noc::loadcurve::{hier_load_curve, mesh_load_curve, SweepConfig};
use gnoc_core::noc::{run_fairness_recorded, run_memsim_traced, HierConfig, MeshConfig};
use gnoc_core::noc::{ArbiterKind, FairnessConfig, MemSimConfig};
use gnoc_core::noc::{ReliableMesh, RetryConfig};
use gnoc_core::sidechannel::covert::{
    bits_of, bytes_of, channel_snr, transmit, CovertChannelConfig,
};
use gnoc_core::soak::{self, ReplayFailure, Seal, Soak, QUIESCE_BUDGET};
use gnoc_core::workloads::replay::{replay, ReplayConfig};
use gnoc_core::workloads::{bfs, gaussian};
use gnoc_core::{
    fabric_connected, mesh_connected, resolve_jobs, AccessKind, AesAttackConfig,
    CheckpointedCampaign, CtaScheduler, FabricConfig, FabricHealthConfig, FabricHealthMonitor,
    FabricSim, FabricTopology, FaultPlan, GpuDevice, HealthConfig, LatencyCampaign, LatencyProbe,
    RsaAttackConfig, SelfHealingMesh, SliceId, SmId, Summary, WorkerPool,
};
use gnoc_core::{infer_placement, input_speedups, run_aes_attack, run_rsa_attack};
use gnoc_core::{
    FlightRecorder, JsonlWriter, MetricRegistry, ProfileReport, Telemetry, TelemetryHandle,
};
use gnoc_serve::client::{
    envelope_field_str, envelope_type, extract_payload, payload_summary, request_over_socket,
};
use gnoc_serve::{
    install_termination_flag, serve_stdin, Engine, JobSpec, ServeConfig, ServeError, SocketServer,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match parse_invocation(&args) {
        Ok(inv) => inv,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(EXIT_INVALID_INPUT);
        }
    };

    // `--engine` overrides the NoC core (default: event, or GNOC_ENGINE).
    // Both engines are bit-identical; the flag only trades wall time.
    if let Some(engine) = inv.engine {
        gnoc_core::noc::set_event_skip_enabled(matches!(engine, gnoc_cli::EngineChoice::Event));
    }

    // `--trace`/`--metrics` turn telemetry on; otherwise every instrumented
    // call site stays on the zero-cost disabled path.
    let telemetry = if inv.trace.is_some() || inv.metrics.is_some() {
        let mut t = Telemetry::new();
        if let Some(path) = &inv.trace {
            match JsonlWriter::create(Path::new(path)) {
                Ok(sink) => t.set_sink(Box::new(sink)),
                Err(e) => {
                    eprintln!("error: cannot create trace file {path}: {e}");
                    return ExitCode::from(EXIT_IO);
                }
            }
        }
        TelemetryHandle::attach(t)
    } else {
        TelemetryHandle::disabled()
    };

    // `--faults` loads a plan once; subcommands pick it up where it applies.
    let plan = match &inv.faults {
        Some(path) => match FaultPlan::load(path) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("error: cannot load fault plan {path}: {e}");
                return ExitCode::from(plan_error_code(&e));
            }
        },
        None => None,
    };

    // The jobs knob (--jobs > GNOC_JOBS > machine) never changes results —
    // every parallel path is bit-identical to serial — only wall time.
    let pool = {
        let mut p = WorkerPool::new(resolve_jobs(inv.jobs));
        p.set_telemetry(telemetry.clone());
        p
    };

    let profile = inv.profile.as_deref().map(Path::new);
    let code = run(inv.command, plan.as_ref(), &telemetry, &pool, profile);

    telemetry.flush();
    if let Some(path) = &inv.metrics {
        let registry = telemetry.snapshot_registry().unwrap_or_default();
        if let Err(e) = registry.save(Path::new(path)) {
            eprintln!("error: cannot write metrics file {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    }
    ExitCode::from(code)
}

/// Maps a fault-plan file error onto the documented exit codes: unreadable
/// file → I/O, unparsable or semantically invalid content → invalid input.
fn plan_error_code(e: &gnoc_core::FaultPlanError) -> u8 {
    match e {
        gnoc_core::FaultPlanError::Io(_) => EXIT_IO,
        _ => EXIT_INVALID_INPUT,
    }
}

/// Maps a chaos state/reproducer file error onto the documented exit codes.
fn chaos_error_code(e: &gnoc_chaos::ChaosError) -> u8 {
    match e {
        gnoc_chaos::ChaosError::Io(_) => EXIT_IO,
        _ => EXIT_INVALID_INPUT,
    }
}

fn device(
    gpu: GpuChoice,
    seed: u64,
    plan: Option<&FaultPlan>,
    telemetry: &TelemetryHandle,
) -> Result<GpuDevice, String> {
    let mut dev = match plan {
        Some(plan) => GpuDevice::with_faults(gpu.spec(), plan, seed)
            .map_err(|e| format!("fault plan does not fit {}: {e}", gpu.preset_name()))?,
        None => GpuDevice::with_seed(gpu.spec(), seed)
            .map_err(|e| format!("cannot build {}: {e}", gpu.preset_name()))?,
    };
    dev.set_telemetry(telemetry.clone());
    Ok(dev)
}

/// Unwraps a `Result` or prints the error and fails the subcommand with the
/// given exit code (default: invalid input).
macro_rules! try_or_fail {
    ($e:expr) => {
        try_or_fail!($e, EXIT_INVALID_INPUT)
    };
    ($e:expr, $code:expr) => {
        match $e {
            Ok(v) => v,
            Err(msg) => {
                eprintln!("error: {msg}");
                return $code;
            }
        }
    };
}

fn run(
    cmd: Command,
    plan: Option<&FaultPlan>,
    telemetry: &TelemetryHandle,
    pool: &WorkerPool,
    profile: Option<&Path>,
) -> u8 {
    match cmd {
        Command::Help => print!("{USAGE}"),

        Command::Info { gpu } => {
            let spec = gpu.spec();
            for (label, value) in spec.table1_row() {
                println!("{label:<22}{value}");
            }
            println!();
            print!(
                "{}",
                spec.floorplan().render_ascii(&spec.hierarchy(), 96, 24)
            );
        }

        Command::Latency { gpu, sm, seed } => {
            let mut dev = try_or_fail!(device(gpu, seed, plan, telemetry));
            let n = dev.hierarchy().num_sms() as u32;
            if sm >= n {
                eprintln!("error: SM {sm} out of range (device has {n} SMs)");
                return EXIT_INVALID_INPUT;
            }
            let probe = LatencyProbe::default();
            let profile = probe.sm_profile(&mut dev, SmId::new(sm));
            println!(
                "L2 hit latency from SM{sm} on {} ({} visible slices):",
                dev.spec().name,
                profile.len()
            );
            for (i, l) in profile.iter().enumerate() {
                println!("  slice {i:>3}: {l:>6.0} cycles");
            }
            println!("summary: {}", Summary::of(&profile));
            export_device_counters(&dev, telemetry);
        }

        Command::Bandwidth { gpu, seed } => {
            let mut dev = try_or_fail!(device(gpu, seed, plan, telemetry));
            let fabric = aggregate_fabric_gbps(&mut dev);
            let mem = aggregate_memory_gbps(&mut dev);
            println!("{}:", dev.spec().name);
            println!("  aggregate L2 fabric bandwidth: {fabric:.0} GB/s");
            println!(
                "  aggregate memory bandwidth:    {mem:.0} GB/s ({:.0}% of peak)",
                100.0 * mem / dev.spec().mem_peak_gbps
            );
            println!("  fabric / memory ratio:         {:.2}x", fabric / mem);
            for (kind, label) in [
                (AccessKind::ReadHit, "reads"),
                (AccessKind::Write, "writes"),
            ] {
                let r = input_speedups(&dev, kind);
                println!(
                    "  input speedup ({label}): TPC {:.2}, GPC_l {:.1}/{}, GPC_g {:.1}/{}{}",
                    r.tpc,
                    r.gpc_local,
                    r.gpc_tpcs,
                    r.gpc_global,
                    r.gpc_sms,
                    r.cpc
                        .zip(r.cpc_sms)
                        .map(|(c, n)| format!(", CPC {c:.1}/{n}"))
                        .unwrap_or_default()
                );
            }
            export_device_counters(&dev, telemetry);
        }

        Command::Placement { gpu, seed } => {
            let mut dev = try_or_fail!(device(gpu, seed, plan, telemetry));
            let probe = LatencyProbe {
                working_set_lines: 2,
                samples: 6,
            };
            let campaign = LatencyCampaign::run_traced(&mut dev, &probe, telemetry);
            let report = infer_placement(&campaign, &dev, 2.5);
            println!(
                "{}: grand mean latency {:.0} cycles over {}x{} pairs",
                dev.spec().name,
                campaign.grand_mean(),
                campaign.matrix.len(),
                campaign.matrix.first().map_or(0, Vec::len)
            );
            println!(
                "position recovery (corr vs proximity): {:.2}",
                report.position_recovery_r
            );
            println!("GPC groups inferred: {:?}", report.gpc_labels);
            println!("GPC groups actual:   {:?}", report.gpc_truth);
            println!("Rand index: {:.2}", report.gpc_rand_index);
            export_device_counters(&dev, telemetry);
        }

        Command::Attack {
            kind,
            gpu,
            scheduler,
            seed,
        } => match kind {
            AttackKind::Aes => {
                let mut dev = try_or_fail!(device(gpu, seed, plan, telemetry));
                let key = [
                    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09,
                    0xcf, 0x4f, 0x3c,
                ];
                let cfg = AesAttackConfig {
                    samples: 2_500,
                    scheduler,
                    ..AesAttackConfig::new(key)
                };
                let r = run_aes_attack(&mut dev, &cfg, seed);
                println!(
                    "AES last-round key byte 0 on {} ({scheduler:?} scheduling):",
                    dev.spec().name
                );
                println!(
                    "  best guess 0x{:02x}, true 0x{:02x} → {}",
                    r.best_guess,
                    r.true_byte,
                    if r.succeeded() {
                        "KEY BYTE RECOVERED"
                    } else {
                        "attack defeated"
                    }
                );
                println!(
                    "  corr(true) {:+.3}, margin {:+.3}",
                    r.correlations[r.true_byte as usize], r.margin
                );
                export_device_counters(&dev, telemetry);
            }
            AttackKind::Rsa => {
                let dev = try_or_fail!(device(gpu, seed, plan, telemetry));
                let cfg = RsaAttackConfig {
                    scheduler,
                    ..RsaAttackConfig::default()
                };
                let r = run_rsa_attack(&dev, &cfg, seed);
                println!(
                    "RSA exponent-weight timing on {} ({scheduler:?} scheduling):",
                    dev.spec().name
                );
                println!("  fit R² = {:.3}", r.fit.r_squared);
                println!(
                    "  inverting one timing bounds the weight to ±{} bits",
                    r.weight_uncertainty
                );
                export_device_counters(&dev, telemetry);
            }
        },

        Command::Mesh {
            age_based,
            seed,
            transfers,
            self_heal,
            devices,
            topology,
        } => {
            let arbiter = if age_based {
                ArbiterKind::AgeBased
            } else {
                ArbiterKind::RoundRobin
            };
            if self_heal && plan.is_none() {
                eprintln!("error: --self-heal needs a --faults plan to heal around");
                return EXIT_INVALID_INPUT;
            }
            if devices >= 2 {
                // Multi-device: the same soak, but cross-device over the
                // inter-device fabric (paper dies joined by --topology).
                let args = FabricRunArgs {
                    devices,
                    topology: try_or_fail!(parse_topology(&topology)),
                    mesh: MeshConfig::paper_6x6(arbiter),
                    seed,
                    transfers,
                    cycles: QUIESCE_BUDGET,
                    self_heal,
                };
                return run_fabric(&args, plan, profile);
            }
            if let Some(plan) = plan {
                return run_faulted_mesh(
                    plan, arbiter, seed, transfers, self_heal, telemetry, profile,
                );
            }
            let fairness = FairnessConfig::paper(arbiter);
            let (r, rec) =
                run_fairness_recorded(fairness, seed, telemetry.clone(), profile.is_some());
            println!("6x6 mesh, 30 compute nodes → 6 MCs, {arbiter:?} arbitration:");
            for row in 0..5 {
                let cells: Vec<String> = (0..6)
                    .map(|c| format!("{:.3}", r.throughput[row * 6 + c]))
                    .collect();
                println!("  row {}: {}", row + 1, cells.join(" "));
            }
            println!("  unfairness (max/min): {:.2}x", r.unfairness);
            if let (Some(path), Some(rec)) = (profile, rec) {
                let cycles = fairness.warmup + fairness.measure;
                if let Err(code) = write_profile_artifacts(&rec, 6, 6, cycles, 5, path) {
                    return code;
                }
            }
        }

        Command::Faults { action } => return run_faults(action),

        Command::Fabric {
            devices,
            topology,
            width,
            height,
            seed,
            transfers,
            cycles,
            self_heal,
        } => {
            let args = FabricRunArgs {
                devices,
                topology: try_or_fail!(parse_topology(&topology)),
                mesh: MeshConfig::new(width as usize, height as usize, ArbiterKind::RoundRobin),
                seed,
                transfers,
                cycles,
                self_heal,
            };
            return run_fabric(&args, plan, profile);
        }

        Command::Chaos { action } => return run_chaos_action(action, telemetry, pool, profile),

        Command::Trace { action } => return run_trace_action(action, plan, telemetry),

        Command::Campaign {
            gpu,
            seed,
            checkpoint,
            lines,
            samples,
            quarantine,
            deadline_rows,
        } => {
            let probe = LatencyProbe {
                working_set_lines: lines,
                samples,
            };
            let preset = gpu.preset_name();
            let path = checkpoint.as_deref().map(Path::new);
            let mut campaign = try_or_fail!(match path {
                Some(p) => {
                    CheckpointedCampaign::resume_or_new(p, preset, seed, probe, plan.cloned())
                }
                None => CheckpointedCampaign::new(preset, seed, probe, plan.cloned()),
            }
            .map_err(|e| e.to_string()));
            campaign.set_telemetry(telemetry.clone());
            let resumed_at = campaign.completed_rows();
            if resumed_at > 0 {
                println!(
                    "resuming from checkpoint: {resumed_at}/{} rows done",
                    campaign.num_sms()
                );
            }
            if !quarantine.is_empty() || deadline_rows.is_some() {
                // Degraded mode: skip quarantined SMs, honor the row budget,
                // and salvage whatever was measured with explicit coverage.
                try_or_fail!(campaign
                    .set_quarantined_sms(quarantine)
                    .map_err(|e| e.to_string()));
                let (result, coverage) = try_or_fail!(campaign
                    .run_degraded(path, deadline_rows)
                    .map_err(|e| e.to_string()));
                println!(
                    "{}",
                    soak::campaign_summary(preset, &result, true, plan.is_some())
                );
                println!(
                    "coverage: {}/{} rows measured ({:.0}%), {} quarantined, {} unreached",
                    coverage.measured,
                    coverage.total,
                    100.0 * coverage.fraction(),
                    coverage.quarantined.len(),
                    coverage.unreached
                );
                if let Some(p) = path {
                    println!("checkpoint: {}", p.display());
                }
                if let Some(p) = profile {
                    if let Err(code) = write_campaign_profile(
                        gpu,
                        seed,
                        plan,
                        &probe,
                        &result.matrix,
                        telemetry,
                        p,
                    ) {
                        return code;
                    }
                }
                return EXIT_OK;
            }
            let result = try_or_fail!(campaign
                .run_to_completion_par(path, pool)
                .map_err(|e| e.to_string()));
            println!(
                "{}",
                soak::campaign_summary(preset, &result, false, plan.is_some())
            );
            if let Some(p) = path {
                println!("checkpoint: {}", p.display());
            }
            if let Some(p) = profile {
                if let Err(code) =
                    write_campaign_profile(gpu, seed, plan, &probe, &result.matrix, telemetry, p)
                {
                    return code;
                }
            }
        }

        Command::Covert { gpu, far, seed } => {
            let mut dev = try_or_fail!(device(gpu, seed, plan, telemetry));
            let slice = SliceId::new(5);
            let cfg = if far {
                CovertChannelConfig::far(&dev, slice, 2)
            } else {
                CovertChannelConfig::colocated(&dev, slice, 2)
            };
            println!(
                "covert channel on {} via {slice}, {} transmitter placement:",
                dev.spec().name,
                if far { "far" } else { "co-located" }
            );
            println!("  SNR: {:.1}", channel_snr(&mut dev, &cfg));
            let strong = CovertChannelConfig::colocated(&dev, slice, 6);
            let r = transmit(
                &mut dev,
                if far { &cfg } else { &strong },
                &bits_of(b"gnoc"),
            );
            println!(
                "  payload 'gnoc': BER {:.3}, decoded {:?}, capacity {:.0} kb/s",
                r.ber,
                String::from_utf8_lossy(&bytes_of(&r.received)),
                r.capacity_bits_per_sec() / 1e3
            );
            export_device_counters(&dev, telemetry);
        }

        Command::Replay {
            workload,
            gpu,
            random,
            blocks,
        } => {
            let dev = try_or_fail!(device(gpu, 0, plan, telemetry));
            let trace = match workload {
                WorkloadKind::Bfs => bfs::generate(bfs::BfsConfig::default(), 1),
                WorkloadKind::Gaussian => gaussian::generate(gaussian::GaussianConfig::default()),
            };
            let cfg = ReplayConfig {
                blocks,
                scheduler: if random {
                    CtaScheduler::RandomSeed
                } else {
                    CtaScheduler::Static
                },
                ..ReplayConfig::default()
            };
            let r = replay(&dev, &trace, &cfg);
            println!(
                "{} on {} ({} blocks, {} scheduling):",
                trace.name,
                dev.spec().name,
                blocks,
                if random { "random-seed" } else { "static" }
            );
            println!(
                "  {:.1} MB over {} steps in {:.3} ms — mean {:.0} GB/s",
                r.total_bytes / 1e6,
                r.step_gbps.len(),
                r.total_seconds * 1e3,
                r.mean_gbps()
            );
        }

        Command::LoadCurve { crossbar, seed } => {
            let rates = [0.02, 0.05, 0.08, 0.12, 0.16, 0.2, 0.25];
            let sweep = SweepConfig::default();
            let curve = if crossbar {
                hier_load_curve(HierConfig::gpu_like(), sweep, &rates, seed)
            } else {
                mesh_load_curve(
                    MeshConfig::paper_6x6(gnoc_core::ArbiterKind::RoundRobin),
                    sweep,
                    &rates,
                    seed,
                )
            };
            println!(
                "{} load sweep (30 terminals, 6 MCs):",
                if crossbar {
                    "hierarchical crossbar"
                } else {
                    "6x6 mesh"
                }
            );
            println!("{:>9} {:>10} {:>14}", "offered", "accepted", "mean latency");
            for p in curve {
                println!(
                    "{:>9.2} {:>10.2} {:>14.1}",
                    p.offered, p.accepted, p.mean_latency
                );
            }
        }

        Command::Memsim { provisioned, seed } => {
            let cfg = if provisioned {
                MemSimConfig::provisioned()
            } else {
                MemSimConfig::underprovisioned()
            };
            let r = run_memsim_traced(cfg, seed, telemetry.clone());
            println!(
                "request/reply memory simulation ({}):",
                if provisioned {
                    "provisioned reply interface"
                } else {
                    "under-provisioned reply interface"
                }
            );
            println!(
                "  mean channel utilisation {:.0}%, replies delivered {}",
                100.0 * r.mean_utilization,
                r.replies_delivered
            );
        }

        Command::Stats { path } => match MetricRegistry::load(Path::new(&path)) {
            Ok(registry) => print_stats(&registry),
            Err(e) => {
                eprintln!("error: cannot read metrics file {path}: {e}");
                return EXIT_IO;
            }
        },

        Command::Health {
            width,
            height,
            cycles,
            device,
            windows,
            seed,
        } => return run_health(width, height, cycles, device, windows, seed, plan),

        Command::Profile {
            width,
            height,
            age_based,
            seed,
            transfers,
            slowest,
            report,
            perfetto,
            jsonl,
            svg,
            devices,
            topology,
        } => {
            let arbiter = if age_based {
                ArbiterKind::AgeBased
            } else {
                ArbiterKind::RoundRobin
            };
            let outputs = ProfileOutputs {
                report,
                perfetto,
                jsonl,
                svg,
            };
            return run_profile(
                devices,
                &topology,
                MeshConfig::new(width as usize, height as usize, arbiter),
                seed,
                transfers,
                slowest,
                &outputs,
                plan,
                telemetry,
            );
        }

        Command::Serve {
            state,
            socket,
            queue_cap,
            session_cap,
            max_rows,
            max_seeds,
            max_transfers,
            row_delay_ms,
        } => {
            let cfg = ServeConfig {
                state_dir: PathBuf::from(&state),
                queue_cap,
                session_cap,
                max_rows,
                max_seeds,
                max_transfers,
                row_delay_ms,
                jobs: pool.jobs(),
            };
            return run_serve(cfg, socket.as_deref(), telemetry);
        }

        Command::Submit {
            socket,
            what,
            payload_out,
            summary,
        } => return run_submit(&socket, &what, payload_out.as_deref(), summary, plan),

        Command::Batch { socket, file } => return run_batch(&socket, &file),
    }
    EXIT_OK
}

/// `gnoc serve`: open the state directory (replaying the journal), then
/// serve the line protocol on a Unix socket or stdin until drained.
fn run_serve(cfg: ServeConfig, socket: Option<&str>, telemetry: &TelemetryHandle) -> u8 {
    let state = cfg.state_dir.display().to_string();
    let engine = match Engine::open(cfg, telemetry.clone()) {
        Ok(engine) => engine,
        Err(ServeError::Config(msg)) => {
            eprintln!("error: {msg}");
            return EXIT_INVALID_INPUT;
        }
        Err(ServeError::Io(e)) => {
            eprintln!("error: cannot open state directory {state}: {e}");
            return EXIT_IO;
        }
    };
    if engine.recovered() > 0 {
        // The ci.sh crash-recovery smoke greps for this line.
        println!(
            "recovered {} unfinished job(s) from the journal",
            engine.recovered()
        );
    }
    match socket {
        Some(path) => {
            let term = install_termination_flag();
            let server = match SocketServer::bind(Path::new(path)) {
                Ok(server) => server,
                Err(ServeError::Config(msg)) => {
                    eprintln!("error: {msg}");
                    return EXIT_INVALID_INPUT;
                }
                Err(ServeError::Io(e)) => {
                    eprintln!("error: cannot bind socket {path}: {e}");
                    return EXIT_IO;
                }
            };
            println!("serving on {path} (state {state})");
            match server.run(&engine, term) {
                Ok(()) => {
                    println!("drained; exiting");
                    EXIT_OK
                }
                Err(e) => {
                    eprintln!("error: serve loop failed: {e}");
                    EXIT_IO
                }
            }
        }
        None => match serve_stdin(&engine) {
            Ok(()) => EXIT_OK,
            Err(e) => {
                eprintln!("error: serve loop failed: {e}");
                EXIT_IO
            }
        },
    }
}

/// Builds the protocol line a `gnoc submit` request sends. The structured
/// forms go through [`JobSpec::canonical_json`], so the client sends
/// exactly the canonical bytes the daemon would derive anyway. Errors only
/// for `submit replay`, whose trace file is read here on the client.
fn submit_line(what: &SubmitWhat, plan: Option<&FaultPlan>) -> Result<String, String> {
    Ok(match what {
        SubmitWhat::Raw(line) => line.clone(),
        SubmitWhat::Health => "{\"schema\":1,\"op\":\"health\"}".to_owned(),
        SubmitWhat::Shutdown => "{\"schema\":1,\"op\":\"shutdown\"}".to_owned(),
        SubmitWhat::Campaign {
            gpu,
            seed,
            lines,
            samples,
            deadline_rows,
        } => JobSpec::Campaign {
            device: gpu.preset_name().to_owned(),
            seed: *seed,
            lines: *lines,
            samples: *samples,
            deadline_rows: *deadline_rows,
            plan: plan.cloned(),
        }
        .canonical_json(),
        SubmitWhat::Mesh { seed, transfers } => JobSpec::Mesh {
            seed: *seed,
            transfers: *transfers,
            plan: plan.cloned(),
        }
        .canonical_json(),
        SubmitWhat::Chaos {
            seed_start,
            seed_count,
            transfers,
        } => JobSpec::Chaos {
            seed_start: *seed_start,
            seed_count: *seed_count,
            transfers: *transfers,
        }
        .canonical_json(),
        SubmitWhat::Fabric {
            devices,
            topology,
            seed,
            transfers,
        } => JobSpec::Fabric {
            devices: *devices,
            topology: topology.clone(),
            seed: *seed,
            transfers: *transfers,
        }
        .canonical_json(),
        SubmitWhat::Replay { trace } => {
            let bytes =
                std::fs::read(trace).map_err(|e| format!("cannot read trace {trace}: {e}"))?;
            JobSpec::Replay {
                trace_hex: gnoc_core::trace::to_hex(&bytes),
                plan: plan.cloned(),
            }
            .canonical_json()
        }
    })
}

/// Handles the terminal envelope of one request: prints it (or just the
/// payload summary), optionally captures the exact payload bytes, and maps
/// the outcome onto the documented exit codes.
fn settle_envelope(envelope: &str, payload_out: Option<&str>, summary: bool) -> u8 {
    match envelope_type(envelope).as_deref() {
        Some("done") | Some("health") => {
            let payload = extract_payload(envelope).unwrap_or("{}");
            if let Some(path) = payload_out {
                // The payload is written exactly as extracted — these are
                // the bytes the determinism pins `cmp`.
                if let Err(e) = std::fs::write(path, payload) {
                    eprintln!("error: cannot write payload to {path}: {e}");
                    return EXIT_IO;
                }
            }
            if summary {
                match payload_summary(payload) {
                    Some(line) => println!("{line}"),
                    None => println!("{envelope}"),
                }
            } else {
                println!("{envelope}");
            }
            EXIT_OK
        }
        Some("bye") => {
            println!("{envelope}");
            EXIT_OK
        }
        Some("failed") => {
            let error = envelope_field_str(envelope, "error").unwrap_or_default();
            eprintln!("error: job failed: {error}");
            EXIT_CHECK_FAILED
        }
        Some("rejected") => {
            let reason = envelope_field_str(envelope, "reason").unwrap_or_default();
            eprintln!("error: rejected: {reason}");
            if reason.starts_with("invalid: ") {
                EXIT_INVALID_INPUT
            } else {
                EXIT_CHECK_FAILED
            }
        }
        _ => {
            eprintln!("error: unexpected response: {envelope}");
            EXIT_IO
        }
    }
}

/// `gnoc submit`: one request to a running daemon, one exit code.
fn run_submit(
    socket: &str,
    what: &SubmitWhat,
    payload_out: Option<&str>,
    summary: bool,
    plan: Option<&FaultPlan>,
) -> u8 {
    let line = match submit_line(what, plan) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_IO;
        }
    };
    let envelopes = match request_over_socket(Path::new(socket), &line) {
        Ok(envelopes) => envelopes,
        Err(e) => {
            eprintln!("error: cannot reach daemon at {socket}: {e}");
            return EXIT_IO;
        }
    };
    // Progress envelopes (accepted) are printed as they came unless the
    // caller asked for just the summary.
    for envelope in &envelopes[..envelopes.len() - 1] {
        if !summary {
            println!("{envelope}");
        }
    }
    settle_envelope(
        envelopes.last().expect("terminal envelope"),
        payload_out,
        summary,
    )
}

/// `gnoc batch`: submit each non-empty line of a request file, in order.
/// The exit code is the worst per-request code.
fn run_batch(socket: &str, file: &str) -> u8 {
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return EXIT_IO;
        }
    };
    let mut worst = EXIT_OK;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let code = match request_over_socket(Path::new(socket), line) {
            Ok(envelopes) => {
                settle_envelope(envelopes.last().expect("terminal envelope"), None, false)
            }
            Err(e) => {
                eprintln!("error: cannot reach daemon at {socket}: {e}");
                EXIT_IO
            }
        };
        worst = worst.max(code);
    }
    worst
}

/// Optional artifact paths of `gnoc profile`.
struct ProfileOutputs {
    report: Option<String>,
    perfetto: Option<String>,
    jsonl: Option<String>,
    svg: Option<String>,
}

/// `gnoc profile`: flight-record a reliable-mesh soak (faulted when a
/// `--faults` plan is given, otherwise fault-free) and print the
/// stall-attribution report: where every stalled cycle of every message
/// went, the hottest links, a per-router utilization heatmap, and the
/// critical path of the slowest transfers. All timestamps are virtual
/// cycles, so every artifact is bit-identical across runs and `--jobs`.
///
/// With `--devices N` the soak is the cross-device fabric stream and the
/// profile grid is the fabric node graph (one column per device, plus the
/// switch node when present); fabric-hop serialization shows up as its own
/// stall class in the attribution.
#[allow(clippy::too_many_arguments)]
fn run_profile(
    devices: u32,
    topology: &str,
    mesh: MeshConfig,
    seed: u64,
    transfers: usize,
    slowest: usize,
    outputs: &ProfileOutputs,
    plan: Option<&FaultPlan>,
    telemetry: &TelemetryHandle,
) -> u8 {
    let benign = FaultPlan::none();
    let plan = plan.unwrap_or(&benign);
    let mut soak = if devices >= 2 {
        let topology = try_or_fail!(parse_topology(topology));
        let mut cfg = FabricConfig::new(devices, topology);
        cfg.mesh = mesh;
        let sim = try_or_fail!(FabricSim::with_faults(cfg, plan)
            .map_err(|e| format!("cannot build the {devices}-device {topology} fabric: {e}")));
        Soak::Fabric(Box::new(sim))
    } else {
        let (width, height) = (mesh.width, mesh.height);
        let mut rm = try_or_fail!(
            ReliableMesh::with_faults(mesh, plan, RetryConfig::default())
                .map_err(|e| format!("plan does not fit a {width}x{height} mesh: {e}"))
        );
        rm.mesh_mut().set_telemetry(telemetry.clone());
        Soak::Mesh(Box::new(rm))
    };
    soak.attach_flight_recorder();
    match &mut soak {
        Soak::Mesh(rm) => soak::submit_profile_soak(rm, seed, transfers),
        Soak::Fabric(sim) => {
            try_or_fail!(soak::submit_fabric_soak(sim, seed, transfers).map_err(|e| e.to_string()))
        }
    }
    let quiesced = soak.run_until_quiescent(QUIESCE_BUDGET);
    let cycles = soak.cycle();
    let (columns, rows) = soak.profile_grid();
    let rec = soak
        .take_flight_recorder()
        .expect("recorder attached above");

    let report = ProfileReport::from_recorder(&rec, columns, rows, cycles, slowest);
    print!("{}", report.render_text());
    if let Err(code) = write_profile_outputs(&report, &rec, outputs) {
        return code;
    }
    if !quiesced {
        eprintln!(
            "error: {} failed to quiesce (outstanding {})",
            soak.name(),
            soak.outstanding()
        );
        return EXIT_CHECK_FAILED;
    }
    EXIT_OK
}

/// Writes the optional `gnoc profile` artifacts (report, Perfetto trace,
/// JSONL event stream, utilization heatmap SVG) shared by the single-die
/// and multi-device paths.
fn write_profile_outputs(
    report: &ProfileReport,
    rec: &FlightRecorder,
    outputs: &ProfileOutputs,
) -> Result<(), u8> {
    macro_rules! write_or_fail {
        ($path:expr, $content:expr, $label:expr) => {
            if let Err(e) = std::fs::write($path, $content) {
                eprintln!("error: cannot write {} {}: {e}", $label, $path);
                return Err(EXIT_IO);
            }
        };
    }
    if let Some(path) = &outputs.report {
        write_or_fail!(path, report.to_json_pretty(), "report");
        println!("report: {path}");
    }
    if let Some(path) = &outputs.perfetto {
        write_or_fail!(path, rec.chrome_trace(), "trace");
        println!("perfetto trace: {path} (load at ui.perfetto.dev)");
    }
    if let Some(path) = &outputs.jsonl {
        let mut sink = match JsonlWriter::create(Path::new(path)) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("error: cannot create event stream {path}: {e}");
                return Err(EXIT_IO);
            }
        };
        rec.stream_to(&mut sink);
        println!("events: {path}");
    }
    if let Some(path) = &outputs.svg {
        write_or_fail!(path, report.utilization_heatmap_svg(), "heatmap");
        println!("heatmap: {path}");
    }
    Ok(())
}

/// `gnoc health`: online fault detection. The `--faults` plan (or an empty
/// one) is applied physically but hidden from routing; the health layer must
/// infer faults from behavioral telemetry, quarantine them, and report what
/// it found. With `--device`, the plan's disabled slices are additionally
/// planted as latent device faults for the slice monitors to find.
fn run_health(
    width: u32,
    height: u32,
    cycles: u64,
    device: Option<GpuChoice>,
    windows: u64,
    seed: u64,
    plan: Option<&FaultPlan>,
) -> u8 {
    let benign = FaultPlan::none();
    let plan = plan.unwrap_or(&benign);
    let mesh_cfg = MeshConfig::new(width as usize, height as usize, ArbiterKind::RoundRobin);
    let mut healer = try_or_fail!(SelfHealingMesh::new(
        mesh_cfg,
        plan,
        RetryConfig::default(),
        HealthConfig::default(),
    )
    .map_err(|e| format!("plan does not fit a {width}x{height} mesh: {e}")));
    try_or_fail!(healer
        .run_detection(cycles)
        .map_err(|e| format!("detection run failed: {e}")));
    let report = healer.report();
    println!(
        "self-healing {width}x{height} mesh, plan [{}] hidden from routing:",
        plan.summary()
    );
    println!(
        "  {} cycles, {} health windows, {} patrol rounds",
        report.cycles, report.windows, report.patrol_rounds
    );
    println!(
        "  patrol traffic: {} delivered, {} lost, {} retries, {} reroutes",
        report.delivered, report.lost, report.retries, report.reroutes
    );
    if report.transitions.is_empty() {
        println!("  breakers: all closed (no faults detected)");
    } else {
        println!("  breaker transitions:");
        for t in &report.transitions {
            println!(
                "    cycle {:>8}: {} {} -> {}",
                t.at, t.resource, t.from, t.to
            );
        }
    }
    if !report.quarantined_now.is_empty() {
        println!("  quarantined now: {}", report.quarantined_now.join(", "));
    }
    for refusal in &report.refused {
        println!("  quarantine refused (would disconnect): {refusal}");
    }

    if let Some(gpu) = device {
        let monitor = try_or_fail!(gnoc_core::health::run_slice_detection_for_spec(
            gpu.spec(),
            plan,
            seed,
            HealthConfig::default(),
            windows,
        )
        .map_err(|e| format!("slice detection on {}: {e}", gpu.preset_name())))
        .1;
        let found = monitor.detected_slices();
        println!(
            "{} slice probe ({windows} windows): {} slice breaker(s) opened",
            gpu.preset_name(),
            found.len()
        );
        for (slice, window) in found {
            println!("  slice {slice}: first opened in window {window}");
        }
    }
    EXIT_OK
}

/// `gnoc mesh --faults plan.json`: retrying delivery over a degraded mesh.
///
/// Submits uniform-random (but seed-deterministic) transfers through a
/// [`ReliableMesh`] with the plan applied, then reports delivery, loss,
/// retry, and tail-latency figures; `--metrics` captures the `noc.retry.*`
/// counters. With `--self-heal` the plan is hidden from routing and the
/// health layer quarantines what it detects instead.
fn run_faulted_mesh(
    plan: &FaultPlan,
    arbiter: ArbiterKind,
    seed: u64,
    transfers: usize,
    self_heal: bool,
    telemetry: &TelemetryHandle,
    profile: Option<&Path>,
) -> u8 {
    let cfg = MeshConfig::paper_6x6(arbiter);
    let mut rm = if self_heal {
        let mut healer = try_or_fail!(SelfHealingMesh::new(
            cfg,
            plan,
            RetryConfig::default(),
            HealthConfig::default()
        )
        .map_err(|e| e.to_string()));
        if profile.is_some() {
            // Attach before the warm-up so the trace shows the healing
            // episode itself: patrol traffic, breaker transitions, and the
            // stalls the quarantines cause and cure.
            healer.rm_mut().mesh_mut().attach_flight_recorder();
        }
        // Warm-up patrol: detect and quarantine before user traffic.
        try_or_fail!(healer
            .run_detection(20_000)
            .map_err(|e| format!("self-heal warm-up failed: {e}")));
        let report = healer.report();
        println!(
            "self-heal warm-up: {} breaker transition(s), quarantined now: {}",
            report.transitions.len(),
            if report.quarantined_now.is_empty() {
                "(none)".to_owned()
            } else {
                report.quarantined_now.join(", ")
            }
        );
        healer.into_mesh()
    } else {
        try_or_fail!(
            ReliableMesh::with_faults(cfg, plan, RetryConfig::default()).map_err(|e| e.to_string())
        )
    };
    rm.mesh_mut().set_telemetry(telemetry.clone());
    if profile.is_some() && rm.mesh().flight_recorder().is_none() {
        rm.mesh_mut().attach_flight_recorder();
    }

    soak::submit_mesh_soak(&mut rm, seed, transfers);

    let quiesced = rm.run_until_quiescent(QUIESCE_BUDGET);
    let s = rm.stats().clone();
    let m = rm.mesh().stats().clone();
    println!(
        "6x6 mesh under fault plan [{}], {arbiter:?} arbitration:",
        plan.summary()
    );
    println!(
        "  transfers: {} submitted, {} delivered, {} lost",
        s.submitted,
        s.delivered,
        s.lost_total()
    );
    println!(
        "  losses:    {} unroutable, {} retries-exhausted, {} watchdog",
        s.lost_unroutable, s.lost_retries_exhausted, s.lost_watchdog
    );
    println!(
        "  retries:   {} ({} corrupt NACKs, {} duplicates suppressed)",
        s.retries, s.corrupt_retries, s.duplicates_suppressed
    );
    println!(
        "  fabric:    {} flaky drops, {} transient drops, {} corrupted, reroutes {}, dead links {}",
        m.dropped_flaky,
        m.dropped_transient,
        m.corrupted,
        m.reroutes,
        rm.mesh().dead_links_active()
    );
    println!(
        "  latency:   mean {:.1}, p50 {:.0}, p99 {:.0}, max {} cycles",
        s.mean_latency(),
        s.latency_quantile(0.50),
        s.latency_quantile(0.99),
        s.latency_max
    );
    if rm.watchdog_tripped() {
        println!(
            "  watchdog:  tripped {} time(s) — stuck traffic written off, no hang",
            s.watchdog_trips
        );
    }
    telemetry.with(|t| rm.export_metrics(&mut t.registry));
    if let Some(path) = profile {
        let cycles = rm.mesh().cycle();
        let rec = rm
            .mesh_mut()
            .take_flight_recorder()
            .expect("recorder attached at mesh construction");
        if let Err(code) = write_profile_artifacts(&rec, cfg.width, cfg.height, cycles, 5, path) {
            return code;
        }
    }
    if !quiesced {
        eprintln!(
            "error: mesh failed to quiesce (outstanding {})",
            rm.outstanding()
        );
        return EXIT_CHECK_FAILED;
    }
    EXIT_OK
}

/// Resolves a topology name the parser already validated.
fn parse_topology(name: &str) -> Result<FabricTopology, String> {
    FabricTopology::parse(name)
        .ok_or_else(|| format!("unknown topology '{name}' (p2p|line|ring|fully|switch)"))
}

/// What `gnoc fabric` (and `gnoc mesh --devices N`) runs.
struct FabricRunArgs {
    devices: u32,
    topology: FabricTopology,
    mesh: MeshConfig,
    seed: u64,
    transfers: usize,
    cycles: u64,
    self_heal: bool,
}

/// `gnoc fabric` (and `gnoc mesh --devices N`): a cross-device soak over
/// per-die meshes joined by the inter-device topology. With a `--faults`
/// plan, routing fails over around dead fabric links, a dead switch, and
/// lost devices the cycle they manifest; with `--self-heal`, the plan is
/// hidden from fabric routing and per-link breakers detect, quarantine,
/// and reroute online instead, refusing any quarantine that would
/// partition the surviving devices.
fn run_fabric(args: &FabricRunArgs, plan: Option<&FaultPlan>, profile: Option<&Path>) -> u8 {
    let benign = FaultPlan::none();
    let plan = plan.unwrap_or(&benign);
    let mut cfg = FabricConfig::new(args.devices, args.topology);
    cfg.mesh = args.mesh;
    cfg.self_healing = args.self_heal;
    let mut sim = try_or_fail!(FabricSim::with_faults(cfg, plan).map_err(|e| format!(
        "cannot build the {}-device {} fabric: {e}",
        args.devices, args.topology
    )));
    if profile.is_some() {
        sim.attach_flight_recorder();
    }
    let mut monitor = args
        .self_heal
        .then(|| FabricHealthMonitor::new(&sim, FabricHealthConfig::default()));
    if let Some(m) = monitor.as_mut() {
        // Warm-up patrol before user traffic, mirroring `mesh --self-heal`:
        // detect, quarantine, and reroute while only probe packets are at
        // risk.
        m.run_detection(&mut sim, 20_000);
        let report = m.report(&sim);
        println!(
            "self-heal warm-up: {} window(s), {} breaker transition(s)",
            report.windows,
            report.transitions.len()
        );
        for t in &report.transitions {
            println!(
                "    cycle {:>8}: {} {} -> {}",
                t.at, t.resource, t.from, t.to
            );
        }
        if !report.quarantined.is_empty() {
            let q: Vec<String> = report
                .quarantined
                .iter()
                .map(|(a, b)| format!("{a}<->{b}"))
                .collect();
            println!("  quarantined now: {}", q.join(", "));
        }
        if report.refusals > 0 {
            println!(
                "  quarantine refused (would partition): {}",
                report.refusals
            );
        }
        if !report.partitioned_devices.is_empty() {
            println!(
                "  devices outside reliable coverage: {:?}",
                report.partitioned_devices
            );
        }
    }

    try_or_fail!(
        soak::submit_fabric_soak(&mut sim, args.seed, args.transfers).map_err(|e| e.to_string())
    );
    let start = sim.cycle();
    let quiesced = if let Some(m) = monitor.as_mut() {
        // Keep the breakers polling during the soak so mid-traffic fault
        // onsets are detected and failed over too.
        while sim.outstanding() > 0 && sim.cycle() - start < args.cycles {
            sim.step();
            m.poll(&mut sim);
        }
        sim.outstanding() == 0
    } else {
        sim.run_until_quiescent(args.cycles)
    };

    let s = sim.stats().clone();
    println!(
        "{}-device {} fabric, {}x{} dies, plan [{}], {} routing:",
        args.devices,
        args.topology,
        args.mesh.width,
        args.mesh.height,
        plan.summary(),
        if args.self_heal {
            "self-healing"
        } else {
            "fault-aware"
        }
    );
    println!(
        "  transfers: {} submitted ({} cross-device), {} delivered, {} lost",
        s.submitted,
        s.cross_device,
        s.delivered,
        s.lost_total()
    );
    println!(
        "  losses:    {} partitioned, {} die, {} fabric-retries, {} watchdog",
        s.lost_partitioned, s.lost_die, s.lost_fabric_retries, s.lost_watchdog
    );
    println!(
        "  fabric:    {} hops, {} crossing retries, {} reroutes",
        s.fabric_hops, s.fabric_retries, s.reroutes
    );
    let dead = sim.dead_devices();
    if !dead.is_empty() {
        println!("  dead devices: {dead:?}");
    }
    println!(
        "  latency:   mean {:.1}, max {} cycles",
        s.mean_latency(),
        s.latency_max
    );
    if let Some(m) = &monitor {
        let report = m.report(&sim);
        for d in &report.detections {
            println!(
                "  detected:  {} (first opened at cycle {}, now {})",
                d.resource, d.first_open_at, d.state
            );
        }
        if !report.partitioned_devices.is_empty() {
            println!(
                "  degraded coverage: devices {:?} have no reliable fabric path",
                report.partitioned_devices
            );
        }
    }

    if let Some(path) = profile {
        let cycles = sim.cycle();
        let rec = sim.take_flight_recorder().expect("recorder attached above");
        let fabric_nodes = args.topology.node_count(args.devices) as usize;
        if let Err(code) = write_profile_artifacts(&rec, fabric_nodes, 1, cycles, 5, path) {
            return code;
        }
    }
    if !quiesced {
        eprintln!(
            "error: fabric failed to quiesce (outstanding {})",
            sim.outstanding()
        );
        return EXIT_CHECK_FAILED;
    }
    EXIT_OK
}

// ---------------------------------------------------------------------------
// gnoc trace: deterministic record/replay of soaks and campaigns
// ---------------------------------------------------------------------------

use gnoc_core::trace::{
    validate_stream, ReplayError, TraceError, TraceHeader, TraceKind, TraceReader, TraceTap,
};
use gnoc_core::trace_digest;

/// Maps a trace-stream error onto the documented exit codes: I/O failure →
/// 3, wrong magic or schema → 2 (retrying the same file cannot succeed;
/// re-record it), corruption → 1. A truncated tail is normally a
/// salvageable warning handled by the caller, but a trace cut before its
/// header completes has no replayable prefix and counts as a failed check.
fn trace_error_code(e: &TraceError) -> u8 {
    match e {
        TraceError::Io(_) => EXIT_IO,
        TraceError::BadMagic { .. } | TraceError::SchemaVersion { .. } => EXIT_INVALID_INPUT,
        TraceError::CorruptChunk { .. } | TraceError::TruncatedTail { .. } => EXIT_CHECK_FAILED,
    }
}

/// Maps a replay-driver error: stream problems keep their trace code; a
/// CRC-valid event that does not fit the simulator (wrong node range) is a
/// crafted or mismatched trace — invalid input.
fn replay_error_exit(e: &ReplayError) -> u8 {
    eprintln!("error: {e}");
    match e {
        ReplayError::Trace(t) => trace_error_code(t),
        ReplayError::Event { .. } => EXIT_INVALID_INPUT,
    }
}

fn run_trace_action(
    action: TraceAction,
    plan: Option<&FaultPlan>,
    telemetry: &TelemetryHandle,
) -> u8 {
    match action {
        TraceAction::Record { target, out, stats } => record_trace(
            &target,
            Path::new(&out),
            stats.as_deref().map(Path::new),
            plan,
            telemetry,
        ),
        TraceAction::Replay { path, stats } => replay_trace(
            Path::new(&path),
            stats.as_deref().map(Path::new),
            plan,
            telemetry,
        ),
        TraceAction::Validate { path } => validate_trace(Path::new(&path)),
        TraceAction::Info { path } => trace_info(Path::new(&path)),
    }
}

/// Writes the canonical stats line where `--stats` asked for it. The same
/// bytes come out of a recording and any faithful replay, so scripts pin
/// replay fidelity with a plain `cmp`.
fn write_stats_line(path: &Path, line: &str) -> Result<(), u8> {
    if let Err(e) = gnoc_core::atomic_write(path, line.as_bytes()) {
        eprintln!("error: cannot write stats file {}: {e}", path.display());
        return Err(EXIT_IO);
    }
    Ok(())
}

fn record_trace(
    target: &TraceTarget,
    out: &Path,
    stats_out: Option<&Path>,
    plan: Option<&FaultPlan>,
    telemetry: &TelemetryHandle,
) -> u8 {
    let plan_fnv = trace_digest::plan_digest(plan);
    let benign = FaultPlan::none();
    let create_tap = |header: &TraceHeader| {
        TraceTap::to_file(out, header)
            .map_err(|e| format!("cannot create trace {}: {e}", out.display()))
    };
    let finish_tap = |tap: TraceTap, line: &str| {
        tap.finish_file(trace_digest::line_digest(line))
            .map_err(|e| format!("cannot finalize trace {}: {e}", out.display()))
    };
    let (mut soak, budget) = match target {
        TraceTarget::Mesh { seed, transfers } => {
            // Exactly the `gnoc mesh --faults` soak (paper 6x6, round-robin,
            // default retry policy), with the tap recording each submission.
            let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin);
            let header = TraceHeader::mesh(
                cfg.width as u32,
                cfg.height as u32,
                *seed,
                *transfers as u64,
                plan_fnv,
            );
            let tap = try_or_fail!(create_tap(&header), EXIT_IO);
            let mut rm = try_or_fail!(ReliableMesh::with_faults(
                cfg,
                plan.unwrap_or(&benign),
                RetryConfig::default()
            )
            .map_err(|e| e.to_string()));
            rm.mesh_mut().set_telemetry(telemetry.clone());
            rm.attach_trace_tap(tap);
            soak::submit_mesh_soak(&mut rm, *seed, *transfers);
            (Soak::Mesh(Box::new(rm)), QUIESCE_BUDGET)
        }
        TraceTarget::Fabric {
            devices,
            topology,
            width,
            height,
            seed,
            transfers,
            cycles,
        } => {
            // Exactly the `gnoc fabric` soak with fault-aware routing
            // (self-heal runs are not recordable: the breaker poll loop
            // lives outside the injected stream).
            let topo = try_or_fail!(parse_topology(topology));
            let mut cfg = FabricConfig::new(*devices, topo);
            cfg.mesh = MeshConfig::new(*width as usize, *height as usize, ArbiterKind::RoundRobin);
            let header = TraceHeader::fabric(
                *devices,
                topology,
                *width,
                *height,
                *seed,
                *transfers as u64,
                plan_fnv,
            );
            let tap = try_or_fail!(create_tap(&header), EXIT_IO);
            let mut sim = try_or_fail!(FabricSim::with_faults(cfg, plan.unwrap_or(&benign))
                .map_err(|e| format!("cannot build the {devices}-device {topology} fabric: {e}")));
            sim.attach_trace_tap(tap);
            try_or_fail!(
                soak::submit_fabric_soak(&mut sim, *seed, *transfers).map_err(|e| e.to_string())
            );
            (Soak::Fabric(Box::new(sim)), *cycles)
        }
        TraceTarget::Campaign {
            gpu,
            seed,
            lines,
            samples,
        } => {
            // A campaign injects no transfers: the trace is header+footer,
            // the header re-instantiates the run and the footer pins the
            // latency-matrix digest.
            let preset = gpu.preset_name();
            let probe = LatencyProbe {
                working_set_lines: *lines,
                samples: *samples,
            };
            let header =
                TraceHeader::campaign(preset, *seed, *lines as u32, *samples as u32, plan_fnv);
            let tap = try_or_fail!(create_tap(&header), EXIT_IO);
            let mut campaign =
                try_or_fail!(
                    CheckpointedCampaign::new(preset, *seed, probe, plan.cloned())
                        .map_err(|e| e.to_string())
                );
            campaign.set_telemetry(telemetry.clone());
            let result = try_or_fail!(campaign.run_to_completion(None).map_err(|e| e.to_string()));
            let line = trace_digest::campaign_stats_line(preset, &result);
            try_or_fail!(finish_tap(tap, &line), EXIT_IO);
            return finish_recording("campaign", out, 0, &line, stats_out, true);
        }
    };
    let quiesced = soak.run_until_quiescent(budget);
    let line = try_or_fail!(soak.stats_line());
    let tap = soak.take_trace_tap().expect("tap attached above");
    let events = tap.events();
    try_or_fail!(finish_tap(tap, &line), EXIT_IO);
    finish_recording(soak.name(), out, events, &line, stats_out, quiesced)
}

fn finish_recording(
    kind: &str,
    out: &Path,
    events: u64,
    line: &str,
    stats_out: Option<&Path>,
    quiesced: bool,
) -> u8 {
    if let Some(p) = stats_out {
        if let Err(code) = write_stats_line(p, line) {
            return code;
        }
    }
    println!(
        "recorded {kind} trace: {} ({events} event(s), stats digest {:016x})",
        out.display(),
        trace_digest::line_digest(line)
    );
    if !quiesced {
        eprintln!(
            "error: the recorded run failed to quiesce; the sealed digest \
             reflects the budget-exhausted state"
        );
        return EXIT_CHECK_FAILED;
    }
    EXIT_OK
}

fn replay_trace(
    path: &Path,
    stats_out: Option<&Path>,
    plan: Option<&FaultPlan>,
    telemetry: &TelemetryHandle,
) -> u8 {
    let mut reader = match TraceReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot open trace {}: {e}", path.display());
            return trace_error_code(&e);
        }
    };
    let verdict = match soak::replay(&mut reader, plan, telemetry) {
        Ok(v) => v,
        Err(ReplayFailure::PlanMismatch { recorded, supplied }) => {
            eprintln!(
                "error: trace was recorded against fault plan {recorded:016x} but this \
                 invocation supplies {supplied:016x}; pass the recording's --faults plan"
            );
            return EXIT_INVALID_INPUT;
        }
        Err(ReplayFailure::UnknownTopology(name)) => {
            eprintln!("error: unknown topology '{name}' (p2p|line|ring|fully|switch)");
            return EXIT_INVALID_INPUT;
        }
        Err(ReplayFailure::Setup { error, .. } | ReplayFailure::Stats(error)) => {
            eprintln!("error: {error}");
            return EXIT_INVALID_INPUT;
        }
        Err(ReplayFailure::Stream(e)) => return replay_error_exit(&e),
    };
    if let Some(p) = stats_out {
        if let Err(code) = write_stats_line(p, &verdict.line) {
            return code;
        }
    }
    let (kind, events, digest) = (verdict.kind.name(), verdict.events, verdict.digest);
    match verdict.seal {
        Seal::Truncated { chunk, offset } => {
            eprintln!(
                "warning: trace truncated in chunk {chunk} at byte offset {offset}; \
                 replayed the complete prefix"
            );
            println!(
                "replayed {kind} prefix: {events} event(s), stats digest {digest:016x} \
                 (no footer to compare)"
            );
            EXIT_OK
        }
        Seal::Matches => {
            println!(
                "replayed {kind} trace: {events} event(s), stats digest {digest:016x} \
                 matches the recording"
            );
            EXIT_OK
        }
        Seal::Diverges(rec) => {
            eprintln!(
                "error: divergent replay: stats digest {digest:016x} does not \
                 match the recorded {rec:016x}"
            );
            EXIT_CHECK_FAILED
        }
        Seal::Unsealed => {
            println!(
                "replayed {kind} trace: {events} event(s), stats digest {digest:016x} \
                 (recording sealed no digest)"
            );
            EXIT_OK
        }
    }
}

fn validate_trace(path: &Path) -> u8 {
    let mut reader = match TraceReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot open trace {}: {e}", path.display());
            return trace_error_code(&e);
        }
    };
    match validate_stream(&mut reader) {
        Ok(s) if s.complete => {
            println!(
                "valid {} trace: {} event(s) in {} chunk(s), stats digest {:016x}",
                reader.header().kind.name(),
                s.events,
                s.event_chunks,
                s.stats_fnv
            );
            EXIT_OK
        }
        Ok(s) => {
            let (chunk, offset) = s.truncated.unwrap_or((0, 0));
            eprintln!(
                "warning: trace truncated in chunk {chunk} at byte offset {offset}; \
                 the complete prefix is replayable"
            );
            println!(
                "salvageable {} trace: {} event(s) in {} chunk(s), no footer",
                reader.header().kind.name(),
                s.events,
                s.event_chunks
            );
            EXIT_OK
        }
        Err(e) => {
            eprintln!("error: {e}");
            trace_error_code(&e)
        }
    }
}

fn trace_info(path: &Path) -> u8 {
    let mut reader = match TraceReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot open trace {}: {e}", path.display());
            return trace_error_code(&e);
        }
    };
    let h = reader.header().clone();
    println!("kind:      {}", h.kind.name());
    println!("schema:    {}", gnoc_core::trace::TRACE_SCHEMA);
    match h.kind {
        TraceKind::Campaign => {
            println!("device:    {}", h.device.as_deref().unwrap_or("?"));
            println!("probe:     {} lines x {} samples", h.lines, h.samples);
        }
        TraceKind::Mesh => println!("geometry:  {}x{} mesh", h.width, h.height),
        TraceKind::Fabric => println!(
            "geometry:  {} devices over {} fabric, {}x{} dies",
            h.devices, h.topology, h.width, h.height
        ),
    }
    println!("seed:      {}", h.seed);
    println!("transfers: {}", h.transfers);
    println!(
        "plan:      {}",
        if h.plan_fnv == 0 {
            "none".to_owned()
        } else {
            format!("fnv {:016x}", h.plan_fnv)
        }
    );
    match validate_stream(&mut reader) {
        Ok(s) => {
            println!("events:    {} in {} chunk(s)", s.events, s.event_chunks);
            if s.complete {
                println!("footer:    stats digest {:016x}", s.stats_fnv);
            } else {
                let (chunk, offset) = s.truncated.unwrap_or((0, 0));
                println!("footer:    MISSING (truncated in chunk {chunk} at byte offset {offset})");
            }
            EXIT_OK
        }
        Err(e) => {
            eprintln!("error: {e}");
            trace_error_code(&e)
        }
    }
}

/// Writes the two profile artifacts for a finished recording: the
/// stall-attribution report at `path` and a Chrome trace-event JSON
/// (loadable at ui.perfetto.dev) alongside it at `<path>.trace.json`.
fn write_profile_artifacts(
    rec: &FlightRecorder,
    width: usize,
    height: usize,
    cycles: u64,
    slowest: usize,
    path: &Path,
) -> Result<(), u8> {
    let report = ProfileReport::from_recorder(rec, width, height, cycles, slowest);
    if let Err(e) = std::fs::write(path, report.to_json_pretty()) {
        eprintln!("error: cannot write profile {}: {e}", path.display());
        return Err(EXIT_IO);
    }
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".trace.json");
    let trace = path.with_file_name(name);
    if let Err(e) = std::fs::write(&trace, rec.chrome_trace()) {
        eprintln!("error: cannot write trace {}: {e}", trace.display());
        return Err(EXIT_IO);
    }
    println!("profile: {} (trace: {})", path.display(), trace.display());
    Ok(())
}

/// Writes the campaign-side `--profile` artifact. The engine models latency
/// analytically — there is no cycle-level mesh inside [`GpuDevice`] — so
/// "critical path" for a campaign means the slowest measured (SM, slice)
/// pairs of the latency matrix, each decomposed against the model's ground
/// truth: mean hit cycles, floorplan wire distance, and whether the route
/// crosses a partition boundary.
fn write_campaign_profile(
    gpu: GpuChoice,
    seed: u64,
    plan: Option<&FaultPlan>,
    probe: &LatencyProbe,
    matrix: &[Vec<f64>],
    telemetry: &TelemetryHandle,
    path: &Path,
) -> Result<(), u8> {
    let dev = match device(gpu, seed, plan, telemetry) {
        Ok(dev) => dev,
        Err(msg) => {
            eprintln!("error: {msg}");
            return Err(EXIT_INVALID_INPUT);
        }
    };
    let mut cells: Vec<(f64, SmId, SliceId)> = Vec::new();
    for (i, row) in matrix.iter().enumerate() {
        let sm = SmId::new(i as u32);
        let slices = probe.visible_slices(&dev, sm);
        for (j, &lat) in row.iter().enumerate() {
            if let (true, Some(&slice)) = (lat.is_finite(), slices.get(j)) {
                cells.push((lat, sm, slice));
            }
        }
    }
    // Slowest first; ties broken by (sm, slice) so the artifact is
    // byte-identical across runs and `--jobs`.
    cells.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });
    cells.truncate(5);
    let probes: Vec<String> = cells
        .iter()
        .map(|&(lat, sm, slice)| {
            format!(
                "    {{\"sm\": {}, \"slice\": {}, \"measured_cycles\": {:.3}, \
                 \"model_hit_cycles\": {:.3}, \"wire_mm\": {:.3}, \"crosses_partition\": {}}}",
                sm.index(),
                slice.index(),
                lat,
                dev.hit_cycles_mean(sm, slice),
                dev.floorplan().wire_distance(sm, slice),
                dev.hierarchy().crosses_partition(sm, slice),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"kind\": \"campaign\",\n  \"gpu\": \"{}\",\n  \
         \"seed\": {},\n  \"slowest_probes\": [\n{}\n  ]\n}}\n",
        gpu.preset_name(),
        seed,
        probes.join(",\n")
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write profile {}: {e}", path.display());
        return Err(EXIT_IO);
    }
    println!("profile: {}", path.display());
    Ok(())
}

/// `gnoc chaos run|replay|shrink`: the fuzzing soak and its reproducer
/// tooling. Exit codes follow the documented scheme: `run` exits 1 when any
/// oracle fired; `replay` exits 1 while the recorded failure still
/// reproduces (a scriptable "is this bug fixed yet" check); unusable files
/// exit 2 (parse/config) or 3 (I/O).
fn run_chaos_action(
    action: ChaosAction,
    telemetry: &TelemetryHandle,
    pool: &WorkerPool,
    profile: Option<&Path>,
) -> u8 {
    match action {
        ChaosAction::Run {
            seeds,
            cfg,
            state,
            report,
            repro_dir,
            wall_ms,
            no_shrink,
        } => {
            let opts = ChaosOptions {
                seeds: seeds.collect(),
                state_path: state.map(PathBuf::from),
                wall_budget_ms: wall_ms,
                shrink: !no_shrink,
                repro_dir: repro_dir.map(PathBuf::from),
                jobs: pool.jobs(),
                profile: profile.map(Path::to_path_buf),
            };
            let run = match run_chaos(&cfg, &opts, telemetry) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("error: {e}");
                    return chaos_error_code(&e);
                }
            };
            let clean = print_chaos_run(&run);
            if let Some(path) = report {
                try_or_fail!(
                    run.report.save(Path::new(&path)).map_err(|e| e.to_string()),
                    EXIT_IO
                );
                println!("report: {path}");
            }
            if clean {
                EXIT_OK
            } else {
                EXIT_CHECK_FAILED
            }
        }
        ChaosAction::Replay { repro } => {
            let repro = match Reproducer::load(Path::new(&repro)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return chaos_error_code(&e);
                }
            };
            // A repro recorded with --greedy-bug must not silently "pass"
            // in a binary built without the bug-hooks feature.
            try_or_fail!(repro.config.validate().map_err(|e| e.to_string()));
            println!(
                "replaying seed {} against oracle [{}] on plan [{}]:",
                repro.seed,
                repro.oracle,
                repro.plan.summary()
            );
            let out = replay_reproducer(&repro);
            for v in &out.violations {
                println!("  VIOLATION [{}]: {}", v.oracle, v.detail);
            }
            if out.violations.iter().any(|v| v.oracle == repro.oracle) {
                println!("  recorded failure still reproduces");
                EXIT_CHECK_FAILED
            } else {
                println!("  recorded failure no longer reproduces");
                EXIT_OK
            }
        }
        ChaosAction::Shrink { repro, out } => {
            let path = repro;
            let mut repro = match Reproducer::load(Path::new(&path)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return chaos_error_code(&e);
                }
            };
            try_or_fail!(repro.config.validate().map_err(|e| e.to_string()));
            let run_device = repro.config.device.is_some();
            let fires = run_iteration(&repro.config, repro.seed, &repro.plan, run_device)
                .violations
                .iter()
                .any(|v| v.oracle == repro.oracle);
            if !fires {
                eprintln!(
                    "error: {path}: oracle [{}] no longer fires on the recorded plan; \
                     nothing to shrink",
                    repro.oracle
                );
                return EXIT_CHECK_FAILED;
            }
            let before = decompose(&repro.plan, repro.config.width, repro.config.height).len();
            repro.plan = shrink_violation(
                &repro.config,
                repro.seed,
                &repro.plan,
                repro.oracle,
                run_device,
            );
            let after = decompose(&repro.plan, repro.config.width, repro.config.height).len();
            let out_path = out.unwrap_or(path);
            repro.command = format!("gnoc chaos replay --repro {out_path}");
            try_or_fail!(
                repro.save(Path::new(&out_path)).map_err(|e| e.to_string()),
                EXIT_IO
            );
            println!(
                "{out_path}: {before} -> {after} fault atoms, oracle [{}] still fires",
                repro.oracle
            );
            EXIT_OK
        }
    }
}

/// Renders a chaos run summary; returns whether it was clean.
fn print_chaos_run(run: &ChaosRun) -> bool {
    let r = &run.report;
    println!(
        "chaos soak: {} seed(s) completed, {} violation(s), {} panic(s)",
        r.completed_seeds.len(),
        r.violations.len(),
        r.panics
    );
    let passes: Vec<String> = r
        .oracle_passes
        .iter()
        .map(|(name, count)| format!("{name} {count}"))
        .collect();
    println!(
        "  oracle passes: {}",
        if passes.is_empty() {
            "(none)".to_owned()
        } else {
            passes.join(", ")
        }
    );
    for v in &r.violations {
        println!("  VIOLATION [{}] seed {}: {}", v.oracle, v.seed, v.detail);
        if let Some(after) = v.atoms_after {
            println!("    plan shrunk: {} -> {after} fault atoms", v.atoms_before);
        }
        if let Some(path) = &v.reproducer {
            println!("    reproducer: {path}");
        }
    }
    if !run.finished {
        println!(
            "  wall budget expired: {} seed(s) pending (re-run with the same --state to resume)",
            run.pending.len()
        );
    }
    r.is_clean()
}

/// `gnoc faults gen|check`: fault-plan file tooling. `check` exits 1 when
/// the plan parses but fails validation for the given geometry, 2 for a
/// malformed file or bad flags, and 3 for I/O errors.
fn run_faults(action: FaultsAction) -> u8 {
    match action {
        FaultsAction::Gen { out, cfg } => {
            // try_generate validates every knob first, so a bad flag value
            // (e.g. --flaky-prob 1.5) is a hard error naming the field
            // instead of a silently saved invalid plan.
            let plan = try_or_fail!(FaultPlan::try_generate(&cfg).map_err(|e| e.to_string()));
            try_or_fail!(plan.save(&out).map_err(|e| e.to_string()), EXIT_IO);
            println!("{out}: {}", plan.summary());
        }
        FaultsAction::Check {
            path,
            width,
            height,
            slices,
            devices,
            topology,
        } => {
            let plan = match FaultPlan::load(&path) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return plan_error_code(&e);
                }
            };
            try_or_fail!(
                plan.validate_for_mesh(width, height)
                    .map_err(|e| format!("{path} invalid for a {width}x{height} mesh: {e}")),
                EXIT_CHECK_FAILED
            );
            if let Some(n) = slices {
                try_or_fail!(
                    plan.validate_for_slices(n)
                        .map_err(|e| format!("{path} invalid for {n} L2 slices: {e}")),
                    EXIT_CHECK_FAILED
                );
            }
            let topo = try_or_fail!(parse_topology(&topology));
            if devices >= 2 {
                try_or_fail!(
                    plan.validate_for_fabric(devices, topo).map_err(|e| format!(
                        "{path} invalid for a {devices}-device {topology} fabric: {e}"
                    )),
                    EXIT_CHECK_FAILED
                );
            } else if !plan.fabric.is_empty() {
                eprintln!(
                    "error: {path} contains fabric faults; re-check with \
                     --devices N --topology T"
                );
                return EXIT_CHECK_FAILED;
            }
            if devices >= 2 {
                println!("{path}: valid for a {width}x{height} mesh and a {devices}-device {topology} fabric");
            } else {
                println!("{path}: valid for a {width}x{height} mesh");
            }
            println!(
                "  mesh_connected: {}",
                mesh_connected(width, height, &plan.dead_undirected_edges(width, height))
            );
            if devices >= 2 {
                println!(
                    "  fabric_connected: {}",
                    fabric_connected(devices, topo, &plan)
                );
            }
            println!("  {}", plan.summary());
        }
    }
    EXIT_OK
}

/// Folds the device's per-slice profiler counts into the shared registry so
/// `--metrics` captures them (the virtual `nvprof` dump).
fn export_device_counters(dev: &GpuDevice, telemetry: &TelemetryHandle) {
    telemetry.with(|t| dev.profiler().export_metrics(&mut t.registry));
}

/// Renders a saved `--metrics` registry as aligned text tables.
fn print_stats(registry: &MetricRegistry) {
    let counters: Vec<_> = registry.counters().collect();
    if !counters.is_empty() {
        println!("counters:");
        for (name, value) in counters {
            println!("  {name:<44} {value:>14}");
        }
    }
    let gauges: Vec<_> = registry.gauges().collect();
    if !gauges.is_empty() {
        println!("gauges:");
        for (name, value) in gauges {
            println!("  {name:<44} {value:>14.4}");
        }
    }
    let hists: Vec<_> = registry.histograms().collect();
    if !hists.is_empty() {
        println!("histograms:");
        println!(
            "  {:<34} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "name", "count", "mean", "p50", "p90", "p99", "max"
        );
        for (name, h) in hists {
            println!(
                "  {:<34} {:>9} {:>9.1} {:>9.0} {:>9.0} {:>9.0} {:>9}",
                name,
                h.count(),
                h.mean().unwrap_or(0.0),
                h.quantile(0.50).unwrap_or(0.0),
                h.quantile(0.90).unwrap_or(0.0),
                h.quantile(0.99).unwrap_or(0.0),
                h.max().unwrap_or(0)
            );
        }
    }
    if registry.is_empty() {
        println!("(empty registry)");
    }
}
