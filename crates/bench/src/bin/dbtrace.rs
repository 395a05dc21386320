//! End-to-end pipeline tracing: runs one zoo benchmark through
//! generation, timing simulation and the three-view differential check
//! with the instrumentation layer installed, then writes the full trace
//! artifact set:
//!
//! * `trace.json` — Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`): wall-clock compiler/generator spans, counter
//!   tracks, and the simulated schedule as a virtual timeline (one
//!   microsecond per cycle);
//! * `metrics.json` — aggregated span durations, counter totals and
//!   gauges, machine-readable;
//! * a human-readable summary on stdout.
//!
//! ```text
//! dbtrace <benchmark> [--budget small|medium|large] [--out DIR]
//!         [--rtl-samples N] [--engine tree|compiled] [--full-rtl]
//!         [--profile] [--check]
//! ```
//!
//! `--full-rtl` adds the fifth view to the traced pipeline: the
//! continuous coordinator-driven run streams its phase timeline into the
//! trace as `fullrtl.fsm` track events and `fullrtl.seg.*` bandwidth
//! counters, so the Perfetto timeline shows the simulated schedule as the
//! hardware executed it.
//!
//! `--profile` (implies `--full-rtl`) turns on the engine hot-spot
//! profiler (DESIGN.md §15) for the full-network run and writes two more
//! artifacts: `folded.txt` (folded-stack text for `flamegraph.pl` /
//! speedscope) and `profile.json` (the `ProfileReport`: ranked
//! JIT-candidate levels, partition-cut suggestions, per-opcode and
//! per-module attribution). The profile's counter tracks (`prof.*`)
//! merge into `trace.json` so Perfetto shows tape heat alongside the
//! schedule.
//!
//! `--check` re-validates the emitted trace (valid JSON, non-empty,
//! balanced spans) and asserts the metrics carry compiler-stage spans and
//! interpreter counters (plus the `sim.full_rtl` span and `fullrtl.cycles`
//! counter under `--full-rtl`), exiting nonzero otherwise — the CI smoke
//! mode.

use deepburning_baselines::{pseudo_weights, zoo, Benchmark};
use deepburning_core::{generate, Budget};
use deepburning_sim::{
    diff_design, functional_forward_all, simulate_timing, DiffOptions, SimEngine, TimingParams,
};
use deepburning_tensor::Tensor;
use deepburning_trace as trace;
use deepburning_trace::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::process::ExitCode;

fn benchmarks() -> Vec<Benchmark> {
    let mut list = zoo::all_benchmarks();
    for extra in [
        zoo::alexnet_micro(),
        zoo::nin_micro(),
        zoo::googlenet_slice(),
    ] {
        if !list.iter().any(|b| b.name == extra.name) {
            list.push(extra);
        }
    }
    list
}

/// Name matching ignores case and punctuation so `alexnet-micro` finds
/// `Alexnet(micro)` and `ann0` finds `ANN-0`.
fn canon(name: &str) -> String {
    name.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

struct Args {
    benchmark: String,
    budget: Budget,
    out: PathBuf,
    rtl_samples: usize,
    engine: SimEngine,
    full_rtl: bool,
    profile: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        benchmark: String::new(),
        budget: Budget::Medium,
        out: PathBuf::from("target/dbtrace"),
        rtl_samples: 16,
        engine: SimEngine::default(),
        full_rtl: false,
        profile: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                args.budget = match v.as_str() {
                    "small" => Budget::Small,
                    "medium" => Budget::Medium,
                    "large" => Budget::Large,
                    other => return Err(format!("unknown budget `{other}`")),
                };
            }
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--rtl-samples" => {
                args.rtl_samples = it
                    .next()
                    .ok_or("--rtl-samples needs a value")?
                    .parse()
                    .map_err(|e| format!("--rtl-samples: {e}"))?;
            }
            "--engine" => {
                args.engine = it.next().ok_or("--engine needs a value")?.parse()?;
            }
            "--full-rtl" => args.full_rtl = true,
            "--profile" => {
                // Profiling attributes the full-network run's tape, so
                // it needs the fifth view in the pipeline.
                args.profile = true;
                args.full_rtl = true;
            }
            "--check" => args.check = true,
            other if args.benchmark.is_empty() && !other.starts_with('-') => {
                args.benchmark = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.benchmark.is_empty() {
        return Err("usage: dbtrace <benchmark> [--budget small|medium|large] \
                    [--out DIR] [--rtl-samples N] \
                    [--engine tree|compiled] \
                    [--full-rtl] [--profile] [--check]"
            .into());
    }
    Ok(args)
}

/// Asserts the metrics document carries the stages the pipeline must have
/// traced: compiler spans plus functional/RTL interpreter counters, and
/// the full-network span/counters when the fifth view ran.
fn check_metrics(metrics: &Json, full_rtl: bool) -> Result<(), String> {
    let spans = metrics
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("metrics missing spans array")?;
    let mut required_spans = vec![
        "compiler.compile",
        "compiler.folding",
        "core.generate",
        "sim.timing",
    ];
    if full_rtl {
        required_spans.push("sim.full_rtl");
    }
    for required in required_spans {
        if !spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some(required))
        {
            return Err(format!("span `{required}` missing from metrics"));
        }
    }
    let counters = metrics
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("metrics missing counters object")?;
    let mut required_counters = vec!["fx.layers", "rtl.evals", "sim.timing.total_cycles"];
    if full_rtl {
        required_counters.push("fullrtl.cycles");
    }
    for required in required_counters {
        let positive = counters
            .iter()
            .find(|(n, _)| n == required)
            .and_then(|(_, v)| v.as_f64())
            .is_some_and(|v| v > 0.0);
        if !positive {
            return Err(format!("counter `{required}` missing or zero"));
        }
    }
    Ok(())
}

/// Profiler acceptance (DESIGN.md §15): the folded stacks are non-empty,
/// the `ProfileReport` attributes real work, its ranked JIT-candidate
/// prefix covers at least 80% of attributed engine ops, and the `prof.*`
/// counter tracks made it into the Chrome trace.
fn check_profile(doc: &Json, chrome: &str) -> Result<(), String> {
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("profile.json missing `{key}`"))
    };
    if num("total_evals")? <= 0.0 || num("total_ops")? <= 0.0 {
        return Err("profile.json attributes no work".into());
    }
    let coverage = num("jit_coverage")?;
    if coverage < 0.8 {
        return Err(format!(
            "profile.json jit_coverage {coverage:.3} below the 0.8 acceptance floor"
        ));
    }
    if doc
        .get("jit_candidates")
        .and_then(Json::as_arr)
        .is_none_or(<[Json]>::is_empty)
    {
        return Err("profile.json has no JIT candidates".into());
    }
    if !chrome.contains("prof.") {
        return Err("trace.json missing the merged `prof.*` counter tracks".into());
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bench = benchmarks()
        .into_iter()
        .find(|b| canon(b.name) == canon(&args.benchmark))
        .ok_or_else(|| {
            format!(
                "unknown benchmark `{}`; available: {}",
                args.benchmark,
                benchmarks()
                    .iter()
                    .map(|b| b.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;

    let tracer = trace::Tracer::new();
    let profile;
    {
        let _session = trace::install(&tracer);
        let design = generate(&bench.network, &args.budget)
            .map_err(|e| format!("generation failed: {e}"))?;
        let timing = simulate_timing(&design.compiled, &TimingParams::default());
        let mut rng = StdRng::seed_from_u64(0xD8);
        let ws = pseudo_weights(&bench, &mut rng);
        let input = Tensor::from_fn(bench.network.input_shape(), |_, _, _| {
            rng.gen_range(-1.0..1.0f32)
        });
        let cfg = &design.compiled.config;
        functional_forward_all(
            &bench.network,
            &ws,
            &input,
            &design.compiled.luts,
            cfg.format,
        )
        .map_err(|e| format!("functional run failed: {e}"))?;
        let opts = DiffOptions {
            max_rtl_samples: args.rtl_samples.max(1),
            engine: args.engine,
            full_rtl: args.full_rtl,
            profile: args.profile,
            ..DiffOptions::default()
        };
        let diff_start = std::time::Instant::now();
        let report = diff_design(&design, &bench.network, &ws, &input, &opts)
            .map_err(|e| format!("differential run failed: {e}"))?;
        let diff_elapsed = diff_start.elapsed();
        println!(
            "{} @ {}: {} phases, {} simulated cycles, {} rtl-exact elements \
             (engine {} in {:.3}s){}",
            bench.name,
            args.budget.tag(),
            design.compiled.folding.phases.len(),
            timing.total_cycles,
            report.rtl_checked(),
            args.engine,
            diff_elapsed.as_secs_f64(),
            if report.is_clean() {
                ""
            } else {
                " (DIVERGED — see report)"
            }
        );
        if let Some(full) = &report.full_run {
            println!(
                "full-rtl: {} cycles, {} timeline phases, phase p95 {} cycles",
                full.cycles,
                full.timeline.phases.len(),
                full.timeline.phase_cycles.p95(),
            );
        }
        if !report.is_clean() {
            print!("{report}");
        }
        profile = report.full_run.and_then(|f| f.profile);
        if let Some(p) = &profile {
            // Inside the session so the prof.* counter tracks land in
            // the same trace.json as the schedule timeline.
            p.emit_counters();
        }
    }

    let chrome = tracer.chrome_trace();
    let metrics = tracer.metrics();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("mkdir {:?}: {e}", args.out))?;
    let trace_path = args.out.join("trace.json");
    let metrics_path = args.out.join("metrics.json");
    std::fs::write(&trace_path, &chrome).map_err(|e| format!("write {trace_path:?}: {e}"))?;
    std::fs::write(&metrics_path, metrics.render())
        .map_err(|e| format!("write {metrics_path:?}: {e}"))?;
    println!("\n{}", tracer.summary());
    println!("wrote {} ({} events)", trace_path.display(), tracer.len());
    println!("wrote {}", metrics_path.display());

    let mut profile_doc = None;
    if args.profile {
        let p = profile
            .as_ref()
            .ok_or("--profile requested but the run returned no profile")?;
        let folded_path = args.out.join("folded.txt");
        std::fs::write(&folded_path, p.folded_stacks())
            .map_err(|e| format!("write {folded_path:?}: {e}"))?;
        let doc = p.report_json();
        let profile_path = args.out.join("profile.json");
        std::fs::write(&profile_path, doc.render())
            .map_err(|e| format!("write {profile_path:?}: {e}"))?;
        print!("\n{}", p.render_table());
        println!("wrote {}", folded_path.display());
        println!("wrote {}", profile_path.display());
        profile_doc = Some(doc);
    }

    if args.check {
        let n = trace::validate_chrome_trace(&chrome)
            .map_err(|e| format!("chrome trace invalid: {e}"))?;
        check_metrics(&metrics, args.full_rtl)?;
        if args.full_rtl && !chrome.contains("fullrtl.fsm") {
            return Err("trace.json missing the `fullrtl.fsm` timeline track".into());
        }
        if let Some(doc) = &profile_doc {
            check_profile(doc, &chrome)?;
        }
        println!("check ok: {n} trace events, required spans and counters present");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dbtrace: {e}");
            ExitCode::FAILURE
        }
    }
}
