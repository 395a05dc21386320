//! Performance-counter observability report: runs one zoo benchmark
//! through generation and the analytic timing model, cross-checks the
//! generated `perf_counters` RTL block against the analytic counter set
//! (the fourth verification view, DESIGN.md §10), and writes:
//!
//! * `report.json` — per-layer utilisation, compute-vs-memory stall
//!   breakdown, buffer-occupancy series and roofline placement;
//! * a human-readable table on stdout.
//!
//! ```text
//! dbreport <benchmark> [--budget small|medium|large] [--out DIR]
//!          [--beat-cap N] [--engine tree|compiled] [--bench-json]
//!          [--check] [--analytic] [--timeline]
//! ```
//!
//! `--vcd FILE` streams the full-network run's control-top waveform to
//! FILE (requires the full run, so it cannot combine with `--analytic`).
//! The bytes are engine-invariant.
//!
//! By default the roofline's attained point is driven by *RTL-read*
//! counters: a full-network run (DESIGN.md §13) drives the coordinator
//! FSM across every layer and the `perf_rdata` registers are read back
//! out of the fabric, cross-checked against the fabric cycle prediction
//! within the documented slack. `--analytic` skips the full run and
//! falls back to the analytic timing model (the pre-§13 behaviour).
//!
//! `--timeline` renders the phase timeline the full run observed on the
//! control wires — per-phase durations, DRAM transactions, stall cycles,
//! log-scale p50/p95 distribution summaries and per-segment bandwidth —
//! and writes it as `timeline.json` (requires the full run, so it cannot
//! combine with `--analytic`).
//!
//! `--bench-json` additionally writes `BENCH_<name>.json` (headline
//! cycles, utilisation, stall split, RTL-read registers) — the
//! committed-baseline format the CI drift diff uses. `--check` re-parses
//! `report.json` and validates the schema plus a clean counter
//! cross-check, exiting nonzero otherwise — the CI smoke mode.
//!
//! `--history` appends the run's summary to the cross-run JSONL ledger
//! under `--history-dir` (default `bench/history/`, DESIGN.md §15) keyed
//! by `--rev` × benchmark × budget × engine, then prints the trend table
//! with rolling-window drift flags — the slow creep the ±2% point gate
//! cannot see. Use `dbhist` to inspect or check a ledger offline.

use deepburning_baselines::{pseudo_weights, zoo, Benchmark};
use deepburning_bench::{
    append_entry, attach_full_run, bench_summary_json, build_report, load_history,
    render_history_table, render_report_table, render_timeline_table, report_json, HistoryEntry,
    DRIFT_THRESHOLD, DRIFT_WINDOW,
};
use deepburning_core::{generate, Budget};
use deepburning_sim::{
    full_network_run, verify_counters, FullRunOptions, SimEngine, TimingParams, DEFAULT_BEAT_CAP,
};
use deepburning_tensor::Tensor;
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
    beat_cap: u64,
    engine: SimEngine,
    bench_json: bool,
    check: bool,
    analytic: bool,
    timeline: bool,
    history: bool,
    history_dir: PathBuf,
    rev: String,
    vcd: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        benchmark: String::new(),
        budget: Budget::Medium,
        out: PathBuf::from("target/dbreport"),
        beat_cap: DEFAULT_BEAT_CAP,
        engine: SimEngine::default(),
        bench_json: false,
        check: false,
        analytic: false,
        timeline: false,
        history: false,
        history_dir: PathBuf::from("bench/history"),
        rev: "local".to_string(),
        vcd: None,
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
            "--beat-cap" => {
                args.beat_cap = it
                    .next()
                    .ok_or("--beat-cap needs a value")?
                    .parse()
                    .map_err(|e| format!("--beat-cap: {e}"))?;
            }
            "--engine" => {
                args.engine = it.next().ok_or("--engine needs a value")?.parse()?;
            }
            "--bench-json" => args.bench_json = true,
            "--check" => args.check = true,
            "--analytic" => args.analytic = true,
            "--timeline" => args.timeline = true,
            "--history" => args.history = true,
            "--history-dir" => {
                args.history_dir = PathBuf::from(it.next().ok_or("--history-dir needs a value")?);
            }
            "--rev" => args.rev = it.next().ok_or("--rev needs a value")?,
            "--vcd" => args.vcd = Some(PathBuf::from(it.next().ok_or("--vcd needs a value")?)),
            other if args.benchmark.is_empty() && !other.starts_with('-') => {
                args.benchmark = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.benchmark.is_empty() {
        return Err("usage: dbreport <benchmark> [--budget small|medium|large] \
                    [--out DIR] [--beat-cap N] \
                    [--engine tree|compiled] \
                    [--bench-json] [--check] [--analytic] [--timeline] \
                    [--history] [--history-dir DIR] [--rev REV] [--vcd FILE]"
            .into());
    }
    if args.timeline && args.analytic {
        return Err("--timeline needs the full-network run; drop --analytic".into());
    }
    if args.vcd.is_some() && args.analytic {
        return Err("--vcd needs the full-network run; drop --analytic".into());
    }
    Ok(args)
}

/// Validates the `report.json` schema: required top-level keys, the eight
/// register-map counters, roofline and stall fields, and a clean counter
/// cross-check.
fn check_report(doc: &Json) -> Result<(), String> {
    for key in ["benchmark", "budget", "lanes", "counters", "layers"] {
        if doc.get(key).is_none() {
            return Err(format!("report.json missing `{key}`"));
        }
    }
    let counters = doc.get("counters").ok_or("missing counters")?;
    for reg in deepburning_components::PERF_REG_NAMES {
        let key = if reg == "buffer_peak" {
            "buffer_peak_words".to_string()
        } else {
            reg.to_string()
        };
        if counters.get(&key).and_then(Json::as_f64).is_none() {
            return Err(format!("report.json counters missing `{key}`"));
        }
    }
    let stalls = doc.get("stalls").ok_or("report.json missing `stalls`")?;
    for key in [
        "total_cycles",
        "active_cycles",
        "memory_bound_cycles",
        "overhead_cycles",
    ] {
        if stalls.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("report.json stalls missing `{key}`"));
        }
    }
    let roof = doc
        .get("roofline")
        .ok_or("report.json missing `roofline`")?;
    for key in [
        "intensity_ops_per_byte",
        "attained_ops_per_cycle",
        "lane_peak_ops_per_cycle",
        "dsp_peak_ops_per_cycle",
        "bandwidth_ops_per_cycle",
    ] {
        if roof.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("report.json roofline missing `{key}`"));
        }
    }
    if !matches!(
        roof.get("bound").and_then(Json::as_str),
        Some("compute") | Some("memory")
    ) {
        return Err("report.json roofline `bound` must be compute|memory".into());
    }
    match doc.get("counter_source").and_then(Json::as_str) {
        Some("rtl") => {
            if doc
                .get("rtl_counters")
                .and_then(|c| c.get("cycles"))
                .and_then(Json::as_f64)
                .is_none()
            {
                return Err("counter_source is `rtl` but `rtl_counters` is missing".into());
            }
        }
        Some("analytic") => {}
        _ => return Err("report.json `counter_source` must be rtl|analytic".into()),
    }
    let check = doc
        .get("counter_check")
        .ok_or("report.json missing `counter_check`")?;
    match check.get("clean") {
        Some(Json::Bool(true)) => Ok(()),
        Some(Json::Bool(false)) => Err("counter cross-check diverged".into()),
        _ => Err("report.json counter_check missing `clean`".into()),
    }
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

    let params = TimingParams::default();
    let design =
        generate(&bench.network, &args.budget).map_err(|e| format!("generation failed: {e}"))?;
    let mut report = build_report(bench.name, &design, &params);
    let replay_start = std::time::Instant::now();
    let check = verify_counters(
        &design.design,
        &design.compiled,
        &params,
        args.beat_cap,
        args.engine,
    )
    .map_err(|e| format!("counter cross-check failed: {e}"))?;
    let replay_elapsed = replay_start.elapsed();
    report.counter_check = Some((check.is_clean(), check.cycle_slack));
    println!(
        "counter replay: engine {} in {:.3}s",
        args.engine,
        replay_elapsed.as_secs_f64()
    );

    let mut timeline = None;
    if !args.analytic {
        // Fifth view (DESIGN.md §13): drive the coordinator FSM across
        // the whole network and read the perf registers out of the
        // fabric; the roofline's attained point then comes from
        // hardware-read counters, not the analytic model.
        let mut rng = StdRng::seed_from_u64(0xD8 ^ bench.name.len() as u64);
        let ws = pseudo_weights(&bench, &mut rng);
        let input = Tensor::from_fn(bench.network.input_shape(), |_, _, _| {
            rng.gen_range(-1.0..1.0f32)
        });
        let full_start = std::time::Instant::now();
        if let Some(parent) = args.vcd.as_ref().and_then(|p| p.parent()) {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
            }
        }
        let full = full_network_run(
            &design,
            &bench.network,
            &ws,
            &input,
            &FullRunOptions {
                engine: args.engine,
                vcd_stream: args.vcd.clone(),
                ..FullRunOptions::default()
            },
        )
        .map_err(|e| format!("full-network run failed: {e}"))?;
        if !full.is_clean() {
            for d in &full.divergences {
                eprintln!("dbreport: full-network divergence: {d}");
            }
            return Err(format!(
                "full-network run diverged ({} divergences; re-fed layers: {})",
                full.divergences.len(),
                full.refed_layers.join(", ")
            ));
        }
        println!(
            "full-network run: {} cycles ({} predicted, slack {}) in {:.3}s",
            full.cycles,
            full.predicted_cycles,
            full.cycle_slack,
            full_start.elapsed().as_secs_f64()
        );
        if let Some(p) = &full.vcd_path {
            println!("wrote {}", p.display());
        }
        attach_full_run(&mut report, &full.rtl_counters);
        if args.timeline {
            timeline = Some(full.timeline);
        }
    }

    print!("{}", render_report_table(&report));
    let timeline_doc = timeline.map(|tl| {
        print!("{}", render_timeline_table(&tl));
        tl.to_json()
    });
    if !check.is_clean() {
        for d in &check.divergences {
            eprintln!("dbreport: counter divergence: {d}");
        }
    }

    let doc = report_json(&report);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("mkdir {:?}: {e}", args.out))?;
    let report_path = args.out.join("report.json");
    std::fs::write(&report_path, doc.render())
        .map_err(|e| format!("write {report_path:?}: {e}"))?;
    println!("wrote {}", report_path.display());
    if let Some(tl) = timeline_doc {
        let tl_path = args.out.join("timeline.json");
        std::fs::write(&tl_path, tl.render()).map_err(|e| format!("write {tl_path:?}: {e}"))?;
        println!("wrote {}", tl_path.display());
    }
    if args.bench_json {
        let bench_path = args.out.join(format!("BENCH_{}.json", canon(bench.name)));
        std::fs::write(&bench_path, bench_summary_json(&report).render())
            .map_err(|e| format!("write {bench_path:?}: {e}"))?;
        println!("wrote {}", bench_path.display());
    }

    if args.history {
        // Cross-run ledger (DESIGN.md §15): append this run's flattened
        // summary and render the trend over everything recorded so far.
        // The rolling-window drift rule flags slow creep that each ±2%
        // point comparison passes; flags here are informational —
        // `dbhist check` is the CI tripwire.
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let entry = HistoryEntry::from_summary(
            &bench_summary_json(&report),
            &args.rev,
            &args.engine.to_string(),
            now,
        )?;
        let ledger = append_entry(&args.history_dir, &entry)?;
        println!(
            "history: appended rev {} to {}",
            entry.rev,
            ledger.display()
        );
        let entries = load_history(&args.history_dir, &entry.benchmark)?;
        print!(
            "{}",
            render_history_table(
                &entries,
                &entry.budget,
                &entry.engine,
                DRIFT_WINDOW,
                DRIFT_THRESHOLD,
            )
        );
    }

    if args.check {
        let text = std::fs::read_to_string(&report_path)
            .map_err(|e| format!("read back {report_path:?}: {e}"))?;
        let parsed = Json::parse(&text).map_err(|e| format!("report.json invalid: {e}"))?;
        check_report(&parsed)?;
        println!("check ok: schema valid, counter cross-check clean");
    } else if !check.is_clean() {
        return Err("counter cross-check diverged".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dbreport: {e}");
            ExitCode::FAILURE
        }
    }
}
