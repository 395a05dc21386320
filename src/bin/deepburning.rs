//! The DeepBurning command-line tool: the paper's "one-click" flow from a
//! descriptive script to a burnable accelerator, and the checks that run
//! on what it generated.
//!
//! ```text
//! deepburning stats    NET
//! deepburning generate NET [--budget B] [--out DIR]
//! deepburning simulate NET [--budget B] [--json]
//! deepburning verify   NET [--budget B]
//! deepburning report   NET [--budget B] [--out DIR] [--bench-json] [--check]
//!                          [--analytic] [--timeline] [--vcd FILE]
//! deepburning trace    NET [--budget B] [--out DIR] [--full-rtl] [--check]
//! deepburning diff     [--only NETS] [--formats QS] [--full-rtl]
//!                      [--verbose] [--artifacts DIR]
//! deepburning lint     [--only NETS] [--budget B] [--deny info|warn|error] [--json]
//! deepburning gate     [--dir DIR]
//! deepburning history  append FILE... --rev REV [--dir DIR]
//! deepburning history  show|check NET [--budget B] [--dir DIR]
//! ```
//!
//! `NET` is a descriptive script (any existing file, read as prototxt)
//! or else a zoo name; zoo names match with case and punctuation
//! ignored, so `ann0` finds `ANN-0` and `alexnet-micro` finds
//! `Alexnet(micro)`. `B` is `small`, `medium` or `large`: the budget a
//! one-net subcommand generates for (default `medium`), the one tier
//! `lint` keeps, or the series `history` shows. `--only` keeps the named
//! nets of a sweep. A name that selects nothing, an unknown flag and a
//! flag the subcommand does not take all exit nonzero.
//!
//! * `stats` prints the network's layers, operation totals and layer
//!   categories.
//! * `generate` writes the Verilog, the LUT images and `report.txt`.
//! * `simulate` prints the timing and energy of the generated design.
//! * `verify` runs the closed loop on the design it emitted: seeded
//!   weights, biases and input go through `diff_design` with the
//!   full-network RTL run on, which adds the per-layer views, the
//!   counter replay and the static analysis to a coordinator-driven run
//!   of the real schedule, compared address by address. It takes tens of
//!   milliseconds on the small assets, about half a second on `cifar`
//!   and `mnist`, and up to three minutes on full `alexnet`.
//! * `report` cross-checks the generated `perf_counters` block against
//!   the analytic counter set (DESIGN.md §10) and writes `report.json`:
//!   per-layer utilisation, the stall split, buffer occupancy and the
//!   roofline. By default a full-network run (DESIGN.md §13) reads the
//!   counters out of the fabric; `--analytic` skips it. `--timeline`
//!   writes the phase timeline the run observed as `timeline.json`, and
//!   `--vcd FILE` streams its control-top waveform to FILE (both need
//!   the full run). `--bench-json` also writes `BENCH_<net>.json`, the
//!   committed-baseline format `gate` compares. `--check` re-parses
//!   `report.json` and validates its schema and a clean counter
//!   cross-check. The golden-output gate (`tests/golden/check.sh`) pins
//!   the sha256 of `report.json` and the VCD.
//! * `trace` runs generation, timing, the functional view and the
//!   three-view diff with the tracer installed and writes `trace.json`
//!   (Chrome trace events) and `metrics.json`. `--full-rtl` adds the
//!   full-network run, whose phase timeline streams into the trace and
//!   whose engine work lands in the `fullrtl.evals`,
//!   `fullrtl.settle_passes` and `fullrtl.nba_writes` counters.
//!   `--check` validates the trace and the spans and counters the run
//!   must have produced.
//! * `diff` is the differential sweep: every sweep net at every tier
//!   through the f32 reference, the bit-true fixed-point view and the
//!   generated block RTL on the compiled engine. Any divergence fails
//!   and writes a bundle (layer-audit JSON and VCD waveforms) under
//!   `--artifacts DIR` (default `target/diffcheck-artifacts`).
//!   `--formats Q3.12,Q11.4` regenerates the tiny nets at the small tier
//!   under each fixed-point format instead (`Q<i>.<f>`: `i` integer
//!   bits, sign excluded, and `f` fraction bits, as `QFormat` prints).
//!   `--full-rtl` adds the full-network run to every diff.
//! * `lint` is the static analysis sweep over the same grid, no
//!   simulation: it fails when a diagnostic reaches `--deny` (default
//!   `warn`); `--json` prints one document instead of text.
//! * `gate` compares the committed `BENCH_{ann0,cmac,mnist}.json` with
//!   fresh `report --bench-json` summaries under `--dir` (default
//!   `target/dbreport-baseline`) under the DESIGN.md §11 policy.
//! * `history` keeps the cross-run ledger under `--dir` (default
//!   `bench/history`, DESIGN.md §15): `append` records summaries under
//!   `--rev`, `show` prints the trend table and drift flags of one net's
//!   series at one budget, and `check` also fails on flagged drift.
//!
//! `diff`, `lint` and `verify` drive the same seeded draw (weights,
//! input and non-zero biases); `report` and `trace` drive the bias-free
//! draw the golden manifest pins ([`Draw`]).

use deepburning::baselines::{zoo, Benchmark};
use deepburning::core::{
    derive_config_for_format, generate, generate_with_config, AcceleratorDesign, Budget,
};
use deepburning::fixed::QFormat;
use deepburning::lint::{analyze, Severity, WeightNorms};
use deepburning::model::{decompose, network_stats, parse_network, Decomposition, Network};
use deepburning::sim::{
    diff_design, full_network_run, functional_forward_all, inference_energy, simulate_timing,
    verify_counters, DiffOptions, EnergyParams, FullRunOptions, TimingParams, DEFAULT_BEAT_CAP,
};
use deepburning_bench::{
    append_entry, attach_full_run, bench_summary_json, build_report, canon, detect_drift,
    gate_bench_text, load_history, render_history_table, render_report_table,
    render_timeline_table, report_json, write_divergence_bundle, Draw, GatePolicy, HistoryEntry,
    DRIFT_THRESHOLD, DRIFT_WINDOW,
};
use deepburning_trace as trace;
use deepburning_trace::json::Json;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Every net a `NET` argument or `--only` can name.
fn zoo() -> Vec<Benchmark> {
    let mut list = zoo::all_benchmarks();
    list.extend([
        zoo::alexnet_micro(),
        zoo::nin_micro(),
        zoo::googlenet_slice(),
    ]);
    list
}

/// The nets `diff` and `lint` sweep. The full Alexnet and NiN take
/// minutes per tier in the RTL view; their micro variants exercise the
/// same layer kinds, and the GoogleNet slice adds LRN, Inception and
/// the classifier.
const SWEEP: [&str; 10] = [
    "ANN-0",
    "ANN-1",
    "ANN-2",
    "CMAC",
    "Hopfield",
    "MNIST",
    "Cifar",
    "Alexnet(micro)",
    "NiN(micro)",
    "GoogleNet",
];

/// The nets of the `diff --formats` sweep: small enough that every
/// format runs in seconds, and together they cover the conv, pooling,
/// activation-LUT and FC quantisation paths.
const FORMAT_SWEEP: [&str; 5] = ["ANN-0", "ANN-1", "ANN-2", "CMAC", "MNIST"];

/// The tiers of the `diff` and `lint` sweeps.
const TIERS: [Budget; 3] = [Budget::Small, Budget::Medium, Budget::Large];

/// The nets whose `BENCH_*.json` baselines are committed.
const GATED: [&str; 3] = ["ANN-0", "CMAC", "MNIST"];

/// `diff`'s cap on RTL-sampled elements per layer; `trace` samples 16.
const DIFF_RTL_SAMPLES: usize = 32;
const TRACE_RTL_SAMPLES: usize = 16;

/// A resolved `NET`: the name reports and seeds use, and the network.
struct Net {
    name: String,
    network: Network,
}

/// Resolves a `NET` argument: a script file, or else a zoo name.
fn resolve(arg: &str) -> Result<Net, String> {
    if !Path::new(arg).is_file() {
        return zoo_net(arg);
    }
    let src = fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
    let network = parse_network(&src).map_err(|e| format!("{arg}: {e}"))?;
    Ok(Net {
        name: network.name().to_string(),
        network,
    })
}

fn zoo_net(name: &str) -> Result<Net, String> {
    let zoo = zoo();
    let bench = zoo.iter().find(|b| canon(b.name) == canon(name));
    match bench {
        Some(b) => Ok(Net {
            name: b.name.to_string(),
            network: b.network.clone(),
        }),
        None => Err(format!(
            "unknown net `{name}`: no such script, and the zoo has {}",
            zoo.iter().map(|b| b.name).collect::<Vec<_>>().join(", ")
        )),
    }
}

/// The nets of `list` that `--only` names, in `list`'s order (all of
/// `list` without `--only`). A name that matches none of `list` is an
/// error, so a filter never selects nothing.
fn select(list: &[&str], only: &[String]) -> Result<Vec<Net>, String> {
    if let Some(miss) = only
        .iter()
        .find(|o| !list.iter().any(|n| canon(n) == canon(o)))
    {
        return Err(format!("--only `{miss}` names none of {}", list.join(", ")));
    }
    list.iter()
        .filter(|n| only.is_empty() || only.iter().any(|o| canon(o) == canon(n)))
        .map(|n| zoo_net(n))
        .collect()
}

/// One subcommand: its operands, the flags it takes and its body.
struct Sub {
    name: &'static str,
    operands: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args) -> Result<(), String>,
}

const SUBS: &[Sub] = &[
    Sub {
        name: "stats",
        operands: "NET",
        flags: &[],
        run: stats,
    },
    Sub {
        name: "generate",
        operands: "NET",
        flags: &["--budget B", "--out DIR"],
        run: generate_cmd,
    },
    Sub {
        name: "simulate",
        operands: "NET",
        flags: &["--budget B", "--json"],
        run: simulate,
    },
    Sub {
        name: "verify",
        operands: "NET",
        flags: &["--budget B"],
        run: verify,
    },
    Sub {
        name: "report",
        operands: "NET",
        flags: &[
            "--budget B",
            "--out DIR",
            "--bench-json",
            "--check",
            "--analytic",
            "--timeline",
            "--vcd FILE",
        ],
        run: report,
    },
    Sub {
        name: "trace",
        operands: "NET",
        flags: &["--budget B", "--out DIR", "--full-rtl", "--check"],
        run: trace_cmd,
    },
    Sub {
        name: "diff",
        operands: "",
        flags: &[
            "--only NETS",
            "--formats QS",
            "--full-rtl",
            "--verbose",
            "--artifacts DIR",
        ],
        run: diff,
    },
    Sub {
        name: "lint",
        operands: "",
        flags: &["--only NETS", "--budget B", "--deny LEVEL", "--json"],
        run: lint,
    },
    Sub {
        name: "gate",
        operands: "",
        flags: &["--dir DIR"],
        run: gate,
    },
    Sub {
        name: "history",
        operands: "append FILE...|show NET|check NET",
        flags: &["--budget B", "--dir DIR", "--rev REV"],
        run: history,
    },
];

fn usage() -> String {
    let mut text = String::from("usage:");
    for sub in SUBS {
        let _ = write!(text, "\n  deepburning {}", sub.name);
        if !sub.operands.is_empty() {
            let _ = write!(text, " {}", sub.operands);
        }
        for flag in sub.flags {
            let _ = write!(text, " [{flag}]");
        }
    }
    text + "\nNET is a script file or a zoo name; B is small|medium|large; \
            NETS is NET[,NET...]; QS is Q<i>.<f>[,...]; LEVEL is info|warn|error"
}

/// The parsed command line, shared by every subcommand.
#[derive(Default)]
struct Args {
    operands: Vec<String>,
    budget: Option<Budget>,
    only: Vec<String>,
    formats: Vec<QFormat>,
    deny: Option<Severity>,
    rev: Option<String>,
    out: Option<PathBuf>,
    dir: Option<PathBuf>,
    artifacts: Option<PathBuf>,
    vcd: Option<PathBuf>,
    switches: Vec<&'static str>,
}

impl Args {
    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The one net of a `NET` subcommand.
    fn net(&self) -> Result<Net, String> {
        resolve(&self.operands[0])
    }

    /// The budget a one-net subcommand generates for.
    fn budget(&self) -> Budget {
        self.budget.unwrap_or(Budget::Medium)
    }

    fn out(&self, default: &str) -> PathBuf {
        self.out.clone().unwrap_or_else(|| default.into())
    }

    fn dir(&self, default: &str) -> PathBuf {
        self.dir.clone().unwrap_or_else(|| default.into())
    }
}

fn parse_budget(name: &str) -> Result<Budget, String> {
    match name {
        "small" => Ok(Budget::Small),
        "medium" => Ok(Budget::Medium),
        "large" => Ok(Budget::Large),
        other => Err(format!("unknown budget `{other}` (small|medium|large)")),
    }
}

fn comma_list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

fn parse(argv: &[String]) -> Result<(&'static Sub, Args), String> {
    let (name, rest) = argv.split_first().ok_or_else(usage)?;
    let sub = SUBS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown subcommand `{name}`\n{}", usage()))?;
    let mut args = Args::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            args.operands.push(arg.clone());
            continue;
        }
        let flag = sub
            .flags
            .iter()
            .map(|spec| spec.split(' ').next().unwrap_or(spec))
            .find(|f| *f == arg.as_str())
            .ok_or_else(|| format!("`deepburning {name}` takes no flag `{arg}`\n{}", usage()))?;
        // Each arm that calls `value` is a flag that takes one; the rest
        // are switches.
        let mut value = || match it.next() {
            Some(v) if comma_list(v).next().is_some() => Ok(v),
            _ => Err(format!("{flag} needs a value")),
        };
        match flag {
            "--budget" => args.budget = Some(parse_budget(value()?)?),
            "--only" => args.only = comma_list(value()?).map(String::from).collect(),
            "--formats" => {
                args.formats = comma_list(value()?)
                    .map(|f| f.parse::<QFormat>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--deny" => {
                let value = value()?;
                args.deny = Some(Severity::parse(value).ok_or_else(|| {
                    format!("unknown --deny threshold `{value}` (info|warn|error)")
                })?);
            }
            "--rev" => args.rev = Some(value()?.clone()),
            "--out" => args.out = Some(value()?.into()),
            "--dir" => args.dir = Some(value()?.into()),
            "--artifacts" => args.artifacts = Some(value()?.into()),
            "--vcd" => args.vcd = Some(value()?.into()),
            switch => args.switches.push(switch),
        }
    }
    let arity_ok = match sub.operands {
        "NET" => args.operands.len() == 1,
        "" => args.operands.is_empty(),
        _ => !args.operands.is_empty(),
    };
    if !arity_ok {
        return Err(format!(
            "`deepburning {name}` takes operands `{}`, got {:?}\n{}",
            sub.operands,
            args.operands,
            usage()
        ));
    }
    Ok((sub, args))
}

fn generate_for(net: &Net, budget: &Budget) -> Result<AcceleratorDesign, String> {
    generate(&net.network, budget).map_err(|e| format!("generation failed: {e}"))
}

fn write(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn mkdir(dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn stats(args: &Args) -> Result<(), String> {
    let net = args.net()?.network;
    println!("{net}");
    let stats = network_stats(&net).expect("validated network");
    println!(
        "totals: {} MACs, {} aux ops, {} LUT ops, {} weights",
        stats.total.macs, stats.total.aux_ops, stats.total.lut_ops, stats.total.weights
    );
    let d = decompose(&net);
    let uses: Vec<&str> = Decomposition::CATEGORIES
        .iter()
        .zip(d.as_flags())
        .filter(|(_, f)| *f)
        .map(|(n, _)| *n)
        .collect();
    println!("uses: {}", uses.join(", "));
    if d.recurrent {
        println!("contains recurrent paths");
    }
    Ok(())
}

fn generate_cmd(args: &Args) -> Result<(), String> {
    let design = generate_for(&args.net()?, &args.budget())?;
    let out = args.out("deepburning-out");
    mkdir(&out)?;
    let rtl = out.join(format!("{}.v", design.network));
    write(&rtl, &design.verilog)?;
    for (tag, image) in &design.compiled.luts {
        let mut body = String::new();
        for (k, v) in image.keys().iter().zip(image.values()) {
            let _ = writeln!(body, "{:04x} {:04x}", k.raw() as u16, v.raw() as u16);
        }
        write(
            &out.join(format!("lut_{}.hex", tag.replace(':', "_"))),
            body,
        )?;
    }
    let total = &design.resources.total;
    let mut report = format!(
        "network: {}\nbudget: {} on {}\nlanes: {}\nphases: {}\n\
         resources: dsp={} lut={} ff={} bram_bits={}\nfits: {} (utilisation {:.2})\n",
        design.network,
        design.budget.tag(),
        design.budget.device().name,
        design.config.lanes,
        design.compiled.folding.phases.len(),
        total.dsp,
        total.lut,
        total.ff,
        total.bram_bits,
        design.fits.0,
        design.fits.1
    );
    for (name, cost) in &design.resources.items {
        let _ = writeln!(
            report,
            "  {name}: dsp={} lut={} ff={}",
            cost.dsp, cost.lut, cost.ff
        );
    }
    write(&out.join("report.txt"), report)?;
    println!(
        "wrote {} (+ LUT images, report.txt) — lint clean: {}",
        rtl.display(),
        design.lint.is_clean()
    );
    Ok(())
}

fn simulate(args: &Args) -> Result<(), String> {
    let design = generate_for(&args.net()?, &args.budget())?;
    let timing = simulate_timing(&design.compiled, &TimingParams::default());
    let energy = inference_energy(&design, &timing, &EnergyParams::default());
    let phases = design.compiled.folding.phases.len();
    if args.has("--json") {
        let total = &design.resources.total;
        let doc = Json::obj([
            ("network", Json::str(design.network.clone())),
            ("budget", Json::str(design.budget.tag())),
            ("device", Json::str(design.budget.device().name)),
            ("lanes", Json::num(design.config.lanes as f64)),
            ("phases", Json::num(phases as f64)),
            ("cycles", Json::num(timing.total_cycles as f64)),
            ("seconds", Json::num(timing.seconds(design.clock_hz()))),
            ("energy_j", Json::num(energy.total_j)),
            ("average_power_w", Json::num(energy.average_power_w)),
            (
                "resources",
                Json::obj([
                    ("dsp", Json::num(total.dsp as f64)),
                    ("lut", Json::num(total.lut as f64)),
                    ("ff", Json::num(total.ff as f64)),
                    ("bram_bits", Json::num(total.bram_bits as f64)),
                ]),
            ),
            ("fits", Json::Bool(design.fits.0)),
        ]);
        println!("{}", doc.render());
        return Ok(());
    }
    println!(
        "{} on {} ({}): {} lanes, {phases} phases",
        design.network,
        design.budget.device().name,
        design.budget.tag(),
        design.config.lanes,
    );
    println!(
        "forward propagation: {} cycles = {:.6} s at {} MHz",
        timing.total_cycles,
        timing.seconds(design.clock_hz()),
        design.clock_hz() / 1_000_000
    );
    println!(
        "energy: {:.3} mJ total ({:.3} compute / {:.3} buffer / {:.3} dram / {:.3} static)",
        energy.total_j * 1e3,
        energy.compute_j * 1e3,
        energy.buffer_j * 1e3,
        energy.dram_j * 1e3,
        energy.static_j * 1e3
    );
    println!("average power: {:.2} W", energy.average_power_w);
    Ok(())
}

fn verify(args: &Args) -> Result<(), String> {
    let net = args.net()?;
    let design = generate_for(&net, &args.budget())?;
    let (weights, input) = Draw::Check.draw(&net.name, &net.network)?;
    let opts = DiffOptions {
        full_rtl: true,
        ..DiffOptions::default()
    };
    let report = diff_design(&design, &net.network, &weights, &input, &opts)
        .map_err(|e| format!("RTL verification FAILED: {e}"))?;
    println!(
        "{} on {} ({}): {} layers checked, {} elements RTL-exact",
        design.network,
        design.budget.device().name,
        design.budget.tag(),
        report.layers.len(),
        report.rtl_checked()
    );
    if let Some(full) = &report.full_run {
        println!(
            "full RTL run: {} cycles ({} predicted, slack {}), {} output words exact",
            full.cycles, full.predicted_cycles, full.cycle_slack, full.output_words
        );
    }
    if let Some(c) = &report.counters {
        println!(
            "perf counters: {} (cycles rtl {} vs analytic {}, slack {})",
            if c.is_clean() { "clean" } else { "DIVERGED" },
            c.rtl.cycles,
            c.analytic.cycles,
            c.cycle_slack
        );
    }
    let lint = report
        .lint
        .as_ref()
        .expect("diff_design attaches the static analysis");
    let errors = lint.count_at(Severity::Error);
    println!(
        "static analysis: {errors} error(s), {} warning(s)",
        lint.count_at(Severity::Warning) - errors
    );
    for d in lint
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
    {
        eprintln!("{d}");
    }
    for d in &report.divergences {
        eprintln!("DIVERGED: {d}");
    }
    if report.is_clean() && errors == 0 {
        Ok(())
    } else {
        Err("RTL verification FAILED".into())
    }
}

fn report(args: &Args) -> Result<(), String> {
    let (analytic, timeline) = (args.has("--analytic"), args.has("--timeline"));
    if analytic && (timeline || args.vcd.is_some()) {
        return Err("--timeline and --vcd need the full-network run; drop --analytic".into());
    }
    let net = args.net()?;
    let params = TimingParams::default();
    let design = generate_for(&net, &args.budget())?;
    let mut report = build_report(&net.name, &design, &params);
    let replay_start = Instant::now();
    let check = verify_counters(&design.design, &design.compiled, &params, DEFAULT_BEAT_CAP)
        .map_err(|e| format!("counter cross-check failed: {e}"))?;
    report.counter_check = Some((check.is_clean(), check.cycle_slack));
    println!(
        "counter replay in {:.3}s",
        replay_start.elapsed().as_secs_f64()
    );

    let mut run_timeline = None;
    if !analytic {
        // Drive the coordinator FSM across the whole network and read
        // the perf registers out of the fabric: the roofline's attained
        // point then comes from hardware-read counters.
        let (ws, input) = Draw::Report.draw(&net.name, &net.network)?;
        let full_start = Instant::now();
        let vcd_dir = args.vcd.as_ref().and_then(|p| p.parent());
        if let Some(parent) = vcd_dir.filter(|p| !p.as_os_str().is_empty()) {
            mkdir(parent)?;
        }
        let full = full_network_run(
            &design,
            &net.network,
            &ws,
            &input,
            &FullRunOptions {
                vcd_stream: args.vcd.clone(),
                ..FullRunOptions::default()
            },
        )
        .map_err(|e| format!("full-network run failed: {e}"))?;
        if !full.is_clean() {
            for d in &full.divergences {
                eprintln!("full-network divergence: {d}");
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
        if timeline {
            run_timeline = Some(full.timeline);
        }
    }

    print!("{}", render_report_table(&report));
    let timeline_doc = run_timeline.map(|tl| {
        print!("{}", render_timeline_table(&tl));
        tl.to_json()
    });
    for d in &check.divergences {
        eprintln!("counter divergence: {d}");
    }

    let out = args.out("target/dbreport");
    mkdir(&out)?;
    let report_path = out.join("report.json");
    write(&report_path, report_json(&report).render())?;
    println!("wrote {}", report_path.display());
    if let Some(tl) = timeline_doc {
        let tl_path = out.join("timeline.json");
        write(&tl_path, tl.render())?;
        println!("wrote {}", tl_path.display());
    }
    if args.has("--bench-json") {
        let bench_path = out.join(format!("BENCH_{}.json", canon(&net.name)));
        write(&bench_path, bench_summary_json(&report).render())?;
        println!("wrote {}", bench_path.display());
    }

    if args.has("--check") {
        let text = fs::read_to_string(&report_path)
            .map_err(|e| format!("read back {}: {e}", report_path.display()))?;
        let parsed = Json::parse(&text).map_err(|e| format!("report.json invalid: {e}"))?;
        check_report(&parsed)?;
        println!("check ok: schema valid, counter cross-check clean");
    } else if !check.is_clean() {
        return Err("counter cross-check diverged".into());
    }
    Ok(())
}

/// Fails unless `node` (the `what` section of a document) holds a
/// number under each of `keys`.
fn require_numbers(node: Option<&Json>, what: &str, keys: &[&str]) -> Result<(), String> {
    let node = node.ok_or_else(|| format!("{what} missing"))?;
    match keys
        .iter()
        .find(|k| node.get(k).and_then(Json::as_f64).is_none())
    {
        Some(key) => Err(format!("{what} missing `{key}`")),
        None => Ok(()),
    }
}

/// Validates the `report.json` schema: required top-level keys, the
/// eight register-map counters, roofline and stall fields, and a clean
/// counter cross-check.
fn check_report(doc: &Json) -> Result<(), String> {
    let top = ["benchmark", "budget", "lanes", "counters", "layers"];
    if let Some(key) = top.iter().find(|k| doc.get(k).is_none()) {
        return Err(format!("report.json missing `{key}`"));
    }
    let regs = deepburning::components::PERF_REG_NAMES.map(|r| {
        if r == "buffer_peak" {
            "buffer_peak_words"
        } else {
            r
        }
    });
    require_numbers(doc.get("counters"), "report.json counters", &regs)?;
    require_numbers(
        doc.get("stalls"),
        "report.json stalls",
        &[
            "total_cycles",
            "active_cycles",
            "memory_bound_cycles",
            "overhead_cycles",
        ],
    )?;
    let roof = doc.get("roofline");
    require_numbers(
        roof,
        "report.json roofline",
        &[
            "intensity_ops_per_byte",
            "attained_ops_per_cycle",
            "lane_peak_ops_per_cycle",
            "dsp_peak_ops_per_cycle",
            "bandwidth_ops_per_cycle",
        ],
    )?;
    if !matches!(
        roof.and_then(|r| r.get("bound")).and_then(Json::as_str),
        Some("compute" | "memory")
    ) {
        return Err("report.json roofline `bound` must be compute|memory".into());
    }
    match doc.get("counter_source").and_then(Json::as_str) {
        Some("rtl") => require_numbers(
            doc.get("rtl_counters"),
            "report.json rtl_counters",
            &["cycles"],
        )?,
        Some("analytic") => {}
        _ => return Err("report.json `counter_source` must be rtl|analytic".into()),
    }
    match doc.get("counter_check").and_then(|c| c.get("clean")) {
        Some(Json::Bool(true)) => Ok(()),
        Some(Json::Bool(false)) => Err("counter cross-check diverged".into()),
        _ => Err("report.json counter_check missing `clean`".into()),
    }
}

fn trace_cmd(args: &Args) -> Result<(), String> {
    let net = args.net()?;
    let budget = args.budget();
    let full_rtl = args.has("--full-rtl");
    let tracer = trace::Tracer::new();
    {
        let _session = trace::install(&tracer);
        let design = generate_for(&net, &budget)?;
        let timing = simulate_timing(&design.compiled, &TimingParams::default());
        let (ws, input) = Draw::Report.draw(&net.name, &net.network)?;
        let cfg = &design.compiled.config;
        functional_forward_all(&net.network, &ws, &input, &design.compiled.luts, cfg.format)
            .map_err(|e| format!("functional run failed: {e}"))?;
        let opts = DiffOptions {
            max_rtl_samples: TRACE_RTL_SAMPLES,
            full_rtl,
            ..DiffOptions::default()
        };
        let diff_start = Instant::now();
        let report = diff_design(&design, &net.network, &ws, &input, &opts)
            .map_err(|e| format!("differential run failed: {e}"))?;
        println!(
            "{} @ {}: {} phases, {} simulated cycles, {} rtl-exact elements \
             (in {:.3}s){}",
            net.name,
            budget.tag(),
            design.compiled.folding.phases.len(),
            timing.total_cycles,
            report.rtl_checked(),
            diff_start.elapsed().as_secs_f64(),
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
    }

    let chrome = tracer.chrome_trace();
    let metrics = tracer.metrics();
    let out = args.out("target/dbtrace");
    mkdir(&out)?;
    let trace_path = out.join("trace.json");
    let metrics_path = out.join("metrics.json");
    write(&trace_path, &chrome)?;
    write(&metrics_path, metrics.render())?;
    println!("\n{}", tracer.summary());
    println!("wrote {} ({} events)", trace_path.display(), tracer.len());
    println!("wrote {}", metrics_path.display());

    if args.has("--check") {
        let n = trace::validate_chrome_trace(&chrome)
            .map_err(|e| format!("chrome trace invalid: {e}"))?;
        check_metrics(&metrics, full_rtl)?;
        if full_rtl && !chrome.contains("fullrtl.fsm") {
            return Err("trace.json missing the `fullrtl.fsm` timeline track".into());
        }
        println!("check ok: {n} trace events, required spans and counters present");
    }
    Ok(())
}

/// Asserts the metrics document carries the stages the pipeline must
/// have traced: compiler spans plus functional/RTL engine counters, and
/// the full-network span and counters when the full run ran.
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
    let mut required_counters = vec!["fx.layers", "rtl.evals", "sim.timing.total_cycles"];
    if full_rtl {
        required_spans.push("sim.full_rtl");
        required_counters.extend(["fullrtl.cycles", "fullrtl.evals"]);
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

/// One cell of the `diff` sweep: the checked draw through `diff_design`,
/// one line per run, and a divergence bundle on failure. Returns
/// whether the run was clean.
fn diff_one(
    args: &Args,
    opts: &DiffOptions,
    net: &Net,
    design: &AcceleratorDesign,
    label: &str,
) -> bool {
    let (ws, input) = match Draw::Check.draw(&net.name, &net.network) {
        Ok(d) => d,
        Err(e) => {
            println!("FAIL  {label:<24} {e}");
            return false;
        }
    };
    let run_start = Instant::now();
    let report = match diff_design(design, &net.network, &ws, &input, opts) {
        Ok(r) => r,
        Err(e) => {
            println!("FAIL  {label:<24} {e}");
            return false;
        }
    };
    if !report.is_clean() {
        println!("FAIL  {label:<24}");
        print!("{report}");
        let artifacts = args
            .artifacts
            .clone()
            .unwrap_or_else(|| "target/diffcheck-artifacts".into());
        match write_divergence_bundle(
            &artifacts,
            label,
            &net.network,
            &ws,
            &input,
            &design.compiled.luts,
            design.compiled.config.format,
            design.compiled.config.lanes,
            opts,
            &report,
        ) {
            Ok(paths) => {
                for p in paths {
                    println!("      wrote {}", p.display());
                }
            }
            Err(e) => println!("      artifact bundle failed: {e}"),
        }
        return false;
    }
    println!(
        "ok    {label:<24} {:>5} rtl-exact elements  {:>8.3}s",
        report.rtl_checked(),
        run_start.elapsed().as_secs_f64()
    );
    if let Some(full) = &report.full_run {
        println!(
            "      full-rtl: {} cycles ({} predicted, slack {}), {} output words exact",
            full.cycles, full.predicted_cycles, full.cycle_slack, full.output_words
        );
    }
    let blind = report.skip_audited();
    if !blind.is_empty() {
        let reasons: Vec<String> = blind
            .iter()
            .map(|l| {
                let reason = l.skip_reason.unwrap_or("all elements near saturation");
                format!("{}: {reason}", l.layer)
            })
            .collect();
        println!(
            "      {} layers skip-audited ({})",
            blind.len(),
            reasons.join("; ")
        );
    }
    if args.has("--verbose") {
        print!("{report}");
    }
    true
}

fn diff(args: &Args) -> Result<(), String> {
    let opts = DiffOptions {
        max_rtl_samples: DIFF_RTL_SAMPLES,
        full_rtl: args.has("--full-rtl"),
        ..DiffOptions::default()
    };
    // Each design is generated for one (net, tier, format) cell; the
    // default sweep keeps each tier's own format.
    let (nets, tiers, formats) = if args.formats.is_empty() {
        println!("differential check: tensor / functional / rtl views\n");
        (select(&SWEEP, &args.only)?, TIERS.to_vec(), vec![None])
    } else {
        println!("differential check: QFormat override sweep\n");
        let formats = args.formats.iter().copied().map(Some).collect();
        (
            select(&FORMAT_SWEEP, &args.only)?,
            vec![Budget::Small],
            formats,
        )
    };
    let (mut clean, mut failures) = (0usize, 0usize);
    let sweep_start = Instant::now();
    for format in &formats {
        for net in &nets {
            for budget in &tiers {
                let mut label = format!("{} @ {}", net.name, budget.tag());
                let design = match format {
                    None => generate(&net.network, budget),
                    Some(f) => {
                        let _ = write!(label, "/{f}");
                        let cfg = derive_config_for_format(budget, *f);
                        generate_with_config(&net.network, budget, &cfg)
                    }
                };
                let ok = match design {
                    Ok(d) => diff_one(args, &opts, net, &d, &label),
                    Err(e) => {
                        println!("FAIL  {label:<24} generation: {e}");
                        false
                    }
                };
                if ok {
                    clean += 1;
                } else {
                    failures += 1;
                }
            }
        }
    }
    println!(
        "\nsweep wall time: {:.2}s",
        sweep_start.elapsed().as_secs_f64()
    );
    println!("{clean} clean runs, {failures} failures");
    match failures {
        0 => Ok(()),
        n => Err(format!("{n} of {} runs failed", clean + n)),
    }
}

fn lint(args: &Args) -> Result<(), String> {
    let nets = select(&SWEEP, &args.only)?;
    let deny = args.deny.unwrap_or(Severity::Warning);
    let json_out = args.has("--json");
    let mut runs = Vec::new();
    let (mut failures, mut generation_failures) = (0usize, 0usize);
    let start = Instant::now();
    if !json_out {
        println!("dblint: static netlist analysis (deny >= {deny})\n");
    }
    for net in &nets {
        let tiers = args.budget.map_or(TIERS.to_vec(), |b| vec![b]);
        for budget in tiers {
            let label = format!("{} @ {}", net.name, budget.tag());
            let design = match generate(&net.network, &budget) {
                Ok(d) => d,
                Err(e) => {
                    generation_failures += 1;
                    if !json_out {
                        println!("FAIL  {label:<24} generation: {e}");
                    }
                    continue;
                }
            };
            // The checked draw: the weights the analyzer proves are the
            // weights `diff` simulates.
            let (ws, _) = Draw::Check.draw(&net.name, &net.network)?;
            let run_start = Instant::now();
            let norms = WeightNorms::measure(&net.network, &ws, design.compiled.config.format);
            let report = analyze(&design, &net.network, Some(&norms));
            let denied = report.count_at(deny);
            if denied > 0 {
                failures += 1;
            }
            if !json_out {
                let chain = report.proofs.iter().filter(|p| p.chain_proven).count();
                println!(
                    "{}  {label:<24} {:>3} diagnostics  {:>2}/{:<2} layers chain-proven  {:>7.1}ms",
                    if denied == 0 { "ok  " } else { "FAIL" },
                    report.diagnostics.len(),
                    chain,
                    report.proofs.len(),
                    run_start.elapsed().as_secs_f64() * 1e3
                );
                for d in report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity >= deny || denied == 0)
                {
                    println!("      {d}");
                }
            }
            runs.push((net.name.clone(), budget.tag(), report));
        }
    }
    if json_out {
        let doc = Json::obj([
            ("deny", Json::str(deny.name())),
            (
                "runs",
                Json::arr(runs.iter().map(|(net, budget, report)| {
                    Json::obj([
                        ("network", Json::str(net.clone())),
                        ("budget", Json::str(*budget)),
                        ("clean", Json::Bool(report.is_clean_at(deny))),
                        ("report", report.to_json()),
                    ])
                })),
            ),
            ("failures", Json::num(failures as f64)),
            ("generation_failures", Json::num(generation_failures as f64)),
        ]);
        println!("{}", doc.render());
    } else {
        println!(
            "\n{} runs analyzed in {:.2}s, {} denied at >= {deny}, {} generation failures",
            runs.len(),
            start.elapsed().as_secs_f64(),
            failures,
            generation_failures
        );
    }
    if failures + generation_failures == 0 {
        Ok(())
    } else {
        Err(format!(
            "{failures} run(s) denied at >= {deny}, {generation_failures} generation failure(s)"
        ))
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn gate(args: &Args) -> Result<(), String> {
    let fresh_dir = args.dir("target/dbreport-baseline");
    let mut failures = 0usize;
    for net in GATED {
        let file = format!("BENCH_{}.json", canon(net));
        let read = |p: PathBuf| fs::read_to_string(&p).map_err(|e| format!("{p:?}: {e}"));
        let verdict = read(PathBuf::from(&file)).and_then(|b| {
            read(fresh_dir.join(&file))
                .and_then(|f| gate_bench_text(&b, &f, &GatePolicy::default()))
        });
        match verdict {
            Ok(v) if v.is_empty() => println!("ok    {file}"),
            Ok(v) => {
                failures += 1;
                println!("FAIL  {file}");
                for m in v {
                    println!("      {m}");
                }
            }
            Err(e) => {
                failures += 1;
                println!("FAIL  {file}: {e}");
            }
        }
    }
    if failures > 0 {
        return Err(format!(
            "{failures} baseline(s) regressed — if intentional, commit with \
             [bench-reset] and refresh the BENCH_*.json files"
        ));
    }
    println!("bench gate clean: {} baselines held", GATED.len());
    Ok(())
}

fn history(args: &Args) -> Result<(), String> {
    let dir = args.dir("bench/history");
    let (action, operands) = args.operands.split_first().expect("history has operands");
    if (action == "append" && args.budget.is_some()) || (action != "append" && args.rev.is_some()) {
        return Err("--rev is for `history append`, --budget for `history show|check`".into());
    }
    if action == "append" {
        let rev = args
            .rev
            .as_deref()
            .ok_or("history append needs --rev REV")?;
        if operands.is_empty() {
            return Err("history append needs a BENCH_*.json file".into());
        }
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        for file in operands {
            let entry = HistoryEntry::from_summary(&read_json(Path::new(file))?, rev, now)?;
            let ledger = append_entry(&dir, &entry)?;
            println!(
                "appended {} x {} @ {} -> {}",
                entry.benchmark,
                entry.budget,
                entry.rev,
                ledger.display()
            );
        }
        return Ok(());
    }
    if !(action == "show" || action == "check") || operands.len() != 1 {
        return Err(format!(
            "unknown history operands {:?}\n{}",
            args.operands,
            usage()
        ));
    }
    let net = resolve(&operands[0])?;
    let budget = args.budget().tag();
    let entries = load_history(&dir, &net.name)?;
    if entries.is_empty() {
        let missing = format!(
            "no ledger for {} under {} (run `deepburning history append` first)",
            net.name,
            dir.display()
        );
        // A check over no series would pass without checking anything.
        if action == "check" {
            return Err(missing);
        }
        println!("{missing}");
        return Ok(());
    }
    println!("== {} ==", net.name);
    print!(
        "{}",
        render_history_table(&entries, budget, DRIFT_WINDOW, DRIFT_THRESHOLD)
    );
    let drifts = detect_drift(&entries, budget, DRIFT_WINDOW, DRIFT_THRESHOLD).len();
    if action == "check" && drifts > 0 {
        return Err(format!(
            "{drifts} metric(s) drifted beyond the rolling window threshold \
             — investigate or reset the ledger alongside a [bench-reset]"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (sub, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("deepburning: {e}");
            return ExitCode::FAILURE;
        }
    };
    match (sub.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("deepburning {}: {e}", sub.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv).map(|(_, args)| args)
    }

    #[test]
    fn formats_use_the_qformat_notation() {
        let args = parse_line("diff --formats Q7.8,Q3.12").expect("parses");
        assert_eq!(args.formats[0].total_bits(), 16);
        assert_eq!(args.formats[0].frac_bits(), 8);
        assert_eq!(args.formats[1].to_string(), "Q3.12");
    }

    #[test]
    fn flags_are_checked_per_subcommand() {
        assert!(parse_line("lint --bogus").is_err());
        assert!(parse_line("lint --vcd x.vcd").is_err());
        assert!(parse_line("lint --budget huge").is_err());
        assert!(parse_line("diff --budget small").is_err());
        assert!(parse_line("verify").is_err());
        assert!(parse_line("lint mnist").is_err());
        assert!(parse_line("lint --only ,").is_err());
        assert!(parse_line("lint --only mnist --budget small --deny error --json").is_ok());
    }

    #[test]
    fn a_flag_takes_a_value_exactly_when_its_usage_names_one() {
        for sub in SUBS {
            for spec in sub.flags {
                let flag = spec.split(' ').next().expect("a flag");
                let err = parse_line(&format!("{} {flag}", sub.name)).err();
                let consumed = err.is_some_and(|e| e.contains("needs a value"));
                assert_eq!(consumed, spec.contains(' '), "{} {spec}", sub.name);
            }
        }
    }

    #[test]
    fn selection_matches_canonical_names_and_never_selects_nothing() {
        let nets = select(&SWEEP, &["mnist".into(), "alexnet-micro".into()]).expect("selects");
        let names: Vec<&str> = nets.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["MNIST", "Alexnet(micro)"]);
        assert!(select(&FORMAT_SWEEP, &["hopfield".into()]).is_err());
        assert_eq!(select(&SWEEP, &[]).expect("selects").len(), SWEEP.len());
        for name in SWEEP.iter().chain(&FORMAT_SWEEP).chain(&GATED) {
            assert!(zoo_net(name).is_ok(), "{name} is not a zoo net");
        }
    }
}
