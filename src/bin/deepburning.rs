//! The DeepBurning command-line tool: the paper's "one-click" flow from a
//! descriptive script to a burnable accelerator.
//!
//! ```text
//! deepburning report   <script.prototxt>
//! deepburning generate <script.prototxt> [--budget small|medium|large] [--out DIR]
//! deepburning simulate <script.prototxt> [--budget small|medium|large]
//! deepburning verify   <script.prototxt> [--budget small|medium|large]
//! ```
//!
//! `verify` runs the closed loop on the design it emitted: seeded weights
//! and a seeded input go through `diff_design` with the full-network RTL
//! run on, which adds the per-layer views, the counter replay and the
//! static analysis to a coordinator-driven run of the real schedule,
//! compared address by address. It exits nonzero on any divergence or
//! analysis error. It takes tens of milliseconds on the small assets,
//! about half a second on `cifar` and `mnist`, and up to three minutes
//! on full `alexnet`.

use deepburning::core::{generate, Budget};
use deepburning::lint::Severity;
use deepburning::model::{decompose, network_stats, parse_network, Network};
use deepburning::sim::{
    diff_design, inference_energy, simulate_timing, DiffOptions, EnergyParams, TimingParams,
};
use deepburning::tensor::{Init, Tensor, WeightSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    command: String,
    script: PathBuf,
    budget: Budget,
    out: PathBuf,
    json: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: deepburning <report|generate|simulate|verify> <script.prototxt> \
         [--budget small|medium|large] [--out DIR] [--json]"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let script = PathBuf::from(argv.next().ok_or_else(usage)?);
    let mut budget = Budget::Medium;
    let mut out = PathBuf::from("deepburning-out");
    let mut json = false;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--json" => json = true,
            "--budget" => {
                budget = match argv.next().as_deref() {
                    Some("small") => Budget::Small,
                    Some("medium") => Budget::Medium,
                    Some("large") => Budget::Large,
                    other => {
                        eprintln!("unknown budget {other:?}");
                        return Err(ExitCode::FAILURE);
                    }
                };
            }
            "--out" => {
                out = PathBuf::from(argv.next().ok_or_else(usage)?);
            }
            other => {
                eprintln!("unknown flag `{other}`");
                return Err(usage());
            }
        }
    }
    Ok(Args {
        command,
        script,
        budget,
        out,
        json,
    })
}

fn load(script: &Path) -> Result<Network, ExitCode> {
    let src = fs::read_to_string(script).map_err(|e| {
        eprintln!("cannot read {}: {e}", script.display());
        ExitCode::FAILURE
    })?;
    parse_network(&src).map_err(|e| {
        eprintln!("{}: {e}", script.display());
        ExitCode::FAILURE
    })
}

fn cmd_report(net: &Network) -> ExitCode {
    println!("{net}");
    let stats = network_stats(net).expect("validated network");
    println!(
        "totals: {} MACs, {} aux ops, {} LUT ops, {} weights",
        stats.total.macs, stats.total.aux_ops, stats.total.lut_ops, stats.total.weights
    );
    let d = decompose(net);
    let flags: Vec<String> = deepburning::model::Decomposition::CATEGORIES
        .iter()
        .zip(d.as_flags())
        .filter(|(_, f)| *f)
        .map(|(n, _)| n.to_string())
        .collect();
    println!("uses: {}", flags.join(", "));
    if d.recurrent {
        println!("contains recurrent paths");
    }
    ExitCode::SUCCESS
}

fn cmd_generate(net: &Network, budget: &Budget, out: &Path) -> ExitCode {
    let design = match generate(net, budget) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = fs::create_dir_all(out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let rtl = out.join(format!("{}.v", design.network));
    if fs::write(&rtl, &design.verilog).is_err() {
        eprintln!("cannot write {}", rtl.display());
        return ExitCode::FAILURE;
    }
    for (tag, image) in &design.compiled.luts {
        let path = out.join(format!("lut_{}.hex", tag.replace(':', "_")));
        let mut body = String::new();
        for (k, v) in image.keys().iter().zip(image.values()) {
            body.push_str(&format!("{:04x} {:04x}\n", k.raw() as u16, v.raw() as u16));
        }
        let _ = fs::write(path, body);
    }
    let mut report = String::new();
    let _ = writeln!(report, "network: {}", design.network);
    let _ = writeln!(
        report,
        "budget: {} on {}",
        design.budget.tag(),
        design.budget.device().name
    );
    let _ = writeln!(report, "lanes: {}", design.config.lanes);
    let _ = writeln!(report, "phases: {}", design.compiled.folding.phases.len());
    let _ = writeln!(
        report,
        "resources: dsp={} lut={} ff={} bram_bits={}",
        design.resources.total.dsp,
        design.resources.total.lut,
        design.resources.total.ff,
        design.resources.total.bram_bits
    );
    let _ = writeln!(
        report,
        "fits: {} (utilisation {:.2})",
        design.fits.0, design.fits.1
    );
    for (name, cost) in &design.resources.items {
        let _ = writeln!(
            report,
            "  {name}: dsp={} lut={} ff={}",
            cost.dsp, cost.lut, cost.ff
        );
    }
    let _ = fs::write(out.join("report.txt"), report);
    println!(
        "wrote {} (+ LUT images, report.txt) — lint clean: {}",
        rtl.display(),
        design.lint.is_clean()
    );
    ExitCode::SUCCESS
}

fn cmd_simulate(net: &Network, budget: &Budget, json: bool) -> ExitCode {
    let design = match generate(net, budget) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let timing = simulate_timing(&design.compiled, &TimingParams::default());
    let energy = inference_energy(&design, &timing, &EnergyParams::default());
    if json {
        // Hand-rolled JSON keeps the dependency set minimal.
        println!("{{");
        println!("  \"network\": \"{}\",", design.network);
        println!("  \"budget\": \"{}\",", design.budget.tag());
        println!("  \"device\": \"{}\",", design.budget.device().name);
        println!("  \"lanes\": {},", design.config.lanes);
        println!("  \"phases\": {},", design.compiled.folding.phases.len());
        println!("  \"cycles\": {},", timing.total_cycles);
        println!("  \"seconds\": {:.9},", timing.seconds(design.clock_hz()));
        println!("  \"energy_j\": {:.9},", energy.total_j);
        println!("  \"average_power_w\": {:.4},", energy.average_power_w);
        println!(
            "  \"resources\": {{ \"dsp\": {}, \"lut\": {}, \"ff\": {}, \"bram_bits\": {} }},",
            design.resources.total.dsp,
            design.resources.total.lut,
            design.resources.total.ff,
            design.resources.total.bram_bits
        );
        println!("  \"fits\": {}", design.fits.0);
        println!("}}");
        return ExitCode::SUCCESS;
    }
    println!(
        "{} on {} ({}): {} lanes, {} phases",
        design.network,
        design.budget.device().name,
        design.budget.tag(),
        design.config.lanes,
        design.compiled.folding.phases.len()
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
    ExitCode::SUCCESS
}

/// Seed of the weights and input `verify` drives through the design.
const VERIFY_SEED: u64 = 0xD1FF;

fn cmd_verify(net: &Network, budget: &Budget) -> ExitCode {
    let design = match generate(net, budget) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rng = StdRng::seed_from_u64(VERIFY_SEED);
    let weights = match WeightSet::init(net, Init::Uniform(0.25), &mut rng) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("weight initialisation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
    let opts = DiffOptions {
        full_rtl: true,
        ..DiffOptions::default()
    };
    let report = match diff_design(&design, net, &weights, &input, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("RTL verification FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
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
        ExitCode::SUCCESS
    } else {
        eprintln!("RTL verification FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let net = match load(&args.script) {
        Ok(n) => n,
        Err(code) => return code,
    };
    match args.command.as_str() {
        "report" => cmd_report(&net),
        "generate" => cmd_generate(&net, &args.budget, &args.out),
        "simulate" => cmd_simulate(&net, &args.budget, args.json),
        "verify" => cmd_verify(&net, &args.budget),
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}
