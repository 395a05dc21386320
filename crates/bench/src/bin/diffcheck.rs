//! Differential verification sweep: every zoo benchmark, every budget
//! tier, one quantised input through the three execution views.
//!
//! For each (network, budget) pair the accelerator is generated end to
//! end (compile → RTL → lint), then [`deepburning_sim::diff_design`]
//! runs the same input through
//!
//! * the `f32` tensor reference,
//! * the bit-true fixed-point functional simulator, and
//! * the generated block RTL on the Verilog interpreter,
//!
//! comparing functional↔RTL bit-exactly and tensor↔functional under
//! derived quantisation bounds. Any divergence is a generator bug; the
//! process exits nonzero so CI fails, and a divergence bundle (layer
//! audit JSON + VCD waveforms of the blocks the diverging layer
//! exercised) is written under `--artifacts DIR` (default
//! `target/diffcheck-artifacts`) for CI to upload.
//!
//! `--formats Q4.12,Q12.4` switches to the fixed-point-format sweep: a
//! reduced subset of tiny zoo networks is regenerated at the Small tier
//! under each QFormat override (`derive_config_for_format`) and run
//! through the same differential check, covering the quantisation
//! corners the default Q8.8 sweep never exercises. `Q<i>.<f>` means `i`
//! integer bits (sign included) and `f` fraction bits.
//!
//! `--engine tree|compiled` selects the RTL evaluation engine: the
//! levelized event-driven `CompiledSim` (default) or the tree-walking
//! `Interpreter` reference. Both produce bit-identical reports; the total
//! sweep wall time is printed per engine so CI can compare them.
//!
//! `--full-rtl` adds the fifth view: one continuous coordinator-driven
//! RTL run across every layer of the generated top, activations flowing
//! through the real `input`/`spill` memory segments, checked bit-exactly
//! against the chained per-layer RTL view (DESIGN.md §13). On a
//! divergence the run bisects by re-feeding the offending layer from
//! functional values, and the control-top waveform joins the bundle.
//!
//! `--only NAME[,NAME...]` restricts the sweep to the named zoo
//! benchmarks (the CI full-network smoke step runs a fast subset this
//! way; the nightly sweep covers the whole grid).
//!
//! Run with `--release` — the RTL view interprets elaborated netlists.

use deepburning_baselines::{pseudo_weights, zoo, Benchmark};
use deepburning_bench::write_divergence_bundle;
use deepburning_core::{derive_config_for_format, generate, generate_with_config, Budget};
use deepburning_fixed::QFormat;
use deepburning_sim::{diff_design, DiffOptions, SimEngine};
use deepburning_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::process::ExitCode;

fn benchmarks() -> Vec<Benchmark> {
    // The full Alexnet/NiN networks take minutes per tier through the
    // interpreter; the micro variants exercise the identical layer kinds
    // (the zoo sanctions the substitution for bit-true work), and the
    // GoogleNet slice adds LRN / Inception / Classifier coverage.
    vec![
        zoo::ann0(),
        zoo::ann1(),
        zoo::ann2(),
        zoo::cmac(),
        zoo::hopfield(),
        zoo::mnist(),
        zoo::cifar(),
        zoo::alexnet_micro(),
        zoo::nin_micro(),
        zoo::googlenet_slice(),
    ]
}

/// The tiny networks of the `--formats` sweep: small enough that every
/// format runs in seconds, yet together they cover conv, pooling,
/// activation-LUT and FC quantisation paths.
fn format_sweep_benchmarks() -> Vec<Benchmark> {
    vec![
        zoo::ann0(),
        zoo::ann1(),
        zoo::ann2(),
        zoo::cmac(),
        zoo::mnist(),
    ]
}

/// Parses `Q<i>.<f>` with `i` integer bits (sign included) and `f`
/// fraction bits, e.g. `Q4.12` → 16-bit word with 12 fraction bits.
fn parse_format(spec: &str) -> Result<QFormat, String> {
    let body = spec
        .trim()
        .strip_prefix(['Q', 'q'])
        .ok_or_else(|| format!("format `{spec}` must start with `Q`"))?;
    let (int, frac) = body
        .split_once('.')
        .ok_or_else(|| format!("format `{spec}` must look like Q<int>.<frac>"))?;
    let int: u32 = int
        .parse()
        .map_err(|e| format!("format `{spec}` integer bits: {e}"))?;
    let frac: u32 = frac
        .parse()
        .map_err(|e| format!("format `{spec}` fraction bits: {e}"))?;
    QFormat::new(int + frac, frac).map_err(|e| format!("format `{spec}`: {e}"))
}

struct Sweep {
    verbose: bool,
    artifacts_dir: PathBuf,
    opts: DiffOptions,
    runs: usize,
    failures: usize,
}

impl Sweep {
    fn run_one(
        &mut self,
        bench: &Benchmark,
        design: &deepburning_core::AcceleratorDesign,
        label: &str,
    ) {
        // Same seed across tiers and formats: a configuration-dependent
        // divergence then points at configuration handling, not at the
        // input.
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ bench.name.len() as u64);
        let ws = pseudo_weights(bench, &mut rng);
        let input = Tensor::from_fn(bench.network.input_shape(), |_, _, _| {
            rng.gen_range(-1.0..1.0f32)
        });
        let run_start = std::time::Instant::now();
        match diff_design(design, &bench.network, &ws, &input, &self.opts) {
            Ok(report) => {
                let elapsed = run_start.elapsed();
                self.runs += 1;
                if report.is_clean() {
                    let exact = report.rtl_checked();
                    println!(
                        "ok    {label:<24} {exact:>5} rtl-exact elements  {:>8.3}s",
                        elapsed.as_secs_f64()
                    );
                    if let Some(full) = &report.full_run {
                        println!(
                            "      full-rtl: {} cycles ({} predicted, slack {}), {} output words exact",
                            full.cycles,
                            full.predicted_cycles,
                            full.cycle_slack,
                            full.output_words
                        );
                    }
                    let blind = report.skip_audited();
                    if !blind.is_empty() {
                        println!(
                            "      {} layers skip-audited ({})",
                            blind.len(),
                            blind
                                .iter()
                                .map(|l| format!(
                                    "{}: {}",
                                    l.layer,
                                    l.skip_reason.unwrap_or("all elements near saturation")
                                ))
                                .collect::<Vec<_>>()
                                .join("; ")
                        );
                    }
                    if self.verbose {
                        print!("{report}");
                    }
                } else {
                    self.runs -= 1;
                    self.failures += 1;
                    println!("FAIL  {label:<24}");
                    print!("{report}");
                    match write_divergence_bundle(
                        &self.artifacts_dir,
                        label,
                        &bench.network,
                        &ws,
                        &input,
                        &design.compiled.luts,
                        design.compiled.config.format,
                        design.compiled.config.lanes,
                        &self.opts,
                        &report,
                    ) {
                        Ok(paths) => {
                            for p in paths {
                                println!("      wrote {}", p.display());
                            }
                        }
                        Err(e) => println!("      artifact bundle failed: {e}"),
                    }
                }
            }
            Err(e) => {
                self.failures += 1;
                println!("FAIL  {label:<24} {e}");
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let mut rest = argv.iter().skip(1);
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--verbose" | "-v" | "--full-rtl" => {}
            "--only" | "--artifacts" | "--formats" | "--engine" => {
                rest.next();
            }
            other => {
                eprintln!("diffcheck: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let verbose = argv.iter().any(|a| a == "--verbose" || a == "-v");
    let full_rtl = argv.iter().any(|a| a == "--full-rtl");
    let only: Vec<String> = argv
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| argv.get(i + 1))
        .map(|list| list.split(',').map(|s| s.trim().to_string()).collect())
        .unwrap_or_default();
    let selected = |name: &str| only.is_empty() || only.iter().any(|o| o == name);
    let artifacts_dir = argv
        .iter()
        .position(|a| a == "--artifacts")
        .and_then(|i| argv.get(i + 1))
        .map_or_else(
            || PathBuf::from("target/diffcheck-artifacts"),
            PathBuf::from,
        );
    let formats: Vec<QFormat> = match argv
        .iter()
        .position(|a| a == "--formats")
        .and_then(|i| argv.get(i + 1))
    {
        Some(list) => match list.split(',').map(parse_format).collect() {
            Ok(f) => f,
            Err(e) => {
                eprintln!("diffcheck: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Vec::new(),
    };
    let engine: SimEngine = match argv
        .iter()
        .position(|a| a == "--engine")
        .and_then(|i| argv.get(i + 1))
    {
        Some(name) => match name.parse() {
            Ok(e) => e,
            Err(e) => {
                eprintln!("diffcheck: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => SimEngine::default(),
    };
    let mut sweep = Sweep {
        verbose,
        artifacts_dir,
        opts: DiffOptions {
            max_rtl_samples: 32,
            engine,
            full_rtl,
            ..DiffOptions::default()
        },
        runs: 0,
        failures: 0,
    };
    let sweep_start = std::time::Instant::now();
    if formats.is_empty() {
        let tiers = [Budget::Small, Budget::Medium, Budget::Large];
        println!("differential check: tensor / functional / rtl views\n");
        for bench in benchmarks() {
            if !selected(bench.name) {
                continue;
            }
            for budget in &tiers {
                let label = format!("{} @ {}", bench.name, budget.tag());
                match generate(&bench.network, budget) {
                    Ok(d) => sweep.run_one(&bench, &d, &label),
                    Err(e) => {
                        println!("FAIL  {label:<24} generation: {e}");
                        sweep.failures += 1;
                    }
                }
            }
        }
    } else {
        println!("differential check: QFormat override sweep\n");
        let budget = Budget::Small;
        for format in &formats {
            for bench in format_sweep_benchmarks() {
                if !selected(bench.name) {
                    continue;
                }
                let label = format!("{} @ {}/{}", bench.name, budget.tag(), format);
                let cfg = derive_config_for_format(&budget, *format);
                match generate_with_config(&bench.network, &budget, &cfg) {
                    Ok(d) => sweep.run_one(&bench, &d, &label),
                    Err(e) => {
                        println!("FAIL  {label:<24} generation: {e}");
                        sweep.failures += 1;
                    }
                }
            }
        }
    }
    println!(
        "\nsweep wall time: {:.2}s (engine {engine})",
        sweep_start.elapsed().as_secs_f64()
    );
    println!("{} clean runs, {} failures", sweep.runs, sweep.failures);
    if sweep.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
