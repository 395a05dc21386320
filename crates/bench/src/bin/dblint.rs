//! Static netlist analysis sweep: every zoo benchmark, every budget
//! tier, no simulation.
//!
//! For each (network, budget) pair the accelerator is generated end to
//! end and [`deepburning_lint::analyze`] runs the six-pass pipeline —
//! structural RTL lint, combinational-loop diagnosis, FSM reachability,
//! fixed-point range analysis, AGU bounds proof and counter/schedule
//! consistency — over the elaborated design, the compiled artifacts
//! and the pseudo-trained weights. Each run takes milliseconds, so this
//! is the cheap front line CI runs before any `diffcheck` simulation.
//!
//! * `--deny info|warn|error` (default `warn`): exit nonzero when any
//!   diagnostic reaches the threshold.
//! * `--json` emits one machine-readable document (the diagnostic schema
//!   of DESIGN.md §12) instead of text; CI uploads it on failure.
//! * `--net SUBSTR` / `--budget TAG` filter the sweep.

use deepburning_baselines::{pseudo_weights, zoo, Benchmark};
use deepburning_core::{generate, Budget};
use deepburning_lint::{analyze, Severity, WeightNorms};
use deepburning_trace::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn benchmarks() -> Vec<Benchmark> {
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

fn flag_value<'a>(argv: &'a [String], flag: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let json_out = argv.iter().any(|a| a == "--json");
    let deny = match flag_value(&argv, "--deny") {
        Some(s) => match Severity::parse(s) {
            Some(t) => t,
            None => {
                eprintln!("dblint: unknown --deny threshold `{s}` (info|warn|error)");
                return ExitCode::FAILURE;
            }
        },
        None => Severity::Warning,
    };
    let net_filter = flag_value(&argv, "--net").map(str::to_lowercase);
    let budget_filter = flag_value(&argv, "--budget").map(str::to_uppercase);
    let tiers = [Budget::Small, Budget::Medium, Budget::Large];
    let mut runs = Vec::new();
    let mut failures = 0usize;
    let mut generation_failures = 0usize;
    let start = std::time::Instant::now();
    if !json_out {
        println!("dblint: static netlist analysis (deny >= {deny})\n");
    }
    for bench in benchmarks() {
        if let Some(f) = &net_filter {
            if !bench.name.to_lowercase().contains(f) {
                continue;
            }
        }
        for budget in &tiers {
            if let Some(f) = &budget_filter {
                if budget.tag() != f {
                    continue;
                }
            }
            let label = format!("{} @ {}", bench.name, budget.tag());
            let design = match generate(&bench.network, budget) {
                Ok(d) => d,
                Err(e) => {
                    generation_failures += 1;
                    if !json_out {
                        println!("FAIL  {label:<24} generation: {e}");
                    }
                    continue;
                }
            };
            // Same seed scheme as diffcheck, so the weights the analyzer
            // proves are the weights the simulation sweep runs.
            let mut rng = StdRng::seed_from_u64(0xD1FF ^ bench.name.len() as u64);
            let ws = pseudo_weights(&bench, &mut rng);
            let run_start = std::time::Instant::now();
            let norms = WeightNorms::measure(&bench.network, &ws, design.compiled.config.format);
            let report = analyze(&design, &bench.network, Some(&norms));
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
            runs.push((bench.name.to_string(), budget.tag().to_string(), report));
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
                        ("budget", Json::str(budget.clone())),
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
    if failures == 0 && generation_failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
