//! The four workloads: what set-up builds, what one op calls, and what
//! each op's record holds for the correctness checks and `sim_digest`.
//!
//! An op calls only public functions of the pipeline crates. Where the
//! called function opens no span of its own at its boundary, the op opens
//! a `bench`-category span named `<crate>.<what>` around the call
//! (`model.parse`, `tensor.init`, `sim.energy`, `sim.diff_design`);
//! `core::generate`, `sim::simulate_timing` and `sim::full_network_run`
//! open `core.generate`, `sim.timing` and `sim.full_rtl` first thing, so
//! the op relies on those.

use crate::digest::Fnv1a;
use crate::netgen;
use deepburning_baselines::{pseudo_weights, zoo, Benchmark};
use deepburning_core::{generate, AcceleratorDesign, Budget};
use deepburning_lint::Severity;
use deepburning_model::{emit_prototxt, parse_network, Network};
use deepburning_sim::{
    diff_design, full_network_run, inference_energy, simulate_timing, CounterSet, DiffOptions,
    DiffReport, EnergyParams, EnergyReport, FullRunOptions, FullRunReport, TimingParams,
    TimingReport,
};
use deepburning_tensor::{Init, Tensor, WeightSet};
use deepburning_trace as trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// prototxt → parse → generate → timing → energy over the zoo.
    GenZoo,
    /// Three-view `diff_design` over the diffcheck zoo, designs prebuilt.
    VerifyZoo,
    /// `full_network_run` on four zoo nets, designs prebuilt.
    RtlFullrun,
    /// Thousands of tiny seeded nets, generated and diffed with full RTL.
    RandomSmall,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::GenZoo,
        Workload::VerifyZoo,
        Workload::RtlFullrun,
        Workload::RandomSmall,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GenZoo => "gen-zoo",
            Workload::VerifyZoo => "verify-zoo",
            Workload::RtlFullrun => "rtl-fullrun",
            Workload::RandomSmall => "random-small",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much of each workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured op sets.
    Full,
    /// One op per zoo workload and five random designs: a schema check
    /// that runs in seconds even in a debug build.
    Smoke,
}

/// Random nets drawn per seed for `random-small`.
const RANDOM_NETS: usize = 3000;
/// Designs per `random-small` round.
const RANDOM_ROUND: usize = 100;
const RANDOM_SMOKE_NETS: usize = 5;

const TIERS: [Budget; 3] = [Budget::Small, Budget::Medium, Budget::Large];

/// A prototxt input of `gen-zoo` or `random-small`.
struct TextInput {
    label: String,
    text: String,
    budget: Budget,
    /// Seeds the op's weights and input tensor (`random-small` only).
    data_seed: u64,
}

/// A prebuilt design with its weights and input (`verify-zoo`,
/// `rtl-fullrun`).
struct DesignInput {
    label: String,
    net: Network,
    design: AcceleratorDesign,
    weights: WeightSet,
    input: Tensor,
}

enum Inputs {
    Gen(Vec<TextInput>),
    Verify(Vec<DesignInput>),
    Full(Vec<DesignInput>),
    Random(Vec<TextInput>),
}

/// Everything set-up builds for one workload; ops only read it.
pub(crate) struct Fixture {
    inputs: Inputs,
}

/// What one op returned, kept until it is recorded (outside the timed
/// region).
pub(crate) enum Output {
    /// `gen-zoo`: the design and its modelled timing and energy.
    Gen(Box<(AcceleratorDesign, TimingReport, EnergyReport)>),
    /// `verify-zoo` and `random-small`: the differential report.
    Diff(Box<DiffReport>),
    /// `rtl-fullrun`: the full-network run report.
    Full(Box<FullRunReport>),
}

/// The checked, digested summary of one op.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OpRecord {
    /// Why the op failed a check; `None` when every check passed.
    pub problem: Option<String>,
    /// FNV-1a over the op's observable outputs.
    pub digest: u64,
    /// Analytic cycles of the design, where the op models it.
    pub model_cycles: Option<u64>,
    /// Modelled energy per inference in µJ, where the op models it.
    pub model_energy_uj: Option<f64>,
}

fn label(name: &str, budget: &Budget) -> String {
    format!("{name}@{}", budget.tag())
}

/// The nets `gen-zoo` generates: the nine Table-2 nets at full size plus
/// the micro variants and the GoogleNet slice, at every tier — except
/// GoogleNet@DB, whose constraint loop walks (24 vs 23 iterations) to
/// the same floor design as GoogleNet@DB-S for another ~5 s per round.
fn gen_zoo_ops() -> Vec<(Benchmark, Budget)> {
    let mut nets = zoo::all_benchmarks();
    nets.extend([
        zoo::alexnet_micro(),
        zoo::nin_micro(),
        zoo::googlenet_slice(),
    ]);
    let mut ops = Vec::new();
    for bench in nets {
        for budget in TIERS {
            if bench.name == "GoogleNet" && budget == Budget::Medium {
                continue;
            }
            ops.push((bench.clone(), budget));
        }
    }
    ops
}

/// diffcheck's ten nets at every tier, minus GoogleNet@DB-S and
/// GoogleNet@DB: generating those two takes ~10 s of set-up, which runs
/// before every round. GoogleNet@DB-L keeps the LRN, inception and
/// classifier blocks in the op set.
fn verify_zoo_ops() -> Vec<(Benchmark, Budget)> {
    let nets = [
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
    ];
    let mut ops = Vec::new();
    for bench in nets {
        for budget in TIERS {
            if bench.name == "GoogleNet" && budget != Budget::Large {
                continue;
            }
            ops.push((bench.clone(), budget));
        }
    }
    ops
}

/// The nets whose full runs take 10^4–3·10^5 cycles; the cheapest comes
/// first because op 0 doubles as the untimed warm-up.
fn rtl_fullrun_ops() -> Vec<(Benchmark, Budget)> {
    let nets = [
        zoo::nin_micro(),
        zoo::alexnet_micro(),
        zoo::mnist(),
        zoo::cifar(),
    ];
    nets.iter()
        .flat_map(|b| TIERS.map(|t| (b.clone(), t)))
        .collect()
}

fn build_designs(ops: Vec<(Benchmark, Budget)>, seed: u64) -> Result<Vec<DesignInput>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    ops.into_iter()
        .map(|(bench, budget)| {
            let label = label(bench.name, &budget);
            let design = generate(&bench.network, &budget)
                .map_err(|e| format!("set-up: generating {label}: {e}"))?;
            let weights = pseudo_weights(&bench, &mut rng);
            let input = Tensor::from_fn(bench.network.input_shape(), |_, _, _| {
                rng.gen_range(-1.0..1.0f32)
            });
            Ok(DesignInput {
                label,
                net: bench.network,
                design,
                weights,
                input,
            })
        })
        .collect()
}

fn truncate<T>(mut v: Vec<T>, scale: Scale, smoke_len: usize) -> Vec<T> {
    if scale == Scale::Smoke {
        v.truncate(smoke_len);
    }
    v
}

impl Fixture {
    /// Builds the workload's inputs from `seed`: the same seed always
    /// builds the same inputs. `gen-zoo` has no random inputs, so its
    /// set-up ignores the seed.
    ///
    /// # Errors
    ///
    /// Returns a message when a zoo design fails to generate.
    pub(crate) fn setup(workload: Workload, seed: u64, scale: Scale) -> Result<Fixture, String> {
        let inputs = match workload {
            Workload::GenZoo => Inputs::Gen(
                truncate(gen_zoo_ops(), scale, 1)
                    .into_iter()
                    .map(|(bench, budget)| TextInput {
                        label: label(bench.name, &budget),
                        text: emit_prototxt(&bench.network),
                        budget,
                        data_seed: 0,
                    })
                    .collect(),
            ),
            Workload::VerifyZoo => {
                Inputs::Verify(build_designs(truncate(verify_zoo_ops(), scale, 1), seed)?)
            }
            Workload::RtlFullrun => {
                Inputs::Full(build_designs(truncate(rtl_fullrun_ops(), scale, 1), seed)?)
            }
            Workload::RandomSmall => {
                let count = match scale {
                    Scale::Full => RANDOM_NETS,
                    Scale::Smoke => RANDOM_SMOKE_NETS,
                };
                Inputs::Random(
                    netgen::random_nets(seed, count)
                        .into_iter()
                        .enumerate()
                        .map(|(i, text)| {
                            let budget = TIERS[i % TIERS.len()];
                            TextInput {
                                label: label(&format!("rnd{i}"), &budget),
                                text,
                                budget,
                                data_seed: seed ^ 0x5EED_DA7A_0000_0000 ^ i as u64,
                            }
                        })
                        .collect(),
                )
            }
        };
        Ok(Fixture { inputs })
    }

    /// Number of distinct ops.
    fn len(&self) -> usize {
        match &self.inputs {
            Inputs::Gen(v) | Inputs::Random(v) => v.len(),
            Inputs::Verify(v) | Inputs::Full(v) => v.len(),
        }
    }

    /// The op indices of round `round`: every op for the zoo workloads,
    /// the next [`RANDOM_ROUND`] nets (wrapping) for `random-small`.
    pub(crate) fn round(&self, round: usize) -> Vec<usize> {
        let n = self.len();
        match &self.inputs {
            Inputs::Random(_) => {
                let per = RANDOM_ROUND.min(n);
                (0..per).map(|i| (round * per + i) % n).collect()
            }
            _ => (0..n).collect(),
        }
    }

    /// `net@tier` label of op `i`.
    pub(crate) fn label(&self, i: usize) -> &str {
        match &self.inputs {
            Inputs::Gen(v) | Inputs::Random(v) => &v[i].label,
            Inputs::Verify(v) | Inputs::Full(v) => &v[i].label,
        }
    }

    /// Runs op `i`: only calls into the pipeline crates, so the caller
    /// can time exactly this.
    ///
    /// # Errors
    ///
    /// Returns the message of the first call that failed.
    pub(crate) fn run_op(&self, i: usize) -> Result<Output, String> {
        match &self.inputs {
            Inputs::Gen(v) => gen_op(&v[i]),
            Inputs::Verify(v) => {
                let d = &v[i];
                let opts = DiffOptions {
                    max_rtl_samples: 32,
                    ..DiffOptions::default()
                };
                let _s = trace::span("bench", "sim.diff_design");
                diff_design(&d.design, &d.net, &d.weights, &d.input, &opts)
                    .map(|r| Output::Diff(Box::new(r)))
                    .map_err(|e| e.to_string())
            }
            Inputs::Full(v) => {
                let d = &v[i];
                full_network_run(
                    &d.design,
                    &d.net,
                    &d.weights,
                    &d.input,
                    &FullRunOptions::default(),
                )
                .map(|r| Output::Full(Box::new(r)))
                .map_err(|e| e.to_string())
            }
            Inputs::Random(v) => random_op(&v[i]),
        }
    }
}

fn parse(text: &str) -> Result<Network, String> {
    let _s = trace::span("bench", "model.parse");
    parse_network(text).map_err(|e| e.to_string())
}

fn gen_op(inp: &TextInput) -> Result<Output, String> {
    let net = parse(&inp.text)?;
    let design = generate(&net, &inp.budget).map_err(|e| e.to_string())?;
    let timing = simulate_timing(&design.compiled, &TimingParams::default());
    let energy = {
        let _s = trace::span("bench", "sim.energy");
        inference_energy(&design, &timing, &EnergyParams::default())
    };
    Ok(Output::Gen(Box::new((design, timing, energy))))
}

fn random_op(inp: &TextInput) -> Result<Output, String> {
    let net = parse(&inp.text)?;
    let design = generate(&net, &inp.budget).map_err(|e| e.to_string())?;
    let (weights, input) = {
        let _s = trace::span("bench", "tensor.init");
        let mut rng = StdRng::seed_from_u64(inp.data_seed);
        let weights =
            WeightSet::init(&net, Init::Uniform(0.25), &mut rng).map_err(|e| e.to_string())?;
        let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
        (weights, input)
    };
    let opts = DiffOptions {
        full_rtl: true,
        ..DiffOptions::default()
    };
    let _s = trace::span("bench", "sim.diff_design");
    diff_design(&design, &net, &weights, &input, &opts)
        .map(|r| Output::Diff(Box::new(r)))
        .map_err(|e| e.to_string())
}

fn counters(h: &mut Fnv1a, c: &CounterSet) {
    h.u64(c.cycles)
        .u64(c.active_cycles)
        .u64(c.stall_cycles)
        .u64(c.mac_ops)
        .u64(c.buffer_reads)
        .u64(c.buffer_writes)
        .u64(c.agu_bursts)
        .u64(c.buffer_peak_words);
}

fn full_run(h: &mut Fnv1a, r: &FullRunReport) {
    h.u64(r.cycles)
        .u64(r.predicted_cycles)
        .u64(r.output_words as u64)
        .u64(r.divergences.len() as u64);
    counters(h, &r.rtl_counters);
    for layer in &r.refed_layers {
        h.str(layer);
    }
}

impl Output {
    /// Checks and digests the op's outputs. A clean `gen-zoo` op produced
    /// a lint-clean design with positive modelled cycles and energy; a
    /// clean diff found no divergence in any view (full RTL included) and
    /// no lint warning; a clean full run matched the chained per-layer
    /// views bit-exactly.
    pub(crate) fn record(&self, label: &str) -> OpRecord {
        let mut h = Fnv1a::default();
        h.str(label);
        let mut problems = Vec::new();
        let (mut model_cycles, mut model_energy_uj) = (None, None);
        match self {
            Output::Gen(boxed) => {
                let (design, timing, energy) = boxed.as_ref();
                let uj = energy.total_j * 1e6;
                h.u64(timing.total_cycles)
                    .f64(energy.total_j)
                    .bool(design.fits.0)
                    .f64(design.fits.1)
                    .u64(u64::from(design.config.lanes))
                    .u64(design.compiled.folding.phases.len() as u64)
                    .str(&design.verilog);
                counters(&mut h, &timing.counters);
                if !design.lint.is_clean() {
                    problems.push("structural lint not clean".to_string());
                }
                if timing.total_cycles == 0 || !(uj.is_finite() && uj > 0.0) {
                    problems.push("modelled cycles or energy not positive".to_string());
                }
                model_cycles = Some(timing.total_cycles);
                model_energy_uj = Some(uj);
            }
            Output::Diff(report) => {
                for l in &report.layers {
                    h.str(&l.layer)
                        .u64(l.rtl_checked as u64)
                        .u64(l.ref_checked as u64)
                        .u64(l.ref_skipped as u64)
                        .f64(l.max_ref_error);
                }
                h.u64(report.divergences.len() as u64);
                if let Some(c) = &report.counters {
                    counters(&mut h, &c.analytic);
                    counters(&mut h, &c.rtl);
                    h.u64(c.cycle_slack);
                    model_cycles = Some(c.analytic.cycles);
                }
                if let Some(full) = &report.full_run {
                    full_run(&mut h, full);
                }
                if let Some(first) = report.first_divergence() {
                    problems.push(format!(
                        "{} divergence(s), first: {first}",
                        report.divergences.len()
                    ));
                }
                if let Some(lint) = &report.lint {
                    let warnings = lint.count_at(Severity::Warning);
                    h.u64(lint.diagnostics.len() as u64);
                    if warnings > 0 {
                        problems.push(format!("{warnings} lint warning(s) or error(s)"));
                    }
                }
            }
            Output::Full(report) => {
                full_run(&mut h, report);
                if let Some(first) = report.divergences.first() {
                    problems.push(format!(
                        "{} divergence(s), first: {first}",
                        report.divergences.len()
                    ));
                }
            }
        }
        h.bool(problems.is_empty());
        OpRecord {
            problem: (!problems.is_empty()).then(|| problems.join("; ")),
            digest: h.finish(),
            model_cycles,
            model_energy_uj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn op_sets_have_the_documented_sizes() {
        assert_eq!(gen_zoo_ops().len(), 35);
        assert_eq!(verify_zoo_ops().len(), 28);
        assert_eq!(rtl_fullrun_ops().len(), 12);
    }

    #[test]
    fn random_rounds_wrap_over_the_net_list() {
        let f = Fixture::setup(Workload::RandomSmall, 3, Scale::Smoke).expect("set-up");
        assert_eq!(f.len(), RANDOM_SMOKE_NETS);
        assert_eq!(f.round(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(f.round(1), vec![0, 1, 2, 3, 4]);
        assert!(f.label(1).starts_with("rnd1@"));
    }

    #[test]
    fn smoke_ops_are_clean_and_deterministic() {
        for w in Workload::ALL {
            let f = Fixture::setup(w, 1, Scale::Smoke).expect("set-up");
            for i in f.round(0) {
                let a = f.run_op(i).expect("op runs").record(f.label(i));
                assert_eq!(a.problem, None, "{} {}", w.name(), f.label(i));
                let b = f.run_op(i).expect("op runs").record(f.label(i));
                assert_eq!(a, b, "{} {} is not deterministic", w.name(), f.label(i));
            }
        }
    }
}
