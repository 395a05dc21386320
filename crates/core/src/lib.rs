//! NN-Gen: the DeepBurning accelerator generator.
//!
//! This crate ties the pipeline together: a Caffe-compatible [`Network`]
//! plus a resource [`Budget`] go in; an [`AcceleratorDesign`] comes out,
//! carrying the generated Verilog, the compiled control flow / data layout
//! and a per-block resource report.
//!
//! ```text
//! script (.prototxt)  ──►  model  ──►  compiler (folding, tiling, AGUs,
//!      constraint file ──►  NN-Gen ──►  LUTs)  ──►  RTL assembly  ──►  .v
//! ```
//!
//! # Examples
//!
//! ```
//! use deepburning_core::{generate, Budget};
//!
//! let src = r#"
//! name: "tiny"
//! layers { name: "data" type: INPUT top: "data"
//!          input_param { channels: 1 height: 12 width: 12 } }
//! layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
//!          param { num_output: 8 kernel_size: 3 stride: 1 } }
//! layers { name: "sig" type: SIGMOID bottom: "conv" top: "conv" }
//! "#;
//! let net = deepburning_model::parse_network(src)?;
//! let design = generate(&net, &Budget::Medium)?;
//! assert!(design.lint.is_clean());
//! assert!(design.verilog.contains("module tiny_accelerator"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod device;
mod resources;
mod rtl;

pub use device::{
    derive_config, derive_config_for_format, max_parallel_units, Budget, Device, Z7020, Z7045,
};
pub use resources::{
    check_fit, collect_main_patterns, collect_patterns, context_offsets, context_words,
    estimate_resources, main_slots, main_write_mask, uses_lanes, MainPattern, ResourceReport,
};
pub use rtl::{assemble_control_top, assemble_top};

use deepburning_compiler::{compile, CompileError, CompiledNetwork, CompilerConfig};
use deepburning_model::Network;
use deepburning_trace as trace;
use deepburning_verilog::{emit_design, lint_design, Design, LintReport};
use std::fmt;

/// The complete output of one NN-Gen run.
#[derive(Debug, Clone)]
pub struct AcceleratorDesign {
    /// Network name the design was generated for.
    pub network: String,
    /// The budget tier used.
    pub budget: Budget,
    /// The derived compiler configuration.
    pub config: CompilerConfig,
    /// Compiled control flow, layout, AGU programs and LUT images.
    pub compiled: CompiledNetwork,
    /// The structural netlist.
    pub design: Design,
    /// The emitted Verilog text.
    pub verilog: String,
    /// Structural lint outcome (always clean for supported networks).
    pub lint: LintReport,
    /// Per-block resource estimate.
    pub resources: ResourceReport,
    /// Whether the estimate fits the budget envelope, and the utilisation
    /// on the tightest axis.
    pub fits: (bool, f64),
}

impl AcceleratorDesign {
    /// Clock frequency of the target device.
    pub fn clock_hz(&self) -> u64 {
        self.budget.device().clock_hz
    }
}

/// Error raised by [`generate`].
#[derive(Debug)]
pub enum GenerateError {
    /// A compiler pass failed.
    Compile(CompileError),
    /// The generated RTL failed the structural lint — a generator bug
    /// surfaced to the caller rather than silently shipped. [`generate`]
    /// lints only the configuration its constraint loop keeps; the configs
    /// it discards are never assembled.
    Lint(LintReport),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::Compile(e) => write!(f, "compilation failed: {e}"),
            GenerateError::Lint(r) => write!(f, "generated RTL failed lint:\n{r}"),
        }
    }
}

impl std::error::Error for GenerateError {}

impl From<CompileError> for GenerateError {
    fn from(e: CompileError) -> Self {
        GenerateError::Compile(e)
    }
}

/// Runs the full NN-Gen flow with a budget tier.
///
/// Constraint-driven scaling: starting from the tier's configuration
/// (trimmed to what the network can use), each iteration compiles the
/// configuration and estimates its resources; while the estimate exceeds
/// the budget envelope, lanes and buffers shrink by 1/5 down to the
/// floor (one lane, 1 KiB buffers). RTL is assembled, linted and emitted
/// once, for the configuration the loop keeps — the result equals
/// [`generate_with_config`] on `design.config`.
///
/// # Errors
///
/// Returns [`GenerateError`] if compilation fails or (defensively) if the
/// assembled RTL does not lint clean.
pub fn generate(net: &Network, budget: &Budget) -> Result<AcceleratorDesign, GenerateError> {
    let _gen = trace::span("core", "core.generate");
    let mut config = initial_config(net, budget);
    loop {
        trace::counter("core", "core.constraint_iterations", 1.0);
        let candidate = evaluate(net, budget, &config)?;
        match shrink(&config) {
            Some(next) if !candidate.fits.0 => config = next,
            _ => {
                let design = build_design(net, budget, &config, candidate)?;
                trace::gauge("core", "core.lanes", f64::from(config.lanes));
                trace::gauge("core", "core.utilisation", design.fits.1);
                return Ok(design);
            }
        }
    }
}

/// The constraint loop's starting configuration: the tier's derived
/// configuration, trimmed to what `net` can use.
fn initial_config(net: &Network, budget: &Budget) -> CompilerConfig {
    let mut config = derive_config(budget, 16);
    // "Properly-scaled hardware structure": never instantiate more lanes
    // than the network can keep busy, and keep buffer headroom bounded by
    // the network's working set (a generous 4x/2x margin — hand designs
    // trim tighter, see the Custom baseline).
    config.lanes = config.lanes.min(max_parallel_units(net)).max(1);
    if let Ok(shapes) = net.infer_shapes() {
        let wb = config.word_bytes();
        let largest_blob = shapes
            .values()
            .map(|s| s.elements() as u64)
            .max()
            .unwrap_or(1)
            * wb;
        config.feature_buffer_bytes = config
            .feature_buffer_bytes
            .min((largest_blob * 4).max(4096));
    }
    if let Ok(stats) = deepburning_model::network_stats(net) {
        let wb = config.word_bytes();
        let largest_weights = stats
            .per_layer
            .iter()
            .map(|(_, s)| s.weights)
            .max()
            .unwrap_or(1)
            * wb;
        config.weight_buffer_bytes = config
            .weight_buffer_bytes
            .min((largest_weights * 2).max(4096));
    }
    config
}

/// The constraint loop's next configuration: fold harder (4/5 of the
/// lanes and of each buffer), or `None` once `config` is at the floor.
fn shrink(config: &CompilerConfig) -> Option<CompilerConfig> {
    let at_floor = config.lanes == 1
        && config.feature_buffer_bytes <= 1024
        && config.weight_buffer_bytes <= 1024;
    (!at_floor).then(|| CompilerConfig {
        lanes: (config.lanes * 4 / 5).max(1),
        feature_buffer_bytes: (config.feature_buffer_bytes * 4 / 5).max(1024),
        weight_buffer_bytes: (config.weight_buffer_bytes * 4 / 5).max(1024),
        ..*config
    })
}

/// What one constraint iteration decides on: the compiled network and
/// its resource estimate against the budget envelope.
struct Candidate {
    compiled: CompiledNetwork,
    resources: ResourceReport,
    fits: (bool, f64),
}

fn evaluate(
    net: &Network,
    budget: &Budget,
    config: &CompilerConfig,
) -> Result<Candidate, GenerateError> {
    let compiled = compile(net, config)?;
    let resources = {
        let _s = trace::span("core", "core.estimate_resources");
        estimate_resources(net, &compiled)
    };
    let fits = check_fit(&resources, &budget.envelope());
    Ok(Candidate {
        compiled,
        resources,
        fits,
    })
}

/// Assembles, lints and emits the RTL of an evaluated configuration.
fn build_design(
    net: &Network,
    budget: &Budget,
    config: &CompilerConfig,
    candidate: Candidate,
) -> Result<AcceleratorDesign, GenerateError> {
    let Candidate {
        compiled,
        resources,
        fits,
    } = candidate;
    let design = {
        let _s = trace::span("core", "core.assemble_rtl");
        assemble_top(net, &compiled)
    };
    let lint = {
        let _s = trace::span("core", "core.lint");
        lint_design(&design)
    };
    if !lint.is_clean() {
        return Err(GenerateError::Lint(lint));
    }
    let verilog = {
        let _s = trace::span("core", "core.emit_verilog");
        emit_design(&design)
    };
    if trace::active() {
        trace::counter("core", "core.verilog_bytes", verilog.len() as f64);
        trace::counter("core", "core.rtl_modules", design.modules.len() as f64);
    }
    Ok(AcceleratorDesign {
        network: net.name().to_string(),
        budget: *budget,
        config: *config,
        compiled,
        design,
        verilog,
        lint,
        resources,
        fits,
    })
}

/// Runs the NN-Gen flow with an explicit compiler configuration (used by
/// the hand-tuned "Custom" baselines and the ablation benches).
///
/// # Errors
///
/// See [`generate`].
pub fn generate_with_config(
    net: &Network,
    budget: &Budget,
    config: &CompilerConfig,
) -> Result<AcceleratorDesign, GenerateError> {
    let candidate = evaluate(net, budget, config)?;
    build_design(net, budget, config, candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_model::parse_network;
    use std::collections::BTreeMap;

    const SRC: &str = r#"
    name: "gen-test"
    layers { name: "data" type: INPUT top: "data"
             input_param { channels: 3 height: 16 width: 16 } }
    layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1"
             param { num_output: 16 kernel_size: 3 stride: 1 } }
    layers { name: "relu1" type: RELU bottom: "conv1" top: "conv1" }
    layers { name: "pool1" type: POOLING bottom: "conv1" top: "pool1"
             pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
    layers { name: "fc" type: FC bottom: "pool1" top: "fc"
             param { num_output: 10 } }
    "#;

    #[test]
    fn generate_all_tiers() {
        let net = parse_network(SRC).expect("parses");
        for budget in [Budget::Small, Budget::Medium, Budget::Large] {
            let d = generate(&net, &budget).expect("generates");
            assert!(d.lint.is_clean());
            assert!(d.fits.0, "{}: utilisation {}", budget.tag(), d.fits.1);
            assert!(d.verilog.contains("module gen_test_accelerator"));
            assert_eq!(d.clock_hz(), 100_000_000);
        }
    }

    #[test]
    fn larger_budget_more_lanes_fewer_phases() {
        let net = parse_network(SRC).expect("parses");
        let small = generate(&net, &Budget::Small).expect("generates");
        let large = generate(&net, &Budget::Large).expect("generates");
        assert!(large.config.lanes > small.config.lanes);
        assert!(large.compiled.folding.phases.len() <= small.compiled.folding.phases.len());
    }

    #[test]
    fn resource_report_nonempty() {
        let net = parse_network(SRC).expect("parses");
        let d = generate(&net, &Budget::Medium).expect("generates");
        assert!(d.resources.items.len() >= 8);
        assert!(d.resources.total.dsp >= d.config.lanes);
    }

    /// Every config the constraint loop visits, for every zoo net and tier,
    /// lints clean when assembled — `generate` itself only assembles the
    /// kept one — and `generate` equals `generate_with_config` on it.
    #[test]
    fn every_visited_config_lints_clean_and_generate_keeps_the_last() {
        use deepburning_baselines::zoo;
        let mut nets: Vec<_> = zoo::all_benchmarks();
        nets.extend([
            zoo::alexnet_micro(),
            zoo::nin_micro(),
            zoo::googlenet_slice(),
        ]);
        let mut visited = BTreeMap::new();
        for bench in &nets {
            let net = &bench.network;
            for budget in [Budget::Small, Budget::Medium, Budget::Large] {
                let mut config = initial_config(net, &budget);
                let mut iterations = 0;
                let last = loop {
                    iterations += 1;
                    let d = generate_with_config(net, &budget, &config).unwrap_or_else(|e| {
                        panic!("{}@{} {config:?}: {e}", bench.name, budget.tag())
                    });
                    assert!(d.lint.is_clean());
                    match shrink(&config) {
                        Some(next) if !d.fits.0 => config = next,
                        _ => break d,
                    }
                };
                let kept = generate(net, &budget).expect("generates");
                assert_eq!(kept.config, last.config);
                assert_eq!(kept.fits, last.fits);
                assert!(kept.verilog == last.verilog, "{}", bench.name);
                visited.insert(format!("{}@{}", bench.name, budget.tag()), iterations);
            }
        }
        assert_eq!(visited.len(), 36);
        assert_eq!(visited.values().sum::<usize>(), 63 + 24);
        assert_eq!(visited.get("GoogleNet@DB"), Some(&24), "{visited:?}");
    }

    #[test]
    fn custom_config_respected() {
        let net = parse_network(SRC).expect("parses");
        let cfg = CompilerConfig {
            lanes: 4,
            ..CompilerConfig::default()
        };
        let d = generate_with_config(&net, &Budget::Medium, &cfg).expect("generates");
        assert_eq!(d.config.lanes, 4);
        // conv1: 16 maps x 3x3 kernel = 144 parallel units on 4 lanes
        // -> 36 folds.
        assert_eq!(d.compiled.folding.layer_phases("conv1").count(), 36);
    }
}
