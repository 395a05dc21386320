//! Simulators for generated DeepBurning accelerators.
//!
//! Four views of one design:
//!
//! * [`simulate_timing`] — transaction-level cycle simulation of the folded
//!   schedule (replaces the paper's Vivado RTL timing simulation);
//! * [`simulate_energy`] — event-based energy accounting (replaces board
//!   power measurement);
//! * [`functional_forward`] — bit-true fixed-point execution through the
//!   compiler's Approx LUT images (drives the Fig. 10 accuracy experiment);
//! * [`verify_counters`] — replays the compiled schedule into the generated
//!   `perf_counters` RTL block and cross-checks the hardware counters
//!   against the analytic [`CounterSet`] (DESIGN.md §10).
//!
//! # Examples
//!
//! ```
//! use deepburning_core::{generate, Budget};
//! use deepburning_sim::{simulate_timing, TimingParams};
//!
//! let src = r#"
//! layers { name: "data" type: INPUT top: "data"
//!          input_param { channels: 1 height: 12 width: 12 } }
//! layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
//!          param { num_output: 8 kernel_size: 3 stride: 1 } }
//! "#;
//! let net = deepburning_model::parse_network(src)?;
//! let design = generate(&net, &Budget::Medium)?;
//! let timing = simulate_timing(&design.compiled, &TimingParams::default());
//! assert!(timing.total_cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod counters;
mod diff;
mod energy;
mod fullrun;
mod functional;
mod timing;

pub use counters::{verify_counters, CounterCheck, DEFAULT_BEAT_CAP};
pub use deepburning_verilog::{FlightRecorder, FlightWindow, Simulator};
pub use diff::{
    capture_layer_vcd, counter_set_json, diff_design, diff_network, diff_report_json, DiffError,
    DiffOptions, DiffReport, Divergence, LayerAudit, RtlModuleStats, View,
};
pub use energy::{inference_energy, simulate_energy, EnergyParams, EnergyReport};
pub use fullrun::{
    full_network_run, full_network_run_to_sink, FullRunOptions, FullRunReport, PhaseSlice,
    RunTimeline, SegmentTraffic, CYCLE_SLACK_PER_PHASE, DEFAULT_FLIGHT_DEPTH,
    PHASE_HANDSHAKE_CYCLES,
};
pub use functional::{functional_forward, functional_forward_all, FunctionalError};
pub use timing::{
    aggregate_by_layer, forward_latency, simulate_folding, simulate_timing, CounterSet, DramPacer,
    PhaseTiming, TimingParams, TimingReport,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use deepburning_compiler::{compile, CompilerConfig};
    use deepburning_model::{ConvParam, FullParam, Layer, LayerKind, Network};
    use proptest::prelude::*;

    fn arb_net() -> impl Strategy<Value = Network> {
        (1usize..4, 8usize..20, 4usize..48, 2usize..5).prop_map(|(ci, ext, co, k)| {
            let k = k.min(ext);
            Network::from_layers(
                "gen",
                vec![
                    Layer::input("data", "data", ci, ext, ext),
                    Layer::new(
                        "conv",
                        LayerKind::Convolution(ConvParam::new(co, k, 1)),
                        "data",
                        "conv",
                    ),
                    Layer::new(
                        "fc",
                        LayerKind::FullConnection(FullParam::dense(8)),
                        "conv",
                        "fc",
                    ),
                ],
            )
            .expect("valid")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn timing_monotone_in_lanes(net in arb_net(), lanes in 2u32..64) {
            let base = compile(&net, &CompilerConfig { lanes, ..CompilerConfig::default() })
                .expect("compiles");
            let doubled = compile(&net, &CompilerConfig { lanes: lanes * 2, ..CompilerConfig::default() })
                .expect("compiles");
            let p = TimingParams::default();
            let t1 = simulate_timing(&base, &p).total_cycles;
            let t2 = simulate_timing(&doubled, &p).total_cycles;
            prop_assert!(t2 <= t1, "doubling lanes must not slow down: {t1} -> {t2}");
        }

        #[test]
        fn energy_positive_and_consistent(net in arb_net(), lanes in 2u32..64) {
            let c = compile(&net, &CompilerConfig { lanes, ..CompilerConfig::default() })
                .expect("compiles");
            let t = simulate_timing(&c, &TimingParams::default());
            let r = simulate_energy(
                &c, &t,
                &deepburning_components::ResourceCost::logic(lanes, 1000 * lanes, 500),
                100_000_000,
                &EnergyParams::default(),
            );
            prop_assert!(r.total_j > 0.0);
            prop_assert!(r.compute_j > 0.0);
            let sum = r.compute_j + r.buffer_j + r.dram_j + r.static_j;
            prop_assert!((sum - r.total_j).abs() < r.total_j * 1e-9);
        }

        #[test]
        fn double_buffering_never_hurts(net in arb_net()) {
            let c = compile(&net, &CompilerConfig::default()).expect("compiles");
            let on = simulate_timing(&c, &TimingParams::default()).total_cycles;
            let off = simulate_timing(&c, &TimingParams {
                double_buffering: false, ..TimingParams::default()
            }).total_cycles;
            prop_assert!(on <= off);
        }
    }
}

#[cfg(test)]
mod diff_proptests {
    use super::*;
    use deepburning_compiler::{generate_luts, CompilerConfig};
    use deepburning_model::{
        Activation, ConvParam, FullParam, Layer, LayerKind, Network, PoolMethod, PoolParam,
    };
    use deepburning_tensor::{Init, Tensor, WeightSet};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Randomised small networks covering the datapath block family:
    /// conv → (relu | sigmoid | tanh | none) → (max | avg | no pool) → fc,
    /// with randomised shapes, kernels and strides.
    fn arb_diff_net() -> impl Strategy<Value = Network> {
        (
            1usize..3,  // input channels
            6usize..12, // input extent
            2usize..6,  // conv outputs
            2usize..4,  // conv kernel
            0usize..4,  // activation selector
            0usize..3,  // pooling selector
        )
            .prop_map(|(ci, ext, co, k, act, pool)| {
                let k = k.min(ext);
                let mut layers = vec![
                    Layer::input("data", "data", ci, ext, ext),
                    Layer::new(
                        "conv",
                        LayerKind::Convolution(ConvParam::new(co, k, 1)),
                        "data",
                        "conv",
                    ),
                ];
                let mut last = "conv";
                match act {
                    1 => layers.push(Layer::new(
                        "act",
                        LayerKind::Activation(Activation::Relu),
                        last,
                        last,
                    )),
                    2 => layers.push(Layer::new(
                        "act",
                        LayerKind::Activation(Activation::Sigmoid),
                        last,
                        last,
                    )),
                    3 => layers.push(Layer::new(
                        "act",
                        LayerKind::Activation(Activation::Tanh),
                        last,
                        last,
                    )),
                    _ => {}
                }
                let pooled_ext = ext - k + 1;
                if pool > 0 && pooled_ext >= 2 {
                    let method = if pool == 1 {
                        PoolMethod::Max
                    } else {
                        PoolMethod::Average
                    };
                    layers.push(Layer::new(
                        "pool",
                        LayerKind::Pooling(PoolParam {
                            method,
                            kernel_size: 2,
                            stride: 2,
                        }),
                        last,
                        "pool",
                    ));
                    last = "pool";
                }
                layers.push(Layer::new(
                    "fc",
                    LayerKind::FullConnection(FullParam::dense(5)),
                    last,
                    "fc",
                ));
                Network::from_layers("gen-diff", layers).expect("valid")
            })
    }

    proptest! {
        // Each case elaborates and drives block RTL, so keep the count
        // modest; the deterministic zoo sweep (`deepburning diff`) covers breadth.
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The tentpole property: for any generated network, the three
        /// execution views agree under the derived tolerance rules.
        #[test]
        fn three_views_agree_on_random_networks(net in arb_diff_net(), seed in 0u64..1024) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
            let cfg = CompilerConfig::default();
            let luts = generate_luts(&net, &cfg).expect("luts");
            let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
            let opts = DiffOptions { max_rtl_samples: 24, ..DiffOptions::default() };
            let report = diff_network(&net, &ws, &input, &luts, cfg.format, cfg.lanes, &opts)
                .expect("diff executes");
            prop_assert!(report.is_clean(), "{report}");
            prop_assert!(report.rtl_checked() > 0);
        }
    }
}
