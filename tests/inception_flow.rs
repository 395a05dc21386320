//! End-to-end coverage of the inception (GoogLeNet-style) layer — the
//! block-mapping table's "Inception layer: pooling-unit + synergy neuron +
//! accumulators" — through every stage: script, reference execution,
//! fixed-point simulation, generation and timing.

use deepburning::compiler::{generate_luts, plan_weight_layout, CompilerConfig};
use deepburning::core::{generate, Budget};
use deepburning::model::parse_network;
use deepburning::sim::{functional_forward, simulate_timing, TimingParams};
use deepburning::tensor::{forward, tensor_accuracy, Init, Tensor, WeightSet};
use rand::SeedableRng;

const SRC: &str = r#"
name: "inception-slice"
layers { name: "data" type: INPUT top: "data"
         input_param { channels: 8 height: 14 width: 14 } }
layers { name: "incep" type: INCEPTION bottom: "data" top: "incep"
         inception_param { c1x1: 8 c3x3: 12 c5x5: 4 cpool: 4 } }
layers { name: "relu" type: RELU bottom: "incep" top: "incep" }
layers { name: "pool" type: POOLING bottom: "incep" top: "pool"
         pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "fc" type: FC bottom: "pool" top: "fc"
         param { num_output: 10 } }
"#;

#[test]
fn inception_shapes_and_generation() {
    let net = parse_network(SRC).expect("parses");
    let shapes = net.infer_shapes().expect("shapes");
    assert_eq!(shapes["incep"].to_string(), "28x14x14"); // 8+12+4+4 channels
    let design = generate(&net, &Budget::Medium).expect("generates");
    assert!(design.lint.is_clean(), "{}", design.lint);
    // The inception block pulls in the pooling unit.
    assert!(design
        .resources
        .items
        .iter()
        .any(|(n, _)| n.contains("pooling unit")));
    let timing = simulate_timing(&design.compiled, &TimingParams::default());
    assert!(timing.total_cycles > 0);
}

#[test]
fn inception_fixed_point_tracks_reference() {
    let net = parse_network(SRC).expect("parses");
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let ws = WeightSet::init(&net, Init::Uniform(0.2), &mut rng).expect("init");
    let cfg = CompilerConfig::default();
    let luts = generate_luts(&net, &cfg).expect("luts");
    let input = Tensor::from_fn(net.input_shape(), |c, y, x| ((c + y + x) % 7) as f32 / 7.0);
    let golden = forward(&net, &ws, &input).expect("reference");
    let approx = functional_forward(&net, &ws, &input, &luts, cfg.format).expect("fx sim");
    assert_eq!(approx.shape(), golden.shape());
    let acc = tensor_accuracy(&approx, &golden);
    assert!(acc > 97.0, "inception fixed-point accuracy {acc}%");
}

#[test]
fn inception_weight_layout_validates() {
    let net = parse_network(SRC).expect("parses");
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
    assert!(ws.validate(&net).is_ok());
    // Branch kernel layout: 1x1 + 3x3 + 5x5 + pool-proj weights.
    let lw = ws.get("incep").expect("weights");
    let ci = 8;
    assert_eq!(lw.w.len(), 8 * ci + 12 * ci * 9 + 4 * ci * 25 + 4 * ci);
    assert_eq!(lw.b.len(), 28);
    // The branches stream in canonical order: an identity of that length.
    let layout = plan_weight_layout(&net, &CompilerConfig::default()).expect("plans");
    assert!(layout["incep"].indices().eq(0..lw.w.len()));
}
