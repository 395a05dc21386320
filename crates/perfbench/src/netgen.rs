//! Seeded generator of small random networks, emitted as prototxt text.
//!
//! The `random-small` workload feeds the program only this text: the
//! generator writes the script dialect directly instead of going through
//! `deepburning_model::emit_prototxt`, so a change to the model crate's
//! writer cannot change the benchmark's inputs.
//!
//! Even indices are `conv → [act] → [pool] → fc` nets (1–3 input
//! channels, 6–15 px square inputs); odd indices are 1–3-layer MLPs
//! (1–16 inputs, layer widths 2–32). Every net is small, so per-call
//! fixed costs dominate the op.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

const ACTIVATIONS: [&str; 3] = ["RELU", "SIGMOID", "TANH"];

/// `count` nets drawn from one generator seeded with `seed`; the same
/// seed always yields byte-identical texts.
pub fn random_nets(seed: u64, count: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| random_net(&mut rng, i)).collect()
}

/// One net: a conv net for even `index`, an MLP for odd `index`.
fn random_net(rng: &mut StdRng, index: usize) -> String {
    if index.is_multiple_of(2) {
        conv_net(rng, index)
    } else {
        mlp_net(rng, index)
    }
}

fn input_layer(out: &mut String, channels: usize, height: usize, width: usize) {
    let _ = writeln!(
        out,
        "layers {{ name: \"data\" type: INPUT top: \"data\"\n         input_param {{ channels: {channels} height: {height} width: {width} }} }}"
    );
}

fn fc_layer(out: &mut String, name: &str, bottom: &str, num_output: usize) {
    let _ = writeln!(
        out,
        "layers {{ name: \"{name}\" type: INNER_PRODUCT bottom: \"{bottom}\" top: \"{name}\"\n         param {{ num_output: {num_output} }} }}"
    );
}

/// An in-place activation on `blob`, or nothing (one chance in four).
fn maybe_activation(out: &mut String, rng: &mut StdRng, name: &str, blob: &str) {
    let pick = rng.gen_range(0..=ACTIVATIONS.len());
    if let Some(kind) = ACTIVATIONS.get(pick) {
        let _ = writeln!(
            out,
            "layers {{ name: \"{name}\" type: {kind} bottom: \"{blob}\" top: \"{blob}\" }}"
        );
    }
}

fn conv_net(rng: &mut StdRng, index: usize) -> String {
    let channels = rng.gen_range(1..=3usize);
    let size = rng.gen_range(6..=15usize);
    let kernel = rng.gen_range(1..=5usize);
    let stride = rng.gen_range(1..=2usize);
    let maps = rng.gen_range(1..=6usize);
    let conv_out = (size - kernel) / stride + 1;
    let mut out = format!("name: \"rnd{index}\"\n");
    input_layer(&mut out, channels, size, size);
    let _ = writeln!(
        out,
        "layers {{ name: \"conv\" type: CONVOLUTION bottom: \"data\" top: \"conv\"\n         param {{ num_output: {maps} kernel_size: {kernel} stride: {stride} }} }}"
    );
    maybe_activation(&mut out, rng, "act", "conv");
    let mut last = "conv";
    if conv_out >= 2 && rng.gen_range(0..2) == 0 {
        let method = if rng.gen_range(0..2) == 0 {
            "MAX"
        } else {
            "AVE"
        };
        let _ = writeln!(
            out,
            "layers {{ name: \"pool\" type: POOLING bottom: \"conv\" top: \"pool\"\n         pooling_param {{ pool: {method} kernel_size: 2 stride: 2 }} }}"
        );
        last = "pool";
    }
    fc_layer(&mut out, "fc", last, rng.gen_range(1..=10usize));
    out
}

fn mlp_net(rng: &mut StdRng, index: usize) -> String {
    let inputs = rng.gen_range(1..=16usize);
    let depth = rng.gen_range(1..=3usize);
    let mut out = format!("name: \"rnd{index}\"\n");
    input_layer(&mut out, inputs, 1, 1);
    let mut bottom = "data".to_string();
    for d in 1..=depth {
        let name = format!("fc{d}");
        fc_layer(&mut out, &name, &bottom, rng.gen_range(2..=32usize));
        if d < depth {
            maybe_activation(&mut out, rng, &format!("act{d}"), &name);
        }
        bottom = name;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_model::parse_network;

    #[test]
    fn same_seed_same_text_other_seed_other_text() {
        let a = random_nets(7, 64);
        let b = random_nets(7, 64);
        assert_eq!(a, b, "byte-identical for one seed");
        let c = random_nets(8, 64);
        assert_ne!(a, c, "another seed draws other nets");
    }

    #[test]
    fn every_net_parses_and_infers_shapes() {
        for seed in [1, 2, 3] {
            for (i, text) in random_nets(seed, 300).iter().enumerate() {
                let net = parse_network(text)
                    .unwrap_or_else(|e| panic!("seed {seed} net {i} does not parse: {e}\n{text}"));
                net.infer_shapes()
                    .unwrap_or_else(|e| panic!("seed {seed} net {i} has no shapes: {e}\n{text}"));
            }
        }
    }

    #[test]
    fn half_conv_half_mlp() {
        let nets = random_nets(1, 10);
        for (i, text) in nets.iter().enumerate() {
            assert_eq!(text.contains("CONVOLUTION"), i % 2 == 0, "{text}");
        }
    }
}
