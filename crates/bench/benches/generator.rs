//! Tool-throughput benches: script parsing, compilation, RTL emission —
//! NN-Gen's own speed (the paper runs it on a Xeon; "one-click" generation
//! should be interactive).

use criterion::{criterion_group, criterion_main, Criterion};
use deepburning_baselines::zoo;
use deepburning_compiler::{compile, CompilerConfig};
use deepburning_core::{assemble_top, generate, Budget};
use deepburning_model::parse_network;
use deepburning_verilog::emit_design;
use std::hint::black_box;

const SCRIPT: &str = r#"
name: "bench"
layers { name: "data" type: INPUT top: "data"
         input_param { channels: 3 height: 32 width: 32 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1"
         param { num_output: 32 kernel_size: 5 stride: 1 pad: 2 } }
layers { name: "pool1" type: POOLING bottom: "conv1" top: "pool1"
         pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "sig1" type: SIGMOID bottom: "pool1" top: "pool1" }
layers { name: "fc1" type: FC bottom: "pool1" top: "fc1"
         param { num_output: 64 } }
layers { name: "fc2" type: FC bottom: "fc1" top: "fc2"
         param { num_output: 10 } }
"#;

fn bench_generator(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_gen_tool_throughput");
    group.bench_function("parse_prototxt", |b| {
        b.iter(|| parse_network(black_box(SCRIPT)).expect("parses"))
    });
    let net = parse_network(SCRIPT).expect("parses");
    group.bench_function("compile_passes", |b| {
        b.iter(|| compile(black_box(&net), &CompilerConfig::default()).expect("compiles"))
    });
    let compiled = compile(&net, &CompilerConfig::default()).expect("compiles");
    group.bench_function("rtl_assembly_and_emit", |b| {
        b.iter(|| {
            let design = assemble_top(black_box(&net), &compiled);
            emit_design(&design).len()
        })
    });
    group.bench_function("end_to_end_generate_mnist", |b| {
        let mnist = zoo::mnist();
        b.iter(|| generate(black_box(&mnist.network), &Budget::Medium).expect("generates"))
    });
    // The constraint loop at its longest in the zoo: 23 iterations of
    // compile + resource estimate before the floor design is kept.
    group.bench_function("end_to_end_generate_googlenet_small", |b| {
        let googlenet = zoo::googlenet_slice();
        b.iter(|| generate(black_box(&googlenet.network), &Budget::Small).expect("generates"))
    });
    group.finish();
}

criterion_group!(benches, bench_generator);
criterion_main!(benches);
