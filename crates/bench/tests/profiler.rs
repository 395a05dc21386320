//! Engine hot-spot profiler acceptance (DESIGN.md §15): attribution
//! stays consistent on real zoo designs, and profiling a full MNIST RTL
//! run does not overflow the default tracer ring.

use deepburning_baselines::{pseudo_weights, zoo, Benchmark};
use deepburning_core::{generate, Budget};
use deepburning_sim::{full_network_run, FullRunOptions};
use deepburning_tensor::{Tensor, WeightSet};
use deepburning_trace as trace;
use deepburning_trace::prof::EngineProfile;

fn stimulus(bench: &Benchmark) -> (WeightSet, Tensor) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xB0F ^ bench.name.len() as u64);
    let ws = pseudo_weights(bench, &mut rng);
    let input = Tensor::from_fn(bench.network.input_shape(), |_, _, _| {
        rng.gen_range(-1.0..1.0f32)
    });
    (ws, input)
}

fn profiled_run(bench: &Benchmark) -> EngineProfile {
    let design = generate(&bench.network, &Budget::Small).expect("generates");
    let (ws, input) = stimulus(bench);
    let full = full_network_run(
        &design,
        &bench.network,
        &ws,
        &input,
        &FullRunOptions {
            profile: true,
            ..FullRunOptions::default()
        },
    )
    .expect("full run");
    assert!(full.is_clean(), "{}: full run diverged", bench.name);
    full.profile.expect("profile requested")
}

/// Attribution bookkeeping on a real zoo design: per-segment evals sum
/// to the engine's total tape evals, per-opcode counts sum to the total
/// executed ops, and the ranked JIT table covers the 80% acceptance
/// floor.
#[test]
fn opcode_and_segment_attribution_sum_on_zoo_design() {
    let p = profiled_run(&zoo::ann0());
    assert!(p.total_evals > 0 && p.total_ops >= p.total_evals);
    let seg_evals: u64 = p.segments.iter().map(|s| s.evals).sum();
    let seg_ops: u64 = p.segments.iter().map(|s| s.ops).sum();
    let op_counts: u64 = p.opcodes.iter().map(|o| o.count).sum();
    assert_eq!(seg_evals, p.total_evals, "segment evals must sum to total");
    assert_eq!(seg_ops, p.total_ops, "segment ops must sum to total");
    assert_eq!(
        op_counts, p.total_ops,
        "opcode counts must sum to total ops"
    );
    assert_eq!(p.sweeps.evals, p.total_evals, "sweep evals mirror totals");
    let jit = p.jit_table(0.8);
    let cov = jit.last().map_or(0.0, |r| r.cum_share);
    assert!(cov >= 0.8, "JIT table covers {cov:.3} < 0.8");
}

/// A profiled MNIST full-RTL run with the default-capacity tracer
/// installed — including the profile's own `prof.*` counter emission —
/// must not overflow the ring: `events_dropped` stays 0.
#[test]
fn profiled_mnist_run_does_not_drop_trace_events() {
    let bench = zoo::mnist();
    let tracer = trace::Tracer::new();
    {
        let _session = trace::install(&tracer);
        let p = profiled_run(&bench);
        assert!(p.total_evals > 0);
        p.emit_counters();
    }
    assert_eq!(
        tracer.events_dropped(),
        0,
        "profiled MNIST run overflowed the default trace ring"
    );
}
