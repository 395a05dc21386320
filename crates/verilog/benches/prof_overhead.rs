//! Asserts the profiler's disabled path is free: dispatcher vs direct
//! no-op-observer settle. With no profiler installed, the settle
//! dispatcher must add <1% to a full-tape settle sweep run directly
//! through the no-op observer — the operation that dominates the
//! diffcheck sweep's RTL time. Also prints the enabled-path cost. Run
//! with `cargo bench -p deepburning-verilog --bench prof_overhead`.

use criterion::{criterion_group, criterion_main, Criterion};
use deepburning_verilog::*;
use std::time::{Duration, Instant};

/// A deep combinational chain: `n0 = a + 1`, `n[i] = (n[i-1] ^ K) + 1`,
/// so every instruction sits on its own level and a full-tape settle
/// walks the whole chain in order — the worst case for per-instruction
/// dispatch overhead.
fn chain_design(n: usize) -> Design {
    let mut m = VModule::new("bench");
    m.port(Port::input("clk", 1)).port(Port::input("a", 16));
    let mut prev = Expr::id("a");
    for i in 0..n {
        let name = format!("n{i}");
        m.item(Item::Net(NetDecl::wire(&name, 16)));
        m.item(Item::Assign {
            lhs: Expr::id(&name),
            rhs: Expr::bin(
                BinaryOp::Add,
                Expr::bin(BinaryOp::Xor, prev, Expr::lit(16, 0x5A5A)),
                Expr::lit(16, 1),
            ),
        });
        prev = Expr::id(&name);
    }
    m.port(Port::output("q", 16));
    m.item(Item::Assign {
        lhs: Expr::id("q"),
        rhs: prev,
    });
    Design::new(m)
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bench_prof_overhead(c: &mut Criterion) {
    let design = chain_design(4000);
    let mut sim = CompiledSim::compile(&design, "bench").expect("compile");

    let mut group = c.benchmark_group("prof_overhead");
    group.sample_size(30);
    group.bench_function("settle_direct", |b| {
        b.iter(|| {
            sim.dirty_all();
            sim.settle_direct().expect("settle");
        })
    });
    group.bench_function("settle_dispatch_prof_disabled", |b| {
        b.iter(|| {
            sim.dirty_all();
            sim.settle_dispatch().expect("settle");
        })
    });
    group.finish();

    // The hard bound. Samples are interleaved so clock drift and cache
    // warmth hit both paths equally; medians reject scheduler outliers.
    const ROUNDS: usize = 200;
    let mut direct = Vec::with_capacity(ROUNDS);
    let mut dispatch = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        sim.dirty_all();
        let t = Instant::now();
        sim.settle_direct().expect("settle");
        direct.push(t.elapsed());

        sim.dirty_all();
        let t = Instant::now();
        sim.settle_dispatch().expect("settle");
        dispatch.push(t.elapsed());
    }
    let d = median(&mut direct).as_secs_f64();
    let p = median(&mut dispatch).as_secs_f64();
    // 2µs absolute slop keeps timer granularity from failing a bound
    // that is structurally a single well-predicted branch per settle.
    assert!(
        p <= d * 1.01 + 2e-6,
        "disabled profiler path exceeds 1% overhead: direct {d:.3e}s vs dispatch {p:.3e}s"
    );
    println!(
        "prof_overhead: direct {d:.3e}s, dispatch {p:.3e}s ({:+.3}%) — within the 1% bound",
        (p / d - 1.0) * 100.0
    );

    // Informational: the runtime-enabled path, for the profiling-cost
    // number quoted in DESIGN.md §15.
    sim.prof_enable();
    let mut enabled = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        sim.dirty_all();
        let t = Instant::now();
        sim.settle_dispatch().expect("settle");
        enabled.push(t.elapsed());
    }
    let e = median(&mut enabled).as_secs_f64();
    println!(
        "prof_overhead: enabled profiling costs {:+.1}% over the no-op observer",
        (e / d - 1.0) * 100.0
    );
}

criterion_group!(benches, bench_prof_overhead);
criterion_main!(benches);
