//! Asserts the profiler's disabled path is free: dispatcher vs direct
//! no-op-observer settle. With no profiler installed, the settle
//! dispatcher must add <1% to a full-tape settle sweep run directly
//! through the no-op observer — the operation that dominates the
//! diffcheck sweep's RTL time. Also prints the enabled-path cost. Run
//! with `cargo bench -p deepburning-verilog --bench prof_overhead`.

use criterion::{criterion_group, criterion_main, Criterion};
use deepburning_verilog::*;
use std::time::Instant;

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

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
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

    // The hard bound, on paired samples: each round times both paths
    // back to back, alternating which goes first, so clock drift, cache
    // warmth and a preempted timeslice hit one pair rather than one
    // path; the median of the per-round differences rejects outliers.
    const ROUNDS: usize = 200;
    let mut direct = Vec::with_capacity(ROUNDS);
    let mut diffs = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut time = |dispatch: bool| {
            sim.dirty_all();
            let t = Instant::now();
            if dispatch {
                sim.settle_dispatch().expect("settle");
            } else {
                sim.settle_direct().expect("settle");
            }
            t.elapsed().as_secs_f64()
        };
        let (d, p) = if round % 2 == 0 {
            let d = time(false);
            (d, time(true))
        } else {
            let p = time(true);
            (time(false), p)
        };
        direct.push(d);
        diffs.push(p - d);
    }
    let d = median(&mut direct);
    let delta = median(&mut diffs);
    // 2µs absolute slop keeps timer granularity from failing a bound
    // that is structurally a single well-predicted branch per settle.
    assert!(
        delta <= d * 0.01 + 2e-6,
        "disabled profiler path exceeds 1% overhead: direct {d:.3e}s, median paired difference {delta:+.3e}s"
    );
    println!(
        "prof_overhead: direct {d:.3e}s, dispatch - direct {delta:+.3e}s ({:+.3}%) — within the 1% bound",
        delta / d * 100.0
    );

    // Informational: the runtime-enabled path, for the profiling-cost
    // number quoted in DESIGN.md §15.
    sim.prof_enable();
    let mut enabled = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        sim.dirty_all();
        let t = Instant::now();
        sim.settle_dispatch().expect("settle");
        enabled.push(t.elapsed().as_secs_f64());
    }
    let e = median(&mut enabled);
    println!(
        "prof_overhead: enabled profiling costs {:+.1}% over the no-op observer",
        (e / d - 1.0) * 100.0
    );
}

criterion_group!(benches, bench_prof_overhead);
criterion_main!(benches);
