//! Streaming-observability acceptance: the phase timeline renders
//! per-phase duration and segment-bandwidth rows (with p50/p95 summary
//! stats) for the zoo benchmarks, a full-network MNIST run with a
//! streaming VCD sink completes in bounded memory — every handoff to the
//! sink is a small incremental chunk, never the accumulated document —
//! and a traced MNIST run fits the default tracer ring.

use deepburning_baselines::{pseudo_weights, zoo, Benchmark};
use deepburning_bench::render_timeline_table;
use deepburning_core::{generate, Budget};
use deepburning_sim::{full_network_run, full_network_run_to_sink, FullRunOptions};
use deepburning_tensor::{Tensor, WeightSet};
use deepburning_trace as trace;
use deepburning_trace::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn stimulus(bench: &Benchmark) -> (WeightSet, Tensor) {
    let mut rng = StdRng::seed_from_u64(0x0B5 ^ bench.name.len() as u64);
    let ws = pseudo_weights(bench, &mut rng);
    let input = Tensor::from_fn(bench.network.input_shape(), |_, _, _| {
        rng.gen_range(-1.0..1.0f32)
    });
    (ws, input)
}

/// `deepburning report --timeline` acceptance: every zoo benchmark of the report
/// suite produces per-phase duration rows and per-segment bandwidth rows,
/// with p50/p95 distribution stats, straight off the control wires.
#[test]
fn timeline_tables_render_for_zoo_benchmarks() {
    for bench in [zoo::ann0(), zoo::cmac(), zoo::mnist()] {
        let design = generate(&bench.network, &Budget::Small)
            .unwrap_or_else(|e| panic!("{}: generation failed: {e}", bench.name));
        let (ws, input) = stimulus(&bench);
        let full = full_network_run(
            &design,
            &bench.network,
            &ws,
            &input,
            &FullRunOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: full run failed: {e}", bench.name));
        assert!(full.is_clean(), "{}: full run diverged", bench.name);
        let tl = &full.timeline;
        assert_eq!(
            tl.phases.len(),
            design.compiled.folding.phases.len(),
            "{}: one slice per scheduled phase",
            bench.name
        );
        assert!(tl.phase_cycles.count() > 0, "{}", bench.name);
        assert!(
            tl.phase_cycles.p95() >= tl.phase_cycles.p50(),
            "{}",
            bench.name
        );
        assert!(!tl.segments.is_empty(), "{}", bench.name);
        let table = render_timeline_table(tl);
        for p in &tl.phases {
            assert!(
                table.contains(&format!("p{}", p.phase)),
                "{}: phase row p{} missing:\n{table}",
                bench.name,
                p.phase
            );
            assert!(
                table.contains(&p.layer),
                "{}: layer {} missing from table",
                bench.name,
                p.layer
            );
        }
        for s in &tl.segments {
            assert!(
                table.contains(&s.segment),
                "{}: segment row {} missing:\n{table}",
                bench.name,
                s.segment
            );
        }
        for needle in ["min", "p50", "p95", "max", "words/kcycle", "share"] {
            assert!(
                table.contains(needle),
                "{}: `{needle}` missing:\n{table}",
                bench.name
            );
        }
        // The JSON image carries the same stats for machine consumers.
        let doc = tl.to_json();
        assert!(doc.get("phase_cycles").and_then(|h| h.get("p95")).is_some());
        assert!(doc
            .get("segments")
            .and_then(Json::as_arr)
            .is_some_and(|a| !a.is_empty()));
    }
}

/// A write sink that forbids large handoffs: accumulating the whole VCD
/// and dumping it at the end would arrive as one multi-hundred-KiB write
/// and fail the cap, while true streaming hands over one header and one
/// small chunk per sampled cycle.
struct CappedSink {
    cap: usize,
    largest: Arc<AtomicU64>,
    total: Arc<AtomicU64>,
}

impl std::io::Write for CappedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        assert!(
            buf.len() <= self.cap,
            "sink handed {} bytes at once (cap {}): the writer is buffering, not streaming",
            buf.len(),
            self.cap
        );
        self.largest.fetch_max(buf.len() as u64, Ordering::Relaxed);
        self.total.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Bounded-memory acceptance: the clean full-network MNIST run streams
/// its VCD through a sink capped at 64 KiB per write while emitting far
/// more than 64 KiB in total — the recorder never holds the document.
#[test]
fn mnist_streaming_vcd_runs_in_bounded_memory() {
    const CAP: usize = 64 * 1024;
    let bench = zoo::mnist();
    let design = generate(&bench.network, &Budget::Small).expect("generates");
    let (ws, input) = stimulus(&bench);
    let largest = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));
    let sink = CappedSink {
        cap: CAP,
        largest: Arc::clone(&largest),
        total: Arc::clone(&total),
    };
    let report = full_network_run_to_sink(
        &design,
        &bench.network,
        &ws,
        &input,
        &FullRunOptions::default(),
        Some(Box::new(sink)),
    )
    .expect("streamed run");
    assert!(report.is_clean(), "mnist full run diverged");
    assert_eq!(report.vcd, None, "streaming must not return buffered text");
    let largest = largest.load(Ordering::Relaxed);
    let total = total.load(Ordering::Relaxed);
    assert!(
        total > CAP as u64,
        "run must emit more than one cap of VCD ({total} bytes)"
    );
    assert!(largest <= CAP as u64);
    assert!(largest > 0, "the sink must have received the header");
}

/// A traced MNIST full-RTL run with the default-capacity tracer
/// installed must not overflow the ring (`events_dropped` stays 0), and
/// its engine work lands in the `fullrtl.*` counters.
#[test]
fn traced_mnist_run_does_not_drop_trace_events() {
    let bench = zoo::mnist();
    let design = generate(&bench.network, &Budget::Small).expect("generates");
    let (ws, input) = stimulus(&bench);
    let tracer = trace::Tracer::new();
    {
        let _session = trace::install(&tracer);
        let full = full_network_run(
            &design,
            &bench.network,
            &ws,
            &input,
            &FullRunOptions::default(),
        )
        .expect("full run");
        assert!(full.is_clean(), "mnist full run diverged");
    }
    assert_eq!(
        tracer.events_dropped(),
        0,
        "traced MNIST run overflowed the default trace ring"
    );
    let metrics = tracer.metrics();
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    for name in [
        "fullrtl.evals",
        "fullrtl.settle_passes",
        "fullrtl.nba_writes",
    ] {
        assert!(counter(name) > 0.0, "counter `{name}` missing or zero");
    }
}
