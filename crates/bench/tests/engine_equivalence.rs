//! Differential-of-the-differential: the three-view harness itself must
//! be engine-invariant. For a spread of zoo benchmarks the full
//! [`diff_design`] report — layer audits, divergence list, RTL module
//! stats and the fourth-view counter cross-check — is computed once
//! under the tree-walking interpreter and once under the compiled
//! levelized engine, and the two reports must be equal field for field.
//! The divergence-bundle VCD capture path is held to the same standard:
//! both engines must dump byte-identical waveforms.

use deepburning_baselines::{pseudo_weights, zoo, Benchmark};
use deepburning_core::{generate, Budget};
use deepburning_sim::{
    capture_layer_vcd, diff_design, full_network_run, DiffOptions, DiffReport, FullRunOptions,
    SimEngine,
};
use deepburning_tensor::{Tensor, WeightSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn opts(engine: SimEngine) -> DiffOptions {
    DiffOptions {
        max_rtl_samples: 8,
        engine,
        ..DiffOptions::default()
    }
}

/// Normalises the per-module *effort* counters (`settle_passes`,
/// `evals`) that are documented to differ between engines — the
/// event-driven tape evaluates only dirty fanout cones — while keeping
/// `clock_edges`, which both engines must count bit-for-bit. Modules are
/// re-sorted by name because the default ordering is by eval count.
fn normalised(mut report: DiffReport) -> DiffReport {
    for m in &mut report.rtl_modules {
        m.settle_passes = 0;
        m.evals = 0;
    }
    report.rtl_modules.sort_by(|a, b| a.module.cmp(&b.module));
    report
}

fn stimulus(bench: &Benchmark) -> (WeightSet, Tensor) {
    let mut rng = StdRng::seed_from_u64(0xE9E ^ bench.name.len() as u64);
    let ws = pseudo_weights(bench, &mut rng);
    let input = Tensor::from_fn(bench.network.input_shape(), |_, _, _| {
        rng.gen_range(-1.0..1.0f32)
    });
    (ws, input)
}

/// Every layer kind the zoo exercises, both budget extremes: the tree
/// and compiled engines must produce the *same report object*, down to
/// the counter cross-check.
#[test]
fn tree_and_compiled_reports_are_identical_across_zoo() {
    let cases = [
        (zoo::ann0(), Budget::Small),
        (zoo::ann2(), Budget::Large),
        (zoo::cmac(), Budget::Small),
        (zoo::hopfield(), Budget::Medium),
        (zoo::mnist(), Budget::Small),
        (zoo::alexnet_micro(), Budget::Small),
    ];
    for (bench, budget) in cases {
        let design = generate(&bench.network, &budget)
            .unwrap_or_else(|e| panic!("{}: generation failed: {e}", bench.name));
        let (ws, input) = stimulus(&bench);
        let tree = diff_design(&design, &bench.network, &ws, &input, &opts(SimEngine::Tree))
            .unwrap_or_else(|e| panic!("{}: tree diff failed: {e}", bench.name));
        let compiled = diff_design(
            &design,
            &bench.network,
            &ws,
            &input,
            &opts(SimEngine::Compiled),
        )
        .unwrap_or_else(|e| panic!("{}: compiled diff failed: {e}", bench.name));
        assert!(tree.is_clean(), "{}: tree diff diverged", bench.name);
        // The counter cross-check rides inside the report; assert the
        // RTL-read registers explicitly so a mismatch names the engine.
        let (tc, cc) = (
            tree.counters.as_ref().expect("tree counters"),
            compiled.counters.as_ref().expect("compiled counters"),
        );
        assert_eq!(
            tc.rtl, cc.rtl,
            "{}: RTL counter readback differs",
            bench.name
        );
        assert_eq!(tc.cycle_slack, cc.cycle_slack, "{}", bench.name);
        assert_eq!(
            normalised(tree),
            normalised(compiled),
            "{}: engines disagree on the diff report",
            bench.name
        );
    }
}

/// The injected-fault path flags the same divergences under both
/// engines: a harness that only agrees on clean runs proves nothing.
#[test]
fn injected_fault_reports_are_identical() {
    let bench = zoo::mnist();
    let design = generate(&bench.network, &Budget::Small).expect("generates");
    let (ws, input) = stimulus(&bench);
    let fault = |engine| DiffOptions {
        inject_rtl_fault: Some(2),
        ..opts(engine)
    };
    let tree = diff_design(
        &design,
        &bench.network,
        &ws,
        &input,
        &fault(SimEngine::Tree),
    )
    .expect("tree diff");
    let compiled = diff_design(
        &design,
        &bench.network,
        &ws,
        &input,
        &fault(SimEngine::Compiled),
    )
    .expect("compiled diff");
    assert!(!tree.is_clean(), "fault injection must diverge");
    assert_eq!(
        normalised(tree),
        normalised(compiled),
        "engines disagree on the faulted report"
    );
}

/// The fifth view is held to the same standard: one continuous
/// coordinator-driven run across every layer, under both engines, on two
/// zoo networks — outputs (the divergence list stays empty and equal),
/// RTL-read counters and the control-top VCD must all be bit-identical.
#[test]
fn full_network_runs_are_identical_between_engines() {
    let cases = [(zoo::mnist(), Budget::Small), (zoo::cmac(), Budget::Small)];
    for (bench, budget) in cases {
        let design = generate(&bench.network, &budget)
            .unwrap_or_else(|e| panic!("{}: generation failed: {e}", bench.name));
        let (ws, input) = stimulus(&bench);
        let full = |engine| DiffOptions {
            full_rtl: true,
            ..opts(engine)
        };
        let tree = diff_design(&design, &bench.network, &ws, &input, &full(SimEngine::Tree))
            .unwrap_or_else(|e| panic!("{}: tree full run failed: {e}", bench.name));
        let compiled = diff_design(
            &design,
            &bench.network,
            &ws,
            &input,
            &full(SimEngine::Compiled),
        )
        .unwrap_or_else(|e| panic!("{}: compiled full run failed: {e}", bench.name));
        let (tf, cf) = (
            tree.full_run.as_ref().expect("tree full run"),
            compiled.full_run.as_ref().expect("compiled full run"),
        );
        assert!(
            tf.is_clean(),
            "{}: full-network run diverged: {:#?}",
            bench.name,
            tf.divergences
        );
        assert_eq!(
            tf.rtl_counters, cf.rtl_counters,
            "{}: full-run counter readback differs",
            bench.name
        );
        assert_eq!(tf.cycles, cf.cycles, "{}", bench.name);
        // Clean diff_design runs skip full waveform capture (divergence
        // bundles ship the flight-recorder window instead), so drive the
        // standalone API with capture on to hold the control-top VCDs
        // byte-identical.
        let wave = |engine| {
            full_network_run(
                &design,
                &bench.network,
                &ws,
                &input,
                &FullRunOptions {
                    engine,
                    capture_vcd: true,
                    ..FullRunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{}: captured full run failed: {e}", bench.name))
        };
        let (tw, cw) = (wave(SimEngine::Tree), wave(SimEngine::Compiled));
        assert_eq!(
            vcd_digest(tw.vcd.as_deref().expect("tree control-top vcd")),
            vcd_digest(cw.vcd.as_deref().expect("compiled control-top vcd")),
            "{}: control-top VCD digests differ",
            bench.name
        );
        assert_eq!(
            normalised(tree),
            normalised(compiled),
            "{}: engines disagree on the full-rtl report",
            bench.name
        );
    }
}

/// FNV-1a over the VCD text: a compact digest so an engine mismatch
/// reports one number per side instead of two multi-megabyte dumps.
fn vcd_digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The streaming VCD sink is held to the capture standard: whole-run
/// waveforms streamed to disk by either engine are byte-identical to each
/// other *and* to the buffered in-memory capture — streaming changes where
/// the bytes go, never what they are.
#[test]
fn streamed_vcd_files_are_byte_identical_between_engines() {
    let bench = zoo::cmac();
    let design = generate(&bench.network, &Budget::Small).expect("generates");
    let (ws, input) = stimulus(&bench);
    let buffered = full_network_run(
        &design,
        &bench.network,
        &ws,
        &input,
        &FullRunOptions {
            capture_vcd: true,
            ..FullRunOptions::default()
        },
    )
    .expect("buffered run")
    .vcd
    .expect("buffered control-top vcd");
    let stream_digest = |engine: SimEngine| {
        let path = std::env::temp_dir().join(format!(
            "deepburning-eq-stream-{}-{engine}.vcd",
            std::process::id()
        ));
        let report = full_network_run(
            &design,
            &bench.network,
            &ws,
            &input,
            &FullRunOptions {
                engine,
                vcd_stream: Some(path.clone()),
                ..FullRunOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{engine}: streamed run failed: {e}"));
        assert_eq!(report.vcd, None, "{engine}: streaming must not buffer");
        assert_eq!(report.vcd_path.as_deref(), Some(path.as_path()));
        let text = std::fs::read_to_string(&path).expect("streamed file readable");
        let _ = std::fs::remove_file(&path);
        vcd_digest(&text)
    };
    let tree = stream_digest(SimEngine::Tree);
    let compiled = stream_digest(SimEngine::Compiled);
    assert_eq!(tree, compiled, "streamed VCD file digests differ");
    assert_eq!(
        tree,
        vcd_digest(&buffered),
        "streamed file differs from the buffered capture"
    );
}

/// Divergence-bundle waveforms: the VCD text a hardware engineer would
/// inspect is byte-identical whichever engine replayed the layer.
#[test]
fn vcd_capture_is_byte_identical_between_engines() {
    let bench = zoo::mnist();
    let design = generate(&bench.network, &Budget::Small).expect("generates");
    let (ws, input) = stimulus(&bench);
    let layer = &bench.network.layers()[1].name;
    let capture = |engine| {
        capture_layer_vcd(
            &bench.network,
            &ws,
            &input,
            &design.compiled.luts,
            design.compiled.config.format,
            design.compiled.config.lanes,
            &opts(engine),
            layer,
        )
        .expect("capture")
    };
    let tree = capture(SimEngine::Tree);
    let compiled = capture(SimEngine::Compiled);
    assert!(!tree.is_empty(), "layer must exercise at least one block");
    assert_eq!(tree, compiled, "VCD dumps differ between engines");
}
