//! Zoo-level checks of the RTL views on the compiled engine: the
//! per-layer three-view diff and counter cross-check are clean on a
//! spread of zoo nets and budgets, the diff with the full-network run is
//! clean on MNIST and CMAC (also with MNIST's readouts driven to the
//! saturation rail), an injected RTL fault makes it diverge, and
//! the divergence-bundle
//! capture of one layer dumps the blocks it exercised. (That a streamed
//! control-top VCD equals the buffered capture is
//! `fullrun::tests::streamed_vcd_file_matches_buffered_capture`.)

use deepburning_baselines::{pseudo_weights, zoo, Benchmark};
use deepburning_core::{generate, AcceleratorDesign, Budget};
use deepburning_lint::Severity;
use deepburning_sim::{capture_layer_vcd, diff_design, functional_forward_all, DiffOptions};
use deepburning_tensor::{Tensor, WeightSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn generated(bench: &Benchmark, budget: &Budget) -> (AcceleratorDesign, WeightSet, Tensor) {
    let design = generate(&bench.network, budget)
        .unwrap_or_else(|e| panic!("{}: generation failed: {e}", bench.name));
    let mut rng = StdRng::seed_from_u64(0xE9E ^ bench.name.len() as u64);
    let ws = pseudo_weights(bench, &mut rng);
    let input = Tensor::from_fn(bench.network.input_shape(), |_, _, _| {
        rng.gen_range(-1.0..1.0f32)
    });
    (design, ws, input)
}

fn small(bench: &Benchmark) -> (AcceleratorDesign, WeightSet, Tensor) {
    generated(bench, &Budget::Small)
}

fn opts() -> DiffOptions {
    DiffOptions {
        max_rtl_samples: 8,
        ..DiffOptions::default()
    }
}

/// Every layer kind the zoo exercises, at both budget extremes: the
/// per-layer RTL readback and the counter cross-check must be clean.
#[test]
fn per_layer_diff_is_clean_across_zoo() {
    let cases = [
        (zoo::ann0(), Budget::Small),
        (zoo::ann2(), Budget::Large),
        (zoo::cmac(), Budget::Small),
        (zoo::hopfield(), Budget::Medium),
        (zoo::mnist(), Budget::Small),
        (zoo::alexnet_micro(), Budget::Small),
    ];
    for (bench, budget) in cases {
        let (design, ws, input) = generated(&bench, &budget);
        let report = diff_design(&design, &bench.network, &ws, &input, &opts())
            .unwrap_or_else(|e| panic!("{}: diff failed: {e}", bench.name));
        assert!(report.is_clean(), "{}: {report}", bench.name);
        let counters = report.counters.as_ref().expect("counter cross-check");
        assert!(counters.is_clean(), "{}: {counters:?}", bench.name);
        assert!(counters.rtl.mac_ops > 0, "{}", bench.name);
    }
}

#[test]
fn full_rtl_diff_is_clean_on_mnist_and_cmac() {
    for bench in [zoo::mnist(), zoo::cmac()] {
        let (design, ws, input) = small(&bench);
        let opts = DiffOptions {
            full_rtl: true,
            ..opts()
        };
        let report = diff_design(&design, &bench.network, &ws, &input, &opts)
            .unwrap_or_else(|e| panic!("{}: diff failed: {e}", bench.name));
        assert!(report.is_clean(), "{}: {report}", bench.name);
        let counters = report.counters.as_ref().expect("counter cross-check");
        assert!(counters.rtl.mac_ops > 0, "{}", bench.name);
        let full = report.full_run.as_ref().expect("full-network run");
        assert!(full.is_clean(), "{}: {:?}", bench.name, full.divergences);
        assert!(full.cycles > 0 && full.output_words > 0, "{}", bench.name);
    }
}

/// Seeded weights scaled ×128 (still representable in Q7.8) drive
/// MNIST@DB's synergy-neuron readouts to the saturation rail: the full
/// diff (per-layer views, counter replay, full-network run) must still be
/// clean, and the fixed-point view must really sit on a rail in the
/// network output the full run checks word by word — otherwise a readout
/// that dropped saturation would pass unseen.
/// The chained main AGU must add each launch's *own* runtime offset.
/// Cifar@DB-S has phases that launch several main patterns with distinct
/// nonzero offsets (a folded layer's weight slice and its write-back
/// slice), so a fabric that applies the previous launch's offset moves
/// the wrong rows there and the full-run stream check fails. The
/// precondition is asserted, so the check cannot lose its teeth silently
/// to a schedule change. (On cmac, ann1, hopfield and mnist every launch
/// after a phase's first has offset 0.)
#[test]
fn chained_offsets_are_checked_closed_loop() {
    let bench = zoo::cifar();
    let (design, ws, input) = small(&bench);
    let chained = design
        .compiled
        .agu_programs
        .iter()
        .filter(|p| {
            let offsets: std::collections::BTreeSet<u64> = p
                .main
                .iter()
                .map(|q| q.offset)
                .filter(|&o| o != 0)
                .collect();
            offsets.len() >= 2
        })
        .count();
    assert!(
        chained > 0,
        "no phase launches two main patterns with distinct nonzero offsets"
    );
    let opts = DiffOptions {
        full_rtl: true,
        ..opts()
    };
    let report = diff_design(&design, &bench.network, &ws, &input, &opts).expect("diff runs");
    let full = report.full_run.as_ref().expect("full-network run");
    assert!(full.is_clean(), "{:?}", full.divergences);
    assert!(report.is_clean(), "{report}");
    assert_eq!(full.cycles, full.predicted_cycles, "paced fabric is exact");
}

#[test]
fn saturating_readouts_stay_clean_on_mnist_full_rtl() {
    let bench = zoo::mnist();
    let (design, mut ws, input) = generated(&bench, &Budget::Medium);
    let names: Vec<String> = ws.iter().map(|(name, _)| name.to_string()).collect();
    for name in &names {
        let lw = ws.get_mut(name).expect("listed layer");
        lw.w.iter_mut().chain(&mut lw.b).for_each(|v| *v *= 128.0);
    }
    let fmt = design.compiled.config.format;
    let blobs = functional_forward_all(&bench.network, &ws, &input, &design.compiled.luts, fmt)
        .expect("functional view runs");
    let on_rail = |top: &str| {
        blobs[top].as_slice().iter().any(|v| {
            let v = f64::from(*v);
            v == fmt.max_value() || v == fmt.min_value()
        })
    };
    let output = bench
        .network
        .output_blobs()
        .last()
        .cloned()
        .expect("output blob");
    assert!(
        on_rail("conv1") && on_rail(&output),
        "readouts stay off the rails"
    );
    let opts = DiffOptions {
        full_rtl: true,
        ..DiffOptions::default()
    };
    let report = diff_design(&design, &bench.network, &ws, &input, &opts).expect("diff runs");
    assert!(report.is_clean(), "{report}");
    let lint = report.lint.as_ref().expect("analysis report");
    assert!(
        lint.is_clean_at(Severity::Error),
        "weights must stay representable:\n{lint}"
    );
    let full = report.full_run.as_ref().expect("full-network run");
    assert!(
        full.is_clean() && full.output_words > 0,
        "{:?}",
        full.divergences
    );
}

/// A harness that is only ever clean proves nothing: flipping the RTL
/// readback of MNIST's layer 2 must surface as divergences.
#[test]
fn injected_fault_diverges_on_mnist() {
    let bench = zoo::mnist();
    let (design, ws, input) = small(&bench);
    let opts = DiffOptions {
        inject_rtl_fault: Some(2),
        ..opts()
    };
    let report = diff_design(&design, &bench.network, &ws, &input, &opts).expect("diff runs");
    assert!(!report.is_clean(), "fault injection must diverge");
}

#[test]
fn layer_vcd_capture_exercises_mnist_layer_1() {
    let bench = zoo::mnist();
    let (design, ws, input) = small(&bench);
    let vcds = capture_layer_vcd(
        &bench.network,
        &ws,
        &input,
        &design.compiled.luts,
        design.compiled.config.format,
        design.compiled.config.lanes,
        &opts(),
        &bench.network.layers()[1].name,
    )
    .expect("capture");
    assert!(!vcds.is_empty(), "layer must exercise at least one block");
    for (block, text) in &vcds {
        assert!(text.contains("$enddefinitions $end"), "{block}");
    }
}
