//! The generated zoo must be lint-clean: no analyzer pass may
//! false-positive on designs the generator itself emits. This is the
//! test-suite mirror of CI's `deepburning lint --deny warn` sweep (which also
//! covers the Medium/Large tiers in release mode). A loop injected into
//! a generated top must not be missed either.

use deepburning_baselines::zoo;
use deepburning_bench::Draw;
use deepburning_core::{generate, Budget};
use deepburning_lint::{analyze, comb, Severity, WeightNorms};
use deepburning_verilog::{BinaryOp, Expr, Item, NetDecl};

#[test]
fn zoo_is_clean_at_deny_warn() {
    for bench in [
        zoo::ann0(),
        zoo::ann1(),
        zoo::ann2(),
        zoo::cmac(),
        zoo::hopfield(),
        zoo::mnist(),
        zoo::cifar(),
        zoo::alexnet_micro(),
        zoo::nin_micro(),
        zoo::googlenet_slice(),
    ] {
        let design = generate(&bench.network, &Budget::Small).expect("generates");
        // The draw of the `diff` and `lint` sweeps: the weights the
        // analyzer proves are the weights the simulation runs.
        let (ws, _) = Draw::Check.draw(bench.name, &bench.network).expect("draws");
        let norms = WeightNorms::measure(&bench.network, &ws, design.compiled.config.format);
        let report = analyze(&design, &bench.network, Some(&norms));
        assert!(
            report.is_clean_at(Severity::Warning),
            "{} is not lint-clean:\n{report}",
            bench.name
        );
        assert!(
            !report.proofs.is_empty(),
            "{}: range pass produced no proofs",
            bench.name
        );
    }
}

/// The comb-loop pass checks a generated top whole, although its
/// 512-bit DRAM bus is wider than the engine simulates: one assign loop
/// injected into CMAC@DB-S's top raises `comb/loop` with its path.
#[test]
fn comb_loop_is_found_in_a_wide_generated_top() {
    let mut design = generate(&zoo::cmac().network, &Budget::Small)
        .expect("generates")
        .design;
    let top = design.top.clone();
    let module = design
        .modules
        .iter_mut()
        .find(|m| m.name == top)
        .expect("top module");
    let rdata = module.find_port("dram_rdata").expect("DRAM read bus").width;
    assert!(rdata > 64, "dram_rdata is {rdata} bits");
    for (lhs, rhs) in [("loop_a", "loop_b"), ("loop_b", "loop_a")] {
        module.item(Item::Net(NetDecl::wire(lhs, 1)));
        module.item(Item::Assign {
            lhs: Expr::id(lhs),
            rhs: Expr::bin(BinaryOp::Xor, Expr::id(rhs), Expr::id("start")),
        });
    }
    let diags = comb::run(&design);
    let hit = diags
        .iter()
        .find(|d| d.rule == "comb/loop")
        .unwrap_or_else(|| panic!("no comb/loop finding: {diags:?}"));
    assert_eq!(hit.severity, Severity::Error);
    assert!(
        hit.message.contains("loop_a -> loop_b -> loop_a")
            || hit.message.contains("loop_b -> loop_a -> loop_b"),
        "cycle path missing: {}",
        hit.message
    );
}
