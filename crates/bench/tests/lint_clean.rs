//! The generated zoo must be lint-clean: no analyzer pass may
//! false-positive on designs the generator itself emits. This is the
//! test-suite mirror of CI's `dblint --deny warn` sweep (which also
//! covers the Medium/Large tiers in release mode).

use deepburning_baselines::{pseudo_weights, zoo};
use deepburning_core::{generate, Budget};
use deepburning_lint::{analyze, Severity, WeightNorms};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        // Same seed scheme as the diffcheck/dblint sweeps: the weights
        // the analyzer proves are the weights the simulation runs.
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ bench.name.len() as u64);
        let ws = pseudo_weights(&bench, &mut rng);
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
        let proof = report
            .interference
            .as_ref()
            .unwrap_or_else(|| panic!("{}: tape-order proof did not run", bench.name));
        assert!(
            proof.is_proven(),
            "{}: tape order not proven:\n{proof}",
            bench.name
        );
        assert!(
            proof.instrs > 0,
            "{}: proof covered an empty tape",
            bench.name
        );
    }
}
