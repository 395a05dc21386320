//! RTL functional verification — the reproduction of the paper's "RTL-level
//! simulation of forward-propagation … conducted with Vivado to verify the
//! timing and function of the generated accelerators".
//!
//! The generated control-path modules are *executed* on the behavioural
//! Verilog interpreter and cross-checked against the compiler's models:
//! the AGU RTL must emit exactly the address stream its [`AguPattern`]
//! describes, the coordinator must walk the phase schedule, and the
//! synergy-neuron bank must compute the same dot product as its
//! fixed-point model.

use deepburning_components::{AguBlock, AguPattern, Block, Coordinator, SynergyNeuron};
use deepburning_fixed::{Fx, QFormat};
use deepburning_verilog::{Design, Interpreter, SimulateError, Simulator};
use std::fmt;

/// A divergence between the RTL and its behavioural model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The interpreter failed to elaborate or step the design.
    Simulate(String),
    /// The RTL produced a different value than the model.
    Mismatch {
        /// What was being compared.
        what: String,
        /// Position in the compared stream.
        index: usize,
        /// Model value.
        expected: u64,
        /// RTL value.
        got: u64,
    },
    /// The RTL stream ended at the wrong length.
    LengthMismatch {
        /// What was being compared.
        what: String,
        /// Model stream length.
        expected: usize,
        /// RTL stream length.
        got: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Simulate(m) => write!(f, "simulation failed: {m}"),
            VerifyError::Mismatch {
                what,
                index,
                expected,
                got,
            } => write!(f, "{what}[{index}]: model {expected}, RTL {got}"),
            VerifyError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: model emits {expected} items, RTL {got}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<SimulateError> for VerifyError {
    fn from(e: SimulateError) -> Self {
        VerifyError::Simulate(e.message)
    }
}

/// Runs the generated AGU RTL once per pattern and checks the streamed
/// addresses against [`AguPattern::addresses`].
///
/// # Errors
///
/// Returns [`VerifyError`] on the first divergence.
pub fn verify_agu_rtl(agu: &AguBlock) -> Result<(), VerifyError> {
    let design = Design::new(agu.generate());
    let mut sim = Interpreter::elaborate(&design, &agu.module_name())?;
    // Reset.
    sim.poke("rst", 1)?;
    sim.clock()?;
    sim.poke("rst", 0)?;
    let addr_mask = if agu.addr_width >= 64 {
        u64::MAX
    } else {
        (1u64 << agu.addr_width) - 1
    };
    for (i, pattern) in agu.patterns.iter().enumerate() {
        // One-cycle trigger pulse on bit i. The chained (main) AGU takes
        // its fold displacement from the runtime `offset` input; present
        // the pattern's own offset so the model stream matches.
        if agu.is_chained() {
            sim.poke("offset", pattern.offset & addr_mask)?;
        }
        sim.poke("trigger", 1 << i)?;
        sim.clock()?;
        sim.poke("trigger", 0)?;
        let expected: Vec<u64> = pattern.addresses().map(|a| a & addr_mask).collect();
        let mut got = Vec::with_capacity(expected.len());
        // Stream while `valid` is asserted (bounded to catch runaways).
        let bound = expected.len() * 2 + 8;
        for _ in 0..bound {
            if sim.read("valid")? == 0 {
                break;
            }
            got.push(sim.read("addr")?);
            sim.clock()?;
        }
        if got.len() != expected.len() {
            return Err(VerifyError::LengthMismatch {
                what: format!("pattern {i} addresses"),
                expected: expected.len(),
                got: got.len(),
            });
        }
        for (j, (e, g)) in expected.iter().zip(&got).enumerate() {
            if e != g {
                return Err(VerifyError::Mismatch {
                    what: format!("pattern {i} address"),
                    index: j,
                    expected: *e,
                    got: *g,
                });
            }
        }
        if sim.read("done")? != 1 {
            return Err(VerifyError::Mismatch {
                what: format!("pattern {i} done flag"),
                index: expected.len(),
                expected: 1,
                got: sim.read("done")?,
            });
        }
    }
    Ok(())
}

/// Fires every pattern of a chained (main-class) AGU in one trigger word
/// and checks that the RTL streams the whole set back-to-back, lowest
/// index first, applying each pattern's runtime offset at launch — the
/// end-to-end behaviour a phase's full DRAM program (input fetch + weight
/// fetch + write-back) relies on.
///
/// # Errors
///
/// Returns [`VerifyError`] on the first divergence.
pub fn verify_agu_chaining(agu: &AguBlock) -> Result<(), VerifyError> {
    assert!(agu.is_chained(), "chaining only exists on the main AGU");
    let design = Design::new(agu.generate());
    let mut sim = Interpreter::elaborate(&design, &agu.module_name())?;
    sim.poke("rst", 1)?;
    sim.clock()?;
    sim.poke("rst", 0)?;
    let addr_mask = if agu.addr_width >= 64 {
        u64::MAX
    } else {
        (1u64 << agu.addr_width) - 1
    };
    let n = agu.patterns.len().min(64);
    let word = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
    // The environment presents the offset of the pattern about to launch,
    // exactly as the top level muxes the context offset ROM by `pat_next`.
    let offset_for = |sim: &mut Interpreter| -> Result<(), VerifyError> {
        let next = sim.read("pat_next")? as usize;
        let off = agu.patterns.get(next).map(|p| p.offset).unwrap_or(0);
        sim.poke("offset", off & addr_mask)?;
        Ok(())
    };
    sim.poke("trigger", word)?;
    offset_for(&mut sim)?;
    sim.clock()?;
    sim.poke("trigger", 0)?;
    let expected: Vec<u64> = agu.patterns[..n]
        .iter()
        .flat_map(|p| p.addresses().map(|a| a & addr_mask).collect::<Vec<_>>())
        .collect();
    let mut got = Vec::with_capacity(expected.len());
    let bound = expected.len() * 2 + 8 * n;
    for _ in 0..bound {
        if sim.read("valid")? == 0 {
            break;
        }
        got.push(sim.read("addr")?);
        offset_for(&mut sim)?;
        sim.clock()?;
    }
    if got != expected {
        if got.len() != expected.len() {
            return Err(VerifyError::LengthMismatch {
                what: "chained address stream".into(),
                expected: expected.len(),
                got: got.len(),
            });
        }
        let (j, (e, g)) = expected
            .iter()
            .zip(&got)
            .enumerate()
            .find(|(_, (e, g))| e != g)
            .expect("lengths equal, values differ");
        return Err(VerifyError::Mismatch {
            what: "chained address".into(),
            index: j,
            expected: *e,
            got: *g,
        });
    }
    if sim.read("done")? != 1 {
        return Err(VerifyError::Mismatch {
            what: "chained done flag".into(),
            index: expected.len(),
            expected: 1,
            got: sim.read("done")?,
        });
    }
    Ok(())
}

/// Walks the generated coordinator through `phases` completions and checks
/// the phase counter, busy flag and fire pulses.
///
/// # Errors
///
/// Returns [`VerifyError`] on the first divergence.
pub fn verify_coordinator_rtl(coord: &Coordinator) -> Result<(), VerifyError> {
    let design = Design::new(coord.generate());
    let mut sim = Interpreter::elaborate(&design, &coord.module_name())?;
    sim.poke("rst", 1)?;
    sim.clock()?;
    sim.poke("rst", 0)?;
    if sim.read("busy")? != 0 {
        return Err(VerifyError::Mismatch {
            what: "busy after reset".into(),
            index: 0,
            expected: 0,
            got: 1,
        });
    }
    // Start pulse.
    sim.poke("start", 1)?;
    sim.clock()?;
    sim.poke("start", 0)?;
    if sim.read("busy")? != 1 || sim.read("fire")? != 1 || sim.read("phase")? != 0 {
        return Err(VerifyError::Mismatch {
            what: "phase 0 entry".into(),
            index: 0,
            expected: 1,
            got: sim.read("busy")?,
        });
    }
    // Drive phase_done pulses and watch the walk.
    for expected_phase in 1..coord.phases as u64 {
        sim.poke("phase_done", 1)?;
        sim.clock()?;
        sim.poke("phase_done", 0)?;
        let phase = sim.read("phase")?;
        if phase != expected_phase {
            return Err(VerifyError::Mismatch {
                what: "phase counter".into(),
                index: expected_phase as usize,
                expected: expected_phase,
                got: phase,
            });
        }
        if sim.read("fire")? != 1 {
            return Err(VerifyError::Mismatch {
                what: "fire pulse".into(),
                index: expected_phase as usize,
                expected: 1,
                got: 0,
            });
        }
        // Fire must be a single-cycle pulse.
        sim.clock()?;
        if sim.read("fire")? != 0 {
            return Err(VerifyError::Mismatch {
                what: "fire deassert".into(),
                index: expected_phase as usize,
                expected: 0,
                got: 1,
            });
        }
    }
    // Final completion drops busy.
    sim.poke("phase_done", 1)?;
    sim.clock()?;
    sim.poke("phase_done", 0)?;
    if sim.read("busy")? != 0 {
        return Err(VerifyError::Mismatch {
            what: "busy after final phase".into(),
            index: coord.phases as usize,
            expected: 0,
            got: 1,
        });
    }
    Ok(())
}

/// Streams `beats` of lane data through the generated synergy-neuron bank
/// and checks the accumulated sum against the fixed-point model.
///
/// The RTL accumulates raw products in a wide register and saturates at
/// readout, so the comparison is bit-exact even when the dot product
/// clips — saturating inputs are fair game here.
///
/// # Errors
///
/// Returns [`VerifyError`] on divergence.
pub fn verify_neuron_rtl(
    neuron: &SynergyNeuron,
    features: &[Vec<f64>],
    weights: &[Vec<f64>],
    fmt: QFormat,
) -> Result<(), VerifyError> {
    assert_eq!(features.len(), weights.len(), "beat count mismatch");
    let design = Design::new(neuron.generate());
    let mut sim = Interpreter::elaborate(&design, &neuron.module_name())?;
    sim.poke("rst", 1)?;
    sim.clock()?;
    sim.poke("rst", 0)?;
    sim.poke("en", 1)?;
    let w = neuron.width as u64;
    let word_mask = (1u64 << w) - 1;
    let mut flat_f = Vec::new();
    let mut flat_w = Vec::new();
    for (fbeat, wbeat) in features.iter().zip(weights) {
        assert_eq!(fbeat.len(), neuron.lanes as usize, "lane count mismatch");
        // Pack lanes into the wide bus, lane 0 in the low bits.
        let mut fbus = 0u64;
        let mut wbus = 0u64;
        for (lane, (fv, wv)) in fbeat.iter().zip(wbeat).enumerate().rev() {
            let fx = Fx::from_f64(*fv, fmt).raw() as u64 & word_mask;
            let wx = Fx::from_f64(*wv, fmt).raw() as u64 & word_mask;
            fbus |= fx << (lane as u64 * w);
            wbus |= wx << (lane as u64 * w);
            flat_f.push(Fx::from_f64(*fv, fmt));
            flat_w.push(Fx::from_f64(*wv, fmt));
        }
        sim.poke("din", fbus)?;
        sim.poke("weight", wbus)?;
        sim.clock()?;
    }
    let got = sim.read("sum_out")? & word_mask;
    let expected = neuron.simulate(&flat_f, &flat_w, fmt).raw() as u64 & word_mask;
    if got != expected {
        return Err(VerifyError::Mismatch {
            what: "neuron dot product".into(),
            index: features.len(),
            expected,
            got,
        });
    }
    Ok(())
}

/// Verifies the control path of a generated design: every AGU class and
/// the coordinator, rebuilt from the compiled artifacts exactly as the
/// RTL assembler builds them.
///
/// # Errors
///
/// Returns the first [`VerifyError`].
pub fn verify_design_control_path(design: &crate::AcceleratorDesign) -> Result<(), VerifyError> {
    use crate::resources::collect_patterns;
    use deepburning_components::AguClass;
    for class in [AguClass::Main, AguClass::Data, AguClass::Weight] {
        let patterns = collect_patterns(&design.compiled, class);
        // Bound the check: huge linear sweeps verify the same increment
        // logic as short ones.
        let bounded: Vec<AguPattern> = patterns
            .into_iter()
            .map(|p| AguPattern {
                x_len: p.x_len.min(64),
                y_len: p.y_len.min(8),
                ..p
            })
            .collect();
        let agu = AguBlock::new(class, 32, bounded);
        verify_agu_rtl(&agu)?;
        if agu.is_chained() && agu.patterns.len() > 1 {
            verify_agu_chaining(&agu)?;
        }
    }
    verify_coordinator_rtl(&Coordinator {
        phases: (design.compiled.folding.phases.len().max(1) as u32).min(64),
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_components::AguClass;

    #[test]
    fn agu_rtl_matches_model_linear() {
        let agu = AguBlock::new(AguClass::Main, 32, vec![AguPattern::linear(100, 16)]);
        verify_agu_rtl(&agu).expect("linear pattern verifies");
    }

    #[test]
    fn agu_rtl_matches_model_2d_window() {
        let agu = AguBlock::new(
            AguClass::Data,
            32,
            vec![AguPattern {
                start: 4096,
                offset: 12,
                x_len: 5,
                y_len: 5,
                x_stride: 1,
                y_stride: 57,
            }],
        );
        verify_agu_rtl(&agu).expect("window pattern verifies");
    }

    #[test]
    fn agu_rtl_matches_model_multi_pattern() {
        let agu = AguBlock::new(
            AguClass::Weight,
            24,
            vec![
                AguPattern::linear(0, 7),
                AguPattern {
                    start: 64,
                    offset: 0,
                    x_len: 3,
                    y_len: 4,
                    x_stride: 2,
                    y_stride: 32,
                },
                AguPattern {
                    start: 1000,
                    offset: 24,
                    x_len: 8,
                    y_len: 2,
                    x_stride: 4,
                    y_stride: 1, // negative wrap step
                },
            ],
        );
        verify_agu_rtl(&agu).expect("multi-pattern AGU verifies");
    }

    #[test]
    fn chained_main_agu_streams_whole_trigger_word() {
        let agu = AguBlock::new(
            AguClass::Main,
            32,
            vec![
                AguPattern::linear(0, 9),
                AguPattern {
                    start: 640,
                    offset: 128,
                    x_len: 4,
                    y_len: 2,
                    x_stride: 1,
                    y_stride: 16,
                },
                AguPattern {
                    start: 2048,
                    offset: 32,
                    x_len: 5,
                    y_len: 1,
                    x_stride: 1,
                    y_stride: 0,
                },
            ],
        );
        verify_agu_chaining(&agu).expect("chained stream verifies");
    }

    #[test]
    fn coordinator_rtl_walks_schedule() {
        for phases in [1u32, 2, 5, 17] {
            verify_coordinator_rtl(&Coordinator { phases })
                .unwrap_or_else(|e| panic!("{phases} phases: {e}"));
        }
    }

    #[test]
    fn neuron_rtl_matches_fixed_point_model() {
        let neuron = SynergyNeuron::new(16, 4);
        let features = vec![
            vec![0.5, -0.25, 1.0, 0.125],
            vec![1.5, 0.75, -0.5, 0.25],
            vec![-1.0, 2.0, 0.0, 0.5],
        ];
        let weights = vec![
            vec![1.0, 1.0, -1.0, 2.0],
            vec![0.5, -0.5, 0.25, 1.0],
            vec![2.0, 0.125, 1.0, -1.0],
        ];
        verify_neuron_rtl(&neuron, &features, &weights, QFormat::Q8_8)
            .expect("neuron RTL verifies");
    }

    #[test]
    fn neuron_rtl_single_lane() {
        let neuron = SynergyNeuron::new(16, 1);
        let features = vec![vec![3.0], vec![-2.0]];
        let weights = vec![vec![0.5], vec![1.5]];
        verify_neuron_rtl(&neuron, &features, &weights, QFormat::Q8_8)
            .expect("single-lane neuron verifies");
    }

    #[test]
    fn neuron_rtl_saturates_like_the_model() {
        // Large same-sign products push the dot product far past the Q8.8
        // ceiling; the RTL must clamp exactly where the model does instead
        // of wrapping.
        let neuron = SynergyNeuron::new(16, 2);
        let features = vec![vec![120.0, 115.0]; 4];
        let weights = vec![vec![90.0, 85.0]; 4];
        verify_neuron_rtl(&neuron, &features, &weights, QFormat::Q8_8)
            .expect("saturating dot product verifies");
        // And the negative rail.
        let weights_neg = vec![vec![-90.0, -85.0]; 4];
        verify_neuron_rtl(&neuron, &features, &weights_neg, QFormat::Q8_8)
            .expect("negative saturation verifies");
    }

    #[test]
    fn generated_design_control_path_verifies() {
        let src = r#"
        layers { name: "data" type: INPUT top: "data"
                 input_param { channels: 1 height: 12 width: 12 } }
        layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
                 param { num_output: 8 kernel_size: 3 stride: 1 } }
        layers { name: "fc" type: FC bottom: "conv" top: "fc"
                 param { num_output: 4 } }
        "#;
        let net = deepburning_model::parse_network(src).expect("parses");
        let design = crate::generate(&net, &crate::Budget::Medium).expect("generates");
        verify_design_control_path(&design).expect("control path verifies");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use deepburning_components::AguClass;
    use proptest::prelude::*;

    fn arb_pattern() -> impl Strategy<Value = AguPattern> {
        (
            0u64..100_000,
            0u64..256,
            1u32..24,
            1u32..12,
            1u64..8,
            0u64..512,
        )
            .prop_map(
                |(start, offset, x_len, y_len, x_stride, y_stride)| AguPattern {
                    start,
                    offset,
                    x_len,
                    y_len,
                    x_stride,
                    y_stride,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The generated AGU RTL, executed in the interpreter, must emit
        /// exactly the model's address stream for random pattern sets.
        #[test]
        fn random_agu_patterns_verify(patterns in proptest::collection::vec(arb_pattern(), 1..4)) {
            let agu = AguBlock::new(AguClass::Data, 32, patterns);
            verify_agu_rtl(&agu).expect("RTL matches the behavioural model");
        }

        /// Coordinators of arbitrary phase counts walk their schedule.
        #[test]
        fn random_coordinators_verify(phases in 1u32..40) {
            verify_coordinator_rtl(&Coordinator { phases }).expect("coordinator verifies");
        }
    }
}
