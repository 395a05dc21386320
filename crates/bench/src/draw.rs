//! The seeded weights and input the `deepburning` subcommands drive
//! through a generated design.
//!
//! Two draws, one scheme: the seed is the draw's constant XOR the
//! length of the net's name, weights are uniform in ±0.25 (what
//! [`deepburning_baselines::pseudo_weights`] draws) and the input is
//! uniform in ±1. [`Draw::Check`] then fills every bias from the same
//! rng, so the three-view diff and the range analysis see non-zero
//! biases; the weights and input before them are those of a bias-free
//! draw with the same seed.

use deepburning_model::Network;
use deepburning_tensor::{Init, Tensor, WeightSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which seeded draw a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    /// Bias-free, seed `0xD8`: what `report` and `trace` run. The golden
    /// manifest pins `report`'s `report.json` and VCD on it.
    Report,
    /// Seed `0xD1FF`, biases in ±0.25: what `diff`, `lint` and `verify`
    /// check.
    Check,
}

impl Draw {
    /// Draws the weights and input for the net named `name`.
    ///
    /// # Errors
    ///
    /// Returns an error when the network's shapes do not infer.
    pub fn draw(self, name: &str, net: &Network) -> Result<(WeightSet, Tensor), String> {
        let seed = match self {
            Draw::Report => 0xD8,
            Draw::Check => 0xD1FF,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ name.len() as u64);
        let mut weights = WeightSet::init(net, Init::Uniform(0.25), &mut rng)
            .map_err(|e| format!("weight initialisation failed: {e}"))?;
        let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
        if self == Draw::Check {
            let layers: Vec<String> = weights.iter().map(|(l, _)| l.to_string()).collect();
            for layer in layers {
                let lw = weights.get_mut(&layer).expect("layer listed by iter");
                for b in &mut lw.b {
                    *b = rng.gen_range(-0.25..=0.25f32);
                }
            }
        }
        Ok((weights, input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_baselines::{pseudo_weights, zoo};

    #[test]
    fn report_draw_is_pseudo_weights_and_check_adds_biases_only() {
        let bench = zoo::mnist();
        let (report_ws, _) = Draw::Report
            .draw(bench.name, &bench.network)
            .expect("draws");
        let mut rng = StdRng::seed_from_u64(0xD8 ^ bench.name.len() as u64);
        assert_eq!(report_ws, pseudo_weights(&bench, &mut rng));

        let (check_ws, check_in) = Draw::Check.draw(bench.name, &bench.network).expect("draws");
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ bench.name.len() as u64);
        let bias_free = pseudo_weights(&bench, &mut rng);
        let input = Tensor::from_fn(bench.network.input_shape(), |_, _, _| {
            rng.gen_range(-1.0..1.0f32)
        });
        assert_eq!(check_in, input);
        for ((layer, lw), (_, free)) in check_ws.iter().zip(bias_free.iter()) {
            assert_eq!(lw.w, free.w, "{layer}: weights moved");
            assert!(lw.b.iter().any(|&b| b != 0.0), "{layer}: biases all zero");
        }
    }
}
