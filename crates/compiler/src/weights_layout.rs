//! Weight layout generation.
//!
//! "Meanwhile, the layout of network weight is partitioned accordingly to
//! accompany the layout of feature data for computation" (§3.4). The
//! weight AGU streams linearly, so the compiler must order each layer's
//! kernel weights exactly as the folded datapath consumes them:
//! fold-major, then lane-interleaved within a beat, matching the synergy
//! bank's wide bus.

use crate::config::CompilerConfig;
use deepburning_model::{LayerKind, Network, NetworkError, Shape};
use std::collections::BTreeMap;

/// The streaming order of one layer's weights, as the three integers that
/// determine it rather than as a materialised permutation.
///
/// The layer's canonical `w` buffer is a `units × row` matrix (one row of
/// `row` weights per output unit). Units are grouped into folds of
/// `units_per_fold`; within a fold, the stream interleaves one column
/// across the fold's units per beat. Stream position `i` therefore holds
/// canonical index `(base + u) * row + col`, enumerated fold base → column
/// → unit, and [`WeightOrder::indices`] yields exactly that sequence —
/// always a permutation of `0..len()`. Nothing proportional to the weight
/// count is stored, so planning the layout costs O(layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightOrder {
    /// Output units (rows of the canonical matrix).
    pub units: usize,
    /// Weights per unit (columns of the canonical matrix).
    pub row: usize,
    /// Lanes the order was computed for (the interleave factor).
    pub lanes: usize,
    /// Output units per fold (the fold-major grouping).
    pub units_per_fold: usize,
}

impl WeightOrder {
    /// Fold-major, lane-interleaved order over a `units × row` matrix.
    fn interleaved(units: usize, row: usize, lanes: usize) -> WeightOrder {
        WeightOrder {
            units,
            row,
            lanes,
            units_per_fold: lanes.min(units.max(1)),
        }
    }

    /// The identity order over `len` weights (one unit per fold, one
    /// weight per unit).
    fn identity(len: usize, lanes: usize) -> WeightOrder {
        WeightOrder {
            units: len,
            row: 1,
            lanes,
            units_per_fold: 1,
        }
    }

    /// Number of weights the order covers.
    pub fn len(&self) -> usize {
        self.units * self.row
    }

    /// True when the order covers no weights.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stream position → canonical index, in stream order.
    pub fn indices(&self) -> impl Iterator<Item = usize> {
        let WeightOrder { units, row, .. } = *self;
        let per_fold = self.units_per_fold.max(1);
        (0..units).step_by(per_fold).flat_map(move |base| {
            let span = per_fold.min(units - base);
            (0..row).flat_map(move |col| (base..base + span).map(move |u| u * row + col))
        })
    }

    /// Applies the order to a canonical weight buffer, producing the DRAM
    /// stream (the image the ARM core writes before starting the
    /// accelerator).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the order length.
    pub fn apply<T: Copy>(&self, weights: &[T]) -> Vec<T> {
        assert_eq!(weights.len(), self.len(), "weight buffer length mismatch");
        self.indices().map(|i| weights[i]).collect()
    }

    /// True when the order is a permutation of `0..len()` (checked by the
    /// property tests).
    pub fn is_permutation(&self) -> bool {
        let mut seen = vec![false; self.len()];
        let mut count = 0;
        for i in self.indices() {
            if i >= seen.len() || seen[i] {
                return false;
            }
            seen[i] = true;
            count += 1;
        }
        count == seen.len()
    }
}

/// Computes the weight stream order for one weighted layer.
///
/// Canonical layouts (see `deepburning_tensor::LayerWeights`):
/// * FC — `w[out][in]`: outputs are grouped into folds of `lanes` units;
///   within a fold, the stream interleaves one input-column across the
///   fold's outputs per beat (so each beat fills every lane).
/// * convolution — `w[co][cig][ky][kx]`: output maps grouped into folds;
///   within a fold, kernels stream map-interleaved the same way.
///
/// Returns `None` for weight-less layers.
pub fn layer_weight_order(
    kind: &LayerKind,
    input: Shape,
    cfg: &CompilerConfig,
) -> Option<WeightOrder> {
    let lanes = cfg.lanes.max(1) as usize;
    match kind {
        LayerKind::FullConnection(p) => {
            let n_in = input.elements();
            let n_out = p.num_output;
            Some(WeightOrder::interleaved(n_out, n_in, lanes))
        }
        LayerKind::Convolution(p) => {
            let per_map = (input.channels / p.group) * p.kernel_size * p.kernel_size;
            Some(WeightOrder::interleaved(p.num_output, per_map, lanes))
        }
        LayerKind::Recurrent { num_output, .. } => {
            let row = input.elements() + num_output;
            Some(WeightOrder::interleaved(*num_output, row, lanes))
        }
        // The CMAC table is randomly addressed: identity layout.
        LayerKind::Associative { table_size, .. } => {
            Some(WeightOrder::identity(*table_size, lanes))
        }
        // The four inception branches (1x1, 3x3, 5x5, pool projection)
        // have rows of different lengths, so no single `units × row`
        // interleave describes them: their concatenated kernels stream in
        // canonical order.
        LayerKind::Inception(p) => {
            let ci = input.channels;
            let len = p.c1x1 * ci + p.c3x3 * ci * 9 + p.c5x5 * ci * 25 + p.cpool * ci;
            Some(WeightOrder::identity(len, lanes))
        }
        _ => None,
    }
}

/// Computes the weight stream order of every weighted layer.
///
/// # Errors
///
/// Propagates shape-inference failures.
pub fn plan_weight_layout(
    net: &Network,
    cfg: &CompilerConfig,
) -> Result<BTreeMap<String, WeightOrder>, NetworkError> {
    let shapes = net.infer_shapes()?;
    let mut out = BTreeMap::new();
    for layer in net.layers() {
        let input = layer
            .bottoms
            .first()
            .map(|b| shapes[b])
            .unwrap_or(Shape::vector(0));
        if let Some(order) = layer_weight_order(&layer.kind, input, cfg) {
            out.insert(layer.name.clone(), order);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_model::{ConvParam, FullParam, InceptionParam};
    use proptest::prelude::*;

    /// The materialising loop the closed form replaced, kept as the
    /// reference [`WeightOrder::indices`] is pinned against.
    fn interleaved_order(units: usize, row: usize, lanes: usize) -> Vec<usize> {
        let per_fold = lanes.min(units.max(1));
        let mut order = Vec::with_capacity(units * row);
        let mut base_unit = 0;
        while base_unit < units {
            let span = per_fold.min(units - base_unit);
            for col in 0..row {
                for u in 0..span {
                    order.push((base_unit + u) * row + col);
                }
            }
            base_unit += span;
        }
        order
    }

    fn cfg(lanes: u32) -> CompilerConfig {
        CompilerConfig {
            lanes,
            ..CompilerConfig::default()
        }
    }

    #[test]
    fn fc_order_is_lane_interleaved() {
        // 4 outputs, 3 inputs, 2 lanes: fold {o0,o1} then {o2,o3}.
        let order = layer_weight_order(
            &LayerKind::FullConnection(FullParam::dense(4)),
            Shape::vector(3),
            &cfg(2),
        )
        .expect("weighted layer");
        // Beat structure: col0 of o0,o1; col1 of o0,o1; col2 of o0,o1; then fold 2.
        assert_eq!(
            order.indices().collect::<Vec<_>>(),
            vec![0, 3, 1, 4, 2, 5, 6, 9, 7, 10, 8, 11]
        );
        assert!(order.is_permutation());
        assert_eq!(order.units_per_fold, 2);
    }

    #[test]
    fn conv_order_is_permutation() {
        let order = layer_weight_order(
            &LayerKind::Convolution(ConvParam::new(6, 3, 1)),
            Shape::new(2, 8, 8),
            &cfg(4),
        )
        .expect("weighted layer");
        assert_eq!(order.len(), 6 * 2 * 9);
        assert_eq!(order.indices().count(), 6 * 2 * 9);
        assert!(order.is_permutation());
    }

    #[test]
    fn single_lane_is_identity() {
        let order = layer_weight_order(
            &LayerKind::FullConnection(FullParam::dense(3)),
            Shape::vector(2),
            &cfg(1),
        )
        .expect("weighted layer");
        assert_eq!(order.indices().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn apply_roundtrips_through_inverse() {
        let order = WeightOrder::interleaved(5, 4, 3);
        let canonical: Vec<usize> = (0..20).collect();
        let stream = order.apply(&canonical);
        // Re-applying the indices recovers the canonical buffer.
        let mut back = vec![usize::MAX; 20];
        for (pos, idx) in order.indices().enumerate() {
            back[idx] = stream[pos];
        }
        assert_eq!(back, canonical);
    }

    #[test]
    fn table_and_inception_orders_are_identity() {
        let table = layer_weight_order(
            &LayerKind::Associative {
                table_size: 7,
                active_cells: 2,
            },
            Shape::vector(3),
            &cfg(4),
        )
        .expect("weighted layer");
        assert_eq!(
            table.indices().collect::<Vec<_>>(),
            (0..7).collect::<Vec<_>>()
        );
        let p = InceptionParam {
            c1x1: 2,
            c3x3: 1,
            c5x5: 1,
            cpool: 1,
        };
        let incep = layer_weight_order(&LayerKind::Inception(p), Shape::new(3, 6, 6), &cfg(4))
            .expect("weighted layer");
        let len = 2 * 3 + 3 * 9 + 3 * 25 + 3;
        assert_eq!(incep.len(), len);
        assert!(incep.indices().eq(0..len));
    }

    #[test]
    fn pooling_has_no_weight_order() {
        assert!(layer_weight_order(
            &LayerKind::Pooling(deepburning_model::PoolParam {
                method: deepburning_model::PoolMethod::Max,
                kernel_size: 2,
                stride: 2,
            }),
            Shape::new(4, 8, 8),
            &cfg(4),
        )
        .is_none());
    }

    #[test]
    fn whole_network_layout() {
        let net = deepburning_model::NetworkBuilder::new("t", 1, 8, 8)
            .conv("c", 4, 3, 1)
            .full("fc", 10)
            .build()
            .expect("builds");
        let layout = plan_weight_layout(&net, &cfg(8)).expect("plans");
        assert!(layout.contains_key("c"));
        assert!(layout.contains_key("fc"));
        assert!(layout.values().all(WeightOrder::is_permutation));
    }

    proptest! {
        #[test]
        fn closed_form_matches_reference(units in 0usize..48, row in 1usize..48,
                                         lanes in 1usize..64) {
            let order = WeightOrder::interleaved(units, row, lanes);
            prop_assert_eq!(order.indices().collect::<Vec<_>>(),
                            interleaved_order(units, row, lanes));
            prop_assert_eq!(order.len(), units * row);
            prop_assert!(order.is_permutation());
        }
    }
}
