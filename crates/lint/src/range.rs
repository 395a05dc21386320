//! Pass 4: static fixed-point range analysis.
//!
//! Propagates interval bounds on the *quantised* datapath through the
//! layer graph, proving per-layer that the accumulator never reaches the
//! `QFormat` saturation clamp. The bound model mirrors the functional
//! engine exactly:
//!
//! * MAC layers accumulate `Σ ŵᵢ·x̂ᵢ + b̂` in a wide integer with a single
//!   truncate-and-clamp at the end, so by the triangle inequality the
//!   final value is bounded by `W₁·B_in + |b̂|_max + q` where `W₁` is the
//!   worst per-row L1 norm of the quantised weights, `B_in` bounds the
//!   (already quantised) inputs and `q` is one resolution step of
//!   truncation error.
//! * Approx-LUT outputs interpolate linearly between stored samples, so
//!   they are bounded by the largest stored value no matter the input —
//!   `tanh`/`sigmoid` squash every bound back to ≈1.
//! * Quantising a weight moves it by at most `q` (round-to-nearest), so
//!   `|ŵ| ≤ min(|w| + q, max)` without touching `Fx` per element.
//!
//! The analysis runs in two steps. [`WeightNorms::measure`] reads every
//! weight once and keeps only per-bank scalars (`W₁`, the bias maximum,
//! the first unrepresentable parameter, and the raw `max|w|` and row
//! norm the diff harness's reference bounds use); [`analyze_ranges`]
//! propagates bounds from that measurement for any input bound, so the
//! diff harness's stimulus-bound run and the analyzer's dataset-bound
//! run share one pass over the weights.
//!
//! A layer is **proven** when its worst-case accumulator stays strictly
//! below `QFormat::max_value`; it is **chain-proven** when every upstream
//! layer is proven too, i.e. the bound holds end-to-end from the network
//! input. Chain-proven layers need no dynamic saturation guard — this is
//! what lets the diff harness fully audit large-fanin layers instead of
//! skip-auditing them under the pessimistic per-term MAC bound.
//!
//! Layers that cannot overflow by construction (pure routing, LUT reads,
//! max-pooling) are proven trivially; layers whose semantics are not
//! value-arithmetic (classifier ranking, associative addressing) are
//! never proven and simply clamp their bound at the format maximum,
//! which is still a valid bound because every stored `Fx` saturates.

use crate::{Diagnostic, Severity};
use deepburning_compiler::LutImages;
use deepburning_fixed::QFormat;
use deepburning_model::{Activation, Layer, LayerKind, Network, Shape};
use deepburning_tensor::WeightSet;
use deepburning_trace::json::Json;
use std::collections::BTreeMap;

/// Default bound on the network input stimulus: the harness drives
/// normalised activations in `[-1, 1]`.
pub const DEFAULT_INPUT_BOUND: f64 = 1.0;

/// The per-layer result of the range analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeProof {
    /// Layer name.
    pub layer: String,
    /// Layer type (prototxt spelling).
    pub kind: String,
    /// Worst-case MAC terms per output (0 for non-MAC layers).
    pub terms: usize,
    /// Worst per-row L1 norm of the quantised weights (0 for non-MAC).
    pub w1: f64,
    /// Bound on the layer's (quantised) input magnitude.
    pub in_bound: f64,
    /// Worst-case accumulator magnitude before clamping.
    pub pre_act_bound: f64,
    /// Bound on the layer's output magnitude.
    pub out_bound: f64,
    /// The accumulator provably stays below the format maximum.
    pub proven: bool,
    /// This layer and every upstream layer are proven.
    pub chain_proven: bool,
}

impl RangeProof {
    /// JSON rendering used by `deepburning lint --json` and the diff report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("layer", Json::str(self.layer.clone())),
            ("kind", Json::str(self.kind.clone())),
            ("terms", Json::num(self.terms as f64)),
            ("w1", Json::num(self.w1)),
            ("in_bound", Json::num(self.in_bound)),
            ("pre_act_bound", Json::num(self.pre_act_bound)),
            ("out_bound", Json::num(self.out_bound)),
            ("proven", Json::Bool(self.proven)),
            ("chain_proven", Json::Bool(self.chain_proven)),
        ])
    }
}

/// `|ŵ| ≤ min(|w| + q, max)`: round-to-nearest moves a value at most one
/// step, and out-of-range values saturate.
fn quant_abs(w: f32, q: f64, max: f64) -> f64 {
    (f64::from(w).abs() + q).min(max)
}

/// Largest raw magnitude `max|v|`.
fn abs_max(v: &[f32]) -> f64 {
    v.iter().map(|x| f64::from(x.abs())).fold(0.0f64, f64::max)
}

/// Largest quantised magnitude `max min(|v| + q, max)` (0 when empty).
fn quant_abs_max(v: &[f32], q: f64, max: f64) -> f64 {
    v.iter()
        .map(|x| quant_abs(*x, q, max))
        .fold(0.0f64, f64::max)
}

/// Largest absolute stored LUT value, or `default` when the image is
/// absent. Interpolation between samples never exceeds the endpoint
/// values, so this bounds the LUT output for *any* input.
fn lut_abs_max(luts: Option<&LutImages>, name: &str, default: f64) -> f64 {
    luts.and_then(|l| l.get(name))
        .map(|lut| {
            lut.values()
                .iter()
                .map(|v| v.to_f64().abs())
                .fold(0.0f64, f64::max)
        })
        .unwrap_or(default)
}

/// The measured scalars of one MAC bank: a weight matrix of consecutive
/// rows plus its biases.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bank {
    /// MAC terms per output (the row length; 0 for an empty bank).
    terms: usize,
    /// Worst per-row quantised L1 norm, `Σ min(|w| + q, max)`.
    w1: f64,
    /// Largest quantised bias magnitude.
    bias_max: f64,
}

/// One pass over a bank's rows.
struct RowScan {
    bank: Bank,
    /// Worst per-row raw L1 norm, `INFINITY` when the layout is unknown.
    raw_l1: f64,
    /// `max|w|` over the bank.
    abs_max: f64,
}

/// Measures a bank in one pass: the quantised and raw row norms are
/// summed side by side in row order, so each equals its own separate
/// `chunks(row_len)` sum bit for bit. The comparisons pick what
/// `f64::min`/`f64::max` would (a `NaN` weight quantises to `max` and
/// never raises `wmax`) at half the cost per weight.
fn scan_bank(w: &[f32], b: &[f32], row_len: usize, q: f64, max: f64) -> RowScan {
    let bias_max = quant_abs_max(b, q, max);
    if row_len == 0 || w.is_empty() {
        return RowScan {
            bank: Bank {
                terms: 0,
                w1: 0.0,
                bias_max,
            },
            raw_l1: f64::INFINITY,
            abs_max: abs_max(w),
        };
    }
    let (mut w1, mut raw_l1, mut wmax) = (0.0f64, 0.0f64, 0.0f64);
    for row in w.chunks(row_len) {
        let (mut qsum, mut rsum) = (0.0f64, 0.0f64);
        for v in row {
            let a = f64::from(v.abs());
            let quant = a + q;
            qsum += if quant < max { quant } else { max };
            rsum += a;
            if a > wmax {
                wmax = a;
            }
        }
        w1 = w1.max(qsum);
        raw_l1 = raw_l1.max(rsum);
    }
    RowScan {
        bank: Bank {
            terms: row_len,
            w1,
            bias_max,
        },
        raw_l1,
        abs_max: wmax,
    }
}

/// The per-layer scalars of a [`WeightNorms`] measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorms {
    /// MAC banks (one per Inception branch, one for Conv/FC/Recurrent).
    banks: Vec<Bank>,
    /// Associative table cap: the largest quantised stored magnitude.
    table_cap: f64,
    /// First parameter (weights before biases) the format cannot hold.
    overflow: Option<f32>,
    /// `max|w|` over the layer's raw weights.
    w_abs_max: f64,
    /// Worst raw per-row L1 norm of a single-bank MAC layer.
    raw_row_l1: f64,
}

impl LayerNorms {
    /// Largest raw weight magnitude (0 without weights).
    pub fn w_abs_max(&self) -> f64 {
        self.w_abs_max
    }

    /// Worst per-row L1 norm of the raw weights of a Convolution,
    /// FullConnection or Recurrent layer; `INFINITY` for other kinds, a
    /// layer without weights or an unknown row layout.
    pub fn raw_row_l1(&self) -> f64 {
        self.raw_row_l1
    }

    fn measure(
        layer: &Layer,
        w: &[f32],
        b: &[f32],
        in_shape: Shape,
        q: f64,
        max: f64,
    ) -> LayerNorms {
        let single = |row_len: usize| {
            let scan = scan_bank(w, b, row_len, q, max);
            (vec![scan.bank], scan.raw_l1, scan.abs_max)
        };
        let mut table_cap = 0.0;
        let (banks, raw_row_l1, w_abs_max) = match &layer.kind {
            LayerKind::Convolution(p) => {
                single((in_shape.channels / p.group.max(1)) * p.kernel_size * p.kernel_size)
            }
            LayerKind::FullConnection(_) => single(in_shape.elements()),
            LayerKind::Recurrent { num_output, .. } => single(in_shape.elements() + num_output),
            LayerKind::Inception(p) => {
                let ci = in_shape.channels;
                let w1_end = p.c1x1 * ci;
                let w3_end = w1_end + p.c3x3 * ci * 9;
                let w5_end = w3_end + p.c5x5 * ci * 25;
                let wcut = |at: usize| at.min(w.len());
                let bcut = |at: usize| at.min(b.len());
                let b1 = bcut(p.c1x1);
                let b3 = bcut(p.c1x1 + p.c3x3);
                let b5 = bcut(p.c1x1 + p.c3x3 + p.c5x5);
                let scans = [
                    scan_bank(&w[..wcut(w1_end)], &b[..b1], ci, q, max),
                    scan_bank(&w[wcut(w1_end)..wcut(w3_end)], &b[b1..b3], ci * 9, q, max),
                    scan_bank(&w[wcut(w3_end)..wcut(w5_end)], &b[b3..b5], ci * 25, q, max),
                    scan_bank(&w[wcut(w5_end)..], &b[b5..], ci, q, max),
                ];
                let wmax = scans.iter().map(|s| s.abs_max).fold(0.0f64, f64::max);
                // The per-bank row layouts are heterogeneous: no single
                // raw row norm describes the layer.
                (scans.map(|s| s.bank).to_vec(), f64::INFINITY, wmax)
            }
            LayerKind::Associative { .. } => {
                table_cap = quant_abs_max(w, q, max);
                (Vec::new(), f64::INFINITY, abs_max(w))
            }
            _ => (Vec::new(), f64::INFINITY, abs_max(w)),
        };
        let unrepresentable = |v: &&f32| f64::from(v.abs()) >= max;
        let overflow = if w_abs_max >= max {
            w.iter().find(unrepresentable)
        } else {
            b.iter().find(unrepresentable)
        };
        LayerNorms {
            banks,
            table_cap,
            overflow: overflow.copied(),
            w_abs_max,
            raw_row_l1,
        }
    }
}

/// Every weight of a network measured once for one [`QFormat`]: per
/// layer and per MAC bank, the quantised row-L1 bound, the bias maximum
/// and the first unrepresentable parameter, plus the raw `max|w|` and
/// row-L1 norm the diff harness's reference bounds need.
///
/// Only per-bank scalars are kept, never a quantised copy of a tensor.
/// [`analyze_ranges`] propagates bounds from a measurement for any input
/// bound without touching the weights again.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightNorms {
    fmt: QFormat,
    /// One entry per network layer, in order; empty when the network's
    /// shapes do not infer.
    layers: Vec<LayerNorms>,
}

impl WeightNorms {
    /// Measures `weights` of `net` under `fmt`. A layer absent from the
    /// set measures as empty (no banks, `max|w|` 0).
    pub fn measure(net: &Network, weights: &WeightSet, fmt: QFormat) -> WeightNorms {
        let _span = deepburning_trace::span("lint", "lint.range");
        let (q, max) = (fmt.resolution(), fmt.max_value());
        let Ok(shapes) = net.infer_shapes() else {
            return WeightNorms {
                fmt,
                layers: Vec::new(),
            };
        };
        let layers = net
            .layers()
            .iter()
            .map(|layer| {
                let in_shape = layer
                    .bottoms
                    .first()
                    .and_then(|b| shapes.get(b).copied())
                    .unwrap_or(Shape::vector(1));
                let (w, b) = weights
                    .get(&layer.name)
                    .map_or((&[][..], &[][..]), |lw| (&lw.w[..], &lw.b[..]));
                LayerNorms::measure(layer, w, b, in_shape, q, max)
            })
            .collect();
        WeightNorms { fmt, layers }
    }

    /// The format the weights were measured in.
    pub fn format(&self) -> QFormat {
        self.fmt
    }

    /// The measurement of the network's `index`-th layer.
    pub fn layer(&self, index: usize) -> Option<&LayerNorms> {
        self.layers.get(index)
    }
}

struct Ctx<'a> {
    luts: Option<&'a LutImages>,
    q: f64,
    max: f64,
}

struct LayerBound {
    terms: usize,
    w1: f64,
    pre_act: f64,
    out: f64,
    proven: bool,
}

impl LayerBound {
    fn routing(out: f64) -> LayerBound {
        LayerBound {
            terms: 0,
            w1: 0.0,
            pre_act: out,
            out,
            proven: true,
        }
    }

    fn unprovable(max: f64) -> LayerBound {
        LayerBound {
            terms: 0,
            w1: 0.0,
            pre_act: max,
            out: max,
            proven: false,
        }
    }
}

/// One MAC bank: `pre = W₁·B_in + b_max + q`, proven iff below the clamp.
fn mac_bank(bank: &Bank, in_bound: f64, ctx: &Ctx) -> LayerBound {
    let pre = bank.w1 * in_bound + bank.bias_max + ctx.q;
    LayerBound {
        terms: bank.terms,
        w1: bank.w1,
        pre_act: pre,
        out: pre.min(ctx.max),
        proven: pre < ctx.max,
    }
}

fn layer_bound(
    layer: &Layer,
    norms: &LayerNorms,
    in_bound: f64,
    sum_in_bound: f64,
    ctx: &Ctx,
) -> LayerBound {
    let name = layer.name.as_str();
    match &layer.kind {
        LayerKind::Input { .. } => LayerBound::routing(in_bound),
        LayerKind::Convolution(_) | LayerKind::FullConnection(_) => {
            mac_bank(&norms.banks[0], in_bound, ctx)
        }
        LayerKind::Recurrent { steps, .. } => {
            let bank = &norms.banks[0];
            let tanh_cap = lut_abs_max(ctx.luts, "tanh", 1.0);
            // The state is squashed through the tanh LUT every step, so
            // its bound is the LUT cap regardless of the accumulator —
            // but the proof needs every step's accumulator in range.
            let mut h_bound = 0.0f64;
            let mut worst = 0.0f64;
            let mut proven = true;
            for _ in 0..(*steps).max(1) {
                let pre = bank.w1 * in_bound.max(h_bound) + bank.bias_max + ctx.q;
                worst = worst.max(pre);
                proven &= pre < ctx.max;
                h_bound = tanh_cap;
            }
            LayerBound {
                terms: bank.terms,
                w1: bank.w1,
                pre_act: worst,
                out: tanh_cap,
                proven,
            }
        }
        LayerKind::Inception(_) => {
            let mut out = LayerBound {
                terms: 0,
                w1: 0.0,
                pre_act: 0.0,
                out: 0.0,
                proven: true,
            };
            for bank in &norms.banks {
                let bank = mac_bank(bank, in_bound, ctx);
                out.terms = out.terms.max(bank.terms);
                out.w1 = out.w1.max(bank.w1);
                out.pre_act = out.pre_act.max(bank.pre_act);
                out.out = out.out.max(bank.out);
                out.proven &= bank.proven;
            }
            out
        }
        LayerKind::Activation(a) => match a {
            Activation::Relu | Activation::Identity => LayerBound::routing(in_bound),
            Activation::Sigmoid => LayerBound::routing(lut_abs_max(ctx.luts, "sigmoid", 1.0)),
            Activation::Tanh => LayerBound::routing(lut_abs_max(ctx.luts, "tanh", 1.0)),
        },
        LayerKind::Pooling(p) => match p.method {
            deepburning_model::PoolMethod::Max => LayerBound::routing(in_bound),
            deepburning_model::PoolMethod::Average => {
                // The window sum resolves to the format *before* the
                // reciprocal multiply, so the sum itself must fit.
                let window = (p.kernel_size * p.kernel_size) as f64;
                let sum = window * in_bound + ctx.q;
                let recip = (1.0 / window + ctx.q).min(ctx.max);
                LayerBound {
                    terms: p.kernel_size * p.kernel_size,
                    w1: 0.0,
                    pre_act: sum,
                    out: (sum.min(ctx.max) * recip + ctx.q).min(ctx.max),
                    proven: sum < ctx.max,
                }
            }
        },
        LayerKind::Lrn(p) => {
            // Energy = Σ v² over the local window, resolved to the format
            // before indexing the factor LUT.
            let window = p.local_size.max(1) as f64;
            let energy = window * in_bound * in_bound + ctx.q;
            let factor = lut_abs_max(ctx.luts, &format!("lrn:{name}"), 1.0);
            LayerBound {
                terms: p.local_size,
                w1: 0.0,
                pre_act: energy,
                out: (in_bound * factor + ctx.q).min(ctx.max),
                proven: energy < ctx.max,
            }
        }
        LayerKind::Dropout { .. } | LayerKind::Memory { .. } => LayerBound::routing(in_bound),
        LayerKind::Concat => LayerBound::routing(in_bound),
        LayerKind::Eltwise => {
            let sum = sum_in_bound + ctx.q;
            LayerBound {
                terms: 0,
                w1: 0.0,
                pre_act: sum,
                out: sum.min(ctx.max),
                proven: sum < ctx.max,
            }
        }
        LayerKind::Associative { .. } => {
            // Table reads return stored (saturated) values; addressing is
            // not value arithmetic, so there is nothing to prove but the
            // output is bounded by the largest stored magnitude.
            let cap = norms.table_cap.max(ctx.q);
            LayerBound {
                terms: 0,
                w1: 0.0,
                pre_act: cap,
                out: cap,
                proven: true,
            }
        }
        LayerKind::Classifier { .. } => LayerBound::unprovable(ctx.max),
    }
}

/// Runs the range analysis over the full layer graph from one weight
/// measurement, for stimuli bounded by `input_bound`.
///
/// Returns one [`RangeProof`] per non-input layer plus diagnostics:
/// `range/definite-overflow` (error) when a raw weight or bias is
/// unrepresentable in the measured format — quantisation will silently
/// saturate the stored parameter — and `range/may-saturate` (info) when
/// an accumulator bound reaches the clamp, meaning the layer relies on
/// saturation arithmetic and cannot be chain-proven. `norms` must be a
/// measurement of `net`.
pub fn analyze_ranges(
    net: &Network,
    norms: &WeightNorms,
    luts: Option<&LutImages>,
    input_bound: f64,
) -> (Vec<RangeProof>, Vec<Diagnostic>) {
    let _span = deepburning_trace::span("lint", "lint.range");
    let fmt = norms.fmt;
    let ctx = Ctx {
        luts,
        q: fmt.resolution(),
        max: fmt.max_value(),
    };
    if norms.layers.is_empty() {
        return (Vec::new(), Vec::new());
    }
    debug_assert_eq!(
        norms.layers.len(),
        net.layers().len(),
        "foreign measurement"
    );
    // Blob name → (bound on quantised magnitude, every producer proven).
    let mut blobs: BTreeMap<&str, (f64, bool)> = BTreeMap::new();
    let mut proofs = Vec::new();
    let mut diags = Vec::new();
    for (layer, norms) in net.layers().iter().zip(&norms.layers) {
        if let LayerKind::Input { .. } = layer.kind {
            for top in &layer.tops {
                blobs.insert(top, (input_bound.min(ctx.max), true));
            }
            continue;
        }
        let ins: Vec<(f64, bool)> = layer
            .bottoms
            .iter()
            .map(|b| blobs.get(b.as_str()).copied().unwrap_or((ctx.max, false)))
            .collect();
        let in_bound = ins.iter().map(|(b, _)| *b).fold(0.0f64, f64::max);
        let sum_in = ins.iter().map(|(b, _)| *b).sum::<f64>();
        let upstream_proven = ins.iter().all(|(_, p)| *p);
        if let Some(bad) = norms.overflow {
            diags.push(
                Diagnostic::new(
                    "range/definite-overflow",
                    Severity::Error,
                    format!(
                        "parameter {bad} of layer `{}` is unrepresentable in {fmt} \
                         (max {:.6}); quantisation saturates the stored value",
                        layer.name, ctx.max
                    ),
                )
                .in_module(layer.name.clone())
                .suggest("widen the integer field of the QFormat or rescale the layer"),
            );
        }
        let bound = layer_bound(layer, norms, in_bound, sum_in, &ctx);
        let chain = bound.proven && upstream_proven;
        if !bound.proven && bound.terms > 0 {
            diags.push(
                Diagnostic::new(
                    "range/may-saturate",
                    Severity::Info,
                    format!(
                        "layer `{}` accumulator bound {:.1} reaches the {fmt} clamp \
                         ({:.1}); saturation arithmetic is load-bearing and the \
                         layer cannot be statically proven overflow-free",
                        layer.name, bound.pre_act, ctx.max
                    ),
                )
                .in_module(layer.name.clone()),
            );
        }
        for top in &layer.tops {
            blobs.insert(top, (bound.out, chain));
        }
        proofs.push(RangeProof {
            layer: layer.name.clone(),
            kind: layer.kind.type_name().to_string(),
            terms: bound.terms,
            w1: bound.w1,
            in_bound,
            pre_act_bound: bound.pre_act,
            out_bound: bound.out,
            proven: bound.proven,
            chain_proven: chain,
        });
    }
    (proofs, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_model::{FullParam, Layer};
    use deepburning_tensor::LayerWeights;

    fn fc_net(bias: f32) -> (Network, WeightSet) {
        let net = Network::from_layers(
            "t",
            vec![
                Layer::input("data", "data", 1, 2, 2),
                Layer::new(
                    "fc",
                    LayerKind::FullConnection(FullParam {
                        num_output: 2,
                        connectivity_permille: 1000,
                    }),
                    "data",
                    "fc",
                ),
            ],
        )
        .expect("valid");
        let mut ws = WeightSet::new();
        ws.insert(
            "fc",
            LayerWeights {
                w: vec![0.5, -0.5, 0.25, 0.25, 0.1, 0.1, 0.1, 0.1],
                b: vec![bias, 0.0],
            },
        );
        (net, ws)
    }

    /// Injected defect: a bias of 100.0 is unrepresentable in Q4.12
    /// (max ≈ 8) — `range/definite-overflow` must fire at error severity.
    #[test]
    fn overflowing_q4_12_layer_fires() {
        let (net, ws) = fc_net(100.0);
        let fmt = QFormat::new(16, 12).expect("Q4.12");
        let (proofs, diags) =
            analyze_ranges(&net, &WeightNorms::measure(&net, &ws, fmt), None, 1.0);
        let hit = diags
            .iter()
            .find(|d| d.rule == "range/definite-overflow")
            .expect("definite overflow fires");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.module.as_deref(), Some("fc"));
        let p = proofs.iter().find(|p| p.layer == "fc").expect("proof row");
        assert!(!p.chain_proven || p.pre_act_bound < fmt.max_value());
    }

    /// A small FC layer with mild weights is chain-proven in Q8.8.
    #[test]
    fn small_fc_is_chain_proven() {
        let (net, ws) = fc_net(0.5);
        let (proofs, diags) = analyze_ranges(
            &net,
            &WeightNorms::measure(&net, &ws, QFormat::Q8_8),
            None,
            1.0,
        );
        assert!(diags.is_empty(), "{diags:?}");
        let p = proofs.iter().find(|p| p.layer == "fc").expect("proof row");
        assert!(p.proven && p.chain_proven, "{p:?}");
        // W1 row = |0.5|+|-0.5|+|0.25|+|0.25| = 1.5 plus quantisation slack.
        assert!(p.w1 >= 1.5 && p.w1 < 1.6, "{}", p.w1);
        assert!(p.pre_act_bound < 2.2);
    }

    /// Known weights through every measured layer shape: Inception
    /// (four banks of rows 2, 18, 50 and 2 over two input channels),
    /// Recurrent (rows of `n_in + num_output` = 4 + 2), an Associative
    /// table (cap from the largest quantised entry) and an FC layer with
    /// one weight Q7.8 cannot hold. Both input bounds reuse one
    /// measurement; every figure is exact in binary.
    #[test]
    fn one_measurement_pins_proofs_at_two_input_bounds() {
        use deepburning_model::InceptionParam;
        let net = Network::from_layers(
            "t",
            vec![
                Layer::input("data", "data", 2, 1, 1),
                Layer::new(
                    "inc",
                    LayerKind::Inception(InceptionParam {
                        c1x1: 1,
                        c3x3: 1,
                        c5x5: 1,
                        cpool: 1,
                    }),
                    "data",
                    "inc",
                ),
                Layer::new(
                    "rnn",
                    LayerKind::Recurrent {
                        num_output: 2,
                        steps: 3,
                    },
                    "inc",
                    "rnn",
                ),
                Layer::new(
                    "assoc",
                    LayerKind::Associative {
                        table_size: 4,
                        active_cells: 2,
                    },
                    "rnn",
                    "assoc",
                ),
                Layer::new(
                    "fc",
                    LayerKind::FullConnection(FullParam {
                        num_output: 1,
                        connectivity_permille: 1000,
                    }),
                    "assoc",
                    "fc",
                ),
            ],
        )
        .expect("valid");
        let mut ws = WeightSet::new();
        let inc_w = [
            vec![0.5, -0.25],
            vec![0.125; 18],
            vec![0.0625; 50],
            vec![1.0, 1.0],
        ]
        .concat();
        ws.insert(
            "inc",
            LayerWeights {
                w: inc_w,
                b: vec![0.125, -0.5, 0.0, 0.25],
            },
        );
        ws.insert(
            "rnn",
            LayerWeights {
                w: vec![0.5; 12],
                b: vec![0.25, -0.25],
            },
        );
        ws.insert(
            "assoc",
            LayerWeights {
                w: vec![0.75, -1.5, 2.0, 0.0],
                b: Vec::new(),
            },
        );
        ws.insert(
            "fc",
            LayerWeights {
                w: vec![200.0, 0.5],
                b: vec![0.0],
            },
        );
        let norms = WeightNorms::measure(&net, &ws, QFormat::Q8_8);
        let raw: Vec<(f64, f64)> = (1..5)
            .map(|i| {
                let n = norms.layer(i).expect("measured");
                (n.w_abs_max(), n.raw_row_l1())
            })
            .collect();
        let inf = f64::INFINITY;
        assert_eq!(raw, [(1.0, inf), (0.5, 3.0), (2.0, inf), (200.0, 200.5)]);

        // (layer, terms, w1, pre_act_bound, chain_proven) per input bound.
        type Row = (&'static str, usize, f64, f64, bool);
        let expect: [(f64, [Row; 4]); 2] = [
            (
                1.0,
                [
                    ("inc", 50, 3.3203125, 3.328125, true),
                    ("rnn", 6, 3.0234375, 10.3201904296875, true),
                    ("assoc", 0, 0.0, 2.00390625, true),
                    ("fc", 2, 128.5, 257.509765625, false),
                ],
            ),
            (
                16.0,
                [
                    ("inc", 50, 3.3203125, 53.1328125, true),
                    ("rnn", 6, 3.0234375, 160.90155029296875, false),
                    ("assoc", 0, 0.0, 2.00390625, false),
                    ("fc", 2, 128.5, 257.509765625, false),
                ],
            ),
        ];
        for (bound, rows) in expect {
            let (proofs, diags) = analyze_ranges(&net, &norms, None, bound);
            let got: Vec<(&str, usize, f64, f64, bool)> = proofs
                .iter()
                .map(|p| {
                    (
                        p.layer.as_str(),
                        p.terms,
                        p.w1,
                        p.pre_act_bound,
                        p.chain_proven,
                    )
                })
                .collect();
            assert_eq!(got, rows, "input bound {bound}");
            let overflow: Vec<&str> = diags
                .iter()
                .filter(|d| d.rule == "range/definite-overflow")
                .map(|d| d.message.as_str())
                .collect();
            assert_eq!(
                overflow,
                [
                    "parameter 200 of layer `fc` is unrepresentable in Q7.8 (max 127.996094); \
                  quantisation saturates the stored value"
                ],
                "input bound {bound}"
            );
        }
    }

    /// The bound is monotone: a huge fan-in with uniform weights exceeds
    /// the Q8.8 clamp and the layer is reported, at info severity, as
    /// relying on saturation.
    #[test]
    fn oversized_fanin_is_not_proven() {
        let net = Network::from_layers(
            "t",
            vec![
                Layer::input("data", "data", 8, 16, 16),
                Layer::new(
                    "fc",
                    LayerKind::FullConnection(FullParam {
                        num_output: 4,
                        connectivity_permille: 1000,
                    }),
                    "data",
                    "fc",
                ),
            ],
        )
        .expect("valid");
        let n = 8 * 16 * 16;
        let mut ws = WeightSet::new();
        ws.insert(
            "fc",
            LayerWeights {
                w: vec![0.25; n * 4],
                b: vec![0.0; 4],
            },
        );
        let (proofs, diags) = analyze_ranges(
            &net,
            &WeightNorms::measure(&net, &ws, QFormat::Q8_8),
            None,
            1.0,
        );
        let p = proofs.iter().find(|p| p.layer == "fc").expect("proof row");
        assert!(!p.proven, "W1 ≈ 512 must exceed 127.996: {p:?}");
        assert!(diags.iter().any(|d| d.rule == "range/may-saturate"));
    }
}
