//! Functional fixed-point simulation of the generated datapath.
//!
//! Executes a network exactly as the accelerator would: operands quantised
//! to the datapath's [`QFormat`], MACs through wide saturating
//! accumulators, activations through the compiler's Approx LUT images, and
//! average pooling through the connection box's shifting latch. Comparing
//! the result against the f32 reference (`deepburning_tensor`) yields the
//! accuracy experiment of paper Fig. 10.

use deepburning_compiler::LutImages;
use deepburning_fixed::{Accumulator, ApproxLut, Fx, QFormat, Rounding};
use deepburning_model::{Activation, ConvParam, Layer, LayerKind, Network, PoolMethod, Shape};
use deepburning_tensor::{cmac_index, LayerWeights, Tensor, WeightSet};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// Error raised during functional simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalError {
    /// The layer where simulation failed.
    pub layer: String,
    /// Explanation.
    pub detail: String,
}

impl fmt::Display for FunctionalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulating `{}`: {}", self.layer, self.detail)
    }
}

impl std::error::Error for FunctionalError {}

fn err(layer: &str, detail: impl Into<String>) -> FunctionalError {
    FunctionalError {
        layer: layer.to_string(),
        detail: detail.into(),
    }
}

/// A fixed-point blob.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FxBlob {
    pub(crate) shape: Shape,
    pub(crate) data: Vec<Fx>,
}

impl FxBlob {
    pub(crate) fn zeros(shape: Shape, fmt: QFormat) -> Self {
        FxBlob {
            shape,
            data: vec![Fx::zero(fmt); shape.elements()],
        }
    }

    pub(crate) fn from_tensor(t: &Tensor, fmt: QFormat) -> Self {
        FxBlob {
            shape: t.shape(),
            data: t
                .as_slice()
                .iter()
                .map(|&v| Fx::from_f64(v as f64, fmt))
                .collect(),
        }
    }

    pub(crate) fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(
            self.shape,
            self.data.iter().map(|v| v.to_f64() as f32).collect(),
        )
    }

    #[inline]
    pub(crate) fn get(&self, c: usize, y: usize, x: usize) -> Fx {
        self.data[(c * self.shape.height + y) * self.shape.width + x]
    }

    #[inline]
    pub(crate) fn get_padded(&self, fmt: QFormat, c: usize, y: isize, x: isize) -> Fx {
        if y < 0 || x < 0 || y >= self.shape.height as isize || x >= self.shape.width as isize {
            Fx::zero(fmt)
        } else {
            self.get(c, y as usize, x as usize)
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, c: usize, y: usize, x: usize, v: Fx) {
        self.data[(c * self.shape.height + y) * self.shape.width + x] = v;
    }
}

/// One layer's parameters quantised to the datapath format, as canonical
/// raw integers (`QFormat` caps formats at 32 bits, so `i32` holds every
/// raw value). Each weight is quantised once into this form; the
/// fixed-point view, the RTL view and the full run's DRAM image all read
/// the same copy.
#[derive(Debug)]
pub(crate) struct QuantWeights {
    pub(crate) w: Vec<i32>,
    pub(crate) b: Vec<i32>,
}

impl QuantWeights {
    pub(crate) fn new(lw: &LayerWeights, fmt: QFormat) -> Self {
        QuantWeights {
            w: lw.w.iter().map(|&v| quantize(v, fmt)).collect(),
            b: lw.b.iter().map(|&v| quantize(v, fmt)).collect(),
        }
    }
}

/// `layer`'s parameters in `weights` and the quantised copy its views
/// share. A fully connected layer gets no copy: [`fc_fx`] quantises each
/// row as it reaches it and the RTL view the rows it samples, so no view
/// holds a quantised copy of a large matrix (GoogleNet's `fc` has 43 M
/// weights).
pub(crate) fn layer_weights<'w>(
    layer: &Layer,
    weights: &'w WeightSet,
    fmt: QFormat,
) -> (Option<&'w LayerWeights>, Option<QuantWeights>) {
    let lw = weights.get(&layer.name);
    let qw = lw
        .filter(|_| !matches!(layer.kind, LayerKind::FullConnection(_)))
        .map(|lw| QuantWeights::new(lw, fmt));
    (lw, qw)
}

/// The raw value of one parameter.
#[inline]
fn quantize(v: f32, fmt: QFormat) -> i32 {
    Fx::from_f64(f64::from(v), fmt).raw() as i32
}

/// The value of a quantised raw parameter.
#[inline]
pub(crate) fn fx(raw: i32, fmt: QFormat) -> Fx {
    Fx::from_raw(i64::from(raw), fmt)
}

/// The raw values of a blob, read once per kernel call.
fn raws(blob: &FxBlob) -> Vec<i32> {
    blob.data.iter().map(|v| v.raw() as i32).collect()
}

/// An exact MAC accumulator. Both widths compute `Σ w·x + (bias << frac)`
/// without rounding, so the kernels below are bit-identical whichever one
/// runs; [`fits_i64`] picks the narrow one where it cannot overflow.
trait Wide: Copy + From<i32> + std::ops::AddAssign + std::ops::Mul<Output = Self> {
    /// The bias injected at the accumulator's binary point.
    fn bias(raw: i32, frac: u32) -> Self;
    /// `self >> frac`, clamped into `i64` (what `Fx::from_raw` takes).
    fn resolve(self, frac: u32) -> i64;
}

impl Wide for i64 {
    #[inline]
    fn bias(raw: i32, frac: u32) -> Self {
        i64::from(raw) << frac
    }
    #[inline]
    fn resolve(self, frac: u32) -> i64 {
        self >> frac
    }
}

impl Wide for i128 {
    #[inline]
    fn bias(raw: i32, frac: u32) -> Self {
        i128::from(raw) << frac
    }
    #[inline]
    fn resolve(self, frac: u32) -> i64 {
        (self >> frac).clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }
}

/// Whether a sum of `terms` products of `fmt` raw values plus one bias
/// at the binary point is exact in `i64`: every product is at most
/// `2^(2b−2)` in magnitude (`b` = total bits, both rails), the bias at
/// most `2^(b−1+frac)`, so `terms·2^(2b−2) + 2^(b−1+frac) < 2^63` bounds
/// every partial sum in any order.
fn fits_i64(terms: usize, fmt: QFormat) -> bool {
    let b = fmt.total_bits();
    let bound = ((terms as u128) << (2 * b - 2)) + (1u128 << (b - 1 + fmt.frac_bits()));
    bound < 1u128 << 63
}

/// The outputs `o` in `0..out` whose input coordinate `o·stride + k − pad`
/// lies inside `0..n`: the reach of kernel offset `k` along one axis. It is
/// empty where the offset only ever meets padding (a kernel wider than the
/// input), and never starts past `out`.
fn reach(out: usize, n: usize, k: usize, stride: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    let hi = if n + pad > k {
        ((n - 1 + pad - k) / stride + 1).min(out)
    } else {
        0
    };
    lo.min(hi)..hi
}

/// The kernel offsets along one axis that reach at least one output, with
/// their reaches; offsets that only meet padding are dropped.
fn reaches(out: usize, n: usize, p: &ConvParam) -> Vec<(usize, Range<usize>)> {
    (0..p.kernel_size)
        .map(|k| (k, reach(out, n, k, p.stride, p.pad)))
        .filter(|(_, r)| !r.is_empty())
        .collect()
}

/// Convolution by output planes. Each output channel's accumulator plane
/// starts at its bias; every weight is then broadcast over the output rows
/// and columns its kernel offset reaches ([`reach`], computed once per
/// offset), so the MAC loop tests no padding. The sum is exact, `i64`
/// where [`fits_i64`] proves it cannot overflow and `i128` otherwise,
/// and each output is `(acc >> frac)` saturated by `Fx::from_raw` — what
/// `Accumulator::mac` + `resolve(Truncate)` compute per output.
fn conv_fx(input: &FxBlob, w: &[i32], b: &[i32], p: &ConvParam, fmt: QFormat) -> FxBlob {
    let terms = input.shape.channels / p.group * p.kernel_size * p.kernel_size;
    if fits_i64(terms, fmt) {
        conv_planes::<i64>(input, w, b, p, fmt)
    } else {
        conv_planes::<i128>(input, w, b, p, fmt)
    }
}

fn conv_planes<A: Wide>(
    input: &FxBlob,
    w: &[i32],
    b: &[i32],
    p: &ConvParam,
    fmt: QFormat,
) -> FxBlob {
    let ConvParam {
        num_output,
        kernel_size: kernel,
        stride,
        pad,
        group,
    } = *p;
    let cig = input.shape.channels / group;
    let cog = num_output / group;
    let (ih, iw) = (input.shape.height, input.shape.width);
    let oh = (ih + 2 * pad - kernel) / stride + 1;
    let ow = (iw + 2 * pad - kernel) / stride + 1;
    let frac = fmt.frac_bits();
    let xs = raws(input);
    let (rows, cols) = (reaches(oh, ih, p), reaches(ow, iw, p));
    let mut plane = vec![A::from(0); oh * ow];
    let mut data = Vec::with_capacity(num_output * oh * ow);
    for co in 0..num_output {
        let g = co / cog;
        plane.fill(b.get(co).map_or(A::from(0), |&v| A::bias(v, frac)));
        for icg in 0..cig {
            let x = &xs[(g * cig + icg) * ih * iw..][..ih * iw];
            let wk = &w[(co * cig + icg) * kernel * kernel..][..kernel * kernel];
            for &(ky, ref ys) in &rows {
                for &(kx, ref xr) in &cols {
                    let wv = A::from(wk[ky * kernel + kx]);
                    // First input column of the (non-empty) reach:
                    // `xr.start·stride + kx − pad`.
                    let ix0 = xr.start * stride + kx - pad;
                    for oy in ys.clone() {
                        let acc = &mut plane[oy * ow..][xr.clone()];
                        let xrow = &x[(oy * stride + ky - pad) * iw..][..iw];
                        if stride == 1 {
                            for (a, &v) in acc.iter_mut().zip(&xrow[ix0..ix0 + xr.len()]) {
                                *a += wv * A::from(v);
                            }
                        } else {
                            for (a, &v) in acc.iter_mut().zip(xrow[ix0..].iter().step_by(stride)) {
                                *a += wv * A::from(v);
                            }
                        }
                    }
                }
            }
        }
        data.extend(plane.iter().map(|a| Fx::from_raw(a.resolve(frac), fmt)));
    }
    FxBlob {
        shape: Shape::new(num_output, oh, ow),
        data,
    }
}

fn pool_fx(
    input: &FxBlob,
    method: PoolMethod,
    kernel: usize,
    stride: usize,
    fmt: QFormat,
) -> FxBlob {
    let oh = (input.shape.height - kernel) / stride + 1;
    let ow = (input.shape.width - kernel) / stride + 1;
    let mut out = FxBlob::zeros(Shape::new(input.shape.channels, oh, ow), fmt);
    let window = kernel * kernel;
    let recip = Fx::from_f64(1.0 / window as f64, fmt);
    for c in 0..input.shape.channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let v = match method {
                    PoolMethod::Max => {
                        let mut best = Fx::from_raw(fmt.min_raw(), fmt);
                        for ky in 0..kernel {
                            for kx in 0..kernel {
                                best = best.max(input.get(c, oy * stride + ky, ox * stride + kx));
                            }
                        }
                        best
                    }
                    PoolMethod::Average => {
                        let mut acc = Accumulator::new(fmt);
                        for ky in 0..kernel {
                            for kx in 0..kernel {
                                acc.add(input.get(c, oy * stride + ky, ox * stride + kx));
                            }
                        }
                        let sum = acc.resolve(Rounding::Truncate);
                        if window.is_power_of_two() {
                            // The shifting latch: approximate division.
                            sum.shift_right(window.trailing_zeros())
                        } else {
                            sum * recip
                        }
                    }
                };
                out.set(c, oy, ox, v);
            }
        }
    }
    out
}

/// Fully connected layer: one exact dot product per output over raw
/// values, `i64` where [`fits_i64`] proves it cannot overflow and `i128`
/// otherwise, resolved as in [`conv_fx`]. The full run passes the copy it
/// quantised once for its DRAM image as `qw`, and the rows come from it;
/// the diff passes none (see [`layer_weights`]), and each row of `lw` is
/// quantised into one reused buffer when it is reached. The full run
/// reads its copy because quantising the rows a second time measurably
/// slowed it (DESIGN §13).
fn fc_fx(
    input: &FxBlob,
    lw: &LayerWeights,
    qw: Option<&QuantWeights>,
    num_output: usize,
    fmt: QFormat,
) -> FxBlob {
    let xs = raws(input);
    let n = xs.len();
    let frac = fmt.frac_bits();
    let narrow = fits_i64(n, fmt);
    let mut buf = Vec::new();
    let mut data = Vec::with_capacity(num_output);
    for o in 0..num_output {
        let (row, bias) = match qw {
            Some(q) => (&q.w[o * n..(o + 1) * n], q.b.get(o).copied()),
            None => {
                buf.clear();
                buf.extend(lw.w[o * n..(o + 1) * n].iter().map(|&v| quantize(v, fmt)));
                (&buf[..], lw.b.get(o).map(|&v| quantize(v, fmt)))
            }
        };
        let raw = if narrow {
            dot::<i64>(bias, &xs, row, frac)
        } else {
            dot::<i128>(bias, &xs, row, frac)
        };
        data.push(Fx::from_raw(raw, fmt));
    }
    FxBlob {
        shape: Shape::vector(num_output),
        data,
    }
}

/// `Σ x·w + (bias << frac)`, exact in `A`, resolved.
fn dot<A: Wide>(bias: Option<i32>, xs: &[i32], w: &[i32], frac: u32) -> i64 {
    let mut acc = bias.map_or(A::from(0), |v| A::bias(v, frac));
    for (&x, &wv) in xs.iter().zip(w) {
        acc += A::from(x) * A::from(wv);
    }
    acc.resolve(frac)
}

fn activation_fx(
    input: &FxBlob,
    act: Activation,
    luts: &LutImages,
    fmt: QFormat,
    layer: &str,
) -> Result<FxBlob, FunctionalError> {
    let table: Option<&ApproxLut> = match act {
        Activation::Sigmoid => Some(
            luts.get("sigmoid")
                .ok_or_else(|| err(layer, "sigmoid LUT image missing"))?,
        ),
        Activation::Tanh => Some(
            luts.get("tanh")
                .ok_or_else(|| err(layer, "tanh LUT image missing"))?,
        ),
        Activation::Relu | Activation::Identity => None,
    };
    let mut out = input.clone();
    for v in &mut out.data {
        *v = match (act, table) {
            (Activation::Relu, _) => v.max(Fx::zero(fmt)),
            (Activation::Identity, _) => *v,
            (_, Some(t)) => t.eval(*v),
            _ => unreachable!("table present for LUT activations"),
        };
    }
    Ok(out)
}

fn lrn_fx(input: &FxBlob, local_size: usize, lut: &ApproxLut, fmt: QFormat) -> FxBlob {
    let s = input.shape;
    let half = local_size / 2;
    let mut out = FxBlob::zeros(s, fmt);
    for c in 0..s.channels {
        for y in 0..s.height {
            for x in 0..s.width {
                let lo = c.saturating_sub(half);
                let hi = (c + half).min(s.channels - 1);
                let mut acc = Accumulator::new(fmt);
                for cc in lo..=hi {
                    let v = input.get(cc, y, x);
                    acc.mac(v, v);
                }
                let energy = acc.resolve(Rounding::Truncate);
                let factor = lut.eval(energy);
                out.set(c, y, x, input.get(c, y, x) * factor);
            }
        }
    }
    out
}

fn recurrent_fx(
    input: &FxBlob,
    w: &[i32],
    b: &[i32],
    num_output: usize,
    steps: usize,
    tanh: &ApproxLut,
    fmt: QFormat,
) -> FxBlob {
    let n_in = input.data.len();
    let mut h = vec![Fx::zero(fmt); num_output];
    for _ in 0..steps.max(1) {
        let mut next = vec![Fx::zero(fmt); num_output];
        for (o, slot) in next.iter_mut().enumerate() {
            let row = &w[o * (n_in + num_output)..(o + 1) * (n_in + num_output)];
            let mut acc = Accumulator::new(fmt);
            if let Some(&bias) = b.get(o) {
                acc.add(fx(bias, fmt));
            }
            for (x, &wv) in input.data.iter().zip(&row[..n_in]) {
                acc.mac(*x, fx(wv, fmt));
            }
            for (hv, &wv) in h.iter().zip(&row[n_in..]) {
                acc.mac(*hv, fx(wv, fmt));
            }
            *slot = tanh.eval(acc.resolve(Rounding::Truncate));
        }
        h = next;
    }
    FxBlob {
        shape: Shape::vector(num_output),
        data: h,
    }
}

/// Runs the fixed-point forward pass, returning all blob values as f32
/// tensors (for direct comparison with the reference engine).
///
/// # Errors
///
/// Returns [`FunctionalError`] if weights or LUT images are missing, or the
/// input shape mismatches.
pub fn functional_forward_all(
    net: &Network,
    weights: &WeightSet,
    input: &Tensor,
    luts: &LutImages,
    fmt: QFormat,
) -> Result<BTreeMap<String, Tensor>, FunctionalError> {
    use deepburning_trace as trace;
    if input.shape() != net.input_shape() {
        return Err(err("input", "input shape mismatch"));
    }
    let _span = trace::span("sim", "sim.functional");
    let mut blobs: BTreeMap<String, FxBlob> = BTreeMap::new();
    for layer in net.layers() {
        let (lw, qw) = layer_weights(layer, weights, fmt);
        let out = eval_fx_layer(layer, &blobs, lw, qw.as_ref(), input, luts, fmt)?;
        // One counter bump per layer, not per element — keeps the hot loops
        // untouched.
        if trace::active() {
            trace::counter("sim", "fx.layers", 1.0);
            trace::counter("sim", "fx.elements", out.data.len() as f64);
            if matches!(
                layer.kind,
                LayerKind::Activation(Activation::Sigmoid | Activation::Tanh)
                    | LayerKind::Lrn(_)
                    | LayerKind::Recurrent { .. }
            ) {
                trace::counter("sim", "fx.lut_evals", out.data.len() as f64);
            }
        }
        for top in &layer.tops {
            blobs.insert(top.clone(), out.clone());
        }
    }
    Ok(blobs.into_iter().map(|(k, v)| (k, v.to_tensor())).collect())
}

/// Evaluates one layer of the fixed-point view from its computed bottoms,
/// its parameters `lw` and their quantised copy `qw` (see
/// [`layer_weights`]; a fully connected layer reads `lw` when it has no
/// copy).
pub(crate) fn eval_fx_layer(
    layer: &Layer,
    blobs: &BTreeMap<String, FxBlob>,
    lw: Option<&LayerWeights>,
    qw: Option<&QuantWeights>,
    input: &Tensor,
    luts: &LutImages,
    fmt: QFormat,
) -> Result<FxBlob, FunctionalError> {
    let bottom = |i: usize| -> Result<&FxBlob, FunctionalError> {
        layer
            .bottoms
            .get(i)
            .and_then(|b| blobs.get(b))
            .ok_or_else(|| err(&layer.name, "input blob not computed"))
    };
    let missing = || err(&layer.name, "weights missing");
    let quantised = || qw.ok_or_else(missing);
    Ok(match &layer.kind {
        LayerKind::Input { .. } => FxBlob::from_tensor(input, fmt),
        LayerKind::Convolution(p) => {
            let q = quantised()?;
            conv_fx(bottom(0)?, &q.w, &q.b, p, fmt)
        }
        LayerKind::Pooling(p) => pool_fx(bottom(0)?, p.method, p.kernel_size, p.stride, fmt),
        LayerKind::FullConnection(p) => {
            fc_fx(bottom(0)?, lw.ok_or_else(missing)?, qw, p.num_output, fmt)
        }
        LayerKind::Activation(a) => activation_fx(bottom(0)?, *a, luts, fmt, &layer.name)?,
        LayerKind::Lrn(p) => {
            let lut = luts
                .get(&format!("lrn:{}", layer.name))
                .ok_or_else(|| err(&layer.name, "LRN factor LUT missing"))?;
            lrn_fx(bottom(0)?, p.local_size, lut, fmt)
        }
        LayerKind::Dropout { .. } | LayerKind::Memory { .. } => bottom(0)?.clone(),
        LayerKind::Recurrent { num_output, steps } => {
            let q = quantised()?;
            let tanh = luts
                .get("tanh")
                .ok_or_else(|| err(&layer.name, "tanh LUT image missing"))?;
            recurrent_fx(bottom(0)?, &q.w, &q.b, *num_output, *steps, tanh, fmt)
        }
        LayerKind::Associative {
            table_size,
            active_cells,
        } => {
            let table = &quantised()?.w;
            let src = bottom(0)?;
            let x: Vec<f32> = src.data.iter().map(|v| v.to_f64() as f32).collect();
            let data = (0..*active_cells)
                .map(|slot| fx(table[cmac_index(&x, slot, *active_cells, *table_size)], fmt))
                .collect();
            FxBlob {
                shape: Shape::vector(*active_cells),
                data,
            }
        }
        LayerKind::Classifier { top_k } => {
            let src = bottom(0)?;
            let mut indexed: Vec<(usize, Fx)> = src.data.iter().copied().enumerate().collect();
            indexed.sort_by_key(|&(_, v)| std::cmp::Reverse(v.raw()));
            FxBlob {
                shape: Shape::vector(*top_k),
                data: indexed
                    .iter()
                    .take(*top_k)
                    .map(|(i, _)| Fx::from_f64(*i as f64, fmt))
                    .collect(),
            }
        }
        LayerKind::Inception(p) => {
            let QuantWeights { w, b } = quantised()?;
            let src = bottom(0)?;
            let ci = src.shape.channels;
            let w1_end = p.c1x1 * ci;
            let w3_end = w1_end + p.c3x3 * ci * 9;
            let w5_end = w3_end + p.c5x5 * ci * 25;
            let (b3, b5) = (p.c1x1 + p.c3x3, p.c1x1 + p.c3x3 + p.c5x5);
            let branch = |c, k, pad| ConvParam::new(c, k, 1).with_pad(pad);
            let o1 = conv_fx(src, &w[..w1_end], &b[..p.c1x1], &branch(p.c1x1, 1, 0), fmt);
            let o3 = conv_fx(
                src,
                &w[w1_end..w3_end],
                &b[p.c1x1..b3],
                &branch(p.c3x3, 3, 1),
                fmt,
            );
            let o5 = conv_fx(
                src,
                &w[w3_end..w5_end],
                &b[b3..b5],
                &branch(p.c5x5, 5, 2),
                fmt,
            );
            // Pool branch: clamped 3x3 max then 1x1 projection.
            let mut pooled = src.clone();
            for c in 0..ci {
                for y in 0..src.shape.height {
                    for x in 0..src.shape.width {
                        let mut m = Fx::from_raw(fmt.min_raw(), fmt);
                        for dy in -1isize..=1 {
                            for dx in -1isize..=1 {
                                let yy = y as isize + dy;
                                let xx = x as isize + dx;
                                if yy >= 0
                                    && xx >= 0
                                    && (yy as usize) < src.shape.height
                                    && (xx as usize) < src.shape.width
                                {
                                    m = m.max(src.get(c, yy as usize, xx as usize));
                                }
                            }
                        }
                        pooled.set(c, y, x, m);
                    }
                }
            }
            let op = conv_fx(&pooled, &w[w5_end..], &b[b5..], &branch(p.cpool, 1, 0), fmt);
            // Concatenate branches over channels.
            let (h, wd) = (src.shape.height, src.shape.width);
            let mut out = FxBlob::zeros(Shape::new(p.total_output(), h, wd), fmt);
            let mut base = 0;
            for part in [&o1, &o3, &o5, &op] {
                for c in 0..part.shape.channels {
                    for y in 0..h {
                        for x in 0..wd {
                            out.set(base + c, y, x, part.get(c, y, x));
                        }
                    }
                }
                base += part.shape.channels;
            }
            out
        }
        LayerKind::Concat => {
            let parts: Vec<&FxBlob> = (0..layer.bottoms.len())
                .map(bottom)
                .collect::<Result<_, _>>()?;
            let (h, w) = (parts[0].shape.height, parts[0].shape.width);
            let total: usize = parts.iter().map(|p| p.shape.channels).sum();
            let mut out = FxBlob::zeros(Shape::new(total, h, w), fmt);
            let mut base = 0;
            for part in parts {
                for c in 0..part.shape.channels {
                    for y in 0..h {
                        for x in 0..w {
                            out.set(base + c, y, x, part.get(c, y, x));
                        }
                    }
                }
                base += part.shape.channels;
            }
            out
        }
        LayerKind::Eltwise => {
            let mut out = bottom(0)?.clone();
            for i in 1..layer.bottoms.len() {
                let other = bottom(i)?;
                for (o, v) in out.data.iter_mut().zip(&other.data) {
                    *o = *o + *v;
                }
            }
            out
        }
    })
}

/// Runs the fixed-point forward pass and returns the final output.
///
/// # Errors
///
/// See [`functional_forward_all`].
pub fn functional_forward(
    net: &Network,
    weights: &WeightSet,
    input: &Tensor,
    luts: &LutImages,
    fmt: QFormat,
) -> Result<Tensor, FunctionalError> {
    let blobs = functional_forward_all(net, weights, input, luts, fmt)?;
    let outs = net.output_blobs();
    let last = outs
        .last()
        .ok_or_else(|| err("network", "no output blob"))?;
    Ok(blobs[last].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_compiler::{generate_luts, CompilerConfig};
    use deepburning_model::{parse_network, FullParam};
    use deepburning_tensor::{forward, tensor_accuracy, Init};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mlp_src() -> &'static str {
        r#"
        layers { name: "data" type: INPUT top: "data"
                 input_param { channels: 6 height: 1 width: 1 } }
        layers { name: "h" type: FC bottom: "data" top: "h"
                 param { num_output: 12 } }
        layers { name: "sig" type: SIGMOID bottom: "h" top: "h" }
        layers { name: "o" type: FC bottom: "h" top: "o"
                 param { num_output: 4 } }
        "#
    }

    #[test]
    fn fixed_point_tracks_f32_reference() {
        let net = parse_network(mlp_src()).expect("parses");
        let mut rng = StdRng::seed_from_u64(7);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let cfg = CompilerConfig::default();
        let luts = generate_luts(&net, &cfg).expect("luts");
        let input = Tensor::vector(&[0.5, -0.25, 0.75, 0.1, -0.6, 0.3]);
        let golden = forward(&net, &ws, &input).expect("reference");
        let approx = functional_forward(&net, &ws, &input, &luts, cfg.format).expect("sim");
        let acc = tensor_accuracy(&approx, &golden);
        assert!(acc > 95.0, "accuracy {acc}%");
    }

    #[test]
    fn wider_format_is_more_accurate() {
        let net = parse_network(mlp_src()).expect("parses");
        let mut rng = StdRng::seed_from_u64(11);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let input = Tensor::vector(&[0.3, 0.9, -0.4, 0.2, 0.6, -0.8]);
        let golden = forward(&net, &ws, &input).expect("reference");

        let narrow_cfg = CompilerConfig {
            format: QFormat::Q4_4,
            ..CompilerConfig::default()
        };
        let wide_cfg = CompilerConfig {
            format: QFormat::Q16_16,
            lut_entries: 256,
            ..CompilerConfig::default()
        };
        let narrow = functional_forward(
            &net,
            &ws,
            &input,
            &generate_luts(&net, &narrow_cfg).expect("luts"),
            narrow_cfg.format,
        )
        .expect("sim");
        let wide = functional_forward(
            &net,
            &ws,
            &input,
            &generate_luts(&net, &wide_cfg).expect("luts"),
            wide_cfg.format,
        )
        .expect("sim");
        let acc_narrow = tensor_accuracy(&narrow, &golden);
        let acc_wide = tensor_accuracy(&wide, &golden);
        assert!(acc_wide >= acc_narrow, "{acc_wide} vs {acc_narrow}");
        assert!(acc_wide > 99.0, "{acc_wide}");
    }

    #[test]
    fn conv_pool_path_matches_reference_shape_and_values() {
        let src = r#"
        layers { name: "data" type: INPUT top: "data"
                 input_param { channels: 1 height: 8 width: 8 } }
        layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
                 param { num_output: 4 kernel_size: 3 stride: 1 } }
        layers { name: "relu" type: RELU bottom: "conv" top: "conv" }
        layers { name: "pool" type: POOLING bottom: "conv" top: "pool"
                 pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
        "#;
        let net = parse_network(src).expect("parses");
        let mut rng = StdRng::seed_from_u64(3);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let cfg = CompilerConfig::default();
        let luts = generate_luts(&net, &cfg).expect("luts");
        let input = Tensor::from_fn(Shape::new(1, 8, 8), |_, y, x| ((y * 8 + x) as f32) / 64.0);
        let golden = forward(&net, &ws, &input).expect("reference");
        let approx = functional_forward(&net, &ws, &input, &luts, cfg.format).expect("sim");
        assert_eq!(approx.shape(), golden.shape());
        let acc = tensor_accuracy(&approx, &golden);
        assert!(acc > 95.0, "accuracy {acc}%");
    }

    #[test]
    fn avg_pool_uses_shift_for_pow2_windows() {
        let src = r#"
        layers { name: "data" type: INPUT top: "data"
                 input_param { channels: 1 height: 4 width: 4 } }
        layers { name: "pool" type: POOLING bottom: "data" top: "pool"
                 pooling_param { pool: AVE kernel_size: 2 stride: 2 } }
        "#;
        let net = parse_network(src).expect("parses");
        let ws = WeightSet::new();
        let luts = LutImages::new();
        let input = Tensor::from_fn(Shape::new(1, 4, 4), |_, _, _| 1.0);
        let out = functional_forward(&net, &ws, &input, &luts, QFormat::Q8_8).expect("sim");
        // (1+1+1+1) >> 2 = 1 exactly.
        assert!(out.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn missing_lut_image_is_an_error() {
        let net = parse_network(mlp_src()).expect("parses");
        let mut rng = StdRng::seed_from_u64(1);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let e = functional_forward(
            &net,
            &ws,
            &Tensor::vector(&[0.0; 6]),
            &LutImages::new(),
            QFormat::Q8_8,
        )
        .unwrap_err();
        assert!(e.detail.contains("sigmoid LUT image missing"));
    }

    #[test]
    fn classifier_indices_exact() {
        let src = r#"
        layers { name: "data" type: INPUT top: "data"
                 input_param { channels: 4 height: 1 width: 1 } }
        layers { name: "cls" type: CLASSIFIER bottom: "data" top: "cls"
                 classifier_param { top_k: 2 } }
        "#;
        let net = parse_network(src).expect("parses");
        let out = functional_forward(
            &net,
            &WeightSet::new(),
            &Tensor::vector(&[0.1, 0.9, 0.2, 0.5]),
            &LutImages::new(),
            QFormat::Q8_8,
        )
        .expect("sim");
        assert_eq!(out.as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn weights_layout_mismatch_caught() {
        let net = parse_network(mlp_src()).expect("parses");
        // No weights at all.
        let e = functional_forward(
            &net,
            &WeightSet::new(),
            &Tensor::vector(&[0.0; 6]),
            &LutImages::new(),
            QFormat::Q8_8,
        )
        .unwrap_err();
        assert!(e.detail.contains("weights missing"));
    }

    #[test]
    fn eq1_metric_against_direct_quantization() {
        // Quantisation alone (no LUT error) keeps the relative-distance
        // accuracy near 100% for a linear layer.
        let net = deepburning_model::Network::from_layers(
            "lin",
            vec![
                deepburning_model::Layer::input("data", "data", 4, 1, 1),
                deepburning_model::Layer::new(
                    "fc",
                    LayerKind::FullConnection(FullParam::dense(4)),
                    "data",
                    "fc",
                ),
            ],
        )
        .expect("valid");
        let mut rng = StdRng::seed_from_u64(2);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let input = Tensor::vector(&[0.25, -0.5, 0.125, 1.0]);
        let golden = forward(&net, &ws, &input).expect("reference");
        let approx =
            functional_forward(&net, &ws, &input, &LutImages::new(), QFormat::Q16_16).expect("sim");
        assert!(tensor_accuracy(&approx, &golden) > 99.9);
    }

    #[test]
    fn grouped_conv_fx() {
        let net = deepburning_model::Network::from_layers(
            "g",
            vec![
                deepburning_model::Layer::input("data", "data", 2, 3, 3),
                deepburning_model::Layer::new(
                    "conv",
                    LayerKind::Convolution(ConvParam::new(2, 1, 1).with_group(2)),
                    "data",
                    "conv",
                ),
            ],
        )
        .expect("valid");
        let mut ws = WeightSet::new();
        ws.insert(
            "conv",
            deepburning_tensor::LayerWeights {
                w: vec![1.0, 1.0],
                b: vec![0.0, 0.0],
            },
        );
        let input = Tensor::from_fn(Shape::new(2, 3, 3), |c, _, _| (c + 1) as f32);
        let out =
            functional_forward(&net, &ws, &input, &LutImages::new(), QFormat::Q8_8).expect("sim");
        assert_eq!(out.as_slice()[0], 1.0);
        assert_eq!(out.as_slice()[9], 2.0);
    }

    /// The per-output convolution this module ran before the plane
    /// kernel: an `i128` sum per output, re-walking the window with a
    /// bounds check per MAC. Kept as the oracle the kernel must equal.
    #[allow(clippy::too_many_arguments)]
    fn conv_oracle(
        input: &FxBlob,
        w: &[Fx],
        b: &[Fx],
        num_output: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        group: usize,
        fmt: QFormat,
    ) -> FxBlob {
        let cig = input.shape.channels / group;
        let cog = num_output / group;
        let (ih, iw) = (input.shape.height, input.shape.width);
        let oh = (ih + 2 * pad - kernel) / stride + 1;
        let ow = (iw + 2 * pad - kernel) / stride + 1;
        let mut out = FxBlob::zeros(Shape::new(num_output, oh, ow), fmt);
        let frac = fmt.frac_bits();
        for co in 0..num_output {
            let g = co / cog;
            let bias: i128 = b.get(co).map_or(0, |v| (v.raw() as i128) << frac);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut wide = bias;
                    for icg in 0..cig {
                        let ic = g * cig + icg;
                        let wbase = (co * cig + icg) * kernel * kernel;
                        for ky in 0..kernel {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= ih as isize {
                                continue;
                            }
                            let row = (ic * ih + iy as usize) * iw;
                            let wrow = wbase + ky * kernel;
                            for kx in 0..kernel {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= iw as isize {
                                    continue;
                                }
                                wide += w[wrow + kx].raw() as i128
                                    * input.data[row + ix as usize].raw() as i128;
                            }
                        }
                    }
                    let raw = (wide >> frac).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
                    out.set(co, oy, ox, Fx::from_raw(raw, fmt));
                }
            }
        }
        out
    }

    /// The fully connected layer as it was: each `f32` weight quantised
    /// inside the `i128` dot product. Kept as the oracle [`fc_fx`] must
    /// equal.
    fn fc_oracle(input: &FxBlob, w: &[f32], b: &[f32], num_output: usize, fmt: QFormat) -> FxBlob {
        let n = input.data.len();
        let mut out = FxBlob::zeros(Shape::vector(num_output), fmt);
        let frac = fmt.frac_bits();
        for o in 0..num_output {
            let mut wide: i128 = b.get(o).map_or(0, |v| {
                (Fx::from_f64(f64::from(*v), fmt).raw() as i128) << frac
            });
            for (x, wv) in input.data.iter().zip(&w[o * n..(o + 1) * n]) {
                wide += x.raw() as i128 * Fx::from_f64(f64::from(*wv), fmt).raw() as i128;
            }
            let raw = (wide >> frac).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
            out.data[o] = Fx::from_raw(raw, fmt);
        }
        out
    }

    /// Q7.8 and Q3.4 (always `i64`), a 24-bit format, a 30-bit one whose
    /// `i64` bound falls at 31 terms (inside the drawn `cig·k²` of 1–100)
    /// and Q15.16, which takes `i128` from two terms on.
    const KERNEL_FORMATS: [(u32, u32); 5] = [(16, 8), (8, 4), (24, 12), (30, 15), (32, 16)];

    fn kernel_format(i: usize) -> QFormat {
        let (total, frac) = KERNEL_FORMATS[i];
        QFormat::new(total, frac).expect("valid format")
    }

    /// A raw value of `fmt`: a rail one time in four each, uniform
    /// otherwise.
    fn draw_raw(rng: &mut StdRng, fmt: QFormat) -> i64 {
        match rng.gen_range(0..4) {
            0 => fmt.min_raw(),
            1 => fmt.max_raw(),
            _ => rng.gen_range(fmt.min_raw()..=fmt.max_raw()),
        }
    }

    fn draw_blob(rng: &mut StdRng, shape: Shape, fmt: QFormat) -> FxBlob {
        FxBlob {
            shape,
            data: (0..shape.elements())
                .map(|_| Fx::from_raw(draw_raw(rng, fmt), fmt))
                .collect(),
        }
    }

    fn raw_values(blob: &FxBlob) -> Vec<i64> {
        blob.data.iter().map(|v| v.raw()).collect()
    }

    /// The largest term count [`fits_i64`] accepts in `fmt` (a format
    /// wider than 16 bits, so it is below 2^34).
    fn i64_terms(fmt: QFormat) -> usize {
        let (mut lo, mut hi) = (0usize, 1usize << 34);
        assert!(!fits_i64(hi, fmt), "{fmt}: the bound admits 2^34 terms");
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if fits_i64(mid, fmt) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn conv_kernel_equals_the_per_output_oracle(
            fmt_idx in 0usize..KERNEL_FORMATS.len(),
            (cig, cog, group) in (1usize..=4, 1usize..=4, 1usize..=2),
            (kernel, stride, pad) in (1usize..=5, 1usize..=3, 0usize..=2),
            (extra_h, extra_w) in (0usize..=7, 0usize..=7),
            (seed, bias_cut) in (0u64..u64::MAX, 0usize..=2),
        ) {
            let fmt = kernel_format(fmt_idx);
            let mut rng = StdRng::seed_from_u64(seed);
            let (cin, cout) = (cig * group, cog * group);
            // Inputs from the smallest extent shape inference admits
            // (`kernel − 2·pad`, at least 1) up: with pad, some kernel
            // offsets then meet only padding.
            let least = kernel.saturating_sub(2 * pad).max(1);
            let input = draw_blob(&mut rng, Shape::new(cin, least + extra_h, least + extra_w), fmt);
            let w: Vec<i32> = (0..cout * cig * kernel * kernel)
                .map(|_| draw_raw(&mut rng, fmt) as i32)
                .collect();
            // Some draws leave trailing outputs without a bias.
            let b: Vec<i32> = (0..cout.saturating_sub(bias_cut))
                .map(|_| draw_raw(&mut rng, fmt) as i32)
                .collect();
            let p = ConvParam::new(cout, kernel, stride).with_pad(pad).with_group(group);
            let got = conv_fx(&input, &w, &b, &p, fmt);
            let wfx: Vec<Fx> = w.iter().map(|&v| fx(v, fmt)).collect();
            let bfx: Vec<Fx> = b.iter().map(|&v| fx(v, fmt)).collect();
            let want = conv_oracle(&input, &wfx, &bfx, cout, kernel, stride, pad, group, fmt);
            prop_assert_eq!(got.shape, want.shape);
            prop_assert_eq!(raw_values(&got), raw_values(&want));
        }

        #[test]
        fn fc_kernel_equals_the_per_mac_quantising_oracle(
            fmt_idx in 0usize..KERNEL_FORMATS.len(),
            (n, num_output) in (1usize..=64, 1usize..=8),
            (seed, bias_cut) in (0u64..u64::MAX, 0usize..=2),
        ) {
            let fmt = kernel_format(fmt_idx);
            let mut rng = StdRng::seed_from_u64(seed);
            let input = draw_blob(&mut rng, Shape::new(1, 1, n), fmt);
            // Weights past both rails saturate; a quarter sit on a rail.
            let span = 1.5 * fmt.max_value();
            let mut weight = || match rng.gen_range(0..4) {
                0 => fmt.min_value() as f32,
                1 => fmt.max_value() as f32,
                _ => rng.gen_range(-span..span) as f32,
            };
            let lw = LayerWeights {
                w: (0..n * num_output).map(|_| weight()).collect(),
                b: (0..num_output.saturating_sub(bias_cut)).map(|_| weight()).collect(),
            };
            let want = fc_oracle(&input, &lw.w, &lw.b, num_output, fmt);
            // Rows quantised up front (the full run) and row by row (the diff).
            let q = QuantWeights::new(&lw, fmt);
            for qw in [Some(&q), None] {
                let got = fc_fx(&input, &lw, qw, num_output, fmt);
                prop_assert_eq!(raw_values(&got), raw_values(&want));
            }
        }
    }

    /// Raw weights and biases drawn for `conv_oracle` and `conv_fx`.
    fn draw_conv_weights(rng: &mut StdRng, n: usize, cout: usize, fmt: QFormat) -> QuantWeights {
        QuantWeights {
            w: (0..n).map(|_| draw_raw(rng, fmt) as i32).collect(),
            b: (0..cout).map(|_| draw_raw(rng, fmt) as i32).collect(),
        }
    }

    fn to_fx(raws: &[i32], fmt: QFormat) -> Vec<Fx> {
        raws.iter().map(|&v| fx(v, fmt)).collect()
    }

    #[test]
    fn pad_wide_kernels_on_inputs_narrower_than_the_kernel() {
        // A 5x5, pad-2 convolution on Nx1 and 1x1 inputs: shape inference
        // admits them, and the outer kernel columns meet only padding.
        let fmt = QFormat::Q8_8;
        let mut rng = StdRng::seed_from_u64(5);
        for (h, w, stride) in [(6, 1, 1), (1, 1, 1), (7, 1, 2), (1, 2, 1), (2, 1, 3)] {
            let input = draw_blob(&mut rng, Shape::new(2, h, w), fmt);
            let q = draw_conv_weights(&mut rng, 3 * 2 * 25, 3, fmt);
            let p = ConvParam::new(3, 5, stride).with_pad(2);
            let got = conv_fx(&input, &q.w, &q.b, &p, fmt);
            let want = conv_oracle(
                &input,
                &to_fx(&q.w, fmt),
                &to_fx(&q.b, fmt),
                3,
                5,
                stride,
                2,
                1,
                fmt,
            );
            assert_eq!(got.shape, want.shape, "{h}x{w} stride {stride}");
            assert_eq!(
                raw_values(&got),
                raw_values(&want),
                "{h}x{w} stride {stride}"
            );
        }
    }

    #[test]
    fn inception_on_a_single_pixel_equals_the_oracle_branches() {
        // On a 1x1 blob the 3x3 and 5x5 branches see one pixel amid
        // padding, and the clamped 3x3 pool is the pixel itself.
        let (ci, p) = (
            3,
            deepburning_model::InceptionParam {
                c1x1: 2,
                c3x3: 3,
                c5x5: 2,
                cpool: 1,
            },
        );
        let net = deepburning_model::Network::from_layers(
            "inc",
            vec![
                deepburning_model::Layer::input("data", "data", ci, 1, 1),
                deepburning_model::Layer::new("inc", LayerKind::Inception(p), "data", "inc"),
            ],
        )
        .expect("shape inference admits a 1x1 inception input");
        let fmt = QFormat::Q8_8;
        let mut rng = StdRng::seed_from_u64(9);
        let src = draw_blob(&mut rng, Shape::new(ci, 1, 1), fmt);
        let n = ci * (p.c1x1 + 9 * p.c3x3 + 25 * p.c5x5 + p.cpool);
        let q = draw_conv_weights(&mut rng, n, p.total_output(), fmt);
        let mut ws = WeightSet::new();
        ws.insert(
            "inc",
            LayerWeights {
                w: q.w.iter().map(|&v| fx(v, fmt).to_f64() as f32).collect(),
                b: q.b.iter().map(|&v| fx(v, fmt).to_f64() as f32).collect(),
            },
        );
        let got =
            functional_forward(&net, &ws, &src.to_tensor(), &LutImages::new(), fmt).expect("sim");
        let (mut wo, mut bo) = (0, 0);
        let mut want = Vec::new();
        for (c, k, pad) in [
            (p.c1x1, 1, 0),
            (p.c3x3, 3, 1),
            (p.c5x5, 5, 2),
            (p.cpool, 1, 0),
        ] {
            let (wn, w) = (c * ci * k * k, &q.w[wo..]);
            let part = conv_oracle(
                &src,
                &to_fx(&w[..wn], fmt),
                &to_fx(&q.b[bo..bo + c], fmt),
                c,
                k,
                1,
                pad,
                1,
                fmt,
            );
            want.extend(part.to_tensor().as_slice().iter().copied());
            (wo, bo) = (wo + wn, bo + c);
        }
        assert_eq!(got.as_slice(), &want[..]);
    }

    #[test]
    fn i64_bound_is_tight_and_both_sides_match_the_oracles() {
        for (total, frac) in [(24, 12), (30, 15), (32, 16)] {
            let fmt = QFormat::new(total, frac).expect("valid format");
            let t = i64_terms(fmt);
            assert!(t >= 1 && !fits_i64(t + 1, fmt), "{fmt}: {t}");
            // One more rail product than the bound admits overflows `i64`:
            // past the bound the narrow accumulator would be wrong.
            let rail = fmt.min_raw();
            let over = (0..=t).try_fold(0i64, |acc, _| acc.checked_add(rail * rail));
            assert!(over.is_none(), "{fmt}: {} rail products fit i64", t + 1);
            for terms in [t, t + 1] {
                // Every operand on the negative rail: the largest sum.
                let input = FxBlob {
                    shape: Shape::new(terms, 1, 1),
                    data: vec![Fx::from_raw(rail, fmt); terms],
                };
                let lw = LayerWeights {
                    w: vec![fmt.min_value() as f32; terms],
                    b: vec![fmt.max_value() as f32],
                };
                let QuantWeights { w, b } = QuantWeights::new(&lw, fmt);
                assert_eq!((w[0], b[0]), (rail as i32, fmt.max_raw() as i32));
                let fc = fc_fx(&input, &lw, None, 1, fmt);
                let want = fc_oracle(&input, &lw.w, &lw.b, 1, fmt);
                assert_eq!(raw_values(&fc), raw_values(&want));
                let conv = conv_fx(&input, &w, &b, &ConvParam::new(1, 1, 1), fmt);
                let wfx: Vec<Fx> = w.iter().map(|&v| fx(v, fmt)).collect();
                let want = conv_oracle(&input, &wfx, &[fx(b[0], fmt)], 1, 1, 1, 0, 1, fmt);
                assert_eq!(raw_values(&conv), raw_values(&want));
                assert_eq!(raw_values(&conv), vec![fmt.max_raw()], "{fmt}: saturates");
            }
        }
    }
}
