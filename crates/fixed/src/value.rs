//! Saturating fixed-point values as computed by the generated datapath.

use crate::format::QFormat;
use std::cmp::Ordering;
use std::fmt;

/// Rounding mode applied when a value loses fraction bits.
///
/// The synthesised datapath truncates by default (cheapest in logic); the
/// generator can opt into round-to-nearest when the LUT/bit-width ablation
/// asks for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Drop the discarded bits (round toward negative infinity).
    #[default]
    Truncate,
    /// Round half away from zero, as an adder-based rounder would.
    Nearest,
}

/// `x.round() as i64` for `x` inside the `i64` range, without the libm
/// call: the truncating cast plus its remainder, which is exact (the
/// fraction of a float is always representable), decides the
/// half-away-from-zero step. `NaN` casts to 0 and fails both tests.
#[inline]
fn round_half_away(x: f64) -> i64 {
    let t = x as i64;
    let f = x - t as f64;
    t + i64::from(f >= 0.5) - i64::from(f <= -0.5)
}

/// A fixed-point value: a raw two's-complement integer interpreted through a
/// [`QFormat`].
///
/// All arithmetic saturates on overflow, mirroring the saturating
/// accumulators in the synergy-neuron datapath.
///
/// # Examples
///
/// ```
/// use deepburning_fixed::{Fx, QFormat};
///
/// let fmt = QFormat::Q8_8;
/// let a = Fx::from_f64(1.5, fmt);
/// let b = Fx::from_f64(2.25, fmt);
/// assert_eq!((a + b).to_f64(), 3.75);
/// assert_eq!((a * b).to_f64(), 3.375);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fx {
    raw: i64,
    fmt: QFormat,
}

impl Fx {
    /// Zero in the given format.
    pub fn zero(fmt: QFormat) -> Self {
        Fx { raw: 0, fmt }
    }

    /// One (1.0) in the given format, saturated if 1.0 is unrepresentable.
    pub fn one(fmt: QFormat) -> Self {
        Fx::from_raw(1i64 << fmt.frac_bits(), fmt)
    }

    /// Builds a value from a raw integer, saturating into the format range.
    pub fn from_raw(raw: i64, fmt: QFormat) -> Self {
        Fx {
            raw: fmt.saturate(raw),
            fmt,
        }
    }

    /// Quantises an `f64`, rounding to nearest and saturating.
    ///
    /// Non-finite inputs saturate toward the matching end of the range
    /// (`NaN` maps to zero), which is what a hardware converter fed garbage
    /// would be configured to do.
    ///
    /// This is the weight-quantisation hot path of every fixed-point view,
    /// so it is branch-free: the scaled value is clamped to the rails
    /// (exact integers in `f64` for any format up to 32 bits) and rounded
    /// half away from zero without libm; the result is in range by
    /// construction.
    #[inline]
    pub fn from_f64(value: f64, fmt: QFormat) -> Self {
        // `1 << frac` is exact in f64 for any frac_bits < 53 and avoids a
        // libm exp2 call.
        let scaled = (value * (1u64 << fmt.frac_bits()) as f64)
            .clamp(fmt.min_raw() as f64, fmt.max_raw() as f64);
        Fx {
            raw: round_half_away(scaled),
            fmt,
        }
    }

    /// The raw two's-complement integer.
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// The format this value is interpreted through.
    pub fn format(self) -> QFormat {
        self.fmt
    }

    /// The value as `f64`.
    pub fn to_f64(self) -> f64 {
        self.raw as f64 * self.fmt.resolution()
    }

    /// Re-quantises into another format with the given rounding.
    ///
    /// This models the width adapters the generator inserts between blocks
    /// of different bit-widths.
    pub fn requantize(self, fmt: QFormat, rounding: Rounding) -> Fx {
        let from_f = self.fmt.frac_bits();
        let to_f = fmt.frac_bits();
        let raw = match from_f.cmp(&to_f) {
            Ordering::Equal => self.raw,
            Ordering::Less => self.raw << (to_f - from_f),
            Ordering::Greater => {
                let shift = from_f - to_f;
                match rounding {
                    Rounding::Truncate => self.raw >> shift,
                    Rounding::Nearest => {
                        let half = 1i64 << (shift - 1);
                        if self.raw >= 0 {
                            (self.raw + half) >> shift
                        } else {
                            -((-self.raw + half) >> shift)
                        }
                    }
                }
            }
        };
        Fx::from_raw(raw, fmt)
    }

    /// Saturating negation.
    pub fn saturating_neg(self) -> Fx {
        Fx::from_raw(-self.raw, self.fmt)
    }

    /// Absolute value, saturating at the positive end.
    pub fn saturating_abs(self) -> Fx {
        Fx::from_raw(self.raw.abs(), self.fmt)
    }

    /// Arithmetic right shift — the "shifting latch" in the connection box
    /// used for approximate division by powers of two.
    pub fn shift_right(self, bits: u32) -> Fx {
        Fx::from_raw(self.raw >> bits.min(63), self.fmt)
    }

    /// Maximum of two values (pooling comparator).
    ///
    /// # Panics
    ///
    /// Panics if the formats differ; the generator only ever compares values
    /// inside one lane.
    pub fn max(self, other: Fx) -> Fx {
        assert_eq!(self.fmt, other.fmt, "comparing values of different formats");
        if self.raw >= other.raw {
            self
        } else {
            other
        }
    }

    /// Minimum of two values.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    pub fn min(self, other: Fx) -> Fx {
        assert_eq!(self.fmt, other.fmt, "comparing values of different formats");
        if self.raw <= other.raw {
            self
        } else {
            other
        }
    }
}

impl PartialEq for Fx {
    fn eq(&self, other: &Self) -> bool {
        self.fmt == other.fmt && self.raw == other.raw
    }
}

impl Eq for Fx {}

impl PartialOrd for Fx {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.fmt == other.fmt {
            Some(self.raw.cmp(&other.raw))
        } else {
            None
        }
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.to_f64(), self.fmt)
    }
}

impl std::ops::Add for Fx {
    type Output = Fx;

    /// Saturating addition.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    fn add(self, rhs: Fx) -> Fx {
        assert_eq!(self.fmt, rhs.fmt, "adding values of different formats");
        Fx::from_raw(self.raw + rhs.raw, self.fmt)
    }
}

impl std::ops::Sub for Fx {
    type Output = Fx;

    /// Saturating subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    fn sub(self, rhs: Fx) -> Fx {
        assert_eq!(self.fmt, rhs.fmt, "subtracting values of different formats");
        Fx::from_raw(self.raw - rhs.raw, self.fmt)
    }
}

impl std::ops::Mul for Fx {
    type Output = Fx;

    /// Saturating multiplication with truncation of the extra fraction bits,
    /// matching the DSP-slice multiply in a synergy neuron.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    fn mul(self, rhs: Fx) -> Fx {
        assert_eq!(self.fmt, rhs.fmt, "multiplying values of different formats");
        let wide = self.raw as i128 * rhs.raw as i128;
        let shifted = wide >> self.fmt.frac_bits();
        let raw = shifted.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        Fx::from_raw(raw, self.fmt)
    }
}

impl std::ops::Neg for Fx {
    type Output = Fx;

    fn neg(self) -> Fx {
        self.saturating_neg()
    }
}

/// Wide accumulator used by the neuron MAC chain: products are summed at
/// full precision and only quantised back when written out.
///
/// # Examples
///
/// ```
/// use deepburning_fixed::{Accumulator, Fx, QFormat, Rounding};
///
/// let fmt = QFormat::Q8_8;
/// let mut acc = Accumulator::new(fmt);
/// for _ in 0..100 {
///     acc.mac(Fx::from_f64(1.0, fmt), Fx::from_f64(1.0, fmt));
/// }
/// assert_eq!(acc.resolve(Rounding::Truncate).to_f64(), 100.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Accumulator {
    /// Running sum, carrying `2 * frac_bits` fraction bits.
    wide: i128,
    fmt: QFormat,
}

impl Accumulator {
    /// A zeroed accumulator producing values in `fmt`.
    pub fn new(fmt: QFormat) -> Self {
        Accumulator { wide: 0, fmt }
    }

    /// Adds `a * b` at full precision.
    ///
    /// # Panics
    ///
    /// Panics if operand formats disagree with the accumulator format.
    pub fn mac(&mut self, a: Fx, b: Fx) {
        assert_eq!(a.format(), self.fmt, "mac operand format mismatch");
        assert_eq!(b.format(), self.fmt, "mac operand format mismatch");
        self.wide += a.raw() as i128 * b.raw() as i128;
    }

    /// Adds a plain value (bias injection).
    ///
    /// # Panics
    ///
    /// Panics if the operand format disagrees with the accumulator format.
    pub fn add(&mut self, v: Fx) {
        assert_eq!(v.format(), self.fmt, "accumulator operand format mismatch");
        self.wide += (v.raw() as i128) << self.fmt.frac_bits();
    }

    /// Quantises the running sum back to the lane format, saturating.
    pub fn resolve(self, rounding: Rounding) -> Fx {
        let shift = self.fmt.frac_bits();
        let raw = match rounding {
            Rounding::Truncate => self.wide >> shift,
            Rounding::Nearest => {
                if shift == 0 {
                    self.wide
                } else {
                    let half = 1i128 << (shift - 1);
                    if self.wide >= 0 {
                        (self.wide + half) >> shift
                    } else {
                        -((-self.wide + half) >> shift)
                    }
                }
            }
        };
        Fx::from_raw(
            raw.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
            self.fmt,
        )
    }

    /// The format values resolve to.
    pub fn format(&self) -> QFormat {
        self.fmt
    }

    /// Resets the running sum to zero.
    pub fn clear(&mut self) {
        self.wide = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: QFormat = QFormat::Q8_8;

    #[test]
    fn roundtrip_f64() {
        for v in [-128.0, -1.5, -0.00390625, 0.0, 0.5, 1.0, 127.99609375] {
            assert_eq!(Fx::from_f64(v, F).to_f64(), v, "value {v}");
        }
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Fx::from_f64(1e9, F).to_f64(), F.max_value());
        assert_eq!(Fx::from_f64(-1e9, F).to_f64(), F.min_value());
        assert_eq!(Fx::from_f64(f64::INFINITY, F).raw(), F.max_raw());
        assert_eq!(Fx::from_f64(f64::NEG_INFINITY, F).raw(), F.min_raw());
        assert_eq!(Fx::from_f64(f64::NAN, F).raw(), 0);
    }

    #[test]
    fn add_saturates() {
        let a = Fx::from_f64(100.0, F);
        let b = Fx::from_f64(100.0, F);
        assert_eq!((a + b).raw(), F.max_raw());
        assert_eq!((-a + -b).raw(), F.min_raw());
    }

    #[test]
    fn mul_matches_float_for_exact_values() {
        let a = Fx::from_f64(3.5, F);
        let b = Fx::from_f64(-2.0, F);
        assert_eq!((a * b).to_f64(), -7.0);
    }

    #[test]
    fn mul_truncates_toward_neg_infinity() {
        // 0.00390625 * 0.5 = 0.001953125 -> one LSB below representable,
        // truncation drops to 0.
        let a = Fx::from_raw(1, F);
        let b = Fx::from_f64(0.5, F);
        assert_eq!((a * b).raw(), 0);
        // negative case: -1 LSB * 0.5 -> raw -1 >> 1 = -1 (arithmetic shift)
        let c = Fx::from_raw(-1, F);
        assert_eq!((c * b).raw(), -1);
    }

    #[test]
    fn requantize_widen_then_narrow_is_identity() {
        let v = Fx::from_f64(-3.125, F);
        let wide = v.requantize(QFormat::Q16_16, Rounding::Truncate);
        assert_eq!(wide.to_f64(), -3.125);
        let back = wide.requantize(F, Rounding::Truncate);
        assert_eq!(back, v);
    }

    #[test]
    fn requantize_nearest_rounds_half_away() {
        let fine = QFormat::new(16, 8).unwrap();
        let coarse = QFormat::new(16, 4).unwrap();
        // 8 LSBs at frac=8 is 0.03125; at frac=4 resolution 0.0625 -> rounds to 0.0625
        let v = Fx::from_raw(8, fine);
        assert_eq!(v.requantize(coarse, Rounding::Nearest).raw(), 1);
        assert_eq!(v.requantize(coarse, Rounding::Truncate).raw(), 0);
        let n = Fx::from_raw(-8, fine);
        assert_eq!(n.requantize(coarse, Rounding::Nearest).raw(), -1);
    }

    #[test]
    fn neg_saturates_min() {
        let v = Fx::from_raw(F.min_raw(), F);
        assert_eq!((-v).raw(), F.max_raw());
    }

    #[test]
    fn shift_right_divides() {
        let v = Fx::from_f64(10.0, F);
        assert_eq!(v.shift_right(1).to_f64(), 5.0);
        assert_eq!(v.shift_right(2).to_f64(), 2.5);
    }

    #[test]
    fn accumulator_long_chain_exact() {
        let mut acc = Accumulator::new(F);
        for i in 0..1000 {
            let a = Fx::from_f64(if i % 2 == 0 { 0.25 } else { -0.25 }, F);
            acc.mac(a, Fx::one(F));
        }
        assert_eq!(acc.resolve(Rounding::Truncate).to_f64(), 0.0);
    }

    #[test]
    fn accumulator_resolve_saturates() {
        let mut acc = Accumulator::new(F);
        for _ in 0..10 {
            acc.mac(Fx::from_f64(100.0, F), Fx::from_f64(100.0, F));
        }
        assert_eq!(acc.resolve(Rounding::Truncate).raw(), F.max_raw());
    }

    #[test]
    fn accumulator_bias_add() {
        let mut acc = Accumulator::new(F);
        acc.add(Fx::from_f64(1.5, F));
        acc.mac(Fx::from_f64(2.0, F), Fx::from_f64(3.0, F));
        assert_eq!(acc.resolve(Rounding::Nearest).to_f64(), 7.5);
    }

    #[test]
    fn max_min_choose_correctly() {
        let a = Fx::from_f64(1.0, F);
        let b = Fx::from_f64(-2.0, F);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn cross_format_compare_is_none() {
        let a = Fx::from_f64(1.0, F);
        let b = Fx::from_f64(1.0, QFormat::Q16_16);
        assert_eq!(a.partial_cmp(&b), None);
        assert_ne!(a, b);
    }
}
