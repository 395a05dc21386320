//! Fixed-point arithmetic and approximate-LUT math for DeepBurning.
//!
//! The generated accelerators compute in narrow two's-complement fixed
//! point; activation functions are served from compiler-filled approximate
//! look-up tables. This crate is the single source of truth for that
//! arithmetic: the functional simulator, the LUT-content generator and the
//! accuracy experiments all build on it.
//!
//! # Examples
//!
//! ```
//! use deepburning_fixed::{Accumulator, ApproxLut, Fx, QFormat, Rounding, Sampling};
//!
//! let fmt = QFormat::Q8_8;
//! // A neuron: weighted sum + sigmoid from an Approx LUT.
//! let lut = ApproxLut::sample(|x| 1.0 / (1.0 + (-x).exp()), -8.0, 8.0, 64, fmt, Sampling::Uniform)?;
//! let mut acc = Accumulator::new(fmt);
//! acc.mac(Fx::from_f64(0.5, fmt), Fx::from_f64(2.0, fmt));
//! acc.add(Fx::from_f64(-0.25, fmt));
//! let out = lut.eval(acc.resolve(Rounding::Nearest));
//! assert!((out.to_f64() - 0.679).abs() < 0.01);
//! # Ok::<(), deepburning_fixed::BuildLutError>(())
//! ```

mod format;
mod lut;
mod value;

pub use format::{FormatError, ParseFormatError, QFormat};
pub use lut::{ApproxLut, BuildLutError, Sampling};
pub use value::{Accumulator, Fx, Rounding};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_format() -> impl Strategy<Value = QFormat> {
        (2u32..=32).prop_flat_map(|total| {
            (0..total).prop_map(move |frac| QFormat::new(total, frac).expect("valid format"))
        })
    }

    /// Q8.8, Q4.12, Q12.4 and the widest formats `QFormat::new` accepts
    /// (32 bits, with 16, 31 and 0 fraction bits — no 64-bit format is
    /// constructible).
    const ROUNDING_FORMATS: [(u32, u32); 6] =
        [(16, 8), (16, 12), (16, 4), (32, 16), (32, 31), (32, 0)];

    fn rounding_format(i: usize) -> QFormat {
        let (total, frac) = ROUNDING_FORMATS[i];
        QFormat::new(total, frac).expect("valid format")
    }

    /// `Fx::from_f64` as it was written over libm's `f64::round`.
    fn round_reference(value: f64, fmt: QFormat) -> i64 {
        if value.is_nan() {
            return 0;
        }
        let scaled = value * (1u64 << fmt.frac_bits()) as f64;
        if scaled >= fmt.max_raw() as f64 {
            fmt.max_raw()
        } else if scaled <= fmt.min_raw() as f64 {
            fmt.min_raw()
        } else {
            scaled.round() as i64
        }
    }

    /// `value` and its two neighbouring floats.
    fn with_neighbours(value: f64) -> [f64; 3] {
        [value.next_down(), value, value.next_up()]
    }

    #[test]
    fn from_f64_rounds_special_values_like_f64_round() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            0.5,
            -0.5,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN,
            1e300,
            -1e300,
        ];
        for i in 0..ROUNDING_FORMATS.len() {
            let fmt = rounding_format(i);
            let rails = [
                fmt.max_value(),
                fmt.min_value(),
                fmt.max_value() + 1.0,
                fmt.min_value() - 1.0,
            ];
            for v in specials
                .iter()
                .chain(&rails)
                .flat_map(|v| with_neighbours(*v))
            {
                assert_eq!(
                    Fx::from_f64(v, fmt).raw(),
                    round_reference(v, fmt),
                    "{v:e} in {fmt}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn from_f64_matches_round_on_any_bit_pattern(
            bits in 0u64..=u64::MAX,
            i in 0usize..ROUNDING_FORMATS.len(),
        ) {
            let (v, fmt) = (f64::from_bits(bits), rounding_format(i));
            prop_assert_eq!(Fx::from_f64(v, fmt).raw(), round_reference(v, fmt));
        }

        #[test]
        fn from_f64_matches_round_inside_the_range(
            unit in -1.1f64..1.1,
            i in 0usize..ROUNDING_FORMATS.len(),
        ) {
            let fmt = rounding_format(i);
            let v = unit * fmt.max_value();
            prop_assert_eq!(Fx::from_f64(v, fmt).raw(), round_reference(v, fmt));
        }

        #[test]
        fn from_f64_matches_round_at_ties_and_one_ulp_off(
            k in -(1i64 << 32)..(1i64 << 32),
            i in 0usize..ROUNDING_FORMATS.len(),
        ) {
            let fmt = rounding_format(i);
            let tie = (k as f64 + 0.5) / (1u64 << fmt.frac_bits()) as f64;
            for v in with_neighbours(tie) {
                prop_assert_eq!(Fx::from_f64(v, fmt).raw(), round_reference(v, fmt));
            }
        }
    }

    proptest! {
        #[test]
        fn from_f64_never_escapes_range(v in -1e6f64..1e6, fmt in arb_format()) {
            let x = Fx::from_f64(v, fmt);
            prop_assert!(fmt.contains_raw(x.raw()));
        }

        #[test]
        fn add_is_commutative(a in -200.0f64..200.0, b in -200.0f64..200.0, fmt in arb_format()) {
            let (x, y) = (Fx::from_f64(a, fmt), Fx::from_f64(b, fmt));
            prop_assert_eq!(x + y, y + x);
        }

        #[test]
        fn mul_is_commutative(a in -100.0f64..100.0, b in -100.0f64..100.0, fmt in arb_format()) {
            let (x, y) = (Fx::from_f64(a, fmt), Fx::from_f64(b, fmt));
            prop_assert_eq!(x * y, y * x);
        }

        #[test]
        fn quantization_error_bounded_by_half_lsb(v in -100.0f64..100.0) {
            let fmt = QFormat::Q16_16;
            let x = Fx::from_f64(v, fmt);
            prop_assert!((x.to_f64() - v).abs() <= fmt.resolution() / 2.0 + 1e-12);
        }

        #[test]
        fn requantize_roundtrip_through_wider(raw in -32768i64..=32767) {
            let narrow = QFormat::Q8_8;
            let v = Fx::from_raw(raw, narrow);
            let there = v.requantize(QFormat::Q16_16, Rounding::Truncate);
            let back = there.requantize(narrow, Rounding::Truncate);
            prop_assert_eq!(back, v);
        }

        #[test]
        fn accumulator_matches_f64_for_small_inputs(
            pairs in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 1..64)
        ) {
            let fmt = QFormat::Q16_16;
            let mut acc = Accumulator::new(fmt);
            let mut reference = 0.0f64;
            for (a, b) in &pairs {
                let (xa, xb) = (Fx::from_f64(*a, fmt), Fx::from_f64(*b, fmt));
                acc.mac(xa, xb);
                reference += xa.to_f64() * xb.to_f64();
            }
            let got = acc.resolve(Rounding::Nearest).to_f64();
            // Full-precision accumulation: error only from final quantise.
            prop_assert!((got - reference).abs() <= fmt.resolution() * 1.001,
                "got {got}, reference {reference}");
        }

        #[test]
        fn lut_eval_within_segment_bounds(x in -8.0f64..8.0, entries in 4usize..64) {
            let lut = ApproxLut::sample(
                |v| v.tanh(), -8.0, 8.0, entries, QFormat::Q16_16, Sampling::Uniform,
            ).expect("valid lut");
            let y = lut.eval_f64(x);
            // tanh is bounded; interpolation of a bounded monotone function
            // stays within the function's range.
            prop_assert!((-1.001..=1.001).contains(&y));
        }
    }
}
