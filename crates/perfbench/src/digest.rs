//! FNV-1a digest of everything an op produced that a host-only change
//! must leave untouched (`sim_digest`).

/// Streaming 64-bit FNV-1a hasher. Unlike `std`'s `DefaultHasher` its
/// output is fixed across Rust releases and platforms, so digests from two
/// builds compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a length-prefixed string, so `("ab", "c")` and `("a", "bc")`
    /// differ.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Folds a `u64` (little-endian bytes).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds an `f64` by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a flag.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.bytes(&[u8::from(v)])
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The digest as printed in run records: `fnv1a:` and 16 hex digits.
    pub fn hex(&self) -> String {
        format!("fnv1a:{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv1a::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut a = Fnv1a::default();
        a.str("ab").str("c");
        let mut b = Fnv1a::default();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
        assert!(a.hex().starts_with("fnv1a:") && a.hex().len() == 22);
    }
}
