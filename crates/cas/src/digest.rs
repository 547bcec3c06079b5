//! 128-bit content digests and canonical multi-field digest construction.

use std::fmt;

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x9ae1_6a3b_2f90_404f;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// A 128-bit content hash: two independent FNV-1a passes concatenated.
/// `hpcci_vcs::ObjectId::of_bytes` is this digest, so ids printed by either
/// layer are comparable in provenance records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub u128);

impl Digest {
    /// Digest of raw bytes.
    pub fn of_bytes(data: &[u8]) -> Digest {
        let mut builder = DigestBuilder::new();
        builder.absorb(data);
        builder.finish()
    }

    pub fn of_str(s: &str) -> Digest {
        Digest::of_bytes(s.as_bytes())
    }

    /// The zero digest: "no content" / "unknown", never produced by hashing.
    pub const NONE: Digest = Digest(0);

    pub fn is_none(&self) -> bool {
        self.0 == 0
    }

    /// Git-style short form (12 hex chars).
    pub fn short(&self) -> String {
        format!("{:012x}", self.0 >> 80)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Canonical digest over a sequence of labelled fields.
///
/// Each field is framed as `label ++ 0x00 ++ len(value) as LE u64 ++ value`,
/// so no concatenation of fields can collide with a different field split —
/// the property a memoization key must have (`("ab","c")` ≠ `("a","bc")`).
#[derive(Debug, Clone)]
pub struct DigestBuilder {
    a: u64,
    b: u64,
}

impl Default for DigestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestBuilder {
    pub fn new() -> Self {
        DigestBuilder {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    fn absorb(&mut self, data: &[u8]) {
        for &byte in data {
            self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb one labelled byte field.
    pub fn field(mut self, label: &str, value: &[u8]) -> Self {
        self.absorb(label.as_bytes());
        self.absorb(&[0u8]);
        self.absorb(&(value.len() as u64).to_le_bytes());
        self.absorb(value);
        self
    }

    /// Absorb one labelled string field.
    pub fn str_field(self, label: &str, value: &str) -> Self {
        self.field(label, value.as_bytes())
    }

    /// Absorb one labelled integer field.
    pub fn u64_field(self, label: &str, value: u64) -> Self {
        self.field(label, &value.to_le_bytes())
    }

    /// Absorb a previously computed digest as a field (for chaining keys).
    pub fn digest_field(self, label: &str, value: Digest) -> Self {
        self.field(label, &value.0.to_le_bytes())
    }

    pub fn finish(self) -> Digest {
        Digest(((self.a as u128) << 64) | self.b as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_content_sensitive() {
        assert_eq!(Digest::of_str("hello"), Digest::of_str("hello"));
        assert_ne!(Digest::of_str("hello"), Digest::of_str("hello!"));
        assert!(!Digest::of_bytes(&[]).is_none());
        assert!(Digest::NONE.is_none());
    }

    #[test]
    fn display_forms() {
        let d = Digest::of_str("x");
        assert_eq!(d.to_string().len(), 32);
        assert_eq!(d.short().len(), 12);
        assert!(d.to_string().starts_with(&d.short()));
    }

    #[test]
    fn builder_framing_prevents_boundary_collisions() {
        let ab_c = DigestBuilder::new()
            .str_field("x", "ab")
            .str_field("y", "c")
            .finish();
        let a_bc = DigestBuilder::new()
            .str_field("x", "a")
            .str_field("y", "bc")
            .finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn builder_is_order_and_label_sensitive() {
        let base = DigestBuilder::new().str_field("k", "v").u64_field("n", 7);
        assert_eq!(base.clone().finish(), base.clone().finish());
        let relabel = DigestBuilder::new().str_field("k2", "v").u64_field("n", 7);
        assert_ne!(base.clone().finish(), relabel.finish());
        let reorder = DigestBuilder::new().u64_field("n", 7).str_field("k", "v");
        assert_ne!(base.finish(), reorder.finish());
    }

    #[test]
    fn digest_field_chains() {
        let inner = Digest::of_str("step-1 outputs");
        let a = DigestBuilder::new().digest_field("prior", inner).finish();
        let b = DigestBuilder::new()
            .digest_field("prior", Digest::of_str("step-1 outputs?"))
            .finish();
        assert_ne!(a, b);
    }
}
