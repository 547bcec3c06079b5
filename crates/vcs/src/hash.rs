//! Content addressing.

use std::fmt;

/// A 128-bit content hash, displayed like an abbreviated git SHA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u128);

impl ObjectId {
    /// Hash raw bytes.
    pub fn of_bytes(data: &[u8]) -> ObjectId {
        // The CAS digest: two independent 64-bit FNV-1a passes concatenated.
        ObjectId(hpcci_cas::Digest::of_bytes(data).0)
    }

    /// Hash a structured record given its serialized form.
    pub fn of_str(s: &str) -> ObjectId {
        ObjectId::of_bytes(s.as_bytes())
    }

    /// Git-style short form (12 hex chars).
    pub fn short(&self) -> String {
        self.abbrev().to_string()
    }

    /// [`short`](Self::short) as a `Display`, for writing into a buffer.
    pub fn abbrev(&self) -> Abbrev {
        Abbrev((self.0 >> 80) as u64)
    }
}

/// See [`ObjectId::abbrev`].
#[derive(Debug, Clone, Copy)]
pub struct Abbrev(u64);

impl fmt::Display for Abbrev {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:012x}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_content_sensitive() {
        let a = ObjectId::of_str("hello");
        let b = ObjectId::of_str("hello");
        let c = ObjectId::of_str("hello!");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn display_forms() {
        let id = ObjectId::of_str("x");
        assert_eq!(id.to_string().len(), 32);
        assert_eq!(id.short().len(), 12);
        assert!(id.to_string().starts_with(&id.short()));
    }

    #[test]
    fn empty_input_is_valid() {
        let id = ObjectId::of_bytes(&[]);
        assert_ne!(id.0, 0);
    }
}
