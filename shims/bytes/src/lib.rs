//! Offline shim for the `bytes` crate.
//!
//! Provides an immutable, cheaply cloneable byte buffer with the subset of
//! the real `Bytes` API the federation uses: construction from literals,
//! `Vec<u8>`, `String`, and `&str`; `Deref` to `[u8]`; equality/hash/order.
//! Clones share the underlying allocation via `Arc`.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An immutable, reference-counted byte buffer.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Bytes {
    /// An empty buffer: a clone of one process-wide empty allocation (even a
    /// zero-length `Arc<[u8]>` heap-allocates its counts), so this costs a
    /// reference-count bump, not an allocation, per call.
    pub fn new() -> Bytes {
        static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
        Bytes {
            data: EMPTY.get_or_init(|| Arc::from(&[][..])).clone(),
        }
    }

    /// Wrap a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            data: Arc::from(bytes),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { data: Arc::from(v) }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::from(s.to_vec())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        **self == *other.as_bytes()
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_paths() {
        assert!(Bytes::new().is_empty());
        assert!(
            Arc::ptr_eq(&Bytes::new().data, &Bytes::default().data),
            "empty buffers share one allocation"
        );
        assert_eq!(Bytes::from_static(b"42").len(), 2);
        assert_eq!(Bytes::from("abc"), Bytes::from("abc".to_string()));
        assert_eq!(Bytes::from(vec![1, 2, 3]).to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn clones_share_and_compare() {
        let a = Bytes::from("payload");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&a[..3], b"pay");
        assert_eq!(a, "payload");
    }

    #[test]
    fn debug_escapes() {
        assert_eq!(format!("{:?}", Bytes::from("a\n")), "b\"a\\n\"");
    }
}
