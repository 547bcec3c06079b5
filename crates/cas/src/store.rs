//! Refcounted content-addressed blob store: one shared buffer per object.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::digest::Digest;

struct Object {
    /// The content, shared by every `get`/`store`/`retain` (zero copy).
    data: Arc<[u8]>,
    refs: u64,
}

#[derive(Default)]
struct Inner {
    objects: HashMap<Digest, Object>,
    logical_bytes: u64,
    stored_bytes: u64,
    dedup_hits: u64,
}

/// Point-in-time accounting for a [`CasStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CasStats {
    /// Distinct objects currently stored.
    pub objects: u64,
    /// Total bytes callers have `put` (including duplicates), net of releases.
    pub logical_bytes: u64,
    /// Unique object payload bytes actually held.
    pub stored_bytes: u64,
    /// `put` calls that were satisfied entirely by an existing object.
    pub dedup_hits: u64,
}

/// What [`CasStore::store`] hands back: the address, the store's own view of
/// the content, and how much the store grew.
#[derive(Debug, Clone)]
pub struct Stored {
    pub digest: Digest,
    /// Shares storage with the store and every other holder of the object.
    pub content: Arc<[u8]>,
    /// Bytes this call added (zero for a duplicate).
    pub added_bytes: u64,
}

/// A cloneable handle to a shared content-addressed store.
///
/// All clones address the same storage, so independent layers (the artifact
/// store, the step cache) dedup against each other.
#[derive(Clone, Default)]
pub struct CasStore {
    inner: Arc<Mutex<Inner>>,
}

/// Keeps one object alive for as long as it is held, without counting as an
/// upload: a pin is a reference, not logical bytes, so [`CasStats`] reads the
/// same with or without it. Dropping the pin drops the reference.
pub struct CasPin {
    store: CasStore,
    digest: Digest,
}

impl std::fmt::Debug for CasPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CasPin({})", self.digest.short())
    }
}

impl Drop for CasPin {
    fn drop(&mut self) {
        self.store.inner.lock().drop_ref(self.digest);
    }
}

impl Inner {
    /// Store `data` (or count one more reference to it); returns the digest,
    /// the shared view and the bytes added.
    fn insert(&mut self, data: &[u8]) -> Stored {
        let digest = Digest::of_bytes(data);
        self.logical_bytes += data.len() as u64;
        if let Some(obj) = self.objects.get_mut(&digest) {
            obj.refs += 1;
            self.dedup_hits += 1;
            return Stored {
                digest,
                content: obj.data.clone(),
                added_bytes: 0,
            };
        }
        let content: Arc<[u8]> = Arc::from(data);
        self.stored_bytes += data.len() as u64;
        self.objects.insert(
            digest,
            Object {
                data: content.clone(),
                refs: 1,
            },
        );
        Stored {
            digest,
            content,
            added_bytes: data.len() as u64,
        }
    }

    /// Drop one reference; the last one reclaims the object. Returns the
    /// object's length if it was present.
    fn drop_ref(&mut self, digest: Digest) -> Option<u64> {
        let obj = self.objects.get_mut(&digest)?;
        obj.refs -= 1;
        let len = obj.data.len() as u64;
        if obj.refs == 0 {
            self.objects.remove(&digest);
            self.stored_bytes -= len;
        }
        Some(len)
    }
}

impl CasStore {
    pub fn new() -> CasStore {
        CasStore::default()
    }

    /// Store `data`, returning its digest. Re-putting existing content bumps
    /// the object refcount and costs no new stored bytes.
    pub fn put(&self, data: &[u8]) -> Digest {
        self.inner.lock().insert(data).digest
    }

    /// [`put`](Self::put) that also hands back the shared view and the bytes
    /// the store grew by, under one lock.
    pub fn store(&self, data: &[u8]) -> Stored {
        self.inner.lock().insert(data)
    }

    /// Fetch an object. The returned buffer shares storage with the store
    /// (and with every other fetch of the same object).
    pub fn get(&self, digest: Digest) -> Option<Arc<[u8]>> {
        self.inner
            .lock()
            .objects
            .get(&digest)
            .map(|o| o.data.clone())
    }

    /// Take one more reference to an object the store already holds, by its
    /// address: the accounting of a duplicate [`put`](Self::put) without
    /// re-hashing the content. `None` when the object is not here.
    pub fn retain(&self, digest: Digest) -> Option<Arc<[u8]>> {
        let mut inner = self.inner.lock();
        let obj = inner.objects.get_mut(&digest)?;
        obj.refs += 1;
        let content = obj.data.clone();
        inner.logical_bytes += content.len() as u64;
        inner.dedup_hits += 1;
        Some(content)
    }

    /// Pin an object the store already holds; `None` when it is not here.
    pub fn pin(&self, digest: Digest) -> Option<CasPin> {
        self.inner.lock().objects.get_mut(&digest)?.refs += 1;
        Some(CasPin {
            store: self.clone(),
            digest,
        })
    }

    pub fn contains(&self, digest: Digest) -> bool {
        self.inner.lock().objects.contains_key(&digest)
    }

    /// Drop one reference taken by `put`/`store`/`retain`; when the last
    /// reference goes, the object is reclaimed. Returns whether the digest
    /// was present.
    pub fn release(&self, digest: Digest) -> bool {
        let mut inner = self.inner.lock();
        match inner.drop_ref(digest) {
            Some(len) => {
                inner.logical_bytes = inner.logical_bytes.saturating_sub(len);
                true
            }
            None => false,
        }
    }

    pub fn stats(&self) -> CasStats {
        let inner = self.inner.lock();
        CasStats {
            objects: inner.objects.len() as u64,
            logical_bytes: inner.logical_bytes,
            stored_bytes: inner.stored_bytes,
            dedup_hits: inner.dedup_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_content() {
        let cas = CasStore::new();
        let d = cas.put(b"hello world");
        assert!(cas.contains(d));
        assert_eq!(cas.get(d).unwrap().as_ref(), b"hello world");
        assert!(cas.get(Digest::of_str("missing")).is_none());
    }

    #[test]
    fn duplicate_put_stores_nothing_new() {
        let cas = CasStore::new();
        let a = cas.put(b"payload");
        let b = cas.put(b"payload");
        assert_eq!(a, b);
        let stats = cas.stats();
        assert_eq!(stats.objects, 1);
        assert_eq!(stats.logical_bytes, 14);
        assert_eq!(stats.stored_bytes, 7);
        assert_eq!(stats.dedup_hits, 1);
    }

    #[test]
    fn empty_object() {
        let cas = CasStore::new();
        let d = cas.put(b"");
        assert_eq!(cas.get(d).unwrap().len(), 0);
        assert_eq!(cas.stats().stored_bytes, 0);
        assert_eq!(cas.stats().objects, 1);
    }

    #[test]
    fn release_reclaims_last_reference() {
        let cas = CasStore::new();
        let gone = cas.put(b"aaaabbbb");
        let other = cas.put(b"aaaacccc");
        assert!(cas.release(gone));
        assert!(!cas.contains(gone));
        assert_eq!((cas.stats().objects, cas.stats().stored_bytes), (1, 8));
        assert_eq!(cas.get(other).unwrap().as_ref(), b"aaaacccc");
        assert!(cas.release(other));
        assert_eq!(cas.stats(), CasStats::default());
        assert!(!cas.release(other));
    }

    #[test]
    fn release_respects_refcounts() {
        let cas = CasStore::new();
        let d = cas.put(b"twice");
        cas.put(b"twice");
        assert!(cas.release(d));
        assert!(cas.contains(d), "one reference must remain");
        assert!(cas.release(d));
        assert!(!cas.contains(d));
    }

    #[test]
    fn store_reports_the_view_and_the_growth() {
        let cas = CasStore::new();
        let first = cas.store(b"aaaabbbbcc");
        assert_eq!(first.content.as_ref(), b"aaaabbbbcc");
        assert_eq!(first.added_bytes, 10);
        // A shared prefix is not shared storage: objects are whole.
        assert_eq!(cas.store(b"aaaabbbbdd").added_bytes, 10);
        let again = cas.store(b"aaaabbbbcc");
        assert_eq!((again.digest, again.added_bytes), (first.digest, 0));
        assert!(Arc::ptr_eq(&again.content, &first.content));
        assert_eq!(cas.stats().stored_bytes, 20);
    }

    #[test]
    fn an_object_is_one_buffer_however_it_repeats_inside() {
        let cas = CasStore::new();
        let half: Vec<u8> = (0u8..=255).cycle().take(64 * 1024).collect();
        let data = [half.as_slice(), half.as_slice()].concat();
        let stored = cas.store(&data);
        assert_eq!(stored.added_bytes, data.len() as u64);
        assert_eq!(cas.stats().stored_bytes, data.len() as u64);
        let fetched = cas.get(stored.digest).expect("present");
        assert!(
            Arc::ptr_eq(&stored.content, &fetched),
            "one allocation, shared"
        );
        assert!(cas.release(stored.digest));
        assert_eq!(cas.stats().stored_bytes, 0);
    }

    #[test]
    fn retain_accounts_like_a_duplicate_put() {
        let by_put = CasStore::new();
        let by_retain = CasStore::new();
        let d = by_put.put(b"payload");
        by_put.put(b"payload");
        by_retain.put(b"payload");
        assert_eq!(by_retain.retain(d).unwrap().as_ref(), b"payload");
        assert_eq!(by_put.stats(), by_retain.stats());
        assert!(by_retain.release(d) && by_retain.release(d));
        assert!(!by_retain.contains(d));
        assert!(
            by_retain.retain(d).is_none(),
            "nothing to retain once reclaimed"
        );
    }

    #[test]
    fn a_pin_holds_the_object_and_no_bytes() {
        let cas = CasStore::new();
        let d = cas.put(b"kept");
        let unpinned = cas.stats();
        let pin = cas.pin(d).expect("present");
        assert_eq!(cas.stats(), unpinned, "a pin is not an upload");
        assert!(cas.release(d));
        assert!(cas.contains(d), "the pin outlives the last upload");
        assert_eq!(cas.stats().logical_bytes, 0);
        assert_eq!(cas.stats().stored_bytes, 4);
        drop(pin);
        assert!(!cas.contains(d));
        assert_eq!(cas.stats().stored_bytes, 0);
        assert!(cas.pin(d).is_none());
    }

    #[test]
    fn clones_share_storage() {
        let cas = CasStore::new();
        let handle = cas.clone();
        let d = handle.put(b"shared");
        assert!(cas.contains(d));
        assert_eq!(cas.stats().dedup_hits, 0);
        cas.put(b"shared");
        assert_eq!(handle.stats().dedup_hits, 1);
    }
}
