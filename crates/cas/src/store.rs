//! Refcounted, chunked content-addressed blob store.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::digest::Digest;

/// Chunk size for splitting objects. 64 KiB keeps the chunk table small for
/// the simulated workloads while still letting large artifacts with shared
/// prefixes (e.g. per-rep logs differing only in a trailing VERSION line)
/// dedup their common leading chunks.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

struct Chunk {
    data: Arc<[u8]>,
    refs: u64,
}

struct Object {
    chunks: Vec<Digest>,
    len: u64,
    refs: u64,
    /// Assembled view, shared by every `get`. For single-chunk objects this
    /// is the chunk's own buffer (zero copy); multi-chunk objects pay one
    /// assembly on first `get` and share thereafter.
    assembled: Option<Arc<[u8]>>,
}

struct Inner {
    chunk_size: usize,
    chunks: HashMap<Digest, Chunk>,
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
    /// Distinct chunks currently stored.
    pub chunks: u64,
    /// Total bytes callers have `put` (including duplicates), net of releases.
    pub logical_bytes: u64,
    /// Unique chunk payload bytes actually held.
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
    /// Unique chunk bytes this call added (zero for a duplicate).
    pub added_bytes: u64,
}

/// A cloneable handle to a shared content-addressed store.
///
/// All clones address the same storage, so independent layers (the artifact
/// store, the step cache) dedup against each other.
#[derive(Clone)]
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
    /// Store `data` (or count one more reference to it); returns the digest
    /// and the unique chunk bytes added.
    fn insert(&mut self, data: &[u8]) -> (Digest, u64) {
        let digest = Digest::of_bytes(data);
        self.logical_bytes += data.len() as u64;
        if let Some(obj) = self.objects.get_mut(&digest) {
            obj.refs += 1;
            self.dedup_hits += 1;
            return (digest, 0);
        }
        let before = self.stored_bytes;
        let mut chunk_ids = Vec::with_capacity(data.len() / self.chunk_size + 1);
        // An empty object has no chunks; its view is an empty buffer.
        for part in data.chunks(self.chunk_size) {
            let cid = Digest::of_bytes(part);
            match self.chunks.get_mut(&cid) {
                Some(chunk) => chunk.refs += 1,
                None => {
                    self.stored_bytes += part.len() as u64;
                    self.chunks.insert(
                        cid,
                        Chunk {
                            data: Arc::from(part),
                            refs: 1,
                        },
                    );
                }
            }
            chunk_ids.push(cid);
        }
        let assembled = match chunk_ids.as_slice() {
            [] => Some(Arc::from(&[][..])),
            [only] => Some(self.chunks[only].data.clone()),
            _ => None,
        };
        self.objects.insert(
            digest,
            Object {
                chunks: chunk_ids,
                len: data.len() as u64,
                refs: 1,
                assembled,
            },
        );
        (digest, self.stored_bytes - before)
    }

    /// The shared view of an object, assembling it on first use.
    fn view(&mut self, digest: Digest) -> Option<Arc<[u8]>> {
        let obj = self.objects.get(&digest)?;
        if let Some(b) = &obj.assembled {
            return Some(b.clone());
        }
        let mut buf = Vec::with_capacity(obj.len as usize);
        for cid in &obj.chunks {
            buf.extend_from_slice(&self.chunks[cid].data);
        }
        let assembled: Arc<[u8]> = Arc::from(buf);
        self.objects.get_mut(&digest).unwrap().assembled = Some(assembled.clone());
        Some(assembled)
    }

    /// Drop one reference; the last one reclaims the object and any chunks
    /// it solely owned. Returns the object's length if it was present.
    fn drop_ref(&mut self, digest: Digest) -> Option<u64> {
        let obj = self.objects.get_mut(&digest)?;
        obj.refs -= 1;
        let len = obj.len;
        if obj.refs > 0 {
            return Some(len);
        }
        let obj = self.objects.remove(&digest).unwrap();
        for cid in obj.chunks {
            let chunk = self.chunks.get_mut(&cid).unwrap();
            chunk.refs -= 1;
            if chunk.refs == 0 {
                let freed = chunk.data.len() as u64;
                self.chunks.remove(&cid);
                self.stored_bytes -= freed;
            }
        }
        Some(len)
    }
}

impl Default for CasStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CasStore {
    pub fn new() -> CasStore {
        CasStore::with_chunk_size(DEFAULT_CHUNK_SIZE)
    }

    /// Mostly for tests: force small chunks so dedup paths are exercised
    /// without megabyte fixtures.
    pub fn with_chunk_size(chunk_size: usize) -> CasStore {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        CasStore {
            inner: Arc::new(Mutex::new(Inner {
                chunk_size,
                chunks: HashMap::new(),
                objects: HashMap::new(),
                logical_bytes: 0,
                stored_bytes: 0,
                dedup_hits: 0,
            })),
        }
    }

    /// Store `data`, returning its digest. Re-putting existing content bumps
    /// the object refcount and costs no new stored bytes.
    pub fn put(&self, data: &[u8]) -> Digest {
        self.inner.lock().insert(data).0
    }

    /// [`put`](Self::put) that also hands back the shared view and the bytes
    /// the store grew by, under one lock.
    pub fn store(&self, data: &[u8]) -> Stored {
        let mut inner = self.inner.lock();
        let (digest, added_bytes) = inner.insert(data);
        let content = inner.view(digest).expect("just stored");
        Stored {
            digest,
            content,
            added_bytes,
        }
    }

    /// Fetch an object. The returned buffer shares storage with the store
    /// (and with every other fetch of the same object).
    pub fn get(&self, digest: Digest) -> Option<Arc<[u8]>> {
        self.inner.lock().view(digest)
    }

    /// Take one more reference to an object the store already holds, by its
    /// address: the accounting of a duplicate [`put`](Self::put) without
    /// re-hashing the content. `None` when the object is not here.
    pub fn retain(&self, digest: Digest) -> Option<Arc<[u8]>> {
        let mut inner = self.inner.lock();
        let content = inner.view(digest)?;
        inner.objects.get_mut(&digest).unwrap().refs += 1;
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

    /// Stored length of an object, if present.
    pub fn len_of(&self, digest: Digest) -> Option<u64> {
        self.inner.lock().objects.get(&digest).map(|o| o.len)
    }

    /// Drop one reference taken by `put`/`store`/`retain`; when the last
    /// reference goes, the object and any chunks it solely owned are
    /// reclaimed. Returns whether the digest was present.
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
            chunks: inner.chunks.len() as u64,
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
        assert_eq!(cas.len_of(d), Some(11));
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
    fn shared_chunks_across_objects() {
        let cas = CasStore::with_chunk_size(4);
        // Same leading 8 bytes (2 chunks), different tail chunk.
        cas.put(b"aaaabbbbcccc");
        cas.put(b"aaaabbbbdddd");
        let stats = cas.stats();
        assert_eq!(stats.objects, 2);
        assert_eq!(stats.chunks, 4); // aaaa, bbbb, cccc, dddd
        assert_eq!(stats.logical_bytes, 24);
        assert_eq!(stats.stored_bytes, 16);
    }

    #[test]
    fn multi_chunk_assembly() {
        let cas = CasStore::with_chunk_size(3);
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let d = cas.put(&data);
        assert_eq!(cas.get(d).unwrap().as_ref(), &data[..]);
        // Second get hits the cached assembled view.
        assert_eq!(cas.get(d).unwrap().as_ref(), &data[..]);
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
        let cas = CasStore::with_chunk_size(4);
        let shared = cas.put(b"aaaabbbb");
        let other = cas.put(b"aaaacccc");
        assert!(cas.release(shared));
        assert!(!cas.contains(shared));
        // "aaaa" chunk survives because `other` still references it.
        assert_eq!(cas.stats().chunks, 2);
        assert_eq!(cas.get(other).unwrap().as_ref(), b"aaaacccc");
        assert!(cas.release(other));
        assert_eq!(cas.stats().chunks, 0);
        assert_eq!(cas.stats().logical_bytes, 0);
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
        let cas = CasStore::with_chunk_size(4);
        let first = cas.store(b"aaaabbbbcc");
        assert_eq!(first.content.as_ref(), b"aaaabbbbcc");
        assert_eq!(first.added_bytes, 10);
        // Shares two leading chunks with the first object.
        assert_eq!(cas.store(b"aaaabbbbdd").added_bytes, 2);
        let again = cas.store(b"aaaabbbbcc");
        assert_eq!((again.digest, again.added_bytes), (first.digest, 0));
        assert_eq!(cas.stats().stored_bytes, 12);
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
