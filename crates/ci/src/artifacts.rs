//! Workflow artifacts with retention.
//!
//! "GitHub artifacts remain available for only 90 days" (§7.4) — retention is
//! modelled so the paper's recommendation (persist important artifacts to a
//! permanent archive) is demonstrable: an expired artifact really disappears.

use crate::error::CiError;
use crate::run::RunId;
use bytes::Bytes;
use hpcci_cas::{CasStore, Digest};
use hpcci_sim::{FaultInjector, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Default retention window.
pub const RETENTION: SimDuration = SimDuration::from_hours(90 * 24);

/// One stored artifact.
#[derive(Debug, Clone)]
pub struct Artifact {
    pub run: RunId,
    pub name: String,
    /// With a CAS attached this view shares storage with every other upload
    /// of the same content; without one it owns its bytes.
    pub content: Bytes,
    /// CAS address of the content; [`Digest::NONE`] when no store is attached.
    pub digest: Digest,
    pub uploaded_at: SimTime,
    pub expires_at: SimTime,
}

impl Artifact {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.content).into_owned()
    }
}

/// The artifact store for the CI service.
#[derive(Default)]
pub struct ArtifactStore {
    /// Keyed by run, each list in upload order: a report reads one run's
    /// artifacts without walking every upload the service ever took.
    by_run: BTreeMap<RunId, Vec<Artifact>>,
    injector: FaultInjector,
    cas: Option<CasStore>,
}

impl ArtifactStore {
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// Attach a fault injector for write-corruption faults.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// Back the store with a content-addressed store: uploads dedup into it
    /// and expired artifacts release their references on purge.
    pub fn attach_cas(&mut self, cas: CasStore) {
        self.cas = Some(cas);
    }

    pub fn cas(&self) -> Option<&CasStore> {
        self.cas.as_ref()
    }

    /// Store an artifact; returns the content digest ([`Digest::NONE`] when
    /// no CAS is attached).
    pub fn upload(
        &mut self,
        run: RunId,
        name: &str,
        content: impl Into<Bytes>,
        now: SimTime,
    ) -> Digest {
        self.upload_accounted(run, name, content, now).0
    }

    /// [`upload`](Self::upload) that also reports the bytes storage grew by:
    /// zero for content the CAS already holds, the content's length when no
    /// CAS is attached.
    pub(crate) fn upload_accounted(
        &mut self,
        run: RunId,
        name: &str,
        content: impl Into<Bytes>,
        now: SimTime,
    ) -> (Digest, u64) {
        let content = content.into();
        let (digest, content, stored) = match &self.cas {
            // The store's view of the content is the CAS object itself:
            // duplicate uploads share one allocation.
            Some(cas) => {
                let s = cas.store(&content);
                (s.digest, s.content, s.added_bytes)
            }
            None => {
                let len = content.len() as u64;
                (Digest::NONE, content, len)
            }
        };
        self.attach(run, name, digest, content, now);
        (digest, stored)
    }

    /// Take one CAS reference per artifact a cached step names, by digest —
    /// the accounting of uploading the same bytes again, without hashing
    /// them. All or nothing: `false` (and no reference kept) when any of
    /// them is not in this store's CAS. On `true`, `out` holds the contents
    /// in order, ready for [`attach`](Self::attach).
    pub(crate) fn retain_cached(&self, refs: &[(String, Digest, u64)], out: &mut Vec<Bytes>) -> bool {
        out.clear();
        let Some(cas) = &self.cas else {
            return refs.is_empty();
        };
        for (_, digest, _) in refs {
            let Some(content) = cas.retain(*digest) else {
                for (_, held, _) in &refs[..out.len()] {
                    cas.release(*held);
                }
                out.clear();
                return false;
            };
            out.push(content);
        }
        true
    }

    /// List `content` — already stored under `digest`, its reference already
    /// taken — as an artifact of `run`.
    pub(crate) fn attach(&mut self, run: RunId, name: &str, digest: Digest, content: Bytes, now: SimTime) {
        if self.injector.corruption_due(name, now) {
            // The first write lands corrupted; the store's checksum
            // verification catches the mismatch and the upload is retried
            // with the same bytes — the stored artifact stays identical.
            self.injector.record(
                now,
                "ci.artifacts",
                "fault.recover",
                format!("checksum mismatch on '{name}' detected; clean copy re-uploaded"),
            );
        }
        self.by_run.entry(run).or_default().push(Artifact {
            run,
            name: name.to_string(),
            content,
            digest,
            uploaded_at: now,
            expires_at: now + RETENTION,
        });
    }

    /// Fetch a live artifact by run and name.
    pub fn fetch(&self, run: RunId, name: &str, now: SimTime) -> Result<&Artifact, CiError> {
        self.live(run, now)
            .find(|a| a.name == name)
            .ok_or_else(|| CiError::UnknownArtifact {
                run,
                name: name.to_string(),
            })
    }

    /// All live artifacts of a run.
    pub fn of_run(&self, run: RunId, now: SimTime) -> Vec<&Artifact> {
        self.live(run, now).collect()
    }

    fn live(&self, run: RunId, now: SimTime) -> impl Iterator<Item = &Artifact> {
        self.by_run
            .get(&run)
            .into_iter()
            .flatten()
            .filter(move |a| now < a.expires_at)
    }

    /// Drop expired artifacts, releasing their CAS references; returns how
    /// many were purged.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let mut purged = 0;
        let cas = self.cas.clone();
        self.by_run.retain(|_, artifacts| {
            artifacts.retain(|a| {
                let live = now < a.expires_at;
                if !live {
                    purged += 1;
                    if let (Some(cas), false) = (&cas, a.digest.is_none()) {
                        cas.release(a.digest);
                    }
                }
                live
            });
            !artifacts.is_empty()
        });
        purged
    }

    pub fn len(&self) -> usize {
        self.by_run.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.by_run.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_and_fetch() {
        let mut store = ArtifactStore::new();
        store.upload(RunId(1), "stdout.txt", "test output", SimTime::ZERO);
        let a = store.fetch(RunId(1), "stdout.txt", SimTime::from_secs(10)).unwrap();
        assert_eq!(a.text(), "test output");
        assert!(store.fetch(RunId(2), "stdout.txt", SimTime::ZERO).is_err());
        assert!(store.fetch(RunId(1), "other", SimTime::ZERO).is_err());
    }

    #[test]
    fn artifacts_expire_after_90_days() {
        let mut store = ArtifactStore::new();
        store.upload(RunId(1), "log", "x", SimTime::ZERO);
        let day89 = SimTime::from_secs(89 * 24 * 3600);
        let day91 = SimTime::from_secs(91 * 24 * 3600);
        assert!(store.fetch(RunId(1), "log", day89).is_ok());
        assert!(store.fetch(RunId(1), "log", day91).is_err());
        assert_eq!(store.purge_expired(day91), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn cas_backed_uploads_dedup() {
        let mut store = ArtifactStore::new();
        store.attach_cas(CasStore::new());
        let d1 = store.upload(RunId(1), "out", "same payload", SimTime::ZERO);
        let d2 = store.upload(RunId(2), "out", "same payload", SimTime::ZERO);
        assert_eq!(d1, d2);
        assert!(!d1.is_none());
        let stats = store.cas().unwrap().stats();
        assert_eq!(stats.logical_bytes, 24);
        assert_eq!(stats.stored_bytes, 12, "second upload stored nothing");
        assert_eq!(
            store.fetch(RunId(2), "out", SimTime::from_secs(1)).unwrap().text(),
            "same payload"
        );
    }

    #[test]
    fn upload_accounted_reports_what_storage_grew_by() {
        let mut bare = ArtifactStore::new();
        assert_eq!(
            bare.upload_accounted(RunId(1), "a", "12345", SimTime::ZERO),
            (Digest::NONE, 5)
        );
        let mut store = ArtifactStore::new();
        store.attach_cas(CasStore::new());
        let (d, first) = store.upload_accounted(RunId(1), "a", "12345", SimTime::ZERO);
        assert_eq!(first, 5);
        assert_eq!(
            store.upload_accounted(RunId(2), "a", "12345", SimTime::ZERO),
            (d, 0)
        );
    }

    #[test]
    fn retain_cached_is_all_or_nothing() {
        let mut store = ArtifactStore::new();
        let cas = CasStore::new();
        store.attach_cas(cas.clone());
        let here = store.upload(RunId(1), "log", "kept", SimTime::ZERO);
        let refs = |digests: &[Digest]| -> Vec<(String, Digest, u64)> {
            digests.iter().map(|d| ("log".to_string(), *d, 4)).collect()
        };
        let before = cas.stats();
        let mut out = Vec::new();
        assert!(!store.retain_cached(&refs(&[here, Digest::of_str("elsewhere")]), &mut out));
        assert!(out.is_empty());
        assert_eq!(
            cas.stats().logical_bytes,
            before.logical_bytes,
            "the partial hold was released"
        );

        assert!(store.retain_cached(&refs(&[here]), &mut out));
        assert_eq!(out[0].as_ref(), b"kept");
        store.attach(RunId(2), "log", here, out.pop().unwrap(), SimTime::ZERO);
        // Same books as uploading the bytes a second time.
        assert_eq!(cas.stats().logical_bytes, 8);
        assert_eq!(cas.stats().stored_bytes, 4);
        assert_eq!(
            store.fetch(RunId(2), "log", SimTime::ZERO).unwrap().text(),
            "kept"
        );
    }

    #[test]
    fn purge_releases_cas_references() {
        let mut store = ArtifactStore::new();
        let cas = CasStore::new();
        store.attach_cas(cas.clone());
        let day = |n: u64| SimTime::from_secs(n * 24 * 3600);
        let d = store.upload(RunId(1), "log", "x", SimTime::ZERO);
        store.upload(RunId(2), "log", "x", day(2));
        assert_eq!(store.purge_expired(day(91)), 1, "only run 1's upload expired");
        assert!(cas.contains(d), "run 2 still references the content");
        assert_eq!(store.purge_expired(day(93)), 1);
        assert!(!cas.contains(d), "last reference released");
        assert_eq!(cas.stats().stored_bytes, 0);
    }

    #[test]
    fn of_run_lists_only_that_run() {
        let mut store = ArtifactStore::new();
        store.upload(RunId(1), "a", "1", SimTime::ZERO);
        store.upload(RunId(1), "b", "2", SimTime::ZERO);
        store.upload(RunId(2), "c", "3", SimTime::ZERO);
        store.upload(RunId(1), "d", "4", SimTime::ZERO);
        let names = |run| -> Vec<&str> {
            let listed = store.of_run(run, SimTime::from_secs(1));
            listed.iter().map(|a| a.name.as_str()).collect()
        };
        assert_eq!(names(RunId(1)), ["a", "b", "d"], "upload order, interleaved runs or not");
        assert_eq!(names(RunId(2)), ["c"]);
        assert!(names(RunId(3)).is_empty());
        assert_eq!(store.len(), 4);
    }
}
