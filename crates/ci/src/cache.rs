//! Step-result memoization: the incremental half of incremental CI.
//!
//! Reproducible CI means *same inputs → same outputs* — so a step whose
//! complete input digest has already been executed need not run again: the
//! recorded verdict, outputs, and artifacts **are** the reproduction, and a
//! real CORRECT deployment replays them instead of burning allocation hours.
//!
//! The step key ([`StepKey::derive`]) covers everything that can change a
//! step's result:
//!
//! * the repository tree (commit id) the run checked out,
//! * the step's fully interpolated action (command / `uses:` inputs),
//! * every secret resolved for the job (rotated credentials invalidate),
//! * the target site's software-stack digest (a package upgrade invalidates),
//! * the runner the job landed on,
//! * a chained digest of every prior step result in the run (dataflow:
//!   `upload-artifact` reads earlier stdout, so earlier changes propagate).
//!
//! A hit costs a hash probe and a few dozen hashed bytes, whatever the size
//! of the log it replays: the key is absorbed run-invariant fields first
//! (job, runner, secrets, step, stack, action), and the engine keeps that
//! hash state per step between runs for as long as its inputs are the same
//! objects, so a hit absorbs only the tree id and the prior chain; the
//! recorded outcome is shared with the run that
//! produced it rather than copied ([`StepEntry`]), its digest is stored
//! beside it ([`result_digest`] runs once, at execution), and artifacts are
//! re-attached by the CAS address the entry already names. The entry holds
//! its own CAS reference to each artifact, so the 90-day retention purge of
//! the producing run cannot strand it.
//!
//! Infrastructure-flavored results are **never** cached (any
//! [`Infra`] but `Untouched`, as the action reported it):
//! a verdict shaped by an endpoint outage, a retry, a failover, or a token
//! refresh reflects the infrastructure of that moment, not the code under
//! test — replaying it would launder a transient fault into a permanent one.

use crate::run::{Infra, StepOutcome};
use crate::runner::Runner;
use crate::workflow::ResolvedAction;
use hpcci_cas::{CasPin, CasStore, Digest, DigestBuilder};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the engine uses the step cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No cache interaction at all — bit-identical to the pre-cache engine.
    #[default]
    Off,
    /// Execute every step and record cacheable results (populate only —
    /// nothing is ever served from the cache).
    Record,
    /// Serve cache hits without executing; execute-and-record on miss.
    Replay,
}

/// The part of a step key every step of one job shares and no push changes
/// — job, the runner it landed on, every secret resolved for it — together
/// with the tree the job's keys will finish with.
#[derive(Debug, Clone)]
pub struct JobKeyPrefix {
    tree: String,
    job: DigestBuilder,
}

impl JobKeyPrefix {
    pub fn new(
        tree: &str,
        job: &str,
        secrets: &BTreeMap<String, String>,
        runner: &Runner,
    ) -> JobKeyPrefix {
        JobKeyPrefix {
            tree: tree.to_string(),
            job: job_block(job, secrets, runner),
        }
    }
}

/// Hash state after a job's run-invariant fields; every step of the job
/// continues from a copy of these 16 bytes.
pub(crate) fn job_block(
    job: &str,
    secrets: &BTreeMap<String, String>,
    runner: &Runner,
) -> DigestBuilder {
    let [class, name, arch] = runner.cache_identity();
    let mut b = DigestBuilder::new()
        .str_field("job", job)
        .str_field("runner", class)
        .str_field("name", name)
        .str_field("arch", arch);
    for (k, v) in secrets {
        b = b.str_field("secret", k).str_field("is", v);
    }
    b
}

/// Hash state after everything in a step key that no push changes: the
/// [`job_block`], then step id, stack fingerprint and the fully interpolated
/// action. [`finish`](Self::finish) absorbs the rest.
#[derive(Debug, Clone)]
pub(crate) struct StepKeyStem(DigestBuilder);

impl StepKeyStem {
    pub(crate) fn new(
        job: &DigestBuilder,
        step_id: &str,
        action: &ResolvedAction<'_>,
        stack: Digest,
    ) -> StepKeyStem {
        let mut b = job
            .clone()
            .str_field("step", step_id)
            .digest_field("stack", stack);
        match action {
            ResolvedAction::Run { command } => b = b.str_field("run", command),
            ResolvedAction::Uses { action, with } => {
                b = b.str_field("uses", action);
                for (k, v) in with {
                    b = b.str_field("with", k).str_field("is", v);
                }
            }
            ResolvedAction::UploadArtifact { name, from_step } => {
                b = b.str_field("upload", name).str_field("from", from_step);
            }
        }
        StepKeyStem(b)
    }

    /// The key of this step in one run: the tree the run checked out and
    /// the chain of every result before it.
    pub(crate) fn finish(&self, tree: &str, prior_chain: Digest) -> StepKey {
        StepKey(
            self.0
                .clone()
                .str_field("tree", tree)
                .digest_field("prior", prior_chain)
                .finish(),
        )
    }
}

/// Canonical identity of one step execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StepKey(pub Digest);

impl StepKey {
    /// Derive the cache key for a step about to execute. `action` is the
    /// step's action in its fully interpolated form: what would actually run.
    ///
    /// This is the from-scratch definition; the engine runs the same two
    /// halves, keeping the first between runs (see `JobPlan`).
    pub fn derive(
        prefix: &JobKeyPrefix,
        step_id: &str,
        action: &ResolvedAction<'_>,
        stack: Digest,
        prior_chain: Digest,
    ) -> StepKey {
        StepKeyStem::new(&prefix.job, step_id, action, stack).finish(&prefix.tree, prior_chain)
    }
}

/// Digest of everything a later step can read from a finished one. Computed
/// once, when the step executes; a cache entry stores it so a replay never
/// hashes the log again.
pub fn result_digest(outcome: &StepOutcome) -> Digest {
    let mut b = DigestBuilder::new()
        .u64_field("success", outcome.success as u64)
        .str_field("stdout", &outcome.stdout)
        .str_field("stderr", &outcome.stderr);
    for (k, v) in outcome.outputs.iter() {
        b = b.str_field("output", k).str_field("is", v);
    }
    b.finish()
}

/// Fold one completed step into the running prior-result chain digest.
///
/// Later steps may consume earlier stdout/stderr/outputs (`upload-artifact`
/// does, by step id), so the chain makes any upstream change invalidate
/// downstream keys. `came_from` is the finished step's key — which already
/// covers the chain before it, the step's identity and its inputs — or the
/// chain so far for a record that never had a key; `result` is its
/// [`result_digest`]. Executed and replayed steps fold the same two values.
pub fn chain_digest(came_from: Digest, result: Digest) -> Digest {
    DigestBuilder::new()
        .digest_field("from", came_from)
        .digest_field("result", result)
        .finish()
}

/// A step result as a caller hands it to [`StepCache::record`]: everything
/// needed to replay the step without executing it, bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedStep {
    pub success: bool,
    /// Secret-masked stdout, exactly as the producing `StepRun` stored it.
    pub stdout: String,
    /// Secret-masked stderr.
    pub stderr: String,
    pub outputs: BTreeMap<String, String>,
    /// Artifacts the step produced: `(name, CAS digest, logical length)`.
    /// Content lives in the shared [`CasStore`], never inline.
    pub artifacts: Vec<(String, Digest, u64)>,
    /// Virtual time the execution took; replay sleeps exactly this long so
    /// the replayed timeline matches the recorded one.
    pub duration_us: u64,
}

/// A memoized step result as the cache holds it and [`StepCache::lookup`]
/// shares it: a hit copies no log, hashes no log and re-hashes no artifact.
#[derive(Debug)]
pub struct StepEntry {
    /// The same allocation the producing run's `StepRun` holds.
    pub outcome: Arc<StepOutcome>,
    /// [`result_digest`] of `outcome`.
    pub result: Digest,
    /// `(name, CAS digest, logical length)`, as in [`CachedStep`].
    pub artifacts: Vec<(String, Digest, u64)>,
    pub duration_us: u64,
    /// One CAS reference per artifact found in the cache's store when the
    /// entry was recorded: retention purging a run's uploads cannot take an
    /// artifact away from the entry that replays it.
    _pins: Vec<CasPin>,
}

/// Point-in-time cache accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub entries: u64,
    pub hits: u64,
    pub misses: u64,
    /// Results skipped because infrastructure bore on them.
    pub uncacheable: u64,
}

#[derive(Default)]
struct Shared {
    entries: Mutex<HashMap<Digest, Arc<StepEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    uncacheable: AtomicU64,
}

/// A cloneable, shareable step-result cache backed by a [`CasStore`].
///
/// Clones share state, so a cache populated by one federation (the cold
/// `Record` pass) can serve another (the warm `Replay` pass) — the bench's
/// cold-vs-warm comparison and any real cross-run reuse work this way.
#[derive(Clone)]
pub struct StepCache {
    shared: Arc<Shared>,
    cas: CasStore,
}

impl Default for StepCache {
    fn default() -> Self {
        Self::new()
    }
}

impl StepCache {
    pub fn new() -> StepCache {
        StepCache::with_cas(CasStore::new())
    }

    /// Build over an existing store so artifacts and step results dedup
    /// against content other layers already hold.
    pub fn with_cas(cas: CasStore) -> StepCache {
        StepCache {
            shared: Arc::default(),
            cas,
        }
    }

    /// The content store cached artifacts live in.
    pub fn cas(&self) -> &CasStore {
        &self.cas
    }

    /// Look a key up — a probe and a refcount bump — without touching
    /// hit/miss accounting (the engine calls [`note_hit`](Self::note_hit)/
    /// [`note_miss`](Self::note_miss) once it knows how the lookup was used).
    pub fn lookup(&self, key: &StepKey) -> Option<Arc<StepEntry>> {
        self.shared.entries.lock().get(&key.0).cloned()
    }

    pub fn record(&self, key: &StepKey, entry: CachedStep) {
        let outcome = Arc::new(StepOutcome {
            success: entry.success,
            stdout: entry.stdout,
            stderr: entry.stderr,
            outputs: entry.outputs.into(),
            infra: Infra::Untouched,
        });
        let result = result_digest(&outcome);
        self.record_outcome(key, outcome, result, entry.artifacts, entry.duration_us);
    }

    /// [`record`](Self::record) for a caller that already shares the outcome
    /// and has its digest: stores the handle, hashes nothing.
    pub(crate) fn record_outcome(
        &self,
        key: &StepKey,
        outcome: Arc<StepOutcome>,
        result: Digest,
        artifacts: Vec<(String, Digest, u64)>,
        duration_us: u64,
    ) {
        let pins = artifacts
            .iter()
            .filter_map(|(_, digest, _)| self.cas.pin(*digest))
            .collect();
        let entry = Arc::new(StepEntry {
            outcome,
            result,
            artifacts,
            duration_us,
            _pins: pins,
        });
        self.shared.entries.lock().insert(key.0, entry);
    }

    pub fn note_hit(&self) {
        self.shared.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_miss(&self) {
        self.shared.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_uncacheable(&self) {
        self.shared.uncacheable.fetch_add(1, Ordering::Relaxed);
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len() as u64,
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            uncacheable: self.shared.uncacheable.load(Ordering::Relaxed),
        }
    }

    pub fn len(&self) -> usize {
        self.shared.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.shared.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::StepDef;

    fn key_on(runner: &Runner, command: &str, tree: &str, stack: Digest) -> StepKey {
        let none = BTreeMap::new();
        let step = StepDef::run("build", command);
        StepKey::derive(
            &JobKeyPrefix::new(tree, "job", &none, runner),
            &step.id,
            &step.action.resolve(&none, &none),
            stack,
            Digest::NONE,
        )
    }

    fn base_key(command: &str, tree: &str, stack: Digest) -> StepKey {
        key_on(&Runner::hosted(0, "ubuntu-latest"), command, tree, stack)
    }

    #[test]
    fn key_is_deterministic() {
        let a = base_key("make", "t1", Digest::NONE);
        let b = base_key("make", "t1", Digest::NONE);
        assert_eq!(a, b);
    }

    #[test]
    fn any_field_perturbation_changes_key() {
        let base = base_key("make", "t1", Digest::NONE);
        assert_ne!(base, base_key("make -j2", "t1", Digest::NONE), "command");
        assert_ne!(base, base_key("make", "t2", Digest::NONE), "tree");
        assert_ne!(
            base,
            base_key("make", "t1", Digest::of_str("gcc-13")),
            "stack"
        );
        // A self-hosted runner at a site named like a hosted label is still
        // a different substrate.
        let selfh = Runner::self_hosted(0, "ubuntu-latest");
        assert_ne!(
            base,
            key_on(&selfh, "make", "t1", Digest::NONE),
            "runner class"
        );
    }

    #[test]
    fn interpolation_feeds_the_key() {
        let step = StepDef::run("build", "deploy --token ${{ secrets.T }}");
        let key_of = |secret: &str| {
            let mut secrets = BTreeMap::new();
            secrets.insert("T".to_string(), secret.to_string());
            StepKey::derive(
                &JobKeyPrefix::new("t", "j", &secrets, &Runner::hosted(0, "r")),
                &step.id,
                &step.action.resolve(&secrets, &BTreeMap::new()),
                Digest::NONE,
                Digest::NONE,
            )
        };
        assert_ne!(key_of("old-token"), key_of("rotated-token"));
    }

    #[test]
    fn chain_propagates_prior_changes() {
        let result = |stdout: &str| {
            result_digest(&StepOutcome {
                success: true,
                stdout: stdout.into(),
                ..StepOutcome::default()
            })
        };
        let from = Digest::of_str("the step's key");
        let a = chain_digest(from, result("4 passed"));
        assert_eq!(a, chain_digest(from, result("4 passed")));
        assert_ne!(a, chain_digest(from, result("3 passed, 1 failed")));
        assert_ne!(
            a,
            chain_digest(Digest::of_str("another step"), result("4 passed"))
        );
    }

    #[test]
    fn result_digest_covers_every_field_a_later_step_can_read() {
        let base = StepOutcome {
            success: true,
            stdout: "out".into(),
            stderr: "err".into(),
            outputs: BTreeMap::from([("k".to_string(), "v".to_string())]).into(),
            infra: Infra::Untouched,
        };
        let variants = [
            StepOutcome {
                success: false,
                ..base.clone()
            },
            StepOutcome {
                stdout: "out!".into(),
                ..base.clone()
            },
            StepOutcome {
                stderr: "err!".into(),
                ..base.clone()
            },
            StepOutcome {
                outputs: BTreeMap::from([("k".to_string(), "v!".to_string())]).into(),
                ..base.clone()
            },
            StepOutcome {
                outputs: BTreeMap::from([("k!".to_string(), "v".to_string())]).into(),
                ..base.clone()
            },
            StepOutcome {
                outputs: Default::default(),
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(result_digest(&base), result_digest(v), "{v:?}");
        }
    }

    #[test]
    fn cache_round_trip_and_stats() {
        let cache = StepCache::new();
        let key = base_key("make", "t", Digest::NONE);
        assert!(cache.lookup(&key).is_none());
        let entry = CachedStep {
            success: true,
            stdout: "$ make\nok".into(),
            stderr: String::new(),
            outputs: BTreeMap::new(),
            artifacts: vec![("log".into(), Digest::of_str("content"), 7)],
            duration_us: 800_000,
        };
        cache.record(&key, entry.clone());
        cache.note_miss();
        let found = cache.lookup(&key).expect("recorded");
        assert_eq!(
            (
                found.outcome.success,
                &found.outcome.stdout,
                &found.outcome.stderr
            ),
            (entry.success, &entry.stdout, &entry.stderr)
        );
        assert_eq!(found.outcome.outputs, entry.outputs);
        assert_eq!(found.artifacts, entry.artifacts);
        assert_eq!(found.duration_us, entry.duration_us);
        assert_eq!(found.result, result_digest(&found.outcome));
        // A second lookup shares the entry instead of copying it.
        assert!(Arc::ptr_eq(&found, &cache.lookup(&key).unwrap()));
        cache.note_hit();
        cache.note_uncacheable();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.uncacheable, 1);
        // Clones share state.
        assert_eq!(cache.clone().stats(), stats);
    }

    #[test]
    fn an_entry_keeps_its_artifacts_alive_until_it_goes() {
        let cache = StepCache::new();
        let cas = cache.cas().clone();
        let digest = cas.put(b"artifact bytes");
        let booked = cas.stats();
        let key = base_key("make", "t", Digest::NONE);
        let entry = |artifacts| CachedStep {
            success: true,
            stdout: String::new(),
            stderr: String::new(),
            outputs: BTreeMap::new(),
            artifacts,
            duration_us: 1,
        };
        cache.record(&key, entry(vec![("log".into(), digest, 14)]));
        assert_eq!(cas.stats(), booked, "a pin is a reference, not an upload");
        assert!(cas.release(digest));
        assert!(
            cas.contains(digest),
            "the entry's reference outlives the upload's"
        );
        // Replacing the entry drops its pins with it.
        cache.record(&key, entry(Vec::new()));
        assert!(!cas.contains(digest));
    }
}
