//! Secret storage with organization / repository / environment scoping.
//!
//! §4.1: "secrets can be stored in the organization, repository, or in an
//! environment for that repository. … environment secrets allow repository
//! administrators to specify access permissions … Secrets cannot be specified
//! per user" — the limitation CORRECT's environment-per-user recommendation
//! works around (§5.2).

use crate::error::CiError;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Where a secret is stored; narrower scopes shadow broader ones.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SecretScope {
    Organization(String),
    Repository(String),
    Environment { repo: String, environment: String },
}

/// A named secret. `Display`/`Debug` never reveal the value.
#[derive(Clone, PartialEq, Eq)]
pub struct Secret {
    pub name: String,
    value: String,
}

impl Secret {
    pub fn new(name: &str, value: &str) -> Secret {
        Secret {
            name: name.to_string(),
            value: value.to_string(),
        }
    }

    /// The engine (not user code) reads values during interpolation.
    pub(crate) fn expose(&self) -> &str {
        &self.value
    }
}

impl fmt::Debug for Secret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Secret({}=***)", self.name)
    }
}

/// The secret store for the whole CI service.
///
/// `mask` and `resolved` are derived from `secrets`: built on first use,
/// dropped by [`SecretStore::put`].
#[derive(Default)]
pub struct SecretStore {
    secrets: BTreeMap<SecretScope, Vec<Secret>>,
    mask: OnceLock<MaskSet>,
    /// Visible-secret maps already merged, by repo; a repo has a handful of
    /// environments, so the inner list is probed linearly with borrowed keys.
    resolved: Mutex<BTreeMap<String, Vec<Resolved>>>,
}

struct Resolved {
    org: String,
    environment: Option<String>,
    visible: Arc<BTreeMap<String, String>>,
}

impl fmt::Debug for SecretStore {
    /// Scopes and names only: the derived state holds raw values.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecretStore")
            .field("secrets", &self.secrets)
            .finish_non_exhaustive()
    }
}

impl SecretStore {
    pub fn new() -> Self {
        SecretStore::default()
    }

    pub fn put(&mut self, scope: SecretScope, secret: Secret) {
        let list = self.secrets.entry(scope).or_default();
        list.retain(|s| s.name != secret.name);
        list.push(secret);
        self.mask.take();
        self.resolved.get_mut().clear();
    }

    /// Resolve the visible secrets for a job in `repo` (owned by `org`),
    /// optionally inside `environment`. Environment secrets shadow repository
    /// secrets, which shadow organization secrets. Environment secrets are
    /// **only** visible when the job targets that environment.
    ///
    /// The merged map is shared: every job of the same repo and environment
    /// gets the same `Arc` until the next [`SecretStore::put`].
    pub fn resolve(
        &self,
        org: &str,
        repo: &str,
        environment: Option<&str>,
    ) -> Arc<BTreeMap<String, String>> {
        let mut resolved = self.resolved.lock();
        let cached = resolved.get(repo).and_then(|jobs| {
            jobs.iter()
                .find(|r| r.org == org && r.environment.as_deref() == environment)
        });
        if let Some(hit) = cached {
            return hit.visible.clone();
        }
        let mut out = BTreeMap::new();
        let mut layer = |scope: &SecretScope| {
            if let Some(list) = self.secrets.get(scope) {
                for s in list {
                    out.insert(s.name.clone(), s.expose().to_string());
                }
            }
        };
        layer(&SecretScope::Organization(org.to_string()));
        layer(&SecretScope::Repository(repo.to_string()));
        if let Some(env) = environment {
            layer(&SecretScope::Environment {
                repo: repo.to_string(),
                environment: env.to_string(),
            });
        }
        let visible = Arc::new(out);
        resolved
            .entry(repo.to_string())
            .or_default()
            .push(Resolved {
                org: org.to_string(),
                environment: environment.map(str::to_string),
                visible: visible.clone(),
            });
        visible
    }

    /// Every stored value, longest first so partial overlaps don't leave
    /// residue; equal lengths keep store order.
    fn ordered_values(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .secrets
            .values()
            .flatten()
            .map(Secret::expose)
            .collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.len()));
        v
    }

    /// Every secret value currently stored, in masking order.
    pub fn all_values(&self) -> Vec<String> {
        self.ordered_values()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Replace every stored secret value in `text` with `***` — whatever its
    /// scope, so a run's log cannot leak another tenant's secret either.
    /// The result is what replacing each of [`SecretStore::all_values`] in
    /// turn produces, at a cost that does not grow with the number of stored
    /// secrets; a text holding none comes back as the same allocation.
    pub fn mask(&self, text: String) -> String {
        self.mask
            .get_or_init(|| MaskSet::build(self.ordered_values()))
            .mask(text)
    }

    /// Fetch one secret by exact scope and name (admin/test use).
    pub fn get(&self, scope: &SecretScope, name: &str) -> Result<&Secret, CiError> {
        self.secrets
            .get(scope)
            .and_then(|list| list.iter().find(|s| s.name == name))
            .ok_or_else(|| CiError::UnknownSecret(name.to_string()))
    }
}

/// Bytes of a value the mask index keys on: its last `TAIL`. Tokens tend to
/// open with a shared type prefix (`client-000123`, `ghp_…`) and differ at
/// the end, so the tail tells them apart where the head would not.
const TAIL: usize = 4;

fn tail_key(bytes: &[u8]) -> u32 {
    let tail: [u8; TAIL] = bytes[bytes.len() - TAIL..].try_into().expect("TAIL bytes");
    u32::from_le_bytes(tail)
}

/// Word index and bit of `key` in a filter of `2^(32 - shift)` bits.
fn filter_slot(key: u32, shift: u32) -> (usize, u64) {
    let h = key.wrapping_mul(0x9E37_79B1) >> shift;
    ((h >> 6) as usize, 1 << (h & 63))
}

/// The stored values prepared for masking.
///
/// The reference behaviour is the sequential loop: for each value, longest
/// first, `text = text.replace(value, "***")`. Running it costs one substring
/// search per stored value per text. This set produces the same bytes by
/// running that loop over a short list of *candidates* only, in the same
/// order:
///
/// * values found in the **original** text by one pass over its
///   [`TAIL`]-byte windows (filter bit, then the sorted tail table, then a
///   full compare);
/// * values containing `*`, and values shorter than [`TAIL`] bytes, always.
///
/// Why that is enough: a replacement only ever inserts `***`. If a value
/// without `*` does not occur in the text before a replacement, an occurrence
/// after it could not overlap the inserted stars, so it would lie wholly in a
/// stretch copied from the text before — a contradiction. By induction such a
/// value never occurs, and the sequential loop skips it too. The same
/// argument makes a repeated value without `*` a no-op after its first turn
/// (`replace` leaves no occurrence behind), so those are stored once; values
/// containing `*` can match the stars earlier turns inserted and keep every
/// repetition. Empty values are skipped by the loop and dropped here.
struct MaskSet {
    /// Replay order: the order of [`SecretStore::all_values`].
    values: Vec<String>,
    /// `(tail_key, index into values)` of every indexed value, sorted.
    by_tail: Vec<(u32, u32)>,
    /// One bit per hashed tail key; rejects almost every window of a text.
    filter: Vec<u64>,
    filter_shift: u32,
    /// Values the index cannot vouch for (`*` inside, or too short).
    always: Vec<u32>,
}

impl MaskSet {
    fn build(ordered: Vec<&str>) -> MaskSet {
        let mut values = Vec::new();
        let mut by_tail = Vec::new();
        let mut always = Vec::new();
        let mut seen = HashSet::new();
        for v in ordered {
            let starred = v.contains('*');
            if v.is_empty() || (!starred && !seen.insert(v)) {
                continue;
            }
            let at = values.len() as u32;
            if starred || v.len() < TAIL {
                always.push(at);
            } else {
                by_tail.push((tail_key(v.as_bytes()), at));
            }
            values.push(v.to_string());
        }
        by_tail.sort_unstable();
        // 16 bits per key keeps the filter a few percent full.
        let bits = (by_tail.len().max(4) * 16)
            .next_power_of_two()
            .trailing_zeros()
            .min(31);
        let filter_shift = 32 - bits;
        let mut filter = vec![0u64; 1 << (bits - 6)];
        for &(key, _) in &by_tail {
            let (word, bit) = filter_slot(key, filter_shift);
            filter[word] |= bit;
        }
        MaskSet {
            values,
            by_tail,
            filter,
            filter_shift,
            always,
        }
    }

    fn mask(&self, text: String) -> String {
        let mut candidates = self.always.clone();
        if !self.by_tail.is_empty() {
            let bytes = text.as_bytes();
            for (at, window) in bytes.windows(TAIL).enumerate() {
                let key = tail_key(window);
                let (word, bit) = filter_slot(key, self.filter_shift);
                if self.filter[word] & bit == 0 {
                    continue;
                }
                let from = self.by_tail.partition_point(|&(k, _)| k < key);
                for &(k, i) in &self.by_tail[from..] {
                    if k != key {
                        break;
                    }
                    if bytes[..at + TAIL].ends_with(self.values[i as usize].as_bytes()) {
                        candidates.push(i);
                    }
                }
            }
        }
        if candidates.is_empty() {
            return text;
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut out = text;
        for i in candidates {
            let v = self.values[i as usize].as_str();
            if out.contains(v) {
                out = out.replace(v, "***");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SecretStore {
        let mut s = SecretStore::new();
        s.put(
            SecretScope::Organization("globus-labs".into()),
            Secret::new("ORG_TOKEN", "org-val"),
        );
        s.put(
            SecretScope::Repository("globus-labs/app".into()),
            Secret::new("GLOBUS_ID", "repo-client-id"),
        );
        s.put(
            SecretScope::Environment {
                repo: "globus-labs/app".into(),
                environment: "anvil-vhayot".into(),
            },
            Secret::new("GLOBUS_SECRET", "env-secret-val"),
        );
        s
    }

    #[test]
    fn scoping_and_shadowing() {
        let s = store();
        let no_env = s.resolve("globus-labs", "globus-labs/app", None);
        assert_eq!(no_env.get("ORG_TOKEN").unwrap(), "org-val");
        assert_eq!(no_env.get("GLOBUS_ID").unwrap(), "repo-client-id");
        assert!(
            !no_env.contains_key("GLOBUS_SECRET"),
            "environment secrets hidden outside the environment"
        );

        let with_env = s.resolve("globus-labs", "globus-labs/app", Some("anvil-vhayot"));
        assert_eq!(with_env.get("GLOBUS_SECRET").unwrap(), "env-secret-val");
    }

    #[test]
    fn narrower_scope_shadows_broader() {
        let mut s = store();
        s.put(
            SecretScope::Environment {
                repo: "globus-labs/app".into(),
                environment: "anvil-vhayot".into(),
            },
            Secret::new("GLOBUS_ID", "env-override"),
        );
        let resolved = s.resolve("globus-labs", "globus-labs/app", Some("anvil-vhayot"));
        assert_eq!(resolved.get("GLOBUS_ID").unwrap(), "env-override");
    }

    #[test]
    fn put_replaces_same_name() {
        let mut s = store();
        s.put(
            SecretScope::Repository("globus-labs/app".into()),
            Secret::new("GLOBUS_ID", "rotated"),
        );
        let resolved = s.resolve("globus-labs", "globus-labs/app", None);
        assert_eq!(resolved.get("GLOBUS_ID").unwrap(), "rotated");
    }

    #[test]
    fn masking_hides_all_values() {
        let s = store();
        let log = "auth with repo-client-id and env-secret-val done";
        assert_eq!(s.mask(log.to_string()), "auth with *** and *** done");
    }

    #[test]
    fn clean_text_comes_back_as_the_same_allocation() {
        let s = store();
        let text = String::from("nothing to hide here, not even repo-client-i");
        let ptr = text.as_ptr();
        let masked = s.mask(text);
        assert_eq!(masked.as_ptr(), ptr);
    }

    #[test]
    fn rotating_a_secret_rebuilds_the_mask_set() {
        let mut s = store();
        assert_eq!(s.mask("id repo-client-id".into()), "id ***");
        s.put(
            SecretScope::Repository("globus-labs/app".into()),
            Secret::new("GLOBUS_ID", "rotated-client-id"),
        );
        assert_eq!(
            s.mask("old repo-client-id new rotated-client-id".into()),
            "old repo-client-id new ***"
        );
    }

    #[test]
    fn put_invalidates_resolved_maps() {
        let mut s = store();
        let before = s.resolve("globus-labs", "globus-labs/app", Some("anvil-vhayot"));
        let again = s.resolve("globus-labs", "globus-labs/app", Some("anvil-vhayot"));
        assert!(
            Arc::ptr_eq(&before, &again),
            "same job scope shares one map"
        );
        s.put(
            SecretScope::Organization("globus-labs".into()),
            Secret::new("GLOBUS_SECRET", "org-default"),
        );
        s.put(
            SecretScope::Organization("globus-labs".into()),
            Secret::new("NEW", "added"),
        );
        let after = s.resolve("globus-labs", "globus-labs/app", Some("anvil-vhayot"));
        assert_eq!(after.get("NEW").unwrap(), "added");
        assert_eq!(
            after.get("GLOBUS_SECRET").unwrap(),
            "env-secret-val",
            "environment still shadows the new organization default"
        );
        // Same repo, different targets: each gets its own view.
        let no_env = s.resolve("globus-labs", "globus-labs/app", None);
        assert_eq!(no_env.get("GLOBUS_SECRET").unwrap(), "org-default");
        let other_org = s.resolve("elsewhere", "globus-labs/app", None);
        assert!(!other_org.contains_key("ORG_TOKEN"));
        let other_env = s.resolve("globus-labs", "globus-labs/app", Some("expanse-vhayot"));
        assert_eq!(other_env.get("GLOBUS_SECRET").unwrap(), "org-default");
    }

    #[test]
    fn debug_never_prints_value() {
        let secret = Secret::new("K", "visible-value");
        assert!(!format!("{secret:?}").contains("visible-value"));
        // Nor does the store, once its derived state holds raw values.
        let s = store();
        s.mask("warm the mask set".into());
        s.resolve("globus-labs", "globus-labs/app", Some("anvil-vhayot"));
        let shown = format!("{s:?}");
        assert!(shown.contains("GLOBUS_SECRET"));
        assert!(!shown.contains("env-secret-val") && !shown.contains("repo-client-id"));
    }

    #[test]
    fn get_by_scope() {
        let s = store();
        assert!(s
            .get(&SecretScope::Organization("globus-labs".into()), "ORG_TOKEN")
            .is_ok());
        assert!(matches!(
            s.get(&SecretScope::Organization("globus-labs".into()), "NOPE"),
            Err(CiError::UnknownSecret(_))
        ));
    }
}
