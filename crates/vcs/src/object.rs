//! Work trees and commits.

use crate::hash::ObjectId;
use hpcci_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A snapshot of repository contents: repo-relative path → file bytes.
/// `BTreeMap` keeps iteration (and therefore hashing) order canonical.
/// The map is shared copy-on-write: a clone (a remote `git clone` takes one
/// per CI step, a merge one per pull request) copies no path or content, and
/// the first edit of a shared tree copies the map.
///
/// Every blob keeps its [`ObjectId`] beside its bytes, computed by
/// [`put`](Self::put) — the only writer — so [`hash`](Self::hash) reads no
/// file content: a push that edits one file hashes one blob.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkTree {
    files: Arc<BTreeMap<String, Blob>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Blob {
    /// `ObjectId::of_bytes(&bytes)`.
    id: ObjectId,
    bytes: Arc<[u8]>,
}

impl WorkTree {
    pub fn new() -> Self {
        WorkTree::default()
    }

    /// Add or replace a file (builder form).
    pub fn with_file(mut self, path: &str, content: impl AsRef<[u8]>) -> Self {
        self.put(path, content);
        self
    }

    /// Add or replace a file.
    pub fn put(&mut self, path: &str, content: impl AsRef<[u8]>) {
        assert!(!path.starts_with('/'), "work tree paths are repo-relative");
        let bytes: Arc<[u8]> = Arc::from(content.as_ref());
        let id = ObjectId::of_bytes(&bytes);
        Arc::make_mut(&mut self.files).insert(path.to_string(), Blob { id, bytes });
    }

    pub fn remove(&mut self, path: &str) -> bool {
        self.files.contains_key(path) && Arc::make_mut(&mut self.files).remove(path).is_some()
    }

    pub fn get(&self, path: &str) -> Option<&Arc<[u8]>> {
        self.files.get(path).map(|blob| &blob.bytes)
    }

    pub fn contains(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<[u8]>)> + Clone {
        self.files.iter().map(|(p, b)| (p.as_str(), &b.bytes))
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total bytes across all files (drives simulated clone I/O time).
    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(|b| b.bytes.len() as u64).sum()
    }

    /// Canonical content hash of the whole tree: `path \0 hex(blob id) \n`
    /// per file, in path order.
    pub fn hash(&self) -> ObjectId {
        // Exact: path, NUL, 32 hex digits, newline.
        let mut acc = String::with_capacity(self.files.keys().map(|p| p.len() + 34).sum());
        for (path, blob) in self.files.iter() {
            acc.push_str(path);
            acc.push('\0');
            let _ = write!(acc, "{}", blob.id);
            acc.push('\n');
        }
        ObjectId::of_str(&acc)
    }

    /// Paths added/changed/removed going from `self` to `other`.
    pub fn diff(&self, other: &WorkTree) -> Vec<String> {
        let mut changed = Vec::new();
        for (path, content) in other.files.iter() {
            match self.files.get(path) {
                Some(old) if old == content => {}
                _ => changed.push(path.clone()),
            }
        }
        for path in self.files.keys() {
            if !other.files.contains_key(path) {
                changed.push(path.clone());
            }
        }
        changed.sort();
        changed.dedup();
        changed
    }
}

/// An immutable commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    pub id: ObjectId,
    pub parents: Vec<ObjectId>,
    pub tree: ObjectId,
    pub author: String,
    pub message: String,
    pub at: SimTime,
}

impl Commit {
    /// Compute the commit id from its parts (git-style: hash of metadata +
    /// tree hash + parent hashes).
    pub fn compute_id(
        parents: &[ObjectId],
        tree: ObjectId,
        author: &str,
        message: &str,
        at: SimTime,
    ) -> ObjectId {
        let mut acc = format!("tree {tree}\n");
        for p in parents {
            acc.push_str(&format!("parent {p}\n"));
        }
        acc.push_str(&format!("author {author}\nat {}\n\n{message}", at.as_micros()));
        ObjectId::of_str(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_hash_is_order_insensitive_at_api_level() {
        let a = WorkTree::new().with_file("a.txt", "1").with_file("b.txt", "2");
        let mut b = WorkTree::new();
        b.put("b.txt", "2");
        b.put("a.txt", "1");
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn tree_hash_changes_with_content_and_path() {
        let base = WorkTree::new().with_file("a.txt", "1");
        assert_ne!(base.hash(), base.clone().with_file("a.txt", "2").hash());
        assert_ne!(
            base.hash(),
            WorkTree::new().with_file("b.txt", "1").hash()
        );
    }

    /// The stored blob ids are a memo, not a second definition: after any
    /// sequence of `put` / `remove` / clone-then-edit the tree id is the fold
    /// over `ObjectId::of_bytes` of every blob, computed from the bytes.
    #[test]
    fn tree_hash_equals_the_from_scratch_fold_after_random_edits() {
        fn from_scratch(tree: &WorkTree) -> ObjectId {
            let mut acc = String::new();
            for (path, content) in tree.iter() {
                acc.push_str(path);
                acc.push('\0');
                acc.push_str(&ObjectId::of_bytes(content).to_string());
                acc.push('\n');
            }
            ObjectId::of_str(&acc)
        }
        let mut rng = hpcci_sim::DetRng::seed_from_u64(23);
        let mut trees = vec![WorkTree::new()];
        for _ in 0..2_000 {
            let ix = rng.range_u64(0, trees.len() as u64) as usize;
            let path = format!("dir{}/f{}", rng.range_u64(0, 3), rng.range_u64(0, 6));
            match rng.range_u64(0, 4) {
                0 => {
                    trees[ix].remove(&path);
                }
                1 if trees.len() < 8 => {
                    let copy = trees[ix].clone();
                    trees.push(copy);
                }
                _ => {
                    let content = vec![rng.range_u64(0, 4) as u8; rng.range_u64(0, 40) as usize];
                    trees[ix].put(&path, content);
                }
            }
            for tree in &trees {
                assert_eq!(tree.hash(), from_scratch(tree));
            }
        }
        assert!(trees.iter().any(|t| t.len() > 6), "the edits built real trees");
    }

    #[test]
    fn diff_reports_adds_changes_removes() {
        let old = WorkTree::new().with_file("keep", "k").with_file("change", "1").with_file("drop", "d");
        let new = WorkTree::new().with_file("keep", "k").with_file("change", "2").with_file("add", "a");
        assert_eq!(old.diff(&new), vec!["add", "change", "drop"]);
        assert!(old.diff(&old).is_empty());
    }

    #[test]
    fn total_bytes_sums_files() {
        let t = WorkTree::new().with_file("a", "12345").with_file("b", "123");
        assert_eq!(t.total_bytes(), 8);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "repo-relative")]
    fn absolute_paths_rejected() {
        let _ = WorkTree::new().with_file("/abs", "x");
    }

    #[test]
    fn commit_id_depends_on_all_parts() {
        let t1 = ObjectId::of_str("tree1");
        let base = Commit::compute_id(&[], t1, "alice", "msg", SimTime::ZERO);
        assert_ne!(base, Commit::compute_id(&[], t1, "bob", "msg", SimTime::ZERO));
        assert_ne!(base, Commit::compute_id(&[], t1, "alice", "other", SimTime::ZERO));
        assert_ne!(base, Commit::compute_id(&[base], t1, "alice", "msg", SimTime::ZERO));
        assert_ne!(
            base,
            Commit::compute_id(&[], t1, "alice", "msg", SimTime::from_secs(1))
        );
    }
}
