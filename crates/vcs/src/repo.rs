//! A single repository: branches over a commit DAG with a content-addressed
//! object store.

use crate::hash::ObjectId;
use crate::object::{Commit, WorkTree};
use hpcci_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// VCS errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcsError {
    UnknownBranch(String),
    UnknownCommit(ObjectId),
    UnknownRepo(String),
    BranchExists(String),
    UnknownPullRequest(u64),
    PullRequestClosed(u64),
}

impl fmt::Display for VcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcsError::UnknownBranch(b) => write!(f, "unknown branch: {b}"),
            VcsError::UnknownCommit(c) => write!(f, "unknown commit: {}", c.short()),
            VcsError::UnknownRepo(r) => write!(f, "unknown repository: {r}"),
            VcsError::BranchExists(b) => write!(f, "branch already exists: {b}"),
            VcsError::UnknownPullRequest(n) => write!(f, "unknown pull request #{n}"),
            VcsError::PullRequestClosed(n) => write!(f, "pull request #{n} is closed"),
        }
    }
}

impl std::error::Error for VcsError {}

/// One repository.
#[derive(Debug, Clone)]
pub struct Repository {
    /// Full name, `"owner/name"`.
    pub full_name: String,
    pub default_branch: String,
    branches: BTreeMap<String, ObjectId>,
    commits: BTreeMap<ObjectId, Commit>,
    trees: BTreeMap<ObjectId, WorkTree>,
}

impl Repository {
    /// Create an empty repository with an empty root commit on `main`.
    pub fn init(full_name: &str, author: &str, at: SimTime) -> Self {
        let mut repo = Repository {
            full_name: full_name.to_string(),
            default_branch: "main".to_string(),
            branches: BTreeMap::new(),
            commits: BTreeMap::new(),
            trees: BTreeMap::new(),
        };
        let root = repo.store_commit(&[], WorkTree::new(), author, "initial commit", at);
        repo.branches.insert("main".to_string(), root);
        repo
    }

    fn store_commit(
        &mut self,
        parents: &[ObjectId],
        tree: WorkTree,
        author: &str,
        message: &str,
        at: SimTime,
    ) -> ObjectId {
        let tree_id = tree.hash();
        self.trees.entry(tree_id).or_insert(tree);
        let id = Commit::compute_id(parents, tree_id, author, message, at);
        self.commits.entry(id).or_insert(Commit {
            id,
            parents: parents.to_vec(),
            tree: tree_id,
            author: author.to_string(),
            message: message.to_string(),
            at,
        });
        id
    }

    /// Commit a full tree snapshot onto `branch`, returning the new head.
    pub fn commit(
        &mut self,
        branch: &str,
        tree: WorkTree,
        author: &str,
        message: &str,
        at: SimTime,
    ) -> Result<ObjectId, VcsError> {
        let head = self.head(branch)?;
        let id = self.store_commit(&[head], tree, author, message, at);
        self.branches.insert(branch.to_string(), id);
        Ok(id)
    }

    /// Current head of a branch.
    pub fn head(&self, branch: &str) -> Result<ObjectId, VcsError> {
        self.branches
            .get(branch)
            .copied()
            .ok_or_else(|| VcsError::UnknownBranch(branch.to_string()))
    }

    /// Create `new` pointing at the head of `from`.
    pub fn create_branch(&mut self, new: &str, from: &str) -> Result<(), VcsError> {
        if self.branches.contains_key(new) {
            return Err(VcsError::BranchExists(new.to_string()));
        }
        let head = self.head(from)?;
        self.branches.insert(new.to_string(), head);
        Ok(())
    }

    pub fn branches(&self) -> impl Iterator<Item = (&str, ObjectId)> {
        self.branches.iter().map(|(b, id)| (b.as_str(), *id))
    }

    pub fn lookup_commit(&self, id: ObjectId) -> Result<&Commit, VcsError> {
        self.commits.get(&id).ok_or(VcsError::UnknownCommit(id))
    }

    /// Materialize the tree at a commit.
    pub fn checkout(&self, id: ObjectId) -> Result<&WorkTree, VcsError> {
        let commit = self.lookup_commit(id)?;
        self.trees
            .get(&commit.tree)
            .ok_or(VcsError::UnknownCommit(id))
    }

    /// Materialize the tree at a branch head.
    pub fn checkout_branch(&self, branch: &str) -> Result<&WorkTree, VcsError> {
        self.checkout(self.head(branch)?)
    }

    /// Is `ancestor` reachable from `descendant`?
    fn is_ancestor(&self, ancestor: ObjectId, descendant: ObjectId) -> bool {
        let mut stack = vec![descendant];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(id) = stack.pop() {
            if id == ancestor {
                return true;
            }
            if !seen.insert(id) {
                continue;
            }
            if let Some(c) = self.commits.get(&id) {
                stack.extend(c.parents.iter().copied());
            }
        }
        false
    }

    /// Merge `topic` into `base` (used by the hosting layer when merging
    /// pull requests): a fast-forward when `base`'s head is an ancestor of
    /// `topic`'s, otherwise a true merge commit whose tree is `topic`'s tree
    /// — PR semantics where the PR branch contains the intended final state.
    pub fn merge(
        &mut self,
        base: &str,
        topic: &str,
        author: &str,
        at: SimTime,
    ) -> Result<ObjectId, VcsError> {
        let base_head = self.head(base)?;
        let topic_head = self.head(topic)?;
        if self.is_ancestor(base_head, topic_head) {
            self.branches.insert(base.to_string(), topic_head);
            return Ok(topic_head);
        }
        let tree = self.checkout(topic_head)?.clone();
        let message = format!("merge {topic} into {base}");
        let id = self.store_commit(&[base_head, topic_head], tree, author, &message, at);
        self.branches.insert(base.to_string(), id);
        Ok(id)
    }

    /// Full clone: an independent copy of every object (what CORRECT's
    /// remote clone step materializes on the site filesystem).
    pub fn clone_repo(&self) -> Repository {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(v: &str) -> WorkTree {
        WorkTree::new().with_file("src/main.rs", format!("fn main() {{ /* {v} */ }}"))
    }

    fn repo() -> Repository {
        Repository::init("globus-labs/parsl-docking-tutorial", "alice", SimTime::ZERO)
    }

    #[test]
    fn init_creates_main_with_root_commit() {
        let r = repo();
        let head = r.head("main").unwrap();
        let c = r.lookup_commit(head).unwrap();
        assert!(c.parents.is_empty());
        assert!(r.checkout(head).unwrap().is_empty());
    }

    #[test]
    fn commit_advances_head_and_preserves_history() {
        let mut r = repo();
        let c1 = r.commit("main", tree("v1"), "alice", "v1", SimTime::from_secs(1)).unwrap();
        let c2 = r.commit("main", tree("v2"), "alice", "v2", SimTime::from_secs(2)).unwrap();
        assert_eq!(r.head("main").unwrap(), c2);
        assert_eq!(r.lookup_commit(c2).unwrap().parents, vec![c1]);
        assert_eq!(r.checkout(c1).unwrap().get("src/main.rs"), tree("v1").get("src/main.rs"));
    }

    #[test]
    fn branch_and_fast_forward() {
        let mut r = repo();
        r.commit("main", tree("base"), "alice", "base", SimTime::from_secs(1)).unwrap();
        r.create_branch("feature", "main").unwrap();
        let f = r.commit("feature", tree("feat"), "bob", "feat", SimTime::from_secs(2)).unwrap();
        let merged = r.merge("main", "feature", "alice", SimTime::from_secs(3)).unwrap();
        assert_eq!(merged, f, "an ancestor base fast-forwards: no merge commit");
        assert_eq!(r.head("main").unwrap(), f);
    }

    #[test]
    fn diverged_branches_get_a_merge_commit() {
        let mut r = repo();
        r.commit("main", tree("base"), "alice", "base", SimTime::from_secs(1)).unwrap();
        r.create_branch("feature", "main").unwrap();
        r.commit("feature", tree("feat"), "bob", "feat", SimTime::from_secs(2)).unwrap();
        // main diverges
        r.commit("main", tree("hotfix"), "alice", "hotfix", SimTime::from_secs(3)).unwrap();
        let m = r.merge("main", "feature", "alice", SimTime::from_secs(4)).unwrap();
        let c = r.lookup_commit(m).unwrap();
        assert_eq!(c.parents.len(), 2);
        // Merge tree carries the PR branch content.
        assert_eq!(r.checkout(m).unwrap().get("src/main.rs"), tree("feat").get("src/main.rs"));
    }

    #[test]
    fn ancestor_query() {
        let mut r = repo();
        let c1 = r.commit("main", tree("1"), "a", "1", SimTime::from_secs(1)).unwrap();
        let c2 = r.commit("main", tree("2"), "a", "2", SimTime::from_secs(2)).unwrap();
        assert!(r.is_ancestor(c1, c2));
        assert!(!r.is_ancestor(c2, c1));
        assert!(r.is_ancestor(c2, c2));
    }

    #[test]
    fn duplicate_branch_rejected() {
        let mut r = repo();
        r.create_branch("dev", "main").unwrap();
        assert!(matches!(
            r.create_branch("dev", "main"),
            Err(VcsError::BranchExists(_))
        ));
        assert!(matches!(
            r.create_branch("x", "nope"),
            Err(VcsError::UnknownBranch(_))
        ));
    }

    #[test]
    fn identical_content_deduplicates_trees() {
        let mut r = repo();
        r.commit("main", tree("same"), "a", "c1", SimTime::from_secs(1)).unwrap();
        let before = r.trees.len();
        r.commit("main", tree("same"), "a", "c2", SimTime::from_secs(2)).unwrap();
        assert_eq!(r.trees.len(), before, "same tree stored once");
        assert_eq!(r.commits.len(), 3);
    }
}
