//! The hosting service: multi-repo registry, forks, pull requests, webhooks.
//!
//! CORRECT's repeatability story (§5.3) depends on hosting mechanics:
//! non-contributors *fork* the repository, swap endpoint identifiers, and
//! trigger workflows; contributors open *pull requests* whose events fire CI.
//! The webhook outbox is the integration point with `hpcci-ci`.

use crate::object::WorkTree;
use crate::repo::{Repository, VcsError};
use crate::ObjectId;
use hpcci_sim::{Interner, SimTime, Sym};
use std::collections::BTreeMap;

/// Pull-request number (per service, like GitHub's global-ish numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PullRequestId(pub u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullRequestState {
    Open,
    Merged,
    Closed,
}

/// A pull request within one repository (head branch may live in a fork).
#[derive(Debug, Clone)]
pub struct PullRequest {
    pub id: PullRequestId,
    /// Repository the PR targets, `"owner/name"`.
    pub base_repo: String,
    pub base_branch: String,
    /// Repository the PR head lives in (same as `base_repo` unless forked).
    pub head_repo: String,
    pub head_branch: String,
    pub author: String,
    pub title: String,
    pub state: PullRequestState,
    /// Usernames of core developers who approved (PSI/J's §6.2 policy gates
    /// CI on a core-developer tag/review).
    pub approvals: Vec<String>,
}

/// Repository events delivered to CI (webhooks).
///
/// Identifier fields are interned [`Sym`]s: a push to a repo the service has
/// seen before emits a webhook without allocating a single name string,
/// which is what keeps the push→run path flat under peak-day traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepoEvent {
    Push {
        repo: Sym,
        branch: Sym,
        commit: ObjectId,
        pusher: Sym,
        at: SimTime,
    },
    PullRequestOpened {
        repo: Sym,
        pr: PullRequestId,
        at: SimTime,
    },
    PullRequestMerged {
        repo: Sym,
        pr: PullRequestId,
        commit: ObjectId,
        at: SimTime,
    },
}

/// A GitHub-like hosting service.
#[derive(Debug, Default)]
pub struct HostingService {
    repos: BTreeMap<String, Repository>,
    prs: BTreeMap<PullRequestId, PullRequest>,
    events: Vec<RepoEvent>,
    next_pr: u64,
    /// Shares one allocation per distinct repo/branch/pusher name across
    /// every webhook the service ever emits.
    interner: Interner,
}

impl HostingService {
    pub fn new() -> Self {
        HostingService::default()
    }

    /// Create a repository owned by `owner`.
    pub fn create_repo(&mut self, owner: &str, name: &str, at: SimTime) -> &mut Repository {
        let full = format!("{owner}/{name}");
        self.repos
            .entry(full.clone())
            .or_insert_with(|| Repository::init(&full, owner, at))
    }

    pub fn repo(&self, full_name: &str) -> Result<&Repository, VcsError> {
        self.repos
            .get(full_name)
            .ok_or_else(|| VcsError::UnknownRepo(full_name.to_string()))
    }

    pub fn repo_mut(&mut self, full_name: &str) -> Result<&mut Repository, VcsError> {
        self.repos
            .get_mut(full_name)
            .ok_or_else(|| VcsError::UnknownRepo(full_name.to_string()))
    }

    /// Push a tree snapshot to `branch`, creating the branch if needed, and
    /// emit a `Push` webhook.
    pub fn push(
        &mut self,
        full_name: &str,
        branch: &str,
        tree: WorkTree,
        author: &str,
        message: &str,
        at: SimTime,
    ) -> Result<ObjectId, VcsError> {
        let repo = self.repo_mut(full_name)?;
        if repo.head(branch).is_err() {
            let default = repo.default_branch.clone();
            repo.create_branch(branch, &default)?;
        }
        let commit = repo.commit(branch, tree, author, message, at)?;
        self.events.push(RepoEvent::Push {
            repo: self.interner.intern(full_name),
            branch: self.interner.intern(branch),
            commit,
            pusher: self.interner.intern(author),
            at,
        });
        Ok(commit)
    }

    /// Fork `source` into `new_owner`'s namespace — step (1) of the paper's
    /// §5.3 repeatability recipe.
    pub fn fork(&mut self, source: &str, new_owner: &str) -> Result<String, VcsError> {
        let src = self.repo(source)?;
        let name = source
            .split('/')
            .nth(1)
            .ok_or_else(|| VcsError::UnknownRepo(source.to_string()))?;
        let full = format!("{new_owner}/{name}");
        let mut forked = src.clone_repo();
        forked.full_name = full.clone();
        self.repos.insert(full.clone(), forked);
        Ok(full)
    }

    /// Open a pull request; emits a webhook.
    #[allow(clippy::too_many_arguments)]
    pub fn open_pull_request(
        &mut self,
        base_repo: &str,
        base_branch: &str,
        head_repo: &str,
        head_branch: &str,
        author: &str,
        title: &str,
        at: SimTime,
    ) -> Result<PullRequestId, VcsError> {
        self.repo(base_repo)?;
        self.repo(head_repo)?.head(head_branch)?;
        self.next_pr += 1;
        let id = PullRequestId(self.next_pr);
        self.prs.insert(
            id,
            PullRequest {
                id,
                base_repo: base_repo.to_string(),
                base_branch: base_branch.to_string(),
                head_repo: head_repo.to_string(),
                head_branch: head_branch.to_string(),
                author: author.to_string(),
                title: title.to_string(),
                state: PullRequestState::Open,
                approvals: Vec::new(),
            },
        );
        self.events.push(RepoEvent::PullRequestOpened {
            repo: self.interner.intern(base_repo),
            pr: id,
            at,
        });
        Ok(id)
    }

    pub fn pull_request(&self, id: PullRequestId) -> Result<&PullRequest, VcsError> {
        self.prs.get(&id).ok_or(VcsError::UnknownPullRequest(id.0))
    }

    /// Record an approving review from `reviewer`.
    pub fn approve(&mut self, id: PullRequestId, reviewer: &str) -> Result<(), VcsError> {
        let pr = self.prs.get_mut(&id).ok_or(VcsError::UnknownPullRequest(id.0))?;
        if pr.state != PullRequestState::Open {
            return Err(VcsError::PullRequestClosed(id.0));
        }
        if !pr.approvals.iter().any(|r| r == reviewer) {
            pr.approvals.push(reviewer.to_string());
        }
        Ok(())
    }

    /// Merge an open PR into its base branch. Cross-repo PRs first import the
    /// head branch into the base repository (as `pr/<n>`), then merge.
    pub fn merge_pull_request(
        &mut self,
        id: PullRequestId,
        merger: &str,
        at: SimTime,
    ) -> Result<ObjectId, VcsError> {
        let pr = self.prs.get(&id).ok_or(VcsError::UnknownPullRequest(id.0))?.clone();
        if pr.state != PullRequestState::Open {
            return Err(VcsError::PullRequestClosed(id.0));
        }
        let head_tree = self
            .repo(&pr.head_repo)?
            .checkout_branch(&pr.head_branch)?
            .clone();
        let base = self.repo_mut(&pr.base_repo)?;
        let staging = format!("pr/{}", id.0);
        // (Re)create the staging branch at base head, commit the PR tree onto
        // it, then merge.
        if base.head(&staging).is_err() {
            let default = pr.base_branch.clone();
            base.create_branch(&staging, &default)?;
        }
        base.commit(
            &staging,
            head_tree,
            &pr.author,
            &format!("PR #{}: {}", id.0, pr.title),
            at,
        )?;
        let commit = base.merge(&pr.base_branch, &staging, merger, at)?;
        let stored = self.prs.get_mut(&id).expect("checked above");
        stored.state = PullRequestState::Merged;
        self.events.push(RepoEvent::PullRequestMerged {
            repo: self.interner.intern(&pr.base_repo),
            pr: id,
            commit,
            at,
        });
        Ok(commit)
    }

    /// Drain pending webhooks (the CI engine consumes these).
    pub fn take_events(&mut self) -> Vec<RepoEvent> {
        std::mem::take(&mut self.events)
    }

    pub fn repo_count(&self) -> usize {
        self.repos.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(marker: &str) -> WorkTree {
        WorkTree::new()
            .with_file("README.md", format!("# demo {marker}"))
            .with_file("tests/test_all.py", "def test(): pass")
    }

    #[test]
    fn push_emits_webhook() {
        let mut svc = HostingService::new();
        svc.create_repo("parsl", "parsl-docking-tutorial", SimTime::ZERO);
        let c = svc
            .push(
                "parsl/parsl-docking-tutorial",
                "main",
                tree("v1"),
                "alice",
                "add tutorial",
                SimTime::from_secs(5),
            )
            .unwrap();
        let events = svc.take_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            RepoEvent::Push { repo, branch, commit, .. }
                if repo == "parsl/parsl-docking-tutorial" && branch == "main" && *commit == c
        ));
        assert!(svc.take_events().is_empty());
    }

    #[test]
    fn push_to_new_branch_creates_it() {
        let mut svc = HostingService::new();
        svc.create_repo("o", "r", SimTime::ZERO);
        svc.push("o/r", "feature-x", tree("f"), "bob", "wip", SimTime::from_secs(1))
            .unwrap();
        assert!(svc.repo("o/r").unwrap().head("feature-x").is_ok());
    }

    #[test]
    fn fork_copies_content_independently() {
        let mut svc = HostingService::new();
        svc.create_repo("upstream", "app", SimTime::ZERO);
        svc.push("upstream/app", "main", tree("v1"), "alice", "v1", SimTime::from_secs(1))
            .unwrap();
        let fork = svc.fork("upstream/app", "reviewer").unwrap();
        assert_eq!(fork, "reviewer/app");
        // Diverge the fork; upstream unchanged.
        svc.push(&fork, "main", tree("fork-change"), "reviewer", "swap endpoints", SimTime::from_secs(2))
            .unwrap();
        let up = svc.repo("upstream/app").unwrap().checkout_branch("main").unwrap().clone();
        let fk = svc.repo(&fork).unwrap().checkout_branch("main").unwrap().clone();
        assert_eq!(up.get("README.md"), tree("v1").get("README.md"));
        assert_eq!(fk.get("README.md"), tree("fork-change").get("README.md"));
    }

    #[test]
    fn pull_request_lifecycle_same_repo() {
        let mut svc = HostingService::new();
        svc.create_repo("o", "r", SimTime::ZERO);
        svc.push("o/r", "main", tree("base"), "alice", "base", SimTime::from_secs(1)).unwrap();
        svc.push("o/r", "fix", tree("fixed"), "bob", "fix bug", SimTime::from_secs(2)).unwrap();
        let pr = svc
            .open_pull_request("o/r", "main", "o/r", "fix", "bob", "Fix the bug", SimTime::from_secs(3))
            .unwrap();
        svc.approve(pr, "core-dev").unwrap();
        assert_eq!(svc.pull_request(pr).unwrap().approvals, vec!["core-dev"]);
        let merge = svc.merge_pull_request(pr, "alice", SimTime::from_secs(4)).unwrap();
        assert_eq!(svc.pull_request(pr).unwrap().state, PullRequestState::Merged);
        let main_tree = svc.repo("o/r").unwrap().checkout_branch("main").unwrap();
        assert_eq!(main_tree.get("README.md"), tree("fixed").get("README.md"));
        // Events: 2 pushes + PR opened + PR merged.
        let events = svc.take_events();
        assert_eq!(events.len(), 4);
        assert!(matches!(events[3], RepoEvent::PullRequestMerged { commit, .. } if commit == merge));
    }

    #[test]
    fn cross_fork_pull_request() {
        let mut svc = HostingService::new();
        svc.create_repo("up", "lib", SimTime::ZERO);
        svc.push("up/lib", "main", tree("v1"), "alice", "v1", SimTime::from_secs(1)).unwrap();
        let fork = svc.fork("up/lib", "contrib").unwrap();
        svc.push(&fork, "feat", tree("contrib-feature"), "carol", "feature", SimTime::from_secs(2))
            .unwrap();
        let pr = svc
            .open_pull_request("up/lib", "main", &fork, "feat", "carol", "Add feature", SimTime::from_secs(3))
            .unwrap();
        svc.merge_pull_request(pr, "alice", SimTime::from_secs(4)).unwrap();
        let main = svc.repo("up/lib").unwrap().checkout_branch("main").unwrap();
        assert_eq!(main.get("README.md"), tree("contrib-feature").get("README.md"));
    }

    #[test]
    fn merged_pr_cannot_be_remerged_or_approved() {
        let mut svc = HostingService::new();
        svc.create_repo("o", "r", SimTime::ZERO);
        svc.push("o/r", "b", tree("x"), "a", "m", SimTime::from_secs(1)).unwrap();
        let pr = svc
            .open_pull_request("o/r", "main", "o/r", "b", "a", "t", SimTime::from_secs(2))
            .unwrap();
        svc.merge_pull_request(pr, "a", SimTime::from_secs(3)).unwrap();
        assert!(matches!(
            svc.merge_pull_request(pr, "a", SimTime::from_secs(4)),
            Err(VcsError::PullRequestClosed(_))
        ));
        assert!(matches!(
            svc.approve(pr, "x"),
            Err(VcsError::PullRequestClosed(_))
        ));
    }

    #[test]
    fn unknown_lookups_error() {
        let svc = HostingService::new();
        assert!(matches!(svc.repo("no/pe"), Err(VcsError::UnknownRepo(_))));
        assert!(matches!(
            svc.pull_request(PullRequestId(9)),
            Err(VcsError::UnknownPullRequest(9))
        ));
    }
}
