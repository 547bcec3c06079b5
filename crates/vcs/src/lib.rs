//! # hpcci-vcs — content-addressed version control and hosting
//!
//! The GitHub/GitLab substrate (§4): the federation's CI engine triggers on
//! repository events, CORRECT clones repositories onto remote sites, and
//! provenance records pin exact commit hashes.
//!
//! * [`hash::ObjectId`] — content address of blobs, trees and commits;
//! * [`object::WorkTree`] — a path → bytes snapshot; [`object::Commit`] — an
//!   immutable commit with parents, tree and metadata;
//! * [`repo::Repository`] — branches, commit DAG, content-addressed object
//!   store, merges (fast-forward when possible), diffs;
//! * [`hosting::HostingService`] — the multi-repository service: forks, pull
//!   requests, pushes, and a webhook outbox the CI engine consumes.
//!
//! Hashing is `hpcci_cas::Digest`'s 128-bit FNV construction: content
//! addressing here needs collision resistance against *accidents*, not
//! adversaries (noted in DESIGN.md §5).

pub mod hash;
pub mod hosting;
pub mod object;
pub mod repo;

pub use hash::ObjectId;
pub use hosting::{HostingService, PullRequest, PullRequestId, PullRequestState, RepoEvent};
pub use object::{Commit, WorkTree};
pub use repo::{Repository, VcsError};
