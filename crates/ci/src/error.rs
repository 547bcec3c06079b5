//! CI engine errors.

use crate::run::RunId;
use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CiError {
    UnknownWorkflow { repo: String, workflow: String },
    UnknownRun(RunId),
    UnknownEnvironment(String),
    UnknownAction(String),
    UnknownSecret(String),
    /// No live artifact with `name` exists for `run` (missing or expired).
    UnknownArtifact { run: RunId, name: String },
    /// The run is not awaiting approval (already approved/executed/rejected).
    NotAwaitingApproval(RunId),
    /// The approving user is not a required reviewer of the environment.
    NotARequiredReviewer { run: RunId, user: String },
    /// The triggering branch is not allowed to use the environment.
    BranchNotAllowed { environment: String, branch: String },
    /// A job's `needs` reference a job id that does not exist.
    BadJobDependency { job: String, needs: String },
    /// Two jobs of one workflow share this id.
    DuplicateJob(String),
    /// The job can never start: its `needs` lead into a cycle. Names the
    /// first such job in definition order.
    JobCycle { job: String },
    /// No runner satisfies the job's `runs_on` selector.
    NoRunnerAvailable(String),
}

impl fmt::Display for CiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CiError::UnknownWorkflow { repo, workflow } => {
                write!(f, "unknown workflow {workflow} in {repo}")
            }
            CiError::UnknownRun(id) => write!(f, "unknown run {id}"),
            CiError::UnknownEnvironment(e) => write!(f, "unknown environment {e}"),
            CiError::UnknownAction(a) => write!(f, "unknown action {a}"),
            CiError::UnknownSecret(s) => write!(f, "unknown secret {s}"),
            CiError::UnknownArtifact { run, name } => {
                write!(f, "unknown artifact {name} for run {run}")
            }
            CiError::NotAwaitingApproval(id) => write!(f, "run {id} is not awaiting approval"),
            CiError::NotARequiredReviewer { run, user } => {
                write!(f, "{user} is not a required reviewer for run {run}")
            }
            CiError::BranchNotAllowed { environment, branch } => {
                write!(f, "branch {branch} may not deploy to environment {environment}")
            }
            CiError::BadJobDependency { job, needs } => {
                write!(f, "job {job} needs unknown job {needs}")
            }
            CiError::DuplicateJob(job) => write!(f, "job id {job} is used twice"),
            CiError::JobCycle { job } => write!(f, "job {job} waits on a needs cycle"),
            CiError::NoRunnerAvailable(sel) => write!(f, "no runner matches selector {sel}"),
        }
    }
}

impl std::error::Error for CiError {}
