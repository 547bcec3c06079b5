//! Workflow runs: instantiated workflows with per-step results and logs.

use hpcci_sim::{SimTime, Sym};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::ops::{Deref, Index};
use std::sync::Arc;

/// Run identifier, unique per CI service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(pub u64);

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run#{}", self.0)
    }
}

/// Overall run status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Queued behind an environment approval gate.
    AwaitingApproval,
    /// Ready to execute (approved or no gate).
    Queued,
    Running,
    Success,
    Failure,
    /// Rejected by a reviewer.
    Rejected,
}

impl RunStatus {
    pub fn is_terminal(&self) -> bool {
        matches!(self, RunStatus::Success | RunStatus::Failure | RunStatus::Rejected)
    }

    /// The status as run reports and scenario transcripts print it.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunStatus::AwaitingApproval => "awaiting-approval",
            RunStatus::Queued => "queued",
            RunStatus::Running => "running",
            RunStatus::Success => "success",
            RunStatus::Failure => "failure",
            RunStatus::Rejected => "rejected",
        }
    }
}

/// How far infrastructure, not the code under test, bore on a step's result
/// — as the action saw it happen (CORRECT), never inferred from a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Infra {
    /// Not at all: the result is the code's own, and cacheable.
    #[default]
    Untouched,
    /// A retry, failover or token refresh on the way: the verdict is still
    /// the code's, but of that moment's platform — never cached.
    Shaped,
    /// The step failed *because* the platform did (retries exhausted, site
    /// skipped): it says nothing about the code.
    Failed,
}

/// Why a run failed: the attribution §2.1 asks CI never to confuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    Test,
    Infrastructure,
}

impl FailureKind {
    /// As rendered: the `failure_kind` step output and report column.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Test => "test",
            FailureKind::Infrastructure => "infrastructure",
        }
    }
}

/// A step's named outputs: a flat list kept sorted by name, so it iterates
/// in the order of the `BTreeMap<String, String>` it stands in for —
/// [`result_digest`](crate::cache::result_digest), transcripts and
/// provenance records read the same bytes. An action names its outputs with
/// literals, which are borrowed, not copied; a handful of entries is one
/// allocation where a map is a 544-byte leaf plus a `String` per name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Outputs(Vec<(Cow<'static, str>, String)>);

impl Outputs {
    /// Room for `n` outputs in one allocation.
    pub fn with_capacity(n: usize) -> Outputs {
        Outputs(Vec::with_capacity(n))
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| (**k).cmp(key))
    }

    /// Set `key`, returning the value it had.
    pub fn insert(&mut self, key: impl Into<Cow<'static, str>>, value: String) -> Option<String> {
        let key = key.into();
        match self.position(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, value)),
            Err(at) => {
                self.0.insert(at, (key, value));
                None
            }
        }
    }

    pub fn get(&self, key: &str) -> Option<&String> {
        self.position(key).ok().map(|at| &self.0[at].1)
    }

    pub fn contains_key(&self, key: &str) -> bool {
        self.position(key).is_ok()
    }

    /// `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &String)> {
        self.0.iter().map(|(k, v)| (&**k, v))
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut String> {
        self.0.iter_mut().map(|(_, v)| v)
    }
}

impl From<BTreeMap<String, String>> for Outputs {
    fn from(map: BTreeMap<String, String>) -> Outputs {
        Outputs(map.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl PartialEq<BTreeMap<String, String>> for Outputs {
    fn eq(&self, map: &BTreeMap<String, String>) -> bool {
        self.iter().eq(map.iter().map(|(k, v)| (k.as_str(), v)))
    }
}

impl Index<&str> for Outputs {
    type Output = String;

    /// # Panics
    /// If there is no output `key`, as a map's index does.
    fn index(&self, key: &str) -> &String {
        self.get(key).expect("no such output")
    }
}

/// What a step produced — the part of a [`StepRun`] a cache replay
/// reproduces verbatim. Immutable once built and held behind an `Arc`: the
/// run arena and the step cache share one copy of every log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepOutcome {
    pub success: bool,
    /// Secret-masked stdout.
    pub stdout: String,
    /// Secret-masked stderr.
    pub stderr: String,
    /// Secret-masked named outputs.
    pub outputs: Outputs,
    pub infra: Infra,
}

/// Result of one executed step.
///
/// Job and step ids are interned [`Sym`]s: a workflow's ids repeat across
/// every run it triggers, so each `StepRun` holds a shared handle instead of
/// its own `String` pair. The outcome derefs through, so readers write
/// `step.stdout` / `step.outputs` as if the fields were inline.
#[derive(Debug, Clone)]
pub struct StepRun {
    pub job: Sym,
    pub step: Sym,
    pub outcome: Arc<StepOutcome>,
    pub started: SimTime,
    pub ended: SimTime,
    /// Ids of the FaaS tasks the step submitted, in order: the record a
    /// failure's attribution is checked against. Empty for a replayed step
    /// and for a job no runner could serve; not part of the outcome, so it
    /// is never cached, hashed or rendered.
    pub tasks: Box<[u64]>,
}

impl Deref for StepRun {
    type Target = StepOutcome;

    fn deref(&self) -> &StepOutcome {
        &self.outcome
    }
}

/// One instantiated workflow run.
///
/// Hot identifiers (repo, workflow, branch, reviewer) are interned — ten
/// thousand runs of the same workflow share four allocations, not forty
/// thousand. The commit id is a standalone [`Sym`] (unique per push, so
/// interning it would only grow the intern table).
#[derive(Debug, Clone)]
pub struct WorkflowRun {
    pub id: RunId,
    pub repo: Sym,
    pub workflow: Sym,
    pub branch: Sym,
    pub commit: Sym,
    /// Triggered by a pull request from another repository: the run
    /// resolves no secret.
    pub fork: bool,
    pub status: RunStatus,
    pub triggered_at: SimTime,
    pub started_at: Option<SimTime>,
    pub ended_at: Option<SimTime>,
    pub approved_by: Option<Sym>,
    pub steps: Vec<StepRun>,
}

impl WorkflowRun {
    /// Find a completed step's record.
    pub fn step(&self, step_id: &str) -> Option<&StepRun> {
        self.steps.iter().find(|s| s.step == step_id)
    }

    /// Attribution of a failed run — the kind of its first failed step;
    /// `None` unless the run failed.
    pub fn failure_kind(&self) -> Option<FailureKind> {
        let first_failed = self.steps.iter().find(|s| !s.success);
        (self.status == RunStatus::Failure).then(|| match first_failed {
            Some(s) if s.infra == Infra::Failed => FailureKind::Infrastructure,
            _ => FailureKind::Test,
        })
    }

    /// The status badge string a README would embed — the visible outcome of
    /// continuous reproducibility evaluation.
    pub fn badge(&self) -> String {
        let label = match self.status {
            RunStatus::Success => "passing",
            RunStatus::Failure => "failing",
            RunStatus::Rejected => "rejected",
            RunStatus::AwaitingApproval => "awaiting approval",
            RunStatus::Queued | RunStatus::Running => "in progress",
        };
        format!("[{} | {}]", self.workflow, label)
    }

    /// Full run log: every step's stdout/stderr in order.
    pub fn full_log(&self) -> String {
        let mut out = String::new();
        for s in &self.steps {
            let _ = writeln!(
                out,
                "### {}/{} [{}]",
                s.job,
                s.step,
                if s.success { "ok" } else { "FAILED" }
            );
            if !s.stdout.is_empty() {
                out.push_str(&s.stdout);
                if !s.stdout.ends_with('\n') {
                    out.push('\n');
                }
            }
            if !s.stderr.is_empty() {
                out.push_str("--- stderr ---\n");
                out.push_str(&s.stderr);
                if !s.stderr.ends_with('\n') {
                    out.push('\n');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> WorkflowRun {
        WorkflowRun {
            id: RunId(1),
            repo: "o/r".into(),
            workflow: "ci".into(),
            branch: "main".into(),
            commit: "abc".into(),
            fork: false,
            status: RunStatus::Success,
            triggered_at: SimTime::ZERO,
            started_at: Some(SimTime::from_secs(1)),
            ended_at: Some(SimTime::from_secs(5)),
            approved_by: None,
            steps: vec![
                StepRun {
                    job: "test".into(),
                    step: "tox".into(),
                    outcome: Arc::new(StepOutcome {
                        success: true,
                        stdout: "4 passed".into(),
                        ..StepOutcome::default()
                    }),
                    started: SimTime::from_secs(1),
                    ended: SimTime::from_secs(4),
                    tasks: Box::default(),
                },
                StepRun {
                    job: "test".into(),
                    step: "lint".into(),
                    outcome: Arc::new(StepOutcome {
                        success: false,
                        stderr: "E501 line too long".into(),
                        ..StepOutcome::default()
                    }),
                    started: SimTime::from_secs(4),
                    ended: SimTime::from_secs(5),
                    tasks: Box::default(),
                },
            ],
        }
    }

    #[test]
    fn badge_reflects_status() {
        let mut r = run();
        assert_eq!(r.badge(), "[ci | passing]");
        r.status = RunStatus::Failure;
        assert_eq!(r.badge(), "[ci | failing]");
        r.status = RunStatus::AwaitingApproval;
        assert!(r.badge().contains("awaiting approval"));
    }

    #[test]
    fn full_log_includes_both_streams() {
        let log = run().full_log();
        assert!(log.contains("4 passed"));
        assert!(log.contains("E501"));
        assert!(log.contains("[FAILED]"));
        assert!(log.contains("[ok]"));
    }

    #[test]
    fn step_lookup() {
        let r = run();
        assert!(r.step("tox").unwrap().success);
        assert!(r.step("missing").is_none());
    }

    #[test]
    fn terminal_statuses() {
        assert!(RunStatus::Success.is_terminal());
        assert!(RunStatus::Rejected.is_terminal());
        assert!(!RunStatus::Queued.is_terminal());
        assert!(!RunStatus::AwaitingApproval.is_terminal());
    }
}
