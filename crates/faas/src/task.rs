//! Tasks: the unit of remote execution.

use crate::error::FaasError;
use hpcci_auth::IdentityId;
use hpcci_sim::{SimDuration, SimTime, Sym};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Task identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task-{:08x}", self.0)
    }
}

impl TaskId {
    /// Append this id's `Display` form (`task-{:08x}`) to `out` without going
    /// through the `fmt` machinery. Per-task trace details are built several
    /// times per task on the hot path; skipping the formatter is measurable
    /// at federation-bench event rates. Output is byte-identical to
    /// `Display` — the golden trace hashes pin it.
    pub fn write_label(&self, out: &mut String) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        out.push_str("task-");
        // Zero-padded to at least eight hex digits, most significant first.
        let digits = (16 - self.0.leading_zeros() as usize / 4).max(8);
        for k in (0..digits).rev() {
            out.push(char::from(HEX[(self.0 >> (4 * k) & 0xf) as usize]));
        }
    }
}

/// Why a task that reached an endpoint came back failed: the origin is in
/// the type, so nobody downstream guesses it from the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFailure {
    /// The command itself failed (exit code, exception, missing account),
    /// with the message it left. Never retried.
    Command(String),
    /// The endpoint gave the task up: its worker process died under it, or
    /// it stopped before a worker took it. Infrastructure either way.
    /// Message-free: the endpoint writes what happened to stderr.
    WorkerCrashed,
}

/// What a finished task said: its texts, its verdict and where it ran. An
/// endpoint shares one body across consecutive outputs that say the same
/// (see [`TaskOutput`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputBody {
    /// Shared with the [`ExecOutcome`](crate::ExecOutcome) the handler
    /// returned: a command that prints the same text for every task costs
    /// each output a handle.
    pub stdout: Sym,
    pub stderr: Sym,
    /// The verdict. A task returns stdout, stderr and this, nothing more:
    /// shell functions have no return value (a limitation §7.4 discusses).
    pub result: Result<(), TaskFailure>,
    /// Local account the task actually ran as — the auditable identity link.
    /// Interned: a run's tasks share a handful of account names, so each
    /// output holds a shared `Sym` instead of its own `String`.
    pub ran_as: Sym,
    /// Hostname of the executing node (interned, like `ran_as`).
    pub node: Sym,
}

/// The completed result of a task: its two instants and a handle to its
/// body, 24 bytes that travel by value. It dereferences to the body, so
/// `out.stdout` or `out.result` reads through the handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskOutput {
    pub body: Arc<OutputBody>,
    pub started: SimTime,
    pub ended: SimTime,
}

impl Deref for TaskOutput {
    type Target = OutputBody;
    fn deref(&self) -> &OutputBody {
        &self.body
    }
}

impl TaskOutput {
    pub fn success(&self) -> bool {
        self.result.is_ok()
    }

    pub fn runtime(&self) -> SimDuration {
        self.ended.since(self.started)
    }
}

/// Task lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskState {
    /// Accepted by the cloud, in flight to the endpoint.
    Submitted { at: SimTime },
    /// Queued at the endpoint waiting for a worker.
    QueuedAtEndpoint { at: SimTime },
    /// Finished; output available. Held inline: a finished task is one
    /// record and a handle to a body its endpoint's neighbours may share.
    Done(TaskOutput),
    /// Failed before execution (delivery, mapping, policy), with the error
    /// as raised — boxed, it is wider than every other state.
    Rejected { at: SimTime, reason: Box<FaasError> },
}

impl TaskState {
    pub fn is_terminal(&self) -> bool {
        matches!(self, TaskState::Done(_) | TaskState::Rejected { .. })
    }

    /// Short state name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            TaskState::Submitted { .. } => "Submitted",
            TaskState::QueuedAtEndpoint { .. } => "QueuedAtEndpoint",
            TaskState::Done(_) => "Done",
            TaskState::Rejected { .. } => "Rejected",
        }
    }
}

/// A task record held by the cloud service. Its id is its index in the
/// cloud's table, and its endpoint and command are indices into the cloud's
/// tables too (read them through
/// [`CloudService::task_endpoint`](crate::CloudService::task_endpoint) and
/// [`CloudService::task_command`](crate::CloudService::task_command)): the
/// table grows by one record a task and keeps every one.
#[derive(Debug, Clone)]
pub struct Task {
    /// The identity that submitted the task.
    pub submitter: IdentityId,
    /// When the cloud accepted the task (start of the latency clock; the
    /// `Submitted` state is transient but this timestamp survives the
    /// lifecycle for end-to-end latency accounting).
    pub submitted_at: SimTime,
    /// The target endpoint's slot.
    pub(crate) slot: u32,
    /// The resolved command line's index in the cloud's command table.
    pub(crate) command: u32,
    pub state: TaskState,
}

impl Task {
    /// Move task `id` (this one) to `next`, rejecting any transition out of a
    /// terminal state. Done/Rejected tasks never come back to life: re-running
    /// a task requires explicit resubmission, which mints a fresh [`TaskId`].
    pub fn transition(&mut self, id: TaskId, next: TaskState) -> Result<(), FaasError> {
        if self.state.is_terminal() {
            return Err(FaasError::InvalidTransition {
                task: id,
                from: self.state.name().to_string(),
                to: next.name().to_string(),
            });
        }
        self.state = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_label_matches_display() {
        for v in [
            0,
            1,
            0xf,
            0x10,
            0xdead_beef,
            0xffff_ffff,
            0x1_0000_0000,
            0x0123_4567_89ab_cdef,
            u64::MAX,
        ] {
            let id = TaskId(v);
            let mut label = String::new();
            id.write_label(&mut label);
            assert_eq!(label, id.to_string(), "value {v:#x}");
        }
    }

    #[test]
    fn output_helpers() {
        let out = TaskOutput {
            body: Arc::new(OutputBody {
                stdout: "ok".into(),
                stderr: Sym::Static(""),
                result: Ok(()),
                ran_as: "x-vhayot".into(),
                node: "anvil-login-1".into(),
            }),
            started: SimTime::from_secs(10),
            ended: SimTime::from_secs(25),
        };
        assert!(out.success());
        assert_eq!(out.runtime(), SimDuration::from_secs(15));
    }

    #[test]
    fn failure_output() {
        let out = TaskOutput {
            body: Arc::new(OutputBody {
                stdout: Sym::Static(""),
                stderr: "Traceback".into(),
                result: Err(TaskFailure::Command("pytest failed".into())),
                ran_as: "u".into(),
                node: "n".into(),
            }),
            started: SimTime::ZERO,
            ended: SimTime::from_secs(1),
        };
        assert!(!out.success());
    }

    #[test]
    fn terminal_states() {
        assert!(TaskState::Rejected {
            at: SimTime::ZERO,
            reason: Box::new(FaasError::ShellNotAllowed)
        }
        .is_terminal());
        assert!(!TaskState::Submitted { at: SimTime::ZERO }.is_terminal());
        assert!(!TaskState::QueuedAtEndpoint { at: SimTime::ZERO }.is_terminal());
    }

    const ID: TaskId = TaskId(9);

    fn sample_task(state: TaskState) -> Task {
        Task {
            submitter: IdentityId(1),
            submitted_at: SimTime::ZERO,
            slot: 0,
            command: 0,
            state,
        }
    }

    fn done_output() -> TaskOutput {
        TaskOutput {
            body: Arc::new(OutputBody {
                stdout: Sym::Static(""),
                stderr: Sym::Static(""),
                result: Ok(()),
                ran_as: "u".into(),
                node: "n".into(),
            }),
            started: SimTime::ZERO,
            ended: SimTime::from_secs(1),
        }
    }

    #[test]
    fn live_transitions_are_allowed() {
        let mut t = sample_task(TaskState::Submitted { at: SimTime::ZERO });
        t.transition(ID, TaskState::QueuedAtEndpoint { at: SimTime::from_secs(1) })
            .unwrap();
        t.transition(ID, TaskState::Done(done_output())).unwrap();
        assert!(t.state.is_terminal());
    }

    #[test]
    fn done_task_cannot_be_revived() {
        let mut t = sample_task(TaskState::Done(done_output()));
        let err = t
            .transition(ID, TaskState::QueuedAtEndpoint { at: SimTime::from_secs(5) })
            .unwrap_err();
        assert!(err.to_string().contains("illegal transition"));
        // The terminal state is untouched.
        assert!(matches!(t.state, TaskState::Done(_)));
    }

    #[test]
    fn rejected_task_cannot_be_resubmitted_in_place() {
        let mut t = sample_task(TaskState::Rejected {
            at: SimTime::ZERO,
            reason: Box::new(FaasError::IdentityMappingFailed("mallory".into())),
        });
        assert!(t
            .transition(ID, TaskState::Submitted { at: SimTime::from_secs(1) })
            .is_err());
        assert!(t.transition(ID, TaskState::Done(done_output())).is_err());
        let TaskState::Rejected { reason, .. } = t.state else {
            panic!("left the terminal state");
        };
        assert!(matches!(*reason, FaasError::IdentityMappingFailed(_)));
    }
}
