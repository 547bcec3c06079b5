//! Tasks: the unit of remote execution.

use crate::error::FaasError;
use bytes::Bytes;
use hpcci_auth::IdentityId;
use hpcci_sim::{SimDuration, SimTime, Sym};
use std::fmt;

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
        let mut buf = [b'0'; 16];
        let mut i = buf.len();
        let mut v = self.0;
        loop {
            i -= 1;
            buf[i] = HEX[(v & 0xf) as usize];
            v >>= 4;
            if v == 0 {
                break;
            }
        }
        i = i.min(buf.len() - 8); // zero-pad to at least eight hex digits
        out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii hex"));
    }
}

/// Why a task that reached an endpoint came back failed: the origin is in
/// the type, so nobody downstream guesses it from the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFailure {
    /// The command itself failed (exit code, exception, missing account),
    /// with the message it left. Never retried.
    Command(String),
    /// The endpoint's worker process died under the task: infrastructure.
    /// Payload-free, so it sits in the niche `Result<Bytes, String>` had.
    WorkerCrashed,
}

/// The completed result of a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskOutput {
    pub stdout: String,
    pub stderr: String,
    /// The function's return payload (empty for shell functions, which can
    /// only return stdout/stderr — a limitation §7.4 discusses).
    pub result: Result<Bytes, TaskFailure>,
    /// Local account the task actually ran as — the auditable identity link.
    /// Interned: a run's tasks share a handful of account names, so each
    /// output holds a shared `Sym` instead of its own `String`.
    pub ran_as: Sym,
    /// Hostname of the executing node (interned, like `ran_as`).
    pub node: Sym,
    pub started: SimTime,
    pub ended: SimTime,
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
    /// Executing on a worker.
    Running { started: SimTime },
    /// Finished; output available — the box the endpoint's pump built,
    /// carried here by handle and never opened (a `Task` is half the size).
    Done(Box<TaskOutput>),
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
            TaskState::Running { .. } => "Running",
            TaskState::Done(_) => "Done",
            TaskState::Rejected { .. } => "Rejected",
        }
    }
}

/// A task record held by the cloud service.
#[derive(Debug, Clone)]
pub struct Task {
    pub id: TaskId,
    /// The identity that submitted the task.
    pub submitter: IdentityId,
    /// Target endpoint name. Interned — a million-task arena shares one
    /// allocation per endpoint instead of holding a million `String`s.
    pub endpoint: Sym,
    /// The resolved command line the endpoint will execute (interned; CI
    /// workloads repeat a small set of command lines).
    pub command: Sym,
    /// When the cloud accepted the task (start of the latency clock; the
    /// `Submitted` state is transient but this timestamp survives the
    /// lifecycle for end-to-end latency accounting).
    pub submitted_at: SimTime,
    pub state: TaskState,
}

impl Task {
    /// Move the task to `next`, rejecting any transition out of a terminal
    /// state. Done/Rejected tasks never come back to life: re-running a task
    /// requires explicit resubmission, which mints a fresh [`TaskId`].
    pub fn transition(&mut self, next: TaskState) -> Result<(), FaasError> {
        if self.state.is_terminal() {
            return Err(FaasError::InvalidTransition {
                task: self.id,
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
            stdout: "ok".into(),
            stderr: String::new(),
            result: Ok(Bytes::from_static(b"42")),
            ran_as: "x-vhayot".into(),
            node: "anvil-login-1".into(),
            started: SimTime::from_secs(10),
            ended: SimTime::from_secs(25),
        };
        assert!(out.success());
        assert_eq!(out.runtime(), SimDuration::from_secs(15));
    }

    #[test]
    fn failure_output() {
        let out = TaskOutput {
            stdout: String::new(),
            stderr: "Traceback".into(),
            result: Err(TaskFailure::Command("pytest failed".into())),
            ran_as: "u".into(),
            node: "n".into(),
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
        assert!(!TaskState::Running { started: SimTime::ZERO }.is_terminal());
    }

    fn sample_task(state: TaskState) -> Task {
        Task {
            id: TaskId(9),
            submitter: IdentityId(1),
            endpoint: "ep".into(),
            command: "true".into(),
            submitted_at: SimTime::ZERO,
            state,
        }
    }

    fn done_output() -> Box<TaskOutput> {
        Box::new(TaskOutput {
            stdout: String::new(),
            stderr: String::new(),
            result: Ok(Bytes::new()),
            ran_as: "u".into(),
            node: "n".into(),
            started: SimTime::ZERO,
            ended: SimTime::from_secs(1),
        })
    }

    #[test]
    fn live_transitions_are_allowed() {
        let mut t = sample_task(TaskState::Submitted { at: SimTime::ZERO });
        t.transition(TaskState::QueuedAtEndpoint { at: SimTime::from_secs(1) })
            .unwrap();
        t.transition(TaskState::Running { started: SimTime::from_secs(2) })
            .unwrap();
        t.transition(TaskState::Done(done_output())).unwrap();
        assert!(t.state.is_terminal());
    }

    #[test]
    fn done_task_cannot_be_revived() {
        let mut t = sample_task(TaskState::Done(done_output()));
        let err = t
            .transition(TaskState::Running { started: SimTime::from_secs(5) })
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
            .transition(TaskState::Submitted { at: SimTime::from_secs(1) })
            .is_err());
        assert!(t.transition(TaskState::Done(done_output())).is_err());
        let TaskState::Rejected { reason, .. } = t.state else {
            panic!("left the terminal state");
        };
        assert!(matches!(*reason, FaasError::IdentityMappingFailed(_)));
    }
}
