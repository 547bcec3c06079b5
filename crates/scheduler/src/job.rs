//! Job specifications, states, and lifecycle events.

use hpcci_cluster::{NodeId, Uid};
use hpcci_sim::{SimDuration, SimTime};
use std::fmt;

/// Scheduler-assigned job identifier (monotonic per scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// What the job does once its allocation starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobPayload {
    /// Classic batch job: occupies the allocation for a known duration, then
    /// exits with `success`.
    Fixed { duration: SimDuration, success: bool },
    /// Pilot job: holds the allocation until cancelled or until walltime —
    /// the Globus Compute / Parsl model (§5.1). Tasks are multiplexed onto it
    /// by the FaaS layer.
    Pilot,
}

/// A job submission request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    pub name: String,
    /// Local account the job runs as — HPC security invariant (i): every job
    /// is attributable to the submitting local user.
    pub user: Uid,
    /// Allocation/project charged.
    pub allocation: String,
    pub partition: String,
    pub nodes: u32,
    pub cores_per_node: u32,
    pub walltime: SimDuration,
    pub payload: JobPayload,
}

impl JobSpec {
    /// A conventional single-node job.
    pub fn single_node(name: &str, user: Uid, allocation: &str, cores: u32, walltime: SimDuration) -> Self {
        JobSpec {
            name: name.to_string(),
            user,
            allocation: allocation.to_string(),
            partition: "compute".to_string(),
            nodes: 1,
            cores_per_node: cores,
            walltime,
            payload: JobPayload::Pilot,
        }
    }

    pub fn with_payload(mut self, payload: JobPayload) -> Self {
        self.payload = payload;
        self
    }
}

/// Job lifecycle state. Terminal states carry their timestamps so accounting
/// can compute queue wait and runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in queue since the given submit time.
    Pending { submitted: SimTime },
    /// Running since `started` on an allocation.
    Running { submitted: SimTime, started: SimTime },
    /// Exited normally.
    Completed { submitted: SimTime, started: SimTime, ended: SimTime, success: bool },
    /// Killed by the scheduler for exceeding walltime.
    TimedOut { submitted: SimTime, started: SimTime, ended: SimTime },
    /// Cancelled by the user (pending or running).
    Cancelled { submitted: SimTime, ended: SimTime },
    /// Evicted by the scheduler (node drain/maintenance). Fixed jobs are
    /// requeued as fresh submissions; pilots are re-provisioned by their
    /// endpoint.
    Preempted { submitted: SimTime, started: SimTime, ended: SimTime },
}

impl JobState {
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed { .. }
                | JobState::TimedOut { .. }
                | JobState::Cancelled { .. }
                | JobState::Preempted { .. }
        )
    }

    /// Queue wait: submit → start (None if never started).
    pub fn queue_wait(&self) -> Option<SimDuration> {
        match self {
            JobState::Running { submitted, started }
            | JobState::Completed { submitted, started, .. }
            | JobState::TimedOut { submitted, started, .. }
            | JobState::Preempted { submitted, started, .. } => Some(started.since(*submitted)),
            _ => None,
        }
    }

    /// Wall-clock runtime (None unless terminal-after-start).
    pub fn runtime(&self) -> Option<SimDuration> {
        match self {
            JobState::Completed { started, ended, .. }
            | JobState::TimedOut { started, ended, .. }
            | JobState::Preempted { started, ended, .. } => Some(ended.since(*started)),
            _ => None,
        }
    }
}

/// Events emitted by the scheduler for upper layers (FaaS endpoints poll
/// these to learn when their pilot started).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    Started { job: JobId, at: SimTime, nodes: Vec<NodeId> },
    Ended { job: JobId, at: SimTime, state: JobState },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder() {
        let s = JobSpec::single_node("pilot", Uid(1001), "CIS230030", 8, SimDuration::from_hours(1))
            .with_payload(JobPayload::Fixed {
                duration: SimDuration::from_mins(5),
                success: true,
            });
        assert_eq!((s.nodes, s.cores_per_node), (1, 8));
        assert_eq!(s.partition, "compute");
        assert!(matches!(s.payload, JobPayload::Fixed { success: true, .. }));
    }

    #[test]
    fn state_predicates_and_durations() {
        let submitted = SimTime::from_secs(10);
        let started = SimTime::from_secs(40);
        let ended = SimTime::from_secs(100);
        let pending = JobState::Pending { submitted };
        assert!(!pending.is_terminal());
        assert_eq!(pending.queue_wait(), None);

        let done = JobState::Completed { submitted, started, ended, success: true };
        assert!(done.is_terminal());
        assert_eq!(done.queue_wait(), Some(SimDuration::from_secs(30)));
        assert_eq!(done.runtime(), Some(SimDuration::from_secs(60)));

        let cancelled = JobState::Cancelled { submitted, ended };
        assert!(cancelled.is_terminal());
        assert_eq!(cancelled.runtime(), None);
    }
}
