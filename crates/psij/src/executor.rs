//! The executor abstraction: one API over local and batch execution.

use crate::spec::PsijJobSpec;
use hpcci_cluster::Uid;
use hpcci_scheduler::{BatchScheduler, JobId, JobPayload, JobSpec, JobState};
use hpcci_sim::{Advance, SimDuration, SimTime};
use std::fmt;

/// PSI/J's portable job states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsijJobState {
    New,
    Queued,
    Active,
    Completed,
    Failed,
    Canceled,
}

impl PsijJobState {
    pub fn is_final(&self) -> bool {
        matches!(
            self,
            PsijJobState::Completed | PsijJobState::Failed | PsijJobState::Canceled
        )
    }
}

/// Errors from executors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PsijError {
    UnknownJob(u64),
    InvalidState(u64),
    Scheduler(String),
}

impl fmt::Display for PsijError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsijError::UnknownJob(id) => write!(f, "unknown psij job {id}"),
            PsijError::InvalidState(id) => write!(f, "invalid state for psij job {id}"),
            PsijError::Scheduler(e) => write!(f, "scheduler error: {e}"),
        }
    }
}

impl std::error::Error for PsijError {}

/// A submitted job handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PsijJobHandle(pub u64);

enum Backend<'a> {
    /// Direct execution on the node running the executor: job `i` completes
    /// at its recorded end time.
    Local(Vec<(SimTime, bool, bool)>), // (ends_at, success, cancelled)
    /// Batch execution through a scheduler the caller lends.
    Slurm {
        scheduler: &'a mut BatchScheduler,
        user: Uid,
        allocation: String,
        jobs: Vec<JobId>,
    },
}

/// One executor instance ("local" or "slurm"), mirroring
/// `psij.JobExecutor.get_instance(name)`.
pub struct JobExecutor<'a> {
    backend: Backend<'a>,
}

impl<'a> JobExecutor<'a> {
    /// The `local` executor: forks on the current (login) node.
    pub fn local() -> JobExecutor<'a> {
        JobExecutor {
            backend: Backend::Local(Vec::new()),
        }
    }

    /// The `slurm` executor over a borrowed scheduler, as a local account.
    pub fn slurm(scheduler: &'a mut BatchScheduler, user: Uid, allocation: &str) -> JobExecutor<'a> {
        JobExecutor {
            backend: Backend::Slurm {
                scheduler,
                user,
                allocation: allocation.to_string(),
                jobs: Vec::new(),
            },
        }
    }

    /// Submit a job; returns immediately with a handle.
    pub fn submit(&mut self, spec: &PsijJobSpec, now: SimTime) -> Result<PsijJobHandle, PsijError> {
        match &mut self.backend {
            Backend::Local(jobs) => {
                let ends = now + spec.simulated_runtime;
                jobs.push((ends, spec.simulated_success, false));
                Ok(PsijJobHandle(jobs.len() as u64 - 1))
            }
            Backend::Slurm {
                scheduler,
                user,
                allocation,
                jobs,
            } => {
                let sched_spec = JobSpec {
                    name: spec.name.clone(),
                    user: *user,
                    allocation: allocation.clone(),
                    partition: "compute".to_string(),
                    nodes: 1,
                    cores_per_node: spec.process_count,
                    walltime: spec.duration,
                    payload: JobPayload::Fixed {
                        duration: spec.simulated_runtime,
                        success: spec.simulated_success,
                    },
                };
                let id = scheduler
                    .submit(sched_spec, now)
                    .map_err(|e| PsijError::Scheduler(e.to_string()))?;
                jobs.push(id);
                Ok(PsijJobHandle(jobs.len() as u64 - 1))
            }
        }
    }

    /// Poll a job's portable state.
    pub fn state(&mut self, handle: PsijJobHandle, now: SimTime) -> Result<PsijJobState, PsijError> {
        match &mut self.backend {
            Backend::Local(jobs) => {
                let (ends, success, cancelled) = *jobs
                    .get(handle.0 as usize)
                    .ok_or(PsijError::UnknownJob(handle.0))?;
                Ok(if cancelled {
                    PsijJobState::Canceled
                } else if now < ends {
                    PsijJobState::Active
                } else if success {
                    PsijJobState::Completed
                } else {
                    PsijJobState::Failed
                })
            }
            Backend::Slurm { scheduler, jobs, .. } => {
                let id = *jobs
                    .get(handle.0 as usize)
                    .ok_or(PsijError::UnknownJob(handle.0))?;
                if scheduler.now() < now {
                    scheduler.advance_to(now);
                }
                let state = scheduler
                    .state(id)
                    .map_err(|e| PsijError::Scheduler(e.to_string()))?;
                Ok(match state {
                    JobState::Pending { .. } => PsijJobState::Queued,
                    JobState::Running { .. } => PsijJobState::Active,
                    JobState::Completed { success: true, .. } => PsijJobState::Completed,
                    JobState::Completed { success: false, .. } | JobState::TimedOut { .. } => {
                        PsijJobState::Failed
                    }
                    JobState::Cancelled { .. } => PsijJobState::Canceled,
                    // A preempted job lost its node; PSI/J reports it failed
                    // so the caller can resubmit.
                    JobState::Preempted { .. } => PsijJobState::Failed,
                })
            }
        }
    }

    /// Cancel a job.
    pub fn cancel(&mut self, handle: PsijJobHandle, now: SimTime) -> Result<(), PsijError> {
        match &mut self.backend {
            Backend::Local(jobs) => {
                let job = jobs
                    .get_mut(handle.0 as usize)
                    .ok_or(PsijError::UnknownJob(handle.0))?;
                if now >= job.0 {
                    return Err(PsijError::InvalidState(handle.0));
                }
                job.2 = true;
                Ok(())
            }
            Backend::Slurm { scheduler, jobs, .. } => {
                let id = *jobs
                    .get(handle.0 as usize)
                    .ok_or(PsijError::UnknownJob(handle.0))?;
                scheduler
                    .cancel(id, now)
                    .map_err(|e| PsijError::Scheduler(e.to_string()))
            }
        }
    }

    /// Block (advance virtual time) until the job is final; returns the
    /// final state and the completion time.
    pub fn wait(
        &mut self,
        handle: PsijJobHandle,
        mut now: SimTime,
        deadline: SimDuration,
    ) -> Result<(PsijJobState, SimTime), PsijError> {
        let limit = now + deadline;
        loop {
            let state = self.state(handle, now)?;
            if state.is_final() {
                return Ok((state, now));
            }
            if now >= limit {
                return Err(PsijError::InvalidState(handle.0));
            }
            // Advance to the scheduler's next event, or tick forward.
            now = match &self.backend {
                Backend::Local(jobs) => jobs[handle.0 as usize].0.min(limit),
                Backend::Slurm { scheduler, .. } => scheduler
                    .next_event()
                    .map(|t| t.min(limit))
                    .unwrap_or(limit),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcci_cluster::NodeId;

    fn two_nodes() -> BatchScheduler {
        BatchScheduler::with_compute_partition((0..2).map(NodeId).collect(), 8)
    }

    #[test]
    fn local_executor_lifecycle() {
        let mut ex = JobExecutor::local();
        let spec = PsijJobSpec::new("j", "/bin/true").running_for(SimDuration::from_secs(3));
        let h = ex.submit(&spec, SimTime::ZERO).unwrap();
        assert_eq!(ex.state(h, SimTime::from_secs(1)).unwrap(), PsijJobState::Active);
        let (state, at) = ex.wait(h, SimTime::from_secs(1), SimDuration::from_mins(1)).unwrap();
        assert_eq!(state, PsijJobState::Completed);
        assert_eq!(at, SimTime::from_secs(3));
    }

    #[test]
    fn local_executor_failure_and_cancel() {
        let mut ex = JobExecutor::local();
        let fail = ex
            .submit(
                &PsijJobSpec::new("f", "/bin/false").failing().running_for(SimDuration::from_secs(1)),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(ex.state(fail, SimTime::from_secs(2)).unwrap(), PsijJobState::Failed);

        let cancelme = ex
            .submit(
                &PsijJobSpec::new("c", "/bin/sleep").running_for(SimDuration::from_secs(100)),
                SimTime::ZERO,
            )
            .unwrap();
        ex.cancel(cancelme, SimTime::from_secs(1)).unwrap();
        assert_eq!(ex.state(cancelme, SimTime::from_secs(2)).unwrap(), PsijJobState::Canceled);
        // Cancelling a finished job is an error.
        assert!(ex.cancel(fail, SimTime::from_secs(5)).is_err());
    }

    #[test]
    fn slurm_executor_queues_then_runs() {
        let mut sched = two_nodes();
        let mut ex = JobExecutor::slurm(&mut sched, Uid(1001), "alloc");
        // Fill the machine: 2 nodes x 8 cores with two 8-core jobs.
        let long = PsijJobSpec {
            process_count: 8,
            ..PsijJobSpec::new("long", "burn").running_for(SimDuration::from_secs(50))
        };
        let _a = ex.submit(&long, SimTime::ZERO).unwrap();
        let _b = ex.submit(&long, SimTime::ZERO).unwrap();
        let c = ex.submit(&long, SimTime::ZERO).unwrap();
        assert_eq!(ex.state(c, SimTime::ZERO).unwrap(), PsijJobState::Queued);
        let (state, at) = ex.wait(c, SimTime::ZERO, SimDuration::from_mins(5)).unwrap();
        assert_eq!(state, PsijJobState::Completed);
        assert_eq!(at, SimTime::from_secs(100));
    }

    #[test]
    fn slurm_executor_walltime_failure() {
        let mut sched = two_nodes();
        let mut ex = JobExecutor::slurm(&mut sched, Uid(1001), "alloc");
        let spec = PsijJobSpec::new("overrun", "burn")
            .with_duration(SimDuration::from_secs(10))
            .running_for(SimDuration::from_secs(100));
        let h = ex.submit(&spec, SimTime::ZERO).unwrap();
        let (state, _) = ex.wait(h, SimTime::ZERO, SimDuration::from_mins(5)).unwrap();
        assert_eq!(state, PsijJobState::Failed, "timeout maps to Failed");
    }

    #[test]
    fn unknown_handles_error() {
        let mut ex = JobExecutor::local();
        assert!(matches!(
            ex.state(PsijJobHandle(7), SimTime::ZERO),
            Err(PsijError::UnknownJob(7))
        ));
    }
}
