//! Execution providers: the Parsl-style resource-provisioning abstraction.
//!
//! Globus Compute endpoints "use Parsl to dynamically provision resources,
//! deploy a pilot job model, and manage the execution of tasks on those
//! resources" (§5.1). A provider turns "give me a worker block" into either:
//!
//! * [`LocalProvider`] — a worker process on the login node, active almost
//!   immediately (used on Anvil for the PSI/J tests, and on FASTER/Expanse
//!   for the repository clone step, §6.1–6.2);
//! * [`SlurmProvider`] — a **pilot job** submitted through the batch
//!   scheduler; the block becomes active when the allocation starts and dies
//!   with it (used for the ParslDock test execution on compute nodes).
//!
//! The distinction matters for two paper points: network policy (login nodes
//! have outbound internet, compute nodes may not) and overhead (§7.3 —
//! pilots amortize one queue wait over many tasks).

use crate::engine::BatchScheduler;
use crate::error::SchedulerError;
use crate::job::{JobId, JobSpec, JobState};
use hpcci_cluster::{NodeId, NodeRole, Uid};
use hpcci_sim::{Advance, SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Provider-level identifier of a worker block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Lifecycle of a worker block. Plain data: polling one copies no list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Requested but not yet active (queued pilot / starting process).
    Requested { since: SimTime },
    /// Workers are live; `node` is the block's first node where the provider
    /// knows its placement (a pilot's allocation is the scheduler's secret).
    Active { since: SimTime, node: Option<NodeId>, role: NodeRole },
    /// Block has ended (released, pilot finished, or walltime expired).
    Terminated { at: SimTime },
}

impl BlockState {
    pub fn is_active(&self) -> bool {
        matches!(self, BlockState::Active { .. })
    }
}

/// Common provider interface consumed by FaaS endpoints.
pub trait ExecutionProvider {
    /// Ask for one worker block. Non-blocking: poll [`ExecutionProvider::block_state`].
    fn request_block(&mut self, now: SimTime) -> Result<BlockId, SchedulerError>;

    /// Current state of a block.
    fn block_state(&mut self, id: BlockId, now: SimTime) -> Result<BlockState, SchedulerError>;

    /// Release a block (drain the pilot / stop the local worker).
    fn release_block(&mut self, id: BlockId, now: SimTime) -> Result<(), SchedulerError>;

    /// Cores available to each worker block.
    fn cores_per_block(&self) -> u32;

    /// Role of the nodes this provider places workers on — determines the
    /// network zone for tasks (login nodes reach the internet, compute nodes
    /// may not).
    fn node_role(&self) -> NodeRole;

    /// Virtual time at which the provider next changes state on its own, if
    /// known (used by drivers to avoid busy-polling).
    fn next_event(&self) -> Option<SimTime>;
}

// ---------------------------------------------------------------------
// LocalProvider
// ---------------------------------------------------------------------

/// Workers forked directly on the login node.
pub struct LocalProvider {
    login_node: NodeId,
    cores: u32,
    /// Worker process spawn latency.
    startup: SimDuration,
    blocks: BTreeMap<BlockId, BlockState>,
    /// Blocks still starting: (ready_at).
    starting: BTreeMap<BlockId, SimTime>,
    next_id: u64,
}

impl LocalProvider {
    pub fn new(login_node: NodeId, cores: u32) -> Self {
        LocalProvider {
            login_node,
            cores,
            startup: SimDuration::from_millis(500),
            blocks: BTreeMap::new(),
            starting: BTreeMap::new(),
            next_id: 1,
        }
    }

    pub fn with_startup(mut self, d: SimDuration) -> Self {
        self.startup = d;
        self
    }

    fn settle(&mut self, now: SimTime) {
        let ready: Vec<BlockId> = self
            .starting
            .iter()
            .filter(|(_, &t)| t <= now)
            .map(|(&b, _)| b)
            .collect();
        for b in ready {
            let since = self.starting.remove(&b).expect("key present");
            self.blocks.insert(
                b,
                BlockState::Active {
                    since,
                    node: Some(self.login_node),
                    role: NodeRole::Login,
                },
            );
        }
    }
}

impl ExecutionProvider for LocalProvider {
    fn request_block(&mut self, now: SimTime) -> Result<BlockId, SchedulerError> {
        let id = BlockId(self.next_id);
        self.next_id += 1;
        self.blocks.insert(id, BlockState::Requested { since: now });
        self.starting.insert(id, now + self.startup);
        Ok(id)
    }

    fn block_state(&mut self, id: BlockId, now: SimTime) -> Result<BlockState, SchedulerError> {
        self.settle(now);
        self.blocks
            .get(&id)
            .copied()
            .ok_or(SchedulerError::UnknownBlock(id.0))
    }

    fn release_block(&mut self, id: BlockId, now: SimTime) -> Result<(), SchedulerError> {
        self.settle(now);
        if !self.blocks.contains_key(&id) {
            return Err(SchedulerError::UnknownBlock(id.0));
        }
        self.starting.remove(&id);
        self.blocks.insert(id, BlockState::Terminated { at: now });
        Ok(())
    }

    fn cores_per_block(&self) -> u32 {
        self.cores
    }

    fn node_role(&self) -> NodeRole {
        NodeRole::Login
    }

    fn next_event(&self) -> Option<SimTime> {
        self.starting.values().min().copied()
    }
}

// ---------------------------------------------------------------------
// SlurmProvider
// ---------------------------------------------------------------------

/// Workers provisioned as pilot jobs through a shared [`BatchScheduler`].
pub struct SlurmProvider {
    scheduler: Arc<Mutex<BatchScheduler>>,
    user: Uid,
    allocation: String,
    partition: String,
    nodes_per_block: u32,
    cores_per_node: u32,
    walltime: SimDuration,
    blocks: BTreeMap<BlockId, JobId>,
    next_id: u64,
}

impl SlurmProvider {
    pub fn new(
        scheduler: Arc<Mutex<BatchScheduler>>,
        user: Uid,
        allocation: &str,
        cores_per_node: u32,
        walltime: SimDuration,
    ) -> Self {
        SlurmProvider {
            scheduler,
            user,
            allocation: allocation.to_string(),
            partition: "compute".to_string(),
            nodes_per_block: 1,
            cores_per_node,
            walltime,
            blocks: BTreeMap::new(),
            next_id: 1,
        }
    }

    pub fn with_partition(mut self, p: &str) -> Self {
        self.partition = p.to_string();
        self
    }

    /// The scheduler job backing a block (for tests/accounting).
    pub fn job_of(&self, id: BlockId) -> Option<JobId> {
        self.blocks.get(&id).copied()
    }
}

impl ExecutionProvider for SlurmProvider {
    fn request_block(&mut self, now: SimTime) -> Result<BlockId, SchedulerError> {
        let spec = JobSpec {
            name: format!("gc-pilot-{}", self.next_id),
            user: self.user,
            allocation: self.allocation.clone(),
            partition: self.partition.clone(),
            nodes: self.nodes_per_block,
            cores_per_node: self.cores_per_node,
            walltime: self.walltime,
            payload: crate::job::JobPayload::Pilot,
        };
        let job = self.scheduler.lock().submit(spec, now)?;
        let id = BlockId(self.next_id);
        self.next_id += 1;
        self.blocks.insert(id, job);
        Ok(id)
    }

    fn block_state(&mut self, id: BlockId, now: SimTime) -> Result<BlockState, SchedulerError> {
        let job = *self.blocks.get(&id).ok_or(SchedulerError::UnknownBlock(id.0))?;
        let mut sched = self.scheduler.lock();
        if sched.now() < now {
            sched.advance_to(now);
        }
        let state = sched.state(job)?;
        Ok(match state {
            JobState::Pending { submitted } => BlockState::Requested { since: submitted },
            JobState::Running { started, .. } => {
                // The scheduler doesn't expose allocations: report the role
                // (Compute) and leave the node to placement-sensitive callers.
                BlockState::Active {
                    since: started,
                    node: None,
                    role: NodeRole::Compute,
                }
            }
            JobState::Completed { ended, .. }
            | JobState::TimedOut { ended, .. }
            | JobState::Cancelled { ended, .. }
            | JobState::Preempted { ended, .. } => BlockState::Terminated { at: ended },
        })
    }

    fn release_block(&mut self, id: BlockId, now: SimTime) -> Result<(), SchedulerError> {
        let job = *self.blocks.get(&id).ok_or(SchedulerError::UnknownBlock(id.0))?;
        let mut sched = self.scheduler.lock();
        match sched.state(job)? {
            JobState::Running { .. } => sched.shutdown_pilot(job, true, now)?,
            JobState::Pending { .. } => sched.cancel(job, now)?,
            _ => {}
        }
        Ok(())
    }

    fn cores_per_block(&self) -> u32 {
        self.nodes_per_block * self.cores_per_node
    }

    fn node_role(&self) -> NodeRole {
        NodeRole::Compute
    }

    fn next_event(&self) -> Option<SimTime> {
        self.scheduler.lock().next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_provider_activates_after_startup() {
        let mut p = LocalProvider::new(NodeId(0), 16).with_startup(SimDuration::from_secs(1));
        let b = p.request_block(SimTime::ZERO).unwrap();
        assert!(matches!(
            p.block_state(b, SimTime::from_millis(500)).unwrap(),
            BlockState::Requested { .. }
        ));
        let st = p.block_state(b, SimTime::from_secs(2)).unwrap();
        assert!(st.is_active());
        if let BlockState::Active { node, role, .. } = st {
            assert_eq!(node, Some(NodeId(0)));
            assert_eq!(role, NodeRole::Login);
        }
        p.release_block(b, SimTime::from_secs(3)).unwrap();
        assert!(matches!(
            p.block_state(b, SimTime::from_secs(3)).unwrap(),
            BlockState::Terminated { .. }
        ));
    }

    #[test]
    fn local_provider_unknown_block() {
        let mut p = LocalProvider::new(NodeId(0), 16);
        assert!(matches!(
            p.block_state(BlockId(99), SimTime::ZERO),
            Err(SchedulerError::UnknownBlock(99))
        ));
    }

    fn shared_scheduler(nodes: u32, cores: u32) -> Arc<Mutex<BatchScheduler>> {
        Arc::new(Mutex::new(BatchScheduler::with_compute_partition(
            (0..nodes).map(NodeId).collect(),
            cores,
        )))
    }

    #[test]
    fn slurm_provider_pilot_lifecycle() {
        let sched = shared_scheduler(2, 8);
        let mut p = SlurmProvider::new(
            sched.clone(),
            Uid(1001),
            "CIS230030",
            8,
            SimDuration::from_mins(30),
        );
        let b = p.request_block(SimTime::ZERO).unwrap();
        // Idle machine: pilot starts immediately.
        let st = p.block_state(b, SimTime::from_secs(1)).unwrap();
        assert!(st.is_active());
        assert_eq!(p.cores_per_block(), 8);
        assert_eq!(p.node_role(), NodeRole::Compute);
        // Release -> scheduler records a successful pilot completion.
        p.release_block(b, SimTime::from_secs(100)).unwrap();
        let job = p.job_of(b).unwrap();
        assert!(matches!(
            sched.lock().state(job).unwrap(),
            JobState::Completed { success: true, .. }
        ));
    }

    #[test]
    fn slurm_provider_blocks_queue_when_machine_full() {
        let sched = shared_scheduler(1, 8);
        let mut p = SlurmProvider::new(
            sched.clone(),
            Uid(1001),
            "a",
            8,
            SimDuration::from_mins(10),
        );
        let b1 = p.request_block(SimTime::ZERO).unwrap();
        let b2 = p.request_block(SimTime::ZERO).unwrap();
        assert!(p.block_state(b1, SimTime::from_secs(1)).unwrap().is_active());
        assert!(matches!(
            p.block_state(b2, SimTime::from_secs(1)).unwrap(),
            BlockState::Requested { .. }
        ));
        // Releasing b1 frees the node; b2 starts.
        p.release_block(b1, SimTime::from_secs(5)).unwrap();
        assert!(p.block_state(b2, SimTime::from_secs(6)).unwrap().is_active());
    }

    #[test]
    fn slurm_provider_block_dies_at_walltime() {
        let sched = shared_scheduler(1, 8);
        let mut p = SlurmProvider::new(sched.clone(), Uid(1001), "a", 8, SimDuration::from_mins(1));
        let b = p.request_block(SimTime::ZERO).unwrap();
        assert!(p.block_state(b, SimTime::from_secs(30)).unwrap().is_active());
        sched.lock().advance_to(SimTime::from_secs(120));
        assert!(matches!(
            p.block_state(b, SimTime::from_secs(120)).unwrap(),
            BlockState::Terminated { .. }
        ));
    }

    #[test]
    fn release_pending_block_cancels_job() {
        let sched = shared_scheduler(1, 8);
        let mut p = SlurmProvider::new(sched.clone(), Uid(1), "a", 8, SimDuration::from_mins(10));
        let b1 = p.request_block(SimTime::ZERO).unwrap();
        let b2 = p.request_block(SimTime::ZERO).unwrap();
        p.release_block(b2, SimTime::from_secs(1)).unwrap();
        let job2 = p.job_of(b2).unwrap();
        assert!(matches!(
            sched.lock().state(job2).unwrap(),
            JobState::Cancelled { .. }
        ));
        let _ = b1;
    }
}
