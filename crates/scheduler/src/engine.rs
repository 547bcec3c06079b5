//! The batch scheduler engine.
//!
//! Event-driven: job-end events live in an internal [`EventQueue`]; a
//! scheduling pass runs after every state change (submission, completion,
//! cancellation). Two policies are provided — plain FIFO and **EASY
//! backfill** (Lifka '95): later jobs may start out of order only if their
//! requested walltime guarantees they finish before the earliest time the
//! queue head could otherwise start (the *shadow time*). The
//! `scheduler_backfill` bench ablates the two.

use crate::accounting::{AccountingLog, AccountingRecord};
use crate::error::SchedulerError;
use crate::job::{JobEvent, JobId, JobPayload, JobSpec, JobState};
use crate::partition::Partition;
use hpcci_cluster::NodeId;
use hpcci_obs::Obs;
use hpcci_sim::{Advance, EventQueue, FaultInjector, SimTime, Sym};
use std::collections::{BTreeMap, VecDeque};

/// Queueing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Strict arrival order; head-of-line blocking.
    Fifo,
    /// FIFO for the head plus conservative EASY backfill behind it.
    EasyBackfill,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    pub policy: SchedulingPolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            policy: SchedulingPolicy::EasyBackfill,
        }
    }
}

#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
}

#[derive(Debug, Clone)]
struct RunningAlloc {
    nodes: Vec<NodeId>,
    cores_per_node: u32,
    /// When the allocation will end if nothing intervenes.
    end_at: SimTime,
    /// Whether hitting `end_at` means success (Fixed) or timeout (walltime).
    ends_as_timeout: bool,
    fixed_success: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineEvent {
    JobEnd(JobId),
}

/// A SLURM-like batch scheduler over one site's compute partition(s).
pub struct BatchScheduler {
    config: SchedulerConfig,
    partitions: BTreeMap<String, Partition>,
    /// Free cores per node.
    free: BTreeMap<NodeId, u32>,
    /// Total cores per node (for invariant checks).
    capacity: BTreeMap<NodeId, u32>,
    queue: VecDeque<JobId>,
    jobs: BTreeMap<JobId, JobRecord>,
    running: BTreeMap<JobId, RunningAlloc>,
    events: EventQueue<EngineEvent>,
    outbox: Vec<JobEvent>,
    accounting: AccountingLog,
    now: SimTime,
    next_id: u64,
    injector: FaultInjector,
    /// The scheduler's name in fault plans (the site name).
    fault_label: String,
    obs: Obs,
    /// Pre-interned per-site queue-wait series (`sched.{site}.queue_wait_us`)
    /// so `start_job` never allocates a metric name.
    obs_site_queue_wait: Sym,
}

impl BatchScheduler {
    pub fn new(config: SchedulerConfig) -> Self {
        BatchScheduler {
            config,
            partitions: BTreeMap::new(),
            free: BTreeMap::new(),
            capacity: BTreeMap::new(),
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            running: BTreeMap::new(),
            events: EventQueue::new(),
            outbox: Vec::new(),
            accounting: AccountingLog::new(),
            now: SimTime::ZERO,
            next_id: 1,
            injector: FaultInjector::none(),
            fault_label: String::new(),
            obs: Obs::disabled(),
            obs_site_queue_wait: Sym::Static(""),
        }
    }

    /// Attach a fault injector; `label` is how drain faults name this
    /// scheduler (the site name at the federation layer).
    pub fn set_fault_injector(&mut self, injector: FaultInjector, label: &str) {
        self.injector = injector;
        self.fault_label = label.to_string();
    }

    /// Attach an observability handle; `label` names this scheduler's
    /// per-site metric series (the site name at the federation layer).
    pub fn set_obs(&mut self, obs: Obs, label: &str) {
        self.obs_site_queue_wait = obs.intern(&format!("sched.{label}.queue_wait_us"));
        self.obs = obs;
    }

    /// Register a partition; its nodes become schedulable.
    pub fn add_partition(&mut self, partition: Partition) {
        for &n in &partition.nodes {
            self.free.insert(n, partition.cores_per_node);
            self.capacity.insert(n, partition.cores_per_node);
        }
        self.partitions.insert(partition.name.clone(), partition);
    }

    /// Convenience: one `"compute"` partition covering `node_ids`.
    pub fn with_compute_partition(node_ids: Vec<NodeId>, cores_per_node: u32) -> Self {
        let mut s = BatchScheduler::new(SchedulerConfig::default());
        s.add_partition(Partition::new("compute", node_ids, cores_per_node));
        s
    }

    /// Submit a job at `now`. Validates admissibility, enqueues, and runs a
    /// scheduling pass (so an idle machine starts the job immediately).
    pub fn submit(&mut self, spec: JobSpec, now: SimTime) -> Result<JobId, SchedulerError> {
        self.catch_up(now);
        let partition = self
            .partitions
            .get(&spec.partition)
            .ok_or_else(|| SchedulerError::UnknownPartition(spec.partition.clone()))?;
        if spec.walltime > partition.max_walltime {
            return Err(SchedulerError::WalltimeExceedsLimit);
        }
        if !partition.admits(spec.nodes, spec.cores_per_node, spec.walltime) {
            return Err(SchedulerError::Unsatisfiable {
                requested_nodes: spec.nodes,
                requested_cores: spec.cores_per_node,
            });
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.insert(
            id,
            JobRecord {
                spec,
                state: JobState::Pending { submitted: now },
            },
        );
        self.queue.push_back(id);
        self.obs.gauge_set("sched.queue_depth", self.queue.len() as u64);
        self.schedule_pass();
        Ok(id)
    }

    /// Cancel a pending or running job (`scancel`).
    pub fn cancel(&mut self, id: JobId, now: SimTime) -> Result<(), SchedulerError> {
        self.catch_up(now);
        let record = self.jobs.get(&id).ok_or(SchedulerError::UnknownJob(id))?;
        match record.state {
            JobState::Pending { submitted } => {
                self.queue.retain(|q| *q != id);
                self.finish(id, JobState::Cancelled { submitted, ended: now });
                Ok(())
            }
            JobState::Running { submitted, .. } => {
                self.release(id);
                self.finish(id, JobState::Cancelled { submitted, ended: now });
                self.schedule_pass();
                Ok(())
            }
            _ => Err(SchedulerError::InvalidState(id)),
        }
    }

    /// Gracefully end a running pilot (`Completed{success}` rather than
    /// `Cancelled`) — the FaaS layer calls this when draining an endpoint.
    pub fn shutdown_pilot(&mut self, id: JobId, success: bool, now: SimTime) -> Result<(), SchedulerError> {
        self.catch_up(now);
        let record = self.jobs.get(&id).ok_or(SchedulerError::UnknownJob(id))?;
        if record.spec.payload != JobPayload::Pilot {
            return Err(SchedulerError::InvalidState(id));
        }
        match record.state {
            JobState::Running { submitted, started } => {
                self.release(id);
                self.finish(
                    id,
                    JobState::Completed { submitted, started, ended: now, success },
                );
                self.schedule_pass();
                Ok(())
            }
            _ => Err(SchedulerError::InvalidState(id)),
        }
    }

    /// Current state of a job (`squeue`/`sacct`).
    pub fn state(&self, id: JobId) -> Result<JobState, SchedulerError> {
        Ok(self.jobs.get(&id).ok_or(SchedulerError::UnknownJob(id))?.state)
    }

    /// Drain lifecycle events for upper layers.
    pub fn take_events(&mut self) -> Vec<JobEvent> {
        std::mem::take(&mut self.outbox)
    }

    pub fn accounting(&self) -> &AccountingLog {
        &self.accounting
    }

    pub fn pending_count(&self) -> usize {
        self.queue.len()
    }

    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Cores currently free across all partitions.
    pub fn free_cores(&self) -> u64 {
        self.free.values().map(|&c| c as u64).sum()
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn catch_up(&mut self, now: SimTime) {
        if now > self.now {
            self.advance_to(now);
        }
    }

    /// Find `nodes` distinct nodes in `partition` with at least
    /// `cores_per_node` free, against an arbitrary free map (used both for
    /// real allocation and shadow-time projection). Deterministic: partition
    /// node order.
    fn find_nodes(
        partition: &Partition,
        free: &BTreeMap<NodeId, u32>,
        nodes: u32,
        cores_per_node: u32,
    ) -> Option<Vec<NodeId>> {
        let mut chosen = Vec::with_capacity(nodes as usize);
        for &n in &partition.nodes {
            if free.get(&n).copied().unwrap_or(0) >= cores_per_node {
                chosen.push(n);
                if chosen.len() == nodes as usize {
                    return Some(chosen);
                }
            }
        }
        None
    }

    fn start_job(&mut self, id: JobId, nodes: Vec<NodeId>, backfill: bool) {
        let record = self.jobs.get_mut(&id).expect("queued job exists");
        let JobState::Pending { submitted } = record.state else {
            panic!("starting a non-pending job");
        };
        let started = self.now;
        record.state = JobState::Running { submitted, started };
        if self.obs.is_enabled() {
            let wait = started.since(submitted);
            self.obs.observe_duration("sched.queue_wait_us", wait);
            self.obs.observe_duration(&self.obs_site_queue_wait, wait);
            if backfill {
                self.obs.observe_duration("sched.backfill_wait_us", wait);
            }
        }
        let spec = &record.spec;
        let (end_at, ends_as_timeout, fixed_success) = match spec.payload {
            JobPayload::Fixed { duration, success } => {
                if duration > spec.walltime {
                    (started + spec.walltime, true, success)
                } else {
                    (started + duration, false, success)
                }
            }
            JobPayload::Pilot => (started + spec.walltime, true, true),
        };
        let cores = spec.cores_per_node;
        for &n in &nodes {
            let f = self.free.get_mut(&n).expect("allocated node tracked");
            debug_assert!(*f >= cores, "over-allocation on {n}");
            *f -= cores;
        }
        self.running.insert(
            id,
            RunningAlloc {
                nodes: nodes.clone(),
                cores_per_node: cores,
                end_at,
                ends_as_timeout,
                fixed_success,
            },
        );
        self.events.push(end_at, EngineEvent::JobEnd(id));
        self.outbox.push(JobEvent::Started { job: id, at: started, nodes });
    }

    fn release(&mut self, id: JobId) {
        if let Some(alloc) = self.running.remove(&id) {
            for n in alloc.nodes {
                let f = self.free.get_mut(&n).expect("released node tracked");
                *f += alloc.cores_per_node;
                debug_assert!(*f <= self.capacity[&n], "core count overflow on {n}");
            }
        }
    }

    fn finish(&mut self, id: JobId, state: JobState) {
        let record = self.jobs.get_mut(&id).expect("finishing known job");
        record.state = state;
        self.outbox.push(JobEvent::Ended { job: id, at: self.now, state });
        let spec = &record.spec;
        self.accounting.append(AccountingRecord {
            job: id,
            name: spec.name.clone(),
            user: spec.user,
            allocation: spec.allocation.clone(),
            partition: spec.partition.clone(),
            nodes: spec.nodes,
            cores_per_node: spec.cores_per_node,
            state,
        });
    }

    /// A node-drain fault: evict every job on one node (the first node of the
    /// lowest-id running job — deterministic). Fixed jobs are requeued as
    /// fresh submissions; pilots end as `Preempted` and their endpoint
    /// re-provisions a new block on demand.
    fn drain_node(&mut self, now: SimTime) {
        let component = format!("sched.{}", self.fault_label);
        let Some(victim_node) = self.running.values().next().map(|a| a.nodes[0]) else {
            self.injector
                .record(now, component, "fault.effect", "node drain: machine idle, no-op");
            return;
        };
        let victims: Vec<JobId> = self
            .running
            .iter()
            .filter(|(_, a)| a.nodes.contains(&victim_node))
            .map(|(id, _)| *id)
            .collect();
        let mut requeued = 0usize;
        for id in &victims {
            let record = self.jobs[id].clone();
            let JobState::Running { submitted, started } = record.state else {
                continue;
            };
            self.release(*id);
            self.finish(*id, JobState::Preempted { submitted, started, ended: now });
            if matches!(record.spec.payload, JobPayload::Fixed { .. })
                && self.submit(record.spec, now).is_ok()
            {
                requeued += 1;
            }
        }
        self.injector.record(
            now,
            component.clone(),
            "fault.effect",
            format!("drained node {victim_node}: preempted {} job(s)", victims.len()),
        );
        if requeued > 0 {
            self.injector.record(
                now,
                component,
                "fault.recover",
                format!("{requeued} preempted fixed job(s) requeued"),
            );
        }
        self.schedule_pass();
    }

    /// Projected earliest start for the queue head, given current running
    /// jobs ending at their `end_at` (EASY shadow time).
    fn shadow_time(&self, head: &JobSpec, partition: &Partition) -> SimTime {
        let mut free = self.free.clone();
        // Running allocations sorted by end time.
        let mut ends: Vec<(&SimTime, &RunningAlloc)> = self
            .running
            .values()
            .map(|a| (&a.end_at, a))
            .collect();
        ends.sort_by_key(|(t, _)| **t);
        for (t, alloc) in ends {
            for &n in &alloc.nodes {
                *free.get_mut(&n).expect("node tracked") += alloc.cores_per_node;
            }
            if Self::find_nodes(partition, &free, head.nodes, head.cores_per_node).is_some() {
                return *t;
            }
        }
        // Admission guarantees the request fits an empty machine, so the last
        // release always suffices; an empty running set means it fits now.
        self.now
    }

    /// One scheduling pass at `self.now`. Specs and partitions are read in
    /// place — the only allocation a pass makes is the candidate id list
    /// (the queue is mutated while backfilling) and the node sets of jobs
    /// that actually start.
    fn schedule_pass(&mut self) {
        // Start queue-head jobs while resources allow.
        while let Some(&head) = self.queue.front() {
            let spec = &self.jobs[&head].spec;
            let partition = &self.partitions[&spec.partition];
            match Self::find_nodes(partition, &self.free, spec.nodes, spec.cores_per_node) {
                Some(nodes) => {
                    self.queue.pop_front();
                    self.start_job(head, nodes, false);
                }
                None => break,
            }
        }
        if self.config.policy == SchedulingPolicy::Fifo || self.queue.len() < 2 {
            return;
        }
        // EASY backfill: the head is blocked; compute its shadow time and let
        // later jobs run iff they are guaranteed to finish before it.
        let head_id = *self.queue.front().expect("non-empty checked");
        let head_spec = &self.jobs[&head_id].spec;
        let head_partition = &self.partitions[&head_spec.partition];
        let shadow = self.shadow_time(head_spec, head_partition);
        let candidates: Vec<JobId> = self.queue.iter().skip(1).copied().collect();
        for id in candidates {
            let spec = &self.jobs[&id].spec;
            if self.now + spec.walltime > shadow {
                continue;
            }
            let partition = &self.partitions[&spec.partition];
            if let Some(nodes) =
                Self::find_nodes(partition, &self.free, spec.nodes, spec.cores_per_node)
            {
                self.queue.retain(|q| *q != id);
                self.start_job(id, nodes, true);
            }
        }
    }
}

impl Advance for BatchScheduler {
    fn next_event(&self) -> Option<SimTime> {
        self.events.next_time()
    }

    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "scheduler time went backwards");
        while let Some((at, EngineEvent::JobEnd(id))) = self.events.pop_due(t) {
            self.now = at;
            // The end event may be stale (job already cancelled/shut down).
            let Some(alloc) = self.running.get(&id) else {
                continue;
            };
            if alloc.end_at != at {
                continue; // superseded
            }
            let (ends_as_timeout, fixed_success) = (alloc.ends_as_timeout, alloc.fixed_success);
            let record = &self.jobs[&id];
            let JobState::Running { submitted, started } = record.state else {
                continue;
            };
            self.release(id);
            let state = if ends_as_timeout {
                JobState::TimedOut { submitted, started, ended: at }
            } else {
                JobState::Completed { submitted, started, ended: at, success: fixed_success }
            };
            self.finish(id, state);
            self.schedule_pass();
        }
        self.now = t;
        if self.injector.drain_due(&self.fault_label, t) {
            self.drain_node(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcci_cluster::Uid;
    use hpcci_sim::SimDuration;

    fn fixed(name: &str, nodes: u32, cores: u32, secs: u64, wall_mins: u64) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            user: Uid(1001),
            allocation: "alloc".to_string(),
            partition: "compute".to_string(),
            nodes,
            cores_per_node: cores,
            walltime: SimDuration::from_mins(wall_mins),
            payload: JobPayload::Fixed {
                duration: SimDuration::from_secs(secs),
                success: true,
            },
        }
    }

    fn scheduler(nodes: u32, cores: u32) -> BatchScheduler {
        BatchScheduler::with_compute_partition((0..nodes).map(NodeId).collect(), cores)
    }

    #[test]
    fn idle_machine_starts_job_immediately() {
        let mut s = scheduler(2, 8);
        let id = s.submit(fixed("a", 1, 8, 60, 10), SimTime::ZERO).unwrap();
        assert!(s.state(id).unwrap().is_running());
        s.advance_to(SimTime::from_secs(60));
        let st = s.state(id).unwrap();
        assert!(matches!(st, JobState::Completed { success: true, .. }));
        assert_eq!(st.runtime(), Some(SimDuration::from_secs(60)));
        assert_eq!(s.free_cores(), 16);
    }

    #[test]
    fn fifo_queues_when_full() {
        let mut s = scheduler(1, 8);
        let a = s.submit(fixed("a", 1, 8, 100, 10), SimTime::ZERO).unwrap();
        let b = s.submit(fixed("b", 1, 8, 50, 10), SimTime::ZERO).unwrap();
        assert!(s.state(a).unwrap().is_running());
        assert!(s.state(b).unwrap().is_pending());
        s.advance_to(SimTime::from_secs(100));
        assert!(s.state(b).unwrap().is_running());
        s.advance_to(SimTime::from_secs(150));
        assert!(s.state(b).unwrap().is_terminal());
        assert_eq!(s.state(b).unwrap().queue_wait(), Some(SimDuration::from_secs(100)));
    }

    #[test]
    fn easy_backfill_lets_short_job_jump_but_not_delay_head() {
        // 2 nodes. A holds node0 for 100s. B (head) needs both nodes, so it
        // blocks until A ends at t=100 (shadow time). C, short enough to
        // finish before the shadow time, may backfill onto node1; D, whose
        // walltime crosses the shadow time, must not.
        let mut s = scheduler(2, 8);
        let _a = s.submit(fixed("a", 1, 8, 100, 10), SimTime::ZERO).unwrap(); // node0, 100s
        let b = s.submit(fixed("b", 2, 8, 10, 10), SimTime::ZERO).unwrap(); // blocked: needs 2 nodes
        let d = s.submit(fixed("d", 1, 8, 200, 10), SimTime::ZERO).unwrap(); // too long to backfill
        let c = s.submit(fixed("c", 1, 8, 20, 1), SimTime::ZERO).unwrap(); // short: backfills
        assert!(s.state(b).unwrap().is_pending(), "head blocked");
        assert!(s.state(d).unwrap().is_pending(), "long job must not backfill");
        assert!(s.state(c).unwrap().is_running(), "short job backfills");
        // When A ends at 100, B starts (c finished at 20).
        s.advance_to(SimTime::from_secs(100));
        assert!(s.state(b).unwrap().is_running());
        assert_eq!(
            s.state(b).unwrap().queue_wait(),
            Some(SimDuration::from_secs(100))
        );
        let _ = d;
    }

    #[test]
    fn fifo_policy_never_backfills() {
        let mut s = BatchScheduler::new(SchedulerConfig {
            policy: SchedulingPolicy::Fifo,
        });
        s.add_partition(Partition::new("compute", (0..2).map(NodeId).collect(), 8));
        let _a = s.submit(fixed("a", 1, 8, 100, 10), SimTime::ZERO).unwrap();
        let b = s.submit(fixed("b", 2, 8, 10, 10), SimTime::ZERO).unwrap();
        let c = s.submit(fixed("c", 1, 8, 20, 1), SimTime::ZERO).unwrap();
        assert!(s.state(b).unwrap().is_pending());
        assert!(s.state(c).unwrap().is_pending(), "FIFO: no backfill");
    }

    #[test]
    fn walltime_timeout() {
        let mut s = scheduler(1, 8);
        // 600s of work, 1-minute walltime -> killed at 60s.
        let id = s.submit(fixed("long", 1, 8, 600, 1), SimTime::ZERO).unwrap();
        s.advance_to(SimTime::from_secs(61));
        assert!(matches!(s.state(id).unwrap(), JobState::TimedOut { .. }));
        assert_eq!(
            s.state(id).unwrap().runtime(),
            Some(SimDuration::from_secs(60))
        );
    }

    #[test]
    fn pilot_runs_until_shutdown() {
        let mut s = scheduler(1, 8);
        let spec = JobSpec::single_node("pilot", Uid(1001), "alloc", 8, SimDuration::from_mins(30));
        let id = s.submit(spec, SimTime::ZERO).unwrap();
        s.advance_to(SimTime::from_secs(300));
        assert!(s.state(id).unwrap().is_running(), "pilot persists");
        s.shutdown_pilot(id, true, SimTime::from_secs(400)).unwrap();
        assert!(matches!(
            s.state(id).unwrap(),
            JobState::Completed { success: true, .. }
        ));
        assert_eq!(s.free_cores(), 8);
    }

    #[test]
    fn pilot_times_out_at_walltime() {
        let mut s = scheduler(1, 8);
        let spec = JobSpec::single_node("pilot", Uid(1001), "alloc", 8, SimDuration::from_mins(1));
        let id = s.submit(spec, SimTime::ZERO).unwrap();
        s.advance_to(SimTime::from_secs(120));
        assert!(matches!(s.state(id).unwrap(), JobState::TimedOut { .. }));
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut s = scheduler(1, 8);
        let a = s.submit(fixed("a", 1, 8, 100, 10), SimTime::ZERO).unwrap();
        let b = s.submit(fixed("b", 1, 8, 100, 10), SimTime::ZERO).unwrap();
        s.cancel(b, SimTime::from_secs(10)).unwrap();
        assert!(matches!(s.state(b).unwrap(), JobState::Cancelled { .. }));
        s.cancel(a, SimTime::from_secs(20)).unwrap();
        assert!(matches!(s.state(a).unwrap(), JobState::Cancelled { .. }));
        assert_eq!(s.free_cores(), 8);
        // double cancel is invalid
        assert!(matches!(
            s.cancel(a, SimTime::from_secs(30)),
            Err(SchedulerError::InvalidState(_))
        ));
    }

    #[test]
    fn submission_validation() {
        let mut s = scheduler(2, 8);
        assert!(matches!(
            s.submit(fixed("wide", 3, 8, 10, 10), SimTime::ZERO),
            Err(SchedulerError::Unsatisfiable { .. })
        ));
        assert!(matches!(
            s.submit(fixed("deep", 1, 9, 10, 10), SimTime::ZERO),
            Err(SchedulerError::Unsatisfiable { .. })
        ));
        let mut too_long = fixed("long", 1, 8, 10, 10);
        too_long.walltime = SimDuration::from_hours(100);
        assert!(matches!(
            s.submit(too_long, SimTime::ZERO),
            Err(SchedulerError::WalltimeExceedsLimit)
        ));
        let mut bad_part = fixed("p", 1, 8, 10, 10);
        bad_part.partition = "gpu".to_string();
        assert!(matches!(
            s.submit(bad_part, SimTime::ZERO),
            Err(SchedulerError::UnknownPartition(_))
        ));
    }

    #[test]
    fn events_are_emitted_in_order() {
        let mut s = scheduler(1, 8);
        let a = s.submit(fixed("a", 1, 8, 30, 10), SimTime::ZERO).unwrap();
        let b = s.submit(fixed("b", 1, 8, 30, 10), SimTime::ZERO).unwrap();
        s.advance_to(SimTime::from_secs(120));
        let events = s.take_events();
        let kinds: Vec<String> = events
            .iter()
            .map(|e| match e {
                JobEvent::Started { job, .. } => format!("start:{job}"),
                JobEvent::Ended { job, .. } => format!("end:{job}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                format!("start:{a}"),
                format!("end:{a}"),
                format!("start:{b}"),
                format!("end:{b}")
            ]
        );
        assert!(s.take_events().is_empty(), "outbox drained");
    }

    #[test]
    fn accounting_records_terminal_jobs() {
        let mut s = scheduler(2, 8);
        let _a = s.submit(fixed("a", 1, 4, 50, 10), SimTime::ZERO).unwrap();
        let b = s.submit(fixed("b", 1, 4, 50, 10), SimTime::ZERO).unwrap();
        s.cancel(b, SimTime::from_secs(5)).unwrap();
        s.advance_to(SimTime::from_secs(60));
        assert_eq!(s.accounting().len(), 2);
        assert_eq!(s.accounting().usage("alloc"), 4.0 * 50.0);
    }

    #[test]
    fn obs_records_queue_wait_depth_and_backfill() {
        let mut s = scheduler(2, 8);
        let obs = Obs::enabled();
        s.set_obs(obs.clone(), "anvil");
        // a starts immediately; b (needs both nodes) waits for a; c backfills.
        let _a = s.submit(fixed("a", 1, 8, 100, 10), SimTime::ZERO).unwrap();
        let b = s.submit(fixed("b", 2, 8, 10, 10), SimTime::ZERO).unwrap();
        let _c = s.submit(fixed("c", 1, 8, 20, 1), SimTime::ZERO).unwrap();
        s.advance_to(SimTime::from_secs(100));
        assert!(s.state(b).unwrap().is_running());
        let snap = obs.snapshot();
        let wait = snap.histogram("sched.queue_wait_us").expect("global series");
        assert_eq!(wait.count, 3, "a, b, and c each started once");
        assert_eq!(wait.max, 100_000_000, "b waited 100s");
        let site = snap
            .histogram("sched.anvil.queue_wait_us")
            .expect("per-site series");
        assert_eq!(site.count, 3);
        let backfill = snap.histogram("sched.backfill_wait_us").expect("backfill series");
        assert_eq!(backfill.count, 1, "only c backfilled");
        let depth = snap.gauge("sched.queue_depth").expect("queue depth gauge");
        assert_eq!(depth.max, 2, "b and c were queued together");
    }

    #[test]
    fn node_sharing_between_small_jobs() {
        let mut s = scheduler(1, 8);
        let a = s.submit(fixed("a", 1, 4, 100, 10), SimTime::ZERO).unwrap();
        let b = s.submit(fixed("b", 1, 4, 100, 10), SimTime::ZERO).unwrap();
        assert!(s.state(a).unwrap().is_running());
        assert!(s.state(b).unwrap().is_running(), "two 4-core jobs share 8 cores");
        assert_eq!(s.free_cores(), 0);
    }
}
