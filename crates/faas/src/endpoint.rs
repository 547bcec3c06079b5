//! Single-user endpoints: the basic unit of remote execution.
//!
//! An endpoint runs in user space under one local account, provisions
//! workers through an execution provider (login-node local or SLURM pilot),
//! pulls queued tasks onto free workers, and reports results. "Endpoints use
//! Parsl to dynamically provision resources, deploy a pilot job model, and
//! manage the execution of tasks on those resources, optionally in a
//! container" (§5.1).

use crate::error::FaasError;
use crate::exec::SharedSite;
use crate::function::FunctionId;
use crate::task::{TaskFailure, TaskId, TaskOutput};
use hpcci_auth::{HighAssurancePolicy, IdentityId};
use hpcci_cluster::{Cred, NodeRole, UserAccount};
use hpcci_obs::Obs;
use hpcci_scheduler::{BlockId, BlockState, ExecutionProvider, LocalProvider, SlurmProvider};
use hpcci_sim::{Advance, DetRng, EventQueue, FaultInjector, SimDuration, SimTime, Sym};
use std::collections::{BTreeSet, VecDeque};

/// The provider variants an endpoint can provision workers through.
pub enum WorkerProvider {
    Local(LocalProvider),
    Slurm(SlurmProvider),
}

impl WorkerProvider {
    fn request_block(&mut self, now: SimTime) -> Result<BlockId, hpcci_scheduler::SchedulerError> {
        match self {
            WorkerProvider::Local(p) => p.request_block(now),
            WorkerProvider::Slurm(p) => p.request_block(now),
        }
    }

    fn block_state(
        &mut self,
        id: BlockId,
        now: SimTime,
    ) -> Result<BlockState, hpcci_scheduler::SchedulerError> {
        match self {
            WorkerProvider::Local(p) => p.block_state(id, now),
            WorkerProvider::Slurm(p) => p.block_state(id, now),
        }
    }

    fn release_block(&mut self, id: BlockId, now: SimTime) {
        let _ = match self {
            WorkerProvider::Local(p) => p.release_block(id, now),
            WorkerProvider::Slurm(p) => p.release_block(id, now),
        };
    }

    pub fn node_role(&self) -> NodeRole {
        match self {
            WorkerProvider::Local(p) => p.node_role(),
            WorkerProvider::Slurm(p) => p.node_role(),
        }
    }

    fn next_event(&self) -> Option<SimTime> {
        match self {
            WorkerProvider::Local(p) => p.next_event(),
            WorkerProvider::Slurm(p) => p.next_event(),
        }
    }
}

/// Static configuration of an endpoint.
pub struct EndpointConfig {
    /// Endpoint name ("endpoint UUID" in the action's inputs).
    pub name: String,
    /// Identity allowed to submit to this (single-user) endpoint.
    pub owner: IdentityId,
    /// Local account the endpoint process runs as.
    pub local_user: String,
    /// Concurrent tasks per active worker block.
    pub workers: u32,
    /// If set, only these registered functions may execute (§5.2's
    /// "restricting the functions that can be executed").
    pub restrict_functions: Option<BTreeSet<FunctionId>>,
    /// Identity requirements enforced at submission.
    pub ha_policy: HighAssurancePolicy,
    /// Container image reference workers run inside, if any (§6.3).
    pub container: Option<String>,
}

impl EndpointConfig {
    pub fn new(name: &str, owner: IdentityId, local_user: &str) -> Self {
        EndpointConfig {
            name: name.to_string(),
            owner,
            local_user: local_user.to_string(),
            workers: 4,
            restrict_functions: None,
            ha_policy: HighAssurancePolicy::permissive(),
            container: None,
        }
    }

    pub fn with_workers(mut self, n: u32) -> Self {
        assert!(n > 0);
        self.workers = n;
        self
    }

    pub fn with_allowlist(mut self, functions: &[FunctionId]) -> Self {
        self.restrict_functions = Some(functions.iter().copied().collect());
        self
    }

    pub fn with_ha_policy(mut self, policy: HighAssurancePolicy) -> Self {
        self.ha_policy = policy;
        self
    }

    pub fn in_container(mut self, image: &str) -> Self {
        self.container = Some(image.to_string());
        self
    }
}

struct QueuedTask {
    id: TaskId,
    /// Interned: the cloud hands us the already-shared `Sym`, so queueing a
    /// task is allocation-free even at million-task rates.
    command: Sym,
}

/// A completion-queue entry: the output rides by handle (boxed once in
/// `pump`), so the heap's sift moves 16 bytes, not 144.
struct Completion {
    id: TaskId,
    output: Box<TaskOutput>,
}

/// A single-user Globus-Compute-style endpoint.
pub struct Endpoint {
    pub config: EndpointConfig,
    site: SharedSite,
    provider: WorkerProvider,
    block: Option<BlockId>,
    queue: VecDeque<QueuedTask>,
    completions: EventQueue<Completion>,
    finished: Vec<(TaskId, Box<TaskOutput>)>,
    busy_workers: u32,
    stopped: bool,
    now: SimTime,
    rng: DetRng,
    /// Both handles come from the container (see [`Self::attach`]); each
    /// is disabled until then.
    injector: FaultInjector,
    obs: Obs,
    /// When the currently outstanding pilot block was requested; taken when
    /// the block first turns active to observe provisioning latency.
    provision_pending: Option<SimTime>,
    /// Cached resolution of `config.local_user` at the site, paired with its
    /// credentials and the interned username every task output shares.
    /// Revalidated (by comparison, not by cloning) on every task start, so
    /// account changes at the site are still observed.
    exec_identity: Option<(UserAccount, Cred, Sym)>,
    /// Cached node identity for the current block: `(block, role, hostname,
    /// speed)`. Node identity is fixed for a block's lifetime, so the pump
    /// resolves it once per block instead of once per pump — and tasks share
    /// the interned hostname instead of cloning a `String` each.
    node_cache: Option<(BlockId, NodeRole, Sym, f64)>,
}

impl Endpoint {
    pub fn new(config: EndpointConfig, site: SharedSite, provider: WorkerProvider, seed: u64) -> Self {
        Endpoint {
            config,
            site,
            provider,
            block: None,
            queue: VecDeque::new(),
            completions: EventQueue::new(),
            finished: Vec::new(),
            busy_workers: 0,
            stopped: false,
            now: SimTime::ZERO,
            rng: DetRng::seed_from_u64(seed),
            injector: FaultInjector::none(),
            obs: Obs::disabled(),
            provision_pending: None,
            exec_identity: None,
            node_cache: None,
        }
    }

    /// Take the container's handles. The endpoint records pilot provisioning
    /// latency, task execution time and pilot re-provisions through `obs`,
    /// and consults `injector` at its event boundaries; neither perturbs
    /// behaviour while disabled or, for the injector, under an empty plan.
    pub(crate) fn attach(&mut self, obs: &Obs, injector: &FaultInjector) {
        self.obs = obs.clone();
        self.injector = injector.clone();
    }

    /// Can this endpoint's next event move without the endpoint itself being
    /// touched? True for pilot-job providers: the batch scheduler is shared
    /// with every other tenant at the site, so another endpoint's job end can
    /// re-time this one.
    pub fn shares_scheduler(&self) -> bool {
        matches!(self.provider, WorkerProvider::Slurm(_))
    }

    /// Is a scheduled crash due for this endpoint at `now`? Consumes the
    /// fault if so (it is one-shot).
    fn crash_due(&self, now: SimTime) -> bool {
        self.injector.crash_due(&self.config.name, now)
    }

    /// Simulate the endpoint worker process crashing: every queued task and
    /// every in-flight completion fails with an infrastructure-marked error,
    /// the worker block is torn down, and the endpoint stays stopped until a
    /// resubmission path routes work elsewhere.
    pub fn force_crash(&mut self, now: SimTime) {
        let component = format!("faas.ep.{}", self.config.name);
        let mut lost = 0usize;
        let ran_as = Sym::from(self.config.local_user.as_str());
        let crashed = |started: SimTime| {
            Box::new(TaskOutput {
                stdout: String::new(),
                stderr: "infrastructure: endpoint worker crashed".to_string(),
                result: Err(TaskFailure::WorkerCrashed),
                ran_as: ran_as.clone(),
                node: Sym::Static("-"),
                started,
                ended: now,
            })
        };
        while let Some((_, c)) = self.completions.pop_due(SimTime::FAR_FUTURE) {
            self.finished.push((c.id, crashed(c.output.started)));
            lost += 1;
        }
        while let Some(task) = self.queue.pop_front() {
            self.finished.push((task.id, crashed(now)));
            lost += 1;
        }
        self.busy_workers = 0;
        if let Some(b) = self.block.take() {
            self.provider.release_block(b, now);
        }
        self.stopped = true;
        self.injector.record(
            now,
            &component,
            "fault.effect",
            format!("endpoint crashed; {lost} task(s) failed as infrastructure"),
        );
    }

    /// One-way latency between this endpoint's site and the cloud service.
    pub fn wan_latency(&self) -> SimDuration {
        let rtt = self.site.lock().site.perf.wan_rtt();
        rtt / 2
    }

    /// Check the allowlist for a registered function.
    pub fn function_allowed(&self, f: FunctionId) -> bool {
        match &self.config.restrict_functions {
            None => true,
            Some(set) => set.contains(&f),
        }
    }

    /// Are ad-hoc shell commands allowed? (Only when no restriction is set.)
    pub fn shell_allowed(&self) -> bool {
        self.config.restrict_functions.is_none()
    }

    /// Accept a task for execution.
    pub fn enqueue(
        &mut self,
        id: TaskId,
        command: impl Into<Sym>,
        now: SimTime,
    ) -> Result<(), FaasError> {
        if self.crash_due(now) {
            self.force_crash(now);
            return Err(FaasError::Infrastructure(format!(
                "endpoint {} worker crashed",
                self.config.name
            )));
        }
        if self.stopped {
            return Err(FaasError::EndpointStopped(self.config.name.clone()));
        }
        self.catch_up(now);
        self.queue.push_back(QueuedTask {
            id,
            command: command.into(),
        });
        if self.block.is_none() {
            // Lazy provisioning: the first task requests the worker block.
            if let Ok(b) = self.provider.request_block(now) {
                self.block = Some(b);
                if self.shares_scheduler() {
                    self.provision_pending = Some(now);
                }
            }
        }
        self.pump();
        Ok(())
    }

    /// Move finished outputs into `out`, keeping this endpoint's `finished`
    /// buffer allocated: the cloud's per-step collection drains every touched
    /// endpoint through a reused scratch vector, so neither side reallocates
    /// on the next round.
    pub fn drain_finished_into(&mut self, out: &mut Vec<(TaskId, Box<TaskOutput>)>) {
        out.append(&mut self.finished);
    }

    /// Gracefully stop: release the worker block; queued tasks are rejected
    /// by the cloud when it notices the endpoint stopped.
    pub fn stop(&mut self, now: SimTime) {
        self.catch_up(now);
        if let Some(b) = self.block.take() {
            self.provider.release_block(b, now);
        }
        self.stopped = true;
    }

    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    fn catch_up(&mut self, now: SimTime) {
        if now > self.now {
            self.advance_to(now);
        }
    }

    /// Start queued tasks on free workers if the block is active.
    fn pump(&mut self) {
        if self.stopped || self.queue.is_empty() {
            return;
        }
        let Some(mut block) = self.block else {
            return;
        };
        let mut reprovisioned = false;
        let (node, role) = loop {
            let state = match self.provider.block_state(block, self.now) {
                Ok(s) => s,
                Err(_) => return,
            };
            match state {
                BlockState::Active { node, role, .. } => {
                    if let Some(requested) = self.provision_pending.take() {
                        self.obs.observe_duration(
                            "faas.pilot_provision_us",
                            self.now.since(requested),
                        );
                    }
                    break (node, role);
                }
                BlockState::Requested { .. } => return,
                BlockState::Terminated { .. } => {
                    // Pilot died (walltime or preemption); provision a fresh
                    // block for the remaining queue and re-read it — an idle
                    // machine starts the replacement immediately, and waiting
                    // for the next event would deadlock into the new pilot's
                    // own expiry.
                    if reprovisioned {
                        return;
                    }
                    reprovisioned = true;
                    match self.provider.request_block(self.now) {
                        Ok(b) => {
                            self.obs.inc("faas.pilot_reprovisions");
                            if self.shares_scheduler() {
                                self.provision_pending = Some(self.now);
                            }
                            self.block = Some(b);
                            block = b;
                        }
                        Err(_) => {
                            self.block = None;
                            return;
                        }
                    }
                }
            }
        };
        if self.busy_workers >= self.config.workers {
            return;
        }
        // Node identity and speed are fixed for the lifetime of the block;
        // resolve them once per block (interned) rather than once per pump.
        let (node_hostname, node_speed) = match &self.node_cache {
            Some((b, r, sym, speed)) if *b == block && *r == role => (sym.clone(), *speed),
            _ => {
                let runtime = self.site.lock();
                let (hostname, speed) = match role {
                    NodeRole::Login => (
                        runtime
                            .site
                            .login_node()
                            .map(|n| n.hostname.clone())
                            .unwrap_or_else(|| "login".to_string()),
                        runtime.site.login_node().map(|n| n.cpu_speed).unwrap_or(1.0),
                    ),
                    NodeRole::Compute => (
                        node.and_then(|id| runtime.site.node(id).ok().map(|n| n.hostname.clone()))
                            .unwrap_or_else(|| format!("{}-compute", runtime.site.id)),
                        1.0,
                    ),
                };
                let sym = Sym::from(hostname.as_str());
                self.node_cache = Some((block, role, sym.clone(), speed));
                (sym, speed)
            }
        };
        while self.busy_workers < self.config.workers {
            let Some(task) = self.queue.pop_front() else {
                break;
            };
            let started = self.now;
            let mut runtime = self.site.lock();
            match runtime.site.account(&self.config.local_user) {
                Ok(a) => {
                    // Revalidate the cached identity against the live site
                    // account; only a changed account pays the clone.
                    if self.exec_identity.as_ref().map(|(acc, _, _)| acc) != Some(a) {
                        let ran_as = Sym::from(a.username.as_str());
                        self.exec_identity = Some((a.clone(), Cred::of(a), ran_as));
                    }
                }
                Err(e) => {
                    // Misconfigured endpoint: every task fails.
                    drop(runtime);
                    let output = Box::new(TaskOutput {
                        stdout: String::new(),
                        stderr: e.to_string(),
                        result: Err(TaskFailure::Command(e.to_string())),
                        ran_as: Sym::from(self.config.local_user.as_str()),
                        node: Sym::Static("unknown"),
                        started,
                        ended: started,
                    });
                    self.finished.push((task.id, output));
                    continue;
                }
            }
            let (account, cred, ran_as) = self.exec_identity.as_ref().expect("validated above");
            let outcome = runtime.execute(
                &task.command,
                account,
                cred,
                role,
                &node_hostname,
                started,
                &mut self.rng,
                self.config.container.as_deref(),
            );
            let duration = runtime
                .site
                .perf
                .compute_time(outcome.work, node_speed, &mut self.rng);
            drop(runtime);
            let ended = started + duration;
            let output = Box::new(TaskOutput {
                stdout: outcome.stdout,
                stderr: outcome.stderr,
                result: outcome.result.map_err(TaskFailure::Command),
                ran_as: ran_as.clone(),
                node: node_hostname.clone(),
                started,
                ended,
            });
            self.busy_workers += 1;
            self.completions.push(ended, Completion { id: task.id, output });
        }
    }
}

impl Advance for Endpoint {
    fn next_event(&self) -> Option<SimTime> {
        let mut next = self.completions.next_time();
        if !self.queue.is_empty() {
            if let Some(p) = self.provider.next_event() {
                next = Some(next.map_or(p, |n| n.min(p)));
            }
        }
        next
    }

    fn advance_to(&mut self, t: SimTime) {
        if self.crash_due(t) {
            self.force_crash(t);
        }
        while let Some((at, completion)) = self.completions.pop_due(t) {
            self.now = at;
            self.busy_workers = self.busy_workers.saturating_sub(1);
            self.obs
                .observe_duration("faas.task_exec_us", completion.output.runtime());
            self.finished.push((completion.id, completion.output));
            self.pump();
        }
        self.now = t;
        self.pump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{shared, ExecOutcome, SiteRuntime};
    use hpcci_cluster::Site;
    use hpcci_sim::drive;

    fn login_endpoint(workers: u32) -> Endpoint {
        let mut rt = SiteRuntime::new(Site::chameleon_tacc());
        rt.site.add_account("cc", "chameleon");
        rt.commands.register("sleepy", |env| {
            // 10 reference-seconds of simulated work.
            ExecOutcome::ok(format!("done on {}", env.node), 10.0)
        });
        rt.commands.register("boom", |_| ExecOutcome::fail("kaboom", 0.5));
        let site = shared(rt);
        let login = site.lock().site.login_node().unwrap().id;
        let provider = WorkerProvider::Local(
            LocalProvider::new(login, 16).with_startup(SimDuration::from_millis(100)),
        );
        Endpoint::new(
            EndpointConfig::new("ep-cham", IdentityId(1), "cc").with_workers(workers),
            site,
            provider,
            42,
        )
    }

    #[test]
    fn task_executes_and_finishes() {
        let mut ep = login_endpoint(4);
        ep.enqueue(TaskId(1), "sleepy", SimTime::ZERO).unwrap();
        drive(&mut ep);
        let mut finished = Vec::new();
        ep.drain_finished_into(&mut finished);
        assert_eq!(finished.len(), 1);
        let (id, out) = &finished[0];
        assert_eq!(*id, TaskId(1));
        assert!(out.success());
        assert!(out.stdout.contains("chi-tacc-icelake"));
        assert_eq!(out.ran_as, "cc");
        // ~10s of work at chameleon speed (1.3 * 1.3 node) plus overhead.
        assert!(out.runtime() > SimDuration::from_secs(4));
        assert!(out.runtime() < SimDuration::from_secs(11));
    }

    #[test]
    fn failure_propagates_stderr() {
        let mut ep = login_endpoint(1);
        ep.enqueue(TaskId(7), "boom now", SimTime::ZERO).unwrap();
        drive(&mut ep);
        let mut finished = Vec::new();
        ep.drain_finished_into(&mut finished);
        assert_eq!(finished.len(), 1);
        assert!(!finished[0].1.success());
        assert_eq!(finished[0].1.stderr, "kaboom");
    }

    #[test]
    fn worker_limit_serializes_tasks() {
        let mut ep = login_endpoint(1);
        ep.enqueue(TaskId(1), "sleepy", SimTime::ZERO).unwrap();
        ep.enqueue(TaskId(2), "sleepy", SimTime::ZERO).unwrap();
        drive(&mut ep);
        let mut finished = Vec::new();
        ep.drain_finished_into(&mut finished);
        assert_eq!(finished.len(), 2);
        let (a, b) = (&finished[0].1, &finished[1].1);
        assert!(b.started >= a.ended, "1 worker: second task waits");

        // With 2 workers the same pair overlaps.
        let mut ep2 = login_endpoint(2);
        ep2.enqueue(TaskId(1), "sleepy", SimTime::ZERO).unwrap();
        ep2.enqueue(TaskId(2), "sleepy", SimTime::ZERO).unwrap();
        drive(&mut ep2);
        let mut f2 = Vec::new();
        ep2.drain_finished_into(&mut f2);
        assert!(f2[1].1.started < f2[0].1.ended, "2 workers: tasks overlap");
    }

    #[test]
    fn crash_fails_running_and_queued_tasks_as_infrastructure() {
        // One worker: task 1 is an in-flight (boxed) completion, task 2 waits.
        let mut ep = login_endpoint(1);
        ep.enqueue(TaskId(1), "sleepy", SimTime::ZERO).unwrap();
        ep.enqueue(TaskId(2), "sleepy", SimTime::ZERO).unwrap();
        // The worker block is up by t=1s: this advance starts task 1 there.
        let start = SimTime::from_secs(1);
        ep.advance_to(start);
        assert_eq!((ep.busy_workers, ep.queued_len()), (1, 1));
        let crash = SimTime::from_secs(2);
        ep.force_crash(crash);
        assert!(ep.is_stopped());
        assert_eq!(ep.next_event(), None, "nothing left in flight");
        let mut finished = Vec::new();
        ep.drain_finished_into(&mut finished);
        assert_eq!(
            finished.iter().map(|(id, _)| id.0).collect::<Vec<_>>(),
            [1, 2]
        );
        for (_, out) in &finished {
            assert_eq!(out.result, Err(TaskFailure::WorkerCrashed));
            assert_eq!(out.stderr, "infrastructure: endpoint worker crashed");
            assert_eq!(
                (out.ran_as.as_str(), out.node.as_str(), out.ended),
                ("cc", "-", crash)
            );
        }
        // The running task keeps the instant it actually started; the queued
        // one never started before the crash.
        assert_eq!(finished[0].1.started, start);
        assert_eq!(finished[1].1.started, crash);
    }

    #[test]
    fn completion_entries_stay_handle_sized() {
        // A by-value `TaskOutput` (136 B) here is copied on every sift of
        // the completion queue's heap.
        assert!(std::mem::size_of::<Completion>() <= 56);
    }

    #[test]
    fn stopped_endpoint_rejects() {
        let mut ep = login_endpoint(1);
        ep.stop(SimTime::ZERO);
        assert!(matches!(
            ep.enqueue(TaskId(1), "sleepy", SimTime::ZERO),
            Err(FaasError::EndpointStopped(_))
        ));
    }

    #[test]
    fn allowlist_checks() {
        let site = {
            let mut rt = SiteRuntime::new(Site::workstation("lab"));
            rt.site.add_account("u", "p");
            shared(rt)
        };
        let login = site.lock().site.login_node().unwrap().id;
        let ep = Endpoint::new(
            EndpointConfig::new("ep", IdentityId(1), "u").with_allowlist(&[FunctionId(5)]),
            site,
            WorkerProvider::Local(LocalProvider::new(login, 4)),
            1,
        );
        assert!(ep.function_allowed(FunctionId(5)));
        assert!(!ep.function_allowed(FunctionId(6)));
        assert!(!ep.shell_allowed());
    }

    #[test]
    fn slurm_provider_endpoint_runs_on_compute() {
        let mut rt = SiteRuntime::new(Site::tamu_faster()).with_scheduler(64);
        rt.site.add_account("x-u", "CIS230030");
        rt.commands.register("job", |env| {
            ExecOutcome::ok(format!("role={:?}", env.role), 5.0)
        });
        let sched = rt.scheduler.as_ref().unwrap().clone();
        let account = rt.site.account("x-u").unwrap().clone();
        let site = shared(rt);
        let provider = WorkerProvider::Slurm(SlurmProvider::new(
            sched,
            account.uid,
            &account.allocation,
            64,
            SimDuration::from_hours(1),
        ));
        let mut ep = Endpoint::new(
            EndpointConfig::new("ep-faster", IdentityId(1), "x-u").with_workers(8),
            site,
            provider,
            3,
        );
        ep.enqueue(TaskId(1), "job", SimTime::ZERO).unwrap();
        drive(&mut ep);
        let mut finished = Vec::new();
        ep.drain_finished_into(&mut finished);
        assert_eq!(finished.len(), 1);
        assert!(finished[0].1.stdout.contains("Compute"));
        assert!(finished[0].1.node.contains("tamu-faster"));
    }
}
