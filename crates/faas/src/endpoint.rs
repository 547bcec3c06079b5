//! Single-user endpoints: the basic unit of remote execution.
//!
//! An endpoint runs in user space under one local account, provisions one
//! worker block at a time through its [`TaskProvider`] (login-node workers
//! or a SLURM pilot job), pulls queued tasks onto free workers, and reports
//! results. "Endpoints use Parsl to dynamically provision resources, deploy
//! a pilot job model, and manage the execution of tasks on those resources,
//! optionally in a container" (§5.1).
//!
//! The provider distinction matters for two paper points: network policy
//! (login nodes have outbound internet, compute nodes may not) and overhead
//! (§7.3 — a pilot amortizes one queue wait over many tasks).

use crate::error::FaasError;
use crate::exec::SiteRuntime;
use crate::function::FunctionId;
use crate::task::{OutputBody, TaskFailure, TaskId, TaskOutput};
use hpcci_auth::{HighAssurancePolicy, IdentityId};
use hpcci_cluster::{Cred, NodeRole, UserAccount};
use hpcci_obs::Obs;
use hpcci_scheduler::{BatchScheduler, JobId, JobSpec, JobState};
use hpcci_sim::{Advance, DetRng, EventQueue, FaultInjector, SimDuration, SimTime, Sym};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// How an endpoint provisions its workers: the one provider choice, made by
/// whoever builds the endpoint (a federation registration or a MEP template)
/// and resolved against the site in [`Endpoint::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskProvider {
    /// Worker processes on the site's login node (Anvil/PSI-J style, §6.2).
    Local,
    /// SLURM pilot jobs on compute nodes (§6.1): workers live as long as the
    /// pilot's allocation.
    Slurm { cores: u32, walltime_secs: u64 },
}

/// Login-node workers come up this long after their block is requested.
const LOCAL_STARTUP: SimDuration = SimDuration::from_millis(500);

/// The live side of an endpoint's [`TaskProvider`]: where its one worker
/// block comes from, and that block.
enum Workers {
    /// Login-node workers; `up_at` is when the held block comes up.
    Local { up_at: Option<SimTime> },
    /// Pilot jobs through the batch scheduler every endpoint at the site
    /// shares, lent for each call: each request submits `pilot` as
    /// `gc-pilot-<n>`, and `job` is the held one.
    Pilot {
        pilot: JobSpec,
        pilots: u64,
        job: Option<JobId>,
    },
}

/// A held worker block, as the pump sees it.
enum Block {
    Pending,
    Up,
    /// The pilot ended (walltime or preemption).
    Ended,
}

impl Workers {
    fn held(&self) -> bool {
        match self {
            Workers::Local { up_at } => up_at.is_some(),
            Workers::Pilot { job, .. } => job.is_some(),
        }
    }

    /// Request a fresh block in place of the held one; false (and no block
    /// held) if the scheduler refuses the pilot.
    fn request(&mut self, scheduler: Option<&mut BatchScheduler>, now: SimTime) -> bool {
        match self {
            Workers::Local { up_at } => *up_at = Some(now + LOCAL_STARTUP),
            Workers::Pilot { pilot, pilots, job } => {
                let spec = JobSpec {
                    name: format!("gc-pilot-{}", *pilots + 1),
                    ..pilot.clone()
                };
                *job = scheduler.and_then(|s| s.submit(spec, now).ok());
                *pilots += job.is_some() as u64;
            }
        }
        self.held()
    }

    /// The held block's state at `now`, `None` if none is held.
    fn block(&mut self, scheduler: Option<&mut BatchScheduler>, now: SimTime) -> Option<Block> {
        match self {
            Workers::Local { up_at } => {
                up_at.map(|t| if t <= now { Block::Up } else { Block::Pending })
            }
            Workers::Pilot { job, .. } => {
                let (job, sched) = ((*job)?, scheduler?);
                if sched.now() < now {
                    sched.advance_to(now);
                }
                Some(match sched.state(job).ok()? {
                    JobState::Pending { .. } => Block::Pending,
                    JobState::Running { .. } => Block::Up,
                    _ => Block::Ended,
                })
            }
        }
    }

    /// Give the held block back: drain a running pilot, cancel a queued one.
    fn release(&mut self, scheduler: Option<&mut BatchScheduler>, now: SimTime) {
        match self {
            Workers::Local { up_at } => *up_at = None,
            Workers::Pilot { job, .. } => {
                let (Some(job), Some(sched)) = (job.take(), scheduler) else { return };
                let _ = match sched.state(job) {
                    Ok(JobState::Running { .. }) => sched.shutdown_pilot(job, true, now),
                    Ok(JobState::Pending { .. }) => sched.cancel(job, now),
                    _ => Ok(()),
                };
            }
        }
    }

    /// When the block changes state on its own, seen from `now`: a starting
    /// login block comes up; the site's scheduler, asked through
    /// `scheduler_next`, moves every pilot.
    fn next_event(&self, now: SimTime, scheduler_next: impl FnOnce() -> Option<SimTime>) -> Option<SimTime> {
        match self {
            Workers::Local { up_at } => up_at.filter(|&t| t > now),
            Workers::Pilot { .. } => scheduler_next(),
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

/// A completion-queue entry: the output's body rides by handle, so the
/// heap's sift moves 32 bytes.
struct Completion {
    id: TaskId,
    output: TaskOutput,
}

/// A single-user Globus-Compute-style endpoint. It holds no site: whoever
/// moves it (the cloud) lends it its site for the call.
pub struct Endpoint {
    pub config: EndpointConfig,
    workers: Workers,
    queue: VecDeque<QueuedTask>,
    completions: EventQueue<Completion>,
    finished: Vec<(TaskId, TaskOutput)>,
    /// The body of the last output `pump` built. The next outcome reuses it
    /// when it says the same — the same text and name handles and an equal
    /// verdict — so a run of equal outcomes shares one allocation.
    last_body: Option<Arc<OutputBody>>,
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
    /// Where every block of this provider runs: the node role (network
    /// zone), the interned hostname tasks report, and the node's speed.
    node: (NodeRole, Sym, f64),
}

impl Endpoint {
    /// Build an endpoint whose workers come from `provider` at `site`. Fails
    /// if the site lacks what the provider needs: a login node, or for
    /// pilots a batch scheduler that can ever start the pilot and an account
    /// for `config.local_user`.
    pub fn new(
        config: EndpointConfig,
        site: &mut SiteRuntime,
        provider: TaskProvider,
        seed: u64,
    ) -> Result<Self, FaasError> {
        let (workers, node) = match provider {
            TaskProvider::Local => {
                let login = site.site.login_node().ok_or_else(|| {
                    FaasError::UnknownEndpoint(format!("{}: no login node at site", config.name))
                })?;
                let node = (
                    NodeRole::Login,
                    Sym::from(login.hostname.as_str()),
                    login.cpu_speed,
                );
                (Workers::Local { up_at: None }, node)
            }
            TaskProvider::Slurm {
                cores,
                walltime_secs,
            } => {
                let pilot = site.site.account(&config.local_user).map(|account| {
                    let walltime = SimDuration::from_secs(walltime_secs);
                    JobSpec::single_node("", account.uid, &account.allocation, cores, walltime)
                });
                // The scheduler keeps a pilot's placement to itself.
                let host = Sym::from(format!("{}-compute", site.site.id));
                let scheduler = site
                    .scheduler_mut()
                    .ok_or_else(|| FaasError::NoScheduler(config.name.clone()))?;
                let pilot =
                    pilot.map_err(|_| FaasError::NoLocalAccount(config.local_user.clone()))?;
                scheduler.admit(&pilot).map_err(|reason| FaasError::PilotRefused {
                    endpoint: config.name.clone(),
                    reason,
                })?;
                let workers = Workers::Pilot {
                    pilot,
                    pilots: 0,
                    job: None,
                };
                (workers, (NodeRole::Compute, host, 1.0))
            }
        };
        Ok(Endpoint {
            config,
            workers,
            queue: VecDeque::new(),
            completions: EventQueue::new(),
            finished: Vec::new(),
            last_body: None,
            busy_workers: 0,
            stopped: false,
            now: SimTime::ZERO,
            rng: DetRng::seed_from_u64(seed),
            injector: FaultInjector::none(),
            obs: Obs::disabled(),
            provision_pending: None,
            exec_identity: None,
            node,
        })
    }

    /// Take the container's handles. The endpoint records pilot provisioning
    /// latency, task execution time and pilot re-provisions through `obs`,
    /// and consults `injector` at its event boundaries; neither perturbs
    /// behaviour while disabled or, for the injector, under an empty plan.
    pub(crate) fn attach(&mut self, obs: &Obs, injector: &FaultInjector) {
        self.obs = obs.clone();
        self.injector = injector.clone();
    }

    /// Request a fresh worker block at `now`; a pilot's provisioning latency
    /// is observed when it comes up.
    fn request_block(&mut self, site: &mut SiteRuntime, now: SimTime) -> bool {
        let held = self.workers.request(site.scheduler_mut(), now);
        if held && matches!(self.workers, Workers::Pilot { .. }) {
            self.provision_pending = Some(now);
        }
        held
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
    pub fn force_crash(&mut self, site: &mut SiteRuntime, now: SimTime) {
        const CRASHED: &str = "infrastructure: endpoint worker crashed";
        let component = format!("faas.ep.{}", self.config.name);
        let lost = self.completions.len() + self.queue.len();
        while let Some((_, c)) = self.completions.pop_due(SimTime::FAR_FUTURE) {
            let output = self.infra_failure(CRASHED, c.output.started, now);
            self.finished.push((c.id, output));
        }
        self.give_back_queue(CRASHED, now);
        self.busy_workers = 0;
        self.workers.release(site.scheduler_mut(), now);
        self.stopped = true;
        self.injector.record(
            now,
            &component,
            "fault.effect",
            format!("endpoint crashed; {lost} task(s) failed as infrastructure"),
        );
    }

    /// The output of a task this endpoint gives up on at `now`: failed as
    /// infrastructure, with `stderr` saying why.
    fn infra_failure(&self, stderr: &'static str, started: SimTime, now: SimTime) -> TaskOutput {
        let body = OutputBody {
            stdout: Sym::Static(""),
            stderr: Sym::Static(stderr),
            result: Err(TaskFailure::WorkerCrashed),
            ran_as: Sym::from(self.config.local_user.as_str()),
            node: Sym::Static("-"),
        };
        TaskOutput {
            body: Arc::new(body),
            started,
            ended: now,
        }
    }

    /// Hand every queued task back at `now`, failed as infrastructure.
    fn give_back_queue(&mut self, stderr: &'static str, now: SimTime) {
        while let Some(task) = self.queue.pop_front() {
            let output = self.infra_failure(stderr, now, now);
            self.finished.push((task.id, output));
        }
    }

    /// Accept a task for execution at `site`.
    pub fn enqueue(
        &mut self,
        site: &mut SiteRuntime,
        id: TaskId,
        command: impl Into<Sym>,
        now: SimTime,
    ) -> Result<(), FaasError> {
        if self.crash_due(now) {
            self.force_crash(site, now);
            return Err(FaasError::Infrastructure(format!(
                "endpoint {} worker crashed",
                self.config.name
            )));
        }
        if self.stopped {
            return Err(FaasError::EndpointStopped(self.config.name.clone()));
        }
        self.catch_up(site, now);
        self.queue.push_back(QueuedTask {
            id,
            command: command.into(),
        });
        if !self.workers.held() {
            // Lazy provisioning: the first task requests the worker block.
            self.request_block(site, now);
        }
        self.pump(site);
        Ok(())
    }

    /// Move finished outputs into `out`, keeping this endpoint's `finished`
    /// buffer allocated: the cloud's per-step collection drains every touched
    /// endpoint through a reused scratch vector, so neither side reallocates
    /// on the next round.
    pub fn drain_finished_into(&mut self, out: &mut Vec<(TaskId, TaskOutput)>) {
        out.append(&mut self.finished);
    }

    fn catch_up(&mut self, site: &mut SiteRuntime, now: SimTime) {
        if now > self.now {
            self.advance_to(site, now);
        }
    }

    /// Start queued tasks on free workers if the block is active.
    fn pump(&mut self, site: &mut SiteRuntime) {
        if self.stopped || self.queue.is_empty() {
            return;
        }
        let mut block = self.workers.block(site.scheduler_mut(), self.now);
        if matches!(block, Some(Block::Ended)) {
            // Pilot died (walltime or preemption); provision a fresh block for
            // the remaining queue and re-read it — an idle machine starts the
            // replacement immediately, and waiting for the next event would
            // deadlock into the new pilot's own expiry.
            if !self.request_block(site, self.now) {
                return;
            }
            self.obs.inc("faas.pilot_reprovisions");
            block = self.workers.block(site.scheduler_mut(), self.now);
        }
        if !matches!(block, Some(Block::Up)) {
            return;
        }
        if let Some(requested) = self.provision_pending.take() {
            self.obs
                .observe_duration("faas.pilot_provision_us", self.now.since(requested));
        }
        if self.busy_workers >= self.config.workers {
            return;
        }
        let (role, node_hostname, node_speed) = &self.node;
        while self.busy_workers < self.config.workers {
            let Some(task) = self.queue.pop_front() else {
                break;
            };
            let started = self.now;
            match site.site.account(&self.config.local_user) {
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
                    let body = OutputBody {
                        stdout: Sym::Static(""),
                        stderr: Sym::from(e.to_string()),
                        result: Err(TaskFailure::Command(e.to_string())),
                        ran_as: Sym::from(self.config.local_user.as_str()),
                        node: Sym::Static("unknown"),
                    };
                    let output = TaskOutput {
                        body: Arc::new(body),
                        started,
                        ended: started,
                    };
                    self.finished.push((task.id, output));
                    continue;
                }
            }
            let (account, cred, ran_as) = self.exec_identity.as_ref().expect("validated above");
            let outcome = site.execute(
                &task.command,
                account,
                cred,
                *role,
                node_hostname,
                started,
                &mut self.rng,
                self.config.container.as_deref(),
            );
            let duration = site
                .site
                .perf
                .compute_time(outcome.work, *node_speed, &mut self.rng);
            let result = outcome.result.map_err(TaskFailure::Command);
            let same = self.last_body.as_ref().filter(|last| {
                last.stdout.is(&outcome.stdout)
                    && last.stderr.is(&outcome.stderr)
                    && last.ran_as.is(ran_as)
                    && last.node.is(node_hostname)
                    && last.result == result
            });
            let body = match same {
                Some(last) => last.clone(),
                None => {
                    let body = Arc::new(OutputBody {
                        stdout: outcome.stdout,
                        stderr: outcome.stderr,
                        result,
                        ran_as: ran_as.clone(),
                        node: node_hostname.clone(),
                    });
                    self.last_body.insert(body).clone()
                }
            };
            let ended = started + duration;
            let output = TaskOutput { body, started, ended };
            self.busy_workers += 1;
            self.completions.push(ended, Completion { id: task.id, output });
        }
    }

    /// When this endpoint next changes state on its own. `scheduler_next`
    /// answers when its site's batch scheduler next moves a job; it is asked
    /// only while a queued task waits on a pilot, so probing any other
    /// endpoint reaches no site.
    pub fn next_event(&self, scheduler_next: impl FnOnce() -> Option<SimTime>) -> Option<SimTime> {
        let mut next = self.completions.next_time();
        if !self.queue.is_empty() {
            if let Some(p) = self.workers.next_event(self.now, scheduler_next) {
                next = Some(next.map_or(p, |n| n.min(p)));
            }
        }
        next
    }

    /// Move this endpoint at `site` to `t`: finish every task due by then and
    /// start queued ones on the workers they free.
    pub fn advance_to(&mut self, site: &mut SiteRuntime, t: SimTime) {
        if self.crash_due(t) {
            self.force_crash(site, t);
        }
        while let Some((at, completion)) = self.completions.pop_due(t) {
            self.now = at;
            self.busy_workers = self.busy_workers.saturating_sub(1);
            self.obs
                .observe_duration("faas.task_exec_us", completion.output.runtime());
            self.finished.push((completion.id, completion.output));
            self.pump(site);
        }
        self.now = t;
        self.pump(site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{shared, ExecOutcome, SharedSite};
    use hpcci_cluster::Site;
    use hpcci_scheduler::SchedulerError;
    use hpcci_sim::drive;

    /// An endpoint paired with its site, which each call lends it as the
    /// cloud does, so `drive` can move it.
    struct OnSite {
        ep: Endpoint,
        site: SharedSite,
    }

    impl Advance for OnSite {
        fn next_event(&self) -> Option<SimTime> {
            self.ep.next_event(|| self.site.lock().scheduler_mut()?.next_event())
        }

        fn advance_to(&mut self, t: SimTime) {
            self.ep.advance_to(&mut self.site.lock(), t)
        }
    }

    impl OnSite {
        fn new(config: EndpointConfig, site: &SharedSite, provider: TaskProvider, seed: u64) -> Self {
            let ep = Endpoint::new(config, &mut site.lock(), provider, seed).unwrap();
            OnSite { ep, site: site.clone() }
        }

        fn enqueue(&mut self, id: TaskId, command: &str, now: SimTime) -> Result<(), FaasError> {
            self.ep.enqueue(&mut self.site.lock(), id, command, now)
        }

        fn crash(&mut self, now: SimTime) {
            self.ep.force_crash(&mut self.site.lock(), now)
        }

        fn finished(&mut self) -> Vec<(TaskId, TaskOutput)> {
            let mut finished = Vec::new();
            self.ep.drain_finished_into(&mut finished);
            finished
        }

        /// The held pilot's job and its scheduler state.
        fn pilot_job(&self) -> (JobId, JobState) {
            let Workers::Pilot { job: Some(job), .. } = &self.ep.workers else {
                panic!("{} holds no pilot", self.ep.config.name);
            };
            (*job, job_state(&self.site, *job))
        }
    }

    fn job_state(site: &SharedSite, job: JobId) -> JobState {
        site.lock().scheduler_mut().unwrap().state(job).unwrap()
    }

    fn login_endpoint(workers: u32) -> OnSite {
        let mut rt = SiteRuntime::new(Site::chameleon_tacc());
        rt.site.add_account("cc", "chameleon");
        rt.commands.register("sleepy", |env| {
            // 10 reference-seconds of simulated work.
            ExecOutcome::ok(format!("done on {}", env.node), 10.0)
        });
        rt.commands.register("boom", |_| ExecOutcome::fail("kaboom", 0.5));
        OnSite::new(
            EndpointConfig::new("ep-cham", IdentityId(1), "cc").with_workers(workers),
            &shared(rt),
            TaskProvider::Local,
            42,
        )
    }

    #[test]
    fn task_executes_and_finishes() {
        let mut ep = login_endpoint(4);
        ep.enqueue(TaskId(1), "sleepy", SimTime::ZERO).unwrap();
        drive(&mut ep);
        let finished = ep.finished();
        assert_eq!(finished.len(), 1);
        let (id, out) = &finished[0];
        assert_eq!(*id, TaskId(1));
        assert!(out.success());
        assert_eq!(
            out.started,
            SimTime::ZERO + LOCAL_STARTUP,
            "starts when the block is up"
        );
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
        let finished = ep.finished();
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
        let finished = ep.finished();
        assert_eq!(finished.len(), 2);
        let (a, b) = (&finished[0].1, &finished[1].1);
        assert!(b.started >= a.ended, "1 worker: second task waits");

        // With 2 workers the same pair overlaps.
        let mut ep2 = login_endpoint(2);
        ep2.enqueue(TaskId(1), "sleepy", SimTime::ZERO).unwrap();
        ep2.enqueue(TaskId(2), "sleepy", SimTime::ZERO).unwrap();
        drive(&mut ep2);
        let f2 = ep2.finished();
        assert!(f2[1].1.started < f2[0].1.ended, "2 workers: tasks overlap");
    }

    #[test]
    fn crash_fails_running_and_queued_tasks_as_infrastructure() {
        // One worker: task 1 is an in-flight completion, task 2 waits.
        let mut ep = login_endpoint(1);
        ep.enqueue(TaskId(1), "sleepy", SimTime::ZERO).unwrap();
        ep.enqueue(TaskId(2), "sleepy", SimTime::ZERO).unwrap();
        // The worker block is up by t=1s: this advance starts task 1 there.
        let start = SimTime::from_secs(1);
        ep.advance_to(start);
        assert_eq!((ep.ep.busy_workers, ep.ep.queue.len()), (1, 1));
        let crash = SimTime::from_secs(2);
        ep.ep.force_crash(&mut ep.site.lock(), crash);
        assert!(ep.ep.stopped);
        assert_eq!(ep.next_event(), None, "nothing left in flight");
        let finished = ep.finished();
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
        // A body by value (≈ 100 B) here is copied on every sift of the
        // completion queue's heap.
        assert!(std::mem::size_of::<Completion>() <= 32);
    }

    #[test]
    fn equal_outcomes_share_one_body_and_every_result_reads_back() {
        // `say` prints the same two texts, by handle, whatever it is asked;
        // `say fail` changes only the verdict. `other` prints other text.
        let (out, empty) = (Sym::from("out"), Sym::from(""));
        let mut rt = SiteRuntime::new(Site::chameleon_tacc());
        rt.site.add_account("cc", "chameleon");
        rt.commands.register("say", move |env| ExecOutcome {
            stdout: out.clone(),
            stderr: empty.clone(),
            result: if env.args() == "fail" { Err("said fail".into()) } else { Ok(()) },
            work: hpcci_cluster::WorkUnits::secs(1.0),
        });
        rt.commands.register("other", |_| ExecOutcome::ok("other", 1.0));
        let config = EndpointConfig::new("ep", IdentityId(1), "cc").with_workers(1);
        let mut ep = OnSite::new(config, &shared(rt), TaskProvider::Local, 5);
        let commands = ["say", "say", "say fail", "say fail", "other", "say"];
        for (id, command) in (1..).zip(commands) {
            ep.enqueue(TaskId(id), command, SimTime::ZERO).unwrap();
        }
        drive(&mut ep);
        let finished = ep.finished();
        let ids: Vec<_> = finished.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, [1, 2, 3, 4, 5, 6]);
        let shared_with_previous: Vec<_> = (finished.windows(2))
            .map(|pair| Arc::ptr_eq(&pair[0].1.body, &pair[1].1.body))
            .collect();
        assert_eq!(shared_with_previous, [true, false, true, false, false]);
        let fail = Err(TaskFailure::Command("said fail".into()));
        let expected = [("out", Ok(())), ("out", Ok(())), ("out", fail.clone()), ("out", fail)];
        let expected = expected.into_iter().chain([("other", Ok(())), ("out", Ok(()))]);
        for ((id, out), (stdout, result)) in finished.iter().zip(expected) {
            assert_eq!((out.stdout.as_str(), &out.result), (stdout, &result), "{id}");
            assert_eq!((out.stderr.as_str(), out.ran_as.as_str()), ("", "cc"), "{id}");
        }
        // Each output keeps its own instants: one worker runs them in turn.
        assert!(finished.windows(2).all(|pair| pair[1].1.started >= pair[0].1.ended));
    }

    #[test]
    fn stopped_endpoint_rejects() {
        let mut ep = login_endpoint(1);
        ep.crash(SimTime::ZERO);
        assert!(matches!(
            ep.enqueue(TaskId(1), "sleepy", SimTime::ZERO),
            Err(FaasError::EndpointStopped(_))
        ));
    }

    /// A FASTER endpoint as `x-u`, its workers in 1-hour pilots on a
    /// scheduler of `nodes` compute nodes.
    fn pilot_endpoint(nodes: usize, name: &str) -> OnSite {
        let mut site = Site::tamu_faster();
        site.nodes.truncate(1 + nodes);
        let mut rt = SiteRuntime::new(site).with_scheduler(64);
        rt.site.add_account("x-u", "CIS230030");
        rt.commands.register("job", |env| {
            ExecOutcome::ok(format!("role={:?}", env.role), 5.0)
        });
        pilot_at(&shared(rt), name)
    }

    fn pilot_at(site: &SharedSite, name: &str) -> OnSite {
        let provider = TaskProvider::Slurm {
            cores: 64,
            walltime_secs: 3600,
        };
        let config = EndpointConfig::new(name, IdentityId(1), "x-u").with_workers(8);
        OnSite::new(config, site, provider, 3)
    }

    #[test]
    fn slurm_provider_endpoint_runs_on_compute() {
        let mut ep = pilot_endpoint(180, "ep-faster");
        ep.enqueue(TaskId(1), "job", SimTime::ZERO).unwrap();
        drive(&mut ep);
        let finished = ep.finished();
        assert_eq!(finished.len(), 1);
        assert!(finished[0].1.stdout.contains("Compute"));
        assert_eq!(finished[0].1.node, "tamu-faster-compute");
    }

    #[test]
    fn stopping_drains_a_running_pilot_and_cancels_a_queued_one() {
        // One compute node: the second endpoint's pilot queues behind the
        // first's until the first endpoint gives its block back.
        let mut first = pilot_endpoint(1, "ep-a");
        let site = first.site.clone();
        let mut second = pilot_at(&site, "ep-b");
        first.enqueue(TaskId(1), "job", SimTime::ZERO).unwrap();
        second.enqueue(TaskId(2), "job", SimTime::ZERO).unwrap();
        assert!(matches!(first.pilot_job().1, JobState::Running { .. }));
        assert!(matches!(second.pilot_job().1, JobState::Pending { .. }));

        let (job, _) = first.pilot_job();
        first.crash(SimTime::from_secs(100));
        assert!(matches!(
            job_state(&site, job),
            JobState::Completed { success: true, .. }
        ));
        second.advance_to(SimTime::from_secs(101));
        assert!(matches!(second.pilot_job().1, JobState::Running { .. }));

        // A third endpoint's pilot now queues; crashing it cancels the job.
        let mut third = pilot_at(&site, "ep-c");
        third
            .enqueue(TaskId(3), "job", SimTime::from_secs(102))
            .unwrap();
        let (job, state) = third.pilot_job();
        assert!(matches!(state, JobState::Pending { .. }));
        third.crash(SimTime::from_secs(103));
        assert!(matches!(job_state(&site, job), JobState::Cancelled { .. }));
    }

    #[test]
    fn a_pilot_that_dies_at_walltime_is_replaced_under_the_next_name() {
        // One worker, three ~5 s tasks, 7 s pilots: the first pilot times out
        // under the second task while the third waits, so it is replaced.
        let site = pilot_endpoint(1, "unused").site;
        let provider = TaskProvider::Slurm {
            cores: 64,
            walltime_secs: 7,
        };
        let config = EndpointConfig::new("ep", IdentityId(1), "x-u").with_workers(1);
        let mut ep = OnSite::new(config, &site, provider, 3);
        for id in 1..=3 {
            ep.enqueue(TaskId(id), "job", SimTime::ZERO).unwrap();
        }
        drive(&mut ep);
        let finished = ep.finished();
        assert!(finished.len() == 3 && finished.iter().all(|(_, out)| out.success()));
        let ended: Vec<_> = (site.lock().scheduler_mut().unwrap())
            .accounting()
            .records()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(ended, ["gc-pilot-1"]);
        assert!(
            matches!(ep.pilot_job().1, JobState::Running { .. }),
            "gc-pilot-2 is held"
        );
    }

    #[test]
    fn a_provider_the_site_cannot_serve_is_refused() {
        let faster = pilot_endpoint(1, "ep-ok").site;
        let config = |user: &str| EndpointConfig::new("ep", IdentityId(1), user);
        let slurm = TaskProvider::Slurm {
            cores: 8,
            walltime_secs: 60,
        };
        let err = |site: &SharedSite, user: &str, provider| {
            Endpoint::new(config(user), &mut site.lock(), provider, 1)
                .err()
                .unwrap()
        };
        assert_eq!(
            err(&faster, "nobody", slurm),
            FaasError::NoLocalAccount("nobody".into())
        );
        // A pilot the scheduler can never start: every task would wait on it.
        for (cores, walltime_secs, reason) in [
            (0, 60, SchedulerError::Unsatisfiable { requested_nodes: 1, requested_cores: 0 }),
            (65, 60, SchedulerError::Unsatisfiable { requested_nodes: 1, requested_cores: 65 }),
            (8, 172_801, SchedulerError::WalltimeExceedsLimit),
        ] {
            assert_eq!(
                err(&faster, "x-u", TaskProvider::Slurm { cores, walltime_secs }),
                FaasError::PilotRefused { endpoint: "ep".into(), reason }
            );
        }
        let wks = shared(SiteRuntime::new(Site::workstation("lab")));
        assert_eq!(err(&wks, "x-u", slurm), FaasError::NoScheduler("ep".into()));
        wks.lock().site.nodes.clear();
        assert_eq!(
            err(&wks, "x-u", TaskProvider::Local),
            FaasError::UnknownEndpoint("ep: no login node at site".into())
        );
    }
}
