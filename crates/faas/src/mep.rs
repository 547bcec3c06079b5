//! Multi-user endpoints (MEPs).
//!
//! A MEP is deployed as a privileged service that, per submitting user,
//! "forks a user endpoint (UEP) process in user space for the requesting
//! user", applying Globus-Connect-Server-style identity mapping (§5.1).
//! Templates define what resources UEPs may use; administrators audit every
//! executed task.
//!
//! The paper's §6.1 detail is reproduced faithfully: on sites whose compute
//! nodes have no outbound internet, the template defines **two providers** —
//! login-node workers used for repository cloning, and SLURM pilots for test
//! execution — with commands routed between them by name.

use crate::endpoint::{Endpoint, EndpointConfig, TaskProvider};
use crate::error::FaasError;
use crate::exec::SiteRuntime;
use crate::function::FunctionId;
use crate::task::{TaskId, TaskOutput};
use hpcci_auth::{HighAssurancePolicy, Identity, IdentityMapping};
use hpcci_cluster::Uid;
use hpcci_obs::Obs;
use hpcci_scheduler::JobSpec;
use hpcci_sim::{FaultInjector, SimDuration, SimTime, Sym};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The UEP template an administrator configures on the MEP.
#[derive(Debug, Clone)]
pub struct MepTemplate {
    /// Commands (by leading token) routed to login-node workers — e.g.
    /// `git`, which needs outbound internet.
    pub login_commands: BTreeSet<String>,
    /// Provider for everything else.
    pub task_provider: TaskProvider,
    /// Worker concurrency per UEP.
    pub workers: u32,
    /// Container image UEP workers run inside, if any.
    pub container: Option<String>,
}

impl MepTemplate {
    /// §6.1 template: clone on login, test on compute.
    pub fn hpc_split(cores: u32, walltime_secs: u64) -> Self {
        MepTemplate {
            login_commands: ["git"].iter().map(|s| s.to_string()).collect(),
            task_provider: TaskProvider::Slurm { cores, walltime_secs },
            workers: 4,
            container: None,
        }
    }

    /// §6.2 template: everything on the login node.
    pub fn login_only() -> Self {
        MepTemplate {
            login_commands: BTreeSet::new(),
            task_provider: TaskProvider::Local,
            workers: 4,
            container: None,
        }
    }

    pub fn in_container(mut self, image: &str) -> Self {
        self.container = Some(image.to_string());
        self
    }

    fn routes_to_login(&self, command: &str) -> bool {
        match command.split_whitespace().next() {
            Some(first) => self.login_commands.contains(first),
            None => false,
        }
    }
}

/// The per-user pair of forked endpoints.
struct UepPair {
    login: Endpoint,
    task: Endpoint,
}

impl UepPair {
    fn next_event(&self, mut scheduler_next: impl FnMut() -> Option<SimTime>) -> Option<SimTime> {
        match (self.login.next_event(&mut scheduler_next), self.task.next_event(&mut scheduler_next)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// A multi-user endpoint at one site. Like its UEPs it holds no site: whoever
/// moves it (the cloud) lends it its site for the call.
pub struct MultiUserEndpoint {
    pub name: String,
    mapping: IdentityMapping,
    /// Identity requirements, checked by the cloud at submission.
    pub ha_policy: HighAssurancePolicy,
    pub restrict_functions: Option<BTreeSet<FunctionId>>,
    template: MepTemplate,
    /// Forked UEP pairs by local user; the key is the one interned copy of
    /// that name (the audit log holds handles to it).
    ueps: BTreeMap<Arc<str>, UepPair>,
    /// Administrator-auditable log: every task in submission order, and one
    /// `(first index, submitting identity, local user)` per run of
    /// consecutive tasks submitted under the same two handles — the identity
    /// is the one the task was submitted with. See [`Self::audit_log`].
    audit_tasks: Vec<TaskId>,
    audit_runs: Vec<(usize, Arc<Identity>, Arc<str>)>,
    seed: u64,
    /// Both handles come from the cloud (see [`Self::attach`]) and go on
    /// into every forked UEP.
    injector: FaultInjector,
    obs: Obs,
    /// Outputs of tasks that were in flight when the MEP crashed; drained by
    /// [`Self::drain_finished_into`] alongside live UEP outputs.
    pending_crashed: Vec<(TaskId, TaskOutput)>,
}

impl MultiUserEndpoint {
    /// Fails if the template's pilots need what the site lacks: a batch
    /// scheduler that can ever start them. Every forked task endpoint
    /// submits the same pilot, so the scheduler is asked once, here.
    pub fn new(
        name: &str,
        site: &mut SiteRuntime,
        mapping: IdentityMapping,
        template: MepTemplate,
    ) -> Result<Self, FaasError> {
        if let TaskProvider::Slurm { cores, walltime_secs } = template.task_provider {
            let no_scheduler = || FaasError::NoScheduler(name.to_string());
            let scheduler = site.scheduler_mut().ok_or_else(no_scheduler)?;
            // Admission does not depend on the account, known only per user.
            let pilot = JobSpec::single_node("", Uid(0), "", cores, SimDuration::from_secs(walltime_secs));
            let refused = |reason| FaasError::PilotRefused { endpoint: name.to_string(), reason };
            scheduler.admit(&pilot).map_err(refused)?;
        }
        Ok(MultiUserEndpoint {
            name: name.to_string(),
            mapping,
            ha_policy: HighAssurancePolicy::permissive(),
            restrict_functions: None,
            template,
            ueps: BTreeMap::new(),
            audit_tasks: Vec::new(),
            audit_runs: Vec::new(),
            seed: 0x6d65_7000,
            injector: FaultInjector::none(),
            obs: Obs::disabled(),
            pending_crashed: Vec::new(),
        })
    }

    /// Take the container's handles: the MEP consults the injector at its
    /// enqueue/advance boundaries and hands both to every UEP pair, the
    /// already-forked ones included.
    pub(crate) fn attach(&mut self, obs: &Obs, injector: &FaultInjector) {
        self.obs = obs.clone();
        self.injector = injector.clone();
        for pair in self.ueps.values_mut() {
            pair.login.attach(obs, injector);
            pair.task.attach(obs, injector);
        }
    }

    /// A MEP-level crash tears down every forked UEP. In-flight tasks fail
    /// with infrastructure-marked outputs; the UEP map is cleared so the next
    /// submission re-forks fresh UEPs (the privileged MEP service restarts).
    fn crash_all(&mut self, site: &mut SiteRuntime, now: SimTime) {
        let mut pairs = std::mem::take(&mut self.ueps);
        let n = pairs.len();
        for pair in pairs.values_mut() {
            pair.login.force_crash(site, now);
            pair.task.force_crash(site, now);
            pair.login.drain_finished_into(&mut self.pending_crashed);
            pair.task.drain_finished_into(&mut self.pending_crashed);
        }
        self.injector.record(
            now,
            format!("faas.mep.{}", self.name),
            "fault.effect",
            format!("mep crashed; {n} uep pair(s) torn down, will re-fork on demand"),
        );
    }

    pub fn with_ha_policy(mut self, policy: HighAssurancePolicy) -> Self {
        self.ha_policy = policy;
        self
    }

    pub fn with_allowlist(mut self, functions: &[FunctionId]) -> Self {
        self.restrict_functions = Some(functions.iter().copied().collect());
        self
    }

    /// The administrator's audit view (§5.1: "administrators can audit logs
    /// of all tasks that have been executed"): each task with the identity
    /// it was submitted with and the local user it ran as, by handle, in
    /// submission order.
    pub fn audit_log(&self) -> impl Iterator<Item = (TaskId, &Arc<Identity>, &Arc<str>)> {
        let ends = (self.audit_runs.iter().skip(1).map(|run| run.0)).chain([self.audit_tasks.len()]);
        (self.audit_runs.iter().zip(ends)).flat_map(move |((first, identity, local_user), end)| {
            self.audit_tasks[*first..end].iter().map(move |&task| (task, identity, local_user))
        })
    }

    /// Audit `task`: it joins the last run when it was submitted under that
    /// run's handles. A refreshed session is a new `Arc<Identity>`, so it
    /// starts a new run even for the same user.
    fn audit(&mut self, task: TaskId, identity: &Arc<Identity>, local_user: &Arc<str>) {
        let same = |(_, who, user): &(usize, Arc<Identity>, Arc<str>)| {
            Arc::ptr_eq(who, identity) && Arc::ptr_eq(user, local_user)
        };
        if !self.audit_runs.last().is_some_and(same) {
            self.audit_runs.push((self.audit_tasks.len(), identity.clone(), local_user.clone()));
        }
        self.audit_tasks.push(task);
    }

    fn fork_uep(&mut self, site: &mut SiteRuntime, local_user: &Arc<str>) -> Result<(), FaasError> {
        if self.ueps.contains_key(local_user) {
            return Ok(());
        }
        if site.site.account(local_user).is_err() {
            return Err(FaasError::NoLocalAccount(local_user.to_string()));
        }
        let seed = self.seed;
        self.seed += 2;
        let fork = |site: &mut SiteRuntime, suffix: &str, provider, seed| {
            let mut c = EndpointConfig::new(
                &format!("{}/{}/{}", self.name, local_user, suffix),
                hpcci_auth::IdentityId(0), // MEP-forked UEPs trust the MEP's mapping
                local_user,
            )
            .with_workers(self.template.workers);
            if let Some(img) = &self.template.container {
                c = c.in_container(img);
            }
            let mut ep = Endpoint::new(c, site, provider, seed)?;
            ep.attach(&self.obs, &self.injector);
            Ok::<_, FaasError>(ep)
        };
        let pair = UepPair {
            login: fork(site, "login", TaskProvider::Local, seed + 1)?,
            task: fork(site, "task", self.template.task_provider, seed + 2)?,
        };
        self.ueps.insert(local_user.clone(), pair);
        Ok(())
    }

    /// Accept a task from `identity` at `site`: map to a local account, fork
    /// the UEP if needed, route by command, and enqueue.
    pub fn enqueue(
        &mut self,
        site: &mut SiteRuntime,
        id: TaskId,
        identity: &Arc<Identity>,
        command: impl Into<Sym>,
        now: SimTime,
    ) -> Result<(), FaasError> {
        let command: Sym = command.into();
        if self.injector.crash_due(&self.name, now) {
            self.crash_all(site, now);
        }
        let local_user = self
            .mapping
            .resolve(identity)
            .map_err(|_| FaasError::IdentityMappingFailed(identity.username.clone()))?;
        if self.injector.fork_failure_due(&self.name, &identity.username, now) {
            return Err(FaasError::Infrastructure(format!(
                "mep {} failed to fork a user endpoint for {}",
                self.name, identity.username
            )));
        }
        let local_user = match self.ueps.get_key_value(&*local_user) {
            Some((interned, _)) => interned.clone(),
            None => Arc::from(&*local_user),
        };
        self.fork_uep(site, &local_user)?;
        self.audit(id, identity, &local_user);
        let pair = self.ueps.get_mut(&local_user).expect("forked above");
        if self.template.routes_to_login(&command) {
            pair.login.enqueue(site, id, command, now)
        } else {
            pair.task.enqueue(site, id, command, now)
        }
    }

    /// Drain finished outputs across all UEPs: appends into `out` and leaves
    /// every internal buffer's capacity in place.
    pub fn drain_finished_into(&mut self, out: &mut Vec<(TaskId, TaskOutput)>) {
        out.append(&mut self.pending_crashed);
        for pair in self.ueps.values_mut() {
            pair.login.drain_finished_into(out);
            pair.task.drain_finished_into(out);
        }
    }

    /// When some UEP of this MEP next changes state on its own (see
    /// [`Endpoint::next_event`] for `scheduler_next`).
    pub fn next_event(&self, mut scheduler_next: impl FnMut() -> Option<SimTime>) -> Option<SimTime> {
        self.ueps.values().filter_map(|pair| pair.next_event(&mut scheduler_next)).min()
    }

    /// Move every UEP of this MEP at `site` to `t`.
    pub fn advance_to(&mut self, site: &mut SiteRuntime, t: SimTime) {
        if self.injector.crash_due(&self.name, t) {
            self.crash_all(site, t);
        }
        // Every pair moves, due or not. Pairs wait on the site's shared batch
        // scheduler, and a sibling advanced earlier in this step — another
        // pair, or another endpoint of the cloud's — may already have
        // consumed the job-end event that starts this pair's pilot; a pair
        // with nothing to do is a few branches.
        for pair in self.ueps.values_mut() {
            pair.login.advance_to(site, t);
            pair.task.advance_to(site, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{shared, ExecOutcome, SharedSite};
    use hpcci_auth::{IdentityId, IdentityProvider};
    use hpcci_cluster::Site;
    use hpcci_scheduler::SchedulerError;
    use hpcci_sim::{drive, Advance};

    /// A MEP paired with its site, which each call lends it as the cloud
    /// does, so `drive` can move it.
    struct OnSite {
        mep: MultiUserEndpoint,
        site: SharedSite,
    }

    impl Advance for OnSite {
        fn next_event(&self) -> Option<SimTime> {
            self.mep.next_event(|| self.site.lock().scheduler_mut()?.next_event())
        }

        fn advance_to(&mut self, t: SimTime) {
            self.mep.advance_to(&mut self.site.lock(), t)
        }
    }

    impl OnSite {
        fn enqueue(&mut self, id: TaskId, identity: &Arc<Identity>, command: &str) -> Result<(), FaasError> {
            self.mep.enqueue(&mut self.site.lock(), id, identity, command, SimTime::ZERO)
        }

        fn finished(&mut self) -> Vec<(TaskId, TaskOutput)> {
            let mut finished = Vec::new();
            self.mep.drain_finished_into(&mut finished);
            finished
        }
    }

    fn identity(username: &str, provider: &str) -> Arc<Identity> {
        Arc::new(Identity {
            id: IdentityId(1),
            username: username.to_string(),
            provider: IdentityProvider::new(provider),
            last_authentication_us: 0,
        })
    }

    fn faster_mep() -> OnSite {
        let mut rt = SiteRuntime::new(Site::tamu_faster()).with_scheduler(64);
        rt.site.add_account("x-vhayot", "CIS230030");
        rt.commands.register("git", |env| {
            if env.internet_allowed() {
                ExecOutcome::ok(format!("cloned on {:?} node", env.role), 2.0)
            } else {
                ExecOutcome::fail("fatal: unable to access remote: no route to host", 0.5)
            }
        });
        rt.commands.register("pytest", |env| {
            ExecOutcome::ok(format!("tests ran on {:?} node", env.role), 20.0)
        });
        let site = shared(rt);
        let mut mapping = IdentityMapping::new("tamu-faster");
        mapping.add_explicit("vhayot@uchicago.edu", "x-vhayot");
        let mep = MultiUserEndpoint::new("mep-faster", &mut site.lock(), mapping, MepTemplate::hpc_split(64, 3600));
        OnSite { mep: mep.unwrap(), site }
    }

    #[test]
    fn a_split_template_the_site_scheduler_can_never_start_is_refused() {
        let faster = shared(SiteRuntime::new(Site::tamu_faster()).with_scheduler(64));
        let mep = |site: &SharedSite, template| {
            let mapping = IdentityMapping::new("tamu-faster");
            MultiUserEndpoint::new("mep", &mut site.lock(), mapping, template).err()
        };
        let refused = |reason| {
            Some(FaasError::PilotRefused {
                endpoint: "mep".into(),
                reason,
            })
        };
        let unsatisfiable = |requested_cores| {
            refused(SchedulerError::Unsatisfiable {
                requested_nodes: 1,
                requested_cores,
            })
        };
        assert_eq!(mep(&faster, MepTemplate::hpc_split(0, 3600)), unsatisfiable(0));
        assert_eq!(mep(&faster, MepTemplate::hpc_split(65, 3600)), unsatisfiable(65));
        // One second over the partition's 48 h cap.
        assert_eq!(
            mep(&faster, MepTemplate::hpc_split(64, 172_801)),
            refused(SchedulerError::WalltimeExceedsLimit)
        );
        assert_eq!(mep(&faster, MepTemplate::hpc_split(64, 172_800)), None);
        let lab = shared(SiteRuntime::new(Site::workstation("lab")));
        assert_eq!(
            mep(&lab, MepTemplate::hpc_split(8, 600)),
            Some(FaasError::NoScheduler("mep".into()))
        );
        assert_eq!(mep(&lab, MepTemplate::login_only()), None);
    }

    #[test]
    fn identity_mapping_and_audit() {
        let mut mep = faster_mep();
        let id = identity("vhayot@uchicago.edu", "uchicago.edu");
        mep.enqueue(TaskId(1), &id, "pytest -v").unwrap();
        drive(&mut mep);
        let finished = mep.finished();
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].1.ran_as, "x-vhayot");
        let audit: Vec<_> = mep.mep.audit_log().collect();
        let [(task, audited, local)] = audit[..] else {
            panic!("one task, one audit record");
        };
        assert_eq!(task, TaskId(1));
        assert!(
            Arc::ptr_eq(audited, &id),
            "the submitting identity, by handle"
        );
        assert_eq!(&**local, "x-vhayot");
    }

    #[test]
    fn an_audit_run_breaks_where_the_identity_handle_changes() {
        let mut mep = faster_mep();
        let first = identity("vhayot@uchicago.edu", "uchicago.edu");
        // A refreshed session: the same user, a new handle.
        let refreshed = identity("vhayot@uchicago.edu", "uchicago.edu");
        mep.enqueue(TaskId(1), &first, "pytest a").unwrap();
        mep.enqueue(TaskId(2), &first, "pytest b").unwrap();
        mep.enqueue(TaskId(3), &refreshed, "pytest c").unwrap();
        assert_eq!(mep.mep.audit_runs.len(), 2, "same local user, two identity handles");
        let audit: Vec<_> = mep.mep.audit_log().collect();
        let tasks: Vec<_> = audit.iter().map(|(task, ..)| task.0).collect();
        assert_eq!(tasks, [1, 2, 3]);
        for (task, who, local) in audit {
            let submitted = if task == TaskId(3) { &refreshed } else { &first };
            assert!(Arc::ptr_eq(who, submitted), "{task} audits the handle it was submitted with");
            assert_eq!(&**local, "x-vhayot");
        }
    }

    #[test]
    fn unmapped_identity_rejected() {
        let mut mep = faster_mep();
        let id = identity("mallory@evil.net", "evil.net");
        assert!(matches!(
            mep.enqueue(TaskId(1), &id, "pytest"),
            Err(FaasError::IdentityMappingFailed(_))
        ));
        assert_eq!(mep.mep.ueps.len(), 0, "no UEP forked for unmapped identity");
    }

    #[test]
    fn split_template_routes_clone_to_login_and_tests_to_compute() {
        // The paper's §6.1 core mechanism: on FASTER, compute nodes have no
        // internet. `git clone` must run on the login node to succeed; tests
        // run on compute nodes.
        let mut mep = faster_mep();
        let id = identity("vhayot@uchicago.edu", "uchicago.edu");
        mep.enqueue(TaskId(1), &id, "git clone https://github.com/Parsl/parsl-docking-tutorial")
            .unwrap();
        mep.enqueue(TaskId(2), &id, "pytest tests/").unwrap();
        drive(&mut mep);
        let mut finished = mep.finished();
        finished.sort_by_key(|(id, _)| *id);
        let clone_out = &finished[0].1;
        let test_out = &finished[1].1;
        assert!(clone_out.success(), "clone on login node has internet: {clone_out:?}");
        assert!(clone_out.stdout.contains("Login"));
        assert!(test_out.success());
        assert!(test_out.stdout.contains("Compute"));
    }

    #[test]
    fn naive_single_provider_clone_fails_on_isolated_compute() {
        // Ablation: without the split template, the clone is routed to
        // compute nodes and fails — exactly the failure the MEP template
        // exists to avoid.
        let mut mep = faster_mep();
        mep.mep.template.login_commands.clear();
        let id = identity("vhayot@uchicago.edu", "uchicago.edu");
        mep.enqueue(TaskId(1), &id, "git clone https://github.com/x/y").unwrap();
        drive(&mut mep);
        let finished = mep.finished();
        assert!(!finished[0].1.success());
        assert!(finished[0].1.stderr.contains("no route to host"));
    }

    #[test]
    fn ueps_fork_once_per_user() {
        let mut mep = faster_mep();
        let id = identity("vhayot@uchicago.edu", "uchicago.edu");
        mep.enqueue(TaskId(1), &id, "pytest a").unwrap();
        mep.enqueue(TaskId(2), &id, "pytest b").unwrap();
        assert_eq!(mep.mep.ueps.len(), 1);
    }
}
