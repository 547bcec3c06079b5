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
//! a `LocalProvider` on the login node used for repository cloning, and a
//! `SlurmProvider` for test execution — with commands routed between them by
//! name.

use crate::endpoint::{Endpoint, EndpointConfig, WorkerProvider};
use crate::error::FaasError;
use crate::exec::SharedSite;
use crate::function::FunctionId;
use crate::task::{TaskId, TaskOutput};
use hpcci_auth::{HighAssurancePolicy, Identity, IdentityMapping};
use hpcci_obs::Obs;
use hpcci_scheduler::{LocalProvider, SlurmProvider};
use hpcci_sim::{Advance, FaultInjector, SimDuration, SimTime, Sym};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How the template provisions task workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskProvider {
    /// Run tasks on the login node (Anvil/PSI-J style, §6.2).
    Local,
    /// Run tasks in SLURM pilot jobs on compute nodes (§6.1).
    Slurm { cores: u32, walltime_secs: u64 },
}

/// The UEP template an administrator configures on the MEP.
#[derive(Debug, Clone)]
pub struct MepTemplate {
    /// Commands (by leading token) routed to a login-node LocalProvider —
    /// e.g. `git`, which needs outbound internet.
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
    fn next_event(&self) -> Option<SimTime> {
        match (self.login.next_event(), self.task.next_event()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// A multi-user endpoint at one site.
pub struct MultiUserEndpoint {
    pub name: String,
    site: SharedSite,
    mapping: IdentityMapping,
    pub ha_policy: HighAssurancePolicy,
    pub restrict_functions: Option<BTreeSet<FunctionId>>,
    template: MepTemplate,
    /// Forked UEP pairs by local user; the key is the one interned copy of
    /// that name (the audit log holds handles to it).
    ueps: BTreeMap<Arc<str>, UepPair>,
    /// Administrator-auditable log: (task, submitting identity, local user),
    /// by handle — the identity is the one the task was submitted with.
    audit_log: Vec<(TaskId, Arc<Identity>, Arc<str>)>,
    seed: u64,
    injector: Option<FaultInjector>,
    /// Observability handle, propagated into every forked UEP.
    obs: Obs,
    /// Outputs of tasks that were in flight when the MEP crashed; drained by
    /// [`Self::drain_finished_into`] alongside live UEP outputs.
    pending_crashed: Vec<(TaskId, Box<TaskOutput>)>,
}

impl MultiUserEndpoint {
    pub fn new(name: &str, site: SharedSite, mapping: IdentityMapping, template: MepTemplate) -> Self {
        MultiUserEndpoint {
            name: name.to_string(),
            site,
            mapping,
            ha_policy: HighAssurancePolicy::permissive(),
            restrict_functions: None,
            template,
            ueps: BTreeMap::new(),
            audit_log: Vec::new(),
            seed: 0x6d65_7000,
            injector: None,
            obs: Obs::disabled(),
            pending_crashed: Vec::new(),
        }
    }

    /// Attach a fault injector consulted at enqueue/advance boundaries.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Attach an observability handle, propagated into every UEP this MEP
    /// forks (already-forked UEPs are updated too).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        for pair in self.ueps.values_mut() {
            pair.login.set_obs(self.obs.clone());
            pair.task.set_obs(self.obs.clone());
        }
    }

    /// The injector this MEP (and hence every UEP it forks) consults, if any.
    pub(crate) fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// A MEP-level crash tears down every forked UEP. In-flight tasks fail
    /// with infrastructure-marked outputs; the UEP map is cleared so the next
    /// submission re-forks fresh UEPs (the privileged MEP service restarts).
    fn crash_all(&mut self, now: SimTime) {
        let mut pairs = std::mem::take(&mut self.ueps);
        let n = pairs.len();
        for pair in pairs.values_mut() {
            pair.login.force_crash(now);
            pair.task.force_crash(now);
            pair.login.drain_finished_into(&mut self.pending_crashed);
            pair.task.drain_finished_into(&mut self.pending_crashed);
        }
        if let Some(inj) = &self.injector {
            inj.record(
                now,
                format!("faas.mep.{}", self.name),
                "fault.effect",
                format!("mep crashed; {n} uep pair(s) torn down, will re-fork on demand"),
            );
        }
    }

    pub fn with_ha_policy(mut self, policy: HighAssurancePolicy) -> Self {
        self.ha_policy = policy;
        self
    }

    pub fn with_allowlist(mut self, functions: &[FunctionId]) -> Self {
        self.restrict_functions = Some(functions.iter().copied().collect());
        self
    }

    pub fn function_allowed(&self, f: FunctionId) -> bool {
        match &self.restrict_functions {
            None => true,
            Some(set) => set.contains(&f),
        }
    }

    pub fn shell_allowed(&self) -> bool {
        self.restrict_functions.is_none()
    }

    pub fn wan_latency(&self) -> SimDuration {
        let rtt = self.site.lock().site.perf.wan_rtt();
        rtt / 2
    }

    /// The administrator's audit view (§5.1: "administrators can audit logs
    /// of all tasks that have been executed").
    pub fn audit_log(&self) -> &[(TaskId, Arc<Identity>, Arc<str>)] {
        &self.audit_log
    }

    /// Number of forked UEPs (pairs count once).
    pub fn uep_count(&self) -> usize {
        self.ueps.len()
    }

    fn fork_uep(&mut self, local_user: &Arc<str>) -> Result<(), FaasError> {
        if self.ueps.contains_key(local_user) {
            return Ok(());
        }
        let runtime = self.site.lock();
        let account = runtime
            .site
            .account(local_user)
            .map_err(|_| FaasError::NoLocalAccount(local_user.to_string()))?
            .clone();
        let login_node = runtime
            .site
            .login_node()
            .map(|n| n.id)
            .ok_or_else(|| FaasError::UnknownEndpoint(self.name.clone()))?;
        let scheduler = runtime.scheduler.clone();
        drop(runtime);

        self.seed += 1;
        let login_seed = self.seed;
        self.seed += 1;
        let task_seed = self.seed;

        let mk_config = |suffix: &str| {
            let mut c = EndpointConfig::new(
                &format!("{}/{}/{}", self.name, local_user, suffix),
                hpcci_auth::IdentityId(0), // MEP-forked UEPs trust the MEP's mapping
                local_user,
            )
            .with_workers(self.template.workers);
            if let Some(img) = &self.template.container {
                c = c.in_container(img);
            }
            c
        };

        let mut login_ep = Endpoint::new(
            mk_config("login"),
            self.site.clone(),
            WorkerProvider::Local(LocalProvider::new(login_node, 8)),
            login_seed,
        );
        let mut task_ep = match &self.template.task_provider {
            TaskProvider::Local => Endpoint::new(
                mk_config("task"),
                self.site.clone(),
                WorkerProvider::Local(LocalProvider::new(login_node, 8)),
                task_seed,
            ),
            TaskProvider::Slurm { cores, walltime_secs } => {
                let scheduler = scheduler.ok_or_else(|| {
                    FaasError::UnknownEndpoint(format!("{}: no scheduler at site", self.name))
                })?;
                Endpoint::new(
                    mk_config("task"),
                    self.site.clone(),
                    WorkerProvider::Slurm(SlurmProvider::new(
                        scheduler,
                        account.uid,
                        &account.allocation,
                        *cores,
                        SimDuration::from_secs(*walltime_secs),
                    )),
                    task_seed,
                )
            }
        };
        if let Some(inj) = &self.injector {
            login_ep.set_fault_injector(inj.clone());
            task_ep.set_fault_injector(inj.clone());
        }
        if self.obs.is_enabled() {
            login_ep.set_obs(self.obs.clone());
            task_ep.set_obs(self.obs.clone());
        }
        self.ueps.insert(
            local_user.clone(),
            UepPair {
                login: login_ep,
                task: task_ep,
            },
        );
        Ok(())
    }

    /// Accept a task from `identity`: map to a local account, fork the UEP if
    /// needed, route by command, and enqueue.
    pub fn enqueue(
        &mut self,
        id: TaskId,
        identity: &Arc<Identity>,
        command: impl Into<Sym>,
        now: SimTime,
    ) -> Result<(), FaasError> {
        let command: Sym = command.into();
        if let Some(inj) = &self.injector {
            if inj.crash_due(&self.name, now) {
                self.crash_all(now);
            }
        }
        self.ha_policy.check(identity, now)?;
        let local_user = self
            .mapping
            .resolve(identity)
            .map_err(|_| FaasError::IdentityMappingFailed(identity.username.clone()))?;
        if let Some(inj) = &self.injector {
            if inj.fork_failure_due(&self.name, &identity.username, now) {
                return Err(FaasError::Infrastructure(format!(
                    "mep {} failed to fork a user endpoint for {}",
                    self.name, identity.username
                )));
            }
        }
        let local_user = match self.ueps.get_key_value(&*local_user) {
            Some((interned, _)) => interned.clone(),
            None => Arc::from(&*local_user),
        };
        self.fork_uep(&local_user)?;
        self.audit_log
            .push((id, identity.clone(), local_user.clone()));
        let pair = self.ueps.get_mut(&local_user).expect("forked above");
        if self.template.routes_to_login(&command) {
            pair.login.enqueue(id, command, now)
        } else {
            pair.task.enqueue(id, command, now)
        }
    }

    /// Drain finished outputs across all UEPs: appends into `out` and leaves
    /// every internal buffer's capacity in place.
    pub fn drain_finished_into(&mut self, out: &mut Vec<(TaskId, Box<TaskOutput>)>) {
        out.append(&mut self.pending_crashed);
        for pair in self.ueps.values_mut() {
            pair.login.drain_finished_into(out);
            pair.task.drain_finished_into(out);
        }
    }

    /// Stop every UEP.
    pub fn stop(&mut self, now: SimTime) {
        for pair in self.ueps.values_mut() {
            pair.login.stop(now);
            pair.task.stop(now);
        }
    }
}

impl Advance for MultiUserEndpoint {
    fn next_event(&self) -> Option<SimTime> {
        self.ueps.values().filter_map(UepPair::next_event).min()
    }

    fn advance_to(&mut self, t: SimTime) {
        if self
            .injector
            .as_ref()
            .is_some_and(|inj| inj.crash_due(&self.name, t))
        {
            self.crash_all(t);
        }
        // Every pair moves, due or not. Pairs wait on the site's shared batch
        // scheduler, and a sibling advanced earlier in this step — another
        // pair, or another endpoint of the cloud's — may already have
        // consumed the job-end event that starts this pair's pilot; a pair
        // with nothing to do is a few branches.
        for pair in self.ueps.values_mut() {
            pair.login.advance_to(t);
            pair.task.advance_to(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{shared, ExecOutcome, SiteRuntime};
    use hpcci_auth::{IdentityId, IdentityProvider};
    use hpcci_cluster::Site;
    use hpcci_sim::drive;

    fn identity(username: &str, provider: &str) -> Arc<Identity> {
        Arc::new(Identity {
            id: IdentityId(1),
            username: username.to_string(),
            provider: IdentityProvider::new(provider),
            last_authentication_us: 0,
        })
    }

    fn faster_mep() -> MultiUserEndpoint {
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
        MultiUserEndpoint::new("mep-faster", site, mapping, MepTemplate::hpc_split(64, 3600))
    }

    #[test]
    fn identity_mapping_and_audit() {
        let mut mep = faster_mep();
        let id = identity("vhayot@uchicago.edu", "uchicago.edu");
        mep.enqueue(TaskId(1), &id, "pytest -v", SimTime::ZERO).unwrap();
        drive(&mut mep);
        let mut finished = Vec::new();
        mep.drain_finished_into(&mut finished);
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].1.ran_as, "x-vhayot");
        let [(task, audited, local)] = mep.audit_log() else {
            panic!("one task, one audit record");
        };
        assert_eq!(*task, TaskId(1));
        assert!(
            Arc::ptr_eq(audited, &id),
            "the submitting identity, by handle"
        );
        assert_eq!(&**local, "x-vhayot");
    }

    #[test]
    fn unmapped_identity_rejected() {
        let mut mep = faster_mep();
        let id = identity("mallory@evil.net", "evil.net");
        assert!(matches!(
            mep.enqueue(TaskId(1), &id, "pytest", SimTime::ZERO),
            Err(FaasError::IdentityMappingFailed(_))
        ));
        assert_eq!(mep.uep_count(), 0, "no UEP forked for unmapped identity");
    }

    #[test]
    fn split_template_routes_clone_to_login_and_tests_to_compute() {
        // The paper's §6.1 core mechanism: on FASTER, compute nodes have no
        // internet. `git clone` must run on the login node to succeed; tests
        // run on compute nodes.
        let mut mep = faster_mep();
        let id = identity("vhayot@uchicago.edu", "uchicago.edu");
        mep.enqueue(TaskId(1), &id, "git clone https://github.com/Parsl/parsl-docking-tutorial", SimTime::ZERO)
            .unwrap();
        mep.enqueue(TaskId(2), &id, "pytest tests/", SimTime::ZERO).unwrap();
        drive(&mut mep);
        let mut finished = Vec::new();
        mep.drain_finished_into(&mut finished);
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
        mep.template.login_commands.clear();
        let id = identity("vhayot@uchicago.edu", "uchicago.edu");
        mep.enqueue(TaskId(1), &id, "git clone https://github.com/x/y", SimTime::ZERO)
            .unwrap();
        drive(&mut mep);
        let mut finished = Vec::new();
        mep.drain_finished_into(&mut finished);
        assert!(!finished[0].1.success());
        assert!(finished[0].1.stderr.contains("no route to host"));
    }

    #[test]
    fn ueps_fork_once_per_user() {
        let mut mep = faster_mep();
        let id = identity("vhayot@uchicago.edu", "uchicago.edu");
        mep.enqueue(TaskId(1), &id, "pytest a", SimTime::ZERO).unwrap();
        mep.enqueue(TaskId(2), &id, "pytest b", SimTime::ZERO).unwrap();
        assert_eq!(mep.uep_count(), 1);
    }

    #[test]
    fn ha_policy_enforced_at_mep() {
        let mut mep = faster_mep().with_ha_policy(
            HighAssurancePolicy::permissive().require_provider("access-ci.org"),
        );
        let id = identity("vhayot@uchicago.edu", "uchicago.edu");
        assert!(matches!(
            mep.enqueue(TaskId(1), &id, "pytest", SimTime::ZERO),
            Err(FaasError::Auth(_))
        ));
    }
}
