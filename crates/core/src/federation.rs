//! The federation: composition root of the whole stack.
//!
//! Owns the auth service, the FaaS cloud, the hosting service, the CI
//! engine, and every registered site, and implements [`WorldDriver`] so that
//! actions blocked on remote progress can advance virtual time. This is the
//! "system overview" of the paper's Fig. 2, as an object graph.

use crate::action::{CorrectAction, CORRECT_ACTION_NAME};
use hpcci_auth::{AuthService, IdentityId, IdentityMapping};
use hpcci_cas::{Digest, DigestBuilder};
use hpcci_ci::{
    CacheMode, CiEngine, CiError, RunId, RunStatus, StepCache, WorkflowRun, WorldDriver,
};
use hpcci_cluster::{FileMode, Site};
use hpcci_faas::{
    CloudService, Endpoint, EndpointConfig, EndpointId, EndpointRegistration, ExecOutcome,
    MepTemplate, MultiUserEndpoint, SiteRuntime, WorkerProvider,
};
use hpcci_obs::{MetricsSnapshot, Obs, ObsConfig, RunReport};
use hpcci_provenance::EnvironmentCapture;
use hpcci_scheduler::{LocalProvider, SlurmProvider};
use hpcci_sim::{
    Advance, ArrivalGen, FaultInjector, FaultPlan, SimDuration, SimTime, Trace, Workload,
};
use hpcci_vcs::{HostingService, RepoEvent};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Typed identifier of a registered site, minted by [`Federation::add_site`].
///
/// Replaces the stringly `site(&str)` lookups: a `SiteId` can only come from
/// a successful registration, so site references cannot dangle or typo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(u32);

impl SiteId {
    /// Position in the federation's site table (registration order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site#{}", self.0)
    }
}

/// Handle to a registered site.
#[derive(Clone)]
pub struct SiteHandle {
    pub id: SiteId,
    pub name: String,
    pub shared: hpcci_faas::exec::SharedSite,
}

/// What kind of compute endpoint an [`EndpointSpec`] describes.
pub enum EndpointKind {
    /// Single-user endpoint with workers on the site's login node
    /// (workstation-style execution).
    Single,
    /// Single-user endpoint whose workers live inside SLURM pilot jobs.
    Pilot { cores: u32, walltime: SimDuration },
    /// Multi-user endpoint that forks per-user endpoint pairs on demand.
    MultiUser {
        mapping: IdentityMapping,
        template: MepTemplate,
    },
}

/// Declarative endpoint registration, consumed by [`Federation::register`].
///
/// One spec type replaces the three historical `register_*` methods; the
/// convenience constructors cover each kind.
pub struct EndpointSpec {
    pub name: String,
    pub site: SiteId,
    pub kind: EndpointKind,
    /// Owning identity — required for the single-user kinds.
    pub owner: Option<IdentityId>,
    /// Local account the endpoint runs as — required for the single-user kinds.
    pub local_user: Option<String>,
}

impl EndpointSpec {
    /// A login-node (workstation) endpoint.
    pub fn single(name: &str, site: SiteId, owner: IdentityId, local_user: &str) -> Self {
        EndpointSpec {
            name: name.to_string(),
            site,
            kind: EndpointKind::Single,
            owner: Some(owner),
            local_user: Some(local_user.to_string()),
        }
    }

    /// A SLURM pilot-job endpoint.
    pub fn pilot(
        name: &str,
        site: SiteId,
        owner: IdentityId,
        local_user: &str,
        cores: u32,
        walltime: SimDuration,
    ) -> Self {
        EndpointSpec {
            name: name.to_string(),
            site,
            kind: EndpointKind::Pilot { cores, walltime },
            owner: Some(owner),
            local_user: Some(local_user.to_string()),
        }
    }

    /// A multi-user endpoint.
    pub fn multi_user(
        name: &str,
        site: SiteId,
        mapping: IdentityMapping,
        template: MepTemplate,
    ) -> Self {
        EndpointSpec {
            name: name.to_string(),
            site,
            kind: EndpointKind::MultiUser { mapping, template },
            owner: None,
            local_user: None,
        }
    }
}

/// What [`Federation::register`] hands back: the cloud-side endpoint id plus
/// where the endpoint lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointHandle {
    pub id: EndpointId,
    pub name: String,
    pub site: SiteId,
}

/// The virtual-world driver handed to executing actions.
pub struct World {
    cloud: Arc<Mutex<CloudService>>,
}

impl WorldDriver for World {
    fn now(&self) -> SimTime {
        self.cloud.lock().now()
    }

    fn step(&mut self) -> bool {
        // `step_next` over `next_event`+`advance_to`: the cloud asks its
        // endpoints once for both the step instant and the due set.
        self.cloud.lock().step_next(SimTime::FAR_FUTURE).is_some()
    }

    fn sleep(&mut self, d: SimDuration) {
        let mut cloud = self.cloud.lock();
        let target = cloud.now() + d;
        cloud.advance_to(target);
    }
}

impl World {
    /// Drain the world to quiescence.
    fn drain(&mut self) {
        self.cloud.lock().drain_to_quiescence();
    }
}

/// A user onboarded to the federation: identity + confidential client.
pub struct OnboardedUser {
    pub identity: hpcci_auth::Identity,
    pub client_id: String,
    /// The secret value, exactly once — store it in a CI secret.
    pub client_secret: String,
}

/// Step-wise constructor for [`Federation`] — the single construction path.
///
/// ```ignore
/// let fed = Federation::builder(seed)
///     .faults(plan)               // optional
///     .obs(ObsConfig::enabled())  // optional
///     .build();
/// ```
#[must_use = "a builder does nothing until `.build()` is called"]
pub struct FederationBuilder {
    seed: u64,
    plan: Option<FaultPlan>,
    obs: ObsConfig,
    step_cache: Option<(StepCache, CacheMode)>,
    workload: Option<Workload>,
}

impl FederationBuilder {
    /// Install a fault plan. Every component consults the shared
    /// [`FaultInjector`] at its event boundaries; with an empty plan the
    /// federation behaves bit-identically to a fault-free build.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Configure observability. [`ObsConfig::disabled`] (the default) makes
    /// every recording call a no-op branch; enabling it never perturbs
    /// simulated time, RNG streams, or component traces.
    pub fn obs(mut self, cfg: ObsConfig) -> Self {
        self.obs = cfg;
        self
    }

    /// Enable incremental CI with a fresh step cache. `Record` executes
    /// everything and memoizes cacheable results; `Replay` serves hits
    /// without dispatching and fills in on miss; `Off` (the default, also
    /// when this method is never called) is bit-identical to a federation
    /// without a cache.
    pub fn step_cache(self, mode: CacheMode) -> Self {
        self.step_cache_shared(StepCache::new(), mode)
    }

    /// Enable incremental CI over an existing (shared) cache — how a warm
    /// federation replays what a previous cold federation recorded.
    pub fn step_cache_shared(mut self, cache: StepCache, mode: CacheMode) -> Self {
        self.step_cache = Some((cache, mode));
        self
    }

    /// Attach a traffic [`Workload`]: a typed arrival process plus a tenant
    /// mix, replacing per-driver gap/burstiness knobs. The federation only
    /// *stores* the workload — drivers pull a seeded [`ArrivalGen`] via
    /// [`Federation::arrival_gen`], so the arrival stream is pinned by the
    /// world seed exactly like every other stochastic component.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    pub fn build(self) -> Federation {
        let mut fed = Federation::build_parts(
            self.seed,
            self.plan.map(FaultInjector::new),
            Obs::new(self.obs),
            self.step_cache,
        );
        fed.workload = self.workload;
        fed
    }
}

/// The full federation.
pub struct Federation {
    pub auth: Arc<Mutex<AuthService>>,
    pub cloud: Arc<Mutex<CloudService>>,
    pub hosting: Arc<Mutex<HostingService>>,
    pub engine: CiEngine,
    world: World,
    /// Registered sites, indexed by [`SiteId`] (registration order).
    sites: Vec<SiteHandle>,
    site_names: BTreeMap<String, SiteId>,
    /// Endpoint name → owning site, for software-stack fingerprinting.
    endpoint_sites: BTreeMap<String, SiteId>,
    /// Mutates as endpoints mint their per-endpoint streams.
    seed: u64,
    /// The pristine builder seed, kept for [`world_seed`](Self::world_seed).
    world_seed: u64,
    injector: Option<FaultInjector>,
    obs: Obs,
    /// Traffic model attached at build time (see [`FederationBuilder::workload`]).
    workload: Option<Workload>,
}

impl Federation {
    /// Start building a federation. `seed` drives every stochastic component.
    pub fn builder(seed: u64) -> FederationBuilder {
        FederationBuilder {
            seed,
            plan: None,
            obs: ObsConfig::disabled(),
            step_cache: None,
            workload: None,
        }
    }

    fn build_parts(
        seed: u64,
        injector: Option<FaultInjector>,
        obs: Obs,
        step_cache: Option<(StepCache, CacheMode)>,
    ) -> Self {
        let auth = Arc::new(Mutex::new(AuthService::new()));
        let cloud = Arc::new(Mutex::new(CloudService::new(auth.clone())));
        let hosting = Arc::new(Mutex::new(HostingService::new()));
        let mut engine = CiEngine::new();
        let mut action = CorrectAction::new(cloud.clone());
        action.set_obs(obs.clone());
        engine.register_action(CORRECT_ACTION_NAME, Arc::new(action));
        if let Some(inj) = &injector {
            auth.lock().set_fault_injector(inj.clone());
            cloud.lock().set_fault_injector(inj.clone());
            engine.artifacts.set_fault_injector(inj.clone());
        }
        auth.lock().set_obs(obs.clone());
        cloud.lock().set_obs(obs.clone());
        engine.set_obs(obs.clone());
        if let Some((cache, mode)) = step_cache {
            engine.set_step_cache(cache, mode);
            // The seed jitters every simulated runtime, so it is part of the
            // execution environment: salting the key chain with it keeps one
            // world's recordings from being replayed into another even when
            // both share a cache.
            engine.set_cache_salt(DigestBuilder::new().u64_field("world-seed", seed).finish());
        }
        Federation {
            auth,
            cloud: cloud.clone(),
            hosting,
            engine,
            world: World { cloud },
            sites: Vec::new(),
            site_names: BTreeMap::new(),
            endpoint_sites: BTreeMap::new(),
            seed,
            world_seed: seed,
            injector,
            obs,
            workload: None,
        }
    }

    /// The seed this federation was built from (the value passed to
    /// [`builder`](Self::builder), before endpoint registration derives
    /// per-endpoint streams from it). Scenario tooling embeds it in golden
    /// digests so a digest can never be compared across worlds.
    pub fn world_seed(&self) -> u64 {
        self.world_seed
    }

    /// The traffic model attached at build time, if any.
    pub fn workload(&self) -> Option<&Workload> {
        self.workload.as_ref()
    }

    /// A seeded arrival generator for the attached workload: forked from the
    /// world seed under the canonical traffic label, so the gap stream is
    /// byte-identical to the legacy per-driver sampler with the same seed.
    /// `None` when the federation was built without a workload.
    pub fn arrival_gen(&self) -> Option<ArrivalGen> {
        self.workload.as_ref().map(|w| w.arrival_gen(self.world_seed))
    }

    /// Total simulation events the cloud has dispatched so far — the
    /// denominator of every events/s throughput figure, available without
    /// enabling observability.
    pub fn events_dispatched(&self) -> u64 {
        self.cloud.lock().events_dispatched()
    }

    /// Content digest over the full functional trace and the chaos trace —
    /// the "golden hash" of a finished run. Two same-seed, same-plan runs
    /// must produce equal digests; scenario oracles and the `hpcci-scen`
    /// CLI compare these instead of multi-megabyte renders.
    pub fn trace_digest(&self) -> Digest {
        DigestBuilder::new()
            .u64_field("seed", self.world_seed)
            .str_field("trace", &self.cloud.lock().trace.render())
            .str_field("chaos", &self.fault_trace().render())
            .finish()
    }

    /// The chaos trace: every injected fault and recovery, in time order.
    /// Empty when no fault plan is installed (or none fired).
    pub fn fault_trace(&self) -> Trace {
        self.injector
            .as_ref()
            .map(|inj| inj.trace())
            .unwrap_or_default()
    }

    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Mutable access to the world driver (for custom blocking waits).
    pub fn world(&mut self) -> &mut dyn WorldDriver {
        &mut self.world
    }

    /// Register a site, attach a scheduler when it has compute nodes, and
    /// install the standard federation commands (`git`, `gc-capture-env`).
    /// Returns the typed id every later site reference goes through.
    pub fn add_site(&mut self, site: Site, scheduler_cores: u32) -> SiteId {
        let name = site.id.to_string();
        let mut runtime = SiteRuntime::new(site).with_scheduler(scheduler_cores);
        self.install_standard_commands(&mut runtime);
        if let (Some(inj), Some(scheduler)) = (&self.injector, &runtime.scheduler) {
            scheduler.lock().set_fault_injector(inj.clone(), &name);
        }
        if self.obs.is_enabled() {
            if let Some(scheduler) = &runtime.scheduler {
                scheduler.lock().set_obs(self.obs.clone(), &name);
            }
        }
        let shared = hpcci_faas::exec::shared(runtime);
        let id = SiteId(self.sites.len() as u32);
        self.sites.push(SiteHandle {
            id,
            name: name.clone(),
            shared,
        });
        self.site_names.insert(name, id);
        id
    }

    /// Handle of a registered site.
    ///
    /// # Panics
    /// If `id` was not minted by this federation's [`add_site`](Self::add_site).
    pub fn site(&self, id: SiteId) -> &SiteHandle {
        &self.sites[id.index()]
    }

    /// Look a site up by its human-readable name.
    pub fn site_by_name(&self, name: &str) -> Option<&SiteHandle> {
        self.site_names.get(name).map(|id| &self.sites[id.index()])
    }

    /// All registered sites in registration order.
    pub fn sites(&self) -> impl Iterator<Item = &SiteHandle> {
        self.sites.iter()
    }

    /// The `git` handler clones from the federation's hosting service into
    /// the site filesystem; `gc-capture-env` renders the site's environment
    /// (§7.4's provenance capture).
    fn install_standard_commands(&self, runtime: &mut SiteRuntime) {
        let hosting = self.hosting.clone();
        runtime.commands.register("git", move |env| {
            if !env.internet_allowed() {
                return ExecOutcome::fail(
                    "fatal: unable to access remote repository: no route to host",
                    0.2,
                );
            }
            // git clone [-b <branch>] <url> [dest]
            let mut tokens = env.command.split_whitespace().skip(1);
            if tokens.next() != Some("clone") {
                return ExecOutcome::fail("git: only `clone` is supported in the federation", 0.05);
            }
            let (mut branch, mut url, mut dest_arg) = (None, None, None);
            while let Some(token) = tokens.next() {
                if token == "-b" || token == "--branch" {
                    branch = tokens.next();
                } else if url.is_none() {
                    url = Some(token);
                } else if dest_arg.is_none() {
                    dest_arg = Some(token);
                }
            }
            let Some(url) = url else {
                return ExecOutcome::fail("git clone: missing repository url", 0.05);
            };
            // URL convention: https://github.sim/<owner>/<name>[.git]
            let full_name = url
                .trim_start_matches("https://")
                .trim_start_matches("github.sim/")
                .trim_end_matches(".git");
            let dest = match dest_arg {
                Some(dest) => dest.to_string(),
                None => env.clone_dir(full_name.split('/').next_back().unwrap_or("repo")),
            };
            // Under the hosting lock take only what outlives it: the tree is
            // shared, not copied, and the branch name is copied only when the
            // command line did not give one.
            let (tree, head, branch_name) = {
                let hosting = hosting.lock();
                let repo = match hosting.repo(full_name) {
                    Ok(r) => r,
                    Err(e) => return ExecOutcome::fail(format!("fatal: {e}"), 0.1),
                };
                let branch_name = branch.map_or_else(|| Cow::Owned(repo.default_branch.clone()), Cow::Borrowed);
                let head = repo.head(&branch_name);
                match head.and_then(|head| Ok((repo.checkout(head)?.clone(), head))) {
                    Ok((tree, head)) => (tree, head, branch_name),
                    Err(e) => return ExecOutcome::fail(format!("fatal: {e}"), 0.1),
                }
            };
            let fs = &mut env.site.fs;
            if let Err(e) = fs.mkdir_p(&dest, env.cred, FileMode::PRIVATE_DIR) {
                return ExecOutcome::fail(format!("fatal: could not create {dest}: {e}"), 0.1);
            }
            let files = tree.iter().map(|(path, content)| (path, content.clone()));
            if let Err(e) = fs.write_tree(&dest, env.cred, FileMode::PRIVATE_DIR, FileMode::REGULAR, files) {
                return ExecOutcome::fail(format!("fatal: {e}"), 0.1);
            }
            // Clone cost: network + unpack, dominated by I/O.
            let io_secs = tree.total_bytes() as f64 / env.site.perf.io_bytes_per_sec;
            const FIXED: usize = "Cloning into ''...\nHEAD is now at 0123456789ab ()".len();
            let mut report = String::with_capacity(FIXED + dest.len() + branch_name.len());
            let _ = write!(
                report,
                "Cloning into '{dest}'...\nHEAD is now at {} ({branch_name})",
                head.abbrev()
            );
            ExecOutcome::ok(report, 0.5 + io_secs).with_payload(dest)
        });

        runtime.commands.register("gc-capture-env", |env| {
            let env_name = {
                let args = env.args();
                if args.is_empty() { None } else { Some(args.to_string()) }
            };
            let capture = EnvironmentCapture::of_site(
                env.site,
                env_name.as_deref(),
                env.container,
            );
            let text = capture.render();
            ExecOutcome::ok(text.clone(), 0.2).with_payload(text)
        });
    }

    // ------------------------------------------------------------------
    // Endpoints
    // ------------------------------------------------------------------

    /// Register a compute endpoint described by `spec` — the single entry
    /// point behind which the historical `register_*` trio now forwards.
    ///
    /// # Panics
    /// If a single-user spec omits `owner`/`local_user`, or a pilot spec
    /// targets a site without a scheduler.
    pub fn register(&mut self, spec: EndpointSpec) -> EndpointHandle {
        let EndpointSpec {
            name,
            site,
            kind,
            owner,
            local_user,
        } = spec;
        let shared = self.site(site).shared.clone();
        let id = match kind {
            EndpointKind::Single => {
                let owner = owner.expect("single-user endpoint needs an owner");
                let local_user = local_user.expect("single-user endpoint needs a local user");
                let login = shared
                    .lock()
                    .site
                    .login_node()
                    .expect("sites have a login node")
                    .id;
                self.seed += 1;
                let mut ep = Endpoint::new(
                    EndpointConfig::new(&name, owner, &local_user),
                    shared,
                    WorkerProvider::Local(LocalProvider::new(login, 8)),
                    self.seed,
                );
                if let Some(inj) = &self.injector {
                    ep.set_fault_injector(inj.clone());
                }
                self.cloud
                    .lock()
                    .register_endpoint(&name, EndpointRegistration::Single(Box::new(ep)))
            }
            EndpointKind::Pilot { cores, walltime } => {
                let owner = owner.expect("single-user endpoint needs an owner");
                let local_user = local_user.expect("single-user endpoint needs a local user");
                let (scheduler, account) = {
                    let rt = shared.lock();
                    (
                        rt.scheduler.clone().expect("pilot endpoint needs a scheduler"),
                        rt.site.account(&local_user).expect("local account exists").clone(),
                    )
                };
                self.seed += 1;
                let mut ep = Endpoint::new(
                    EndpointConfig::new(&name, owner, &local_user),
                    shared,
                    WorkerProvider::Slurm(SlurmProvider::new(
                        scheduler,
                        account.uid,
                        &account.allocation,
                        cores,
                        walltime,
                    )),
                    self.seed,
                );
                if let Some(inj) = &self.injector {
                    ep.set_fault_injector(inj.clone());
                }
                self.cloud
                    .lock()
                    .register_endpoint(&name, EndpointRegistration::Single(Box::new(ep)))
            }
            EndpointKind::MultiUser { mapping, template } => {
                let mut mep = MultiUserEndpoint::new(&name, shared, mapping, template);
                if let Some(inj) = &self.injector {
                    mep.set_fault_injector(inj.clone());
                }
                self.cloud
                    .lock()
                    .register_endpoint(&name, EndpointRegistration::Multi(Box::new(mep)))
            }
        };
        self.endpoint_sites.insert(name.clone(), site);
        EndpointHandle { id, name, site }
    }

    // ------------------------------------------------------------------
    // Incremental CI
    // ------------------------------------------------------------------

    /// The step cache the CI engine records into / replays from, when one
    /// was installed via [`FederationBuilder::step_cache`].
    pub fn step_cache(&self) -> Option<&StepCache> {
        self.engine.step_cache()
    }

    /// Recompute every registered endpoint's software-stack fingerprint and
    /// hand the digests to the CI engine. Step keys embed these, so a
    /// package installed or upgraded at a site invalidates exactly that
    /// site's cached step results. Called automatically before execution
    /// ([`run_all`](Self::run_all)); cheap and idempotent.
    pub fn refresh_stack_fingerprints(&mut self) {
        if self.engine.cache_mode() == CacheMode::Off {
            return;
        }
        for (endpoint, site) in &self.endpoint_sites {
            let handle = &self.sites[site.index()];
            let digest = {
                let rt = handle.shared.lock();
                let mut b = DigestBuilder::new().str_field("site", &handle.name);
                for env_name in rt.site.envs.names() {
                    b = b.str_field("env", env_name);
                    let env = rt.site.envs.get(env_name).expect("name just listed");
                    for pkg in env.freeze() {
                        b = b.str_field("pkg", &pkg.name).str_field("ver", &pkg.version);
                    }
                }
                b.finish()
            };
            self.engine.set_stack_fingerprint(endpoint, digest);
        }
        // Hosted runners share one (empty) stack: a stable non-site digest.
        self.engine
            .set_stack_fingerprint("*", Digest::of_str("hosted-runner-stack"));
    }

    // ------------------------------------------------------------------
    // Users and secrets
    // ------------------------------------------------------------------

    /// Register an identity and a confidential client for it. The secret is
    /// returned exactly once, for storage in a CI environment secret.
    pub fn onboard_user(&mut self, username: &str, provider: &str) -> OnboardedUser {
        let mut auth = self.auth.lock();
        let identity = auth.register_identity(username, provider, self.world.now());
        let (cid, secret) = auth
            .create_client(identity.id, &format!("correct-{username}"))
            .expect("fresh identity accepts a client");
        // Creation is the single moment the raw secret is visible (§5.2's
        // secret-handling story); it goes straight into a CI secret store.
        OnboardedUser {
            identity,
            client_id: cid.0,
            client_secret: secret.expose_value().to_string(),
        }
    }

    /// Store a user's FaaS credentials as environment-scoped CI secrets and
    /// create the approval-gated environment (sole reviewer = the user),
    /// following §5.2's recommendation.
    pub fn provision_environment(
        &mut self,
        repo: &str,
        environment: &str,
        reviewer: &str,
        user: &OnboardedUser,
    ) {
        use hpcci_ci::{Environment, Secret, SecretScope};
        self.engine.add_environment(
            repo,
            Environment::new(environment).with_reviewer(reviewer),
        );
        let scope = SecretScope::Environment {
            repo: repo.to_string(),
            environment: environment.to_string(),
        };
        self.engine
            .secrets
            .put(scope.clone(), Secret::new("GLOBUS_ID", &user.client_id));
        self.engine
            .secrets
            .put(scope, Secret::new("GLOBUS_SECRET", &user.client_secret));
    }

    // ------------------------------------------------------------------
    // Event plumbing and execution
    // ------------------------------------------------------------------

    /// Drain hosting webhooks into the CI engine, creating runs.
    pub fn pump_events(&mut self) -> Vec<RunId> {
        let events = self.hosting.lock().take_events();
        let now = self.world.now();
        let mut runs = Vec::new();
        for event in events {
            match event {
                RepoEvent::Push { repo, branch, commit, .. } => {
                    if let Ok(ids) = self.engine.on_push(&repo, &branch, &commit.short(), now) {
                        runs.extend(ids);
                    }
                }
                RepoEvent::PullRequestOpened { repo, pr, .. } => {
                    let (head_branch, commit) = {
                        let hosting = self.hosting.lock();
                        let pr = hosting.pull_request(pr).expect("event references real PR");
                        let head = hosting
                            .repo(&pr.head_repo)
                            .and_then(|r| r.head(&pr.head_branch))
                            .map(|c| c.short())
                            .unwrap_or_default();
                        (pr.head_branch.clone(), head)
                    };
                    if let Ok(ids) = self.engine.on_pull_request(&repo, &head_branch, &commit, now) {
                        runs.extend(ids);
                    }
                }
                RepoEvent::PullRequestMerged { .. } => {}
            }
        }
        runs
    }

    /// Execute all ready CI runs, then drain the world to quiescence.
    pub fn run_all(&mut self) -> Vec<RunId> {
        self.refresh_stack_fingerprints();
        let executed = self.engine.execute_ready(&mut self.world);
        self.world.drain();
        executed
    }

    /// Approve one awaiting run and execute it.
    pub fn approve_and_run(&mut self, run: RunId, reviewer: &str) -> Result<(), CiError> {
        let now = self.world.now();
        self.engine.approve(run, reviewer, now)?;
        self.run_all();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// The observability handle components record into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Harvest component-local counters and return a deterministic snapshot
    /// of every metric series. With observability disabled the snapshot is
    /// empty. Two same-seed runs yield byte-identical snapshots
    /// ([`MetricsSnapshot::to_json`] / [`MetricsSnapshot::to_prometheus`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.cloud.lock().harvest_metrics();
        self.engine.harvest_metrics();
        if self.obs.is_enabled() {
            let injected = self.fault_trace().of_kind("fault.inject").count() as u64;
            self.obs.set_counter("faults.injected", injected);
        }
        self.obs.snapshot()
    }

    /// Per-run telemetry summary (the paper's Fig. 4 columns: submit, start,
    /// finish, outcome, artifact volume, failure kind).
    pub fn run_report(&self, run: RunId) -> Result<RunReport, CiError> {
        let record = self.engine.run(run)?;
        Ok(self.report_of(record))
    }

    /// Reports for every run the engine knows, in [`RunId`] order.
    pub fn run_reports(&self) -> Vec<RunReport> {
        let mut reports: Vec<RunReport> = self.engine.runs().map(|r| self.report_of(r)).collect();
        reports.sort_by_key(|r| r.run);
        reports
    }

    fn report_of(&self, record: &WorkflowRun) -> RunReport {
        let now = self.world.now();
        let status = match record.status {
            RunStatus::AwaitingApproval => "awaiting-approval",
            RunStatus::Queued => "queued",
            RunStatus::Running => "running",
            RunStatus::Success => "success",
            RunStatus::Failure => "failure",
            RunStatus::Rejected => "rejected",
        };
        let artifact_bytes: u64 = self
            .engine
            .artifacts
            .of_run(record.id, now)
            .iter()
            .map(|a| a.content.len() as u64)
            .sum();
        RunReport {
            run: record.id.0,
            repo: record.repo.to_string(),
            workflow: record.workflow.to_string(),
            branch: record.branch.to_string(),
            commit: record.commit.to_string(),
            status: status.to_string(),
            triggered_at_us: record.triggered_at.as_micros(),
            started_at_us: record.started_at.map(|t| t.as_micros()),
            ended_at_us: record.ended_at.map(|t| t.as_micros()),
            steps: record.steps.len() as u32,
            failed_steps: record.steps.iter().filter(|s| !s.success).count() as u32,
            artifact_bytes,
            failure_kind: record.failure_kind().map(|k| k.as_str().to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_builds_and_registers_sites() {
        let mut fed = Federation::builder(1).build();
        let cham = fed.add_site(Site::chameleon_tacc(), 64);
        let faster = fed.add_site(Site::tamu_faster(), 64);
        assert_eq!(fed.site_by_name("chameleon-tacc").map(|s| s.id), Some(cham));
        assert!(fed.site_by_name("nope").is_none());
        assert_eq!(fed.site(cham).name, "chameleon-tacc");
        assert!(fed.site(cham).shared.lock().scheduler.is_none());
        assert!(fed.site(faster).shared.lock().scheduler.is_some());
        // Standard commands installed.
        let cham = fed.site(cham);
        assert!(cham.shared.lock().commands.resolve("git clone x").is_some());
        assert!(cham.shared.lock().commands.resolve("gc-capture-env").is_some());
    }

    /// The `git` handler's output lands in run logs and transcripts, so its
    /// text is pinned byte for byte: these are the strings the handler
    /// printed when it looped over `mkdir_p` + `write` on the flat path map.
    #[test]
    fn clone_failures_keep_their_text() {
        use hpcci_cluster::{Cred, NodeRole};
        use hpcci_sim::DetRng;
        use hpcci_vcs::WorkTree;

        let mut fed = Federation::builder(5).build();
        let site = fed.add_site(Site::tamu_faster(), 64);
        let now = fed.now();
        fed.hosting.lock().create_repo("lab", "app", now);
        let tree = WorkTree::new()
            .with_file("README.md", "# app\n")
            .with_file("conf/site.toml", "cores = 64\n")
            .with_file("src/main.py", "print('hi')\n");
        fed.hosting.lock().push("lab/app", "main", tree, "alice", "import", now).unwrap();

        let mut rt = fed.site(site).shared.lock();
        let alice = rt.site.add_account("x-alice", "projA");
        let bob = rt.site.add_account("x-bob", "projB");
        let clone = |rt: &mut SiteRuntime, who: &hpcci_cluster::UserAccount, args: &str| {
            let command = format!("git clone https://github.sim/lab/app.git{args}");
            let mut rng = DetRng::seed_from_u64(1);
            rt.execute(&command, who, &Cred::of(who), NodeRole::Login, "login", now, &mut rng, None)
        };
        let a = Cred::of(&alice);

        // The destination is a file.
        rt.site.fs.mkdir_p("/scratch/x-alice/gc-action-temp", &a, FileMode::PRIVATE_DIR).unwrap();
        rt.site.fs.write("/scratch/x-alice/gc-action-temp/app", &a, "in the way", FileMode::REGULAR).unwrap();
        assert_eq!(
            clone(&mut rt, &alice, "").stderr,
            "fatal: could not create /scratch/x-alice/gc-action-temp/app: \
             wrong node kind at: /scratch/x-alice/gc-action-temp/app"
        );
        // A file of the tree collides with a directory, and a directory of
        // the tree with a file.
        rt.site.fs.mkdir_p("/scratch/x-alice/w1/README.md", &a, FileMode::PRIVATE_DIR).unwrap();
        assert_eq!(
            clone(&mut rt, &alice, " /scratch/x-alice/w1").stderr,
            "fatal: wrong node kind at: /scratch/x-alice/w1/README.md"
        );
        rt.site.fs.mkdir_p("/scratch/x-alice/w2", &a, FileMode::PRIVATE_DIR).unwrap();
        rt.site.fs.write("/scratch/x-alice/w2/conf", &a, "in the way", FileMode::REGULAR).unwrap();
        assert_eq!(
            clone(&mut rt, &alice, " /scratch/x-alice/w2").stderr,
            "fatal: wrong node kind at: /scratch/x-alice/w2/conf"
        );
        // Another user's scratch: as the destination, and as its parent.
        assert_eq!(
            clone(&mut rt, &bob, " /scratch/x-alice").stderr,
            "fatal: permission denied: uid 1001 cannot create /scratch/x-alice/README.md"
        );
        assert_eq!(
            clone(&mut rt, &bob, " /scratch/x-alice/stolen").stderr,
            "fatal: could not create /scratch/x-alice/stolen: \
             permission denied: uid 1001 cannot mkdir /scratch/x-alice"
        );
        rt.site.fs.chmod("/scratch/x-alice/w1", &a, FileMode::DIR).unwrap();
        rt.site.fs.chmod("/scratch/x-alice", &a, FileMode::DIR).unwrap();
        rt.site.fs.remove("/scratch/x-alice/w1/README.md", &a).unwrap();
        rt.site.fs.write("/scratch/x-alice/w1/README.md", &a, "alice's", FileMode::GROUP_SHARED).unwrap();
        assert_eq!(
            clone(&mut rt, &bob, " /scratch/x-alice/w1").stderr,
            "fatal: permission denied: uid 1001 cannot write /scratch/x-alice/w1/README.md"
        );
        rt.site.fs.remove("/scratch/x-alice/w1/README.md", &a).unwrap();
        rt.site.fs.chmod("/scratch/x-alice/w1", &a, FileMode(0o777)).unwrap();
        rt.site.fs.mkdir_p("/scratch/x-alice/w1/conf", &a, FileMode::DIR).unwrap();
        assert_eq!(
            clone(&mut rt, &bob, " /scratch/x-alice/w1").stderr,
            "fatal: permission denied: uid 1001 cannot create /scratch/x-alice/w1/conf/site.toml"
        );
        rt.site.fs.remove("/scratch/x-alice/w1/conf", &a).unwrap();
        rt.site.fs.chmod("/scratch/x-alice/w1", &a, FileMode::DIR).unwrap();
        assert_eq!(
            clone(&mut rt, &bob, " /scratch/x-alice/w1").stderr,
            "fatal: permission denied: uid 1001 cannot mkdir /scratch/x-alice/w1"
        );
        // And the success text, with the payload naming the clone.
        let ok = clone(&mut rt, &bob, "");
        let head = fed.hosting.lock().repo("lab/app").unwrap().head("main").unwrap().short();
        assert_eq!(
            ok.stdout,
            format!("Cloning into '/scratch/x-bob/gc-action-temp/app'...\nHEAD is now at {head} (main)")
        );
        assert_eq!(&ok.result.unwrap()[..], b"/scratch/x-bob/gc-action-temp/app");
        assert_eq!(
            rt.site.fs.list("/scratch/x-bob/gc-action-temp/app", &Cred::of(&bob)).unwrap(),
            vec!["README.md", "conf", "src"]
        );
    }

    #[test]
    fn builder_is_the_single_construction_path() {
        let mut fed = Federation::builder(7).build();
        let site = fed.add_site(Site::tamu_faster(), 64);
        assert_eq!(site.index(), 0);
        // Disabled observability yields an empty snapshot.
        let snap = fed.metrics();
        assert!(snap.counters.is_empty());
        // No cache installed: engine stays in Off mode with no store.
        assert!(fed.step_cache().is_none());
        assert_eq!(fed.engine.cache_mode(), CacheMode::Off);
    }

    #[test]
    fn step_cache_modes_install_a_shared_store() {
        let fed = Federation::builder(9).step_cache(CacheMode::Record).build();
        let cache = fed.step_cache().expect("installed").clone();
        assert_eq!(fed.engine.cache_mode(), CacheMode::Record);
        assert!(cache.is_empty());

        // A warm federation replays over the same cache handle.
        let warm = Federation::builder(9)
            .step_cache_shared(cache.clone(), CacheMode::Replay)
            .build();
        assert_eq!(warm.engine.cache_mode(), CacheMode::Replay);
        // Both federations' artifact stores dedup into the same CAS.
        let d = warm.engine.artifacts.cas().unwrap().put(b"shared-bytes");
        assert!(fed.engine.artifacts.cas().unwrap().contains(d));
    }

    #[test]
    fn stack_fingerprints_follow_software_changes() {
        let mut fed = Federation::builder(11).step_cache(CacheMode::Record).build();
        let site = fed.add_site(Site::tamu_faster(), 64);
        let user = fed.onboard_user("vhayot", "purdue");
        fed.register(EndpointSpec::single("ep-faster", site, user.identity.id, "x-vhayot"));
        fed.refresh_stack_fingerprints();
        let before = fed.engine.stack_fingerprint("ep-faster").unwrap();
        assert_eq!(
            fed.engine.stack_fingerprint("ep-faster"),
            Some(before),
            "refresh is idempotent"
        );

        // Installing a package at the site changes the endpoint fingerprint,
        // which is what invalidates that site's cached steps.
        fed.site(site)
            .shared
            .lock()
            .site
            .envs
            .create("tox-env")
            .install("pytest", "8.0.0");
        fed.refresh_stack_fingerprints();
        let after = fed.engine.stack_fingerprint("ep-faster").unwrap();
        assert_ne!(before, after, "package install invalidates the stack digest");
        assert!(fed.engine.stack_fingerprint("*").is_some());
    }

    #[test]
    fn metrics_snapshot_exposes_core_series_when_enabled() {
        let fed = Federation::builder(3).obs(ObsConfig::enabled()).build();
        let snap = fed.metrics();
        for series in ["sched.queue_wait_us", "faas.pilot_provision_us", "faas.task_latency_us"] {
            assert!(snap.histogram(series).is_some(), "missing {series}");
        }
        for counter in ["action.retries", "faults.injected", "sim.events_dispatched"] {
            assert!(snap.counters.contains_key(counter), "missing {counter}");
        }
    }
}
