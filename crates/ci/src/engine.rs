//! The CI engine: event intake, approval gating, and run execution.

use crate::action::{Action, StepContext, WorldDriver};
use crate::artifacts::ArtifactStore;
use crate::cache::{chain_digest, job_block, result_digest, CacheMode, StepCache, StepKeyStem};
use crate::environment::Environment;
use crate::error::CiError;
use crate::run::{Infra, RunId, RunStatus, StepOutcome, StepRun, WorkflowRun};
use crate::runner::{Runner, RunnerKind, RunnerPool};
use crate::secrets::SecretStore;
use crate::workflow::{
    interpolate_cow, JobDef, ResolvedAction, StepAction, StepDef, TriggerEvent, WorkflowDef,
};
use hpcci_cas::Digest;
use hpcci_obs::Obs;
use hpcci_sim::{Interner, SimDuration, SimTime, Sym};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A recurring schedule derived from `on: schedule` triggers.
#[derive(Debug, Clone)]
struct Schedule {
    repo: Sym,
    workflow: Sym,
    period: SimDuration,
    next_fire: SimTime,
}

/// A workflow as installed: what the definition fixes once, and what the
/// engine keeps for it between runs. Both die with the workflow.
struct Installed {
    shape: Arc<Shape>,
    /// One slot per `def.jobs` entry, filled by the first run of the job —
    /// a workflow nobody pushes to keeps none.
    plans: Vec<Option<JobPlan>>,
}

/// The part of an installed workflow a run shares by `Arc`.
struct Shape {
    def: WorkflowDef,
    /// [`WorkflowDef::job_order`] as indices into `def.jobs`; a bad `needs`
    /// is reported by every trigger that would instantiate the workflow.
    order: Result<Vec<usize>, (String, String)>,
}

/// What no push changes about one job's steps, kept between runs in every
/// cache mode. Built when: each step's interned id always; the
/// run-invariant half of its step key only with a cache attached (`Off`
/// hashes nothing); its interpolated `with:` inputs by its first execution
/// under the plan. A replay hit finishes `steps[i].stem` with the run's tree
/// and chain and reads no input, so a run of hits interpolates nothing.
///
/// A plan is used only while every input it absorbed is *the same object*:
/// the job's resolved-secrets map ([`SecretStore::put`] drops them all) and
/// the repo's `env:` map ([`CiEngine::set_env_var`] copies a shared one), by
/// address — the plan holds both `Arc`s, so neither address can be reused
/// while it lives — the runner the job selects, by value, and the stack
/// fingerprints, by the epoch a changed digest bumps. Anything else rebuilds
/// it. It is the one caller of [`StepAction::resolve`].
struct JobPlan {
    secrets: Arc<BTreeMap<String, String>>,
    env: Arc<BTreeMap<String, String>>,
    runner: RunnerKind,
    /// The fingerprint epoch the stems absorbed; `None` for a plan built
    /// with the cache off, which holds no stem.
    stack_epoch: Option<u64>,
    steps: Vec<PlannedStep>,
}

struct PlannedStep {
    id: Sym,
    stem: Option<StepKeyStem>,
    /// See [`JobPlan::inputs`].
    inputs: Option<Arc<BTreeMap<String, String>>>,
}

impl JobPlan {
    /// Intern `job`'s step ids and, given the `stacks` of a live cache,
    /// absorb everything about its step keys that no push changes.
    fn build(
        job: &JobDef,
        secrets: &Arc<BTreeMap<String, String>>,
        env: &Arc<BTreeMap<String, String>>,
        runner: &Runner,
        stacks: Option<&StackFingerprints>,
        interner: &mut Interner,
    ) -> JobPlan {
        let keyed = stacks.map(|stacks| (stacks, job_block(&job.id, secrets, runner)));
        let step = |step: &StepDef| PlannedStep {
            id: interner.intern(&step.id),
            stem: keyed.as_ref().map(|(stacks, block)| {
                let action = step.action.resolve(secrets, env);
                StepKeyStem::new(block, &step.id, &action, stacks.digest_for(&action))
            }),
            inputs: None,
        };
        JobPlan {
            secrets: secrets.clone(),
            env: env.clone(),
            runner: runner.kind.clone(),
            stack_epoch: stacks.map(|stacks| stacks.epoch),
            steps: job.steps.iter().map(step).collect(),
        }
    }

    fn absorbed(
        &self,
        secrets: &Arc<BTreeMap<String, String>>,
        env: &Arc<BTreeMap<String, String>>,
        runner: &Runner,
        stacks: Option<&StackFingerprints>,
    ) -> bool {
        Arc::ptr_eq(&self.secrets, secrets)
            && Arc::ptr_eq(&self.env, env)
            && self.runner == runner.kind
            && self.stack_epoch == stacks.map(|stacks| stacks.epoch)
    }

    /// The `with:` inputs of `uses:` step `ix` as they interpolate under
    /// this plan's secrets and env: resolved by the step's first execution,
    /// lent by handle to every later one, and shared between the steps of
    /// the job whose maps are equal.
    fn inputs(&mut self, ix: usize, action: &StepAction) -> Arc<BTreeMap<String, String>> {
        if let Some(inputs) = &self.steps[ix].inputs {
            return inputs.clone();
        }
        let resolved: BTreeMap<String, String> = match action.resolve(&self.secrets, &self.env) {
            ResolvedAction::Uses { with, .. } => with
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into_owned()))
                .collect(),
            _ => BTreeMap::new(),
        };
        let mut siblings = self.steps.iter().filter_map(|step| step.inputs.as_ref());
        let inputs = match siblings.find(|inputs| ***inputs == resolved) {
            Some(equal) => equal.clone(),
            None => Arc::new(resolved),
        };
        self.steps[ix].inputs.insert(inputs).clone()
    }
}

/// Software-stack fingerprints keyed by endpoint name (`"*"` is the fallback
/// for steps that name no endpoint). Part of every step key: a package
/// upgrade at a site must invalidate that site's entries.
#[derive(Default)]
struct StackFingerprints {
    by_endpoint: BTreeMap<Sym, Digest>,
    /// Bumped whenever a fingerprint really changes (re-setting the same
    /// digest, as every `run_all` does, leaves it alone).
    epoch: u64,
}

impl StackFingerprints {
    /// The fingerprint a step's key should carry: the named endpoint's
    /// stack when the step targets one (the `endpoint_uuid` input CORRECT
    /// steps pass), else the `"*"` fallback.
    fn digest_for(&self, action: &ResolvedAction<'_>) -> Digest {
        action
            .input("endpoint_uuid")
            .and_then(|endpoint| self.by_endpoint.get(endpoint))
            .or_else(|| self.by_endpoint.get("*"))
            .copied()
            .unwrap_or(Digest::NONE)
    }
}

/// The CI service.
///
/// ## Allocation discipline
///
/// The engine sits on the full push→run→step→task path, so its per-run state
/// follows the same diet as the event loop: hot identifiers (repo, workflow,
/// job, step, reviewer, endpoint names) are interned [`Sym`]s deduplicated by
/// the engine's [`Interner`]; maps are keyed by `Sym` and probed with plain
/// `&str` (no per-lookup allocation); runs live in a dense arena `Vec`
/// indexed by [`RunId`] rather than a `BTreeMap`; and workflow definitions
/// are `Arc`-shared so instantiating a run never deep-clones a definition.
pub struct CiEngine {
    workflows: BTreeMap<Sym, Vec<Installed>>,
    /// Environments nested by repo then name, so the per-job approval check
    /// probes two small maps with borrowed keys instead of allocating a
    /// `(String, String)` tuple per lookup.
    environments: BTreeMap<Sym, BTreeMap<Sym, Environment>>,
    /// Repo-level env blocks, `Arc`-shared with every run they configure.
    env_vars: BTreeMap<Sym, Arc<BTreeMap<String, String>>>,
    /// The `env:` block of every repo without one: one shared object, so a
    /// [`JobPlan`] for such a repo stays valid from run to run.
    no_env_vars: Arc<BTreeMap<String, String>>,
    pub secrets: SecretStore,
    pub runners: RunnerPool,
    pub artifacts: ArtifactStore,
    actions: BTreeMap<String, Arc<dyn Action>>,
    /// Run arena: `RunId(n)` lives at index `n - 1`. Ids are handed out
    /// densely from 1, so the arena has no holes and lookup is an index.
    runs: Vec<WorkflowRun>,
    /// Runs ready to execute, with the earliest time execution may begin
    /// (wait timers).
    ready: VecDeque<(RunId, SimTime)>,
    schedules: Vec<Schedule>,
    next_run: u64,
    obs: Obs,
    step_cache: Option<StepCache>,
    cache_mode: CacheMode,
    /// Extra digest folded into every step key's prior-result chain; see
    /// [`CiEngine::set_cache_salt`].
    cache_salt: Digest,
    stacks: StackFingerprints,
    /// Deduplicates every hot identifier the engine stores.
    interner: Interner,
    /// Engine-local metric counters, flushed in one batch by
    /// [`CiEngine::harvest_metrics`]. Bumping a `u64` per run/step replaces
    /// a registry lock + map probe on the trigger and execution paths.
    counters: CiCounters,
}

/// See [`CiEngine::harvest_metrics`].
#[derive(Debug, Default, Clone, Copy)]
struct CiCounters {
    runs_total: u64,
    step_cache_hits: u64,
    step_cache_misses: u64,
    step_cache_uncacheable: u64,
    artifact_logical_bytes: u64,
    artifact_stored_bytes: u64,
}

impl Default for CiEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CiEngine {
    pub fn new() -> Self {
        CiEngine {
            workflows: BTreeMap::new(),
            environments: BTreeMap::new(),
            env_vars: BTreeMap::new(),
            no_env_vars: Arc::default(),
            secrets: SecretStore::new(),
            runners: RunnerPool::with_hosted_defaults(),
            artifacts: ArtifactStore::new(),
            actions: BTreeMap::new(),
            runs: Vec::new(),
            ready: VecDeque::new(),
            schedules: Vec::new(),
            next_run: 0,
            obs: Obs::disabled(),
            step_cache: None,
            cache_mode: CacheMode::Off,
            cache_salt: Digest::NONE,
            stacks: StackFingerprints::default(),
            interner: Interner::new(),
            counters: CiCounters::default(),
        }
    }

    /// Attach an observability handle (run telemetry and artifact accounting).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Publish the engine-local counters to the attached [`Obs`] handle.
    /// Counter metrics batch through here (the federation calls it when it
    /// snapshots); only histogram/span series record inline.
    pub fn harvest_metrics(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        let c = &self.counters;
        self.obs.set_counter("ci.runs_total", c.runs_total);
        self.obs.set_counter("ci.step_cache_hits", c.step_cache_hits);
        self.obs.set_counter("ci.step_cache_misses", c.step_cache_misses);
        self.obs
            .set_counter("ci.step_cache_uncacheable", c.step_cache_uncacheable);
        self.obs
            .set_counter("ci.artifact_logical_bytes", c.artifact_logical_bytes);
        self.obs
            .set_counter("ci.artifact_stored_bytes", c.artifact_stored_bytes);
    }

    /// Install a step-result cache. The artifact store is re-pointed at the
    /// cache's CAS so step results and artifacts dedup against each other.
    /// With [`CacheMode::Off`] the engine never consults the cache and
    /// execution is bit-identical to an engine without one.
    pub fn set_step_cache(&mut self, cache: StepCache, mode: CacheMode) {
        self.artifacts.attach_cas(cache.cas().clone());
        self.step_cache = Some(cache);
        self.cache_mode = mode;
    }

    pub fn step_cache(&self) -> Option<&StepCache> {
        self.step_cache.as_ref()
    }

    pub fn cache_mode(&self) -> CacheMode {
        self.cache_mode
    }

    /// Salt folded into every step key's prior-result chain. Callers set
    /// this to a digest of whatever world state influences execution but is
    /// not visible in the step inputs themselves (e.g. the simulation seed
    /// that jitters runtimes) so recordings from one world are never
    /// replayed into another.
    pub fn set_cache_salt(&mut self, salt: Digest) {
        self.cache_salt = salt;
    }

    pub fn cache_salt(&self) -> Digest {
        self.cache_salt
    }

    /// Register (or refresh) the software-stack fingerprint for an endpoint
    /// name, `"*"` for the global fallback.
    pub fn set_stack_fingerprint(&mut self, endpoint: &str, digest: Digest) {
        let key = self.interner.intern(endpoint);
        if self.stacks.by_endpoint.insert(key, digest) != Some(digest) {
            self.stacks.epoch += 1;
        }
    }

    /// The currently registered stack fingerprint for an endpoint name.
    pub fn stack_fingerprint(&self, endpoint: &str) -> Option<Digest> {
        self.stacks.by_endpoint.get(endpoint).copied()
    }

    /// Register a marketplace/custom action under its `uses:` name.
    pub fn register_action(&mut self, name: &str, action: Arc<dyn Action>) {
        self.actions.insert(name.to_string(), action);
    }

    /// Install a workflow file for a repository.
    pub fn add_workflow(&mut self, repo: &str, workflow: WorkflowDef) {
        let repo = self.interner.intern(repo);
        for t in &workflow.on {
            if let TriggerEvent::Schedule { period_secs } = t {
                self.schedules.push(Schedule {
                    repo: repo.clone(),
                    workflow: self.interner.intern(&workflow.name),
                    period: SimDuration::from_secs(*period_secs),
                    next_fire: SimTime::ZERO + SimDuration::from_secs(*period_secs),
                });
            }
        }
        let order = workflow.job_order().map(|order| {
            // Ids are unique in a workflow `job_order` accepts.
            let position = |job: &JobDef| workflow.jobs.iter().position(|j| j.id == job.id);
            order.into_iter().filter_map(position).collect()
        });
        self.workflows.entry(repo).or_default().push(Installed {
            shape: Arc::new(Shape {
                def: workflow,
                order,
            }),
            plans: Vec::new(),
        });
    }

    /// Define a deployment environment for a repository.
    pub fn add_environment(&mut self, repo: &str, env: Environment) {
        let repo = self.interner.intern(repo);
        let name = self.interner.intern(&env.name);
        self.environments.entry(repo).or_default().insert(name, env);
    }

    pub fn environment(&self, repo: &str, name: &str) -> Result<&Environment, CiError> {
        self.environments
            .get(repo)
            .and_then(|envs| envs.get(name))
            .ok_or_else(|| CiError::UnknownEnvironment(name.to_string()))
    }

    /// Repository-level env var (`env:` block).
    pub fn set_env_var(&mut self, repo: &str, key: &str, value: &str) {
        let repo = self.interner.intern(repo);
        Arc::make_mut(self.env_vars.entry(repo).or_default())
            .insert(key.to_string(), value.to_string());
    }

    pub fn run(&self, id: RunId) -> Result<&WorkflowRun, CiError> {
        id.0
            .checked_sub(1)
            .and_then(|i| self.runs.get(i as usize))
            .ok_or(CiError::UnknownRun(id))
    }

    fn run_mut(&mut self, id: RunId) -> Option<&mut WorkflowRun> {
        id.0.checked_sub(1).and_then(|i| self.runs.get_mut(i as usize))
    }

    pub fn runs(&self) -> impl Iterator<Item = &WorkflowRun> {
        self.runs.iter()
    }

    /// Runs currently blocked on an approval.
    pub fn awaiting_approval(&self) -> Vec<RunId> {
        self.runs
            .iter()
            .filter(|r| r.status == RunStatus::AwaitingApproval)
            .map(|r| r.id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Triggering
    // ------------------------------------------------------------------

    /// Handle a push webhook: instantiate a run for every workflow in the
    /// repository with a matching push trigger.
    pub fn on_push(
        &mut self,
        repo: &str,
        branch: &str,
        commit: &str,
        now: SimTime,
    ) -> Result<Vec<RunId>, CiError> {
        // Matching workflows are collected as Arc clones (not name
        // re-lookups): instantiation skips a second search.
        let matching: Vec<Arc<Shape>> = self
            .workflows
            .get(repo)
            .map(|list| {
                list.iter()
                    .filter(|w| w.shape.def.on.iter().any(|t| t.matches_push(branch)))
                    .map(|w| w.shape.clone())
                    .collect()
            })
            .unwrap_or_default();
        matching
            .into_iter()
            .map(|w| self.instantiate_def(repo, &w, branch, commit, now))
            .collect()
    }

    /// Handle a pull-request webhook.
    pub fn on_pull_request(
        &mut self,
        repo: &str,
        head_branch: &str,
        commit: &str,
        now: SimTime,
    ) -> Result<Vec<RunId>, CiError> {
        let matching: Vec<Arc<Shape>> = self
            .workflows
            .get(repo)
            .map(|list| {
                list.iter()
                    .filter(|w| {
                        let on = &w.shape.def.on;
                        on.iter().any(|t| matches!(t, TriggerEvent::PullRequest))
                    })
                    .map(|w| w.shape.clone())
                    .collect()
            })
            .unwrap_or_default();
        matching
            .into_iter()
            .map(|w| self.instantiate_def(repo, &w, head_branch, commit, now))
            .collect()
    }

    /// Manual `workflow_dispatch`.
    pub fn dispatch(
        &mut self,
        repo: &str,
        workflow: &str,
        branch: &str,
        commit: &str,
        now: SimTime,
    ) -> Result<RunId, CiError> {
        let shape = self.installed(repo, workflow)?.shape.clone();
        self.instantiate_def(repo, &shape, branch, commit, now)
    }

    /// Fire due schedules; returns `(repo, workflow)` pairs the caller should
    /// `dispatch` with the current head commit (the engine does not know the
    /// repository contents). The pairs are interned symbol clones — firing a
    /// schedule allocates nothing.
    pub fn due_schedules(&mut self, now: SimTime) -> Vec<(Sym, Sym)> {
        let mut fired = Vec::new();
        for s in &mut self.schedules {
            while s.next_fire <= now {
                fired.push((s.repo.clone(), s.workflow.clone()));
                s.next_fire += s.period;
            }
        }
        fired
    }

    fn installed(&self, repo: &str, name: &str) -> Result<&Installed, CiError> {
        self.workflows
            .get(repo)
            .and_then(|list| list.iter().find(|w| w.shape.def.name == name))
            .ok_or_else(|| CiError::UnknownWorkflow {
                repo: repo.to_string(),
                workflow: name.to_string(),
            })
    }

    fn installed_mut(&mut self, repo: &str, name: &str) -> Option<&mut Installed> {
        let list = self.workflows.get_mut(repo)?;
        list.iter_mut().find(|w| w.shape.def.name == name)
    }

    fn instantiate_def(
        &mut self,
        repo: &str,
        shape: &Shape,
        branch: &str,
        commit: &str,
        now: SimTime,
    ) -> Result<RunId, CiError> {
        let def = &shape.def;
        // Validate job graph and environment references up front.
        if let Err((job, needs)) = &shape.order {
            return Err(CiError::BadJobDependency {
                job: job.clone(),
                needs: needs.clone(),
            });
        }
        let mut needs_approval = false;
        let repo_envs = self.environments.get(repo);
        for job in &def.jobs {
            if let Some(env_name) = &job.environment {
                let env = repo_envs
                    .and_then(|envs| envs.get(env_name.as_str()))
                    .ok_or_else(|| CiError::UnknownEnvironment(env_name.clone()))?;
                if !env.branch_allowed(branch) {
                    return Err(CiError::BranchNotAllowed {
                        environment: env_name.clone(),
                        branch: branch.to_string(),
                    });
                }
                needs_approval |= env.requires_approval();
            }
        }
        self.next_run += 1;
        let id = RunId(self.next_run);
        let status = if needs_approval {
            RunStatus::AwaitingApproval
        } else {
            RunStatus::Queued
        };
        // Repo, workflow and branch names repeat across runs — intern them.
        // Commits are unique per push: a standalone `Sym` keeps them out of
        // the intern table so it stays bounded by the identifier population.
        let run = WorkflowRun {
            id,
            repo: self.interner.intern(repo),
            workflow: self.interner.intern(&def.name),
            branch: self.interner.intern(branch),
            commit: Sym::from(commit),
            status,
            triggered_at: now,
            started_at: None,
            ended_at: None,
            approved_by: None,
            steps: Vec::new(),
        };
        debug_assert_eq!(self.runs.len() as u64 + 1, id.0, "dense run arena");
        self.runs.push(run);
        if status == RunStatus::Queued {
            self.ready.push_back((id, now));
        }
        self.counters.runs_total += 1;
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Approval
    // ------------------------------------------------------------------

    /// Approve an awaiting run. `reviewer` must be a required reviewer of
    /// *every* approval-gated environment the run's jobs target.
    pub fn approve(&mut self, id: RunId, reviewer: &str, now: SimTime) -> Result<(), CiError> {
        let run = self.run(id)?;
        if run.status != RunStatus::AwaitingApproval {
            return Err(CiError::NotAwaitingApproval(id));
        }
        let repo = run.repo.clone();
        let def = &self.installed(&repo, &run.workflow)?.shape.def;
        let repo_envs = self.environments.get(repo.as_str());
        let mut max_wait = SimDuration::ZERO;
        for job in &def.jobs {
            if let Some(env_name) = &job.environment {
                let env = repo_envs
                    .and_then(|envs| envs.get(env_name.as_str()))
                    .ok_or_else(|| CiError::UnknownEnvironment(env_name.clone()))?;
                if env.requires_approval() && !env.is_required_reviewer(reviewer) {
                    return Err(CiError::NotARequiredReviewer {
                        run: id,
                        user: reviewer.to_string(),
                    });
                }
                max_wait = max_wait.max(env.wait_timer);
            }
        }
        let approved_by = self.interner.intern(reviewer);
        let run = self.run_mut(id).expect("looked up above");
        run.status = RunStatus::Queued;
        run.approved_by = Some(approved_by);
        self.ready.push_back((id, now + max_wait));
        Ok(())
    }

    /// Reject an awaiting run.
    pub fn reject(&mut self, id: RunId, reviewer: &str) -> Result<(), CiError> {
        let run = self.run(id)?;
        if run.status != RunStatus::AwaitingApproval {
            return Err(CiError::NotAwaitingApproval(id));
        }
        let repo = run.repo.clone();
        let def = &self.installed(&repo, &run.workflow)?.shape.def;
        let repo_envs = self.environments.get(repo.as_str());
        for job in &def.jobs {
            if let Some(env_name) = &job.environment {
                if let Some(env) = repo_envs.and_then(|envs| envs.get(env_name.as_str())) {
                    if env.requires_approval() && !env.is_required_reviewer(reviewer) {
                        return Err(CiError::NotARequiredReviewer {
                            run: id,
                            user: reviewer.to_string(),
                        });
                    }
                }
            }
        }
        let run = self.run_mut(id).expect("looked up above");
        run.status = RunStatus::Rejected;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Execute every run whose earliest-start has arrived. Returns the ids
    /// executed, in order.
    pub fn execute_ready(&mut self, driver: &mut dyn WorldDriver) -> Vec<RunId> {
        let mut executed = Vec::new();
        while let Some((id, earliest)) = self.ready.pop_front() {
            if driver.now() < earliest {
                // Wait timer not yet elapsed: let virtual time pass.
                driver.sleep(earliest.since(driver.now()));
            }
            self.execute_run(id, driver);
            executed.push(id);
        }
        executed
    }

    fn execute_run(&mut self, id: RunId, driver: &mut dyn WorldDriver) {
        let (repo, workflow, branch, commit) = {
            let run = self.run_mut(id).expect("queued run exists");
            run.status = RunStatus::Running;
            run.started_at = Some(driver.now());
            // Interned handles: four pointer bumps, not four string copies.
            (
                run.repo.clone(),
                run.workflow.clone(),
                run.branch.clone(),
                run.commit.clone(),
            )
        };
        let cache = match self.cache_mode {
            CacheMode::Off => None,
            _ => self.step_cache.clone(),
        };
        // `Arc` clone — instantiating the run never deep-copies the def. The
        // run borrows the workflow's job plans for its duration and hands
        // them back at the end: steps execute under `&mut self`.
        let installed = self
            .installed_mut(&repo, &workflow)
            .expect("validated at instantiation");
        let shape = installed.shape.clone();
        let mut plans = std::mem::take(&mut installed.plans);
        plans.resize_with(shape.def.jobs.len(), || None);
        let span = self.obs.span_start_with(
            "ci.run",
            || format!("{repo}/{workflow} {id}"),
            driver.now(),
        );
        let org = repo.split('/').next().unwrap_or(&repo);
        let repo_env_vars = self
            .env_vars
            .get(repo.as_str())
            .unwrap_or(&self.no_env_vars)
            .clone();

        let jobs = &shape.def.jobs;
        let order = shape.order.as_deref().unwrap_or_default();
        let mut failed_jobs: Vec<&str> = Vec::new();
        let mut run_failed = false;
        let mut steps_acc: Vec<StepRun> =
            Vec::with_capacity(jobs.iter().map(|job| job.steps.len()).sum());
        // Running digest over every prior step result in the run: later step
        // keys depend on it, so an upstream change invalidates downstream.
        let mut chain = self.cache_salt;
        // Contents of a hit's artifacts between taking their CAS references
        // and listing them; reused across the run's steps.
        let mut replayed_artifacts: Vec<bytes::Bytes> = Vec::new();

        for &job_ix in order {
            let job = &jobs[job_ix];
            if job.needs.iter().any(|n| failed_jobs.contains(&n.as_str())) {
                failed_jobs.push(&job.id);
                continue;
            }
            let job_sym = self.interner.intern(&job.id);
            let runner = match self.runners.select(&job.runs_on) {
                Ok(r) => r,
                Err(e) => {
                    run_failed = true;
                    failed_jobs.push(&job.id);
                    let outcome = StepOutcome {
                        success: false,
                        stderr: e.to_string(),
                        ..StepOutcome::default()
                    };
                    if cache.is_some() {
                        chain = chain_digest(chain, result_digest(&outcome));
                    }
                    steps_acc.push(StepRun {
                        job: job_sym,
                        step: Sym::Static("<runner>"),
                        outcome: Arc::new(outcome),
                        started: driver.now(),
                        ended: driver.now(),
                    });
                    continue;
                }
            };
            driver.sleep(runner.startup);
            let secrets = self.secrets.resolve(org, &repo, job.environment.as_deref());
            // Everything keying-related is gated on a live cache: with
            // `CacheMode::Off` no stem, key, digest, or chain work runs.
            let stacks = cache.as_ref().map(|_| &self.stacks);
            let slot = &mut plans[job_ix];
            let kept = slot
                .take()
                .filter(|plan| plan.absorbed(&secrets, &repo_env_vars, runner, stacks));
            let plan = slot.insert(kept.unwrap_or_else(|| {
                let env = &repo_env_vars;
                JobPlan::build(job, &secrets, env, runner, stacks, &mut self.interner)
            }));
            let mut job_failed = false;
            for (step_ix, step) in job.steps.iter().enumerate() {
                let planned = &plan.steps[step_ix];
                let step_sym = planned.id.clone();
                let keyed = cache
                    .as_ref()
                    .zip(planned.stem.as_ref())
                    .map(|(cache, stem)| (cache, stem.finish(&commit, chain)));

                // Replay: a hit skips execution entirely — the recorded
                // outcome is shared (not copied), its artifacts re-attached
                // by address, and virtual time advances by the recorded
                // duration, so the replayed timeline matches the recorded one
                // exactly. An entry whose artifacts this store no longer
                // holds cannot be replayed: it is a miss.
                let hit = match &keyed {
                    Some((cache, key)) if self.cache_mode == CacheMode::Replay => cache
                        .lookup(key)
                        .filter(|e| {
                            self.artifacts
                                .retain_cached(&e.artifacts, &mut replayed_artifacts)
                        })
                        .map(|entry| (*cache, entry)),
                    _ => None,
                };
                let (rec, result) = if let Some((cache, entry)) = hit {
                    cache.note_hit();
                    self.counters.step_cache_hits += 1;
                    self.obs.observe("ci.step_replay_us", entry.duration_us);
                    let started = driver.now();
                    driver.sleep(SimDuration::from_micros(entry.duration_us));
                    let ended = driver.now();
                    for ((name, digest, _), content) in
                        entry.artifacts.iter().zip(replayed_artifacts.drain(..))
                    {
                        self.counters.artifact_logical_bytes += content.len() as u64;
                        self.artifacts.attach(id, name, *digest, content, ended);
                    }
                    let rec = StepRun {
                        job: job_sym.clone(),
                        step: step_sym,
                        outcome: entry.outcome.clone(),
                        started,
                        ended,
                    };
                    (rec, entry.result)
                } else {
                    let started = driver.now();
                    let result = self.execute_step(
                        &step.action,
                        plan,
                        step_ix,
                        &repo,
                        &branch,
                        &commit,
                        &steps_acc,
                        driver,
                    );
                    let ended = driver.now();
                    // Only a live cache consumes the refs; `Vec::new` itself
                    // never allocates, so cache-off pays nothing here.
                    let mut artifact_refs: Vec<(String, Digest, u64)> = Vec::new();
                    for (name, content) in result.artifacts {
                        // Logical is what the step produced, stored is what
                        // the CAS grew by (zero for a duplicate; without a
                        // CAS the two are equal).
                        let len = content.len() as u64;
                        let (digest, stored) =
                            self.artifacts.upload_accounted(id, &name, content, ended);
                        self.counters.artifact_logical_bytes += len;
                        self.counters.artifact_stored_bytes += stored;
                        if keyed.is_some() {
                            artifact_refs.push((name, digest, len));
                        }
                    }
                    // Outputs are masked like the log: CORRECT copies the
                    // task's raw stdout/stderr into them, and they flow on
                    // into the step cache, provenance and transcripts.
                    let mut outputs = result.outputs;
                    for value in outputs.values_mut() {
                        *value = self.secrets.mask(std::mem::take(value));
                    }
                    // The log stays in the run arena for good: give back the
                    // spare capacity the action's string building left behind.
                    let mut stdout = self.secrets.mask(result.stdout);
                    let mut stderr = self.secrets.mask(result.stderr);
                    stdout.shrink_to_fit();
                    stderr.shrink_to_fit();
                    let outcome = Arc::new(StepOutcome {
                        success: result.success,
                        stdout,
                        stderr,
                        outputs,
                        infra: result.infra,
                    });
                    let mut digest = Digest::NONE;
                    if let Some((cache, key)) = &keyed {
                        // Hashed here and nowhere else: the entry carries it.
                        digest = result_digest(&outcome);
                        if outcome.infra != Infra::Untouched {
                            cache.note_uncacheable();
                            self.counters.step_cache_uncacheable += 1;
                        } else {
                            cache.note_miss();
                            self.counters.step_cache_misses += 1;
                            cache.record_outcome(
                                key,
                                outcome.clone(),
                                digest,
                                artifact_refs,
                                ended.since(started).as_micros(),
                            );
                        }
                    }
                    let rec = StepRun {
                        job: job_sym.clone(),
                        step: step_sym,
                        outcome,
                        started,
                        ended,
                    };
                    (rec, digest)
                };
                if let Some((_, key)) = &keyed {
                    chain = chain_digest(key.0, result);
                }
                let success = rec.success;
                steps_acc.push(rec);
                if !success {
                    // Soft failure (`continue-on-error`): later steps still
                    // run (so stdout/stderr artifacts upload regardless of
                    // outcome, §6.2), but the run is reported failed either
                    // way — the UI must show the red X of Fig. 5.
                    run_failed = true;
                    if !step.continue_on_error {
                        job_failed = true;
                        break;
                    }
                }
            }
            if job_failed {
                failed_jobs.push(&job.id);
                run_failed = true;
            }
        }

        if let Some(installed) = self.installed_mut(&repo, &workflow) {
            installed.plans = plans;
        }
        self.obs.span_end(span, driver.now());
        let run = self.run_mut(id).expect("still exists");
        run.steps = steps_acc;
        run.ended_at = Some(driver.now());
        run.status = if run_failed { RunStatus::Failure } else { RunStatus::Success };
    }

    /// Execute step `step_ix` of `plan`'s job: the plan's secrets and env
    /// are the ones the step interpolates under.
    #[allow(clippy::too_many_arguments)]
    fn execute_step(
        &mut self,
        action: &StepAction,
        plan: &mut JobPlan,
        step_ix: usize,
        repo: &Sym,
        branch: &Sym,
        commit: &Sym,
        prior_steps: &[StepRun],
        driver: &mut dyn WorldDriver,
    ) -> crate::action::StepResult {
        use crate::action::StepResult;
        match action {
            StepAction::Run { command } => {
                // The runner-side shell: commands cost a base latency and
                // fail only when explicitly told to (tests exercise the
                // control flow, not a shell implementation).
                let cmd = interpolate_cow(command, &plan.secrets, &plan.env);
                driver.sleep(SimDuration::from_millis(800));
                if cmd.contains("exit 1") {
                    StepResult::fail(format!("$ {cmd}\ncommand failed with exit code 1"))
                } else {
                    StepResult::ok(format!("$ {cmd}\nok"))
                }
            }
            StepAction::Uses { action: name, .. } => {
                let Some(implementation) = self.actions.get(name).cloned() else {
                    return StepResult::fail(format!("unknown action: {name}"));
                };
                let mut ctx = StepContext {
                    repo: repo.clone(),
                    branch: branch.clone(),
                    commit: commit.clone(),
                    inputs: plan.inputs(step_ix, action),
                    env: plan.env.clone(),
                    driver,
                };
                implementation.run(&mut ctx)
            }
            StepAction::UploadArtifact { name, from_step } => {
                let Some(source) = prior_steps.iter().find(|s| s.step == from_step.as_str()) else {
                    return StepResult::fail(format!("upload-artifact: no prior step `{from_step}`"));
                };
                let mut content = source.stdout.clone();
                if !source.stderr.is_empty() {
                    content.push_str("\n--- stderr ---\n");
                    content.push_str(&source.stderr);
                }
                StepResult::ok(format!("uploaded artifact {name}"))
                    .with_artifact(name, content)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::NullDriver;
    use crate::cache::StepCache;
    use crate::environment::Environment;
    use crate::secrets::{Secret, SecretScope};
    use crate::workflow::{JobDef, StepDef, WorkflowDef};

    fn engine_with_workflow(workflow: WorkflowDef) -> CiEngine {
        let mut e = CiEngine::new();
        e.add_workflow("globus-labs/app", workflow);
        e
    }

    fn simple_workflow() -> WorkflowDef {
        WorkflowDef::new("ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("test")
                    .with_step(StepDef::run("install", "pip install -r requirements.txt"))
                    .with_step(StepDef::run("pytest", "pytest -v")),
            )
    }

    #[test]
    fn push_triggers_and_run_succeeds() {
        let mut e = engine_with_workflow(simple_workflow());
        let runs = e
            .on_push("globus-labs/app", "main", "abc123", SimTime::ZERO)
            .unwrap();
        assert_eq!(runs.len(), 1);
        let mut driver = NullDriver::new();
        let executed = e.execute_ready(&mut driver);
        assert_eq!(executed, runs);
        let run = e.run(runs[0]).unwrap();
        assert_eq!(run.status, RunStatus::Success);
        assert_eq!(run.steps.len(), 2);
        assert!(run.badge().contains("passing"));
        assert!(run.started_at.unwrap() < run.ended_at.unwrap());
    }

    #[test]
    fn push_to_unmatched_branch_is_ignored() {
        let wf = WorkflowDef::new("ci")
            .on_event(TriggerEvent::push_to("main"))
            .with_job(JobDef::new("j").with_step(StepDef::run("s", "true")));
        let mut e = engine_with_workflow(wf);
        let runs = e.on_push("globus-labs/app", "dev", "abc", SimTime::ZERO).unwrap();
        assert!(runs.is_empty());
    }

    #[test]
    fn failing_step_fails_run_and_skips_rest() {
        let wf = WorkflowDef::new("ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("test")
                    .with_step(StepDef::run("boom", "bash -c 'exit 1'"))
                    .with_step(StepDef::run("after", "echo unreachable")),
            )
            .with_job(JobDef::new("deploy").with_needs(&["test"]).with_step(StepDef::run("d", "deploy")));
        let mut e = engine_with_workflow(wf);
        let runs = e.on_push("globus-labs/app", "main", "abc", SimTime::ZERO).unwrap();
        let mut driver = NullDriver::new();
        e.execute_ready(&mut driver);
        let run = e.run(runs[0]).unwrap();
        assert_eq!(run.status, RunStatus::Failure);
        // Only the failing step ran; `after` skipped; `deploy` job skipped.
        assert_eq!(run.steps.len(), 1);
        assert!(run.steps[0].stderr.contains("exit code 1") || run.steps[0].stdout.contains("exit"));
    }

    #[test]
    fn continue_on_error_lets_artifact_upload_happen() {
        // §6.2's pattern: store stdout/stderr artifacts regardless of outcome.
        let wf = WorkflowDef::new("psij-ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("test")
                    .with_step(StepDef::run("pytest", "bash -c 'exit 1'").allow_failure())
                    .with_step(StepDef::upload_artifact("save", "pytest-output", "pytest")),
            );
        let mut e = engine_with_workflow(wf);
        let runs = e.on_push("globus-labs/app", "main", "abc", SimTime::ZERO).unwrap();
        let mut driver = NullDriver::new();
        e.execute_ready(&mut driver);
        let run = e.run(runs[0]).unwrap();
        assert_eq!(run.steps.len(), 2, "upload ran despite failure");
        let artifact = e
            .artifacts
            .fetch(runs[0], "pytest-output", driver.now())
            .unwrap();
        assert!(artifact.text().contains("exit code 1"));
        // The run is still reported failed (Fig. 5's red X), even though the
        // soft failure let the artifact upload proceed.
        assert_eq!(run.status, RunStatus::Failure);
    }

    #[test]
    fn environment_approval_gates_execution() {
        let wf = WorkflowDef::new("hpc-ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("remote")
                    .with_environment("anvil-vhayot")
                    .with_step(StepDef::run("s", "run tests")),
            );
        let mut e = engine_with_workflow(wf);
        e.add_environment(
            "globus-labs/app",
            Environment::new("anvil-vhayot").with_reviewer("vhayot"),
        );
        let runs = e.on_push("globus-labs/app", "main", "abc", SimTime::ZERO).unwrap();
        let id = runs[0];
        assert_eq!(e.run(id).unwrap().status, RunStatus::AwaitingApproval);

        // Nothing executes before approval.
        let mut driver = NullDriver::new();
        assert!(e.execute_ready(&mut driver).is_empty());

        // A non-reviewer cannot approve.
        assert!(matches!(
            e.approve(id, "mallory", SimTime::from_secs(5)),
            Err(CiError::NotARequiredReviewer { .. })
        ));

        e.approve(id, "vhayot", SimTime::from_secs(10)).unwrap();
        let executed = e.execute_ready(&mut driver);
        assert_eq!(executed, vec![id]);
        let run = e.run(id).unwrap();
        assert_eq!(run.status, RunStatus::Success);
        assert_eq!(run.approved_by.as_deref(), Some("vhayot"));
    }

    #[test]
    fn rejection_terminates_run() {
        let wf = WorkflowDef::new("hpc-ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("remote")
                    .with_environment("e")
                    .with_step(StepDef::run("s", "x")),
            );
        let mut e = engine_with_workflow(wf);
        e.add_environment("globus-labs/app", Environment::new("e").with_reviewer("r"));
        let id = e.on_push("globus-labs/app", "main", "c", SimTime::ZERO).unwrap()[0];
        e.reject(id, "r").unwrap();
        assert_eq!(e.run(id).unwrap().status, RunStatus::Rejected);
        assert!(matches!(
            e.approve(id, "r", SimTime::ZERO),
            Err(CiError::NotAwaitingApproval(_))
        ));
    }

    #[test]
    fn branch_restriction_blocks_run_creation() {
        let wf = WorkflowDef::new("hpc-ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("remote")
                    .with_environment("prod")
                    .with_step(StepDef::run("s", "x")),
            );
        let mut e = engine_with_workflow(wf);
        e.add_environment(
            "globus-labs/app",
            Environment::new("prod").restrict_branch("main"),
        );
        assert!(matches!(
            e.on_push("globus-labs/app", "evil-branch", "c", SimTime::ZERO),
            Err(CiError::BranchNotAllowed { .. })
        ));
        assert!(e.on_push("globus-labs/app", "main", "c", SimTime::ZERO).is_ok());
    }

    #[test]
    fn secrets_are_masked_in_logs() {
        let mut e = CiEngine::new();
        e.secrets.put(
            SecretScope::Repository("globus-labs/app".into()),
            Secret::new("TOKEN", "hunter2-value"),
        );
        e.add_workflow(
            "globus-labs/app",
            WorkflowDef::new("ci")
                .on_event(TriggerEvent::push_any())
                .with_job(
                    JobDef::new("j")
                        .with_step(StepDef::run("leak", "curl -H 'auth: ${{ secrets.TOKEN }}'")),
                ),
        );
        let id = e.on_push("globus-labs/app", "main", "c", SimTime::ZERO).unwrap()[0];
        let mut driver = NullDriver::new();
        e.execute_ready(&mut driver);
        let log = e.run(id).unwrap().full_log();
        assert!(!log.contains("hunter2-value"), "secret leaked: {log}");
        assert!(log.contains("***"));
    }

    /// Echoes its `token` input into stdout, stderr and two outputs, the way
    /// CORRECT copies a task's raw streams into `outputs`.
    struct Leaky;
    impl Action for Leaky {
        fn run(&self, ctx: &mut StepContext<'_>) -> crate::action::StepResult {
            let token = ctx.input("token").unwrap_or("-").to_string();
            let mut result = crate::action::StepResult::ok(format!("stdout saw {token}"))
                .with_output("stdout", format!("stdout saw {token}"))
                .with_output("exit_code", "0");
            result.stderr = format!("warning: {token} on stderr");
            result
        }
    }

    /// One run of a two-job workflow whose steps echo both visible secrets.
    fn leaky_run(e: &mut CiEngine) -> WorkflowRun {
        let step = |id: &str, secret: &str| {
            let token = format!("${{{{ secrets.{secret} }}}}");
            StepDef::uses(id, "acme/leaky@v1", &[("token", token.as_str())])
        };
        e.register_action("acme/leaky@v1", Arc::new(Leaky));
        e.secrets.put(
            SecretScope::Repository("globus-labs/app".into()),
            Secret::new("REPO_TOKEN", "repo-visible-value"),
        );
        e.secrets.put(
            SecretScope::Organization("globus-labs".into()),
            Secret::new("ORG_TOKEN", "org-visible-value"),
        );
        e.add_workflow(
            "globus-labs/app",
            WorkflowDef::new("ci")
                .on_event(TriggerEvent::push_any())
                .with_job(JobDef::new("a").with_step(step("repo", "REPO_TOKEN")))
                .with_job(
                    JobDef::new("b")
                        .with_step(step("org", "ORG_TOKEN"))
                        .with_step(StepDef::run("plain", "make check")),
                ),
        );
        let id = e.on_push("globus-labs/app", "main", "c", SimTime::ZERO).unwrap()[0];
        e.execute_ready(&mut NullDriver::new());
        e.run(id).unwrap().clone()
    }

    #[test]
    fn secrets_echoed_into_step_outputs_are_masked() {
        let run = leaky_run(&mut CiEngine::new());
        assert_eq!(run.status, RunStatus::Success);
        let step = run.step("repo").unwrap();
        assert_eq!(step.stdout, "stdout saw ***");
        assert_eq!(step.stderr, "warning: *** on stderr");
        assert_eq!(step.outputs["stdout"], "stdout saw ***");
        assert_eq!(step.outputs["exit_code"], "0");
        assert!(!format!("{run:?}").contains("visible-value"));
    }

    #[test]
    fn a_run_does_not_depend_on_how_many_other_secrets_are_stored() {
        let alone = leaky_run(&mut CiEngine::new());
        let mut crowded = CiEngine::new();
        for i in 0..4096 {
            crowded.secrets.put(
                SecretScope::Environment {
                    repo: format!("tenant-{}/repo", i % 512),
                    environment: format!("site-{}", i / 512),
                },
                Secret::new("GLOBUS_SECRET", &format!("unrelated-{i:05}-{:08x}", i * 2_654_435_761u64)),
            );
        }
        let crowded = leaky_run(&mut crowded);
        assert_eq!(crowded.full_log(), alone.full_log());
        assert_eq!(crowded.badge(), alone.badge());
        assert_eq!(crowded.steps.len(), alone.steps.len());
        for (c, a) in crowded.steps.iter().zip(&alone.steps) {
            assert_eq!((&c.stdout, &c.stderr, &c.outputs), (&a.stdout, &a.stderr, &a.outputs));
        }
    }

    fn artifact_workflow() -> WorkflowDef {
        WorkflowDef::new("ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("test")
                    .with_step(StepDef::run("pytest", "pytest -v"))
                    .with_step(StepDef::upload_artifact("save", "pytest-output", "pytest")),
            )
    }

    /// Push one commit and execute it at `at`; returns the run and the
    /// cache's `(hits, misses)` the run added.
    fn push_at(e: &mut CiEngine, at: SimTime) -> (RunId, (u64, u64)) {
        let cache = e.step_cache().expect("cache installed").clone();
        let before = cache.stats();
        let id = e.on_push("globus-labs/app", "main", "abc123", at).unwrap()[0];
        let mut driver = NullDriver::new();
        driver.now = at;
        e.execute_ready(&mut driver);
        let after = cache.stats();
        (id, (after.hits - before.hits, after.misses - before.misses))
    }

    /// §7.4's 90-day retention releases the producing run's CAS reference;
    /// the cache entry that names the artifact must still be able to replay
    /// it (it used to panic on `expect("cached artifact in CAS")`).
    #[test]
    fn a_replay_hit_survives_the_retention_purge_of_its_producer() {
        let mut e = engine_with_workflow(artifact_workflow());
        let cache = StepCache::new();
        e.set_step_cache(cache.clone(), CacheMode::Replay);
        let (first, cold) = push_at(&mut e, SimTime::ZERO);
        assert_eq!(cold, (0, 2));
        let recorded = e
            .artifacts
            .fetch(first, "pytest-output", SimTime::ZERO)
            .unwrap()
            .clone();

        let day91 = SimTime::from_secs(91 * 24 * 3600);
        assert_eq!(e.artifacts.purge_expired(day91), 1);
        assert!(e.artifacts.is_empty());
        assert!(
            cache.cas().contains(recorded.digest),
            "the entry holds its own reference"
        );
        assert_eq!(
            cache.cas().stats().logical_bytes,
            0,
            "a pin is not logical bytes"
        );

        let (second, warm) = push_at(&mut e, day91);
        assert_eq!(warm, (2, 0), "both steps replay");
        assert_eq!(e.run(second).unwrap().status, RunStatus::Success);
        let replayed = e.artifacts.fetch(second, "pytest-output", day91).unwrap();
        assert_eq!(replayed.content, recorded.content);
        assert_eq!(replayed.digest, recorded.digest);
        assert_eq!(
            cache.cas().stats().logical_bytes,
            recorded.content.len() as u64
        );
    }

    /// An entry whose artifact the artifact store's CAS does not hold — a
    /// foreign store here, an entry injected through `StepCache::record`
    /// elsewhere — is a miss: the step executes and is recorded again.
    #[test]
    fn a_hit_whose_artifact_is_missing_executes_as_a_miss() {
        let mut e = engine_with_workflow(artifact_workflow());
        let cache = StepCache::new();
        e.set_step_cache(cache.clone(), CacheMode::Replay);
        let (first, _) = push_at(&mut e, SimTime::ZERO);
        let recorded = e.run(first).unwrap().clone();

        e.artifacts.attach_cas(hpcci_cas::CasStore::new());
        let (second, stats) = push_at(&mut e, SimTime::from_secs(60));
        assert_eq!(
            stats,
            (1, 1),
            "`pytest` replays, `save` cannot and re-executes"
        );
        let rerun = e.run(second).unwrap();
        assert_eq!(rerun.status, RunStatus::Success);
        for (a, b) in recorded.steps.iter().zip(&rerun.steps) {
            assert_eq!((&a.step, &a.outcome), (&b.step, &b.outcome));
        }
        let artifacts = e.artifacts.of_run(second, SimTime::from_secs(60));
        assert_eq!(
            artifacts.len(),
            1,
            "executed once, not attached and then uploaded again"
        );
        assert_eq!(artifacts[0].text(), "$ pytest -v\nok");
        // The foreign store now holds it, so the next run replays both.
        assert_eq!(push_at(&mut e, SimTime::from_secs(120)).1, (2, 0));
    }

    #[test]
    fn custom_action_via_registry() {
        struct Probe;
        impl Action for Probe {
            fn run(&self, ctx: &mut StepContext<'_>) -> crate::action::StepResult {
                crate::action::StepResult::ok(format!(
                    "repo={} branch={} input={}",
                    ctx.repo,
                    ctx.branch,
                    ctx.input("param").unwrap_or("-")
                ))
            }
        }
        let mut e = CiEngine::new();
        e.register_action("acme/probe@v1", Arc::new(Probe));
        e.set_env_var("o/r", "PARAM", "from-env");
        e.add_workflow(
            "o/r",
            WorkflowDef::new("ci")
                .on_event(TriggerEvent::push_any())
                .with_job(
                    JobDef::new("j").with_step(StepDef::uses(
                        "probe",
                        "acme/probe@v1",
                        &[("param", "${{ env.PARAM }}")],
                    )),
                ),
        );
        let id = e.on_push("o/r", "main", "deadbeef", SimTime::ZERO).unwrap()[0];
        let mut driver = NullDriver::new();
        e.execute_ready(&mut driver);
        let run = e.run(id).unwrap();
        assert!(run.steps[0].stdout.contains("repo=o/r"));
        assert!(run.steps[0].stdout.contains("input=from-env"));
    }

    #[test]
    fn unknown_action_fails_step() {
        let mut e = engine_with_workflow(
            WorkflowDef::new("ci")
                .on_event(TriggerEvent::push_any())
                .with_job(JobDef::new("j").with_step(StepDef::uses("x", "ghost/action@v9", &[]))),
        );
        let id = e.on_push("globus-labs/app", "main", "c", SimTime::ZERO).unwrap()[0];
        let mut driver = NullDriver::new();
        e.execute_ready(&mut driver);
        assert_eq!(e.run(id).unwrap().status, RunStatus::Failure);
    }

    #[test]
    fn schedules_fire_periodically() {
        let wf = WorkflowDef::new("nightly")
            .on_event(TriggerEvent::Schedule { period_secs: 3600 })
            .with_job(JobDef::new("j").with_step(StepDef::run("s", "x")));
        let mut e = engine_with_workflow(wf);
        assert!(e.due_schedules(SimTime::from_secs(3599)).is_empty());
        let due = e.due_schedules(SimTime::from_secs(7200));
        assert_eq!(due.len(), 2, "two periods elapsed");
        assert_eq!(due[0].0, "globus-labs/app");
        assert_eq!(due[0].1, "nightly");
        // Next poll fires nothing until the next period.
        assert!(e.due_schedules(SimTime::from_secs(7200)).is_empty());
    }

    #[test]
    fn dispatch_requires_known_workflow() {
        let mut e = engine_with_workflow(simple_workflow());
        assert!(e.dispatch("globus-labs/app", "ci", "main", "c", SimTime::ZERO).is_ok());
        assert!(matches!(
            e.dispatch("globus-labs/app", "ghost", "main", "c", SimTime::ZERO),
            Err(CiError::UnknownWorkflow { .. })
        ));
    }

    #[test]
    fn wait_timer_delays_execution() {
        let wf = WorkflowDef::new("hpc-ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("remote")
                    .with_environment("gated")
                    .with_step(StepDef::run("s", "x")),
            );
        let mut e = engine_with_workflow(wf);
        e.add_environment(
            "globus-labs/app",
            Environment::new("gated")
                .with_reviewer("r")
                .with_wait_timer(SimDuration::from_secs(300)),
        );
        let id = e.on_push("globus-labs/app", "main", "c", SimTime::ZERO).unwrap()[0];
        e.approve(id, "r", SimTime::from_secs(10)).unwrap();
        let mut driver = NullDriver::new();
        e.execute_ready(&mut driver);
        let run = e.run(id).unwrap();
        assert!(run.started_at.unwrap() >= SimTime::from_secs(310), "wait timer honored");
    }

    fn gated_workflow(env: &str) -> WorkflowDef {
        WorkflowDef::new("hpc-ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("remote")
                    .with_environment(env)
                    .with_step(StepDef::run("s", "run tests")),
            )
    }

    #[test]
    fn awaiting_approval_tracks_gate_lifecycle() {
        let mut e = engine_with_workflow(gated_workflow("anvil"));
        e.add_environment(
            "globus-labs/app",
            Environment::new("anvil").with_reviewer("vhayot"),
        );
        let a = e.on_push("globus-labs/app", "main", "c1", SimTime::ZERO).unwrap()[0];
        let b = e.on_push("globus-labs/app", "main", "c2", SimTime::from_secs(1)).unwrap()[0];
        assert_eq!(e.awaiting_approval(), vec![a, b]);

        e.approve(a, "vhayot", SimTime::from_secs(2)).unwrap();
        assert_eq!(e.awaiting_approval(), vec![b], "approved run left the gate");

        e.reject(b, "vhayot").unwrap();
        assert!(e.awaiting_approval().is_empty(), "rejected run left the gate");
        assert_eq!(e.run(b).unwrap().status, RunStatus::Rejected);
    }

    /// Every identifier the approval path stores and every byte the run
    /// renders must be unchanged by interning: the strings below are the
    /// contract the golden traces (and scenario transcripts) pin.
    #[test]
    fn approval_identifiers_pinned_across_interning() {
        let mut e = engine_with_workflow(gated_workflow("anvil-vhayot"));
        e.add_environment(
            "globus-labs/app",
            Environment::new("anvil-vhayot").with_reviewer("vhayot"),
        );
        let id = e.on_push("globus-labs/app", "main", "abc123", SimTime::ZERO).unwrap()[0];
        e.approve(id, "vhayot", SimTime::from_secs(5)).unwrap();
        let mut driver = NullDriver::new();
        e.execute_ready(&mut driver);

        let run = e.run(id).unwrap();
        assert_eq!(run.repo.as_str(), "globus-labs/app");
        assert_eq!(run.workflow.as_str(), "hpc-ci");
        assert_eq!(run.branch.as_str(), "main");
        assert_eq!(run.commit.as_str(), "abc123");
        assert_eq!(run.approved_by.as_deref(), Some("vhayot"));
        assert_eq!(run.badge(), "[hpc-ci | passing]");
        assert_eq!(
            run.full_log(),
            "### remote/s [ok]\n$ run tests\nok\n",
            "rendered log bytes must not move under interning"
        );
    }

    /// Scheduled firing returns interned pairs that dispatch cleanly and
    /// re-arm: the dispatch → execute → full_log chain is pinned byte-wise.
    #[test]
    fn due_schedule_pairs_dispatch_and_render_identically() {
        let wf = WorkflowDef::new("nightly")
            .on_event(TriggerEvent::Schedule { period_secs: 3600 })
            .with_job(JobDef::new("j").with_step(StepDef::run("s", "pytest -q")));
        let mut e = engine_with_workflow(wf);
        let due = e.due_schedules(SimTime::from_secs(3600));
        assert_eq!(due.len(), 1);
        let (repo, workflow) = &due[0];
        let id = e
            .dispatch(repo, workflow, "main", "headsha", SimTime::from_secs(3600))
            .unwrap();
        let mut driver = NullDriver::new();
        driver.now = SimTime::from_secs(3600);
        e.execute_ready(&mut driver);
        let run = e.run(id).unwrap();
        assert_eq!(run.status, RunStatus::Success);
        assert_eq!(run.workflow.as_str(), "nightly");
        assert_eq!(run.full_log(), "### j/s [ok]\n$ pytest -q\nok\n");
        // Firing again inside the same period yields nothing.
        assert!(e.due_schedules(SimTime::from_secs(3600)).is_empty());
    }
}
