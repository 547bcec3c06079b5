//! The typed scenario model and its canonical TOML form.
//!
//! A [`ScenarioSpec`] is the *declarative* description of one federation
//! experiment: which sites exist, which endpoints run on them, which
//! workload repository/workflow is under test, what fault schedule applies,
//! and how pushes arrive over virtual time. Specs are plain data — building
//! and running them is [`crate::compile`] / [`crate::run`]'s job, so one
//! document drives both the library scenarios and the CLI fleet.
//!
//! Every tunable is an **integer** (`task_ms`, `gap_secs`, percentages):
//! integers have exactly one decimal rendering, which is what makes
//! `to_toml` a canonical form — `from_toml(to_toml(s)) == s` *and*
//! `to_toml(from_toml(text)) == text` for canonical `text`, byte for byte.

use crate::toml::{self, quote, FromValue, Reader, Value};
use hpcci_cas::Digest;
use hpcci_cluster::Site;
use hpcci_sim::{FaultKind, FaultPlan, SimDuration, SimTime};
use std::fmt::Write as _;

/// Version stamped into every document; bump when the grammar changes
/// incompatibly so old fixtures fail loudly instead of misparsing.
pub const SCHEMA_VERSION: u64 = 1;

/// Validation / parse error for a scenario document.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<toml::TomlError> for SpecError {
    fn from(e: toml::TomlError) -> Self {
        SpecError(e.to_string())
    }
}

/// The federated identity driving the scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct UserSpec {
    /// Local login used as commit author, reviewer, and approval identity.
    pub login: String,
    /// Federated identity (`login@provider` by convention).
    pub email: String,
    /// Identity provider domain.
    pub provider: String,
}

impl Default for UserSpec {
    fn default() -> Self {
        UserSpec {
            login: "vhayot".into(),
            email: "vhayot@uchicago.edu".into(),
            provider: "uchicago.edu".into(),
        }
    }
}

/// Which repository/workflow family the scenario exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Generated repo + generated workflow driving the `scen-test` command —
    /// the shape the seeded generator mass-produces.
    Synthetic,
    /// §6.1 ParslDock multi-site pytest.
    Parsldock,
    /// §6.2 PSI/J single-site pytest (supports the Fig. 5 dependency fault).
    Psij,
    /// §6.3 KaMPIng artifact suite (workflow_dispatch trigger).
    Kamping,
}

impl WorkloadKind {
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadKind::Synthetic => "synthetic",
            WorkloadKind::Parsldock => "parsldock",
            WorkloadKind::Psij => "psij",
            WorkloadKind::Kamping => "kamping",
        }
    }
}

impl FromValue for WorkloadKind {
    fn from_value(value: &Value) -> Result<Self, String> {
        Ok(match String::from_value(value)?.as_str() {
            "synthetic" => WorkloadKind::Synthetic,
            "parsldock" => WorkloadKind::Parsldock,
            "psij" => WorkloadKind::Psij,
            "kamping" => WorkloadKind::Kamping,
            other => return Err(format!("is `{other}`, not a workload kind")),
        })
    }
}

/// The workload: repository under test plus the knobs that shape the
/// synthetic variant (preset kinds ignore the synthetic-only fields).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    pub kind: WorkloadKind,
    /// `"owner/name"` of the repository under test.
    pub repo: String,
    /// Name of the installed workflow.
    pub workflow: String,
    /// Synthetic: registered site command each CORRECT step invokes.
    pub command: String,
    /// Synthetic: total tests the command reports.
    pub tests: u32,
    /// Synthetic: how many of those tests fail (0 = green suite).
    pub failing: u32,
    /// Synthetic: per-step simulated work, in milliseconds.
    pub task_ms: u64,
    /// Synthetic: generated source files in the repository tree.
    pub repo_files: u32,
    /// Synthetic: chained CORRECT steps per job (workflow depth).
    pub steps_per_job: u32,
    /// Psij: the site's `packages` leave a requirement out on purpose (Fig.
    /// 5's failure), so the attribution oracle expects a `test` failure
    /// whose stderr names it.
    pub missing_dependency: bool,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            kind: WorkloadKind::Synthetic,
            repo: "scen/generated".into(),
            workflow: "scen-ci".into(),
            command: "scen-test".into(),
            tests: 8,
            failing: 0,
            task_ms: 2000,
            repo_files: 3,
            steps_per_job: 1,
            missing_dependency: false,
        }
    }
}

/// Which arrival process shapes the gaps between trigger rounds. `Bursty`
/// is the historical sampler (and the implied process of every spec written
/// before this key existed); the others lower onto the corresponding
/// [`hpcci_sim::ArrivalProcess`] variants with `gap_secs` as the mean gap.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum TrafficProcess {
    /// Jittered fixed gap with a burst chance — the legacy sampler,
    /// bit-compatible with specs that never mention `process`.
    #[default]
    Bursty,
    /// Memoryless exponential gaps with mean `gap_secs`.
    Poisson,
    /// Poisson modulated by a 24-hour rate curve; `peak_pct` scales how far
    /// the curve swings from the flat mean (0 = flat, 100 = full GitHub-day
    /// amplitude).
    Diurnal { peak_pct: u32 },
    /// Replay recorded inter-arrival gaps (µs), cycling when exhausted.
    Trace { gaps_us: Vec<u64> },
}

impl TrafficProcess {
    pub fn kind(&self) -> &'static str {
        match self {
            TrafficProcess::Bursty => "bursty",
            TrafficProcess::Poisson => "poisson",
            TrafficProcess::Diurnal { .. } => "diurnal",
            TrafficProcess::Trace { .. } => "trace",
        }
    }
}

/// How pushes arrive over virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    /// Trigger rounds (pushes, or dispatches for `workflow_dispatch`).
    pub pushes: u32,
    /// Nominal virtual gap between rounds, in seconds.
    pub gap_secs: u64,
    /// Percent chance a round arrives in a burst (an eighth of the nominal
    /// gap) instead of after the full jittered gap. Only the bursty process
    /// reads this.
    pub burstiness_pct: u32,
    /// The arrival process (see [`TrafficProcess`]); absent key = `Bursty`.
    pub process: TrafficProcess,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            pushes: 1,
            gap_secs: 300,
            burstiness_pct: 0,
            process: TrafficProcess::Bursty,
        }
    }
}

impl TrafficSpec {
    /// Lower onto the typed engine process. The bursty arm reproduces the
    /// legacy gap arithmetic bit-for-bit; the others use `gap_secs` as the
    /// mean with the same `max(8)` µs floor the legacy sampler applied.
    pub fn arrival_process(&self) -> hpcci_sim::ArrivalProcess {
        let mean_gap_us = self.gap_secs.saturating_mul(1_000_000).max(8);
        match &self.process {
            TrafficProcess::Bursty => hpcci_sim::ArrivalProcess::Bursty {
                gap_secs: self.gap_secs,
                burstiness_pct: self.burstiness_pct,
            },
            TrafficProcess::Poisson => hpcci_sim::ArrivalProcess::Poisson { mean_gap_us },
            TrafficProcess::Diurnal { peak_pct } => hpcci_sim::ArrivalProcess::Diurnal {
                mean_gap_us,
                day_secs: 86_400,
                peak_pct: *peak_pct,
            },
            TrafficProcess::Trace { gaps_us } => hpcci_sim::ArrivalProcess::Trace {
                gaps_us: gaps_us.clone(),
            },
        }
    }

    /// The full workload this traffic block declares (process + round count),
    /// ready for `FederationBuilder::workload`.
    pub fn workload(&self) -> hpcci_sim::Workload {
        hpcci_sim::Workload::new(self.arrival_process()).arrivals(self.pushes as u64)
    }
}

/// Step-cache mode the scenario runs under (see `hpcci_ci::CacheMode`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheModeDecl {
    #[default]
    Off,
    Record,
    Replay,
}

impl CacheModeDecl {
    pub fn as_str(self) -> &'static str {
        match self {
            CacheModeDecl::Off => "off",
            CacheModeDecl::Record => "record",
            CacheModeDecl::Replay => "replay",
        }
    }
}

impl FromValue for CacheModeDecl {
    fn from_value(value: &Value) -> Result<Self, String> {
        Ok(match String::from_value(value)?.as_str() {
            "off" => CacheModeDecl::Off,
            "record" => CacheModeDecl::Record,
            "replay" => CacheModeDecl::Replay,
            other => return Err(format!("is `{other}`, not a cache mode")),
        })
    }
}

/// One site of the federation, by preset name.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteSpec {
    /// `chameleon-tacc`, `tamu-faster`, `sdsc-expanse`, `purdue-anvil`, or
    /// `workstation:<name>` for an ad-hoc workstation.
    pub preset: String,
    /// Scheduler cores (ignored by schedulerless presets).
    pub cores: u32,
    /// Local account created on the site.
    pub account: String,
    /// Allocation the account charges against.
    pub allocation: String,
    /// CI environment name the workflow job targeting this site uses.
    pub environment: String,
    /// Software environment (e.g. Conda env) to create; empty = none.
    pub software_env: String,
    /// `name=version` package installs into `software_env`.
    pub packages: Vec<String>,
}

impl SiteSpec {
    /// Instantiate the cluster-model [`Site`] this spec names.
    pub fn site(&self) -> Result<Site, SpecError> {
        Ok(match self.preset.as_str() {
            "chameleon-tacc" => Site::chameleon_tacc(),
            "tamu-faster" => Site::tamu_faster(),
            "sdsc-expanse" => Site::sdsc_expanse(),
            "purdue-anvil" => Site::purdue_anvil(),
            other => match other.strip_prefix("workstation:") {
                Some(name) if !name.is_empty() => Site::workstation(name),
                _ => return Err(SpecError(format!("unknown site preset `{other}`"))),
            },
        })
    }

    /// Whether the preset has a batch scheduler (HPC presets do; the cloud
    /// and workstation presets run everything on the login node).
    pub fn has_scheduler(&self) -> bool {
        matches!(
            self.preset.as_str(),
            "tamu-faster" | "sdsc-expanse" | "purdue-anvil"
        )
    }

    /// The site's runtime name (`Site.id`), needed for scheduler fault
    /// targets and identity-mapping domains.
    pub fn site_name(&self) -> String {
        match self.preset.strip_prefix("workstation:") {
            Some(name) => name.to_string(),
            None => self.preset.clone(),
        }
    }
}

/// MEP template shape for multi-user endpoints.
#[derive(Clone, Debug, PartialEq)]
pub enum TemplateDecl {
    /// Tasks run on the login node (§6.2 PSI/J style).
    LoginOnly,
    /// `git` on the login node, tasks in SLURM pilots (§6.1 style).
    HpcSplit { cores: u32, walltime_secs: u64 },
}

/// Endpoint shapes the DSL can declare.
#[derive(Clone, Debug, PartialEq)]
pub enum EndpointKindDecl {
    /// Single-user endpoint on the login node, running as the site account.
    Single,
    /// Single-user endpoint backed by SLURM pilot jobs.
    Pilot { cores: u32, walltime_secs: u64 },
    /// Multi-user endpoint; the scenario user's federated identity is mapped
    /// to the site account.
    MultiUser {
        template: TemplateDecl,
        /// Container image reference, empty = bare.
        container: String,
    },
}

/// One compute endpoint, attached to a site by index.
#[derive(Clone, Debug, PartialEq)]
pub struct EndpointDecl {
    pub name: String,
    /// Index into [`ScenarioSpec::sites`].
    pub site: u32,
    pub kind: EndpointKindDecl,
}

/// One explicitly scheduled fault (mirrors `hpcci_sim::FaultKind`).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultDecl {
    /// Earliest virtual time the fault may fire, in microseconds.
    pub at_us: u64,
    pub kind: FaultKindDecl,
}

#[derive(Clone, Debug, PartialEq)]
pub enum FaultKindDecl {
    EndpointCrash { endpoint: String },
    MepForkFailure { endpoint: String, user: String },
    NodeDrain { scheduler: String },
    WanPartition { endpoint: String, heal_secs: u64 },
    TokenExpiry,
    ArtifactCorruption { artifact: String },
}

impl FaultKindDecl {
    pub fn to_fault(&self) -> FaultKind {
        match self {
            FaultKindDecl::EndpointCrash { endpoint } => FaultKind::EndpointCrash {
                endpoint: endpoint.clone(),
            },
            FaultKindDecl::MepForkFailure { endpoint, user } => FaultKind::MepForkFailure {
                endpoint: endpoint.clone(),
                user: user.clone(),
            },
            FaultKindDecl::NodeDrain { scheduler } => FaultKind::NodeDrain {
                scheduler: scheduler.clone(),
            },
            FaultKindDecl::WanPartition {
                endpoint,
                heal_secs,
            } => FaultKind::WanPartition {
                endpoint: endpoint.clone(),
                heal_after: SimDuration::from_secs(*heal_secs),
            },
            FaultKindDecl::TokenExpiry => FaultKind::TokenExpiry,
            FaultKindDecl::ArtifactCorruption { artifact } => FaultKind::ArtifactCorruption {
                name: artifact.clone(),
            },
        }
    }
}

/// A seed-derived chaos schedule layered on top of the explicit faults
/// (compiled through `FaultPlan::randomized` against the spec's endpoint
/// and scheduler names).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSpec {
    pub seed: u64,
    pub horizon_secs: u64,
    pub count: u32,
}

/// Provenance stamped by the generator: which generator seed/index and which
/// knob values produced this spec. Because the knobs are part of the
/// document, perturbing *any* generator knob changes the spec digest even
/// when the sampled scenario happens to coincide.
#[derive(Clone, Debug, PartialEq)]
pub struct GenProvenance {
    pub seed: u64,
    pub index: u64,
    /// `name=value` pairs, in the generator's fixed knob order.
    pub knobs: Vec<String>,
}

/// The complete declarative scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    pub name: String,
    /// World seed handed to `Federation::builder` (and to the synthetic
    /// tree/traffic streams).
    pub seed: u64,
    pub user: UserSpec,
    pub workload: WorkloadSpec,
    pub traffic: TrafficSpec,
    pub cache: CacheModeDecl,
    pub sites: Vec<SiteSpec>,
    pub endpoints: Vec<EndpointDecl>,
    pub faults: Vec<FaultDecl>,
    pub chaos: Option<ChaosSpec>,
    pub provenance: Option<GenProvenance>,
}

impl ScenarioSpec {
    /// A minimal single-workstation synthetic scenario, for tests and as a
    /// template.
    pub fn minimal(name: &str, seed: u64) -> Self {
        ScenarioSpec {
            name: name.into(),
            seed,
            user: UserSpec::default(),
            workload: WorkloadSpec::default(),
            traffic: TrafficSpec::default(),
            cache: CacheModeDecl::Off,
            sites: vec![SiteSpec {
                preset: "workstation:wks-0".into(),
                cores: 8,
                account: "u0".into(),
                allocation: "LOCAL".into(),
                environment: "env-wks-0".into(),
                software_env: String::new(),
                packages: Vec::new(),
            }],
            endpoints: vec![EndpointDecl {
                name: "ep-wks-0".into(),
                site: 0,
                kind: EndpointKindDecl::Single,
            }],
            faults: Vec::new(),
            chaos: None,
            provenance: None,
        }
    }

    /// Structural validation beyond what parsing enforces.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError("scenario name is empty".into()));
        }
        if self.sites.is_empty() {
            return Err(SpecError("scenario declares no sites".into()));
        }
        if self.endpoints.is_empty() {
            return Err(SpecError("scenario declares no endpoints".into()));
        }
        let mut site_names = Vec::new();
        for (ix, s) in self.sites.iter().enumerate() {
            s.site()?; // preset resolves
            let name = s.site_name();
            if site_names.contains(&name) {
                return Err(SpecError(format!("duplicate site `{name}`")));
            }
            site_names.push(name);
            if s.environment.is_empty() {
                return Err(SpecError(format!("site {ix} has an empty environment")));
            }
            for p in &s.packages {
                if !p.contains('=') {
                    return Err(SpecError(format!(
                        "site {ix} package `{p}` is not `name=version`"
                    )));
                }
            }
        }
        let mut ep_names = Vec::new();
        for ep in &self.endpoints {
            let site = self.sites.get(ep.site as usize).ok_or_else(|| {
                SpecError(format!(
                    "endpoint `{}` references missing site index {}",
                    ep.name, ep.site
                ))
            })?;
            // An empty name reaches the CORRECT step as no endpoint at all.
            if ep.name.is_empty() {
                return Err(SpecError(format!("endpoint on site {} has no name", ep.site)));
            }
            if ep_names.contains(&ep.name) {
                return Err(SpecError(format!("duplicate endpoint `{}`", ep.name)));
            }
            ep_names.push(ep.name.clone());
            // Pilots need the site's scheduler, whichever endpoint submits them.
            let pilots = matches!(
                ep.kind,
                EndpointKindDecl::Pilot { .. }
                    | EndpointKindDecl::MultiUser {
                        template: TemplateDecl::HpcSplit { .. },
                        ..
                    }
            );
            if pilots && !site.has_scheduler() {
                return Err(SpecError(format!(
                    "pilot endpoint `{}` targets schedulerless site `{}`",
                    ep.name, site.preset
                )));
            }
        }
        if !self.workload.repo.contains('/') {
            return Err(SpecError(format!(
                "workload repo `{}` is not `owner/name`",
                self.workload.repo
            )));
        }
        if self.workload.kind == WorkloadKind::Synthetic {
            if self.workload.command.is_empty() {
                return Err(SpecError("synthetic workload has an empty command".into()));
            }
            if self.workload.tests == 0 {
                return Err(SpecError("synthetic workload declares zero tests".into()));
            }
            if self.workload.failing > self.workload.tests {
                return Err(SpecError(format!(
                    "synthetic workload fails {} of {} tests",
                    self.workload.failing, self.workload.tests
                )));
            }
            if self.workload.steps_per_job == 0 {
                return Err(SpecError("synthetic workload has zero steps per job".into()));
            }
        }
        if self.traffic.pushes == 0 {
            return Err(SpecError("traffic declares zero pushes".into()));
        }
        match &self.traffic.process {
            TrafficProcess::Diurnal { peak_pct } if *peak_pct > 100 => {
                return Err(SpecError(format!(
                    "diurnal traffic peak_pct {peak_pct} exceeds 100"
                )));
            }
            TrafficProcess::Trace { gaps_us } if gaps_us.is_empty() => {
                return Err(SpecError("trace traffic declares no gaps".into()));
            }
            _ => {}
        }
        // What a run holds grows with these keys and is kept to the end
        // (≈ 19 KB a push under `verify`), so a value past its bound would
        // exhaust memory before any oracle could judge it.
        let at_most = |key: &str, value: u32, bound: u32| {
            if value > bound {
                return Err(SpecError(format!("{key} = {value} exceeds its bound of {bound}")));
            }
            Ok(())
        };
        at_most("[traffic] pushes", self.traffic.pushes, 10_000)?;
        at_most("[workload] tests", self.workload.tests, 10_000)?;
        at_most("[workload] repo_files", self.workload.repo_files, 1_024)?;
        at_most("[workload] steps_per_job", self.workload.steps_per_job, 64)?;
        // The simulated clock counts microseconds in a u64: a time key
        // (seconds, or `task_ms`) beyond it has no instant to mean.
        const SECS: u64 = 1_000_000;
        let fits = |key: &str, value: u64, micros: u64| match value.checked_mul(micros) {
            Some(_) => Ok(()),
            None => Err(SpecError(format!(
                "{key} = {value} overflows the simulated clock (microseconds in a u64)"
            ))),
        };
        fits("[workload] task_ms", self.workload.task_ms, 1_000)?;
        fits("[traffic] gap_secs", self.traffic.gap_secs, SECS)?;
        for ep in &self.endpoints {
            if let EndpointKindDecl::Pilot { walltime_secs, .. }
            | EndpointKindDecl::MultiUser {
                template: TemplateDecl::HpcSplit { walltime_secs, .. },
                ..
            } = ep.kind
            {
                fits("[[endpoints]] walltime_secs", walltime_secs, SECS)?;
            }
        }
        for fault in &self.faults {
            if let FaultKindDecl::WanPartition { heal_secs, .. } = fault.kind {
                fits("[[faults]] heal_secs", heal_secs, SECS)?;
            }
        }
        if let Some(chaos) = &self.chaos {
            fits("[chaos] horizon_secs", chaos.horizon_secs, SECS)?;
        }
        // A fault that names nothing never fires, and a pending fault keeps
        // the injector armed: the run would advance every endpoint at every
        // step to its end. Artifact names are not declared, so
        // `artifact-corruption` cannot be checked.
        for (ix, fault) in self.faults.iter().enumerate() {
            let (target, named, what) = match &fault.kind {
                FaultKindDecl::EndpointCrash { endpoint }
                | FaultKindDecl::WanPartition { endpoint, .. } => {
                    (endpoint, self.endpoints.iter().any(|e| e.name == *endpoint), "endpoint")
                }
                FaultKindDecl::MepForkFailure { endpoint, .. } => (
                    endpoint,
                    self.endpoints.iter().any(|e| {
                        e.name == *endpoint && matches!(e.kind, EndpointKindDecl::MultiUser { .. })
                    }),
                    "multi-user endpoint",
                ),
                FaultKindDecl::NodeDrain { scheduler } => (
                    scheduler,
                    self.sites
                        .iter()
                        .any(|s| s.has_scheduler() && s.site_name() == *scheduler),
                    "site with a scheduler",
                ),
                FaultKindDecl::TokenExpiry | FaultKindDecl::ArtifactCorruption { .. } => continue,
            };
            if !named {
                return Err(SpecError(format!(
                    "[[faults]] #{ix}: target `{target}` names no declared {what}"
                )));
            }
        }
        // A workflow the engine would refuse at every trigger is a bad
        // document; it is built last, once every size key is in bounds.
        let workflow = self.workflow_def();
        if let Err(e) = workflow.job_order() {
            return Err(SpecError(format!("workflow `{}`: {e}", workflow.name)));
        }
        Ok(())
    }

    /// Fault targets chaos plans draw from: every endpoint name, then every
    /// scheduler (HPC site) name, in declaration order.
    pub fn fault_targets(&self) -> Vec<String> {
        let mut targets: Vec<String> =
            self.endpoints.iter().map(|e| e.name.clone()).collect();
        for s in &self.sites {
            if s.has_scheduler() {
                targets.push(s.site_name());
            }
        }
        targets
    }

    /// The full fault plan: explicit declarations first (in document order),
    /// then the chaos schedule when present.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        for f in &self.faults {
            plan = plan.with_fault(SimTime::from_micros(f.at_us), f.kind.to_fault());
        }
        if let Some(chaos) = &self.chaos {
            let targets = self.fault_targets();
            let refs: Vec<&str> = targets.iter().map(|s| s.as_str()).collect();
            let random = FaultPlan::randomized(
                chaos.seed,
                SimDuration::from_secs(chaos.horizon_secs),
                chaos.count as usize,
                &refs,
            );
            for spec in random.specs() {
                plan = plan.with_fault(spec.at, spec.kind.clone());
            }
        }
        plan
    }

    /// Content digest of the canonical document — the identity scenario
    /// tooling compares and logs.
    pub fn digest(&self) -> Digest {
        Digest::of_str(&self.to_toml())
    }

    // ------------------------------------------------------------------
    // Canonical serialization
    // ------------------------------------------------------------------

    /// Render the canonical TOML document: fixed key order, fixed table
    /// order, integers only — the byte-exact identity of the spec.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "# hpcci scenario (schema {SCHEMA_VERSION})");
        let _ = writeln!(w, "schema = {SCHEMA_VERSION}");
        let _ = writeln!(w, "name = {}", quote(&self.name));
        let _ = writeln!(w, "seed = {}", self.seed);

        let _ = writeln!(w, "\n[user]");
        let _ = writeln!(w, "login = {}", quote(&self.user.login));
        let _ = writeln!(w, "email = {}", quote(&self.user.email));
        let _ = writeln!(w, "provider = {}", quote(&self.user.provider));

        let wl = &self.workload;
        let _ = writeln!(w, "\n[workload]");
        let _ = writeln!(w, "kind = {}", quote(wl.kind.as_str()));
        let _ = writeln!(w, "repo = {}", quote(&wl.repo));
        let _ = writeln!(w, "workflow = {}", quote(&wl.workflow));
        match wl.kind {
            WorkloadKind::Synthetic => {
                let _ = writeln!(w, "command = {}", quote(&wl.command));
                let _ = writeln!(w, "tests = {}", wl.tests);
                let _ = writeln!(w, "failing = {}", wl.failing);
                let _ = writeln!(w, "task_ms = {}", wl.task_ms);
                let _ = writeln!(w, "repo_files = {}", wl.repo_files);
                let _ = writeln!(w, "steps_per_job = {}", wl.steps_per_job);
            }
            WorkloadKind::Psij => {
                let _ = writeln!(w, "missing_dependency = {}", wl.missing_dependency);
            }
            WorkloadKind::Parsldock | WorkloadKind::Kamping => {}
        }

        let _ = writeln!(w, "\n[traffic]");
        let _ = writeln!(w, "pushes = {}", self.traffic.pushes);
        let _ = writeln!(w, "gap_secs = {}", self.traffic.gap_secs);
        let _ = writeln!(w, "burstiness_pct = {}", self.traffic.burstiness_pct);
        // The bursty default renders exactly the three historical lines so
        // pre-process specs (and the pinned fixtures) stay byte-identical.
        match &self.traffic.process {
            TrafficProcess::Bursty => {}
            TrafficProcess::Poisson => {
                let _ = writeln!(w, "process = \"poisson\"");
            }
            TrafficProcess::Diurnal { peak_pct } => {
                let _ = writeln!(w, "process = \"diurnal\"");
                let _ = writeln!(w, "peak_pct = {peak_pct}");
            }
            TrafficProcess::Trace { gaps_us } => {
                let _ = writeln!(w, "process = \"trace\"");
                let gaps: Vec<String> = gaps_us.iter().map(|g| g.to_string()).collect();
                let _ = writeln!(w, "trace_us = [{}]", gaps.join(", "));
            }
        }

        let _ = writeln!(w, "\n[cache]");
        let _ = writeln!(w, "mode = {}", quote(self.cache.as_str()));

        for s in &self.sites {
            let _ = writeln!(w, "\n[[sites]]");
            let _ = writeln!(w, "preset = {}", quote(&s.preset));
            let _ = writeln!(w, "cores = {}", s.cores);
            let _ = writeln!(w, "account = {}", quote(&s.account));
            let _ = writeln!(w, "allocation = {}", quote(&s.allocation));
            let _ = writeln!(w, "environment = {}", quote(&s.environment));
            let _ = writeln!(w, "software_env = {}", quote(&s.software_env));
            let pkgs: Vec<String> = s.packages.iter().map(|p| quote(p)).collect();
            let _ = writeln!(w, "packages = [{}]", pkgs.join(", "));
        }

        for ep in &self.endpoints {
            let _ = writeln!(w, "\n[[endpoints]]");
            let _ = writeln!(w, "name = {}", quote(&ep.name));
            let _ = writeln!(w, "site = {}", ep.site);
            match &ep.kind {
                EndpointKindDecl::Single => {
                    let _ = writeln!(w, "kind = \"single\"");
                }
                EndpointKindDecl::Pilot {
                    cores,
                    walltime_secs,
                } => {
                    let _ = writeln!(w, "kind = \"pilot\"");
                    let _ = writeln!(w, "cores = {cores}");
                    let _ = writeln!(w, "walltime_secs = {walltime_secs}");
                }
                EndpointKindDecl::MultiUser {
                    template,
                    container,
                } => {
                    let _ = writeln!(w, "kind = \"multi-user\"");
                    match template {
                        TemplateDecl::LoginOnly => {
                            let _ = writeln!(w, "template = \"login-only\"");
                        }
                        TemplateDecl::HpcSplit {
                            cores,
                            walltime_secs,
                        } => {
                            let _ = writeln!(w, "template = \"hpc-split\"");
                            let _ = writeln!(w, "cores = {cores}");
                            let _ = writeln!(w, "walltime_secs = {walltime_secs}");
                        }
                    }
                    if !container.is_empty() {
                        let _ = writeln!(w, "container = {}", quote(container));
                    }
                }
            }
        }

        for f in &self.faults {
            let _ = writeln!(w, "\n[[faults]]");
            let _ = writeln!(w, "at_us = {}", f.at_us);
            match &f.kind {
                FaultKindDecl::EndpointCrash { endpoint } => {
                    let _ = writeln!(w, "kind = \"endpoint-crash\"");
                    let _ = writeln!(w, "endpoint = {}", quote(endpoint));
                }
                FaultKindDecl::MepForkFailure { endpoint, user } => {
                    let _ = writeln!(w, "kind = \"mep-fork-failure\"");
                    let _ = writeln!(w, "endpoint = {}", quote(endpoint));
                    let _ = writeln!(w, "user = {}", quote(user));
                }
                FaultKindDecl::NodeDrain { scheduler } => {
                    let _ = writeln!(w, "kind = \"node-drain\"");
                    let _ = writeln!(w, "scheduler = {}", quote(scheduler));
                }
                FaultKindDecl::WanPartition {
                    endpoint,
                    heal_secs,
                } => {
                    let _ = writeln!(w, "kind = \"wan-partition\"");
                    let _ = writeln!(w, "endpoint = {}", quote(endpoint));
                    let _ = writeln!(w, "heal_secs = {heal_secs}");
                }
                FaultKindDecl::TokenExpiry => {
                    let _ = writeln!(w, "kind = \"token-expiry\"");
                }
                FaultKindDecl::ArtifactCorruption { artifact } => {
                    let _ = writeln!(w, "kind = \"artifact-corruption\"");
                    let _ = writeln!(w, "artifact = {}", quote(artifact));
                }
            }
        }

        if let Some(chaos) = &self.chaos {
            let _ = writeln!(w, "\n[chaos]");
            let _ = writeln!(w, "seed = {}", chaos.seed);
            let _ = writeln!(w, "horizon_secs = {}", chaos.horizon_secs);
            let _ = writeln!(w, "count = {}", chaos.count);
        }

        if let Some(p) = &self.provenance {
            let _ = writeln!(w, "\n[generator]");
            let _ = writeln!(w, "seed = {}", p.seed);
            let _ = writeln!(w, "index = {}", p.index);
            let knobs: Vec<String> = p.knobs.iter().map(|k| quote(k)).collect();
            let _ = writeln!(w, "knobs = [{}]", knobs.join(", "));
        }

        out
    }

    /// Parse a document and validate it. Keys are read per `kind` exactly as
    /// [`Self::to_toml`] writes them; any other key, or a key whose value has
    /// the wrong type, is refused with the table and the key named.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let root = toml::parse(text)?;
        let spec = Reader::read(&root, "document".into(), |r| {
            let schema: u64 = r.req("schema")?;
            if schema != SCHEMA_VERSION {
                return Err(SpecError(format!(
                    "unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"
                )));
            }
            Ok(ScenarioSpec {
                name: r.req("name")?,
                seed: r.req("seed")?,
                user: r.table("user", |t| {
                    Ok(UserSpec {
                        login: t.req("login")?,
                        email: t.req("email")?,
                        provider: t.req("provider")?,
                    })
                })?,
                workload: r.table("workload", read_workload)?,
                traffic: r.table("traffic", read_traffic)?,
                cache: r.table("cache", |t| t.req("mode"))?,
                sites: r.tables("sites", |t| {
                    Ok(SiteSpec {
                        preset: t.req("preset")?,
                        cores: t.req("cores")?,
                        account: t.req("account")?,
                        allocation: t.req("allocation")?,
                        environment: t.req("environment")?,
                        software_env: t.req("software_env")?,
                        packages: t.req("packages")?,
                    })
                })?,
                endpoints: r.tables("endpoints", read_endpoint)?,
                faults: r.tables("faults", read_fault)?,
                chaos: r.opt_table("chaos", |t| {
                    Ok(ChaosSpec {
                        seed: t.req("seed")?,
                        horizon_secs: t.req("horizon_secs")?,
                        count: t.req("count")?,
                    })
                })?,
                provenance: r.opt_table("generator", |t| {
                    Ok(GenProvenance {
                        seed: t.req("seed")?,
                        index: t.req("index")?,
                        knobs: t.req("knobs")?,
                    })
                })?,
            })
        })?;
        spec.validate()?;
        Ok(spec)
    }
}

fn read_workload(t: &mut Reader) -> Result<WorkloadSpec, SpecError> {
    let kind = t.req("kind")?;
    let mut w = WorkloadSpec {
        kind,
        repo: t.req("repo")?,
        workflow: t.req("workflow")?,
        ..WorkloadSpec::default()
    };
    match kind {
        WorkloadKind::Synthetic => {
            w.command = t.req("command")?;
            w.tests = t.req("tests")?;
            w.failing = t.req("failing")?;
            w.task_ms = t.req("task_ms")?;
            w.repo_files = t.req("repo_files")?;
            w.steps_per_job = t.req("steps_per_job")?;
        }
        WorkloadKind::Psij => w.missing_dependency = t.req("missing_dependency")?,
        WorkloadKind::Parsldock | WorkloadKind::Kamping => {}
    }
    Ok(w)
}

fn read_traffic(t: &mut Reader) -> Result<TrafficSpec, SpecError> {
    Ok(TrafficSpec {
        pushes: t.req("pushes")?,
        gap_secs: t.req("gap_secs")?,
        burstiness_pct: t.req("burstiness_pct")?,
        // A bursty process is written as no `process` key at all.
        process: match t.opt::<String>("process")?.as_deref() {
            None => TrafficProcess::Bursty,
            Some("poisson") => TrafficProcess::Poisson,
            Some("diurnal") => TrafficProcess::Diurnal {
                peak_pct: t.req("peak_pct")?,
            },
            Some("trace") => TrafficProcess::Trace {
                gaps_us: t.req("trace_us")?,
            },
            Some(other) => {
                return Err(t.err(format!("unknown process `{other}` (poisson|diurnal|trace)")))
            }
        },
    })
}

fn read_endpoint(t: &mut Reader) -> Result<EndpointDecl, SpecError> {
    let (name, site) = (t.req("name")?, t.req("site")?);
    let kind = match t.req::<String>("kind")?.as_str() {
        "single" => EndpointKindDecl::Single,
        "pilot" => EndpointKindDecl::Pilot {
            cores: t.req("cores")?,
            walltime_secs: t.req("walltime_secs")?,
        },
        "multi-user" => {
            let template = match t.req::<String>("template")?.as_str() {
                "login-only" => TemplateDecl::LoginOnly,
                "hpc-split" => TemplateDecl::HpcSplit {
                    cores: t.req("cores")?,
                    walltime_secs: t.req("walltime_secs")?,
                },
                other => return Err(t.err(format!("unknown template `{other}`"))),
            };
            EndpointKindDecl::MultiUser {
                template,
                // A bare endpoint is written without a `container` key.
                container: t.opt("container")?.unwrap_or_default(),
            }
        }
        other => return Err(t.err(format!("unknown endpoint kind `{other}`"))),
    };
    Ok(EndpointDecl { name, site, kind })
}

fn read_fault(t: &mut Reader) -> Result<FaultDecl, SpecError> {
    let at_us = t.req("at_us")?;
    let kind = match t.req::<String>("kind")?.as_str() {
        "endpoint-crash" => FaultKindDecl::EndpointCrash {
            endpoint: t.req("endpoint")?,
        },
        "mep-fork-failure" => FaultKindDecl::MepForkFailure {
            endpoint: t.req("endpoint")?,
            user: t.req("user")?,
        },
        "node-drain" => FaultKindDecl::NodeDrain {
            scheduler: t.req("scheduler")?,
        },
        "wan-partition" => FaultKindDecl::WanPartition {
            endpoint: t.req("endpoint")?,
            heal_secs: t.req("heal_secs")?,
        },
        "token-expiry" => FaultKindDecl::TokenExpiry,
        "artifact-corruption" => FaultKindDecl::ArtifactCorruption {
            artifact: t.req("artifact")?,
        },
        other => return Err(t.err(format!("unknown fault kind `{other}`"))),
    };
    Ok(FaultDecl { at_us, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::minimal("rich", 7);
        spec.sites.push(SiteSpec {
            preset: "tamu-faster".into(),
            cores: 64,
            account: "x-vhayot".into(),
            allocation: "CIS230030".into(),
            environment: "faster-vhayot".into(),
            software_env: "docking".into(),
            packages: vec!["autodock-vina=1.2.6".into(), "vmd=1.9.3".into()],
        });
        spec.endpoints.push(EndpointDecl {
            name: "ep-faster".into(),
            site: 1,
            kind: EndpointKindDecl::MultiUser {
                template: TemplateDecl::HpcSplit {
                    cores: 64,
                    walltime_secs: 3600,
                },
                container: String::new(),
            },
        });
        spec.endpoints.push(EndpointDecl {
            name: "ep-faster-pilot".into(),
            site: 1,
            kind: EndpointKindDecl::Pilot {
                cores: 32,
                walltime_secs: 1800,
            },
        });
        spec.faults.push(FaultDecl {
            at_us: 60_000_000,
            kind: FaultKindDecl::WanPartition {
                endpoint: "ep-faster".into(),
                heal_secs: 120,
            },
        });
        spec.chaos = Some(ChaosSpec {
            seed: 99,
            horizon_secs: 300,
            count: 4,
        });
        spec.provenance = Some(GenProvenance {
            seed: 42,
            index: 3,
            knobs: vec!["sites_max=3".into(), "fault_density_pct=30".into()],
        });
        spec
    }

    #[test]
    fn canonical_round_trip_is_byte_exact() {
        let spec = rich_spec();
        let text = spec.to_toml();
        let parsed = ScenarioSpec::from_toml(&text).expect("canonical text parses");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_toml(), text, "serialize∘parse is the identity");
    }

    #[test]
    fn digest_tracks_content() {
        let spec = rich_spec();
        let mut other = spec.clone();
        assert_eq!(spec.digest(), other.digest());
        other.traffic.gap_secs += 1;
        assert_ne!(spec.digest(), other.digest());
    }

    #[test]
    fn validation_rejects_broken_references() {
        let mut spec = ScenarioSpec::minimal("bad", 1);
        spec.endpoints[0].site = 9;
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::minimal("bad2", 1);
        spec.endpoints[0].kind = EndpointKindDecl::Pilot {
            cores: 8,
            walltime_secs: 600,
        };
        // workstation preset has no scheduler → pilot must be rejected
        assert!(spec.validate().is_err());

        let mut spec = ScenarioSpec::minimal("bad3", 1);
        spec.workload.failing = spec.workload.tests + 1;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_an_empty_endpoint_name_or_command() {
        // Either would reach the CORRECT step as a missing input: the run
        // fails as `test` without ever submitting a task.
        let mut spec = ScenarioSpec::minimal("no-name", 1);
        spec.endpoints[0].name.clear();
        assert_eq!(
            spec.validate(),
            Err(SpecError("endpoint on site 0 has no name".into()))
        );
        let mut spec = ScenarioSpec::minimal("no-command", 1);
        spec.workload.command.clear();
        assert_eq!(
            spec.validate(),
            Err(SpecError("synthetic workload has an empty command".into()))
        );
    }

    #[test]
    fn from_toml_refuses_unread_and_ill_typed_keys() {
        let text = rich_spec().to_toml();
        for (from, to, error) in [
            (
                "failing = 0",
                "faling = 0",
                "[workload]: missing key `failing`",
            ),
            (
                "tests = 8",
                "tests = \"ten\"",
                "[workload]: key `tests` is not an integer",
            ),
            ("\n[chaos]", "\n[chaoss]", "document: unknown key `chaoss`"),
            (
                "packages = []",
                "packages = \"numpy\"",
                "[[sites]] #0: key `packages` is not an array",
            ),
            (
                "mode = \"off\"",
                "mode = \"off\"\nscope = 1",
                "[cache]: unknown key `scope`",
            ),
            (
                "command = \"scen-test\"\n",
                "",
                "[workload]: missing key `command`",
            ),
        ] {
            assert!(text.contains(from), "{from}");
            let err = ScenarioSpec::from_toml(&text.replacen(from, to, 1)).unwrap_err();
            assert_eq!(err.0, error);
        }
        // `tests` is read only for a synthetic workload.
        let psij = include_str!("../../../tests/fixtures/paper/fig5-psij.toml");
        let err = ScenarioSpec::from_toml(&psij.replace("[workload]\n", "[workload]\ntests = 8\n"));
        assert_eq!(err.unwrap_err().0, "[workload]: unknown key `tests`");
    }

    #[test]
    fn validation_rejects_a_split_template_without_a_scheduler() {
        // The template's tasks run in pilots: on a workstation every fork
        // would fail, and every task with it.
        let mut spec = ScenarioSpec::minimal("split-on-wks", 1);
        spec.endpoints[0].kind = EndpointKindDecl::MultiUser {
            template: TemplateDecl::HpcSplit {
                cores: 8,
                walltime_secs: 600,
            },
            container: String::new(),
        };
        assert_eq!(
            spec.validate(),
            Err(SpecError(
                "pilot endpoint `ep-wks-0` targets schedulerless site `workstation:wks-0`".into()
            ))
        );
        spec.endpoints[0].kind = EndpointKindDecl::MultiUser {
            template: TemplateDecl::LoginOnly,
            container: String::new(),
        };
        assert_eq!(spec.validate(), Ok(()));
    }

    /// `rich_spec`'s document with one time key set to `u64::MAX` seconds,
    /// as parsed: a debug build panicked compiling such a value, a release
    /// build wrapped simulated time.
    fn with_max_secs(key_value: &str) -> Result<ScenarioSpec, SpecError> {
        let text = rich_spec().to_toml();
        assert!(text.contains(key_value), "{key_value}");
        let (key, _) = key_value.split_once(" = ").unwrap();
        ScenarioSpec::from_toml(&text.replacen(key_value, &format!("{key} = {}", u64::MAX), 1))
    }

    fn overflows(key: &str) -> Result<ScenarioSpec, SpecError> {
        Err(SpecError(format!(
            "{key} = {} overflows the simulated clock (microseconds in a u64)",
            u64::MAX
        )))
    }

    #[test]
    fn validation_rejects_a_wan_partition_heal_beyond_the_clock() {
        assert_eq!(
            with_max_secs("heal_secs = 120"),
            overflows("[[faults]] heal_secs")
        );
    }

    #[test]
    fn validation_rejects_a_pilot_walltime_beyond_the_clock() {
        assert_eq!(
            with_max_secs("walltime_secs = 1800"),
            overflows("[[endpoints]] walltime_secs")
        );
        assert_eq!(
            with_max_secs("walltime_secs = 3600"),
            overflows("[[endpoints]] walltime_secs")
        );
    }

    #[test]
    fn validation_rejects_a_traffic_gap_or_chaos_horizon_beyond_the_clock() {
        assert_eq!(
            with_max_secs("task_ms = 2000"),
            overflows("[workload] task_ms")
        );
        assert_eq!(
            with_max_secs("gap_secs = 300"),
            overflows("[traffic] gap_secs")
        );
        assert_eq!(
            with_max_secs("horizon_secs = 300"),
            overflows("[chaos] horizon_secs")
        );
        let most = rich_spec().to_toml().replacen(
            "gap_secs = 300",
            &format!("gap_secs = {}", u64::MAX / 1_000_000),
            1,
        );
        assert!(ScenarioSpec::from_toml(&most).is_ok());
    }

    #[test]
    fn validation_bounds_the_size_keys() {
        type Key = fn(&mut ScenarioSpec) -> &mut u32;
        let keys: [(&str, Key, u32); 4] = [
            ("[traffic] pushes", |s| &mut s.traffic.pushes, 10_000),
            ("[workload] tests", |s| &mut s.workload.tests, 10_000),
            ("[workload] repo_files", |s| &mut s.workload.repo_files, 1_024),
            ("[workload] steps_per_job", |s| &mut s.workload.steps_per_job, 64),
        ];
        for (key, field, bound) in keys {
            let with = |value| {
                let mut spec = ScenarioSpec::minimal("bounds", 1);
                *field(&mut spec) = value;
                spec.validate()
            };
            assert_eq!(with(bound), Ok(()), "{key}");
            assert_eq!(
                with(bound + 1),
                Err(SpecError(format!("{key} = {} exceeds its bound of {bound}", bound + 1)))
            );
        }
    }

    #[test]
    fn validation_rejects_faults_that_name_nothing() {
        let with_fault = |kind: FaultKindDecl| {
            let mut spec = rich_spec();
            spec.faults.push(FaultDecl { at_us: 0, kind });
            spec.validate()
        };
        let ep = |name: &str| name.to_string();
        for named in [
            FaultKindDecl::EndpointCrash { endpoint: ep("ep-wks-0") },
            FaultKindDecl::WanPartition { endpoint: ep("ep-faster-pilot"), heal_secs: 5 },
            FaultKindDecl::MepForkFailure { endpoint: ep("ep-faster"), user: ep("any") },
            FaultKindDecl::NodeDrain { scheduler: ep("tamu-faster") },
            FaultKindDecl::TokenExpiry,
            FaultKindDecl::ArtifactCorruption { artifact: ep("undeclared") },
        ] {
            assert_eq!(with_fault(named.clone()), Ok(()), "{named:?}");
        }
        for (unnamed, target) in [
            (FaultKindDecl::EndpointCrash { endpoint: ep("ghost") }, "ghost"),
            (FaultKindDecl::WanPartition { endpoint: ep("ghost"), heal_secs: 5 }, "ghost"),
            // A single-user endpoint forks nothing.
            (FaultKindDecl::MepForkFailure { endpoint: ep("ep-wks-0"), user: ep("any") }, "ep-wks-0"),
            // A workstation has no scheduler to drain.
            (FaultKindDecl::NodeDrain { scheduler: ep("wks-0") }, "wks-0"),
        ] {
            let err = with_fault(unnamed.clone()).expect_err("an unnamed target is refused");
            // rich_spec declares one fault already: this one is #1.
            assert!(
                err.0.starts_with("[[faults]] #1: ") && err.0.contains(&format!("`{target}`")),
                "{unnamed:?}: {err}"
            );
        }
    }

    #[test]
    fn traffic_processes_round_trip_and_legacy_form_is_unchanged() {
        // Legacy three-key form parses as bursty and renders byte-identically.
        let spec = ScenarioSpec::minimal("legacy", 5);
        assert_eq!(spec.traffic.process, TrafficProcess::Bursty);
        let text = spec.to_toml();
        assert!(text.contains("\n[traffic]\npushes = "));
        assert!(!text.contains("process ="));
        assert_eq!(ScenarioSpec::from_toml(&text).unwrap(), spec);

        // Each typed process round-trips through the canonical rendering.
        for process in [
            TrafficProcess::Poisson,
            TrafficProcess::Diurnal { peak_pct: 40 },
            TrafficProcess::Trace {
                gaps_us: vec![1_000_000, 30_000_000, 250],
            },
        ] {
            let mut spec = ScenarioSpec::minimal("typed", 5);
            spec.traffic.process = process.clone();
            spec.validate().expect("typed traffic validates");
            let text = spec.to_toml();
            assert!(text.contains(&format!("process = \"{}\"", process.kind())));
            let parsed = ScenarioSpec::from_toml(&text).expect("parses");
            assert_eq!(parsed, spec);
            assert_eq!(parsed.to_toml(), text);
        }

        // Validation bounds: empty traces and >100% peaks are rejected.
        let mut bad = ScenarioSpec::minimal("bad-trace", 5);
        bad.traffic.process = TrafficProcess::Trace { gaps_us: vec![] };
        assert!(bad.validate().is_err());
        let mut bad = ScenarioSpec::minimal("bad-peak", 5);
        bad.traffic.process = TrafficProcess::Diurnal { peak_pct: 101 };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fault_plan_merges_explicit_and_chaos() {
        let spec = rich_spec();
        let plan = spec.fault_plan();
        assert_eq!(plan.len(), 1 + 4);
        // Chaos alone is reproducible from the spec.
        assert_eq!(plan.render(), spec.fault_plan().render());
    }
}
