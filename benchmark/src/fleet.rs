//! The push workloads: one federation shape, driven from a push entering
//! `hpcci-vcs` to a run report leaving `correct-core`.
//!
//! Everything here goes through public API only. The federation (sites,
//! endpoints, site commands, repo 0, its workflow and environments) is
//! compiled by `ScenarioSpec::build_on`; the rest of the tenant population —
//! more repos, users, workflows, environments and secrets — is added with
//! the same public calls `build_on` itself makes.

use crate::alloc;
use crate::ledger::{Ledger, TimedWorld};
use crate::measure::{Outcome, Snapshot};
use hpcci::cas::DigestBuilder;
use hpcci::ci::workflow::{JobDef, StepDef, TriggerEvent, WorkflowDef};
use hpcci::ci::{CacheMode, RunId, StepCache};
use hpcci::correct::federation::OnboardedUser;
use hpcci::correct::{recipes, Federation};
use hpcci::obs::ObsConfig;
use hpcci::scen::compile::BuiltScenario;
use hpcci::scen::spec::{
    CacheModeDecl, EndpointDecl, EndpointKindDecl, ScenarioSpec, SiteSpec, TemplateDecl,
    TrafficProcess, TrafficSpec, UserSpec, WorkloadKind, WorkloadSpec,
};
use hpcci::sim::{ArrivalGen, DetRng, SimDuration, TenantMix, TenantModel};
use hpcci::vcs::WorkTree;
use std::time::Instant;

/// Sites of the shared federation shape, in endpoint order.
pub const SITES: [&str; 4] = [
    "purdue-anvil",
    "tamu-faster",
    "sdsc-expanse",
    "chameleon-tacc",
];
/// CORRECT steps per job; with four jobs and one artifact upload each a run
/// has 16 steps.
const STEPS_PER_JOB: u32 = 3;
pub const STEPS_PER_RUN: u64 = SITES.len() as u64 * (STEPS_PER_JOB as u64 + 1);
/// Every CORRECT step clones the repository and then runs the tests.
pub const TASKS_PER_RUN: u64 = SITES.len() as u64 * STEPS_PER_JOB as u64 * 2;
const PROVIDER: &str = "bench.sim";
const COMMAND: &str = "scen-test";
const WORKFLOW: &str = "scen-ci";

/// Size of one push workload. Fixed per workload, identical on every commit.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FleetSize {
    pub repos: u32,
    pub users: u32,
    pub rounds: u32,
}

/// How a rep looks at the program while it runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Look {
    /// Tracing and `hpcci-obs` off: the end-to-end numbers.
    Plain,
    /// Spans around every call into a layer, allocator counting on.
    Traced,
    /// `hpcci-obs` enabled, for the simulated latency series.
    Obs,
}

fn login(user: u32) -> String {
    format!("u{user:04}")
}

fn repo_name(repo: u32) -> String {
    format!("org{:02}/repo{repo:04}", repo / 16)
}

fn environment(site: &str) -> String {
    format!("env-{site}")
}

fn endpoint(ix: usize) -> String {
    format!("ep-{ix}")
}

/// The shared federation shape as a scenario document. ep-0/ep-1 are MEPs
/// that clone on the login node and test inside a SLURM pilot (the §6.1
/// network-isolation workaround), ep-2 is a login-only MEP, ep-3 a
/// single-user endpoint on the cloud site.
pub fn shape(seed: u64, rounds: u32) -> ScenarioSpec {
    let split = || EndpointKindDecl::MultiUser {
        template: TemplateDecl::HpcSplit {
            cores: 32,
            walltime_secs: 3000,
        },
        container: String::new(),
    };
    let kinds = [
        split(),
        split(),
        EndpointKindDecl::MultiUser {
            template: TemplateDecl::LoginOnly,
            container: String::new(),
        },
        EndpointKindDecl::Single,
    ];
    ScenarioSpec {
        name: "benchmark-fleet".into(),
        seed,
        user: UserSpec {
            login: login(0),
            email: format!("{}@{PROVIDER}", login(0)),
            provider: PROVIDER.into(),
        },
        workload: WorkloadSpec {
            kind: WorkloadKind::Synthetic,
            repo: repo_name(0),
            workflow: WORKFLOW.into(),
            command: COMMAND.into(),
            tests: 12,
            failing: 0,
            task_ms: 2000,
            repo_files: 6,
            steps_per_job: STEPS_PER_JOB,
            missing_dependency: false,
        },
        traffic: TrafficSpec {
            pushes: rounds.max(1),
            gap_secs: 60,
            burstiness_pct: 0,
            process: TrafficProcess::Poisson,
        },
        cache: CacheModeDecl::Off,
        sites: SITES
            .iter()
            .map(|site| SiteSpec {
                preset: (*site).into(),
                cores: 64,
                account: "x-bench".into(),
                allocation: "BENCH001".into(),
                environment: environment(site),
                software_env: String::new(),
                packages: Vec::new(),
            })
            .collect(),
        endpoints: kinds
            .into_iter()
            .enumerate()
            .map(|(ix, kind)| EndpointDecl {
                name: endpoint(ix),
                site: ix as u32,
                kind,
            })
            .collect(),
        faults: Vec::new(),
        chaos: None,
        provenance: None,
    }
}

/// The workflow `build_on` installs for repo 0, rebuilt from the same public
/// pieces for every other repo: one environment-gated job per endpoint,
/// three CORRECT steps and an artifact upload each.
fn workflow() -> WorkflowDef {
    let mut wf = WorkflowDef::new(WORKFLOW).on_event(TriggerEvent::push_any());
    for (ix, site) in SITES.iter().enumerate() {
        let ep = endpoint(ix);
        let mut job = JobDef::new(&format!("test-{ep}")).with_environment(&environment(site));
        for k in 1..=STEPS_PER_JOB {
            job = job.with_step(
                recipes::correct_step(&format!("run-{ep}-{k}"), &ep, COMMAND).allow_failure(),
            );
        }
        job = job.with_step(StepDef::upload_artifact(
            &format!("save-{ep}"),
            &format!("{ep}-output"),
            &format!("run-{ep}-{STEPS_PER_JOB}"),
        ));
        wf = wf.with_job(job);
    }
    wf
}

/// A built fleet: the federation plus the tenant population and the seeded
/// generators that drive it.
pub struct Fleet {
    pub fed: Federation,
    size: FleetSize,
    logins: Vec<String>,
    repos: Vec<String>,
    arrivals: ArrivalGen,
    tenants: TenantModel,
    tenant_rng: DetRng,
}

impl Fleet {
    /// Build the federation and its tenants. `cache` installs a shared step
    /// cache in the given mode; `None` leaves caching off.
    pub fn build(
        seed: u64,
        size: FleetSize,
        cache: Option<(StepCache, CacheMode)>,
        look: Look,
    ) -> Fleet {
        let spec = shape(seed, size.rounds);
        let workload = spec
            .traffic
            .workload()
            .tenants(TenantMix::new(size.users, size.repos).zipf_x100(110));
        let mut builder = Federation::builder(seed).workload(workload.clone());
        if look == Look::Obs {
            builder = builder.obs(ObsConfig::enabled());
        }
        if let Some((cache, mode)) = cache {
            builder = builder.step_cache_shared(cache, mode);
        }
        let BuiltScenario { mut fed, user, .. } = spec
            .build_on(builder.build())
            .expect("the benchmark's own scenario document is valid");

        let logins: Vec<String> = (0..size.users).map(login).collect();
        for name in &logins[1..] {
            fed.onboard_user(&format!("{name}@{PROVIDER}"), PROVIDER);
        }
        let repos: Vec<String> = (0..size.repos).map(repo_name).collect();
        let tree = spec.workload_tree();
        for (r, repo) in repos.iter().enumerate().skip(1) {
            add_repo(&mut fed, repo, &logins[owner(r as u32, size)], &tree, &user);
        }
        // Drop the import pushes: no workflow was installed when they landed.
        let _ = fed.pump_events();
        for repo in &repos[1..] {
            fed.engine.add_workflow(repo, workflow());
        }
        let arrivals = fed.arrival_gen().expect("workload attached above");
        Fleet {
            fed,
            size,
            logins,
            repos,
            arrivals,
            tenants: workload.tenant_model(),
            tenant_rng: workload.tenant_rng(seed),
        }
    }

    /// Drive every round, closed loop: push → webhook → approve → execute →
    /// drain → report. The next round starts only when the report is read.
    pub fn drive(&mut self, ledger: &mut Ledger) -> Driven {
        let rounds = self.size.rounds as usize;
        let mut driven = Driven {
            round_wall_us: Vec::with_capacity(rounds),
            turnaround_s: Vec::with_capacity(rounds),
            failed: 0,
            artifact_bytes: 0,
            steps: 0,
            reports_digest: 0xcbf2_9ce4_8422_2325,
        };
        for round in 0..rounds {
            let start = Instant::now();
            ledger.begin_round(round as u64);
            if round > 0 {
                let gap = ledger.time("gen.sample", || self.arrivals.next_gap_us());
                ledger.time("faas.gap", || {
                    self.fed.world().sleep(SimDuration::from_micros(gap));
                });
            }
            let (user, repo_ix) =
                ledger.time("gen.sample", || self.tenants.sample(&mut self.tenant_rng));
            let repo = &self.repos[repo_ix as usize];
            ledger.time("vcs.push", || {
                let now = self.fed.now();
                let mut hosting = self.fed.hosting.lock();
                let tree = hosting
                    .repo(repo)
                    .and_then(|r| r.checkout_branch("main"))
                    .expect("repo imported at set-up")
                    .clone()
                    .with_file("VERSION", format!("{round}"));
                hosting
                    .push(
                        repo,
                        "main",
                        tree,
                        &self.logins[user as usize],
                        "trigger CI",
                        now,
                    )
                    .expect("push to an imported repo");
            });
            let runs = ledger.time("ci.pump", || self.fed.pump_events());
            let reviewer = &self.logins[owner(repo_ix, self.size)];
            ledger.time("ci.approve", || {
                for &run in &runs {
                    let now = self.fed.now();
                    self.fed
                        .engine
                        .approve(run, reviewer, now)
                        .expect("the repo owner reviews every environment");
                }
            });
            self.execute(ledger);
            ledger.time("obs.report", || {
                for &run in &runs {
                    driven.read_report(&self.fed, run);
                }
            });
            if runs.len() != 1 {
                driven.failed += 1;
            }
            ledger.end_round();
            driven
                .round_wall_us
                .push(start.elapsed().as_secs_f64() * 1e6);
        }
        driven
    }

    /// `Federation::run_all`, or its three public parts with a timer around
    /// each when the ledger is on.
    fn execute(&mut self, ledger: &mut Ledger) {
        if !ledger.enabled() {
            self.fed.run_all();
            return;
        }
        ledger.time("core.fingerprints", || {
            self.fed.refresh_stack_fingerprints()
        });
        let mut world = TimedWorld::new(self.fed.cloud.clone());
        ledger.time("ci.execute", || self.fed.engine.execute_ready(&mut world));
        ledger.child("faas.step", "ci.execute", world.busy_ns, world.calls);
        ledger.time("faas.drain", || {
            self.fed.cloud.lock().drain_to_quiescence();
        });
    }
}

/// Users are spread evenly over repos; a repo's owner reviews its
/// environments.
fn owner(repo: u32, size: FleetSize) -> usize {
    (repo * (size.users / size.repos)) as usize
}

/// Create, import and provision one more repository, the way `build_on`
/// does for repo 0. Every environment holds the federation's FaaS client:
/// the MEPs' identity mapping is fixed by `build_on` to the scenario user.
fn add_repo(fed: &mut Federation, repo: &str, owner: &str, tree: &WorkTree, user: &OnboardedUser) {
    let now = fed.now();
    let (org, name) = repo.split_once('/').expect("repo names are org/name");
    let mut hosting = fed.hosting.lock();
    hosting.create_repo(org, name, now);
    hosting
        .push(repo, "main", tree.clone(), owner, "import scaffold", now)
        .expect("import push");
    drop(hosting);
    for site in SITES {
        fed.provision_environment(repo, &environment(site), owner, user);
    }
}

/// What driving the rounds produced, for the output check and the metrics.
pub struct Driven {
    pub round_wall_us: Vec<f64>,
    pub turnaround_s: Vec<f64>,
    pub failed: u64,
    pub artifact_bytes: u64,
    pub steps: u64,
    /// FNV-1a over every report read back. The cloud's trace is empty when
    /// every step is replayed from the cache, so the output check covers the
    /// reports too.
    reports_digest: u64,
}

impl Driven {
    fn read_report(&mut self, fed: &Federation, run: RunId) {
        let report = fed.run_report(run).expect("run just executed");
        match (report.status.as_str(), report.ended_at_us) {
            ("success", Some(end)) => {
                self.turnaround_s
                    .push((end - report.triggered_at_us) as f64 / 1e6);
            }
            _ => self.failed += 1,
        }
        self.artifact_bytes += report.artifact_bytes;
        self.steps += report.steps as u64;
        let line = format!(
            "{} {} {} {} {} {:?} {:?} {} {} {}\n",
            report.run,
            report.repo,
            report.commit,
            report.status,
            report.triggered_at_us,
            report.started_at_us,
            report.ended_at_us,
            report.steps,
            report.failed_steps,
            report.artifact_bytes
        );
        for byte in line.bytes() {
            self.reports_digest = (self.reports_digest ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// One rep of a push workload: set up, drive, check, report. With `replay`
/// set-up also runs the Record pass, and the timed section replays it on a
/// fresh federation built from the same seed.
pub fn rep(seed: u64, size: FleetSize, replay: bool, look: Look) -> Outcome {
    let setup = Instant::now();
    let cache = replay.then(|| {
        let cache = StepCache::new();
        let mut cold = Fleet::build(
            seed,
            size,
            Some((cache.clone(), CacheMode::Record)),
            Look::Plain,
        );
        let recorded = cold.drive(&mut Ledger::off());
        assert_eq!(recorded.failed, 0, "the Record pass must be green");
        cache
    });
    let recorded = cache.as_ref().map(|c| c.stats());
    let mut fleet = Fleet::build(
        seed,
        size,
        cache.clone().map(|c| (c, CacheMode::Replay)),
        look,
    );
    let setup_s = setup.elapsed().as_secs_f64();

    let mut ledger = if look == Look::Traced {
        Ledger::on()
    } else {
        Ledger::off()
    };
    alloc::set_counting(look == Look::Traced);
    let before = Snapshot::take(fleet.fed.events_dispatched());
    let start = Instant::now();
    let driven = fleet.drive(&mut ledger);
    let wall_s = start.elapsed().as_secs_f64();
    let after = Snapshot::take(fleet.fed.events_dispatched());
    alloc::set_counting(false);

    let rounds = size.rounds as u64;
    let fed = &fleet.fed;
    let mut out = Outcome::new(rounds, setup_s, wall_s, &before, &after);
    out.failed = driven.failed;
    out.digest = DigestBuilder::new()
        .digest_field("trace", fed.trace_digest())
        .u64_field("reports", driven.reports_digest)
        .finish()
        .short();
    out.unit_walls(driven.round_wall_us);
    out.turnarounds(driven.turnaround_s);
    out.count("vcs.pushes", rounds);
    out.count("vcs.repos", fed.hosting.lock().repo_count() as u64);
    out.count("ci.runs", fed.engine.runs().count() as u64);
    out.count("ci.steps", driven.steps);
    out.count("ci.secrets", fed.engine.secrets.all_values().len() as u64);
    let (hits, misses) = match (cache.map(|c| c.stats()), recorded) {
        (Some(now), Some(then)) => (now.hits - then.hits, now.misses - then.misses),
        _ => (0, 0),
    };
    out.count("ci.cache_hits", hits);
    out.count("ci.cache_misses", misses);
    out.count("ci.artifact_stored_bytes", driven.artifact_bytes);
    let tasks = fed.cloud.lock().task_count() as u64;
    out.count("faas.tasks", tasks);
    out.count("faas.domains", fed.cloud.lock().domain_count() as u64);
    out.count("scheduler.jobs", scheduler_jobs(fed));
    out.count("sim.trace_events", fed.cloud.lock().trace.recorded());
    if look == Look::Obs {
        out.sim_series(&fed.metrics());
    }
    out.ledger(ledger.finish(wall_s));
    out
}

/// Accounting-log rows over every site with a batch scheduler.
pub fn scheduler_jobs(fed: &Federation) -> u64 {
    fed.sites()
        .filter_map(|site| {
            let rt = site.shared.lock();
            rt.scheduler
                .as_ref()
                .map(|s| s.lock().accounting().len() as u64)
        })
        .sum()
}
