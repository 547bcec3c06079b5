//! Compile a [`ScenarioSpec`] onto a live [`Federation`].
//!
//! This is the single construction path every scenario — handwritten preset
//! or generator output — goes through. The compile order is canonical and
//! trace-stable: for each site in declaration order, `add_site` → software
//! environment + package installs → workload command installation → local
//! account → that site's endpoints in declaration order. Then the workload
//! repository is created and imported, one CI environment per site is
//! provisioned, and the workflow is installed.

use crate::spec::{
    EndpointKindDecl, ScenarioSpec, SpecError, TemplateDecl, WorkloadKind, WorkloadSpec,
};
use correct_core::federation::OnboardedUser;
use correct_core::{recipes, EndpointSpec, Federation};
use hpcci_auth::IdentityMapping;
use hpcci_ci::workflow::{JobDef, StepDef, TriggerEvent, WorkflowDef};
use hpcci_ci::RunId;
use hpcci_cluster::ImageSpec;
use hpcci_faas::{ExecOutcome, MepTemplate, SiteRuntime};
use hpcci_sim::{DetRng, SimDuration};
use hpcci_vcs::WorkTree;

/// Container image the KaMPIng workload publishes and runs inside (§6.3).
pub const KAMPING_IMAGE: &str = "ghcr.io/kamping-site/kamping-reproducibility:v1";

/// A compiled scenario: the federation plus the handles drivers need.
pub struct BuiltScenario {
    pub fed: Federation,
    pub user: OnboardedUser,
    /// Repository under test, `"owner/name"`.
    pub repo: String,
    /// Workflow installed for the repository.
    pub workflow: String,
    /// Site environments the workflow's jobs target, in job order.
    pub environments: Vec<String>,
    /// Registered endpoint names, in declaration order.
    pub endpoints: Vec<String>,
    /// Login used as push author and default reviewer.
    pub pusher: String,
    /// Whether the workflow is `workflow_dispatch`-triggered (KaMPIng) —
    /// drivers dispatch instead of pushing.
    pub dispatch_trigger: bool,
    /// Every local account a scenario task may legitimately run as — the
    /// security oracle's identity-mapping allowlist.
    pub expected_accounts: Vec<String>,
}

impl BuiltScenario {
    /// Manually dispatch the scenario workflow (for `workflow_dispatch`
    /// triggers like the KaMPIng artifact suite), approve, execute.
    pub fn dispatch_approve_run(&mut self, reviewer: &str) -> RunId {
        let now = self.fed.now();
        let commit = self
            .fed
            .hosting
            .lock()
            .repo(&self.repo)
            .expect("scenario repo exists")
            .head("main")
            .expect("main exists")
            .short();
        let run = self
            .fed
            .engine
            .dispatch(&self.repo, &self.workflow, "main", &commit, now)
            .expect("workflow installed");
        self.fed
            .engine
            .approve(run, reviewer, self.fed.now())
            .expect("reviewer approves own environment");
        self.fed.run_all();
        run
    }

    /// Push a trivial change to `main`, pump webhooks, approve every created
    /// run as `reviewer`, execute, and return the run ids.
    pub fn push_approve_run(&mut self, reviewer: &str) -> Vec<RunId> {
        let now = self.fed.now();
        let tree = self
            .fed
            .hosting
            .lock()
            .repo(&self.repo)
            .expect("scenario repo exists")
            .checkout_branch("main")
            .expect("main exists")
            .clone()
            .with_file("VERSION", format!("{}", now.as_micros()));
        let author = self.pusher.clone();
        self.fed
            .hosting
            .lock()
            .push(&self.repo, "main", tree, &author, "trigger CI", now)
            .expect("push to scenario repo");
        let runs = self.fed.pump_events();
        for &run in &runs {
            self.fed
                .engine
                .approve(run, reviewer, self.fed.now())
                .expect("reviewer approves own environment");
        }
        self.fed.run_all();
        runs
    }

    /// One trigger round matching the workflow's trigger kind: dispatch for
    /// `workflow_dispatch` workflows, push otherwise. Returns the run ids.
    pub fn trigger_round(&mut self, reviewer: &str) -> Vec<RunId> {
        if self.dispatch_trigger {
            vec![self.dispatch_approve_run(reviewer)]
        } else {
            self.push_approve_run(reviewer)
        }
    }
}

impl ScenarioSpec {
    /// Compile this spec onto a caller-built federation. The builder seed,
    /// fault plan, observability, and cache configuration stay in the
    /// caller's hands; everything declarative comes from the spec.
    pub fn build_on(&self, mut fed: Federation) -> Result<BuiltScenario, SpecError> {
        self.validate()?;
        let user = fed.onboard_user(&self.user.email, &self.user.provider);

        let mut environments = Vec::new();
        let mut endpoint_names = Vec::new();
        for (ix, s) in self.sites.iter().enumerate() {
            let site_id = fed.add_site(s.site()?, s.cores);
            let shared = fed.site(site_id).shared.clone();
            {
                let mut rt = shared.lock();
                if !s.software_env.is_empty() {
                    let env = rt.site.envs.create(&s.software_env);
                    for pkg in &s.packages {
                        let (name, version) = pkg
                            .split_once('=')
                            .ok_or_else(|| SpecError(format!("bad package `{pkg}`")))?;
                        env.install(name, version);
                    }
                }
                install_workload_commands(&mut rt, &self.workload, &s.software_env)?;
                rt.site.add_account(&s.account, &s.allocation);
            }
            for ep in self.endpoints.iter().filter(|e| e.site as usize == ix) {
                let spec = match &ep.kind {
                    EndpointKindDecl::Single => {
                        EndpointSpec::single(&ep.name, site_id, user.identity.id, &s.account)
                    }
                    EndpointKindDecl::Pilot {
                        cores,
                        walltime_secs,
                    } => EndpointSpec::pilot(
                        &ep.name,
                        site_id,
                        user.identity.id,
                        &s.account,
                        *cores,
                        SimDuration::from_secs(*walltime_secs),
                    ),
                    EndpointKindDecl::MultiUser {
                        template,
                        container,
                    } => {
                        let mut mapping = IdentityMapping::new(&s.site_name());
                        mapping.add_explicit(&self.user.email, &s.account);
                        let mut tpl = match template {
                            TemplateDecl::LoginOnly => MepTemplate::login_only(),
                            TemplateDecl::HpcSplit {
                                cores,
                                walltime_secs,
                            } => MepTemplate::hpc_split(*cores, *walltime_secs),
                        };
                        if !container.is_empty() {
                            tpl = tpl.in_container(container);
                        }
                        EndpointSpec::multi_user(&ep.name, site_id, mapping, tpl)
                    }
                };
                fed.register(spec);
                endpoint_names.push(ep.name.clone());
            }
            environments.push(s.environment.clone());
        }

        // Repository import, environment provisioning, workflow install.
        let now = fed.now();
        let (owner, repo_name) = self
            .workload
            .repo
            .split_once('/')
            .ok_or_else(|| SpecError(format!("bad repo `{}`", self.workload.repo)))?;
        fed.hosting.lock().create_repo(owner, repo_name, now);
        let (author, message) = import_commit(&self.workload, &self.user.login);
        fed.hosting
            .lock()
            .push(&self.workload.repo, "main", self.workload_tree(), &author, &message, now)
            .map_err(|e| SpecError(format!("initial push failed: {e}")))?;
        let _ = fed.pump_events(); // drop the import push (workflow not installed yet)
        for env_name in &environments {
            fed.provision_environment(&self.workload.repo, env_name, &self.user.login, &user);
        }
        let workflow = self.workflow_def(&environments, &endpoint_names);
        let workflow_name = workflow.name.clone();
        fed.engine.add_workflow(&self.workload.repo, workflow);

        let mut expected_accounts: Vec<String> =
            self.sites.iter().map(|s| s.account.clone()).collect();
        expected_accounts.dedup();

        Ok(BuiltScenario {
            fed,
            user,
            repo: self.workload.repo.clone(),
            workflow: workflow_name,
            environments,
            endpoints: endpoint_names,
            pusher: self.user.login.clone(),
            dispatch_trigger: self.workload.kind == WorkloadKind::Kamping,
            expected_accounts,
        })
    }

    /// The repository tree the workload imports.
    pub fn workload_tree(&self) -> WorkTree {
        match self.workload.kind {
            WorkloadKind::Parsldock => WorkTree::new()
                .with_file("README.md", "# ParslDock tutorial\nML-guided protein docking.\n")
                .with_file("requirements.txt", "parsl>=2024.1\nnumpy\nscikit-learn\n")
                .with_file("dock.py", "# docking pipeline entrypoint\n")
                .with_file("tests/test_parsldock.py", "# pytest suite: 8 tests\n")
                .with_file(
                    "data/receptor_1abc.pdbqt",
                    // A real serialized receptor: bulks the clone so I/O time
                    // is visible, and round-trips through the PDBQT parser.
                    hpcci_parsldock::receptor_to_pdbqt(&hpcci_parsldock::Receptor::generate(
                        "1abc", 300,
                    )),
                ),
            WorkloadKind::Psij => WorkTree::new()
                .with_file("README.md", "# PSI/J\nPortable Submission Interface for Jobs\n")
                .with_file(
                    "requirements.txt",
                    "psutil>=5.9\npystache>=0.6.0\ntypeguard>=3.0.1\n",
                )
                .with_file("tests/test_executors.py", "# executor suite\n"),
            WorkloadKind::Kamping => {
                let mut tree = WorkTree::new()
                    .with_file("README.md", "# KaMPIng reproducibility artifacts\n");
                for name in hpcci_minimpi::KAMPING_ARTIFACTS {
                    tree.put(
                        &format!("artifacts/{name}.sh"),
                        format!("#!/bin/bash\n# runs the {name} experiment\n"),
                    );
                }
                tree
            }
            WorkloadKind::Synthetic => {
                let mut rng = DetRng::seed_from_u64(self.seed).fork("scen-tree");
                let mut tree = WorkTree::new().with_file(
                    "README.md",
                    format!(
                        "# {}\nGenerated federation scenario `{}`.\n",
                        self.workload.repo, self.name
                    ),
                );
                for i in 0..self.workload.repo_files {
                    let lines = rng.range_u64(2, 10);
                    let mut content = String::new();
                    for l in 0..lines {
                        content.push_str(&format!(
                            "module {i} line {l}: {:016x}\n",
                            rng.range_u64(0, u64::MAX)
                        ));
                    }
                    tree.put(&format!("src/mod_{i:02}.txt"), content);
                }
                tree.put(
                    "tests/test_scen.py",
                    format!(
                        "# synthetic suite: {} tests, {} failing\n",
                        self.workload.tests, self.workload.failing
                    ),
                );
                tree
            }
        }
    }

    /// The workflow installed for the workload.
    fn workflow_def(&self, environments: &[String], endpoints: &[String]) -> WorkflowDef {
        match self.workload.kind {
            WorkloadKind::Parsldock => {
                let pairs: Vec<(&str, &str)> = self
                    .endpoints
                    .iter()
                    .map(|ep| {
                        (
                            environments[ep.site as usize].as_str(),
                            ep.name.as_str(),
                        )
                    })
                    .collect();
                recipes::multi_site_workflow(&self.workload.workflow, &pairs, "pytest tests/")
            }
            WorkloadKind::Psij => recipes::single_site_workflow(
                &self.workload.workflow,
                &environments[self.endpoints[0].site as usize],
                &endpoints[0],
                "pytest tests/",
            ),
            WorkloadKind::Kamping => {
                let artifact_cmds: Vec<(String, String)> = hpcci_minimpi::KAMPING_ARTIFACTS
                    .iter()
                    .map(|n| (n.to_string(), format!("bash artifacts/{n}.sh")))
                    .collect();
                let pairs: Vec<(&str, &str)> = artifact_cmds
                    .iter()
                    .map(|(n, c)| (n.as_str(), c.as_str()))
                    .collect();
                recipes::artifact_suite_workflow(
                    &self.workload.workflow,
                    &environments[self.endpoints[0].site as usize],
                    &endpoints[0],
                    &pairs,
                )
            }
            WorkloadKind::Synthetic => {
                let mut wf =
                    WorkflowDef::new(&self.workload.workflow).on_event(TriggerEvent::push_any());
                for ep in &self.endpoints {
                    let environment = &environments[ep.site as usize];
                    let mut job =
                        JobDef::new(&format!("test-{}", ep.name)).with_environment(environment);
                    let mut last_step = String::new();
                    for k in 1..=self.workload.steps_per_job {
                        let step_id = format!("run-{}-{k}", ep.name);
                        job = job.with_step(
                            recipes::correct_step(&step_id, &ep.name, &self.workload.command)
                                .allow_failure(),
                        );
                        last_step = step_id;
                    }
                    job = job.with_step(StepDef::upload_artifact(
                        &format!("save-{}", ep.name),
                        &format!("{}-output", ep.name),
                        &last_step,
                    ));
                    wf = wf.with_job(job);
                }
                wf
            }
        }
    }
}

/// Import-commit identity per workload, preserved verbatim from the
/// historical constructors so commit chains (and therefore every downstream
/// trace) stay byte-identical.
fn import_commit(workload: &WorkloadSpec, login: &str) -> (String, String) {
    match workload.kind {
        WorkloadKind::Parsldock => ("vhayot".into(), "import tutorial".into()),
        WorkloadKind::Psij => ("hategan".into(), "import psij".into()),
        WorkloadKind::Kamping => ("kamping".into(), "import artifacts".into()),
        WorkloadKind::Synthetic => (login.to_string(), "import scaffold".into()),
    }
}

/// Install the workload's site-side commands (and registry/image state).
fn install_workload_commands(
    rt: &mut SiteRuntime,
    workload: &WorkloadSpec,
    software_env: &str,
) -> Result<(), SpecError> {
    match workload.kind {
        WorkloadKind::Parsldock => {
            let repo_dir = workload.repo.split('/').next_back().unwrap_or("repo");
            hpcci_parsldock::install_pytest(&mut rt.commands, repo_dir);
        }
        WorkloadKind::Psij => {
            let sched = rt.scheduler.clone();
            hpcci_psij::install_psij_pytest(&mut rt.commands, software_env, sched);
        }
        WorkloadKind::Kamping => {
            let (image, tag) = KAMPING_IMAGE
                .rsplit_once(':')
                .expect("image ref has a tag");
            rt.site
                .images
                .publish(
                    ImageSpec::new(image, tag)
                        .with_package("kamping", "1.0.0")
                        .with_package("openmpi", "4.1.5"),
                )
                .map_err(|e| SpecError(format!("image publish failed: {e}")))?;
            hpcci_minimpi::install_artifacts(&mut rt.commands);
        }
        WorkloadKind::Synthetic => {
            let tests = workload.tests;
            let failing = workload.failing;
            let work = workload.task_ms as f64 / 1000.0;
            let passed = tests - failing;
            // Every task prints the same text: rendered once here, cloned per task.
            let outcome = if failing == 0 {
                ExecOutcome::ok(format!("===== {passed} passed in {work:.1}s ====="), work)
            } else {
                ExecOutcome::fail(format!("FAILED ({failing} of {tests} tests)"), work)
                    .with_stdout(format!("===== {passed} passed, {failing} failed ====="))
            };
            rt.commands
                .register(&workload.command, move |_env| outcome.clone());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    #[test]
    fn minimal_spec_compiles_and_runs_green() {
        let spec = ScenarioSpec::minimal("compile-smoke", 11);
        let fed = Federation::builder(spec.seed).build();
        let mut s = spec.build_on(fed).expect("compiles");
        assert_eq!(s.environments, vec!["env-wks-0".to_string()]);
        assert_eq!(s.endpoints, vec!["ep-wks-0".to_string()]);
        let runs = s.trigger_round("vhayot");
        assert_eq!(runs.len(), 1);
        let run = s.fed.engine.run(runs[0]).expect("run exists");
        assert_eq!(run.status, hpcci_ci::RunStatus::Success);
    }

    #[test]
    fn synthetic_failing_tests_fail_the_run() {
        let mut spec = ScenarioSpec::minimal("compile-red", 12);
        spec.workload.failing = 2;
        let fed = Federation::builder(spec.seed).build();
        let mut s = spec.build_on(fed).expect("compiles");
        let runs = s.trigger_round("vhayot");
        let run = s.fed.engine.run(runs[0]).expect("run exists");
        assert_eq!(run.status, hpcci_ci::RunStatus::Failure);
    }
}
