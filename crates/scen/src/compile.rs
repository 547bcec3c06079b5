//! Compile a [`ScenarioSpec`] onto a live [`Federation`].
//!
//! This is the single construction path every scenario — a committed
//! document such as the paper's worlds, or generator output — goes through.
//! The compile order is canonical and trace-stable: for each site in
//! declaration order, `add_site` → software environment + package installs
//! → workload command installation → local account → that site's endpoints
//! in declaration order. Then the workload repository is created and
//! imported, one CI environment per site is provisioned, and the workflow is
//! installed.

use crate::spec::{
    EndpointDecl, EndpointKindDecl, ScenarioSpec, SiteSpec, SpecError, TemplateDecl, WorkloadKind,
    WorkloadSpec,
};
use correct_core::federation::OnboardedUser;
use correct_core::{recipes, Federation};
use hpcci_auth::IdentityMapping;
use hpcci_ci::workflow::{JobDef, StepDef, TriggerEvent, WorkflowDef};
use hpcci_ci::RunId;
use hpcci_cluster::ImageSpec;
use hpcci_faas::{ExecOutcome, MepTemplate, SiteRuntime, TaskProvider};
use hpcci_sim::DetRng;
use hpcci_vcs::WorkTree;

/// Container image the KaMPIng workload publishes and runs inside (§6.3).
const KAMPING_IMAGE: &str = "ghcr.io/kamping-site/kamping-reproducibility:v1";

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
}

impl BuiltScenario {
    /// Manually dispatch the scenario workflow (for `workflow_dispatch`
    /// triggers like the KaMPIng artifact suite), approve, execute.
    pub fn dispatch_approve_run(&mut self, reviewer: &str) -> Result<RunId, SpecError> {
        let now = self.fed.now();
        let commit = {
            let hosting = self.fed.hosting.lock();
            let repo = hosting.repo(&self.repo).map_err(failed("scenario repo"))?;
            repo.head("main").map_err(failed("branch main"))?.short()
        };
        let run = (self.fed.engine)
            .dispatch(&self.repo, &self.workflow, "main", &commit, now)
            .map_err(failed("dispatch"))?;
        self.approve(run, reviewer)?;
        self.fed.run_all();
        Ok(run)
    }

    /// Push a trivial change to `main`, pump webhooks, approve every created
    /// run as `reviewer`, execute, and return the run ids.
    pub fn push_approve_run(&mut self, reviewer: &str) -> Result<Vec<RunId>, SpecError> {
        let now = self.fed.now();
        {
            let mut hosting = self.fed.hosting.lock();
            let repo = hosting.repo(&self.repo).map_err(failed("scenario repo"))?;
            let tree = (repo.checkout_branch("main").map_err(failed("branch main"))?)
                .clone()
                .with_file("VERSION", format!("{}", now.as_micros()));
            (hosting.push(&self.repo, "main", tree, &self.pusher, "trigger CI", now))
                .map_err(failed("push"))?;
        }
        let runs = self.fed.pump_events();
        for &run in &runs {
            self.approve(run, reviewer)?;
        }
        self.fed.run_all();
        Ok(runs)
    }

    fn approve(&mut self, run: RunId, reviewer: &str) -> Result<(), SpecError> {
        let now = self.fed.now();
        (self.fed.engine.approve(run, reviewer, now))
            .map_err(|e| SpecError(format!("{reviewer} approving {run}: {e}")))
    }

    /// One trigger round matching the workflow's trigger kind: dispatch for
    /// `workflow_dispatch` workflows, push otherwise. Returns the run ids.
    pub fn trigger_round(&mut self, reviewer: &str) -> Result<Vec<RunId>, SpecError> {
        if self.dispatch_trigger {
            Ok(vec![self.dispatch_approve_run(reviewer)?])
        } else {
            self.push_approve_run(reviewer)
        }
    }
}

/// The error of a trigger helper's `step`, named.
fn failed<E: std::fmt::Display>(step: &str) -> impl FnOnce(E) -> SpecError + '_ {
    move |e| SpecError(format!("{step}: {e}"))
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
                install_workload_commands(&mut rt, &self.workload, s)?;
                rt.site.add_account(&s.account, &s.allocation);
            }
            for ep in self.endpoints.iter().filter(|e| e.site as usize == ix) {
                let mut single = |provider| {
                    fed.register_single(&ep.name, site_id, user.identity.id, &s.account, provider)
                };
                let registered = match &ep.kind {
                    EndpointKindDecl::Single => single(TaskProvider::Local),
                    &EndpointKindDecl::Pilot {
                        cores,
                        walltime_secs,
                    } => single(TaskProvider::Slurm {
                        cores,
                        walltime_secs,
                    }),
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
                        fed.register_multi(&ep.name, site_id, mapping, tpl)
                    }
                };
                registered.map_err(|e| SpecError(format!("endpoint `{}`: {e}", ep.name)))?;
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
        let workflow = self.workflow_def();
        let workflow_name = workflow.name.clone();
        fed.engine.add_workflow(&self.workload.repo, workflow);

        Ok(BuiltScenario {
            fed,
            user,
            repo: self.workload.repo.clone(),
            workflow: workflow_name,
            environments,
            endpoints: endpoint_names,
            pusher: self.user.login.clone(),
            dispatch_trigger: self.workload.kind == WorkloadKind::Kamping,
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

    /// The workflow installed for the workload. A one-endpoint recipe names
    /// the first endpoint `build_on` registers: it registers them site by
    /// site. Needs a spec that `validate` has checked up to its endpoints.
    pub(crate) fn workflow_def(&self) -> WorkflowDef {
        let environment = |ep: &EndpointDecl| self.sites[ep.site as usize].environment.as_str();
        let first = self
            .endpoints
            .iter()
            .min_by_key(|ep| ep.site)
            .map_or("", |ep| ep.name.as_str());
        match self.workload.kind {
            WorkloadKind::Parsldock => {
                let pairs: Vec<(&str, &str)> = self
                    .endpoints
                    .iter()
                    .map(|ep| (environment(ep), ep.name.as_str()))
                    .collect();
                recipes::multi_site_workflow(&self.workload.workflow, &pairs, "pytest tests/")
            }
            WorkloadKind::Psij => recipes::single_site_workflow(
                &self.workload.workflow,
                environment(&self.endpoints[0]),
                first,
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
                    environment(&self.endpoints[0]),
                    first,
                    &pairs,
                )
            }
            WorkloadKind::Synthetic => {
                let mut wf =
                    WorkflowDef::new(&self.workload.workflow).on_event(TriggerEvent::push_any());
                for ep in &self.endpoints {
                    let mut job =
                        JobDef::new(&format!("test-{}", ep.name)).with_environment(environment(ep));
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
    site: &SiteSpec,
) -> Result<(), SpecError> {
    match workload.kind {
        WorkloadKind::Parsldock => {
            let repo_dir = workload.repo.split('/').next_back().unwrap_or("repo");
            hpcci_parsldock::install_pytest(&mut rt.commands, repo_dir);
        }
        WorkloadKind::Psij => {
            hpcci_psij::install_psij_pytest(&mut rt.commands, &site.software_env, site.cores);
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
    use hpcci_faas::TaskId;
    use hpcci_sim::Sym;
    use std::sync::Arc;

    #[test]
    fn a_constant_handlers_tasks_share_one_output_text() {
        let spec = ScenarioSpec::minimal("shared-output", 11);
        let mut s = spec.build_on(Federation::builder(spec.seed).build()).expect("compiles");
        for _ in 0..2 {
            s.trigger_round("vhayot").unwrap();
        }
        let cloud = s.fed.cloud.lock();
        let ids = (1..=cloud.task_count() as u64).map(TaskId);
        let texts: Vec<&Sym> = ids
            .map(|id| &cloud.task_result(id).expect("finished").stdout)
            .filter(|stdout| stdout.starts_with("====="))
            .collect();
        let [Sym::Shared(a), Sym::Shared(b)] = texts[..] else {
            panic!("two runs, two synthetic tasks, each with a shared text: {texts:?}");
        };
        assert!(Arc::ptr_eq(a, b), "one text, one allocation");
    }

    #[test]
    fn minimal_spec_compiles_and_runs_green() {
        let spec = ScenarioSpec::minimal("compile-smoke", 11);
        let fed = Federation::builder(spec.seed).build();
        let mut s = spec.build_on(fed).expect("compiles");
        assert_eq!(s.environments, vec!["env-wks-0".to_string()]);
        assert_eq!(s.endpoints, vec!["ep-wks-0".to_string()]);
        let runs = s.trigger_round("vhayot").unwrap();
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
        let runs = s.trigger_round("vhayot").unwrap();
        let run = s.fed.engine.run(runs[0]).expect("run exists");
        assert_eq!(run.status, hpcci_ci::RunStatus::Failure);
    }

    #[test]
    fn a_reviewer_the_environment_does_not_list_is_an_error_naming_them() {
        let spec = ScenarioSpec::minimal("compile-mallory", 13);
        let mut s = spec.build_on(Federation::builder(spec.seed).build()).expect("compiles");
        let err = s.push_approve_run("mallory").unwrap_err();
        assert!(err.0.contains("mallory"), "{err}");
    }
}
