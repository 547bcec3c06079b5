//! CI-mechanics integration: scheduled (nightly) runs and the approval
//! tension §7.2 describes, and pull-request-driven CI across a fork — the
//! PSI/J §6.2 code-review gate expressed with hosting + engine.

use hpcci::ci::workflow::{JobDef, StepDef, TriggerEvent, WorkflowDef};
use hpcci::ci::{Environment, FailureKind, RunId, RunStatus, Secret, SecretScope};
use hpcci::cluster::Site;
use hpcci::correct::{recipes, Federation};
use hpcci::faas::MepTemplate;
use hpcci::sim::SimTime;
use hpcci::vcs::{PullRequestId, WorkTree};

fn base_world() -> Federation {
    let mut fed = Federation::builder(23).build();
    let user = fed.onboard_user("vhayot@uchicago.edu", "uchicago.edu");
    let site = fed.add_site(Site::purdue_anvil(), 128);
    {
        let mut rt = fed.site(site).shared.lock();
        rt.site.add_account("x-vhayot", "CIS230030");
        rt.commands
            .register("pytest", |_| hpcci::faas::ExecOutcome::ok("6 passed", 5.0));
    }
    let mut mapping = hpcci::auth::IdentityMapping::new("purdue-anvil");
    mapping.add_explicit("vhayot@uchicago.edu", "x-vhayot");
    fed.register_multi("ep-anvil", site, mapping, MepTemplate::login_only()).unwrap();
    let now = fed.now();
    fed.hosting.lock().create_repo("lab", "app", now);
    fed.hosting
        .lock()
        .push(
            "lab/app",
            "main",
            WorkTree::new().with_file("tests/t.py", "#"),
            "vhayot",
            "import",
            now,
        )
        .unwrap();
    let _ = fed.pump_events();
    fed.provision_environment("lab/app", "anvil-vhayot", "vhayot", &user);
    fed
}

#[test]
fn nightly_schedule_fires_but_waits_for_approval_on_hpc() {
    // §7.2: "this may be problematic for nightly builds" — the approval gate
    // blocks unattended HPC execution; a parallel ungated cloud job runs
    // freely. Both workflows share the schedule.
    let mut fed = base_world();
    // Ungated cloud smoke job + gated HPC job, both nightly.
    fed.engine.add_environment("lab/app", Environment::new("cloud"));
    fed.engine.add_workflow(
        "lab/app",
        WorkflowDef::new("nightly-cloud")
            .on_event(TriggerEvent::Schedule { period_secs: 86_400 })
            .with_job(
                JobDef::new("smoke")
                    .with_environment("cloud")
                    .with_step(StepDef::run("lint", "ruff check .")),
            ),
    );
    fed.engine.add_workflow(
        "lab/app",
        WorkflowDef::new("nightly-hpc")
            .on_event(TriggerEvent::Schedule { period_secs: 86_400 })
            .with_job(
                JobDef::new("remote")
                    .with_environment("anvil-vhayot")
                    .with_step(recipes::correct_step("run", "ep-anvil", "pytest tests/")),
            ),
    );

    // A day passes.
    let tomorrow = SimTime::from_secs(86_400 + 60);
    let due = fed.engine.due_schedules(tomorrow);
    assert_eq!(due.len(), 2);
    let head = fed
        .hosting
        .lock()
        .repo("lab/app")
        .unwrap()
        .head("main")
        .unwrap()
        .short();
    let mut run_ids = Vec::new();
    for (repo, workflow) in due {
        run_ids.push(
            fed.engine
                .dispatch(&repo, &workflow, "main", &head, tomorrow)
                .unwrap(),
        );
    }
    // The cloud job executed unattended; the HPC job is stuck awaiting its
    // sole reviewer.
    fed.run_all();
    let statuses: Vec<RunStatus> = run_ids
        .iter()
        .map(|&id| fed.engine.run(id).unwrap().status)
        .collect();
    assert_eq!(statuses[0], RunStatus::Success, "cloud smoke ran unattended");
    assert_eq!(statuses[1], RunStatus::AwaitingApproval, "HPC gated");
    // The reviewer catches up next morning.
    fed.approve_and_run(run_ids[1], "vhayot").unwrap();
    assert_eq!(fed.engine.run(run_ids[1]).unwrap().status, RunStatus::Success);
}

/// A workflow run on every pull request: one CORRECT step at Anvil, in
/// `environment` when one is named.
fn pr_workflow(environment: Option<&str>) -> WorkflowDef {
    let mut job = JobDef::new("remote");
    if let Some(env) = environment {
        job = job.with_environment(env);
    }
    let step = recipes::correct_step("run", "ep-anvil", "pytest tests/");
    WorkflowDef::new("pr-ci")
        .on_event(TriggerEvent::PullRequest)
        .with_job(job.with_step(step))
}

/// Store the Globus credentials `base_world` provisioned for `anvil-vhayot`
/// under `scope` as well.
fn share_credentials(fed: &mut Federation, scope: SecretScope) {
    let creds = fed.engine.secrets.resolve("lab", "lab/app", Some("anvil-vhayot"));
    for (name, value) in creds.iter() {
        fed.engine.secrets.put(scope.clone(), Secret::new(name, value));
    }
}

/// Push a change to `branch` of `head_repo` and open a pull request from it
/// into `lab/app`'s `main`; returns the pull request and the runs it opened.
fn open_pr(fed: &mut Federation, head_repo: &str, branch: &str) -> (PullRequestId, Vec<RunId>) {
    let now = fed.now();
    let tree = WorkTree::new()
        .with_file("tests/t.py", "#")
        .with_file("src/fix.py", "def fix(): ...");
    let mut hosting = fed.hosting.lock();
    hosting.push(head_repo, branch, tree, "contributor", "fix the bug", now).unwrap();
    let pr = hosting
        .open_pull_request("lab/app", "main", head_repo, branch, "contributor", "Fix the bug", now)
        .unwrap();
    drop(hosting);
    (pr, fed.pump_events())
}

#[test]
fn fork_pull_request_runs_ci_after_core_review_and_merges() {
    let mut fed = base_world();
    fed.engine.add_workflow("lab/app", pr_workflow(Some("anvil-vhayot")));

    // A contributor forks and proposes a change.
    let fork = fed.hosting.lock().fork("lab/app", "contributor").unwrap();
    let (pr, runs) = open_pr(&mut fed, &fork, "fix-bug");
    assert_eq!(runs.len(), 1, "PR opened one CI run");
    // The gate: a core developer (the environment's sole reviewer) must
    // approve before contributor code touches the HPC site — PSI/J's
    // tagged-PR policy, enforced structurally.
    assert_eq!(
        fed.engine.run(runs[0]).unwrap().status,
        RunStatus::AwaitingApproval
    );
    // Even approved, the fork's run gets none of the environment's secrets:
    // the CORRECT step refuses before it reaches Globus Compute.
    let tasks = fed.cloud.lock().task_count();
    fed.approve_and_run(runs[0], "vhayot").unwrap();
    let run = fed.engine.run(runs[0]).unwrap();
    assert_eq!(run.status, RunStatus::Failure);
    let step = run.step("run").unwrap();
    assert!(step.stderr.contains("missing required input `client_id`"), "{}", step.stderr);
    assert_eq!(fed.cloud.lock().task_count(), tasks, "no task submitted");

    // Review -> merge; main now carries the fix.
    fed.hosting.lock().approve(pr, "vhayot").unwrap();
    let now = fed.now();
    fed.hosting.lock().merge_pull_request(pr, "vhayot", now).unwrap();
    let main_tree = fed
        .hosting
        .lock()
        .repo("lab/app")
        .unwrap()
        .checkout_branch("main")
        .unwrap()
        .clone();
    assert!(main_tree.contains("src/fix.py"));
}

#[test]
fn fork_pull_request_from_main_is_not_admitted_to_a_main_only_environment() {
    // No reviewer stands in the way: only the branch rule guards the
    // credentials. A fork's `main` is not the base's `main`.
    let mut fed = base_world();
    fed.engine
        .add_environment("lab/app", Environment::new("anvil-main").restrict_branch("main"));
    let scope = SecretScope::Environment {
        repo: "lab/app".into(),
        environment: "anvil-main".into(),
    };
    share_credentials(&mut fed, scope);
    fed.engine.add_workflow("lab/app", pr_workflow(Some("anvil-main")));

    let fork = fed.hosting.lock().fork("lab/app", "contributor").unwrap();
    let tasks = fed.cloud.lock().task_count();
    let (_, runs) = open_pr(&mut fed, &fork, "main");
    fed.run_all();
    assert_eq!(fed.cloud.lock().task_count(), tasks, "no task submitted");
    assert!(runs.is_empty(), "refs/pull/1/merge is not `main`");
}

#[test]
fn fork_pull_request_resolves_no_repository_secret() {
    let mut fed = base_world();
    share_credentials(&mut fed, SecretScope::Repository("lab/app".into()));
    fed.engine.add_workflow("lab/app", pr_workflow(None));

    let fork = fed.hosting.lock().fork("lab/app", "contributor").unwrap();
    let tasks = fed.cloud.lock().task_count();
    let (pr, runs) = open_pr(&mut fed, &fork, "fix-bug");
    fed.run_all();
    assert_eq!(fed.cloud.lock().task_count(), tasks, "no task submitted");
    let run = fed.engine.run(runs[0]).unwrap();
    assert_eq!(run.status, RunStatus::Failure);
    let step = run.step("run").unwrap();
    assert!(step.stderr.contains("missing required input `client_id`"), "{}", step.stderr);
    assert!(step.tasks.is_empty());
    assert_eq!(run.failure_kind(), Some(FailureKind::Test), "never infrastructure");
    assert_eq!(run.branch.as_str(), format!("refs/pull/{}/merge", pr.0));
}

#[test]
fn same_repo_pull_request_keeps_its_environment_secrets() {
    let mut fed = base_world();
    fed.engine.add_environment("lab/app", Environment::new("anvil-open"));
    let scope = SecretScope::Environment {
        repo: "lab/app".into(),
        environment: "anvil-open".into(),
    };
    share_credentials(&mut fed, scope);
    fed.engine.add_workflow("lab/app", pr_workflow(Some("anvil-open")));

    let (_, runs) = open_pr(&mut fed, "lab/app", "fix-bug");
    fed.run_all();
    let run = fed.engine.run(runs[0]).unwrap();
    assert_eq!(run.status, RunStatus::Success);
    assert!(!run.step("run").unwrap().tasks.is_empty());
}

#[test]
fn badge_appears_on_the_repo_after_green_runs() {
    let mut fed = base_world();
    fed.engine.add_workflow(
        "lab/app",
        WorkflowDef::new("ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("remote")
                    .with_environment("anvil-vhayot")
                    .with_step(recipes::correct_step("run", "ep-anvil", "pytest tests/")),
            ),
    );
    let now = fed.now();
    let tree = WorkTree::new().with_file("tests/t.py", "# v2");
    fed.hosting.lock().push("lab/app", "main", tree, "vhayot", "v2", now).unwrap();
    let runs = fed.pump_events();
    fed.approve_and_run(runs[0], "vhayot").unwrap();
    assert_eq!(fed.engine.run(runs[0]).unwrap().badge(), "[ci | passing]");
}
