//! §5.3's repeatability recipe, executed: a non-contributor (1) forks the
//! repository, (2) instantiates their own endpoint, (3) saves their own
//! FaaS secrets in a GitHub environment, (4) swaps the endpoint UUID in the
//! workflow, and (5) triggers it — reproducing the original author's result
//! on *their* infrastructure.
//!
//! ```sh
//! cargo run --example fork_and_swap
//! ```

use hpcci::auth::IdentityMapping;
use hpcci::ci::workflow::{JobDef, TriggerEvent, WorkflowDef};
use hpcci::cluster::Site;
use hpcci::correct::{recipes, Federation};
use hpcci::faas::{ExecOutcome, MepTemplate};
use hpcci::provenance::{EnvironmentCapture, ExecutionRecord};
use hpcci::vcs::WorkTree;

fn install_site(fed: &mut Federation, site: Site, local_user: &str, federated: &str, ep: &str) {
    let site_id = fed.add_site(site, 64);
    {
        let mut rt = fed.site(site_id).shared.lock();
        rt.site.add_account(local_user, "repro");
        rt.commands.register("pytest", |env| {
            ExecOutcome::ok(
                format!("4 passed on {} as {}", env.node, env.account.username),
                6.0,
            )
        });
    }
    let site_name = fed.site(site_id).name.clone();
    let mut mapping = IdentityMapping::new(&site_name);
    mapping.add_explicit(federated, local_user);
    fed.register_multi(ep, site_id, mapping, MepTemplate::login_only()).unwrap();
}

fn record_of(fed: &Federation, run: hpcci::ci::RunId, repo: &str, site: &str) -> ExecutionRecord {
    let r = fed.engine.run(run).unwrap();
    let step = r.step("run").unwrap();
    let handle = fed.site_by_name(site).unwrap();
    ExecutionRecord {
        repo: repo.to_string(),
        commit: r.commit.to_string(),
        command: "pytest tests/".to_string(),
        environment: EnvironmentCapture::of_site(&handle.shared.lock().site, None, None),
        ran_as: step.outputs["ran_as"].clone(),
        node: step.outputs["node"].clone(),
        started_us: step.started.as_micros(),
        ended_us: step.ended.as_micros(),
        success: step.success,
        stdout: step.stdout.clone(),
        stderr: step.stderr.clone(),
    }
}

fn main() {
    let mut fed = Federation::builder(777).build();

    // The original author publishes the repo + workflow bound to her site.
    let author = fed.onboard_user("vhayot@uchicago.edu", "uchicago.edu");
    install_site(&mut fed, Site::purdue_anvil(), "x-vhayot", "vhayot@uchicago.edu", "ep-anvil");
    let upstream = "globus-labs/repro-app";
    let now = fed.now();
    fed.hosting.lock().create_repo("globus-labs", "repro-app", now);
    fed.hosting
        .lock()
        .push(
            upstream,
            "main",
            WorkTree::new().with_file("tests/test_app.py", "# 4 tests\n"),
            "vhayot",
            "import",
            now,
        )
        .unwrap();
    let _ = fed.pump_events();
    fed.provision_environment(upstream, "anvil-vhayot", "vhayot", &author);
    let author_workflow = WorkflowDef::new("repro")
        .on_event(TriggerEvent::push_any())
        .with_job(
            JobDef::new("test")
                .with_environment("anvil-vhayot")
                .with_step(recipes::correct_step("run", "ep-anvil", "pytest tests/")),
        );
    fed.engine.add_workflow(upstream, author_workflow.clone());

    // Author's own run.
    let tree = WorkTree::new().with_file("tests/test_app.py", "# 4 tests v2\n");
    fed.hosting.lock().push(upstream, "main", tree, "vhayot", "v2", fed.now()).unwrap();
    let author_runs = fed.pump_events();
    fed.approve_and_run(author_runs[0], "vhayot").unwrap();
    let author_record = record_of(&fed, author_runs[0], upstream, "purdue-anvil");
    println!("author's record:\n{}\n", author_record.render());

    // A reviewer reproduces on *their* infrastructure.
    let reviewer = fed.onboard_user("reviewer@tu-dresden.de", "tu-dresden.de");
    install_site(
        &mut fed,
        Site::workstation("dresden-lab"),
        "reviewer",
        "reviewer@tu-dresden.de",
        "ep-dresden",
    );
    // (1) fork
    let fork = fed.hosting.lock().fork(upstream, "reviewer").unwrap();
    let _ = fed.pump_events();
    // (3) own secrets in their own environment; (4) swapped endpoint UUID.
    fed.provision_environment(&fork, "dresden", "reviewer", &reviewer);
    let swapped = WorkflowDef::new("repro")
        .on_event(TriggerEvent::push_any())
        .with_job(
            JobDef::new("test")
                .with_environment("dresden")
                .with_step(recipes::correct_step("run", "ep-dresden", "pytest tests/")),
        );
    fed.engine.add_workflow(&fork, swapped);
    // (5) trigger.
    let now = fed.now();
    let tree = fed
        .hosting
        .lock()
        .repo(&fork)
        .unwrap()
        .checkout_branch("main")
        .unwrap()
        .clone();
    fed.hosting.lock().push(&fork, "main", tree.with_file("TRIGGER", "1"), "reviewer", "repro run", now).unwrap();
    let reviewer_runs = fed.pump_events();
    fed.approve_and_run(reviewer_runs[0], "reviewer").unwrap();
    let reviewer_record = record_of(&fed, reviewer_runs[0], &fork, "dresden-lab");
    println!("reviewer's record:\n{}\n", reviewer_record.render());

    // Both succeeded on independent infrastructure, as different users.
    assert!(author_record.success && reviewer_record.success);
    assert_ne!(author_record.ran_as, reviewer_record.ran_as);
    assert_ne!(author_record.environment.site, reviewer_record.environment.site);
    println!(
        "reproduced: same command, same outcome, different site ({} vs {}) and identity ({} vs {})",
        author_record.environment.site,
        reviewer_record.environment.site,
        author_record.ran_as,
        reviewer_record.ran_as
    );
}
