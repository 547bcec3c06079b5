//! Ablation (DESIGN.md §4.4): on sites whose compute nodes have no outbound
//! internet (FASTER, Expanse), a naive single-provider endpoint fails the
//! repository clone; the paper's MEP template with a login-node provider for
//! `git` is what makes CORRECT work there (§6.1, §7.1).

use hpcci::auth::IdentityMapping;
use hpcci::cluster::Site;
use hpcci::correct::{recipes, Federation};
use hpcci::faas::MepTemplate;
use hpcci::ci::RunStatus;
use hpcci::vcs::WorkTree;

fn faster_world(split_template: bool) -> (Federation, hpcci::ci::RunId) {
    let mut fed = Federation::builder(11).build();
    let user = fed.onboard_user("vhayot@uchicago.edu", "uchicago.edu");
    let site = fed.add_site(Site::tamu_faster(), 64);
    {
        let mut rt = fed.site(site).shared.lock();
        rt.site.add_account("x-vhayot", "CIS230030");
        hpcci::parsldock::install_pytest(&mut rt.commands, "app");
    }
    let mut mapping = IdentityMapping::new("tamu-faster");
    mapping.add_explicit("vhayot@uchicago.edu", "x-vhayot");
    let template = if split_template {
        MepTemplate::hpc_split(64, 3600)
    } else {
        // Naive: every command, including `git`, goes to compute nodes.
        let mut t = MepTemplate::hpc_split(64, 3600);
        t.login_commands.clear();
        t
    };
    fed.register_multi("ep-faster", site, mapping, template).unwrap();

    let now = fed.now();
    fed.hosting.lock().create_repo("lab", "app", now);
    let tree = WorkTree::new()
        .with_file("README.md", "# app\n")
        .with_file("tests/test_app.py", "# tests\n");
    fed.hosting.lock().push("lab/app", "main", tree, "vhayot", "import", now).unwrap();
    let _ = fed.pump_events();
    fed.provision_environment("lab/app", "faster-vhayot", "vhayot", &user);
    fed.engine.add_workflow(
        "lab/app",
        recipes::single_site_workflow("hpc-ci", "faster-vhayot", "ep-faster", "pytest tests/"),
    );
    let commit = fed.hosting.lock().repo("lab/app").unwrap().head("main").unwrap().short();
    let run = fed
        .engine
        .dispatch("lab/app", "hpc-ci", "main", &commit, fed.now())
        .unwrap();
    fed.approve_and_run(run, "vhayot").unwrap();
    (fed, run)
}

#[test]
fn naive_template_fails_clone_on_isolated_compute_nodes() {
    let (fed, run) = faster_world(false);
    let record = fed.engine.run(run).unwrap();
    assert_eq!(record.status, RunStatus::Failure);
    assert!(
        record.full_log().contains("no route to host"),
        "the network policy, not some other error, kills the clone:\n{}",
        record.full_log()
    );
}

#[test]
fn split_template_clones_on_login_and_tests_on_compute() {
    let (fed, run) = faster_world(true);
    let record = fed.engine.run(run).unwrap();
    assert_eq!(record.status, RunStatus::Success, "log:\n{}", record.full_log());
    let step = record.step("run").unwrap();
    assert!(step.stdout.contains("Cloning into"));
    assert!(step.stdout.contains("8 passed"));
}
