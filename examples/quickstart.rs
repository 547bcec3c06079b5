//! Quickstart: the Fig. 3 workflow end to end on a single remote machine.
//!
//! Builds a federation with one workstation endpoint, installs the exact
//! step from the paper's Fig. 3 (`tox` via `globus-labs/correct@v1`), pushes
//! a commit, approves the gated run, and prints the run log and badge.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hpcci::auth::IdentityMapping;
use hpcci::ci::workflow::{JobDef, TriggerEvent, WorkflowDef};
use hpcci::cluster::Site;
use hpcci::correct::{recipes, Federation};
use hpcci::faas::{ExecOutcome, MepTemplate};
use hpcci::vcs::WorkTree;

fn main() {
    // 1. A federation with one remote site: a lab workstation.
    let mut fed = Federation::builder(2025).build();
    let user = fed.onboard_user("vhayot@uchicago.edu", "uchicago.edu");
    let site = fed.add_site(Site::workstation("lab-server"), 16);
    {
        let mut rt = fed.site(site).shared.lock();
        rt.site.add_account("vhayot", "lab");
        // The remote test runner the Fig. 3 step invokes.
        rt.commands.register("tox", |env| {
            let cloned = format!("{}/quickstart-demo", env.clone_root());
            if env.site.fs.is_dir(&cloned) {
                ExecOutcome::ok("py312: commands succeeded\ncongratulations :)", 12.0)
            } else {
                ExecOutcome::fail("ERROR: repository not found on this machine", 0.5)
            }
        });
    }
    let mut mapping = IdentityMapping::new("lab-server");
    mapping.add_explicit("vhayot@uchicago.edu", "vhayot");
    fed.register_multi("ep-lab", site, mapping, MepTemplate::login_only()).unwrap();

    // 2. A repository with the Fig. 3 workflow.
    let repo = "globus-labs/quickstart-demo";
    let now = fed.now();
    fed.hosting.lock().create_repo("globus-labs", "quickstart-demo", now);
    fed.hosting
        .lock()
        .push(
            repo,
            "main",
            WorkTree::new()
                .with_file("README.md", "# quickstart\n")
                .with_file("tox.ini", "[tox]\nenvlist = py312\n"),
            "vhayot",
            "initial import",
            now,
        )
        .unwrap();
    let _ = fed.pump_events();

    println!("The Fig. 3 step definition:\n{}", recipes::fig3_yaml());

    fed.provision_environment(repo, "lab", "vhayot", &user);
    fed.engine.set_env_var(repo, "ENDPOINT_UUID", "ep-lab");
    fed.engine.add_workflow(
        repo,
        WorkflowDef::new("ci")
            .on_event(TriggerEvent::push_any())
            .with_job(JobDef::new("test").with_environment("lab").with_step(recipes::fig3_step())),
    );

    // 3. Push a change; the run waits for the sole reviewer's approval.
    let now = fed.now();
    let tree = fed
        .hosting
        .lock()
        .repo(repo)
        .unwrap()
        .checkout_branch("main")
        .unwrap()
        .clone()
        .with_file("src/feature.py", "def f(): return 42\n");
    fed.hosting
        .lock()
        .push(repo, "main", tree, "vhayot", "add feature", now)
        .unwrap();
    let runs = fed.pump_events();
    println!(
        "run {} status after push: {:?}",
        runs[0],
        fed.engine.run(runs[0]).unwrap().status
    );

    // 4. Approve and execute.
    fed.approve_and_run(runs[0], "vhayot").unwrap();
    let run = fed.engine.run(runs[0]).unwrap();
    println!("\n=== run log ===\n{}", run.full_log());
    println!("badge: {}", run.badge());
    println!("virtual time elapsed: {}", fed.now());
    assert_eq!(run.status, hpcci::ci::RunStatus::Success);
}
