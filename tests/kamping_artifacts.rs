//! §6.3: reproducing the KaMPIng paper's artifact suite through CORRECT,
//! with the MEP running inside the published container on Chameleon.

use hpcci::ci::RunStatus;
use hpcci::minimpi::KAMPING_ARTIFACTS;
use hpcci::scenarios::kamping_scenario;

#[test]
fn all_artifact_evaluation_experiments_pass() {
    let mut s = kamping_scenario(81);
    let run_id = s.dispatch_approve_run("vhayot");
    let run = s.fed.engine.run(run_id).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());

    // "execution stdout and stderr published alongside the workflow
    // execution" — one artifact per experiment.
    let now = s.fed.now();
    for name in KAMPING_ARTIFACTS {
        let artifact = s
            .fed
            .engine
            .artifacts
            .fetch(run_id, name, now)
            .unwrap_or_else(|_| panic!("artifact {name}"));
        assert!(
            artifact.text().contains("PASSED"),
            "{name}: {}",
            artifact.text()
        );
    }
}

#[test]
fn same_seed_runs_store_byte_identical_artifacts() {
    // A stored artifact is evidence a third party re-runs and compares, so
    // nothing read off the host (such as wall-clock timings) may enter it.
    let stored = || {
        let mut s = kamping_scenario(63);
        let run_id = s.dispatch_approve_run("vhayot");
        let now = s.fed.now();
        KAMPING_ARTIFACTS.map(|name| {
            let artifact = s.fed.engine.artifacts.fetch(run_id, name, now).unwrap();
            (artifact.content.clone(), artifact.digest)
        })
    };
    let (first, second) = (stored(), stored());
    for ((name, a), b) in KAMPING_ARTIFACTS.iter().zip(&first).zip(&second) {
        assert_eq!(a, b, "artifact `{name}` differs between two same-seed runs");
    }
}

#[test]
fn artifacts_run_inside_the_container() {
    // Dropping the container from the MEP template makes the artifact
    // scripts refuse to run — the §6.3 setup is load-bearing, not cosmetic.
    use hpcci::auth::IdentityMapping;
    use hpcci::cluster::Site;
    use hpcci::correct::recipes;
    use hpcci::faas::MepTemplate;

    let mut fed = hpcci::correct::Federation::builder(82).build();
    let user = fed.onboard_user("vhayot@uchicago.edu", "uchicago.edu");
    let site = fed.add_site(Site::chameleon_tacc(), 64);
    {
        let mut rt = fed.site(site).shared.lock();
        rt.site.add_account("cc", "chameleon");
        hpcci::minimpi::install_artifacts(&mut rt.commands);
    }
    let mut mapping = IdentityMapping::new("chameleon-tacc");
    mapping.add_explicit("vhayot@uchicago.edu", "cc");
    // No .in_container(...) here.
    fed.register(hpcci::correct::EndpointSpec::multi_user("ep-bare", site, mapping, MepTemplate::login_only()));

    let now = fed.now();
    fed.hosting.lock().create_repo("kamping-site", "kamping-reproducibility", now);
    let tree = hpcci::vcs::WorkTree::new()
        .with_file("artifacts/allreduce.sh", "#!/bin/bash\n");
    fed.hosting
        .lock()
        .push(
            "kamping-site/kamping-reproducibility",
            "main",
            tree,
            "k",
            "import",
            now,
        )
        .unwrap();
    let _ = fed.pump_events();
    fed.provision_environment("kamping-site/kamping-reproducibility", "chameleon", "vhayot", &user);
    let wf = recipes::artifact_suite_workflow(
        "kamping-bare",
        "chameleon",
        "ep-bare",
        &[("allreduce", "bash artifacts/allreduce.sh")],
    );
    fed.engine.add_workflow("kamping-site/kamping-reproducibility", wf);
    let commit = fed
        .hosting
        .lock()
        .repo("kamping-site/kamping-reproducibility")
        .unwrap()
        .head("main")
        .unwrap()
        .short();
    let run = fed
        .engine
        .dispatch(
            "kamping-site/kamping-reproducibility",
            "kamping-bare",
            "main",
            &commit,
            fed.now(),
        )
        .unwrap();
    fed.approve_and_run(run, "vhayot").unwrap();
    let record = fed.engine.run(run).unwrap();
    assert_eq!(record.status, RunStatus::Failure);
    assert!(record.full_log().contains("container"));
}
