//! §7.4's extensions, exercised end to end: the secondary environment-
//! capture task publishing the remote software environment as a workflow
//! artifact, and archiving runs into research objects that outlive the CI
//! retention window — closing the loop back to §5's thesis (accounting +
//! re-execution substitutes for resource access) and §3.1's badge process.

use hpcci::auth::IdentityMapping;
use hpcci::ci::workflow::{JobDef, StepDef, TriggerEvent, WorkflowDef};
use hpcci::ci::RunStatus;
use hpcci::cluster::Site;
use hpcci::correct::{archive_from_engine, recipes, Federation};
use hpcci::faas::MepTemplate;
use hpcci::provenance::badges::{Artifact, BadgeLevel, Reviewer};
use hpcci::sim::DetRng;
use hpcci::vcs::WorkTree;

fn world() -> (Federation, hpcci::ci::RunId) {
    let mut fed = Federation::builder(17).build();
    let user = fed.onboard_user("vhayot@uchicago.edu", "uchicago.edu");
    let site = fed.add_site(Site::purdue_anvil(), 128);
    {
        let mut rt = fed.site(site).shared.lock();
        rt.site.add_account("x-vhayot", "CIS230030");
        let env = rt.site.envs.create("psij");
        env.install("psij-python", "0.9.9");
        env.install("typeguard", "3.0.2");
        rt.commands
            .register("pytest", |_| hpcci::faas::ExecOutcome::ok("6 passed", 8.0));
    }
    let mut mapping = IdentityMapping::new("purdue-anvil");
    mapping.add_explicit("vhayot@uchicago.edu", "x-vhayot");
    fed.register_multi("ep-anvil", site, mapping, MepTemplate::login_only()).unwrap();

    let repo = "ExaWorks/psij-python";
    let now = fed.now();
    fed.hosting.lock().create_repo("ExaWorks", "psij-python", now);
    fed.hosting
        .lock()
        .push(repo, "main", WorkTree::new().with_file("tests/t.py", "#"), "h", "i", now)
        .unwrap();
    let _ = fed.pump_events();
    fed.provision_environment(repo, "anvil-vhayot", "vhayot", &user);
    // capture_environment=true: CORRECT runs the secondary capture task and
    // attaches `environment.txt`.
    fed.engine.add_workflow(
        repo,
        WorkflowDef::new("ci-with-capture")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("remote")
                    .with_environment("anvil-vhayot")
                    .with_step(
                        recipes::correct_step_with_capture("run", "ep-anvil", "pytest tests/")
                            .allow_failure(),
                    )
                    .with_step(StepDef::upload_artifact("save", "pytest-output", "run")),
            ),
    );
    let tree = WorkTree::new().with_file("tests/t.py", "# v2");
    fed.hosting.lock().push(repo, "main", tree, "v", "change", fed.now()).unwrap();
    let runs = fed.pump_events();
    fed.approve_and_run(runs[0], "vhayot").unwrap();
    (fed, runs[0])
}

#[test]
fn environment_capture_publishes_the_remote_stack() {
    let (fed, run) = world();
    assert_eq!(fed.engine.run(run).unwrap().status, RunStatus::Success);
    let now = fed.now();
    let capture = fed
        .engine
        .artifacts
        .fetch(run, "environment.txt", now)
        .expect("environment artifact attached");
    let text = capture.text();
    assert!(text.contains("site: purdue-anvil"), "{text}");
    assert!(text.contains("cores=128"));
    // §7.4: "without information about the environment, users can only see
    // the results of previous executions" — now they see both.
}

#[test]
fn archived_run_supports_a_badge_review_without_site_access() {
    let (fed, run) = world();
    let now = fed.now();
    let ro = archive_from_engine(&fed.engine, run, now, 2025).unwrap();
    assert!(ro.artifacts_available());
    assert!(ro.doi.is_some());
    assert!(ro.demonstrates_sites(1));

    // A reproducibility reviewer without Anvil access treats the archived
    // execution records as remote CI evidence (§6.3's argument) and can
    // award the top badge despite the hardware gate.
    let artifact = Artifact {
        publicly_archived: ro.artifacts_available(),
        documented: !ro.documentation.is_empty(),
        ae_quality: 0.9,
        has_ci: true,
        hardware_gated: true,
        remote_ci_evidence: ro.demonstrates_sites(1),
        experiment_hours: 2.0,
        result_variance: 0.02,
    };
    let outcome = Reviewer::default().review(&artifact, &mut DetRng::seed_from_u64(3));
    assert_eq!(outcome.awarded, Some(BadgeLevel::ResultsReproduced));

    // Without the records, the same artifact stalls at Artifacts Evaluated.
    let without = Artifact {
        remote_ci_evidence: false,
        ..artifact
    };
    let outcome2 = Reviewer::default().review(&without, &mut DetRng::seed_from_u64(3));
    assert_eq!(outcome2.awarded, Some(BadgeLevel::ArtifactsEvaluated));
}

#[test]
fn archive_retains_what_ci_retention_drops() {
    let (mut fed, run) = world();
    let now = fed.now();
    let ro = archive_from_engine(&fed.engine, run, now, 7).unwrap();
    let names: Vec<&str> = ro.data.iter().map(|d| d.name.as_str()).collect();
    assert!(names.contains(&"pytest-output"));
    assert!(names.contains(&"environment.txt"));

    // Fast-forward past the 90-day window.
    let day91 = hpcci::sim::SimTime::from_secs(91 * 24 * 3600);
    fed.engine.artifacts.purge_expired(day91);
    assert!(fed.engine.artifacts.fetch(run, "pytest-output", day91).is_err());
    // The research object still carries everything a reviewer needs.
    assert_eq!(ro.executions.len(), fed.engine.run(run).unwrap().steps.len());
    assert!(ro.executions.iter().any(|e| e.stdout.contains("6 passed")));
}
