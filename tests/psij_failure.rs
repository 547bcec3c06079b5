//! §6.2 / Fig. 5: the PSI/J run that *fails* — a dependency error in the
//! codebase — and how CORRECT surfaces it: failure in the CI UI, full
//! stdout/stderr preserved as artifacts.

use hpcci::ci::RunStatus;
use hpcci::correct::Federation;
use hpcci::paper;

#[test]
fn dependency_fault_fails_the_run_like_fig5() {
    let fed = Federation::builder(71).build();
    let mut s = paper::world(paper::FIG5_PSIJ_TYPEGUARD_MISSING, fed).unwrap();
    let runs = s.push_approve_run("vhayot").unwrap();
    let run = s.fed.engine.run(runs[0]).unwrap().clone();

    // Fig. 5 top: the failure is visible in the UI.
    assert_eq!(run.status, RunStatus::Failure);
    let step = run.step("run").expect("correct step recorded");
    assert!(!step.success);
    assert!(step.stderr.contains("typeguard"), "stderr: {}", step.stderr);
    assert!(step.stderr.contains("FAILED"));

    // Fig. 5 bottom: the full execution stdout is stored as an artifact
    // "regardless of whether the tests pass or fail".
    let now = s.fed.now();
    let artifact = s
        .fed
        .engine
        .artifacts
        .fetch(runs[0], "pytest-output", now)
        .expect("artifact stored despite failure");
    let text = artifact.text();
    assert!(text.contains("Requirement already satisfied: psutil>=5.9"));
    assert!(text.contains("No matching distribution found for typeguard>=3.0.1"));
}

#[test]
fn fixing_the_environment_fixes_the_run() {
    // The same scenario with the dependency installed passes — CI detects
    // recovery, which is the point of continuous reproducibility.
    let mut s = paper::world(paper::FIG5_PSIJ, Federation::builder(72).build()).unwrap();
    let runs = s.push_approve_run("vhayot").unwrap();
    assert_eq!(s.fed.engine.run(runs[0]).unwrap().status, RunStatus::Success);
}

#[test]
fn cron_baseline_reports_the_same_failure_on_its_dashboard() {
    // The paper's comparison: PSI/J's existing cron CI catches the same
    // fault, but runs as the deploying user and reports to a dashboard
    // instead of the workflow UI.
    use hpcci::psij::CronCi;
    use hpcci::sim::{Advance, SimDuration, SimTime};

    let fed = Federation::builder(73).build();
    let s = paper::world(paper::FIG5_PSIJ_TYPEGUARD_MISSING, fed).unwrap();
    let handle = s.fed.site_by_name("purdue-anvil").unwrap().clone();
    let mut cron = CronCi::new(
        handle.shared.clone(),
        "x-vhayot",
        SimDuration::from_hours(24),
        "pytest tests/",
    );
    cron.advance_to(SimTime::from_secs(24 * 3600));
    assert_eq!(cron.dashboard().len(), 1);
    let entry = &cron.dashboard()[0];
    assert!(!entry.passed);
    assert!(entry.summary.contains("typeguard") || entry.summary.contains("ERROR"));
    // The cron job cannot attribute the change author — it always runs as
    // the deploying account. CORRECT's audit log can (see
    // correct_end_to_end::identity_mapping_audited_at_the_mep).
    assert_eq!(cron.local_user, "x-vhayot");
}

#[test]
fn infrastructure_failure_is_distinct_from_the_dependency_test_failure() {
    // Endpoint-layer faults exhaust every retry: the MEP fails to fork a
    // user endpoint three times in a row (initial attempt + 2 retries).
    use hpcci::sim::{FaultKind, FaultPlan, SimTime};
    let mut plan = FaultPlan::none();
    for _ in 0..3 {
        plan = plan.with_fault(
            SimTime::ZERO,
            FaultKind::MepForkFailure {
                endpoint: "ep-anvil".into(),
                user: "any".into(),
            },
        );
    }
    let fed = Federation::builder(74).faults(plan).build();
    let mut s = paper::world(paper::FIG5_PSIJ, fed).unwrap();
    let runs = s.push_approve_run("vhayot").unwrap();
    let run = s.fed.engine.run(runs[0]).unwrap().clone();

    // The run fails — but as an *infrastructure* failure: the site is
    // skipped, the step says so, and the `failure_kind` output lets a
    // dashboard separate platform flakiness from code regressions.
    assert_eq!(run.status, RunStatus::Failure);
    let step = run.step("run").expect("correct step recorded");
    assert!(!step.success);
    assert_eq!(
        step.outputs.get("failure_kind").map(String::as_str),
        Some("infrastructure")
    );
    assert!(
        step.stderr.contains("not the tests under evaluation"),
        "stderr: {}",
        step.stderr
    );
    // Artifacts are uploaded regardless, carrying the retry log.
    let now = s.fed.now();
    let artifact = s
        .fed
        .engine
        .artifacts
        .fetch(runs[0], "pytest-output", now)
        .expect("artifact stored despite infrastructure failure");
    assert!(artifact.text().contains("retry"), "{}", artifact.text());

    // The Fig. 5 dependency fault, by contrast, is a genuine *test*
    // failure: no infrastructure marker, and the pytest FAILED output is
    // what the step reports.
    let fed = Federation::builder(75).build();
    let mut t = paper::world(paper::FIG5_PSIJ_TYPEGUARD_MISSING, fed).unwrap();
    let truns = t.push_approve_run("vhayot").unwrap();
    let tstep = t
        .fed
        .engine
        .run(truns[0])
        .unwrap()
        .step("run")
        .unwrap()
        .clone();
    assert!(!tstep.outputs.contains_key("failure_kind"));
    assert!(tstep.stderr.contains("FAILED"));
}
