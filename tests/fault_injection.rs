//! Chaos conformance suite: deterministic fault injection across the
//! federation, exercised end-to-end through CORRECT workflows.
//!
//! Every test follows the same contract: faults are scheduled on a
//! [`FaultPlan`] at virtual times, the scenario runs to quiescence, and the
//! suite asserts (a) the outcome — bounded retries recover transient faults,
//! unrecoverable faults degrade to a *reported* infrastructure failure,
//! never a hang or panic — and (b) the chaos log, where every injection and
//! recovery is recorded. The last tests pin the zero-perturbation guarantee:
//! an empty plan leaves the run bit-identical to one with the disabled
//! injector, on the Fig. 4 federations and across a generated fleet.

use hpcci::ci::workflow::{JobDef, StepDef, TriggerEvent, WorkflowDef};
use hpcci::ci::{CacheMode, RunStatus, WorkflowRun};
use hpcci::correct::{Federation, CORRECT_ACTION_NAME};
use hpcci::faas::{TaskId, TaskProvider, TaskState};
use hpcci::paper;
use hpcci::scen::{
    BuiltScenario, CacheModeDecl, FaultDecl, FaultKindDecl, ScenarioGen, ScenarioSpec,
};
use hpcci::sim::{FaultKind, FaultPlan, SimDuration, SimTime};

/// A MEP that fails to fork the user endpoint once: the submission comes
/// back as an infrastructure failure, CORRECT retries with backoff, and the
/// next fork succeeds — the run passes.
#[test]
fn mep_fork_failure_is_retried_and_recovers() {
    let plan = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::MepForkFailure {
            endpoint: "ep-anvil".into(),
            user: "any".into(),
        },
    );
    let fed = Federation::builder(81).faults(plan).build();
    let mut s = paper::world(paper::FIG5_PSIJ, fed).unwrap();
    let runs = s.push_approve_run("vhayot").unwrap();
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());

    // The retry is visible in the step log, the injection in the chaos log.
    let step = run.step("run").expect("correct step recorded");
    assert!(
        step.stdout.contains("retry 1/"),
        "retry logged: {}",
        step.stdout
    );
    let chaos = s.fed.fault_trace();
    assert_eq!(chaos.of_kind("fault.inject").count(), 1);
    assert!(chaos.render().contains("mep-fork-failure"));
}

/// The bearer token expires mid-run: the next submission is rejected,
/// CORRECT re-authenticates with its client credentials and retries.
#[test]
fn token_expiry_mid_run_triggers_reauthentication() {
    let plan = FaultPlan::none().with_fault(SimTime::ZERO, FaultKind::TokenExpiry);
    let fed = Federation::builder(82).faults(plan).build();
    let mut s = paper::world(paper::FIG5_PSIJ, fed).unwrap();
    let runs = s.push_approve_run("vhayot").unwrap();
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());
    assert!(
        run.full_log().contains("re-authenticating"),
        "refresh logged: {}",
        run.full_log()
    );
    let chaos = s.fed.fault_trace();
    assert!(chaos.render().contains("token-expiry"));
    assert!(
        chaos.render().contains("fresh token accepted"),
        "recovery recorded: {}",
        chaos.render()
    );
}

/// A WAN partition delays the wire, but messages are delivered once it
/// heals: the run completes successfully, just later than the fault-free
/// run of the same seed.
#[test]
fn wan_partition_delays_delivery_until_heal() {
    let heal = SimDuration::from_secs(120);
    let plan = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::WanPartition {
            endpoint: "ep-anvil".into(),
            heal_after: heal,
        },
    );
    let mut baseline = paper::world(paper::FIG5_PSIJ, Federation::builder(83).build()).unwrap();
    baseline.push_approve_run("vhayot").unwrap();
    let baseline_end = baseline.fed.now();

    let fed = Federation::builder(83).faults(plan).build();
    let mut s = paper::world(paper::FIG5_PSIJ, fed).unwrap();
    let runs = s.push_approve_run("vhayot").unwrap();
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());
    assert!(
        s.fed.now() >= baseline_end + heal,
        "partition stalled the run: {} vs {}",
        s.fed.now(),
        baseline_end
    );
    assert!(s.fed.fault_trace().render().contains("partition healed"));
}

/// The batch scheduler drains a node while a pilot is running: the pilot
/// job is preempted, the endpoint's provider requests a fresh block on
/// demand, and the next CI run still passes at every site.
#[test]
fn node_drain_preempts_pilot_and_the_suite_recovers() {
    // The FASTER pilot provisioned by the first run keeps running after the
    // suite finishes (it holds its walltime); the drain lands on it when the
    // second run's tasks touch the scheduler again.
    let plan = FaultPlan::none().with_fault(
        SimTime::from_secs(150),
        FaultKind::NodeDrain {
            scheduler: "tamu-faster".into(),
        },
    );
    let fed = Federation::builder(84).faults(plan).build();
    let mut s = paper::world(paper::FIG4_PARSLDOCK, fed).unwrap();
    let first = s.push_approve_run("vhayot").unwrap();
    assert_eq!(
        s.fed.engine.run(first[0]).unwrap().status,
        RunStatus::Success
    );
    let runs = s.push_approve_run("vhayot").unwrap();
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());

    let chaos = s.fed.fault_trace();
    assert!(
        chaos.render().contains("drained node"),
        "drain effect recorded: {}",
        chaos.render()
    );
    // The preemption is visible in the scheduler's accounting, like sacct
    // would show it.
    let handle = s.fed.site_by_name("tamu-faster").unwrap().clone();
    let rt = handle.shared.lock();
    let sched = rt.scheduler.as_ref().unwrap().lock();
    use hpcci::scheduler::JobState;
    assert!(
        sched
            .accounting()
            .records()
            .iter()
            .any(|r| matches!(r.state, JobState::Preempted { .. })),
        "a pilot job was preempted"
    );
}

/// An endpoint with no siblings crashes: retries are exhausted against the
/// stopped endpoint and the site degrades gracefully — the step reports an
/// *infrastructure* failure (`failure_kind=infrastructure`), artifacts are
/// still uploaded, and the remaining sites pass untouched.
#[test]
fn endpoint_crash_without_fallback_degrades_to_infrastructure_failure() {
    // Declared through the scenario DSL: the §6.1 document plus one explicit
    // fault, round-tripped through its TOML document before building — the
    // declarative path carries fault schedules end to end.
    let mut declared = ScenarioSpec::from_toml(paper::FIG4_PARSLDOCK).expect("document parses");
    declared.seed = 85;
    declared.faults.push(FaultDecl {
        at_us: SimTime::from_secs(60).as_micros(),
        kind: FaultKindDecl::EndpointCrash {
            endpoint: "ep-chameleon-tacc".into(),
        },
    });
    let spec = ScenarioSpec::from_toml(&declared.to_toml()).expect("spec round-trips");
    assert_eq!(spec, declared);
    let fed = Federation::builder(spec.seed).faults(spec.fault_plan()).build();
    let mut s = spec.build_on(fed).expect("spec compiles");
    let runs = s.push_approve_run("vhayot").unwrap();
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Failure, "site skipped => run failed");

    let step = run.step("run-chameleon").expect("chameleon step recorded");
    assert!(!step.success);
    assert_eq!(
        step.outputs.get("failure_kind").map(String::as_str),
        Some("infrastructure"),
        "degradation is marked as infrastructure, not a test failure"
    );
    assert!(
        step.stderr.contains("infrastructure failure (site skipped)"),
        "stderr: {}",
        step.stderr
    );
    // The artifact is uploaded regardless, carrying the retry log.
    let now = s.fed.now();
    let artifact = s
        .fed
        .engine
        .artifacts
        .fetch(runs[0], "chameleon-output", now)
        .expect("artifact stored despite the crash");
    assert!(artifact.text().contains("infrastructure"));
    // The other two sites are unaffected: their suites passed.
    for env in ["faster-vhayot", "expanse-vhayot"] {
        let text = s
            .fed
            .engine
            .artifacts
            .fetch(runs[0], &format!("{env}-output"), now)
            .unwrap()
            .text();
        assert!(text.contains("8 passed, 0 failed"), "{env} unaffected");
    }
    assert!(s.fed.fault_trace().render().contains("endpoint-crash"));
}

/// The PSI/J scenario with a second, single-user endpoint on the Anvil login
/// node that crashes at t=0: a `failover-ci` workflow names it as primary
/// and the scenario's MEP as its fallback sibling. Returns the scenario and
/// that workflow's run.
fn crashed_primary_run(capture_environment: bool) -> (BuiltScenario, WorkflowRun) {
    let plan = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::EndpointCrash {
            endpoint: "ep-anvil-login".into(),
        },
    );
    let fed = Federation::builder(86).faults(plan).build();
    let mut s = paper::world(paper::FIG5_PSIJ, fed).unwrap();
    let site = s.fed.site_by_name("purdue-anvil").unwrap().id;
    let owner = s.user.identity.id;
    let local = TaskProvider::Local;
    s.fed.register_single("ep-anvil-login", site, owner, "x-vhayot", local).unwrap();
    let mut inputs = vec![
        ("client_id", "${{ secrets.GLOBUS_ID }}"),
        ("client_secret", "${{ secrets.GLOBUS_SECRET }}"),
        ("endpoint_uuid", "ep-anvil-login"),
        ("fallback_endpoints", "ep-anvil"),
        ("shell_cmd", "pytest tests/"),
    ];
    if capture_environment {
        inputs.push(("capture_environment", "true"));
    }
    let step = StepDef::uses("run", CORRECT_ACTION_NAME, &inputs);
    let wf = WorkflowDef::new("failover-ci")
        .on_event(TriggerEvent::push_any())
        .with_job(
            JobDef::new("remote-test")
                .with_environment("anvil-vhayot")
                .with_step(step),
        );
    s.fed.engine.add_workflow(&s.repo, wf);

    let runs = s.push_approve_run("vhayot").unwrap();
    let failover_run = runs
        .iter()
        .map(|&id| s.fed.engine.run(id).unwrap().clone())
        .find(|r| r.workflow == "failover-ci")
        .expect("failover workflow triggered");
    (s, failover_run)
}

/// With a sibling endpoint configured, a crash of the primary is absorbed:
/// CORRECT fails over and the run passes.
#[test]
fn endpoint_crash_fails_over_to_sibling_endpoint() {
    let (s, failover_run) = crashed_primary_run(false);
    assert_eq!(
        failover_run.status,
        RunStatus::Success,
        "log:\n{}",
        failover_run.full_log()
    );
    assert!(
        failover_run
            .full_log()
            .contains("Failing over to sibling endpoint ep-anvil"),
        "failover logged: {}",
        failover_run.full_log()
    );
    assert!(s.fed.fault_trace().render().contains("endpoint-crash"));
}

/// A failover holds for the rest of the step: the command and the
/// provenance capture go to the sibling the clone failed over to, not back
/// to the dead primary, and the step records every task it submitted.
#[test]
fn failover_holds_for_the_rest_of_the_step() {
    let (s, run) = crashed_primary_run(true);
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());
    let log = run.full_log();
    assert_eq!(
        log.matches("Failing over to sibling endpoint").count(),
        1,
        "{log}"
    );
    let now = s.fed.now();
    assert!(
        s.fed
            .engine
            .artifacts
            .fetch(run.id, "environment.txt", now)
            .is_ok(),
        "capture stored"
    );
    // The clone rejected by the primary, then the clone, the command and
    // the capture on the sibling.
    let step = run.step("run").unwrap();
    assert_eq!(step.tasks.len(), 4, "{:?}", step.tasks);
    let cloud = s.fed.cloud.lock();
    for &id in &step.tasks[1..] {
        let task = cloud.task(TaskId(id)).unwrap();
        assert!(
            matches!(task.state, TaskState::Done(_)),
            "{id}: {:?}",
            task.state
        );
        assert_eq!(cloud.task_endpoint(task).as_str(), "ep-anvil", "{id}");
    }
    let first = cloud.task(TaskId(step.tasks[0])).unwrap();
    assert_eq!(cloud.task_endpoint(first).as_str(), "ep-anvil-login");
    let resubmitted = cloud.task(TaskId(step.tasks[1])).unwrap();
    assert_eq!(cloud.task_command(resubmitted), cloud.task_command(first), "the clone, as it was");
    assert!(matches!(first.state, TaskState::Rejected { .. }));
}

/// A corrupted artifact write is detected by checksum and re-written: the
/// stored artifact is byte-identical to the fault-free run's, and the
/// recovery is on the chaos log.
#[test]
fn artifact_corruption_is_detected_and_rewritten() {
    let plan = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::ArtifactCorruption {
            name: "pytest-output".into(),
        },
    );
    let fetch_artifact = |s: &mut BuiltScenario| {
        let runs = s.push_approve_run("vhayot").unwrap();
        let now = s.fed.now();
        s.fed
            .engine
            .artifacts
            .fetch(runs[0], "pytest-output", now)
            .expect("artifact stored")
            .text()
    };
    let mut baseline = paper::world(paper::FIG5_PSIJ, Federation::builder(87).build()).unwrap();
    let clean = fetch_artifact(&mut baseline);
    let fed = Federation::builder(87).faults(plan).build();
    let mut s = paper::world(paper::FIG5_PSIJ, fed).unwrap();
    let stored = fetch_artifact(&mut s);
    assert_eq!(clean, stored, "re-written artifact is byte-identical");
    assert!(
        s.fed
            .fault_trace()
            .render()
            .contains("checksum mismatch on 'pytest-output'"),
        "recovery recorded: {}",
        s.fed.fault_trace().render()
    );
}

/// The zero-perturbation guarantee: a federation built with an *empty*
/// fault plan runs bit-identically to one with no injector at all — same
/// logs, same artifacts, same clock, empty chaos trace.
#[test]
fn empty_fault_plan_perturbs_nothing() {
    let run_once = |with_empty_plan: bool| {
        let fed = if with_empty_plan {
            Federation::builder(88).faults(FaultPlan::none()).build()
        } else {
            Federation::builder(88).build()
        };
        let mut s = paper::world(paper::FIG5_PSIJ, fed).unwrap();
        let runs = s.push_approve_run("vhayot").unwrap();
        let run = s.fed.engine.run(runs[0]).unwrap().clone();
        let now = s.fed.now();
        let artifact = s
            .fed
            .engine
            .artifacts
            .fetch(runs[0], "pytest-output", now)
            .unwrap()
            .text();
        (run.full_log(), artifact, now, s.fed.fault_trace().len())
    };
    let (log_a, art_a, end_a, _) = run_once(false);
    let (log_b, art_b, end_b, chaos_len) = run_once(true);
    assert_eq!(log_a, log_b, "run logs bit-identical");
    assert_eq!(art_a, art_b, "artifacts bit-identical");
    assert_eq!(end_a, end_b, "virtual clock identical");
    assert_eq!(chaos_len, 0, "empty plan never logs");
}

/// The same guarantee over the generated fleet: every fault-free scenario
/// of `ScenarioGen::new(42).fleet(32)`, built once with the empty plan and
/// once with the disabled handle and driven through the same rounds, commits
/// the same trace digest and run reports, with nothing on the chaos log.
#[test]
fn empty_fault_plan_perturbs_nothing_fleet_wide() {
    let fleet = ScenarioGen::new(42).fleet(32);
    let fault_free: Vec<&ScenarioSpec> =
        fleet.iter().filter(|spec| spec.fault_plan().is_empty()).collect();
    assert!(fault_free.len() >= 8, "only {} fault-free specs", fault_free.len());
    for spec in fault_free {
        let run = |with_empty_plan: bool| {
            let mut builder = Federation::builder(spec.seed).workload(spec.traffic.workload());
            if with_empty_plan {
                builder = builder.faults(FaultPlan::none());
            }
            match spec.cache {
                CacheModeDecl::Off => {}
                CacheModeDecl::Record => builder = builder.step_cache(CacheMode::Record),
                CacheModeDecl::Replay => builder = builder.step_cache(CacheMode::Replay),
            }
            let mut s = spec.build_on(builder.build()).expect("generated spec compiles");
            let mut arrivals = s.fed.arrival_gen().expect("workload attached");
            for round in 0..spec.traffic.pushes {
                if round > 0 {
                    let gap = arrivals.next_gap_us();
                    s.fed.world().sleep(SimDuration::from_micros(gap));
                }
                s.trigger_round(&spec.user.login).unwrap();
            }
            (s.fed.trace_digest(), s.fed.run_reports(), s.fed.fault_trace().len())
        };
        let (digest, reports, _) = run(false);
        let (empty_digest, empty_reports, chaos_len) = run(true);
        assert_eq!(digest, empty_digest, "{}: trace digest", spec.name);
        assert_eq!(reports, empty_reports, "{}: run reports", spec.name);
        assert_eq!(chaos_len, 0, "{}: the empty plan never logs", spec.name);
    }
}

/// Same guarantee on the multi-site scenario (the Fig. 4 input): the
/// per-site duration artifacts are unchanged by an idle injector.
#[test]
fn empty_fault_plan_keeps_fig4_artifacts_identical() {
    let artifacts = |faulty: bool| {
        let fed = if faulty {
            Federation::builder(89).faults(FaultPlan::none()).build()
        } else {
            Federation::builder(89).build()
        };
        let mut s = paper::world(paper::FIG4_PARSLDOCK, fed).unwrap();
        let runs = s.push_approve_run("vhayot").unwrap();
        let now = s.fed.now();
        s.environments
            .iter()
            .map(|env| {
                s.fed
                    .engine
                    .artifacts
                    .fetch(runs[0], &format!("{env}-output"), now)
                    .unwrap()
                    .text()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(artifacts(false), artifacts(true));
}

/// The "retries on vs off" ablation (DESIGN.md §4): the same single
/// transient fork failure that the default policy absorbs (see
/// `mep_fork_failure_is_retried_and_recovers`) becomes a skipped site when
/// `max_retries: 0` — degradation is still graceful and still labelled as
/// infrastructure, never a hang.
#[test]
fn retries_off_turns_a_transient_fault_into_a_site_skip() {
    let plan = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::MepForkFailure {
            endpoint: "ep-anvil".into(),
            user: "any".into(),
        },
    );
    let fed = Federation::builder(90).faults(plan).build();
    let mut s = paper::world(paper::FIG5_PSIJ, fed).unwrap();
    let wf = WorkflowDef::new("noretry-ci").with_job(
        JobDef::new("remote-test")
            .with_environment("anvil-vhayot")
            .with_step(StepDef::uses(
                "run",
                CORRECT_ACTION_NAME,
                &[
                    ("client_id", "${{ secrets.GLOBUS_ID }}"),
                    ("client_secret", "${{ secrets.GLOBUS_SECRET }}"),
                    ("endpoint_uuid", "ep-anvil"),
                    ("shell_cmd", "pytest tests/"),
                    ("max_retries", "0"),
                ],
            )),
    );
    s.fed.engine.add_workflow(&s.repo, wf);
    let now = s.fed.now();
    let commit = s
        .fed
        .hosting
        .lock()
        .repo(&s.repo)
        .unwrap()
        .head("main")
        .unwrap()
        .short();
    let run_id = s
        .fed
        .engine
        .dispatch(&s.repo, "noretry-ci", "main", &commit, now)
        .unwrap();
    s.fed.engine.approve(run_id, "vhayot", now).unwrap();
    s.fed.run_all();

    let run = s.fed.engine.run(run_id).unwrap().clone();
    assert_eq!(run.status, RunStatus::Failure);
    let step = run.step("run").unwrap();
    assert_eq!(
        step.outputs.get("failure_kind").map(String::as_str),
        Some("infrastructure"),
        "log:\n{}",
        run.full_log()
    );
    assert!(!step.stdout.contains("retry 1/"), "no retries were attempted");
}
