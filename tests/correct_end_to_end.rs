//! End-to-end: a push triggers a CORRECT workflow that authenticates, clones
//! at the remote site, runs the suite, and reports back — the full Fig. 2
//! message flow through every substrate.

use hpcci::ci::RunStatus;
use hpcci::scenarios::psij_scenario;

#[test]
fn push_triggers_correct_run_that_succeeds() {
    let mut s = psij_scenario(42, false);
    let runs = s.push_approve_run("vhayot");
    assert_eq!(runs.len(), 1);
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());

    // The CORRECT step's stdout reports the remote execution.
    let step = run.step("run").expect("correct step recorded");
    assert!(step.stdout.contains("pip install globus-compute-sdk"));
    assert!(step.stdout.contains("Authenticated with Globus Auth"));
    assert!(step.stdout.contains("Cloning into"));
    assert!(step.stdout.contains("6 passed, 0 failed"));
    // Outputs expose where and as whom the task ran (identity mapping).
    assert_eq!(step.outputs["ran_as"], "x-vhayot");
    assert_eq!(step.outputs["node"], "anvil-login-1");
    assert!(step.outputs["runtime_secs"].parse::<f64>().unwrap() > 1.0);

    // The artifact with the full pytest output was uploaded.
    let now = s.fed.now();
    let artifact = s
        .fed
        .engine
        .artifacts
        .fetch(runs[0], "pytest-output", now)
        .expect("artifact stored");
    assert!(artifact.text().contains("Requirement already satisfied"));
    assert!(artifact.text().contains("test_batch_submit_wait PASSED"));
}

#[test]
fn run_awaits_approval_until_sole_reviewer_acts() {
    let mut s = psij_scenario(43, false);
    // Push without approving.
    let now = s.fed.now();
    let tree = s
        .fed
        .hosting
        .lock()
        .repo(&s.repo)
        .unwrap()
        .checkout_branch("main")
        .unwrap()
        .clone()
        .with_file("CHANGE", "x");
    s.fed
        .hosting
        .lock()
        .push(&s.repo, "main", tree, "contributor", "change", now)
        .unwrap();
    let runs = s.fed.pump_events();
    assert_eq!(runs.len(), 1);
    assert_eq!(
        s.fed.engine.run(runs[0]).unwrap().status,
        RunStatus::AwaitingApproval
    );
    // Nothing executes while awaiting.
    assert!(s.fed.run_all().is_empty());
    // A stranger cannot approve; the sole reviewer can.
    assert!(s.fed.engine.approve(runs[0], "mallory", s.fed.now()).is_err());
    s.fed.approve_and_run(runs[0], "vhayot").unwrap();
    assert_eq!(s.fed.engine.run(runs[0]).unwrap().status, RunStatus::Success);
    // The environment follows the paper's sole-reviewer recommendation.
    let env = s.fed.engine.environment(&s.repo, "anvil-vhayot").unwrap();
    assert!(env.follows_sole_reviewer_recommendation());
}

#[test]
fn federation_trace_records_the_fig2_flow() {
    let mut s = psij_scenario(44, false);
    s.push_approve_run("vhayot");
    let cloud = s.fed.cloud.lock();
    // Clone task + pytest task at minimum.
    assert!(cloud.trace.of_kind("task.submit").count() >= 2);
    assert_eq!(
        cloud.trace.of_kind("task.submit").count(),
        cloud.trace.of_kind("task.done").count(),
        "every submitted task returned"
    );
    // Events are attributable to components.
    assert!(cloud.trace.of_component("faas.ep.ep-anvil").count() >= 2);
}

#[test]
fn secrets_never_appear_in_run_logs() {
    let mut s = psij_scenario(45, false);
    let secret_value = s.user.client_secret.clone();
    let runs = s.push_approve_run("vhayot");
    let log = s.fed.engine.run(runs[0]).unwrap().full_log();
    assert!(!log.contains(&secret_value), "client secret leaked into logs");
}

#[test]
fn identity_mapping_audited_at_the_mep() {
    let mut s = psij_scenario(46, false);
    s.push_approve_run("vhayot");
    // Every task the MEP executed is auditable: identity -> local account.
    let mut cloud = s.fed.cloud.lock();
    let ep = cloud
        .endpoint_mut(&hpcci::faas::EndpointId("ep-anvil".to_string()))
        .unwrap();
    if let hpcci::faas::EndpointRegistration::Multi(mep) = ep {
        assert!(!mep.audit_log().is_empty());
        for (_, identity, local) in mep.audit_log() {
            assert_eq!(identity.username, "vhayot@uchicago.edu");
            assert_eq!(&**local, "x-vhayot");
        }
    } else {
        panic!("ep-anvil is a MEP");
    }
}

/// One CORRECT step on a lab workstation, with `before` run against the site
/// just ahead of the push. Returns the step's recorded outcome, the short id
/// of the commit it cloned and the run report's failure kind.
fn correct_step_outcome(
    shell_cmd: &str,
    args: &str,
    before: impl FnOnce(&mut hpcci::faas::SiteRuntime),
) -> (hpcci::ci::StepOutcome, String, Option<String>) {
    use hpcci::ci::workflow::{JobDef, StepDef, TriggerEvent, WorkflowDef};
    use hpcci::correct::{EndpointSpec, Federation, CORRECT_ACTION_NAME};
    use hpcci::faas::{ExecOutcome, MepTemplate};

    let mut fed = Federation::builder(17).build();
    let user = fed.onboard_user("vhayot@uchicago.edu", "uchicago.edu");
    let site = fed.add_site(hpcci::cluster::Site::workstation("lab-server"), 16);
    {
        let mut rt = fed.site(site).shared.lock();
        rt.site.add_account("vhayot", "lab");
        rt.commands.register("tox", |env| {
            ExecOutcome::ok(
                format!("{}: commands succeeded\ncongratulations :)", env.args()),
                12.0,
            )
        });
        rt.commands.register("pytest", |_| {
            ExecOutcome::fail("E   assert 1 == 2\n1 failed, 5 passed", 3.0)
                .with_stdout("collected 6 items")
        });
        before(&mut rt);
    }
    let mut mapping = hpcci::auth::IdentityMapping::new("lab-server");
    mapping.add_explicit("vhayot@uchicago.edu", "vhayot");
    fed.register(EndpointSpec::multi_user(
        "ep-lab",
        site,
        mapping,
        MepTemplate::login_only(),
    ));

    let repo = "globus-labs/demo";
    let now = fed.now();
    fed.hosting.lock().create_repo("globus-labs", "demo", now);
    fed.provision_environment(repo, "lab", "vhayot", &user);
    fed.engine.add_workflow(
        repo,
        WorkflowDef::new("ci")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("test")
                    .with_environment("lab")
                    .with_step(StepDef::uses(
                        "run",
                        CORRECT_ACTION_NAME,
                        &[
                            ("client_id", "${{ secrets.GLOBUS_ID }}"),
                            ("client_secret", "${{ secrets.GLOBUS_SECRET }}"),
                            ("endpoint_uuid", "ep-lab"),
                            ("shell_cmd", shell_cmd),
                            ("args", args),
                        ],
                    )),
            ),
    );
    let tree = hpcci::vcs::WorkTree::new().with_file("tox.ini", "[tox]\nenvlist = py312\n");
    fed.hosting
        .lock()
        .push(repo, "main", tree, "vhayot", "import", now)
        .unwrap();
    let runs = fed.pump_events();
    fed.approve_and_run(runs[0], "vhayot").unwrap();
    let head = fed
        .hosting
        .lock()
        .repo(repo)
        .unwrap()
        .head("main")
        .unwrap()
        .short();
    let run = fed.engine.run(runs[0]).unwrap();
    (
        (**run.step("run").expect("correct step recorded")).clone(),
        head.to_string(),
        fed.run_report(runs[0]).unwrap().failure_kind,
    )
}

/// Attribution follows the type of the failure, never its wording: a test
/// whose own stderr happens to say what a crashed endpoint would say is
/// still a failed test — not retried, not excused as infrastructure.
#[test]
fn a_test_that_talks_like_an_outage_is_still_a_test_failure() {
    for stderr in [
        "E   AssertionError: service is stopped",
        "infrastructure: disk quota exceeded",
    ] {
        let (step, _, kind) = correct_step_outcome("check", "", |rt| {
            rt.commands
                .register("check", move |_| hpcci::faas::ExecOutcome::fail(stderr, 3.0));
        });
        assert!(!step.success);
        assert_eq!(step.stderr, stderr);
        assert!(!step.stdout.contains("retry 1/"), "retried: {}", step.stdout);
        assert!(!step.outputs.contains_key("failure_kind"), "{:?}", step.outputs);
        assert_eq!(step.infra, hpcci::ci::Infra::Untouched);
        assert_eq!(kind.as_deref(), Some("test"));
    }
}

/// The step's whole recorded outcome — stdout, stderr and the five outputs —
/// byte for byte, for a passing task, a failing task and a failed clone.
#[test]
fn correct_step_outcome_is_pinned_byte_for_byte() {
    const PREAMBLE: &str = "Checking for globus-compute-sdk on runner... not found\n\
                            pip install globus-compute-sdk ... done\n\
                            Authenticated with Globus Auth (scope compute.api)\n";
    let outputs = |pairs: &[(&str, &str)]| -> std::collections::BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };

    let (pass, head, _) = correct_step_outcome("tox", "-e py312", |_| {});
    let cloned = format!(
        "Cloning into '/scratch/vhayot/gc-action-temp/demo'...\nHEAD is now at {head} (main)\n"
    );
    assert!(pass.success);
    assert_eq!(
        pass.stdout,
        format!("{PREAMBLE}{cloned}-e py312: commands succeeded\ncongratulations :)")
    );
    assert_eq!(pass.stderr, "");
    assert_eq!(
        pass.outputs,
        outputs(&[
            ("stdout", "-e py312: commands succeeded\ncongratulations :)"),
            ("stderr", ""),
            ("ran_as", "vhayot"),
            ("node", "lab-server-host"),
            ("runtime_secs", "12.498391"),
        ])
    );

    let (fail, _, _) = correct_step_outcome("pytest", "", |_| {});
    assert!(!fail.success);
    assert_eq!(fail.stdout, format!("{PREAMBLE}{cloned}collected 6 items"));
    assert_eq!(fail.stderr, "E   assert 1 == 2\n1 failed, 5 passed");
    assert_eq!(
        fail.outputs,
        outputs(&[
            ("stdout", "collected 6 items"),
            ("stderr", "E   assert 1 == 2\n1 failed, 5 passed"),
            ("ran_as", "vhayot"),
            ("node", "lab-server-host"),
            ("runtime_secs", "3.132098"),
        ])
    );

    // A file where the clone directory belongs: the clone fails, so does the step.
    let (no_clone, _, _) = correct_step_outcome("tox", "", |rt| {
        let account = rt.site.account("vhayot").unwrap().clone();
        let cred = hpcci::cluster::Cred::of(&account);
        rt.site
            .fs
            .write(
                "/scratch/vhayot/gc-action-temp",
                &cred,
                "in the way",
                hpcci::cluster::FileMode::REGULAR,
            )
            .unwrap();
    });
    assert!(!no_clone.success);
    assert_eq!(no_clone.stdout, PREAMBLE);
    assert_eq!(
        no_clone.stderr,
        "Error: repository clone failed\n\
         fatal: could not create /scratch/vhayot/gc-action-temp/demo: \
         wrong node kind at: /scratch/vhayot/gc-action-temp"
    );
    assert_eq!(no_clone.outputs, outputs(&[]));
}

/// One repo, one CORRECT step, two lab workstations — and no step cache:
/// what a kept job plan must not outlive. The step takes its credentials
/// from the job's secrets and its endpoint from the repo's `env:` block.
struct TwoLabs {
    fed: hpcci::correct::Federation,
    user: hpcci::correct::OnboardedUser,
    pushes: u32,
}

const LABS_REPO: &str = "globus-labs/demo";

impl TwoLabs {
    fn new() -> TwoLabs {
        use hpcci::ci::workflow::{JobDef, StepDef, TriggerEvent, WorkflowDef};
        use hpcci::correct::{EndpointSpec, Federation, CORRECT_ACTION_NAME};
        use hpcci::faas::{ExecOutcome, MepTemplate};

        let mut fed = Federation::builder(17).build();
        assert_eq!(fed.engine.cache_mode(), hpcci::ci::CacheMode::Off);
        let user = fed.onboard_user("vhayot@uchicago.edu", "uchicago.edu");
        for lab in ["lab-a", "lab-b"] {
            let site = fed.add_site(hpcci::cluster::Site::workstation(lab), 16);
            {
                let mut rt = fed.site(site).shared.lock();
                rt.site.add_account("vhayot", "lab");
                rt.commands
                    .register("tox", |_| ExecOutcome::ok("congratulations :)", 12.0));
            }
            let mut mapping = hpcci::auth::IdentityMapping::new(lab);
            mapping.add_explicit("vhayot@uchicago.edu", "vhayot");
            let endpoint = format!("ep-{lab}");
            fed.register(EndpointSpec::multi_user(&endpoint, site, mapping, MepTemplate::login_only()));
        }
        let now = fed.now();
        fed.hosting.lock().create_repo("globus-labs", "demo", now);
        fed.provision_environment(LABS_REPO, "lab", "vhayot", &user);
        fed.engine.set_env_var(LABS_REPO, "ENDPOINT_UUID", "ep-lab-a");
        fed.engine.add_workflow(
            LABS_REPO,
            WorkflowDef::new("ci")
                .on_event(TriggerEvent::push_any())
                .with_job(JobDef::new("test").with_environment("lab").with_step(StepDef::uses(
                    "run",
                    CORRECT_ACTION_NAME,
                    &[
                        ("client_id", "${{ secrets.GLOBUS_ID }}"),
                        ("client_secret", "${{ secrets.GLOBUS_SECRET }}"),
                        ("endpoint_uuid", "${{ env.ENDPOINT_UUID }}"),
                        ("shell_cmd", "tox"),
                    ],
                ))),
        );
        TwoLabs { fed, user, pushes: 0 }
    }

    /// Push a new commit, approve and run it; the CORRECT step's outcome.
    fn push(&mut self) -> hpcci::ci::StepOutcome {
        self.pushes += 1;
        let tree = hpcci::vcs::WorkTree::new().with_file("VERSION", format!("{}", self.pushes));
        let now = self.fed.now();
        self.fed
            .hosting
            .lock()
            .push(LABS_REPO, "main", tree, "vhayot", "bump", now)
            .unwrap();
        let runs = self.fed.pump_events();
        self.fed.approve_and_run(runs[0], "vhayot").unwrap();
        let run = self.fed.engine.run(runs[0]).unwrap();
        (**run.step("run").expect("correct step recorded")).clone()
    }

    fn set_globus_secret(&mut self, value: &str) {
        use hpcci::ci::{Secret, SecretScope};
        let scope = SecretScope::Environment {
            repo: LABS_REPO.into(),
            environment: "lab".into(),
        };
        self.fed.engine.secrets.put(scope, Secret::new("GLOBUS_SECRET", value));
    }
}

/// Cache off, (a): a rotated job secret reaches the very next run's inputs —
/// a plan kept past the rotation would go on logging in with the old one.
#[test]
fn cache_off_a_rotated_job_secret_reaches_the_next_run() {
    let mut labs = TwoLabs::new();
    assert!(labs.push().success);
    labs.set_globus_secret("not-the-secret");
    let denied = labs.push();
    assert!(!denied.success);
    assert!(
        denied.stderr.starts_with("Error: Globus authentication failed"),
        "{}",
        denied.stderr
    );
    let secret = labs.user.client_secret.clone();
    labs.set_globus_secret(&secret);
    assert!(labs.push().success, "rotated back");
}

/// Cache off, (b): an `env:` variable a step interpolates moves the next run.
#[test]
fn cache_off_an_env_var_a_step_reads_reaches_the_next_run() {
    let mut labs = TwoLabs::new();
    assert_eq!(labs.push().outputs["node"], "lab-a-host");
    labs.fed.engine.set_env_var(LABS_REPO, "ENDPOINT_UUID", "ep-lab-b");
    assert_eq!(labs.push().outputs["node"], "lab-b-host");
}

/// Cache off, (c): storing another tenant's secret drops every resolved map,
/// so every plan rebuilds — to the same inputs: the next run is, byte for
/// byte, the run of a world where nothing was stored.
#[test]
fn cache_off_another_tenants_secret_moves_nothing() {
    use hpcci::ci::{Secret, SecretScope};
    let (mut quiet, mut stirred) = (TwoLabs::new(), TwoLabs::new());
    assert_eq!(quiet.push(), stirred.push());
    stirred.fed.engine.secrets.put(
        SecretScope::Repository("someone/else".into()),
        Secret::new("GLOBUS_SECRET", "not-yours"),
    );
    let (expected, got) = (quiet.push(), stirred.push());
    assert!(got.success);
    assert_eq!(got, expected);
}
