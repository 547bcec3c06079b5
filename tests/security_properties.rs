//! The paper's security invariants (§5.2, §7.2), as executable properties:
//!
//! (i)  the identity used to run the code matches the user who intended to
//!      launch it;
//! (ii) CI-launched processes cannot access or modify files beyond their
//!      permission;
//! plus function allowlists, approval gating, and secret hygiene.

use hpcci::auth::{AuthError, IdentityMapping, Scope};
use hpcci::cluster::{Cred, FileMode, Site};
use hpcci::correct::federation::OnboardedUser;
use hpcci::correct::Federation;
use hpcci::faas::{EndpointId, FaasError, FunctionBody, MepTemplate, TaskOutput, TaskState};
use hpcci::sim::SimTime;
use hpcci::vcs::WorkTree;

/// Build a small federation with one HPC site, two local users, and a MEP.
fn two_user_world() -> (Federation, hpcci::correct::federation::OnboardedUser, hpcci::correct::federation::OnboardedUser) {
    let mut fed = Federation::builder(7).build();
    let alice = fed.onboard_user("alice@uchicago.edu", "uchicago.edu");
    let mallory = fed.onboard_user("mallory@evil.example", "evil.example");
    let site = fed.add_site(Site::tamu_faster(), 64);
    {
        let mut rt = fed.site(site).shared.lock();
        rt.site.add_account("x-alice", "projA");
        rt.site.add_account("x-bob", "projB");
        // A command that tries to read another user's private file.
        rt.commands.register("snoop", |env| {
            match env.site.fs.read_text("/home/x-bob/secret.txt", env.cred) {
                Ok(contents) => hpcci::faas::ExecOutcome::ok(contents, 0.1),
                Err(e) => hpcci::faas::ExecOutcome::fail(e.to_string(), 0.1),
            }
        });
        // A command that reports the executing account.
        rt.commands.register("whoami", |env| {
            hpcci::faas::ExecOutcome::ok(env.account.username.clone(), 0.01)
        });
        // Bob stores a private file.
        let bob = rt.site.account("x-bob").unwrap().clone();
        let bob_cred = Cred::of(&bob);
        rt.site
            .fs
            .write("/home/x-bob/secret.txt", &bob_cred, "bob's allocation key", FileMode::PRIVATE)
            .unwrap();
    }
    let mut mapping = IdentityMapping::new("tamu-faster");
    mapping.add_explicit("alice@uchicago.edu", "x-alice");
    fed.register_multi("mep-faster", site, mapping, MepTemplate::login_only()).unwrap();
    (fed, alice, mallory)
}

fn token_for(
    fed: &Federation,
    user: &hpcci::correct::federation::OnboardedUser,
) -> hpcci::auth::AccessToken {
    fed.auth
        .lock()
        .authenticate(
            &hpcci::auth::ClientId(user.client_id.clone()),
            &hpcci::auth::ClientSecret::new(&user.client_secret),
            vec![Scope::compute_api()],
            SimTime::ZERO,
        )
        .unwrap()
}

#[test]
fn invariant_i_task_runs_as_the_mapped_identity() {
    let (mut fed, alice, _) = two_user_world();
    let token = token_for(&fed, &alice);
    let ep = EndpointId("mep-faster".to_string());
    let task = {
        let mut cloud = fed.cloud.lock();
        let now = cloud.now();
        cloud.submit_shell(&token, &ep, "whoami", now).unwrap()
    };
    while fed.world().step() {}
    let cloud = fed.cloud.lock();
    let out = cloud.task_result(task).unwrap();
    assert_eq!(out.stdout, "x-alice");
    assert_eq!(out.ran_as, "x-alice");
}

#[test]
fn invariant_i_unmapped_identity_is_rejected() {
    let (mut fed, _, mallory) = two_user_world();
    let token = token_for(&fed, &mallory);
    let ep = EndpointId("mep-faster".to_string());
    let task = {
        let mut cloud = fed.cloud.lock();
        let now = cloud.now();
        // Submission is accepted by the cloud; the MEP rejects at delivery.
        cloud.submit_shell(&token, &ep, "whoami", now).unwrap()
    };
    while fed.world().step() {}
    let cloud = fed.cloud.lock();
    match cloud.task_state(task).unwrap() {
        TaskState::Rejected { reason, .. } => {
            assert!(matches!(**reason, FaasError::IdentityMappingFailed(_)), "{reason}")
        }
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn invariant_ii_no_cross_user_file_access() {
    let (mut fed, alice, _) = two_user_world();
    let token = token_for(&fed, &alice);
    let ep = EndpointId("mep-faster".to_string());
    let task = {
        let mut cloud = fed.cloud.lock();
        let now = cloud.now();
        cloud.submit_shell(&token, &ep, "snoop", now).unwrap()
    };
    while fed.world().step() {}
    let cloud = fed.cloud.lock();
    let out = cloud.task_result(task).unwrap();
    assert!(!out.success(), "alice's task must not read bob's private file");
    assert!(out.stderr.contains("permission denied"), "{}", out.stderr);
    assert!(!out.stdout.contains("allocation key"));
}

#[test]
fn function_allowlist_rejects_everything_unapproved() {
    let (fed, alice, _) = two_user_world();
    let token = token_for(&fed, &alice);
    // Register two functions; allow only the first on a restricted MEP.
    let (allowed, denied) = {
        let mut cloud = fed.cloud.lock();
        let a = cloud
            .register_function(&token, "safe", FunctionBody::Shell { command: "whoami".into() }, SimTime::ZERO)
            .unwrap();
        let d = cloud
            .register_function(&token, "other", FunctionBody::Shell { command: "snoop".into() }, SimTime::ZERO)
            .unwrap();
        (a, d)
    };
    let handle = fed.site_by_name("tamu-faster").unwrap().clone();
    let mut mapping = IdentityMapping::new("tamu-faster");
    mapping.add_explicit("alice@uchicago.edu", "x-alice");
    let mep = hpcci::faas::MultiUserEndpoint::new(
        "mep-restricted",
        &mut handle.shared.lock(),
        mapping,
        MepTemplate::login_only(),
    )
    .unwrap()
    .with_allowlist(&[allowed]);
    fed.cloud.lock().register_endpoint(
        "mep-restricted",
        handle.shared,
        hpcci::faas::EndpointRegistration::Multi(Box::new(mep)),
    );
    let ep = EndpointId("mep-restricted".to_string());

    let mut cloud = fed.cloud.lock();
    // Ad-hoc shell commands are rejected outright.
    assert!(matches!(
        cloud.submit_shell(&token, &ep, "whoami", SimTime::ZERO),
        Err(hpcci::faas::FaasError::ShellNotAllowed)
    ));
    // Unapproved registered functions are rejected.
    assert!(matches!(
        cloud.submit_function(&token, &ep, denied, "", SimTime::ZERO),
        Err(hpcci::faas::FaasError::FunctionNotAllowed(_))
    ));
    // The approved function is accepted.
    assert!(cloud.submit_function(&token, &ep, allowed, "", SimTime::ZERO).is_ok());
}

#[test]
fn stolen_client_id_without_secret_is_useless() {
    let (fed, alice, _) = two_user_world();
    let err = fed
        .auth
        .lock()
        .authenticate(
            &hpcci::auth::ClientId(alice.client_id.clone()),
            &hpcci::auth::ClientSecret::new("guessed-wrong"),
            vec![Scope::compute_api()],
            SimTime::ZERO,
        )
        .unwrap_err();
    assert_eq!(err, hpcci::auth::AuthError::InvalidClientCredentials);
}

#[test]
fn revoked_token_cannot_submit() {
    let (fed, alice, _) = two_user_world();
    let token = token_for(&fed, &alice);
    fed.auth.lock().revoke(&token).unwrap();
    let mut cloud = fed.cloud.lock();
    assert!(matches!(
        cloud.submit_shell(&token, &EndpointId("mep-faster".into()), "whoami", SimTime::ZERO),
        Err(hpcci::faas::FaasError::Auth(_))
    ));
}

#[test]
fn ha_policy_restricts_identity_providers_at_the_endpoint() {
    let (fed, alice, _) = two_user_world();
    // Re-register the MEP with a policy requiring access-ci.org identities.
    let handle = fed.site_by_name("tamu-faster").unwrap().clone();
    let mut mapping = IdentityMapping::new("tamu-faster");
    mapping.add_explicit("alice@uchicago.edu", "x-alice");
    let mep = hpcci::faas::MultiUserEndpoint::new(
        "mep-ha",
        &mut handle.shared.lock(),
        mapping,
        MepTemplate::login_only(),
    )
    .unwrap()
    .with_ha_policy(
        hpcci::auth::HighAssurancePolicy::permissive().require_provider("access-ci.org"),
    );
    fed.cloud.lock().register_endpoint(
        "mep-ha",
        handle.shared,
        hpcci::faas::EndpointRegistration::Multi(Box::new(mep)),
    );

    // The cloud checks the MEP's policy when the task is submitted, so the
    // submission is refused and no task exists.
    let token = token_for(&fed, &alice);
    let mut cloud = fed.cloud.lock();
    assert!(matches!(
        cloud.submit_shell(&token, &EndpointId("mep-ha".into()), "whoami", SimTime::ZERO),
        Err(FaasError::Auth(AuthError::PolicyViolation(_)))
    ));
    assert_eq!(cloud.task_count(), 0);
}

/// One HPC site whose MEP maps `alice@uchicago.edu` onto `x-alice` and
/// `bob@uchicago.edu` onto `x-bob`, with `cat` and `ls` commands, and a
/// repository `lab/app` whose `main` holds `tree`, pushed by `author`.
fn clone_world(tree: WorkTree, author: &str) -> (Federation, OnboardedUser, OnboardedUser) {
    let mut fed = Federation::builder(7).build();
    let alice = fed.onboard_user("alice@uchicago.edu", "uchicago.edu");
    let bob = fed.onboard_user("bob@uchicago.edu", "uchicago.edu");
    let site = fed.add_site(Site::tamu_faster(), 64);
    {
        let mut rt = fed.site(site).shared.lock();
        rt.site.add_account("x-alice", "projA");
        rt.site.add_account("x-bob", "projB");
        rt.commands.register("cat", |env| match env.site.fs.read_text(env.args(), env.cred) {
            Ok(contents) => hpcci::faas::ExecOutcome::ok(contents, 0.1),
            Err(e) => hpcci::faas::ExecOutcome::fail(e.to_string(), 0.1),
        });
        rt.commands.register("ls", |env| match env.site.fs.list(env.args(), env.cred) {
            Ok(names) => hpcci::faas::ExecOutcome::ok(names.join("\n"), 0.1),
            Err(e) => hpcci::faas::ExecOutcome::fail(e.to_string(), 0.1),
        });
    }
    let mut mapping = IdentityMapping::new("tamu-faster");
    mapping.add_explicit("alice@uchicago.edu", "x-alice");
    mapping.add_explicit("bob@uchicago.edu", "x-bob");
    fed.register_multi("mep-faster", site, mapping, MepTemplate::login_only()).unwrap();
    let now = fed.now();
    fed.hosting.lock().create_repo("lab", "app", now);
    fed.hosting.lock().push("lab/app", "main", tree, author, "import", now).unwrap();
    (fed, alice, bob)
}

/// Run `command` on the MEP as `user` and wait for its output.
fn run_as(fed: &mut Federation, user: &OnboardedUser, command: &str) -> TaskOutput {
    let token = token_for(fed, user);
    let task = {
        let mut cloud = fed.cloud.lock();
        let now = cloud.now();
        cloud.submit_shell(&token, &EndpointId("mep-faster".to_string()), command, now).unwrap()
    };
    while fed.world().step() {}
    fed.cloud.lock().task_result(task).unwrap().clone()
}

/// §5.2 for the clone itself: a CI clone is `0644` files under `0700`
/// directories, and the MEP maps many identities onto one site. Another
/// mapped user's task must not reach the files through their own mode bits.
#[test]
fn invariant_ii_another_mapped_user_cannot_read_or_list_a_ci_clone() {
    let tree = WorkTree::new()
        .with_file("README.md", "# app\n")
        .with_file("conf/deploy.env", "ALLOCATION=projA\n");
    let (mut fed, alice, bob) = clone_world(tree, "alice");
    let clone = "/scratch/x-alice/gc-action-temp/app";
    let cloned = run_as(&mut fed, &alice, "git clone https://github.sim/lab/app.git");
    assert!(cloned.success(), "{}", cloned.stderr);
    let own = run_as(&mut fed, &alice, &format!("cat {clone}/conf/deploy.env"));
    assert_eq!(own.stdout, "ALLOCATION=projA\n");

    for command in [
        format!("cat {clone}/README.md"),
        format!("cat {clone}/conf/deploy.env"),
        format!("ls {clone}"),
        format!("ls {clone}/conf"),
    ] {
        let out = run_as(&mut fed, &bob, &command);
        assert_eq!(out.ran_as, "x-bob");
        assert!(!out.success(), "`{command}` as x-bob must fail, printed: {}", out.stdout);
        assert!(out.stderr.contains("permission denied"), "{command}: {}", out.stderr);
    }
}

/// §5.2 against the pushed tree: a path that climbs out of the clone with
/// `..` is refused as git refuses it, before any file of the tree is
/// written — it does not land in the cloning user's home.
#[test]
fn a_pushed_tree_cannot_write_outside_the_clone_directory() {
    let escape = "../../../../home/x-alice/.bashrc";
    let tree = WorkTree::new().with_file("README.md", "# app\n").with_file(escape, "evil");
    let (mut fed, alice, _) = clone_world(tree, "mallory");
    {
        let site = fed.site_by_name("tamu-faster").unwrap().clone();
        let mut rt = site.shared.lock();
        let cred = Cred::of(rt.site.account("x-alice").unwrap());
        rt.site.fs.write("/home/x-alice/.bashrc", &cred, "alice's", FileMode::REGULAR).unwrap();
    }
    let cloned = run_as(&mut fed, &alice, "git clone https://github.sim/lab/app.git");
    assert!(!cloned.success(), "printed: {}", cloned.stdout);
    assert_eq!(cloned.stderr, format!("fatal: invalid path '{escape}'"));
    assert_eq!(run_as(&mut fed, &alice, "cat /home/x-alice/.bashrc").stdout, "alice's");
    let readme = run_as(&mut fed, &alice, "cat /scratch/x-alice/gc-action-temp/app/README.md");
    assert!(readme.stderr.starts_with("no such file"), "{}", readme.stderr);
}

/// `git clone <url> <dir>` with a relative `<dir>` clones into `<dir>`
/// under the clone root, where the default destination lives too.
#[test]
fn git_clone_into_a_relative_directory_lands_under_the_clone_root() {
    let (mut fed, alice, _) = clone_world(WorkTree::new().with_file("README.md", "# app\n"), "alice");
    let cloned = run_as(&mut fed, &alice, "git clone https://github.sim/lab/app.git work/app");
    assert!(cloned.success(), "{}", cloned.stderr);
    let dest = "/scratch/x-alice/gc-action-temp/work/app";
    assert!(cloned.stdout.starts_with(&format!("Cloning into '{dest}'...")), "{}", cloned.stdout);
    assert_eq!(run_as(&mut fed, &alice, &format!("cat {dest}/README.md")).stdout, "# app\n");
}

/// A task is checked — and audited — as the identity it was submitted with:
/// a session refresh that lands while the task is still on the wire does not
/// reach it, while the next submission sees the fresh session.
#[test]
fn a_session_refresh_after_submission_does_not_reach_the_in_flight_task() {
    use hpcci::sim::SimDuration;
    let (mut fed, alice, _) = two_user_world();
    let handle = fed.site_by_name("tamu-faster").unwrap().clone();
    let mut mapping = IdentityMapping::new("tamu-faster");
    mapping.add_explicit("alice@uchicago.edu", "x-alice");
    let mep = hpcci::faas::MultiUserEndpoint::new(
        "mep-session",
        &mut handle.shared.lock(),
        mapping,
        MepTemplate::login_only(),
    )
    .unwrap()
    .with_ha_policy(
        hpcci::auth::HighAssurancePolicy::permissive()
            .require_session_within(SimDuration::from_hours(1)),
    );
    fed.cloud.lock().register_endpoint(
        "mep-session",
        handle.shared,
        hpcci::faas::EndpointRegistration::Multi(Box::new(mep)),
    );
    let ep = EndpointId("mep-session".into());
    let token = token_for(&fed, &alice);

    // Alice last logged in at 0: two hours on, her session is stale, and the
    // cloud refuses the submission outright.
    let later = SimTime::from_secs(2 * 3600);
    match fed.cloud.lock().submit_shell(&token, &ep, "whoami", later) {
        Err(FaasError::Auth(AuthError::PolicyViolation(why))) => {
            assert!(why.contains("session too old"), "{why}")
        }
        other => panic!("a stale session submits nothing, got {other:?}"),
    }
    // At 59 minutes it is fresh; she logs in again while that task is on
    // the wire, and submits once more.
    let in_flight = fed
        .cloud
        .lock()
        .submit_shell(&token, &ep, "whoami", SimTime::from_secs(59 * 60))
        .unwrap();
    fed.auth
        .lock()
        .refresh_session(alice.identity.id, later)
        .unwrap();
    let fresh = fed
        .cloud
        .lock()
        .submit_shell(&token, &ep, "whoami", later)
        .unwrap();
    while fed.world().step() {}

    let mut cloud = fed.cloud.lock();
    for task in [in_flight, fresh] {
        assert_eq!(cloud.task_result(task).unwrap().ran_as, "x-alice");
    }
    let hpcci::faas::EndpointRegistration::Multi(mep) = cloud.endpoint_mut(&ep).unwrap() else {
        panic!("mep-session is a MEP");
    };
    let audited: Vec<(hpcci::faas::TaskId, &str, &str, u64)> = mep
        .audit_log()
        .map(|(task, identity, local)| {
            (task, identity.username.as_str(), &**local, identity.last_authentication_us)
        })
        .collect();
    assert_eq!(
        audited,
        [
            (in_flight, "alice@uchicago.edu", "x-alice", 0),
            (fresh, "alice@uchicago.edu", "x-alice", later.as_micros())
        ]
    );
}
