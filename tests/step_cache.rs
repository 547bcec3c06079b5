//! End-to-end incremental-CI semantics over whole federations.
//!
//! The contract under test: a Replay-mode run over the same world (seed,
//! repo tree, software stacks, secrets) as a Record-mode producer serves
//! every step from the cache and reproduces the recorded run **byte for
//! byte** — statuses, step outputs, virtual timestamps, artifact contents.
//! Anything the infrastructure broke is never cached, and deduplicated
//! artifact storage keeps stored bytes well under logical bytes.

use hpcci::ci::{
    CacheMode, JobDef, RunStatus, Secret, SecretScope, StepCache, StepDef, TriggerEvent,
    WorkflowDef,
};
use hpcci::correct::Federation;
use hpcci::obs::ObsConfig;
use hpcci::scen::ScenarioSpec;
use hpcci::scenarios::{parsldock_scenario_on, psij_scenario_on, Scenario};
use hpcci::sim::{FaultKind, FaultPlan, SimTime};

/// Run the §6.2 PSI/J scenario on a pre-built federation and return it with
/// the finished run ids.
fn run_psij(fed: Federation) -> (Scenario, Vec<hpcci::ci::RunId>) {
    let mut s = psij_scenario_on(fed, false);
    let runs = s.push_approve_run("vhayot");
    (s, runs)
}

/// The §6.2 PSI/J world as a scenario document — the declarative form of
/// [`run_psij`], pinned against the preset inside [`run_psij_from_toml`] so
/// the two paths can never drift apart.
const PSIJ_TOML: &str = r#"# hpcci scenario (schema 1)
schema = 1
name = "psij"
seed = 5

[user]
login = "vhayot"
email = "vhayot@uchicago.edu"
provider = "uchicago.edu"

[workload]
kind = "psij"
repo = "ExaWorks/psij-python"
workflow = "psij-ci"
missing_dependency = false

[traffic]
pushes = 1
gap_secs = 300
burstiness_pct = 0

[cache]
mode = "off"

[[sites]]
preset = "purdue-anvil"
cores = 128
account = "x-vhayot"
allocation = "CIS230030"
environment = "anvil-vhayot"
software_env = "psij"
packages = ["psij-python=0.9.9", "psutil=5.9.8", "pystache=0.6.8", "typeguard=3.0.2"]

[[endpoints]]
name = "ep-anvil"
site = 0
kind = "multi-user"
template = "login-only"
"#;

/// Parse [`PSIJ_TOML`], compile it onto a federation carrying the given
/// shared cache, and drive one push — the TOML-first flavour of
/// [`run_psij`].
fn run_psij_from_toml(cache: StepCache, mode: CacheMode) -> (Scenario, Vec<hpcci::ci::RunId>) {
    let spec = ScenarioSpec::from_toml(PSIJ_TOML).expect("document parses");
    assert_eq!(
        spec,
        hpcci::scen::presets::psij(5, false),
        "document drifted from the §6.2 preset"
    );
    let fed = Federation::builder(spec.seed)
        .step_cache_shared(cache, mode)
        .build();
    let mut s = spec.build_on(fed).expect("spec compiles");
    let runs = s.push_approve_run("vhayot");
    (s, runs)
}

#[test]
fn replay_reproduces_the_recorded_run_byte_for_byte() {
    let cache = StepCache::new();
    let (cold_s, cold_runs) = run_psij_from_toml(cache.clone(), CacheMode::Record);
    let after_cold = cache.stats();
    assert!(after_cold.entries > 0, "record pass populates the cache");
    assert_eq!(after_cold.hits, 0, "record mode never serves");

    let (warm_s, warm_runs) = run_psij_from_toml(cache.clone(), CacheMode::Replay);
    // Stats accumulate on the shared cache, so compare against the cold
    // pass: the warm pass must add hits and nothing else.
    let after_warm = cache.stats();
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "identical world must hit on every step"
    );
    assert_eq!(after_warm.hits, after_cold.entries);

    let cold = cold_s.fed.engine.run(cold_runs[0]).unwrap();
    let warm = warm_s.fed.engine.run(warm_runs[0]).unwrap();
    assert_eq!(cold.status, warm.status);
    assert_eq!(cold.steps.len(), warm.steps.len());
    for (c, w) in cold.steps.iter().zip(&warm.steps) {
        assert_eq!(c.job, w.job);
        assert_eq!(c.step, w.step);
        assert_eq!(c.success, w.success);
        assert_eq!(c.stdout, w.stdout, "stdout of {}/{}", c.job, c.step);
        assert_eq!(c.stderr, w.stderr);
        assert_eq!(c.outputs, w.outputs);
        assert_eq!(c.started, w.started, "virtual start of {}/{}", c.job, c.step);
        assert_eq!(c.ended, w.ended, "virtual end of {}/{}", c.job, c.step);
    }
    // Artifacts round-trip through the CAS with identical bytes.
    let now = cold_s.fed.now();
    let c = cold_s.fed.engine.artifacts.fetch(cold_runs[0], "pytest-output", now).unwrap();
    let w = warm_s.fed.engine.artifacts.fetch(warm_runs[0], "pytest-output", now).unwrap();
    assert_eq!(c.content, w.content);
    assert_eq!(c.digest, w.digest);
    assert!(!c.digest.is_none());
}

#[test]
fn different_worlds_do_not_share_recordings() {
    let cache = StepCache::new();
    let _ = run_psij(
        Federation::builder(5)
            .step_cache_shared(cache.clone(), CacheMode::Record)
            .build(),
    );
    // A different seed jitters runtimes, so its steps must all miss and
    // re-execute rather than replay seed 5's recordings.
    let (s, runs) = run_psij(
        Federation::builder(6)
            .step_cache_shared(cache.clone(), CacheMode::Replay)
            .build(),
    );
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "seed-6 keys must not collide with seed-5 entries");
    assert!(stats.misses > 0);
    assert_eq!(s.fed.engine.run(runs[0]).unwrap().status, RunStatus::Success);
}

#[test]
fn infrastructure_failures_are_never_cached() {
    let plan = FaultPlan::none().with_fault(
        SimTime::from_secs(60),
        FaultKind::EndpointCrash {
            endpoint: "ep-chameleon-tacc".into(),
        },
    );
    let cache = StepCache::new();
    let fed = Federation::builder(85)
        .faults(plan)
        .step_cache_shared(cache.clone(), CacheMode::Record)
        .build();
    let mut s = parsldock_scenario_on(fed);
    let runs = s.push_approve_run("vhayot");
    let run = s.fed.engine.run(runs[0]).unwrap();
    assert_eq!(run.status, RunStatus::Failure, "the crashed site fails the run");
    let stats = cache.stats();
    assert!(
        stats.uncacheable > 0,
        "the infrastructure-failed step must be refused by the cache"
    );
    // Nothing poisoned: a Replay pass over the same broken world hits only
    // the genuinely-executed entries and re-executes the degraded step.
    let infra_step = run
        .steps
        .iter()
        .find(|st| st.outputs.get("failure_kind").map(String::as_str) == Some("infrastructure"))
        .expect("degraded step recorded");
    assert!(!infra_step.success);
}

/// Cacheability follows what the action saw happen, not what the log says.
/// A passing suite that merely *prints* a resilience phrase is recorded and
/// replays as a hit; a step CORRECT really retried is never recorded, even
/// though it passed.
#[test]
fn only_a_step_infrastructure_really_shaped_is_uncacheable() {
    let run = |fed: Federation, stdout: &'static str| {
        let mut s = psij_scenario_on(fed, false);
        let site = s.fed.site_by_name("purdue-anvil").expect("the §6.2 site");
        site.shared
            .lock()
            .commands
            .register("pytest", move |_| hpcci::faas::ExecOutcome::ok(stdout, 2.0));
        let runs = s.push_approve_run("vhayot");
        let run = s.fed.engine.run(runs[0]).unwrap();
        assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());
        run.full_log()
    };

    let chatty = "Access token rejected mid-run; re-authenticating\n6 passed";
    let cache = StepCache::new();
    let on = |mode| Federation::builder(5).step_cache_shared(cache.clone(), mode);
    run(on(CacheMode::Record).build(), chatty);
    let cold = cache.stats();
    assert_eq!(cold.uncacheable, 0, "a test's own words do not taint its result");
    run(on(CacheMode::Replay).build(), chatty);
    let warm = cache.stats();
    assert_eq!((warm.hits, warm.misses), (cold.entries, cold.misses));

    let fork_fails_once = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::MepForkFailure {
            endpoint: "ep-anvil".into(),
            user: "any".into(),
        },
    );
    let cache = StepCache::new();
    let on = |mode| Federation::builder(5).step_cache_shared(cache.clone(), mode);
    let log = run(on(CacheMode::Record).faults(fork_fails_once).build(), "6 passed");
    assert!(log.contains("retry 1/"), "the step was retried:\n{log}");
    assert_eq!(cache.stats().uncacheable, 1, "and passed, and is still not recorded");
}

/// The §6.1 ParslDock scenario's per-site pytest artifacts, concatenated in
/// environment order.
fn parsldock_site_outputs(fed: Federation) -> String {
    let mut s = parsldock_scenario_on(fed);
    let runs = s.push_approve_run("vhayot");
    let now = s.fed.now();
    let mut out = String::new();
    for env in &s.environments {
        let artifact = s
            .fed
            .engine
            .artifacts
            .fetch(runs[0], &format!("{env}-output"), now);
        out.push_str(&artifact.expect("site artifact").text());
    }
    out
}

#[test]
fn parsldock_record_and_replay_match_the_uncached_run() {
    for seed in [1000, 1001, 1002] {
        let uncached = parsldock_site_outputs(Federation::builder(seed).build());
        assert!(
            uncached.contains("passed"),
            "seed {seed}: the sites ran pytest"
        );

        let cache = StepCache::new();
        let on = |mode| {
            Federation::builder(seed)
                .step_cache_shared(cache.clone(), mode)
                .build()
        };
        let cold = parsldock_site_outputs(on(CacheMode::Record));
        let after_cold = cache.stats();
        assert!(
            after_cold.entries > 0,
            "seed {seed}: record pass populates the cache"
        );
        assert_eq!(
            cold, uncached,
            "seed {seed}: recording must not perturb the run"
        );

        let warm = parsldock_site_outputs(on(CacheMode::Replay));
        let after_warm = cache.stats();
        assert_eq!(
            warm, cold,
            "seed {seed}: replay reproduces the recorded artifacts"
        );
        assert_eq!(
            after_warm.misses, after_cold.misses,
            "seed {seed}: warm pass never misses"
        );
        assert_eq!(
            after_warm.hits, after_cold.entries,
            "seed {seed}: every step replayed"
        );
    }
}

#[test]
fn artifact_storage_dedups_across_repetitions() {
    let cache = StepCache::new();
    for mode in [CacheMode::Record, CacheMode::Replay] {
        let _ = run_psij(
            Federation::builder(11)
                .step_cache_shared(cache.clone(), mode)
                .build(),
        );
    }
    let cas = cache.cas().stats();
    assert!(cas.logical_bytes > 0);
    assert!(
        cas.stored_bytes < cas.logical_bytes,
        "identical artifact bytes across the two passes must be stored once \
         (stored {} vs logical {})",
        cas.stored_bytes,
        cas.logical_bytes
    );
    assert!(cas.dedup_hits > 0);
}

#[test]
fn obs_counts_hits_misses_and_replay_latency() {
    let cache = StepCache::new();
    let (cold_s, _) = run_psij(
        Federation::builder(13)
            .obs(ObsConfig::enabled())
            .step_cache_shared(cache.clone(), CacheMode::Record)
            .build(),
    );
    let cold = cold_s.fed.metrics();
    assert!(cold.counter("ci.step_cache_misses") > 0, "record pass counts misses");
    assert_eq!(cold.counter("ci.step_cache_hits"), 0);
    assert!(cold.counter("ci.artifact_logical_bytes") > 0);
    assert!(
        cold.counter("ci.artifact_stored_bytes") <= cold.counter("ci.artifact_logical_bytes")
    );

    let (warm_s, _) = run_psij(
        Federation::builder(13)
            .obs(ObsConfig::enabled())
            .step_cache_shared(cache.clone(), CacheMode::Replay)
            .build(),
    );
    let warm = warm_s.fed.metrics();
    let hits = warm.counter("ci.step_cache_hits");
    assert!(hits > 0, "replay pass counts hits");
    assert_eq!(warm.counter("ci.step_cache_misses"), 0);
    let replay = warm
        .histogram("ci.step_replay_us")
        .expect("replay latency histogram populated");
    assert_eq!(replay.count, hits, "one replay-latency sample per hit");
    assert!(replay.sum > 0, "replayed steps carry their recorded virtual duration");
}

#[test]
fn cache_off_builds_have_no_cache_side_effects() {
    let mut s = psij_scenario_on(Federation::builder(21).build(), false);
    let runs = s.push_approve_run("vhayot");
    assert_eq!(s.fed.engine.run(runs[0]).unwrap().status, RunStatus::Success);
    assert!(s.fed.step_cache().is_none());
    assert!(s.fed.engine.artifacts.cas().is_none());
}

// ----------------------------------------------------------------------
// Invalidation, end to end: what happens to a warm cache — and to the job
// plans the engine keeps between runs — when the world changes between two
// pushes.
// ----------------------------------------------------------------------

/// The §6.1 three-site world (jobs `chameleon`, `faster-vhayot`,
/// `expanse-vhayot`, a CORRECT step and an upload each) plus what the cases
/// below need: an environment secret of the middle job that can be rotated
/// without breaking its FaaS login (a failed login is uncacheable, not a
/// miss), and a second workflow, `env-probe`, whose middle step interpolates
/// `${{ env.PYTEST_FLAGS }}`.
fn multi_site_world(cache: &StepCache, mode: CacheMode) -> Scenario {
    let fed = Federation::builder(1000)
        .step_cache_shared(cache.clone(), mode)
        .build();
    let mut s = parsldock_scenario_on(fed);
    s.fed.engine.secrets.put(
        SecretScope::Environment {
            repo: s.repo.clone(),
            environment: s.environments[1].clone(),
        },
        Secret::new("DEPLOY_NOTE", "first"),
    );
    s.fed.engine.add_workflow(
        &s.repo,
        WorkflowDef::new("env-probe")
            .on_event(TriggerEvent::push_any())
            .with_job(
                JobDef::new("probe")
                    .with_environment(&s.environments[0])
                    .with_step(StepDef::run("before", "echo before"))
                    .with_step(StepDef::run("flags", "pytest ${{ env.PYTEST_FLAGS }}"))
                    .with_step(StepDef::run("after", "echo after")),
            ),
    );
    s
}

/// Every step of one push, in run and step order.
fn steps_of_push(s: &mut Scenario) -> Vec<hpcci::ci::StepRun> {
    let runs = s.push_approve_run("vhayot");
    assert_eq!(runs.len(), 2, "parsldock-ci and env-probe");
    let steps = runs.iter().flat_map(|id| {
        let run = s.fed.engine.run(*id).unwrap();
        assert_eq!(run.status, RunStatus::Success);
        run.steps.iter().cloned()
    });
    steps.collect()
}

/// Record two pushes; on a fresh same-seed federation replay the first,
/// apply `change`, replay the second. Returns which steps of the second
/// push were served from the cache — a hit shares the recorded outcome — as
/// `H`/`M`, the two runs separated by a space.
fn second_push_after(change: impl FnOnce(&mut Scenario)) -> String {
    let cache = StepCache::new();
    let mut cold = multi_site_world(&cache, CacheMode::Record);
    let recorded = [steps_of_push(&mut cold), steps_of_push(&mut cold)];
    assert_eq!(cache.stats().entries, 18);

    let mut warm = multi_site_world(&cache, CacheMode::Replay);
    let served = |recorded: &[hpcci::ci::StepRun], replayed: &[hpcci::ci::StepRun]| {
        let mut pattern = String::new();
        for (ix, (r, w)) in recorded.iter().zip(replayed).enumerate() {
            assert_eq!((&r.job, &r.step), (&w.job, &w.step));
            if ix == 6 {
                pattern.push(' ');
            }
            let hit = std::sync::Arc::ptr_eq(&r.outcome, &w.outcome);
            pattern.push(if hit { 'H' } else { 'M' });
        }
        pattern
    };
    // The first replay builds every job plan; `change` must reach through them.
    let first = steps_of_push(&mut warm);
    assert_eq!(served(&recorded[0], &first), "HHHHHH HHH");
    change(&mut warm);
    let second = steps_of_push(&mut warm);
    let pattern = served(&recorded[1], &second);
    let stats = cache.stats();
    let hits = pattern.matches('H').count() as u64;
    assert_eq!((stats.hits, stats.misses), (9 + hits, 18 + 9 - hits));
    pattern
}

#[test]
fn an_untouched_world_replays_both_pushes() {
    assert_eq!(second_push_after(|_| {}), "HHHHHH HHH");
}

/// The first case of the environment-churn oracle: a package installed at
/// one site invalidates that site's job and — the chain is run-wide —
/// every job after it in the run, and nothing before it or in another run.
#[test]
fn a_package_install_misses_from_that_sites_job_on() {
    let pattern = second_push_after(|s| {
        let site = s.fed.site_by_name("tamu-faster").expect("the middle job's site");
        let mut rt = site.shared.lock();
        rt.site.envs.create("docking").install("pytest-xdist", "3.5.0");
    });
    assert_eq!(pattern, "HHMMMM HHH");
}

#[test]
fn an_env_var_invalidates_only_from_the_step_that_reads_it() {
    let unread = second_push_after(|s| {
        let repo = s.repo.clone();
        s.fed.engine.set_env_var(&repo, "NOBODY_READS_THIS", "1");
    });
    assert_eq!(unread, "HHHHHH HHH", "plans rebuilt to the same keys");
    let read = second_push_after(|s| {
        let repo = s.repo.clone();
        s.fed.engine.set_env_var(&repo, "PYTEST_FLAGS", "-x");
    });
    assert_eq!(read, "HHHHHH HMM");
}

/// `SecretStore::put` drops every resolved map, whoever's secret it stored:
/// all plans rebuild, to the same keys.
#[test]
fn another_tenants_secret_rebuilds_every_plan_and_still_hits() {
    let pattern = second_push_after(|s| {
        s.fed.engine.secrets.put(
            SecretScope::Repository("someone/else".into()),
            Secret::new("GLOBUS_SECRET", "not-yours"),
        );
    });
    assert_eq!(pattern, "HHHHHH HHH");
}

#[test]
fn rotating_a_jobs_environment_secret_misses_from_that_job_on() {
    let pattern = second_push_after(|s| {
        s.fed.engine.secrets.put(
            SecretScope::Environment {
                repo: s.repo.clone(),
                environment: s.environments[1].clone(),
            },
            Secret::new("DEPLOY_NOTE", "rotated"),
        );
    });
    assert_eq!(pattern, "HHMMMM HHH");
}

/// ROADMAP 1(b), the CAS clause: references balance at teardown. A Record
/// and a Replay federation share one cache; once each has purged its
/// artifacts past the 90-day window and federations and cache are dropped —
/// with them every entry and every pin — a retained store handle reads
/// empty. (`hpcci-scen verify` checks the same per scenario.)
#[test]
fn cas_references_return_to_zero_at_teardown() {
    let cache = StepCache::new();
    let cas = cache.cas().clone();
    let mut worlds = Vec::new();
    for mode in [CacheMode::Record, CacheMode::Replay] {
        let fed = Federation::builder(17)
            .step_cache_shared(cache.clone(), mode)
            .build();
        worlds.push(run_psij(fed).0);
    }
    let live = cas.stats();
    assert_eq!((live.objects, live.chunks), (1, 1), "one artifact, stored once");
    assert_eq!(live.logical_bytes, 2 * live.stored_bytes, "uploaded once, attached once");

    for s in &mut worlds {
        let expired = s.fed.now() + hpcci::sim::SimDuration::from_secs(91 * 24 * 3600);
        assert_eq!(s.fed.engine.artifacts.purge_expired(expired), 1);
    }
    let purged = cas.stats();
    assert_eq!(purged.logical_bytes, 0, "both uploads released");
    assert_eq!(purged.objects, 1, "the cache entry's pin keeps the object");

    drop((worlds, cache));
    let gone = cas.stats();
    assert_eq!(
        (gone.objects, gone.chunks, gone.logical_bytes, gone.stored_bytes),
        (0, 0, 0, 0)
    );
}
