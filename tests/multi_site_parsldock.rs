//! §6.1 / Fig. 4: the ParslDock test suite across Chameleon, FASTER, and
//! Expanse, with per-test durations recorded at each site.

use hpcci::ci::RunStatus;
use hpcci::correct::Federation;
use hpcci::paper;
use hpcci::parsldock::parse_durations;
use hpcci::sim::sweep;

#[test]
fn parsldock_runs_at_all_three_sites() {
    let mut s = paper::world(paper::FIG4_PARSLDOCK, Federation::builder(61).build()).unwrap();
    let runs = s.push_approve_run("vhayot").unwrap();
    assert_eq!(runs.len(), 1, "one workflow run with three site jobs");
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());

    // One artifact per site, each a full pytest durations table.
    let now = s.fed.now();
    for env in &s.environments {
        let artifact = s
            .fed
            .engine
            .artifacts
            .fetch(runs[0], &format!("{env}-output"), now)
            .unwrap_or_else(|_| panic!("artifact for {env}"));
        let durations = parse_durations(&artifact.text());
        assert_eq!(durations.len(), 8, "{env}: all eight tests timed");
        assert!(artifact.text().contains("8 passed, 0 failed"));
    }
}

#[test]
fn fig4_shape_chameleon_wins_most_tests() {
    let mut s = paper::world(paper::FIG4_PARSLDOCK, Federation::builder(62).build()).unwrap();
    let runs = s.push_approve_run("vhayot").unwrap();
    let now = s.fed.now();
    let mut per_site: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for env in &s.environments {
        let text = s
            .fed
            .engine
            .artifacts
            .fetch(runs[0], &format!("{env}-output"), now)
            .unwrap()
            .text();
        per_site.push((env.clone(), parse_durations(&text)));
    }
    let chameleon = &per_site[0].1;
    let faster = &per_site[1].1;
    let expanse = &per_site[2].1;

    // Paper: "Chameleon outperforms other sites for most test cases."
    let mut chameleon_wins = 0;
    for i in 0..chameleon.len() {
        assert_eq!(chameleon[i].0, faster[i].0);
        if chameleon[i].1 <= faster[i].1 && chameleon[i].1 <= expanse[i].1 {
            chameleon_wins += 1;
        }
    }
    assert!(
        chameleon_wins >= 6,
        "Chameleon should win most of 8 tests, won {chameleon_wins}"
    );

    // Expanse (slowest cores in our calibration) is slowest on the heavy test.
    let heavy = |site: &[(String, f64)]| {
        site.iter()
            .find(|(n, _)| n == "test_end_to_end_screen")
            .map(|(_, d)| *d)
            .expect("heavy test present")
    };
    assert!(heavy(expanse) > heavy(chameleon));
}

#[test]
fn tests_on_hpc_sites_run_on_compute_nodes() {
    // The MEP template must route pytest to SLURM pilots (compute nodes),
    // and the clone to the login node — visible through the scheduler's
    // accounting: each HPC site ran exactly one pilot job.
    let mut s = paper::world(paper::FIG4_PARSLDOCK, Federation::builder(63).build()).unwrap();
    s.push_approve_run("vhayot").unwrap();
    for site_name in ["tamu-faster", "sdsc-expanse"] {
        let handle = s.fed.site_by_name(site_name).unwrap().clone();
        let rt = handle.shared.lock();
        let sched = rt.scheduler.as_ref().expect("HPC site has scheduler").lock();
        assert!(
            sched.accounting().len() + sched.running_count() >= 1,
            "{site_name}: pilot job went through the batch scheduler"
        );
    }
    // Chameleon has no scheduler at all — FaaS ran directly on the instance.
    let cham = s.fed.site_by_name("chameleon-tacc").unwrap().clone();
    assert!(cham.shared.lock().scheduler.is_none());
}

#[test]
fn reruns_are_deterministic_per_seed() {
    let run_once = |seed: u64| {
        let mut s = paper::world(paper::FIG4_PARSLDOCK, Federation::builder(seed).build()).unwrap();
        let runs = s.push_approve_run("vhayot").unwrap();
        let now = s.fed.now();
        s.fed
            .engine
            .artifacts
            .fetch(runs[0], "chameleon-output", now)
            .unwrap()
            .text()
    };
    assert_eq!(run_once(99), run_once(99), "same seed, identical artifact");
    assert_ne!(run_once(99), run_once(100), "different seed, different jitter");
}

// Scenario-level determinism of parallel sweeps: a sweep parallelizes
// *work*, never *results*. Running the same seeded federations under 1
// worker and under many workers must return bit-identical outputs in
// submission order — this is what lets `reproduce fig4_parsldock` and
// `hpcci-scen verify --threads` use the parallel path by default.

/// One self-contained federation run: the §6.1 ParslDock scenario, rendered
/// to the concatenated per-site pytest outputs.
fn run_rep(seed: u64) -> String {
    let mut s = paper::world(paper::FIG4_PARSLDOCK, Federation::builder(seed).build()).unwrap();
    let runs = s.push_approve_run("vhayot").unwrap();
    let now = s.fed.now();
    let mut out = String::new();
    for env in &s.environments {
        let text = s
            .fed
            .engine
            .artifacts
            .fetch(runs[0], &format!("{env}-output"), now)
            .expect("site artifact")
            .text();
        out.push_str(&text);
    }
    out
}

#[test]
fn parallel_sweep_equals_serial_scenario_results() {
    let jobs = |n: u64| -> Vec<_> { (0..n).map(|rep| move || run_rep(2000 + rep)).collect() };
    let serial = sweep::sweep(jobs(3), 1);
    let parallel = sweep::sweep(jobs(3), 4);
    assert_eq!(serial, parallel, "parallel sweep reordered or altered results");
    // Distinct seeds genuinely produce distinct runs (the comparison above
    // is not vacuous).
    assert_ne!(serial[0], serial[1]);
}

#[test]
fn repeated_parallel_sweeps_are_reproducible() {
    let jobs = |n: u64| -> Vec<_> { (0..n).map(|rep| move || run_rep(3000 + rep)).collect() };
    let first = sweep::sweep(jobs(4), 4);
    let second = sweep::sweep(jobs(4), 2);
    assert_eq!(first, second, "worker count leaked into scenario results");
}
