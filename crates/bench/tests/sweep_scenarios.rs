//! Scenario-level determinism of parallel sweeps: a sweep parallelizes
//! *work*, never *results*. Running the same seeded federations under 1
//! worker and under many workers must return bit-identical outputs in
//! submission order — this is what lets `fig4_parsldock` and
//! `hpcci-scen verify --threads` use the parallel path by default.

use hpcci::scenarios::parsldock_scenario;
use hpcci::sim::sweep;

/// One self-contained federation run: the §6.1 ParslDock scenario, rendered
/// to the concatenated per-site pytest outputs.
fn run_rep(seed: u64) -> String {
    let mut s = parsldock_scenario(seed);
    let runs = s.push_approve_run("vhayot");
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
