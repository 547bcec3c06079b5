//! FIG4: regenerate Fig. 4 — runtimes of the ParslDock tests on different
//! machines — by executing the §6.1 scenario and averaging over several
//! seeded repetitions.
//!
//! The repetitions are independent seeded federations, so they run as a
//! parallel sweep (`hpcci::sim::sweep`): one single-threaded federation per
//! worker, results merged in submission order, output bit-identical to the
//! serial sweep. Pass `--serial` to force the reference serial path.

use hpcci::scenarios::{parse_durations, parsldock_scenario};
use hpcci::sim::sweep;
use std::collections::BTreeMap;

const REPS: u64 = 5;

/// One repetition: run the scenario and parse every site's per-test
/// durations. Self-contained, so repetitions can run on separate workers.
fn run_rep(seed: u64) -> Vec<(String, Vec<(String, f64)>)> {
    let mut s = parsldock_scenario(seed);
    let runs = s.push_approve_run("vhayot");
    let now = s.fed.now();
    let mut out = Vec::new();
    for env in &s.environments {
        let text = s
            .fed
            .engine
            .artifacts
            .fetch(runs[0], &format!("{env}-output"), now)
            .expect("site artifact")
            .text();
        out.push((env.clone(), parse_durations(&text)));
    }
    out
}

fn main() {
    let serial = std::env::args().any(|a| a == "--serial");
    let threads = if serial { 1 } else { sweep::default_threads() };

    let jobs: Vec<_> = (0..REPS).map(|rep| move || run_rep(1000 + rep)).collect();
    let reps = sweep::sweep(jobs, threads);

    // site -> test -> samples, merged in submission (seed) order.
    let mut samples: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut sites_in_order: Vec<String> = Vec::new();
    let mut tests_in_order: Vec<String> = Vec::new();
    for (rep, sites) in reps.iter().enumerate() {
        for (env, durations) in sites {
            if rep == 0 && !sites_in_order.contains(env) {
                sites_in_order.push(env.clone());
            }
            for (test, duration) in durations {
                if rep == 0 && env == &sites_in_order[0] {
                    tests_in_order.push(test.clone());
                }
                samples
                    .entry(env.clone())
                    .or_default()
                    .entry(test.clone())
                    .or_default()
                    .push(*duration);
            }
        }
    }

    let mean = |site: &String, test: &String| {
        let v = &samples[site][test];
        v.iter().sum::<f64>() / v.len() as f64
    };

    hpcci_bench::section(&format!(
        "Fig. 4 — ParslDock per-test runtime (virtual seconds, mean of {REPS} runs, {threads} sweep thread(s))"
    ));
    print!("{:<28}", "test");
    for site in &sites_in_order {
        print!("{site:>18}");
    }
    println!();
    for test in &tests_in_order {
        print!("{test:<28}");
        for site in &sites_in_order {
            print!("{:>18.3}", mean(site, test));
        }
        println!();
    }

    // Shape summary.
    let wins = tests_in_order
        .iter()
        .filter(|t| {
            let cham = mean(&sites_in_order[0], t);
            sites_in_order[1..].iter().all(|s| cham <= mean(s, t))
        })
        .count();
    println!(
        "\nshape: Chameleon fastest on {wins}/{} tests (paper: \"Chameleon outperforms other \
         sites for most test cases\")",
        tests_in_order.len()
    );
    println!(
        "short tests stay sub-second everywhere — \"the benefits of adopting a FaaS based model\"."
    );
}
