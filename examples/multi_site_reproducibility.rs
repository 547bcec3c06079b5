//! §6.1 as an example: run the ParslDock test suite across Chameleon,
//! FASTER, and Expanse through one CORRECT workflow and print the per-test
//! runtime comparison of Fig. 4.
//!
//! ```sh
//! cargo run --example multi_site_reproducibility
//! ```

use hpcci::correct::Federation;
use hpcci::paper;
use hpcci::parsldock::parse_durations;

fn main() {
    let mut scenario = paper::world(paper::FIG4_PARSLDOCK, Federation::builder(4242).build())
        .expect("the Fig. 4 world compiles");
    println!("pushing a change to parsl/parsl-docking-tutorial ...");
    let runs = scenario.push_approve_run("vhayot").unwrap();
    let run = scenario.fed.engine.run(runs[0]).unwrap();
    println!("workflow `{}` finished: {:?}\n", run.workflow, run.status);

    // Collect per-site durations from the uploaded artifacts.
    let now = scenario.fed.now();
    let mut per_site = Vec::new();
    for env in &scenario.environments {
        let text = scenario
            .fed
            .engine
            .artifacts
            .fetch(runs[0], &format!("{env}-output"), now)
            .expect("site artifact")
            .text();
        per_site.push((env.clone(), parse_durations(&text)));
    }

    // Fig. 4: runtimes of ParslDock tests on different machines.
    println!("Fig. 4 — per-test runtime (virtual seconds) per site\n");
    print!("{:<28}", "test");
    for (site, _) in &per_site {
        print!("{site:>18}");
    }
    println!();
    let n = per_site[0].1.len();
    for i in 0..n {
        print!("{:<28}", per_site[0].1[i].0);
        for (_, durations) in &per_site {
            print!("{:>18.3}", durations[i].1);
        }
        println!();
    }

    let wins = (0..n)
        .filter(|&i| {
            per_site[1..]
                .iter()
                .all(|(_, d)| per_site[0].1[i].1 <= d[i].1)
        })
        .count();
    println!(
        "\nChameleon wins {wins}/{n} test cases — the paper's observation that \
         \"Chameleon outperforms other sites for most test cases\"."
    );
}
