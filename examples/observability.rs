//! The observability layer on the §6.1 ParslDock scenario: build the
//! federation with metrics enabled, run the workflow, then print the
//! Prometheus-style exposition, a few snapshot lookups, and the per-run
//! telemetry reports.
//!
//! ```sh
//! cargo run --example observability
//! ```

use hpcci::obs::{ObsConfig, RunReport};
use hpcci::paper;

fn main() {
    let fed = hpcci::correct::Federation::builder(42)
        .obs(ObsConfig::enabled())
        .build();
    let mut s = paper::world(paper::FIG4_PARSLDOCK, fed).expect("the Fig. 4 world compiles");
    s.push_approve_run("vhayot").unwrap();

    let snap = s.fed.metrics();
    println!("=== exposition (excerpt) ===");
    for line in snap
        .to_prometheus()
        .lines()
        .filter(|l| l.contains("queue_wait") || l.contains("task_latency"))
        .take(24)
    {
        println!("{line}");
    }

    println!("\n=== snapshot lookups ===");
    let latency = snap.histogram("faas.task_latency_us").unwrap();
    println!("tasks completed        {}", snap.counter("faas.tasks_completed"));
    println!("events dispatched      {}", snap.counter("sim.events_dispatched"));
    println!("task latency p50/p99   {} / {} us", latency.p50, latency.p99);
    println!(
        "queue depth high-water {}",
        snap.gauge("sched.queue_depth").map(|g| g.max).unwrap_or(0)
    );

    println!("\n=== run reports ===");
    print!("{}", RunReport::render_table(&s.fed.run_reports()));
}
