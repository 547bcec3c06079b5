//! Determinism guarantees of the observability layer (DESIGN.md §4.8).
//!
//! The obs registry records sim-time values only, so it inherits the
//! simulation's determinism: two same-seed runs must produce **byte-
//! identical** metric snapshots, a parallel sweep must report exactly what
//! the serial sweep reports, and — because recording never perturbs timing,
//! RNG draws, or the component traces — the golden trace hashes pinned in
//! `tests/golden_traces.rs` must hold with obs enabled just as they do with
//! it disabled.

use hpcci::obs::{Obs, ObsConfig};
use hpcci::scenarios::{parsldock_scenario_on, psij_scenario_on, Scenario};
use hpcci::sim::{sweep, DetRng, FaultPlan, SimDuration};

/// FNV-1a, matching `tests/golden_traces.rs`.
fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

// The goldens pinned by tests/golden_traces.rs (PR 2 baseline). Obs must not
// move them.
const GOLDEN_PSIJ_TRACE: u64 = 761119000233767446;
const GOLDEN_PARSLDOCK_FAULT_TRACE: u64 = 5155577981634125522;
const GOLDEN_PARSLDOCK_CHAOS_TRACE: u64 = 10201305947749851509;

/// Obs-enabled ParslDock scenario, driven to completion.
fn observed_parsldock(seed: u64) -> Scenario {
    let fed = hpcci::correct::Federation::builder(seed)
        .obs(ObsConfig::enabled())
        .build();
    let mut s = parsldock_scenario_on(fed);
    s.push_approve_run("vhayot");
    s
}

#[test]
fn same_seed_runs_produce_byte_identical_snapshots() {
    let dump = |seed| {
        let s = observed_parsldock(seed);
        let snap = s.fed.metrics();
        (snap.to_json(), snap.to_prometheus())
    };
    let (json_a, prom_a) = dump(42);
    let (json_b, prom_b) = dump(42);
    assert_eq!(json_a, json_b, "same-seed JSON snapshots must be identical");
    assert_eq!(prom_a, prom_b, "same-seed expositions must be identical");
    // And the snapshot is not trivially empty: the core series recorded.
    assert!(json_a.contains("\"sched.queue_wait_us\""));
    assert!(json_a.contains("\"faas.task_latency_us\""));
    let (json_c, _) = dump(43);
    assert_ne!(json_a, json_c, "different seeds produce different metrics");
}

#[test]
fn parallel_sweep_metrics_match_serial_sweep() {
    let job = |seed: u64| move || observed_parsldock(seed).fed.metrics().to_json();
    let seeds = [11u64, 12, 13, 14];
    let serial = sweep::sweep(seeds.iter().map(|&s| job(s)).collect::<Vec<_>>(), 1);
    let parallel = sweep::sweep(seeds.iter().map(|&s| job(s)).collect::<Vec<_>>(), 4);
    assert_eq!(
        serial, parallel,
        "per-seed metric snapshots must not depend on sweep parallelism"
    );
}

#[test]
fn golden_psij_trace_unchanged_with_obs_enabled() {
    let run = |cfg: ObsConfig| {
        let fed = hpcci::correct::Federation::builder(42).obs(cfg).build();
        let mut s = psij_scenario_on(fed, false);
        s.push_approve_run("vhayot");
        let t = s.fed.cloud.lock().trace.render();
        t
    };
    assert_eq!(fnv1a(&run(ObsConfig::disabled())), GOLDEN_PSIJ_TRACE);
    assert_eq!(
        fnv1a(&run(ObsConfig::enabled())),
        GOLDEN_PSIJ_TRACE,
        "enabling obs must not add, drop, or reorder trace events"
    );
}

#[test]
fn golden_fault_traces_unchanged_with_obs_enabled() {
    let endpoints = [
        "ep-chameleon-tacc",
        "ep-tamu-faster",
        "ep-sdsc-expanse",
        "chameleon-tacc",
        "tamu-faster",
        "sdsc-expanse",
    ];
    let run = |cfg: ObsConfig| {
        let plan = FaultPlan::randomized(2121, SimDuration::from_secs(90), 12, &endpoints);
        let fed = hpcci::correct::Federation::builder(7)
            .faults(plan)
            .obs(cfg)
            .build();
        let mut s = parsldock_scenario_on(fed);
        s.push_approve_run("vhayot");
        let trace = s.fed.cloud.lock().trace.render();
        let chaos = s.fed.fault_trace().render();
        (fnv1a(&trace), fnv1a(&chaos))
    };
    let disabled = run(ObsConfig::disabled());
    let enabled = run(ObsConfig::enabled());
    assert_eq!(disabled, (GOLDEN_PARSLDOCK_FAULT_TRACE, GOLDEN_PARSLDOCK_CHAOS_TRACE));
    assert_eq!(
        enabled, disabled,
        "obs recording must not perturb the fault-injected replay"
    );
}

#[test]
fn disabled_obs_snapshot_is_empty() {
    let fed = hpcci::correct::Federation::builder(5).build();
    let mut s = parsldock_scenario_on(fed);
    s.push_approve_run("vhayot");
    let snap = s.fed.metrics();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
    assert_eq!(snap.spans, 0);
}

/// A histogram's quantiles are bucket estimates; its count, sum, min and max
/// are exact over everything observed.
#[test]
fn histogram_aggregates_are_exact() {
    for case in 0..12u64 {
        let mut rng = DetRng::seed_from_u64(0xdeed_5eed ^ case).fork("histogram_exact");
        let n = rng.range_u64(1, 1024);
        let values: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1 << 40)).collect();
        let obs = Obs::enabled();
        for &v in &values {
            obs.observe("wk.gap_us", v);
        }
        let snap = obs.snapshot();
        let h = snap.histogram("wk.gap_us").expect("histogram present");
        assert_eq!((h.count, h.sum), (n, values.iter().sum()), "case {case}");
        assert_eq!(Some(&h.min), values.iter().min(), "case {case}");
        assert_eq!(Some(&h.max), values.iter().max(), "case {case}");
    }
}
