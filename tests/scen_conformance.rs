//! Conformance sweep for the scenario layer (`hpcci-scen`).
//!
//! Three guarantees pinned here:
//!  1. the seeded generator is byte-stable — golden TOML fixtures under
//!     `tests/fixtures/` must match `ScenarioGen::new(42)` output exactly;
//!  2. a 64-scenario fleet passes every oracle family, and a parallel
//!     sweep reaches verdicts identical to a serial one;
//!  3. `first_divergence` pinpoints the first divergent virtual instant
//!     when two executions legitimately disagree;
//!  4. the hand-written `batched-submit` fixture — a multi-site world whose
//!     bursty push rounds land submit waves on four endpoints — is canonical
//!     TOML and passes every oracle.

use hpcci::cas::{Digest, DigestBuilder};
use hpcci::scen::{
    first_divergence, run_spec, verify_spec, OracleReport, ScenarioGen, ScenarioSpec,
};
use hpcci::sim::sweep::sweep;

const FLEET_SEED: u64 = 42;
const FLEET_SIZE: u64 = 64;

/// Golden fixtures: `(index, file contents)` pinned from `ScenarioGen::new(42)`.
/// Picked for structural variety: 0003 is a single-site cache-off world,
/// 0010 is a three-site record-cache world with multi-user endpoints, and
/// 0013 carries a chaos schedule on top of a record cache.
const FIXTURES: [(u64, &str); 3] = [
    (3, include_str!("fixtures/gen-42-0003.toml")),
    (10, include_str!("fixtures/gen-42-0010.toml")),
    (13, include_str!("fixtures/gen-42-0013.toml")),
];

/// An oracle verdict reduced to its comparable surface.
fn verdict(report: &OracleReport) -> (String, Digest, u64, u64, usize, usize, Vec<String>) {
    (
        report.name.clone(),
        report.digest,
        report.events,
        report.end_us,
        report.runs,
        report.tasks,
        report.violations.iter().map(|v| v.to_string()).collect(),
    )
}

#[test]
fn generator_matches_golden_fixtures_byte_for_byte() {
    let gen = ScenarioGen::new(FLEET_SEED);
    for (index, golden) in FIXTURES {
        let spec = gen.generate(index);
        assert_eq!(
            spec.to_toml(),
            golden,
            "generator drifted from pinned fixture gen-42-{index:04}; if the \
             change is intentional, regenerate the fixture with \
             `hpcci-scen gen --count 16 --seed 42`"
        );
        let parsed = ScenarioSpec::from_toml(golden).expect("fixture parses");
        assert_eq!(parsed, spec, "fixture round-trips to the generated spec");
    }
}

#[test]
fn fixture_scenarios_pass_every_oracle() {
    for (_, golden) in FIXTURES {
        let spec = ScenarioSpec::from_toml(golden).expect("fixture parses");
        let report = verify_spec(&spec).expect("fixture runs");
        assert!(
            report.passed(),
            "{}: {:?}",
            report.name,
            report.violations
        );
    }
}

#[test]
fn fleet_of_64_passes_all_oracles_serial_and_parallel() {
    let fleet = ScenarioGen::new(FLEET_SEED).fleet(FLEET_SIZE);

    let serial_jobs: Vec<_> = fleet
        .iter()
        .cloned()
        .map(|spec| move || verify_spec(&spec).expect("spec builds"))
        .collect();
    let parallel_jobs: Vec<_> = fleet
        .iter()
        .cloned()
        .map(|spec| move || verify_spec(&spec).expect("spec builds"))
        .collect();

    let serial = sweep(serial_jobs, 1);
    let parallel = sweep(parallel_jobs, 8);
    assert_eq!(serial.len(), FLEET_SIZE as usize);

    for (s, p) in serial.iter().zip(&parallel) {
        assert!(
            s.passed(),
            "{} violated an oracle: {:?}",
            s.name,
            s.violations
        );
        assert_eq!(
            verdict(s),
            verdict(p),
            "parallel sweep verdict diverged from serial for {}",
            s.name
        );
    }

    // The fleet exercises real structure, not 64 copies of one world. An
    // event is an endpoint the loop advanced or a wire message it handled —
    // work done, not steps × endpoints — and this fleet does 8,907 of them,
    // so the floor sits at 5,000.
    let total_events: u64 = serial.iter().map(|r| r.events).sum();
    let total_runs: usize = serial.iter().map(|r| r.runs).sum();
    assert!(total_events > 5_000, "fleet dispatched {total_events} events");
    assert!(total_runs > FLEET_SIZE as usize, "fleet produced {total_runs} runs");

    // The fleet's behaviour in one value: every scenario's name and outcome
    // digest folded in stream order, exactly as `hpcci-scen verify` prints it
    // (`gen --count 64 --seed 42`). It moves only when some scenario's trace,
    // chaos log or transcript does.
    let fleet_digest = serial
        .iter()
        .fold(DigestBuilder::new(), |fold, r| {
            fold.str_field("scenario", &r.name)
                .digest_field("outcome", r.digest)
        })
        .finish();
    assert_eq!(
        fleet_digest.to_string(),
        "50e848ff504a69dc38997a9c81290086",
        "the 64-fleet's outcome digests moved; find the scenario with \
         `hpcci-scen replay --transcript` against a parent build"
    );
}

/// Hand-written (not generator-pinned) fixture: three distinct sites and
/// four endpoints fed by four bursty push rounds.
const BATCHED_SUBMIT: &str = include_str!("fixtures/batched-submit.toml");

#[test]
fn batched_submit_fixture_is_canonical_and_passes_oracles() {
    let spec = ScenarioSpec::from_toml(BATCHED_SUBMIT).expect("fixture parses");
    spec.validate().expect("fixture validates");
    assert_eq!(
        spec.to_toml(),
        BATCHED_SUBMIT,
        "fixture must be in canonical form so parse ∘ serialize is identity"
    );
    let report = verify_spec(&spec).expect("fixture runs");
    assert!(report.passed(), "{}: {:?}", report.name, report.violations);
}

#[test]
fn explain_names_the_first_divergent_instant_on_corruption() {
    // Two executions of the same spec are identical; perturbing the world
    // seed is the "corrupted replay" — the diff must name a virtual instant.
    let gen = ScenarioGen::new(FLEET_SEED);
    let spec = gen.generate(3);
    let a = run_spec(&spec).expect("runs");
    let b = run_spec(&spec).expect("runs");
    assert!(first_divergence(&a.trace, &b.trace).is_none());
    assert!(first_divergence(&a.transcript, &b.transcript).is_none());

    let mut corrupted = spec.clone();
    corrupted.seed ^= 1;
    let c = run_spec(&corrupted).expect("runs");
    let div = first_divergence(&a.transcript, &c.transcript)
        .or_else(|| first_divergence(&a.trace, &c.trace))
        .expect("seed perturbation must diverge");
    assert!(
        div.instant_us.is_some(),
        "divergence must carry a virtual instant: {div}"
    );
    // Rendered form is what `hpcci-scen explain` prints.
    let rendered = div.to_string();
    assert!(rendered.contains("t+"), "human form names the instant: {rendered}");
}
