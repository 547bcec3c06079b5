//! Conformance sweep for the scenario layer (`hpcci-scen`).
//!
//! Guarantees pinned here:
//!  1. the seeded generator is byte-stable — golden TOML fixtures under
//!     `tests/fixtures/` must match `ScenarioGen::new(42)` output exactly;
//!  2. a 64-scenario fleet passes every oracle family, and a parallel
//!     sweep reaches verdicts identical to a serial one;
//!  3. `first_divergence` pinpoints the first divergent virtual instant
//!     when two executions legitimately disagree;
//!  4. the hand-written `batched-submit` fixture — a multi-site world whose
//!     bursty push rounds land submit waves on four endpoints — is canonical
//!     TOML and passes every oracle;
//!  5. every file of the regression corpus names the bug it pins and passes
//!     every oracle;
//!  6. every world behind a paper figure (`tests/fixtures/paper/`) names its
//!     figure and passes every oracle, Fig. 5's broken dependency included;
//!  7. every document above refuses each of its keys renamed or retyped, and
//!     an unknown table.

use hpcci::cas::{Digest, DigestBuilder};
use hpcci::paper;
use hpcci::scen::{
    first_divergence, run_spec, verify_spec, OracleReport, ScenarioGen, ScenarioSpec,
};
use hpcci::sim::sweep::sweep;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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

/// `tests/fixtures/regressions/`: a scenario that once exposed the bug its
/// header comment names.
const PSIJ_48_PUSHES: &str = include_str!("fixtures/regressions/psij-48-pushes.toml");

/// The `.toml` files directly under `dir` (relative to the repository root),
/// in name order.
fn toml_files(dir: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    files
}

/// The error `from_toml` refuses `doc` with; `what` names the mutation.
fn refused(doc: &str, what: &str) -> String {
    match ScenarioSpec::from_toml(doc) {
        Ok(_) => panic!("{what} was accepted"),
        Err(e) => e.0,
    }
}

#[test]
fn every_regression_fixture_names_its_bug_and_passes_every_oracle() {
    let files = toml_files("tests/fixtures/regressions");
    assert!(!files.is_empty(), "the regression corpus is empty");
    for path in files {
        let name = path.display();
        let doc = std::fs::read_to_string(&path).expect("fixture reads");
        assert!(
            doc.starts_with("# Regression: "),
            "{name}: a leading `# Regression: ` comment names the bug it pins"
        );
        let spec = ScenarioSpec::from_toml(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = verify_spec(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.passed(), "{name}: {:?}", report.violations);
    }
}

#[test]
fn every_paper_world_names_its_figure_and_passes_every_oracle() {
    let files = toml_files("tests/fixtures/paper");
    assert_eq!(files.len(), 5, "one document per paper world");
    for path in files {
        let name = path.display();
        let doc = std::fs::read_to_string(&path).expect("fixture reads");
        assert!(
            doc.starts_with("# Paper: "),
            "{name}: a leading `# Paper: ` comment names the figure or section"
        );
        let spec = ScenarioSpec::from_toml(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = verify_spec(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.passed(), "{name}: {:?}", report.violations);
    }
}

#[test]
fn a_missing_dependency_is_an_expected_failure_only_where_declared() {
    // Fig. 5's world: `typeguard` missing, and the document says so. Its one
    // run fails as `test`, and the failed task names the requirement.
    let spec = ScenarioSpec::from_toml(paper::FIG5_PSIJ_TYPEGUARD_MISSING).expect("parses");
    let report = verify_spec(&spec).expect("runs");
    assert!(report.passed(), "{:?}", report.violations);
    let outcome = run_spec(&spec).expect("runs");
    let kinds: Vec<_> = outcome.failed_runs().map(|r| r.failure_kind).collect();
    assert_eq!(kinds, [Some(hpcci::ci::FailureKind::Test)]);
    assert!(outcome.transcript.contains("No matching distribution found for typeguard"));

    // The same break in a document that does not declare it.
    let undeclared = paper::FIG5_PSIJ.replace(", \"typeguard=3.0.2\"]", "]");
    assert_ne!(undeclared, paper::FIG5_PSIJ);
    let spec = ScenarioSpec::from_toml(&undeclared).expect("parses");
    let report = verify_spec(&spec).expect("runs");
    assert!(
        report.violations.iter().any(|v| v.oracle == "attribution"
            && v.detail.contains("failed as `test` but the workload declares no failing tests")),
        "{:?}",
        report.violations
    );
}

#[test]
fn every_renamed_or_retyped_key_and_every_unknown_table_is_refused() {
    let mut documents = Vec::new();
    for dir in ["tests/fixtures", "tests/fixtures/regressions", "tests/fixtures/paper"] {
        for path in toml_files(dir) {
            let doc = std::fs::read_to_string(&path).expect("fixture reads");
            documents.push((path.display().to_string(), doc));
        }
    }
    for spec in ScenarioGen::new(FLEET_SEED).fleet(16) {
        documents.push((spec.name.clone(), spec.to_toml()));
    }
    // A regression or paper fixture's leading comment names its bug or its
    // figure, not the schema.
    fn body(doc: &str) -> Vec<&str> {
        doc.lines().skip_while(|l| l.starts_with('#')).collect()
    }

    for (name, doc) in &documents {
        let spec = ScenarioSpec::from_toml(doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(body(&spec.to_toml()), body(doc), "{name} is not canonical");

        let lines: Vec<&str> = doc.lines().collect();
        let mut table = "document".to_string();
        let mut entries: BTreeMap<&str, usize> = BTreeMap::new();
        for (ix, line) in lines.iter().enumerate() {
            if let Some(array) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                let n = entries.entry(array).or_default();
                table = format!("[[{array}]] #{n}");
                *n += 1;
                continue;
            }
            if line.starts_with('[') {
                table = line.to_string();
                continue;
            }
            let Some((key, value)) = line.split_once(" = ").filter(|_| !line.starts_with('#'))
            else {
                continue;
            };
            let with_line = |replacement: String| {
                let mut mutated = lines.clone();
                mutated[ix] = &replacement;
                mutated.join("\n")
            };
            // A renamed key is refused as missing or as unknown.
            let renamed = format!("{key}_x");
            let err = refused(&with_line(format!("{renamed} = {value}")), &format!("{name}: `{renamed}`"));
            assert!(
                err.starts_with(&format!("{table}: "))
                    && (err.contains(&format!("`{key}`")) || err.contains(&format!("`{renamed}`"))),
                "{name}: renaming `{key}` in {table}: {err}"
            );
            // int -> string, string/bool/array -> int.
            let retyped = match value.as_bytes()[0] {
                b'0'..=b'9' => format!("\"{value}\""),
                _ => "1".to_string(),
            };
            let err = refused(&with_line(format!("{key} = {retyped}")), &format!("{name}: {key} = {retyped}"));
            assert!(
                err.starts_with(&format!("{table}: ")) && err.contains(&format!("`{key}`")),
                "{name}: retyping `{key}` in {table}: {err}"
            );
        }
        let unknown = format!("{doc}\n[bogus]\nkey = 1\n");
        assert_eq!(refused(&unknown, name), "document: unknown key `bogus`");
    }
}

#[test]
fn a_pilot_the_site_scheduler_can_never_start_is_refused() {
    // gen-42-0010's `ep-2-0` is an hpc-split MEP on a 32-core Expanse whose
    // partition caps walltime at 48 h. Before, its tasks waited forever.
    let (_, doc) = FIXTURES[1];
    for (from, to) in [
        ("cores = 32\nwalltime_secs", "cores = 0\nwalltime_secs"),
        ("cores = 32\nwalltime_secs", "cores = 33\nwalltime_secs"),
        ("walltime_secs = 3000", "walltime_secs = 172801"),
    ] {
        assert_eq!(doc.matches(from).count(), 1, "{from}");
        let spec = ScenarioSpec::from_toml(&doc.replace(from, to)).expect("document parses");
        match run_spec(&spec) {
            Ok(_) => panic!("`{to}` was accepted"),
            Err(e) => assert!(
                e.0.starts_with("endpoint `ep-2-0`: ") && e.0.contains("refuses its pilot"),
                "{to}: {e}"
            ),
        }
    }
}

#[test]
fn two_endpoints_on_one_fig4_site_are_refused_naming_the_job_they_share() {
    // `multi_site_workflow` names a job `test-<environment>`: two endpoints
    // on one site would make two jobs of one id.
    let doc = include_str!("fixtures/paper/fig4-parsldock.toml");
    let (from, to) = ("name = \"ep-chameleon-tacc\"\nsite = 0", "name = \"ep-chameleon-tacc\"\nsite = 1");
    assert_eq!(doc.matches(from).count(), 1);
    let err = refused(&doc.replace(from, to), "two jobs of one id");
    assert_eq!(err, "workflow `parsldock-ci`: job id test-faster-vhayot is used twice");
    // `validate` and `build_on` agree: the spec is refused before anything
    // is built, with the same message.
    let mut spec = ScenarioSpec::from_toml(doc).expect("fixture parses");
    spec.endpoints[0].site = 1;
    assert_eq!(spec.validate().map_err(|e| e.0), Err(err.clone()));
    assert_eq!(verify_spec(&spec).map(|_| ()).map_err(|e| e.0), Err(err));
}

#[test]
fn psij_verdicts_do_not_depend_on_earlier_psij_runs() {
    let spec = ScenarioSpec::from_toml(PSIJ_48_PUSHES).expect("fixture parses");
    let report = verify_spec(&spec).expect("fixture runs");
    // Fault-free, with no failing tests declared: the attribution oracle
    // refuses any red run, so a pass means 48 green runs.
    assert_eq!(report.runs, 48);
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
