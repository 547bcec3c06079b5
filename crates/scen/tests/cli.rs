//! End-to-end tests for the `hpcci-scen` binary: the exact pipelines the
//! CI `scen-fleet` job runs, exercised through real processes.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_hpcci-scen");

fn run(args: &[&str], stdin: Option<&str>) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    }
    let mut child = cmd.spawn().expect("hpcci-scen spawns");
    if let Some(input) = stdin {
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("stdin written");
    }
    child.wait_with_output().expect("hpcci-scen exits")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn gen_is_byte_reproducible() {
    let a = run(&["gen", "--count", "8", "--seed", "42"], None);
    let b = run(&["gen", "--count", "8", "--seed", "42"], None);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "gen must be byte-reproducible");
    let text = stdout(&a);
    assert_eq!(text.matches("# === scenario ").count(), 8);

    let other = run(&["gen", "--count", "8", "--seed", "43"], None);
    assert_ne!(a.stdout, other.stdout, "distinct seeds yield distinct fleets");
}

#[test]
fn gen_pipes_into_verify_and_passes() {
    let fleet = stdout(&run(&["gen", "--count", "4", "--seed", "42"], None));
    let verify = run(&["verify", "--threads", "2"], Some(&fleet));
    let text = stdout(&verify);
    assert!(
        verify.status.success(),
        "fleet must pass every oracle:\n{text}"
    );
    assert_eq!(text.matches("\nok   ").count() + usize::from(text.starts_with("ok   ")), 4);
    assert!(text.contains("4 scenarios, 0 failed"), "tail line: {text}");
    assert!(text.contains("events/s"), "throughput reported: {text}");
}

#[test]
fn verify_writes_a_markdown_summary() {
    let fleet = stdout(&run(&["gen", "--count", "2", "--seed", "7"], None));
    let dir = std::env::temp_dir().join("hpcci-scen-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let summary = dir.join("summary.md");
    let path = summary.to_str().expect("utf-8 path");
    let out = run(&["verify", "--threads", "1", "--summary", path], Some(&fleet));
    assert!(out.status.success());
    let md = std::fs::read_to_string(&summary).expect("summary written");
    assert!(md.contains("### scen-fleet"), "summary heading: {md}");
    assert!(
        md.contains("| scenarios | failed |"),
        "markdown table header: {md}"
    );
    assert!(md.contains("| 2 | 0 |"), "aggregate row: {md}");
    let _ = std::fs::remove_file(&summary);
}

#[test]
fn replay_reports_digests_and_verdicts() {
    let doc = stdout(&run(&["gen", "--count", "1", "--seed", "42"], None));
    let out = run(&["replay", "-"], Some(&doc));
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("scenario  gen-42-0000"), "{text}");
    assert!(text.contains("spec      "), "{text}");
    assert!(text.contains("outcome   "), "{text}");
}

#[test]
fn explain_pinpoints_the_divergent_instant_on_corruption() {
    let doc = stdout(&run(&["gen", "--count", "1", "--seed", "42"], None));
    // A document against itself replays identically (exit 0)...
    let dir = std::env::temp_dir().join("hpcci-scen-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("good.toml");
    std::fs::write(&good, &doc).expect("doc written");
    let same = run(&["explain", good.to_str().unwrap()], None);
    assert!(same.status.success());
    assert!(stdout(&same).contains("identical"), "{}", stdout(&same));

    // ...while a corrupted world seed diverges, and explain names the
    // first divergent virtual instant.
    let corrupted_doc = doc
        .lines()
        .map(|l| {
            if let Some(seed) = l.strip_prefix("seed = ") {
                let flipped = seed.trim().parse::<u64>().expect("seed parses") ^ 1;
                format!("seed = {flipped}")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, corrupted_doc).expect("doc written");
    let diff = run(&["explain", good.to_str().unwrap(), bad.to_str().unwrap()], None);
    assert!(!diff.status.success(), "divergence must exit nonzero");
    let text = stdout(&diff);
    assert!(
        text.contains("first divergent virtual instant: t+"),
        "explain names the instant:\n{text}"
    );
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn undeclared_flags_extra_operands_and_zero_threads_are_refused() {
    let doc = stdout(&run(&["gen", "--count", "1", "--seed", "42"], None));
    let dir = std::env::temp_dir().join("hpcci-scen-cli-refusals");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("doc.toml");
    std::fs::write(&file, &doc).expect("doc written");
    let file = file.to_str().expect("utf-8 path");
    for (args, named) in [
        (vec!["gen", "--cuont", "2"], "`--cuont`"),
        (vec!["verify", file, "--thread", "3"], "`--thread`"),
        (vec!["verify", file, "--threads", "0"], "--threads must be at least 1"),
        (vec!["verify", file, file], &format!("`{file}`")),
        (vec!["replay", file, file], &format!("`{file}`")),
        (vec!["replay", file, "--transcirpt"], "`--transcirpt`"),
        (vec!["explain", file, file, file], &format!("`{file}`")),
    ] {
        let out = run(&args, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stdout(&out).is_empty(), "{args:?} ran anyway");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_document_that_does_not_build_is_refused_with_exit_2() {
    // A pilot of zero cores: the document parses and validates, but the
    // site scheduler refuses the pilot, so the world does not build.
    let doc = include_str!("../../../tests/fixtures/gen-42-0010.toml");
    let pilot = "cores = 32\nwalltime_secs";
    assert_eq!(doc.matches(pilot).count(), 1);
    let doc = doc.replace(pilot, "cores = 0\nwalltime_secs");
    let out = run(&["verify", "--threads", "1"], Some(&doc));
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    assert!(stdout(&out).contains("did not build"), "{}", stdout(&out));

    // Two Fig. 4 endpoints on one site give two jobs one id: `validate`
    // refuses the document before anything is built.
    let fig4 = include_str!("../../../tests/fixtures/paper/fig4-parsldock.toml");
    let one_site = "name = \"ep-chameleon-tacc\"\nsite = 0\n";
    assert_eq!(fig4.matches(one_site).count(), 1);
    let doc = fig4.replace(one_site, "name = \"ep-chameleon-tacc\"\nsite = 1\n");
    let out = run(&["verify", "--threads", "1"], Some(&doc));
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("job id test-faster-vhayot is used twice"), "{stderr}");
}
