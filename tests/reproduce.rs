//! The paper's artifact appendix, pinned: every figure `reproduce` prints is
//! folded into a [`Digest`] and compared with `tests/fixtures/figures.digest`
//! (one `<name> <digest>` line per figure, in `EXPERIMENTS.md` order), and the
//! binary is checked to print exactly those figures.

use hpcci::cas::Digest;
use hpcci::reproduce::FIGURES;
use std::process::{Command, Output};
use std::sync::OnceLock;

const PINNED: &str = include_str!("fixtures/figures.digest");

/// The fixture's `(name, digest)` lines.
fn pinned() -> Vec<(&'static str, &'static str)> {
    PINNED
        .lines()
        .map(|line| line.split_once(' ').unwrap_or((line, "")))
        .collect()
}

/// Every figure's stdout, rendered once for all the tests in this file.
fn rendered() -> &'static [(&'static str, String)] {
    static RENDERED: OnceLock<Vec<(&'static str, String)>> = OnceLock::new();
    RENDERED.get_or_init(|| {
        FIGURES
            .iter()
            .map(|&(name, render)| (name, render().unwrap_or_else(|e| panic!("{name}: {e}"))))
            .collect()
    })
}

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary runs")
}

#[test]
fn every_figure_matches_its_pinned_digest() {
    let pinned = pinned();
    let moved: Vec<String> = rendered()
        .iter()
        .filter_map(|(name, stdout)| {
            let got = Digest::of_str(stdout).to_string();
            let want = pinned
                .iter()
                .find(|(n, _)| n == name)
                .map_or("(none)", |(_, d)| *d);
            (got != want).then(|| {
                format!(
                    "  {name} {got}   (pinned {want})\n    \
                     diff against the parent: cargo run --release --bin reproduce -- {name}"
                )
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} figure(s) moved; re-pin a line of tests/fixtures/figures.digest only once the \
         difference is one you meant:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn the_binary_prints_every_figure_in_the_fixtures_order() {
    let out = reproduce(&[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rendered = rendered();
    let expected: String = pinned()
        .iter()
        .map(|(name, _)| {
            rendered.iter().find(|(n, _)| n == name).map_or_else(
                || panic!("fixture names unknown figure `{name}`"),
                |(_, s)| s.as_str(),
            )
        })
        .collect();
    assert!(
        String::from_utf8_lossy(&out.stdout) == expected,
        "`reproduce` != the figures concatenated"
    );
}

#[test]
fn an_unknown_name_exits_2_with_a_usage_line_naming_the_fixtures_figures() {
    let out = reproduce(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let listed = stderr
        .trim()
        .strip_prefix("usage: reproduce [")
        .and_then(|rest| rest.strip_suffix(']'))
        .unwrap_or_else(|| panic!("no usage line: {stderr}"));
    let mut listed: Vec<&str> = listed.split('|').collect();
    let mut fixture: Vec<&str> = pinned().iter().map(|(name, _)| *name).collect();
    listed.sort_unstable();
    fixture.sort_unstable();
    assert_eq!(
        listed, fixture,
        "the binary's figures and the fixture's lines differ"
    );
}
