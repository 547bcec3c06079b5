//! Reps as fresh child processes of the benchmark binary.
//!
//! Each (workload, rep) runs in a process of its own, single-threaded, so
//! every rep starts from a cold heap and its resident-set high-water mark is
//! its own. The child prints what it measured as `name value` lines; the
//! parent waits for it and parses them.

use crate::fleet::{self, Look};
use crate::measure::Outcome;
use crate::spec::{Kind, Workload};
use crate::{peak, probes};
use std::path::PathBuf;
use std::process::Command;

/// Name of the probe child on the command line, next to the workload names.
pub const PROBES: &str = "probes";

impl Look {
    fn as_str(self) -> &'static str {
        match self {
            Look::Plain => "plain",
            Look::Traced => "traced",
            Look::Obs => "obs",
        }
    }

    pub fn parse(s: &str) -> Option<Look> {
        [Look::Plain, Look::Traced, Look::Obs]
            .into_iter()
            .find(|l| l.as_str() == s)
    }
}

/// Where traces are written: `out/` beside the benchmark's manifest, inside
/// the checkout it was built in.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Child side: run one rep and print it.
pub fn run_child(workload: Option<&Workload>, look: Look, seed: u64) -> std::io::Result<()> {
    let out = match workload.map(|w| w.kind) {
        None => probes::run(),
        Some(Kind::Push(size)) => fleet::rep(seed, size, false, look),
        Some(Kind::Replay(size)) => fleet::rep(seed, size, true, look),
        Some(Kind::Peak(tasks)) => peak::rep(seed, tasks, look),
    };
    if let (Some(w), Some(spans)) = (workload, &out.spans_json) {
        std::fs::create_dir_all(out_dir())?;
        std::fs::write(out_dir().join(format!("trace-{}.json", w.name)), spans)?;
    }
    let digest = if out.digest.is_empty() {
        "-"
    } else {
        &out.digest
    };
    println!("rep {} {} {digest}", out.attempted, out.failed);
    for (name, value) in &out.values {
        println!("v {name} {value}");
    }
    let walls: Vec<String> = out.unit_wall_us.iter().map(f64::to_string).collect();
    println!("walls {}", walls.join(" "));
    Ok(())
}

/// Parent side: start one rep, wait for it to end, and read what it printed.
pub fn spawn(workload: &str, look: Look, seed: u64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let child = Command::new(exe)
        .args([
            "--rep",
            workload,
            "--look",
            look.as_str(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start rep: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "rep {workload}/{} ended with {}: {}",
            look.as_str(),
            child.status,
            String::from_utf8_lossy(&child.stderr).trim()
        ));
    }
    parse(&String::from_utf8_lossy(&child.stdout))
        .ok_or_else(|| format!("rep {workload}/{} printed no result", look.as_str()))
}

fn parse(stdout: &str) -> Option<Outcome> {
    let mut out: Option<Outcome> = None;
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next()? {
            "rep" => {
                out = Some(Outcome {
                    attempted: words.next()?.parse().ok()?,
                    failed: words.next()?.parse().ok()?,
                    digest: words.next()?.to_string(),
                    ..Outcome::default()
                });
            }
            "v" => {
                let name = words.next()?;
                let value = words.next()?.parse().ok()?;
                out.as_mut()?.set(name, value);
            }
            "walls" => {
                out.as_mut()?.unit_wall_us =
                    words.map(|w| w.parse().ok()).collect::<Option<_>>()?;
            }
            _ => return None,
        }
    }
    out
}
