//! The repo benchmark: a standalone, offline, single-threaded load generator
//! over the public `hpcci` API. See `README.md` beside the manifest.
//!
//! ```text
//! hpcci-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, for the driver
//! hpcci-benchmark [--seed <n>] [--seconds <s>] [--trace 1]                  every workload, <s> seconds each, as a table
//! hpcci-benchmark --selfcheck [--seed <n>] [--seconds <s>]                  two such sets, compared against the bounds
//! hpcci-benchmark --manifest                                                print BENCHMARK.json
//! ```

mod alloc;
mod fleet;
mod ledger;
mod measure;
mod peak;
mod probes;
mod reps;
mod spec;
mod summary;

use fleet::Look;
use spec::Workload;
use std::process::ExitCode;
use std::time::Instant;
use summary::{Reps, Summary};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Reps of each kind a driver run makes at least, however slow the host.
const MIN_REPS: usize = 3;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    selfcheck: bool,
    manifest: bool,
    /// Child mode: the rep to run, and how to look at it.
    rep: Option<String>,
    look: Option<Look>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            "--workload" => args.workload = Some(value()?),
            "--rep" => args.rep = Some(value()?),
            "--seed" => args.seed = Some(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?),
            "--seconds" => {
                args.seconds = Some(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?)
            }
            "--look" => {
                args.look = Some(value().and_then(|v| Look::parse(&v).ok_or_else(|| bad(&v)))?)
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Run reps of `workloads` round-robin — a slow spell of a shared host is
/// spread over all of them, not concentrated on one — for `seconds` per
/// workload, and summarize each workload.
fn run_set(
    workloads: &[&'static Workload],
    seed: u64,
    trace: bool,
    seconds: f64,
) -> Result<Vec<Summary>, String> {
    let start = Instant::now();
    let mut sets: Vec<Reps> = workloads.iter().map(|_| Reps::default()).collect();
    let mut probes = Vec::new();
    let mut made = 0;
    while made < MIN_REPS || start.elapsed().as_secs_f64() < seconds * workloads.len() as f64 {
        for (w, set) in workloads.iter().zip(&mut sets) {
            set.plain.push(reps::spawn(w.name, Look::Plain, seed)?);
            if trace {
                set.traced.push(reps::spawn(w.name, Look::Traced, seed)?);
                set.obs.push(reps::spawn(w.name, Look::Obs, seed)?);
            }
        }
        if trace {
            probes.push(reps::spawn(reps::PROBES, Look::Plain, seed)?);
        }
        made += 1;
    }
    Ok(workloads
        .iter()
        .zip(&sets)
        .map(|(w, set)| summary::summarize(w, seed, set, &probes, trace))
        .collect())
}

/// `--selfcheck`: two complete sets back to back must agree within the
/// benchmark's own bounds, and exactly where the metric is simulated.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    let all: Vec<&Workload> = spec::WORKLOADS.iter().collect();
    let first = run_set(&all, seed, false, seconds)?;
    let second = run_set(&all, seed, false, seconds)?;
    let mut agree = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff %", "bound %"
    );
    for (a, b) in first.iter().zip(&second) {
        agree &= a.correct() && b.correct() && a.digest == b.digest;
        for p in a.problems.iter().chain(&b.problems) {
            println!("{:<14} problem: {p}", a.workload.name);
        }
        for m in &spec::END_TO_END {
            let (x, y) = (
                a.value(m.name).unwrap_or(0.0),
                b.value(m.name).unwrap_or(0.0),
            );
            let diff = (y - x).abs() / x;
            let ok = if m.exact { x == y } else { diff <= m.bound };
            agree &= ok;
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>8.2} {:>7.1}{}",
                a.workload.name,
                m.name,
                x,
                y,
                100.0 * diff,
                100.0 * if m.exact { 0.0 } else { m.bound },
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    println!("selfcheck {}", if agree { "passed" } else { "FAILED" });
    Ok(agree)
}

fn run(args: Args) -> Result<bool, String> {
    if args.manifest {
        println!("{}", spec::manifest());
        return Ok(true);
    }
    let seed = args.seed.unwrap_or(7);
    if let Some(rep) = &args.rep {
        let workload = if rep == reps::PROBES {
            None
        } else {
            Some(spec::workload(rep)?)
        };
        reps::run_child(workload, args.look.unwrap_or(Look::Plain), seed)
            .map_err(|e| e.to_string())?;
        return Ok(true);
    }
    print!("{}", summary::header());
    let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS as f64);
    if args.selfcheck {
        return selfcheck(seed, seconds);
    }
    let workloads: Vec<&Workload> = match &args.workload {
        Some(name) => vec![spec::workload(name)?],
        None => spec::WORKLOADS.iter().collect(),
    };
    let summaries = run_set(&workloads, seed, args.trace, seconds)?;
    for s in &summaries {
        print!("{}", summary::render(s));
    }
    if args.workload.is_some() {
        println!("{}", summary::driver_line(&summaries[0]));
    }
    Ok(summaries.iter().all(Summary::correct))
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hpcci-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
