//! `hpcci-scen` — generate, verify, replay, and explain federation
//! scenarios.
//!
//! ```text
//! hpcci-scen gen --count 256 --seed 42            # scenario stream → stdout
//! hpcci-scen gen ... | hpcci-scen verify          # oracle fleet (exit 1 on violation, 2 on refusal)
//! hpcci-scen replay scenario.toml                 # run one spec, print digest + verdicts
//! hpcci-scen explain a.toml b.toml                # first divergent trace line/instant
//! ```
//!
//! Streams are concatenated canonical TOML documents separated by
//! `# === scenario <i>: <name> ===` marker lines, so a fleet pipes through
//! plain text.

use hpcci_cas::DigestBuilder;
use hpcci_scen::{first_divergence, run_spec, verify_spec, ScenarioGen, ScenarioSpec};
use hpcci_sim::sweep::{default_threads, sweep};
use std::io::Read as _;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  hpcci-scen gen [--count N] [--seed S]
      emit N generated scenario documents (default 64, seed 42) to stdout
  hpcci-scen verify [FILE] [--threads N] [--summary FILE]
      read a scenario stream (FILE or stdin), run every oracle family on
      every scenario, N scenarios at a time; exit 1 if any scenario fails
      an oracle, 2 if any document is refused (it does not build).
      The tail line ends in the fleet digest: every scenario's name and
      outcome digest folded in stream order
  hpcci-scen replay FILE [--transcript]
      run the first scenario in FILE, print its digest and run verdicts
  hpcci-scen explain FILE_A [FILE_B]
      run both scenarios (or FILE_A twice) and pinpoint the first divergent
      trace/transcript line and virtual instant";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "gen" => cmd_gen(rest),
        "verify" => cmd_verify(rest),
        "replay" => cmd_replay(rest),
        "explain" => cmd_explain(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("hpcci-scen: {e}");
        ExitCode::from(2)
    })
}

/// The value following `flag` in a verb's arguments.
fn value<'a>(args: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// A file operand: `-` (stdin) or anything not starting with `-`.
fn is_operand(arg: &str) -> bool {
    arg == "-" || !arg.starts_with('-')
}

/// An argument `verb` does not take: an undeclared flag or an extra operand.
fn unexpected(verb: &str, arg: &str) -> String {
    format!("{verb}: unexpected argument `{arg}` (see `hpcci-scen --help`)")
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad {what} `{s}`"))
}

// ----------------------------------------------------------------------
// gen
// ----------------------------------------------------------------------

fn cmd_gen(rest: &[String]) -> Result<ExitCode, String> {
    let (mut count, mut seed) = (64, 42);
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--count" => count = parse_u64(value(&mut args, arg)?, arg)?,
            "--seed" => seed = parse_u64(value(&mut args, arg)?, arg)?,
            _ => return Err(unexpected("gen", arg)),
        }
    }
    let generator = ScenarioGen::new(seed);
    let mut out = String::new();
    for i in 0..count {
        let spec = generator.generate(i);
        out.push_str(&format!("# === scenario {i}: {} ===\n", spec.name));
        out.push_str(&spec.to_toml());
    }
    print!("{out}");
    Ok(ExitCode::SUCCESS)
}

// ----------------------------------------------------------------------
// stream parsing
// ----------------------------------------------------------------------

/// Split a scenario stream on `# === scenario ... ===` markers. A stream
/// with no marker is a single document.
fn split_stream(text: &str) -> Vec<String> {
    let mut docs = Vec::new();
    let mut current = String::new();
    for line in text.lines() {
        if line.starts_with("# === scenario ") {
            if !current.trim().is_empty() {
                docs.push(std::mem::take(&mut current));
            }
            current.clear();
            continue;
        }
        current.push_str(line);
        current.push('\n');
    }
    if !current.trim().is_empty() {
        docs.push(current);
    }
    docs
}

fn read_input(path: Option<&str>) -> Result<String, String> {
    match path {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            Ok(buf)
        }
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}")),
    }
}

fn parse_stream(text: &str) -> Result<Vec<ScenarioSpec>, String> {
    let docs = split_stream(text);
    if docs.is_empty() {
        return Err("no scenario documents in input".into());
    }
    docs.iter()
        .enumerate()
        .map(|(i, d)| {
            ScenarioSpec::from_toml(d).map_err(|e| format!("scenario #{i}: {e}"))
        })
        .collect()
}

// ----------------------------------------------------------------------
// verify
// ----------------------------------------------------------------------

fn cmd_verify(rest: &[String]) -> Result<ExitCode, String> {
    let (mut threads, mut summary_path, mut file) = (default_threads(), None, None);
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => match parse_u64(value(&mut args, arg)?, arg)? {
                0 => return Err("--threads must be at least 1".into()),
                n => threads = n as usize,
            },
            "--summary" => summary_path = Some(value(&mut args, arg)?),
            _ if file.is_none() && is_operand(arg) => file = Some(arg.as_str()),
            _ => return Err(unexpected("verify", arg)),
        }
    }
    let specs = parse_stream(&read_input(file)?)?;

    let started = std::time::Instant::now();
    let jobs: Vec<_> = specs
        .iter()
        .map(|spec| move || verify_spec(spec))
        .collect();
    let reports = sweep(jobs, threads);
    let wall = started.elapsed();

    let (mut failed, mut refused) = (0usize, 0usize);
    let mut events = 0u64;
    let mut virtual_us = 0u64;
    let mut runs = 0usize;
    let mut fleet = DigestBuilder::new();
    for (spec, report) in specs.iter().zip(&reports) {
        match report {
            Ok(r) => {
                fleet = fleet
                    .str_field("scenario", &r.name)
                    .digest_field("outcome", r.digest);
                events += r.events;
                virtual_us += r.end_us;
                runs += r.runs;
                if r.passed() {
                    println!("ok   {} ({} runs, {} events)", r.name, r.runs, r.events);
                } else {
                    failed += 1;
                    println!("FAIL {}", r.name);
                    for v in &r.violations {
                        println!("     {v}");
                    }
                }
            }
            Err(e) => {
                failed += 1;
                refused += 1;
                println!("FAIL {} (did not build: {e})", spec.name);
            }
        }
    }
    let throughput = events as f64 / wall.as_secs_f64().max(1e-9);
    let fleet = fleet.finish();
    let tail = format!(
        "{} scenarios, {failed} failed; {runs} workflow runs, {events} events \
         ({:.1} virtual hours) in {:.2}s wall — {throughput:.0} events/s over \
         {threads} threads; fleet digest {fleet}",
        specs.len(),
        virtual_us as f64 / 3.6e9,
        wall.as_secs_f64(),
    );
    println!("{tail}");
    if let Some(path) = summary_path {
        let md = format!(
            "### scen-fleet\n\n\
             | scenarios | failed | runs | events | events/s | threads | fleet digest |\n\
             |---|---|---|---|---|---|---|\n\
             | {} | {failed} | {runs} | {events} | {throughput:.0} | {threads} | `{fleet}` |\n",
            specs.len(),
        );
        std::fs::write(path, md).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(if refused > 0 {
        ExitCode::from(2)
    } else if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

// ----------------------------------------------------------------------
// replay
// ----------------------------------------------------------------------

fn cmd_replay(rest: &[String]) -> Result<ExitCode, String> {
    let (mut file, mut transcript) = (None, false);
    for arg in rest {
        match arg.as_str() {
            "--transcript" => transcript = true,
            _ if file.is_none() && is_operand(arg) => file = Some(arg.as_str()),
            _ => return Err(unexpected("replay", arg)),
        }
    }
    let path = file.ok_or("replay needs a scenario file")?;
    let specs = parse_stream(&read_input(Some(path))?)?;
    let spec = &specs[0];
    let out = run_spec(spec).map_err(|e| format!("{}: {e}", spec.name))?;
    println!("scenario  {}", out.name);
    println!("spec      {}", spec.digest());
    println!("outcome   {}", out.digest);
    println!(
        "virtual   t+{:.6}s  events {}",
        out.end_us as f64 / 1e6,
        out.events
    );
    for r in &out.runs {
        println!(
            "run {} {} -> {:?}{}",
            r.id,
            r.workflow,
            r.status,
            r.failure_kind
                .map(|k| format!(" ({})", k.as_str()))
                .unwrap_or_default()
        );
    }
    if transcript {
        print!("{}", out.transcript);
    }
    Ok(ExitCode::SUCCESS)
}

// ----------------------------------------------------------------------
// explain
// ----------------------------------------------------------------------

fn cmd_explain(rest: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    for arg in rest {
        if files.len() == 2 || !is_operand(arg) {
            return Err(unexpected("explain", arg));
        }
        files.push(arg.as_str());
    }
    let a_path = files.first().ok_or("explain needs at least one scenario file")?;
    let spec_a = parse_stream(&read_input(Some(a_path))?)?.remove(0);
    let spec_b = match files.get(1) {
        Some(p) => parse_stream(&read_input(Some(p))?)?.remove(0),
        None => spec_a.clone(),
    };
    let a = run_spec(&spec_a).map_err(|e| format!("{}: {e}", spec_a.name))?;
    let b = run_spec(&spec_b).map_err(|e| format!("{}: {e}", spec_b.name))?;
    println!("left   {} outcome {}", a.name, a.digest);
    println!("right  {} outcome {}", b.name, b.digest);
    if a.digest == b.digest {
        println!("identical: outcomes agree byte-for-byte");
        return Ok(ExitCode::SUCCESS);
    }
    for (stream, left, right) in [
        ("functional trace", &a.trace, &b.trace),
        ("chaos trace", &a.chaos, &b.chaos),
        ("run transcript", &a.transcript, &b.transcript),
    ] {
        if let Some(d) = first_divergence(left, right) {
            println!("diverges in the {stream} at line {}", d.line);
            if let Some(us) = d.instant_us {
                println!("first divergent virtual instant: t+{:.6}s", us as f64 / 1e6);
            }
            println!("  left:  {}", d.left);
            println!("  right: {}", d.right);
            return Ok(ExitCode::FAILURE);
        }
    }
    println!("digests differ but rendered streams agree (world-state divergence)");
    Ok(ExitCode::FAILURE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_splits_on_markers() {
        let gen = ScenarioGen::new(5);
        let mut text = String::new();
        for i in 0..3 {
            let s = gen.generate(i);
            text.push_str(&format!("# === scenario {i}: {} ===\n", s.name));
            text.push_str(&s.to_toml());
        }
        let specs = parse_stream(&text).expect("parses");
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[1], gen.generate(1));
    }

    #[test]
    fn single_document_needs_no_marker() {
        let spec = ScenarioSpec::minimal("solo", 1);
        let specs = parse_stream(&spec.to_toml()).expect("parses");
        assert_eq!(specs, vec![spec]);
    }
}
