//! From reps to reported metrics: medians with quartiles, the output check,
//! and the two renderings (the table people read, the line the driver reads).

use crate::fleet::{STEPS_PER_RUN, TASKS_PER_RUN};
use crate::measure::{median, quartiles, Outcome};
use crate::spec::{self, Kind, Metric, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The reps of one workload in one set.
#[derive(Default)]
pub struct Reps {
    pub plain: Vec<Outcome>,
    pub traced: Vec<Outcome>,
    pub obs: Vec<Outcome>,
}

pub struct Row {
    pub metric: &'static Metric,
    /// Median over the reps that measured it; `None` when no rep did.
    pub value: Option<f64>,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub struct Summary {
    pub workload: &'static Workload,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    /// Why the output check failed; empty when it passed.
    pub problems: Vec<String>,
    pub rows: Vec<Row>,
}

impl Summary {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.metric.name == name)?.value
    }
}

/// Counts every rep of this workload must report, whatever the seed.
fn expected_counts(w: &Workload) -> Vec<(&'static str, u64)> {
    match w.kind {
        Kind::Push(size) | Kind::Replay(size) => {
            let n = size.rounds as u64;
            let replay = matches!(w.kind, Kind::Replay(_));
            let mut counts = vec![
                ("vcs.pushes", n),
                ("vcs.repos", size.repos as u64),
                ("ci.runs", n),
                ("ci.steps", n * STEPS_PER_RUN),
                ("ci.secrets", size.repos as u64 * 8),
                ("ci.cache_hits", if replay { n * STEPS_PER_RUN } else { 0 }),
                ("ci.cache_misses", 0),
                ("faas.tasks", if replay { 0 } else { n * TASKS_PER_RUN }),
            ];
            if replay {
                counts.push(("faas.events", 0));
            }
            counts
        }
        Kind::Peak(tasks) => vec![("faas.tasks", tasks)],
    }
}

pub fn summarize(
    workload: &'static Workload,
    seed: u64,
    reps: &Reps,
    probes: &[Outcome],
    trace: bool,
) -> Summary {
    let all = || reps.plain.iter().chain(&reps.traced).chain(&reps.obs);
    let mut problems = Vec::new();

    let failed: u64 = all().map(|r| r.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} operations did not end in success"));
    }
    let digest = reps
        .plain
        .first()
        .map(|r| r.digest.clone())
        .unwrap_or_default();
    if all().any(|r| r.digest != digest) {
        problems.push(
            "trace digest differs between reps (plain, traced and obs reps must agree)".into(),
        );
    }
    match spec::pinned_digest(workload.name, seed) {
        Some(pinned) if pinned != digest => {
            problems.push(format!("trace digest {digest} is not the pinned {pinned}"));
        }
        _ => {}
    }
    for (name, want) in expected_counts(workload) {
        for rep in all() {
            if rep.get(name) != Some(want as f64) {
                problems.push(format!("{name} is {:?}, expected {want}", rep.get(name)));
                break;
            }
        }
    }

    let derived = if trace { derive(reps) } else { BTreeMap::new() };
    let sources = [&reps.plain[..], &reps.traced[..], &reps.obs[..], probes];
    let mut rows = Vec::new();
    for metric in spec::metrics(trace) {
        let of = |reps: &[Outcome]| -> Vec<f64> {
            reps.iter()
                .filter_map(|r| per_rep(r, metric.name))
                .collect()
        };
        let samples: Vec<f64> = match derived.get(metric.name) {
            Some(v) => vec![*v],
            None => sources
                .iter()
                .map(|reps| of(reps))
                .find(|v| !v.is_empty())
                .unwrap_or_default(),
        };
        // Exactness holds across every kind of rep, not only the kind reported.
        let everywhere: Vec<f64> = sources.iter().flat_map(|reps| of(reps)).collect();
        if metric.exact && everywhere.windows(2).any(|w| w[0] != w[1]) {
            problems.push(format!(
                "{} must repeat exactly but read {everywhere:?}",
                metric.name
            ));
        }
        if samples.iter().any(|v| !v.is_finite()) {
            problems.push(format!("{} is not a finite number", metric.name));
        }
        let (q1, q3) = quartiles(&samples);
        rows.push(Row {
            metric,
            value: (!samples.is_empty()).then(|| fold(metric, &samples, &reps.plain)),
            q1,
            q3,
            n: samples.len(),
        });
    }

    let attempted: u64 = all().map(|r| r.attempted).sum();
    Summary {
        workload,
        seed,
        attempted,
        // An output that cannot be trusted fails every operation of the run.
        failed: if problems.is_empty() {
            0
        } else {
            failed.max(attempted)
        },
        digest,
        problems,
        rows,
    }
}

/// What one rep alone read for `name`.
fn per_rep(rep: &Outcome, name: &str) -> Option<f64> {
    match name {
        "ops_per_s" => Some(rep.attempted as f64 / rep.get("timed.wall_s")?),
        "op_wall_p50_us" if !rep.unit_wall_us.is_empty() => {
            let per_op = rep.attempted as f64 / rep.unit_wall_us.len() as f64;
            Some(median(&rep.unit_wall_us) / per_op)
        }
        _ => rep.get(name),
    }
}

/// Host seconds the timed section takes when the host lets it run.
///
/// The sandbox host's speed drifts by a third and more over seconds to
/// minutes, so a median over a run's reps lands wherever the host happened to
/// be. Interference only ever adds time, and every rep of a run executes
/// exactly the same units of work (same seed, deterministic program). So
/// each unit counts with the fastest time any rep took for it. Measured on
/// raw reps of `fleet_push`, this estimate spread a half to a third as much
/// between runs as the median or the best whole rep, and kept tightening as
/// reps were added; hence many short reps.
fn quiet_walls_us(reps: &[Outcome]) -> Vec<f64> {
    let units = reps.iter().map(|r| r.unit_wall_us.len()).min().unwrap_or(0);
    (0..units)
        .map(|j| fastest(reps.iter().map(|r| r.unit_wall_us[j])))
        .collect()
}

fn quiet_wall_s(reps: &[Outcome]) -> f64 {
    quiet_walls_us(reps).iter().sum::<f64>() / 1e6
}

fn fastest(times: impl Iterator<Item = f64>) -> f64 {
    times.fold(f64::INFINITY, f64::min)
}

/// Fold one metric's per-rep samples into the run's value: the fastest
/// reading for host times (see [`quiet_walls_us`]), the median otherwise.
fn fold(metric: &Metric, samples: &[f64], plain: &[Outcome]) -> f64 {
    let ops = plain.first().map_or(0.0, |r| r.attempted as f64);
    match metric.name {
        "ops_per_s" => ops / quiet_wall_s(plain),
        "op_wall_p50_us" => {
            let quiet = quiet_walls_us(plain);
            median(&quiet) * quiet.len() as f64 / ops
        }
        _ if matches!(metric.unit, "s" | "us" | "ns" | "ns/op") => fastest(samples.iter().copied()),
        _ => median(samples),
    }
}

/// Per-layer values computed across reps rather than inside one.
fn derive(reps: &Reps) -> BTreeMap<&'static str, f64> {
    let plain = quiet_wall_s(&reps.plain);
    let mut out = BTreeMap::new();
    out.insert(
        "trace.overhead_pct",
        100.0 * (quiet_wall_s(&reps.traced) / plain - 1.0),
    );
    out.insert(
        "obs.overhead_pct",
        100.0 * (quiet_wall_s(&reps.obs) / plain - 1.0),
    );

    let count = |name: &str| reps.plain.first().and_then(|r| r.get(name)).unwrap_or(0.0);
    let tasks = count("faas.tasks");
    out.insert(
        "faas.events_per_task",
        if tasks > 0.0 {
            count("faas.events") / tasks
        } else {
            0.0
        },
    );

    let span_ns = |prefixes: &[&str]| -> f64 {
        spec::PER_LAYER
            .iter()
            .filter(|m| m.unit == "ns/op" && prefixes.iter().any(|p| m.name.starts_with(p)))
            .map(|m| fastest(reps.traced.iter().filter_map(|r| r.get(m.name))))
            .filter(|ns| ns.is_finite())
            .fold(0.0, |sum, ns| sum + ns)
    };
    let total = span_ns(&[""]);
    for (name, prefixes) in [
        ("faas.share_pct", &["faas."][..]),
        ("ci.share_pct", &["ci.", "core."][..]),
        ("vcs.share_pct", &["vcs."][..]),
    ] {
        out.insert(name, 100.0 * span_ns(prefixes) / total);
    }
    out
}

fn host_fingerprint() -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc {} | cpu {cpu} | kernel {} | {rustc}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        read("/proc/sys/kernel/osrelease").trim(),
    )
}

/// Methodology header shared by every rendering.
pub fn header() -> String {
    format!(
        "host: {}\nmethod: closed loop, one client, one thread, workers = 1; each rep a fresh process; \
         a host time is the fastest reading over the run's reps, unit by unit (the host's speed drifts; \
         interference only adds time), other values are medians; q1..q3 and n are over the reps; \
         generator lateness does not apply to a closed loop; `null` = not measured on this workload\n",
        host_fingerprint()
    )
}

/// The table people read.
pub fn render(s: &Summary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== {} (seed {}, N = {} ops per rep) — {}",
        s.workload.name,
        s.seed,
        s.workload.ops(),
        s.workload.why
    );
    let _ = writeln!(
        out,
        "   ops_attempted {}  ops_failed {}  digest {}  output check {}",
        s.attempted,
        s.failed,
        s.digest,
        if s.correct() { "passed" } else { "FAILED" }
    );
    for p in &s.problems {
        let _ = writeln!(out, "   problem: {p}");
    }
    for r in &s.rows {
        match r.value {
            Some(v) => {
                let _ = writeln!(
                    out,
                    "   {:<28} {:>16.4} {:<7} (q1 {:.4} .. q3 {:.4}, n {})",
                    r.metric.name, v, r.metric.unit, r.q1, r.q3, r.n
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "   {:<28} {:>16} {:<7}",
                    r.metric.name, "null", r.metric.unit
                );
            }
        }
    }
    out
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`. A metric no rep measured on this workload reads 0: the layer
/// did no work there.
pub fn driver_line(s: &Summary) -> String {
    let metrics: Vec<String> = s
        .rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.metric.name,
                r.value.filter(|v| v.is_finite()).unwrap_or(0.0),
                r.metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.correct(),
        s.attempted.max(1),
        s.failed,
        metrics.join(", ")
    )
}
