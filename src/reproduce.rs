//! The paper's artifact appendix: one function per table and figure, each
//! returning what `reproduce <name>` prints.
//!
//! [`FIGURES`] lists them in `EXPERIMENTS.md` order. Every output is a pure
//! function of the code — virtual time and fixed seeds only — so
//! `tests/reproduce.rs` pins each one by digest
//! (`tests/fixtures/figures.digest`). Anything read off the host (the
//! KaMPIng wall-clock ratio) is printed by the binary on stderr instead.

use crate::ci::{RunId, RunStatus, WorkflowRun};
use crate::cluster::{NodeId, NodeRole, Uid};
use crate::correct::Federation;
use crate::faas::EndpointId;
use crate::paper;
use crate::parsldock::parse_durations;
use crate::provenance::badges::{fig1_series, CohortParams, Reviewer};
use crate::provenance::BadgeLevel;
use crate::scen::ScenarioSpec;
use crate::scheduler::{
    BatchScheduler, JobPayload, JobSpec, JobState, Partition, SchedulerConfig, SchedulingPolicy,
};
use crate::sim::{sweep, Advance, DetRng, SimDuration, SimTime};
use crate::tables::{render_table1, render_table2, render_table3, render_table4};
use std::fmt::Write;

/// Why a figure could not be rendered.
pub type Error = Box<dyn std::error::Error + Send + Sync>;
/// A rendered figure (its stdout), or why it could not be rendered.
pub type Result<T = String> = std::result::Result<T, Error>;

/// Renders one figure.
pub type Render = fn() -> Result;

/// Every figure in `EXPERIMENTS.md` order: the name `reproduce` takes and the
/// function that renders it.
pub const FIGURES: [(&str, Render); 12] = [
    ("fig1_badges", fig1_badges),
    ("tab1", tab1),
    ("tab2", tab2),
    ("tab3", tab3),
    ("tab4", tab4),
    ("fig2_overview", fig2_overview),
    ("fig4_parsldock", fig4_parsldock),
    ("fig5_psij", fig5_psij),
    ("exp63_kamping", exp63_kamping),
    ("overhead", overhead),
    ("ablation_pilot", ablation_pilot),
    ("ablation_scheduler", ablation_scheduler),
];

/// The header every figure and table opens with.
fn section(title: &str) -> String {
    format!("\n=== {title} ===\n\n")
}

/// `run <id> -> <status>  <badge>`: a finished run as the runner reports it.
fn run_line(run: &WorkflowRun) -> String {
    format!("run {} -> {:?}  {}\n", run.id, run.status, run.badge())
}

/// The one run a scenario's push triggered.
fn only_run(runs: Vec<RunId>) -> Result<RunId> {
    runs.first()
        .copied()
        .ok_or_else(|| "the push triggered no run".into())
}

/// Fig. 1 — reproducibility badges awarded by SC over time, from the
/// calibrated cohort generator, plus the ablation showing what CORRECT-style
/// remote evidence does to the top badge.
pub fn fig1_badges() -> Result {
    let seed = 1234;
    let mut out = section("Fig. 1 — reproducibility badges awarded by SC over time (synthesized)");
    writeln!(
        out,
        "{:>6}{:>13}{:>12}{:>12}{:>12}",
        "year", "submissions", "available", "evaluated", "reproduced"
    )?;
    for y in fig1_series(seed) {
        writeln!(
            out,
            "{:>6}{:>13}{:>12}{:>12}{:>12}",
            y.year, y.submissions, y.available, y.evaluated, y.reproduced
        )?;
    }

    out += &section(
        "Ablation — 2024 cohort, share of hardware-gated artifacts with remote CI evidence",
    );
    writeln!(
        out,
        "{:>26}{:>12}{:>12}{:>12}",
        "remote-evidence share", "available", "evaluated", "reproduced"
    )?;
    for share in [0.0, 0.12, 0.5, 1.0] {
        let mut params = CohortParams::sc_year(2024);
        params.remote_evidence_share = share;
        let mut rng = DetRng::seed_from_u64(seed);
        let reviewer = Reviewer::default();
        let (mut available, mut evaluated, mut reproduced) = (0, 0, 0);
        for artifact in params.generate(&mut rng) {
            let outcome = reviewer.review(&artifact, &mut rng);
            available += usize::from(outcome.reached(BadgeLevel::ArtifactsAvailable));
            evaluated += usize::from(outcome.reached(BadgeLevel::ArtifactsEvaluated));
            reproduced += usize::from(outcome.reached(BadgeLevel::ResultsReproduced));
        }
        writeln!(
            out,
            "{share:>26.2}{available:>12}{evaluated:>12}{reproduced:>12}"
        )?;
    }
    out.push_str(
        "\nShape check vs paper: availability rises steeply 2016->2024; evaluated tracks below it;\n\
         results-reproduced remains the smallest share; remote evidence lifts only the top badge.\n",
    );
    Ok(out)
}

/// Table 1 — science-application features important for CI.
pub fn tab1() -> Result {
    Ok(section("Table 1") + &render_table1())
}

/// Table 2 — CI framework usage in scientific applications.
pub fn tab2() -> Result {
    Ok(section("Table 2") + &render_table2())
}

/// Table 3 — characteristics important for CI of HPC software.
pub fn tab3() -> Result {
    Ok(section("Table 3") + &render_table3())
}

/// Table 4 — HPC CI frameworks feature comparison.
pub fn tab4() -> Result {
    Ok(section("Table 4") + &render_table4())
}

/// Fig. 2 — the CORRECT system overview, regenerated as the message trace of
/// one action invocation: every component and hop, observed rather than drawn.
pub fn fig2_overview() -> Result {
    let mut s = paper::world(paper::FIG5_PSIJ, Federation::builder(2).build())?;
    let run_id = only_run(s.push_approve_run("vhayot")?)?;
    let run = s.fed.engine.run(run_id)?;

    let mut out = section("Fig. 2 — CORRECT system overview (observed message trace)");
    writeln!(
        out,
        "actors: GitHub repo ({}) -> workflow runner -> CORRECT action -> Globus Auth ->\n\
         Globus Compute cloud -> MEP at purdue-anvil -> UEP (x-vhayot) -> login node\n",
        s.repo
    )?;
    out += &s.fed.cloud.lock().trace.render();

    out += &section("resulting workflow run");
    writeln!(out, "status: {:?}", run.status)?;
    for step in &run.steps {
        writeln!(
            out,
            "  step {}/{} [{}] {} -> {}",
            step.job,
            step.step,
            if step.success { "ok" } else { "FAILED" },
            step.started,
            step.ended
        )?;
    }
    Ok(out)
}

/// Seeded repetitions behind each Fig. 4 mean.
const FIG4_REPS: u64 = 5;

/// A site and the `(test, seconds)` its pytest run printed, in suite order.
type SiteDurations = (String, Vec<(String, f64)>);

/// One Fig. 4 repetition: run the §6.1 scenario and parse every site's
/// per-test durations. Self-contained, so repetitions run as a sweep.
fn fig4_rep(seed: u64) -> Result<Vec<SiteDurations>> {
    let mut s = paper::world(paper::FIG4_PARSLDOCK, Federation::builder(seed).build())?;
    let run = only_run(s.push_approve_run("vhayot")?)?;
    let now = s.fed.now();
    let artifacts = &s.fed.engine.artifacts;
    let mut out = Vec::new();
    for env in &s.environments {
        let text = artifacts.fetch(run, &format!("{env}-output"), now)?.text();
        out.push((env.clone(), parse_durations(&text)));
    }
    Ok(out)
}

/// Fig. 4 — runtimes of the ParslDock tests on different machines, averaged
/// over seeded repetitions. The repetitions are independent federations run
/// as a [`sweep`], whose results do not depend on its thread count.
pub fn fig4_parsldock() -> Result {
    let jobs: Vec<_> = (0..FIG4_REPS)
        .map(|rep| move || fig4_rep(1000 + rep))
        .collect();
    let reps = sweep::sweep(jobs, sweep::default_threads())
        .into_iter()
        .collect::<Result<Vec<_>>>()?;

    // Every repetition runs the same suite at the same sites in the same
    // order; only the seed differs. The first names the columns and rows.
    let sites = reps.first().ok_or("no repetitions")?;
    let (_, suite) = sites.first().ok_or("no sites")?;
    let means: Vec<Vec<f64>> = (0..sites.len())
        .map(|site| {
            let mean = |test: usize| {
                reps.iter().map(|rep| rep[site].1[test].1).sum::<f64>() / reps.len() as f64
            };
            (0..suite.len()).map(mean).collect()
        })
        .collect();

    let mut out = section(&format!(
        "Fig. 4 — ParslDock per-test runtime (virtual seconds, mean of {FIG4_REPS} runs)"
    ));
    write!(out, "{:<28}", "test")?;
    for (site, _) in sites {
        write!(out, "{site:>18}")?;
    }
    out.push('\n');
    for (t, (test, _)) in suite.iter().enumerate() {
        write!(out, "{test:<28}")?;
        for site in &means {
            write!(out, "{:>18.3}", site[t])?;
        }
        out.push('\n');
    }

    let chameleon_wins = (0..suite.len())
        .filter(|&t| means[1..].iter().all(|site| means[0][t] <= site[t]))
        .count();
    writeln!(
        out,
        "\nshape: Chameleon fastest on {chameleon_wins}/{} tests (paper: \"Chameleon outperforms \
         other sites for most test cases\")",
        suite.len()
    )?;
    out.push_str(
        "short tests stay sub-second everywhere — \"the benefits of adopting a FaaS based model\".\n",
    );
    Ok(out)
}

/// Fig. 5 — the PSI/J test invocation failure, both panes: the error surfaced
/// in the CI UI (top) and the full execution stdout preserved in the workflow
/// artifact (bottom), then the same workflow once the dependency is fixed.
pub fn fig5_psij() -> Result {
    let mut s = paper::world(
        paper::FIG5_PSIJ_TYPEGUARD_MISSING,
        Federation::builder(5).build(),
    )?;
    let run_id = only_run(s.push_approve_run("vhayot")?)?;
    let run = s.fed.engine.run(run_id)?;

    let mut out = section("Fig. 5 (top) — error reported back to the GitHub runner");
    out += &run_line(run);
    let step = run.step("run").ok_or("the PSI/J run has no `run` step")?;
    for line in step.stderr.lines() {
        writeln!(out, "Error: {line}")?;
    }

    out += &section("Fig. 5 (bottom) — execution stdout stored within a workflow artifact");
    let now = s.fed.now();
    let artifact = s.fed.engine.artifacts.fetch(run_id, "pytest-output", now)?;
    for (ix, line) in artifact.text().lines().enumerate() {
        writeln!(out, "{:>4} {line}", ix + 247)?; // Fig. 5's log excerpt starts at line 247
    }

    out += &section("recovery — same workflow after the dependency is fixed");
    let mut fixed = paper::world(paper::FIG5_PSIJ, Federation::builder(5).build())?;
    let fixed_id = only_run(fixed.push_approve_run("vhayot")?)?;
    out += &run_line(fixed.fed.engine.run(fixed_id)?);
    Ok(out)
}

/// §6.3 — the KaMPIng Artifact Evaluation experiments run through CORRECT on
/// a Chameleon instance, inside the published container, with every
/// experiment's stdout stored as a workflow artifact.
pub fn exp63_kamping() -> Result {
    let mut s = paper::world(paper::SEC63_KAMPING, Federation::builder(63).build())?;
    let run_id = s.dispatch_approve_run("vhayot")?;
    let run = s.fed.engine.run(run_id)?;

    let mut out = section("§6.3 — KaMPIng artifact reproduction via CORRECT");
    writeln!(
        out,
        "workflow: {}  status: {:?}\n",
        run.workflow, run.status
    )?;
    let now = s.fed.now();
    for name in crate::minimpi::KAMPING_ARTIFACTS {
        let text = s.fed.engine.artifacts.fetch(run_id, name, now)?.text();
        if !text.contains("PASSED") {
            return Err(format!("KaMPIng artifact `{name}` did not pass:\n{text}").into());
        }
        writeln!(out, "--- artifact `{name}` ---\n{text}")?;
    }
    out.push_str(
        "result: ALL ARTIFACTS PASS (paper: \"all the Artifact Evaluation experiments pass with \
         CORRECT\")\n",
    );
    Ok(out)
}

/// §7.3 — what a short test suite costs, in virtual time, when executed
/// (1) directly on the site (ssh-and-run, no accounting) — the floor;
/// (2) as a single FaaS task (cloud round-trip + endpoint queue);
/// (3) as a full CORRECT step (runner bootstrap + auth + remote clone + task +
/// artifact), i.e. everything the paper's workflow pays.
///
/// All three run in the `sec73-anvil-overhead` world: its suite command, its
/// site's account and its one endpoint.
pub fn overhead() -> Result {
    let mut out =
        section("§7.3 — overhead of reaching the site (virtual seconds, anvil login node)");
    let spec = ScenarioSpec::from_toml(paper::SEC73_ANVIL_OVERHEAD)?;
    let command = spec.workload.command.as_str();
    let anvil = || paper::world(paper::SEC73_ANVIL_OVERHEAD, Federation::builder(7).build());

    let direct = {
        let s = anvil()?;
        let site = s.fed.sites().next().ok_or("the §7.3 world has no site")?;
        let mut rt = site.shared.lock();
        let account = rt.site.account(&spec.sites[0].account)?.clone();
        let login = rt.site.login_node().ok_or("anvil has no login node")?;
        let (host, speed) = (login.hostname.clone(), login.cpu_speed);
        let mut rng = DetRng::seed_from_u64(1);
        let cred = crate::cluster::Cred::of(&account);
        let run = rt.execute(
            command,
            &account,
            &cred,
            NodeRole::Login,
            &host,
            SimTime::ZERO,
            &mut rng,
            None,
        );
        let secs = rt.site.perf.compute_time(run.work, speed, &mut rng);
        secs.as_secs_f64()
    };

    let faas_task = {
        let mut s = anvil()?;
        let token = s.fed.auth.lock().authenticate(
            &crate::auth::ClientId(s.user.client_id.clone()),
            &crate::auth::ClientSecret::new(&s.user.client_secret),
            vec![crate::auth::Scope::compute_api()],
            SimTime::ZERO,
        )?;
        let endpoint = EndpointId(s.endpoints[0].clone());
        let start = s.fed.now();
        s.fed
            .cloud
            .lock()
            .submit_shell(&token, &endpoint, command, start)?;
        while s.fed.world().step() {}
        (s.fed.now() - start).as_secs_f64()
    };

    let correct_step = {
        let mut s = anvil()?;
        let start = s.fed.now();
        let reviewer = s.pusher.clone();
        let run_id = only_run(s.push_approve_run(&reviewer)?)?;
        let run = s.fed.engine.run(run_id)?;
        if run.status != RunStatus::Success {
            return Err(format!("the §7.3 CORRECT step ended {:?}", run.status).into());
        }
        (run.ended_at.ok_or("the §7.3 run never ended")? - start).as_secs_f64()
    };

    writeln!(out, "{:<44}{:>12}", "path", "seconds")?;
    for (path, secs) in [
        ("1. direct execution on the login node", direct),
        ("2. single FaaS task (cloud round-trip)", faas_task),
        ("3. full CORRECT step (bootstrap+clone+run)", correct_step),
    ] {
        writeln!(out, "{path:<44}{secs:>12.3}")?;
    }
    writeln!(
        out,
        "\nfaas overhead: +{:.3}s ({:.0}%); full CORRECT overhead: +{:.3}s ({:.0}%)",
        faas_task - direct,
        (faas_task / direct - 1.0) * 100.0,
        correct_step - direct,
        (correct_step / direct - 1.0) * 100.0
    )?;
    out.push_str(
        "shape: constant seconds-scale overhead per run — negligible against real HPC test\n\
         suites, dominated by the runner bootstrap (pip install) and the remote clone;\n\
         repeated tasks amortize everything but the task round-trip (§7.3's pilot argument).\n",
    );
    Ok(out)
}

const PILOT_TASKS: usize = 20;
const PILOT_TASK_SECS: u64 = 30;
const PILOT_NODES: u32 = 8;
/// A competing 600 s job arrives every 75 s — slightly above the machine's
/// drain rate, so the queue stays populated (a normal busy day).
const BG_PERIOD_SECS: u64 = 75;
const BG_RUN_SECS: u64 = 600;
const HORIZON_SECS: u64 = 6 * 3600;

/// A FIFO machine whose every node is busy for the first [`BG_RUN_SECS`].
fn contended_scheduler() -> Result<BatchScheduler> {
    let mut s = BatchScheduler::new(SchedulerConfig {
        policy: SchedulingPolicy::Fifo,
    });
    s.add_partition(Partition::new(
        "compute",
        (0..PILOT_NODES).map(NodeId).collect(),
        32,
    ));
    for i in 0..PILOT_NODES {
        s.submit(bg_spec(i as usize), SimTime::ZERO)?;
    }
    Ok(s)
}

fn fixed_job(name: String, user: u32, allocation: &str, walltime: u64, secs: u64) -> JobSpec {
    JobSpec {
        name,
        user: Uid(user),
        allocation: allocation.to_string(),
        partition: "compute".to_string(),
        nodes: 1,
        cores_per_node: 32,
        walltime: SimDuration::from_secs(walltime),
        payload: JobPayload::Fixed {
            duration: SimDuration::from_secs(secs),
            success: true,
        },
    }
}

fn bg_spec(i: usize) -> JobSpec {
    fixed_job(format!("bg{i}"), 99, "bg", BG_RUN_SECS + 60, BG_RUN_SECS)
}

fn ci_task(i: usize) -> JobSpec {
    fixed_job(
        format!("ci{i}"),
        1,
        "ci",
        PILOT_TASK_SECS * 4,
        PILOT_TASK_SECS,
    )
}

/// The instant the next background job arrives.
fn next_arrival(next_bg: u64) -> SimTime {
    SimTime::from_secs(next_bg * BG_PERIOD_SECS)
}

/// Advance the scheduler to `target`, injecting background arrivals on the way.
fn advance_with_arrivals(s: &mut BatchScheduler, target: SimTime, next_bg: &mut u64) {
    loop {
        let arrival = next_arrival(*next_bg);
        let step = match s.next_event() {
            Some(e) => e.min(target).min(arrival),
            None => target.min(arrival),
        };
        if arrival <= step && arrival <= target {
            s.advance_to(arrival);
            let _ = s.submit(bg_spec(1000 + *next_bg as usize), arrival);
            *next_bg += 1;
            continue;
        }
        s.advance_to(step);
        if step >= target {
            return;
        }
    }
}

/// The scheduler's next event or the next arrival, whichever comes first.
fn next_step(s: &BatchScheduler, next_bg: u64) -> Result<SimTime> {
    Ok(s.next_event()
        .ok_or("no work pending")?
        .min(next_arrival(next_bg)))
}

/// Per-task allocation: a sequential suite, one batch job per task. Returns
/// when the suite finished, or the horizon once the machine saturates.
fn per_task_allocation() -> Result<f64> {
    let mut s = contended_scheduler()?;
    let mut next_bg = 1u64;
    let mut now = SimTime::ZERO;
    for i in 0..PILOT_TASKS {
        let id = s.submit(ci_task(i), now)?;
        while !s.state(id)?.is_terminal() {
            let step = next_step(&s, next_bg)?;
            advance_with_arrivals(&mut s, step, &mut next_bg);
            if s.now() > SimTime::from_secs(HORIZON_SECS) {
                return Ok(HORIZON_SECS as f64);
            }
        }
        now = s.now();
    }
    Ok(now.as_secs_f64())
}

/// Pilot model: one allocation, and the sequential suite rides it.
fn pilot_allocation() -> Result<f64> {
    let mut s = contended_scheduler()?;
    let mut next_bg = 1u64;
    let pilot = s.submit(
        JobSpec::single_node("pilot", Uid(1), "ci", 32, SimDuration::from_hours(1)),
        SimTime::ZERO,
    )?;
    let started = loop {
        if let JobState::Running { started, .. } = s.state(pilot)? {
            break started;
        }
        let step = next_step(&s, next_bg)?;
        advance_with_arrivals(&mut s, step, &mut next_bg);
    };
    let finish = started + SimDuration::from_secs(PILOT_TASK_SECS) * PILOT_TASKS as u64;
    advance_with_arrivals(&mut s, finish, &mut next_bg);
    s.shutdown_pilot(pilot, true, finish)?;
    Ok(finish.as_secs_f64())
}

/// Ablation: the pilot-job model vs per-task batch allocation (§7.3 —
/// "tasks can be executed on the pilot rather than requesting an allocation
/// for each task"). A CI suite is a stream: task `i+1` is submitted when task
/// `i` finishes, so under per-task allocation every submission re-enters the
/// batch queue behind freshly arrived competing jobs, while the pilot pays
/// one queue wait and then owns its allocation.
pub fn ablation_pilot() -> Result {
    let mut out = section(&format!(
        "Ablation — pilot vs per-task allocation ({PILOT_TASKS} sequential tasks x \
         {PILOT_TASK_SECS}s, contended machine)"
    ));
    let p = per_task_allocation()?;
    let q = pilot_allocation()?;
    if q >= p {
        return Err(format!("the pilot ({q} s) must beat per-task allocation ({p} s)").into());
    }
    writeln!(out, "{:<26}{:>24}", "model", "suite finished (s)")?;
    writeln!(out, "{:<26}{:>24.0}", "per-task allocation", p)?;
    writeln!(out, "{:<26}{:>24.0}", "pilot (1 allocation)", q)?;
    writeln!(
        out,
        "\npilot completes the suite {:.1}x sooner: each per-task submission re-queues behind \
         newly arrived jobs, while the pilot pays one queue wait — §7.3, quantified.",
        p / q
    )?;
    Ok(out)
}

/// 120 seeded jobs: many narrow short ones, a few wide long ones, walltimes
/// overestimated 2x as users do.
fn mixed_workload(seed: u64) -> Vec<JobSpec> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..120)
        .map(|i| {
            let wide = rng.chance(0.15);
            let nodes = if wide { rng.range_u64(4, 9) as u32 } else { 1 };
            let secs = if wide {
                rng.range_u64(1800, 5400)
            } else {
                rng.range_u64(60, 900)
            };
            let (user, allocation) = (1000 + (i % 7) as u32, format!("proj{}", i % 3));
            JobSpec {
                nodes,
                ..fixed_job(format!("job{i}"), user, &allocation, secs * 2, secs)
            }
        })
        .collect()
}

/// Makespan, mean and max queue wait of [`mixed_workload`] under `policy`.
fn schedule(policy: SchedulingPolicy, seed: u64) -> Result<(f64, f64, f64)> {
    let mut s = BatchScheduler::new(SchedulerConfig { policy });
    s.add_partition(Partition::new("compute", (0..8).map(NodeId).collect(), 32));
    let mut arrival = SimTime::ZERO;
    let mut rng = DetRng::seed_from_u64(seed ^ 0xabc);
    let mut ids = Vec::new();
    for spec in mixed_workload(seed) {
        arrival += SimDuration::from_secs_f64(rng.exponential(20.0));
        ids.push(s.submit(spec, arrival)?);
    }
    while let Some(t) = s.next_event() {
        s.advance_to(t);
    }
    let makespan = s.now().as_secs_f64();
    let waits = ids
        .iter()
        .map(|&id| {
            Ok(s.state(id)?
                .queue_wait()
                .ok_or("a job never started")?
                .as_secs_f64())
        })
        .collect::<Result<Vec<f64>>>()?;
    let mean_wait = waits.iter().sum::<f64>() / waits.len() as f64;
    let max_wait = waits.iter().cloned().fold(0.0, f64::max);
    Ok((makespan, mean_wait, max_wait))
}

/// Ablation: EASY backfill vs plain FIFO on a mixed batch workload —
/// makespan and queue wait in virtual time.
pub fn ablation_scheduler() -> Result {
    let mut out = section("Ablation — EASY backfill vs FIFO (8 nodes x 32 cores, 120 mixed jobs)");
    writeln!(
        out,
        "{:<16}{:>16}{:>18}{:>16}",
        "policy", "makespan (s)", "mean wait (s)", "max wait (s)"
    )?;
    let mut improvements = Vec::new();
    for seed in [1, 2, 3] {
        let fifo = schedule(SchedulingPolicy::Fifo, seed)?;
        let easy = schedule(SchedulingPolicy::EasyBackfill, seed)?;
        writeln!(out, "seed {seed}:")?;
        for (policy, (makespan, mean, max)) in [("  FIFO", fifo), ("  EASY backfill", easy)] {
            writeln!(out, "{policy:<16}{makespan:>16.0}{mean:>18.0}{max:>16.0}")?;
        }
        improvements.push(fifo.1 / easy.1.max(1.0));
    }
    let mean_impr = improvements.iter().sum::<f64>() / improvements.len() as f64;
    writeln!(
        out,
        "\nbackfill cuts mean queue wait by ~{mean_impr:.1}x on this workload; pilots submitted \
         by CORRECT benefit identically."
    )?;
    Ok(out)
}
