//! Execute a [`ScenarioSpec`] end-to-end and collect a comparable outcome.
//!
//! [`run_spec`] builds the federation from the spec (seed, fault plan,
//! cache mode), compiles the scenario onto it, drives the declared traffic
//! over virtual time, and snapshots everything the oracles compare: the
//! functional trace, the chaos trace, a canonical run transcript, per-task
//! identities, and cache statistics.

use crate::compile::BuiltScenario;
use crate::spec::{CacheModeDecl, ScenarioSpec, SpecError};
use correct_core::Federation;
use hpcci_cas::{Digest, DigestBuilder};
use hpcci_ci::{CacheMode, CacheStats, FailureKind, RunStatus, StepCache};
use hpcci_faas::{TaskId, TaskState};
use hpcci_sim::SimDuration;
use std::fmt::Write as _;

/// How [`run_spec_with`] configures the step cache.
pub enum CacheSetup {
    /// Use the spec's declared `[cache] mode` (a fresh cache).
    FromSpec,
    /// Force cache off regardless of the spec (the oracle baseline).
    ForceOff,
    /// Run over a caller-owned cache — how the oracle's record/replay pair
    /// shares recordings.
    Shared(StepCache, CacheMode),
}

/// One workflow run, summarized for oracle checks.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    pub id: u64,
    pub workflow: String,
    pub status: RunStatus,
    /// `infrastructure` / `test` attribution; `None` unless the run failed.
    pub failure_kind: Option<FailureKind>,
}

/// Terminal identity of one cloud task.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskIdentity {
    pub task: u64,
    /// Local account a finished task ran as (empty when rejected/pending).
    pub ran_as: String,
}

/// Everything one scenario execution produced, in comparable form.
pub struct ScenarioOutcome {
    pub name: String,
    /// Digest over trace + chaos + transcript — the equality the
    /// determinism oracle checks.
    pub digest: Digest,
    /// Rendered functional trace (the golden-trace surface).
    pub trace: String,
    /// Rendered chaos trace (empty without faults).
    pub chaos: String,
    /// Canonical run transcript **with** virtual timestamps.
    pub transcript: String,
    /// Virtual end of the scenario, in microseconds.
    pub end_us: u64,
    /// Simulation events the cloud dispatched.
    pub events: u64,
    pub runs: Vec<RunSummary>,
    pub tasks: Vec<TaskIdentity>,
    pub cache: Option<CacheStats>,
    /// Raw client secret minted at onboarding — the hygiene oracle greps the
    /// transcript for it (it must only ever appear masked).
    pub client_secret: String,
}

impl ScenarioOutcome {
    pub fn failed_runs(&self) -> impl Iterator<Item = &RunSummary> {
        self.runs
            .iter()
            .filter(|r| r.status == RunStatus::Failure)
    }
}

/// Run a spec as declared.
pub fn run_spec(spec: &ScenarioSpec) -> Result<ScenarioOutcome, SpecError> {
    run_spec_with(spec, CacheSetup::FromSpec)
}

/// Run a spec with an explicit cache setup (see [`CacheSetup`]).
pub fn run_spec_with(
    spec: &ScenarioSpec,
    cache: CacheSetup,
) -> Result<ScenarioOutcome, SpecError> {
    let (scenario, stats) = drive_spec(spec, cache)?;
    Ok(collect(spec, &scenario, stats))
}

/// Build the spec's federation and drive its traffic, leaving the world as
/// the last push left it: [`collect`] snapshots it, and the oracles that
/// read live state (attribution by type, conservation) keep going from it.
pub(crate) fn drive_spec(
    spec: &ScenarioSpec,
    cache: CacheSetup,
) -> Result<(BuiltScenario, Option<StepCache>), SpecError> {
    let mut builder = Federation::builder(spec.seed).workload(spec.traffic.workload());
    let plan = spec.fault_plan();
    if !plan.is_empty() {
        builder = builder.faults(plan);
    }
    let shared = match cache {
        CacheSetup::FromSpec => match spec.cache {
            CacheModeDecl::Off => None,
            CacheModeDecl::Record => Some((StepCache::new(), CacheMode::Record)),
            CacheModeDecl::Replay => Some((StepCache::new(), CacheMode::Replay)),
        },
        CacheSetup::ForceOff => None,
        CacheSetup::Shared(c, m) => Some((c, m)),
    };
    let stats_handle = shared.as_ref().map(|(c, _)| c.clone());
    if let Some((c, m)) = shared {
        builder = builder.step_cache_shared(c, m);
    }
    let fed = builder.build();
    let mut scenario = spec.build_on(fed)?;
    drive_traffic(&mut scenario, spec)?;
    Ok((scenario, stats_handle))
}

/// Advance virtual time and fire trigger rounds per the traffic spec.
///
/// Gaps come from the federation's [`ArrivalGen`] — the workload attached by
/// [`run_spec_with`] — which forks the world seed under the same label
/// the historical inline sampler used, so pre-workload digests are
/// unchanged.
fn drive_traffic(s: &mut BuiltScenario, spec: &ScenarioSpec) -> Result<(), SpecError> {
    let mut arrivals = s
        .fed
        .arrival_gen()
        .expect("run_spec_with always attaches the spec's workload");
    let reviewer = spec.user.login.clone();
    for round in 0..spec.traffic.pushes {
        if round > 0 {
            let gap = arrivals.next_gap_us();
            s.fed.world().sleep(SimDuration::from_micros(gap));
        }
        s.trigger_round(&reviewer)?;
    }
    Ok(())
}

pub(crate) fn collect(
    spec: &ScenarioSpec,
    s: &BuiltScenario,
    cache: Option<StepCache>,
) -> ScenarioOutcome {
    let fed = &s.fed;
    let mut runs: Vec<_> = fed.engine.runs().cloned().collect();
    runs.sort_by_key(|r| r.id);

    let mut transcript = String::new();
    let mut summaries = Vec::new();
    for run in &runs {
        let _ = writeln!(
            transcript,
            "{} {}@{} commit={} status={} approved_by={} triggered={} started={} ended={}",
            run.id,
            run.workflow,
            run.branch,
            run.commit,
            run.status.as_str(),
            run.approved_by.as_deref().unwrap_or("-"),
            run.triggered_at.as_micros(),
            run.started_at.map(|t| t.as_micros()).unwrap_or(0),
            run.ended_at.map(|t| t.as_micros()).unwrap_or(0),
        );
        for step in &run.steps {
            let _ = writeln!(
                transcript,
                "  {}/{} [{}] started={} ended={}",
                step.job,
                step.step,
                if step.success { "ok" } else { "FAILED" },
                step.started.as_micros(),
                step.ended.as_micros()
            );
            for (k, v) in step.outputs.iter() {
                let _ = writeln!(transcript, "    output {k}={v}");
            }
            for l in step.stdout.lines() {
                let _ = writeln!(transcript, "    | {l}");
            }
            for l in step.stderr.lines() {
                let _ = writeln!(transcript, "    ! {l}");
            }
        }
        summaries.push(RunSummary {
            id: run.id.0,
            workflow: run.workflow.to_string(),
            status: run.status,
            failure_kind: run.failure_kind(),
        });
    }

    let (trace, task_count) = {
        let cloud = fed.cloud.lock();
        (cloud.trace.render(), cloud.task_count() as u64)
    };
    let mut tasks = Vec::new();
    {
        let cloud = fed.cloud.lock();
        for id in 1..=task_count {
            let ran_as = match cloud.task_state(TaskId(id)) {
                Ok(TaskState::Done(out)) => out.ran_as.to_string(),
                _ => String::new(),
            };
            tasks.push(TaskIdentity { task: id, ran_as });
        }
    }
    let chaos = fed.fault_trace().render();
    let digest = DigestBuilder::new()
        .digest_field("world", fed.trace_digest())
        .str_field("transcript", &transcript)
        .finish();

    ScenarioOutcome {
        name: spec.name.clone(),
        digest,
        trace,
        chaos,
        transcript,
        end_us: fed.now().as_micros(),
        events: fed.events_dispatched(),
        runs: summaries,
        tasks,
        cache: cache.map(|c| c.stats()),
        client_secret: s.user.client_secret.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_spec_same_outcome() {
        let spec = ScenarioSpec::minimal("run-det", 31);
        let a = run_spec(&spec).expect("runs");
        let b = run_spec(&spec).expect("runs");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.transcript, b.transcript);
        assert_eq!(a.end_us, b.end_us);
        assert!(a.events > 0);
        assert!(!a.runs.is_empty());
        assert!(a.tasks.iter().any(|t| !t.ran_as.is_empty()));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut spec = ScenarioSpec::minimal("run-a", 32);
        let a = run_spec(&spec).expect("runs");
        spec.seed = 33;
        let b = run_spec(&spec).expect("runs");
        assert_ne!(a.digest, b.digest, "seed jitters runtimes");
    }

    #[test]
    fn traffic_rounds_create_one_run_each() {
        let mut spec = ScenarioSpec::minimal("run-traffic", 34);
        spec.traffic.pushes = 3;
        spec.traffic.gap_secs = 120;
        spec.traffic.burstiness_pct = 50;
        let out = run_spec(&spec).expect("runs");
        assert_eq!(out.runs.len(), 3);
        assert!(out
            .runs
            .iter()
            .all(|r| r.status == RunStatus::Success && r.failure_kind.is_none()));
    }
}
