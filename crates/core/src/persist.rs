//! §7.4's future-work extensions, implemented:
//!
//! * "As GitHub artifacts remain available for only 90 days, it may be
//!   necessary to persist flow run executions to a more permanent location
//!   … publish artifacts to external data repositories like Zenodo."
//!   [`archive_run`] packages a workflow run — its metadata, per-step
//!   records and every artifact — into a [`ResearchObject`] with a
//!   persistent identifier, outliving the CI retention window.
//! * "A secondary call to CORRECT could be made to capture a trace of the
//!   system's software environment and publish it as a workflow artifact."
//!   The action's `capture_environment` input does exactly that; the archive
//!   folds the captured environment into the research object.

use hpcci_cas::CasStore;
use hpcci_ci::{ArtifactStore, CiError, RunId, RunStatus, WorkflowRun};
use hpcci_provenance::{CacheEntry, EnvironmentCapture, ExecutionRecord, ResearchObject};
use hpcci_sim::SimTime;

/// Package a finished run into a permanent research object.
///
/// `serial` feeds the DOI allocator (a Zenodo deposit number, in spirit).
/// Every live artifact of the run is embedded as a data resource; every
/// executed step becomes an execution record. The returned object satisfies
/// the "Artifacts Available" checklist if the run produced any artifact.
pub fn archive_run(
    run: &WorkflowRun,
    artifacts: &ArtifactStore,
    now: SimTime,
    serial: u64,
) -> Result<ResearchObject, CiError> {
    let mut ro = ResearchObject::new(
        &format!("CI run {} of {} ({})", run.id, run.repo, run.workflow),
        &run.repo,
        &run.commit,
    )
    .with_documentation(&format!(
        "Workflow `{}` triggered on branch `{}`; status {:?}. Full step log embedded in \
         execution records.",
        run.workflow, run.branch, run.status
    ));

    for artifact in artifacts.of_run(run.id, now) {
        ro.add_data(
            &artifact.name,
            &format!("ci://artifacts/{}/{}", run.id, artifact.name),
            "workflow artifact (stdout/stderr or provenance capture)",
            artifact.content.len() as u64,
        );
    }

    // The environment capture, when present, becomes the record's
    // environment; otherwise a minimal descriptor is synthesized from the
    // step outputs so the record is never environment-less.
    let captured_env = artifacts
        .fetch(run.id, "environment.txt", now)
        .ok()
        .map(|a| a.text());

    for step in &run.steps {
        let environment = EnvironmentCapture {
            site: step.outputs.get("node").cloned().unwrap_or_default(),
            site_kind: String::new(),
            hostname: step.outputs.get("node").cloned().unwrap_or_default(),
            cores: 0,
            mem_gb: 0,
            cpu_speed: 0.0,
            env_name: captured_env.clone(),
            packages: Vec::new(),
            container: None,
        };
        ro.add_execution(ExecutionRecord {
            repo: run.repo.to_string(),
            commit: run.commit.to_string(),
            command: format!("{}/{}", step.job, step.step),
            environment,
            ran_as: step.outputs.get("ran_as").cloned().unwrap_or_default(),
            node: step.outputs.get("node").cloned().unwrap_or_default(),
            started_us: step.started.as_micros(),
            ended_us: step.ended.as_micros(),
            success: step.success,
            stdout: step.stdout.clone(),
            stderr: step.stderr.clone(),
        });
    }

    ro.archive(serial);
    Ok(ro)
}

/// Task-provenance cache rows for a run: one pointer per live artifact,
/// carrying the artifact's CAS digest so a later audit can verify
/// bit-for-bit that the archived bytes are the bytes the run produced
/// (entries from stores without an attached CAS carry `Digest::NONE`).
pub fn provenance_entries(
    run: &WorkflowRun,
    artifacts: &ArtifactStore,
    now: SimTime,
) -> Vec<CacheEntry> {
    artifacts
        .of_run(run.id, now)
        .into_iter()
        .map(|artifact| CacheEntry {
            pipeline: run.workflow.to_string(),
            dataset: run.repo.to_string(),
            task_id: format!("{}", run.id),
            location: format!("ci://artifacts/{}/{}", run.id, artifact.name),
            at_us: run.triggered_at.as_micros(),
            success: run.status == RunStatus::Success,
            cas_digest: artifact.digest,
        })
        .collect()
}

/// Check a provenance pointer against the content store: true when the CAS
/// still holds an object whose digest matches the entry (v1 entries with no
/// digest cannot be verified and return false).
pub fn verify_provenance_entry(entry: &CacheEntry, cas: &CasStore) -> bool {
    !entry.cas_digest.is_none() && cas.contains(entry.cas_digest)
}

/// Convenience: archive a run straight out of a CI engine.
pub fn archive_from_engine(
    engine: &hpcci_ci::CiEngine,
    run: RunId,
    now: SimTime,
    serial: u64,
) -> Result<ResearchObject, CiError> {
    let record = engine.run(run)?;
    archive_run(record, &engine.artifacts, now, serial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcci_ci::{RunStatus, StepOutcome, StepRun};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn sample_run() -> WorkflowRun {
        let mut outputs = BTreeMap::new();
        outputs.insert("ran_as".to_string(), "x-vhayot".to_string());
        outputs.insert("node".to_string(), "anvil-login-1".to_string());
        WorkflowRun {
            id: RunId(9),
            repo: "ExaWorks/psij-python".into(),
            workflow: "psij-ci".into(),
            branch: "main".into(),
            commit: "abc123def456".into(),
            status: RunStatus::Success,
            triggered_at: SimTime::ZERO,
            started_at: Some(SimTime::from_secs(1)),
            ended_at: Some(SimTime::from_secs(60)),
            approved_by: Some("vhayot".into()),
            steps: vec![StepRun {
                job: "remote-test".into(),
                step: "run".into(),
                outcome: Arc::new(StepOutcome {
                    success: true,
                    stdout: "6 passed".into(),
                    outputs: outputs.into(),
                    ..StepOutcome::default()
                }),
                started: SimTime::from_secs(1),
                ended: SimTime::from_secs(59),
            }],
        }
    }

    #[test]
    fn archive_outlives_ci_retention() {
        let run = sample_run();
        let mut store = ArtifactStore::new();
        store.upload(RunId(9), "pytest-output", "6 passed\nfull log", SimTime::ZERO);
        let ro = archive_run(&run, &store, SimTime::from_secs(10), 42).unwrap();
        assert!(ro.doi.as_deref().unwrap().starts_with("10.5281/"));
        assert_eq!(ro.data.len(), 1);
        assert_eq!(ro.executions.len(), 1);
        assert!(ro.artifacts_available());

        // 91 days later the CI artifact is gone; the research object stays.
        let day91 = SimTime::from_secs(91 * 24 * 3600);
        store.purge_expired(day91);
        assert!(store.fetch(RunId(9), "pytest-output", day91).is_err());
        assert_eq!(ro.data[0].name, "pytest-output");
        assert_eq!(ro.executions[0].ran_as, "x-vhayot");
    }

    #[test]
    fn provenance_entries_carry_verifiable_cas_digests() {
        let run = sample_run();
        let mut store = ArtifactStore::new();
        let cas = CasStore::new();
        store.attach_cas(cas.clone());
        store.upload(RunId(9), "pytest-output", "6 passed\nfull log", SimTime::ZERO);
        let entries = provenance_entries(&run, &store, SimTime::from_secs(10));
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.pipeline, "psij-ci");
        assert_eq!(e.location, "ci://artifacts/run#9/pytest-output");
        assert!(!e.cas_digest.is_none());
        assert!(verify_provenance_entry(e, &cas), "bytes still in the CAS");

        // Without a CAS attached the pointer exists but cannot be verified.
        let mut bare = ArtifactStore::new();
        bare.upload(RunId(9), "pytest-output", "6 passed\nfull log", SimTime::ZERO);
        let legacy = provenance_entries(&run, &bare, SimTime::from_secs(10));
        assert!(legacy[0].cas_digest.is_none());
        assert!(!verify_provenance_entry(&legacy[0], &cas));
    }

    #[test]
    fn captured_environment_is_folded_in() {
        let run = sample_run();
        let mut store = ArtifactStore::new();
        store.upload(RunId(9), "environment.txt", "site: purdue-anvil\npsij==0.9.9", SimTime::ZERO);
        let ro = archive_run(&run, &store, SimTime::from_secs(10), 1).unwrap();
        assert!(ro.executions[0]
            .environment
            .env_name
            .as_deref()
            .unwrap()
            .contains("psij==0.9.9"));
    }
}
