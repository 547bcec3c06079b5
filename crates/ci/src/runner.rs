//! Runners: where workflow jobs execute.
//!
//! GitHub hosts VM runners on Azure (§4.1); CORRECT deliberately runs only on
//! these hosted runners and reaches HPC through FaaS, while the baseline
//! frameworks of §4.4 install *self-hosted* runners on site login nodes.

use crate::error::CiError;
use crate::workflow::RunsOn;
use hpcci_sim::SimDuration;

/// Hosted-runner hardware classes from §4.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerKind {
    /// GitHub-hosted VM: OS label + architecture.
    Hosted { label: String, arch: String },
    /// Self-hosted runner pinned to a federation site (login node).
    SelfHosted { site: String },
}

/// One registered runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Runner {
    pub id: u32,
    pub kind: RunnerKind,
    /// VM boot / job pickup latency charged before the first step.
    pub startup: SimDuration,
}

impl Runner {
    pub fn hosted(id: u32, label: &str) -> Runner {
        Runner {
            id,
            kind: RunnerKind::Hosted {
                label: label.to_string(),
                arch: "x64".to_string(),
            },
            startup: SimDuration::from_secs(8),
        }
    }

    pub fn self_hosted(id: u32, site: &str) -> Runner {
        Runner {
            id,
            kind: RunnerKind::SelfHosted {
                site: site.to_string(),
            },
            // Long-lived daemon: effectively instant pickup.
            startup: SimDuration::from_millis(200),
        }
    }

    /// Stable identity of the execution substrate, used in step-cache keys:
    /// a result computed on one runner class must not replay on another.
    /// Borrowed parts (class, label or site, architecture) — the key hashes
    /// them as separate fields, so nothing is formatted per job.
    pub fn cache_identity(&self) -> [&str; 3] {
        match &self.kind {
            RunnerKind::Hosted { label, arch } => ["hosted", label, arch],
            RunnerKind::SelfHosted { site } => ["self-hosted", site, ""],
        }
    }

    pub fn satisfies(&self, selector: &RunsOn) -> bool {
        match (selector, &self.kind) {
            (RunsOn::Hosted(want), RunnerKind::Hosted { label, .. }) => want == label,
            (RunsOn::SelfHosted { site: want }, RunnerKind::SelfHosted { site }) => want == site,
            _ => false,
        }
    }
}

/// The service's runner inventory.
#[derive(Debug, Default)]
pub struct RunnerPool {
    runners: Vec<Runner>,
    next_id: u32,
}

impl RunnerPool {
    pub fn new() -> Self {
        RunnerPool::default()
    }

    /// A pool with the standard hosted labels.
    pub fn with_hosted_defaults() -> Self {
        let mut p = RunnerPool::new();
        for label in ["ubuntu-latest", "windows-latest", "macos-latest"] {
            p.add_hosted(label);
        }
        p
    }

    pub fn add_hosted(&mut self, label: &str) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.runners.push(Runner::hosted(id, label));
        id
    }

    pub fn add_self_hosted(&mut self, site: &str) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.runners.push(Runner::self_hosted(id, site));
        id
    }

    /// Find a runner for a selector. Hosted runners are a fleet, so matching
    /// by label always succeeds if the label is registered.
    pub fn select(&self, selector: &RunsOn) -> Result<&Runner, CiError> {
        self.runners
            .iter()
            .find(|r| r.satisfies(selector))
            .ok_or_else(|| CiError::NoRunnerAvailable(format!("{selector:?}")))
    }

    pub fn len(&self) -> usize {
        self.runners.len()
    }

    pub fn is_empty(&self) -> bool {
        self.runners.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_by_label_and_site() {
        let mut pool = RunnerPool::with_hosted_defaults();
        pool.add_self_hosted("purdue-anvil");
        assert!(pool.select(&RunsOn::Hosted("ubuntu-latest".into())).is_ok());
        assert!(pool
            .select(&RunsOn::SelfHosted { site: "purdue-anvil".into() })
            .is_ok());
        assert!(matches!(
            pool.select(&RunsOn::Hosted("solaris".into())),
            Err(CiError::NoRunnerAvailable(_))
        ));
        assert!(matches!(
            pool.select(&RunsOn::SelfHosted { site: "tamu-faster".into() }),
            Err(CiError::NoRunnerAvailable(_))
        ));
    }

    #[test]
    fn cache_identity_separates_runner_classes() {
        let hosted = Runner::hosted(0, "anvil");
        let selfh = Runner::self_hosted(1, "anvil");
        assert_eq!(hosted.cache_identity(), ["hosted", "anvil", "x64"]);
        assert_eq!(selfh.cache_identity(), ["self-hosted", "anvil", ""]);
    }

    #[test]
    fn hosted_runners_pay_boot_latency() {
        let hosted = Runner::hosted(0, "ubuntu-latest");
        let selfh = Runner::self_hosted(1, "site");
        assert!(hosted.startup > selfh.startup);
    }
}
