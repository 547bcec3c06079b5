//! Execution records: one run, fully accounted.

use crate::capture::EnvironmentCapture;

/// A complete record of one remote execution — the unit of evidence a
//  reproducibility reviewer inspects in lieu of re-running (§6.3).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionRecord {
    /// Repository and commit pin the exact code version.
    pub repo: String,
    pub commit: String,
    /// The command that ran.
    pub command: String,
    /// Where and as whom it ran.
    pub environment: EnvironmentCapture,
    pub ran_as: String,
    pub node: String,
    /// Virtual timestamps (µs).
    pub started_us: u64,
    pub ended_us: u64,
    /// Outcome.
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

impl ExecutionRecord {
    pub fn runtime_secs(&self) -> f64 {
        (self.ended_us.saturating_sub(self.started_us)) as f64 / 1e6
    }

    /// Render the record as a provenance artifact.
    pub fn render(&self) -> String {
        format!(
            "repo: {}@{}\ncommand: {}\nran_as: {} on {}\nruntime: {:.3}s\nsuccess: {}\n--- environment ---\n{}",
            self.repo,
            self.commit,
            self.command,
            self.ran_as,
            self.node,
            self.runtime_secs(),
            self.success,
            self.environment.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(commit: &str, success: bool) -> ExecutionRecord {
        ExecutionRecord {
            repo: "parsl/parsl-docking-tutorial".into(),
            commit: commit.into(),
            command: "pytest tests/".into(),
            environment: EnvironmentCapture {
                site: "chameleon-tacc".into(),
                site_kind: "Cloud".into(),
                hostname: "chi".into(),
                cores: 64,
                mem_gb: 256,
                cpu_speed: 1.3,
                env_name: None,
                packages: vec![],
                container: None,
            },
            ran_as: "cc".into(),
            node: "chi".into(),
            started_us: 1_000_000,
            ended_us: 4_500_000,
            success,
            stdout: "4 passed".into(),
            stderr: String::new(),
        }
    }

    #[test]
    fn runtime_computation() {
        assert!((record("a", true).runtime_secs() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn render_contains_the_essentials() {
        let text = record("abc", true).render();
        assert!(text.contains("parsl-docking-tutorial@abc"));
        assert!(text.contains("pytest tests/"));
        assert!(text.contains("chameleon-tacc"));
    }
}
