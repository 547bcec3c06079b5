//! Per-run telemetry summaries.
//!
//! A [`RunReport`] mirrors the columns of the paper's Table/Fig. 4 evaluation
//! of CORRECT runs: where the run executed, how long it queued, how long it
//! ran, how many bytes of artifacts it produced, and — when it failed —
//! whether the failure was a test failure or infrastructure (the PR-1
//! `failure_kind` distinction). Reports are built from CI engine state at
//! harvest time, so they cost nothing while the simulation runs.

use std::fmt::Write as _;

/// Telemetry summary of one workflow run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Raw run id (`RunId.0` at the federation layer).
    pub run: u64,
    pub repo: String,
    pub workflow: String,
    pub branch: String,
    pub commit: String,
    /// Terminal (or current) status, e.g. `success` / `failure` / `awaiting-approval`.
    pub status: String,
    /// Simulation timestamps of the submit→start→finish lifecycle, in µs.
    pub triggered_at_us: u64,
    pub started_at_us: Option<u64>,
    pub ended_at_us: Option<u64>,
    /// Steps executed and how many of them failed.
    pub steps: u32,
    pub failed_steps: u32,
    /// Total artifact bytes uploaded by the run.
    pub artifact_bytes: u64,
    /// `infrastructure` / `test`, rendered from the run's typed attribution
    /// (its first failed step); `None` unless the run failed.
    pub failure_kind: Option<String>,
}

impl RunReport {
    /// Approval / scheduling wait: trigger → start, in µs.
    pub fn queue_wait_us(&self) -> Option<u64> {
        self.started_at_us
            .map(|s| s.saturating_sub(self.triggered_at_us))
    }

    /// Execution time: start → end, in µs.
    pub fn duration_us(&self) -> Option<u64> {
        match (self.started_at_us, self.ended_at_us) {
            (Some(s), Some(e)) => Some(e.saturating_sub(s)),
            _ => None,
        }
    }

    /// One human-readable line per field.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run #{} {}:{}@{}", self.run, self.repo, self.workflow, self.branch);
        let _ = writeln!(out, "  commit        {}", self.commit);
        let _ = writeln!(out, "  status        {}", self.status);
        let _ = writeln!(out, "  queue wait    {}", fmt_opt_us(self.queue_wait_us()));
        let _ = writeln!(out, "  duration      {}", fmt_opt_us(self.duration_us()));
        let _ = writeln!(out, "  steps         {} ({} failed)", self.steps, self.failed_steps);
        let _ = writeln!(out, "  artifacts     {} bytes", self.artifact_bytes);
        if let Some(kind) = &self.failure_kind {
            let _ = writeln!(out, "  failure kind  {kind}");
        }
        out
    }

    /// Fixed-column table over several reports (the Fig. 4 shape).
    pub fn render_table(reports: &[RunReport]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5}  {:<28} {:<10} {:>12} {:>12} {:>6} {:>10}  failure",
            "run", "repo:workflow", "status", "queue", "duration", "steps", "art bytes"
        );
        for r in reports {
            let _ = writeln!(
                out,
                "{:>5}  {:<28} {:<10} {:>12} {:>12} {:>6} {:>10}  {}",
                r.run,
                format!("{}:{}", r.repo, r.workflow),
                r.status,
                fmt_opt_us(r.queue_wait_us()),
                fmt_opt_us(r.duration_us()),
                r.steps,
                r.artifact_bytes,
                r.failure_kind.as_deref().unwrap_or("-"),
            );
        }
        out
    }

    /// Deterministic JSON object (integers and escaped strings only).
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        format!(
            "{{\"run\": {}, \"repo\": \"{}\", \"workflow\": \"{}\", \"branch\": \"{}\", \
             \"commit\": \"{}\", \"status\": \"{}\", \"triggered_at_us\": {}, \
             \"started_at_us\": {}, \"ended_at_us\": {}, \"queue_wait_us\": {}, \
             \"duration_us\": {}, \"steps\": {}, \"failed_steps\": {}, \
             \"artifact_bytes\": {}, \"failure_kind\": {}}}",
            self.run,
            esc(&self.repo),
            esc(&self.workflow),
            esc(&self.branch),
            esc(&self.commit),
            esc(&self.status),
            self.triggered_at_us,
            opt(self.started_at_us),
            opt(self.ended_at_us),
            opt(self.queue_wait_us()),
            opt(self.duration_us()),
            self.steps,
            self.failed_steps,
            self.artifact_bytes,
            self.failure_kind
                .as_deref()
                .map_or("null".to_string(), |k| format!("\"{}\"", esc(k))),
        )
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_opt_us(v: Option<u64>) -> String {
    match v {
        None => "-".to_string(),
        Some(us) if us < 1_000 => format!("{us}µs"),
        Some(us) if us < 1_000_000 => format!("{:.3}ms", us as f64 / 1e3),
        Some(us) => format!("{:.3}s", us as f64 / 1e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            run: 1,
            repo: "vhayot/parsl-docking-tutorial".into(),
            workflow: "docking-ci".into(),
            branch: "main".into(),
            commit: "ab12cd3".into(),
            status: "success".into(),
            triggered_at_us: 1_000_000,
            started_at_us: Some(3_000_000),
            ended_at_us: Some(63_000_000),
            steps: 4,
            failed_steps: 0,
            artifact_bytes: 2048,
            failure_kind: None,
        }
    }

    #[test]
    fn derived_durations() {
        let r = sample();
        assert_eq!(r.queue_wait_us(), Some(2_000_000));
        assert_eq!(r.duration_us(), Some(60_000_000));
        let unstarted = RunReport {
            started_at_us: None,
            ended_at_us: None,
            ..sample()
        };
        assert_eq!(unstarted.queue_wait_us(), None);
        assert_eq!(unstarted.duration_us(), None);
    }

    #[test]
    fn renders_and_serializes() {
        let r = sample();
        let text = r.render();
        assert!(text.contains("run #1"));
        assert!(text.contains("queue wait    2.000s"));
        let json = r.to_json();
        assert!(json.contains("\"queue_wait_us\": 2000000"));
        assert!(json.contains("\"failure_kind\": null"));
        let table = RunReport::render_table(&[r]);
        assert_eq!(table.lines().count(), 2);
        assert!(table.contains("docking-ci"));
    }
}
