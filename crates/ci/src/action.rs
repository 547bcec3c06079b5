//! The pluggable action interface and the world-driving protocol.
//!
//! Marketplace actions (§4.1) are Rust implementations of [`Action`]
//! registered with the engine by name. An action that must wait on remote
//! progress — CORRECT blocking until its FaaS task returns — advances the
//! shared virtual world through [`WorldDriver`] instead of sleeping, which
//! keeps every run deterministic.

use crate::run::{Infra, Outputs};
use bytes::Bytes;
use hpcci_sim::{SimDuration, SimTime, Sym};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Advances the federation's virtual time. Implemented by whatever owns the
/// full component set (see `correct-core`'s `Federation`). Actions call
/// [`WorldDriver::step`] in a loop until their completion condition holds.
pub trait WorldDriver {
    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Advance the world to its next internal event. Returns `false` when no
    /// component has pending work (quiescent) — callers must treat that as
    /// "my condition will never become true" and fail rather than spin.
    fn step(&mut self) -> bool;

    /// Let `d` of virtual time pass (processing any events inside it).
    fn sleep(&mut self, d: SimDuration);
}

/// A no-progress driver for tests and for actions that never block.
pub struct NullDriver {
    pub now: SimTime,
}

impl NullDriver {
    pub fn new() -> Self {
        NullDriver { now: SimTime::ZERO }
    }
}

impl Default for NullDriver {
    fn default() -> Self {
        Self::new()
    }
}

impl WorldDriver for NullDriver {
    fn now(&self) -> SimTime {
        self.now
    }
    fn step(&mut self) -> bool {
        false
    }
    fn sleep(&mut self, d: SimDuration) {
        self.now += d;
    }
}

/// Everything a step sees when it executes.
///
/// Identifier fields are interned [`Sym`]s, and the inputs and the env block
/// are `Arc`-shared with the engine: building a context per step costs handle
/// clones, not a copy of every string the run carries.
pub struct StepContext<'a> {
    /// Repository the run belongs to, `"owner/name"`.
    pub repo: Sym,
    /// Branch that triggered the run.
    pub branch: Sym,
    /// Commit hash string of the run's snapshot.
    pub commit: Sym,
    /// Resolved `with:` inputs (secrets/env already interpolated), shared
    /// with the engine's plan for the job.
    pub inputs: Arc<BTreeMap<String, String>>,
    /// Repository-level env vars visible to the run.
    pub env: Arc<BTreeMap<String, String>>,
    /// The virtual-world driver for blocking operations.
    pub driver: &'a mut dyn WorldDriver,
}

impl StepContext<'_> {
    /// Required input or a descriptive error string.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.inputs
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required input `{key}`"))
    }

    pub fn input(&self, key: &str) -> Option<&str> {
        self.inputs.get(key).map(String::as_str)
    }
}

/// What a step produced.
#[derive(Debug, Clone, Default)]
pub struct StepResult {
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
    /// Named outputs consumable by later steps.
    pub outputs: Outputs,
    /// Artifacts to persist (name, bytes).
    pub artifacts: Vec<(String, Bytes)>,
    /// Whether infrastructure bore on this result (see [`Infra`]).
    pub infra: Infra,
}

impl StepResult {
    pub fn ok(stdout: impl Into<String>) -> StepResult {
        StepResult {
            success: true,
            stdout: stdout.into(),
            ..StepResult::default()
        }
    }

    pub fn fail(stderr: impl Into<String>) -> StepResult {
        StepResult {
            success: false,
            stderr: stderr.into(),
            ..StepResult::default()
        }
    }

    pub fn with_output(mut self, key: &'static str, value: impl Into<String>) -> StepResult {
        self.outputs.insert(key, value.into());
        self
    }

    pub fn with_artifact(mut self, name: &str, content: impl Into<Bytes>) -> StepResult {
        self.artifacts.push((name.to_string(), content.into()));
        self
    }
}

/// A marketplace/custom action.
pub trait Action {
    /// Execute the action. Implementations may block on remote progress by
    /// driving `ctx.driver`.
    fn run(&self, ctx: &mut StepContext<'_>) -> StepResult;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Action for Echo {
        fn run(&self, ctx: &mut StepContext<'_>) -> StepResult {
            match ctx.require("message") {
                Ok(m) => StepResult::ok(m.to_string()).with_output("echoed", m),
                Err(e) => StepResult::fail(e),
            }
        }
    }

    fn ctx<'a>(driver: &'a mut NullDriver, inputs: &[(&str, &str)]) -> StepContext<'a> {
        StepContext {
            repo: "o/r".into(),
            branch: "main".into(),
            commit: "abc".into(),
            inputs: Arc::new(inputs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()),
            env: Default::default(),
            driver,
        }
    }

    #[test]
    fn action_reads_inputs_and_produces_outputs() {
        let mut driver = NullDriver::new();
        let mut c = ctx(&mut driver, &[("message", "hello")]);
        let r = Echo.run(&mut c);
        assert!(r.success);
        assert_eq!(r.stdout, "hello");
        assert_eq!(r.outputs["echoed"], "hello");
    }

    #[test]
    fn missing_required_input_fails() {
        let mut driver = NullDriver::new();
        let mut c = ctx(&mut driver, &[]);
        let r = Echo.run(&mut c);
        assert!(!r.success);
        assert!(r.stderr.contains("message"));
    }

    #[test]
    fn null_driver_sleep_advances_time() {
        let mut d = NullDriver::new();
        d.sleep(SimDuration::from_secs(3));
        assert_eq!(d.now(), SimTime::from_secs(3));
        assert!(!d.step());
    }

    #[test]
    fn step_result_builders() {
        let r = StepResult::ok("out").with_artifact("log.txt", "content");
        assert_eq!(r.artifacts.len(), 1);
        assert_eq!(r.artifacts[0].0, "log.txt");
    }
}
