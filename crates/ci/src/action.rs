//! The pluggable action interface and how a step waits.
//!
//! Marketplace actions (§4.1) are Rust implementations of [`Action`]
//! registered with the engine by name. A step an action starts never
//! advances the world: each poll returns an [`Effect`] — CORRECT blocking
//! until its FaaS task returns is [`Effect::Event`]. A run is polled the same
//! way: it returns its in-flight step's effects and its own waits (runner
//! startup, a `run:` step, a replayed step) as [`Effect::At`], and
//! `CiEngine::execute_ready` alone moves virtual time, through
//! [`WorldDriver`], keeping runs deterministic.

use crate::run::{Infra, Outputs};
use hpcci_sim::{SimDuration, SimTime, Sym};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Advances the federation's virtual time. Implemented by whatever owns the
/// full component set (see `correct-core`'s `Federation`); during a run the
/// engine maps each [`Effect`] the run returns to `step` or `sleep`.
pub trait WorldDriver {
    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Advance the world to its next internal event. Returns `false` when no
    /// component has pending work (quiescent): nothing a step waits on will
    /// ever happen, and the engine ends the step through [`Step::quiet`].
    fn step(&mut self) -> bool;

    /// Let `d` of virtual time pass (processing any events inside it).
    fn sleep(&mut self, d: SimDuration);
}

/// A world with no events: `step` reports quiescence at once and `sleep`
/// only moves the clock. For tests, and steps that never wait on an event.
#[derive(Default)]
pub struct NullDriver {
    pub now: SimTime,
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

/// Everything a step sees when it executes: an owned value a step may keep.
///
/// Identifier fields are interned [`Sym`]s, and the inputs are `Arc`-shared
/// with the engine: building a context per step costs handle clones, not a
/// copy of every string the run carries.
pub struct StepContext {
    /// Repository the run belongs to, `"owner/name"`.
    pub repo: Sym,
    /// Commit hash string of the run's snapshot.
    pub commit: Sym,
    /// Resolved `with:` inputs (secrets/env already interpolated), shared
    /// with the engine's plan for the job.
    pub inputs: Arc<BTreeMap<String, String>>,
    /// Virtual time the step starts at.
    pub started: SimTime,
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
    pub artifacts: Vec<(String, Arc<[u8]>)>,
    /// Whether infrastructure bore on this result (see [`Infra`]).
    pub infra: Infra,
    /// Ids of the FaaS tasks the step submitted, in order; the engine moves
    /// them to [`StepRun::tasks`](crate::StepRun::tasks).
    pub tasks: Vec<u64>,
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

    pub fn with_artifact(mut self, name: &str, content: impl AsRef<[u8]>) -> StepResult {
        self.artifacts.push((name.to_string(), Arc::from(content.as_ref())));
        self
    }
}

/// What a poll of a [`Step`] asks of the engine — and, with `T = ()`, what
/// a poll of a run asks of the world.
pub enum Effect<T = StepResult> {
    /// The next world event may finish the step: poll it again after one.
    Event,
    /// Wake the step at this instant: poll it again once the world is there.
    At(SimTime),
    /// The step is over; it is not polled again.
    Done(T),
}

/// A step in progress. The engine polls it until it is [`Effect::Done`].
pub trait Step {
    /// Go as far as the step can without the world moving.
    fn poll(&mut self) -> Effect;

    /// The world went quiet while the step waited on [`Effect::Event`]:
    /// no event will come, so the step ends now with this result.
    fn quiet(&mut self) -> StepResult;
}

/// A result is a step done at its first poll: what an action that never
/// waits returns.
impl Step for StepResult {
    fn poll(&mut self) -> Effect {
        Effect::Done(std::mem::take(self))
    }

    fn quiet(&mut self) -> StepResult {
        std::mem::take(self)
    }
}

/// A marketplace/custom action.
pub trait Action {
    /// Begin a step. The engine advances the world for it as each
    /// [`Step::poll`] asks.
    fn start(&self, ctx: StepContext) -> Box<dyn Step>;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Action for Echo {
        fn start(&self, ctx: StepContext) -> Box<dyn Step> {
            Box::new(match ctx.inputs.get("message") {
                Some(m) => StepResult::ok(m.as_str()).with_output("echoed", m),
                None => StepResult::fail("missing required input `message`"),
            })
        }
    }

    /// Start `Echo` on `inputs` and take the result of its one poll.
    fn echo(inputs: &[(&str, &str)]) -> StepResult {
        let ctx = StepContext {
            repo: "o/r".into(),
            commit: "abc".into(),
            inputs: Arc::new(inputs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()),
            started: SimTime::ZERO,
        };
        match Echo.start(ctx).poll() {
            Effect::Done(r) => r,
            _ => panic!("Echo never waits"),
        }
    }

    #[test]
    fn action_reads_inputs_and_produces_outputs() {
        let r = echo(&[("message", "hello")]);
        assert!(r.success);
        assert_eq!(r.stdout, "hello");
        assert_eq!(r.outputs["echoed"], "hello");
    }

    #[test]
    fn missing_required_input_fails() {
        let r = echo(&[]);
        assert!(!r.success);
        assert!(r.stderr.contains("message"));
    }

    #[test]
    fn null_driver_sleep_advances_time() {
        let mut d = NullDriver::default();
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
