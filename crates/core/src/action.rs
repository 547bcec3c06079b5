//! The CORRECT action implementation (§5.3, Fig. 2).
//!
//! Step by step, exactly as the paper describes:
//!
//! 1. verify the FaaS SDK is present on the runner, `pip install` otherwise;
//! 2. authenticate with the auth platform using the client id/secret inputs,
//!    obtaining a bearer token;
//! 3. use a FaaS function to **clone the repository** into a temporary
//!    directory at the remote site (so the latest code version is evaluated);
//! 4. invoke the user-specified function (shell command or pre-registered
//!    function UUID);
//! 5. return stdout/stderr to the runner for later steps, upload them as
//!    artifacts, and fail the workflow step if either the clone or the user
//!    function fails;
//! 6. optionally run a secondary capture task that attaches the remote
//!    software environment as a provenance artifact (§7.4).
//!
//! The step never advances the world: the runner bootstrap, a task in flight
//! and a retry's backoff are each an [`Effect`] the engine waits out.

use crate::inputs::{Command, CorrectInputs};
use hpcci_auth::{AccessToken, AuthError, Scope};
use hpcci_ci::{Action, Effect, FailureKind, Infra, Outputs, Step, StepContext, StepResult};
use hpcci_faas::{CloudService, FaasError, TaskFailure, TaskId, TaskOutput};
use hpcci_sim::{DetRng, Fnv, SimDuration, SimTime, Sym};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::Arc;

/// The marketplace name the action registers under.
pub const CORRECT_ACTION_NAME: &str = "globus-labs/correct@v1";

/// The action. Holds a handle to the FaaS cloud (the runner talks to the
/// cloud's REST API; it never reaches the site directly). Its retry,
/// failover and refresh counters go to the cloud's observability handle.
pub struct CorrectAction {
    cloud: Arc<Mutex<CloudService>>,
}

impl CorrectAction {
    pub fn new(cloud: Arc<Mutex<CloudService>>) -> Self {
        CorrectAction { cloud }
    }
}

/// The tasks a step submits, in order, each through [`State::Submit`] and
/// [`State::Waiting`]. The capture is never retried and never flips the
/// step's outcome.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Clone,
    Command,
    Capture,
}

/// Where a session stands between polls. A poll that returns a wait sets the
/// state first, so the next poll resumes past it.
#[derive(Clone, Copy)]
enum State {
    /// Not yet polled: the runner installs the SDK until this instant.
    Bootstrap(SimTime),
    /// The client-credentials grant (§5.3).
    Auth,
    /// Submit the phase's task: its first attempt or a retry.
    Submit,
    /// The phase's task is in flight.
    Waiting(TaskId),
}

/// One CORRECT step's session with the cloud, resumable between polls.
///
/// Infrastructure failures — by type: [`FaasError::is_infrastructure`],
/// [`TaskFailure::WorkerCrashed`] — are retried with deterministic
/// exponential backoff and fail over to a sibling endpoint, and an expired
/// token is refreshed; each attempt past the first marks the step
/// [`Infra::Shaped`]. With no faults a phase is a plain submit-and-wait: no
/// log lines, no RNG draws. Once the retries are spent the site is skipped,
/// marked [`Infra::Failed`] and shown as the `failure_kind` output (§2.1: CI
/// must not confuse platform flakiness with code regressions).
struct Session {
    cloud: Arc<Mutex<CloudService>>,
    inputs: CorrectInputs,
    repo: Sym,
    state: State,
    phase: Phase,
    /// Granted in [`State::Auth`].
    token: Option<AccessToken>,
    /// The endpoint the step stands on, in `inputs.endpoints`. A failover
    /// holds for the rest of the step: the command and the capture run where
    /// the clone did.
    ep_idx: usize,
    /// The phase's retry state. The backoff jitter is seeded by commit +
    /// endpoint and the phase, and drawn only on a retry.
    jitter_seed: u64,
    rng: DetRng,
    attempt: u32,
    /// The step's result as it grows: its stdout is the log, and it carries
    /// the [`Infra`] mark and the ids of the tasks submitted.
    result: StepResult,
}

impl Session {
    /// The client-credentials grant (§5.3): the step's first token, and a
    /// fresh one whenever the cloud rejects it mid-run.
    fn authenticate(&mut self) -> Result<(), AuthError> {
        let cloud = self.cloud.lock();
        let mut auth = cloud.auth().lock();
        let (id, secret) = (&self.inputs.client_id, &self.inputs.client_secret);
        let scopes = vec![Scope::compute_api()];
        self.token = Some(auth.authenticate(id, secret, scopes, cloud.now())?);
        Ok(())
    }

    /// Submit the phase's task to the endpoint the step stands on. Without a
    /// token the cloud is not asked: that is an invalid token.
    fn submit(&self, cloud: &mut CloudService, now: SimTime) -> Result<TaskId, FaasError> {
        let token = self.token.as_ref().ok_or(AuthError::InvalidToken)?;
        let endpoint = &self.inputs.endpoints[self.ep_idx];
        match (self.phase, &self.inputs.command) {
            (Phase::Clone, _) => {
                let clone_cmd = format!("git clone https://github.sim/{}.git", self.repo);
                cloud.submit_shell(token, endpoint, &clone_cmd, now)
            }
            (Phase::Command, Command::Shell(cmd)) => cloud.submit_shell(token, endpoint, cmd, now),
            (Phase::Command, Command::Function(fid, args)) => {
                cloud.submit_function(token, endpoint, *fid, args, now)
            }
            (Phase::Capture, _) => cloud.submit_shell(token, endpoint, "gc-capture-env", now),
        }
    }

    /// Go on to `phase`: submit its task now, from a fresh retry state.
    fn enter(&mut self, phase: Phase) -> Effect {
        self.phase = phase;
        self.rng = DetRng::seed_from_u64(self.jitter_seed.wrapping_add(phase as u64));
        self.attempt = 0;
        self.state = State::Submit;
        self.poll()
    }

    /// End the step with the result as it stands.
    fn done(&mut self) -> Effect {
        Effect::Done(std::mem::take(&mut self.result))
    }

    /// End the step on a non-retryable error: `stderr` is all it reports,
    /// beside the [`Infra`] mark and the task ids.
    fn fatal(&mut self, stderr: String) -> StepResult {
        let ended = std::mem::take(&mut self.result);
        StepResult {
            infra: ended.infra,
            tasks: ended.tasks,
            ..StepResult::fail(stderr)
        }
    }

    /// An infrastructure failure, `cause`, at `now`: fail over to the next
    /// sibling endpoint if there is one, then retry.
    fn fail_over(&mut self, cause: String, now: SimTime) -> Effect {
        if self.ep_idx + 1 < self.inputs.endpoints.len() {
            self.ep_idx += 1;
            self.cloud.lock().obs().inc("action.failovers");
            let (log, endpoint) = (&mut self.result.stdout, &self.inputs.endpoints[self.ep_idx]);
            let _ = writeln!(log, "Failing over to sibling endpoint {endpoint}");
        }
        self.retry(cause, now)
    }

    /// Submit the phase's task again once the backoff from `now` has
    /// passed, or skip the site when the retries are spent.
    fn retry(&mut self, cause: String, now: SimTime) -> Effect {
        self.attempt += 1;
        let max = self.inputs.max_retries;
        if self.attempt > max {
            self.cloud.lock().obs().inc("action.infra_failures");
            self.result.infra = Infra::Failed;
            self.result.stderr = format!(
                "infrastructure failure (site skipped): {cause}\n\
                 This failure reflects CI infrastructure, not the tests under evaluation."
            );
            let kind = FailureKind::Infrastructure.as_str();
            self.result.outputs.insert("failure_kind", kind.to_string());
            return self.done();
        }
        self.cloud.lock().obs().inc("action.retries");
        self.result.infra = Infra::Shaped;
        // Deterministic exponential backoff: base * 2^(attempt-1), jittered.
        let factor = (1u64 << (self.attempt - 1).min(16)) as f64 * self.rng.range_f64(0.8, 1.2);
        let delay = SimDuration::from_secs(self.inputs.retry_backoff_secs.max(1)).mul_f64(factor);
        let (log, attempt, secs) = (&mut self.result.stdout, self.attempt, delay.as_secs_f64());
        let _ = writeln!(
            log,
            "Infrastructure failure ({cause}); retry {attempt}/{max} in {secs:.1}s"
        );
        self.state = State::Submit;
        Effect::At(now + delay)
    }

    /// The clone or the command returned `out`: go on, or end the step.
    fn completed(&mut self, out: TaskOutput) -> Effect {
        self.result.stdout.push_str(&out.stdout);
        if self.phase == Phase::Clone {
            if !out.success() {
                // Clone failure fails the workflow step (§5.3).
                self.result.stderr = format!("Error: repository clone failed\n{}", out.stderr);
                return self.done();
            }
            self.result.stdout.push('\n');
            return self.enter(Phase::Command);
        }
        // 5. Propagate outputs; the step fails when the function failed.
        // The task's texts are shared: each owned copy is made here.
        self.result.success = out.success();
        self.result.stderr = out.stderr.to_string();
        let outputs = &mut self.result.outputs;
        *outputs = Outputs::with_capacity(5);
        outputs.insert(
            "runtime_secs",
            format!("{:.6}", out.runtime().as_secs_f64()),
        );
        outputs.insert("ran_as", out.ran_as.as_str().to_string());
        outputs.insert("node", out.node.as_str().to_string());
        outputs.insert("stdout", out.stdout.to_string());
        outputs.insert("stderr", out.stderr.to_string());
        if self.inputs.capture_environment {
            // 6. Optional provenance capture.
            return self.enter(Phase::Capture);
        }
        self.done()
    }
}

impl Step for Session {
    fn poll(&mut self) -> Effect {
        match self.state {
            State::Bootstrap(until) => {
                self.state = State::Auth;
                Effect::At(until)
            }
            State::Auth => {
                if let Err(e) = self.authenticate() {
                    let failed = format!("Error: Globus authentication failed: {e}");
                    return Effect::Done(StepResult::fail(failed));
                }
                let log = &mut self.result.stdout;
                log.push_str("Authenticated with Globus Auth (scope compute.api)\n");
                self.state = State::Submit;
                self.poll()
            }
            State::Submit => {
                let (submitted, now) = {
                    let mut cloud = self.cloud.lock();
                    let now = cloud.now();
                    (self.submit(&mut cloud, now), now)
                };
                match submitted {
                    Ok(task) => {
                        self.result.tasks.push(task.0);
                        self.state = State::Waiting(task);
                        self.poll()
                    }
                    Err(_) if self.phase == Phase::Capture => self.done(),
                    Err(FaasError::Auth(AuthError::InvalidToken)) => {
                        // Token expired mid-run: refresh and retry (§5.3's
                        // client-credentials grant is repeatable).
                        let log = &mut self.result.stdout;
                        log.push_str("Access token rejected mid-run; re-authenticating\n");
                        if let Err(e) = self.authenticate() {
                            let failed = format!("Error: re-authentication failed: {e}");
                            return Effect::Done(self.fatal(failed));
                        }
                        self.cloud.lock().obs().inc("action.token_refreshes");
                        self.retry("expired access token (refreshed)".to_string(), now)
                    }
                    Err(e) if e.is_infrastructure() => self.fail_over(e.to_string(), now),
                    Err(e) => {
                        let label = match self.phase {
                            Phase::Clone => "clone submission",
                            _ => "task submission",
                        };
                        Effect::Done(self.fatal(format!("Error: {label}: {e}")))
                    }
                }
            }
            State::Waiting(task) => {
                let (finished, now) = {
                    let cloud = self.cloud.lock();
                    match cloud.task_result(task) {
                        Err(FaasError::NotFinished(_)) => return Effect::Event,
                        finished => (finished.cloned(), cloud.now()),
                    }
                };
                match finished {
                    Ok(cap) if self.phase == Phase::Capture => {
                        if cap.success() {
                            self.result = std::mem::take(&mut self.result)
                                .with_artifact("environment.txt", cap.stdout.as_str());
                        }
                        self.done()
                    }
                    Err(_) if self.phase == Phase::Capture => self.done(),
                    Ok(out) if out.result == Err(TaskFailure::WorkerCrashed) => {
                        self.fail_over(out.stderr.to_string(), now)
                    }
                    Ok(out) => self.completed(out),
                    Err(e) if e.is_infrastructure() => self.fail_over(format!("Error: {e}"), now),
                    Err(e) => Effect::Done(self.fatal(format!("Error: {e}"))),
                }
            }
        }
    }

    /// The world went quiet with the phase's task in flight: nothing will
    /// ever complete it. The capture never flips the step, so it ends with
    /// the command's result.
    fn quiet(&mut self) -> StepResult {
        match self.state {
            State::Waiting(task) if self.phase != Phase::Capture => self.fatal(format!(
                "Error: federation made no progress while waiting for {task}"
            )),
            _ => std::mem::take(&mut self.result),
        }
    }
}

impl Action for CorrectAction {
    fn start(&self, ctx: StepContext) -> Box<dyn Step> {
        let inputs = match CorrectInputs::parse(&ctx.inputs) {
            Ok(i) => i,
            Err(e) => return Box::new(StepResult::fail(e)),
        };
        // 1. Runner bootstrap: the SDK is not on the hosted VM image. The
        // preamble, clone report and a test summary fit without regrowing;
        // the engine trims what is left over when it stores the log.
        let mut log = String::with_capacity(512);
        log.push_str("Checking for globus-compute-sdk on runner... not found\n");
        log.push_str("pip install globus-compute-sdk ... done\n");
        // FNV-1a over "{commit}:{endpoint}", hashed as it is written.
        let mut jitter = Fnv::default();
        for part in [&*ctx.commit, ":", &inputs.endpoints[0].0] {
            let _ = jitter.write_str(part);
        }
        let jitter_seed = jitter.0;
        let phase = if inputs.skip_clone {
            Phase::Command
        } else {
            Phase::Clone
        };
        Box::new(Session {
            cloud: self.cloud.clone(),
            inputs,
            repo: ctx.repo,
            state: State::Bootstrap(ctx.started + SimDuration::from_secs(12)),
            phase,
            token: None,
            ep_idx: 0,
            jitter_seed,
            rng: DetRng::seed_from_u64(jitter_seed.wrapping_add(phase as u64)),
            attempt: 0,
            result: StepResult {
                stdout: log,
                // Room for the common clone-plus-command step in one
                // allocation.
                tasks: Vec::with_capacity(2),
                ..StepResult::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    // The action's behaviour is exercised end-to-end through the Federation
    // in `tests/` (it needs hosting, sites and endpoints wired together);
    // unit tests here cover the pieces that do not need the world.
    use super::*;
    use hpcci_auth::AuthService;
    use std::collections::BTreeMap;

    /// Start a CORRECT step on `inputs` against a cloud with no endpoints
    /// and poll it to its end; the world never moves, so it must not wait
    /// on an event.
    fn run_bare(inputs: &[(&str, &str)]) -> StepResult {
        let auth = Arc::new(Mutex::new(AuthService::new()));
        let action = CorrectAction::new(Arc::new(Mutex::new(CloudService::new(auth))));
        let inputs: BTreeMap<String, String> = inputs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut step = action.start(StepContext {
            repo: "o/r".into(),
            commit: "c".into(),
            inputs: Arc::new(inputs),
            started: SimTime::ZERO,
        });
        loop {
            match step.poll() {
                Effect::Done(r) => return r,
                Effect::At(_) => {}
                Effect::Event => panic!("a bare cloud has no task to wait on"),
            }
        }
    }

    #[test]
    fn schema_violation_fails_fast() {
        let r = run_bare(&[]);
        assert!(!r.success);
        assert!(r.stderr.contains("client_id"));
    }

    #[test]
    fn bad_credentials_fail_with_auth_error() {
        let r = run_bare(&[
            ("client_id", "client-000001"),
            ("client_secret", "wrong"),
            ("endpoint_uuid", "ep"),
            ("shell_cmd", "tox"),
        ]);
        assert!(!r.success);
        assert!(r.stderr.contains("authentication failed"), "{}", r.stderr);
    }
}
