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

use crate::inputs::CorrectInputs;
use hpcci_auth::{AccessToken, AuthError, ClientId, ClientSecret, Scope};
use hpcci_ci::{Action, FailureKind, Infra, Outputs, StepContext, StepResult, WorldDriver};
use hpcci_faas::{
    CloudService, EndpointId, FaasError, FunctionId, TaskFailure, TaskId, TaskOutput,
};
use hpcci_obs::Obs;
use hpcci_sim::{DetRng, Fnv, SimDuration, SimTime};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

/// The marketplace name the action registers under.
pub const CORRECT_ACTION_NAME: &str = "globus-labs/correct@v1";

/// FNV-1a over `"{a}:{b}"`, hashed as it is written: no joined string.
fn fnv_pair(a: &str, b: &str) -> u64 {
    let mut h = Fnv::default();
    for part in [a, ":", b] {
        let _ = h.write_str(part);
    }
    h.0
}

/// The action. Holds a handle to the FaaS cloud (the runner talks to the
/// cloud's REST API; it never reaches the site directly).
pub struct CorrectAction {
    cloud: Arc<Mutex<CloudService>>,
    obs: Obs,
}

impl CorrectAction {
    pub fn new(cloud: Arc<Mutex<CloudService>>) -> Self {
        CorrectAction {
            cloud,
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability handle (retry/failover/refresh counters).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Block until `task` finishes, advancing the virtual world. A rejected
    /// task is the error it was rejected with; `NotFinished` means the world
    /// quiesced first (nothing will ever complete the task).
    fn wait_for(
        &self,
        driver: &mut dyn WorldDriver,
        task: TaskId,
    ) -> Result<TaskOutput, FaasError> {
        loop {
            match self.cloud.lock().task_result(task) {
                Err(FaasError::NotFinished(_)) => {}
                finished => return finished.cloned(),
            }
            if !driver.step() {
                return Err(FaasError::NotFinished(task));
            }
        }
    }

    /// The client-credentials grant (§5.3): the step's first token, and a
    /// fresh one whenever the cloud rejects it mid-run.
    fn authenticate(
        &self,
        client_id: &ClientId,
        client_secret: &ClientSecret,
        now: SimTime,
    ) -> Result<AccessToken, AuthError> {
        let cloud = self.cloud.lock();
        let mut auth = cloud.auth().lock();
        auth.authenticate(client_id, client_secret, vec![Scope::compute_api()], now)
    }
}

/// One CORRECT step's session with the cloud: the credentials and the token
/// they granted, the endpoints in failover order and the one the step stands
/// on, the retry policy, and what the step has produced so far — its log,
/// its [`Infra`] mark and the ids of the tasks it submitted.
struct Session<'a> {
    action: &'a CorrectAction,
    client_id: ClientId,
    client_secret: ClientSecret,
    token: AccessToken,
    /// The primary endpoint plus any configured fallbacks for crash
    /// failover, in priority order. A failover holds for the rest of the
    /// step, so the command and the capture run where the clone did.
    endpoints: Vec<EndpointId>,
    ep_idx: usize,
    max_retries: u32,
    backoff: SimDuration,
    log: String,
    infra: Infra,
    tasks: Vec<u64>,
}

impl Session<'_> {
    /// End the step with `result`, carrying the session's [`Infra`] mark and
    /// task ids.
    fn end(&mut self, result: StepResult) -> StepResult {
        StepResult {
            infra: self.infra,
            tasks: std::mem::take(&mut self.tasks),
            ..result
        }
    }

    /// End the step on a non-retryable error: `stderr` is all it reports.
    fn fatal(&mut self, stderr: String) -> Box<StepResult> {
        Box::new(self.end(StepResult::fail(stderr)))
    }

    /// Submit a task and wait for it, retrying *infrastructure* failures with
    /// deterministic exponential backoff, failing over to sibling endpoints
    /// on crashes, and refreshing the bearer token when it expires mid-run.
    /// With no faults active this takes exactly the same path as a plain
    /// submit-and-wait: no sleeps, no log lines, no RNG draws that could
    /// perturb the simulation. What is infrastructure is decided by type —
    /// [`FaasError::is_infrastructure`], [`TaskFailure::WorkerCrashed`] —
    /// and every attempt past the first marks `infra` as shaped by it.
    ///
    /// The task's output, success *or* genuine test failure (never retried);
    /// or the step's result when it must end here: a non-retryable error
    /// (bad configuration, auth denial) with an empty stdout, or graceful
    /// degradation once every retry and fallback is spent — the site is
    /// skipped and the step reports an infrastructure failure, marked
    /// [`Infra::Failed`] and shown to the user as the `failure_kind` output
    /// (§2.1: CI must not confuse platform flakiness with code regressions).
    fn run<F>(
        &mut self,
        driver: &mut dyn WorldDriver,
        jitter_seed: u64,
        label: &str,
        submit: F,
    ) -> Result<TaskOutput, Box<StepResult>>
    where
        F: Fn(&mut CloudService, &AccessToken, &EndpointId, SimTime) -> Result<TaskId, FaasError>,
    {
        let obs = &self.action.obs;
        let mut rng = DetRng::seed_from_u64(jitter_seed);
        let mut last_infra = String::new();
        let mut attempt = 0u32;
        loop {
            if attempt > 0 {
                if attempt > self.max_retries {
                    obs.inc("action.infra_failures");
                    self.infra = Infra::Failed;
                    let skipped = StepResult {
                        success: false,
                        stdout: std::mem::take(&mut self.log),
                        stderr: format!(
                            "infrastructure failure (site skipped): {last_infra}\n\
                             This failure reflects CI infrastructure, not the tests under evaluation."
                        ),
                        ..StepResult::default()
                    }
                    .with_output("failure_kind", FailureKind::Infrastructure.as_str());
                    return Err(Box::new(self.end(skipped)));
                }
                obs.inc("action.retries");
                self.infra = Infra::Shaped;
                // Deterministic exponential backoff: base * 2^(attempt-1),
                // jittered from a stream seeded by commit+endpoint.
                let factor = (1u64 << (attempt - 1).min(16)) as f64 * rng.range_f64(0.8, 1.2);
                let delay = self.backoff.mul_f64(factor);
                self.log.push_str(&format!(
                    "Infrastructure failure ({last_infra}); retry {attempt}/{} in {:.1}s\n",
                    self.max_retries,
                    delay.as_secs_f64()
                ));
                driver.sleep(delay);
            }
            let submitted = {
                let mut cloud = self.action.cloud.lock();
                let now = cloud.now();
                submit(&mut cloud, &self.token, &self.endpoints[self.ep_idx], now)
            };
            last_infra = match submitted {
                Ok(task) => {
                    self.tasks.push(task.0);
                    match self.action.wait_for(driver, task) {
                        Ok(out) if out.result == Err(TaskFailure::WorkerCrashed) => out.stderr,
                        Ok(out) => return Ok(out),
                        Err(e) if e.is_infrastructure() => format!("Error: {e}"),
                        Err(FaasError::NotFinished(task)) => {
                            let e = format!(
                                "Error: federation made no progress while waiting for {task}"
                            );
                            return Err(self.fatal(e));
                        }
                        Err(e) => return Err(self.fatal(format!("Error: {e}"))),
                    }
                }
                Err(FaasError::Auth(AuthError::InvalidToken)) => {
                    // Token expired mid-run: refresh and retry (§5.3's
                    // client-credentials grant is repeatable).
                    self.log
                        .push_str("Access token rejected mid-run; re-authenticating\n");
                    let now = driver.now();
                    let refreshed =
                        self.action
                            .authenticate(&self.client_id, &self.client_secret, now);
                    match refreshed {
                        Ok(t) => {
                            obs.inc("action.token_refreshes");
                            self.token = t;
                            last_infra = "expired access token (refreshed)".to_string();
                            attempt += 1;
                            continue;
                        }
                        Err(e) => {
                            let e = format!("Error: re-authentication failed: {e}");
                            return Err(self.fatal(e));
                        }
                    }
                }
                Err(e) if e.is_infrastructure() => e.to_string(),
                Err(e) => return Err(self.fatal(format!("Error: {label}: {e}"))),
            };
            if self.ep_idx + 1 < self.endpoints.len() {
                self.ep_idx += 1;
                obs.inc("action.failovers");
                self.log.push_str(&format!(
                    "Failing over to sibling endpoint {}\n",
                    self.endpoints[self.ep_idx]
                ));
            }
            attempt += 1;
        }
    }
}

impl Action for CorrectAction {
    fn run(&self, ctx: &mut StepContext<'_>) -> StepResult {
        let inputs = match CorrectInputs::parse(&ctx.inputs) {
            Ok(i) => i,
            Err(e) => return StepResult::fail(e),
        };
        // Preamble, clone report and a test summary fit without regrowing;
        // the engine trims what is left over when it stores the log.
        let mut log = String::with_capacity(512);

        // 1. Runner bootstrap: the SDK is not on the hosted VM image.
        log.push_str("Checking for globus-compute-sdk on runner... not found\n");
        log.push_str("pip install globus-compute-sdk ... done\n");
        ctx.driver.sleep(SimDuration::from_secs(12));

        // 2. Authenticate with the client credentials. (Read the clock
        // before taking the cloud lock: the driver reads it through the
        // same mutex.)
        let client_id = ClientId(inputs.client_id.to_string());
        let client_secret = ClientSecret::new(inputs.client_secret);
        let token = match self.authenticate(&client_id, &client_secret, ctx.driver.now()) {
            Ok(t) => t,
            Err(e) => return StepResult::fail(format!("Error: Globus authentication failed: {e}")),
        };
        log.push_str("Authenticated with Globus Auth (scope compute.api)\n");

        let mut step = Session {
            action: self,
            client_id,
            client_secret,
            token,
            endpoints: std::iter::once(inputs.endpoint_uuid)
                .chain(inputs.fallback_endpoints.iter().copied())
                .map(|e| EndpointId(e.to_string()))
                .collect(),
            ep_idx: 0,
            max_retries: inputs.max_retries,
            backoff: SimDuration::from_secs(inputs.retry_backoff_secs.max(1)),
            log,
            infra: Infra::Untouched,
            // Room for the common clone-plus-command step in one allocation.
            tasks: Vec::with_capacity(2),
        };
        let jitter_seed = fnv_pair(&ctx.commit, inputs.endpoint_uuid);

        // 3. Clone the repository at the remote site.
        if !inputs.skip_clone {
            let clone_cmd = format!("git clone https://github.sim/{}.git", ctx.repo);
            let cloned = step.run(
                ctx.driver,
                jitter_seed,
                "clone submission",
                |cloud, token, endpoint, now| cloud.submit_shell(token, endpoint, &clone_cmd, now),
            );
            let out = match cloned {
                Ok(out) => out,
                Err(ended) => return *ended,
            };
            if !out.success() {
                // Clone failure fails the workflow step (§5.3).
                let result = StepResult {
                    success: false,
                    stdout: std::mem::take(&mut step.log) + &out.stdout,
                    stderr: format!("Error: repository clone failed\n{}", out.stderr),
                    ..StepResult::default()
                };
                return step.end(result);
            }
            step.log.push_str(&out.stdout);
            step.log.push('\n');
        }

        // 4. Invoke the user-specified function.
        let submitted = step.run(
            ctx.driver,
            jitter_seed.wrapping_add(1),
            "task submission",
            |cloud, token, endpoint, now| {
                if let Some(cmd) = inputs.shell_cmd {
                    let full = if inputs.args.is_empty() {
                        Cow::Borrowed(cmd)
                    } else {
                        Cow::Owned(format!("{cmd} {}", inputs.args))
                    };
                    cloud.submit_shell(token, endpoint, &full, now)
                } else {
                    let fid = FunctionId(inputs.function_uuid.expect("schema validated"));
                    cloud.submit_function(token, endpoint, fid, inputs.args, now)
                }
            },
        );
        let output = match submitted {
            Ok(o) => o,
            Err(ended) => return *ended,
        };

        // 5. Propagate outputs; step fails when the function failed. The
        // task's output is ours: the log becomes the step's stdout and the
        // task's strings move into the outputs map (one copy, for `stderr`).
        step.log.push_str(&output.stdout);
        let mut result = StepResult {
            success: output.success(),
            stdout: std::mem::take(&mut step.log),
            stderr: output.stderr.clone(),
            outputs: Outputs::with_capacity(5),
            ..StepResult::default()
        }
        .with_output(
            "runtime_secs",
            format!("{:.6}", output.runtime().as_secs_f64()),
        )
        .with_output("ran_as", output.ran_as.as_str())
        .with_output("node", output.node.as_str())
        .with_output("stdout", output.stdout)
        .with_output("stderr", output.stderr);

        // 6. Optional provenance capture (never flips the step's outcome).
        if inputs.capture_environment {
            let capture_task = {
                let mut cloud = self.cloud.lock();
                let now = cloud.now();
                cloud.submit_shell(
                    &step.token,
                    &step.endpoints[step.ep_idx],
                    "gc-capture-env",
                    now,
                )
            };
            if let Ok(t) = capture_task {
                step.tasks.push(t.0);
                if let Ok(cap) = self.wait_for(ctx.driver, t) {
                    if cap.success() {
                        result = result.with_artifact("environment.txt", &cap.stdout);
                    }
                }
            }
        }
        step.end(result)
    }
}

#[cfg(test)]
mod tests {
    // The action's behaviour is exercised end-to-end through the Federation
    // in `tests/` (it needs hosting, sites and endpoints wired together);
    // unit tests here cover the pieces that do not need the world.
    use super::*;
    use hpcci_auth::AuthService;
    use hpcci_ci::action::NullDriver;
    use std::collections::BTreeMap;

    fn bare_action() -> CorrectAction {
        let auth = Arc::new(Mutex::new(AuthService::new()));
        CorrectAction::new(Arc::new(Mutex::new(CloudService::new(auth))))
    }

    #[test]
    fn schema_violation_fails_fast() {
        let action = bare_action();
        let mut driver = NullDriver::new();
        let mut ctx = StepContext {
            repo: "o/r".into(),
            branch: "main".into(),
            commit: "c".into(),
            inputs: Default::default(),
            env: Default::default(),
            driver: &mut driver,
        };
        let r = action.run(&mut ctx);
        assert!(!r.success);
        assert!(r.stderr.contains("client_id"));
    }

    #[test]
    fn bad_credentials_fail_with_auth_error() {
        let action = bare_action();
        let mut driver = NullDriver::new();
        let inputs: BTreeMap<String, String> = [
            ("client_id", "client-000001"),
            ("client_secret", "wrong"),
            ("endpoint_uuid", "ep"),
            ("shell_cmd", "tox"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        let mut ctx = StepContext {
            repo: "o/r".into(),
            branch: "main".into(),
            commit: "c".into(),
            inputs: Arc::new(inputs),
            env: Default::default(),
            driver: &mut driver,
        };
        let r = action.run(&mut ctx);
        assert!(!r.success);
        assert!(r.stderr.contains("authentication failed"), "{}", r.stderr);
    }
}
