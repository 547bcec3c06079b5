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
use hpcci_sim::{DetRng, SimDuration, SimTime};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::Arc;

/// The marketplace name the action registers under.
pub const CORRECT_ACTION_NAME: &str = "globus-labs/correct@v1";

/// FNV-1a over `"{a}:{b}"` without materializing the joined string. Byte
/// order matches the historical `fnv(&format!("{a}:{b}"))`, so jitter
/// streams (and therefore traces) are unchanged.
fn fnv_pair(a: &str, b: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in a.bytes().chain(std::iter::once(b':')).chain(b.bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Outcome of a resilient submit-and-wait cycle.
enum Attempted {
    /// The task reached a terminal output (success *or* genuine test
    /// failure — test failures are never retried).
    Done(TaskOutput),
    /// Non-retryable error (bad configuration, auth denial); fail the step
    /// exactly as the non-resilient path would.
    Fatal(String),
    /// Infrastructure failure that survived every retry and fallback.
    Infra(String),
}

fn note_failover(log: &mut String, endpoints: &[EndpointId], ep_idx: &mut usize, obs: &Obs) {
    if *ep_idx + 1 < endpoints.len() {
        *ep_idx += 1;
        obs.inc("action.failovers");
        log.push_str(&format!(
            "Failing over to sibling endpoint {}\n",
            endpoints[*ep_idx]
        ));
    }
}

/// Graceful degradation: the site is skipped and the step reports an
/// infrastructure failure, distinguishable from a test failure by the
/// [`Infra::Failed`] mark, shown to the user as the `failure_kind` output
/// (§2.1: CI must not confuse platform flakiness with code regressions).
fn infra_step_result(log: String, detail: &str) -> StepResult {
    StepResult {
        success: false,
        stdout: log,
        stderr: format!(
            "infrastructure failure (site skipped): {detail}\n\
             This failure reflects CI infrastructure, not the tests under evaluation."
        ),
        infra: Infra::Failed,
        ..StepResult::default()
    }
    .with_output("failure_kind", FailureKind::Infrastructure.as_str())
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

    /// Submit a task and wait for it, retrying *infrastructure* failures with
    /// deterministic exponential backoff, failing over to sibling endpoints
    /// on crashes, and refreshing the bearer token when it expires mid-run.
    /// With no faults active this takes exactly the same path as a plain
    /// submit-and-wait: no sleeps, no log lines, no RNG draws that could
    /// perturb the simulation. What is infrastructure is decided by type —
    /// [`FaasError::is_infrastructure`], [`TaskFailure::WorkerCrashed`] —
    /// and every attempt past the first marks `infra` as shaped by it.
    #[allow(clippy::too_many_arguments)]
    fn run_resilient<F>(
        &self,
        driver: &mut dyn WorldDriver,
        token: &mut AccessToken,
        creds: (&ClientId, &ClientSecret),
        endpoints: &[EndpointId],
        max_retries: u32,
        backoff: SimDuration,
        jitter_seed: u64,
        log: &mut String,
        infra: &mut Infra,
        label: &str,
        submit: F,
    ) -> Attempted
    where
        F: Fn(&mut CloudService, &AccessToken, &EndpointId, SimTime) -> Result<TaskId, FaasError>,
    {
        let mut rng = DetRng::seed_from_u64(jitter_seed);
        let mut ep_idx = 0usize;
        let mut last_infra = String::new();
        let mut attempt = 0u32;
        loop {
            if attempt > 0 {
                if attempt > max_retries {
                    self.obs.inc("action.infra_failures");
                    return Attempted::Infra(last_infra);
                }
                self.obs.inc("action.retries");
                *infra = Infra::Shaped;
                // Deterministic exponential backoff: base * 2^(attempt-1),
                // jittered from a stream seeded by commit+endpoint.
                let factor = (1u64 << (attempt - 1).min(16)) as f64 * rng.range_f64(0.8, 1.2);
                let delay = backoff.mul_f64(factor);
                log.push_str(&format!(
                    "Infrastructure failure ({last_infra}); retry {attempt}/{max_retries} in {:.1}s\n",
                    delay.as_secs_f64()
                ));
                driver.sleep(delay);
            }
            let endpoint = &endpoints[ep_idx];
            let submitted = {
                let mut cloud = self.cloud.lock();
                let now = cloud.now();
                submit(&mut cloud, token, endpoint, now)
            };
            let task = match submitted {
                Ok(t) => t,
                Err(FaasError::Auth(AuthError::InvalidToken)) => {
                    // Token expired mid-run: refresh and retry (§5.3's
                    // client-credentials grant is repeatable).
                    log.push_str("Access token rejected mid-run; re-authenticating\n");
                    let now = driver.now();
                    let refreshed = {
                        let cloud = self.cloud.lock();
                        let mut auth = cloud.auth().lock();
                        auth.authenticate(creds.0, creds.1, vec![Scope::compute_api()], now)
                    };
                    match refreshed {
                        Ok(t) => {
                            self.obs.inc("action.token_refreshes");
                            *token = t;
                            last_infra = "expired access token (refreshed)".to_string();
                            attempt += 1;
                            continue;
                        }
                        Err(e) => {
                            return Attempted::Fatal(format!(
                                "Error: re-authentication failed: {e}"
                            ))
                        }
                    }
                }
                Err(e) if e.is_infrastructure() => {
                    last_infra = e.to_string();
                    note_failover(log, endpoints, &mut ep_idx, &self.obs);
                    attempt += 1;
                    continue;
                }
                Err(e) => return Attempted::Fatal(format!("Error: {label}: {e}")),
            };
            last_infra = match self.wait_for(driver, task) {
                Ok(out) if out.result == Err(TaskFailure::WorkerCrashed) => out.stderr,
                // Success, or a genuine test failure: report it, never retry it.
                Ok(out) => return Attempted::Done(out),
                Err(e) if e.is_infrastructure() => format!("Error: {e}"),
                Err(FaasError::NotFinished(task)) => {
                    return Attempted::Fatal(format!(
                        "Error: federation made no progress while waiting for {task}"
                    ))
                }
                Err(e) => return Attempted::Fatal(format!("Error: {e}")),
            };
            note_failover(log, endpoints, &mut ep_idx, &self.obs);
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
        let mut infra = Infra::Untouched;

        // 1. Runner bootstrap: the SDK is not on the hosted VM image.
        log.push_str("Checking for globus-compute-sdk on runner... not found\n");
        log.push_str("pip install globus-compute-sdk ... done\n");
        ctx.driver.sleep(SimDuration::from_secs(12));

        // 2. Authenticate with the client credentials. (Read the clock
        // before taking the cloud lock: the driver reads it through the
        // same mutex.)
        let client_id = ClientId(inputs.client_id.to_string());
        let client_secret = ClientSecret::new(inputs.client_secret);
        let now = ctx.driver.now();
        let mut token = {
            let cloud = self.cloud.lock();
            let mut auth = cloud.auth().lock();
            match auth.authenticate(&client_id, &client_secret, vec![Scope::compute_api()], now) {
                Ok(t) => t,
                Err(e) => {
                    return StepResult::fail(format!("Error: Globus authentication failed: {e}"))
                }
            }
        };
        log.push_str("Authenticated with Globus Auth (scope compute.api)\n");

        // The primary endpoint plus any configured fallbacks for crash
        // failover, in priority order.
        let endpoints: Vec<EndpointId> = std::iter::once(inputs.endpoint_uuid)
            .chain(inputs.fallback_endpoints.iter().copied())
            .map(|e| EndpointId(e.to_string()))
            .collect();
        let backoff = SimDuration::from_secs(inputs.retry_backoff_secs.max(1));
        let jitter_seed = fnv_pair(&ctx.commit, inputs.endpoint_uuid);

        // 3. Clone the repository at the remote site.
        if !inputs.skip_clone {
            let clone_cmd = format!("git clone https://github.sim/{}.git", ctx.repo);
            match self.run_resilient(
                ctx.driver,
                &mut token,
                (&client_id, &client_secret),
                &endpoints,
                inputs.max_retries,
                backoff,
                jitter_seed,
                &mut log,
                &mut infra,
                "clone submission",
                |cloud, token, endpoint, now| cloud.submit_shell(token, endpoint, &clone_cmd, now),
            ) {
                Attempted::Done(out) if out.success() => {
                    log.push_str(&out.stdout);
                    log.push('\n');
                }
                Attempted::Done(out) => {
                    // Clone failure fails the workflow step (§5.3).
                    return StepResult {
                        success: false,
                        stdout: log + &out.stdout,
                        stderr: format!("Error: repository clone failed\n{}", out.stderr),
                        infra,
                        ..StepResult::default()
                    };
                }
                Attempted::Fatal(e) => return StepResult { infra, ..StepResult::fail(e) },
                Attempted::Infra(detail) => return infra_step_result(log, &detail),
            }
        }

        // 4. Invoke the user-specified function.
        let output = match self.run_resilient(
            ctx.driver,
            &mut token,
            (&client_id, &client_secret),
            &endpoints,
            inputs.max_retries,
            backoff,
            jitter_seed.wrapping_add(1),
            &mut log,
            &mut infra,
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
        ) {
            Attempted::Done(o) => o,
            Attempted::Fatal(e) => return StepResult { infra, ..StepResult::fail(e) },
            Attempted::Infra(detail) => return infra_step_result(log, &detail),
        };

        // 5. Propagate outputs; step fails when the function failed. The
        // task's output is ours: the log becomes the step's stdout and the
        // task's strings move into the outputs map (one copy, for `stderr`).
        log.push_str(&output.stdout);
        let mut result = StepResult {
            success: output.success(),
            stdout: log,
            stderr: output.stderr.clone(),
            outputs: Outputs::with_capacity(5),
            infra,
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
                cloud.submit_shell(&token, &endpoints[0], "gc-capture-env", now)
            };
            if let Ok(t) = capture_task {
                if let Ok(cap) = self.wait_for(ctx.driver, t) {
                    if cap.success() {
                        result = result.with_artifact("environment.txt", cap.stdout.clone());
                    }
                }
            }
        }
        result
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
