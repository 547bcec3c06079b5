//! Workflow definitions: the in-memory equivalent of the YAML files of §4.1.

use std::borrow::Cow;
use std::collections::BTreeMap;

/// Events that can trigger a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriggerEvent {
    /// `on: push` — optionally restricted to specific branches.
    Push { branches: Vec<String> },
    /// `on: pull_request`.
    PullRequest,
    /// `on: schedule` — fire every `period_secs` of virtual time.
    Schedule { period_secs: u64 },
    /// `on: workflow_dispatch` — manual trigger.
    WorkflowDispatch,
}

impl TriggerEvent {
    pub fn push_any() -> TriggerEvent {
        TriggerEvent::Push { branches: Vec::new() }
    }

    pub fn push_to(branch: &str) -> TriggerEvent {
        TriggerEvent::Push {
            branches: vec![branch.to_string()],
        }
    }

    /// Does this trigger match a push to `branch`?
    pub fn matches_push(&self, branch: &str) -> bool {
        match self {
            TriggerEvent::Push { branches } => {
                branches.is_empty() || branches.iter().any(|b| b == branch)
            }
            _ => false,
        }
    }
}

/// What one step does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepAction {
    /// `run:` — a shell command executed on the runner itself.
    Run { command: String },
    /// `uses:` — a marketplace or custom action with `with:` inputs.
    /// Input values may interpolate `${{ secrets.NAME }}` and `${{ env.NAME }}`.
    Uses {
        action: String,
        with: BTreeMap<String, String>,
    },
    /// `actions/upload-artifact` modelled first-class: store a prior step's
    /// stdout (or a named output) as a persistent artifact.
    UploadArtifact { name: String, from_step: String },
}

/// A [`StepAction`] with every placeholder substituted: what would actually
/// run. Built where the engine absorbs a job's step keys (which also reads
/// the stack-fingerprint lookup off it) and where a step executes — a cache
/// hit builds none. Text with no placeholder stays a borrow of the
/// definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedAction<'a> {
    Run {
        command: Cow<'a, str>,
    },
    /// `with` keeps the definition's key order.
    Uses {
        action: &'a str,
        with: Vec<(&'a str, Cow<'a, str>)>,
    },
    UploadArtifact {
        name: &'a str,
        from_step: &'a str,
    },
}

impl StepAction {
    pub fn resolve<'a>(
        &'a self,
        secrets: &BTreeMap<String, String>,
        env: &BTreeMap<String, String>,
    ) -> ResolvedAction<'a> {
        match self {
            StepAction::Run { command } => ResolvedAction::Run {
                command: interpolate_cow(command, secrets, env),
            },
            StepAction::Uses { action, with } => ResolvedAction::Uses {
                action,
                with: with
                    .iter()
                    .map(|(k, v)| (k.as_str(), interpolate_cow(v, secrets, env)))
                    .collect(),
            },
            StepAction::UploadArtifact { name, from_step } => {
                ResolvedAction::UploadArtifact { name, from_step }
            }
        }
    }
}

impl ResolvedAction<'_> {
    /// A resolved `with:` input of a `uses:` step.
    pub fn input(&self, key: &str) -> Option<&str> {
        match self {
            ResolvedAction::Uses { with, .. } => with
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.as_ref()),
            _ => None,
        }
    }
}

/// One step in a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepDef {
    /// Step id, referenced by `UploadArtifact::from_step` and outputs.
    pub id: String,
    pub name: String,
    pub action: StepAction,
    /// If true the job continues even when this step fails
    /// (`continue-on-error`). CORRECT's §6.2 setup uploads stdout/stderr
    /// artifacts "regardless of whether the tests pass or fail".
    pub continue_on_error: bool,
}

impl StepDef {
    pub fn run(id: &str, command: &str) -> StepDef {
        StepDef {
            id: id.to_string(),
            name: id.to_string(),
            action: StepAction::Run {
                command: command.to_string(),
            },
            continue_on_error: false,
        }
    }

    pub fn uses(id: &str, action: &str, with: &[(&str, &str)]) -> StepDef {
        StepDef {
            id: id.to_string(),
            name: id.to_string(),
            action: StepAction::Uses {
                action: action.to_string(),
                with: with
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            },
            continue_on_error: false,
        }
    }

    pub fn upload_artifact(id: &str, name: &str, from_step: &str) -> StepDef {
        StepDef {
            id: id.to_string(),
            name: format!("upload {name}"),
            action: StepAction::UploadArtifact {
                name: name.to_string(),
                from_step: from_step.to_string(),
            },
            continue_on_error: false,
        }
    }

    pub fn allow_failure(mut self) -> StepDef {
        self.continue_on_error = true;
        self
    }
}

/// Runner selection for a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunsOn {
    /// A GitHub-hosted VM label, e.g. `"ubuntu-latest"`.
    Hosted(String),
    /// A self-hosted runner registered for the named site.
    SelfHosted { site: String },
}

/// One job in a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDef {
    pub id: String,
    pub runs_on: RunsOn,
    /// Deployment environment gating this job (approval + scoped secrets).
    pub environment: Option<String>,
    /// Jobs that must succeed first.
    pub needs: Vec<String>,
    pub steps: Vec<StepDef>,
}

impl JobDef {
    pub fn new(id: &str) -> JobDef {
        JobDef {
            id: id.to_string(),
            runs_on: RunsOn::Hosted("ubuntu-latest".to_string()),
            environment: None,
            needs: Vec::new(),
            steps: Vec::new(),
        }
    }

    pub fn with_environment(mut self, env: &str) -> JobDef {
        self.environment = Some(env.to_string());
        self
    }

    pub fn with_needs(mut self, needs: &[&str]) -> JobDef {
        self.needs = needs.iter().map(|s| s.to_string()).collect();
        self
    }

    pub fn with_step(mut self, step: StepDef) -> JobDef {
        self.steps.push(step);
        self
    }
}

/// A complete workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkflowDef {
    pub name: String,
    pub on: Vec<TriggerEvent>,
    pub jobs: Vec<JobDef>,
}

impl WorkflowDef {
    pub fn new(name: &str) -> WorkflowDef {
        WorkflowDef {
            name: name.to_string(),
            on: Vec::new(),
            jobs: Vec::new(),
        }
    }

    pub fn on_event(mut self, t: TriggerEvent) -> WorkflowDef {
        self.on.push(t);
        self
    }

    pub fn with_job(mut self, job: JobDef) -> WorkflowDef {
        self.jobs.push(job);
        self
    }

    /// Validate `needs` references and produce a topological job order.
    /// Deterministic: ready jobs run in definition order.
    pub fn job_order(&self) -> Result<Vec<&JobDef>, (String, String)> {
        let ids: Vec<&str> = self.jobs.iter().map(|j| j.id.as_str()).collect();
        for j in &self.jobs {
            for n in &j.needs {
                if !ids.contains(&n.as_str()) {
                    return Err((j.id.clone(), n.clone()));
                }
            }
        }
        let mut done: Vec<&str> = Vec::new();
        let mut order: Vec<&JobDef> = Vec::new();
        while order.len() < self.jobs.len() {
            let before = order.len();
            for j in &self.jobs {
                if done.contains(&j.id.as_str()) {
                    continue;
                }
                if j.needs.iter().all(|n| done.contains(&n.as_str())) {
                    done.push(&j.id);
                    order.push(j);
                }
            }
            if order.len() == before {
                // Dependency cycle: report the first unresolved job.
                let stuck = self
                    .jobs
                    .iter()
                    .find(|j| !done.contains(&j.id.as_str()))
                    .expect("at least one unresolved");
                return Err((stuck.id.clone(), stuck.needs.join(",")));
            }
        }
        Ok(order)
    }
}

/// Interpolate `${{ secrets.X }}` and `${{ env.X }}` placeholders.
/// Unknown references resolve to an empty string, matching GitHub behaviour.
pub fn interpolate(
    template: &str,
    secrets: &BTreeMap<String, String>,
    env: &BTreeMap<String, String>,
) -> String {
    interpolate_cow(template, secrets, env).into_owned()
}

/// [`interpolate`] without the unconditional allocation: templates with no
/// `${{` placeholder — the overwhelming majority of step commands on the
/// run-execution path — are returned as a borrow. Only templates that
/// actually substitute build a fresh `String`.
pub fn interpolate_cow<'a>(
    template: &'a str,
    secrets: &BTreeMap<String, String>,
    env: &BTreeMap<String, String>,
) -> Cow<'a, str> {
    if !template.contains("${{") {
        return Cow::Borrowed(template);
    }
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    while let Some(start) = rest.find("${{") {
        out.push_str(&rest[..start]);
        let after = &rest[start + 3..];
        let Some(end) = after.find("}}") else {
            out.push_str(&rest[start..]);
            return Cow::Owned(out);
        };
        let expr = after[..end].trim();
        if let Some(name) = expr.strip_prefix("secrets.") {
            if let Some(v) = secrets.get(name) {
                out.push_str(v);
            }
        } else if let Some(name) = expr.strip_prefix("env.") {
            if let Some(v) = env.get(name) {
                out.push_str(v);
            }
        }
        rest = &after[end + 2..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_matching() {
        assert!(TriggerEvent::push_any().matches_push("anything"));
        assert!(TriggerEvent::push_to("main").matches_push("main"));
        assert!(!TriggerEvent::push_to("main").matches_push("dev"));
        assert!(!TriggerEvent::PullRequest.matches_push("main"));
    }

    #[test]
    fn job_order_respects_needs() {
        let wf = WorkflowDef::new("w")
            .with_job(JobDef::new("deploy").with_needs(&["test"]))
            .with_job(JobDef::new("test").with_needs(&["build"]))
            .with_job(JobDef::new("build"));
        let order: Vec<&str> = wf.job_order().unwrap().iter().map(|j| j.id.as_str()).collect();
        assert_eq!(order, vec!["build", "test", "deploy"]);
    }

    #[test]
    fn job_order_rejects_unknown_and_cycles() {
        let wf = WorkflowDef::new("w").with_job(JobDef::new("a").with_needs(&["ghost"]));
        assert_eq!(wf.job_order().unwrap_err(), ("a".to_string(), "ghost".to_string()));

        let cyc = WorkflowDef::new("w")
            .with_job(JobDef::new("a").with_needs(&["b"]))
            .with_job(JobDef::new("b").with_needs(&["a"]));
        assert!(cyc.job_order().is_err());
    }

    #[test]
    fn interpolation_resolves_secrets_and_env() {
        let secrets: BTreeMap<String, String> = [
            ("GLOBUS_ID".to_string(), "client-000001".to_string()),
            ("GLOBUS_SECRET".to_string(), "gcs-abc".to_string()),
        ]
        .into();
        let env: BTreeMap<String, String> =
            [("ENDPOINT_UUID".to_string(), "ep-42".to_string())].into();
        assert_eq!(
            interpolate("${{ secrets.GLOBUS_ID }}", &secrets, &env),
            "client-000001"
        );
        assert_eq!(
            interpolate("endpoint=${{ env.ENDPOINT_UUID }}!", &secrets, &env),
            "endpoint=ep-42!"
        );
        assert_eq!(interpolate("${{ secrets.NOPE }}", &secrets, &env), "");
        assert_eq!(interpolate("no placeholders", &secrets, &env), "no placeholders");
        // Unterminated placeholder passes through untouched.
        assert_eq!(interpolate("${{ secrets.X", &secrets, &env), "${{ secrets.X");
    }

    #[test]
    fn resolve_substitutes_once_and_borrows_the_rest() {
        let secrets: BTreeMap<String, String> =
            [("GLOBUS_ID".to_string(), "client-000001".to_string())].into();
        let env = BTreeMap::new();
        let step = StepDef::uses(
            "tox",
            "globus-labs/correct@v1",
            &[
                ("shell_cmd", "tox"),
                ("client_id", "${{ secrets.GLOBUS_ID }}"),
            ],
        );
        let resolved = step.action.resolve(&secrets, &env);
        assert_eq!(resolved.input("client_id"), Some("client-000001"));
        assert_eq!(resolved.input("missing"), None);
        match &resolved {
            ResolvedAction::Uses { action, with } => {
                assert_eq!(*action, "globus-labs/correct@v1");
                let keys: Vec<&str> = with.iter().map(|(k, _)| *k).collect();
                assert_eq!(
                    keys,
                    ["client_id", "shell_cmd"],
                    "the definition's key order"
                );
                assert!(matches!(with[1].1, Cow::Borrowed("tox")));
            }
            other => panic!("wrong action kind: {other:?}"),
        }
        let run = StepDef::run("s", "echo ${{ secrets.GLOBUS_ID }}");
        assert_eq!(
            run.action.resolve(&secrets, &env),
            ResolvedAction::Run {
                command: "echo client-000001".into()
            }
        );
        assert_eq!(run.action.resolve(&secrets, &env).input("anything"), None);
    }

    #[test]
    fn step_builders() {
        let s = StepDef::uses(
            "tox",
            "globus-labs/correct@v1",
            &[("client_id", "${{ secrets.GLOBUS_ID }}"), ("shell_cmd", "tox")],
        )
        .allow_failure();
        assert!(s.continue_on_error);
        match &s.action {
            StepAction::Uses { action, with } => {
                assert_eq!(action, "globus-labs/correct@v1");
                assert_eq!(with["shell_cmd"], "tox");
            }
            _ => panic!("wrong action kind"),
        }
    }
}
