//! Site-side execution: runtimes, command registries, task environments.
//!
//! A [`SiteRuntime`] wraps a [`hpcci_cluster::Site`] with the pieces needed
//! to execute tasks: an optional batch scheduler and a registry of command
//! handlers. Application crates install their commands (`pytest`, `git`,
//! `tox`, artifact scripts) into the registry — the analogue of installing
//! software into the site's Conda environment.
//!
//! Handlers receive a [`TaskEnv`]: the site opened with the credentials of
//! the *mapped local user*, on a *specific node role* — so filesystem
//! permission checks and network policy apply exactly as they would on the
//! real system.

use hpcci_cluster::{Cred, NetworkZone, NodeRole, Site, UserAccount, WorkUnits};
use hpcci_scheduler::BatchScheduler;
use hpcci_sim::{DetRng, SimTime, Sym};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What executing a command produced, plus its simulated cost.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Shared text: a handler that prints the same text for every task
    /// hands each task a handle to it, not a copy.
    pub stdout: Sym,
    pub stderr: Sym,
    /// The verdict: `Err` carries the failure message. A command returns
    /// nothing else; what it has to say is in stdout and stderr.
    pub result: Result<(), String>,
    /// Cost in reference-seconds, converted to virtual time by the site's
    /// performance model.
    pub work: WorkUnits,
}

impl ExecOutcome {
    pub fn ok(stdout: impl Into<Sym>, work: f64) -> ExecOutcome {
        ExecOutcome {
            stdout: stdout.into(),
            stderr: Sym::Static(""),
            result: Ok(()),
            work: WorkUnits::secs(work),
        }
    }

    pub fn fail(stderr: impl Into<Sym>, work: f64) -> ExecOutcome {
        let stderr = stderr.into();
        ExecOutcome {
            stdout: Sym::Static(""),
            result: Err(stderr.to_string()),
            stderr,
            work: WorkUnits::secs(work),
        }
    }

    pub fn with_stdout(mut self, stdout: impl Into<Sym>) -> ExecOutcome {
        self.stdout = stdout.into();
        self
    }
}

/// The environment a command handler executes in.
pub struct TaskEnv<'a> {
    /// The site, for filesystem / env / image access.
    pub site: &'a mut Site,
    /// Credentials of the mapped local user — every fs call must use these.
    pub cred: &'a Cred,
    /// The local account (home/scratch paths, allocation).
    pub account: &'a UserAccount,
    /// Role of the node the worker runs on.
    pub role: NodeRole,
    /// Hostname of the executing node.
    pub node: &'a str,
    /// Full command line (first token selected the handler).
    pub command: &'a str,
    /// Virtual time at execution start.
    pub now: SimTime,
    /// Deterministic randomness for the handler.
    pub rng: &'a mut DetRng,
    /// Container image reference the worker runs in, if any.
    pub container: Option<&'a str>,
}

impl TaskEnv<'_> {
    /// Can this worker reach the public internet? (Compute nodes on
    /// FASTER/Expanse cannot — §6.1.)
    pub fn internet_allowed(&self) -> bool {
        self.site.network.allows(self.role, NetworkZone::Internet)
    }

    /// Arguments after the handler token.
    pub fn args(&self) -> &str {
        match self.command.split_once(char::is_whitespace) {
            Some((_, rest)) => rest.trim(),
            None => "",
        }
    }

    /// The working directory convention for CI clones: a temp dir in the
    /// user's scratch space (the paper's logs show
    /// `/anvil/scratch/x-vhayot/gc-action-temp/...`).
    pub fn clone_root(&self) -> String {
        self.account.scratch_sub(&["gc-action-temp"])
    }

    /// `<clone_root>/<repo_dir>`: where a clone of `repo_dir` lands.
    pub fn clone_dir(&self, repo_dir: &str) -> String {
        self.account.scratch_sub(&["gc-action-temp", repo_dir])
    }
}

/// A command handler. `Arc` so the registry can be cloned out before the
/// handler borrows the site mutably.
pub type CommandHandler = Arc<dyn Fn(&mut TaskEnv<'_>) -> ExecOutcome + Send + Sync>;

/// Named command handlers installed at a site.
#[derive(Default, Clone)]
pub struct CommandRegistry {
    handlers: BTreeMap<String, CommandHandler>,
}

impl CommandRegistry {
    pub fn new() -> Self {
        CommandRegistry::default()
    }

    pub fn register<F>(&mut self, name: &str, handler: F)
    where
        F: Fn(&mut TaskEnv<'_>) -> ExecOutcome + Send + Sync + 'static,
    {
        self.handlers.insert(name.to_string(), Arc::new(handler));
    }

    /// Resolve the handler for a command line (first whitespace token).
    pub fn resolve(&self, command: &str) -> Option<CommandHandler> {
        let first = command.split_whitespace().next()?;
        self.handlers.get(first).cloned()
    }

    pub fn names(&self) -> Vec<&str> {
        self.handlers.keys().map(String::as_str).collect()
    }
}

/// A site plus its execution machinery. The cloud holds each site's handle
/// once and lends the runtime to the endpoint it moves.
pub struct SiteRuntime {
    pub site: Site,
    /// Present on HPC sites, owned by the site. Workspace code reaches it
    /// through [`Self::scheduler_mut`]; the `Mutex` is only a shell.
    pub scheduler: Option<Mutex<BatchScheduler>>,
    pub commands: CommandRegistry,
}

impl SiteRuntime {
    pub fn new(site: Site) -> Self {
        SiteRuntime {
            site,
            scheduler: None,
            commands: CommandRegistry::new(),
        }
    }

    /// Attach a batch scheduler covering the site's compute nodes.
    pub fn with_scheduler(mut self, cores_per_node: u32) -> Self {
        let nodes: Vec<_> = self.site.compute_nodes().map(|n| n.id).collect();
        if !nodes.is_empty() {
            self.scheduler = Some(Mutex::new(BatchScheduler::with_compute_partition(
                nodes,
                cores_per_node,
            )));
        }
        self
    }

    /// The site's batch scheduler, if it has one: the one way in, so no
    /// workspace code locks it.
    pub fn scheduler_mut(&mut self) -> Option<&mut BatchScheduler> {
        self.scheduler.as_mut().map(Mutex::get_mut)
    }

    /// Execute `command` as `account` on a node with `role`. This is the
    /// single gate through which all task execution flows.
    ///
    /// The environment borrows the caller's account and credentials: the
    /// hot path (endpoint task start) caches both per endpoint, so a task
    /// execution performs no name allocations of its own.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &mut self,
        command: &str,
        account: &UserAccount,
        cred: &Cred,
        role: NodeRole,
        node: &str,
        now: SimTime,
        rng: &mut DetRng,
        container: Option<&str>,
    ) -> ExecOutcome {
        let Some(handler) = self.commands.resolve(command) else {
            let first = command.split_whitespace().next().unwrap_or("");
            return ExecOutcome::fail(format!("bash: {first}: command not found"), 0.01);
        };
        let mut env = TaskEnv {
            site: &mut self.site,
            cred,
            account,
            role,
            node,
            command,
            now,
            rng,
            container,
        };
        handler(&mut env)
    }
}

/// Convenient shared handle.
pub type SharedSite = Arc<Mutex<SiteRuntime>>;

/// Wrap a site runtime for sharing.
pub fn shared(runtime: SiteRuntime) -> SharedSite {
    Arc::new(Mutex::new(runtime))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcci_cluster::FileMode;

    fn runtime() -> SiteRuntime {
        let mut rt = SiteRuntime::new(Site::tamu_faster()).with_scheduler(64);
        rt.commands.register("echo", |env| {
            ExecOutcome::ok(env.args().to_string(), 0.01)
        });
        rt.commands.register("whoami", |env| {
            ExecOutcome::ok(env.account.username.clone(), 0.001)
        });
        rt.commands.register("netcheck", |env| {
            if env.internet_allowed() {
                ExecOutcome::ok("online", 0.01)
            } else {
                ExecOutcome::fail("no route to host", 0.01)
            }
        });
        rt.commands.register("touchfile", |env| {
            let path = format!("{}/marker", env.account.scratch());
            match env.site.fs.write(&path, env.cred, "x", FileMode::PRIVATE) {
                Ok(()) => ExecOutcome::ok(path, 0.01),
                Err(e) => ExecOutcome::fail(e.to_string(), 0.01),
            }
        });
        rt
    }

    fn run(rt: &mut SiteRuntime, cmd: &str, user: &str, role: NodeRole) -> ExecOutcome {
        let account = rt.site.account(user).unwrap().clone();
        let cred = Cred::of(&account);
        let mut rng = DetRng::seed_from_u64(1);
        rt.execute(cmd, &account, &cred, role, "test-node", SimTime::ZERO, &mut rng, None)
    }

    #[test]
    fn command_dispatch_and_args() {
        let mut rt = runtime();
        rt.site.add_account("alice", "proj");
        let out = run(&mut rt, "echo hello world", "alice", NodeRole::Login);
        assert!(out.result.is_ok());
        assert_eq!(out.stdout, "hello world");
    }

    #[test]
    fn unknown_command_fails_like_a_shell() {
        let mut rt = runtime();
        rt.site.add_account("alice", "proj");
        let out = run(&mut rt, "frobnicate --all", "alice", NodeRole::Login);
        assert!(out.result.is_err());
        assert!(out.stderr.contains("frobnicate: command not found"));
    }

    #[test]
    fn network_policy_visible_to_handlers() {
        let mut rt = runtime();
        rt.site.add_account("alice", "proj");
        // FASTER: login nodes online, compute nodes offline.
        assert!(run(&mut rt, "netcheck", "alice", NodeRole::Login).result.is_ok());
        assert!(run(&mut rt, "netcheck", "alice", NodeRole::Compute).result.is_err());
    }

    #[test]
    fn handlers_write_as_the_mapped_user() {
        let mut rt = runtime();
        rt.site.add_account("alice", "proj");
        let out = run(&mut rt, "touchfile", "alice", NodeRole::Compute);
        assert!(out.result.is_ok());
        assert_eq!(rt.site.fs.owner_of("/scratch/alice/marker").unwrap(), rt.site.account("alice").unwrap().uid);
    }

    #[test]
    fn whoami_reflects_account() {
        let mut rt = runtime();
        rt.site.add_account("x-vhayot", "CIS230030");
        let out = run(&mut rt, "whoami", "x-vhayot", NodeRole::Login);
        assert_eq!(out.stdout, "x-vhayot");
    }

    #[test]
    fn scheduler_attached_for_hpc_sites() {
        let rt = runtime();
        assert!(rt.scheduler.is_some());
        let cloud = SiteRuntime::new(Site::chameleon_tacc()).with_scheduler(64);
        assert!(cloud.scheduler.is_none(), "cloud site has no compute partition");
    }

    #[test]
    fn clone_root_convention() {
        let mut rt = runtime();
        rt.site.add_account("x-vhayot", "CIS230030");
        let account = rt.site.account("x-vhayot").unwrap().clone();
        let cred = Cred::of(&account);
        let mut rng = DetRng::seed_from_u64(1);
        let mut env = TaskEnv {
            site: &mut rt.site,
            cred: &cred,
            account: &account,
            role: NodeRole::Login,
            node: "n",
            command: "x",
            now: SimTime::ZERO,
            rng: &mut rng,
            container: None,
        };
        assert_eq!(env.clone_root(), "/scratch/x-vhayot/gc-action-temp");
        assert_eq!(env.clone_dir("demo"), "/scratch/x-vhayot/gc-action-temp/demo");
        let _ = &mut env;
    }
}
