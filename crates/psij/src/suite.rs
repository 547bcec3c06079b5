//! The PSI/J CI test suite and its federation command handler.
//!
//! §6.2 runs "the recommended pytest command" on Purdue Anvil's login node
//! through CORRECT. The run in the paper *failed* — a dependency error in
//! the PSI/J codebase — and Fig. 5 shows exactly how the failure surfaced
//! (error in the Actions UI, full stdout in an artifact). We reproduce both
//! modes: with the site's `psij` environment complete the suite passes; with
//! a missing requirement the handler emits a Fig.-5-shaped failure.

use crate::executor::{JobExecutor, PsijJobState};
use crate::spec::PsijJobSpec;
use hpcci_cluster::{NodeId, Uid};
use hpcci_faas::{CommandRegistry, ExecOutcome};
use hpcci_scheduler::BatchScheduler;
use hpcci_sim::{SimDuration, SimTime};

/// Requirements the suite needs installed (PSI/J's `requirements.txt`).
pub fn required_packages() -> Vec<&'static str> {
    vec!["psutil>=5.9", "pystache>=0.6.0", "typeguard>=3.0.1"]
}

/// Outcome of one suite test.
#[derive(Debug, Clone, PartialEq)]
pub struct PsijTestOutcome {
    pub name: &'static str,
    pub passed: bool,
    pub ref_secs: f64,
}

/// Run the executor test suite against a (possibly absent) scheduler it
/// borrows for the call. These are real tests of the real executor code.
pub fn run_psij_suite(scheduler: Option<&mut BatchScheduler>) -> Vec<PsijTestOutcome> {
    let mut outcomes = Vec::new();
    let mut push = |name: &'static str, passed: bool, ref_secs: f64| {
        outcomes.push(PsijTestOutcome { name, passed, ref_secs });
    };

    // --- local executor tests (always runnable) ---
    {
        let mut ex = JobExecutor::local();
        let h = ex
            .submit(
                &PsijJobSpec::new("t", "/bin/date").running_for(SimDuration::from_secs(2)),
                SimTime::ZERO,
            )
            .unwrap();
        let ok = matches!(
            ex.wait(h, SimTime::ZERO, SimDuration::from_mins(1)),
            Ok((PsijJobState::Completed, _))
        );
        push("test_local_submit_wait", ok, 2.5);
    }
    {
        let mut ex = JobExecutor::local();
        let h = ex
            .submit(
                &PsijJobSpec::new("f", "/bin/false")
                    .failing()
                    .running_for(SimDuration::from_secs(1)),
                SimTime::ZERO,
            )
            .unwrap();
        let ok = matches!(
            ex.wait(h, SimTime::ZERO, SimDuration::from_mins(1)),
            Ok((PsijJobState::Failed, _))
        );
        push("test_local_failure_detected", ok, 1.5);
    }
    {
        let mut ex = JobExecutor::local();
        let h = ex
            .submit(
                &PsijJobSpec::new("c", "/bin/sleep").running_for(SimDuration::from_secs(60)),
                SimTime::ZERO,
            )
            .unwrap();
        let cancel_ok = ex.cancel(h, SimTime::from_secs(1)).is_ok();
        let state_ok = ex.state(h, SimTime::from_secs(2)) == Ok(PsijJobState::Canceled);
        push("test_local_cancel", cancel_ok && state_ok, 1.0);
    }

    // --- batch executor tests (need a scheduler) ---
    // A submission the scheduler refuses (a site with no cores to give) is
    // a failed test, like a missing scheduler.
    match scheduler {
        Some(sched) => {
            {
                let mut ex = JobExecutor::slurm(&mut *sched, Uid(9001), "ci-alloc");
                let spec = PsijJobSpec::new("b", "hostname").running_for(SimDuration::from_secs(3));
                let ok = ex.submit(&spec, SimTime::ZERO).is_ok_and(|h| {
                    matches!(
                        ex.wait(h, SimTime::ZERO, SimDuration::from_mins(5)),
                        Ok((PsijJobState::Completed, _))
                    )
                });
                push("test_batch_submit_wait", ok, 6.0);
            }
            {
                let mut ex = JobExecutor::slurm(&mut *sched, Uid(9001), "ci-alloc");
                let spec = PsijJobSpec::new("w", "burn")
                    .with_duration(SimDuration::from_secs(5))
                    .running_for(SimDuration::from_secs(60));
                let ok = ex.submit(&spec, SimTime::ZERO).is_ok_and(|h| {
                    matches!(
                        ex.wait(h, SimTime::ZERO, SimDuration::from_mins(5)),
                        Ok((PsijJobState::Failed, _))
                    )
                });
                push("test_batch_walltime", ok, 8.0);
            }
            {
                let mut ex = JobExecutor::slurm(sched, Uid(9001), "ci-alloc");
                let spec = PsijJobSpec::new("c", "burn").running_for(SimDuration::from_secs(60));
                let ok = ex.submit(&spec, SimTime::ZERO).is_ok_and(|h| {
                    ex.cancel(h, SimTime::from_secs(1)).is_ok()
                        && ex.state(h, SimTime::from_secs(2)) == Ok(PsijJobState::Canceled)
                });
                push("test_batch_cancel", ok, 4.0);
            }
        }
        None => {
            push("test_batch_submit_wait", false, 0.1);
            push("test_batch_walltime", false, 0.1);
            push("test_batch_cancel", false, 0.1);
        }
    }
    outcomes
}

/// Install the PSI/J `pytest` handler at a site. The handler first resolves
/// the suite's requirements against the named software environment — a
/// missing requirement reproduces Fig. 5's collection error — then runs the
/// real executor tests on a scheduler of its own over the site's compute
/// nodes, `cores_per_node` cores each. It is fresh for every run: the suite
/// submits and waits from time zero, so a scheduler earlier runs had moved
/// on would make it miss its deadlines, and the site's own scheduler belongs
/// to the site's pilots.
pub fn install_psij_pytest(commands: &mut CommandRegistry, env_name: &str, cores_per_node: u32) {
    let env_name = env_name.to_string();
    commands.register("pytest", move |env| {
        // Dependency resolution (pip install -r requirements.txt).
        let mut stdout = String::new();
        match env.site.envs.get(&env_name) {
            Ok(software) => {
                for (line, req) in required_packages().iter().enumerate() {
                    if software.satisfies(req) {
                        stdout.push_str(&format!(
                            "Requirement already satisfied: {req} in /home/{}/miniconda3/envs/{}/lib/python3.12/site-packages (from -r requirements.txt (line {}))\n",
                            env.account.username,
                            env_name,
                            line + 1
                        ));
                    } else {
                        // Fig. 5's failure shape: the error is reported back to
                        // the runner and the full output is preserved.
                        stdout.push_str(&format!(
                            "ERROR: Could not find a version that satisfies the requirement {req} (from -r requirements.txt (line {}))\n",
                            line + 1
                        ));
                        let stderr = format!(
                            "ERROR: No matching distribution found for {req}\nFAILED tests/ - collection error: dependency resolution failed"
                        );
                        return ExecOutcome::fail(stderr, 3.0).with_stdout(stdout);
                    }
                }
            }
            Err(_) => {
                return ExecOutcome::fail(
                    format!("conda: environment `{env_name}` not found"),
                    0.5,
                );
            }
        }

        // Run the real suite; a site without compute nodes has no scheduler.
        let nodes: Vec<NodeId> = env.site.compute_nodes().map(|n| n.id).collect();
        let mut scheduler = (!nodes.is_empty())
            .then(|| BatchScheduler::with_compute_partition(nodes, cores_per_node));
        let outcomes = run_psij_suite(scheduler.as_mut());
        let mut total_work = 2.0; // collection + fixtures
        let (mut passed, mut failed) = (0, 0);
        stdout.push_str("\n============================= test session starts ==============================\n");
        for o in &outcomes {
            total_work += o.ref_secs;
            if o.passed {
                passed += 1;
                stdout.push_str(&format!("tests/test_executors.py::{} PASSED\n", o.name));
            } else {
                failed += 1;
                stdout.push_str(&format!("tests/test_executors.py::{} FAILED\n", o.name));
            }
        }
        stdout.push_str(&format!(
            "========================= {passed} passed, {failed} failed =========================\n"
        ));
        if failed == 0 {
            ExecOutcome::ok(stdout, total_work)
        } else {
            ExecOutcome::fail(format!("{failed} test(s) failed"), total_work).with_stdout(stdout)
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcci_cluster::{Cred, NodeRole, Site};
    use hpcci_faas::SiteRuntime;
    use hpcci_sim::DetRng;

    #[test]
    fn suite_passes_with_scheduler() {
        let mut sched = BatchScheduler::with_compute_partition((0..4).map(NodeId).collect(), 8);
        let outcomes = run_psij_suite(Some(&mut sched));
        assert_eq!(outcomes.len(), 6);
        for o in &outcomes {
            assert!(o.passed, "{} failed", o.name);
        }
    }

    #[test]
    fn suite_batch_tests_fail_without_scheduler() {
        let outcomes = run_psij_suite(None);
        let failed: Vec<_> = outcomes.iter().filter(|o| !o.passed).collect();
        assert_eq!(failed.len(), 3);
        assert!(failed.iter().all(|o| o.name.starts_with("test_batch")));
    }

    #[test]
    fn a_refused_batch_submission_fails_its_test() {
        // A site whose nodes have no cores: the scheduler refuses every job.
        let mut sched = BatchScheduler::with_compute_partition((0..4).map(NodeId).collect(), 0);
        let outcomes = run_psij_suite(Some(&mut sched));
        let failed: Vec<_> = outcomes.iter().filter(|o| !o.passed).map(|o| o.name).collect();
        assert_eq!(failed, ["test_batch_submit_wait", "test_batch_walltime", "test_batch_cancel"]);
    }

    fn runtime_with_env(complete: bool) -> SiteRuntime {
        let mut rt = SiteRuntime::new(Site::purdue_anvil()).with_scheduler(128);
        let env = rt.site.envs.create("psij");
        env.install("psij-python", "0.9.9");
        env.install("psutil", "5.9.8");
        env.install("pystache", "0.6.8");
        if complete {
            env.install("typeguard", "3.0.2");
        }
        install_psij_pytest(&mut rt.commands, "psij", 128);
        rt.site.add_account("x-vhayot", "CIS230030");
        rt
    }

    fn run(rt: &mut SiteRuntime) -> ExecOutcome {
        let account = rt.site.account("x-vhayot").unwrap().clone();
        let cred = Cred::of(&account);
        let mut rng = DetRng::seed_from_u64(1);
        rt.execute(
            "pytest tests/",
            &account,
            &cred,
            NodeRole::Login,
            "anvil-login-1",
            SimTime::ZERO,
            &mut rng,
            None,
        )
    }

    #[test]
    fn complete_environment_passes() {
        let mut rt = runtime_with_env(true);
        let out = run(&mut rt);
        assert!(out.result.is_ok(), "{}", out.stderr);
        assert!(out.stdout.contains("6 passed, 0 failed"));
        assert!(out.stdout.contains("Requirement already satisfied: psutil>=5.9"));
    }

    #[test]
    fn missing_dependency_reproduces_fig5_failure() {
        let mut rt = runtime_with_env(false);
        let out = run(&mut rt);
        assert!(out.result.is_err());
        assert!(out.stderr.contains("typeguard"), "{}", out.stderr);
        assert!(out.stderr.contains("FAILED"));
        // The satisfied requirements are still echoed, like the Fig. 5 log.
        assert!(out.stdout.contains("Requirement already satisfied"));
    }
}
