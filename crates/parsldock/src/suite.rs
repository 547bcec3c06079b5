//! The ParslDock pytest suite and its federation command handler.
//!
//! §6.1: "we execute the ParslDock test suite at three different sites and
//! record the duration of each test case using pytest". The suite below is
//! what runs: each test exercises the *real* pipeline code at a small size,
//! and carries a reference cost (seconds on the reference machine) that the
//! site's performance model converts into the virtual per-test durations
//! Fig. 4 plots.

use crate::dock::{dock, DockParams};
use crate::ml::{descriptors, SurrogateModel};
use crate::molecule::{Ligand, Receptor};
use crate::pipeline::{screen, ScreenConfig};
use crate::prep::{prepare_ligand, prepare_receptor};
use hpcci_faas::{CommandRegistry, ExecOutcome};

/// One test case: name + reference cost in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestCase {
    pub name: &'static str,
    pub ref_secs: f64,
}

/// The suite, in execution order. Costs are heterogeneous on purpose: Fig. 4
/// mixes sub-second tests with long docking runs.
pub const PARSLDOCK_TESTS: [TestCase; 8] = [
    TestCase { name: "test_imports", ref_secs: 0.4 },
    TestCase { name: "test_fetch_receptor", ref_secs: 1.2 },
    TestCase { name: "test_prepare_receptor", ref_secs: 3.0 },
    TestCase { name: "test_prepare_ligand", ref_secs: 1.5 },
    TestCase { name: "test_compute_descriptors", ref_secs: 0.8 },
    TestCase { name: "test_dock_single", ref_secs: 25.0 },
    TestCase { name: "test_train_model", ref_secs: 5.0 },
    TestCase { name: "test_end_to_end_screen", ref_secs: 60.0 },
];

/// Outcome of one executed test.
#[derive(Debug, Clone, PartialEq)]
pub struct TestOutcome {
    pub name: &'static str,
    pub passed: bool,
    pub ref_secs: f64,
}

/// Execute the real test bodies (at miniature sizes, so the harness itself
/// is fast) and report pass/fail per test.
pub fn run_suite() -> Vec<TestOutcome> {
    PARSLDOCK_TESTS
        .iter()
        .map(|t| TestOutcome {
            name: t.name,
            passed: run_one(t.name),
            ref_secs: t.ref_secs,
        })
        .collect()
}

fn run_one(name: &str) -> bool {
    match name {
        "test_imports" => true,
        "test_fetch_receptor" => {
            let r = Receptor::generate("1abc", 50);
            r.atoms.len() == 50 && !r.prepared
        }
        "test_prepare_receptor" => {
            let r = prepare_receptor(Receptor::generate("1abc", 50));
            r.prepared && r.atoms.len() > 50
        }
        "test_prepare_ligand" => {
            let l = prepare_ligand(Ligand::generate("aspirin"));
            l.prepared && l.atoms.iter().any(|a| a.charge != 0.0)
        }
        "test_compute_descriptors" => {
            let d = descriptors(&Ligand::generate("aspirin"));
            d.iter().all(|v| v.is_finite())
        }
        "test_dock_single" => {
            let r = prepare_receptor(Receptor::generate("1abc", 80));
            let l = prepare_ligand(Ligand::generate("aspirin"));
            let p = dock(&r, &l, &DockParams { grid: 3, rotations: 1, threads: 2, spacing: 1.5 });
            p.energy.is_finite()
        }
        "test_train_model" => {
            let samples: Vec<_> = (0..10)
                .map(|i| {
                    let t = i as f64 / 10.0;
                    ([t, 0.1, 0.2, 0.3, 0.4, 1.0], 2.0 * t + 1.0)
                })
                .collect();
            SurrogateModel::fit(&samples).mse(&samples) < 0.1
        }
        "test_end_to_end_screen" => {
            let report = screen(
                "1abc",
                &ScreenConfig {
                    candidates: 6,
                    train_docks: 2,
                    final_docks: 1,
                    dock_params: DockParams { grid: 2, rotations: 1, threads: 2, spacing: 2.0 },
                },
            );
            report.docked.len() == 3
        }
        _ => false,
    }
}

/// Install the `pytest` command at a federation site. The handler checks
/// that the repository has been cloned into the user's scratch (the CORRECT
/// clone step), runs the real suite, and prints pytest-style output with a
/// per-test durations table computed through the site's performance model —
/// the raw data of Fig. 4.
pub fn install_pytest(commands: &mut CommandRegistry, repo_dir: &str) {
    let repo_dir = repo_dir.to_string();
    commands.register("pytest", move |env| {
        let clone_path = format!("{}/{}", env.clone_root(), repo_dir);
        if !env.site.fs.is_dir(&clone_path) {
            return ExecOutcome::fail(
                format!("ERROR: file or directory not found: {clone_path}"),
                0.2,
            );
        }
        let outcomes = run_suite();
        let node_speed = match env.role {
            hpcci_cluster::NodeRole::Login => env
                .site
                .login_node()
                .map(|n| n.cpu_speed)
                .unwrap_or(1.0),
            hpcci_cluster::NodeRole::Compute => 1.0,
        };
        let mut stdout = format!(
            "============================= test session starts ==============================\ncollected {} items\n\n",
            outcomes.len()
        );
        let mut durations = String::from("============================ slowest durations ================================\n");
        let mut total_work = 0.1; // collection overhead
        let mut passed = 0;
        let mut failed = 0;
        for o in &outcomes {
            total_work += o.ref_secs;
            let d = env
                .site
                .perf
                .compute_time(hpcci_cluster::WorkUnits::secs(o.ref_secs), node_speed, env.rng);
            durations.push_str(&format!("{:>10.3}s call     tests/{}\n", d.as_secs_f64(), o.name));
            if o.passed {
                passed += 1;
                stdout.push_str(&format!("tests/test_parsldock.py::{} PASSED\n", o.name));
            } else {
                failed += 1;
                stdout.push_str(&format!("tests/test_parsldock.py::{} FAILED\n", o.name));
            }
        }
        stdout.push('\n');
        stdout.push_str(&durations);
        stdout.push_str(&format!(
            "========================= {passed} passed, {failed} failed =========================\n"
        ));
        if failed == 0 {
            ExecOutcome::ok(stdout, total_work)
        } else {
            ExecOutcome {
                stdout,
                stderr: format!("{failed} test(s) failed"),
                result: Err(format!("{failed} test(s) failed")),
                work: hpcci_cluster::WorkUnits::secs(total_work),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcci_cluster::{Cred, FileMode, NodeRole, Site};
    use hpcci_faas::SiteRuntime;
    use hpcci_sim::{DetRng, SimTime};

    #[test]
    fn suite_passes_entirely() {
        let outcomes = run_suite();
        assert_eq!(outcomes.len(), PARSLDOCK_TESTS.len());
        for o in &outcomes {
            assert!(o.passed, "{} failed", o.name);
        }
    }

    #[test]
    fn suite_costs_are_heterogeneous() {
        let min = PARSLDOCK_TESTS.iter().map(|t| t.ref_secs).fold(f64::MAX, f64::min);
        let max = PARSLDOCK_TESTS.iter().map(|t| t.ref_secs).fold(0.0, f64::max);
        assert!(max / min > 50.0, "Fig. 4 needs a wide cost spread");
    }

    fn env_fixture(rt: &mut SiteRuntime, cloned: bool) -> (hpcci_cluster::UserAccount, DetRng) {
        let account = rt.site.add_account("cc", "proj");
        if cloned {
            let cred = Cred::of(&account);
            rt.site
                .fs
                .mkdir_p(
                    &format!("{}/gc-action-temp/parsl-docking-tutorial", account.scratch()),
                    &cred,
                    FileMode::PRIVATE_DIR,
                )
                .unwrap();
        }
        (account, DetRng::seed_from_u64(7))
    }

    #[test]
    fn pytest_handler_reports_durations() {
        let mut rt = SiteRuntime::new(Site::chameleon_tacc());
        install_pytest(&mut rt.commands, "parsl-docking-tutorial");
        let (account, mut rng) = env_fixture(&mut rt, true);
        let cred = Cred::of(&account);
        let out = rt.execute(
            "pytest tests/",
            &account,
            &cred,
            NodeRole::Login,
            "chi",
            SimTime::ZERO,
            &mut rng,
            None,
        );
        assert!(out.result.is_ok(), "{}", out.stderr);
        assert!(out.stdout.contains("8 passed, 0 failed"));
        assert!(out.stdout.contains("test_dock_single"));
        assert!(out.stdout.contains("slowest durations"));
        assert!(out.work.0 > 90.0, "total work sums test costs: {}", out.work.0);
    }

    #[test]
    fn pytest_handler_requires_clone() {
        let mut rt = SiteRuntime::new(Site::chameleon_tacc());
        install_pytest(&mut rt.commands, "parsl-docking-tutorial");
        let (account, mut rng) = env_fixture(&mut rt, false);
        let cred = Cred::of(&account);
        let out = rt.execute(
            "pytest tests/",
            &account,
            &cred,
            NodeRole::Login,
            "chi",
            SimTime::ZERO,
            &mut rng,
            None,
        );
        assert!(out.result.is_err());
        assert!(out.stderr.contains("not found"));
    }
}
