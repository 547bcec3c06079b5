//! The baseline: PSI/J's existing cron-based multi-site CI (§6.2).
//!
//! "PSI/J currently provides a mechanism for CI across different HPC that
//! relies on cron jobs for automated, periodic execution of the test cases.
//! The security relies on authenticated users deploying the cron job in
//! their local accounts. … it is not able to map a contributor or developer
//! to a specific local account. PSI/J's cron job publishes test results back
//! to the community via a public dashboard."
//!
//! Implemented so the CORRECT-vs-cron comparison (`tests/psij_failure.rs`)
//! is executable.

use hpcci_cluster::{Cred, NodeRole};
use hpcci_faas::exec::SharedSite;
use hpcci_sim::{Advance, DetRng, EventQueue, SimDuration, SimTime};

/// One row of the public dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct DashboardEntry {
    pub site: String,
    pub at: SimTime,
    pub passed: bool,
    pub summary: String,
}

/// A cron-based CI deployment at one site: a periodic job running in the
/// deploying user's account that pulls `main` and runs the suite.
pub struct CronCi {
    site: SharedSite,
    /// The local account the deploying user installed the crontab in. Every
    /// run executes as this user — *whoever* authored the code being tested
    /// (the un-mapped-identity weakness CORRECT fixes).
    pub local_user: String,
    period: SimDuration,
    command: String,
    events: EventQueue<()>,
    dashboard: Vec<DashboardEntry>,
    rng: DetRng,
    now: SimTime,
}

impl CronCi {
    pub fn new(
        site: SharedSite,
        local_user: &str,
        period: SimDuration,
        command: &str,
    ) -> CronCi {
        let mut events = EventQueue::new();
        events.push(SimTime::ZERO + period, ());
        CronCi {
            site,
            local_user: local_user.to_string(),
            period,
            command: command.to_string(),
            events,
            dashboard: Vec::new(),
            rng: DetRng::seed_from_u64(0xc407),
            now: SimTime::ZERO,
        }
    }

    /// The public dashboard (§6.2).
    pub fn dashboard(&self) -> &[DashboardEntry] {
        &self.dashboard
    }

    fn fire(&mut self, at: SimTime) {
        let mut runtime = self.site.lock();
        let account = match runtime.site.account(&self.local_user) {
            Ok(a) => a.clone(),
            Err(e) => {
                self.dashboard.push(DashboardEntry {
                    site: runtime.site.id.to_string(),
                    at,
                    passed: false,
                    summary: e.to_string(),
                });
                return;
            }
        };
        let site_name = runtime.site.id.to_string();
        let node = runtime
            .site
            .login_node()
            .map(|n| n.hostname.clone())
            .unwrap_or_default();
        let cred = Cred::of(&account);
        let out = runtime.execute(
            &self.command,
            &account,
            &cred,
            NodeRole::Login,
            &node,
            at,
            &mut self.rng,
            None,
        );
        self.dashboard.push(DashboardEntry {
            site: site_name,
            at,
            passed: out.result.is_ok(),
            summary: if out.result.is_ok() {
                out.stdout.lines().last().unwrap_or("").to_string()
            } else {
                out.stderr.lines().next().unwrap_or("").to_string()
            },
        });
    }
}

impl Advance for CronCi {
    fn next_event(&self) -> Option<SimTime> {
        self.events.next_time()
    }

    fn advance_to(&mut self, t: SimTime) {
        while let Some((at, ())) = self.events.pop_due(t) {
            self.now = at;
            self.fire(at);
            self.events.push(at + self.period, ());
        }
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcci_cluster::Site;
    use hpcci_faas::{ExecOutcome, SiteRuntime};

    fn cron_at_site(pass: bool) -> CronCi {
        let mut rt = SiteRuntime::new(Site::purdue_anvil()).with_scheduler(128);
        rt.site.add_account("x-vhayot", "CIS230030");
        rt.commands.register("pytest", move |_| {
            if pass {
                ExecOutcome::ok("6 passed", 10.0)
            } else {
                ExecOutcome::fail("ERROR: No matching distribution found for typeguard>=3.0.1", 2.0)
            }
        });
        let site = hpcci_faas::exec::shared(rt);
        CronCi::new(
            site,
            "x-vhayot",
            SimDuration::from_hours(24),
            "pytest tests/",
        )
    }

    #[test]
    fn cron_fires_periodically_and_publishes() {
        let mut cron = cron_at_site(true);
        cron.advance_to(SimTime::from_secs(3 * 24 * 3600));
        assert_eq!(cron.dashboard().len(), 3);
        assert!(cron.dashboard().iter().all(|e| e.passed));
        assert_eq!(cron.dashboard()[0].site, "purdue-anvil");
    }

    #[test]
    fn failures_reach_the_dashboard() {
        let mut cron = cron_at_site(false);
        cron.advance_to(SimTime::from_secs(24 * 3600));
        assert_eq!(cron.dashboard().len(), 1);
        assert!(!cron.dashboard()[0].passed);
        assert!(cron.dashboard()[0].summary.contains("typeguard"));
    }

    #[test]
    fn cron_runs_as_the_deploying_user_regardless_of_author() {
        // The weakness: the code author's identity never reaches the site;
        // everything runs as the crontab owner.
        let cron = cron_at_site(true);
        assert_eq!(cron.local_user, "x-vhayot");
    }
}
