//! # hpcci-psij — a portable job-submission interface (§6.2's workload)
//!
//! A Rust analogue of PSI/J, "a Python library designed to increase the
//! portability of software — particularly workflow systems — across
//! different HPC systems" by abstracting over schedulers. Built directly on
//! `hpcci-scheduler`, so its tests genuinely exercise a deployed scheduler —
//! the reason PSI/J "must be tested directly on HPC sites".
//!
//! * [`spec::PsijJobSpec`] — executable + resource request, scheduler-
//!   agnostic;
//! * [`executor::JobExecutor`] — the abstraction layer, with a `local`
//!   executor (fork on the login node) and a `slurm` executor (submit
//!   through the batch scheduler);
//! * [`suite`] — the PSI/J CI test suite CORRECT runs on Anvil, with the
//!   dependency fault of Fig. 5 injectable via the site's software
//!   environment;
//! * [`cron`] — the **baseline**: PSI/J's existing cron-job CI, pulling
//!   `main` and publishing to its dashboard (reproduced so the paper's
//!   CORRECT-vs-cron comparison is executable).

pub mod cron;
pub mod executor;
pub mod spec;
pub mod suite;

pub use cron::{CronCi, DashboardEntry};
pub use executor::{JobExecutor, PsijError, PsijJobHandle, PsijJobState};
pub use spec::PsijJobSpec;
pub use suite::{install_psij_pytest, required_packages, run_psij_suite, PsijTestOutcome};
