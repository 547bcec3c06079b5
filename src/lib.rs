//! # hpcci — reproducing *Addressing Reproducibility Challenges in HPC with
//! Continuous Integration* (SC 2025) as a simulated federation in Rust
//!
//! This facade re-exports the whole stack and provides three modules:
//! [`paper`], the worlds behind the paper's figures as committed scenario
//! documents (§6.1 ParslDock across three sites, §6.2 PSI/J on Anvil with
//! and without `typeguard`, §6.3 the KaMPIng artifacts on Chameleon, §7.3
//! a `tox` suite behind Anvil's MEP) and the one function that compiles
//! them; [`tables`], Tables 1–4 as the data the paper declares; and
//! [`reproduce`], every table and figure of the paper, rendered by the
//! `reproduce` binary and pinned by digest in `tests/reproduce.rs`.
//!
//! ## Layering
//!
//! ```text
//! correct-core      the CORRECT action + federation composition root
//!    ├── hpcci-ci          GitHub-Actions-like engine
//!    │     └── hpcci-cas        content-addressed store + digests
//!    ├── hpcci-faas        Globus-Compute-like federated FaaS
//!    │     ├── hpcci-scheduler   SLURM-like batch scheduler + providers
//!    │     └── hpcci-auth        OAuth identities, mapping, HA policies
//!    ├── hpcci-vcs         git-like hosting (PRs, webhooks)
//!    ├── hpcci-provenance  env capture, research objects, badges
//!    └── hpcci-cluster     sites, nodes, network policy, fs, software
//! hpcci-parsldock / hpcci-psij / hpcci-minimpi    the §6 workloads
//! hpcci-scen        scenario DSL, seeded generator, oracle fleet
//! ```
//!
//! See `DESIGN.md` for the full inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

pub mod paper;
pub mod reproduce;
pub mod tables;

pub use correct_core as correct;
pub use hpcci_auth as auth;
pub use hpcci_cas as cas;
pub use hpcci_ci as ci;
pub use hpcci_cluster as cluster;
pub use hpcci_faas as faas;
pub use hpcci_minimpi as minimpi;
pub use hpcci_obs as obs;
pub use hpcci_parsldock as parsldock;
pub use hpcci_provenance as provenance;
pub use hpcci_psij as psij;
pub use hpcci_scen as scen;
pub use hpcci_scheduler as scheduler;
pub use hpcci_sim as sim;
pub use hpcci_vcs as vcs;
