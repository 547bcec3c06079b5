//! # hpcci-provenance — provenance capture, research objects, badges
//!
//! The paper's central argument (§5): *"with sufficient accounting (previous
//! execution runs and their results, system provenance, source code) and
//! automated periodic re-execution demonstrating result validity, it is
//! possible to evaluate reproducibility without direct access to the
//! infrastructure."* This crate supplies the accounting:
//!
//! * [`capture::EnvironmentCapture`] — hardware descriptor, software
//!   environment freeze, and container reference for one execution site;
//! * [`record::ExecutionRecord`] — one run: commit, command, site, local
//!   user, timings, outputs, and the federation trace slice;
//! * [`research_object::ResearchObject`] — an RO-Crate-like bundle of code
//!   reference + data + environment + execution records (§2);
//! * [`badges`] — the SC/CCGrid three-level badge taxonomy (§3.1), the
//!   AD/AE artifact model, a reviewer-process simulator with the canonical
//!   eight-hour budget, and a calibrated cohort generator that regenerates
//!   the Fig. 1 time series.

pub mod badges;
pub mod cache;
pub mod capture;
pub mod record;
pub mod research_object;

pub use badges::{Artifact, BadgeLevel, CohortParams, ReviewOutcome, Reviewer};
pub use cache::CacheEntry;
pub use capture::EnvironmentCapture;
pub use record::ExecutionRecord;
pub use research_object::ResearchObject;
