//! # hpcci-ci — a GitHub-Actions-like CI engine
//!
//! Implements the CI mechanics §4.1 describes and CORRECT builds on:
//!
//! * [`workflow::WorkflowDef`] — events → jobs → steps, with `needs`
//!   dependencies, marketplace action references, and `${{ secrets.* }}` /
//!   `${{ env.* }}` interpolation;
//! * [`secrets::SecretStore`] — organization / repository / environment
//!   scoping, with secret values masked out of every log line the engine
//!   stores;
//! * [`environment::Environment`] — deployment environments with **required
//!   reviewers** and wait timers: the approval gate CORRECT's security model
//!   leans on (§5.2), including the *sole reviewer* recommendation;
//! * [`runner::RunnerPool`] — GitHub-hosted VM runners and self-hosted
//!   runners pinned to a site;
//! * [`artifacts::ArtifactStore`] — uploaded artifacts with the 90-day
//!   retention window §7.4 calls out, deduplicated into a shared
//!   content-addressed store when one is attached;
//! * [`cache::StepCache`] — content-addressed step-result memoization:
//!   reproducible CI means *same inputs → same outputs*, so a step whose
//!   canonical input digest was already executed replays its recorded
//!   verdict instead of re-running (infrastructure failures excluded);
//! * [`engine::CiEngine`] — consumes repository webhooks, instantiates
//!   workflow runs, gates them on approvals, and executes them step by step
//!   through a pluggable [`action::Action`] registry (CORRECT registers
//!   itself as `globus-labs/correct@v1`).
//!
//! A step waits on remote work (a FaaS task finishing) by returning an
//! [`action::Effect`]; the engine alone advances the shared virtual world
//! through [`action::WorldDriver`], keeping the federation deterministic.

pub mod action;
pub mod artifacts;
pub mod cache;
pub mod engine;
pub mod environment;
pub mod error;
pub mod run;
pub mod runner;
pub mod secrets;
pub mod workflow;

pub use action::{Action, Effect, Step, StepContext, StepResult, WorldDriver};
pub use artifacts::{Artifact, ArtifactStore};
pub use cache::{CacheMode, CacheStats, CachedStep, JobKeyPrefix, StepCache, StepEntry, StepKey};
pub use engine::CiEngine;
pub use environment::Environment;
pub use error::CiError;
pub use run::{
    FailureKind, Infra, Outputs, RunId, RunStatus, StepOutcome, StepRun, WorkflowRun,
};
pub use runner::{Runner, RunnerKind, RunnerPool};
pub use secrets::{Secret, SecretScope, SecretStore};
pub use workflow::{JobDef, ResolvedAction, StepAction, StepDef, TriggerEvent, WorkflowDef};
