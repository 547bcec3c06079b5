//! # hpcci-faas — a federated Function-as-a-Service platform
//!
//! The Globus Compute analogue (§5.1): a cloud service that "decouples
//! function registration and management from function execution on a
//! federated ecosystem of endpoints".
//!
//! * [`function::Function`] — registered functions, either `Shell` commands
//!   or `Native` handlers resolved against a per-site command registry;
//! * [`task::Task`] — the unit of execution: submitted through the cloud,
//!   delivered to an endpoint, executed as the mapped local user, and
//!   returned (result or exception) to the cloud;
//! * [`exec::SiteRuntime`] / [`exec::TaskEnv`] — what a running function
//!   sees: the site filesystem opened with the local user's credentials, the
//!   software environments, the network policy of the node it runs on;
//! * [`endpoint::Endpoint`] — a single-user endpoint: provider-provisioned
//!   workers (login-node local or SLURM pilot), task queue, function
//!   allowlist, owner-only submission;
//! * [`mep::MultiUserEndpoint`] — the privileged MEP that identity-maps each
//!   submitting user and forks a per-user endpoint from a template —
//!   including the paper's two-provider template (clone on the login node,
//!   test on compute nodes) for network-isolated sites;
//! * [`cloud::CloudService`] — the single contact point: authenticated
//!   submission, task status, results, and the federation-wide trace.

pub mod cloud;
pub mod endpoint;
pub mod error;
pub mod exec;
pub mod function;
pub mod mep;
pub mod task;

pub use cloud::{CloudService, EndpointId, EndpointRegistration};
pub use endpoint::{Endpoint, EndpointConfig, WorkerProvider};
pub use error::FaasError;
pub use exec::{CommandRegistry, ExecOutcome, SiteRuntime, TaskEnv};
pub use function::{Function, FunctionBody, FunctionId};
pub use mep::{MepTemplate, MultiUserEndpoint};
pub use task::{Task, TaskFailure, TaskId, TaskOutput, TaskState};
