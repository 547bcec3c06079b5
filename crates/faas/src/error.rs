//! FaaS error types.

use crate::function::FunctionId;
use crate::task::TaskId;
use hpcci_auth::AuthError;
use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaasError {
    /// Authentication or authorization failed at the cloud service.
    Auth(AuthError),
    UnknownEndpoint(String),
    UnknownFunction(FunctionId),
    UnknownTask(TaskId),
    /// The endpoint restricts functions and this one is not pre-approved.
    FunctionNotAllowed(FunctionId),
    /// Endpoint restricts functions, so ad-hoc shell commands are rejected.
    ShellNotAllowed,
    /// Single-user endpoints accept tasks only from their owner identity.
    NotEndpointOwner,
    /// Task args or result exceed the service payload limit.
    PayloadTooLarge { bytes: usize, limit: usize },
    /// No identity-mapping rule matched at the MEP's site.
    IdentityMappingFailed(String),
    /// The mapped local account does not exist at the site.
    NoLocalAccount(String),
    /// Result not ready yet.
    NotFinished(TaskId),
    /// The endpoint is stopped/drained.
    EndpointStopped(String),
    /// A transient infrastructure fault (injected or organic): crashed
    /// worker, failed UEP fork, etc. Retryable by the CORRECT layer.
    Infrastructure(String),
    /// A state machine violation: attempted transition out of a terminal
    /// task state. Terminal tasks may only be revived by explicit
    /// resubmission (which mints a fresh task id).
    InvalidTransition { task: TaskId, from: String, to: String },
}

impl fmt::Display for FaasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaasError::Auth(e) => write!(f, "auth: {e}"),
            FaasError::UnknownEndpoint(e) => write!(f, "unknown endpoint: {e}"),
            FaasError::UnknownFunction(id) => write!(f, "unknown function: {id}"),
            FaasError::UnknownTask(id) => write!(f, "unknown task: {id}"),
            FaasError::FunctionNotAllowed(id) => {
                write!(f, "function {id} is not approved for this endpoint")
            }
            FaasError::ShellNotAllowed => {
                write!(f, "endpoint restricts functions; ad-hoc shell commands rejected")
            }
            FaasError::NotEndpointOwner => {
                write!(f, "single-user endpoints accept tasks only from their owner")
            }
            FaasError::PayloadTooLarge { bytes, limit } => {
                write!(f, "payload of {bytes} bytes exceeds limit of {limit}")
            }
            FaasError::IdentityMappingFailed(who) => {
                write!(f, "identity mapping failed for {who}")
            }
            FaasError::NoLocalAccount(who) => write!(f, "no local account {who} at site"),
            FaasError::NotFinished(id) => write!(f, "task {id} has not finished"),
            FaasError::EndpointStopped(e) => write!(f, "endpoint {e} is stopped"),
            FaasError::Infrastructure(msg) => write!(f, "infrastructure: {msg}"),
            FaasError::InvalidTransition { task, from, to } => {
                write!(f, "task {task}: illegal transition from terminal state {from} to {to}")
            }
        }
    }
}

impl std::error::Error for FaasError {}

impl FaasError {
    /// Did the platform fail, rather than the task or its configuration? The
    /// one definition: CORRECT retries exactly these, and a run they exhaust
    /// is attributed `infrastructure`. (A stopped endpoint is a crashed one.)
    pub fn is_infrastructure(&self) -> bool {
        matches!(self, FaasError::Infrastructure(_) | FaasError::EndpointStopped(_))
    }
}

impl From<AuthError> for FaasError {
    fn from(e: AuthError) -> Self {
        FaasError::Auth(e)
    }
}
