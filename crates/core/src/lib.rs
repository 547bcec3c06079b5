//! # correct-core — the paper's primary contribution
//!
//! **CORRECT** (*COntinuous Reproducibility with a Remote Execution Computing
//! Tool*, §5.3) is a CI action that lets workflow code defined on the hosting
//! service execute at arbitrary remote computing sites through the federated
//! FaaS layer — *"whereas HPC CI frameworks install runners directly on HPC
//! infrastructure, CORRECT runs within \[hosted\] runners"*, reaching HPC only
//! through authenticated, auditable FaaS tasks.
//!
//! * [`inputs::CorrectInputs`] — the action's parameter schema (client
//!   id/secret, endpoint UUID, `shell_cmd` *or* `function_uuid`, args,
//!   optional environment capture);
//! * [`action::CorrectAction`] — the action implementation: runner-side
//!   bootstrap, Globus-Auth-style authentication, remote **clone → execute**
//!   protocol, stdout/stderr propagation, artifact emission, failure
//!   propagation (§5.3, Fig. 2);
//! * [`federation::Federation`] — the composition root wiring hosting, CI,
//!   auth, FaaS and sites together, and the [`ci::WorldDriver`] the CI
//!   engine advances while a step waits;
//! * [`recipes`] — the §5.3/§6 workflow patterns: the Fig. 3 step, per-site
//!   environments with sole reviewers, multi-site test matrices, and the
//!   §5.3 fork-and-swap-endpoints repeatability recipe.

pub mod action;
pub mod federation;
pub mod inputs;
pub mod persist;
pub mod recipes;

pub use action::{CorrectAction, CORRECT_ACTION_NAME};
pub use federation::{
    EndpointHandle, Federation, FederationBuilder, OnboardedUser, SiteHandle, SiteId,
};
pub use inputs::CorrectInputs;
pub use persist::{archive_from_engine, archive_run};

/// Re-exports for downstream convenience.
pub use hpcci_ci as ci;
pub use hpcci_faas as faas;
