//! `hpcci-scen` — declarative scenarios, a seeded generator, and an oracle
//! fleet for the simulated federation.
//!
//! Three layers:
//!
//! 1. **Describe** ([`spec`], [`toml`]): a [`ScenarioSpec`] is the typed,
//!    declarative form of one federation experiment — sites, endpoints,
//!    workload, traffic shape, fault schedule, step-cache mode — with a
//!    canonical TOML rendering (`to_toml`/`from_toml` are byte-exact
//!    inverses on canonical documents, so [`ScenarioSpec::digest`] is a
//!    stable identity).
//! 2. **Generate** ([`gen`]): [`ScenarioGen`] maps `(seed, index)` to a
//!    randomized-but-reproducible spec; the sampled knob values travel in
//!    the document's `[generator]` provenance table.
//! 3. **Verify** ([`compile`], [`run`], [`oracle`]): specs compile onto
//!    [`correct_core::Federation`] through one canonical construction path,
//!    run under virtual time, and are checked against five oracle families —
//!    same-seed determinism, §5.2/§7.2 security invariants, step-cache
//!    soundness (Off/Record/Replay), infra-vs-test failure attribution, and
//!    task conservation at quiescence.
//!
//! The `hpcci-scen` binary exposes the layers as `gen`, `verify`, `replay`,
//! and `explain` subcommands for CI fleets.

pub mod compile;
pub mod gen;
pub mod oracle;
pub mod presets;
pub mod run;
pub mod spec;
pub mod toml;

pub use compile::{BuiltScenario, KAMPING_IMAGE};
pub use gen::{GenConfig, ScenarioGen};
pub use oracle::{
    first_divergence, instant_of, verify_spec, Divergence, OracleReport,
    Violation,
};
pub use run::{
    run_spec, run_spec_with, CacheSetup, RunSummary, ScenarioOutcome,
    TaskIdentity,
};
pub use spec::{
    CacheModeDecl, ChaosSpec, EndpointDecl, EndpointKindDecl, FaultDecl, FaultKindDecl,
    GenProvenance, ScenarioSpec, SiteSpec, SpecError, TemplateDecl, TrafficProcess, TrafficSpec,
    UserSpec, WorkloadKind, WorkloadSpec, SCHEMA_VERSION,
};
