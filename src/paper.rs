//! The worlds behind the paper's figures, as committed scenario documents.
//!
//! Each constant is one canonical `tests/fixtures/paper/*.toml` document,
//! whose leading `# Paper:` comment names the figure or section it serves.
//! [`world`] compiles one onto a caller-built [`Federation`] through
//! [`ScenarioSpec::build_on`], the one path every scenario takes; the
//! conformance walk in `tests/scen_conformance.rs` runs each through every
//! oracle.

use correct_core::Federation;
use hpcci_scen::{BuiltScenario, ScenarioSpec, SpecError};

/// Fig. 4 (§6.1): ParslDock on Chameleon, FASTER and Expanse.
pub const FIG4_PARSLDOCK: &str = include_str!("../tests/fixtures/paper/fig4-parsldock.toml");
/// Fig. 5's recovery (§6.2): PSI/J on Anvil with every requirement installed.
pub const FIG5_PSIJ: &str = include_str!("../tests/fixtures/paper/fig5-psij.toml");
/// Fig. 5 (§6.2): PSI/J on Anvil with `typeguard` missing.
pub const FIG5_PSIJ_TYPEGUARD_MISSING: &str =
    include_str!("../tests/fixtures/paper/fig5-psij-typeguard-missing.toml");
/// §6.3: the KaMPIng artifacts on Chameleon, inside the published container.
pub const SEC63_KAMPING: &str = include_str!("../tests/fixtures/paper/sec63-kamping.toml");
/// §7.3: a 10-second `tox` suite behind one multi-user endpoint on Anvil.
pub const SEC73_ANVIL_OVERHEAD: &str =
    include_str!("../tests/fixtures/paper/sec73-anvil-overhead.toml");

/// Compile `doc` onto `fed`, seeded by the federation: the document's `seed`
/// becomes `fed.world_seed()`, so one document serves every repetition.
pub fn world(doc: &str, fed: Federation) -> Result<BuiltScenario, SpecError> {
    let mut spec = ScenarioSpec::from_toml(doc)?;
    spec.seed = fed.world_seed();
    spec.build_on(fed)
}
