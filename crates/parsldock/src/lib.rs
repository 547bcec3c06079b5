//! # hpcci-parsldock — a protein-docking pipeline (§6.1's workload)
//!
//! A deterministic, pseudo-physical reimplementation of the ParslDock
//! tutorial application: *"a Parsl-based implementation of protein docking
//! that uses machine learning to guide simulation"*. The chemistry is
//! synthetic (derived from seeded generators), but the computation is real:
//! the docking search really scores poses — in parallel, with scoped
//! threads — and the ML ranker really trains by SGD.
//!
//! * [`molecule`] — synthetic receptors and ligands (atoms: position,
//!   radius, charge) generated deterministically from names;
//! * [`prep`] — receptor/ligand preparation (protonation, partial-charge
//!   assignment): the AutoDock-Tools/MGLTools step;
//! * [`mod@dock`] — rigid-body grid docking with a Lennard-Jones + Coulomb
//!   scoring function: the AutoDock-Vina step;
//! * [`ml`] — descriptor computation and a linear ridge-SGD surrogate model
//!   that ranks candidate ligands by predicted binding score;
//! * [`pipeline`] — ML-guided virtual screening end to end;
//! * [`suite`] — the pytest-style test suite CORRECT runs at each site, with
//!   per-test cost models calibrated for the Fig. 4 comparison, and the
//!   `pytest` command handler that installs the suite at a federation site.

pub mod dock;
pub mod formats;
pub mod ml;
pub mod molecule;
pub mod pipeline;
pub mod prep;
pub mod suite;

pub use dock::{dock, DockParams, Pose};
pub use formats::{ligand_from_pdbqt, ligand_to_pdbqt, receptor_from_pdbqt, receptor_to_pdbqt};
pub use ml::{descriptors, SurrogateModel};
pub use molecule::{Atom, Ligand, Receptor};
pub use pipeline::{screen, ScreenConfig, ScreenReport};
pub use suite::{install_pytest, run_suite, TestOutcome, PARSLDOCK_TESTS};
