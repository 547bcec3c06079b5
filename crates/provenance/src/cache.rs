//! NeuroCI-style task provenance cache (§4.3.3): "all task provenance data
//! is gathered and stored within a task provenance cache file \[storing\] IDs
//! pointing to the location of the tasks and files … exported as artifacts
//! … and made available through an API."
//!
//! An entry is the pointer layer: it does not duplicate outputs, it records
//! *where they are* — task ids, artifact locations, the pipeline/dataset
//! combination — so downstream visualization and audits can find everything
//! a CI campaign produced.

use hpcci_cas::Digest;

/// One cached pointer: a (pipeline, dataset) cell of the evaluation matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Processing pipeline identifier (for us: workflow name).
    pub pipeline: String,
    /// Dataset / site identifier.
    pub dataset: String,
    /// Remote task id that produced the result.
    pub task_id: String,
    /// Where the result artifact lives (CI artifact path or archive DOI).
    pub location: String,
    /// Virtual timestamp (µs) of the producing run.
    pub at_us: u64,
    pub success: bool,
    /// Content digest of the result artifact in the CAS ([`Digest::NONE`]
    /// when the producing store has no CAS attached). Lets an
    /// audit verify bit-for-bit that the bytes at `location` are the bytes
    /// the run produced.
    pub cas_digest: Digest,
}
