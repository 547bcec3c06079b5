//! # hpcci-minimpi — a message-passing runtime + KaMPIng-style bindings
//!
//! The substrate for §6.3: the paper reproduces the artifacts of **KaMPIng**
//! ("flexible and (near) zero-overhead C++ bindings for MPI", SC '24 Best
//! Reproducibility Advancement Award) via CORRECT. To do that we need an MPI
//! and a KaMPIng:
//!
//! * [`comm`] — a rank-based message-passing runtime over OS threads and
//!   `std::sync::mpsc` channels: point-to-point send/recv with tag matching
//!   and an unexpected-message queue, plus the collectives the artifacts use
//!   (barrier, broadcast, reduce, allreduce, gather, allgather, alltoall).
//!   This is *real* parallelism: ranks are threads, messages really move.
//! * [`bindings`] — the KaMPIng analogue: an ergonomic, allocation-handling
//!   wrapper over the raw API whose headline claim — near-zero overhead —
//!   [`allreduce_overhead_ratio`] measures;
//! * [`artifacts`] — the downscaled artifact experiments (§6.3): allreduce
//!   overhead, alltoall correctness, a distributed sample sort, and a
//!   bit-packed `vector<bool>` broadcast, each runnable standalone and as a
//!   federation command (`bash artifacts/<name>.sh`).

pub mod artifacts;
pub mod bindings;
pub mod comm;

pub use artifacts::{
    allreduce_overhead_ratio, install_artifacts, run_artifact, ArtifactResult, KAMPING_ARTIFACTS,
};
pub use bindings::Kamping;
pub use comm::{run_mpi, Datum, Rank, ReduceOp};
