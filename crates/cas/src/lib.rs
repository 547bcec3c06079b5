//! # hpcci-cas — content-addressed storage for the federation
//!
//! The paper's premise — reproducible CI means *same inputs → same outputs* —
//! is a license to deduplicate and memoize: a blob that hashes the same **is**
//! the same, and storing it twice (or re-computing the step that produced it)
//! buys nothing. This crate supplies the storage half of that bargain:
//!
//! * [`Digest`] — a 128-bit content hash in the style of `hpcci_vcs`'s
//!   `ObjectId`, self-contained so every crate in the workspace can address
//!   content without a VCS dependency;
//! * [`DigestBuilder`] — canonical multi-field digests with unambiguous
//!   framing (length-prefixed, labelled fields), used for cache keys where
//!   `hash(a ++ b)` collisions between field boundaries must be impossible;
//! * [`CasStore`] — a refcounted blob store: each unique object is held
//!   once, as one shared buffer, and duplicate `put`s cost no new bytes. The
//!   store tracks *logical* bytes (what callers uploaded) against *stored*
//!   bytes (unique object payload), the dedup ratio the CI artifact layer
//!   reports. Objects are not chunked: the artifacts the federation stores
//!   are step logs of a few KiB, and no workload produces one large enough
//!   for chunk-level sharing to pay. A holder that knows an address takes its
//!   reference with `retain` (no re-hash), and a [`CasPin`] keeps an object
//!   alive without counting as an upload.
//!
//! Handles ([`CasStore`] clones) share one underlying store, so the CI
//! engine's step cache and artifact store can dedup against each other.

mod digest;
mod store;

pub use digest::{Digest, DigestBuilder};
pub use store::{CasPin, CasStats, CasStore, Stored};
