//! # hpcci-sim — deterministic discrete-event simulation kernel
//!
//! Every other crate in the `hpcci` federation is built on this kernel. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time in microseconds. All timing
//!   in the federation is virtual, which makes every experiment reproducible
//!   bit-for-bit from a seed — the paper's thesis applied to our own artifact.
//! * [`EventQueue`] — a stable (FIFO-within-timestamp) priority queue of typed
//!   events.
//! * [`DetRng`] — a seeded random-number source with the distributions the
//!   site performance models need (uniform, normal, lognormal via Box–Muller).
//! * [`Advance`] — the cooperative component protocol: components expose the
//!   time of their next internal event and are advanced to a given instant by
//!   a driver ([`drive`]).
//! * [`Trace`] — a structured event trace used for provenance records and for
//!   regenerating the paper's system-overview figure.
//! * [`faults`] — deterministic fault injection: a seedable [`FaultPlan`]
//!   delivered through a [`FaultInjector`] handle that components consult at
//!   their event boundaries. An empty plan is a guaranteed no-op.
//! * [`workload`] — seeded arrival processes and tenant mixes ([`Workload`],
//!   [`ArrivalGen`], [`TenantModel`]).
//! * [`sweep`] — the parallel scenario-sweep runner: a fleet of
//!   self-contained single-threaded jobs over a fixed worker pool, with
//!   results in submission order (a parallel sweep is bit-identical to a
//!   serial one).

pub mod component;
pub mod faults;
pub mod queue;
pub mod rng;
pub mod sweep;
pub mod time;
pub mod trace;
pub mod workload;

pub use component::{drive, Advance};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Fnv, Interner, IntoDetail, IntoSym, Sym, Trace, TraceEvent};
pub use workload::{ArrivalGen, ArrivalProcess, TenantMix, TenantModel, Workload};
