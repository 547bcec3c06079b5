//! Deterministic fault injection.
//!
//! A [`FaultPlan`] schedules typed faults at virtual times; components
//! consult a shared [`FaultInjector`] handle at their existing event
//! boundaries (task delivery, scheduler passes, token introspection,
//! artifact upload) and apply the fault's effect themselves. Every component
//! holds a handle; without a plan it is the disabled [`FaultInjector::none`],
//! whose consults are one branch each. The injector never touches any
//! component RNG stream and never mutates component state on a negative
//! consult, so an **empty plan is a guaranteed no-op**: traces and figure
//! outputs are bit-identical to a run with the disabled handle.
//!
//! Faults are one-shot: a consult that matches a due fault consumes it.
//! Every injection and recovery is recorded as a [`TraceEvent`](crate::trace::TraceEvent) in the
//! injector's own trace (`fault.inject` / `fault.recover` kinds), keeping
//! the chaos log separate from the functional trace.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The typed faults the federation knows how to inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The endpoint's worker processes die: queued and running tasks are
    /// lost (reported as infrastructure failures), the endpoint stops.
    EndpointCrash { endpoint: String },
    /// A multi-user endpoint fails to fork the user endpoint process for
    /// one submission (transient: the next submission forks fine).
    MepForkFailure { endpoint: String, user: String },
    /// The scheduler drains one node: running jobs on it are preempted;
    /// fixed jobs are requeued, pilots are left to their provider's
    /// re-request path.
    NodeDrain { scheduler: String },
    /// The WAN path to an endpoint drops; wire messages are delayed until
    /// the partition heals.
    WanPartition { endpoint: String, heal_after: SimDuration },
    /// The bearer token presented at the next introspection expires
    /// immediately (mid-run); a freshly issued token is unaffected.
    TokenExpiry,
    /// The artifact store corrupts the named artifact's payload on write.
    ArtifactCorruption { name: String },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::EndpointCrash { endpoint } => write!(f, "endpoint-crash {endpoint}"),
            FaultKind::MepForkFailure { endpoint, user } => {
                write!(f, "mep-fork-failure {endpoint} user={user}")
            }
            FaultKind::NodeDrain { scheduler } => write!(f, "node-drain {scheduler}"),
            FaultKind::WanPartition { endpoint, heal_after } => {
                write!(f, "wan-partition {endpoint} heal_after={heal_after}")
            }
            FaultKind::TokenExpiry => write!(f, "token-expiry"),
            FaultKind::ArtifactCorruption { name } => write!(f, "artifact-corruption {name}"),
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Earliest virtual time the fault may fire. The effect lands at the
    /// first event boundary at or after this time, which keeps injection
    /// deterministic without a dedicated fault clock.
    pub at: SimTime,
    pub kind: FaultKind,
}

/// An ordered schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: injecting it perturbs nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a fault at a virtual time.
    pub fn with_fault(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec { at, kind });
        self
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn len(&self) -> usize {
        self.faults.len()
    }

    pub fn specs(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// A seed-derived chaos schedule: `count` faults over `horizon`, with
    /// kinds and targets drawn from a [`DetRng`] stream forked off `seed`.
    /// Same seed, same plan; different seeds, (overwhelmingly) different
    /// plans — the property the chaos conformance suite pins down.
    pub fn randomized(seed: u64, horizon: SimDuration, count: usize, endpoints: &[&str]) -> Self {
        let mut rng = DetRng::seed_from_u64(seed).fork("fault-plan");
        let mut plan = FaultPlan::none();
        let span = horizon.as_micros().max(1);
        for _ in 0..count {
            let at = SimTime::from_micros(rng.range_u64(0, span));
            let target = if endpoints.is_empty() {
                String::new()
            } else {
                endpoints[rng.range_u64(0, endpoints.len() as u64) as usize].to_string()
            };
            let kind = match rng.range_u64(0, 6) {
                0 => FaultKind::EndpointCrash { endpoint: target },
                1 => FaultKind::MepForkFailure { endpoint: target, user: "any".into() },
                2 => FaultKind::NodeDrain { scheduler: target },
                3 => FaultKind::WanPartition {
                    endpoint: target,
                    heal_after: SimDuration::from_secs(rng.range_u64(10, 300)),
                },
                4 => FaultKind::TokenExpiry,
                _ => FaultKind::ArtifactCorruption { name: target },
            };
            plan.faults.push(FaultSpec { at, kind });
        }
        plan.faults.sort_by_key(|f| f.at);
        plan
    }

    /// Render the schedule one fault per line (stable across runs; used by
    /// determinism tests to compare plans byte-for-byte).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.faults {
            out.push_str(&format!("[{}] {}\n", f.at, f.kind));
        }
        out
    }
}

struct InjectorState {
    pending: Vec<FaultSpec>,
    /// Active WAN partitions: (endpoint, healed_at).
    partitions: Vec<(String, SimTime)>,
    /// Tokens (by their integer value) force-expired by a TokenExpiry fault.
    expired_tokens: BTreeSet<u64>,
    /// A token expiry fired and no fresh token has been seen yet.
    awaiting_token_refresh: bool,
    /// Instant of the latest injection, until [`FaultInjector::armed`] is
    /// asked about a later one.
    fired_at: Option<SimTime>,
    /// The first instant asked about after `fired_at`.
    settle_at: Option<SimTime>,
    trace: Trace,
}

impl InjectorState {
    /// Consume one due fault matched by `pick`, recording the injection.
    /// `component` is built lazily — the common consult is a miss, and the
    /// miss path must stay allocation-free.
    fn take_due<F, C>(&mut self, now: SimTime, component: C, pick: F) -> Option<FaultKind>
    where
        F: Fn(&FaultKind) -> bool,
        C: FnOnce() -> String,
    {
        let idx = self
            .pending
            .iter()
            .position(|f| f.at <= now && pick(&f.kind))?;
        let fault = self.pending.remove(idx);
        self.fired_at = self.fired_at.max(Some(now));
        self.trace.record(
            now,
            component(),
            "fault.inject",
            format!("{} (scheduled {})", fault.kind, fault.at),
        );
        Some(fault.kind)
    }
}

/// Cloneable handle threaded through the federation, or a no-op.
///
/// The same shape as `hpcci_obs::Obs`: the [`Default`] handle
/// ([`FaultInjector::none`]) is disabled, and every consult on it returns
/// after one branch, with no lock and no allocation. An enabled handle keeps
/// its state behind a mutex, so every consult takes `&self` and read-mostly
/// components (the auth service's introspection path) need no `&mut`.
/// Containers hand their handle down to what they own — the cloud to its
/// endpoints, a multi-user endpoint to the user endpoints it forks — so
/// every component of one federation consults the same plan.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Mutex<InjectorState>>>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            inner: Some(Arc::new(Mutex::new(InjectorState {
                pending: plan.faults,
                partitions: Vec::new(),
                expired_tokens: BTreeSet::new(),
                awaiting_token_refresh: false,
                fired_at: None,
                settle_at: None,
                trace: Trace::new(),
            }))),
        }
    }

    /// The disabled handle: no plan, no chaos log, every consult a miss.
    /// Unlike `FaultInjector::new(FaultPlan::none())`, it never locks.
    pub fn none() -> Self {
        FaultInjector::default()
    }

    /// Must a container advance every child at `step`, due or not?
    ///
    /// Yes while any pending fault — of any kind, for any target — is
    /// scheduled at or before `step`: the fault lands on the first event
    /// boundary at or after its time, wherever that boundary is. And yes
    /// through the first instant asked about after an injection: a crash or
    /// a drain frees a node on the spot, and the pilot that starts on it may
    /// belong to a child with nothing due, which only sees it when polled.
    /// Outside that window every `*_due` consult is a guaranteed miss and no
    /// child holds work its own `next_event` does not show, so a container
    /// may skip the children that have nothing due.
    pub fn armed(&self, step: SimTime) -> bool {
        let Some(mut st) = self.lock() else {
            return false;
        };
        if st.fired_at.is_some_and(|fired| fired < step) {
            st.fired_at = None;
            st.settle_at = Some(step);
        }
        st.fired_at.is_some()
            || st.settle_at == Some(step)
            || st.pending.iter().any(|f| f.at <= step)
    }

    /// Snapshot of the chaos log (injections and recoveries); empty on the
    /// disabled handle.
    pub fn trace(&self) -> Trace {
        self.lock().map(|st| st.trace.clone()).unwrap_or_default()
    }

    /// Append to the chaos log — components use this to record the concrete
    /// effect of a fault and their recovery from it.
    pub fn record(
        &self,
        at: SimTime,
        component: impl crate::trace::IntoSym,
        kind: impl crate::trace::IntoSym,
        detail: impl crate::trace::IntoDetail,
    ) {
        if let Some(mut st) = self.lock() {
            st.trace.record(at, component, kind, detail);
        }
    }

    /// The state of an enabled handle, locked; `None` on the disabled one.
    fn lock(&self) -> Option<std::sync::MutexGuard<'_, InjectorState>> {
        // A poisoned chaos log would mask the panic that poisoned it;
        // recover the guard and keep going.
        let inner = self.inner.as_ref()?;
        Some(inner.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// [`InjectorState::take_due`] on an enabled handle.
    fn take_due<F, C>(&self, now: SimTime, component: C, pick: F) -> Option<FaultKind>
    where
        F: Fn(&FaultKind) -> bool,
        C: FnOnce() -> String,
    {
        self.lock()?.take_due(now, component, pick)
    }

    /// Endpoint boundary: should this endpoint crash now?
    pub fn crash_due(&self, endpoint: &str, now: SimTime) -> bool {
        self.take_due(now, || format!("faas.ep.{endpoint}"), |k| {
            matches!(k, FaultKind::EndpointCrash { endpoint: e } if e == endpoint)
        })
        .is_some()
    }

    /// MEP boundary: should forking the UEP for `user` fail this once?
    /// A plan entry with user `"any"` matches every submitter.
    pub fn fork_failure_due(&self, endpoint: &str, user: &str, now: SimTime) -> bool {
        self.take_due(now, || format!("faas.mep.{endpoint}"), |k| {
            matches!(k, FaultKind::MepForkFailure { endpoint: e, user: u }
                if e == endpoint && (u == "any" || u == user))
        })
        .is_some()
    }

    /// Scheduler boundary: should this scheduler drain a node now?
    pub fn drain_due(&self, scheduler: &str, now: SimTime) -> bool {
        self.take_due(now, || format!("sched.{scheduler}"), |k| {
            matches!(k, FaultKind::NodeDrain { scheduler: s } if s == scheduler)
        })
        .is_some()
    }

    /// Cloud wire boundary: if the WAN path to `endpoint` is (or just
    /// became) partitioned, return the heal time; wire events must not be
    /// delivered before it. Heals are detected and logged here too.
    pub fn partition_until(&self, endpoint: &str, now: SimTime) -> Option<SimTime> {
        let mut st = self.lock()?;
        // Activate any due partition fault for this endpoint.
        if let Some(FaultKind::WanPartition { heal_after, .. }) =
            st.take_due(now, || format!("faas.wan.{endpoint}"), |k| {
                matches!(k, FaultKind::WanPartition { endpoint: e, .. } if e == endpoint)
            })
        {
            st.partitions.push((endpoint.to_string(), now + heal_after));
        }
        let mut healed_now = Vec::new();
        st.partitions.retain(|(e, until)| {
            if e == endpoint && now >= *until {
                healed_now.push(*until);
                false
            } else {
                true
            }
        });
        for until in healed_now {
            st.trace.record(
                now,
                format!("faas.wan.{endpoint}"),
                "fault.recover",
                format!("partition healed (was due {until})"),
            );
        }
        st.partitions
            .iter()
            .filter(|(e, _)| e == endpoint)
            .map(|(_, until)| *until)
            .max()
    }

    /// Auth boundary: is this token force-expired? The first introspection
    /// at or after a due `TokenExpiry` consumes the fault and expires the
    /// token it sees; a later introspection of a *different* token counts
    /// as the refresh recovery.
    pub fn token_expired(&self, token: u64, now: SimTime) -> bool {
        let Some(mut st) = self.lock() else {
            return false;
        };
        if st
            .take_due(now, || "auth".to_string(), |k| matches!(k, FaultKind::TokenExpiry))
            .is_some()
        {
            st.expired_tokens.insert(token);
            st.awaiting_token_refresh = true;
            return true;
        }
        if st.expired_tokens.contains(&token) {
            return true;
        }
        if st.awaiting_token_refresh {
            st.awaiting_token_refresh = false;
            st.trace
                .record(now, "auth", "fault.recover", "fresh token accepted after forced expiry");
        }
        false
    }

    /// Artifact-store boundary: should this upload be corrupted?
    pub fn corruption_due(&self, name: &str, now: SimTime) -> bool {
        self.take_due(now, || "ci.artifacts".to_string(), |k| {
            matches!(k, FaultKind::ArtifactCorruption { name: n } if n == name)
        })
        .is_some()
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("FaultInjector");
        match self.lock() {
            Some(st) => d
                .field("pending", &st.pending.len())
                .field("partitions", &st.partitions.len()),
            None => d.field("enabled", &false),
        };
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_a_noop() {
        let t = SimTime::from_secs(100);
        for inj in [FaultInjector::new(FaultPlan::none()), FaultInjector::none()] {
            assert!(!inj.armed(t));
            assert!(!inj.crash_due("ep", t));
            assert!(!inj.fork_failure_due("ep", "u", t));
            assert!(!inj.drain_due("s", t));
            assert!(inj.partition_until("ep", t).is_none());
            assert!(!inj.token_expired(7, t));
            assert!(!inj.corruption_due("a", t));
            assert!(inj.trace().is_empty(), "no consult may log on {inj:?}");
        }
        let disabled = FaultInjector::none();
        disabled.record(SimTime::ZERO, "x", "fault.effect", "dropped");
        assert!(disabled.trace().is_empty(), "the disabled handle keeps no log");
    }

    #[test]
    fn faults_are_one_shot_and_time_gated() {
        let plan = FaultPlan::none().with_fault(
            SimTime::from_secs(50),
            FaultKind::EndpointCrash { endpoint: "ep-a".into() },
        );
        let inj = FaultInjector::new(plan);
        assert!(!inj.crash_due("ep-a", SimTime::from_secs(49)), "not due yet");
        assert!(!inj.armed(SimTime::from_secs(49)));
        assert!(!inj.crash_due("ep-b", SimTime::from_secs(60)), "wrong target");
        assert!(inj.armed(SimTime::from_secs(50)), "armed for any target");
        assert!(inj.crash_due("ep-a", SimTime::from_secs(60)));
        assert!(!inj.crash_due("ep-a", SimTime::from_secs(70)), "consumed");
        assert!(inj.armed(SimTime::from_secs(60)), "same-instant follow-ups");
        assert!(inj.armed(SimTime::from_secs(61)), "one poll after it lands");
        assert!(inj.armed(SimTime::from_secs(61)), "for every child asking");
        assert!(!inj.armed(SimTime::from_secs(62)), "then the window closes");
        assert_eq!(inj.trace().of_kind("fault.inject").count(), 1);
    }

    #[test]
    fn partition_activates_and_heals() {
        let plan = FaultPlan::none().with_fault(
            SimTime::from_secs(10),
            FaultKind::WanPartition {
                endpoint: "ep".into(),
                heal_after: SimDuration::from_secs(30),
            },
        );
        let inj = FaultInjector::new(plan);
        assert!(inj.partition_until("ep", SimTime::from_secs(5)).is_none());
        let until = inj.partition_until("ep", SimTime::from_secs(10)).unwrap();
        assert_eq!(until, SimTime::from_secs(40));
        assert!(inj.partition_until("ep", SimTime::from_secs(39)).is_some());
        assert!(inj.partition_until("ep", SimTime::from_secs(40)).is_none(), "healed");
        assert_eq!(inj.trace().of_kind("fault.recover").count(), 1);
    }

    #[test]
    fn token_expiry_hits_one_token_and_recovers_on_refresh() {
        let plan = FaultPlan::none().with_fault(SimTime::from_secs(5), FaultKind::TokenExpiry);
        let inj = FaultInjector::new(plan);
        assert!(!inj.token_expired(1, SimTime::from_secs(1)));
        assert!(inj.token_expired(1, SimTime::from_secs(6)), "fault fires");
        assert!(inj.token_expired(1, SimTime::from_secs(7)), "stays expired");
        assert!(
            !inj.token_expired(2, SimTime::from_secs(8)),
            "fresh token fine"
        );
        assert_eq!(inj.trace().of_kind("fault.recover").count(), 1);
    }

    #[test]
    fn randomized_plans_are_deterministic_per_seed() {
        let eps = ["ep-a", "ep-b"];
        let a = FaultPlan::randomized(7, SimDuration::from_hours(1), 8, &eps);
        let b = FaultPlan::randomized(7, SimDuration::from_hours(1), 8, &eps);
        assert_eq!(a.render(), b.render());
        let c = FaultPlan::randomized(8, SimDuration::from_hours(1), 8, &eps);
        assert_ne!(a.render(), c.render(), "different seed, different schedule");
        assert_eq!(a.len(), 8);
    }
}
