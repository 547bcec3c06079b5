//! `hpcci-obs`: simulation-time observability for the federation.
//!
//! The paper's evaluation (§VI) reports queue wait, provisioning latency, and
//! per-site CI overhead — quantities a reproduction must be able to *ask* the
//! simulator for. This crate provides a metrics registry (counters, gauges,
//! log-bucketed histograms), span-based structured tracing layered on the
//! simulation [`Trace`], and per-run [`RunReport`] telemetry.
//!
//! ## Determinism rules
//!
//! Everything here records **simulation time only** — there are no wall
//! clocks, no RNG draws, and recording never feeds back into component state,
//! timing, or trace contents. Counters, histogram bucket counts, and gauge
//! high-water marks are order-independent, so two same-seed runs (serial or
//! under the parallel sweep) produce byte-identical snapshots, and golden
//! trace hashes are unchanged whether observability is enabled or disabled.
//!
//! ## Cost discipline
//!
//! An [`Obs`] handle is `Option<Arc<Mutex<Registry>>>`; the disabled handle
//! is `None` and every recording method returns after one branch, with no
//! lock and no allocation. Enabled recording happens at *task/job* frequency
//! (completions, job starts, run boundaries), never per simulation event:
//! per-event quantities stay plain `u64` fields on their components and are
//! harvested into the registry once, at snapshot time.

mod histogram;
mod registry;
mod report;
mod snapshot;

pub use histogram::{bucket_upper, Histogram, HISTOGRAM_BUCKETS};
pub use registry::{Registry, SpanId, SpanRec, CORE_COUNTERS, CORE_HISTOGRAMS};
pub use report::RunReport;
pub use snapshot::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};

use hpcci_sim::{IntoDetail, IntoSym, SimDuration, SimTime, Sym, Trace};
use parking_lot::Mutex;
use std::sync::Arc;

/// Observability configuration for a federation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    enabled: bool,
}

impl ObsConfig {
    /// Record metrics and spans.
    pub fn enabled() -> Self {
        ObsConfig { enabled: true }
    }

    /// Record nothing; every instrumentation point is a single branch.
    pub fn disabled() -> Self {
        ObsConfig { enabled: false }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

/// Cheaply cloneable handle to a shared metrics registry, or a no-op.
///
/// Components hold a clone and record through it; the federation (or a bench
/// harness) keeps one to snapshot. The `Default` handle is disabled.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl Obs {
    pub fn new(config: ObsConfig) -> Self {
        if config.is_enabled() {
            Obs::enabled()
        } else {
            Obs::disabled()
        }
    }

    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(Mutex::new(Registry::new()))),
        }
    }

    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Intern a metric name once so subsequent records are allocation-free.
    /// Disabled handles return a static empty symbol that is never used.
    pub fn intern(&self, name: &str) -> Sym {
        match &self.inner {
            Some(inner) => inner.lock().intern(name),
            None => Sym::Static(""),
        }
    }

    /// Increment a counter by 1.
    pub fn inc(&self, name: impl IntoSym) {
        self.add(name, 1);
    }

    /// Increment a counter.
    pub fn add(&self, name: impl IntoSym, delta: u64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().add(name, delta);
    }

    /// Overwrite a counter with an absolute value (harvest path).
    pub fn set_counter(&self, name: impl IntoSym, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().set_counter(name, value);
    }

    /// Set a gauge (tracks last value and high-water mark).
    pub fn gauge_set(&self, name: impl IntoSym, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().gauge_set(name, value);
    }

    /// Record a histogram observation (conventionally µs).
    pub fn observe(&self, name: impl IntoSym, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().observe(name, value);
    }

    /// Record a duration observation in µs.
    pub fn observe_duration(&self, name: impl IntoSym, d: SimDuration) {
        self.observe(name, d.as_micros());
    }

    /// Open a span at `at`. Disabled handles return [`SpanId::NONE`].
    pub fn span_start(
        &self,
        name: impl IntoSym,
        detail: impl IntoDetail,
        at: SimTime,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        inner.lock().span_start(name, detail, at)
    }

    /// [`Obs::span_start`] with a lazily built detail string: disabled
    /// handles never invoke `detail`, so hot paths pay nothing for the
    /// formatting. Use this whenever the detail needs a `format!`.
    pub fn span_start_with(
        &self,
        name: impl IntoSym,
        detail: impl FnOnce() -> String,
        at: SimTime,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        inner.lock().span_start(name, detail(), at)
    }

    /// Close a span. Ignores [`SpanId::NONE`].
    pub fn span_end(&self, id: SpanId, at: SimTime) {
        let Some(inner) = &self.inner else { return };
        inner.lock().span_end(id, at);
    }

    /// Snapshot every registered metric. Disabled handles return an empty
    /// snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.lock().snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Clone of the span trace (`span.start` / `span.end` events).
    pub fn span_trace(&self) -> Trace {
        match &self.inner {
            Some(inner) => inner.lock().trace().clone(),
            None => Trace::default(),
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().spans().len(),
            None => 0,
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let obs = Obs::new(ObsConfig::disabled());
        assert!(!obs.is_enabled());
        obs.inc("faas.tasks_submitted");
        obs.observe("faas.task_latency_us", 99);
        obs.gauge_set("sched.queue_depth", 5);
        let span = obs.span_start("ci.run", "run=1", SimTime::ZERO);
        assert_eq!(span, SpanId::NONE);
        obs.span_end(span, SimTime::from_secs(1));
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.spans, 0);
        assert!(obs.span_trace().is_empty());
    }

    #[test]
    fn enabled_handle_records_and_clones_share_state() {
        let obs = Obs::new(ObsConfig::enabled());
        let clone = obs.clone();
        obs.inc("faas.tasks_submitted");
        clone.add("faas.tasks_submitted", 2);
        clone.observe_duration("faas.task_latency_us", SimDuration::from_millis(3));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("faas.tasks_submitted"), 3);
        assert_eq!(snap.histogram("faas.task_latency_us").unwrap().sum, 3_000);
    }

    #[test]
    fn spans_round_trip_through_handle() {
        let obs = Obs::enabled();
        let id = obs.span_start("ci.run", "run=7", SimTime::from_secs(2));
        obs.span_end(id, SimTime::from_secs(5));
        assert_eq!(obs.span_count(), 1);
        let trace = obs.span_trace();
        assert_eq!(trace.of_kind("span.start").count(), 1);
        assert_eq!(trace.of_kind("span.end").count(), 1);
    }

    #[test]
    fn same_operations_yield_byte_identical_output() {
        let run = || {
            let obs = Obs::enabled();
            obs.add("faas.tasks_submitted", 7);
            let sym = obs.intern("sched.faster.queue_wait_us");
            obs.observe(&sym, 1_234);
            obs.observe(sym, 56_789);
            obs.gauge_set("sched.queue_depth", 4);
            (obs.snapshot().to_json(), obs.snapshot().to_prometheus())
        };
        assert_eq!(run(), run());
    }
}
