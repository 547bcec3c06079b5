//! The metrics registry behind an [`crate::Obs`] handle.
//!
//! Names are interned [`Sym`]s: instrumented components pre-intern their
//! per-instance names once (e.g. `sched.faster.queue_wait_us`) and record
//! against the shared allocation thereafter, so the recording hot path never
//! allocates. `&'static str` names bypass the interner entirely.

use crate::histogram::Histogram;
use crate::snapshot::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
use hpcci_sim::{Interner, IntoSym, Sym};
use std::collections::BTreeMap;

/// Core metric names pre-registered on every enabled registry so snapshots
/// always expose the acceptance-critical series, observed or not.
pub const CORE_HISTOGRAMS: &[&str] = &[
    "ci.step_replay_us",
    "faas.pilot_provision_us",
    "faas.task_exec_us",
    "faas.task_latency_us",
    "sched.backfill_wait_us",
    "sched.queue_wait_us",
];

/// Pre-registered counters (see [`CORE_HISTOGRAMS`]).
pub const CORE_COUNTERS: &[&str] = &[
    "action.failovers",
    "action.infra_failures",
    "action.retries",
    "action.token_refreshes",
    "auth.token_refreshes",
    "auth.tokens_issued",
    "ci.artifact_logical_bytes",
    "ci.artifact_stored_bytes",
    "ci.runs_total",
    "ci.step_cache_hits",
    "ci.step_cache_misses",
    "ci.step_cache_uncacheable",
    "faas.pilot_reprovisions",
    "faas.tasks_completed",
    "faas.tasks_submitted",
    "faults.injected",
    "sim.events_dispatched",
];

/// Last-set and high-water tracking for a gauge.
#[derive(Clone, Copy, Debug, Default)]
struct Gauge {
    last: u64,
    max: u64,
}

/// The mutable metrics store. Wrapped in `Arc<Mutex<_>>` by [`crate::Obs`];
/// use the handle, not this type, from instrumented code.
#[derive(Default)]
pub struct Registry {
    interner: Interner,
    counters: BTreeMap<Sym, u64>,
    gauges: BTreeMap<Sym, Gauge>,
    histograms: BTreeMap<Sym, Histogram>,
}

impl Registry {
    pub fn new() -> Self {
        let mut r = Registry::default();
        for name in CORE_COUNTERS {
            r.counters.insert(Sym::Static(name), 0);
        }
        for name in CORE_HISTOGRAMS {
            r.histograms.insert(Sym::Static(name), Histogram::new());
        }
        r
    }

    pub fn intern(&mut self, name: &str) -> Sym {
        self.interner.intern(name)
    }

    pub fn add(&mut self, name: impl IntoSym, delta: u64) {
        let sym = name.into_sym(&mut self.interner);
        *self.counters.entry(sym).or_insert(0) += delta;
    }

    /// Overwrite a counter with an absolute value (for counters harvested
    /// from component-local fields at snapshot time).
    pub fn set_counter(&mut self, name: impl IntoSym, value: u64) {
        let sym = name.into_sym(&mut self.interner);
        self.counters.insert(sym, value);
    }

    pub fn gauge_set(&mut self, name: impl IntoSym, value: u64) {
        let sym = name.into_sym(&mut self.interner);
        let g = self.gauges.entry(sym).or_default();
        g.last = value;
        g.max = g.max.max(value);
    }

    pub fn observe(&mut self, name: impl IntoSym, value: u64) {
        let sym = name.into_sym(&mut self.interner);
        self.histograms.entry(sym).or_default().observe(value);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, g)| {
                    (
                        k.to_string(),
                        GaugeSnapshot {
                            last: g.last,
                            max: g.max,
                        },
                    )
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.to_string(), HistogramSnapshot::of(h)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_metrics_pre_registered() {
        let snap = Registry::new().snapshot();
        for name in CORE_COUNTERS {
            assert!(snap.counters.contains_key(*name), "missing counter {name}");
        }
        for name in CORE_HISTOGRAMS {
            assert!(
                snap.histograms.contains_key(*name),
                "missing histogram {name}"
            );
        }
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let mut r = Registry::new();
        r.add("faas.tasks_submitted", 2);
        r.add("faas.tasks_submitted", 1);
        r.set_counter("sim.events_dispatched", 777);
        r.gauge_set("sched.queue_depth", 5);
        r.gauge_set("sched.queue_depth", 2);
        r.observe("faas.task_latency_us", 1_000);
        let snap = r.snapshot();
        assert_eq!(snap.counter("faas.tasks_submitted"), 3);
        assert_eq!(snap.counter("sim.events_dispatched"), 777);
        let g = snap.gauge("sched.queue_depth").unwrap();
        assert_eq!((g.last, g.max), (2, 5));
        assert_eq!(snap.histogram("faas.task_latency_us").unwrap().count, 1);
    }

    #[test]
    fn interned_names_share_series() {
        let mut r = Registry::new();
        let sym = r.intern("sched.faster.queue_wait_us");
        r.observe(&sym, 10);
        r.observe(sym, 20);
        r.observe("sched.faster.queue_wait_us".to_string(), 30);
        assert_eq!(
            r.snapshot()
                .histogram("sched.faster.queue_wait_us")
                .unwrap()
                .count,
            3
        );
    }
}
