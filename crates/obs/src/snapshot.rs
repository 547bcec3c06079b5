//! Point-in-time views of the metrics registry, with deterministic
//! Prometheus-style and JSON renderings.
//!
//! Both renderings iterate `BTreeMap`s and format integers only, so two
//! registries with equal contents produce byte-identical text — the property
//! `tests/obs_metrics.rs` pins across same-seed runs and serial-vs-parallel
//! sweeps.

use crate::histogram::{bucket_upper, Histogram, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Last-set and high-water values of a gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    pub last: u64,
    pub max: u64,
}

/// Frozen histogram: counts, extrema, and pre-computed quantile estimates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    pub fn of(h: &Histogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(50),
            p90: h.quantile(90),
            p99: h.quantile(99),
            buckets: (0..HISTOGRAM_BUCKETS)
                .filter(|&i| h.buckets()[i] > 0)
                .map(|i| (bucket_upper(i), h.buckets()[i]))
                .collect(),
        }
    }

    /// Mean in the histogram's unit, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A complete, ordered snapshot of every registered metric.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Spans recorded (open + closed).
    pub spans: u64,
}

/// Mangle a dotted metric name into a Prometheus-legal identifier.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("hpcci_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a string for embedding in JSON.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// Counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Prometheus-style text exposition. Deterministic: names are sorted and
    /// every sample is an integer.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} counter");
            let _ = writeln!(out, "{p} {value}");
        }
        for (name, g) in &self.gauges {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {}", g.last);
            let _ = writeln!(out, "{p}_max {}", g.max);
        }
        for (name, h) in &self.histograms {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} histogram");
            let mut cumulative = 0u64;
            for &(upper, count) in &h.buckets {
                cumulative += count;
                let _ = writeln!(out, "{p}_bucket{{le=\"{upper}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{p}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{p}_sum {}", h.sum);
            let _ = writeln!(out, "{p}_count {}", h.count);
        }
        out
    }

    /// JSON dump. Deterministic: ordered keys, integers only.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {value}", json_escape(name));
            first = false;
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, g) in &self.gauges {
            let sep = if first { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"last\": {}, \"max\": {}}}",
                json_escape(name),
                g.last,
                g.max
            );
            first = false;
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            let sep = if first { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                json_escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p90,
                h.p99
            );
            for (i, (upper, count)) in h.buckets.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}[{upper}, {count}]");
            }
            out.push_str("]}");
            first = false;
        }
        let _ = write!(out, "\n  }},\n  \"spans\": {}\n}}\n", self.spans);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut h = Histogram::new();
        h.observe(5);
        h.observe(700);
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("faas.tasks_submitted".into(), 42);
        snap.gauges
            .insert("sched.queue_depth".into(), GaugeSnapshot { last: 1, max: 9 });
        snap.histograms
            .insert("faas.task_latency_us".into(), HistogramSnapshot::of(&h));
        snap.spans = 3;
        snap
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE hpcci_faas_tasks_submitted counter"));
        assert!(text.contains("hpcci_faas_tasks_submitted 42"));
        assert!(text.contains("hpcci_sched_queue_depth_max 9"));
        assert!(text.contains("hpcci_faas_task_latency_us_bucket{le=\"7\"} 1"));
        assert!(text.contains("hpcci_faas_task_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("hpcci_faas_task_latency_us_sum 705"));
    }

    #[test]
    fn json_dump_is_deterministic() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"faas.tasks_submitted\": 42"));
        assert!(a.contains("\"p50\":"));
        assert!(a.contains("\"spans\": 3"));
    }

    #[test]
    fn lookups() {
        let snap = sample();
        assert_eq!(snap.counter("faas.tasks_submitted"), 42);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("sched.queue_depth").unwrap().max, 9);
        let h = snap.histogram("faas.task_latency_us").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), 352);
    }
}
