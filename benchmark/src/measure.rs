//! What one rep measured, and the arithmetic over reps.

use crate::alloc;
use crate::ledger::Report;
use hpcci::obs::MetricsSnapshot;
use std::collections::BTreeMap;

/// Process and program counters read at the edges of a timed section.
pub struct Snapshot {
    rss_kib: u64,
    hwm_kib: u64,
    alloc_calls: u64,
    alloc_bytes: u64,
    events: u64,
}

impl Snapshot {
    /// `events` is the cloud's dispatched-event counter.
    pub fn take(events: u64) -> Snapshot {
        let (alloc_calls, alloc_bytes) = alloc::counted();
        Snapshot {
            rss_kib: proc_status_kib("VmRSS:"),
            hwm_kib: proc_status_kib("VmHWM:"),
            alloc_calls,
            alloc_bytes,
            events,
        }
    }
}

/// A `kB` field of `/proc/self/status`; 0 where procfs is missing.
fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Everything one rep measured, by metric name. Names missing from `values`
/// were not measured by this kind of rep.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the program's functional trace: the output check.
    pub digest: String,
    pub values: BTreeMap<String, f64>,
    /// Host time of every unit of the timed section, in order: one round of
    /// a push workload, one wave of `faas_peak_day`. Every rep of a workload
    /// and seed executes the same units, so they compare index by index.
    pub unit_wall_us: Vec<f64>,
    /// Kept spans of a traced rep, for the trace file.
    pub spans_json: Option<String>,
}

impl Outcome {
    /// `ops` operations attempted over a timed section of `wall_s` seconds
    /// bracketed by `before` and `after`. Peak memory is the high-water mark
    /// at the end of the timed section, before the output check renders the
    /// trace.
    pub fn new(
        ops: u64,
        setup_s: f64,
        wall_s: f64,
        before: &Snapshot,
        after: &Snapshot,
    ) -> Outcome {
        let mut out = Outcome {
            attempted: ops,
            ..Outcome::default()
        };
        let per_op = |x: u64| x as f64 / ops as f64;
        out.set("setup_s", setup_s);
        out.set("timed.wall_s", wall_s);
        out.set("peak_rss_mib", after.hwm_kib as f64 / 1024.0);
        out.set(
            "mem.rss_kib_per_op",
            per_op(after.rss_kib.saturating_sub(before.rss_kib)),
        );
        // Counted only while a traced rep switches the allocator's flag on.
        if after.alloc_calls > before.alloc_calls {
            out.set(
                "alloc.calls_per_op",
                per_op(after.alloc_calls - before.alloc_calls),
            );
            out.set(
                "alloc.bytes_per_op",
                per_op(after.alloc_bytes - before.alloc_bytes),
            );
        }
        out.set("faas.events", (after.events - before.events) as f64);
        out
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.set(name, value as f64);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Host time of every unit, kept for the parent; the p99 per operation
    /// is a per-rep diagnostic.
    pub fn unit_walls(&mut self, wall_us: Vec<f64>) {
        let per_op = self.attempted as f64 / wall_us.len() as f64;
        let mut sorted = wall_us.clone();
        sorted.sort_by(f64::total_cmp);
        self.set("op_wall.p99_us", quantile(&sorted, 0.99) / per_op);
        self.unit_wall_us = wall_us;
    }

    /// Simulated trigger→end of every successful operation.
    pub fn turnarounds(&mut self, mut secs: Vec<f64>) {
        secs.sort_by(f64::total_cmp);
        self.set("sim_turnaround_p50_s", quantile(&secs, 0.50));
        self.set("sim_turnaround_p95_s", quantile(&secs, 0.95));
    }

    /// The simulated latency series of an `hpcci-obs`-enabled rep.
    pub fn sim_series(&mut self, snap: &MetricsSnapshot) {
        for (series, name) in [
            ("faas.task_latency_us", "faas.task_latency"),
            ("sched.queue_wait_us", "scheduler.queue_wait"),
        ] {
            let h = snap.histogram(series);
            self.set(
                &format!("{name}_p50_s"),
                h.map_or(0.0, |h| h.p50 as f64 / 1e6),
            );
            self.set(
                &format!("{name}_p99_s"),
                h.map_or(0.0, |h| h.p99 as f64 / 1e6),
            );
        }
    }

    /// Book a traced rep's ledger: self time per operation for every layer.
    pub fn ledger(&mut self, report: Option<Report>) {
        let Some(report) = report else { return };
        for row in &report.rows {
            self.set(
                &format!("{}_ns", row.name),
                row.self_ns as f64 / self.attempted as f64,
            );
            if row.name == "faas.step" {
                self.count("faas.step_calls", row.calls);
            }
        }
        self.set("ledger.coverage_pct", report.coverage_pct);
        self.spans_json = Some(report.spans_json);
    }
}

/// The `q`-quantile of sorted samples (nearest rank); 0 when there are none.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them, so the spread printed here is the one the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}
