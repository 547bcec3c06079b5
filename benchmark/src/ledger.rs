//! The per-layer ledger: spans the benchmark records around its own calls
//! into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id of
//! its round. Spans stay in memory and are written out when the rep ends. A
//! layer's self time is its span minus the part its children cover. With the
//! ledger off every call is a plain call: the end-to-end numbers are measured
//! without it.

use hpcci::ci::WorldDriver;
use hpcci::faas::CloudService;
use hpcci::sim::{Advance, SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Rounds whose individual spans are kept for the trace file; the totals
/// cover every round.
const KEPT_ROUNDS: u64 = 256;

/// Parent of every span the driver records directly.
const ROUND: &str = "round";

struct Span {
    name: &'static str,
    parent: &'static str,
    round: u64,
    start_ns: u64,
    end_ns: u64,
    /// Calls folded into this span (1 unless it aggregates a hot child).
    calls: u64,
}

#[derive(Default, Clone, Copy)]
struct Total {
    ns: u64,
    calls: u64,
    children_ns: u64,
}

pub struct Ledger {
    on: bool,
    epoch: Instant,
    round: u64,
    round_start_ns: u64,
    /// Start of the last span [`Ledger::time`] recorded.
    last_start_ns: u64,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

/// One layer's row: self time and calls over the whole timed section.
pub struct Row {
    pub name: &'static str,
    pub self_ns: u64,
    pub calls: u64,
}

pub struct Report {
    pub rows: Vec<Row>,
    /// Share of the timed wall the named layers' self times add up to.
    pub coverage_pct: f64,
    /// The kept spans as a JSON document.
    pub spans_json: String,
}

impl Ledger {
    pub fn off() -> Ledger {
        Ledger::new(false)
    }

    pub fn on() -> Ledger {
        Ledger::new(true)
    }

    fn new(on: bool) -> Ledger {
        Ledger {
            on,
            epoch: Instant::now(),
            round: 0,
            round_start_ns: 0,
            last_start_ns: 0,
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin_round(&mut self, round: u64) {
        if self.on {
            self.round = round;
            self.round_start_ns = self.now_ns();
        }
    }

    pub fn end_round(&mut self) {
        if self.on {
            let end = self.now_ns();
            self.record(ROUND, "", self.round_start_ns, end, 1);
        }
    }

    /// Run `f` inside a span named `name`, a child of the current round.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.last_start_ns = start;
        self.record(name, ROUND, start, end, 1);
        out
    }

    /// Fold `calls` timed calls totalling `busy_ns`, made from inside the
    /// span just recorded (`parent`), into one child span. Hot inner calls (one per
    /// simulation step) are accumulated by their caller and booked here once
    /// per round.
    pub fn child(&mut self, name: &'static str, parent: &'static str, busy_ns: u64, calls: u64) {
        if !self.on {
            return;
        }
        let start = self.last_start_ns;
        self.record(name, parent, start, start + busy_ns, calls);
        self.totals.entry(parent).or_default().children_ns += busy_ns;
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) {
        let total = self.totals.entry(name).or_default();
        total.ns += end_ns - start_ns;
        total.calls += calls;
        if self.round < KEPT_ROUNDS {
            self.spans.push(Span {
                name,
                parent,
                round: self.round,
                start_ns,
                end_ns,
                calls,
            });
        }
    }

    /// Close the ledger over a timed section of `wall_s` seconds.
    pub fn finish(self, wall_s: f64) -> Option<Report> {
        if !self.on {
            return None;
        }
        let rows: Vec<Row> = self
            .totals
            .iter()
            .filter(|(name, _)| **name != ROUND)
            .map(|(name, t)| Row {
                name,
                self_ns: t.ns - t.children_ns.min(t.ns),
                calls: t.calls,
            })
            .collect();
        let covered: u64 = rows.iter().map(|r| r.self_ns).sum();
        let mut spans_json = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                spans_json,
                "  {{\"name\": \"{}\", \"parent\": \"{}\", \"round\": {}, \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}{sep}",
                s.name, s.parent, s.round, s.start_ns, s.end_ns, s.calls
            );
        }
        spans_json.push(']');
        Some(Report {
            rows,
            coverage_pct: 100.0 * covered as f64 / (wall_s * 1e9),
            spans_json,
        })
    }
}

/// The benchmark's own [`WorldDriver`] over the federation's cloud: what
/// `Federation::run_all` hands the CI engine, with a timer around every step
/// and sleep, so the cloud's event loop is booked apart from the engine and
/// action code that calls it.
pub struct TimedWorld {
    cloud: Arc<Mutex<CloudService>>,
    pub busy_ns: u64,
    pub calls: u64,
}

impl TimedWorld {
    pub fn new(cloud: Arc<Mutex<CloudService>>) -> TimedWorld {
        TimedWorld {
            cloud,
            busy_ns: 0,
            calls: 0,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut CloudService) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.cloud.lock());
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

impl WorldDriver for TimedWorld {
    fn now(&self) -> SimTime {
        self.cloud.lock().now()
    }

    fn step(&mut self) -> bool {
        self.timed(|cloud| cloud.step_next(SimTime::FAR_FUTURE).is_some())
    }

    fn sleep(&mut self, d: SimDuration) {
        self.timed(|cloud| {
            let target = cloud.now() + d;
            cloud.advance_to(target);
        });
    }
}
