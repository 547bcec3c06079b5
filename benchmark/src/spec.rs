//! The benchmark's contract: its workloads, its metrics with units and
//! regression bounds, and the output digests pinned per (workload, seed).
//! `BENCHMARK.json` at the root of the repository is printed from these
//! tables (`--manifest`), so the two cannot drift.

use crate::fleet::FleetSize;

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Push → report over the whole stack, step cache off.
    Push(FleetSize),
    /// The same rounds replayed from a step cache recorded during set-up.
    Replay(FleetSize),
    /// FaaS tasks only, this many.
    Peak(u64),
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
}

impl Workload {
    /// Operations one rep attempts: workflow runs, or tasks on `faas_peak_day`.
    pub fn ops(&self) -> u64 {
        match self.kind {
            Kind::Push(size) | Kind::Replay(size) => size.rounds as u64,
            Kind::Peak(tasks) => tasks,
        }
    }
}

const FLEET: FleetSize = FleetSize {
    repos: 64,
    users: 256,
    rounds: 1000,
};

/// N is fixed here and identical on every commit. Sized so a rep takes about
/// a second on two cores: a driver run then fits a dozen or more
/// fresh-process reps, which is what steadies its numbers on a shared host
/// (see `summary::quiet_wall_s`).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet_push",
        kind: Kind::Push(FLEET),
        why: "The paper's Fig. 2 path under multi-tenant load: 64 repos, Zipf tenants, every layer takes part",
    },
    Workload {
        name: "tenant_scale",
        kind: Kind::Push(FleetSize {
            repos: 1024,
            users: 4096,
            rounds: 200,
        }),
        why: "Same per-run work over 1024 repos and 8192 secrets: isolates per-tenant state handling in vcs and ci",
    },
    Workload {
        name: "cache_replay",
        kind: Kind::Replay(FLEET),
        why: "fleet_push replayed from a recorded step cache: zero FaaS events, so only vcs, ci and cas do work",
    },
    Workload {
        name: "faas_peak_day",
        kind: Kind::Peak(131_072),
        why: "Bypasses vcs, ci and core: batched shell tasks in diurnal waves, so faas, scheduler and sim do all the work",
    },
];

pub fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })
}

/// Output digests pinned for the development seed 7 and the held-out seed
/// 11. Other seeds are checked for equality across reps only.
const PINNED: [(&str, u64, &str); 8] = [
    ("fleet_push", 7, "3aecc5b79317"),
    ("fleet_push", 11, "ac2e3a014359"),
    ("tenant_scale", 7, "de2f2e3d0158"),
    ("tenant_scale", 11, "643d13195510"),
    ("cache_replay", 7, "ced7388a254b"),
    ("cache_replay", 11, "c9fed307f18d"),
    ("faas_peak_day", 7, "140e394211f2a8df"),
    ("faas_peak_day", 11, "33ad9508fd04c81d"),
];

pub fn pinned_digest(workload: &str, seed: u64) -> Option<&'static str> {
    PINNED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, d)| *d)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median the metric may worsen
    /// by before a change counts as a regression.
    pub bound: f64,
    /// Simulated values and counts: must repeat bit for bit across reps.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    exact: bool,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn host(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

/// What a user of the system sees. Measured with the ledger and `hpcci-obs`
/// off, one worker, one thread. An operation is a workflow run on the push
/// workloads and a FaaS task on `faas_peak_day`.
pub const END_TO_END: [Metric; 6] = [
    e2e("ops_per_s", "1/s", "higher", 0.25, false),
    e2e("op_wall_p50_us", "us", "lower", 0.25, false),
    e2e("peak_rss_mib", "MiB", "lower", 0.05, false),
    e2e("sim_turnaround_p50_s", "sim_s", "lower", 0.05, true),
    e2e("sim_turnaround_p95_s", "sim_s", "lower", 0.05, true),
    e2e("setup_s", "s", "lower", 0.25, false),
];

/// Single layers, from a traced rep, an `hpcci-obs` rep and the isolated
/// probes. No bounds: these explain a movement, they do not gate one.
pub const PER_LAYER: [Metric; 50] = [
    // Ledger: self time per operation of the benchmark's span around each layer.
    host("gen.sample_ns", "ns/op", "lower"),
    host("vcs.push_ns", "ns/op", "lower"),
    host("ci.pump_ns", "ns/op", "lower"),
    host("ci.approve_ns", "ns/op", "lower"),
    host("core.fingerprints_ns", "ns/op", "lower"),
    host("ci.execute_ns", "ns/op", "lower"),
    host("faas.step_ns", "ns/op", "lower"),
    host("faas.gap_ns", "ns/op", "lower"),
    host("faas.drain_ns", "ns/op", "lower"),
    host("obs.report_ns", "ns/op", "lower"),
    host("sim.arrivals_ns", "ns/op", "lower"),
    host("faas.submit_batch_ns", "ns/op", "lower"),
    host("faas.results_ns", "ns/op", "lower"),
    host("ledger.coverage_pct", "%", "higher"),
    host("faas.share_pct", "%", "lower"),
    host("ci.share_pct", "%", "lower"),
    host("vcs.share_pct", "%", "lower"),
    // Isolated probes.
    host("auth.authenticate_ns", "ns", "lower"),
    host("auth.introspect_ns", "ns", "lower"),
    host("sim.queue_ns_per_event", "ns", "lower"),
    host("sim.trace_record_ns", "ns", "lower"),
    host("scheduler.job_ns", "ns", "lower"),
    host("cas.put_ns", "ns", "lower"),
    host("cas.get_ns", "ns", "lower"),
    host("ci.cache_lookup_ns", "ns", "lower"),
    // Exact counts over the timed section.
    exact("vcs.pushes", "count", "higher"),
    exact("vcs.repos", "count", "higher"),
    exact("ci.runs", "count", "higher"),
    exact("ci.steps", "count", "higher"),
    exact("ci.secrets", "count", "higher"),
    exact("ci.cache_hits", "count", "higher"),
    exact("ci.cache_misses", "count", "lower"),
    exact("ci.artifact_stored_bytes", "bytes", "lower"),
    exact("faas.tasks", "count", "higher"),
    exact("faas.events", "count", "lower"),
    exact("faas.events_per_task", "1/task", "lower"),
    exact("faas.step_calls", "count", "lower"),
    exact("faas.domains", "count", "higher"),
    exact("scheduler.jobs", "count", "lower"),
    exact("sim.trace_events", "count", "lower"),
    // Simulated, from an hpcci-obs-enabled rep.
    exact("faas.task_latency_p50_s", "sim_s", "lower"),
    exact("faas.task_latency_p99_s", "sim_s", "lower"),
    exact("scheduler.queue_wait_p50_s", "sim_s", "lower"),
    exact("scheduler.queue_wait_p99_s", "sim_s", "lower"),
    // The cost of looking.
    host("alloc.calls_per_op", "1/op", "lower"),
    host("alloc.bytes_per_op", "B/op", "lower"),
    host("mem.rss_kib_per_op", "KiB/op", "lower"),
    host("op_wall.p99_us", "us", "lower"),
    host("trace.overhead_pct", "%", "lower"),
    host("obs.overhead_pct", "%", "lower"),
];

pub fn metrics(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// `BENCHMARK.json`, printed from the tables above.
pub fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
    let end_to_end = END_TO_END.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name, m.unit, m.better, m.bound
        )
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        )
    });
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        list(workloads.collect()),
        list(end_to_end.collect()),
        list(per_layer.collect()),
    )
}
