//! BENCH_federation: event-loop throughput and sweep wall-clock trajectory.
//!
//! Measures the simulation kernel itself (not the paper's figures): how many
//! trace events per wall-second a 16-endpoint federation sustains, how many
//! name `String` allocations tracing costs, and how long a fig4-style
//! scenario sweep takes serial vs parallel. Appends one labelled entry per
//! run to `BENCH_federation.json` at the repo root so future PRs can track
//! perf regressions.
//!
//! Usage: `bench_federation [--smoke] [--label <name>] [--obs-gate <pct>]
//! [--cache-gate <x>] [--throughput-gate <events/s>] [--speedup-gate <x>]
//! [--peak-throughput-gate <events/s>] [--mem-gate <MiB>] [--profile]`
//!
//! `--obs-gate <pct>` re-runs the event-loop bench with the observability
//! layer enabled and exits non-zero when enabled-vs-disabled throughput
//! regresses by more than `<pct>` percent — CI's guard that
//! `ObsConfig::disabled()` stays a no-op and the enabled path stays cheap.
//!
//! `--cache-gate <x>` exits non-zero when the warm (Replay) fig4 sweep is
//! less than `<x>` times faster than the cold (Record) sweep — CI's guard
//! that the step cache keeps paying for itself.
//!
//! `--throughput-gate <events/s>` exits non-zero when peak no-obs event-loop
//! throughput stays below the floor even after a bounded number of retries.
//! Peak (not median) because the gate asks "can the kernel still reach this
//! rate", which one clean sample proves; the median remains what the JSON
//! row records.
//!
//! `--speedup-gate <x>` exits non-zero when the 4-worker fig4 sweep is less
//! than `<x>` times faster than the 1-worker sweep. Core-aware: on hosts
//! with fewer than 4 cores a parallel speedup is physically unobtainable,
//! so the gate degrades to a no-pathological-slowdown floor (see
//! `SPEEDUP_FLOOR_FEW_CORES`). The same floor applies when the sweep's
//! min-work gate (`hpcci_sim::sweep::SWEEP_MIN_EVENTS_PER_JOB`) ran the
//! sweep serially because the per-scenario event count was too small to pay
//! for worker threads.
//!
//! `--peak-throughput-gate <events/s>` exits non-zero when the GitHub-scale
//! peak-day pass (a Zipf tenant population driving a diurnal arrival process
//! through `submit_shell_batch`) sustains less than `<events/s>` dispatched
//! events per wall-second.
//!
//! `--mem-gate <MiB>` exits non-zero when the peak-day pass's resident-set
//! high-water exceeds `<MiB>` mebibytes — the guard that rolling traces,
//! ID-dense tenant counters, and batched injection keep memory flat at a
//! million tasks.
//!
//! `--sweep-min-events <n>` overrides the sweep min-work gate
//! (`hpcci_sim::sweep::SWEEP_MIN_EVENTS_PER_JOB`) for the fig4 scaling pass;
//! the bench logs whenever the gate forces a requested parallel sweep to run
//! serially.
//!
//! `--profile` runs one instrumented event loop instead of the bench: each
//! phase (build / submit / drive) is bracketed by an `hpcci-obs` span and a
//! wall timer, and the per-phase sim/wall breakdown plus the rendered span
//! trace are printed. Nothing is appended to the JSON trajectory.

use hpcci::auth::{AuthService, Scope};
use hpcci::cluster::Site;
use hpcci::faas::exec::shared;
use hpcci::faas::{
    CloudService, Endpoint, EndpointConfig, EndpointRegistration, ExecOutcome, SiteRuntime,
    WorkerProvider,
};
use hpcci::ci::{CacheMode, StepCache};
use hpcci::correct::Federation;
use hpcci::scenarios::{parse_durations, parsldock_scenario, parsldock_scenario_on, Scenario};
use hpcci::scheduler::LocalProvider;
use hpcci::sim::{drive, ArrivalProcess, SimTime, TenantMix, Workload};
use hpcci_bench::sweep;
use hpcci_obs::{Obs, ObsConfig};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// One measured run of the 16-endpoint microbench.
struct LoopSample {
    wall_secs: f64,
    trace_events: u64,
    string_allocs: u64,
    allocs_saved: u64,
    /// Metrics snapshot when the run was observed (`None` with obs disabled).
    metrics: Option<hpcci_obs::MetricsSnapshot>,
}

/// Build the microbench federation: `n_endpoints` single-user endpoints,
/// each on its own workstation site. Shared by the measured runs and the
/// `--profile` instrumented run.
fn build_bench_cloud(
    n_endpoints: usize,
    obs: Obs,
) -> (CloudService, hpcci::auth::AccessToken, Vec<hpcci::faas::EndpointId>) {
    let auth = Arc::new(Mutex::new(AuthService::new()));
    let (token, owner) = {
        let mut a = auth.lock();
        let identity = a.register_identity("bench@hpcci.sim", "hpcci.sim", SimTime::ZERO);
        let (cid, secret) = a.create_client(identity.id, "bench").unwrap();
        let token = a
            .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
            .unwrap();
        (token, identity.id)
    };
    let mut cloud = CloudService::new(auth);
    cloud.set_obs(obs);
    let mut endpoint_ids = Vec::new();
    for i in 0..n_endpoints {
        let mut rt = SiteRuntime::new(Site::workstation(&format!("bench-{i}")));
        rt.site.add_account("bench", "proj");
        rt.commands
            .register("work", |_| ExecOutcome::ok("done", 3.0));
        let site = shared(rt);
        let login = site.lock().site.login_node().unwrap().id;
        let ep = Endpoint::new(
            EndpointConfig::new(&format!("ep-{i}"), owner, "bench").with_workers(4),
            site,
            WorkerProvider::Local(LocalProvider::new(login, 8)),
            1000 + i as u64,
        );
        endpoint_ids.push(cloud.register_endpoint(&format!("ep-{i}"), EndpointRegistration::Single(Box::new(ep))));
    }
    (cloud, token, endpoint_ids)
}

/// Build a federation of `n_endpoints` single-user endpoints, each on its own
/// workstation site, submit `n_tasks` shell tasks round-robin, and drive the
/// cloud to quiescence. Returns wall time of the drive phase only.
fn event_loop_run(n_endpoints: usize, n_tasks: usize, obs: Obs) -> LoopSample {
    let (mut cloud, token, endpoint_ids) = build_bench_cloud(n_endpoints, obs.clone());
    for t in 0..n_tasks {
        let ep = &endpoint_ids[t % n_endpoints];
        cloud
            .submit_shell(&token, ep, "work", SimTime::ZERO)
            .expect("submit");
    }
    let start = Instant::now();
    drive(&mut [&mut cloud]);
    let wall_secs = start.elapsed().as_secs_f64();
    let metrics = obs.is_enabled().then(|| {
        cloud.harvest_metrics();
        obs.snapshot()
    });
    let stats = cloud.trace.alloc_stats();
    LoopSample {
        wall_secs,
        trace_events: stats.events,
        // Name allocations actually performed: one per distinct interned
        // name; static and interner-hit names allocate nothing.
        string_allocs: stats.unique_interned as u64,
        allocs_saved: stats.saved_allocs(),
        metrics,
    }
}

/// `--profile`: one instrumented event-loop run. Each phase is bracketed by
/// an `hpcci-obs` span (recording the sim-time extent it covered) and a wall
/// timer; the combined sim/wall breakdown and the rendered span trace are
/// printed instead of appending a bench row.
fn profile_run(n_endpoints: usize, n_tasks: usize) {
    let obs = Obs::new(ObsConfig::enabled());
    let total = Instant::now();

    let wall = Instant::now();
    let span = obs.span_start("bench.build", format!("{n_endpoints} endpoints"), SimTime::ZERO);
    let (mut cloud, token, endpoint_ids) = build_bench_cloud(n_endpoints, obs.clone());
    obs.span_end(span, cloud.now());
    let build = (wall.elapsed().as_secs_f64(), cloud.now());

    let wall = Instant::now();
    let span = obs.span_start("bench.submit", format!("{n_tasks} tasks"), cloud.now());
    for t in 0..n_tasks {
        let ep = &endpoint_ids[t % n_endpoints];
        cloud
            .submit_shell(&token, ep, "work", SimTime::ZERO)
            .expect("submit");
    }
    obs.span_end(span, cloud.now());
    let submit = (wall.elapsed().as_secs_f64(), cloud.now());

    let wall = Instant::now();
    let span = obs.span_start("bench.drive", "to quiescence", cloud.now());
    drive(&mut [&mut cloud]);
    obs.span_end(span, cloud.now());
    let drive_phase = (wall.elapsed().as_secs_f64(), cloud.now());

    let total_wall = total.elapsed().as_secs_f64();
    let events = cloud.trace.len() as f64;
    hpcci_bench::section(&format!(
        "profile — {n_endpoints} endpoints, {n_tasks} tasks"
    ));
    println!("{:<14}{:>12}  {:>7}  {:>16}", "phase", "wall s", "wall %", "sim now after");
    let mut sim_before = SimTime::ZERO;
    for (name, (wall_secs, sim_after)) in
        [("build", build), ("submit", submit), ("drive", drive_phase)]
    {
        println!(
            "{:<14}{:>12.6}  {:>6.1}%  {:>13} us (+{} us)",
            name,
            wall_secs,
            100.0 * wall_secs / total_wall,
            sim_after.as_micros(),
            sim_after.since(sim_before).as_micros(),
        );
        sim_before = sim_after;
    }
    println!("{:<14}{:>12.6}  {:>6.1}%", "total", total_wall, 100.0);
    println!(
        "trace events {:>6}   drive throughput {:>12.0} events/s",
        events as u64,
        events / drive_phase.0
    );
    println!("\nspan trace:\n{}", obs.span_trace().render());
}

/// `--profile`, peak-day edition: one instrumented peak-day pass with the
/// wall clock split across the three phases each wave cycles through —
/// tenant attribution (sampling the Zipf mix), batched submission, and the
/// drain to quiescence — plus allocator counters when the bench is built
/// with `--features count-allocs`. The phase totals are also recorded as
/// `hpcci-obs` spans so the rendered span trace shows the sim-time extent
/// of the modelled day.
fn profile_peak_run(n_endpoints: usize, n_tasks: u64, repos: u32, users: u32) {
    let obs = Obs::new(ObsConfig::enabled());
    let total = Instant::now();

    let wall = Instant::now();
    let span = obs.span_start("peak.build", format!("{n_endpoints} endpoints"), SimTime::ZERO);
    let (mut cloud, token, endpoint_ids) = build_bench_cloud(n_endpoints, Obs::disabled());
    cloud.trace.set_rolling(65_536);
    let workload = Workload::new(ArrivalProcess::Diurnal {
        mean_gap_us: 86_400,
        day_secs: 86_400,
        peak_pct: 100,
    })
    .arrivals(n_tasks)
    .tenants(TenantMix::new(users, repos).zipf_x100(110));
    let mut arrivals = workload.arrival_gen(PEAK_SEED);
    let mut tenants = workload.tenant_model();
    let mut trng = workload.tenant_rng(PEAK_SEED);
    obs.span_end(span, cloud.now());
    let build_wall = wall.elapsed().as_secs_f64();

    const WAVE: usize = 32_768;
    let day_span = obs.span_start("peak.day", format!("{n_tasks} tasks"), cloud.now());
    let allocs_before = hpcci_bench::alloc_count::snapshot();
    let (mut sample_wall, mut submit_wall, mut drain_wall) = (0.0f64, 0.0f64, 0.0f64);
    let mut submitted = 0u64;
    while submitted < n_tasks {
        let n = WAVE.min((n_tasks - submitted) as usize);
        let now = cloud.now();

        let wall = Instant::now();
        let times = arrivals.arrival_times(n, now);
        let mut buckets: Vec<Vec<SimTime>> = vec![Vec::new(); n_endpoints];
        for &at in &times {
            let (_user, repo) = tenants.sample(&mut trng);
            buckets[repo as usize % n_endpoints].push(at);
        }
        sample_wall += wall.elapsed().as_secs_f64();

        let wall = Instant::now();
        for (i, bucket) in buckets.iter().enumerate() {
            if !bucket.is_empty() {
                cloud
                    .submit_shell_batch(&token, &endpoint_ids[i], "work", now, bucket)
                    .expect("batch submit");
            }
        }
        submit_wall += wall.elapsed().as_secs_f64();

        let wall = Instant::now();
        cloud.drain_to_quiescence();
        drain_wall += wall.elapsed().as_secs_f64();
        submitted += n as u64;
    }
    let alloc_delta = hpcci_bench::alloc_count::snapshot()
        .zip(allocs_before)
        .map(|(now, before)| now.since(&before));
    obs.span_end(day_span, cloud.now());

    let total_wall = total.elapsed().as_secs_f64();
    let events = cloud.events_dispatched();
    hpcci_bench::section(&format!(
        "profile (peak day) — {n_endpoints} endpoints, {n_tasks} tasks over {repos} repos"
    ));
    println!("{:<14}{:>12}  {:>7}", "phase", "wall s", "wall %");
    for (name, secs) in [
        ("build", build_wall),
        ("attribute", sample_wall),
        ("submit", submit_wall),
        ("drain", drain_wall),
    ] {
        println!("{:<14}{:>12.6}  {:>6.1}%", name, secs, 100.0 * secs / total_wall);
    }
    println!("{:<14}{:>12.6}  {:>6.1}%", "total", total_wall, 100.0);
    println!(
        "events {:>10}   drain throughput {:>12.0} events/s",
        events,
        events as f64 / drain_wall
    );
    match alloc_delta {
        Some(d) => println!(
            "allocs/task {:>10.1}   alloc bytes/task {:>10.0}",
            d.calls as f64 / n_tasks.max(1) as f64,
            d.bytes as f64 / n_tasks.max(1) as f64,
        ),
        None => println!("allocs/task        n/a   (build with --features count-allocs)"),
    }
    println!("\nspan trace:\n{}", obs.span_trace().render());
}

/// Digest a finished fig4 scenario: fold the parsed per-test durations of
/// every site artifact into an FNV-1a fragment.
fn fig4_digest(s: &mut Scenario, runs: &[hpcci::ci::RunId]) -> u64 {
    let now = s.fed.now();
    let mut digest = 0xcbf29ce484222325u64;
    for env in s.environments.clone() {
        let text = s
            .fed
            .engine
            .artifacts
            .fetch(runs[0], &format!("{env}-output"), now)
            .expect("site artifact")
            .text();
        for (test, duration) in parse_durations(&text) {
            for b in test.bytes() {
                digest = (digest ^ b as u64).wrapping_mul(0x100000001b3);
            }
            digest = (digest ^ duration.to_bits()).wrapping_mul(0x100000001b3);
        }
    }
    digest
}

/// One fig4-style repetition: run the seeded ParslDock scenario and fold its
/// parsed per-test durations into an FNV-1a digest fragment.
fn fig4_rep(seed: u64) -> u64 {
    let mut s = parsldock_scenario(seed);
    let runs = s.push_approve_run("vhayot");
    fig4_digest(&mut s, &runs)
}

/// A fig4 repetition through a shared step cache (Record to populate on the
/// cold pass, Replay to serve hits on the warm pass).
fn fig4_cached_rep(seed: u64, cache: &StepCache, mode: CacheMode) -> u64 {
    let fed = Federation::builder(seed)
        .step_cache_shared(cache.clone(), mode)
        .build();
    let mut s = parsldock_scenario_on(fed);
    let runs = s.push_approve_run("vhayot");
    fig4_digest(&mut s, &runs)
}

/// Serial fig4 sweep through a shared step cache.
fn fig4_cached_sweep(reps: u64, cache: &StepCache, mode: CacheMode) -> (f64, u64) {
    let start = Instant::now();
    let digests: Vec<u64> = (0..reps)
        .map(|rep| fig4_cached_rep(1000 + rep, cache, mode))
        .collect();
    (start.elapsed().as_secs_f64(), combine(&digests))
}

/// Combine per-rep digests in submission order (order-sensitive on purpose:
/// a sweep that reordered results would change the digest).
fn combine(digests: &[u64]) -> u64 {
    let mut digest = 0xcbf29ce484222325u64;
    for d in digests {
        digest = (digest ^ d).wrapping_mul(0x100000001b3);
    }
    digest
}

/// Run the fig4 sweep over `threads` workers (1 = reference serial sweep).
/// `est_events` is the per-scenario event estimate feeding the sweep's
/// min-work gate (`min_events`, tunable via `--sweep-min-events`): scenarios
/// too small to amortize worker spawn run serially at every width, and the
/// degradation is logged rather than silent. Returns (wall seconds,
/// combined digest).
fn fig4_sweep(reps: u64, threads: usize, est_events: u64, min_events: u64) -> (f64, u64) {
    let start = Instant::now();
    let jobs: Vec<_> = (0..reps).map(|rep| move || fig4_rep(1000 + rep)).collect();
    let outcome = sweep::sweep_estimated_with(jobs, threads, est_events, min_events);
    if outcome.gated_serial {
        eprintln!(
            "fig4 sweep: min-work gate forced SERIAL at {threads} requested worker(s) \
             (est {est_events} events/job < gate {min_events})"
        );
    }
    (start.elapsed().as_secs_f64(), combine(&outcome.results))
}

/// Probe one fig4 scenario for its dispatched-event count — the estimate
/// the sweep's min-work gate compares against `SWEEP_MIN_EVENTS_PER_JOB`.
/// An off-sweep seed so the probe never perturbs the measured digests.
fn fig4_events_estimate() -> u64 {
    let mut s = parsldock_scenario(999);
    let _ = s.push_approve_run("vhayot");
    s.fed.events_dispatched()
}

/// Seed of the peak-day workload. Fixed so the pass is a pure function of
/// its size parameters and the trajectory rows stay comparable across PRs.
const PEAK_SEED: u64 = 0x6174_6c61_7370_6565;

/// One GitHub-scale peak-day measurement.
struct PeakSample {
    tasks: u64,
    repos: u32,
    users: u32,
    /// Events dispatched by the cloud's event loop over the whole day.
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    /// Resident-set high-water over the run, in bytes.
    rss_high_bytes: u64,
    /// Repos that received at least one push.
    active_repos: u64,
    /// Arrival count of the hottest repo (the Zipf head).
    hot_repo_arrivals: u64,
    /// Virtual time the modelled day spanned, in seconds.
    sim_secs: u64,
    /// FNV-1a over the rendered rolling-trace tail — the determinism surface
    /// the smoke pass re-pins across back-to-back runs.
    digest: u64,
    /// Allocator calls per task over the whole pass (0 when the bench was
    /// built without `--features count-allocs`).
    allocs_per_task: f64,
    /// Bytes requested from the allocator per task (0 without the feature).
    alloc_bytes_per_task: f64,
}

/// Resident-set size from `/proc/self/statm` (field 1, resident pages).
/// Pages are assumed 4 KiB — true on every target this bench runs on.
/// Returns 0 where procfs is unavailable; the mem gate then degrades to a
/// no-op rather than failing spuriously.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// The peak-day pass: a Zipf-distributed tenant population (`users` users
/// over `repos` repos) pushing through a diurnal arrival process, injected
/// into the cloud in batched waves via `submit_shell_batch` and drained to
/// quiescence wave by wave. The trace runs in rolling mode so its memory is
/// O(cap) rather than O(tasks); tenant attribution uses the ID-dense
/// sharded counters, so per-entity cost is exactly one `u64`.
fn peak_day_run(n_endpoints: usize, n_tasks: u64, repos: u32, users: u32) -> PeakSample {
    let (mut cloud, token, endpoint_ids) = build_bench_cloud(n_endpoints, Obs::disabled());
    cloud.trace.set_rolling(65_536);
    // Mean gap chosen so a million arrivals span one modelled day.
    let workload = Workload::new(ArrivalProcess::Diurnal {
        mean_gap_us: 86_400,
        day_secs: 86_400,
        peak_pct: 100,
    })
    .arrivals(n_tasks)
    .tenants(TenantMix::new(users, repos).zipf_x100(110));
    let mut arrivals = workload.arrival_gen(PEAK_SEED);
    let mut tenants = workload.tenant_model();
    let mut trng = workload.tenant_rng(PEAK_SEED);

    const WAVE: usize = 32_768;
    let mut submitted = 0u64;
    let mut rss_high = rss_bytes();
    let allocs_before = hpcci_bench::alloc_count::snapshot();
    let start = Instant::now();
    while submitted < n_tasks {
        let n = WAVE.min((n_tasks - submitted) as usize);
        let now = cloud.now();
        let times = arrivals.arrival_times(n, now);
        // Attribute each arrival to a (user, repo) and shard repos over the
        // endpoints; within a bucket the instants stay time-ordered because
        // the arrival stream is monotone.
        let mut buckets: Vec<Vec<SimTime>> = vec![Vec::new(); n_endpoints];
        for &at in &times {
            let (_user, repo) = tenants.sample(&mut trng);
            buckets[repo as usize % n_endpoints].push(at);
        }
        for (i, bucket) in buckets.iter().enumerate() {
            if !bucket.is_empty() {
                cloud
                    .submit_shell_batch(&token, &endpoint_ids[i], "work", now, bucket)
                    .expect("batch submit");
            }
        }
        cloud.drain_to_quiescence();
        submitted += n as u64;
        rss_high = rss_high.max(rss_bytes());
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let alloc_delta = hpcci_bench::alloc_count::snapshot()
        .zip(allocs_before)
        .map(|(now, before)| now.since(&before));
    let events = cloud.events_dispatched();
    let mut digest = 0xcbf29ce484222325u64;
    for b in cloud.trace.render().bytes() {
        digest = (digest ^ b as u64).wrapping_mul(0x100000001b3);
    }
    PeakSample {
        tasks: submitted,
        repos,
        users,
        events,
        wall_secs,
        events_per_sec: events as f64 / wall_secs,
        rss_high_bytes: rss_high,
        active_repos: tenants.repo_arrivals.active(),
        hot_repo_arrivals: tenants.repo_arrivals.hottest().1,
        sim_secs: cloud.now().as_micros() / 1_000_000,
        digest,
        allocs_per_task: alloc_delta
            .map(|d| d.calls as f64 / submitted.max(1) as f64)
            .unwrap_or(0.0),
        alloc_bytes_per_task: alloc_delta
            .map(|d| d.bytes as f64 / submitted.max(1) as f64)
            .unwrap_or(0.0),
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Rep-to-rep spread as a percentage of the median — how noisy the sampled
/// walls were. Recorded next to any median-derived figure so a trajectory
/// reader can tell a real regression from run-to-run jitter.
fn spread_pct(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m <= 0.0 {
        return 0.0;
    }
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (max - min) / m * 100.0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let label = args
        .iter()
        .position(|a| a == "--label")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "dev".to_string());
    let obs_gate: Option<f64> = args
        .iter()
        .position(|a| a == "--obs-gate")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--obs-gate takes a percentage"));
    let cache_gate: Option<f64> = args
        .iter()
        .position(|a| a == "--cache-gate")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--cache-gate takes a speedup factor"));
    let throughput_gate: Option<f64> = args
        .iter()
        .position(|a| a == "--throughput-gate")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--throughput-gate takes events/s"));
    let speedup_gate: Option<f64> = args
        .iter()
        .position(|a| a == "--speedup-gate")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--speedup-gate takes a speedup factor"));
    let peak_throughput_gate: Option<f64> = args
        .iter()
        .position(|a| a == "--peak-throughput-gate")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--peak-throughput-gate takes events/s"));
    let mem_gate_mib: Option<u64> = args
        .iter()
        .position(|a| a == "--mem-gate")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--mem-gate takes mebibytes"));
    let sweep_min_events: u64 = args
        .iter()
        .position(|a| a == "--sweep-min-events")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--sweep-min-events takes an event count"))
        .unwrap_or(sweep::SWEEP_MIN_EVENTS_PER_JOB);

    let (endpoints, tasks, samples, reps) = if smoke { (4, 64, 3, 8) } else { (16, 2048, 7, 24) };

    if args.iter().any(|a| a == "--profile") {
        profile_run(endpoints, tasks);
        let (peak_tasks, peak_repos, peak_users) = if smoke {
            (100_000u64, 1_000u32, 5_000u32)
        } else {
            (1_000_000u64, 10_000u32, 50_000u32)
        };
        profile_peak_run(endpoints, peak_tasks, peak_repos, peak_users);
        return;
    }

    hpcci_bench::section(&format!(
        "BENCH_federation — event-loop throughput ({endpoints} endpoints, {tasks} tasks)"
    ));
    // Discard warm-up runs so allocator, page-cache, and CPU-frequency
    // ramp-up land outside the samples — earlier trajectory rows show the
    // second measured pass consistently beating the first, which is warm-up
    // leaking into the measurement, not a real effect.
    for _ in 0..3 {
        let _ = event_loop_run(endpoints, tasks, Obs::disabled());
    }
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..samples {
        let s = event_loop_run(endpoints, tasks, Obs::disabled());
        walls.push(s.wall_secs);
        last = Some(s);
    }
    let last = last.unwrap();
    let wall = median(&walls);
    let events_per_sec = last.trace_events as f64 / wall;
    println!("trace events per run      {:>12}", last.trace_events);
    println!("drive wall (median)       {:>12.6} s", wall);
    println!("event throughput          {:>12.0} events/s", events_per_sec);
    println!("trace string allocs       {:>12}", last.string_allocs);
    println!("trace allocs saved        {:>12}", last.allocs_saved);

    // Same bench with the obs layer recording, to price the enabled path and
    // pull latency percentiles out of the metrics snapshot. The obs pass
    // gets its own warm-up discard — earlier trajectory rows showed
    // `obs_overhead_pct` swinging (even negative) because the enabled pass
    // ran cold against a warmed disabled pass; the overhead is a ratio of
    // two medians, so both sides must be equally warm. The rep spread of
    // both sides travels in the JSON row so a trajectory reader can tell a
    // real overhead change from sampling noise.
    hpcci_bench::section("event loop with observability enabled");
    for _ in 0..3 {
        let _ = event_loop_run(endpoints, tasks, Obs::new(ObsConfig::enabled()));
    }
    let mut obs_walls = Vec::new();
    let mut obs_last = None;
    for _ in 0..samples {
        let s = event_loop_run(endpoints, tasks, Obs::new(ObsConfig::enabled()));
        obs_walls.push(s.wall_secs);
        obs_last = Some(s);
    }
    let obs_last = obs_last.unwrap();
    let obs_wall = median(&obs_walls);
    let obs_events_per_sec = obs_last.trace_events as f64 / obs_wall;
    let obs_overhead_pct = (1.0 - obs_events_per_sec / events_per_sec) * 100.0;
    let rep_spread_pct = spread_pct(&walls);
    let obs_rep_spread_pct = spread_pct(&obs_walls);
    let snap = obs_last.metrics.as_ref().expect("obs-enabled run snapshots");
    let latency = snap
        .histogram("faas.task_latency_us")
        .expect("task latency histogram populated");
    println!("event throughput (obs)    {:>12.0} events/s", obs_events_per_sec);
    println!("obs overhead              {:>12.1} %", obs_overhead_pct);
    println!("rep spread (no-obs/obs)   {:>7.1} % / {:<7.1} %", rep_spread_pct, obs_rep_spread_pct);
    println!("tasks completed           {:>12}", snap.counter("faas.tasks_completed"));
    println!("task latency p50          {:>12} us", latency.p50);
    println!("task latency p99          {:>12} us", latency.p99);

    // Multi-width scaling pass: the same sweep at 1/2/4/8 workers, with the
    // submission-order digest re-pinned at every width — widening the pool
    // must never reorder (or change) a single result.
    let cores = sweep::default_threads();
    const WIDTHS: [usize; 4] = [1, 2, 4, 8];
    let est_events = fig4_events_estimate();
    let sweep_gated_serial = est_events < sweep_min_events;
    hpcci_bench::section(&format!(
        "fig4 sweep ({reps} reps) — scaling across {WIDTHS:?} workers ({cores} core(s))"
    ));
    println!(
        "est. events per scenario  {:>12}   min-work gate: {}",
        est_events,
        if sweep_gated_serial {
            "SERIAL (below threshold — threads would cost more than they save)"
        } else {
            "parallel"
        }
    );
    let mut scaling_secs = Vec::new();
    let mut serial_digest = 0u64;
    for (i, &w) in WIDTHS.iter().enumerate() {
        let (secs, digest) = fig4_sweep(reps, w, est_events, sweep_min_events);
        if i == 0 {
            serial_digest = digest;
        } else {
            assert_eq!(
                digest, serial_digest,
                "{w}-worker sweep must be bit-identical to the serial sweep"
            );
        }
        println!(
            "{w} worker(s)                {:>12.3} s   {:>6.2}x",
            secs,
            scaling_secs.first().copied().unwrap_or(secs) / secs
        );
        scaling_secs.push(secs);
    }
    let serial_secs = scaling_secs[0];
    let parallel_secs = scaling_secs[2];
    let speedup_4w = serial_secs / parallel_secs;
    let threads = 4usize;
    println!("speedup at 4 workers      {:>12.2}x", speedup_4w);
    println!("digest                    {serial_digest:#018x}");

    // GitHub-scale peak day: a Zipf tenant population driving a diurnal
    // arrival process into the cloud through batched wave injection, with the
    // trace rolling so memory stays flat. The smoke sizing (100k tasks over
    // 1k repos) is CI's guard; the full sizing models a million pushes over
    // ten thousand repos in one virtual day.
    let (peak_tasks, peak_repos, peak_users) = if smoke {
        (100_000u64, 1_000u32, 5_000u32)
    } else {
        (1_000_000u64, 10_000u32, 50_000u32)
    };
    hpcci_bench::section(&format!(
        "peak day — {peak_tasks} tasks over {peak_repos} repos / {peak_users} users (diurnal, zipf 1.1)"
    ));
    let peak = peak_day_run(endpoints, peak_tasks, peak_repos, peak_users);
    println!("tasks driven              {:>12}", peak.tasks);
    println!("events dispatched         {:>12}", peak.events);
    println!("wall                      {:>12.3} s", peak.wall_secs);
    println!("event throughput          {:>12.0} events/s", peak.events_per_sec);
    println!(
        "rss high-water            {:>12.1} MiB",
        peak.rss_high_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "active repos              {:>12} / {}",
        peak.active_repos, peak.repos
    );
    println!(
        "hottest repo arrivals     {:>12}  ({:.1}% of all pushes)",
        peak.hot_repo_arrivals,
        100.0 * peak.hot_repo_arrivals as f64 / peak.tasks as f64
    );
    println!(
        "virtual day span          {:>12.1} h",
        peak.sim_secs as f64 / 3600.0
    );
    if hpcci_bench::alloc_count::enabled() {
        println!("allocs per task           {:>12.1}", peak.allocs_per_task);
        println!("alloc bytes per task      {:>12.0}", peak.alloc_bytes_per_task);
    } else {
        println!("allocs per task           {:>12}   (build with --features count-allocs)", "n/a");
    }
    println!("trace digest              {:#018x}", peak.digest);
    if smoke {
        // Determinism guard (smoke sizing only — the full pass is too long to
        // double): the peak day is a pure function of its parameters, so a
        // second run must land on the same rolling-trace digest, event count
        // and virtual span.
        let again = peak_day_run(endpoints, peak_tasks, peak_repos, peak_users);
        assert_eq!(again.digest, peak.digest, "back-to-back peak days must render identical traces");
        assert_eq!(again.events, peak.events, "event counts must match");
        assert_eq!(again.sim_secs, peak.sim_secs, "virtual spans must match");
    }

    // Cold-vs-warm incremental CI: a Record pass populates a shared step
    // cache (executing everything), then a Replay pass over the same seeds
    // serves every step from the cache. Both must be bit-identical to the
    // uncached sweep above.
    hpcci_bench::section(&format!("fig4 sweep ({reps} reps) — cold (record) vs warm (replay)"));
    let cache = StepCache::new();
    let (cold_secs, cold_digest) = fig4_cached_sweep(reps, &cache, CacheMode::Record);
    let (warm_secs, warm_digest) = fig4_cached_sweep(reps, &cache, CacheMode::Replay);
    assert_eq!(
        cold_digest, serial_digest,
        "record-mode sweep must be bit-identical to the uncached sweep"
    );
    assert_eq!(
        warm_digest, cold_digest,
        "replay-mode sweep must be bit-identical to its recording"
    );
    let cache_stats = cache.stats();
    let cas_stats = cache.cas().stats();
    let cache_speedup = cold_secs / warm_secs;
    println!("cold (record) wall        {:>12.3} s", cold_secs);
    println!("warm (replay) wall        {:>12.3} s", warm_secs);
    println!("warm speedup              {:>12.2}x", cache_speedup);
    println!("cache entries             {:>12}", cache_stats.entries);
    println!("cache hits / misses       {:>6} / {:<6}", cache_stats.hits, cache_stats.misses);
    println!("artifact logical bytes    {:>12}", cas_stats.logical_bytes);
    println!("artifact stored bytes     {:>12}", cas_stats.stored_bytes);

    // Append the entry to the trajectory file at the repo root.
    let entry = format!(
        "  {{\"label\": \"{label}\", \"endpoints\": {endpoints}, \"tasks\": {tasks}, \
         \"events_per_sec\": {events_per_sec:.0}, \"trace_events\": {trace_events}, \
         \"trace_string_allocs\": {string_allocs}, \"trace_allocs_saved\": {allocs_saved}, \
         \"obs_events_per_sec\": {obs_events_per_sec:.0}, \
         \"obs_overhead_pct\": {obs_overhead_pct:.1}, \
         \"rep_spread_pct\": {rep_spread_pct:.1}, \
         \"obs_rep_spread_pct\": {obs_rep_spread_pct:.1}, \
         \"task_latency_p50_us\": {p50}, \"task_latency_p99_us\": {p99}, \
         \"fig4_reps\": {reps}, \"fig4_serial_secs\": {serial_secs:.4}, \
         \"fig4_parallel_secs\": {parallel_secs:.4}, \"sweep_threads\": {threads}, \
         \"cores\": {cores}, \"fig4_scaling_secs\": [{w1:.4}, {w2:.4}, {w4:.4}, {w8:.4}], \
         \"fig4_speedup_4w\": {speedup_4w:.2}, \
         \"fig4_est_events\": {est_events}, \"sweep_gated_serial\": {sweep_gated_serial}, \
         \"peak_tasks\": {peak_tasks}, \"peak_repos\": {peak_repos}, \
         \"peak_users\": {peak_users}, \"peak_events\": {peak_events}, \
         \"peak_events_per_sec\": {peak_eps:.0}, \"peak_rss_bytes\": {peak_rss}, \
         \"peak_wall_secs\": {peak_wall:.4}, \"peak_active_repos\": {peak_active}, \
         \"peak_hot_repo_arrivals\": {peak_hot}, \"peak_sim_secs\": {peak_sim}, \
         \"peak_allocs_per_task\": {peak_apt:.1}, \
         \"peak_alloc_bytes_per_task\": {peak_abpt:.0}, \
         \"peak_rss_bytes_per_task\": {peak_rss_pt:.0}, \
         \"cache_cold_secs\": {cold_secs:.4}, \"cache_warm_secs\": {warm_secs:.4}, \
         \"cache_speedup\": {cache_speedup:.2}, \"cache_hits\": {hits}, \
         \"cache_misses\": {misses}, \"artifact_logical_bytes\": {logical}, \
         \"artifact_stored_bytes\": {stored}}}",
        w1 = scaling_secs[0],
        w2 = scaling_secs[1],
        w4 = scaling_secs[2],
        w8 = scaling_secs[3],
        peak_tasks = peak.tasks,
        peak_repos = peak.repos,
        peak_users = peak.users,
        peak_events = peak.events,
        peak_eps = peak.events_per_sec,
        peak_rss = peak.rss_high_bytes,
        peak_wall = peak.wall_secs,
        peak_active = peak.active_repos,
        peak_hot = peak.hot_repo_arrivals,
        peak_sim = peak.sim_secs,
        peak_apt = peak.allocs_per_task,
        peak_abpt = peak.alloc_bytes_per_task,
        peak_rss_pt = peak.rss_high_bytes as f64 / peak.tasks.max(1) as f64,
        trace_events = last.trace_events,
        string_allocs = last.string_allocs,
        allocs_saved = last.allocs_saved,
        p50 = latency.p50,
        p99 = latency.p99,
        hits = cache_stats.hits,
        misses = cache_stats.misses,
        logical = cas_stats.logical_bytes,
        stored = cas_stats.stored_bytes,
    );
    let path = "BENCH_federation.json";
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end().trim_end_matches(']').trim_end().trim_end_matches(',');
            format!("{trimmed},\n{entry}\n]\n")
        }
        Err(_) => format!("[\n{entry}\n]\n"),
    };
    std::fs::write(path, body).expect("write BENCH_federation.json");
    println!("\nappended entry '{label}' to {path}");

    if let Some(gate) = obs_gate {
        if obs_overhead_pct > gate {
            eprintln!(
                "obs gate FAILED: enabled-vs-disabled throughput regression \
                 {obs_overhead_pct:.1}% exceeds the {gate:.1}% budget"
            );
            std::process::exit(1);
        }
        println!("obs gate ok: {obs_overhead_pct:.1}% <= {gate:.1}%");
    }

    if let Some(gate) = cache_gate {
        if cache_speedup < gate {
            eprintln!(
                "cache gate FAILED: warm-over-cold speedup {cache_speedup:.2}x is below \
                 the {gate:.2}x floor"
            );
            std::process::exit(1);
        }
        println!("cache gate ok: {cache_speedup:.2}x >= {gate:.2}x");
    }

    if let Some(gate) = throughput_gate {
        // Capability gate: one clean sample at or above the floor proves the
        // kernel can still reach the rate. Shared CI runners routinely steal
        // 20%+ of a core mid-sample, so a below-floor peak gets a bounded
        // number of fresh samples before the gate fails.
        let mut peak = walls
            .iter()
            .map(|w| last.trace_events as f64 / w)
            .fold(0.0f64, f64::max);
        let mut retries = 0;
        while peak < gate && retries < 8 {
            let s = event_loop_run(endpoints, tasks, Obs::disabled());
            peak = peak.max(s.trace_events as f64 / s.wall_secs);
            retries += 1;
        }
        if peak < gate {
            eprintln!(
                "throughput gate FAILED: peak {peak:.0} events/s is below the \
                 {gate:.0} events/s floor after {retries} extra samples"
            );
            std::process::exit(1);
        }
        println!("throughput gate ok: peak {peak:.0} >= {gate:.0} events/s");
    }

    if let Some(gate) = peak_throughput_gate {
        if peak.events_per_sec < gate {
            eprintln!(
                "peak throughput gate FAILED: peak-day pass sustained {:.0} events/s, \
                 below the {gate:.0} events/s floor",
                peak.events_per_sec
            );
            std::process::exit(1);
        }
        println!(
            "peak throughput gate ok: {:.0} >= {gate:.0} events/s",
            peak.events_per_sec
        );
    }

    if let Some(gate) = mem_gate_mib {
        let high_mib = peak.rss_high_bytes / (1024 * 1024);
        if high_mib > gate {
            eprintln!(
                "mem gate FAILED: peak-day resident high-water {high_mib} MiB exceeds \
                 the {gate} MiB budget"
            );
            std::process::exit(1);
        }
        println!("mem gate ok: {high_mib} MiB <= {gate} MiB");
    }

    // A parallel speedup needs parallel hardware: below 4 cores the
    // speedup gate degrades to a floor that still catches a run whose wider
    // pool pathologically slows the work down.
    const SPEEDUP_FLOOR_FEW_CORES: f64 = 0.5;

    if let Some(gate) = speedup_gate {
        let (floor, why) = if sweep_gated_serial {
            (
                SPEEDUP_FLOOR_FEW_CORES,
                "no-slowdown floor — min-work gate ran the sweep serially at every width",
            )
        } else if cores >= 4 {
            (gate, "full gate")
        } else {
            (
                SPEEDUP_FLOOR_FEW_CORES,
                "no-slowdown floor — fewer than 4 cores, parallel speedup unobtainable",
            )
        };
        if speedup_4w < floor {
            eprintln!(
                "speedup gate FAILED: 4-worker speedup {speedup_4w:.2}x is below the \
                 {floor:.2}x floor ({why}, {cores} core(s))"
            );
            std::process::exit(1);
        }
        println!("speedup gate ok: {speedup_4w:.2}x >= {floor:.2}x ({why})");
    }
}
