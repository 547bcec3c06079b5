//! `faas_peak_day`: the FaaS side alone, under a diurnal peak.
//!
//! Bypasses `vcs`, `ci` and `core`: one client-credentials token, shell tasks
//! injected in waves through `submit_shell_batch` round-robin over the same
//! four MEP / pilot / single-user endpoints the push workloads use, each wave
//! drained to quiescence, then every task's result read back.

use crate::alloc;
use crate::fleet::{scheduler_jobs, shape, Look};
use crate::ledger::Ledger;
use crate::measure::{Outcome, Snapshot};
use hpcci::auth::{ClientId, ClientSecret, Scope};
use hpcci::correct::Federation;
use hpcci::faas::{EndpointId, TaskId};
use hpcci::obs::ObsConfig;
use hpcci::sim::{ArrivalProcess, SimTime, Workload};
use std::time::Instant;

/// Tasks per wave.
const WAVE: usize = 16_384;
/// Live window of the rolling trace; older events fold into its digest.
const TRACE_CAP: usize = 65_536;
/// Mean simulated gap between arrivals: about twice what the four endpoints
/// drain, so every endpoint queues. At 50 ms the pilot-backed endpoints keep
/// up while the login-node ones do not, the median turnaround sits on that
/// boundary, and it moves by an eighth from seed to seed.
const MEAN_GAP_US: u64 = 25_000;

pub fn rep(seed: u64, tasks: u64, look: Look) -> Outcome {
    let setup = Instant::now();
    let mut builder = Federation::builder(seed);
    if look == Look::Obs {
        builder = builder.obs(ObsConfig::enabled());
    }
    let built = shape(seed, 1)
        .build_on(builder.build())
        .expect("the benchmark's own scenario document is valid");
    let fed = built.fed;
    let token = fed
        .auth
        .lock()
        .authenticate(
            &ClientId(built.user.client_id.clone()),
            &ClientSecret::new(&built.user.client_secret),
            vec![Scope::compute_api()],
            fed.now(),
        )
        .expect("fresh client authenticates");
    let endpoints: Vec<EndpointId> = built.endpoints.into_iter().map(EndpointId).collect();
    fed.cloud.lock().trace.set_rolling(TRACE_CAP);
    let mut arrivals = Workload::new(ArrivalProcess::Diurnal {
        mean_gap_us: MEAN_GAP_US,
        day_secs: 86_400,
        peak_pct: 100,
    })
    .arrival_gen(seed);
    let setup_s = setup.elapsed().as_secs_f64();

    let mut ledger = if look == Look::Traced {
        Ledger::on()
    } else {
        Ledger::off()
    };
    alloc::set_counting(look == Look::Traced);
    let before = Snapshot::take(fed.events_dispatched());
    let start = Instant::now();
    let mut failed = 0u64;
    let mut turnaround_s = Vec::with_capacity(tasks as usize);
    let mut wave_wall_us = Vec::new();
    let mut submitted = 0u64;
    while submitted < tasks {
        let wave_start = Instant::now();
        ledger.begin_round(submitted / WAVE as u64);
        let n = WAVE.min((tasks - submitted) as usize);
        let mut cloud = fed.cloud.lock();
        let now = cloud.now();
        let (times, buckets) = ledger.time("sim.arrivals", || {
            let times = arrivals.arrival_times(n, now);
            let mut buckets: Vec<Vec<SimTime>> = vec![Vec::new(); endpoints.len()];
            for (i, &at) in times.iter().enumerate() {
                buckets[i % endpoints.len()].push(at);
            }
            (times, buckets)
        });
        ledger.time("faas.submit_batch", || {
            for (ep, bucket) in endpoints.iter().zip(&buckets) {
                cloud
                    .submit_shell_batch(&token, ep, "scen-test", now, bucket)
                    .expect("batch submit on an owned endpoint");
            }
        });
        ledger.time("faas.drain", || cloud.drain_to_quiescence());
        // Task ids are dense and minted in arrival order, so the k-th
        // arrival of this wave is task `submitted + k + 1`.
        ledger.time("faas.results", || {
            for (k, at) in times.iter().enumerate() {
                match cloud.task_result(TaskId(submitted + k as u64 + 1)) {
                    Ok(out) if out.success() => {
                        turnaround_s.push(out.ended.since(*at).as_secs_f64());
                    }
                    _ => failed += 1,
                }
            }
        });
        drop(cloud);
        ledger.end_round();
        submitted += n as u64;
        wave_wall_us.push(wave_start.elapsed().as_secs_f64() * 1e6);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let after = Snapshot::take(fed.events_dispatched());
    alloc::set_counting(false);

    let mut out = Outcome::new(tasks, setup_s, wall_s, &before, &after);
    out.failed = failed;
    out.digest = format!("{:016x}", fed.cloud.lock().trace.rolling_digest());
    out.unit_walls(wave_wall_us);
    out.turnarounds(turnaround_s);
    out.count("vcs.repos", fed.hosting.lock().repo_count() as u64);
    out.count("ci.secrets", fed.engine.secrets.all_values().len() as u64);
    out.count("faas.tasks", fed.cloud.lock().task_count() as u64);
    out.count("faas.domains", fed.cloud.lock().domain_count() as u64);
    out.count("scheduler.jobs", scheduler_jobs(&fed));
    out.count("sim.trace_events", fed.cloud.lock().trace.recorded());
    if look == Look::Obs {
        out.sim_series(&fed.metrics());
    }
    out.ledger(ledger.finish(wall_s));
    out
}
