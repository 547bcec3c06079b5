//! Isolated probes: a tight loop on one layer's public API, sized like
//! `fleet_push`, so a change to that layer shows here before it shows end to
//! end. Each returns host nanoseconds per operation.

use crate::measure::Outcome;
use hpcci::auth::{AuthService, ClientId, ClientSecret, Scope};
use hpcci::cas::{CasStore, Digest};
use hpcci::ci::{CachedStep, StepCache, StepKey};
use hpcci::cluster::{NodeId, Uid};
use hpcci::scheduler::{BatchScheduler, JobPayload, JobSpec};
use hpcci::sim::{Advance, EventQueue, SimDuration, SimTime, Trace};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Clients in the auth probe: `fleet_push`'s user count.
const USERS: usize = 256;
/// Events pending in the queue probe: one `faas_peak_day` wave.
const PENDING: u64 = 16_384;

fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / ops as f64
}

fn auth(out: &mut Outcome) {
    let mut auth = AuthService::new();
    let clients: Vec<(ClientId, ClientSecret)> = (0..USERS)
        .map(|u| {
            let id =
                auth.register_identity(&format!("u{u:04}@bench.sim"), "bench.sim", SimTime::ZERO);
            let (cid, secret) = auth
                .create_client(id.id, &format!("correct-{u}"))
                .expect("fresh identity accepts a client");
            (cid, secret)
        })
        .collect();
    const OPS: u64 = 100_000;
    let mut tokens = Vec::with_capacity(USERS);
    out.set(
        "auth.authenticate_ns",
        ns_per_op(OPS, || {
            for i in 0..OPS as usize {
                let (cid, secret) = &clients[i % USERS];
                let token = auth
                    .authenticate(cid, secret, vec![Scope::compute_api()], SimTime::ZERO)
                    .expect("valid credentials");
                if i < USERS {
                    tokens.push(token);
                }
            }
        }),
    );
    out.set(
        "auth.introspect_ns",
        ns_per_op(OPS, || {
            for i in 0..OPS as usize {
                black_box(auth.introspect(&tokens[i % USERS], SimTime::ZERO).is_ok());
            }
        }),
    );
}

fn sim(out: &mut Outcome) {
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..PENDING {
        queue.push(SimTime::from_micros(i * 50_000), i);
    }
    const OPS: u64 = 1_000_000;
    out.set(
        "sim.queue_ns_per_event",
        ns_per_op(OPS, || {
            for i in 0..OPS {
                let (at, e) = queue
                    .pop_due(SimTime::FAR_FUTURE)
                    .expect("queue stays full");
                queue.push(
                    at + SimDuration::from_micros(PENDING * 50_000),
                    black_box(e + i),
                );
            }
        }),
    );
    let mut trace = Trace::new();
    trace.set_rolling(65_536);
    out.set(
        "sim.trace_record_ns",
        ns_per_op(OPS, || {
            for i in 0..OPS {
                let mut detail = trace.detail_buf();
                detail.push_str("task-0000002a from endpoint");
                trace.record(
                    SimTime::from_micros(i),
                    "faas.cloud",
                    "task.returning",
                    detail,
                );
            }
        }),
    );
    black_box(trace.rolling_digest());
}

fn scheduler(out: &mut Outcome) {
    let mut sched = BatchScheduler::with_compute_partition((0..16).map(NodeId).collect(), 32);
    const JOBS: u64 = 50_000;
    out.set(
        "scheduler.job_ns",
        ns_per_op(JOBS, || {
            for j in 0..JOBS {
                let now = sched.now();
                // Mixed widths and lengths, so EASY backfill has holes to fill.
                let spec = JobSpec::single_node(
                    "probe",
                    Uid(1000),
                    "BENCH001",
                    8 << (j % 3),
                    SimDuration::from_secs(600),
                )
                .with_payload(JobPayload::Fixed {
                    duration: SimDuration::from_secs(30 + 90 * (j % 4)),
                    success: true,
                });
                sched.submit(spec, now).expect("job fits the partition");
                if sched.pending_count() > 64 {
                    let next = sched.next_event().expect("running jobs end");
                    sched.advance_to(next);
                }
            }
            while let Some(next) = sched.next_event() {
                sched.advance_to(next);
            }
        }),
    );
    black_box(sched.take_events().len());
}

fn cas(out: &mut Outcome) {
    let store = CasStore::new();
    const OPS: u64 = 20_000;
    let mut blob = vec![0u8; 4096];
    let mut digests = Vec::with_capacity(OPS as usize);
    out.set(
        "cas.put_ns",
        ns_per_op(OPS, || {
            for i in 0..OPS {
                blob[..8].copy_from_slice(&i.to_le_bytes());
                digests.push(store.put(&blob));
            }
        }),
    );
    out.set(
        "cas.get_ns",
        ns_per_op(OPS, || {
            for d in &digests {
                black_box(store.get(*d).expect("just stored"));
            }
        }),
    );
}

fn step_cache(out: &mut Outcome) {
    let cache = StepCache::new();
    // One entry per step of a `fleet_push` rep.
    const ENTRIES: u64 = 16_000;
    let keys: Vec<StepKey> = (0..ENTRIES)
        .map(|i| StepKey(Digest::of_str(&format!("step-{i}"))))
        .collect();
    for key in &keys {
        cache.record(
            key,
            CachedStep {
                success: true,
                stdout: "===== 12 passed in 2.0s =====".into(),
                stderr: String::new(),
                outputs: BTreeMap::new(),
                artifacts: Vec::new(),
                duration_us: 2_000_000,
            },
        );
    }
    out.set(
        "ci.cache_lookup_ns",
        ns_per_op(ENTRIES, || {
            for key in &keys {
                black_box(cache.lookup(key).expect("recorded above"));
            }
        }),
    );
}

pub fn run() -> Outcome {
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    auth(&mut out);
    sim(&mut out);
    scheduler(&mut out);
    cas(&mut out);
    step_cache(&mut out);
    out
}
