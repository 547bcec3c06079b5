//! The drain engine's contract. The cloud has one event loop — the serial
//! step loop in `hpcci-faas` — and three ways to turn it; these properties
//! pin what must hold whichever one a caller picks:
//!
//! * `drain_to_quiescence`, a hand-rolled `step_next` loop and `drive` commit
//!   byte-identical traces;
//! * arrivals scheduled up front through `submit_shell_batch` replay the
//!   trace of advancing to each instant and submitting there;
//! * at quiescence every accepted task is in exactly one terminal state, no
//!   scheduled submission is left pending and no component's clock ran
//!   backwards in the trace or the chaos log — with and without a fault plan;
//! * a fault plan costs events only while a fault is armed: never, if every
//!   fault lies beyond the run; not for long, if they all land early.
//!
//! The cases are generated with the in-tree [`DetRng`] harness (the
//! workspace builds offline — no proptest crate): a failure message always
//! names the case so the exact input regenerates. Federations mix single-
//! and multi-user endpoints and take their traffic in several waves.

use hpcci::auth::{AuthService, IdentityMapping, Scope};
use hpcci::cluster::Site;
use hpcci::faas::exec::{shared, ExecOutcome, SiteRuntime};
use hpcci::faas::{
    CloudService, Endpoint, EndpointConfig, EndpointId, EndpointRegistration, MepTemplate,
    MultiUserEndpoint, TaskFailure, TaskId, TaskProvider, TaskState,
};
use hpcci::scen::oracle::{check_conservation, check_trace_order};
use hpcci::sim::{
    drive, Advance, DetRng, FaultInjector, FaultKind, FaultPlan, SimDuration, SimTime,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Number of generated cases per property (the federation builds here are
/// heavier than the data-structure proptests, so fewer cases).
const CASES: u64 = 12;

/// Deterministic per-case generator stream, decorrelated by property name.
fn case_rng(property: &str, case: u64) -> DetRng {
    DetRng::seed_from_u64(0xdeed_5eed ^ case).fork(property)
}

/// The generated shape of one federation.
#[derive(Clone)]
struct FedShape {
    /// Per single-user endpoint: (task duration secs, endpoint workers).
    singles: Vec<(f64, u32)>,
    /// Include a login-only multi-user endpoint?
    with_mep: bool,
    /// Tasks submitted per wave, round-robin over the endpoints.
    waves: Vec<usize>,
}

fn gen_shape(rng: &mut DetRng) -> FedShape {
    let n_singles = rng.range_u64(3, 10) as usize;
    let singles = (0..n_singles)
        .map(|_| {
            (
                rng.range_f64(0.5, 30.0),
                rng.range_u64(1, 6) as u32,
            )
        })
        .collect();
    let with_mep = rng.range_u64(0, 2) == 1;
    let n_waves = rng.range_u64(1, 4) as usize;
    let waves = (0..n_waves)
        .map(|_| rng.range_u64(24, 220) as usize)
        .collect();
    FedShape {
        singles,
        with_mep,
        waves,
    }
}

/// Build the generated federation. Every endpoint lives on its own
/// workstation site.
fn build_cloud(shape: &FedShape) -> (CloudService, hpcci::auth::AccessToken, Vec<EndpointId>) {
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
    let mut ids = Vec::new();
    for (i, &(dur, ep_workers)) in shape.singles.iter().enumerate() {
        let mut rt = SiteRuntime::new(Site::workstation(&format!("site-{i}")));
        rt.site.add_account("bench", "proj");
        rt.commands
            .register("work", move |_| ExecOutcome::ok("done", dur));
        let site = shared(rt);
        let ep = Endpoint::new(
            EndpointConfig::new(&format!("ep-{i}"), owner, "bench").with_workers(ep_workers),
            &mut site.lock(),
            TaskProvider::Local,
            1000 + i as u64,
        )
        .unwrap();
        ids.push(cloud.register_endpoint(
            &format!("ep-{i}"),
            site,
            EndpointRegistration::Single(Box::new(ep)),
        ));
    }
    if shape.with_mep {
        let mut rt = SiteRuntime::new(Site::workstation("site-mep"));
        rt.site.add_account("x-bench", "proj");
        rt.commands
            .register("work", |_| ExecOutcome::ok("done", 4.0));
        let site = shared(rt);
        let mut mapping = IdentityMapping::new("site-mep");
        mapping.add_explicit("bench@hpcci.sim", "x-bench");
        let mep = MultiUserEndpoint::new("ep-mep", &mut site.lock(), mapping, MepTemplate::login_only()).unwrap();
        ids.push(cloud.register_endpoint(
            "ep-mep",
            site,
            EndpointRegistration::Multi(Box::new(mep)),
        ));
    }
    (cloud, token, ids)
}

/// Submit the shape's waves round-robin over the endpoints, handing the
/// cloud to `drain` after each wave.
fn run_waves(
    shape: &FedShape,
    cloud: &mut CloudService,
    token: &hpcci::auth::AccessToken,
    ids: &[EndpointId],
    mut drain: impl FnMut(&mut CloudService),
) {
    let mut t = 0usize;
    for &wave in &shape.waves {
        let now = cloud.now();
        for _ in 0..wave {
            cloud
                .submit_shell(token, &ids[t % ids.len()], "work", now)
                .expect("submit");
            t += 1;
        }
        drain(cloud);
    }
}

/// Hand one injector over `plan` to the cloud, which hands it to every
/// endpoint.
fn attach_injector(cloud: &mut CloudService, plan: FaultPlan) -> FaultInjector {
    let injector = FaultInjector::new(plan);
    cloud.set_fault_injector(injector.clone());
    injector
}

/// What a finished run committed: the rendered trace, the dispatched-event
/// count and the instant the cloud stopped at.
fn committed(cloud: &CloudService) -> (String, u64, SimTime) {
    (cloud.trace.render(), cloud.events_dispatched(), cloud.now())
}

/// `drain_to_quiescence`, a caller-side `step_next` loop and `drive` are the
/// same engine: same bytes, same event count, same final instant.
#[test]
fn drain_matches_step_loop_and_drive() {
    for case in 0..CASES {
        let mut rng = case_rng("drain_vs_step", case);
        let shape = gen_shape(&mut rng);
        let run = |drain: fn(&mut CloudService)| {
            let (mut cloud, token, ids) = build_cloud(&shape);
            run_waves(&shape, &mut cloud, &token, &ids, drain);
            committed(&cloud)
        };
        let drained = run(|c| {
            c.drain_to_quiescence();
        });
        let stepped = run(|c| while c.step_next(SimTime::FAR_FUTURE).is_some() {});
        let driven = run(|c| {
            drive(c);
        });
        assert_eq!(drained, stepped, "case {case}: step_next loop diverged");
        assert_eq!(drained, driven, "case {case}: drive diverged");
    }
}

/// Arrivals scheduled up front through `submit_shell_batch` — unsorted, with
/// same-instant collisions — commit the trace of the interactive reference
/// that advances to each arrival instant and submits there, in the order the
/// wire pops the scheduled submissions (by instant, then by scheduling order).
#[test]
fn batched_submit_matches_interactive_on_random_shapes() {
    for case in 0..CASES {
        let mut rng = case_rng("batched_submit", case);
        let shape = gen_shape(&mut rng);
        let n_arrivals = rng.range_u64(96, 400) as usize;
        let horizon_us = rng.range_u64(30, 3_600) * 1_000_000;
        // Round-robin over the endpoints; every other arrival lands on a
        // whole second, so instants collide within and across endpoints.
        let n_eps = shape.singles.len() + usize::from(shape.with_mep);
        let mut per_ep: Vec<Vec<SimTime>> = vec![Vec::new(); n_eps];
        for i in 0..n_arrivals {
            let us = rng.range_u64(0, horizon_us);
            let us = if i % 2 == 0 { us } else { us - us % 1_000_000 };
            per_ep[i % n_eps].push(SimTime::from_micros(us));
        }

        let (mut batched, token, ids) = build_cloud(&shape);
        for (ep, wave) in ids.iter().zip(&per_ep) {
            batched
                .submit_shell_batch(&token, ep, "work", SimTime::ZERO, wave)
                .expect("schedule wave");
        }
        assert_eq!(batched.pending_submits(), n_arrivals as u64);
        assert_eq!(batched.task_count(), 0, "case {case}: acceptance is deferred");
        batched.drain_to_quiescence();

        let (mut interactive, token, ids) = build_cloud(&shape);
        let mut order: Vec<(SimTime, usize)> = per_ep
            .iter()
            .enumerate()
            .flat_map(|(ep, wave)| wave.iter().map(move |&at| (at, ep)))
            .collect();
        order.sort_by_key(|&(at, _)| at); // stable: ties keep scheduling order
        for (at, ep) in order {
            interactive.advance_to(at);
            interactive
                .submit_shell(&token, &ids[ep], "work", at)
                .expect("submit");
        }
        interactive.drain_to_quiescence();

        assert_eq!(
            batched.trace.render(),
            interactive.trace.render(),
            "case {case}: scheduled arrivals diverged from interactive submission"
        );
        assert_eq!(batched.task_count(), n_arrivals, "case {case}");
        assert_eq!(batched.now(), interactive.now(), "case {case}");
    }
}

/// Conservation at quiescence — the scen fleet's fifth oracle family
/// (`hpcci::scen::oracle::check_conservation`: every accepted task terminal
/// through exactly one `task.done` or `task.reject` record, nothing left
/// scheduled; `check_trace_order`: time monotone per component), driven here
/// on bare clouds, plain and under a crash plus a WAN partition.
#[test]
fn every_accepted_task_is_terminal_exactly_once_at_quiescence() {
    let mut infrastructure_failures = 0usize;
    for case in 0..CASES {
        for with_faults in [false, true] {
            let mut rng = case_rng("conservation", case);
            let shape = gen_shape(&mut rng);
            let (mut cloud, token, ids) = build_cloud(&shape);
            let mut injector = None;
            if with_faults {
                let n = shape.singles.len() as u64;
                let crash_ep = rng.range_u64(0, n);
                let part_ep = (crash_ep + 1 + rng.range_u64(0, n - 1)) % n;
                let plan = FaultPlan::none()
                    .with_fault(
                        SimTime::from_secs(rng.range_u64(1, 40)),
                        FaultKind::EndpointCrash {
                            endpoint: format!("ep-{crash_ep}"),
                        },
                    )
                    .with_fault(
                        SimTime::from_secs(rng.range_u64(1, 40)),
                        FaultKind::WanPartition {
                            endpoint: format!("ep-{part_ep}"),
                            heal_after: SimDuration::from_secs(rng.range_u64(5, 60)),
                        },
                    );
                injector = Some(attach_injector(&mut cloud, plan));
            }
            // Interactive waves first, then one wave scheduled ahead.
            run_waves(&shape, &mut cloud, &token, &ids, |c| {
                c.drain_to_quiescence();
            });
            let now = cloud.now();
            let ahead: Vec<SimTime> = (0..64u64)
                .map(|i| now + SimDuration::from_secs(rng.range_u64(0, 120) + i % 2))
                .collect();
            cloud
                .submit_shell_batch(&token, &ids[case as usize % ids.len()], "work", now, &ahead)
                .expect("schedule wave");
            cloud.drain_to_quiescence();

            let tag = format!("case {case} faults={with_faults}");
            let accepted = cloud.task_count();
            assert_eq!(
                accepted,
                shape.waves.iter().sum::<usize>() + ahead.len(),
                "{tag}: every submission was accepted"
            );
            let mut violations = Vec::new();
            check_conservation(&cloud, &mut violations);
            check_trace_order("trace", &cloud.trace, &mut violations);
            if let Some(injector) = &injector {
                let chaos = injector.trace();
                assert!(!chaos.is_empty(), "{tag}: the plan never fired");
                check_trace_order("chaos log", &chaos, &mut violations);
            }
            assert!(violations.is_empty(), "{tag}: {violations:?}");
            infrastructure_failures += (1..=accepted as u64)
                .filter(|&id| {
                    matches!(cloud.task_state(TaskId(id)), Ok(TaskState::Done(out))
                        if out.result == Err(TaskFailure::WorkerCrashed))
                })
                .count();
        }
    }
    assert!(
        infrastructure_failures > 0,
        "no fault plan ever failed a task — the faulted half tested nothing"
    );
}

/// A fault plan is paid for only while one of its faults is armed. With every
/// fault beyond the run the loop commits what it commits with no injector at
/// all — dispatched-event count included; with every fault landing early the
/// window closes behind them, and the run ends well under the one event per
/// endpoint per step that advancing everybody throughout would cost.
#[test]
fn a_fault_plan_costs_events_only_while_a_fault_is_armed() {
    for case in 0..CASES {
        let mut rng = case_rng("armed_window", case);
        let shape = gen_shape(&mut rng);
        let run = |plan: Option<FaultPlan>| {
            let (mut cloud, token, ids) = build_cloud(&shape);
            let injector = plan.map(|plan| attach_injector(&mut cloud, plan));
            let mut steps = 0u64;
            run_waves(&shape, &mut cloud, &token, &ids, |c| {
                while c.step_next(SimTime::FAR_FUTURE).is_some() {
                    steps += 1;
                }
            });
            (committed(&cloud), steps * ids.len() as u64, injector)
        };

        let (plain, _, _) = run(None);
        let never = SimTime::ZERO + SimDuration::from_hours(24 * 365);
        let (unarmed, _, _) = run(Some(
            FaultPlan::none()
                .with_fault(never, FaultKind::EndpointCrash { endpoint: "ep-0".into() })
                .with_fault(never, FaultKind::TokenExpiry),
        ));
        assert_eq!(plain, unarmed, "case {case}: a plan that never arms is not free");

        let early = SimTime::from_secs(1);
        let (faulted, everybody_every_step, injector) = run(Some(
            FaultPlan::none()
                .with_fault(early, FaultKind::EndpointCrash { endpoint: "ep-0".into() })
                .with_fault(
                    early,
                    FaultKind::WanPartition {
                        endpoint: "ep-1".into(),
                        heal_after: SimDuration::from_secs(5),
                    },
                ),
        ));
        let injected = injector.expect("attached").trace().of_kind("fault.inject").count();
        assert_eq!(injected, 2, "case {case}: both faults land");
        assert!(
            faulted.1 < everybody_every_step,
            "case {case}: {} events dispatched, {everybody_every_step} would advance \
             every endpoint at every step — the armed window never closed",
            faulted.1
        );
    }
}
