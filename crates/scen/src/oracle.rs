//! Cross-run invariants every scenario must satisfy — the oracle pass.
//!
//! Five oracle families, matching the paper's reproducibility and security
//! claims:
//!
//! * **determinism** — running the same spec twice yields byte-identical
//!   traces, transcripts, and virtual end times (same-seed golden equality);
//! * **security** — §5.2/§7.2: every task runs as a declared local account,
//!   an unmapped identity probed against each multi-user endpoint is
//!   rejected at delivery, and the raw client secret never leaks into any
//!   rendered output;
//! * **step-cache** — an Off/Record/Replay triplet over a shared cache:
//!   recording is passive (Off and Record byte-identical), replay
//!   reproduces the recording byte-for-byte including virtual timestamps
//!   (fault-free specs), replay serves every recorded entry without new
//!   misses, infrastructure-tainted steps are never cached, and after the
//!   retention purge and teardown the shared CAS holds nothing;
//! * **attribution** — a failed run is `infrastructure` or `test`, and the
//!   types agree: an `infrastructure` run has a task lost to a crash or
//!   rejected with an error that [`FaasError::is_infrastructure`] (or a
//!   forced token expiry) inside its window and only ever appears under an
//!   active fault plan, a `test` run has a task whose command failed, and
//!   fault-free scenarios with no declared failing tests stay green;
//! * **conservation** — at quiescence every task the cloud accepted is
//!   `Done` or `Rejected`, through exactly one terminal record, with nothing
//!   left scheduled and no blocked transition ([`check_conservation`]),
//!   simulated time is monotone per component in the trace and the chaos log
//!   ([`check_trace_order`]), and every site's inode arena has its books
//!   straight (`check_site_fs`).

use crate::run::{collect, drive_spec, run_spec, run_spec_with, CacheSetup, ScenarioOutcome};
use crate::spec::{EndpointKindDecl, ScenarioSpec, SpecError};
use correct_core::federation::OnboardedUser;
use correct_core::Federation;
use hpcci_auth::{AccessToken, AuthError, ClientId, ClientSecret, Scope};
use hpcci_cas::Digest;
use hpcci_ci::{CacheMode, FailureKind, StepCache};
use hpcci_faas::{CloudService, EndpointId, FaasError, TaskFailure, TaskId, TaskState};
use hpcci_sim::{Advance, SimDuration, SimTime, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// One oracle violation: which family tripped, and a human-readable detail.
#[derive(Clone, Debug)]
pub struct Violation {
    pub oracle: &'static str,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Verdict for one scenario: violations (empty = pass) plus fleet metrics.
#[derive(Debug)]
pub struct OracleReport {
    pub name: String,
    pub violations: Vec<Violation>,
    /// Outcome digest of the base run (world trace, chaos log, transcript):
    /// what `hpcci-scen verify` folds into its fleet digest.
    pub digest: Digest,
    /// Events the base run dispatched (throughput accounting).
    pub events: u64,
    /// Virtual end of the base run, microseconds.
    pub end_us: u64,
    pub runs: usize,
    pub tasks: usize,
}

impl OracleReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run every oracle family against one spec. `Err` means the spec could not
/// be built at all (which the caller should also treat as a failure);
/// violations mean it ran but broke an invariant.
pub fn verify_spec(spec: &ScenarioSpec) -> Result<OracleReport, SpecError> {
    let (mut scenario, stats) = drive_spec(spec, CacheSetup::FromSpec)?;
    let base = collect(spec, &scenario, stats);
    let mut violations = Vec::new();
    check_determinism(spec, &base, &mut violations)?;
    check_security(spec, &base, &mut violations)?;
    check_step_cache(spec, &mut violations)?;
    check_attribution(spec, &scenario.fed, &mut violations);
    // `base` is collected: draining the tail to quiescence moves no digest.
    while scenario.fed.world().step() {}
    check_conservation(&scenario.fed.cloud.lock(), &mut violations);
    check_trace_order("trace", &scenario.fed.cloud.lock().trace, &mut violations);
    check_trace_order("chaos log", &scenario.fed.fault_trace(), &mut violations);
    check_site_fs(&scenario.fed, &mut violations);
    Ok(OracleReport {
        name: spec.name.clone(),
        digest: base.digest,
        events: base.events,
        end_us: base.end_us,
        runs: base.runs.len(),
        tasks: base.tasks.len(),
        violations,
    })
}

/// Oracle 1: same seed, same bytes.
fn check_determinism(
    spec: &ScenarioSpec,
    base: &ScenarioOutcome,
    out: &mut Vec<Violation>,
) -> Result<(), SpecError> {
    let again = run_spec(spec)?;
    if again.digest != base.digest {
        out.push(Violation {
            oracle: "determinism",
            detail: format!(
                "re-run digest {} != first digest {}{}",
                again.digest,
                base.digest,
                first_divergence(&base.transcript, &again.transcript)
                    .map(|d| format!("; first transcript divergence: {d}"))
                    .unwrap_or_default()
            ),
        });
    }
    if again.end_us != base.end_us {
        out.push(Violation {
            oracle: "determinism",
            detail: format!(
                "re-run virtual end {}us != first {}us",
                again.end_us, base.end_us
            ),
        });
    }
    if again.trace != base.trace {
        if let Some(d) = first_divergence(&base.trace, &again.trace) {
            out.push(Violation {
                oracle: "determinism",
                detail: format!("functional trace diverges: {d}"),
            });
        }
    }
    Ok(())
}

/// A compute-scoped bearer token for an onboarded user, minted now.
fn compute_token(fed: &Federation, user: &OnboardedUser) -> Result<AccessToken, AuthError> {
    fed.auth.lock().authenticate(
        &ClientId(user.client_id.clone()),
        &ClientSecret::new(&user.client_secret),
        vec![Scope::compute_api()],
        fed.now(),
    )
}

/// Oracle 2: identity mapping, privilege containment, secret hygiene.
fn check_security(
    spec: &ScenarioSpec,
    base: &ScenarioOutcome,
    out: &mut Vec<Violation>,
) -> Result<(), SpecError> {
    let allowed: Vec<&str> = spec.sites.iter().map(|s| s.account.as_str()).collect();
    for t in &base.tasks {
        if !t.ran_as.is_empty() && !allowed.contains(&t.ran_as.as_str()) {
            out.push(Violation {
                oracle: "security",
                detail: format!(
                    "task {} ran as undeclared account `{}` (allowed: {allowed:?})",
                    t.task, t.ran_as
                ),
            });
        }
    }
    if !base.client_secret.is_empty() {
        for (surface, text) in [
            ("transcript", &base.transcript),
            ("trace", &base.trace),
            ("chaos trace", &base.chaos),
        ] {
            if text.contains(&base.client_secret) {
                out.push(Violation {
                    oracle: "security",
                    detail: format!("raw client secret leaked into the {surface}"),
                });
            }
        }
    }

    // Active probe: an identity nobody mapped must bounce off every
    // multi-user endpoint at delivery time.
    let probes: Vec<&str> = spec
        .endpoints
        .iter()
        .filter(|e| matches!(e.kind, EndpointKindDecl::MultiUser { .. }))
        .map(|e| e.name.as_str())
        .collect();
    if probes.is_empty() {
        return Ok(());
    }
    let mut fed = spec.build_on(Federation::builder(spec.seed).build())?.fed;
    let mallory = fed.onboard_user("mallory@evil.example", "evil.example");
    let token = compute_token(&fed, &mallory)
        .map_err(|e| SpecError(format!("probe authenticate failed: {e:?}")))?;
    let mut ids = Vec::new();
    {
        let mut cloud = fed.cloud.lock();
        let now = cloud.now();
        for ep in &probes {
            // Rejected at submission is also a pass for this probe.
            if let Ok(id) = cloud.submit_shell(&token, &EndpointId(ep.to_string()), "whoami", now) {
                ids.push((id, *ep));
            }
        }
    }
    while fed.world().step() {}
    let cloud = fed.cloud.lock();
    for (id, ep) in ids {
        match cloud.task_state(id) {
            Ok(TaskState::Rejected { reason, .. }) => {
                if !matches!(**reason, FaasError::IdentityMappingFailed(_)) {
                    out.push(Violation {
                        oracle: "security",
                        detail: format!(
                            "probe on `{ep}` rejected for the wrong reason: {reason}"
                        ),
                    });
                }
            }
            Ok(state) => out.push(Violation {
                oracle: "security",
                detail: format!(
                    "unmapped identity was not rejected on `{ep}`: {state:?}"
                ),
            }),
            Err(e) => out.push(Violation {
                oracle: "security",
                detail: format!("probe task on `{ep}` vanished: {e:?}"),
            }),
        }
    }
    Ok(())
}

/// Oracle 3: step-cache soundness over an Off/Record/Replay triplet.
fn check_step_cache(spec: &ScenarioSpec, out: &mut Vec<Violation>) -> Result<(), SpecError> {
    let off = run_spec_with(spec, CacheSetup::ForceOff)?;
    let cache = StepCache::new();
    let cas = cache.cas().clone();
    // `run_spec_with` in its two halves: both worlds stay for the teardown
    // clause at the end.
    let (mut rec_world, stats) =
        drive_spec(spec, CacheSetup::Shared(cache.clone(), CacheMode::Record))?;
    let rec = collect(spec, &rec_world, stats);
    let (mut rep_world, stats) = drive_spec(spec, CacheSetup::Shared(cache, CacheMode::Replay))?;
    let rep = collect(spec, &rep_world, stats);
    let rec_stats = rec.cache.expect("record run has a cache");
    let rep_stats = rep.cache.expect("replay run has a cache");

    if rec.transcript != off.transcript {
        if let Some(d) = first_divergence(&off.transcript, &rec.transcript) {
            out.push(Violation {
                oracle: "step-cache",
                detail: format!("recording perturbed execution (Off vs Record): {d}"),
            });
        }
    }
    if rec_stats.hits != 0 {
        out.push(Violation {
            oracle: "step-cache",
            detail: format!("record run served {} hits from an empty cache", rec_stats.hits),
        });
    }
    let fault_free = spec.fault_plan().is_empty();
    if fault_free {
        if rep.transcript != off.transcript {
            if let Some(d) = first_divergence(&off.transcript, &rep.transcript) {
                out.push(Violation {
                    oracle: "step-cache",
                    detail: format!(
                        "replay is not byte-identical to Off (virtual timestamps included): {d}"
                    ),
                });
            }
        }
        if rep_stats.hits != rec_stats.entries {
            out.push(Violation {
                oracle: "step-cache",
                detail: format!(
                    "replay served {} hits for {} recorded entries",
                    rep_stats.hits, rec_stats.entries
                ),
            });
        }
        if rep_stats.misses != rec_stats.misses {
            out.push(Violation {
                oracle: "step-cache",
                detail: format!(
                    "replay added {} new misses",
                    rep_stats.misses - rec_stats.misses
                ),
            });
        }
    } else if rep.runs != rec.runs {
        // Under faults the timeline may legitimately shift between record
        // and replay (uncacheable steps re-execute), and later pushes embed
        // the virtual clock in their commits — so byte equality is out. The
        // sound invariant is verdict preservation: same runs, same
        // statuses, same failure attribution.
        out.push(Violation {
            oracle: "step-cache",
            detail: format!(
                "replay changed run verdicts under faults: {:?} vs {:?}",
                rec.runs.iter().map(|r| (r.id, r.status, r.failure_kind)).collect::<Vec<_>>(),
                rep.runs.iter().map(|r| (r.id, r.status, r.failure_kind)).collect::<Vec<_>>(),
            ),
        });
    }

    let infra_failures = rec
        .failed_runs()
        .filter(|r| r.failure_kind == Some(FailureKind::Infrastructure))
        .count();
    if infra_failures > 0 && rec_stats.uncacheable == 0 {
        out.push(Violation {
            oracle: "step-cache",
            detail: format!(
                "{infra_failures} infrastructure-failed run(s) but zero uncacheable steps — tainted results were cached"
            ),
        });
    }

    // Teardown: once retention has purged both worlds' artifacts and the
    // worlds — with them every handle on the cache, its entries and their
    // pins — are gone, the shared store holds nothing.
    for world in [&mut rec_world, &mut rep_world] {
        let expired = world.fed.now() + SimDuration::from_secs(91 * 24 * 3600);
        world.fed.engine.artifacts.purge_expired(expired);
    }
    drop((rec_world, rep_world));
    let left = cas.stats();
    if (left.objects, left.chunks, left.logical_bytes, left.stored_bytes) != (0, 0, 0, 0) {
        out.push(Violation {
            oracle: "step-cache",
            detail: format!(
                "CAS references leaked past teardown: {} objects, {} chunks, {} logical / {} stored bytes",
                left.objects, left.chunks, left.logical_bytes, left.stored_bytes
            ),
        });
    }
    Ok(())
}

/// Oracle 4: infra-vs-test failure attribution, checked against the typed
/// fate of the tasks submitted inside each failed run's window (runs execute
/// one at a time, so the windows are disjoint).
fn check_attribution(spec: &ScenarioSpec, fed: &Federation, out: &mut Vec<Violation>) {
    let has_faults = !spec.fault_plan().is_empty();
    let mut fail = |detail: String| out.push(Violation { oracle: "attribution", detail });
    let cloud = fed.cloud.lock();
    let chaos = fed.fault_trace();
    for r in fed.engine.runs() {
        if !r.status.is_terminal() {
            fail(format!("run {} never reached a terminal state ({:?})", r.id, r.status));
        }
        let Some(kind) = r.failure_kind() else { continue };
        let window = r.started_at..=r.ended_at;
        let mut tasks = (1..=cloud.task_count() as u64)
            .filter_map(|id| cloud.task(TaskId(id)))
            .filter(|t| window.contains(&Some(t.submitted_at)));
        match kind {
            FailureKind::Infrastructure => {
                if !has_faults {
                    fail(format!("run {} attributed to infrastructure with no fault plan", r.id));
                }
                let lost = tasks.any(|t| match &t.state {
                    TaskState::Rejected { reason, .. } => reason.is_infrastructure(),
                    TaskState::Done(o) => o.result == Err(TaskFailure::WorkerCrashed),
                    _ => false,
                });
                let token_expired = chaos
                    .of_kind("fault.inject")
                    .any(|e| e.component.as_str() == "auth" && window.contains(&Some(e.at())));
                if !lost && !token_expired {
                    fail(format!(
                        "run {} attributed to infrastructure, but none of its tasks was lost to \
                         a crash or rejected with an infrastructure error, and no token expired",
                        r.id
                    ));
                }
            }
            FailureKind::Test => {
                if !has_faults && spec.workload.failing == 0 {
                    fail(format!(
                        "run {} failed as `test` but the workload declares no failing tests",
                        r.id
                    ));
                }
                let failed = tasks.any(|t| {
                    matches!(&t.state, TaskState::Done(o)
                        if matches!(o.result, Err(TaskFailure::Command(_))))
                });
                if !failed {
                    fail(format!("run {} attributed to its tests, but no task of it failed", r.id));
                }
            }
        }
    }
}

/// Oracle 5: task conservation. `cloud` must be quiescent and its trace must
/// hold every record (a rolling trace that folded some is reported as such):
/// every task it accepted is `Done` or `Rejected`, got there through exactly
/// one `task.done` / `task.reject` record, and nothing is left scheduled or
/// was blocked on the way.
pub fn check_conservation(cloud: &CloudService, out: &mut Vec<Violation>) {
    let mut fail = |detail: String| out.push(Violation { oracle: "conservation", detail });
    if cloud.pending_submits() != 0 || cloud.next_event().is_some() {
        fail(format!(
            "not quiescent: {} submission(s) still scheduled, next event {:?}",
            cloud.pending_submits(),
            cloud.next_event()
        ));
    }
    let folded = cloud.trace.folded();
    if folded != 0 {
        fail(format!("{folded} records folded: the trace cannot be counted"));
        return;
    }
    let accepted = cloud.task_count();
    let (mut done, mut rejected) = (0usize, 0usize);
    for id in (1..=accepted as u64).map(TaskId) {
        match cloud.task_state(id) {
            Ok(TaskState::Done(_)) => done += 1,
            Ok(TaskState::Rejected { .. }) => rejected += 1,
            Ok(other) => fail(format!("{id} stuck in {}", other.name())),
            Err(e) => fail(format!("accepted task vanished: {e}")),
        }
    }
    for (kind, want) in [
        ("task.submit", accepted),
        ("task.done", done),
        ("task.reject", rejected),
        ("task.transition-blocked", 0),
    ] {
        let found = cloud.trace.of_kind(kind).count();
        if found != want {
            fail(format!("{found} `{kind}` record(s) where {want} belong"));
        }
    }
    let terminal_ids: BTreeSet<&str> = cloud
        .trace
        .of_kind("task.done")
        .chain(cloud.trace.of_kind("task.reject"))
        // `task-{:08x}` grows past eight digits from 2³² on.
        .filter_map(|e| e.detail.split([' ', ':']).next())
        .collect();
    if terminal_ids.len() != done + rejected {
        fail(format!("only {} distinct task(s) in the terminal records", terminal_ids.len()));
    }
}

/// Oracle 5, the clock clause: within each component of `log` (`name` in
/// the report), simulated time never runs backwards from one record to the
/// next.
pub fn check_trace_order(name: &str, log: &Trace, out: &mut Vec<Violation>) {
    let mut last: BTreeMap<&str, u64> = BTreeMap::new();
    for e in log.events() {
        let at = last.entry(e.component.as_str()).or_insert(e.at_us);
        if e.at_us < *at {
            out.push(Violation {
                oracle: "conservation",
                detail: format!(
                    "{name}: `{}` went back from {} to {}: {e}",
                    e.component,
                    SimTime::from_micros(*at),
                    e.at()
                ),
            });
            return;
        }
        *at = e.at_us;
    }
}

/// Oracle 5, the filesystem clause: after all the clones a scenario wrote,
/// no site's arena holds an entry `/` does not reach or a vacant slot it does.
fn check_site_fs(fed: &Federation, out: &mut Vec<Violation>) {
    for site in fed.sites() {
        let orphans = site.shared.lock().site.fs.orphans();
        if orphans != 0 {
            out.push(Violation {
                oracle: "conservation",
                detail: format!("site {}: {orphans} inode slot(s) on the wrong side of the free list", site.name),
            });
        }
    }
}

/// The first line where two rendered streams disagree — what `explain`
/// prints to pinpoint a divergence.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// 1-based line number of the first differing line.
    pub line: usize,
    pub left: String,
    pub right: String,
    /// Virtual instant parsed off the diverging line, microseconds.
    pub instant_us: Option<u64>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}", self.line)?;
        if let Some(us) = self.instant_us {
            write!(f, " (t+{:.6}s)", us as f64 / 1e6)?;
        }
        write!(f, ": `{}` vs `{}`", self.left, self.right)
    }
}

/// Compare two rendered streams line by line; `None` when identical.
pub fn first_divergence(a: &str, b: &str) -> Option<Divergence> {
    let mut la = a.lines();
    let mut lb = b.lines();
    let mut n = 0usize;
    loop {
        n += 1;
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) if x == y => {}
            (x, y) => {
                let left = x.unwrap_or("<end of stream>").to_string();
                let right = y.unwrap_or("<end of stream>").to_string();
                let instant_us = instant_of(&left).or_else(|| instant_of(&right));
                return Some(Divergence {
                    line: n,
                    left,
                    right,
                    instant_us,
                });
            }
        }
    }
}

/// Extract a virtual instant from a rendered line: `[t+<secs>s]` prefixes
/// (trace/chaos lines) or the first `started=<micros>` field (transcript).
pub fn instant_of(line: &str) -> Option<u64> {
    if let Some(rest) = line.strip_prefix("[t+") {
        let secs: &str = rest.split("s]").next()?;
        let v: f64 = secs.parse().ok()?;
        return Some((v * 1e6).round() as u64);
    }
    if let Some(ix) = line.find("started=") {
        let tail = &line[ix + "started=".len()..];
        let num: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
        return num.parse().ok();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_passes_all_oracles() {
        let spec = ScenarioSpec::minimal("oracle-green", 41);
        let report = verify_spec(&spec).expect("builds");
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.events > 0);
        assert_eq!(report.runs, 1);
    }

    #[test]
    fn failing_tests_attribute_as_test_not_infrastructure() {
        let mut spec = ScenarioSpec::minimal("oracle-red", 42);
        spec.workload.failing = 3;
        let report = verify_spec(&spec).expect("builds");
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn conservation_flags_a_task_left_in_flight() {
        let spec = ScenarioSpec::minimal("oracle-in-flight", 43);
        let (s, _) = drive_spec(&spec, CacheSetup::ForceOff).expect("builds");
        let token = compute_token(&s.fed, &s.user).expect("onboarded user");
        let mut cloud = s.fed.cloud.lock();
        let (now, ep) = (cloud.now(), EndpointId(s.endpoints[0].clone()));
        let task = cloud.submit_shell(&token, &ep, "true", now).expect("accepted");
        let mut violations = Vec::new();
        check_conservation(&cloud, &mut violations);
        let stuck = format!("{task} stuck in Submitted");
        assert!(violations.iter().any(|v| v.detail == stuck), "{violations:?}");
    }

    #[test]
    fn conservation_reports_a_folded_trace_instead_of_miscounting_it() {
        let spec = ScenarioSpec::minimal("oracle-rolling", 44);
        let (s, _) = drive_spec(&spec, CacheSetup::ForceOff).expect("builds");
        let token = compute_token(&s.fed, &s.user).expect("onboarded user");
        let mut cloud = s.fed.cloud.lock();
        cloud.trace.set_rolling(2);
        let (now, ep) = (cloud.now(), EndpointId(s.endpoints[0].clone()));
        cloud.submit_shell(&token, &ep, "true", now).expect("accepted");
        cloud.drain_to_quiescence();
        let folded = cloud.trace.folded();
        assert!(folded > 0);
        let mut violations = Vec::new();
        check_conservation(&cloud, &mut violations);
        let details: Vec<&str> = violations.iter().map(|v| v.detail.as_str()).collect();
        assert_eq!(details, [format!("{folded} records folded: the trace cannot be counted")]);
    }

    #[test]
    fn trace_order_flags_a_component_whose_clock_goes_back() {
        let mut log = Trace::new();
        log.record(SimTime::from_secs(5), "faas.cloud", "task.submit", "a");
        log.record(SimTime::from_secs(1), "auth", "token.issue", "b");
        let mut violations = Vec::new();
        check_trace_order("trace", &log, &mut violations);
        assert!(violations.is_empty(), "components keep clocks of their own");
        log.record(SimTime::from_secs(4), "faas.cloud", "task.done", "c");
        check_trace_order("trace", &log, &mut violations);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0]
                .detail
                .starts_with("trace: `faas.cloud` went back from t+5.000000s to t+4.000000s"),
            "{violations:?}"
        );
    }

    #[test]
    fn divergence_reports_line_and_instant() {
        let a = "[t+1.500000s] cloud task.submit x\nsame\n";
        let b = "[t+1.500000s] cloud task.submit x\ndifferent\n";
        let d = first_divergence(a, b).expect("diverges");
        assert_eq!(d.line, 2);
        assert_eq!(d.left, "same");
        let t = first_divergence("[t+2.000000s] a\n", "[t+2.250000s] b\n").unwrap();
        assert_eq!(t.instant_us, Some(2_000_000));
        assert_eq!(instant_of("1 wf@main started=123456 ended=9"), Some(123_456));
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        assert!(first_divergence("x\ny\n", "x\ny\n").is_none());
    }
}
