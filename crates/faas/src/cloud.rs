//! The cloud service: the single contact point of the federation.
//!
//! "The cloud service provides a single contact point via which functions
//! can be registered and submitted for execution. … When a task completes,
//! the endpoint returns the result, or exception, to the cloud service for
//! users to later retrieve" (§5.1).

use crate::endpoint::Endpoint;
use crate::error::FaasError;
use crate::function::{Function, FunctionBody, FunctionId};
use crate::mep::MultiUserEndpoint;
use crate::task::{Task, TaskId, TaskOutput, TaskState};
use hpcci_auth::{AuthService, Identity, Scope};
use hpcci_obs::Obs;
use hpcci_sim::{Advance, EventQueue, FaultInjector, NextEventCache, SimTime, Sym, Trace};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Endpoint identifier (the "endpoint UUID" of the action inputs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub String);

impl std::fmt::Display for EndpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::borrow::Borrow<str> for EndpointId {
    /// Lets `BTreeMap<EndpointId, _>` be queried by `&str` — the wire-event
    /// hot path resolves a task's endpoint name without cloning it into a
    /// fresh `EndpointId` first.
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// A registered endpoint: single-user or multi-user.
pub enum EndpointRegistration {
    Single(Box<Endpoint>),
    Multi(Box<MultiUserEndpoint>),
}

impl EndpointRegistration {
    fn wan_latency(&self) -> hpcci_sim::SimDuration {
        match self {
            EndpointRegistration::Single(e) => e.wan_latency(),
            EndpointRegistration::Multi(m) => m.wan_latency(),
        }
    }

    fn function_allowed(&self, f: FunctionId) -> bool {
        match self {
            EndpointRegistration::Single(e) => e.function_allowed(f),
            EndpointRegistration::Multi(m) => m.function_allowed(f),
        }
    }

    fn shell_allowed(&self) -> bool {
        match self {
            EndpointRegistration::Single(e) => e.shell_allowed(),
            EndpointRegistration::Multi(m) => m.shell_allowed(),
        }
    }

    fn has_injector(&self) -> bool {
        match self {
            EndpointRegistration::Single(e) => e.has_injector(),
            EndpointRegistration::Multi(m) => m.has_injector(),
        }
    }

    fn shares_scheduler(&self) -> bool {
        match self {
            EndpointRegistration::Single(e) => e.shares_scheduler(),
            EndpointRegistration::Multi(m) => m.shares_scheduler(),
        }
    }

    fn next_event(&self) -> Option<SimTime> {
        match self {
            EndpointRegistration::Single(e) => e.next_event(),
            EndpointRegistration::Multi(m) => m.next_event(),
        }
    }

    fn advance_to(&mut self, t: SimTime) {
        match self {
            EndpointRegistration::Single(e) => e.advance_to(t),
            EndpointRegistration::Multi(m) => m.advance_to(t),
        }
    }

    fn drain_finished_into(&mut self, out: &mut Vec<(TaskId, Box<TaskOutput>)>) {
        match self {
            EndpointRegistration::Single(e) => e.drain_finished_into(out),
            EndpointRegistration::Multi(m) => m.drain_finished_into(out),
        }
    }
}

enum InFlight {
    /// A scheduled future submission (see [`CloudService::submit_shell_at`]):
    /// validated up front, accepted — task id, `task.submit` trace record,
    /// delivery leg — when its arrival instant is reached, so ids stay dense
    /// in arrival order no matter how far ahead callers schedule.
    ///
    /// Validation resolved the endpoint to its slot and interned the command,
    /// so a wave of scheduled arrivals shares one `Arc<Identity>` and one
    /// command allocation instead of cloning strings per arrival.
    Submit {
        identity: Arc<Identity>,
        slot: usize,
        command: Sym,
    },
    Deliver {
        task: TaskId,
        identity: Arc<Identity>,
        slot: usize,
    },
    /// The output rides the wire by handle, on its way to `TaskState::Done`.
    Return {
        task: TaskId,
        output: Box<TaskOutput>,
    },
}

/// Maximum bytes of a task's args or result payload. The paper notes Globus
/// Compute payload limits (§7.4); 10 MB matches its order of magnitude.
pub const PAYLOAD_LIMIT: usize = 10 * 1024 * 1024;

/// The FaaS cloud service.
pub struct CloudService {
    auth: Arc<Mutex<AuthService>>,
    functions: BTreeMap<FunctionId, Function>,
    /// Registered endpoints, indexed by cache slot. Name lookups go through
    /// `slots`; ordered walks go through `ordered_slots`. Slot-indexed so
    /// the hot loop reaches an endpoint with one bounds check instead of a
    /// string-keyed tree descent.
    endpoints: Vec<EndpointRegistration>,
    /// All tasks ever accepted, indexed by `TaskId` (ids are assigned
    /// sequentially from 1 and never removed, so `tasks[id - 1]` replaces a
    /// per-wire-event string of tree descents).
    tasks: Vec<Task>,
    wire: EventQueue<InFlight>,
    pub trace: Trace,
    now: SimTime,
    next_task: u64,
    next_function: u64,
    injector: Option<FaultInjector>,
    /// Indexed event dispatch over registered endpoints: each step only
    /// re-probes endpoints the cloud touched (plus volatile pilot-job ones)
    /// and only advances endpoints with a due event.
    cache: NextEventCache,
    /// Endpoint id → cache slot.
    slots: BTreeMap<EndpointId, usize>,
    /// Cache slot → interned `faas.ep.{id}` trace component.
    slot_syms: Vec<Sym>,
    /// Cache slot → interned plain endpoint name (shared by every task
    /// record targeting the endpoint).
    slot_name_syms: Vec<Sym>,
    /// Slots in endpoint-name order — the order the pre-index exhaustive
    /// scan advanced and collected endpoints in. Rebuilt on registration.
    ordered_slots: Vec<usize>,
    /// Slot → position in `ordered_slots`: lets the hot loop order due/
    /// touched slot lists by comparing integers instead of endpoint names.
    slot_rank: Vec<usize>,
    /// Scratch: due slots of the current step, reused across steps.
    due_scratch: Vec<usize>,
    /// Slots touched (advanced or enqueued-into) since their finished
    /// outputs were last collected.
    touched: Vec<usize>,
    /// Scratch: due wire events of the current step, reused across steps.
    wire_scratch: Vec<(SimTime, InFlight)>,
    /// Scratch: finished outputs drained from one endpoint, reused across
    /// steps so collection allocates nothing in steady state.
    finished_scratch: Vec<(TaskId, Box<TaskOutput>)>,
    /// Any fault injector present (cloud's own or an endpoint's)? If so the
    /// exhaustive advance path is used so fault consult boundaries — which
    /// fire at the first consult at/after their scheduled time — never move.
    fault_aware: bool,
    /// An `endpoint_mut` borrow escaped; re-evaluate `fault_aware` before
    /// the next advance.
    recheck_faults: bool,
    /// Observability handle, propagated to endpoints at registration.
    obs: Obs,
    /// Hot-loop counters kept as plain fields (no lock, no branch beyond the
    /// add) and harvested into `obs` by [`Self::harvest_metrics`].
    tasks_submitted: u64,
    tasks_completed: u64,
    events_dispatched: u64,
    /// Scheduled-but-not-yet-accepted [`InFlight::Submit`] events.
    pending_submits: u64,
}

impl CloudService {
    pub fn new(auth: Arc<Mutex<AuthService>>) -> Self {
        CloudService {
            auth,
            functions: BTreeMap::new(),
            endpoints: Vec::new(),
            tasks: Vec::new(),
            wire: EventQueue::new(),
            trace: Trace::new(),
            now: SimTime::ZERO,
            next_task: 0,
            next_function: 0,
            injector: None,
            cache: NextEventCache::new(),
            slots: BTreeMap::new(),
            slot_syms: Vec::new(),
            slot_name_syms: Vec::new(),
            ordered_slots: Vec::new(),
            slot_rank: Vec::new(),
            due_scratch: Vec::new(),
            touched: Vec::new(),
            wire_scratch: Vec::new(),
            finished_scratch: Vec::new(),
            fault_aware: false,
            recheck_faults: false,
            obs: Obs::disabled(),
            pending_submits: 0,
            tasks_submitted: 0,
            tasks_completed: 0,
            events_dispatched: 0,
        }
    }

    /// Always 1: the serial step loop is the only drain engine. Kept because
    /// the frozen `benchmark/` crate reads it into `faas.domains`; the next
    /// PR that may edit `benchmark/` should drop that metric and this method.
    pub fn domain_count(&self) -> usize {
        1
    }

    /// Run the event loop to quiescence — until neither the wire nor any
    /// endpoint holds a pending event. Leaves `now` at the last committed
    /// instant.
    pub fn drain_to_quiescence(&mut self) -> SimTime {
        while self.step_next(SimTime::FAR_FUTURE).is_some() {}
        self.now
    }

    /// Attach a fault injector. The cloud consults it for WAN partitions on
    /// both wire legs; an empty plan leaves every delivery time untouched.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
        self.fault_aware = true;
    }

    /// Attach an observability handle. Propagates to every endpoint already
    /// registered and to every endpoint registered afterwards. Recording is
    /// sim-time only and never feeds back into timing, so traces are
    /// unchanged whether the handle is enabled or disabled.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        for registration in self.endpoints.iter_mut() {
            match registration {
                EndpointRegistration::Single(e) => e.set_obs(self.obs.clone()),
                EndpointRegistration::Multi(m) => m.set_obs(self.obs.clone()),
            }
        }
    }

    /// The cloud's observability handle (disabled unless [`Self::set_obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Harvest hot-loop counters (kept as plain fields while the event loop
    /// runs) plus dispatch-cache effectiveness into the obs registry.
    pub fn harvest_metrics(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs.set_counter("faas.tasks_submitted", self.tasks_submitted);
        self.obs.set_counter("faas.tasks_completed", self.tasks_completed);
        self.obs.set_counter("sim.events_dispatched", self.events_dispatched);
        let stats = self.cache.stats();
        self.obs.set_counter("sim.cache_refreshes", stats.refreshes);
        self.obs.set_counter("sim.cache_refresh_hot_hits", stats.hot_hits);
        self.obs.set_counter("sim.cache_probes", stats.probes);
        self.obs.set_counter("sim.cache_volatile_probes", stats.volatile_probes);
    }

    /// Earliest instant a message can cross the WAN towards/from `endpoint`:
    /// `now` normally, or the partition's heal time while one is active.
    fn wire_clear_at(&self, endpoint: &str, now: SimTime) -> SimTime {
        match &self.injector {
            Some(inj) => inj.partition_until(endpoint, now).unwrap_or(now).max(now),
            None => now,
        }
    }

    pub fn auth(&self) -> &Arc<Mutex<AuthService>> {
        &self.auth
    }

    /// Register an endpoint under a name.
    pub fn register_endpoint(&mut self, id: &str, mut registration: EndpointRegistration) -> EndpointId {
        let eid = EndpointId(id.to_string());
        if self.obs.is_enabled() {
            match &mut registration {
                EndpointRegistration::Single(e) => e.set_obs(self.obs.clone()),
                EndpointRegistration::Multi(m) => m.set_obs(self.obs.clone()),
            }
        }
        self.fault_aware |= registration.has_injector();
        let volatile = registration.shares_scheduler();
        let slot = match self.slots.get(&eid) {
            Some(&slot) => slot,
            None => {
                let slot = self.cache.register();
                self.slot_syms.push(self.trace.intern(&format!("faas.ep.{id}")));
                self.slot_name_syms.push(self.trace.intern(id));
                self.slots.insert(eid.clone(), slot);
                // A new name shifts ranks: rebuild the name-order walk list
                // (registration is rare; the hot loop only reads these).
                self.ordered_slots = self.slots.values().copied().collect();
                self.slot_rank = vec![0; self.slot_syms.len()];
                for (rank, &s) in self.ordered_slots.iter().enumerate() {
                    self.slot_rank[s] = rank;
                }
                slot
            }
        };
        self.cache.set_volatile(slot, volatile);
        self.cache.mark_dirty(slot);
        if slot == self.endpoints.len() {
            self.endpoints.push(registration);
        } else {
            self.endpoints[slot] = registration;
        }
        eid
    }

    pub fn endpoint_mut(&mut self, id: &EndpointId) -> Result<&mut EndpointRegistration, FaasError> {
        let Some(&slot) = self.slots.get(id) else {
            return Err(FaasError::UnknownEndpoint(id.0.clone()));
        };
        // The borrow may change anything about the endpoint — including
        // attaching a fault injector — so invalidate its cached time,
        // queue it for output collection, and recheck fault-awareness
        // before the next advance.
        self.cache.mark_dirty(slot);
        self.touched.push(slot);
        self.recheck_faults = true;
        Ok(&mut self.endpoints[slot])
    }

    /// Register a function owned by the token's identity.
    pub fn register_function(
        &mut self,
        token: &hpcci_auth::AccessToken,
        name: &str,
        body: FunctionBody,
        now: SimTime,
    ) -> Result<FunctionId, FaasError> {
        let info = self
            .auth
            .lock()
            .require_scope(token, &Scope::compute_api(), now)?;
        self.next_function += 1;
        let id = FunctionId(self.next_function);
        self.functions.insert(
            id,
            Function {
                id,
                name: name.to_string(),
                owner: info.identity,
                body,
            },
        );
        self.trace
            .record(now, "faas.cloud", "function.register", format!("{id} {name}"));
        Ok(id)
    }

    pub fn function(&self, id: FunctionId) -> Result<&Function, FaasError> {
        self.functions.get(&id).ok_or(FaasError::UnknownFunction(id))
    }

    /// Submit an ad-hoc shell command (the action's `shell_cmd` input).
    pub fn submit_shell(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        shell_cmd: &str,
        now: SimTime,
    ) -> Result<TaskId, FaasError> {
        let (identity, slot) = self.validate_shell(token, endpoint, shell_cmd, now)?;
        let command = self.trace.intern(shell_cmd);
        Ok(self.accept(&identity, slot, command, now))
    }

    /// Schedule a shell submission for a future arrival instant. Validation
    /// (auth, endpoint, payload, ownership) happens now, at `now`; acceptance
    /// — task id, `task.submit` record, delivery leg — happens when the event
    /// loop reaches `submit_at`, so ids and the trace stay in arrival order.
    /// The workhorse behind [`Self::submit_shell_batch`]; prefer the batch
    /// form when injecting many arrivals for one identity.
    pub fn submit_shell_at(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        shell_cmd: &str,
        now: SimTime,
        submit_at: SimTime,
    ) -> Result<(), FaasError> {
        let (identity, slot) = self.validate_shell(token, endpoint, shell_cmd, now)?;
        let command = self.trace.intern(shell_cmd);
        self.push_submit(identity, slot, command, now, submit_at);
        Ok(())
    }

    /// Batched arrival injection: validate once, then schedule one submission
    /// of `shell_cmd` per instant in `arrivals`. This is the workload
    /// engine's path into the cloud — a wave of tens of thousands of arrivals
    /// costs one auth check and one wheel push per arrival, not a full
    /// validation stack each. Returns the number of submissions scheduled.
    pub fn submit_shell_batch(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        shell_cmd: &str,
        now: SimTime,
        arrivals: &[SimTime],
    ) -> Result<u64, FaasError> {
        let (identity, slot) = self.validate_shell(token, endpoint, shell_cmd, now)?;
        let command = self.trace.intern(shell_cmd);
        for &at in arrivals {
            self.push_submit(identity.clone(), slot, command.clone(), now, at);
        }
        Ok(arrivals.len() as u64)
    }

    /// The validation stack of [`Self::submit_shell`], factored out so the
    /// scheduled-submission paths run exactly the same checks.
    fn validate_shell(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        shell_cmd: &str,
        now: SimTime,
    ) -> Result<(Arc<Identity>, usize), FaasError> {
        let identity = self.authenticate(token, now)?;
        let slot = *self
            .slots
            .get(endpoint)
            .ok_or_else(|| FaasError::UnknownEndpoint(endpoint.0.clone()))?;
        let ep = &self.endpoints[slot];
        if !ep.shell_allowed() {
            return Err(FaasError::ShellNotAllowed);
        }
        self.check_payload(shell_cmd.len())?;
        self.check_owner(ep, &identity, now)?;
        Ok((identity, slot))
    }

    fn push_submit(
        &mut self,
        identity: Arc<Identity>,
        slot: usize,
        command: Sym,
        now: SimTime,
        submit_at: SimTime,
    ) {
        self.pending_submits += 1;
        self.wire.push(
            submit_at.max(now),
            InFlight::Submit {
                identity,
                slot,
                command,
            },
        );
    }

    /// Scheduled submissions not yet accepted by the event loop.
    pub fn pending_submits(&self) -> u64 {
        self.pending_submits
    }

    /// Submit a pre-registered function (the action's `function_uuid` input).
    pub fn submit_function(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        function: FunctionId,
        args: &str,
        now: SimTime,
    ) -> Result<TaskId, FaasError> {
        let identity = self.authenticate(token, now)?;
        let f = self.function(function)?.clone();
        let slot = *self
            .slots
            .get(endpoint)
            .ok_or_else(|| FaasError::UnknownEndpoint(endpoint.0.clone()))?;
        let ep = &self.endpoints[slot];
        if !ep.function_allowed(function) {
            return Err(FaasError::FunctionNotAllowed(function));
        }
        self.check_payload(args.len())?;
        self.check_owner(ep, &identity, now)?;
        let command = self.trace.intern(&f.command_line(args));
        Ok(self.accept(&identity, slot, command, now))
    }

    /// The identity behind a valid compute token, by handle: the submission
    /// carries the service's own `Arc`, as the identity stands right now.
    fn authenticate(
        &mut self,
        token: &hpcci_auth::AccessToken,
        now: SimTime,
    ) -> Result<Arc<Identity>, FaasError> {
        let auth = self.auth.lock();
        let info = auth.require_scope(token, &Scope::compute_api(), now)?;
        Ok(auth.identity(info.identity)?.clone())
    }

    fn check_payload(&self, bytes: usize) -> Result<(), FaasError> {
        if bytes > PAYLOAD_LIMIT {
            return Err(FaasError::PayloadTooLarge {
                bytes,
                limit: PAYLOAD_LIMIT,
            });
        }
        Ok(())
    }

    /// Ownership and high-assurance policy, evaluated at the submission
    /// instant `now` — the cloud's own clock may lag the submitter.
    fn check_owner(
        &self,
        ep: &EndpointRegistration,
        identity: &Identity,
        now: SimTime,
    ) -> Result<(), FaasError> {
        if let EndpointRegistration::Single(e) = ep {
            if e.config.owner != identity.id {
                return Err(FaasError::NotEndpointOwner);
            }
            e.config.ha_policy.check(identity, now)?;
        }
        Ok(())
    }

    fn accept(
        &mut self,
        identity: &Arc<Identity>,
        slot: usize,
        command: Sym,
        now: SimTime,
    ) -> TaskId {
        self.next_task += 1;
        self.tasks_submitted += 1;
        let id = TaskId(self.next_task);
        debug_assert_eq!(id.0 as usize, self.tasks.len() + 1, "ids are dense");
        let endpoint_name = self.slot_name_syms[slot].clone();
        self.tasks.push(Task {
            id,
            submitter: identity.id,
            endpoint: endpoint_name,
            command: command.clone(),
            submitted_at: now,
            state: TaskState::Submitted { at: now },
        });
        let latency = self.endpoints[slot].wan_latency();
        let endpoint_name = &self.slot_name_syms[slot];
        // `{id} -> {endpoint}: {command}`, hand-built: byte-identical to the
        // `format!` it replaces, without per-field formatter dispatch. The
        // buffer is recycled from a folded-out event when one is available.
        let mut detail = self.trace.detail_buf();
        detail.reserve(27 + endpoint_name.len() + command.len());
        id.write_label(&mut detail);
        detail.push_str(" -> ");
        detail.push_str(endpoint_name);
        detail.push_str(": ");
        detail.push_str(&command);
        self.trace.record(now, "faas.cloud", "task.submit", detail);
        let clear = self.wire_clear_at(self.slot_name_syms[slot].as_str(), now);
        self.wire.push(
            clear + latency,
            InFlight::Deliver {
                task: id,
                identity: identity.clone(),
                slot,
            },
        );
        id
    }

    /// The task record for `id`, if it was ever accepted.
    fn task(&self, id: TaskId) -> Option<&Task> {
        // Ids are dense from 1; `TaskId(0)` wraps to an out-of-range index.
        self.tasks.get((id.0 as usize).wrapping_sub(1))
    }

    /// Current state of a task.
    pub fn task_state(&self, id: TaskId) -> Result<&TaskState, FaasError> {
        Ok(&self.task(id).ok_or(FaasError::UnknownTask(id))?.state)
    }

    /// The result of a finished task.
    pub fn task_result(&self, id: TaskId) -> Result<&TaskOutput, FaasError> {
        match self.task_state(id)? {
            TaskState::Done(out) => Ok(out),
            TaskState::Rejected { reason, .. } => Err(FaasError::Auth(
                hpcci_auth::AuthError::PolicyViolation(reason.clone()),
            )),
            _ => Err(FaasError::NotFinished(id)),
        }
    }

    /// Is the task terminal?
    pub fn task_finished(&self, id: TaskId) -> Result<bool, FaasError> {
        Ok(self.task_state(id)?.is_terminal())
    }

    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Events dispatched by this cloud's event loop so far (also exported as
    /// the `sim.events_dispatched` counter when observability is on).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Move `slot`'s finished outputs onto the return wire: one
    /// `task.returning` record and one wire push per task, FIFO within the
    /// endpoint, through the reused scratch vector and the detail pool — no
    /// per-step allocation on either advance path.
    fn return_finished(&mut self, slot: usize, now: SimTime) {
        let mut finished = std::mem::take(&mut self.finished_scratch);
        self.endpoints[slot].drain_finished_into(&mut finished);
        if !finished.is_empty() {
            let latency = self.endpoints[slot].wan_latency();
            for (task, output) in finished.drain(..) {
                let mut d = self.trace.detail_buf();
                task.write_label(&mut d);
                d.push_str(" from endpoint");
                self.trace.record(now, "faas.cloud", "task.returning", d);
                let arrive = self.wire_clear_at(&self.slot_name_syms[slot], now) + latency;
                self.wire.push(arrive, InFlight::Return { task, output });
            }
        }
        self.finished_scratch = finished;
    }

    /// Collect finished outputs from endpoints touched since the last
    /// collection. Injector-free, an endpoint's `finished` buffer can only be
    /// non-empty if the cloud advanced it or enqueued into it, so skipping
    /// untouched endpoints observes exactly what the exhaustive scan would.
    fn collect_touched_returns(&mut self, now: SimTime) {
        if self.touched.is_empty() {
            return;
        }
        // Endpoint-name order: the order the exhaustive scan collected in.
        {
            let rank = &self.slot_rank;
            self.touched.sort_unstable_by_key(|&s| rank[s]);
        }
        self.touched.dedup();
        for i in 0..self.touched.len() {
            self.return_finished(self.touched[i], now);
        }
        self.touched.clear();
    }

    /// Handle one due wire event (shared by both advance paths).
    fn handle_wire_event(&mut self, at: SimTime, event: InFlight) {
        match event {
            InFlight::Submit { identity, slot, command } => {
                // Acceptance pushes the delivery leg at `at + wan_latency`;
                // with a zero-latency endpoint that lands at this same
                // instant and the drive loop picks it up on its next pass
                // through the same step, before any later-time event.
                self.pending_submits -= 1;
                self.accept(&identity, slot, command, at);
            }
            InFlight::Deliver { task, identity, slot } => {
                // The slot rode along from acceptance (registrations are
                // never removed), so delivery needs no name lookup; the
                // command is shared with the task record.
                let component = self.slot_syms[slot].clone();
                let command = self.tasks[task.0 as usize - 1].command.clone();
                let mut detail = self.trace.detail_buf();
                task.write_label(&mut detail);
                self.trace
                    .record(at, component.clone(), "task.deliver", detail);
                let result = match &mut self.endpoints[slot] {
                    EndpointRegistration::Single(e) => e.enqueue(task, &command, at),
                    EndpointRegistration::Multi(m) => m.enqueue(task, &identity, &command, at),
                };
                self.cache.mark_dirty(slot);
                if !self.fault_aware {
                    self.touched.push(slot);
                }
                let record = &mut self.tasks[task.0 as usize - 1];
                let transition = match result {
                    Ok(()) => record.transition(TaskState::QueuedAtEndpoint { at }),
                    Err(e) => {
                        self.trace
                            .record(at, component, "task.reject", format!("{task}: {e}"));
                        record.transition(TaskState::Rejected {
                            at,
                            reason: e.to_string(),
                        })
                    }
                };
                if let Err(e) = transition {
                    self.trace
                        .record(at, "faas.cloud", "task.transition-blocked", e.to_string());
                }
            }
            InFlight::Return { task, output } => {
                // `{task} ran_as={} node={} ok={}`, hand-built (see
                // `TaskId::write_label`); byte-identical to the `format!`.
                let mut detail = self.trace.detail_buf();
                detail.reserve(42 + output.ran_as.len() + output.node.len());
                task.write_label(&mut detail);
                detail.push_str(" ran_as=");
                detail.push_str(&output.ran_as);
                detail.push_str(" node=");
                detail.push_str(&output.node);
                detail.push_str(if output.success() { " ok=true" } else { " ok=false" });
                let record = &mut self.tasks[task.0 as usize - 1];
                let submitted_at = record.submitted_at;
                match record.transition(TaskState::Done(output)) {
                    Ok(()) => {
                        self.tasks_completed += 1;
                        self.obs
                            .observe("faas.task_latency_us", at.since(submitted_at).as_micros());
                        self.trace.record(at, "faas.cloud", "task.done", detail)
                    }
                    Err(e) => self.trace.record(
                        at,
                        "faas.cloud",
                        "task.transition-blocked",
                        e.to_string(),
                    ),
                }
            }
        }
    }

    /// Exhaustive advance: probe and advance every endpoint at every step.
    /// Used whenever a fault injector is in play, because injected faults
    /// fire at the first consult at/after their scheduled time — skipping a
    /// "quiescent" endpoint would move its consult boundary and change which
    /// instant a fault lands on.
    fn advance_all_to(&mut self, t: SimTime) {
        loop {
            let wire_next = self.wire.next_time();
            let ep_next = self.endpoints.iter().filter_map(|ep| ep.next_event()).min();
            let step = match (wire_next, ep_next) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if step > t {
                break;
            }
            self.now = step;
            self.events_dispatched += self.endpoints.len() as u64;
            for &slot in &self.ordered_slots {
                self.endpoints[slot].advance_to(step);
            }
            for i in 0..self.ordered_slots.len() {
                self.return_finished(self.ordered_slots[i], step);
            }
            while let Some((at, event)) = self.wire.pop_due(step) {
                self.events_dispatched += 1;
                self.handle_wire_event(at, event);
            }
        }
        self.now = t;
    }

    /// Re-probe dirty (and volatile) endpoint slots.
    fn refresh_cache(&mut self) {
        let endpoints = &self.endpoints;
        self.cache.refresh(|slot| endpoints[slot].next_event());
    }
}

impl Advance for CloudService {
    fn next_event(&self) -> Option<SimTime> {
        if self.fault_aware || self.recheck_faults || self.cache.any_dirty() {
            // Exhaustive probe: fault injection active, or the cache has
            // pending invalidations only an `&mut` advance may flush.
            let mut next = self.wire.next_time();
            for ep in self.endpoints.iter() {
                if let Some(t) = ep.next_event() {
                    next = Some(next.map_or(t, |x| x.min(t)));
                }
            }
            return next;
        }
        // Indexed probe: O(endpoints) scan of cached times plus fresh probes
        // of the (few) volatile pilot-job endpoints — no deep walks into
        // quiescent endpoints' queues, sites, or providers.
        let mut next = self.wire.next_time();
        if let Some(t) = self.cache.min_stable() {
            next = Some(next.map_or(t, |x| x.min(t)));
        }
        for &slot in self.cache.volatile_slots() {
            if let Some(t) = self.endpoints[slot].next_event() {
                next = Some(next.map_or(t, |x| x.min(t)));
            }
        }
        next
    }

    /// One step of the drive loop through a `&mut` entry point: refresh the
    /// dispatch cache once and reuse it for both the probe and the advance.
    ///
    /// The read-only [`Advance::next_event`] cannot flush pending dirty bits,
    /// so after any advance it must fall back to the exhaustive deep scan of
    /// every endpoint. Driving via `step_next` instead makes the steady-state
    /// cost per step `O(due endpoints)` probes, not `O(all endpoints)` walks.
    fn step_next(&mut self, deadline: SimTime) -> Option<SimTime> {
        if self.fault_aware || self.recheck_faults {
            // Fault injection in play (or undecided): keep the exhaustive
            // probe — faults fire at consult boundaries, so every endpoint
            // must be consulted at every step.
            let next = self.next_event()?;
            if next > deadline {
                return None;
            }
            self.advance_to(next);
            return Some(next);
        }
        self.refresh_cache();
        let step = match (self.wire.next_time(), self.cache.min()) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        if step > deadline {
            return None;
        }
        self.advance_to(step);
        Some(step)
    }

    fn advance_to(&mut self, t: SimTime) {
        if self.recheck_faults {
            self.recheck_faults = false;
            self.fault_aware =
                self.injector.is_some() || self.endpoints.iter().any(|ep| ep.has_injector());
        }
        if self.fault_aware {
            self.advance_all_to(t);
            return;
        }
        loop {
            self.refresh_cache();
            // Earliest wire event or endpoint event within the window.
            let step = match (self.wire.next_time(), self.cache.min()) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if step > t {
                break;
            }
            self.now = step;
            // Advance only endpoints with a due event, in endpoint-name
            // order — the same order the exhaustive scan advanced them in.
            self.due_scratch.clear();
            self.due_scratch.extend(self.cache.due(step));
            {
                let rank = &self.slot_rank;
                self.due_scratch.sort_unstable_by_key(|&s| rank[s]);
            }
            self.events_dispatched += self.due_scratch.len() as u64;
            for i in 0..self.due_scratch.len() {
                let slot = self.due_scratch[i];
                self.endpoints[slot].advance_to(step);
                self.cache.mark_dirty(slot);
                self.touched.push(slot);
            }
            self.collect_touched_returns(step);
            // Handle due wire events. Handlers never push at-or-before
            // `step`, so a bulk drain sees the same events the incremental
            // pop loop would.
            let mut wire_scratch = std::mem::take(&mut self.wire_scratch);
            wire_scratch.clear();
            self.wire.drain_due_into(step, &mut wire_scratch);
            self.events_dispatched += wire_scratch.len() as u64;
            for (at, event) in wire_scratch.drain(..) {
                self.handle_wire_event(at, event);
            }
            self.wire_scratch = wire_scratch;
        }
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{EndpointConfig, WorkerProvider};
    use crate::exec::{shared, ExecOutcome, SiteRuntime};
    use hpcci_auth::{ClientSecret, IdentityId};
    use hpcci_cluster::Site;
    use hpcci_scheduler::LocalProvider;
    use hpcci_sim::drive;

    struct Setup {
        cloud: CloudService,
        token: hpcci_auth::AccessToken,
        owner: IdentityId,
        endpoint: EndpointId,
    }

    fn setup(restrict: Option<Vec<FunctionId>>) -> Setup {
        let auth = Arc::new(Mutex::new(AuthService::new()));
        let (owner, token) = {
            let mut a = auth.lock();
            let identity = a.register_identity("vhayot@uchicago.edu", "uchicago.edu", SimTime::ZERO);
            let (cid, secret) = a.create_client(identity.id, "correct").unwrap();
            let token = a
                .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
                .unwrap();
            (identity.id, token)
        };
        let mut rt = SiteRuntime::new(Site::workstation("lab"));
        rt.site.add_account("vhayot", "proj");
        rt.commands.register("tox", |_| ExecOutcome::ok("py312: commands succeeded", 8.0));
        rt.commands.register("fail", |_| ExecOutcome::fail("tests failed", 1.0));
        let site = shared(rt);
        let login = site.lock().site.login_node().unwrap().id;
        let mut config = EndpointConfig::new("ep-lab", owner, "vhayot");
        if let Some(fns) = restrict {
            config = config.with_allowlist(&fns);
        }
        let ep = Endpoint::new(
            config,
            site,
            WorkerProvider::Local(LocalProvider::new(login, 8)),
            9,
        );
        let mut cloud = CloudService::new(auth);
        let endpoint = cloud.register_endpoint("ep-lab", EndpointRegistration::Single(Box::new(ep)));
        Setup {
            cloud,
            token,
            owner,
            endpoint,
        }
    }

    #[test]
    fn end_to_end_shell_task() {
        let mut s = setup(None);
        let task = s
            .cloud
            .submit_shell(&s.token, &s.endpoint, "tox", SimTime::ZERO)
            .unwrap();
        assert!(!s.cloud.task_finished(task).unwrap());
        drive(&mut [&mut s.cloud]);
        assert!(s.cloud.task_finished(task).unwrap());
        let out = s.cloud.task_result(task).unwrap();
        assert!(out.success());
        assert!(out.stdout.contains("commands succeeded"));
        assert_eq!(out.ran_as, "vhayot");
        // Trace captured the full lifecycle.
        assert_eq!(s.cloud.trace.of_kind("task.submit").count(), 1);
        assert_eq!(s.cloud.trace.of_kind("task.done").count(), 1);
    }

    #[test]
    fn scheduled_batch_matches_interactive_submission() {
        use hpcci_sim::Advance as _;
        let arrivals: Vec<SimTime> =
            [3u64, 3, 7, 20, 41].iter().map(|&s| SimTime::from_secs(s)).collect();
        // Interactive reference: advance to each instant and submit there.
        let mut a = setup(None);
        for &at in &arrivals {
            a.cloud.advance_to(at);
            a.cloud.submit_shell(&a.token, &a.endpoint, "tox", at).unwrap();
        }
        a.cloud.drain_to_quiescence();
        // Scheduled: validate once, push every arrival up front.
        let mut b = setup(None);
        let n = b
            .cloud
            .submit_shell_batch(&b.token, &b.endpoint, "tox", SimTime::ZERO, &arrivals)
            .unwrap();
        assert_eq!(n, arrivals.len() as u64);
        assert_eq!(b.cloud.pending_submits(), n);
        assert_eq!(b.cloud.task_count(), 0, "acceptance is deferred to arrival");
        b.cloud.drain_to_quiescence();
        assert_eq!(b.cloud.pending_submits(), 0);
        assert_eq!(b.cloud.task_count(), arrivals.len());
        for id in 1..=arrivals.len() as u64 {
            assert!(b.cloud.task_finished(TaskId(id)).unwrap());
        }
        assert_eq!(
            a.cloud.trace.rolling_digest(),
            b.cloud.trace.rolling_digest(),
            "scheduled arrivals replay the interactive trace byte-for-byte"
        );
    }

    #[test]
    fn wire_entries_stay_handle_sized() {
        // `InFlight::Return` carries its output by handle; a by-value payload
        // would triple every wheel entry the wire moves.
        assert!(std::mem::size_of::<InFlight>() <= 56);
        assert!(std::mem::size_of::<Task>() <= 112);
    }

    #[test]
    fn scheduled_submission_validates_up_front() {
        let mut s = setup(Some(vec![FunctionId(1)]));
        // Shell is disallowed on this endpoint: the error surfaces at
        // scheduling time, not when the arrival instant is reached.
        assert!(matches!(
            s.cloud.submit_shell_at(
                &s.token,
                &s.endpoint,
                "tox",
                SimTime::ZERO,
                SimTime::from_secs(5)
            ),
            Err(FaasError::ShellNotAllowed)
        ));
        assert_eq!(s.cloud.pending_submits(), 0);
    }

    #[test]
    fn failing_task_returns_exception() {
        let mut s = setup(None);
        let task = s
            .cloud
            .submit_shell(&s.token, &s.endpoint, "fail", SimTime::ZERO)
            .unwrap();
        drive(&mut [&mut s.cloud]);
        let out = s.cloud.task_result(task).unwrap();
        assert!(!out.success());
        assert_eq!(out.stderr, "tests failed");
    }

    #[test]
    fn bad_token_rejected() {
        let mut s = setup(None);
        // A token from an unknown client is invalid.
        let bogus = {
            let mut a = s.cloud.auth().lock();
            let other = a.register_identity("other@x.y", "x.y", SimTime::ZERO);
            let (cid, sec) = a.create_client(other.id, "c").unwrap();
            // Authenticate then revoke, producing an invalid token.
            let t = a.authenticate(&cid, &sec, vec![Scope::compute_api()], SimTime::ZERO).unwrap();
            a.revoke(&t).unwrap();
            t
        };
        assert!(matches!(
            s.cloud.submit_shell(&bogus, &s.endpoint, "tox", SimTime::ZERO),
            Err(FaasError::Auth(_))
        ));
        let _ = ClientSecret::new("x");
    }

    #[test]
    fn non_owner_cannot_use_single_user_endpoint() {
        let mut s = setup(None);
        let foreign_token = {
            let mut a = s.cloud.auth().lock();
            let mallory = a.register_identity("mallory@uchicago.edu", "uchicago.edu", SimTime::ZERO);
            let (cid, sec) = a.create_client(mallory.id, "m").unwrap();
            a.authenticate(&cid, &sec, vec![Scope::compute_api()], SimTime::ZERO).unwrap()
        };
        assert!(matches!(
            s.cloud.submit_shell(&foreign_token, &s.endpoint, "tox", SimTime::ZERO),
            Err(FaasError::NotEndpointOwner)
        ));
    }

    #[test]
    fn session_policy_is_checked_at_the_submission_instant() {
        use hpcci_auth::{AuthError, HighAssurancePolicy};
        use hpcci_sim::SimDuration;
        // Identity authenticated at t=0, the cloud's clock never advanced.
        let mut s = setup(None);
        let EndpointRegistration::Single(e) = s.cloud.endpoint_mut(&s.endpoint).unwrap() else {
            unreachable!("setup registers a single-user endpoint")
        };
        e.config.ha_policy =
            HighAssurancePolicy::permissive().require_session_within(SimDuration::from_hours(1));
        assert_eq!(s.cloud.now(), SimTime::ZERO);
        let fresh = SimTime::from_secs(30 * 60);
        let stale = SimTime::from_secs(2 * 3600);
        assert!(s.cloud.submit_shell(&s.token, &s.endpoint, "tox", fresh).is_ok());
        assert!(matches!(
            s.cloud.submit_shell(&s.token, &s.endpoint, "tox", stale),
            Err(FaasError::Auth(AuthError::PolicyViolation(_)))
        ));
        assert!(matches!(
            s.cloud.submit_shell_batch(&s.token, &s.endpoint, "tox", stale, &[stale]),
            Err(FaasError::Auth(AuthError::PolicyViolation(_)))
        ));
    }

    #[test]
    fn function_registration_and_submission() {
        let mut s = setup(None);
        let f = s
            .cloud
            .register_function(
                &s.token,
                "run-tox",
                FunctionBody::Shell { command: "tox {args}".into() },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(s.cloud.function(f).unwrap().owner, s.owner);
        let task = s
            .cloud
            .submit_function(&s.token, &s.endpoint, f, "-e py312", SimTime::ZERO)
            .unwrap();
        drive(&mut [&mut s.cloud]);
        assert!(s.cloud.task_result(task).unwrap().success());
        assert!(s.cloud.task(task).unwrap().command.contains("-e py312"));
    }

    #[test]
    fn allowlist_blocks_shell_and_foreign_functions() {
        // Endpoint restricted to function id 1 (registered below).
        let mut s = setup(Some(vec![FunctionId(1)]));
        assert!(matches!(
            s.cloud.submit_shell(&s.token, &s.endpoint, "tox", SimTime::ZERO),
            Err(FaasError::ShellNotAllowed)
        ));
        let allowed = s
            .cloud
            .register_function(&s.token, "ok", FunctionBody::Shell { command: "tox".into() }, SimTime::ZERO)
            .unwrap();
        assert_eq!(allowed, FunctionId(1));
        let denied = s
            .cloud
            .register_function(&s.token, "no", FunctionBody::Shell { command: "tox".into() }, SimTime::ZERO)
            .unwrap();
        assert!(s
            .cloud
            .submit_function(&s.token, &s.endpoint, allowed, "", SimTime::ZERO)
            .is_ok());
        assert!(matches!(
            s.cloud.submit_function(&s.token, &s.endpoint, denied, "", SimTime::ZERO),
            Err(FaasError::FunctionNotAllowed(_))
        ));
    }

    #[test]
    fn payload_limit_enforced() {
        let mut s = setup(None);
        let huge = "x".repeat(PAYLOAD_LIMIT + 1);
        assert!(matches!(
            s.cloud.submit_shell(&s.token, &s.endpoint, &huge, SimTime::ZERO),
            Err(FaasError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn unknown_endpoint_and_task() {
        let mut s = setup(None);
        assert!(matches!(
            s.cloud
                .submit_shell(&s.token, &EndpointId("ghost".into()), "tox", SimTime::ZERO),
            Err(FaasError::UnknownEndpoint(_))
        ));
        assert!(matches!(
            s.cloud.task_state(TaskId(999)),
            Err(FaasError::UnknownTask(_))
        ));
    }

    #[test]
    fn wan_latency_delays_delivery_and_return() {
        let mut s = setup(None);
        let task = s
            .cloud
            .submit_shell(&s.token, &s.endpoint, "tox", SimTime::ZERO)
            .unwrap();
        let end = drive(&mut [&mut s.cloud]);
        let out = s.cloud.task_result(task).unwrap();
        // Task observed start >= one-way latency; completion at cloud is
        // after the endpoint-side end.
        assert!(out.started.as_micros() > 0);
        assert!(end > out.ended, "return leg adds latency");
    }
}
