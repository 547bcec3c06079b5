//! The cloud service: the single contact point of the federation.
//!
//! "The cloud service provides a single contact point via which functions
//! can be registered and submitted for execution. … When a task completes,
//! the endpoint returns the result, or exception, to the cloud service for
//! users to later retrieve" (§5.1).

use crate::endpoint::Endpoint;
use crate::error::FaasError;
use crate::exec::{SharedSite, SiteRuntime};
use crate::function::{Function, FunctionBody, FunctionId};
use crate::mep::MultiUserEndpoint;
use crate::task::{Task, TaskId, TaskOutput, TaskState};
use hpcci_auth::{AuthService, HighAssurancePolicy, Identity, Scope};
use hpcci_obs::Obs;
use hpcci_sim::{Advance, EventQueue, FaultInjector, SimDuration, SimTime, Sym, Trace};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
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
    /// The functions this endpoint may run, if restricted (§5.2's
    /// "restricting the functions that can be executed"); a restricted
    /// endpoint runs no ad-hoc shell command.
    fn allowlist(&self) -> Option<&BTreeSet<FunctionId>> {
        match self {
            EndpointRegistration::Single(e) => e.config.restrict_functions.as_ref(),
            EndpointRegistration::Multi(m) => m.restrict_functions.as_ref(),
        }
    }

    /// The identity requirements a submission must meet (§5.2's
    /// high-assurance policy), checked by the cloud at the submission instant.
    fn ha_policy(&self) -> &HighAssurancePolicy {
        match self {
            EndpointRegistration::Single(e) => &e.config.ha_policy,
            EndpointRegistration::Multi(m) => &m.ha_policy,
        }
    }

    fn attach(&mut self, obs: &Obs, injector: &FaultInjector) {
        match self {
            EndpointRegistration::Single(e) => e.attach(obs, injector),
            EndpointRegistration::Multi(m) => m.attach(obs, injector),
        }
    }

    /// When this endpoint at `site` next changes state on its own; `site` is
    /// locked only if the endpoint waits on its scheduler.
    fn next_event(&self, site: &SharedSite) -> Option<SimTime> {
        let scheduler_next = || site.lock().scheduler_mut()?.next_event();
        match self {
            EndpointRegistration::Single(e) => e.next_event(scheduler_next),
            EndpointRegistration::Multi(m) => m.next_event(scheduler_next),
        }
    }

    fn advance_to(&mut self, site: &mut SiteRuntime, t: SimTime) {
        match self {
            EndpointRegistration::Single(e) => e.advance_to(site, t),
            EndpointRegistration::Multi(m) => m.advance_to(site, t),
        }
    }

    fn drain_finished_into(&mut self, out: &mut Vec<(TaskId, TaskOutput)>) {
        match self {
            EndpointRegistration::Single(e) => e.drain_finished_into(out),
            EndpointRegistration::Multi(m) => m.drain_finished_into(out),
        }
    }
}

#[derive(Clone)]
enum InFlight {
    /// A scheduled future submission (see
    /// [`CloudService::submit_shell_batch`]): validated up front, accepted —
    /// task id, `task.submit` trace record, delivery leg — when its arrival
    /// instant is reached, so ids stay dense in arrival order no matter how
    /// far ahead callers schedule.
    ///
    /// Validation resolved the endpoint to its slot and the command to its
    /// line in the command table, and a wave rides the wire as one run of
    /// this event: its arrivals share one `Arc<Identity>`.
    Submit {
        identity: Arc<Identity>,
        slot: usize,
        command: u32,
    },
    Deliver { task: TaskId, identity: Arc<Identity> },
    /// The output rides the wire by value (its body by handle), on its way
    /// to `TaskState::Done`.
    Return { task: TaskId, output: TaskOutput },
}

/// Maximum bytes of a task's args (its command line): a task returns no
/// payload, only stdout, stderr and a verdict. The paper notes Globus Compute
/// payload limits (§7.4); 10 MB matches its order of magnitude.
pub const PAYLOAD_LIMIT: usize = 10 * 1024 * 1024;

/// The FaaS cloud service.
pub struct CloudService {
    auth: Arc<Mutex<AuthService>>,
    functions: BTreeMap<FunctionId, Function>,
    /// Registered endpoints, indexed by slot (registration order). Name
    /// lookups go through `slots`; ordered walks go through `ordered_slots`.
    /// Slot-indexed so the hot loop reaches an endpoint with one bounds check
    /// instead of a string-keyed tree descent.
    endpoints: Vec<EndpointRegistration>,
    /// Every registered endpoint's site, once. The cloud is the one holder
    /// of a site's handle in this crate: it locks a slot's site for a call
    /// and lends it to the endpoint.
    sites: Vec<SharedSite>,
    /// Slot → its index in `sites`.
    slot_sites: Vec<usize>,
    /// Slot → one-way WAN latency between its site and the cloud, read
    /// when the endpoint registers: both wire legs of a task need it, and
    /// neither should lock the site for it.
    slot_latency: Vec<SimDuration>,
    /// All tasks ever accepted, indexed by `TaskId` (ids are assigned
    /// sequentially from 1 and never removed, so `tasks[id - 1]` replaces a
    /// per-wire-event string of tree descents).
    tasks: Vec<Task>,
    /// Every distinct command line a task was accepted with, interned, in
    /// order of first use: a task record holds its line's index.
    commands: Vec<Sym>,
    /// Command line → its index in `commands`.
    command_ids: BTreeMap<Sym, u32>,
    wire: EventQueue<InFlight>,
    pub trace: Trace,
    now: SimTime,
    next_function: u64,
    /// Handed, with `obs`, to every registered endpoint: the one injector
    /// the whole cloud consults.
    injector: FaultInjector,
    /// Endpoint id → slot.
    slots: BTreeMap<EndpointId, usize>,
    /// Slot → interned `faas.ep.{id}` trace component.
    slot_syms: Vec<Sym>,
    /// Slot → interned plain endpoint name (a task record's endpoint, read
    /// through [`Self::task_endpoint`]).
    slot_name_syms: Vec<Sym>,
    /// Slots in endpoint-name order — the order endpoints are advanced and
    /// collected in. Rebuilt on registration.
    ordered_slots: Vec<usize>,
    /// Slot → its next event as last probed. A step re-probes only the
    /// slots marked `stale`; the rest reuse their answer.
    next_scratch: Vec<Option<SimTime>>,
    /// Slot → its probe may be out of date (see [`Self::touch`]).
    stale: Vec<bool>,
    /// Slot → every slot at its site (same `slot_sites` index), itself
    /// included: they share the site's batch scheduler, so moving one can
    /// move the others' next event.
    site_mates: Vec<Vec<usize>>,
    /// Slot → touched (advanced, enqueued-into or lent out) since its
    /// finished outputs were last collected.
    touched: Vec<bool>,
    /// Scratch: due wire events of the current step, reused across steps.
    wire_scratch: Vec<(SimTime, InFlight)>,
    /// Scratch: finished outputs drained from one endpoint, reused across
    /// steps so collection allocates nothing in steady state.
    finished_scratch: Vec<(TaskId, TaskOutput)>,
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
            sites: Vec::new(),
            slot_sites: Vec::new(),
            slot_latency: Vec::new(),
            tasks: Vec::new(),
            commands: Vec::new(),
            command_ids: BTreeMap::new(),
            wire: EventQueue::new(),
            trace: Trace::new(),
            now: SimTime::ZERO,
            next_function: 0,
            injector: FaultInjector::none(),
            slots: BTreeMap::new(),
            slot_syms: Vec::new(),
            slot_name_syms: Vec::new(),
            ordered_slots: Vec::new(),
            next_scratch: Vec::new(),
            stale: Vec::new(),
            site_mates: Vec::new(),
            touched: Vec::new(),
            wire_scratch: Vec::new(),
            finished_scratch: Vec::new(),
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
    /// instant. One pass per instant: a pass's same-instant follow-ups are
    /// the next pass's earliest events.
    pub fn drain_to_quiescence(&mut self) -> SimTime {
        self.stale.fill(true);
        while self.step_once(SimTime::FAR_FUTURE).is_some() {}
        self.now
    }

    /// Attach a fault injector. The cloud consults it for WAN partitions on
    /// both wire legs and hands it to every endpoint, registered already or
    /// later; an empty plan leaves every delivery time untouched.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = injector;
        self.attach_endpoints();
    }

    /// Attach an observability handle, handed to every endpoint like the
    /// injector. Recording is sim-time only and never feeds back into
    /// timing, so traces are unchanged whether the handle is enabled or
    /// disabled.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        self.attach_endpoints();
    }

    fn attach_endpoints(&mut self) {
        for registration in &mut self.endpoints {
            registration.attach(&self.obs, &self.injector);
        }
    }

    /// The cloud's observability handle (disabled unless [`Self::set_obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Harvest hot-loop counters (kept as plain fields while the event loop
    /// runs) into the obs registry.
    pub fn harvest_metrics(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs.set_counter("faas.tasks_submitted", self.tasks_submitted);
        self.obs.set_counter("faas.tasks_completed", self.tasks_completed);
        self.obs.set_counter("sim.events_dispatched", self.events_dispatched);
    }

    /// Earliest instant a message can cross the WAN towards/from `endpoint`:
    /// `now` normally, or the partition's heal time while one is active.
    fn wire_clear_at(&self, endpoint: &str, now: SimTime) -> SimTime {
        self.injector.partition_until(endpoint, now).unwrap_or(now).max(now)
    }

    pub fn auth(&self) -> &Arc<Mutex<AuthService>> {
        &self.auth
    }

    /// Register an endpoint under a name, with the site it runs at. A name
    /// registered again replaces its endpoint and its site.
    pub fn register_endpoint(
        &mut self,
        id: &str,
        site: SharedSite,
        mut registration: EndpointRegistration,
    ) -> EndpointId {
        let eid = EndpointId(id.to_string());
        let latency = site.lock().site.perf.wan_rtt() / 2;
        let site = (self.sites.iter().position(|s| Arc::ptr_eq(s, &site))).unwrap_or_else(|| {
            self.sites.push(site);
            self.sites.len() - 1
        });
        registration.attach(&self.obs, &self.injector);
        let slot = match self.slots.get(&eid) {
            Some(&slot) => slot,
            None => {
                let slot = self.endpoints.len();
                self.slot_syms.push(self.trace.intern(&format!("faas.ep.{id}")));
                self.slot_name_syms.push(self.trace.intern(id));
                self.touched.push(false);
                self.next_scratch.push(None);
                self.stale.push(true);
                self.slots.insert(eid.clone(), slot);
                // Rebuild the name-order walk list (registration is rare;
                // the hot loop only reads it).
                self.ordered_slots = self.slots.values().copied().collect();
                slot
            }
        };
        if slot == self.endpoints.len() {
            self.endpoints.push(registration);
            self.slot_sites.push(site);
            self.slot_latency.push(latency);
        } else {
            self.endpoints[slot] = registration;
            self.slot_sites[slot] = site;
            self.slot_latency[slot] = latency;
        }
        let sites = &self.slot_sites;
        self.site_mates = (sites.iter())
            .map(|&site| (0..sites.len()).filter(|&b| sites[b] == site).collect())
            .collect();
        self.stale.fill(true);
        eid
    }

    pub fn endpoint_mut(&mut self, id: &EndpointId) -> Result<&mut EndpointRegistration, FaasError> {
        let Some(&slot) = self.slots.get(id) else {
            return Err(FaasError::UnknownEndpoint(id.0.clone()));
        };
        // The borrow may change anything about the endpoint.
        self.touch(slot);
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
        let (identity, slot) = self.validate(token, None, endpoint, shell_cmd.len(), now)?;
        let command = self.command_id(shell_cmd);
        Ok(self.accept(&identity, slot, command, now))
    }

    /// Batched arrival injection: validate once, at `now` (auth, endpoint,
    /// payload, ownership), then schedule one submission of `shell_cmd` per
    /// instant in `arrivals` (instants before `now` arrive at `now`).
    /// Acceptance — task id, `task.submit` record, delivery leg — happens
    /// when the event loop reaches each instant, so ids and the trace stay in
    /// arrival order. This is the workload engine's path into the cloud: a
    /// wave of tens of thousands of arrivals costs one validation stack and
    /// one wire entry. Returns the number of submissions scheduled.
    pub fn submit_shell_batch(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        shell_cmd: &str,
        now: SimTime,
        arrivals: &[SimTime],
    ) -> Result<u64, FaasError> {
        let (identity, slot) = self.validate(token, None, endpoint, shell_cmd.len(), now)?;
        let command = self.command_id(shell_cmd);
        self.pending_submits += arrivals.len() as u64;
        self.wire.push_run(
            arrivals.iter().map(|&at| at.max(now)),
            InFlight::Submit {
                identity,
                slot,
                command,
            },
        );
        Ok(arrivals.len() as u64)
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
        let (identity, slot) = self.validate(token, Some(function), endpoint, args.len(), now)?;
        let line = self.function(function)?.command_line(args);
        let command = self.command_id(&line);
        Ok(self.accept(&identity, slot, command, now))
    }

    /// `line`'s index in the command table, interned on first use.
    fn command_id(&mut self, line: &str) -> u32 {
        if let Some(&id) = self.command_ids.get(line) {
            return id;
        }
        let id = self.commands.len() as u32;
        let line = self.trace.intern(line);
        self.commands.push(line.clone());
        self.command_ids.insert(line, id);
        id
    }

    /// The one validation stack of every submission path, in order: token,
    /// function (`None` for a shell command), endpoint, allowlist, payload,
    /// owner.
    fn validate(
        &mut self,
        token: &hpcci_auth::AccessToken,
        function: Option<FunctionId>,
        endpoint: &EndpointId,
        payload: usize,
        now: SimTime,
    ) -> Result<(Arc<Identity>, usize), FaasError> {
        let identity = self.authenticate(token, now)?;
        if let Some(f) = function {
            self.function(f)?;
        }
        let slot = *self
            .slots
            .get(endpoint)
            .ok_or_else(|| FaasError::UnknownEndpoint(endpoint.0.clone()))?;
        let ep = &self.endpoints[slot];
        if let Some(allowed) = ep.allowlist() {
            match function {
                None => return Err(FaasError::ShellNotAllowed),
                Some(f) if !allowed.contains(&f) => return Err(FaasError::FunctionNotAllowed(f)),
                Some(_) => {}
            }
        }
        if payload > PAYLOAD_LIMIT {
            return Err(FaasError::PayloadTooLarge {
                bytes: payload,
                limit: PAYLOAD_LIMIT,
            });
        }
        if let EndpointRegistration::Single(e) = ep {
            if e.config.owner != identity.id {
                return Err(FaasError::NotEndpointOwner);
            }
        }
        // The high-assurance policy of either endpoint kind, evaluated at the
        // submission instant `now`: not at delivery, a WAN leg later, and not
        // at the cloud's own clock, which may lag the submitter.
        ep.ha_policy().check(&identity, now)?;
        Ok((identity, slot))
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

    fn accept(
        &mut self,
        identity: &Arc<Identity>,
        slot: usize,
        command: u32,
        now: SimTime,
    ) -> TaskId {
        self.tasks_submitted += 1;
        let id = TaskId(self.tasks.len() as u64 + 1);
        self.tasks.push(Task {
            submitter: identity.id,
            submitted_at: now,
            slot: slot as u32,
            command,
            state: TaskState::Submitted { at: now },
        });
        let latency = self.slot_latency[slot];
        let endpoint_name = &self.slot_name_syms[slot];
        // `{id} -> {endpoint}: {command}`, hand-built: byte-identical to the
        // `format!` it replaces, without per-field formatter dispatch, in the
        // trace's spare buffer.
        let mut detail = self.trace.detail_buf();
        id.write_label(&mut detail);
        detail.push_str(" -> ");
        detail.push_str(endpoint_name);
        detail.push_str(": ");
        detail.push_str(&self.commands[command as usize]);
        self.trace.record(now, "faas.cloud", "task.submit", detail);
        let clear = self.wire_clear_at(self.slot_name_syms[slot].as_str(), now);
        self.wire.push(
            clear + latency,
            InFlight::Deliver {
                task: id,
                identity: identity.clone(),
            },
        );
        id
    }

    /// The task record for `id`, if it was ever accepted.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        // Ids are dense from 1; `TaskId(0)` wraps to an out-of-range index.
        self.tasks.get((id.0 as usize).wrapping_sub(1))
    }

    /// The name of the endpoint `task` was submitted to.
    pub fn task_endpoint(&self, task: &Task) -> &Sym {
        &self.slot_name_syms[task.slot as usize]
    }

    /// The command line `task` runs.
    pub fn task_command(&self, task: &Task) -> &Sym {
        &self.commands[task.command as usize]
    }

    /// Current state of a task.
    pub fn task_state(&self, id: TaskId) -> Result<&TaskState, FaasError> {
        Ok(&self.task(id).ok_or(FaasError::UnknownTask(id))?.state)
    }

    /// The result of a finished task.
    pub fn task_result(&self, id: TaskId) -> Result<&TaskOutput, FaasError> {
        match self.task_state(id)? {
            TaskState::Done(out) => Ok(out),
            TaskState::Rejected { reason, .. } => Err(reason.as_ref().clone()),
            _ => Err(FaasError::NotFinished(id)),
        }
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
    /// endpoint, through the reused scratch vector and the trace's spare
    /// detail buffer — no per-step allocation.
    fn return_finished(&mut self, slot: usize, now: SimTime) {
        let mut finished = std::mem::take(&mut self.finished_scratch);
        self.endpoints[slot].drain_finished_into(&mut finished);
        if !finished.is_empty() {
            let latency = self.slot_latency[slot];
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

    /// `slot` moved: collect its finished outputs, and re-probe it and every
    /// slot at its site, whose pilots share the scheduler it may have moved.
    /// A slot's next event depends on nothing else the cloud touches.
    fn touch(&mut self, slot: usize) {
        self.touched[slot] = true;
        for &mate in &self.site_mates[slot] {
            self.stale[mate] = true;
        }
    }

    /// Collect finished outputs from endpoints touched since the last
    /// collection. An endpoint's `finished` buffer can only be non-empty if
    /// the cloud advanced it, enqueued into it or lent it out, so skipping
    /// untouched endpoints observes exactly what asking every one would.
    fn collect_touched_returns(&mut self, now: SimTime) {
        for i in 0..self.ordered_slots.len() {
            let slot = self.ordered_slots[i];
            if std::mem::take(&mut self.touched[slot]) {
                self.return_finished(slot, now);
            }
        }
    }

    /// Handle one due wire event.
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
            InFlight::Deliver { task, identity } => {
                // The record holds the slot (registrations are never
                // removed), so delivery needs no name lookup, and the
                // command's line, borrowed from the command table.
                let Task { slot, command, .. } = self.tasks[task.0 as usize - 1];
                let slot = slot as usize;
                let mut detail = self.trace.detail_buf();
                task.write_label(&mut detail);
                self.trace
                    .record(at, &self.slot_syms[slot], "task.deliver", detail);
                let result = {
                    let site = &mut self.sites[self.slot_sites[slot]].lock();
                    let command = &self.commands[command as usize];
                    match &mut self.endpoints[slot] {
                        EndpointRegistration::Single(e) => e.enqueue(site, task, command, at),
                        EndpointRegistration::Multi(m) => m.enqueue(site, task, &identity, command, at),
                    }
                };
                self.touch(slot);
                let record = &mut self.tasks[task.0 as usize - 1];
                let transition = match result {
                    Ok(()) => record.transition(task, TaskState::QueuedAtEndpoint { at }),
                    Err(e) => {
                        let component = self.slot_syms[slot].clone();
                        self.trace
                            .record(at, component, "task.reject", format!("{task}: {e}"));
                        record.transition(task, TaskState::Rejected {
                            at,
                            reason: Box::new(e),
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
                task.write_label(&mut detail);
                detail.push_str(" ran_as=");
                detail.push_str(&output.ran_as);
                detail.push_str(" node=");
                detail.push_str(&output.node);
                detail.push_str(if output.success() { " ok=true" } else { " ok=false" });
                let record = &mut self.tasks[task.0 as usize - 1];
                let submitted_at = record.submitted_at;
                match record.transition(task, TaskState::Done(output)) {
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

    /// The one step of the event loop: know every endpoint's next event,
    /// take the earliest instant at or before `limit` (wire included), advance
    /// the endpoints due there in name order, put their finished outputs on
    /// the return wire, handle the due wire events. `None` when nothing is
    /// pending at or before `limit`.
    ///
    /// A slot is asked again only once [`Self::touch`] or a drive call marked
    /// it stale; the others reuse their answer (debug builds check it).
    ///
    /// Who is due is settled before anyone moves: endpoints at one site share
    /// a batch scheduler, so advancing one can consume the very event that
    /// made the next one due. While a fault is armed every endpoint advances,
    /// so the fault lands on the first event boundary at or after its time;
    /// an unarmed consult is a no-op, so skipping idle endpoints outside that
    /// window commits the same bytes.
    fn step_once(&mut self, limit: SimTime) -> Option<SimTime> {
        for (slot, ep) in self.endpoints.iter().enumerate() {
            let site = &self.sites[self.slot_sites[slot]];
            if std::mem::take(&mut self.stale[slot]) {
                self.next_scratch[slot] = ep.next_event(site);
            } else {
                debug_assert_eq!(
                    self.next_scratch[slot],
                    ep.next_event(site),
                    "reused probe of slot {slot} is stale"
                );
            }
        }
        let step = self
            .next_scratch
            .iter()
            .flatten()
            .copied()
            .chain(self.wire.next_time())
            .min()
            .filter(|&step| step <= limit)?;
        self.now = step;
        let armed = self.injector.armed(step);
        for i in 0..self.ordered_slots.len() {
            let slot = self.ordered_slots[i];
            if armed || self.next_scratch[slot].is_some_and(|at| at <= step) {
                let site = &self.sites[self.slot_sites[slot]];
                self.endpoints[slot].advance_to(&mut site.lock(), step);
                self.touch(slot);
                self.events_dispatched += 1;
            }
        }
        self.collect_touched_returns(step);
        // Handlers never push before `step`. What they push at `step` itself
        // (a zero-latency leg) waits for the next pass, which first advances
        // whatever this pass's deliveries made due.
        let mut wire_scratch = std::mem::take(&mut self.wire_scratch);
        self.wire.drain_due_into(step, &mut wire_scratch);
        self.events_dispatched += wire_scratch.len() as u64;
        for (at, event) in wire_scratch.drain(..) {
            self.handle_wire_event(at, event);
        }
        self.wire_scratch = wire_scratch;
        Some(step)
    }
}

impl Advance for CloudService {
    fn next_event(&self) -> Option<SimTime> {
        (self.endpoints.iter().zip(&self.slot_sites))
            .filter_map(|(ep, &site)| ep.next_event(&self.sites[site]))
            .chain(self.wire.next_time())
            .min()
    }

    /// One pass finds the step instant and its due set; the passes after it
    /// finish same-instant follow-ups (a zero-latency delivery), so a caller
    /// that submits at `now` between steps never interleaves with them.
    fn step_next(&mut self, deadline: SimTime) -> Option<SimTime> {
        self.stale.fill(true);
        let step = self.step_once(deadline)?;
        while self.step_once(step).is_some() {}
        Some(step)
    }

    fn advance_to(&mut self, t: SimTime) {
        self.stale.fill(true);
        while self.step_once(t).is_some() {}
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{EndpointConfig, TaskProvider};
    use crate::exec::{shared, ExecOutcome};
    use crate::mep::MepTemplate;
    use hpcci_auth::{AuthError, ClientSecret, IdentityId, IdentityMapping};
    use hpcci_cluster::Site;
    use hpcci_sim::{drive, DetRng, FaultPlan};

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
        let mut config = EndpointConfig::new("ep-lab", owner, "vhayot");
        if let Some(fns) = restrict {
            config = config.with_allowlist(&fns);
        }
        let site = shared(rt);
        let ep = Endpoint::new(config, &mut site.lock(), TaskProvider::Local, 9).unwrap();
        let mut cloud = CloudService::new(auth);
        let endpoint =
            cloud.register_endpoint("ep-lab", site, EndpointRegistration::Single(Box::new(ep)));
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
        assert_eq!(s.cloud.task_result(task), Err(FaasError::NotFinished(task)));
        drive(&mut s.cloud);
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
            assert!(b.cloud.task_state(TaskId(id)).unwrap().is_terminal());
        }
        assert_eq!(
            a.cloud.trace.rolling_digest(),
            b.cloud.trace.rolling_digest(),
            "scheduled arrivals replay the interactive trace byte-for-byte"
        );

        // Two endpoints' waves, unsorted, colliding on one µs within and
        // across the batches, one of them on a site whose WAN legs take no
        // time: a wave as one batch (one wire run) commits what one
        // single-arrival batch per arrival (one wire push each) commits.
        let us = |v: [u64; 4]| v.map(SimTime::from_micros);
        let lab = us([9_000_001, 2_000_000, 9_000_001, 4_500_000]);
        let zero = us([9_000_001, 1, 9_000_001, 3_000_000]);
        let run = |as_runs: bool| {
            let mut s = setup(None);
            let zero_ep = add_zero_latency_endpoint(&mut s, "ep-zero");
            for (ep, wave) in [(&s.endpoint, &lab), (&zero_ep, &zero)] {
                if as_runs {
                    s.cloud.submit_shell_batch(&s.token, ep, "tox", SimTime::ZERO, wave).unwrap();
                } else {
                    for at in wave {
                        s.cloud.submit_shell_batch(&s.token, ep, "tox", SimTime::ZERO, &[*at]).unwrap();
                    }
                }
            }
            assert_eq!(s.cloud.pending_submits(), 8);
            s.cloud.drain_to_quiescence();
            assert_eq!(s.cloud.pending_submits(), 0);
            (s.cloud.trace.render(), s.cloud.task_count(), s.cloud.now())
        };
        let (trace, tasks, end) = run(true);
        assert_eq!(tasks, 8);
        assert!(
            trace.contains("[t+0.000001s] faas.ep.ep-zero"),
            "the zero-latency leg delivers on the arrival instant:\n{trace}"
        );
        assert_eq!((trace, tasks, end), run(false));
    }

    /// Register `name` (`ep-lab` replaces the setup's endpoint): same owner,
    /// on a workstation whose WAN legs take no time.
    fn add_zero_latency_endpoint(s: &mut Setup, name: &str) -> EndpointId {
        let mut site = Site::workstation("zero");
        site.perf = site.perf.with_wan_latency(hpcci_sim::SimDuration::ZERO);
        let mut rt = SiteRuntime::new(site);
        rt.site.add_account("vhayot", "proj");
        rt.commands.register("tox", |_| ExecOutcome::ok("py312: commands succeeded", 8.0));
        let config = EndpointConfig::new(name, s.owner, "vhayot");
        let site = shared(rt);
        let ep = Endpoint::new(config, &mut site.lock(), TaskProvider::Local, 10).unwrap();
        s.cloud.register_endpoint(name, site, EndpointRegistration::Single(Box::new(ep)))
    }

    /// Register `mep-lab` beside `ep-lab`, at its site: the MEP maps the
    /// setup's owner to `vhayot` and holds `policy`.
    fn add_mep(s: &mut Setup, policy: HighAssurancePolicy) -> EndpointId {
        let site = s.cloud.sites[0].clone();
        let mut mapping = IdentityMapping::new("lab");
        mapping.add_explicit("vhayot@uchicago.edu", "vhayot");
        let template = MepTemplate::login_only();
        let mep = MultiUserEndpoint::new("mep-lab", &mut site.lock(), mapping, template).unwrap();
        let mep = EndpointRegistration::Multi(Box::new(mep.with_ha_policy(policy)));
        s.cloud.register_endpoint("mep-lab", site, mep)
    }

    #[test]
    fn wire_entries_stay_handle_sized() {
        // `InFlight::Return` carries its output's body by handle; a body by
        // value would triple every queue entry the wire moves.
        assert!(std::mem::size_of::<InFlight>() <= 56);
        // A finished task's output lives in its record, its body behind a
        // handle the endpoint's neighbouring outputs may share.
        assert!(std::mem::size_of::<Task>() <= 56);
        assert!(std::mem::size_of::<TaskOutput>() <= 24);
    }

    #[test]
    fn scheduled_submission_validates_up_front() {
        let mut s = setup(Some(vec![FunctionId(1)]));
        // Shell is disallowed on this endpoint: the error surfaces at
        // scheduling time, not when the arrival instant is reached.
        assert!(matches!(
            s.cloud.submit_shell_batch(
                &s.token,
                &s.endpoint,
                "tox",
                SimTime::ZERO,
                &[SimTime::from_secs(5)]
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
        drive(&mut s.cloud);
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
    fn ha_policy_enforced_at_mep() {
        let mut s = setup(None);
        let policy = HighAssurancePolicy::permissive().require_provider("access-ci.org");
        let mep = add_mep(&mut s, policy);
        assert!(matches!(
            s.cloud.submit_shell(&s.token, &mep, "tox", SimTime::ZERO),
            Err(FaasError::Auth(AuthError::PolicyViolation(_)))
        ));
        assert_eq!(s.cloud.task_count(), 0, "a refused submission is no task");
    }

    /// A MEP's session policy judges the submission, not its delivery one WAN
    /// leg (20 ms) later: a session fresh when the task was submitted runs.
    #[test]
    fn a_meps_session_policy_is_checked_at_the_submission_instant() {
        use hpcci_sim::SimDuration;
        let mut s = setup(None);
        let policy = HighAssurancePolicy::permissive().require_session_within(SimDuration::from_hours(1));
        let mep = add_mep(&mut s, policy);
        let (hour, ms) = (SimTime::ZERO + SimDuration::from_hours(1), 1_000);
        let fresh = SimTime::from_micros(hour.as_micros() - ms);
        let task = s.cloud.submit_shell(&s.token, &mep, "tox", fresh).unwrap();
        s.cloud.drain_to_quiescence();
        let delivered = s.cloud.trace.of_kind("task.deliver").next().unwrap().at();
        assert!(delivered > hour, "delivered at {delivered}");
        assert!(s.cloud.task_result(task).unwrap().success());
        let stale = SimTime::from_micros(hour.as_micros() + ms);
        assert!(matches!(
            s.cloud.submit_shell(&s.token, &mep, "tox", stale),
            Err(FaasError::Auth(AuthError::PolicyViolation(_)))
        ));
    }

    #[test]
    fn session_policy_is_checked_at_the_submission_instant() {
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
        drive(&mut s.cloud);
        assert!(s.cloud.task_result(task).unwrap().success());
        let record = s.cloud.task(task).unwrap();
        assert!(s.cloud.task_command(record).contains("-e py312"));
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
        let end = drive(&mut s.cloud);
        let out = s.cloud.task_result(task).unwrap();
        // Task observed start >= one-way latency; completion at cloud is
        // after the endpoint-side end.
        assert!(out.started.as_micros() > 0);
        assert!(end > out.ended, "return leg adds latency");
    }

    #[test]
    fn a_re_registered_slot_takes_its_new_sites_latency() {
        // One task on `name`, registered on the zero-latency site: when it
        // started and ended at the endpoint, and when the cloud saw it end.
        let run = |name| {
            let mut s = setup(None);
            let ep = add_zero_latency_endpoint(&mut s, name);
            let task = s.cloud.submit_shell(&s.token, &ep, "tox", SimTime::ZERO).unwrap();
            let end = drive(&mut s.cloud);
            let out = s.cloud.task_result(task).unwrap();
            (out.started, out.ended, end)
        };
        let (started, ended, end) = run("ep-lab");
        assert_eq!(end, ended, "the return leg takes no time");
        assert_eq!((started, ended, end), run("ep-zero"), "as on a fresh slot");
    }

    // ------------------------------------------------------------------
    // The loop the step loop replaced, kept as its oracle.
    // ------------------------------------------------------------------

    impl CloudService {
        /// Reference loop: at every step advance *every* endpoint in name
        /// order whether or not it has anything due, collect from every
        /// endpoint, pop the wire one event at a time. Under a fault plan
        /// this is what defines the instant each fault lands on; without
        /// one it must commit what the step loop commits.
        fn advance_all_to(&mut self, t: SimTime) {
            while let Some(step) = self.next_event().filter(|&step| step <= t) {
                self.now = step;
                for &slot in &self.ordered_slots {
                    let site = &self.sites[self.slot_sites[slot]];
                    self.endpoints[slot].advance_to(&mut site.lock(), step);
                }
                for i in 0..self.ordered_slots.len() {
                    self.return_finished(self.ordered_slots[i], step);
                }
                while let Some((at, event)) = self.wire.pop_due(step) {
                    self.handle_wire_event(at, event);
                }
            }
            self.now = t;
        }
    }

    /// Endpoints of the chaos federation, in name order. `ep-pilot` and every
    /// UEP pair of `mep-split` queue pilots on the one compute node of site
    /// `tiny`; the other two run on the login node of site `lab`.
    const CHAOS_ENDPOINTS: [&str; 4] = ["ep-local", "ep-pilot", "mep-login", "mep-split"];

    struct Chaos {
        cloud: CloudService,
        /// Client, secret and current token of alice (who owns the
        /// single-user endpoints) and bob.
        users: Vec<(hpcci_auth::ClientId, ClientSecret, hpcci_auth::AccessToken)>,
        injector: FaultInjector,
    }

    /// What a finished run committed.
    #[derive(Debug, PartialEq)]
    struct Committed {
        trace: String,
        chaos: String,
        states: Vec<TaskState>,
        end: SimTime,
    }

    impl Chaos {
        /// `pilots` are the (cores, walltime secs) of `ep-pilot`'s and of
        /// `mep-split`'s pilots; keeping a walltime below the queued work
        /// makes pilots expire under load, so the scheduler's job-end events
        /// re-time sibling endpoints.
        fn new(
            plan: Option<FaultPlan>,
            case: u64,
            work_secs: f64,
            pilots: [(u32, u64); 2],
        ) -> Chaos {
            use crate::mep::MepTemplate;
            use hpcci_auth::IdentityMapping;
            use hpcci_cluster::{NetworkPolicy, NodeRole, PerfModel, SiteKind};
            use hpcci_sim::SimDuration;

            let injector = plan.map_or_else(FaultInjector::none, FaultInjector::new);
            let auth = Arc::new(Mutex::new(AuthService::new()));
            let mut users = Vec::new();
            let mut owner = IdentityId(0);
            {
                let mut a = auth.lock();
                for name in ["alice", "bob"] {
                    let identity =
                        a.register_identity(&format!("{name}@uni.edu"), "uni.edu", SimTime::ZERO);
                    let (cid, secret) = a.create_client(identity.id, name).unwrap();
                    let token = a
                        .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
                        .unwrap();
                    if name == "alice" {
                        owner = identity.id;
                    }
                    users.push((cid, secret, token));
                }
                a.set_fault_injector(injector.clone());
            }

            let mut lab = Site::workstation("lab");
            if case.is_multiple_of(3) {
                // Zero WAN latency: both wire legs land on the instant that
                // pushed them, so steps have same-instant follow-ups.
                lab.perf = lab.perf.with_wan_latency(SimDuration::ZERO);
            }
            let mut tiny = Site::new(
                "tiny",
                SiteKind::Hpc,
                PerfModel::new(1.0).with_wan_latency(SimDuration::from_millis(15)),
                NetworkPolicy::login_only(),
            );
            tiny.add_node(NodeRole::Login, "tiny-login", 8, 32);
            tiny.add_compute_nodes(1, 8, 32);
            let mut sites = Vec::new();
            for site in [lab, tiny] {
                let name = site.id.0.clone();
                let mut rt = SiteRuntime::new(site).with_scheduler(8);
                for account in ["alice", "x-alice", "x-bob"] {
                    rt.site.add_account(account, "proj");
                }
                rt.commands
                    .register("work", move |_| ExecOutcome::ok("done", work_secs));
                rt.commands.register("git", |_| ExecOutcome::ok("cloned", 2.0));
                if let Some(scheduler) = rt.scheduler_mut() {
                    scheduler.set_fault_injector(injector.clone(), &name);
                }
                sites.push(shared(rt));
            }
            let (lab, tiny) = (sites[0].clone(), sites[1].clone());

            let mut cloud = CloudService::new(auth);
            cloud.set_fault_injector(injector.clone());
            let [(cores, walltime_secs), (split_cores, split_walltime)] = pilots;
            let pilot = TaskProvider::Slurm {
                cores,
                walltime_secs,
            };
            for (name, site, provider, seed) in [
                ("ep-local", &lab, TaskProvider::Local, 11),
                ("ep-pilot", &tiny, pilot, 12),
            ] {
                let config = EndpointConfig::new(name, owner, "alice").with_workers(2);
                let ep = Endpoint::new(config, &mut site.lock(), provider, seed).unwrap();
                let ep = EndpointRegistration::Single(Box::new(ep));
                cloud.register_endpoint(name, (*site).clone(), ep);
            }
            for (name, site, template) in [
                ("mep-login", &lab, MepTemplate::login_only()),
                (
                    "mep-split",
                    &tiny,
                    MepTemplate::hpc_split(split_cores, split_walltime),
                ),
            ] {
                let mut mapping = IdentityMapping::new(name);
                mapping.add_explicit("alice@uni.edu", "x-alice");
                mapping.add_explicit("bob@uni.edu", "x-bob");
                let mep = MultiUserEndpoint::new(name, &mut site.lock(), mapping, template).unwrap();
                let mep = EndpointRegistration::Multi(Box::new(mep));
                cloud.register_endpoint(name, (*site).clone(), mep);
            }
            Chaos {
                cloud,
                users,
                injector,
            }
        }

        /// Call the cloud as `user` at its `now`; each token the plan
        /// force-expires is replaced by a fresh one.
        fn submit<T>(
            &mut self,
            user: usize,
            mut call: impl FnMut(
                &mut CloudService,
                &hpcci_auth::AccessToken,
                SimTime,
            ) -> Result<T, FaasError>,
        ) -> T {
            let now = self.cloud.now();
            let (cid, secret, token) = &mut self.users[user];
            loop {
                match call(&mut self.cloud, token, now) {
                    Ok(done) => return done,
                    Err(FaasError::Auth(_)) => {
                        *token = self
                            .cloud
                            .auth()
                            .lock()
                            .authenticate(cid, secret, vec![Scope::compute_api()], now)
                            .unwrap();
                    }
                    Err(e) => panic!("submission failed: {e}"),
                }
            }
        }

        fn committed(self) -> Committed {
            Committed {
                trace: self.cloud.trace.render(),
                chaos: self.injector.trace().render(),
                states: self.cloud.tasks.iter().map(|t| t.state.clone()).collect(),
                end: self.cloud.now(),
            }
        }
    }

    /// The fault plan of one generated case: the first four are the fixed
    /// shapes (the disabled handle, the empty plan, faults that never arm, a
    /// site-named plan whose endpoint faults arm and can never be consumed),
    /// the rest draw one to five faults from all six kinds.
    fn chaos_plan(case: u64, rng: &mut DetRng) -> Option<FaultPlan> {
        use hpcci_sim::{FaultKind, SimDuration};
        let horizon = SimDuration::from_secs(240);
        match case {
            0 => return None,
            1 => return Some(FaultPlan::none()),
            3 => return Some(FaultPlan::randomized(case, horizon, 6, &["lab", "tiny"])),
            _ => {}
        }
        let mut plan = FaultPlan::none();
        for _ in 0..rng.range_u64(1, 6) {
            let endpoint = CHAOS_ENDPOINTS[rng.range_u64(0, 4) as usize].to_string();
            let kind = match rng.range_u64(0, 7) {
                0 => FaultKind::EndpointCrash { endpoint },
                1 => FaultKind::EndpointCrash {
                    endpoint: "mep-split/x-bob/task".into(),
                },
                2 => FaultKind::MepForkFailure {
                    endpoint: "mep-split".into(),
                    user: "any".into(),
                },
                3 => FaultKind::NodeDrain {
                    scheduler: "tiny".into(),
                },
                4 => FaultKind::WanPartition {
                    endpoint,
                    heal_after: SimDuration::from_secs(rng.range_u64(5, 60)),
                },
                5 => FaultKind::TokenExpiry,
                _ => FaultKind::ArtifactCorruption { name: "log".into() },
            };
            let mut at = SimTime::from_micros(rng.range_u64(0, horizon.as_micros()));
            if case == 2 {
                at += SimDuration::from_hours(24 * 365);
            }
            plan = plan.with_fault(at, kind);
        }
        Some(plan)
    }

    /// Drive one generated case: several interactive waves, each drained by
    /// `drain`, then one wave scheduled ahead on the shared-scheduler MEP.
    fn run_chaos(case: u64, drain: fn(&mut CloudService)) -> Committed {
        let mut rng = DetRng::seed_from_u64(0x57e9_100b ^ case).fork("step-vs-reference");
        let plan = chaos_plan(case, &mut rng);
        let work_secs = rng.range_f64(4.0, 20.0);
        let walltime_secs = rng.range_u64(10, 45);
        let mut fed = Chaos::new(plan, case, work_secs, [(8, walltime_secs); 2]);
        for _ in 0..rng.range_u64(2, 5) {
            for _ in 0..rng.range_u64(8, 40) {
                // Half the traffic goes to the MEP whose pairs share a node.
                let endpoint = CHAOS_ENDPOINTS[rng.range_u64(0, 6).min(3) as usize];
                let user = if endpoint.starts_with("mep") {
                    rng.range_u64(0, 2) as usize
                } else {
                    0
                };
                let command = if rng.chance(0.2) { "git clone x" } else { "work" };
                let endpoint = EndpointId(endpoint.to_string());
                fed.submit(user, |cloud, token, now| {
                    cloud.submit_shell(token, &endpoint, command, now)
                });
            }
            drain(&mut fed.cloud);
        }
        let ahead: Vec<u64> = (0..24).map(|_| rng.range_u64(0, 90)).collect();
        let split = EndpointId("mep-split".into());
        fed.submit(rng.range_u64(0, 2) as usize, |cloud, token, now| {
            let ahead: Vec<SimTime> = ahead
                .iter()
                .map(|&secs| now + hpcci_sim::SimDuration::from_secs(secs))
                .collect();
            cloud.submit_shell_batch(token, &split, "work", now, &ahead)
        });
        drain(&mut fed.cloud);
        fed.committed()
    }

    /// The step loop against the loop it replaced, over generated federations
    /// and fault plans: same rendered trace, same chaos log, same state for
    /// every task, same end instant.
    ///
    /// Mutation-checked when written: deciding due-ness lazily inside the
    /// advance loop, arming on `EndpointCrash` faults only, and closing the
    /// armed window at the injection instead of one poll after it, each fail
    /// cases here.
    #[test]
    fn step_loop_commits_what_the_exhaustive_reference_commits() {
        let mut consumed = 0;
        for case in 0..32 {
            let reference = run_chaos(case, |cloud| {
                while let Some(next) = cloud.next_event() {
                    cloud.advance_all_to(next);
                }
            });
            let stepped = run_chaos(case, |cloud| {
                cloud.drain_to_quiescence();
            });
            assert!(
                reference.states.iter().all(TaskState::is_terminal),
                "case {case}: the reference left a task in flight"
            );
            if let Some(line) = reference
                .trace
                .lines()
                .zip(stepped.trace.lines())
                .position(|(a, b)| a != b)
            {
                panic!(
                    "case {case}: traces diverge at line {line}:\n  reference: {}\n  stepped:   {}",
                    reference.trace.lines().nth(line).unwrap(),
                    stepped.trace.lines().nth(line).unwrap()
                );
            }
            assert_eq!(reference, stepped, "case {case}");
            consumed += usize::from(reference.chaos.contains("fault.inject"));
        }
        assert!(consumed >= 8, "only {consumed} cases ever injected a fault");
    }

    /// The reference above advances MEPs through `MultiUserEndpoint::
    /// advance_to`, so it cannot see a MEP that skips pairs. This pins the
    /// case that makes skipping unsound: `ep-pilot`'s pilot holds the one
    /// node, bob's waits behind it; when the first expires, `ep-pilot` (still
    /// holding a queued task, earlier in name order) pumps the scheduler and
    /// thereby starts bob's pilot — after which bob's pair no longer *looks*
    /// due. It must be polled in that same step all the same.
    #[test]
    fn a_pilot_started_by_a_sibling_endpoints_pump_is_seen_in_the_same_step() {
        let (work_secs, walltime_secs) = (20.0, 10);
        let mut fed = Chaos::new(None, 1, work_secs, [(8, walltime_secs); 2]);
        let pilot = EndpointId("ep-pilot".into());
        let split = EndpointId("mep-split".into());
        for _ in 0..3 {
            // Two workers: the third task stays queued past the walltime.
            fed.submit(0, |cloud, token, now| cloud.submit_shell(token, &pilot, "work", now));
        }
        let bobs = fed.submit(1, |cloud, token, now| cloud.submit_shell(token, &split, "work", now));
        fed.cloud.drain_to_quiescence();
        // Delivered (and both pilots requested) one 15 ms WAN leg after t=0.
        let first_pilot_expires =
            SimTime::from_micros(15_000) + hpcci_sim::SimDuration::from_secs(walltime_secs);
        assert_eq!(fed.cloud.task_result(bobs).unwrap().started, first_pilot_expires);
    }

    /// `ep-pilot` holds a long 4-core pilot on `tiny`'s one node with two of
    /// four tasks queued behind its two workers, so its next event is its
    /// first completion or the scheduler's next job end, whichever comes
    /// first. At t = 1 s, between two drive calls, `between` acts on the
    /// federation. The step loop must commit what the exhaustive reference
    /// commits; in debug builds `step_once` also checks every reused probe.
    fn probe_reuse_case(split_walltime: u64, between: fn(&mut Chaos, SimTime)) {
        let run = |advance: fn(&mut CloudService, SimTime)| {
            let mut fed = Chaos::new(None, 1, 18.0, [(4, 3600), (4, split_walltime)]);
            let pilot = EndpointId("ep-pilot".into());
            for _ in 0..4 {
                fed.submit(0, |cloud, token, now| {
                    cloud.submit_shell(token, &pilot, "work", now)
                });
            }
            let at = SimTime::from_secs(1);
            advance(&mut fed.cloud, at);
            between(&mut fed, at);
            advance(&mut fed.cloud, SimTime::FAR_FUTURE);
            fed.committed()
        };
        let stepped = run(<CloudService as Advance>::advance_to);
        assert!(stepped.states.iter().all(TaskState::is_terminal));
        assert_eq!(run(CloudService::advance_all_to), stepped);
    }

    /// `mep-split` starts a short 4-core pilot beside `ep-pilot`'s: its end
    /// comes before `ep-pilot`'s first completion although `ep-pilot` never
    /// moved. Only the site-mate rule of [`CloudService::touch`] re-probes
    /// it; without the rule the debug assertion fails here, and nowhere else.
    #[test]
    fn a_site_mates_pilot_makes_a_reused_probe_stale() {
        probe_reuse_case(10, |fed, _| {
            let split = EndpointId("mep-split".into());
            fed.submit(1, |cloud, token, now| {
                cloud.submit_shell(token, &split, "work", now)
            });
        });
    }

    /// Outside code submits a 2 s job straight to `tiny`'s scheduler through
    /// `SiteRuntime::scheduler`, unseen by the cloud. Every drive call
    /// re-probes every slot on entry; without that the debug assertion
    /// fails here.
    #[test]
    fn a_job_submitted_between_drive_calls_is_seen_by_the_next_one() {
        use hpcci_cluster::Uid;
        use hpcci_scheduler::{JobPayload, JobSpec};
        use hpcci_sim::SimDuration;
        probe_reuse_case(3600, |fed, at| {
            let slot = fed.cloud.slots["ep-pilot"];
            let site = &fed.cloud.sites[fed.cloud.slot_sites[slot]];
            let wall = SimDuration::from_secs(60);
            let job = JobSpec::single_node("outside", Uid(0), "proj", 4, wall);
            let duration = SimDuration::from_secs(2);
            let job = job.with_payload(JobPayload::Fixed {
                duration,
                success: true,
            });
            site.lock().scheduler_mut().unwrap().submit(job, at).unwrap();
        });
    }
}
