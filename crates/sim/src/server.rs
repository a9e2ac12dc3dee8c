//! The protocol front-end: `mpn-proto` requests applied as they arrive, their responses sent
//! with the next engine tick.
//!
//! [`ServerCore`] is the **transport-agnostic** server.  It owns the [`MonitoringEngine`], the
//! control responses applied requests produced and not yet sent, and the group-ownership
//! table that makes the server multi-tenant: each registered group belongs to the
//! [`ClientId`] that registered it, downlink events route back to that client, and requests
//! addressed to another client's group are rejected like unknown groups.
//! [`enqueue`](ServerCore::enqueue) applies one request on the spot — a report's positions
//! are copied into the group's inbox and the decoded request is dropped — so no request is
//! ever stored.  One [`process_with`](ServerCore::process_with) call sends the control
//! responses in request arrival order, runs **one** engine tick, and hands each response,
//! tagged with its destination client, to a callback as it is produced
//! ([`process`](ServerCore::process) collects them); [`announce`](ServerCore::announce), run
//! before it, counts them per client, so a transport sends a batch's count before its frames.
//! [`disconnect`](ServerCore::disconnect)
//! tears down everything a vanished client owned — the mid-session-disconnect contract of
//! the network front-end.
//!
//! The core is the in-process API (enqueue decoded values under any client id, `process` on
//! the caller's cadence) and `mpn_net::MuxServer` is its one transport: the responses are
//! produced here and only framed there, one at a time, which is what keeps the TCP downlink
//! byte-identical to the in-process output for the same request trace (`tests/mux_parity.rs`).
//!
//! Per request:
//!
//! * [`Request::Register`] → a streaming [`GroupSession`] with its
//!   events enabled, under the most recently freed group id (else the next unused one);
//!   answered with a `Registered` notification carrying that id;
//! * [`Request::Report`] → an [`EpochUpdate`] appended to the group's positions (invalid
//!   reports are answered with `UnknownGroup` / `BadRequest` notifications instead of
//!   touching any session);
//! * [`Request::Deregister`] → session teardown (what it measured stays in the fleet totals);
//! * [`Request::Admin`] → a POI-world mutation ([`WorldChange`]) applied through the
//!   engine's generation-stamped world, gated on a per-client admin grant
//!   ([`grant_admin`](ServerCore::grant_admin)).  Groups whose safe regions the change
//!   invalidated are force-recomputed and their owners receive an **unsolicited push**:
//!   a [`Response::WorldUpdate`] announcing the new world generation, followed by the
//!   revised `SafeRegion` responses — even if those clients sent nothing this tick.
//!
//! The caller owns the tick cadence: a deployment calls `process` on its epoch clock (the
//! event loop calls it once per poll iteration with work pending), a test calls it after
//! enqueueing whatever it wants answered.

use std::collections::HashSet;
use std::sync::Arc;

use mpn_geom::Point;
use mpn_index::RTree;
use mpn_proto::{
    codec::BUFFER_FLOOR, AdminRequest, NotificationKind, Request, Response, WireConfig,
    WireGroupId, WireMethod, MAX_REPORT_POSITIONS,
};

use crate::engine::{
    EpochUpdate, GroupId, MonitoringEngine, SubmitError, TickSummary, WorldChange,
};
use crate::monitor::{GroupSession, MonitorConfig, SessionEvent};

/// Identifier of one client connection as the core sees it.
///
/// Front-ends allocate these (monotonically — ids are never reused, unlike poll tokens or
/// group ids, so a recycled connection slot can never inherit a dead client's groups).
pub type ClientId = u64;

/// Resolves a client-chosen [`WireConfig`] to the server-side monitoring configuration
/// (server defaults fill everything the wire does not carry, e.g. the heading smoothing).
/// The wire's buffer-persistence flag is ignored: every buffered computation builds its own
/// §5.4 buffer.
#[must_use]
pub fn monitor_config(wire: &WireConfig) -> MonitorConfig {
    MonitorConfig::new(wire.objective.into(), wire.method.to_method())
}

/// What one [`ServerCore::process`] call produced.
#[derive(Debug, Default)]
pub struct ProcessOutput {
    /// Every downlink response of this tick, tagged with its destination client, in send
    /// order: control notifications first (one per applied request that warrants one, in
    /// request arrival order), then the tick's per-user protocol sends in ascending group id.
    pub responses: Vec<(ClientId, Response)>,
    /// The engine tick that ran after the requests were applied.
    pub summary: TickSummary,
}

/// The transport-agnostic monitoring server core: request application, engine, tick loop
/// and multi-tenant response routing, shared by every front-end.
#[derive(Debug)]
pub struct ServerCore {
    engine: MonitoringEngine,
    /// The control responses of the requests applied since the last tick, in request arrival
    /// order: the next [`process_with`](ServerCore::process_with) sends them first.
    responses: Vec<(ClientId, Response)>,
    /// Clients with a request applied since the last tick, deduplicated, in first-arrival
    /// order: [`announce`](ServerCore::announce) addresses each, if only with a count of 0.
    applied: Vec<ClientId>,
    /// Which client registered (and therefore owns) each live group, indexed by [`GroupId`]
    /// (ids are dense and reused, like the engine's directory).  `Some` exactly for the
    /// engine's active groups that were registered through the core.
    owners: Vec<Option<ClientId>>,
    /// Submitted epochs not yet consumed by a tick, over all sessions.  Lets front-ends ask
    /// [`has_work`](ServerCore::has_work) without scanning the fleet: a burst of reports is
    /// applied to the inboxes as it arrives but drained one epoch per tick.
    backlog: usize,
    /// Clients allowed to mutate the POI world via [`Request::Admin`].  Deployments grant
    /// this out of band ([`grant_admin`](ServerCore::grant_admin)); an ungranted client's
    /// admin request is answered with [`NotificationKind::AdminDenied`] and touches nothing.
    admins: HashSet<ClientId>,
    /// The members of `applied` (kept for its capacity; emptied by every tick).
    seen: HashSet<ClientId>,
    last_summary: Option<TickSummary>,
    /// One shared [`MonitorConfig`] per distinct [`WireConfig`] sessions were registered
    /// with, so sessions alike hold one `Arc` (see `shared_config`).
    configs: Vec<(WireConfig, Arc<MonitorConfig>)>,
}

impl ServerCore {
    /// Creates a core over the POI tree whose engine ticks on the calling thread.
    /// `_workers` is a benchmark-only shim (ROADMAP item 1(b)): ignored, every tick runs
    /// inline.
    ///
    /// # Panics
    /// Panics when the POI tree is empty.
    #[must_use]
    pub fn new(tree: impl Into<Arc<RTree>>, _workers: usize) -> Self {
        Self {
            engine: MonitoringEngine::new(tree, 1),
            responses: Vec::new(),
            applied: Vec::new(),
            owners: Vec::new(),
            backlog: 0,
            admins: HashSet::new(),
            seen: HashSet::new(),
            last_summary: None,
            configs: Vec::new(),
        }
    }

    /// The underlying engine, for telemetry (fleet metrics, per-group state).
    #[must_use]
    pub fn engine(&self) -> &MonitoringEngine {
        &self.engine
    }

    /// The summary of the most recent [`process`](ServerCore::process) tick.
    #[must_use]
    pub fn last_summary(&self) -> Option<TickSummary> {
        self.last_summary
    }

    /// Applies one request from `client` now: the ownership check, then the inbox submit,
    /// registration, deregistration or world change it asks for.  Its control response, if
    /// it warrants one, waits for the next [`process_with`](ServerCore::process_with), which
    /// sends it before the tick; the request itself is dropped here, a report's positions
    /// once the group's inbox holds a copy.
    pub fn enqueue(&mut self, client: ClientId, request: Request) {
        // Requests arrive in per-client runs: only a change of client asks the set.
        if self.applied.last() != Some(&client) && self.seen.insert(client) {
            self.applied.push(client);
        }
        self.apply(client, request);
    }

    /// Control responses of applied requests that the next tick has still to send.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.responses.len()
    }

    /// Submitted epochs sitting in session inboxes, not yet consumed by a tick.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// Whether a [`process`](ServerCore::process) call would do anything: a client had a
    /// request applied or a response waits to be sent since the last tick, or applied epochs
    /// still wait in session inboxes.  Event loops use this to skip engine ticks on idle poll
    /// iterations.
    #[must_use]
    pub fn has_work(&self) -> bool {
        !self.applied.is_empty() || !self.responses.is_empty() || self.backlog > 0
    }

    /// The client owning a live group, if the group was registered through the core.
    #[must_use]
    pub fn owner(&self, group: GroupId) -> Option<ClientId> {
        self.owners.get(group).copied().flatten()
    }

    /// Grants `client` the right to mutate the POI world via [`Request::Admin`].
    ///
    /// There is deliberately no in-band way to acquire this: deployments decide out of band
    /// which connections are operator consoles (e.g. a local management socket) and grant
    /// them here.  The grant dies with the connection
    /// ([`disconnect`](ServerCore::disconnect)) and client ids are never reused, so a
    /// recycled connection slot can never inherit admin rights.
    pub fn grant_admin(&mut self, client: ClientId) {
        self.admins.insert(client);
    }

    /// The counting pass of the next [`process_with`](ServerCore::process_with), changing
    /// nothing: hands `count` each client it addresses and how many responses it sends them,
    /// over calls whose counts add — control responses, then the pushes and advance events of
    /// the groups the client owns, and 0 for a client that had a request applied.
    pub fn announce(&self, mut count: impl FnMut(ClientId, usize)) {
        self.responses.iter().for_each(|&(client, _)| count(client, 1));
        self.applied.iter().for_each(|&client| count(client, 0));
        self.engine.announce(|group, n| {
            if let Some(client) = self.owner(group).filter(|_| n > 0) {
                count(client, n);
            }
        });
    }

    /// [`process_with`](ServerCore::process_with), collecting the responses into
    /// [`ProcessOutput::responses`].
    pub fn process(&mut self) -> ProcessOutput {
        let mut responses = Vec::new();
        let summary = self.process_with(|client, response| responses.push((client, response)));
        ProcessOutput { responses, summary }
    }

    /// The one body of a tick: hands `send` each client-tagged response as it goes out — the
    /// control responses of the requests applied since the last tick (in request arrival
    /// order), then, as one engine tick produces them, its per-user protocol sends
    /// ([`MonitoringEngine::tick_with`], ascending group id).  No list of the tick's
    /// responses is built, and the emptied control list keeps at most [`BUFFER_FLOOR`] bytes
    /// of capacity.  Each client gets the count [`announce`](ServerCore::announce) gave it.
    pub fn process_with(&mut self, mut send: impl FnMut(ClientId, Response)) -> TickSummary {
        for (client, response) in self.responses.drain(..) {
            send(client, response);
        }
        self.responses.shrink_to(BUFFER_FLOOR / size_of::<(ClientId, Response)>());
        self.seen.clear();
        self.applied.clear();
        let owners = &self.owners;
        let summary = self.engine.tick_with(&mut |group, event| {
            let Some(client) = owners.get(group).copied().flatten() else {
                debug_assert!(false, "event from group {group} without an owner");
                return;
            };
            let (group, user) =
                (wire_id(group), |u| u32::try_from(u).expect("group sizes fit u32"));
            let response = match event {
                SessionEvent::Probed { user: u } => Response::ProbeRequest { group, user: user(u) },
                SessionEvent::Assigned { user: u, meeting_point, region } => {
                    Response::SafeRegion { group, user: user(u), meeting_point, region }
                }
            };
            send(client, response);
        });
        // Every advanced session consumed exactly one inbox epoch: the core only creates
        // streaming (inbox-fed) sessions, so `advanced` is the tick's backlog drain.
        self.backlog = self.backlog.saturating_sub(summary.advanced);
        self.last_summary = Some(summary);
        summary
    }

    /// Tears down everything `client` owns after its connection vanished: the responses
    /// waiting for it are dropped and every group it registered is deregistered (like an
    /// explicit [`Request::Deregister`]), its inbox epochs with it.  Returns the deregistered
    /// group ids.  What its requests already did to other clients stays done: an applied
    /// world change keeps its pushes to the owners it affected.
    ///
    /// This is the disconnect contract of the network front-end: a mid-session disconnect
    /// must not leak live sessions that nobody can ever report to again.
    pub fn disconnect(&mut self, client: ClientId) -> Vec<GroupId> {
        self.responses.retain(|(to, _)| *to != client);
        if self.seen.remove(&client) {
            self.applied.retain(|&c| c != client);
        }
        self.admins.remove(&client);
        let owned: Vec<GroupId> =
            (0..self.owners.len()).filter(|&group| self.owners[group] == Some(client)).collect();
        for &group in &owned {
            self.owners[group] = None;
            let removed = self.engine.deregister(group).expect("owned groups are live");
            self.backlog = self.backlog.saturating_sub(removed.pending_epochs());
        }
        owned
    }

    /// The shared server-side configuration for `wire`, found by a linear scan of a table
    /// that forgets configs no live session holds before it adds one.  It keeps at most 16:
    /// a client that registers ever new ones gets unshared configs past that, not a longer
    /// scan.
    fn shared_config(&mut self, wire: WireConfig) -> Arc<MonitorConfig> {
        if let Some((_, config)) = self.configs.iter().find(|(known, _)| *known == wire) {
            return Arc::clone(config);
        }
        self.configs.retain(|(_, config)| Arc::strong_count(config) > 1);
        let config = Arc::new(monitor_config(&wire));
        if self.configs.len() < 16 {
            self.configs.push((wire, Arc::clone(&config)));
        }
        config
    }

    fn apply(&mut self, client: ClientId, request: Request) {
        match request {
            Request::Register { group_size, config } => {
                let Ok(group_size) = usize::try_from(group_size) else {
                    self.reply(client, notification(u64::MAX, NotificationKind::BadRequest));
                    return;
                };
                // A non-finite cone angle would steer every tile ordering of the session.
                let finite_config = match config.method {
                    WireMethod::Circle | WireMethod::Tile => true,
                    WireMethod::TileDirected { theta }
                    | WireMethod::TileDirectedBuffered { theta, .. } => theta.is_finite(),
                };
                // A group no `Report` frame could carry would still make the server allocate
                // per declared user before a single position arrived.
                if group_size == 0 || group_size > MAX_REPORT_POSITIONS || !finite_config {
                    self.reply(client, notification(u64::MAX, NotificationKind::BadRequest));
                    return;
                }
                let config = self.shared_config(config);
                let session = GroupSession::streaming(group_size, config).with_events(true);
                let id = self.engine.register_session(session);
                if id >= self.owners.len() {
                    self.owners.resize(id + 1, None);
                }
                self.owners[id] = Some(client);
                self.reply(client, notification(wire_id(id), NotificationKind::Registered));
            }
            Request::Report { group, positions } => {
                // Ownership gates every group-addressed request: another client's group id
                // behaves exactly like an unregistered one (no existence leak, no
                // cross-tenant steering).
                let Some(group_id) = self.owned_by(group, client) else {
                    self.reply(client, notification(group, NotificationKind::UnknownGroup));
                    return;
                };
                // Non-finite coordinates stop at the boundary: inside the engine a NaN makes
                // every comparison false, so the user would silently drop out of the meeting
                // point (a Definition 3 violation) instead of failing loudly.
                if !positions.iter().all(Point::is_finite) {
                    self.reply(client, notification(group, NotificationKind::BadRequest));
                    return;
                }
                match self.engine.submit(EpochUpdate { group_id, positions }) {
                    Ok(()) => self.backlog += 1,
                    Err(SubmitError::UnknownGroup(_)) => {
                        self.reply(client, notification(group, NotificationKind::UnknownGroup));
                    }
                    Err(SubmitError::WrongGroupSize { .. }) => {
                        self.reply(client, notification(group, NotificationKind::BadRequest));
                    }
                }
            }
            Request::Deregister { group } => {
                let departed = self.owned_by(group, client).and_then(|id| {
                    self.owners[id] = None;
                    self.engine.deregister(id)
                });
                if let Some(session) = &departed {
                    self.backlog = self.backlog.saturating_sub(session.pending_epochs());
                }
                let kind = match departed {
                    Some(_) => NotificationKind::Deregistered,
                    None => NotificationKind::UnknownGroup,
                };
                self.reply(client, notification(group, kind));
            }
            Request::Admin(admin) => self.apply_admin(client, admin),
        }
    }

    /// Applies one [`Request::Admin`] world mutation: gate on the admin grant, mutate the
    /// engine's [`WorldView`](mpn_index::WorldView), then send the unsolicited
    /// [`Response::WorldUpdate`] pushes for every group whose safe regions the change broke.
    ///
    /// Per-client ordering is the push contract of the front-end: the owner of an affected
    /// group sees the `WorldUpdate` (queued here, during request application, and sent with
    /// the control responses) *before* the revised `SafeRegion` responses, which the forced
    /// recomputation logged in the engine and the tick of
    /// [`process_with`](ServerCore::process_with) sends.
    fn apply_admin(&mut self, client: ClientId, admin: AdminRequest) {
        let echo = match admin {
            AdminRequest::PoiDelete { poi } => poi,
            AdminRequest::PoiInsert { .. } => u64::MAX,
        };
        if !self.admins.contains(&client) {
            self.reply(client, notification(echo, NotificationKind::AdminDenied));
            return;
        }
        let change = match admin {
            AdminRequest::PoiInsert { location } if !location.is_finite() => {
                self.reply(client, notification(echo, NotificationKind::BadRequest));
                return;
            }
            AdminRequest::PoiInsert { location } => WorldChange::PoiInsert { location },
            AdminRequest::PoiDelete { poi } => {
                let Ok(poi) = usize::try_from(poi) else {
                    self.reply(client, notification(echo, NotificationKind::UnknownPoi));
                    return;
                };
                WorldChange::PoiDelete { poi }
            }
        };
        let summary = self.engine.apply_world_change(change);
        let Some(poi) = summary.poi.filter(|_| summary.applied) else {
            // A refused delete that names a live POI names the last one.
            let kind = match summary.poi {
                Some(_) => NotificationKind::BadRequest,
                None => NotificationKind::UnknownPoi,
            };
            self.reply(client, notification(echo, kind));
            return;
        };
        // The ack names the POI the change resolved to (for inserts: the id the new POI
        // was assigned, which the operator needs to ever delete it again).
        self.reply(client, notification(poi as u64, NotificationKind::AdminApplied));
        for &group in &summary.affected {
            let Some(owner) = self.owner(group) else {
                debug_assert!(false, "affected group {group} without an owner");
                continue;
            };
            let revised =
                u32::try_from(self.engine.group(group).group_size()).expect("group sizes fit u32");
            self.reply(
                owner,
                Response::WorldUpdate {
                    group: wire_id(group),
                    generation: summary.generation,
                    revised,
                },
            );
        }
    }

    /// Queues `response` to `client`, to go out before the next tick's sends.
    fn reply(&mut self, client: ClientId, response: Response) {
        self.responses.push((client, response));
    }

    /// Resolves a wire group id to an engine id iff the group is live and owned by `client`.
    fn owned_by(&self, group: WireGroupId, client: ClientId) -> Option<GroupId> {
        let id = engine_id(group)?;
        (self.owner(id) == Some(client)).then_some(id)
    }
}

fn notification(group: WireGroupId, kind: NotificationKind) -> Response {
    Response::Notification { group, kind }
}

fn wire_id(id: GroupId) -> WireGroupId {
    id as WireGroupId
}

fn engine_id(id: WireGroupId) -> Option<GroupId> {
    usize::try_from(id).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_mobility::poi::{clustered_pois, PoiConfig};
    use mpn_mobility::waypoint::{random_waypoint, WaypointConfig};
    use mpn_mobility::Trajectory;
    use mpn_proto::WireObjective;

    fn world() -> (Arc<RTree>, Vec<Trajectory>) {
        let pois =
            clustered_pois(&PoiConfig { count: 500, domain: 1000.0, ..PoiConfig::default() }, 19);
        let tree = Arc::new(RTree::bulk_load(&pois));
        let config = WaypointConfig { domain: 1000.0, speed_limit: 6.0, timestamps: 100 };
        let group: Vec<Trajectory> = (0..3).map(|i| random_waypoint(&config, 70 + i)).collect();
        (tree, group)
    }

    /// The client id the single-tenant tests speak as.
    const CLIENT: ClientId = 5;

    /// Runs one tick of a core that only [`CLIENT`] talks to and returns her downlink.
    fn process(core: &mut ServerCore) -> Vec<Response> {
        let responses = core.process().responses;
        assert!(responses.iter().all(|(to, _)| *to == CLIENT), "downlink for a stranger");
        responses.into_iter().map(|(_, response)| response).collect()
    }

    fn positions_at(group: &[Trajectory], t: usize) -> Vec<Point> {
        group.iter().map(|traj| traj.at(t)).collect()
    }

    fn registered_id<'a>(responses: impl IntoIterator<Item = &'a Response>) -> WireGroupId {
        responses
            .into_iter()
            .find_map(|r| match r {
                Response::Notification { group, kind: NotificationKind::Registered } => {
                    Some(*group)
                }
                _ => None,
            })
            .expect("a Registered notification")
    }

    #[test]
    fn register_report_notify_round_trip() {
        let (tree, group) = world();
        let mut server = ServerCore::new(Arc::clone(&tree), 1);
        server.enqueue(
            CLIENT,
            Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
        );
        let responses = process(&mut server);
        let id = registered_id(&responses);
        assert_eq!(responses.len(), 1, "no reports yet: registration ack only");

        // The first report registers the query: every user gets a safe region.
        server.enqueue(CLIENT, Request::Report { group: id, positions: positions_at(&group, 0) });
        let responses = process(&mut server);
        let assigned: Vec<_> =
            responses.iter().filter(|r| matches!(r, Response::SafeRegion { .. })).collect();
        assert_eq!(assigned.len(), group.len());
        assert!(responses.iter().all(|r| !matches!(
            r,
            Response::Notification { kind: NotificationKind::UnknownGroup, .. }
        )));

        // Stream the remaining epochs; every update must re-assign the whole group and
        // probe exactly the non-violators.
        let mut updates = 0;
        for t in 1..60 {
            server
                .enqueue(CLIENT, Request::Report { group: id, positions: positions_at(&group, t) });
            let responses = process(&mut server);
            let probes =
                responses.iter().filter(|r| matches!(r, Response::ProbeRequest { .. })).count();
            let assigned =
                responses.iter().filter(|r| matches!(r, Response::SafeRegion { .. })).count();
            if assigned > 0 {
                updates += 1;
                assert_eq!(assigned, group.len());
                assert!(probes < group.len(), "at least one violator reported on her own");
            } else {
                assert_eq!(probes, 0, "quiet epochs send nothing");
            }
        }
        assert!(updates >= 1, "60 epochs of movement must trigger an update");
        let metrics = server.engine().fleet_metrics();
        assert_eq!(metrics.updates, updates + 1, "wire updates match the engine's accounting");
        assert_eq!(metrics.timestamps, 59);

        server.enqueue(CLIENT, Request::Deregister { group: id });
        let responses = process(&mut server);
        assert!(responses
            .contains(&Response::Notification { group: id, kind: NotificationKind::Deregistered }));
        assert_eq!(server.engine().group_count(), 0);
        assert_eq!(server.engine().retired_count(), 1);
    }

    #[test]
    fn invalid_requests_get_error_notifications_not_crashes() {
        let (tree, group) = world();
        let mut server = ServerCore::new(Arc::clone(&tree), 1);

        server.enqueue(CLIENT, Request::Register { group_size: 0, config: WireConfig::default() });
        server.enqueue(CLIENT, Request::Report { group: 17, positions: positions_at(&group, 0) });
        server.enqueue(CLIENT, Request::Deregister { group: 17 });
        let responses = process(&mut server);
        assert_eq!(
            responses,
            vec![
                notification(u64::MAX, NotificationKind::BadRequest),
                notification(17, NotificationKind::UnknownGroup),
                notification(17, NotificationKind::UnknownGroup),
            ]
        );
        assert_eq!(server.engine().group_count(), 0, "nothing was registered");

        // A wrong-size batch is rejected without touching the session.
        server.enqueue(CLIENT, Request::Register { group_size: 3, config: WireConfig::default() });
        let id = registered_id(&process(&mut server));
        server.enqueue(CLIENT, Request::Report { group: id, positions: vec![Point::ORIGIN] });
        let responses = process(&mut server);
        assert!(responses.contains(&notification(id, NotificationKind::BadRequest)));
        assert_eq!(server.engine().fleet_metrics().updates, 0);
        assert_eq!(server.last_summary().expect("processed").starved, 1);
    }

    /// A declared group size costs memory per user before any position arrives, so sizes no
    /// `Report` frame could ever carry are refused instead of allocated.
    #[test]
    fn oversized_groups_are_rejected_before_anything_is_allocated() {
        let (tree, _) = world();
        let mut server = ServerCore::new(tree, 1);
        let cap = u32::try_from(MAX_REPORT_POSITIONS).expect("fits the wire");
        let register =
            |group_size: u32| Request::Register { group_size, config: WireConfig::default() };
        for group_size in [u32::MAX, cap + 1] {
            server.enqueue(CLIENT, register(group_size));
            assert_eq!(
                process(&mut server),
                vec![notification(u64::MAX, NotificationKind::BadRequest)]
            );
            assert_eq!(server.engine().group_count(), 0, "nothing was registered");
        }
        server.enqueue(CLIENT, register(cap));
        registered_id(&process(&mut server));
        assert_eq!(server.engine().group_count(), 1, "the cap itself is a legal group");
    }

    /// NaN or infinite coordinates never reach the engine: the report earns `BadRequest`,
    /// nothing is enqueued, and the session keeps answering as if it had not arrived.
    #[test]
    fn non_finite_input_is_rejected_at_the_boundary() {
        let (tree, group) = world();
        let theta = std::f64::consts::FRAC_PI_4;
        for method in [WireMethod::Circle, WireMethod::TileDirectedBuffered { theta, buffer: 20 }] {
            let config = WireConfig { method, ..WireConfig::default() };
            let mut server = ServerCore::new(Arc::clone(&tree), 1);
            server.enqueue(CLIENT, Request::Register { group_size: 3, config });
            let id = registered_id(&process(&mut server));
            server
                .enqueue(CLIENT, Request::Report { group: id, positions: positions_at(&group, 0) });
            process(&mut server);
            let before = server.engine().fleet_metrics();

            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut positions = positions_at(&group, 1);
                positions[1].y = bad;
                server.enqueue(CLIENT, Request::Report { group: id, positions });
                assert_eq!(
                    process(&mut server),
                    vec![notification(id, NotificationKind::BadRequest)]
                );
                assert_eq!(server.backlog(), 0, "nothing was enqueued");
            }
            let after = server.engine().fleet_metrics();
            assert_eq!((after.timestamps, after.updates), (before.timestamps, before.updates));

            // The session is untouched: the next well-formed report is served normally and
            // every region it produces is finite.
            server.enqueue(
                CLIENT,
                Request::Report { group: id, positions: positions_at(&group, 50) },
            );
            let responses = process(&mut server);
            assert!(responses.iter().any(|r| matches!(r, Response::SafeRegion { .. })));
            assert!(!format!("{responses:?}").contains("NaN"));
        }

        // A non-finite cone angle is refused at registration.
        let mut server = ServerCore::new(tree, 1);
        let method = WireMethod::TileDirected { theta: f64::NAN };
        server.enqueue(
            CLIENT,
            Request::Register {
                group_size: 3,
                config: WireConfig { method, ..WireConfig::default() },
            },
        );
        assert_eq!(
            process(&mut server),
            vec![notification(u64::MAX, NotificationKind::BadRequest)]
        );
        assert_eq!(server.engine().group_count(), 0, "nothing was registered");
    }

    #[test]
    fn server_sessions_match_the_replay_counters() {
        let (tree, group) = world();
        let wire = WireConfig {
            objective: WireObjective::Max,
            method: WireMethod::Tile,
            ..WireConfig::default()
        };
        let replay = crate::monitor::run_monitoring(
            &tree,
            &crate::monitor::tests::first(&group, 50),
            &monitor_config(&wire),
        );

        let mut server = ServerCore::new(Arc::clone(&tree), 1);
        server.enqueue(CLIENT, Request::Register { group_size: group.len() as u32, config: wire });
        let id = registered_id(&process(&mut server));
        for t in 0..50 {
            server
                .enqueue(CLIENT, Request::Report { group: id, positions: positions_at(&group, t) });
            process(&mut server);
        }
        // The core serves this one group, so its fleet totals are the group's.
        let metrics = server.engine().fleet_metrics();
        assert_eq!(metrics.updates, replay.updates);
        assert_eq!(metrics.timestamps, replay.timestamps);
        assert_eq!(metrics.traffic, replay.traffic);
        assert_eq!(metrics.stats, replay.stats);
    }

    /// The wire's buffer-persistence flag is a benchmark-only shim the server ignores: a fleet
    /// that sets it gets, response for response, the downlink of a fleet that does not.
    #[test]
    fn the_buffer_persistence_flag_changes_no_response() {
        let (tree, group) = world();
        let theta = std::f64::consts::FRAC_PI_4;
        for method in [
            WireMethod::TileDirectedBuffered { theta, buffer: 20 },
            WireMethod::TileDirected { theta },
            WireMethod::Circle,
        ] {
            let downlink = |flag| {
                let config = WireConfig { method, persist_buffers: flag, ..WireConfig::default() };
                let mut server = ServerCore::new(Arc::clone(&tree), 1);
                for _ in 0..4 {
                    server.enqueue(CLIENT, Request::Register { group_size: 3, config });
                }
                let mut responses = process(&mut server);
                for t in 0..60 {
                    for g in 0..4 {
                        let positions = positions_at(&group, t + 8 * g);
                        server.enqueue(CLIENT, Request::Report { group: g as u64, positions });
                    }
                    responses.extend(process(&mut server));
                }
                responses
            };
            let plain = downlink(false);
            let regions = plain.iter().filter(|r| matches!(r, Response::SafeRegion { .. }));
            assert!(regions.count() > 4 * 3, "{method:?}: the fleet must update past its start");
            assert_eq!(downlink(true), plain, "{method:?}");
        }
    }

    #[test]
    fn core_routes_responses_to_the_owning_client() {
        let (tree, group) = world();
        let mut core = ServerCore::new(Arc::clone(&tree), 1);
        core.enqueue(
            7,
            Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
        );
        core.enqueue(
            9,
            Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
        );
        let mut applied = Vec::new();
        core.announce(|client, n| applied.extend((n == 0).then_some(client)));
        assert_eq!(applied, vec![7, 9], "each client with a request applied, in arrival order");
        let output = core.process();
        let ids: Vec<(ClientId, WireGroupId)> = output
            .responses
            .iter()
            .filter_map(|(c, r)| match r {
                Response::Notification { group, kind: NotificationKind::Registered } => {
                    Some((*c, *group))
                }
                _ => None,
            })
            .collect();
        assert_eq!(ids.len(), 2);
        let (id7, id9) = (ids[0].1, ids[1].1);
        assert_eq!(ids[0].0, 7);
        assert_eq!(ids[1].0, 9);
        assert_eq!(core.owner(id7 as usize), Some(7));
        assert_eq!(core.owner(id9 as usize), Some(9));

        // Each client's reports produce downlink addressed to that client only.
        core.enqueue(7, Request::Report { group: id7, positions: positions_at(&group, 0) });
        core.enqueue(9, Request::Report { group: id9, positions: positions_at(&group, 0) });
        let output = core.process();
        assert_eq!(output.summary.registered, 2);
        for (client, response) in &output.responses {
            match response {
                Response::SafeRegion { group, .. } | Response::ProbeRequest { group, .. } => {
                    let expect = if *group == id7 { 7 } else { 9 };
                    assert_eq!(*client, expect, "downlink routes to the owning client");
                }
                Response::Notification { .. } | Response::WorldUpdate { .. } => {}
            }
        }
        let assigned = output
            .responses
            .iter()
            .filter(|(_, r)| matches!(r, Response::SafeRegion { .. }))
            .count();
        assert_eq!(assigned, 2 * group.len(), "both groups got their initial assignment");
    }

    #[test]
    fn cross_client_group_access_is_rejected_like_an_unknown_group() {
        let (tree, group) = world();
        let mut core = ServerCore::new(Arc::clone(&tree), 1);
        core.enqueue(
            1,
            Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
        );
        let id = registered_id(core.process().responses.iter().map(|(_, r)| r));

        // Client 2 cannot report into, or deregister, client 1's group.
        core.enqueue(2, Request::Report { group: id, positions: positions_at(&group, 0) });
        core.enqueue(2, Request::Deregister { group: id });
        let output = core.process();
        let to_2: Vec<_> = output.responses.iter().filter(|(c, _)| *c == 2).collect();
        assert_eq!(to_2.len(), 2);
        assert!(to_2.iter().all(|(_, r)| matches!(
            r,
            Response::Notification { kind: NotificationKind::UnknownGroup, .. }
        )));
        assert_eq!(core.engine().group_count(), 1, "the group survived the hijack attempts");
        assert_eq!(core.owner(id as usize), Some(1));
    }

    #[test]
    fn disconnect_deregisters_owned_groups_and_drops_queued_requests() {
        let (tree, group) = world();
        let mut core = ServerCore::new(Arc::clone(&tree), 1);
        core.enqueue(
            1,
            Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
        );
        core.enqueue(
            2,
            Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
        );
        core.process();
        assert_eq!(core.engine().group_count(), 2);

        // Client 1 vanishes with epochs in its inbox and a response not yet sent; client 2
        // reported in the same round.
        core.enqueue(1, Request::Report { group: 0, positions: positions_at(&group, 0) });
        core.process();
        core.enqueue(1, Request::Report { group: 0, positions: positions_at(&group, 1) });
        core.enqueue(1, Request::Report { group: 0, positions: positions_at(&group, 2) });
        core.enqueue(1, Request::Deregister { group: 1 });
        core.enqueue(2, Request::Report { group: 1, positions: positions_at(&group, 0) });
        assert_eq!(core.backlog(), 3, "reports are applied as they arrive");
        assert_eq!(core.pending_requests(), 1, "client 1's UnknownGroup waits for the tick");
        let dropped = core.disconnect(1);
        assert_eq!(dropped, vec![0]);
        assert_eq!(core.pending_requests(), 0, "responses queued for the dead client are dropped");
        assert_eq!(core.backlog(), 1, "inbox epochs of the dead client left the backlog");
        assert_eq!(core.engine().group_count(), 1, "client 2's group survives");
        assert_eq!(core.engine().retired_count(), 1, "client 1's id awaits reuse");
        assert_eq!(core.owner(0), None);
        assert!(core.disconnect(1).is_empty(), "disconnect is idempotent");

        // The tick answers client 2 alone: its group gets its first regions.
        let mut addressed = Vec::new();
        core.announce(|client, _| addressed.push(client));
        addressed.dedup();
        assert_eq!(addressed, vec![2]);
        let output = core.process();
        assert_eq!(output.summary.advanced, 1);
        assert!(output.responses.iter().all(|(to, _)| *to == 2), "downlink for a dead client");
        let assigned = output
            .responses
            .iter()
            .filter(|(_, r)| matches!(r, Response::SafeRegion { group: 1, .. }))
            .count();
        assert_eq!(assigned, group.len());

        // The freed id is reusable and gets a fresh owner.
        core.enqueue(
            3,
            Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
        );
        let reused = registered_id(core.process().responses.iter().map(|(_, r)| r));
        assert_eq!(reused, 0, "the freed id is reused");
        assert_eq!(core.owner(0), Some(3), "ownership moved to the new registrant");
    }

    #[test]
    fn admin_requests_are_gated_and_push_world_updates_to_affected_owners() {
        let (tree, group) = world();
        let mut core = ServerCore::new(Arc::clone(&tree), 1);
        // Client 1 is the operator console; clients 2 and 3 are ordinary tenants.
        core.grant_admin(1);
        for client in [2, 3] {
            core.enqueue(
                client,
                Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
            );
        }
        core.process();
        // The tenants monitor opposite corners of the domain, so their answers share no POIs
        // and a targeted delete affects exactly one of them.
        let mirrored: Vec<Point> = positions_at(&group, 0)
            .iter()
            .map(|p| Point::new(1000.0 - p.x, 1000.0 - p.y))
            .collect();
        core.enqueue(2, Request::Report { group: 0, positions: positions_at(&group, 0) });
        core.enqueue(3, Request::Report { group: 1, positions: mirrored });
        core.process();

        // An ungranted client is denied without touching the world.
        let generation = core.engine().world().generation();
        core.enqueue(2, Request::Admin(AdminRequest::PoiDelete { poi: 0 }));
        let output = core.process();
        assert!(output.responses.contains(&(2, notification(0, NotificationKind::AdminDenied))));
        assert_eq!(
            core.engine().world().generation(),
            generation,
            "denied requests mutate nothing"
        );

        // Deleting an unknown POI is acknowledged as such, and the world stays put.
        core.enqueue(1, Request::Admin(AdminRequest::PoiDelete { poi: 999_999 }));
        let output = core.process();
        assert!(output
            .responses
            .contains(&(1, notification(999_999, NotificationKind::UnknownPoi))));
        assert_eq!(core.engine().world().generation(), generation);

        // Deleting group 0's optimal POI pushes a WorldUpdate to its owner (client 2),
        // followed by the revised safe regions — while client 3's group stays quiet.
        let broken =
            core.engine().group(0).session_state().last_answer().expect("answered").optimal_index;
        core.enqueue(1, Request::Admin(AdminRequest::PoiDelete { poi: broken as u64 }));
        let output = core.process();
        assert!(output
            .responses
            .contains(&(1, notification(broken as u64, NotificationKind::AdminApplied))));
        let to_2: Vec<&Response> =
            output.responses.iter().filter(|(c, _)| *c == 2).map(|(_, r)| r).collect();
        assert!(
            matches!(
                to_2.first(),
                Some(Response::WorldUpdate { group: 0, revised, .. })
                    if *revised == group.len() as u32
            ),
            "the push announcement precedes the revised regions: {to_2:?}"
        );
        assert_eq!(
            to_2.iter().filter(|r| matches!(r, Response::SafeRegion { .. })).count(),
            group.len(),
            "every member gets a revised region"
        );
        let new_answer = core.engine().group(0).session_state().last_answer().expect("recomputed");
        assert_ne!(new_answer.optimal_index, broken, "the deleted POI is gone from the answer");
        assert!(
            !output.responses.iter().any(|(c, _)| *c == 3),
            "the unaffected tenant hears nothing"
        );

        // A change applied before its sender vanished still reaches the owner it broke, and
        // the admin grant dies with the connection.
        core.enqueue(
            1,
            Request::Admin(AdminRequest::PoiDelete { poi: new_answer.optimal_index as u64 }),
        );
        core.disconnect(1);
        assert!(core.has_work(), "the push to client 2 waits for the tick");
        let responses = core.process().responses;
        assert!(matches!(responses.first(), Some((2, Response::WorldUpdate { group: 0, .. }))));
        assert!(responses.iter().all(|(c, _)| *c == 2), "nothing goes to the vanished client");
        core.enqueue(1, Request::Admin(AdminRequest::PoiDelete { poi: 0 }));
        let denied = core.process().responses;
        assert_eq!(denied, [(1, notification(0, NotificationKind::AdminDenied))], "the grant died");
    }

    #[test]
    fn a_granted_insert_is_acked_with_an_id_the_operator_can_delete() {
        let (tree, group) = world();
        let mut server = ServerCore::new(Arc::clone(&tree), 1);
        server.enqueue(CLIENT, Request::Admin(AdminRequest::PoiInsert { location: Point::ORIGIN }));
        let responses = process(&mut server);
        assert_eq!(responses, vec![notification(u64::MAX, NotificationKind::AdminDenied)]);

        server.grant_admin(CLIENT);
        server.enqueue(CLIENT, Request::Admin(AdminRequest::PoiInsert { location: Point::ORIGIN }));
        let responses = process(&mut server);
        let inserted = responses
            .iter()
            .find_map(|r| match r {
                Response::Notification { group, kind: NotificationKind::AdminApplied } => {
                    Some(*group)
                }
                _ => None,
            })
            .expect("an AdminApplied ack naming the new POI");
        assert_eq!(server.engine().world().len(), tree.len() + 1);

        // The id in the ack is usable: the operator can delete the POI it just created.
        server.enqueue(CLIENT, Request::Admin(AdminRequest::PoiDelete { poi: inserted }));
        let responses = process(&mut server);
        assert!(responses.contains(&notification(inserted, NotificationKind::AdminApplied)));
        assert_eq!(server.engine().world().len(), tree.len());
        let _ = group;
    }

    #[test]
    fn backlog_tracks_unconsumed_epochs() {
        let (tree, group) = world();
        let mut core = ServerCore::new(Arc::clone(&tree), 1);
        core.enqueue(
            1,
            Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
        );
        core.process();
        assert!(!core.has_work());

        // A burst of three reports is applied in one call but consumed one epoch per tick.
        for t in 0..3 {
            core.enqueue(1, Request::Report { group: 0, positions: positions_at(&group, t) });
        }
        assert!(core.has_work());
        let output = core.process();
        assert_eq!(output.summary.advanced, 1);
        assert_eq!(core.backlog(), 2, "two epochs still queued in the inbox");
        assert!(core.has_work(), "inbox epochs keep the core busy without new requests");
        core.process();
        core.process();
        assert_eq!(core.backlog(), 0);
        assert!(!core.has_work());
    }
}
