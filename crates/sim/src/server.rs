//! The protocol front-end: an `mpn-proto` request queue drained into engine ticks.
//!
//! [`ServerCore`] is the **transport-agnostic** server.  It owns the [`MonitoringEngine`], a
//! FIFO of `(client, Request)` pairs, and the group-ownership table that makes the server
//! multi-tenant: each registered group belongs to the [`ClientId`] that registered it,
//! downlink events route back to that client, and requests addressed to another client's
//! group are rejected like unknown groups.  One [`process`](ServerCore::process) call applies
//! every queued request in arrival order, runs **one** engine tick, and returns the
//! responses tagged with their destination client.  [`disconnect`](ServerCore::disconnect)
//! tears down everything a vanished client owned — the mid-session-disconnect contract of
//! the network front-end.
//!
//! The core is the in-process API (enqueue decoded values under any client id, `process` on
//! the caller's cadence) and `mpn_net::MuxServer` is its one transport: the responses are
//! produced here and only framed there, which is what keeps the TCP downlink byte-identical
//! to the in-process output for the same request trace (`tests/mux_parity.rs`).
//!
//! Per request:
//!
//! * [`Request::Register`] → a streaming [`GroupSession`] with its
//!   events enabled, under the most recently freed group id (else the next unused one);
//!   answered with a `Registered` notification carrying that id;
//! * [`Request::Report`] → an [`EpochUpdate`] appended to the group's positions (invalid
//!   reports are answered with `UnknownGroup` / `BadRequest` notifications instead of
//!   touching any session);
//! * [`Request::Deregister`] → session teardown, its metrics folded into the fleet totals;
//! * [`Request::Admin`] → a POI-world mutation ([`WorldChange`]) applied through the
//!   engine's generation-stamped overlay, gated on a per-client admin grant
//!   ([`grant_admin`](ServerCore::grant_admin)).  Groups whose safe regions the change
//!   invalidated are force-recomputed and their owners receive an **unsolicited push**:
//!   a [`Response::WorldUpdate`] announcing the new world generation, followed by the
//!   revised `SafeRegion` responses — even if those clients sent nothing this tick.
//!
//! The caller owns the tick cadence: a deployment calls `process` on its epoch clock (the
//! event loop calls it once per poll iteration with work pending), a test calls it after
//! enqueueing whatever it wants applied.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use mpn_geom::Point;
use mpn_index::RTree;
use mpn_proto::{
    AdminRequest, NotificationKind, Request, Response, WireConfig, WireGroupId, WireMethod,
    MAX_REPORT_POSITIONS,
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
#[must_use]
pub fn monitor_config(wire: &WireConfig) -> MonitorConfig {
    let mut config = MonitorConfig::new(wire.objective.into(), wire.method.to_method())
        .with_persistent_buffers(wire.persist_buffers);
    config.compress_regions = wire.compress_regions;
    if let Some(cap) = wire.max_timestamps {
        config = config.with_max_timestamps(cap as usize);
    }
    config
}

/// What one [`ServerCore::process`] call produced.
#[derive(Debug, Default)]
pub struct ProcessOutput {
    /// Every downlink response of this tick, tagged with its destination client, in send
    /// order: control notifications first (one per applied request that warrants one, in
    /// request arrival order), then the tick's per-user protocol sends in ascending group id.
    pub responses: Vec<(ClientId, Response)>,
    /// Clients that had at least one request applied this tick, deduplicated, in first-
    /// arrival order.  A front-end that frames its downlink per tick (the batch envelope of
    /// the TCP transport) answers exactly `applied ∪ {clients with responses}`.
    pub applied: Vec<ClientId>,
    /// The engine tick that ran after the requests were applied.
    pub summary: TickSummary,
}

/// The transport-agnostic monitoring server core: request queue, engine, tick loop and
/// multi-tenant response routing, shared by every front-end.
#[derive(Debug)]
pub struct ServerCore {
    engine: MonitoringEngine,
    queue: VecDeque<(ClientId, Request)>,
    /// Which client registered (and therefore owns) each live group, indexed by [`GroupId`]
    /// (ids are dense and reused, like the engine's directory).  `Some` exactly for the
    /// engine's active groups that were registered through the core.
    owners: Vec<Option<ClientId>>,
    /// Submitted epochs not yet consumed by a tick, over all sessions.  Lets front-ends ask
    /// [`has_work`](ServerCore::has_work) without scanning the fleet: a burst of reports is
    /// applied to the inboxes in one call but drained one epoch per tick.
    backlog: usize,
    /// Clients allowed to mutate the POI world via [`Request::Admin`].  Deployments grant
    /// this out of band ([`grant_admin`](ServerCore::grant_admin)); an ungranted client's
    /// admin request is answered with [`NotificationKind::AdminDenied`] and touches nothing.
    admins: HashSet<ClientId>,
    /// Clients seen by the current [`process`](ServerCore::process) call (kept for its
    /// capacity; empty between calls).
    seen: HashSet<ClientId>,
    last_summary: Option<TickSummary>,
}

impl ServerCore {
    /// Creates a core over the POI tree whose engine ticks on `workers` threads (1 = inline).
    ///
    /// # Panics
    /// Panics when the POI tree is empty.
    #[must_use]
    pub fn new(tree: impl Into<Arc<RTree>>, workers: usize) -> Self {
        Self::with_engine(MonitoringEngine::new(tree, workers))
    }

    /// Creates a core around a pre-configured engine — the hook for a non-default executor
    /// ([`TickExecutor::WorkStealing`](crate::TickExecutor)) and a shared
    /// [`QueryCache`](mpn_index::QueryCache), which have no wire-level knobs.
    #[must_use]
    pub fn with_engine(engine: MonitoringEngine) -> Self {
        Self {
            engine,
            queue: VecDeque::new(),
            owners: Vec::new(),
            backlog: 0,
            admins: HashSet::new(),
            seen: HashSet::new(),
            last_summary: None,
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

    /// Queues one request from `client` for the next [`process`](ServerCore::process) call.
    pub fn enqueue(&mut self, client: ClientId, request: Request) {
        self.queue.push_back((client, request));
    }

    /// Number of requests waiting to be applied.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.queue.len()
    }

    /// Submitted epochs sitting in session inboxes, not yet consumed by a tick.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// Whether a [`process`](ServerCore::process) call would do anything: requests are
    /// queued, or previously applied epochs still wait in session inboxes.  Event loops use
    /// this to skip engine ticks on idle poll iterations.
    #[must_use]
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || self.backlog > 0
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

    /// Whether `client` may mutate the POI world.
    #[must_use]
    pub fn is_admin(&self, client: ClientId) -> bool {
        self.admins.contains(&client)
    }

    /// Applies every queued request in arrival order, runs one engine tick, and
    /// returns the client-tagged responses (control notifications first, then the tick's
    /// per-user protocol sends).
    pub fn process(&mut self) -> ProcessOutput {
        let mut output = ProcessOutput::default();
        while let Some((client, request)) = self.queue.pop_front() {
            // Requests arrive in per-client runs: only a change of client asks the set.
            if output.applied.last() != Some(&client) && self.seen.insert(client) {
                output.applied.push(client);
            }
            self.apply(client, request, &mut output.responses);
        }
        self.seen.clear();
        let summary = self.engine.tick();
        // Every advanced session consumed exactly one inbox epoch: the core only creates
        // streaming (inbox-fed) sessions, so `advanced` is the tick's backlog drain.
        self.backlog = self.backlog.saturating_sub(summary.advanced);
        self.last_summary = Some(summary);
        output.summary = summary;
        let events = self.engine.drain_events();
        output.responses.reserve_exact(events.len());
        for (group, event) in events {
            let Some(client) = self.owner(group) else {
                debug_assert!(false, "event from group {group} without an owner");
                continue;
            };
            output.responses.push((
                client,
                match event {
                    SessionEvent::Probed { user } => Response::ProbeRequest {
                        group: wire_id(group),
                        user: u32::try_from(user).expect("group sizes fit u32"),
                    },
                    SessionEvent::Assigned { user, meeting_point, region } => {
                        Response::SafeRegion {
                            group: wire_id(group),
                            user: u32::try_from(user).expect("group sizes fit u32"),
                            meeting_point,
                            region,
                        }
                    }
                },
            ));
        }
        output
    }

    /// Tears down everything `client` owns after its connection vanished: unapplied queued
    /// requests are dropped and every group it registered is deregistered (like an
    /// explicit [`Request::Deregister`]).  Returns the deregistered group ids.
    ///
    /// This is the disconnect contract of the network front-end: a mid-session disconnect
    /// must not leak live sessions that nobody can ever report to again.
    pub fn disconnect(&mut self, client: ClientId) -> Vec<GroupId> {
        self.queue.retain(|(c, _)| *c != client);
        self.admins.remove(&client);
        let owned: Vec<GroupId> =
            (0..self.owners.len()).filter(|&group| self.owners[group] == Some(client)).collect();
        for &group in &owned {
            self.owners[group] = None;
            self.backlog = self.backlog.saturating_sub(self.engine.group(group).pending_epochs());
            let removed = self.engine.deregister(group);
            debug_assert!(removed.is_some(), "owned groups are live in the engine");
        }
        owned
    }

    fn apply(&mut self, client: ClientId, request: Request, out: &mut Vec<(ClientId, Response)>) {
        match request {
            Request::Register { group_size, config } => {
                let Ok(group_size) = usize::try_from(group_size) else {
                    out.push((client, notification(u64::MAX, NotificationKind::BadRequest)));
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
                    out.push((client, notification(u64::MAX, NotificationKind::BadRequest)));
                    return;
                }
                let session =
                    GroupSession::streaming(group_size, monitor_config(&config)).with_events(true);
                let id = self.engine.register_session(session);
                if id >= self.owners.len() {
                    self.owners.resize(id + 1, None);
                }
                self.owners[id] = Some(client);
                out.push((client, notification(wire_id(id), NotificationKind::Registered)));
            }
            Request::Report { group, positions } => {
                // Ownership gates every group-addressed request: another client's group id
                // behaves exactly like an unregistered one (no existence leak, no
                // cross-tenant steering).
                let Some(group_id) = self.owned_by(group, client) else {
                    out.push((client, notification(group, NotificationKind::UnknownGroup)));
                    return;
                };
                // Non-finite coordinates stop at the boundary: inside the engine a NaN makes
                // every comparison false, so the user would silently drop out of the meeting
                // point (a Definition 3 violation) instead of failing loudly.
                if !positions.iter().all(Point::is_finite) {
                    out.push((client, notification(group, NotificationKind::BadRequest)));
                    return;
                }
                match self.engine.submit(EpochUpdate { group_id, positions }) {
                    Ok(()) => self.backlog += 1,
                    Err(SubmitError::UnknownGroup(_)) => {
                        out.push((client, notification(group, NotificationKind::UnknownGroup)));
                    }
                    Err(SubmitError::WrongGroupSize { .. } | SubmitError::Finished(_)) => {
                        out.push((client, notification(group, NotificationKind::BadRequest)));
                    }
                }
            }
            Request::Deregister { group } => {
                let departed = self.owned_by(group, client).and_then(|id| {
                    self.backlog =
                        self.backlog.saturating_sub(self.engine.group(id).pending_epochs());
                    self.owners[id] = None;
                    self.engine.deregister(id)
                });
                let kind = match departed {
                    Some(_) => NotificationKind::Deregistered,
                    None => NotificationKind::UnknownGroup,
                };
                out.push((client, notification(group, kind)));
            }
            Request::Admin(admin) => self.apply_admin(client, admin, out),
        }
    }

    /// Applies one [`Request::Admin`] world mutation: gate on the admin grant, mutate the
    /// engine's [`WorldView`](mpn_index::WorldView), then queue the unsolicited
    /// [`Response::WorldUpdate`] pushes for every group whose safe regions the change broke.
    ///
    /// Per-client ordering is the push contract of the front-end: the owner of an affected
    /// group sees the `WorldUpdate` (queued here, during request application) *before* the
    /// revised `SafeRegion` responses, which the forced recomputation logged as session
    /// events and [`process`](ServerCore::process) drains only after the tick.
    fn apply_admin(
        &mut self,
        client: ClientId,
        admin: AdminRequest,
        out: &mut Vec<(ClientId, Response)>,
    ) {
        let echo = match admin {
            AdminRequest::PoiDelete { poi } => poi,
            AdminRequest::PoiInsert { .. } => u64::MAX,
        };
        if !self.admins.contains(&client) {
            out.push((client, notification(echo, NotificationKind::AdminDenied)));
            return;
        }
        let change = match admin {
            AdminRequest::PoiInsert { location } if !location.is_finite() => {
                out.push((client, notification(echo, NotificationKind::BadRequest)));
                return;
            }
            AdminRequest::PoiInsert { location } => WorldChange::PoiInsert { location },
            AdminRequest::PoiDelete { poi } => {
                let Ok(poi) = usize::try_from(poi) else {
                    out.push((client, notification(echo, NotificationKind::UnknownPoi)));
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
            out.push((client, notification(echo, kind)));
            return;
        };
        // The ack names the POI the change resolved to (for inserts: the id the new POI
        // was assigned, which the operator needs to ever delete it again).
        out.push((client, notification(poi as u64, NotificationKind::AdminApplied)));
        for &group in &summary.affected {
            let Some(owner) = self.owner(group) else {
                debug_assert!(false, "affected group {group} without an owner");
                continue;
            };
            let revised =
                u32::try_from(self.engine.group(group).group_size()).expect("group sizes fit u32");
            out.push((
                owner,
                Response::WorldUpdate {
                    group: wire_id(group),
                    generation: summary.generation,
                    revised,
                },
            ));
        }
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
        let mut server = ServerCore::new(Arc::clone(&tree), 2);
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
        let metrics = server.engine().group_metrics(0);
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
        let mut server = ServerCore::new(Arc::clone(&tree), 2);

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
        assert_eq!(server.engine().group_metrics(0).updates, 0);
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
            let config = WireConfig { method, persist_buffers: true, ..WireConfig::default() };
            let mut server = ServerCore::new(Arc::clone(&tree), 1);
            server.enqueue(CLIENT, Request::Register { group_size: 3, config });
            let id = registered_id(&process(&mut server));
            server
                .enqueue(CLIENT, Request::Report { group: id, positions: positions_at(&group, 0) });
            process(&mut server);
            let before = server.engine().group_metrics(0).clone();

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
            let after = server.engine().group_metrics(0);
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
            compress_regions: true,
            persist_buffers: false,
            max_timestamps: Some(50),
        };
        let replay = crate::monitor::run_monitoring(&tree, &group, &monitor_config(&wire));

        let mut server = ServerCore::new(Arc::clone(&tree), 4);
        server.enqueue(CLIENT, Request::Register { group_size: group.len() as u32, config: wire });
        let id = registered_id(&process(&mut server));
        for t in 0..50 {
            server
                .enqueue(CLIENT, Request::Report { group: id, positions: positions_at(&group, t) });
            process(&mut server);
        }
        let metrics = server.engine().group_metrics(engine_id(id).unwrap());
        assert_eq!(metrics.updates, replay.updates);
        assert_eq!(metrics.timestamps, replay.timestamps);
        assert_eq!(metrics.traffic, replay.traffic);
        assert_eq!(metrics.stats, replay.stats);
    }

    #[test]
    fn core_routes_responses_to_the_owning_client() {
        let (tree, group) = world();
        let mut core = ServerCore::new(Arc::clone(&tree), 2);
        core.enqueue(
            7,
            Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
        );
        core.enqueue(
            9,
            Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
        );
        let output = core.process();
        assert_eq!(output.applied, vec![7, 9]);
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
        let mut core = ServerCore::new(Arc::clone(&tree), 2);
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
        let mut core = ServerCore::new(Arc::clone(&tree), 2);
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

        // Client 1 vanishes with a report still queued and epochs in its inbox.
        core.enqueue(1, Request::Report { group: 0, positions: positions_at(&group, 0) });
        core.process();
        core.enqueue(1, Request::Report { group: 0, positions: positions_at(&group, 1) });
        core.enqueue(1, Request::Report { group: 0, positions: positions_at(&group, 2) });
        assert_eq!(core.pending_requests(), 2);
        let dropped = core.disconnect(1);
        assert_eq!(dropped, vec![0]);
        assert_eq!(core.pending_requests(), 0, "queued requests of the dead client are dropped");
        assert_eq!(core.backlog(), 0, "inbox epochs of the dead client left the backlog");
        assert_eq!(core.engine().group_count(), 1, "client 2's group survives");
        assert_eq!(core.engine().retired_count(), 1, "client 1's id awaits reuse");
        assert_eq!(core.owner(0), None);
        assert!(core.disconnect(1).is_empty(), "disconnect is idempotent");

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
        let mut core = ServerCore::new(Arc::clone(&tree), 2);
        // Client 1 is the operator console; clients 2 and 3 are ordinary tenants.
        core.grant_admin(1);
        assert!(core.is_admin(1) && !core.is_admin(2));
        for client in [2, 3] {
            core.enqueue(
                client,
                Request::Register { group_size: group.len() as u32, config: WireConfig::default() },
            );
        }
        core.process();
        // The tenants monitor opposite corners of the domain, so their answers and §5.4
        // buffers share no POIs and a targeted delete affects exactly one of them.
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

        // The admin grant dies with the connection.
        core.disconnect(1);
        assert!(!core.is_admin(1));
    }

    #[test]
    fn a_granted_insert_is_acked_with_an_id_the_operator_can_delete() {
        let (tree, group) = world();
        let mut server = ServerCore::new(Arc::clone(&tree), 2);
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
        let mut core = ServerCore::new(Arc::clone(&tree), 2);
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
