//! The counting pass of `ServerCore`: what `announce` says a tick will send each client is
//! what `process_with` then hands over, to the response.
//!
//! A front-end writes each batch's count before the batch's first frame, so a wrong count
//! corrupts the stream.  Random interleavings of two or three clients exercise every
//! request the core answers differently: registrations (also of sizes it refuses), reports
//! inside and outside their regions, of the wrong size or for groups the sender does not
//! own, deregistrations, admin inserts and deletes (granted and denied), disconnects, and
//! several reports queued before one tick, over every method and objective.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use mpn_geom::Point;
use mpn_index::RTree;
use mpn_mobility::poi::{clustered_pois, PoiConfig};
use mpn_proto::{
    AdminRequest, NotificationKind, Request, Response, WireConfig, WireMethod, WireObjective,
    MAX_REPORT_POSITIONS,
};
use mpn_sim::{ClientId, ServerCore};
use proptest::prelude::*;

/// Every method, each under both objectives, in the order registrations cycle through them.
fn config(n: usize) -> WireConfig {
    let theta = std::f64::consts::FRAC_PI_4;
    let method = [
        WireMethod::Circle,
        WireMethod::Tile,
        WireMethod::TileDirected { theta },
        WireMethod::TileDirectedBuffered { theta, buffer: 8 },
    ][n / 2 % 4];
    let objective = if n.is_multiple_of(2) { WireObjective::Max } else { WireObjective::Sum };
    WireConfig { objective, method, ..WireConfig::default() }
}

/// What the test knows of one live group: its owner and the positions it last reported.
struct Group {
    owner: ClientId,
    last: Vec<Point>,
}

/// The test's side of the conversation: the live groups by wire id and, per client, the sizes
/// of the registrations whose `Registered` has not arrived yet.
#[derive(Default)]
struct Clients {
    groups: BTreeMap<u64, Group>,
    registering: HashMap<ClientId, Vec<usize>>,
    registrations: usize,
    /// The clients that sent a request since the last tick: each is addressed, if only with a
    /// count of 0.
    applied: BTreeSet<ClientId>,
}

impl Clients {
    /// The `pick`-th live group `client` owns (`mine`) or does not own, if any.
    fn group(&self, client: ClientId, mine: bool, pick: usize) -> Option<(u64, Vec<Point>)> {
        let mut groups = self.groups.iter().filter(|(_, g)| (g.owner == client) == mine);
        let n = groups.clone().count();
        groups.nth(pick % n.max(1)).map(|(&id, g)| (id, g.last.clone()))
    }

    /// Runs one tick and checks it against what was announced for it.
    fn tick(&mut self, core: &mut ServerCore) -> Result<(), TestCaseError> {
        let mut announced: BTreeMap<ClientId, usize> = BTreeMap::new();
        core.announce(|client, responses| *announced.entry(client).or_default() += responses);
        let mut sent: BTreeMap<ClientId, usize> = BTreeMap::new();
        core.process_with(|client, response| {
            *sent.entry(client).or_default() += 1;
            if let Response::Notification { group, kind: NotificationKind::Registered } = response {
                let size = self.registering.get_mut(&client).expect("a registration").remove(0);
                let last = (0..size).map(|u| Point::new(300.0 + 40.0 * u as f64, 500.0)).collect();
                self.groups.insert(group, Group { owner: client, last });
            }
        });
        for client in std::mem::take(&mut self.applied) {
            sent.entry(client).or_default();
        }
        prop_assert_eq!(announced, sent);
        Ok(())
    }

    /// Forgets everything a vanished client had.
    fn disconnect(&mut self, core: &mut ServerCore, client: ClientId) {
        core.disconnect(client);
        self.groups.retain(|_, group| group.owner != client);
        self.registering.remove(&client);
        self.applied.remove(&client);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_tick_sends_each_client_what_it_announced(
        clients in 2u64..4,
        ops in proptest::collection::vec((0u32..16, 0u64..3, 0usize..64, -1.0f64..1.0), 40..90),
    ) {
        let pois = clustered_pois(&PoiConfig { count: 300, domain: 1000.0, ..PoiConfig::default() }, 23);
        let mut core = ServerCore::new(Arc::new(RTree::bulk_load(&pois)), 1);
        core.grant_admin(1);
        // Client `k` speaks as `ids[k]`: a disconnected client comes back under a fresh id.
        // Client 0 is the operator console.
        let mut ids: Vec<ClientId> = (1..=clients).collect();
        let mut state = Clients::default();
        for (op, who, pick, jitter) in ops {
            // Half the admin requests come from the operator console, client 0.
            let who = if (10..12).contains(&op) && pick % 2 == 0 { 0 } else { (who % clients) as usize };
            let client = ids[who];
            let own = state.group(client, true, pick);
            let request = match (op, own) {
                (0..=2, _) => {
                    let size = 1 + pick % 3;
                    state.registering.entry(client).or_default().push(size);
                    state.registrations += 1;
                    let config = config(state.registrations);
                    Request::Register { group_size: size as u32, config }
                }
                (3, _) => {
                    let group_size = [0, MAX_REPORT_POSITIONS as u32 + 1][pick % 2];
                    Request::Register { group_size, config: config(pick) }
                }
                // A report inside the regions (the last positions, nudged), or with some
                // users far outside them.
                (4..=7, Some((id, mut positions))) => {
                    let far = if op >= 6 { 300.0 + 200.0 * jitter.abs() } else { 1e-3 * jitter };
                    for (u, p) in positions.iter_mut().enumerate() {
                        if op < 6 || (pick >> u) & 1 == 1 {
                            p.x = (p.x + far).clamp(0.0, 1000.0);
                            p.y = (p.y - far).clamp(0.0, 1000.0);
                        }
                    }
                    state.groups.get_mut(&id).expect("live").last.clone_from(&positions);
                    Request::Report { group: id, positions }
                }
                // The wrong size, another client's group, or no group at all.
                (8, Some((id, positions))) if pick % 2 == 0 => {
                    Request::Report { group: id, positions: positions[1..].to_vec() }
                }
                (4..=8, _) => match state.group(client, false, pick) {
                    Some((id, positions)) => Request::Report { group: id, positions },
                    None => Request::Report { group: 999, positions: vec![Point::ORIGIN] },
                },
                (9, Some((id, _))) if pick % 4 > 0 => {
                    state.groups.remove(&id);
                    Request::Deregister { group: id }
                }
                (9, _) => Request::Deregister { group: pick as u64 + 500 },
                (10, _) => {
                    let location = Point::new(500.0 + 400.0 * jitter, 500.0 - 300.0 * jitter);
                    Request::Admin(AdminRequest::PoiInsert { location })
                }
                (11, _) => {
                    // The meeting point of a monitored group, so the delete breaks its regions.
                    let answered = (state.groups.keys().nth(pick % state.groups.len().max(1)))
                        .and_then(|&id| core.engine().group(id as usize).session_state().last_answer());
                    let poi = answered.map_or(pick, |answer| answer.optimal_index) as u64;
                    Request::Admin(AdminRequest::PoiDelete { poi })
                }
                (12, _) if pick % 4 == 0 => {
                    state.disconnect(&mut core, client);
                    ids[who] = ids.iter().max().expect("clients") + 1;
                    if who == 0 {
                        core.grant_admin(ids[0]);
                    }
                    continue;
                }
                _ => {
                    state.tick(&mut core)?;
                    continue;
                }
            };
            state.applied.insert(client);
            core.enqueue(client, request);
        }
        while core.has_work() {
            state.tick(&mut core)?;
        }
    }
}
