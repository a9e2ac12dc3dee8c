//! The mutable world, end to end: a changed [`WorldView`] must answer queries exactly like a
//! fresh bulk load of its live POIs, the invalidation predicates must be *sound* (a safe
//! region that survives a world change still upholds Definition 3 against the **new**
//! world), the engine must force-recompute exactly the affected groups, and a breaking POI
//! delete must reach the affected client as an unsolicited push over the multiplexed TCP
//! front-end while unaffected tenants hear nothing.

use std::collections::HashMap;
use std::f64::consts::FRAC_PI_4;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mpn::core::{Method, Objective, SafeRegion};
use mpn::geom::Point;
use mpn::index::{IndexView, PoiEntry, QueryStats, RTree, WorldView};
use mpn::net::{MuxConfig, MuxServer};
use mpn::proto::{
    AdminRequest, DecodeError, NotificationKind, Request, Response, WireConfig, WireMethod,
    WireObjective,
};
use mpn::sim::{
    EpochUpdate, GroupId, GroupSession, MonitorConfig, MonitoringEngine, ServerCore, SessionEvent,
    WorldChange,
};
use proptest::prelude::*;

fn arb_point(domain: f64) -> impl Strategy<Value = Point> {
    (0.0..domain, 0.0..domain).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_pois(domain: f64) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(arb_point(domain), 10..40)
}

fn arb_users(domain: f64) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(arb_point(domain), 2..5)
}

/// One randomized mutation: `true` inserts at the point, `false` deletes the live POI
/// selected by the unit fraction.
type Op = (bool, Point, f64);

fn arb_ops(domain: f64) -> impl Strategy<Value = Vec<Op>> {
    let coin = (0.0f64..1.0).prop_map(|f| f < 0.5);
    proptest::collection::vec((coin, arb_point(domain), 0.0f64..1.0), 1..8)
}

/// Applies `op` to both the world and the plain id → location mirror model; an applied
/// change must strictly raise the world's generation.
fn apply_op(world: &mut WorldView, model: &mut HashMap<usize, Point>, op: &Op) {
    let &(insert, location, pick) = op;
    let generation = world.generation();
    if insert {
        let id = world.insert(location);
        assert!(model.insert(id, location).is_none(), "insert ids are never reused");
    } else {
        let mut ids: Vec<usize> = model.keys().copied().collect();
        ids.sort_unstable();
        let id = ids[((pick * ids.len() as f64) as usize).min(ids.len() - 1)];
        let removed = world.delete(id).expect("live POIs are deletable");
        assert_eq!(Some(removed), model.remove(&id), "the world forgot where the POI was");
    }
    assert!(world.generation() > generation, "every applied change raises the generation");
}

/// Aggregate distances of every live model POI to `users`, best first.
fn brute_dists(model: &HashMap<usize, Point>, users: &[Point], objective: Objective) -> Vec<f64> {
    let mut dists: Vec<f64> =
        model.values().map(|p| objective.aggregate().point_dist(*p, users)).collect();
    dists.sort_by(f64::total_cmp);
    dists
}

/// Every query kind the engines issue, as each answer's ordered ids and its `QueryStats`:
/// top-k for k ∈ {1, 2, 101} under MAX and SUM, and both candidate walks.
fn answers(view: IndexView<'_>, users: &[Point]) -> Vec<(Vec<usize>, QueryStats)> {
    let mut out = Vec::new();
    for objective in [Objective::Max, Objective::Sum] {
        for k in [1, 2, 101] {
            let (top, stats) = view.top_k(users, objective.aggregate(), k);
            out.push((top.iter().map(|n| n.entry.id).collect(), stats));
        }
    }
    let ids =
        |(found, stats): (Vec<PoiEntry>, QueryStats)| (found.iter().map(|e| e.id).collect(), stats);
    let radii: Vec<f64> = (0..users.len()).map(|i| 400.0 + 50.0 * i as f64).collect();
    out.push(ids(view.candidates_within_user_radii(users, &radii)));
    out.push(ids(view.candidates_within_sum_radius(users, 700.0 * users.len() as f64)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    // A changed world is the tree a fresh bulk load of its live POIs builds: every query the
    // engines issue gives the same ids in the same order with the same `QueryStats`.  A
    // refused change touches nothing, and a deleted highest id is never handed out again.
    #[test]
    fn a_changed_world_answers_like_a_fresh_bulk_load(
        pois in arb_pois(1_000.0),
        ops in arb_ops(1_000.0),
        users in arb_users(1_000.0),
    ) {
        let base = RTree::bulk_load(&pois);
        let mut model: HashMap<usize, Point> =
            base.iter().map(|e| (e.id, e.location)).collect();
        let mut world = WorldView::new(base);
        for op in &ops {
            apply_op(&mut world, &mut model, op);
        }
        prop_assert_eq!(world.len(), model.len());

        let mut live: Vec<PoiEntry> =
            model.iter().map(|(id, location)| PoiEntry::new(*id, *location)).collect();
        live.sort_by_key(|e| e.id);
        let fresh = RTree::bulk_load_entries(live, world.view().config());
        let got = answers(world.view(), &users);
        prop_assert_eq!(&got, &answers(&fresh, &users));
        for objective in [Objective::Max, Objective::Sum] {
            let (top, _) = world.view().top_k(&users, objective.aggregate(), 3);
            for (n, want) in top.iter().zip(brute_dists(&model, &users, objective)) {
                prop_assert!((n.dist - want).abs() <= 1e-9, "top-k diverged from brute force");
            }
            for method in [Method::circle(), Method::tile()] {
                let (changed, _) = method.answer(&world, objective, &users, None);
                let (flat, _) = method.answer(&fresh, objective, &users, None);
                prop_assert_eq!(changed.optimal_point, flat.optimal_point);
                prop_assert!(changed.all_inside(&users));
            }
        }

        // Refused: an id never handed out, and one already deleted.
        let generation = world.generation();
        let highest = *model.keys().max().expect("a live POI");
        prop_assert_eq!(world.delete(highest + 1_000), None);
        prop_assert!(world.delete(highest).is_some());
        let generation_after = world.generation();
        prop_assert!(generation_after > generation);
        let before = answers(world.view(), &users);
        prop_assert_eq!(world.delete(highest), None);
        prop_assert_eq!(world.generation(), generation_after, "a refused change restamps nothing");
        prop_assert_eq!(answers(world.view(), &users), before);
        prop_assert!(world.insert(users[0]) > highest, "a deleted highest id came back");
    }
}

/// Samples a location inside a safe region using two unit parameters.
fn sample_in_region(region: &SafeRegion, u: f64, v: f64) -> Point {
    match region {
        SafeRegion::Circle(c) => {
            let angle = u * std::f64::consts::TAU;
            let radius = c.radius * v.sqrt();
            Point::new(c.center.x + radius * angle.cos(), c.center.y + radius * angle.sin())
        }
        SafeRegion::Tiles(tiles) => {
            let mut rects = tiles.tiles();
            let idx = ((u * rects.len() as f64) as usize).min(rects.len() - 1);
            let rect = rects.nth(idx).expect("a tile of the region");
            let (width, height) = (rect.hi.x - rect.lo.x, rect.hi.y - rect.lo.y);
            Point::new(rect.lo.x + width * v, rect.lo.y + height * (1.0 - u))
        }
    }
}

/// The regions a world change pushed to group `id` (what [`MonitoringEngine::drain_events`]
/// returns after it), in user order, each beside the meeting point it came with.
fn pushed_regions(events: &[(GroupId, SessionEvent)], id: GroupId) -> Vec<(Point, SafeRegion)> {
    events
        .iter()
        .filter_map(|(group, event)| match event {
            SessionEvent::Assigned { meeting_point, region, .. } if *group == id => {
                Some((*meeting_point, region.clone()))
            }
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    // Soundness of the invalidation predicates: when the engine decides a world change does
    // *not* break a group, the group's stale safe regions must still uphold Definition 3
    // against the new world — no location instance drawn from them may beat the stale
    // optimum.  When it does break the group, the recomputation must push every user the
    // region of its fresh answer.  Tile-D-b's regions were verified against a §5.4 buffer
    // that died with their computation, so half the deletes take a POI from the group's best
    // b + 1: only deleting the optimum may break a group.
    #[test]
    fn surviving_regions_uphold_definition_3_against_the_new_world(
        pois in arb_pois(1_000.0),
        users in arb_users(1_000.0),
        insert in (0.0f64..1.0).prop_map(|f| f < 0.5),
        location in arb_point(1_000.0),
        pick in 0.0f64..1.0,
        samples in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 8),
    ) {
        const B: usize = 8;
        let methods = [Method::circle(), Method::tile_directed_buffered(FRAC_PI_4, B)];
        for (method, objective) in methods.into_iter().flat_map(|m| [(m, Objective::Max), (m, Objective::Sum)]) {
            let tree = Arc::new(RTree::bulk_load(&pois));
            let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
            let session =
                GroupSession::streaming(users.len(), MonitorConfig::new(objective, method))
                    .with_events(true);
            let id = engine.register_session(session);
            engine.submit(EpochUpdate { group_id: id, positions: users.clone() }).expect("submit");
            engine.tick();
            drop(engine.drain_events());
            let stale = engine.group(id).session_state().last_answer().expect("answered").clone();

            let change = if insert {
                WorldChange::PoiInsert { location }
            } else if pick < 0.5 {
                // One of the best b + 1, which the registration's §5.4 buffer held.
                let (best, _) = tree.top_k(&users, objective.aggregate(), B + 1);
                WorldChange::PoiDelete { poi: best[((2.0 * pick) * best.len() as f64) as usize].entry.id }
            } else {
                WorldChange::PoiDelete {
                    poi: ((pick * pois.len() as f64) as usize).min(pois.len() - 1),
                }
            };
            let summary = engine.apply_world_change(change);
            prop_assert!(summary.applied);
            prop_assert_eq!(summary.groups_checked, 1);
            let pushed = pushed_regions(&engine.drain_events(), id);

            if summary.invalidated == 0 {
                // The stale regions survived: the stale optimum must still be optimal in
                // the new world for every location instance inside them.
                prop_assert!(summary.affected.is_empty());
                prop_assert!(pushed.is_empty(), "an unaffected group must not recompute");
                prop_assert!(
                    engine.world().view().iter().any(|e| e.id == stale.optimal_index),
                    "a group kept a deleted meeting point"
                );
                let live: Vec<Point> =
                    engine.world().view().iter().map(|e| e.location).collect();
                for &(u, v) in &samples {
                    let instance: Vec<Point> = stale
                        .regions
                        .iter()
                        .map(|region| sample_in_region(region, u, v))
                        .collect();
                    let agg = |p: Point| objective.aggregate().point_dist(p, &instance);
                    let best = live.iter().map(|p| agg(*p)).fold(f64::INFINITY, f64::min);
                    prop_assert!(
                        agg(stale.optimal_point) <= best + 1e-6,
                        "a stale region outlived a change that broke it"
                    );
                }
            } else {
                prop_assert_eq!(summary.invalidated, 1);
                prop_assert_eq!(summary.affected.as_slice(), &[id]);
                let fresh = engine.group(id).session_state().last_answer().expect("recomputed");
                let expected: Vec<(Point, SafeRegion)> =
                    fresh.regions.iter().map(|region| (fresh.optimal_point, region.clone())).collect();
                prop_assert_eq!(pushed, expected, "every user is pushed her fresh region");
                if let WorldChange::PoiDelete { poi } = change {
                    prop_assert!(
                        fresh.optimal_index != poi,
                        "the recomputation still serves the deleted POI"
                    );
                }
            }
        }
    }
}

/// Precision of the fan-out: a targeted delete recomputes exactly the groups it broke, and
/// a delete of a POI that is nobody's meeting point recomputes nothing.
#[test]
fn world_changes_recompute_exactly_the_affected_groups() {
    let pois: Vec<Point> = (0..200)
        .map(|i| {
            let (cx, cy) = if i % 2 == 0 { (100.0, 100.0) } else { (900.0, 900.0) };
            Point::new(cx + (i / 2 % 10) as f64, cy + (i / 20) as f64)
        })
        .collect();
    let tree = Arc::new(RTree::bulk_load(&pois));
    let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
    let config = MonitorConfig::new(Objective::Max, Method::circle());
    let near = engine.register_session(GroupSession::streaming(2, config).with_events(true));
    let far = engine.register_session(GroupSession::streaming(2, config).with_events(true));
    for (id, corner) in [(near, 100.0), (far, 900.0)] {
        let positions = vec![Point::new(corner - 5.0, corner), Point::new(corner + 5.0, corner)];
        engine.submit(EpochUpdate { group_id: id, positions }).expect("submit");
    }
    engine.tick();
    drop(engine.drain_events());
    let near_optimal =
        engine.group(near).session_state().last_answer().expect("answered").optimal_index;

    // Deleting the near group's optimum breaks exactly that group.
    let summary = engine.apply_world_change(WorldChange::PoiDelete { poi: near_optimal });
    assert!(summary.applied);
    assert_eq!(summary.poi, Some(near_optimal));
    assert_eq!(summary.groups_checked, 2);
    assert_eq!(summary.invalidated, 1);
    assert_eq!(summary.affected, vec![near]);
    assert_eq!(summary.generation, engine.world().generation());
    let pushed = engine.drain_events();
    assert_eq!(pushed_regions(&pushed, near).len(), 2, "both near users get a fresh region");
    assert!(
        pushed_regions(&pushed, far).is_empty(),
        "the far group recomputed although the delete could not touch it"
    );

    // A POI inserted where nobody looks is deletable without recomputing anything.
    let summary =
        engine.apply_world_change(WorldChange::PoiInsert { location: Point::new(500.0, 10.0) });
    assert!(summary.applied);
    assert_eq!(summary.invalidated, 0, "a far insert cannot undercut either optimum");
    let orphan = summary.poi.expect("inserted");
    let summary = engine.apply_world_change(WorldChange::PoiDelete { poi: orphan });
    assert!(summary.applied);
    assert_eq!(summary.invalidated, 0, "nobody referenced the orphan POI");

    // Unknown (and double-deleted) POIs are rejected without touching any session.
    let generation = engine.world().generation();
    for poi in [usize::MAX, near_optimal] {
        let summary = engine.apply_world_change(WorldChange::PoiDelete { poi });
        assert!(!summary.applied);
        assert_eq!(summary.groups_checked, 0);
        assert_eq!(engine.world().generation(), generation, "rejected changes leave no trace");
    }
}

/// A blocking lock-step client that reads one count-prefixed batch at a time.
struct LockStep {
    stream: TcpStream,
    raw: Vec<u8>,
    pos: usize,
}

impl LockStep {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        Self { stream, raw: Vec::new(), pos: 0 }
    }

    fn next_batch(&mut self) -> Vec<Response> {
        loop {
            if let Some((batch, consumed)) = parse_batch(&self.raw[self.pos..]) {
                self.pos += consumed;
                return batch;
            }
            let mut scratch = [0u8; 4096];
            let n = self.stream.read(&mut scratch).expect("downlink read");
            assert!(n > 0, "server closed mid-batch");
            self.raw.extend_from_slice(&scratch[..n]);
        }
    }

    fn send(&mut self, request: &Request) {
        self.stream.write_all(&request.encoded()).expect("uplink write");
    }
}

fn parse_batch(bytes: &[u8]) -> Option<(Vec<Response>, usize)> {
    if bytes.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    let mut at = 4;
    let mut batch = Vec::with_capacity(count);
    for _ in 0..count {
        match Response::decode(&bytes[at..]) {
            Ok((response, consumed)) => {
                batch.push(response);
                at += consumed;
            }
            Err(DecodeError::Incomplete) => return None,
            Err(e) => panic!("undecodable downlink: {e}"),
        }
    }
    Some((batch, at))
}

/// The acceptance path of the mutable world: an operator console deletes a POI over TCP and
/// the affected tenant — **idle**, nothing in flight — receives an unsolicited multiplexed
/// push announcing the new world generation followed by its revised safe regions.
#[test]
fn poi_delete_reaches_the_affected_client_as_an_unsolicited_mux_push() {
    // Two POI clusters; the monitored group sits in the near one, so its answer and §5.4
    // buffer can only reference near POIs.
    let pois: Vec<Point> = (0..40)
        .map(|i| {
            let (cx, cy) = if i < 20 { (100.0, 100.0) } else { (900.0, 900.0) };
            Point::new(cx + (i % 5) as f64 * 3.0, cy + (i / 5 % 4) as f64 * 3.0)
        })
        .collect();
    let users = vec![Point::new(95.0, 103.0), Point::new(110.0, 100.0)];
    let tree = Arc::new(RTree::bulk_load(&pois));
    let expected =
        Method::circle().answer(tree.as_ref(), Objective::Max, &users, None).0.optimal_index;

    let core = ServerCore::new(Arc::clone(&tree), 1);
    let mut mux = MuxServer::bind("127.0.0.1:0", core, MuxConfig::default()).expect("bind mux");
    let addr = mux.local_addr().expect("addr");
    // Connections are numbered from 1 in accept order: the operator console connects first,
    // so its grant can be issued before the event loop even starts.
    mux.core_mut().grant_admin(1);
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            mux.run(&stop, Duration::from_millis(1)).expect("event loop");
            mux
        })
    };

    // The console completes a round-trip before the tenant connects, pinning accept order
    // (and proving the grant landed: an ungranted console would read AdminDenied here).
    let mut console = LockStep::connect(addr);
    console.send(&Request::Admin(AdminRequest::PoiDelete { poi: u64::MAX }));
    assert_eq!(
        console.next_batch(),
        vec![Response::Notification { group: u64::MAX, kind: NotificationKind::UnknownPoi }]
    );

    // A POI at a non-finite location is refused at the boundary and never reaches the world
    // (the final length check below would see it).
    for bad in [Point::new(f64::NAN, 5.0), Point::new(5.0, f64::INFINITY)] {
        console.send(&Request::Admin(AdminRequest::PoiInsert { location: bad }));
        assert_eq!(
            console.next_batch(),
            vec![Response::Notification { group: u64::MAX, kind: NotificationKind::BadRequest }]
        );
    }

    let mut tenant = LockStep::connect(addr);
    let config = WireConfig {
        objective: WireObjective::Max,
        method: WireMethod::Circle,
        ..WireConfig::default()
    };
    tenant.send(&Request::Register { group_size: users.len() as u32, config });
    let ack = tenant.next_batch();
    let group = ack
        .iter()
        .find_map(|r| match r {
            Response::Notification { group, kind: NotificationKind::Registered } => Some(*group),
            _ => None,
        })
        .expect("registration ack");
    tenant.send(&Request::Report { group, positions: users.clone() });
    let first = tenant.next_batch();
    assert_eq!(
        first.iter().filter(|r| matches!(r, Response::SafeRegion { .. })).count(),
        users.len(),
        "the first report assigns every member a region"
    );

    // The tenant now goes idle; the console deletes the group's optimal POI.
    console.send(&Request::Admin(AdminRequest::PoiDelete { poi: expected as u64 }));
    assert_eq!(
        console.next_batch(),
        vec![Response::Notification {
            group: expected as u64,
            kind: NotificationKind::AdminApplied
        }]
    );

    // The unsolicited push: the generation announcement first, then the revised regions.
    let push = tenant.next_batch();
    match push.first() {
        Some(&Response::WorldUpdate { group: g, generation, revised }) => {
            assert_eq!(g, group);
            assert_eq!(revised, users.len() as u32);
            assert!(generation > 0, "the push names the generation that broke the answer");
        }
        other => panic!("expected a WorldUpdate heading the push, got {other:?}"),
    }
    assert_eq!(
        push.iter().filter(|r| matches!(r, Response::SafeRegion { .. })).count(),
        users.len(),
        "the push carries the full set of revised regions"
    );

    tenant.send(&Request::Deregister { group });
    let farewell = tenant.next_batch();
    assert!(
        farewell.contains(&Response::Notification { group, kind: NotificationKind::Deregistered })
    );

    stop.store(true, Ordering::Relaxed);
    let mux = server.join().expect("mux server thread");
    assert_eq!(mux.core().engine().world().len(), pois.len() - 1, "the world shrank by one");
    assert_eq!(mux.core().engine().group_count(), 0);
}
