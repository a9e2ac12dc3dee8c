//! Tile-based safe regions: the Tile-MSR algorithm (Section 5.2, Algorithm 3) together with
//! the divide-and-conquer verification (Algorithm 2), index pruning (Theorem 3 / Theorem 6)
//! and the buffering optimisation (Section 5.4, Algorithm 5).

use std::cell::Cell;
use std::collections::HashMap;

use mpn_geom::{DistanceBounds, Point};
use mpn_index::{GnnNeighbor, IndexView, PoiEntry};

use crate::buffer::BufferSet;
use crate::circle::{circle_msr, DEFAULT_RADIUS_CAP};
use crate::ordering::{TileOrdering, TileStream};
use crate::region::{TileCell, TileFrame, TileRegion};
use crate::tile_verify::TileVerifier;
use crate::{ComputeStats, Objective};

/// Configuration of Tile-MSR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileMsrConfig {
    /// Tile limit `α`: the maximum number of round-robin passes over the users (Algorithm 3).
    pub alpha: usize,
    /// Split level `L`: how many quad subdivisions Divide-Verify may apply (Algorithm 2).
    pub split_level: u32,
    /// Tile ordering policy (undirected or directed, Section 5.2).
    pub ordering: TileOrdering,
    /// Whether to prune candidate points with the R-tree (Theorem 3 / Theorem 6).
    /// When disabled every POI except `pᵒ` is verified — the unoptimised baseline.
    pub index_pruning: bool,
    /// Buffering parameter `b` of Section 5.4 (`None` disables buffering).
    pub buffering: Option<usize>,
    /// Upper bound on the circular radius used to seed the tile size (see Circle-MSR).
    pub radius_cap: f64,
}

impl Default for TileMsrConfig {
    fn default() -> Self {
        // Defaults follow Table 2 and the accompanying text: α = 30, L = 2, b = 100 when
        // buffering is enabled.
        Self {
            alpha: 30,
            split_level: 2,
            ordering: TileOrdering::Undirected,
            index_pruning: true,
            buffering: None,
            radius_cap: DEFAULT_RADIUS_CAP,
        }
    }
}

impl TileMsrConfig {
    /// The paper's `Tile` configuration: undirected ordering, index pruning.
    #[must_use]
    pub fn tile() -> Self {
        Self::default()
    }

    /// Legend name of this configuration (`Tile`, `Tile-b`, `Tile-D`, `Tile-D-b`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match (self.ordering, self.buffering) {
            (TileOrdering::Undirected, None) => "Tile",
            (TileOrdering::Undirected, Some(_)) => "Tile-b",
            (TileOrdering::Directed { .. }, None) => "Tile-D",
            (TileOrdering::Directed { .. }, Some(_)) => "Tile-D-b",
        }
    }

    /// The paper's `Tile-D` configuration: directed ordering with deviation `theta`.
    #[must_use]
    pub fn tile_directed(theta: f64) -> Self {
        Self { ordering: TileOrdering::Directed { theta }, ..Self::default() }
    }

    /// The paper's `Tile-D-b` configuration: directed ordering plus buffering with parameter `b`.
    #[must_use]
    pub fn tile_directed_buffered(theta: f64, b: usize) -> Self {
        Self { ordering: TileOrdering::Directed { theta }, buffering: Some(b), ..Self::default() }
    }
}

/// A §5.4 GNN buffer together with the user locations it was built at.
///
/// The threshold ladder of a [`BufferSet`] bounds how far each user may stray *from the
/// locations at build time*; anchoring the reuse check (and the per-tile distance of
/// Algorithm 5, line 1) to those locations keeps Theorem 4/7 sound when the buffer outlives
/// the computation that built it.  A stateful session
/// ([`SessionState`](crate::session::SessionState)) keeps one cache per group so that
/// subsequent updates skip the buffer-building GNN query entirely.
#[derive(Debug, Clone)]
pub struct BufferCache {
    pub(crate) set: BufferSet,
    pub(crate) anchors: Vec<Point>,
    /// The objective the threshold ladder was derived under (the SUM denominator is `2m`,
    /// the MAX one `2`, so a ladder is only valid for its own objective).
    objective: Objective,
    /// The buffering parameter `b` the set was built with.
    b: usize,
    /// [`IndexView::generation`] of the view the buffer was queried from: a process-unique
    /// stamp refreshed on every construction and mutation (for a mutable world, its
    /// *logical* generation — preserved across compaction), so a different or modified POI
    /// set is detected exactly, never probabilistically.
    tree_generation: u64,
}

impl BufferCache {
    /// Whether this buffer may serve a computation for the given current state.
    ///
    /// Reuse is allowed only when the cache was built from the same POI content (by logical
    /// generation), objective and buffer size, the group shape is unchanged, the optimal
    /// meeting point is still the one the ladder was derived from, and no user has strayed
    /// beyond half the largest threshold from her anchor location (a heuristic that rebuilds
    /// before the ladder degenerates into rejecting every tile).
    fn reusable_for(
        &self,
        generation: u64,
        users: &[Point],
        objective: Objective,
        b: usize,
        optimal_id: usize,
    ) -> bool {
        self.tree_generation == generation
            && self.objective == objective
            && self.b == b
            && self.anchors.len() == users.len()
            && self.set.optimal().id == optimal_id
            && users
                .iter()
                .zip(&self.anchors)
                .all(|(u, anchor)| u.dist(*anchor) <= 0.5 * self.set.beta())
    }

    /// Whether the buffered prefix contains the given POI (as the optimum or a candidate).
    ///
    /// Deleting a buffered POI can break the threshold ladder (Definition 6 ranks real
    /// neighbours), so the world-change invalidation pass treats any referenced deletion as
    /// breaking the session's cached state.
    pub(crate) fn references(&self, poi: usize) -> bool {
        self.set.optimal().id == poi || self.set.all_candidates().iter().any(|e| e.id == poi)
    }
}

/// Output of Tile-MSR.
#[derive(Debug, Clone)]
pub struct TileMsr {
    /// The optimal meeting point `pᵒ`.
    pub optimal: GnnNeighbor,
    /// The runner-up meeting point (drives the seed tile size), when it exists.
    pub runner_up: Option<GnnNeighbor>,
    /// Seed radius from Circle-MSR (`r_max`); the base tile side is `√2 · r_max`.
    pub radius: f64,
    /// One tile region per user.
    pub regions: Vec<TileRegion>,
    /// Work counters accumulated while computing the regions.
    pub stats: ComputeStats,
    /// Whether this computation built a fresh §5.4 GNN buffer (always `false` without
    /// buffering; `true` on every call when no cache is reused).
    pub built_buffer: bool,
}

/// Runs Tile-MSR (Algorithm 3) for the given group.
///
/// `headings[i]`, when provided, is user `i`'s predicted travel direction used by the directed
/// ordering; pass `None` (or `Some(None)` per user) when headings are unknown.
///
/// # Panics
/// Panics when the tree or the user group is empty.
#[must_use]
pub fn tile_msr<'a>(
    tree: impl Into<IndexView<'a>>,
    users: &[Point],
    objective: Objective,
    config: &TileMsrConfig,
    headings: Option<&[Option<f64>]>,
) -> TileMsr {
    tile_msr_cached(tree, users, objective, config, headings, &mut None)
}

/// Runs Tile-MSR with an optional persistent buffer cache.
///
/// When `config.buffering` is enabled and `cache` holds a [`BufferCache`] that is still valid
/// for the current locations and optimum, the buffered GNN query of Section 5.4 is skipped and
/// the cached prefix is verified against instead (its thresholds stay anchored to the
/// build-time locations, so Theorem 4/7 still hold).  An invalid or absent cache is rebuilt in
/// place.  Passing `&mut None` (what [`tile_msr`] does) builds a fresh buffer and discards it,
/// which is bit-identical to the historical stateless behaviour.
///
/// # Panics
/// Panics when the tree or the user group is empty.
#[must_use]
pub fn tile_msr_cached<'a>(
    tree: impl Into<IndexView<'a>>,
    users: &[Point],
    objective: Objective,
    config: &TileMsrConfig,
    headings: Option<&[Option<f64>]>,
    cache: &mut Option<Box<BufferCache>>,
) -> TileMsr {
    let view = tree.into();
    assert!(!view.is_empty(), "Tile-MSR requires a non-empty POI set");
    assert!(!users.is_empty(), "Tile-MSR requires at least one user");
    if let Some(h) = headings {
        assert_eq!(h.len(), users.len(), "one heading slot per user");
    }

    let mut stats = ComputeStats::default();

    // Lines 1-2: seed with Circle-MSR; the initial tile is the maximal square inside the circle.
    let seed = circle_msr(view, users, objective, config.radius_cap);
    stats.gnn.absorb(seed.stats);
    stats.rtree_queries += 1;
    let delta = std::f64::consts::SQRT_2 * seed.radius;

    // Lines 3-4: one seed tile per user.
    let regions: Vec<TileRegion> =
        users.iter().map(|u| TileRegion::with_seed(TileFrame::centered_at(*u, delta))).collect();

    // Degenerate seed (the two best meeting points are equidistant): the safe regions collapse
    // to the users' current locations and no browsing can grow them.
    if delta <= f64::EPSILON {
        return TileMsr {
            optimal: seed.optimal,
            runner_up: seed.runner_up,
            radius: seed.radius,
            regions,
            stats,
            built_buffer: false,
        };
    }

    let p_opt = seed.optimal.entry;

    // Optional buffering: one extra GNN query replaces all later candidate retrievals.  A
    // still-valid persistent cache skips even that query.
    let mut built_buffer = false;
    let buffer: Option<&BufferCache> = if let Some(b) = config.buffering {
        let reusable = cache
            .as_ref()
            .is_some_and(|c| c.reusable_for(view.generation(), users, objective, b, p_opt.id));
        if !reusable {
            let set = BufferSet::build(view, users, objective, b);
            stats.gnn.absorb(set.stats);
            stats.rtree_queries += 1;
            built_buffer = true;
            *cache = Some(Box::new(BufferCache {
                set,
                anchors: users.to_vec(),
                objective,
                b,
                tree_generation: view.generation(),
            }));
        }
        cache.as_deref()
    } else {
        None
    };

    // Σⱼ ‖pᵒ, uⱼ‖: the part of every tile's Theorem 6 threshold that no tile changes.
    let opt_dist_sum = users.iter().map(|u| p_opt.location.dist(*u)).sum();
    let mut growth =
        TileGrowth { view, users, regions, p_opt, opt_dist_sum, objective, config, buffer, stats };
    with_scratch(|scratch| growth.run(scratch, headings));

    TileMsr {
        optimal: seed.optimal,
        runner_up: seed.runner_up,
        radius: seed.radius,
        regions: growth.regions,
        stats: growth.stats,
        built_buffer,
    }
}

/// The unbuffered candidates of one Tile-MSR computation: what the index last returned, kept
/// so that most tiles are served without walking the R-tree again.
///
/// Within a computation the users and `pᵒ` are fixed and only the Theorem 3 radii / the
/// Theorem 6 threshold change from tile to tile.  The R-tree walk is a deterministic
/// depth-first traversal and [`IndexView`] appends its overlay inserts in a fixed order, and
/// both keep an entry by comparing the very distances recorded here against the bound — so
/// the output of a query is exactly the order-preserving filter of the output of any query
/// with bounds at least as large (pinned by `mpn-index`'s `narrower_candidate_queries_…`
/// proptest).  Filtering the pool *in order* with the index's own float expressions
/// therefore hands the verifier the same candidates in the same order as a per-tile query
/// would, and every decision, verifier slot and work counter except the number of index
/// queries stays bit-identical.
#[derive(Debug, Default)]
struct CandidatePool {
    /// The last fetch, in the index's output order.
    entries: Vec<PoiEntry>,
    /// `‖entries[k], uⱼ‖` at `k · m + j`.
    dists: Vec<f64>,
    /// The bounds of the last fetch (empty before the first): one radius per user (MAX) or
    /// the one summed-distance threshold (SUM).
    covered: Vec<f64>,
    /// The bounds of the tile under test, in the same layout.
    wanted: Vec<f64>,
    /// Verifier slot of every candidate handed out so far, by POI id (buffered candidates
    /// are named by their buffer position instead).
    slots: HashMap<usize, usize>,
    /// The `(location, verifier slot)` candidates of the tile under test.
    selected: Vec<(Point, usize)>,
}

impl CandidatePool {
    fn begin(&mut self) {
        self.entries.clear();
        self.covered.clear();
        self.slots.clear();
        self.selected.clear();
    }

    /// Whether the last fetch returned every entry within the `wanted` bounds.
    fn covers_wanted(&self) -> bool {
        self.covered.len() == self.wanted.len()
            && self.wanted.iter().zip(&self.covered).all(|(wanted, covered)| wanted <= covered)
    }

    /// Records every fetched entry's distance to every user, in user order.
    fn measure(&mut self, users: &[Point]) {
        self.dists.clear();
        for entry in &self.entries {
            self.dists.extend(users.iter().map(|u| entry.location.dist(*u)));
        }
    }

    /// Selects, in fetch order, the entries other than `pᵒ` whose user distances `keep`
    /// admits, naming each by its slot (assigned on first selection).
    fn select(&mut self, m: usize, p_opt: usize, keep: impl Fn(&[f64], &[f64]) -> bool) {
        self.selected.clear();
        for (entry, dists) in self.entries.iter().zip(self.dists.chunks_exact(m)) {
            if entry.id != p_opt && keep(dists, &self.wanted) {
                let next = self.slots.len();
                self.selected.push((entry.location, *self.slots.entry(entry.id).or_insert(next)));
            }
        }
    }
}

/// The per-thread buffers of a Tile-MSR computation: the verifier's summary tables and the
/// candidate pool live for one computation, their allocations for the thread.
#[derive(Debug, Default)]
struct TileScratch {
    verifier: TileVerifier,
    pool: CandidatePool,
}

thread_local! {
    static SCRATCH: Cell<TileScratch> = Cell::new(TileScratch::default());
}

/// Runs `f` with this thread's parked [`TileScratch`] (the `mpn_index::with_scratch`
/// pattern): taken out of thread-local storage for the call and put back afterwards with
/// whatever capacity the call grew.  The scratch is per worker thread, never per session — a
/// session-held copy would cost a tile fleet more memory than the rest of the server.
fn with_scratch<R>(f: impl FnOnce(&mut TileScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let out = f(&mut scratch);
        cell.set(scratch);
        out
    })
}

/// The state of one Tile-MSR region-growing loop (Algorithm 3, lines 5-10).
struct TileGrowth<'a> {
    view: IndexView<'a>,
    users: &'a [Point],
    regions: Vec<TileRegion>,
    p_opt: PoiEntry,
    opt_dist_sum: f64,
    objective: Objective,
    config: &'a TileMsrConfig,
    buffer: Option<&'a BufferCache>,
    stats: ComputeStats,
}

impl TileGrowth<'_> {
    /// Round-robin tile browsing bounded by α.
    fn run(&mut self, scratch: &mut TileScratch, headings: Option<&[Option<f64>]>) {
        let TileScratch { verifier, pool } = scratch;
        // The threshold ladder of a buffer bounds distances from its anchors (the locations
        // at build time); without a buffer, Theorems 3/6 measure from the current locations.
        let anchors = self.buffer.map_or(self.users, |cache| cache.anchors.as_slice());
        verifier.begin(self.objective, self.p_opt.location, anchors);
        pool.begin();

        let max_layer = (self.config.alpha + 2) as i32;
        let mut streams: Vec<TileStream> = (0..self.users.len())
            .map(|i| TileStream::new(self.config.ordering, headings.and_then(|h| h[i]), max_layer))
            .collect();
        for _round in 0..self.config.alpha {
            for (user, stream) in streams.iter_mut().enumerate() {
                while let Some(cell) = stream.next_cell() {
                    if self.buffer.is_none() {
                        self.gather_candidates(verifier, pool, user, cell);
                    }
                    let level = self.config.split_level;
                    if self.divide_verify(verifier, user, cell, level, &pool.selected) {
                        stream.mark_accepted();
                        break;
                    }
                }
            }
        }
    }

    /// Divide-Verify (Algorithm 2) and Buffer-Divide-Verify (Algorithm 5): verify the tile
    /// against every candidate; on failure subdivide into four sub-tiles and recurse up to
    /// `level` times.  Returns `true` when the tile or at least one of its descendants was
    /// added to the user's region.
    ///
    /// Without a buffer the candidates are the `gathered` ones.  With a buffer they are the
    /// prefix of the smallest buffered slot covering the current region extent, measured
    /// from the buffer's anchors.
    fn divide_verify(
        &mut self,
        verifier: &mut TileVerifier,
        user: usize,
        cell: TileCell,
        level: u32,
        gathered: &[(Point, usize)],
    ) -> bool {
        let square = self.regions[user].frame().square(cell);
        let ok = if let Some(cache) = self.buffer {
            // Algorithm 5, line 1: the distance any buffered location instance can stray
            // from the anchors — the new tile for this user, the existing regions for the
            // others.
            verifier.sync(&self.regions);
            let dist = (0..self.users.len())
                .filter(|&j| j != user)
                .fold(square.max_dist(cache.anchors[user]), |d, j| d.max(verifier.anchor_reach(j)));
            // Lines 2-4: the smallest admissible slot; reject outright when none covers `dist`.
            let Some(slot) = cache.set.slot_for(dist) else {
                self.stats.tiles_rejected += 1;
                return false;
            };
            let prefix =
                cache.set.candidates(slot).iter().enumerate().map(|(k, c)| (c.location, k));
            self.stats.verify_calls += 1;
            verifier.accepts(&self.regions, user, &square, prefix, &mut self.stats)
        } else {
            self.stats.verify_calls += 1;
            verifier.accepts(
                &self.regions,
                user,
                &square,
                gathered.iter().copied(),
                &mut self.stats,
            )
        };
        if ok {
            self.regions[user].push(cell);
            self.stats.tiles_accepted += 1;
            return true;
        }
        if level == 0 {
            self.stats.tiles_rejected += 1;
            return false;
        }
        let mut flag = false;
        for child in cell.children() {
            flag |= self.divide_verify(verifier, user, child, level - 1, gathered);
        }
        flag
    }

    /// Leaves in `pool.selected` the candidates a tile must be verified against.
    ///
    /// With index pruning enabled these are the POIs Theorem 3 (MAX) or Theorem 6 (SUM)
    /// cannot prune, under region extents that already account for the tile under test so the
    /// candidate set is conservative; otherwise every POI except `pᵒ`.  The index is queried
    /// only when the tile's bounds exceed what the pool's last fetch covered, and then with
    /// slack on the part of the bounds that grows with the regions — MAX `rⱼ + maxⱼ r†ⱼ`, SUM
    /// `T + 2·Σⱼ r†ⱼ`, never on `‖pᵒ, uⱼ‖` — so a computation fetches a handful of times.
    fn gather_candidates(
        &mut self,
        verifier: &mut TileVerifier,
        pool: &mut CandidatePool,
        user: usize,
        cell: TileCell,
    ) {
        let (users, p_opt) = (self.users, self.p_opt);
        if !self.config.index_pruning {
            // The unoptimised baseline verifies against every POI: one scan serves every tile.
            if pool.covered.is_empty() {
                self.stats.rtree_queries += 1;
                pool.covered.push(f64::INFINITY);
                pool.entries.extend(self.view.iter());
                pool.measure(users);
                pool.select(users.len(), p_opt.id, |_, _| true);
            }
            return;
        }
        let tile = self.regions[user].frame().square(cell);
        verifier.sync(&self.regions);
        // r†ⱼ: how far user j may stray from her current location (the verifier's anchor
        // on this unbuffered path); for the user under test this must include the new tile.
        let reach = |j: usize| {
            let r = verifier.anchor_reach(j).max(0.0);
            if j == user {
                r.max(tile.max_dist(users[j]))
            } else {
                r
            }
        };
        let strays = (0..users.len()).map(reach);
        pool.wanted.clear();
        let slack = match self.objective {
            Objective::Max => {
                // ‖pᵒ, R‖⊤ including the tile under test.
                let dominant = (0..users.len())
                    .fold(tile.max_dist(p_opt.location), |d, j| d.max(verifier.opt_reach(j)));
                pool.wanted.extend(strays.clone().map(|stray| dominant + stray));
                strays.fold(0.0, f64::max)
            }
            Objective::Sum => {
                let strays: f64 = strays.sum();
                pool.wanted.push(self.opt_dist_sum + 2.0 * strays);
                2.0 * strays
            }
        };
        if !pool.covers_wanted() {
            pool.covered.clear();
            pool.covered.extend(pool.wanted.iter().map(|wanted| wanted + slack));
            let fetched = &mut pool.entries;
            let qstats = match self.objective {
                Objective::Max => {
                    self.view.candidates_within_user_radii_into(users, &pool.covered, fetched)
                }
                Objective::Sum => {
                    self.view.candidates_within_sum_radius_into(users, pool.covered[0], fetched)
                }
            };
            self.stats.rtree_queries += 1;
            self.stats.candidate_retrieval.absorb(qstats);
            pool.measure(users);
        }
        // The index's own acceptance tests, on the recorded distances.
        match self.objective {
            Objective::Max => pool.select(users.len(), p_opt.id, |dists, radii| {
                dists.iter().zip(radii).all(|(d, r)| d <= r)
            }),
            Objective::Sum => pool.select(users.len(), p_opt.id, |dists, threshold| {
                dists.iter().sum::<f64>() <= threshold[0]
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_geom::max_dist_to_set;
    use mpn_index::{RTree, WorldView};

    fn grid_pois(n_side: usize, spacing: f64) -> Vec<Point> {
        (0..n_side * n_side)
            .map(|i| Point::new((i % n_side) as f64 * spacing, (i / n_side) as f64 * spacing))
            .collect()
    }

    fn world() -> (RTree, Vec<Point>) {
        let pois = grid_pois(8, 5.0);
        let users = vec![Point::new(11.0, 12.0), Point::new(14.0, 16.0), Point::new(9.0, 17.0)];
        (RTree::bulk_load(&pois), users)
    }

    #[test]
    fn tile_msr_regions_contain_the_users_and_the_seed_tiles() {
        let (tree, users) = world();
        let out = tile_msr(&tree, &users, Objective::Max, &TileMsrConfig::default(), None);
        assert_eq!(out.regions.len(), users.len());
        for (region, user) in out.regions.iter().zip(&users) {
            assert!(!region.is_empty());
            assert!(region.contains(*user), "the seed tile always covers the user");
        }
        assert!(out.radius > 0.0);
    }

    #[test]
    fn tile_regions_are_at_least_as_large_as_the_inscribed_circle_square() {
        let (tree, users) = world();
        let out = tile_msr(&tree, &users, Objective::Max, &TileMsrConfig::default(), None);
        let seed_area = (std::f64::consts::SQRT_2 * out.radius).powi(2);
        for region in &out.regions {
            assert!(region.area() + 1e-9 >= seed_area);
        }
        // With α = 30 rounds at least one user should have grown past the seed tile.
        let grown = out.regions.iter().any(|r| r.len() > 1);
        assert!(grown, "expected tile regions to grow beyond the seed");
    }

    /// Core invariant (Definition 3): for any instance of locations inside the safe regions,
    /// the optimal meeting point does not change.
    fn assert_safe_region_group_valid(
        tree: &RTree,
        users: &[Point],
        objective: Objective,
        out: &TileMsr,
    ) {
        let pois: Vec<Point> = tree.iter().map(|e| e.location).collect();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand01 = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let instance: Vec<Point> = out
                .regions
                .iter()
                .map(|region| {
                    // Pick a random point in a random tile of the region.
                    let tiles = region.squares();
                    let sq = tiles[(rand01() * tiles.len() as f64) as usize % tiles.len()];
                    let r = sq.to_rect();
                    Point::new(r.lo.x + r.width() * rand01(), r.lo.y + r.height() * rand01())
                })
                .collect();
            for (region, l) in out.regions.iter().zip(&instance) {
                assert!(region.contains(*l));
            }
            let agg = |p: Point| objective.aggregate().point_dist(p, &instance);
            let best = pois.iter().map(|p| agg(*p)).fold(f64::INFINITY, f64::min);
            let current = agg(out.optimal.entry.location);
            assert!(
                current <= best + 1e-6,
                "{objective:?}: optimum changed for locations {instance:?} (current {current}, best {best})"
            );
        }
        let _ = users;
    }

    #[test]
    fn max_tile_regions_never_invalidate_the_optimum() {
        let (tree, users) = world();
        for config in [
            TileMsrConfig::default(),
            TileMsrConfig { index_pruning: false, alpha: 10, ..TileMsrConfig::default() },
            TileMsrConfig::tile_directed(std::f64::consts::FRAC_PI_4),
            TileMsrConfig::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 20),
        ] {
            let out = tile_msr(&tree, &users, Objective::Max, &config, None);
            assert_safe_region_group_valid(&tree, &users, Objective::Max, &out);
        }
    }

    #[test]
    fn sum_tile_regions_never_invalidate_the_optimum() {
        let (tree, users) = world();
        for config in [
            TileMsrConfig::default(),
            TileMsrConfig::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 20),
        ] {
            let out = tile_msr(&tree, &users, Objective::Sum, &config, None);
            assert_safe_region_group_valid(&tree, &users, Objective::Sum, &out);
        }
    }

    #[test]
    fn buffer_cache_is_not_reused_across_objectives_trees_or_sizes() {
        let (tree, users) = world();
        let config = TileMsrConfig::tile_directed_buffered(0.8, 20);
        let mut cache = None;

        let first = tile_msr_cached(&tree, &users, Objective::Max, &config, None, &mut cache);
        assert!(first.built_buffer, "cold cache must build");
        let again = tile_msr_cached(&tree, &users, Objective::Max, &config, None, &mut cache);
        assert!(!again.built_buffer, "unchanged state must reuse");

        // The SUM ladder divides by 2m, not 2: a MAX cache must never serve a SUM query.
        let sum = tile_msr_cached(&tree, &users, Objective::Sum, &config, None, &mut cache);
        assert!(sum.built_buffer, "objective change must rebuild");

        // A different buffering parameter changes the prefix length.
        let bigger = TileMsrConfig::tile_directed_buffered(0.8, 30);
        let resized = tile_msr_cached(&tree, &users, Objective::Sum, &bigger, None, &mut cache);
        assert!(resized.built_buffer, "buffer-size change must rebuild");

        // A different tree (even with identical contents) must rebuild.
        let other_tree = RTree::bulk_load(&grid_pois(8, 5.0));
        let other = tile_msr_cached(&other_tree, &users, Objective::Sum, &bigger, None, &mut cache);
        assert!(other.built_buffer, "tree change must rebuild");

        // A world mutation bumps the logical generation and invalidates the cache.
        let mut mutable = WorldView::new(RTree::bulk_load(&grid_pois(8, 5.0)));
        let warm = tile_msr_cached(&mutable, &users, Objective::Sum, &bigger, None, &mut cache);
        assert!(warm.built_buffer);
        let reused = tile_msr_cached(&mutable, &users, Objective::Sum, &bigger, None, &mut cache);
        assert!(!reused.built_buffer, "unchanged world must reuse");
        mutable.insert(Point::new(1.0, 2.0));
        let stale = tile_msr_cached(&mutable, &users, Objective::Sum, &bigger, None, &mut cache);
        assert!(stale.built_buffer, "world mutation must rebuild");
    }

    #[test]
    fn optimal_point_matches_brute_force() {
        let (tree, users) = world();
        let out = tile_msr(&tree, &users, Objective::Max, &TileMsrConfig::default(), None);
        let brute = tree
            .iter()
            .min_by(|a, b| {
                max_dist_to_set(a.location, &users).total_cmp(&max_dist_to_set(b.location, &users))
            })
            .unwrap();
        assert_eq!(out.optimal.entry.id, brute.id);
    }

    #[test]
    fn buffering_reduces_rtree_queries() {
        let (tree, users) = world();
        let plain = tile_msr(&tree, &users, Objective::Max, &TileMsrConfig::default(), None);
        let buffered = tile_msr(
            &tree,
            &users,
            Objective::Max,
            &TileMsrConfig { buffering: Some(50), ..TileMsrConfig::default() },
            None,
        );
        assert!(
            buffered.stats.rtree_queries < plain.stats.rtree_queries,
            "buffering must avoid per-tile index accesses ({} vs {})",
            buffered.stats.rtree_queries,
            plain.stats.rtree_queries
        );
        assert_eq!(buffered.stats.rtree_queries, 2, "circle GNN + buffer GNN only");
    }

    #[test]
    fn one_candidate_pool_serves_most_tiles_of_an_unbuffered_computation() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rand01 = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pois: Vec<Point> =
            (0..4_000).map(|_| Point::new(rand01() * 2_000.0, rand01() * 2_000.0)).collect();
        let tree = RTree::bulk_load(&pois);
        let users = vec![Point::new(990.0, 1_010.0), Point::new(1_030.0, 980.0)];
        for objective in [Objective::Max, Objective::Sum] {
            let directed = TileMsrConfig::tile_directed(std::f64::consts::FRAC_PI_4);
            let out = tile_msr(&tree, &users, objective, &directed, None);
            // Divide-Verify runs at most 1 + 4 + 16 times per tried cell at L = 2 (so this
            // undercounts several times over), and every tried cell used to cost an index query.
            let cells_tried = out.stats.verify_calls / 21;
            assert!(cells_tried >= 30, "{objective:?}: only {cells_tried} cells tried");
            assert!(
                out.stats.rtree_queries < 12,
                "{objective:?}: {} index queries for at least {cells_tried} cells",
                out.stats.rtree_queries
            );

            let unpruned = TileMsrConfig { index_pruning: false, alpha: 3, ..directed };
            let out = tile_msr(&tree, &users, objective, &unpruned, None);
            assert_eq!(out.stats.rtree_queries, 2, "{objective:?}: the seed GNN and one scan");
        }
    }

    #[test]
    fn directed_ordering_respects_headings() {
        let (tree, users) = world();
        let headings = vec![Some(0.0), Some(std::f64::consts::FRAC_PI_2), None];
        let out = tile_msr(
            &tree,
            &users,
            Objective::Max,
            &TileMsrConfig::tile_directed(std::f64::consts::FRAC_PI_4),
            Some(&headings),
        );
        // User 0 heads east: every non-seed tile must lie in the eastern half-plane.
        for cell in out.regions[0].cells().iter().filter(|c| !(c.ix == 0 && c.iy == 0)) {
            // Directed layer-1 cells for heading 0 with θ=π/4 are (1,0),(1,1),(1,-1) and their
            // outward continuations / subdivisions, all with positive x at level 0 geometry.
            let sq = out.regions[0].frame().square(*cell);
            assert!(
                sq.center.x >= users[0].x - 1e-9,
                "directed ordering produced a tile behind the user: {cell:?}"
            );
        }
    }

    #[test]
    fn zero_gap_between_best_meeting_points_degenerates_gracefully() {
        // Two POIs symmetric about the single user: best and runner-up tie, radius = 0.
        let tree = RTree::bulk_load(&[Point::new(-1.0, 0.0), Point::new(1.0, 0.0)]);
        let users = vec![Point::new(0.0, 0.0)];
        let out = tile_msr(&tree, &users, Objective::Max, &TileMsrConfig::default(), None);
        assert_eq!(out.radius, 0.0);
        assert_eq!(out.regions[0].len(), 1);
        assert!(out.regions[0].squares()[0].side() <= f64::EPSILON);
    }
}
