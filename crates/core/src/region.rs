//! Safe-region representations: circles and tile regions.
//!
//! A *safe region group* assigns one region to each user; the optimal meeting point is
//! guaranteed not to change while every user stays inside her own region (Definition 3).
//! Section 4 approximates the maximal regions by circles, Section 5 by unions of square tiles.

use mpn_geom::{Circle, DistanceBounds, Point, Rect};

/// Identity of a tile inside a [`TileFrame`]: a subdivision level and integer grid coordinates.
///
/// At level `k` the grid granularity is `δ / 2ᵏ` and the tile's lower-left corner sits at
/// `frame.origin + granularity · (ix, iy)`.  Keeping tiles in integer grid coordinates makes
/// subdivision exact, deduplication cheap and the one-byte steps of [`crate::compress`]
/// possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileCell {
    /// Subdivision level: 0 for the base tiles of side `δ`, +1 per quad subdivision.
    pub level: u8,
    /// Horizontal grid coordinate at this level.
    pub ix: i32,
    /// Vertical grid coordinate at this level.
    pub iy: i32,
}

impl TileCell {
    /// The base tile covering the frame origin cell (level 0, coordinates (0, 0)).
    pub const SEED: TileCell = TileCell { level: 0, ix: 0, iy: 0 };

    /// Creates a cell.
    #[must_use]
    pub const fn new(level: u8, ix: i32, iy: i32) -> Self {
        Self { level, ix, iy }
    }

    /// The four child cells produced by quad subdivision (Algorithm 2, line 6).
    #[must_use]
    pub fn children(&self) -> [TileCell; 4] {
        let l = self.level + 1;
        let (x, y) = (self.ix * 2, self.iy * 2);
        [
            TileCell::new(l, x, y),
            TileCell::new(l, x + 1, y),
            TileCell::new(l, x, y + 1),
            TileCell::new(l, x + 1, y + 1),
        ]
    }
}

/// The coordinate frame shared by all tiles of one user's safe region.
///
/// `origin` is the lower-left corner of the user's seed tile ([`seed`](Self::seed): in the square
/// inscribed in her circular safe region, Algorithm 3 lines 2–4) and `delta` is the tile side `δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileFrame {
    /// Lower-left corner of the level-0 cell (0, 0).
    pub origin: Point,
    /// Side length `δ` of level-0 tiles.
    pub delta: f64,
}

impl TileFrame {
    /// Frame whose seed tile of side `delta` is centred at `center`.
    #[must_use]
    pub fn centered_at(center: Point, delta: f64) -> Self {
        Self { origin: Point::new(center.x - delta / 2.0, center.y - delta / 2.0), delta }
    }

    /// Tile-MSR's seed frame (Algorithm 3, line 2), `f32`-exact: the origin of
    /// [`centered_at`](Self::centered_at) rounded up, the side rounded down, so the seed tile
    /// stays inside the square inscribed in the Theorem 1 / 5 disc.  That exact frame itself
    /// when `δ ≤ ε` or the snapped seed would not hold `center` strictly inside.
    #[must_use]
    pub fn seed(center: Point, delta: f64) -> Self {
        let exact = Self::centered_at(center, delta);
        let bounds = exact.tile(TileCell::SEED);
        let up = |v: f64| -f32_down(-v);
        let origin = Point::new(up(bounds.lo.x), up(bounds.lo.y));
        let side = f32_down((bounds.hi.x - origin.x).min(bounds.hi.y - origin.y));
        let frame = Self { origin, delta: side };
        let seed = frame.tile(TileCell::SEED);
        let (lo, hi) = (seed.lo, seed.hi);
        let holds = lo.x < center.x && center.x < hi.x && lo.y < center.y && center.y < hi.y;
        if delta > f64::EPSILON && holds && bounds.contains_rect(&seed) {
            frame
        } else {
            exact
        }
    }

    /// Side length of tiles at the given level: `δ / 2ˡᵉᵛᵉˡ`, computed as a product with the
    /// exact power of two `2⁻ˡᵉᵛᵉˡ`, which rounds to the same `f64` without a division.
    #[must_use]
    pub fn side_at(&self, level: u8) -> f64 {
        self.delta * f64::from_bits((1023 - u64::from(level)) << 52)
    }

    /// Half the side of a tile at the given level, clamped at zero.
    fn half_at(&self, level: u8) -> f64 {
        (self.side_at(level) / 2.0).max(0.0)
    }

    /// A tile's bounds along one axis as computed, before they are ordered: centre ∓ half side,
    /// the centre half a side past the cell's lower edge `origin + side · i`.
    fn span(&self, origin: f64, level: u8, i: i32) -> (f64, f64) {
        let side = self.side_at(level);
        let center = origin + side * f64::from(i) + side / 2.0;
        let half = self.half_at(level);
        (center - half, center + half)
    }

    /// The tile of a cell in this frame: its centre ∓ half side bounds, ordered.  Every region
    /// query and verifier decision reads this one expression.
    #[must_use]
    pub fn tile(&self, cell: TileCell) -> Rect {
        let (lo_x, hi_x) = self.span(self.origin.x, cell.level, cell.ix);
        let (lo_y, hi_y) = self.span(self.origin.y, cell.level, cell.iy);
        Rect::new(Point::new(lo_x, lo_y), Point::new(hi_x, hi_y))
    }
}

/// The largest `f32` at or below `v`, as an `f64`.
pub(crate) fn f32_down(v: f64) -> f64 {
    let f = v as f32;
    f64::from(if f64::from(f) > v { f.next_down() } else { f })
}

/// A tile-based safe region: a union of square tiles in a common frame (Section 5), stored as
/// its frame and its 12 B cells.  Every query maps a cell to its tile through
/// [`TileFrame::tile`] where it needs it, so no tile's geometry is kept beside its cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TileRegion {
    frame: TileFrame,
    cells: Vec<TileCell>,
}

impl TileRegion {
    /// Creates an empty region in the given frame.
    #[must_use]
    pub fn new(frame: TileFrame) -> Self {
        Self { frame, cells: Vec::new() }
    }

    /// Creates a region already containing the seed tile centred on the frame.
    #[must_use]
    pub fn with_seed(frame: TileFrame) -> Self {
        Self { frame, cells: vec![TileCell::SEED] }
    }

    /// Rebuilds a region from its cells, in their order; `None` when a cell repeats.  One
    /// sort instead of [`push`](Self::push)'s scan per cell, so a decoder stays `n log n`.
    #[must_use]
    pub fn from_cells(frame: TileFrame, cells: Vec<TileCell>) -> Option<Self> {
        let mut sorted = cells.clone();
        sorted.sort_unstable_by_key(|c| (c.level, c.ix, c.iy));
        if sorted.windows(2).any(|pair| pair[0] == pair[1]) {
            return None;
        }
        Some(Self { frame, cells })
    }

    /// [`with_seed`](Self::with_seed) in place: keeps the cells' capacity for the next growth.
    pub(crate) fn reseed(&mut self, frame: TileFrame) {
        self.frame = frame;
        self.cells.clear();
        self.cells.push(TileCell::SEED);
    }

    /// The region's coordinate frame.
    #[must_use]
    pub fn frame(&self) -> TileFrame {
        self.frame
    }

    /// Adds a tile to the region (no-op when the cell is already present).
    pub fn push(&mut self, cell: TileCell) {
        if !self.cells.contains(&cell) {
            self.cells.push(cell);
        }
    }

    /// Number of tiles in the region.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the region contains no tiles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The tiles' grid identities.
    #[must_use]
    pub fn cells(&self) -> &[TileCell] {
        &self.cells
    }

    /// The tiles' geometry ([`TileFrame::tile`]), computed from the cells in their order.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = Rect> + '_ {
        let frame = self.frame;
        self.cells.iter().map(move |&cell| frame.tile(cell))
    }

    /// Whether the point lies inside the region: inside (or on the boundary of) any tile.
    ///
    /// This is the exit check of every report of a tile group.  With a finite `δ` each tile's
    /// bounds come out ordered (centre − half ≤ centre + half) or NaN, so ordering them as
    /// [`TileFrame::tile`] does changes no decision: the check compares them as computed, the
    /// y axis only where x holds.  An infinite side can leave centre − half NaN (∞ − ∞), and
    /// only then are the tiles ordered first.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        let frame = self.frame;
        if !frame.delta.is_finite() {
            return self.tiles().any(|t| t.contains(p));
        }
        self.cells.iter().any(|&cell| {
            let within = |origin: f64, i: i32, v: f64| {
                let (lo, hi) = frame.span(origin, cell.level, i);
                lo <= v && v <= hi
            };
            within(frame.origin.x, cell.ix, p.x) && within(frame.origin.y, cell.iy, p.y)
        })
    }

    /// Minimum distance from `p` to the region: `‖p, Rᵢ‖min` (∞ for an empty region).
    #[must_use]
    pub fn min_dist(&self, p: Point) -> f64 {
        self.tiles().map(|t| t.min_dist(p)).fold(f64::INFINITY, f64::min)
    }

    /// Maximum distance from `p` to the region: `‖p, Rᵢ‖max` (−∞ for an empty region).
    #[must_use]
    pub fn max_dist(&self, p: Point) -> f64 {
        self.tiles().map(|t| t.max_dist(p)).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total area covered (tiles never overlap by construction, so the sum is exact): per
    /// tile `(2·half)²`, with the half side of [`TileFrame::tile`].
    #[must_use]
    pub fn area(&self) -> f64 {
        let side = |cell: &TileCell| 2.0 * self.frame.half_at(cell.level);
        self.cells.iter().map(|cell| side(cell) * side(cell)).sum()
    }
}

/// A safe region handed to one user: either a circle (Section 4) or a set of tiles (Section 5).
#[derive(Debug, Clone, PartialEq)]
pub enum SafeRegion {
    /// Circular safe region of Circle-MSR.
    Circle(Circle),
    /// Tile-based safe region of Tile-MSR, boxed: a region travels by value through answers,
    /// session events and wire responses, and a circle should not pay a tile set's size.
    Tiles(Box<TileRegion>),
}

impl SafeRegion {
    /// Whether the user's location is still inside her safe region.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        match self {
            SafeRegion::Circle(c) => c.contains(p),
            SafeRegion::Tiles(t) => t.contains(p),
        }
    }

    /// `‖p, R‖min` of Definition 1.
    #[must_use]
    pub fn min_dist(&self, p: Point) -> f64 {
        match self {
            SafeRegion::Circle(c) => c.min_dist(p),
            SafeRegion::Tiles(t) => t.min_dist(p),
        }
    }

    /// `‖p, R‖max` of Definition 1.
    #[must_use]
    pub fn max_dist(&self, p: Point) -> f64 {
        match self {
            SafeRegion::Circle(c) => c.max_dist(p),
            SafeRegion::Tiles(t) => t.max_dist(p),
        }
    }

    /// Whether the region is degenerate (covers nothing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            SafeRegion::Circle(_) => false,
            SafeRegion::Tiles(t) => t.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> TileFrame {
        TileFrame::centered_at(Point::new(10.0, 10.0), 4.0)
    }

    #[test]
    fn frame_seed_tile_is_centred_on_the_user() {
        let f = frame();
        let seed = f.tile(TileCell::SEED);
        assert_eq!(seed, Rect::new(Point::new(8.0, 8.0), Point::new(12.0, 12.0)));
        assert_eq!(f.side_at(0), 4.0);
        assert_eq!(f.side_at(2), 1.0);
    }

    #[test]
    fn child_cells_tile_the_parent_exactly() {
        let f = frame();
        let parent = TileCell::new(1, -2, 3);
        let parent_tile = f.tile(parent);
        let kids = parent.children();
        let area = |cells: Vec<TileCell>| TileRegion::from_cells(f, cells).unwrap().area();
        assert!((area(kids.to_vec()) - area(vec![parent])).abs() < 1e-12);
        for k in kids {
            assert!(parent_tile.contains_rect(&f.tile(k)));
        }
    }

    #[test]
    fn neighbouring_level0_cells_do_not_overlap() {
        let f = frame();
        let a = f.tile(TileCell::new(0, 0, 0));
        let b = f.tile(TileCell::new(0, 1, 0));
        assert!((b.lo.x - a.lo.x - 4.0).abs() < 1e-12);
        // They share an edge but no interior.
        assert!((a.hi.x - b.lo.x).abs() < 1e-12);
    }

    #[test]
    fn region_push_deduplicates() {
        let mut r = TileRegion::new(frame());
        assert!(r.is_empty());
        r.push(TileCell::SEED);
        r.push(TileCell::SEED);
        r.push(TileCell::new(0, 1, 0));
        assert_eq!(r.len(), 2);
        assert_eq!(r.tiles().len(), 2);
        assert_eq!(TileRegion::from_cells(frame(), [r.cells(), r.cells()].concat()), None);
        assert_eq!(TileRegion::from_cells(frame(), r.cells().to_vec()), Some(r));
    }

    #[test]
    fn region_distances_are_min_and_max_over_tiles() {
        let mut r = TileRegion::with_seed(frame());
        r.push(TileCell::new(0, 1, 0)); // tile centred at (14, 10)
        let p = Point::new(20.0, 10.0);
        // min dist = distance to right edge of right tile = 20 - 16 = 4
        assert!((r.min_dist(p) - 4.0).abs() < 1e-12);
        // max dist = distance to the far corner of the left tile = sqrt(12^2 + 2^2)
        assert!((r.max_dist(p) - (144.0f64 + 4.0).sqrt()).abs() < 1e-12);
        assert!(r.contains(Point::new(13.9, 9.0)));
        assert!(!r.contains(Point::new(16.1, 9.0)));
    }

    #[test]
    fn empty_region_has_degenerate_distances() {
        let r = TileRegion::new(frame());
        assert_eq!(r.min_dist(Point::ORIGIN), f64::INFINITY);
        assert_eq!(r.max_dist(Point::ORIGIN), f64::NEG_INFINITY);
        assert!(!r.contains(Point::ORIGIN));
        assert_eq!(r.area(), 0.0);
    }

    #[test]
    fn safe_region_dispatch() {
        let c = SafeRegion::Circle(Circle::new(Point::new(0.0, 0.0), 2.0));
        assert!(c.contains(Point::new(1.0, 1.0)));
        assert!((c.max_dist(Point::new(3.0, 0.0)) - 5.0).abs() < 1e-12);

        let mut tiles = TileRegion::with_seed(frame());
        tiles.push(TileCell::new(0, 0, 1));
        let t = SafeRegion::Tiles(Box::new(tiles));
        assert!(t.contains(Point::new(10.0, 13.0)));
        assert!(!t.contains(Point::new(20.0, 20.0)));
        assert!(!t.is_empty());
    }

    #[test]
    fn region_area_accumulates() {
        let mut r = TileRegion::with_seed(frame());
        assert!((r.area() - 16.0).abs() < 1e-12);
        r.push(TileCell::new(1, 4, 0)); // a level-1 tile (side 2) somewhere else
        assert!((r.area() - 20.0).abs() < 1e-12);
    }
}
