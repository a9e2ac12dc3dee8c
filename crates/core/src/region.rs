//! Safe-region representations: circles and tile regions.
//!
//! A *safe region group* assigns one region to each user; the optimal meeting point is
//! guaranteed not to change while every user stays inside her own region (Definition 3).
//! Section 4 approximates the maximal regions by circles, Section 5 by unions of square tiles.

use mpn_geom::{Circle, DistanceBounds, Point, Square};

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
/// `origin` is the lower-left corner of the user's seed tile (the maximal square inscribed in
/// her circular safe region, Algorithm 3 lines 2–4) and `delta` is the base tile side `δ`.
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

    /// Side length of tiles at the given level.
    #[must_use]
    pub fn side_at(&self, level: u8) -> f64 {
        self.delta / f64::from(1u32 << u32::from(level))
    }

    /// Geometry of a cell in this frame.
    #[must_use]
    pub fn square(&self, cell: TileCell) -> Square {
        let side = self.side_at(cell.level);
        let lo = Point::new(
            self.origin.x + side * f64::from(cell.ix),
            self.origin.y + side * f64::from(cell.iy),
        );
        Square::new(Point::new(lo.x + side / 2.0, lo.y + side / 2.0), side)
    }
}

/// A tile-based safe region: a union of square tiles in a common frame (Section 5).
#[derive(Debug, Clone, PartialEq)]
pub struct TileRegion {
    frame: TileFrame,
    cells: Vec<TileCell>,
    squares: Vec<Square>,
}

impl TileRegion {
    /// Creates an empty region in the given frame.
    #[must_use]
    pub fn new(frame: TileFrame) -> Self {
        Self { frame, cells: Vec::new(), squares: Vec::new() }
    }

    /// Creates a region already containing the seed tile centred on the frame.
    #[must_use]
    pub fn with_seed(frame: TileFrame) -> Self {
        let mut region = Self::new(frame);
        region.push(TileCell::SEED);
        region
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
        let squares = cells.iter().map(|&cell| frame.square(cell)).collect();
        Some(Self { frame, cells, squares })
    }

    /// The region's coordinate frame.
    #[must_use]
    pub fn frame(&self) -> TileFrame {
        self.frame
    }

    /// Adds a tile to the region (no-op when the cell is already present).
    pub fn push(&mut self, cell: TileCell) {
        if !self.cells.contains(&cell) {
            self.squares.push(self.frame.square(cell));
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

    /// The tiles' geometry.
    #[must_use]
    pub fn squares(&self) -> &[Square] {
        &self.squares
    }

    /// Whether the point lies inside the region (inside any tile).
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        self.squares.iter().any(|s| s.contains(p))
    }

    /// Minimum distance from `p` to the region: `‖p, Rᵢ‖min` (∞ for an empty region).
    #[must_use]
    pub fn min_dist(&self, p: Point) -> f64 {
        self.squares.iter().map(|s| s.min_dist(p)).fold(f64::INFINITY, f64::min)
    }

    /// Maximum distance from `p` to the region: `‖p, Rᵢ‖max` (−∞ for an empty region).
    #[must_use]
    pub fn max_dist(&self, p: Point) -> f64 {
        self.squares.iter().map(|s| s.max_dist(p)).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total area covered (tiles never overlap by construction, so the sum is exact).
    #[must_use]
    pub fn area(&self) -> f64 {
        self.squares.iter().map(Square::area).sum()
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
        let seed = f.square(TileCell::SEED);
        assert_eq!(seed.center, Point::new(10.0, 10.0));
        assert_eq!(seed.side(), 4.0);
        assert_eq!(f.side_at(0), 4.0);
        assert_eq!(f.side_at(2), 1.0);
    }

    #[test]
    fn child_cells_tile_the_parent_exactly() {
        let f = frame();
        let parent = TileCell::new(1, -2, 3);
        let parent_sq = f.square(parent);
        let kids = parent.children();
        let kid_area: f64 = kids.iter().map(|c| f.square(*c).area()).sum();
        assert!((kid_area - parent_sq.area()).abs() < 1e-12);
        for k in kids {
            assert!(parent_sq.to_rect().contains_rect(&f.square(k).to_rect()));
        }
    }

    #[test]
    fn neighbouring_level0_cells_do_not_overlap() {
        let f = frame();
        let a = f.square(TileCell::new(0, 0, 0));
        let b = f.square(TileCell::new(0, 1, 0));
        assert!((a.center.dist(b.center) - 4.0).abs() < 1e-12);
        // They share an edge but no interior.
        assert!(a.to_rect().intersects(&b.to_rect()));
        assert!((a.to_rect().hi.x - b.to_rect().lo.x).abs() < 1e-12);
    }

    #[test]
    fn region_push_deduplicates() {
        let mut r = TileRegion::new(frame());
        assert!(r.is_empty());
        r.push(TileCell::SEED);
        r.push(TileCell::SEED);
        r.push(TileCell::new(0, 1, 0));
        assert_eq!(r.len(), 2);
        assert_eq!(r.squares().len(), 2);
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
