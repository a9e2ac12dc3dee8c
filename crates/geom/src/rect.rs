//! Axis-aligned rectangles: R-tree minimum bounding rectangles and range regions.

use crate::{DistanceBounds, Point};

/// An axis-aligned rectangle described by its lower-left and upper-right corners.
///
/// Rectangles are the MBRs stored in the R-tree of the POI set (`mpn-index`) and are also used
/// for pruning during candidate retrieval (Theorem 3 / Theorem 6).  A rectangle whose corners
/// coincide behaves as a single point; an "empty" rectangle (used as the identity for
/// [`Rect::union`]) has inverted corners and contains nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner (minimum x and y).
    pub lo: Point,
    /// Upper-right corner (maximum x and y).
    pub hi: Point,
}

impl Rect {
    /// The empty rectangle: the identity element of [`Rect::union`].
    pub const EMPTY: Rect = Rect {
        lo: Point { x: f64::INFINITY, y: f64::INFINITY },
        hi: Point { x: f64::NEG_INFINITY, y: f64::NEG_INFINITY },
    };

    /// Creates a rectangle from two opposite corners (in any order).
    #[must_use]
    pub fn new(a: Point, b: Point) -> Self {
        Self { lo: a.min_components(b), hi: a.max_components(b) }
    }

    /// Creates a degenerate rectangle covering a single point.
    #[must_use]
    pub fn from_point(p: Point) -> Self {
        Self { lo: p, hi: p }
    }

    /// Smallest rectangle enclosing all the given points; [`Rect::EMPTY`] for an empty slice.
    #[must_use]
    pub fn bounding(points: &[Point]) -> Self {
        points.iter().fold(Rect::EMPTY, |r, p| r.expanded(*p))
    }

    /// Whether this is the empty rectangle (contains no point).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y
    }

    /// Width along the x axis (0 for the empty rectangle).
    #[must_use]
    pub fn width(&self) -> f64 {
        (self.hi.x - self.lo.x).max(0.0)
    }

    /// Height along the y axis (0 for the empty rectangle).
    #[must_use]
    pub fn height(&self) -> f64 {
        (self.hi.y - self.lo.y).max(0.0)
    }

    /// Area of the rectangle.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half of the perimeter (the "margin" used by R-tree split heuristics).
    #[must_use]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center of the rectangle.
    #[must_use]
    pub fn center(&self) -> Point {
        self.lo.midpoint(self.hi)
    }

    /// The four corners in counter-clockwise order starting from the lower-left.
    #[must_use]
    pub fn corners(&self) -> [Point; 4] {
        [self.lo, Point::new(self.hi.x, self.lo.y), self.hi, Point::new(self.lo.x, self.hi.y)]
    }

    /// Smallest rectangle containing both `self` and `other`.
    #[must_use]
    pub fn union(&self, other: Rect) -> Rect {
        Rect { lo: self.lo.min_components(other.lo), hi: self.hi.max_components(other.hi) }
    }

    /// Smallest rectangle containing `self` and the point `p`.
    #[must_use]
    pub fn expanded(&self, p: Point) -> Rect {
        Rect { lo: self.lo.min_components(p), hi: self.hi.max_components(p) }
    }

    /// Whether the two rectangles share at least one point.
    #[must_use]
    pub fn intersects(&self, other: &Rect) -> bool {
        !(self.is_empty()
            || other.is_empty()
            || self.lo.x > other.hi.x
            || other.lo.x > self.hi.x
            || self.lo.y > other.hi.y
            || other.lo.y > self.hi.y)
    }

    /// Whether `other` lies entirely inside `self`.
    #[must_use]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && self.hi.x >= other.hi.x
            && self.hi.y >= other.hi.y
    }

    /// Whether the rectangle intersects the closed disk of radius `r` centred at `c`.
    ///
    /// Used by the index-pruning rules: an R-tree MBR can only contain candidate meeting points
    /// when it intersects every user's candidate disk (Fig. 10 of the paper).
    #[must_use]
    pub fn intersects_circle(&self, c: Point, r: f64) -> bool {
        !self.is_empty() && self.min_dist(c) <= r
    }
}

impl DistanceBounds for Rect {
    /// Minimum Euclidean distance from `p` to the rectangle (`‖p, S‖min`, Definition 1).
    fn min_dist(&self, p: Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum Euclidean distance from `p` to the rectangle (`‖p, S‖max`, Definition 1).
    fn max_dist(&self, p: Point) -> f64 {
        if self.is_empty() {
            return f64::NEG_INFINITY;
        }
        let dx = (p.x - self.lo.x).abs().max((p.x - self.hi.x).abs());
        let dy = (p.y - self.lo.y).abs().max((p.y - self.hi.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    fn contains(&self, p: Point) -> bool {
        !self.is_empty()
            && p.x >= self.lo.x
            && p.x <= self.hi.x
            && p.y >= self.lo.y
            && p.y <= self.hi.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    #[test]
    fn constructor_normalises_corners() {
        let r = Rect::new(Point::new(3.0, -1.0), Point::new(-2.0, 4.0));
        assert_eq!(r.lo, Point::new(-2.0, -1.0));
        assert_eq!(r.hi, Point::new(3.0, 4.0));
    }

    #[test]
    fn empty_rect_properties() {
        let e = Rect::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert!(!e.contains(Point::ORIGIN));
        assert!(!e.intersects(&unit()));
        assert_eq!(e.union(unit()), unit());
    }

    #[test]
    fn geometry_measures() {
        let r = Rect::new(Point::new(1.0, 2.0), Point::new(4.0, 6.0));
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.margin(), 7.0);
        assert_eq!(r.center(), Point::new(2.5, 4.0));
    }

    #[test]
    fn min_dist_inside_is_zero_and_outside_matches_hand_computation() {
        let r = unit();
        assert_eq!(r.min_dist(Point::new(0.5, 0.5)), 0.0);
        assert!((r.min_dist(Point::new(2.0, 0.5)) - 1.0).abs() < 1e-12);
        // Corner case: diagonal distance to the nearest corner.
        assert!((r.min_dist(Point::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn max_dist_reaches_farthest_corner() {
        let r = unit();
        // From the origin corner, the farthest corner is (1,1).
        assert!((r.max_dist(Point::new(0.0, 0.0)) - 2f64.sqrt()).abs() < 1e-12);
        // From outside, the farthest corner is the opposite one.
        assert!((r.max_dist(Point::new(-3.0, 0.0)) - (16.0f64 + 1.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn min_dist_never_exceeds_max_dist_on_grid() {
        let r = Rect::new(Point::new(-1.0, -2.0), Point::new(3.0, 1.0));
        for i in -10..=10 {
            for j in -10..=10 {
                let p = Point::new(f64::from(i) * 0.7, f64::from(j) * 0.7);
                assert!(r.min_dist(p) <= r.max_dist(p) + 1e-12);
                if r.contains(p) {
                    assert_eq!(r.min_dist(p), 0.0);
                }
            }
        }
    }

    #[test]
    fn union_is_the_bounding_box() {
        let a = unit();
        let b = Rect::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0));
        assert_eq!(a.union(b), Rect::new(Point::new(0.0, 0.0), Point::new(3.0, 3.0)));
        assert_eq!(a.union(a), a);
    }

    #[test]
    fn intersection_and_containment() {
        let a = unit();
        let b = Rect::new(Point::new(0.5, 0.5), Point::new(2.0, 2.0));
        let c = Rect::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains_rect(&Rect::new(Point::new(0.2, 0.2), Point::new(0.8, 0.8))));
        assert!(!a.contains_rect(&b));
    }

    #[test]
    fn circle_intersection() {
        let r = unit();
        assert!(r.intersects_circle(Point::new(2.0, 0.5), 1.0));
        assert!(!r.intersects_circle(Point::new(2.0, 0.5), 0.5));
        assert!(r.intersects_circle(Point::new(0.5, 0.5), 0.01));
    }

    #[test]
    fn bounding_box_of_points() {
        let pts = [Point::new(1.0, 5.0), Point::new(-2.0, 0.0), Point::new(3.0, 2.0)];
        let r = Rect::bounding(&pts);
        assert_eq!(r.lo, Point::new(-2.0, 0.0));
        assert_eq!(r.hi, Point::new(3.0, 5.0));
        assert!(Rect::bounding(&[]).is_empty());
    }

    #[test]
    fn corners_are_in_ccw_order() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
        let c = r.corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[1], Point::new(2.0, 0.0));
        assert_eq!(c[2], Point::new(2.0, 1.0));
        assert_eq!(c[3], Point::new(0.0, 1.0));
    }
}
