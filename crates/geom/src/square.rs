//! Axis-aligned squares: the tiles of the tile-based safe regions (Section 5).

use crate::{DistanceBounds, Point, Rect};

/// An axis-aligned square described by its centre and half side length.
///
/// A *tile* in the paper is a square of side `δ` (possibly subdivided into quarters by the
/// divide-and-conquer verification of Algorithm 2).  The square keeps its centre/half-extent
/// representation because subdivision and grid arithmetic are exact in that form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Square {
    /// Centre of the square.
    pub center: Point,
    /// Half of the side length (non-negative).
    pub half: f64,
}

impl Square {
    /// Creates a square from its centre and side length. Negative sides are clamped to zero.
    #[must_use]
    pub fn new(center: Point, side: f64) -> Self {
        Self { center, half: (side / 2.0).max(0.0) }
    }

    /// Side length `δ` of the tile.
    #[must_use]
    pub fn side(&self) -> f64 {
        2.0 * self.half
    }

    /// Area of the tile.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.side() * self.side()
    }

    /// The square as an axis-aligned rectangle.
    #[must_use]
    pub fn to_rect(&self) -> Rect {
        Rect::new(
            Point::new(self.center.x - self.half, self.center.y - self.half),
            Point::new(self.center.x + self.half, self.center.y + self.half),
        )
    }

    /// The four corners in counter-clockwise order starting from the lower-left.
    #[must_use]
    pub fn corners(&self) -> [Point; 4] {
        self.to_rect().corners()
    }
}

impl DistanceBounds for Square {
    fn min_dist(&self, p: Point) -> f64 {
        self.to_rect().min_dist(p)
    }

    fn max_dist(&self, p: Point) -> f64 {
        self.to_rect().max_dist(p)
    }

    fn contains(&self, p: Point) -> bool {
        self.to_rect().contains(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_and_area() {
        let s = Square::new(Point::new(1.0, 1.0), 4.0);
        assert_eq!(s.half, 2.0);
        assert_eq!(s.side(), 4.0);
        assert_eq!(s.area(), 16.0);
    }

    #[test]
    fn rect_conversion_round_trips_centre() {
        let s = Square::new(Point::new(-2.0, 3.0), 1.0);
        let r = s.to_rect();
        assert_eq!(r.center(), s.center);
        assert!((r.width() - 1.0).abs() < 1e-12);
        assert!((r.height() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distance_bounds_agree_with_rect() {
        let s = Square::new(Point::new(0.0, 0.0), 2.0);
        let p = Point::new(3.0, 4.0);
        let r = s.to_rect();
        assert_eq!(s.min_dist(p), r.min_dist(p));
        assert_eq!(s.max_dist(p), r.max_dist(p));
        assert!(s.contains(Point::new(0.9, -0.9)));
        assert!(!s.contains(Point::new(1.1, 0.0)));
    }

    #[test]
    fn degenerate_square_is_a_point() {
        let s = Square::new(Point::new(5.0, 5.0), 0.0);
        assert_eq!(s.min_dist(Point::new(5.0, 6.0)), 1.0);
        assert_eq!(s.max_dist(Point::new(5.0, 6.0)), 1.0);
        assert!(s.contains(Point::new(5.0, 5.0)));
    }
}
