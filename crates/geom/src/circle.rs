//! Circles: the circular safe regions of Section 4.

use crate::{DistanceBounds, Point, Rect};

/// A closed disk with a centre and radius.
///
/// Circle-MSR (Algorithm 1) assigns each user the circle centred at her current location with
/// the common maximal radius of Theorem 1 (MAX objective) or Theorem 5 (SUM objective).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Centre of the disk.
    pub center: Point,
    /// Radius of the disk (non-negative; a zero radius is a single point).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle; a negative radius is clamped to zero.
    #[must_use]
    pub fn new(center: Point, radius: f64) -> Self {
        Self { center, radius: radius.max(0.0) }
    }

    /// Largest axis-aligned square inscribed in the disk (side `√2·r`), returned as a rectangle.
    ///
    /// Tile-MSR (Algorithm 3, line 2) seeds each user's tile region with this square.
    #[must_use]
    pub fn inscribed_square_rect(&self) -> Rect {
        let half = self.radius / std::f64::consts::SQRT_2;
        Rect::new(
            Point::new(self.center.x - half, self.center.y - half),
            Point::new(self.center.x + half, self.center.y + half),
        )
    }

    /// Area of the disk.
    #[must_use]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }
}

impl DistanceBounds for Circle {
    /// `‖p, R‖min = max(‖p, c‖ − r, 0)`.
    fn min_dist(&self, p: Point) -> f64 {
        (self.center.dist(p) - self.radius).max(0.0)
    }

    /// `‖p, R‖max = ‖p, c‖ + r`.
    fn max_dist(&self, p: Point) -> f64 {
        self.center.dist(p) + self.radius
    }

    fn contains(&self, p: Point) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_radius_is_clamped() {
        let c = Circle::new(Point::ORIGIN, -3.0);
        assert_eq!(c.radius, 0.0);
        assert!(c.contains(Point::ORIGIN));
        assert!(!c.contains(Point::new(0.1, 0.0)));
    }

    #[test]
    fn distance_bounds_match_formulas() {
        let c = Circle::new(Point::new(1.0, 1.0), 2.0);
        let p = Point::new(6.0, 1.0); // distance 5 from the centre
        assert!((c.min_dist(p) - 3.0).abs() < 1e-12);
        assert!((c.max_dist(p) - 7.0).abs() < 1e-12);
        // Inside the disk the min distance is zero.
        let q = Point::new(1.5, 1.0);
        assert_eq!(c.min_dist(q), 0.0);
        assert!((c.max_dist(q) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn containment_is_closed() {
        let c = Circle::new(Point::ORIGIN, 1.0);
        assert!(c.contains(Point::new(1.0, 0.0)));
        assert!(c.contains(Point::new(0.0, -1.0)));
        assert!(!c.contains(Point::new(1.0, 1.0)));
    }

    #[test]
    fn bounding_and_inscribed_rects() {
        let c = Circle::new(Point::new(2.0, 3.0), 2.0);
        let s = c.inscribed_square_rect();
        // The disk's bounding box `center ± r` contains the inscribed square.
        assert!(Rect::new(Point::new(0.0, 1.0), Point::new(4.0, 5.0)).contains_rect(&s));
        // Every corner of the inscribed square lies on the circle boundary.
        for corner in s.corners() {
            assert!((c.center.dist(corner) - c.radius).abs() < 1e-12);
        }
        assert!((s.width() - 2.0 * 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn area_of_unit_circle() {
        let c = Circle::new(Point::ORIGIN, 1.0);
        assert!((c.area() - std::f64::consts::PI).abs() < 1e-12);
    }
}
