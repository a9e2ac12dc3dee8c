//! Points in the plane and Euclidean distance helpers.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A location (or displacement vector) in the two-dimensional Euclidean plane.
///
/// The paper denotes both a user `uᵢ` and her current location by the same symbol; in this
/// crate a user location, a POI and a displacement are all `Point`s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance `‖self, other‖` (Definition 1).
    #[must_use]
    pub fn dist(&self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance; cheaper when only comparisons are needed.
    #[must_use]
    pub fn dist_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Length of the vector from the origin to this point.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.dist(Point::ORIGIN)
    }

    /// Linear interpolation between `self` (at `t = 0`) and `other` (at `t = 1`).
    #[must_use]
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }

    /// Midpoint of the segment between `self` and `other`.
    #[must_use]
    pub fn midpoint(&self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// Unit vector pointing from `self` towards `other`.
    ///
    /// Returns `None` when the two points coincide (within `1e-12`).
    #[must_use]
    pub fn direction_to(&self, other: Point) -> Option<Point> {
        let d = other - *self;
        let n = d.norm();
        if n < 1e-12 {
            None
        } else {
            Some(d / n)
        }
    }

    /// True when every coordinate is finite (not NaN / infinite).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Component-wise minimum of two points (lower-left corner of their bounding box).
    #[must_use]
    pub fn min_components(&self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum of two points (upper-right corner of their bounding box).
    #[must_use]
    pub fn max_components(&self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

/// Maximum distance from a point `p` to a finite set of points (the dominant distance
/// `‖p, U‖†` of Definition 5 when the set is the user group `U`).
#[must_use]
pub fn max_dist_to_set(p: Point, set: &[Point]) -> f64 {
    set.iter().map(|u| p.dist(*u)).fold(0.0, f64::max)
}

/// Sum of distances from a point `p` to a finite set of points (`‖p, U‖sum`, Definition 7).
#[must_use]
pub fn sum_dist_to_set(p: Point, set: &[Point]) -> f64 {
    set.iter().map(|u| p.dist(*u)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.dist(b) - 5.0).abs() < 1e-12);
        assert!((b.dist(a) - 5.0).abs() < 1e-12);
        assert_eq!(a.dist(a), 0.0);
    }

    #[test]
    fn dist_sq_matches_dist() {
        let a = Point::new(-1.5, 2.0);
        let b = Point::new(3.0, -0.5);
        assert!((a.dist_sq(b) - a.dist(b).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn lerp_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Point::new(5.0, -5.0));
    }

    #[test]
    fn direction_to_unit_vector() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(4.0, 5.0);
        let d = a.direction_to(b).unwrap();
        assert!((d.norm() - 1.0).abs() < 1e-12);
        assert!((d.x - 0.6).abs() < 1e-12);
        assert!((d.y - 0.8).abs() < 1e-12);
        assert!(a.direction_to(a).is_none());
    }

    #[test]
    fn component_min_max() {
        let a = Point::new(1.0, 5.0);
        let b = Point::new(3.0, 2.0);
        assert_eq!(a.min_components(b), Point::new(1.0, 2.0));
        assert_eq!(a.max_components(b), Point::new(3.0, 5.0));
    }

    #[test]
    fn aggregate_distances_over_sets() {
        let p = Point::new(0.0, 0.0);
        let set = [Point::new(3.0, 4.0), Point::new(1.0, 0.0), Point::new(0.0, 2.0)];
        assert!((max_dist_to_set(p, &set) - 5.0).abs() < 1e-12);
        assert!((sum_dist_to_set(p, &set) - 8.0).abs() < 1e-12);
        assert_eq!(max_dist_to_set(p, &[]), 0.0);
        assert_eq!(sum_dist_to_set(p, &[]), 0.0);
    }

    #[test]
    fn finite_check() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
