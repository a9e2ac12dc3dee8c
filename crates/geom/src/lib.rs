//! Planar geometry primitives used by the MPN safe-region algorithms.
//!
//! The crate is deliberately self-contained (no external geometry dependency) and provides
//! exactly the primitives the paper's algorithms need:
//!
//! * [`Point`] — a location in the plane with Euclidean distance helpers.
//! * [`Rect`] — an axis-aligned rectangle with min/max distance to a point: the R-tree's
//!   MBRs, and the square tiles of the tile-based safe regions (Section 5).
//! * [`Circle`] — circular safe regions (Section 4 of the paper).
//! * [`focal`] — closed-form minimum of the focal difference `‖p', l‖ − ‖pᵒ, l‖` over a
//!   tile, for the SUM objective (Section 6.3.1, Fig. 12).
//! * [`angle`] — heading arithmetic for the directed tile ordering (Section 5.2).
//!
//! All distances are Euclidean (`f64`). The crate never panics on degenerate inputs
//! (zero-size rectangles, coincident points); degenerate shapes behave as points.

#![forbid(unsafe_code)]

pub mod angle;
pub mod circle;
pub mod focal;
pub mod point;
pub mod rect;

pub use angle::{angle_diff, heading, normalize_angle, HeadingPredictor};
pub use circle::Circle;
pub use focal::{focal_diff, min_focal_diff_over_tile};
pub use point::{max_dist_to_set, sum_dist_to_set, Point};
pub use rect::Rect;

/// Numerical tolerance used across the workspace when comparing distances.
///
/// Verification predicates in `mpn-core` subtract this tolerance from the "safe" side of every
/// comparison so that floating-point rounding can only make the algorithms *more* conservative
/// (reject a valid tile), never less (accept an invalid one).
pub const EPSILON: f64 = 1e-9;

/// Trait for shapes that can report their minimum and maximum Euclidean distance to a point.
///
/// This is the geometric interface consumed by the safe-region verification predicates
/// (Lemma 1, Theorem 2): safe regions are unions of shapes and the dominant distances
/// `‖p, R‖⊥` / `‖p, R‖⊤` are computed from these per-shape bounds.
pub trait DistanceBounds {
    /// Minimum distance from `p` to the shape (0 when `p` lies inside the shape).
    fn min_dist(&self, p: Point) -> f64;
    /// Maximum distance from `p` to the shape.
    fn max_dist(&self, p: Point) -> f64;
    /// Whether the point lies inside (or on the boundary of) the shape.
    fn contains(&self, p: Point) -> bool;
}
