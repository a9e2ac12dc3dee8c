//! Heading arithmetic for the directed tile ordering (Section 5.2).
//!
//! The directed ordering only admits tiles whose subtended angle at the user deviates from her
//! predicted travel direction by at most `θ`.  These helpers keep all angles in `(-π, π]` and
//! compute the smallest absolute difference between two headings.

use crate::Point;

/// Normalises an angle (radians) into the half-open interval `(-π, π]`.
#[must_use]
pub fn normalize_angle(a: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut r = a % two_pi;
    if r <= -std::f64::consts::PI {
        r += two_pi;
    } else if r > std::f64::consts::PI {
        r -= two_pi;
    }
    r
}

/// Heading (radians, in `(-π, π]`) of the displacement from `from` to `to`.
///
/// Returns `None` when the two points coincide and the heading is undefined.
#[must_use]
pub fn heading(from: Point, to: Point) -> Option<f64> {
    let d = to - from;
    if d.norm() < 1e-12 {
        None
    } else {
        Some(d.y.atan2(d.x))
    }
}

/// Smallest absolute angular difference between two headings, in `[0, π]`.
#[must_use]
pub fn angle_diff(a: f64, b: f64) -> f64 {
    normalize_angle(a - b).abs()
}

/// Exponentially-weighted heading predictor.
///
/// Tao et al. (the paper's reference \[26\]) observe that near-future travel directions deviate
/// from recent ones by a bounded angle `θ`.  The predictor maintains a smoothed heading from
/// the recent location history and exposes it for the directed ordering.
#[derive(Debug, Clone)]
pub struct HeadingPredictor {
    smoothing: f64,
    current: Option<f64>,
    last_position: Option<Point>,
}

impl HeadingPredictor {
    /// Creates a predictor; `smoothing ∈ (0, 1]` is the weight of the newest observation.
    #[must_use]
    pub fn new(smoothing: f64) -> Self {
        Self { smoothing: smoothing.clamp(1e-3, 1.0), current: None, last_position: None }
    }

    /// Feeds the next observed location and updates the smoothed heading.
    pub fn observe(&mut self, position: Point) {
        if let Some(prev) = self.last_position {
            if let Some(h) = heading(prev, position) {
                self.current = Some(match self.current {
                    None => h,
                    Some(old) => {
                        // Blend on the circle: rotate towards the new heading by `smoothing`
                        // of the (signed, wrapped) difference.
                        normalize_angle(old + self.smoothing * normalize_angle(h - old))
                    }
                });
            }
        }
        self.last_position = Some(position);
    }

    /// The current predicted heading, if at least one displacement has been observed.
    #[must_use]
    pub fn predicted(&self) -> Option<f64> {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn normalisation_wraps_into_range() {
        assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(0.5) - 0.5).abs() < 1e-12);
        assert!(normalize_angle(2.0 * PI).abs() < 1e-12);
    }

    #[test]
    fn heading_of_cardinal_directions() {
        let o = Point::ORIGIN;
        assert!((heading(o, Point::new(1.0, 0.0)).unwrap()).abs() < 1e-12);
        assert!((heading(o, Point::new(0.0, 1.0)).unwrap() - FRAC_PI_2).abs() < 1e-12);
        assert!((heading(o, Point::new(-1.0, 0.0)).unwrap() - PI).abs() < 1e-12);
        assert!(heading(o, o).is_none());
    }

    #[test]
    fn angle_diff_is_symmetric_and_wraps() {
        assert!((angle_diff(0.1, -0.1) - 0.2).abs() < 1e-12);
        assert!((angle_diff(-0.1, 0.1) - 0.2).abs() < 1e-12);
        // Differences wrap around ±π: 170° vs −170° differ by 20°, not 340°.
        let a = 170.0_f64.to_radians();
        let b = -170.0_f64.to_radians();
        assert!((angle_diff(a, b) - 20.0_f64.to_radians()).abs() < 1e-9);
    }

    #[test]
    fn predictor_follows_straight_motion() {
        let mut p = HeadingPredictor::new(0.5);
        assert!(p.predicted().is_none());
        for i in 0..5 {
            p.observe(Point::new(f64::from(i), 0.0));
        }
        assert!(p.predicted().unwrap().abs() < 1e-12);
    }

    #[test]
    fn predictor_turns_gradually() {
        let mut p = HeadingPredictor::new(0.5);
        p.observe(Point::new(0.0, 0.0));
        p.observe(Point::new(1.0, 0.0)); // heading 0
        p.observe(Point::new(1.0, 1.0)); // heading π/2
        let h = p.predicted().unwrap();
        assert!(h > 0.0 && h < FRAC_PI_2); // smoothed value lies between the two headings
    }

    #[test]
    fn predictor_ignores_repeated_positions() {
        let mut p = HeadingPredictor::new(0.5);
        p.observe(Point::new(0.0, 0.0));
        p.observe(Point::new(0.0, 0.0));
        assert!(p.predicted().is_none());
        p.observe(Point::new(1.0, 0.0));
        assert!(p.predicted().is_some());
    }
}
