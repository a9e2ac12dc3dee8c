//! Trajectories: sequences of user locations sampled at uniform timestamps.
//!
//! Besides the container itself this module implements the *speed scaling* procedure of the
//! "effect of user speed" experiment (Section 7.2): to simulate a user travelling at `x · V`,
//! the paper keeps the trajectory segments of the first `x` fraction of timestamps and
//! resamples 10,000 locations uniformly (by arc length) over them.

use mpn_geom::Point;

/// A trajectory: one location per timestamp, at a fixed sampling interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    points: Vec<Point>,
}

impl Trajectory {
    /// Wraps a sequence of locations.
    ///
    /// # Panics
    /// Panics when fewer than two locations are supplied — a trajectory needs movement.
    #[must_use]
    pub fn new(points: Vec<Point>) -> Self {
        assert!(points.len() >= 2, "a trajectory needs at least two locations");
        Self { points }
    }

    /// Number of timestamps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Trajectories are never empty (the constructor enforces ≥ 2 points).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Location at a timestamp.
    #[must_use]
    pub fn at(&self, t: usize) -> Point {
        self.points[t.min(self.points.len() - 1)]
    }

    /// All locations.
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Total travelled distance (sum of segment lengths).
    #[must_use]
    pub fn arc_length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].dist(w[1])).sum()
    }

    /// Average per-timestamp displacement.
    #[must_use]
    pub fn mean_step(&self) -> f64 {
        if self.points.len() < 2 {
            return 0.0;
        }
        self.arc_length() / (self.points.len() - 1) as f64
    }

    /// Resamples the trajectory to `samples` locations spaced uniformly by arc length.
    ///
    /// Stationary trajectories (zero arc length) are resampled to repetitions of the first
    /// location.
    #[must_use]
    pub fn resample(&self, samples: usize) -> Trajectory {
        let samples = samples.max(2);
        let total = self.arc_length();
        if total <= f64::EPSILON {
            return Trajectory::new(vec![self.points[0]; samples]);
        }
        let mut out = Vec::with_capacity(samples);
        let step = total / (samples - 1) as f64;
        let mut seg = 0usize;
        let mut seg_start_len = 0.0;
        let mut seg_len = self.points[0].dist(self.points[1]);
        for i in 0..samples {
            let target = step * i as f64;
            while seg + 2 < self.points.len() && seg_start_len + seg_len < target - 1e-12 {
                seg_start_len += seg_len;
                seg += 1;
                seg_len = self.points[seg].dist(self.points[seg + 1]);
            }
            let t = if seg_len <= f64::EPSILON {
                0.0
            } else {
                ((target - seg_start_len) / seg_len).clamp(0.0, 1.0)
            };
            out.push(self.points[seg].lerp(self.points[seg + 1], t));
        }
        Trajectory::new(out)
    }

    /// Speed scaling as described in Section 7.2: keep the first `fraction` of the timestamps
    /// and resample `samples` locations uniformly over those segments.  The resulting
    /// trajectory covers less ground in the same number of timestamps, i.e. the user moves at
    /// `fraction · V`.
    #[must_use]
    pub fn scale_speed(&self, fraction: f64, samples: usize) -> Trajectory {
        let fraction = fraction.clamp(0.0, 1.0);
        let keep = ((self.points.len() as f64) * fraction).round() as usize;
        let keep = keep.clamp(2, self.points.len());
        Trajectory::new(self.points[..keep].to_vec()).resample(samples)
    }

    /// The bounding box diagonal of the trajectory (a scale reference for tests).
    #[must_use]
    pub fn extent(&self) -> f64 {
        let rect = mpn_geom::Rect::bounding(&self.points);
        rect.lo.dist(rect.hi)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Maximum per-timestamp displacement (the effective speed of the trajectory).
    pub(crate) fn longest_step(t: &Trajectory) -> f64 {
        t.points().windows(2).map(|w| w[0].dist(w[1])).fold(0.0, f64::max)
    }

    fn straight_line(n: usize, step: f64) -> Trajectory {
        Trajectory::new((0..n).map(|i| Point::new(i as f64 * step, 0.0)).collect())
    }

    #[test]
    fn basic_accessors() {
        let t = straight_line(11, 2.0);
        assert_eq!(t.len(), 11);
        assert!(!t.is_empty());
        assert_eq!(t.at(0), Point::new(0.0, 0.0));
        assert_eq!(t.at(10), Point::new(20.0, 0.0));
        // Out-of-range timestamps clamp to the last location.
        assert_eq!(t.at(999), Point::new(20.0, 0.0));
        assert!((t.arc_length() - 20.0).abs() < 1e-12);
        assert!((longest_step(&t) - 2.0).abs() < 1e-12);
        assert!((t.mean_step() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two locations")]
    fn single_point_trajectory_is_rejected() {
        let _ = Trajectory::new(vec![Point::ORIGIN]);
    }

    #[test]
    fn resampling_preserves_endpoints_and_spacing() {
        let t = Trajectory::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ]);
        let r = t.resample(21);
        assert_eq!(r.len(), 21);
        assert_eq!(r.at(0), Point::new(0.0, 0.0));
        assert!(r.at(20).dist(Point::new(10.0, 10.0)) < 1e-9);
        // Uniform arc-length spacing: every step is 1.0.
        for w in r.points().windows(2) {
            assert!((w[0].dist(w[1]) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn resampling_a_stationary_trajectory_is_safe() {
        let t = Trajectory::new(vec![Point::new(3.0, 3.0), Point::new(3.0, 3.0)]);
        let r = t.resample(10);
        assert_eq!(r.len(), 10);
        assert!(r.points().iter().all(|p| *p == Point::new(3.0, 3.0)));
        assert_eq!(r.mean_step(), 0.0);
    }

    #[test]
    fn speed_scaling_reduces_the_effective_speed_proportionally() {
        let t = straight_line(1001, 1.0); // speed 1.0 per timestamp
        let full = t.scale_speed(1.0, 1001);
        let half = t.scale_speed(0.5, 1001);
        let quarter = t.scale_speed(0.25, 1001);
        assert!((full.mean_step() - 1.0).abs() < 1e-9);
        assert!((half.mean_step() - 0.5).abs() < 0.01);
        assert!((quarter.mean_step() - 0.25).abs() < 0.01);
        // All scaled trajectories still have the same number of timestamps.
        assert_eq!(half.len(), 1001);
        assert_eq!(quarter.len(), 1001);
        // And they only cover the prefix of the original path.
        assert!(half.extent() <= t.extent() * 0.51);
    }

    #[test]
    fn speed_scaling_clamps_degenerate_fractions() {
        let t = straight_line(100, 1.0);
        let zero = t.scale_speed(0.0, 50);
        assert_eq!(zero.len(), 50);
        assert!(zero.arc_length() <= 1.0 + 1e-9);
        let over = t.scale_speed(5.0, 50);
        assert!((over.arc_length() - t.arc_length()).abs() < 1e-9);
    }

    #[test]
    fn resample_handles_zero_length_segments() {
        let t = Trajectory::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(8.0, 0.0),
        ]);
        let r = t.resample(9);
        assert_eq!(r.len(), 9);
        assert!(r.at(0).dist(Point::new(0.0, 0.0)) < 1e-9);
        assert!(r.at(8).dist(Point::new(8.0, 0.0)) < 1e-9);
        for w in r.points().windows(2) {
            assert!((w[0].dist(w[1]) - 1.0).abs() < 1e-9);
        }
    }
}
