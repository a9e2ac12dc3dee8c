//! Per-group session state threaded through the safe-region computation.
//!
//! The monitoring server of the paper is *stateful*: between two safe-region computations for
//! the same group it keeps the per-user heading predictors feeding the directed tile ordering
//! (Section 5.2) and the last [`Answer`] against which violations are detected.
//! [`SessionState`] bundles exactly that state;
//! [`Method::answer_session`](crate::Method::answer_session) receives it mutably on every
//! update so the state survives across updates.  The §5.4 GNN buffer is not part of it: a
//! buffered computation builds its own, as the paper does.

use mpn_geom::{HeadingPredictor, Point};

use crate::method::Answer;
use crate::Objective;

/// Mutable per-group state owned by the server between safe-region computations.
#[derive(Debug, Clone)]
pub struct SessionState {
    group_size: u32,
    smoothing: f64,
    /// One predictor per user, created by the first [`observe`](SessionState::observe): a
    /// session whose method never reads a heading (Circle) never allocates them.
    predictors: Box<[HeadingPredictor]>,
    last_answer: Option<Answer>,
}

impl SessionState {
    /// Creates the state for a group of `group_size` users.
    ///
    /// `smoothing` is the exponential-smoothing factor of the per-user heading predictors
    /// (the monitoring default is 0.3).
    ///
    /// # Panics
    /// Panics when `group_size` is zero or does not fit a `u32`.
    #[must_use]
    pub fn new(group_size: usize, smoothing: f64) -> Self {
        assert!(group_size > 0, "a session needs at least one user");
        Self {
            group_size: u32::try_from(group_size).expect("group sizes fit u32"),
            smoothing,
            predictors: Box::default(),
            last_answer: None,
        }
    }

    /// Returns `self` unchanged: a benchmark-only shim (ROADMAP item 1).  A session keeps no
    /// §5.4 buffer across updates, whatever `_enabled` says.
    #[must_use]
    pub fn with_persistent_buffers(self, _enabled: bool) -> Self {
        self
    }

    /// Number of users in the group this session tracks.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size as usize
    }

    /// Feeds the users' current locations into the heading predictors.
    ///
    /// Call once per timestamp, *before*
    /// [`Method::answer_session`](crate::Method::answer_session) so the directed ordering sees
    /// up-to-date headings.
    ///
    /// # Panics
    /// Panics when `locations` does not have one entry per user.
    pub fn observe(&mut self, locations: &[Point]) {
        assert_eq!(locations.len(), self.group_size(), "one location per user is required");
        if self.predictors.is_empty() {
            self.predictors = vec![HeadingPredictor::new(self.smoothing); locations.len()].into();
        }
        for (predictor, location) in self.predictors.iter_mut().zip(locations) {
            predictor.observe(*location);
        }
    }

    /// The predicted heading of every user (`None` until a user has moved).
    #[must_use]
    pub fn predicted_headings(&self) -> Vec<Option<f64>> {
        let mut headings: Vec<_> =
            self.predictors.iter().map(HeadingPredictor::predicted).collect();
        headings.resize(self.group_size(), None);
        headings
    }

    /// The answer of the most recent safe-region computation, if any.
    #[must_use]
    pub fn last_answer(&self) -> Option<&Answer> {
        self.last_answer.as_ref()
    }

    /// Whether deleting POI `poi` can break this session's current safe regions.
    ///
    /// Per Definition 3, the regions stay valid as long as the recorded optimum remains the
    /// group's best meeting point everywhere inside them.  Removing a POI can only change
    /// that verdict when the POI is the optimum itself.  Deleting any other POI only removes a
    /// runner-up that was already beaten, so the regions stay sound; the next computation
    /// builds its §5.4 buffer from the world as it is then.
    ///
    /// Sessions without a recorded answer have nothing to invalidate.
    #[must_use]
    pub fn delete_invalidates(&self, poi: usize) -> bool {
        self.last_answer.as_ref().is_some_and(|answer| answer.optimal_index == poi)
    }

    /// Whether inserting a POI at `location` can break this session's current safe regions.
    ///
    /// The insert is dangerous exactly when some placement of the users inside their safe
    /// regions could prefer the new point over the recorded optimum `pᵒ`.  A conservative
    /// (sound) test compares the best case of the new point against the worst case of the
    /// optimum over the regions: if the aggregate of per-region *minimum* distances to
    /// `location` is below the aggregate of per-region *maximum* distances to `pᵒ`, a
    /// breaking placement may exist and the session must recompute.  Any true witness `U*`
    /// inside the regions satisfies `agg_min(q) ≤ agg(q, U*) < agg(pᵒ, U*) ≤ agg_max(pᵒ)`,
    /// so no breaking insert is ever missed.
    #[must_use]
    pub fn insert_invalidates(&self, location: Point, objective: Objective) -> bool {
        let Some(answer) = self.last_answer.as_ref() else {
            return false;
        };
        if answer.regions.is_empty() {
            return false;
        }
        let bounds = answer
            .regions
            .iter()
            .map(|region| (region.min_dist(location), region.max_dist(answer.optimal_point)));
        let (lower_new, upper_opt) = match objective {
            Objective::Max => bounds.fold((f64::NEG_INFINITY, f64::NEG_INFINITY), |acc, b| {
                (acc.0.max(b.0), acc.1.max(b.1))
            }),
            Objective::Sum => bounds.fold((0.0, 0.0), |acc, b| (acc.0 + b.0, acc.1 + b.1)),
        };
        lower_new < upper_opt
    }

    /// Stores the answer of a completed computation and returns a reference to it (called by
    /// [`Method::answer_session`](crate::Method::answer_session)).  Taking the answer by value
    /// avoids cloning the per-user region vectors on every update — the legacy loop kept a
    /// single answer by value, and this sits inside the section whose duration is reported as
    /// the paper's "CPU time per computation".
    pub(crate) fn record_answer(&mut self, answer: Answer) -> &Answer {
        self.last_answer.insert(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_drives_the_heading_predictors() {
        let mut session = SessionState::new(2, 0.5);
        assert_eq!(session.group_size(), 2);
        assert_eq!(session.predicted_headings(), vec![None, None]);
        session.observe(&[Point::new(0.0, 0.0), Point::new(5.0, 5.0)]);
        session.observe(&[Point::new(1.0, 0.0), Point::new(5.0, 6.0)]);
        let headings = session.predicted_headings();
        assert!((headings[0].unwrap() - 0.0).abs() < 1e-12, "user 0 heads east");
        assert!((headings[1].unwrap() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one location per user")]
    fn observe_rejects_wrong_group_size() {
        let mut session = SessionState::new(3, 0.3);
        session.observe(&[Point::ORIGIN]);
    }

    fn answer_with_regions() -> Answer {
        // Optimum is POI 3 at (0, 0); one circular region of radius 1 around each user.
        Answer {
            optimal_index: 3,
            optimal_point: Point::ORIGIN,
            regions: Box::new([
                crate::SafeRegion::Circle(mpn_geom::Circle::new(Point::new(2.0, 0.0), 1.0)),
                crate::SafeRegion::Circle(mpn_geom::Circle::new(Point::new(-2.0, 0.0), 1.0)),
            ]),
        }
    }

    #[test]
    fn delete_invalidates_only_participating_pois() {
        let mut session = SessionState::new(2, 0.3);
        assert!(!session.delete_invalidates(3), "no answer, nothing to invalidate");
        session.record_answer(answer_with_regions());
        assert!(session.delete_invalidates(3), "deleting the optimum breaks the regions");
        assert!(!session.delete_invalidates(99), "a beaten runner-up never breaks them");
    }

    #[test]
    fn insert_invalidates_matches_the_bound_comparison() {
        let mut session = SessionState::new(2, 0.3);
        let far = Point::new(500.0, 500.0);
        assert!(!session.insert_invalidates(far, Objective::Max), "no answer yet");
        session.record_answer(answer_with_regions());
        // Worst case of the optimum over the regions: max distance is 3 per user.
        // A far-away point can never undercut it; a point at the origin always can.
        assert!(!session.insert_invalidates(far, Objective::Max));
        assert!(!session.insert_invalidates(far, Objective::Sum));
        assert!(session.insert_invalidates(Point::ORIGIN, Objective::Max));
        assert!(session.insert_invalidates(Point::ORIGIN, Objective::Sum));
        // The boundary case: min-dist aggregate equal to the max-dist aggregate is safe.
        // For MAX: upper_opt = 3.0; a candidate whose closest approach is exactly 3.0 from
        // both regions (e.g. (6, 0): min dist to the right region is 3.0, to the left 7.0)
        // yields lower_new = 7.0 > 3.0 → safe.
        assert!(!session.insert_invalidates(Point::new(6.0, 0.0), Objective::Max));
    }
}
