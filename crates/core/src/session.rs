//! Per-group session state threaded through the safe-region engines.
//!
//! The monitoring server of the paper is *stateful*: between two safe-region computations for
//! the same group it keeps the per-user heading predictors feeding the directed tile ordering
//! (Section 5.2), the §5.4 GNN buffer so its prefix ladder can be reused instead of rebuilt,
//! and the last [`Answer`] against which violations are detected.  [`SessionState`] bundles
//! exactly that state; a [`SafeRegionEngine`](crate::engine::SafeRegionEngine) receives it
//! mutably on every [`compute`](crate::engine::SafeRegionEngine::compute) so the state
//! survives across updates instead of being rebuilt from scratch.

use mpn_geom::{HeadingPredictor, Point};

use crate::server::Answer;
use crate::tile::BufferCache;
use crate::Objective;

/// Mutable per-group state owned by the server between safe-region computations.
#[derive(Debug, Clone)]
pub struct SessionState {
    group_size: usize,
    smoothing: f64,
    /// One predictor per user, created by the first [`observe`](SessionState::observe): a
    /// session whose method never reads a heading (Circle) never allocates them.
    predictors: Vec<HeadingPredictor>,
    persist_buffers: bool,
    /// The §5.4 buffer, boxed: only a Tile-D-b session with persistent buffers ever fills it.
    buffer: Option<Box<BufferCache>>,
    last_answer: Option<Answer>,
    /// [`IndexView::generation`](mpn_index::IndexView::generation) of the POI content the
    /// last answer was computed against (meaningless without one), used by the world-change
    /// invalidation pass.
    answer_generation: u64,
}

impl SessionState {
    /// Creates the state for a group of `group_size` users.
    ///
    /// `smoothing` is the exponential-smoothing factor of the per-user heading predictors
    /// (the monitoring default is 0.3).
    ///
    /// # Panics
    /// Panics when `group_size` is zero.
    #[must_use]
    pub fn new(group_size: usize, smoothing: f64) -> Self {
        assert!(group_size > 0, "a session needs at least one user");
        Self {
            group_size,
            smoothing,
            predictors: Vec::new(),
            persist_buffers: false,
            buffer: None,
            last_answer: None,
            answer_generation: 0,
        }
    }

    /// Enables or disables reuse of the §5.4 GNN buffer across updates.
    ///
    /// Disabled (the default), every tile computation rebuilds its buffer exactly like the
    /// stateless one-shot API, which keeps legacy monitoring runs bit-identical.  Enabled, the
    /// engine keeps the buffer alive between updates and only rebuilds it when the optimal
    /// meeting point moves or the group strays too far from the buffer's anchor locations,
    /// trading slightly smaller safe regions for roughly half the R-tree queries per update.
    #[must_use]
    pub fn with_persistent_buffers(mut self, enabled: bool) -> Self {
        self.persist_buffers = enabled;
        self
    }

    /// Number of users in the group this session tracks.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Feeds the users' current locations into the heading predictors.
    ///
    /// Call once per timestamp, *before*
    /// [`SafeRegionEngine::compute`](crate::engine::SafeRegionEngine::compute) so the directed
    /// ordering sees up-to-date headings.
    ///
    /// # Panics
    /// Panics when `locations` does not have one entry per user.
    pub fn observe(&mut self, locations: &[Point]) {
        assert_eq!(locations.len(), self.group_size, "one location per user is required");
        if self.predictors.is_empty() {
            self.predictors = vec![HeadingPredictor::new(self.smoothing); self.group_size];
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
        headings.resize(self.group_size, None);
        headings
    }

    /// The answer of the most recent safe-region computation, if any.
    #[must_use]
    pub fn last_answer(&self) -> Option<&Answer> {
        self.last_answer.as_ref()
    }

    /// Whether a buffered prefix is currently cached.
    #[must_use]
    pub fn has_cached_buffer(&self) -> bool {
        self.buffer.is_some()
    }

    /// The world generation the last answer was computed against, `None` before the first
    /// computation.
    #[must_use]
    pub fn answer_generation(&self) -> Option<u64> {
        self.last_answer.as_ref().map(|_| self.answer_generation)
    }

    /// Whether deleting POI `poi` can break this session's current safe regions.
    ///
    /// Per Definition 3, the regions stay valid as long as the recorded optimum remains the
    /// group's best meeting point everywhere inside them.  Removing a POI can only change
    /// that verdict when the POI *participates* in the answer: it is the optimum itself, or
    /// it sits in the cached §5.4 GNN buffer whose prefix ladder the next verification would
    /// consult.  Deleting any other POI only removes a runner-up that was already beaten, so
    /// the regions — and the cached buffer thresholds, which remain conservative when a
    /// competitor disappears — stay sound.
    ///
    /// Sessions without a recorded answer have nothing to invalidate.
    #[must_use]
    pub fn delete_invalidates(&self, poi: usize) -> bool {
        let Some(answer) = self.last_answer.as_ref() else {
            return false;
        };
        answer.optimal_index == poi
            || self.buffer.as_ref().is_some_and(|cache| cache.references(poi))
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
    /// the engines).  Taking the answer by value avoids cloning the per-user region vectors
    /// on every update — the legacy loop kept a single answer by value, and this sits inside
    /// the section whose duration is reported as the paper's "CPU time per computation".
    /// `generation` stamps which world content the answer is valid for.
    pub(crate) fn record_answer(&mut self, answer: Answer, generation: u64) -> &Answer {
        self.answer_generation = generation;
        self.last_answer.insert(answer)
    }

    /// The persistent buffer slot, or `None` when persistence is disabled.
    ///
    /// Engines pass the inner slot to the cache-aware tile computation.
    pub(crate) fn buffer_slot_mut(&mut self) -> Option<&mut Option<Box<BufferCache>>> {
        self.persist_buffers.then_some(&mut self.buffer)
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
            regions: vec![
                crate::SafeRegion::Circle(mpn_geom::Circle::new(Point::new(2.0, 0.0), 1.0)),
                crate::SafeRegion::Circle(mpn_geom::Circle::new(Point::new(-2.0, 0.0), 1.0)),
            ],
            optimal_dist: 2.0,
            stats: crate::ComputeStats::default(),
        }
    }

    #[test]
    fn delete_invalidates_only_participating_pois() {
        let mut session = SessionState::new(2, 0.3);
        assert!(!session.delete_invalidates(3), "no answer, nothing to invalidate");
        session.record_answer(answer_with_regions(), 1);
        assert!(session.delete_invalidates(3), "deleting the optimum breaks the regions");
        assert!(!session.delete_invalidates(99), "a beaten runner-up never breaks them");
    }

    #[test]
    fn insert_invalidates_matches_the_bound_comparison() {
        let mut session = SessionState::new(2, 0.3);
        let far = Point::new(500.0, 500.0);
        assert!(!session.insert_invalidates(far, Objective::Max), "no answer yet");
        session.record_answer(answer_with_regions(), 1);
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

    #[test]
    fn buffer_slot_respects_the_persistence_flag() {
        let mut off = SessionState::new(1, 0.3);
        assert!(off.buffer_slot_mut().is_none());
        let mut on = SessionState::new(1, 0.3).with_persistent_buffers(true);
        assert!(on.buffer_slot_mut().is_some());
        assert!(!on.has_cached_buffer());
    }
}
