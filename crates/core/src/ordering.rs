//! Tile orderings: the `Next-Tile` policy of Tile-MSR (Section 5.2, Fig. 8).
//!
//! Tile-MSR browses candidate tiles around each user in concentric square layers.  The
//! *undirected* ordering visits every tile of a layer in counter-clockwise order; the
//! *directed* ordering additionally skips tiles whose direction from the user deviates from her
//! predicted travel heading by more than `θ`, concentrating the tile budget on the locations
//! the user is likely to visit next.
//!
//! A layer is only entered when at least one tile of the previous layer was accepted into the
//! safe region — otherwise no farther tile can be valid either and the stream terminates.

use mpn_geom::angle_diff;

use crate::region::TileCell;

/// The ordering policy used by `Next-Tile`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TileOrdering {
    /// Visit every tile of each layer (counter-clockwise), regardless of travel direction.
    #[default]
    Undirected,
    /// Only visit tiles whose subtended angle at the user deviates from the predicted heading
    /// by at most `theta` radians.  Falls back to the undirected ordering for users whose
    /// heading is unknown.
    Directed {
        /// Maximum angular deviation from the predicted heading, in radians.
        theta: f64,
    },
}

/// Stateful tile stream for one user: yields level-0 grid cells layer by layer.
#[derive(Debug, Clone)]
pub struct TileStream {
    ordering: TileOrdering,
    heading: Option<f64>,
    layer: i32,
    queue: Vec<TileCell>,
    cursor: usize,
    accepted_in_layer: bool,
    exhausted: bool,
    /// Hard cap on the layer index so a stream can never run unboundedly even if the caller
    /// keeps accepting tiles (Algorithm 3 already bounds iterations by `α`).
    max_layer: i32,
}

impl TileStream {
    /// Creates a stream for one user.
    ///
    /// `heading` is the user's predicted travel direction (radians); it is only consulted by
    /// the directed ordering.
    #[must_use]
    pub fn new(ordering: TileOrdering, heading: Option<f64>, max_layer: i32) -> Self {
        let mut stream = Self {
            ordering,
            heading,
            layer: 0,
            queue: Vec::new(),
            cursor: 0,
            accepted_in_layer: true, // allow entering layer 1
            exhausted: false,
            max_layer: max_layer.max(1),
        };
        stream.advance_layer();
        stream
    }

    /// The next candidate cell, or `None` when the stream is exhausted.
    pub fn next_cell(&mut self) -> Option<TileCell> {
        loop {
            if self.exhausted {
                return None;
            }
            if self.cursor < self.queue.len() {
                let cell = self.queue[self.cursor];
                self.cursor += 1;
                return Some(cell);
            }
            // Layer finished: only continue outward if something in it was accepted.
            if self.accepted_in_layer && self.layer < self.max_layer {
                self.advance_layer();
            } else {
                self.exhausted = true;
            }
        }
    }

    /// Tells the stream that the most recently returned cell (or one of its sub-tiles) was
    /// accepted into the safe region, unlocking the next layer.
    pub fn mark_accepted(&mut self) {
        self.accepted_in_layer = true;
    }

    fn advance_layer(&mut self) {
        self.layer += 1;
        self.accepted_in_layer = false;
        self.cursor = 0;
        self.queue = ring_cells(self.layer);
        if let (TileOrdering::Directed { theta }, Some(heading)) = (self.ordering, self.heading) {
            self.queue.retain(|cell| {
                let dir = f64::from(cell.iy).atan2(f64::from(cell.ix));
                angle_diff(dir, heading) <= theta + 1e-12
            });
            if self.queue.is_empty() {
                // A degenerate θ admits no tile in this layer; keep the closest-by-angle tile
                // so the stream still makes progress in the travel direction.
                let mut ring = ring_cells(self.layer);
                ring.sort_by(|a, b| {
                    let da = angle_diff(f64::from(a.iy).atan2(f64::from(a.ix)), heading);
                    let db = angle_diff(f64::from(b.iy).atan2(f64::from(b.ix)), heading);
                    da.total_cmp(&db)
                });
                self.queue = ring.into_iter().take(1).collect();
            }
        }
    }
}

/// The level-0 cells whose Chebyshev distance from the seed cell is exactly `layer`,
/// in counter-clockwise order starting from the east (positive x) direction.
#[must_use]
pub fn ring_cells(layer: i32) -> Vec<TileCell> {
    assert!(layer >= 1, "ring_cells is defined for layers >= 1");
    let k = layer;
    // Counter-clockwise order starting from the east direction (angle 0), matching Fig. 8: a
    // ray from the seed meets the ring once, so walking its sides in turn is the angle order.
    let east = (0..k).map(|iy| (k, iy));
    let north = (1 - k..=k).rev().map(|ix| (ix, k));
    let west = (1 - k..=k).rev().map(|iy| (-k, iy));
    let south = (-k..k).map(|ix| (ix, -k));
    let south_east = (-k..0).map(|iy| (k, iy));
    let sides = east.chain(north).chain(west).chain(south).chain(south_east);
    sides.map(|(ix, iy)| TileCell::new(0, ix, iy)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ring_has_8k_distinct_cells_at_chebyshev_distance_k() {
        for k in 1..=4 {
            let ring = ring_cells(k);
            assert_eq!(ring.len(), (8 * k) as usize);
            let unique: HashSet<_> = ring.iter().map(|c| (c.ix, c.iy)).collect();
            assert_eq!(unique.len(), ring.len(), "cells must be distinct");
            for c in &ring {
                assert_eq!(c.ix.abs().max(c.iy.abs()), k);
                assert_eq!(c.level, 0);
            }
        }
    }

    #[test]
    fn undirected_stream_covers_layer_one_then_stops_without_acceptance() {
        let mut s = TileStream::new(TileOrdering::Undirected, None, 100);
        let mut seen = Vec::new();
        while let Some(c) = s.next_cell() {
            seen.push(c);
        }
        // No acceptance was ever reported, so only the first layer is produced.
        assert_eq!(seen.len(), 8);
        assert!(s.next_cell().is_none());
    }

    #[test]
    fn acceptance_unlocks_the_next_layer() {
        let mut s = TileStream::new(TileOrdering::Undirected, None, 100);
        let mut count = 0;
        for _ in 0..8 {
            assert!(s.next_cell().is_some());
            count += 1;
        }
        s.mark_accepted();
        // The stream now serves layer 2 (16 cells).
        let mut layer2 = 0;
        while let Some(c) = s.next_cell() {
            assert_eq!(c.ix.abs().max(c.iy.abs()), 2);
            layer2 += 1;
        }
        assert_eq!(layer2, 16);
        assert_eq!(count, 8);
    }

    #[test]
    fn directed_stream_filters_by_heading() {
        // Heading east with a 45° cone: layer-1 cells allowed are (1,0), (1,1), (1,-1).
        let mut s = TileStream::new(
            TileOrdering::Directed { theta: std::f64::consts::FRAC_PI_4 },
            Some(0.0),
            100,
        );
        let mut cells = Vec::new();
        while let Some(c) = s.next_cell() {
            cells.push((c.ix, c.iy));
        }
        assert_eq!(cells.len(), 3);
        assert!(cells.contains(&(1, 0)));
        assert!(cells.contains(&(1, 1)));
        assert!(cells.contains(&(1, -1)));
    }

    #[test]
    fn directed_stream_without_heading_behaves_like_undirected() {
        let mut directed = TileStream::new(
            TileOrdering::Directed { theta: std::f64::consts::FRAC_PI_4 },
            None,
            100,
        );
        let mut count = 0;
        while directed.next_cell().is_some() {
            count += 1;
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn directed_stream_with_tiny_theta_still_progresses() {
        let mut s = TileStream::new(TileOrdering::Directed { theta: 1e-6 }, Some(0.3), 100);
        // Even though no layer-1 cell centre lies within 1e-6 rad of heading 0.3, the stream
        // keeps the angularly-closest tile so monitoring in the travel direction continues.
        let first = s.next_cell().unwrap();
        assert_eq!((first.ix, first.iy), (1, 0));
    }

    #[test]
    fn max_layer_caps_the_stream() {
        let mut s = TileStream::new(TileOrdering::Undirected, None, 2);
        let mut total = 0;
        while s.next_cell().is_some() {
            total += 1;
            s.mark_accepted();
        }
        assert_eq!(total, 8 + 16);
    }

    #[test]
    #[should_panic(expected = "layers >= 1")]
    fn ring_zero_panics() {
        let _ = ring_cells(0);
    }
}
