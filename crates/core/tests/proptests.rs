//! Property-based tests of the Tile-MSR building blocks that `mpn-core` exposes: a tile's
//! geometry, the quad subdivision of Divide-Verify (Algorithm 2) and the §5.4 buffer's
//! constant-time questions.

use mpn_core::{BufferSet, Objective, TileCell, TileFrame, TileRegion, SPLIT_LEVEL};
use mpn_geom::{DistanceBounds, Point, Rect};
use mpn_index::RTree;
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

/// The tile of `cell` and its area as the retired centre / half-side tile type computed
/// them: the centre half a side past the cell's lower-left corner, the half side clamped at
/// zero, the box centre ∓ half, and the area `(2·half)²`.
fn retired_tile(frame: TileFrame, cell: TileCell) -> (Rect, f64) {
    let side = frame.side_at(cell.level);
    let lo = Point::new(
        frame.origin.x + side * f64::from(cell.ix),
        frame.origin.y + side * f64::from(cell.iy),
    );
    let center = Point::new(lo.x + side / 2.0, lo.y + side / 2.0);
    let half = (side / 2.0).max(0.0);
    let rect = Rect::new(
        Point::new(center.x - half, center.y - half),
        Point::new(center.x + half, center.y + half),
    );
    (rect, (2.0 * half) * (2.0 * half))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `TileFrame::tile` rounds exactly as the retired centre / half-side expression did (a
    // tile built as `lo .. lo + side` does not), so every distance, containment test and
    // verifier decision reads the same bits; `TileRegion::area` sums the same `(2·half)²`.
    // Frames: arbitrary, Tile-MSR's `f32`-snapped seeds, and δ = 0; cells from level 0 past
    // `SPLIT_LEVEL`.
    #[test]
    fn tiles_round_as_the_retired_centre_and_half_side(
        center in pt(), delta in 0.0f64..60.0, kind in 0usize..4,
        cells in proptest::collection::vec((0u32..SPLIT_LEVEL + 4, -40i32..40, -40i32..40), 1..24),
    ) {
        let frame = match kind {
            0 => TileFrame::seed(center, delta),
            1 => TileFrame::seed(center, 0.0),
            2 => TileFrame { origin: center, delta: 0.0 },
            _ => TileFrame { origin: center, delta },
        };
        let mut region = TileRegion::new(frame);
        for &(level, ix, iy) in &cells {
            let cell = TileCell::new(u8::try_from(level).expect("a small level"), ix, iy);
            let (want, _) = retired_tile(frame, cell);
            let got = frame.tile(cell);
            let bits = |r: Rect| [r.lo.x, r.lo.y, r.hi.x, r.hi.y].map(f64::to_bits);
            prop_assert_eq!(bits(got), bits(want), "{:?} in {:?}", cell, frame);
            region.push(cell);
        }
        let area: f64 = region.cells().iter().map(|&cell| retired_tile(frame, cell).1).sum();
        prop_assert_eq!(region.area().to_bits(), area.to_bits());
    }

    // The subdivision Divide-Verify applies, `TileFrame::tile` of `TileCell::children`: the
    // minimum (maximum) distance to the parent tile equals the min (max) over its children.
    #[test]
    fn square_subdivision_partitions_distance_bounds(
        origin in pt(), delta in 0.01f64..40.0, level in 0u32..3, ix in -4i32..4, iy in -4i32..4,
        p in pt()
    ) {
        let frame = TileFrame { origin, delta };
        let parent = TileCell::new(level as u8, ix, iy);
        let (s, kids) = (frame.tile(parent), parent.children().map(|c| frame.tile(c)));
        let kid_min = kids.iter().map(|k| k.min_dist(p)).fold(f64::INFINITY, f64::min);
        let kid_max = kids.iter().map(|k| k.max_dist(p)).fold(0.0f64, f64::max);
        prop_assert!((kid_min - s.min_dist(p)).abs() < 1e-9);
        prop_assert!((kid_max - s.max_dist(p)).abs() < 1e-9);
    }

    // `covers` and `in_prefix` answer, each with one comparison, what `slot_for` and
    // `candidates` answer with a search: whether a slot covers `dist`, and whether the k-th
    // candidate is in that slot's prefix.  A lone user at the origin and POIs at whole
    // distances on the four axes make every threshold β_z = (d_z − d_0)/2 an exact `f64`, so
    // the probes hit runs of equal β, each β exactly, values between and above β_b, with
    // ladders shorter than `b` (fewer POIs than b + 1) and b = 1.
    #[test]
    fn in_prefix_is_membership_in_the_covering_slots_candidates(
        dists in proptest::collection::vec(1u32..10, 1..14),
        b in 1usize..16,
        sum in 0usize..2,
        extra in proptest::collection::vec(-1.0f64..12.0, 0..6),
    ) {
        let pois: Vec<Point> = dists
            .iter()
            .enumerate()
            .map(|(k, &d)| {
                let d = f64::from(d);
                [Point::new(d, 0.0), Point::new(0.0, d), Point::new(-d, 0.0), Point::new(0.0, -d)]
                    [k % 4]
            })
            .collect();
        let objective = if sum == 1 { Objective::Sum } else { Objective::Max };
        let buffer = BufferSet::build(&RTree::bulk_load(&pois), &[Point::ORIGIN], objective, b);
        let mut sorted: Vec<f64> = dists.iter().map(|&d| f64::from(d)).collect();
        sorted.sort_by(f64::total_cmp);
        let betas: Vec<f64> =
            sorted.iter().skip(1).take(b).map(|d| (d - sorted[0]) / 2.0).collect();
        prop_assert_eq!(buffer.slots(), betas.len());

        let mut probes = vec![0.0, -0.0, f64::INFINITY];
        for beta in &betas {
            probes.extend([*beta, beta - 0.25, beta + 0.25]);
        }
        probes.extend(extra);
        for dist in probes {
            let below = betas.iter().filter(|beta| **beta < dist).count();
            let slot = buffer.slot_for(dist);
            prop_assert_eq!(slot, (below < betas.len()).then_some(below + 1), "dist {}", dist);
            prop_assert_eq!(buffer.covers(dist), slot.is_some(), "dist {}", dist);
            if let Some(slot) = slot {
                let prefix = buffer.candidates(slot).len();
                for k in 0..=buffer.slots() {
                    let member = k < prefix;
                    prop_assert_eq!(buffer.in_prefix(k, dist), member, "k {}, dist {}", k, dist);
                }
            }
        }
    }
}

// The §5.2 rings are walked side by side; the order must be the one sorting the ring's cells
// by their angle from the east direction gave.
#[test]
fn ring_cells_are_in_angle_order_from_the_east() {
    for k in 1..=40 {
        let mut sorted: Vec<TileCell> = (-k..=k)
            .flat_map(|ix| (-k..=k).map(move |iy| TileCell::new(0, ix, iy)))
            .filter(|c| c.ix.abs().max(c.iy.abs()) == k)
            .collect();
        let angle = |c: &TileCell| {
            f64::from(c.iy).atan2(f64::from(c.ix)).rem_euclid(2.0 * std::f64::consts::PI)
        };
        sorted.sort_by(|a, b| angle(a).total_cmp(&angle(b)));
        assert_eq!(mpn_core::ordering::ring_cells(k), sorted, "ring {k}");
    }
}
