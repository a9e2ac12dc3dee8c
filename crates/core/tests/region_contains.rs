//! The exit check of a stored tile region against the per-cell reference it replaced.
//!
//! `TileRegion::contains` runs on every report of a tile group.  It used to map each cell to
//! its centre and half side with the side divided by `2^level` and ask whether the box
//! centre ∓ half contains the point; it now multiplies by the exact power of two and, for a
//! finite side, compares the same bounds without ordering them as `TileFrame::tile` does.  The
//! reference below is that retired path, kept only here: every decision must match it, on
//! tile edges and corners too, for any frame, finite or not.

use mpn_core::{TileCell, TileFrame, TileRegion};
use mpn_geom::{DistanceBounds, Point, Rect};
use proptest::prelude::*;

/// The centre, half side and box of `cell`'s tile as they were built with a division by
/// `2^level`: the centre half a side past the lower-left corner, the half side clamped at
/// zero, the box centre ∓ half.
fn square_by_division(frame: TileFrame, cell: TileCell) -> (Point, f64, Rect) {
    let side = frame.delta / f64::from(1u32 << u32::from(cell.level));
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
    (center, half, rect)
}

/// The retired exit check: any cell's reference square contains the point.
fn contains_by_division(region: &TileRegion, p: Point) -> bool {
    region.cells().iter().any(|&cell| square_by_division(region.frame(), cell).2.contains(p))
}

/// A tile side from its selector: one of the values a division and a product could round
/// apart on (zero, subnormal, huge, negative, infinite, NaN), else an ordinary positive side.
fn delta_of(pick: usize, ordinary: f64) -> f64 {
    const ODD: [f64; 8] = [0.0, -0.0, 5e-324, 1e-310, 1e300, -3.0, f64::INFINITY, f64::NAN];
    ODD.get(pick).copied().unwrap_or(ordinary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // The side is the same `f64` as the division gave, for any bit pattern of `δ`.
    #[test]
    fn side_at_rounds_like_the_division(bits in 0u64..u64::MAX, level in 0u32..32) {
        let frame = TileFrame { origin: Point::ORIGIN, delta: f64::from_bits(bits) };
        let side = frame.side_at(u8::try_from(level).expect("below 32"));
        let divided = frame.delta / f64::from(1u32 << level);
        prop_assert!(side.to_bits() == divided.to_bits() || (side.is_nan() && divided.is_nan()));
    }

    // Every decision of `contains` is the reference's, at points drawn around the region and
    // at the exact corners and edge midpoints of its reference tiles.
    #[test]
    fn contains_decides_like_the_per_cell_squares(
        frame in (-1_000.0f64..1_000.0, -1_000.0f64..1_000.0, 0usize..24, 0.01f64..50.0),
        cells in proptest::collection::vec((0u32..6, -12i32..12, -12i32..12), 1..40),
        probes in proptest::collection::vec((-1.5f64..1.5, -1.5f64..1.5, 0usize..10, 0usize..40), 24),
    ) {
        let (ox, oy, pick, ordinary) = frame;
        let frame = TileFrame { origin: Point::new(ox, oy), delta: delta_of(pick, ordinary) };
        let mut region = TileRegion::new(frame);
        for &(level, ix, iy) in &cells {
            let level = u8::try_from(level).expect("below 6");
            region.push(TileCell::new(level, ix >> (5 - level), iy >> (5 - level)));
        }
        let span = 12.0 * ordinary;
        for &(u, v, on, which) in &probes {
            let (center, half, tile) =
                square_by_division(frame, region.cells()[which % region.len()]);
            let [lo_left, lo_right, hi_right, hi_left] = tile.corners();
            let p = match on {
                0 => lo_left,
                1 => lo_right,
                2 => hi_right,
                3 => hi_left,
                4 => Point::new(center.x + half, center.y + u * half),
                5 => Point::new(center.x + u * half, center.y - half),
                6 => center,
                _ => Point::new(ox + u * span, oy + v * span),
            };
            prop_assert_eq!(region.contains(p), contains_by_division(&region, p));
            let nudged = Point::new(p.x.next_up(), p.y.next_down());
            prop_assert_eq!(region.contains(nudged), contains_by_division(&region, nudged));
        }
    }
}
