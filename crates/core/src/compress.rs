//! The §7.1 packet model, and the lossless tile-region compression that is sent.
//!
//! Section 7 counts communication in TCP packets of 67 double-precision values (576-byte MTU
//! minus a 40-byte header).  A plain tile costs 3 values; the paper ships tile regions
//! losslessly compressed instead, and its model ([`region_value_count`]) charges the shared
//! frame once and 32 bits per tile — level plus integer offsets, two tiles per value.
//!
//! What `mpn-proto` sends is the **step stream** of [`encode_cells`]: Tile-MSR emits cells
//! ring by ring and child by child, so consecutive cells are almost always neighbours at the
//! new cell's level, and one byte per tile — a level and a small step from the previous cell —
//! is enough.  [`decode_cells`] reproduces the cells exactly and in order, whatever their
//! level or coordinates, and the model's 4 bytes a tile bound the real bytes from above.
//! Its counts and escaped coordinates are [`put_varint`]s, the one varint of the workspace:
//! `mpn-proto`'s codec sends its ids and counts the same way.

use crate::region::{SafeRegion, TileCell};

/// Number of payload doubles that fit into one TCP packet (§7.1): `(576 − 40) / 8 = 67`.
pub const VALUES_PER_PACKET: usize = 67;

/// Highest subdivision level a tile cell may carry.  Real regions never exceed a handful of
/// levels (the §7.1 model caps at 15), so 31 rejects corrupt streams without ever refusing a
/// region Tile-MSR can produce.
pub const MAX_TILE_LEVEL: u8 = 31;

/// Token that announces a cell spelled out in full: `level: u8`, then `ix` and `iy` as
/// zig-zag varints.  Its level bits (3) are the one value a step token never carries.
const ESCAPE: u8 = 0xC0;

/// Appends `cells` to `out` as a step stream: a varint count, then per cell one byte
/// `[level:2 | dx+4:3 | dy+4:3]`, where `(dx, dy)` is the cell's offset from the previous
/// cell rescaled to the new cell's level (the first cell steps from [`TileCell::SEED`]).
/// A level above 2 or a step outside `-4..=3` is an `ESCAPE` followed by the whole cell.
pub fn encode_cells(cells: &[TileCell], out: &mut Vec<u8>) {
    put_varint(out, cells.len() as u64);
    let mut prev = TileCell::SEED;
    for &cell in cells {
        let step = (cell.level < 3)
            .then(|| rescale(prev, cell.level))
            .map(|(x, y)| (i64::from(cell.ix) - x + 4, i64::from(cell.iy) - y + 4))
            .filter(|(dx, dy)| (0..8).contains(dx) && (0..8).contains(dy));
        if let Some((dx, dy)) = step {
            out.push((cell.level << 6) | ((dx as u8) << 3) | dy as u8);
        } else {
            out.extend([ESCAPE, cell.level]);
            for v in [cell.ix, cell.iy] {
                put_varint(out, u64::from(((v << 1) ^ (v >> 31)) as u32));
            }
        }
        prev = cell;
    }
}

/// Decodes a step stream off the front of `bytes` (exact inverse of [`encode_cells`]): the
/// cells in their original order and the number of bytes consumed.  Never panics, and a
/// lying count is bounded by the remaining input, at one byte a token, before anything is
/// reserved.  Duplicate cells are the caller's to reject ([`crate::TileRegion::from_cells`]);
/// any other fault is named, in the words of the codec's `Malformed` error.
pub fn decode_cells(bytes: &[u8]) -> Result<(Vec<TileCell>, usize), &'static str> {
    let mut rest = bytes;
    let count = usize::try_from(varint(&mut rest)?)
        .ok()
        .filter(|&count| count <= rest.len())
        .ok_or("tile count exceeds the payload")?;
    let mut cells = Vec::with_capacity(count);
    let mut prev = TileCell::SEED;
    for _ in 0..count {
        let token = byte(&mut rest)?;
        let level = token >> 6;
        prev = if level < 3 {
            let (x, y) = rescale(prev, level);
            let step = |from: i64, bits: u8| i32::try_from(from + i64::from(bits & 7) - 4);
            let (Ok(ix), Ok(iy)) = (step(x, token >> 3), step(y, token)) else {
                return Err("tile step leaves the i32 grid");
            };
            TileCell::new(level, ix, iy)
        } else if token != ESCAPE {
            return Err("unknown tile escape byte");
        } else {
            let level = byte(&mut rest)?;
            if level > MAX_TILE_LEVEL {
                return Err("tile level out of range");
            }
            let mut coordinate = || {
                let v =
                    u32::try_from(varint(&mut rest)?).map_err(|_| "tile coordinate exceeds u32")?;
                Ok::<_, &'static str>((v >> 1) as i32 ^ -((v & 1) as i32))
            };
            TileCell::new(level, coordinate()?, coordinate()?)
        };
        cells.push(prev);
    }
    Ok((cells, bytes.len() - rest.len()))
}

/// Grid coordinates of `from` at `level` < 3: doubled per level down, floor-halved per level
/// up (in `i64`, where neither shift can lose a bit of an `i32`).
fn rescale(from: TileCell, level: u8) -> (i64, i64) {
    let at = |v: i32| (i64::from(v) << level) >> from.level.min(63);
    (at(from.ix), at(from.iy))
}

/// Appends `v` as a little-endian base-128 varint (LEB128): seven bits a byte, the high bit
/// set on every byte but the last — one byte below 128, ten at most.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn byte(rest: &mut &[u8]) -> Result<u8, &'static str> {
    let (&first, tail) = rest.split_first().ok_or("truncated payload")?;
    *rest = tail;
    Ok(first)
}

/// Reads a [`put_varint`] off the front of `rest`, canonical form only: at most ten bytes,
/// nothing above bit 63, no trailing zero group.  Errors in the codec's `Malformed` words.
pub fn varint(rest: &mut &[u8]) -> Result<u64, &'static str> {
    let mut value = 0;
    for shift in (0..64).step_by(7) {
        let b = byte(rest)?;
        if (shift == 63 && b > 0x01) || (shift > 0 && b == 0) {
            break;
        }
        value |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return Ok(value);
        }
    }
    Err("varint is over-long or exceeds u64")
}

/// Number of packets needed to transmit `values` double-precision values.
#[must_use]
pub fn packets_for_values(values: usize) -> usize {
    values.div_ceil(VALUES_PER_PACKET).max(usize::from(values > 0))
}

/// Number of §7.1 payload values needed to ship a safe region to a client: 3 per circle,
/// 3 per plain tile, or — when `compress` is set (the paper's default) — a 4-value header
/// (origin x/y, `δ`, tile count) plus one value per pair of tiles: 4 bits of level and 14 per
/// signed coordinate each.
///
/// This is the single definition of the region payload in the §7.1 cost model — the
/// simulation's message accounting and the `mpn-proto` wire accounting are both pinned to it
/// (`tests/proto_parity.rs`).  Cells outside those 32 bits cannot occur with the default
/// parameters (α ≤ 8191, L ≤ 15); if they do, the plain encoding is charged rather than
/// undercounting.
#[must_use]
pub fn region_value_count(region: &SafeRegion, compress: bool) -> usize {
    let packs =
        |c: &TileCell| c.level < 16 && c.ix.max(c.iy) < 1 << 13 && c.ix.min(c.iy) >= -(1 << 13);
    match region {
        SafeRegion::Circle(_) => 3,
        SafeRegion::Tiles(tiles) if compress && tiles.cells().iter().all(packs) => {
            4 + tiles.len().div_ceil(2)
        }
        SafeRegion::Tiles(tiles) => 3 * tiles.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{TileFrame, TileRegion};
    use mpn_geom::Point;

    fn sample_region() -> TileRegion {
        let cells =
            [(0, 1, 0), (0, -1, 2), (1, 3, -2), (2, -5, 7), (3, 11, 11), (0, 4, -4), (1, 0, 5)];
        let mut r = TileRegion::with_seed(TileFrame::centered_at(Point::new(3.0, -2.0), 1.5));
        cells.into_iter().for_each(|(level, ix, iy)| r.push(TileCell::new(level, ix, iy)));
        r
    }

    /// The stream of `cells`, after checking that it decodes back to them.
    fn encoded(cells: &[TileCell]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_cells(cells, &mut out);
        assert_eq!(decode_cells(&out), Ok((cells.to_vec(), out.len())));
        out
    }

    #[test]
    fn round_trip_is_lossless() {
        let region = sample_region();
        let (cells, _) = decode_cells(&encoded(region.cells())).unwrap();
        assert_eq!(TileRegion::from_cells(region.frame(), cells), Some(region));
    }

    #[test]
    fn pack_unpack_covers_negative_coordinates_and_levels() {
        encoded(&[
            TileCell::new(15, 8191, -8192),
            TileCell::new(7, -1, 1),
            TileCell::new(2, -100, 100),
            TileCell::new(MAX_TILE_LEVEL, i32::MIN, i32::MAX),
            TileCell::new(0, -1, 0),
            TileCell::new(MAX_TILE_LEVEL, i32::MAX, i32::MIN),
        ]);
        // A parent's neighbour, its four children, a grandchild, and back up two levels: one
        // byte each after the one-byte count.
        let mut near = vec![TileCell::new(0, 1, 0)];
        near.extend(TileCell::new(0, 1, 1).children());
        near.extend([TileCell::new(2, 7, 4), TileCell::new(0, -2, -1)]);
        assert_eq!(encoded(&near).len(), 1 + near.len());
        // One step further than a token reaches, or one level deeper, is an escape.
        for far in [TileCell::new(0, 4, 0), TileCell::new(0, 0, -5), TileCell::new(3, 0, 0)] {
            assert_eq!(encoded(&[far])[1], ESCAPE);
        }
    }

    #[test]
    fn out_of_range_cells_are_rejected() {
        // By the §7.1 model: one cell its 32 bits cannot hold and the region is charged plain.
        let count =
            |region: TileRegion| region_value_count(&SafeRegion::Tiles(Box::new(region)), true);
        let mut region = sample_region();
        region.push(TileCell::new(15, 8191, -8192));
        assert_eq!(count(region), 4 + 9_usize.div_ceil(2));
        for cell in [TileCell::new(16, 0, 0), TileCell::new(0, 8192, 0), TileCell::new(0, 0, -8193)]
        {
            let mut region = sample_region();
            region.push(cell);
            assert_eq!(count(region), 3 * 9);
        }
    }

    #[test]
    fn compression_beats_the_plain_representation() {
        let region = sample_region();
        let n = region.len();
        assert!(encoded(region.cells()).len() < 4 * n, "under the model's 32 bits a tile");
        let values = region_value_count(&SafeRegion::Tiles(Box::new(region)), true);
        assert!(values == 4 + n.div_ceil(2) && values < 3 * n, "{values} values for {n} tiles");
    }

    #[test]
    fn packet_counts_follow_the_mtu_model() {
        assert_eq!([0, 1, 67, 68, 200].map(packets_for_values), [0, 1, 1, 2, 3]);
        let region = SafeRegion::Tiles(Box::new(sample_region()));
        assert_eq!(packets_for_values(region_value_count(&region, true)), 1);
    }

    #[test]
    fn empty_region_encodes_to_header_only() {
        let region = TileRegion::new(TileFrame::centered_at(Point::ORIGIN, 2.0));
        assert_eq!(encoded(region.cells()), [0]);
        assert_eq!(region_value_count(&SafeRegion::Tiles(Box::new(region)), true), 4);
    }
}
