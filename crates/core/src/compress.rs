//! Lossless compression of tile-based safe regions for transmission.
//!
//! The experiments of Section 7 count communication in TCP packets of 67 double-precision
//! values (576-byte MTU minus a 40-byte header).  An uncompressed tile region costs 3 values
//! per square, so a region with dozens of tiles would need several packets.  Our preliminary
//!-work-style lossless encoding instead ships the shared frame once (origin, base tile size)
//! and packs each tile's grid identity — subdivision level plus integer offsets — into 32 bits,
//! i.e. two tiles per transmitted value.  Decoding reproduces the region exactly (bit-for-bit
//! identical cells), which the round-trip tests assert.

use crate::region::{TileCell, TileFrame, TileRegion};

/// Number of payload doubles that fit into one TCP packet (§7.1): `(576 − 40) / 8 = 67`.
pub const VALUES_PER_PACKET: usize = 67;

/// Bit budget of each encoded tile: 4 bits of level + 14 bits per signed coordinate.
const LEVEL_BITS: u32 = 4;
const COORD_BITS: u32 = 14;
const COORD_BIAS: i32 = 1 << (COORD_BITS - 1);

/// A compressed, losslessly decodable tile region.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedTileRegion {
    origin_x: f64,
    origin_y: f64,
    delta: f64,
    count: usize,
    words: Vec<u64>,
}

/// Errors produced while encoding a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// A tile's grid coordinates or level do not fit the fixed-width encoding.
    CellOutOfRange {
        /// The offending cell.
        cell: TileCell,
    },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::CellOutOfRange { cell } => {
                write!(f, "tile cell {cell:?} exceeds the 4+14+14 bit encoding range")
            }
        }
    }
}

impl std::error::Error for CompressError {}

impl CompressedTileRegion {
    /// Encodes a tile region.  Fails only for cells outside the fixed-width grid range, which
    /// cannot be produced by Tile-MSR with the default parameters (α ≤ 8191, L ≤ 15).
    pub fn encode(region: &TileRegion) -> Result<Self, CompressError> {
        let frame = region.frame();
        let mut words = Vec::with_capacity(region.len().div_ceil(2));
        let mut current: u64 = 0;
        for (i, cell) in region.cells().iter().enumerate() {
            let packed = pack_cell(*cell)?;
            if i % 2 == 0 {
                current = u64::from(packed);
            } else {
                current |= u64::from(packed) << 32;
                words.push(current);
                current = 0;
            }
        }
        if region.len() % 2 == 1 {
            words.push(current);
        }
        Ok(Self {
            origin_x: frame.origin.x,
            origin_y: frame.origin.y,
            delta: frame.delta,
            count: region.len(),
            words,
        })
    }

    /// Decodes back into a tile region (exact inverse of [`CompressedTileRegion::encode`]).
    #[must_use]
    pub fn decode(&self) -> TileRegion {
        let frame = TileFrame {
            origin: mpn_geom::Point::new(self.origin_x, self.origin_y),
            delta: self.delta,
        };
        let mut region = TileRegion::new(frame);
        for i in 0..self.count {
            let word = self.words[i / 2];
            let half = if i % 2 == 0 { word & 0xFFFF_FFFF } else { word >> 32 };
            region.push(unpack_cell(half as u32));
        }
        region
    }

    /// Number of tiles in the encoded region.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.count
    }

    /// Number of double-precision values needed to transmit the region:
    /// a 4-value header (origin x/y, `δ`, tile count) plus one value per pair of tiles.
    #[must_use]
    pub fn value_count(&self) -> usize {
        4 + self.words.len()
    }
}

fn pack_cell(cell: TileCell) -> Result<u32, CompressError> {
    let level_ok = u32::from(cell.level) < (1 << LEVEL_BITS);
    let range = -(COORD_BIAS)..(COORD_BIAS);
    if !level_ok || !range.contains(&cell.ix) || !range.contains(&cell.iy) {
        return Err(CompressError::CellOutOfRange { cell });
    }
    let ix = (cell.ix + COORD_BIAS) as u32;
    let iy = (cell.iy + COORD_BIAS) as u32;
    Ok(u32::from(cell.level) | (ix << LEVEL_BITS) | (iy << (LEVEL_BITS + COORD_BITS)))
}

fn unpack_cell(bits: u32) -> TileCell {
    let level = (bits & ((1 << LEVEL_BITS) - 1)) as u8;
    let ix = ((bits >> LEVEL_BITS) & ((1 << COORD_BITS) - 1)) as i32 - COORD_BIAS;
    let iy = ((bits >> (LEVEL_BITS + COORD_BITS)) & ((1 << COORD_BITS) - 1)) as i32 - COORD_BIAS;
    TileCell::new(level, ix, iy)
}

/// Number of packets needed to transmit `values` double-precision values.
#[must_use]
pub fn packets_for_values(values: usize) -> usize {
    values.div_ceil(VALUES_PER_PACKET).max(usize::from(values > 0))
}

/// Number of §7.1 payload values needed to ship a safe region to a client: 3 per circle,
/// 3 per plain tile, or the [`CompressedTileRegion`] count when `compress` is set (the
/// paper's default).
///
/// This is the single definition of the region payload in the §7.1 cost model — the
/// simulation's message accounting and the `mpn-proto` wire accounting are both pinned to it
/// (`tests/proto_parity.rs`).  Cells outside the compressed encoding's range cannot occur
/// with the default parameters; if they do, the plain encoding is charged rather than
/// undercounting.
#[must_use]
pub fn region_value_count(region: &crate::region::SafeRegion, compress: bool) -> usize {
    match region {
        crate::region::SafeRegion::Circle(_) => 3,
        crate::region::SafeRegion::Tiles(tiles) => {
            if compress {
                CompressedTileRegion::encode(tiles)
                    .map(|c| c.value_count())
                    .unwrap_or_else(|_| 3 * tiles.len())
            } else {
                3 * tiles.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_geom::Point;

    fn sample_region() -> TileRegion {
        let mut r = TileRegion::with_seed(TileFrame::centered_at(Point::new(3.0, -2.0), 1.5));
        for (level, ix, iy) in
            [(0, 1, 0), (0, -1, 2), (1, 3, -2), (2, -5, 7), (3, 11, 11), (0, 4, -4), (1, 0, 5)]
        {
            r.push(TileCell::new(level, ix, iy));
        }
        r
    }

    #[test]
    fn round_trip_is_lossless() {
        let region = sample_region();
        let encoded = CompressedTileRegion::encode(&region).unwrap();
        let decoded = encoded.decode();
        assert_eq!(decoded.cells(), region.cells());
        assert_eq!(decoded.frame(), region.frame());
        assert_eq!(encoded.tile_count(), region.len());
    }

    #[test]
    fn pack_unpack_covers_negative_coordinates_and_levels() {
        for cell in [
            TileCell::new(0, 0, 0),
            TileCell::new(15, 8191, -8192),
            TileCell::new(7, -1, 1),
            TileCell::new(2, -100, 100),
        ] {
            assert_eq!(unpack_cell(pack_cell(cell).unwrap()), cell);
        }
    }

    #[test]
    fn out_of_range_cells_are_rejected() {
        assert!(pack_cell(TileCell::new(16, 0, 0)).is_err());
        assert!(pack_cell(TileCell::new(0, 8192, 0)).is_err());
        assert!(pack_cell(TileCell::new(0, 0, -8193)).is_err());
        let err = CompressError::CellOutOfRange { cell: TileCell::new(16, 0, 0) };
        assert!(err.to_string().contains("encoding range"));
    }

    #[test]
    fn compression_beats_the_plain_representation() {
        let region = sample_region();
        let encoded = CompressedTileRegion::encode(&region).unwrap();
        let plain_values = 3 * region.len();
        assert!(encoded.value_count() < plain_values);
        assert_eq!(encoded.value_count(), 4 + region.len().div_ceil(2));
    }

    #[test]
    fn packet_counts_follow_the_mtu_model() {
        assert_eq!(packets_for_values(0), 0);
        assert_eq!(packets_for_values(1), 1);
        assert_eq!(packets_for_values(67), 1);
        assert_eq!(packets_for_values(68), 2);
        assert_eq!(packets_for_values(200), 3);
        let region = sample_region();
        let encoded = CompressedTileRegion::encode(&region).unwrap();
        assert_eq!(packets_for_values(encoded.value_count()), 1);
    }

    #[test]
    fn empty_region_encodes_to_header_only() {
        let region = TileRegion::new(TileFrame::centered_at(Point::ORIGIN, 2.0));
        let encoded = CompressedTileRegion::encode(&region).unwrap();
        assert_eq!(encoded.tile_count(), 0);
        assert_eq!(encoded.value_count(), 4);
        assert!(encoded.decode().is_empty());
    }
}
