//! Wire gates of the paper's main method, counted in bytes (never a wall-clock figure).
//!
//! Communication is the cost the paper optimises, and for Tile-D-b most of it is the tile
//! regions of the step-3 notifications.  A small fixed driving fleet — the shape of the
//! repository benchmark's `drive_tile_max`, a few dozen epochs of it — goes through
//! `ServerCore` and the TCP front-end's batch envelope, and the bytes that come out are held
//! to three facts:
//!
//! * a tile `SafeRegion` response's header — every byte before its step stream — is at most
//!   48 bytes (the fleet's group ids are below 128, so each id is a one-byte varint), and the
//!   step stream costs at most its count plus **2 bytes a tile** on average (the retired
//!   layout charged 9, the §7.1 model charges 4);
//! * the downlink is a function of the inputs: two runs produce identical bytes;
//! * what was sent is what a client reads back, response for response.
//!
//! Run with `--nocapture` for the per-response attribution (header / count / one-byte steps /
//! escapes) behind those figures.

use mpn::core::{encode_cells, SafeRegion};
use mpn::index::RTree;
use mpn::mobility::network::{NetworkConfig, RoadNetwork};
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::net::{encode_batch, read_batch};
use mpn::proto::{Request, Response, WireConfig, WireMethod};
use mpn::sim::ServerCore;

const GROUPS: usize = 12;
const GROUP_SIZE: usize = 3;
const EPOCHS: usize = 40;

/// Every downlink byte of the fleet's run, one batch envelope per tick, and the responses
/// they were encoded from.
fn drive() -> (Vec<u8>, Vec<Vec<Response>>) {
    let pois = clustered_pois(&PoiConfig { count: 6_000, ..PoiConfig::default() }, 2013);
    let network =
        RoadNetwork::generate(&NetworkConfig { timestamps: EPOCHS, ..NetworkConfig::default() }, 7);
    let fleet: Vec<_> =
        (0..GROUPS * GROUP_SIZE).map(|user| network.trajectory(100 + user as u64, user)).collect();
    let config = WireConfig {
        method: WireMethod::TileDirectedBuffered {
            theta: std::f64::consts::FRAC_PI_4,
            buffer: 100,
        },
        persist_buffers: true,
        ..WireConfig::default()
    };

    let mut core = ServerCore::new(RTree::bulk_load(&pois), 1);
    let (mut wire, mut batches) = (Vec::new(), Vec::new());
    let mut tick = |core: &mut ServerCore| {
        let batch: Vec<Response> = core.process().responses.into_iter().map(|(_, r)| r).collect();
        encode_batch(&batch, &mut wire);
        batches.push(batch);
    };
    for _ in 0..GROUPS {
        core.enqueue(1, Request::Register { group_size: GROUP_SIZE as u32, config });
    }
    tick(&mut core);
    for epoch in 0..EPOCHS {
        for (group, users) in fleet.chunks(GROUP_SIZE).enumerate() {
            let positions = users.iter().map(|trajectory| trajectory.at(epoch)).collect();
            core.enqueue(1, Request::Report { group: group as u64, positions });
        }
        tick(&mut core);
    }
    (wire, batches)
}

/// Walks one step stream by hand (the layout, not the codec): `(count bytes, one-byte
/// steps, escapes, escape bytes)`.
fn attribute(stream: &[u8]) -> (usize, usize, usize, usize) {
    let varint_len = |at: usize| 1 + stream[at..].iter().take_while(|&&b| b >= 0x80).count();
    let count_len = varint_len(0);
    let (mut at, mut steps, mut escapes, mut escape_bytes) = (count_len, 0, 0, 0);
    while at < stream.len() {
        if stream[at] == 0xC0 {
            let ix_at = at + 2;
            let iy_at = ix_at + varint_len(ix_at);
            let end = iy_at + varint_len(iy_at);
            escapes += 1;
            escape_bytes += end - at;
            at = end;
        } else {
            steps += 1;
            at += 1;
        }
    }
    (count_len, steps, escapes, escape_bytes)
}

#[test]
fn tile_regions_cost_two_bytes_a_tile_and_repeat_exactly() {
    let (wire, batches) = drive();

    let (mut responses, mut tiles, mut bytes, mut header_bytes) = (0usize, 0usize, 0usize, 0);
    let (mut count_bytes, mut steps, mut escapes, mut escape_bytes) = (0, 0, 0, 0);
    for response in batches.iter().flatten() {
        let Response::SafeRegion { region: SafeRegion::Tiles(region), .. } = response else {
            continue;
        };
        // The header is what the codec puts in front of the region's step stream.
        let frame = response.encoded();
        let mut stream = Vec::new();
        encode_cells(region.cells(), &mut stream);
        assert!(frame.ends_with(&stream), "a tile response ends in its step stream");
        let header = frame.len() - stream.len();
        assert!(header <= 48, "a {header}-byte header in front of one-byte ids");
        let (count_len, one_byte, escaped, escaped_bytes) = attribute(&stream);
        assert_eq!(one_byte + escaped, region.len(), "one token per tile");
        responses += 1;
        tiles += region.len();
        bytes += frame.len();
        header_bytes += header;
        count_bytes += count_len;
        steps += one_byte;
        escapes += escaped;
        escape_bytes += escaped_bytes;
    }
    assert!(responses >= 10 * GROUPS, "{responses} tile responses: the fleet must keep updating");
    let per = |n: usize| n as f64 / responses as f64;
    let stream_bytes = bytes - header_bytes;
    println!(
        "{responses} tile SafeRegion responses over {EPOCHS} epochs, {:.1} tiles each: \
         {:.1} B each = {:.1} header + {:.2} count + {:.1} one-byte steps + {:.1} B in {:.2} \
         escapes; {:.2} B a tile (retired layout: {:.1} B each)",
        per(tiles),
        per(bytes),
        per(header_bytes),
        per(count_bytes),
        per(steps),
        per(escape_bytes),
        per(escapes),
        stream_bytes as f64 / tiles as f64,
        62.0 + 9.0 * per(tiles),
    );
    assert_eq!(stream_bytes, count_bytes + steps + escape_bytes);
    assert!(
        stream_bytes <= 4 * responses + 2 * tiles,
        "{stream_bytes} B of step stream for {responses} responses holding {tiles} tiles"
    );

    // What was sent is what a client reads back, batch for batch.
    let mut stream = &wire[..];
    for batch in &batches {
        assert_eq!(&read_batch(&mut stream).expect("a whole batch"), batch);
    }
    assert!(stream.is_empty(), "{} bytes after the last batch", stream.len());

    // And a second run of the same fleet sends the same bytes.
    assert!(drive().0 == wire, "the downlink must be a function of the inputs");
}
