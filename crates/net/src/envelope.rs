//! The count-prefixed response batch envelope of the TCP front-end.
//!
//! One engine tick addressing a client is answered with a 4-byte little-endian response
//! count followed by that many encoded [`Response`] frames.  The count makes quiet epochs
//! observable: a client in lock-step can block on the header and learn "zero notifications
//! this epoch" instead of guessing from a read timeout.  [`MuxServer`](crate::MuxServer)
//! emits exactly this layout ([`encode_batch`]); [`read_batch`] is its client-side inverse.

use std::io::{self, Read};

use mpn_proto::{read_frame, Response};

/// Appends one batch — `u32` little-endian count, then the encoded frames — to `out`.
///
/// # Panics
/// Panics if the batch exceeds `u32::MAX` responses (unreachable in practice: a tick's
/// response count is bounded by fleet size).
pub fn encode_batch(responses: &[Response], out: &mut Vec<u8>) {
    let count = u32::try_from(responses.len()).expect("batch fits u32");
    out.extend_from_slice(&count.to_le_bytes());
    for response in responses {
        response.encode(out);
    }
}

/// Reads one batch (count header + frames) off a blocking stream — the client-side helper.
///
/// # Errors
/// `UnexpectedEof` when the stream closes mid-batch, `InvalidData` when a frame does not
/// decode as a downlink response, plus any underlying read error.
pub fn read_batch(stream: &mut impl Read) -> io::Result<Vec<Response>> {
    let mut count_bytes = [0u8; 4];
    stream.read_exact(&mut count_bytes)?;
    let count = u32::from_le_bytes(count_bytes) as usize;
    let mut responses = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let frame = read_frame(stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "stream closed mid-batch")
        })?;
        let (response, _) = Response::decode(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        responses.push(response);
    }
    Ok(responses)
}
