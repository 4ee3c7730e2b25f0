//! The standalone batch frame: no longer on any engine path, kept only
//! because the benchmark's codec micro-measurement calls it.
//!
//! ```text
//! u32  n                      traverser count
//! n ×  traverser              see `wire`'s `Traverser` impl
//! u16  p                      piggybacked progress-report count
//! p ×  (u64 query, u64 weight, u64 steps)
//! ```
//!
//! The engine ships traverser batches inside [`crate::wire`] packets and
//! never builds one of these. The frame is written with the same
//! [`Wire`] impls as every packet.

use bytes::BufMut;

use graphdance_common::{GdResult, QueryId};
use graphdance_pstm::{Traverser, Weight};

use crate::wire::{get_seq, put_seq, Reader, Wire};

/// One piggybacked progress report: the same `(query, weight, steps)`
/// triple a standalone `CoordMsg::Progress` would carry. Kept only for the
/// benchmark's batch-frame calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgressEntry {
    /// Query the finished weight belongs to.
    pub query: QueryId,
    /// Coalesced finished weight being returned to the tracker.
    pub weight: Weight,
    /// Traverser executions folded into this report (obs accounting).
    pub steps: u64,
}

/// Size in bytes of one encoded [`ProgressEntry`].
pub const PROGRESS_ENTRY_BYTES: usize = 24;

impl Wire for ProgressEntry {
    fn put<B: BufMut>(&self, buf: &mut B) {
        self.query.put(buf);
        self.weight.put(buf);
        self.steps.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok(ProgressEntry {
            query: QueryId::get(r)?,
            weight: Weight::get(r)?,
            steps: u64::get(r)?,
        })
    }
}

/// Encode a batch of traversers plus piggybacked progress reports into a
/// caller-provided frame. The engine encodes batches with
/// [`crate::wire::encode_packet`].
pub fn encode_batch_into(
    frame: &mut Vec<u8>,
    traversers: &[Traverser],
    progress: &[ProgressEntry],
) {
    frame.reserve(4 + 2 + 64 * traversers.len() + PROGRESS_ENTRY_BYTES * progress.len());
    put_seq(frame, traversers.len() as u32, traversers);
    put_seq(frame, progress.len() as u16, progress);
}

/// Decode a batch frame out of a borrowed byte slice, rejecting trailing
/// garbage. The engine decodes with [`crate::wire::decode_packet`].
pub fn decode_batch_borrowed(frame: &[u8]) -> GdResult<(Vec<Traverser>, Vec<ProgressEntry>)> {
    let mut r = Reader::new(frame);
    let traversers = Vec::get(&mut r)?;
    let p = u16::get(&mut r)? as usize;
    let progress = get_seq(&mut r, p, ProgressEntry::get)?;
    r.finish("batch frame")?;
    Ok((traversers, progress))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::{Value, VertexId};

    fn sample_batch() -> Vec<Traverser> {
        (0..10)
            .map(|i| {
                let mut t = Traverser::root(QueryId(1), 0, VertexId(i), 2, Weight(i + 1));
                t.set_slot(0, Value::Int(i as i64));
                if i % 3 == 0 {
                    t.aux_key = Some(Value::str("k"));
                }
                t
            })
            .collect()
    }

    #[test]
    fn batch_frame_roundtrips_with_its_trailer() {
        let ts = sample_batch();
        let progress = vec![
            ProgressEntry {
                query: QueryId(1),
                weight: Weight(0xAB),
                steps: 17,
            },
            ProgressEntry {
                query: QueryId(2),
                weight: Weight(1),
                steps: 0,
            },
        ];
        let mut frame = Vec::new();
        encode_batch_into(&mut frame, &ts, &progress);
        assert_eq!(decode_batch_borrowed(&frame).unwrap(), (ts, progress));
        frame.clear();
        encode_batch_into(&mut frame, &[], &[]);
        assert_eq!(frame.len(), 4 + 2, "u32 count + empty u16 trailer");
    }

    #[test]
    fn borrowed_decoder_rejects_trailing_garbage() {
        let mut frame = Vec::new();
        encode_batch_into(&mut frame, &sample_batch(), &[]);
        frame.push(0xFF);
        assert!(decode_batch_borrowed(&frame).is_err());
        let truncated = &frame[..frame.len() - 4];
        assert!(decode_batch_borrowed(truncated).is_err());
    }
}
