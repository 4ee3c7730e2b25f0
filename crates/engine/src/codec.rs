//! Value and traverser primitives of the wire layout.
//!
//! [`crate::wire`] is the one serializer of cross-node traffic: every
//! message crossing a wire is encoded once, when its tier-1 buffer is
//! flushed, and decoded once by its receiver. This module holds the pieces
//! that layout is built from — the [`Value`] and [`Traverser`] encodings
//! and the bounds-checked `Reader` every decoder runs on. Hand-rolled
//! rather than a serde format so the byte layout — and therefore the
//! network cost model and the 8 KB flush threshold — is deterministic and
//! tight.
//!
//! The standalone batch frame ([`encode_batch_into`] /
//! [`decode_batch_borrowed`] with its [`ProgressEntry`] trailer) is no
//! longer on any engine path; it stays only because the benchmark's codec
//! micro-measurement calls it.

use bytes::BufMut;

use graphdance_common::{GdError, GdResult, QueryId, Value, VertexId};
use graphdance_pstm::{Traverser, Weight};

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_VERTEX: u8 = 6;
const TAG_LIST: u8 = 7;

/// Encode one value.
pub fn encode_value<B: BufMut>(buf: &mut B, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(*f);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Vertex(v) => {
            buf.put_u8(TAG_VERTEX);
            buf.put_u64_le(v.0);
        }
        Value::List(l) => {
            buf.put_u8(TAG_LIST);
            buf.put_u32_le(l.len() as u32);
            for x in l.iter() {
                encode_value(buf, x);
            }
        }
    }
}

/// Encode one traverser.
pub fn encode_traverser<B: BufMut>(buf: &mut B, t: &Traverser) {
    buf.put_u64_le(t.query.0);
    buf.put_u16_le(t.pipeline);
    buf.put_u16_le(t.pc);
    buf.put_u64_le(t.vertex.0);
    buf.put_u64_le(t.weight.0);
    buf.put_u32_le(t.depth);
    buf.put_u8(u8::from(t.aux_key.is_some()));
    if let Some(k) = &t.aux_key {
        encode_value(buf, k);
    }
    buf.put_u16_le(t.locals.len() as u16);
    for v in &t.locals {
        encode_value(buf, v);
    }
}

// ---------------------------------------------------------------------------
// Batch frames (benchmark only)
// ---------------------------------------------------------------------------
//
// A batch frame is:
//
// ```text
// u32  n                      traverser count
// n ×  traverser              see encode_traverser
// u16  p                      piggybacked progress-report count
// p ×  (u64 query, u64 weight, u64 steps)
// ```
//
// The engine ships traverser batches inside `wire` packets and never
// builds one of these; `benchmark/` still times this frame.

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

/// Encode a batch of traversers plus piggybacked progress reports into a
/// caller-provided frame. Kept only because the benchmark's codec
/// micro-measurement calls it; the engine encodes batches with
/// [`crate::wire::encode_packet`].
pub fn encode_batch_into(
    frame: &mut Vec<u8>,
    traversers: &[Traverser],
    progress: &[ProgressEntry],
) {
    frame.reserve(4 + 2 + 64 * traversers.len() + PROGRESS_ENTRY_BYTES * progress.len());
    frame.put_u32_le(traversers.len() as u32);
    for t in traversers {
        encode_traverser(frame, t);
    }
    frame.put_u16_le(progress.len() as u16);
    for p in progress {
        frame.put_u64_le(p.query.0);
        frame.put_u64_le(p.weight.0);
        frame.put_u64_le(p.steps);
    }
}

/// A bounds-checked cursor over a borrowed byte slice: what every decoder
/// here and in [`crate::wire`] reads through.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> GdResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(GdError::Internal("wire message truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn u8(&mut self) -> GdResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> GdResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap())) // lint: allow(hot-path-panics) take(2) returned exactly 2 bytes
    }

    pub(crate) fn u32(&mut self) -> GdResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap())) // lint: allow(hot-path-panics) take(4) returned exactly 4 bytes
    }

    pub(crate) fn u64(&mut self) -> GdResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap())) // lint: allow(hot-path-panics) take(8) returned exactly 8 bytes
    }

    pub(crate) fn i64(&mut self) -> GdResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap())) // lint: allow(hot-path-panics) take(8) returned exactly 8 bytes
    }

    pub(crate) fn f64(&mut self) -> GdResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap())) // lint: allow(hot-path-panics) take(8) returned exactly 8 bytes
    }
}

pub(crate) fn decode_value_borrowed(r: &mut Reader<'_>) -> GdResult<Value> {
    match r.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL_FALSE => Ok(Value::Bool(false)),
        TAG_BOOL_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_FLOAT => Ok(Value::Float(r.f64()?)),
        TAG_STR => {
            let n = r.u32()? as usize;
            let s = std::str::from_utf8(r.take(n)?)
                .map_err(|_| GdError::Internal("invalid utf8 on wire".into()))?;
            Ok(Value::str(s))
        }
        TAG_VERTEX => Ok(Value::Vertex(VertexId(r.u64()?))),
        TAG_LIST => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_value_borrowed(r)?);
            }
            Ok(Value::list(items))
        }
        t => Err(GdError::Internal(format!("unknown value tag {t}"))),
    }
}

pub(crate) fn decode_traverser_borrowed(r: &mut Reader<'_>) -> GdResult<Traverser> {
    let query = QueryId(r.u64()?);
    let pipeline = r.u16()?;
    let pc = r.u16()?;
    let vertex = VertexId(r.u64()?);
    let weight = Weight(r.u64()?);
    let depth = r.u32()?;
    let aux_key = if r.u8()? != 0 {
        Some(decode_value_borrowed(r)?)
    } else {
        None
    };
    let n = r.u16()? as usize;
    let mut locals = Vec::with_capacity(n);
    for _ in 0..n {
        locals.push(decode_value_borrowed(r)?);
    }
    Ok(Traverser {
        query,
        pipeline,
        pc,
        vertex,
        locals,
        weight,
        depth,
        aux_key,
    })
}

/// Decode a batch frame out of a borrowed byte slice, rejecting trailing
/// garbage. Kept only because the benchmark's codec micro-measurement
/// calls it; the engine decodes with [`crate::wire::decode_packet`].
pub fn decode_batch_borrowed(frame: &[u8]) -> GdResult<(Vec<Traverser>, Vec<ProgressEntry>)> {
    let mut r = Reader::new(frame);
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(decode_traverser_borrowed(&mut r)?);
    }
    let p = r.u16()? as usize;
    let mut progress = Vec::with_capacity(p);
    for _ in 0..p {
        progress.push(ProgressEntry {
            query: QueryId(r.u64()?),
            weight: Weight(r.u64()?),
            steps: r.u64()?,
        });
    }
    if !r.is_empty() {
        return Err(GdError::Internal("trailing bytes after batch frame".into()));
    }
    Ok((out, progress))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let mut buf = Vec::new();
        encode_value(&mut buf, &v);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_value_borrowed(&mut r).unwrap(), v);
        assert!(r.is_empty(), "no trailing bytes");
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Bool(false));
        roundtrip_value(Value::Int(-42));
        roundtrip_value(Value::Int(i64::MAX));
        roundtrip_value(Value::Float(3.5));
        roundtrip_value(Value::str(""));
        roundtrip_value(Value::str("hello – unicode ✓"));
        roundtrip_value(Value::Vertex(VertexId(u64::MAX)));
        roundtrip_value(Value::list(vec![
            Value::Int(1),
            Value::list(vec![Value::str("nested")]),
            Value::Null,
        ]));
    }

    #[test]
    fn traverser_roundtrip() {
        let mut t = Traverser::root(QueryId(9), 2, VertexId(77), 3, Weight(0xDEAD));
        t.pc = 5;
        t.depth = 4;
        t.set_slot(1, Value::str("x"));
        t.aux_key = Some(Value::Vertex(VertexId(3)));
        let mut buf = Vec::new();
        encode_traverser(&mut buf, &t);
        assert_eq!(
            decode_traverser_borrowed(&mut Reader::new(&buf)).unwrap(),
            t
        );
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut t = Traverser::root(QueryId(1), 0, VertexId(1), 1, Weight(1));
        t.set_slot(0, Value::str("hello"));
        let mut full = Vec::new();
        encode_traverser(&mut full, &t);
        for cut in [0, 1, 8, full.len() - 1] {
            let mut r = Reader::new(&full[..cut]);
            assert!(decode_traverser_borrowed(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn garbage_tag_rejected() {
        assert!(decode_value_borrowed(&mut Reader::new(&[99])).is_err());
    }

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

    #[test]
    fn traverser_wire_bytes_is_exact() {
        for t in sample_batch() {
            let mut buf = Vec::new();
            encode_traverser(&mut buf, &t);
            assert_eq!(t.wire_bytes(), buf.len(), "wire_bytes drifted for {t:?}");
        }
    }
}
