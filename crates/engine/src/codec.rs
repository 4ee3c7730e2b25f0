//! Compact binary wire codec for traverser batches.
//!
//! Messages crossing simulated node boundaries are *really* serialized and
//! deserialized (same-node messages take the shared-memory shortcut and
//! skip this entirely, §IV-B). Hand-rolled rather than a serde format so
//! the byte layout — and therefore the network cost model and the 8 KB
//! flush threshold — is deterministic and tight. This module encodes and
//! decodes; what a whole message costs on the wire is [`crate::wire`]'s to
//! say (`wire::encoded_len`).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

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

fn need(buf: &Bytes, n: usize) -> GdResult<()> {
    if buf.remaining() < n {
        Err(GdError::Internal("wire message truncated".into()))
    } else {
        Ok(())
    }
}

/// Decode one value.
pub fn decode_value(buf: &mut Bytes) -> GdResult<Value> {
    need(buf, 1)?;
    match buf.get_u8() {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL_FALSE => Ok(Value::Bool(false)),
        TAG_BOOL_TRUE => Ok(Value::Bool(true)),
        TAG_INT => {
            need(buf, 8)?;
            Ok(Value::Int(buf.get_i64_le()))
        }
        TAG_FLOAT => {
            need(buf, 8)?;
            Ok(Value::Float(buf.get_f64_le()))
        }
        TAG_STR => {
            need(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(buf, n)?;
            let raw = buf.split_to(n);
            let s = std::str::from_utf8(&raw)
                .map_err(|_| GdError::Internal("invalid utf8 on wire".into()))?;
            Ok(Value::str(s))
        }
        TAG_VERTEX => {
            need(buf, 8)?;
            Ok(Value::Vertex(VertexId(buf.get_u64_le())))
        }
        TAG_LIST => {
            need(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_value(buf)?);
            }
            Ok(Value::list(items))
        }
        t => Err(GdError::Internal(format!("unknown value tag {t}"))),
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

/// Decode one traverser.
pub fn decode_traverser(buf: &mut Bytes) -> GdResult<Traverser> {
    need(buf, 8 + 2 + 2 + 8 + 8 + 4 + 1)?;
    let query = QueryId(buf.get_u64_le());
    let pipeline = buf.get_u16_le();
    let pc = buf.get_u16_le();
    let vertex = VertexId(buf.get_u64_le());
    let weight = Weight(buf.get_u64_le());
    let depth = buf.get_u32_le();
    let has_aux = buf.get_u8() != 0;
    let aux_key = if has_aux {
        Some(decode_value(buf)?)
    } else {
        None
    };
    need(buf, 2)?;
    let n = buf.get_u16_le() as usize;
    let mut locals = Vec::with_capacity(n);
    for _ in 0..n {
        locals.push(decode_value(buf)?);
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

// ---------------------------------------------------------------------------
// Batch frames
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
// The trailer can carry coalesced progress reports behind a batch headed
// for the coordinator's node. No sender in this repo fills it any more
// (`p` is always 0; progress ships as standalone `Progress` messages), but
// the format is kept — `benchmark/` compiles against it — and ingress
// delivers a trailer it receives.

/// One piggybacked progress report: the same `(query, weight, steps)`
/// triple a standalone `CoordMsg::Progress` would carry.
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
/// caller-provided frame (normally one leased from a [`BytesPool`]). The
/// zero-copy egress path: no intermediate `BytesMut`, no `freeze` copy.
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

/// Encode a batch of traversers (one wire payload, no piggybacked
/// progress). The allocating legacy path, kept as an independent encoder
/// for the differential codec tests.
pub fn encode_batch(traversers: &[Traverser]) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 * traversers.len() + 6);
    buf.put_u32_le(traversers.len() as u32);
    for t in traversers {
        encode_traverser(&mut buf, t);
    }
    buf.put_u16_le(0);
    buf.freeze()
}

/// Decode a full batch frame — traversers plus progress trailer — through
/// the shared-`Bytes` cursor (the legacy path; the hot ingress path is
/// [`decode_batch_borrowed`], an independent implementation the
/// differential tests compare against this one).
pub fn decode_batch_full(mut buf: Bytes) -> GdResult<(Vec<Traverser>, Vec<ProgressEntry>)> {
    need(&buf, 4)?;
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(decode_traverser(&mut buf)?);
    }
    need(&buf, 2)?;
    let p = buf.get_u16_le() as usize;
    let mut progress = Vec::with_capacity(p);
    for _ in 0..p {
        need(&buf, PROGRESS_ENTRY_BYTES)?;
        progress.push(ProgressEntry {
            query: QueryId(buf.get_u64_le()),
            weight: Weight(buf.get_u64_le()),
            steps: buf.get_u64_le(),
        });
    }
    Ok((out, progress))
}

/// Decode a batch of traversers, rejecting frames that carry piggybacked
/// progress (a dropped trailer would silently break weight conservation;
/// callers that can route progress use [`decode_batch_borrowed`]).
pub fn decode_batch(buf: Bytes) -> GdResult<Vec<Traverser>> {
    let (out, progress) = decode_batch_full(buf)?;
    if !progress.is_empty() {
        return Err(GdError::Internal(
            "legacy decode path cannot route piggybacked progress".into(),
        ));
    }
    Ok(out)
}

/// A bounds-checked cursor over a borrowed frame — the zero-copy ingress
/// read path (no `Arc` wrapping, no upfront copy into `Bytes`). Shared
/// with the control-plane codec in [`crate::wire`].
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

/// Decode a batch frame straight out of a borrowed byte slice — the
/// zero-copy ingress path. Rejects trailing garbage (a frame must be
/// consumed exactly), unlike the legacy `Bytes` cursor.
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

// ---------------------------------------------------------------------------
// Frame pool
// ---------------------------------------------------------------------------

/// How many spare frames a [`BytesPool`] keeps for reuse.
const POOL_FREE_CAP: usize = 64;
/// Initial capacity of a freshly allocated frame.
const POOL_FRAME_RESERVE: usize = 4096;
/// Frames that grew beyond this are dropped on return instead of retained,
/// so one jumbo batch cannot pin its capacity forever.
const POOL_RETAIN_MAX: usize = 256 * 1024;

#[derive(Default)]
struct PoolInner {
    free: Vec<Vec<u8>>,
    allocated: u64,
    recycled: u64,
    outstanding: usize,
    high_water: usize,
}

/// Cumulative [`BytesPool`] accounting, for tests and obs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Frames allocated fresh (pool misses).
    pub allocated: u64,
    /// Frames served from the free list (pool hits).
    pub recycled: u64,
    /// Frames currently leased out.
    pub outstanding: usize,
    /// Maximum simultaneous leases ever observed.
    pub high_water: usize,
}

/// A reusable pool of egress frame buffers.
///
/// `get` leases a cleared `Vec<u8>`; `put` returns it once the receiver
/// has decoded it. Frames keep their grown capacity across leases (up to
/// [`POOL_RETAIN_MAX`]), so steady-state egress encodes into warm buffers
/// with zero per-batch allocation.
#[derive(Default)]
pub struct BytesPool {
    inner: Mutex<PoolInner>,
}

impl BytesPool {
    /// An empty pool.
    pub fn new() -> Self {
        BytesPool::default()
    }

    /// Lease a cleared frame.
    pub fn get(&self) -> Vec<u8> {
        let mut inner = self.inner.lock();
        inner.outstanding += 1;
        inner.high_water = inner.high_water.max(inner.outstanding);
        match inner.free.pop() {
            Some(frame) => {
                inner.recycled += 1;
                frame
            }
            None => {
                inner.allocated += 1;
                Vec::with_capacity(POOL_FRAME_RESERVE)
            }
        }
    }

    /// Return a leased frame. Tolerates foreign frames (e.g. a fault
    /// injector's duplicated payload): `outstanding` saturates at zero.
    pub fn put(&self, mut frame: Vec<u8>) {
        frame.clear();
        // lint: allow(hot-path-blocking) bounded: pool mutex guards two
        // integer updates and a capped Vec push, no blocking inside
        let mut inner = self.inner.lock();
        inner.outstanding = inner.outstanding.saturating_sub(1);
        if inner.free.len() < POOL_FREE_CAP && frame.capacity() <= POOL_RETAIN_MAX {
            inner.free.push(frame);
        }
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock();
        PoolStats {
            allocated: inner.allocated,
            recycled: inner.recycled,
            outstanding: inner.outstanding,
            high_water: inner.high_water,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let mut buf = BytesMut::new();
        encode_value(&mut buf, &v);
        let mut b = buf.freeze();
        assert_eq!(decode_value(&mut b).unwrap(), v);
        assert!(b.is_empty(), "no trailing bytes");
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
        let mut buf = BytesMut::new();
        encode_traverser(&mut buf, &t);
        let mut b = buf.freeze();
        assert_eq!(decode_traverser(&mut b).unwrap(), t);
    }

    #[test]
    fn batch_roundtrip() {
        let ts: Vec<Traverser> = (0..10)
            .map(|i| {
                let mut t = Traverser::root(QueryId(1), 0, VertexId(i), 2, Weight(i));
                t.set_slot(0, Value::Int(i as i64));
                t
            })
            .collect();
        let wire = encode_batch(&ts);
        assert_eq!(decode_batch(wire).unwrap(), ts);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut t = Traverser::root(QueryId(1), 0, VertexId(1), 1, Weight(1));
        t.set_slot(0, Value::str("hello"));
        let mut buf = BytesMut::new();
        encode_traverser(&mut buf, &t);
        let full = buf.freeze();
        for cut in [0, 1, 8, full.len() - 1] {
            let mut partial = full.slice(..cut);
            assert!(decode_traverser(&mut partial).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn garbage_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        assert!(decode_value(&mut buf.freeze()).is_err());
    }

    #[test]
    fn empty_batch() {
        let wire = encode_batch(&[]);
        assert_eq!(wire.len(), 4 + 2, "u32 count + empty u16 trailer");
        assert!(decode_batch(wire).unwrap().is_empty());
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
    fn zero_copy_encode_matches_legacy_bytes_exactly() {
        let ts = sample_batch();
        let legacy = encode_batch(&ts);
        let mut frame = Vec::new();
        encode_batch_into(&mut frame, &ts, &[]);
        assert_eq!(&*legacy, &frame[..], "two encoders, one byte layout");
    }

    #[test]
    fn borrowed_decoder_agrees_with_bytes_cursor() {
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
        let (bt, bp) = decode_batch_borrowed(&frame).unwrap();
        let (lt, lp) = decode_batch_full(Bytes::from(frame)).unwrap();
        assert_eq!(bt, ts);
        assert_eq!(bp, progress);
        assert_eq!(lt, bt);
        assert_eq!(lp, bp);
    }

    #[test]
    fn legacy_decode_rejects_piggybacked_progress() {
        let mut frame = Vec::new();
        let progress = [ProgressEntry {
            query: QueryId(1),
            weight: Weight(1),
            steps: 1,
        }];
        encode_batch_into(&mut frame, &[], &progress);
        assert!(decode_batch(Bytes::from(frame)).is_err());
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
            let mut buf = BytesMut::new();
            encode_traverser(&mut buf, &t);
            assert_eq!(t.wire_bytes(), buf.len(), "wire_bytes drifted for {t:?}");
        }
    }

    #[test]
    fn pool_recycles_and_tracks_high_water() {
        let pool = BytesPool::new();
        let a = pool.get();
        let b = pool.get();
        assert_eq!(pool.stats().high_water, 2);
        assert_eq!(pool.stats().allocated, 2);
        pool.put(a);
        pool.put(b);
        assert_eq!(pool.stats().outstanding, 0);
        let c = pool.get();
        assert_eq!(pool.stats().recycled, 1);
        assert!(c.is_empty(), "recycled frames come back cleared");
        pool.put(c);
        // Oversized frames are dropped on return, not retained.
        let mut jumbo = pool.get();
        jumbo.resize(POOL_RETAIN_MAX + 1, 0);
        let cap = jumbo.capacity();
        pool.put(jumbo);
        let next = pool.get();
        assert!(next.capacity() < cap);
    }
}
