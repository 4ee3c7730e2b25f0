//! The wire layout: every cross-node message's exact binary encoding, and
//! the only source of a byte count.
//!
//! One layout, every message written once: a flushed tier-1 buffer is
//! encoded with [`encode_packet`] on the sending thread, tier-2 combining
//! joins the flushed bodies for one destination into one packet
//! (`append_packet` — the bytes `encode_packet` writes for the joined
//! message list), and every backend carries those bytes unchanged — the
//! channel backend (threaded engine and simulator alike) through its
//! ingress channels, the socket backends inside a PACKET frame. Every
//! receiver hands the body to the fabric's one decode point, the only
//! caller of [`decode_packet`]. A traverser run is a
//! [`WorkerMsg::HandOff`] like any other worker message.
//!
//! Each shape's layout is written once, as its [`Wire`] impl: how it is
//! put into any [`BufMut`] and read back from a bounds-checked [`Reader`].
//! Messages are built from the impls of their parts — fixed-width
//! little-endian integers and id newtypes, `u32`-length strings and
//! sequences, options (`u8 0 | u8 1 + item`), boxes and tuples. The flush
//! policy sizes a buffered traverser or message with [`encoded_len`], the
//! same impl run into a counting sink, so nothing else in the engine
//! describes a message's size. Hand-rolled — no serde format — so the
//! layout is stable and reviewable, and the decoder surfaces `GdError` on
//! any truncation, corruption or over-deep nesting ([`MAX_NESTING`])
//! instead of panicking or overflowing a reader thread's stack.
//!
//! Matches are deliberately exhaustive (no wildcard arms): adding a message
//! or plan variant is a compile error until its encoding is defined here.
//!
//! A [`WorkerMsg::HandOff`] run carries each register file its siblings
//! share once: `u32 r | r × (u16 n | n × value) | u32 t | t × (head |
//! u32 record)`. The flush policy still sizes each of its traversers as
//! the flat [`Traverser`] it stands for ([`head_len`] + [`locals_len`]),
//! so the flush schedule does not see the difference; only the body is
//! smaller. Decode refuses a record the run lacks or two queries share.
//!
//! Two shapes need more than their fields:
//! - [`CoordMsg::Submit`] carries the client's crossbeam reply channel
//!   and never crosses the wire: clients always talk to the coordinator's
//!   own node. [`encode_packet`] refuses it with an error, not a panic,
//!   before writing a byte.
//! - Map-shaped aggregation partials ([`AggState::GroupCount`]/`GroupSum`)
//!   are encoded with entries sorted by key so the same state always
//!   produces the same bytes (hash-map iteration order is not stable).

use std::sync::Arc;

use bytes::BufMut;

use graphdance_common::value::ValueKey;
use graphdance_common::{
    FxHashMap, GdError, GdResult, Label, PartId, PropKey, QueryId, Value, VertexId, WorkerId,
};
use graphdance_pstm::{AggState, ArenaTraverser, HandOff, LocalsId, Traverser, Weight};
use graphdance_query::expr::{CmpOp, Expr};
use graphdance_query::plan::{
    AggFunc, AggSpec, GroupOrder, JoinSide, JoinSpec, Order, Pipeline, Plan, PlanStep, SourceSpec,
    Stage,
};
use graphdance_storage::Direction;

use crate::messages::{BspSignal, CoordMsg, QueryCtx, WorkerMsg};
use crate::net::WireMsg;

/// How deep decoded values, value keys and expressions may nest, counted
/// together: a `List` inside a `List`, an `Expr` inside an `Expr`, a
/// constant inside an expression. The plans and values the engine ships
/// reach 4 (DESIGN §10); a deeper body is hostile, and recursing into it
/// would overflow the reader thread's stack.
pub const MAX_NESTING: u32 = 128;

/// `QueryBegin::from` on the wire when the coordinator introduced the
/// query (no worker id reaches it: topologies index workers by `u32`).
const FROM_COORDINATOR: u32 = u32::MAX;

fn bad(what: &str, tag: u8) -> GdError {
    GdError::Internal(format!("wire: unknown {what} tag {tag}"))
}

/// A bounds-checked cursor over a borrowed byte slice, with the nesting
/// budget the recursive shapes are charged against: what every decoder
/// reads through.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> GdResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(GdError::Internal("wire: message truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> GdResult<[u8; N]> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// A `u32`-length UTF-8 string, borrowed.
    fn str(&mut self) -> GdResult<&'a str> {
        let n = u32::get(self)? as usize;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| GdError::Internal("wire: invalid utf8".into()))
    }

    /// Run one nested decode of a recursive shape, charged against
    /// [`MAX_NESTING`].
    fn nested<T>(&mut self, get: impl FnOnce(&mut Self) -> GdResult<T>) -> GdResult<T> {
        if self.depth == MAX_NESTING {
            return Err(GdError::Internal(format!(
                "wire: nesting deeper than {MAX_NESTING}"
            )));
        }
        self.depth += 1;
        let out = get(self);
        self.depth -= 1;
        out
    }

    /// Fail unless every byte was consumed: a body must decode exactly.
    pub(crate) fn finish(&self, what: &str) -> GdResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(GdError::Internal(format!(
                "wire: trailing bytes after {what}"
            )))
        }
    }
}

/// One shape's wire layout, written once: what [`put`](Wire::put) writes,
/// [`get`](Wire::get) reads back, and [`encoded_len`] counts.
pub trait Wire: Sized {
    /// Append this value's encoding.
    fn put<B: BufMut>(&self, buf: &mut B);
    /// Read one value, failing on truncation, an unknown tag or nesting
    /// past [`MAX_NESTING`].
    fn get(r: &mut Reader<'_>) -> GdResult<Self>;
}

/// Exact encoded size of `x` — the one byte count: the I/O scheduler sizes
/// each buffered traverser and message with it, and it is [`Wire::put`]
/// run into a counting sink, so there is no second description of the
/// layout to keep in step.
pub fn encoded_len<T: Wire>(x: &T) -> usize {
    let mut n = ByteCount(0);
    x.put(&mut n);
    n.0
}

/// A [`BufMut`] that keeps the length and drops the bytes: the sink
/// [`encoded_len`] runs the encoders into.
struct ByteCount(usize);

impl BufMut for ByteCount {
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }
    fn put_u16_le(&mut self, _: u16) {
        self.0 += 2;
    }
    fn put_u32_le(&mut self, _: u32) {
        self.0 += 4;
    }
    fn put_u64_le(&mut self, _: u64) {
        self.0 += 8;
    }
    fn put_i64_le(&mut self, _: i64) {
        self.0 += 8;
    }
    fn put_f64_le(&mut self, _: f64) {
        self.0 += 8;
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.0 += s.len();
    }
}

// ---------------------------------------------------------------------------
// Primitives: integers, id newtypes, strings, sequences, options, tuples
// ---------------------------------------------------------------------------

/// Put each field in order: a struct or variant body written as its
/// field list.
macro_rules! put {
    ($buf:ident, $($field:expr),+ $(,)?) => {{
        $($field.put($buf);)+
    }};
}

/// Fixed-width integers, little-endian.
macro_rules! int_wire {
    ($($t:ty => $put:ident),* $(,)?) => {$(
        impl Wire for $t {
            fn put<B: BufMut>(&self, buf: &mut B) {
                buf.$put(*self);
            }
            fn get(r: &mut Reader<'_>) -> GdResult<Self> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

int_wire!(u8 => put_u8, u16 => put_u16_le, u32 => put_u32_le, u64 => put_u64_le,
    i64 => put_i64_le, f64 => put_f64_le);

/// The id newtypes: their integer's layout.
macro_rules! newtype_wire {
    ($($t:ident($inner:ty)),* $(,)?) => {$(
        impl Wire for $t {
            fn put<B: BufMut>(&self, buf: &mut B) {
                self.0.put(buf);
            }
            fn get(r: &mut Reader<'_>) -> GdResult<Self> {
                Ok($t(<$inner>::get(r)?))
            }
        }
    )*};
}

newtype_wire!(
    QueryId(u64),
    Weight(u64),
    PartId(u32),
    WorkerId(u32),
    VertexId(u64),
    Label(u16),
    PropKey(u16)
);

/// Counts, indices and limits travel as `u32`.
impl Wire for usize {
    fn put<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32_le(*self as u32);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok(u32::get(r)? as usize)
    }
}

/// `u32 len | len bytes of UTF-8`.
impl Wire for String {
    fn put<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok(r.str()?.to_owned())
    }
}

/// Same layout as `String`.
impl Wire for Arc<str> {
    fn put<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok(Arc::from(r.str()?))
    }
}

/// `count | count × item`: the one sequence layout. `count` is a `u32`
/// everywhere but a traverser's locals and the batch frame's progress
/// trailer, which count in a `u16`.
pub(crate) fn put_seq<T: Wire, B: BufMut>(buf: &mut B, count: impl Wire, items: &[T]) {
    count.put(buf);
    for x in items {
        x.put(buf);
    }
}

/// Read the `n` items of a sequence whose count was just read: the one
/// decode loop every sequence shares.
pub(crate) fn get_seq<'a, T>(
    r: &mut Reader<'a>,
    n: usize,
    mut item: impl FnMut(&mut Reader<'a>) -> GdResult<T>,
) -> GdResult<Vec<T>> {
    // A count read off the wire must not size the allocation; a body too
    // short for it ends the loop with a truncation error.
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

impl<T: Wire> Wire for Vec<T> {
    fn put<B: BufMut>(&self, buf: &mut B) {
        put_seq(buf, self.len() as u32, self);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        let n = u32::get(r)? as usize;
        get_seq(r, n, T::get)
    }
}

/// `u8 0`, or `u8 1` and the item.
impl<T: Wire> Wire for Option<T> {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            None => buf.put_u8(0),
            Some(x) => {
                buf.put_u8(1);
                x.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            t => Err(bad("option", t)),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put<B: BufMut>(&self, buf: &mut B) {
        (**self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok(Box::new(T::get(r)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put<M: BufMut>(&self, buf: &mut M) {
        put!(buf, self.0, self.1);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put<M: BufMut>(&self, buf: &mut M) {
        put!(buf, self.0, self.1, self.2);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Entries sorted by the key's total order, so identical maps are
/// identical bytes whatever the hash-map iteration order.
impl<K: Wire + Ord + std::hash::Hash, V: Wire> Wire for FxHashMap<K, V> {
    fn put<B: BufMut>(&self, buf: &mut B) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        buf.put_u32_le(entries.len() as u32);
        for (k, v) in entries {
            put!(buf, k, v);
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok(Vec::<(K, V)>::get(r)?.into_iter().collect())
    }
}

// ---------------------------------------------------------------------------
// Values and traversers
// ---------------------------------------------------------------------------
//
// `ValueKey` shares `Value`'s tag space, with `Float` keyed by IEEE-754 bits.

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_VERTEX: u8 = 6;
const TAG_LIST: u8 = 7;

impl Wire for Value {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
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
                s.put(buf);
            }
            Value::Vertex(v) => {
                buf.put_u8(TAG_VERTEX);
                v.put(buf);
            }
            Value::List(l) => {
                buf.put_u8(TAG_LIST);
                put_seq(buf, l.len() as u32, l);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        r.nested(|r| match u8::get(r)? {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL_FALSE => Ok(Value::Bool(false)),
            TAG_BOOL_TRUE => Ok(Value::Bool(true)),
            TAG_INT => Ok(Value::Int(i64::get(r)?)),
            TAG_FLOAT => Ok(Value::Float(f64::get(r)?)),
            TAG_STR => Ok(Value::Str(Arc::get(r)?)),
            TAG_VERTEX => Ok(Value::Vertex(VertexId::get(r)?)),
            TAG_LIST => Ok(Value::list(Vec::get(r)?)),
            t => Err(bad("value", t)),
        })
    }
}

impl Wire for ValueKey {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            ValueKey::Null => buf.put_u8(TAG_NULL),
            ValueKey::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
            ValueKey::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
            ValueKey::Int(i) => {
                buf.put_u8(TAG_INT);
                buf.put_i64_le(*i);
            }
            ValueKey::Float(bits) => {
                buf.put_u8(TAG_FLOAT);
                buf.put_u64_le(*bits);
            }
            ValueKey::Str(s) => {
                buf.put_u8(TAG_STR);
                s.put(buf);
            }
            ValueKey::Vertex(v) => {
                buf.put_u8(TAG_VERTEX);
                v.put(buf);
            }
            ValueKey::List(l) => {
                buf.put_u8(TAG_LIST);
                l.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        r.nested(|r| match u8::get(r)? {
            TAG_NULL => Ok(ValueKey::Null),
            TAG_BOOL_FALSE => Ok(ValueKey::Bool(false)),
            TAG_BOOL_TRUE => Ok(ValueKey::Bool(true)),
            TAG_INT => Ok(ValueKey::Int(i64::get(r)?)),
            TAG_FLOAT => Ok(ValueKey::Float(u64::get(r)?)),
            TAG_STR => Ok(ValueKey::Str(Arc::get(r)?)),
            TAG_VERTEX => Ok(ValueKey::Vertex(VertexId::get(r)?)),
            TAG_LIST => Ok(ValueKey::List(Vec::get(r)?)),
            t => Err(bad("value-key", t)),
        })
    }
}

/// Put a traverser's fields but its register file — `u64 query | u16
/// pipeline | u16 pc | u64 vertex | u64 weight | u32 depth | aux key
/// option` — from the flat traverser or the arena one: both hold them.
macro_rules! put_head {
    ($buf:ident, $t:expr) => {
        put!(
            $buf,
            $t.query,
            $t.pipeline,
            $t.pc,
            $t.vertex,
            $t.weight,
            $t.depth,
            $t.aux_key
        )
    };
}

/// Read a head back, as an arena traverser with no register file yet.
fn get_head(r: &mut Reader<'_>) -> GdResult<ArenaTraverser> {
    Ok(ArenaTraverser {
        query: QueryId::get(r)?,
        pipeline: u16::get(r)?,
        pc: u16::get(r)?,
        vertex: VertexId::get(r)?,
        weight: Weight::get(r)?,
        depth: u32::get(r)?,
        aux_key: Option::get(r)?,
        locals: LocalsId::INVALID,
    })
}

/// A register file: `u16 n | n × local`.
fn put_locals<B: BufMut>(buf: &mut B, locals: &[Value]) {
    put_seq(buf, locals.len() as u16, locals);
}

fn get_locals(r: &mut Reader<'_>) -> GdResult<Vec<Value>> {
    let n = u16::get(r)? as usize;
    get_seq(r, n, Value::get)
}

/// Encoded size of an arena traverser's wire form but its register file.
pub(crate) fn head_len(at: &ArenaTraverser) -> usize {
    let buf = &mut ByteCount(0);
    put_head!(buf, at);
    buf.0
}

/// Encoded size of a register file in a wire traverser: with
/// [`head_len`], exactly [`encoded_len`] of the traverser holding it.
pub(crate) fn locals_len(locals: &[Value]) -> usize {
    let mut n = ByteCount(0);
    put_locals(&mut n, locals);
    n.0
}

/// `u64 query | u16 pipeline | u16 pc | u64 vertex | u64 weight |
/// u32 depth | aux key option | u16 n | n × local`.
impl Wire for Traverser {
    fn put<B: BufMut>(&self, buf: &mut B) {
        put_head!(buf, self);
        put_locals(buf, &self.locals);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        let at = get_head(r)?;
        Ok(at.with_locals(get_locals(r)?))
    }
}

/// `u32 r | r × (u16 n | n × local) | u32 t | t × (head | u32 record)`:
/// each register file once, then the traversers, each naming its record —
/// one the run carries, and one no other query's traverser names.
impl Wire for HandOff {
    fn put<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32_le(self.records.len() as u32);
        for record in &self.records {
            put_locals(buf, record);
        }
        buf.put_u32_le(self.traversers.len() as u32);
        for at in &self.traversers {
            put_head!(buf, at);
            buf.put_u32_le(at.locals.index() as u32);
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        let mut run = HandOff::default();
        let n = u32::get(r)? as usize;
        run.records = get_seq(r, n, get_locals)?;
        let mut owner = vec![None; n];
        for _ in 0..u32::get(r)? {
            let (at, record) = (get_head(r)?, u32::get(r)?);
            let Some(first) = owner.get_mut(record as usize) else {
                return Err(GdError::Internal(format!(
                    "wire: hand-off record {record} of {n}"
                )));
            };
            let (first, query) = (*first.get_or_insert(at.query), at.query);
            if first != query {
                return Err(GdError::Internal(format!(
                    "wire: hand-off record {record} shared by queries {first:?} and {query:?}"
                )));
            }
            run.push_indexed(at, record);
        }
        Ok(run)
    }
}

// ---------------------------------------------------------------------------
// Expressions and plans
// ---------------------------------------------------------------------------

/// A fieldless enum as one `u8` tag, in declaration order.
macro_rules! tag_wire {
    ($t:ident, $what:literal, $($v:ident = $tag:literal),* $(,)?) => {
        impl Wire for $t {
            fn put<B: BufMut>(&self, buf: &mut B) {
                buf.put_u8(match self {
                    $($t::$v => $tag,)*
                });
            }
            fn get(r: &mut Reader<'_>) -> GdResult<Self> {
                match u8::get(r)? {
                    $($tag => Ok($t::$v),)*
                    t => Err(bad($what, t)),
                }
            }
        }
    };
}

tag_wire!(
    CmpOp,
    "cmp-op",
    Eq = 0,
    Ne = 1,
    Lt = 2,
    Le = 3,
    Gt = 4,
    Ge = 5
);
tag_wire!(Order, "order", Asc = 0, Desc = 1);
tag_wire!(
    GroupOrder,
    "group-order",
    CountDesc = 0,
    CountAsc = 1,
    KeyAsc = 2
);
tag_wire!(Direction, "direction", Out = 0, In = 1, Both = 2);
tag_wire!(JoinSide, "join-side", Probe = 0, Build = 1);

impl Wire for Expr {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            Expr::Const(v) => {
                buf.put_u8(0);
                v.put(buf);
            }
            Expr::Param(i) => {
                buf.put_u8(1);
                i.put(buf);
            }
            Expr::Slot(s) => {
                buf.put_u8(2);
                s.put(buf);
            }
            Expr::VertexId => buf.put_u8(3),
            Expr::Prop(k) => {
                buf.put_u8(4);
                k.put(buf);
            }
            Expr::LabelIs(l) => {
                buf.put_u8(5);
                l.put(buf);
            }
            Expr::Cmp(a, op, b) => {
                buf.put_u8(6);
                a.put(buf);
                op.put(buf);
                b.put(buf);
            }
            Expr::And(xs) => {
                buf.put_u8(7);
                xs.put(buf);
            }
            Expr::Or(xs) => {
                buf.put_u8(8);
                xs.put(buf);
            }
            Expr::Not(x) => {
                buf.put_u8(9);
                x.put(buf);
            }
            Expr::In(x, set) => {
                buf.put_u8(10);
                x.put(buf);
                set.put(buf);
            }
            Expr::IsNull(x) => {
                buf.put_u8(11);
                x.put(buf);
            }
            Expr::Add(a, b) => {
                buf.put_u8(12);
                put!(buf, a, b);
            }
            Expr::Sub(a, b) => {
                buf.put_u8(13);
                put!(buf, a, b);
            }
            Expr::Mul(a, b) => {
                buf.put_u8(14);
                put!(buf, a, b);
            }
            Expr::Tuple(xs) => {
                buf.put_u8(15);
                xs.put(buf);
            }
            Expr::Month(x) => {
                buf.put_u8(16);
                x.put(buf);
            }
            Expr::Day(x) => {
                buf.put_u8(17);
                x.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        r.nested(|r| match u8::get(r)? {
            0 => Ok(Expr::Const(Value::get(r)?)),
            1 => Ok(Expr::Param(usize::get(r)?)),
            2 => Ok(Expr::Slot(u8::get(r)?)),
            3 => Ok(Expr::VertexId),
            4 => Ok(Expr::Prop(PropKey::get(r)?)),
            5 => Ok(Expr::LabelIs(Label::get(r)?)),
            6 => Ok(Expr::Cmp(Box::get(r)?, CmpOp::get(r)?, Box::get(r)?)),
            7 => Ok(Expr::And(Vec::get(r)?)),
            8 => Ok(Expr::Or(Vec::get(r)?)),
            9 => Ok(Expr::Not(Box::get(r)?)),
            10 => Ok(Expr::In(Box::get(r)?, Vec::get(r)?)),
            11 => Ok(Expr::IsNull(Box::get(r)?)),
            12 => Ok(Expr::Add(Box::get(r)?, Box::get(r)?)),
            13 => Ok(Expr::Sub(Box::get(r)?, Box::get(r)?)),
            14 => Ok(Expr::Mul(Box::get(r)?, Box::get(r)?)),
            15 => Ok(Expr::Tuple(Vec::get(r)?)),
            16 => Ok(Expr::Month(Box::get(r)?)),
            17 => Ok(Expr::Day(Box::get(r)?)),
            t => Err(bad("expr", t)),
        })
    }
}

impl Wire for SourceSpec {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            SourceSpec::Param { param } => {
                buf.put_u8(0);
                param.put(buf);
            }
            SourceSpec::IndexLookup { label, key, value } => {
                buf.put_u8(1);
                put!(buf, label, key, value);
            }
            SourceSpec::ScanLabel { label } => {
                buf.put_u8(2);
                label.put(buf);
            }
            SourceSpec::PrevRows { vertex_col, seed } => {
                buf.put_u8(3);
                put!(buf, vertex_col, seed);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        match u8::get(r)? {
            0 => Ok(SourceSpec::Param {
                param: usize::get(r)?,
            }),
            1 => Ok(SourceSpec::IndexLookup {
                label: Label::get(r)?,
                key: PropKey::get(r)?,
                value: Expr::get(r)?,
            }),
            2 => Ok(SourceSpec::ScanLabel {
                label: Label::get(r)?,
            }),
            3 => Ok(SourceSpec::PrevRows {
                vertex_col: usize::get(r)?,
                seed: Vec::get(r)?,
            }),
            t => Err(bad("source", t)),
        }
    }
}

impl Wire for PlanStep {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            PlanStep::Expand {
                dir,
                label,
                edge_loads,
            } => {
                buf.put_u8(0);
                put!(buf, dir, label, edge_loads);
            }
            PlanStep::Filter(e) => {
                buf.put_u8(1);
                e.put(buf);
            }
            PlanStep::Load(loads) => {
                buf.put_u8(2);
                loads.put(buf);
            }
            PlanStep::Compute(assigns) => {
                buf.put_u8(3);
                assigns.put(buf);
            }
            PlanStep::Dedup { slots } => {
                buf.put_u8(4);
                slots.put(buf);
            }
            PlanStep::MinDist { dist_slot } => {
                buf.put_u8(5);
                dist_slot.put(buf);
            }
            PlanStep::LoopEnd {
                counter,
                min,
                max,
                back_to,
            } => {
                buf.put_u8(6);
                put!(buf, counter, min, max, back_to);
            }
            PlanStep::Join { join_id, side, key } => {
                buf.put_u8(7);
                put!(buf, join_id, side, key);
            }
            PlanStep::MoveTo { vertex_slot } => {
                buf.put_u8(8);
                vertex_slot.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        match u8::get(r)? {
            0 => Ok(PlanStep::Expand {
                dir: Direction::get(r)?,
                label: Label::get(r)?,
                edge_loads: Vec::get(r)?,
            }),
            1 => Ok(PlanStep::Filter(Expr::get(r)?)),
            2 => Ok(PlanStep::Load(Vec::get(r)?)),
            3 => Ok(PlanStep::Compute(Vec::get(r)?)),
            4 => Ok(PlanStep::Dedup {
                slots: Vec::get(r)?,
            }),
            5 => Ok(PlanStep::MinDist {
                dist_slot: u8::get(r)?,
            }),
            6 => Ok(PlanStep::LoopEnd {
                counter: u8::get(r)?,
                min: i64::get(r)?,
                max: i64::get(r)?,
                back_to: u16::get(r)?,
            }),
            7 => Ok(PlanStep::Join {
                join_id: u16::get(r)?,
                side: JoinSide::get(r)?,
                key: Expr::get(r)?,
            }),
            8 => Ok(PlanStep::MoveTo {
                vertex_slot: u8::get(r)?,
            }),
            t => Err(bad("plan-step", t)),
        }
    }
}

impl Wire for AggFunc {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            AggFunc::Count => buf.put_u8(0),
            AggFunc::Sum(e) => {
                buf.put_u8(1);
                e.put(buf);
            }
            AggFunc::Min(e) => {
                buf.put_u8(2);
                e.put(buf);
            }
            AggFunc::Max(e) => {
                buf.put_u8(3);
                e.put(buf);
            }
            AggFunc::Avg(e) => {
                buf.put_u8(4);
                e.put(buf);
            }
            AggFunc::TopK {
                k,
                sort,
                output,
                distinct,
            } => {
                buf.put_u8(5);
                put!(buf, k, sort, output, distinct);
            }
            AggFunc::GroupCount { key, order, limit } => {
                buf.put_u8(6);
                put!(buf, key, order, limit);
            }
            AggFunc::GroupSum {
                key,
                value,
                order,
                limit,
            } => {
                buf.put_u8(7);
                put!(buf, key, value, order, limit);
            }
            AggFunc::Collect { output, limit } => {
                buf.put_u8(8);
                put!(buf, output, limit);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        match u8::get(r)? {
            0 => Ok(AggFunc::Count),
            1 => Ok(AggFunc::Sum(Expr::get(r)?)),
            2 => Ok(AggFunc::Min(Expr::get(r)?)),
            3 => Ok(AggFunc::Max(Expr::get(r)?)),
            4 => Ok(AggFunc::Avg(Expr::get(r)?)),
            5 => Ok(AggFunc::TopK {
                k: usize::get(r)?,
                sort: Vec::get(r)?,
                output: Vec::get(r)?,
                distinct: Vec::get(r)?,
            }),
            6 => Ok(AggFunc::GroupCount {
                key: Expr::get(r)?,
                order: GroupOrder::get(r)?,
                limit: usize::get(r)?,
            }),
            7 => Ok(AggFunc::GroupSum {
                key: Expr::get(r)?,
                value: Expr::get(r)?,
                order: GroupOrder::get(r)?,
                limit: usize::get(r)?,
            }),
            8 => Ok(AggFunc::Collect {
                output: Vec::get(r)?,
                limit: usize::get(r)?,
            }),
            t => Err(bad("agg-func", t)),
        }
    }
}

/// `u16 join_id | u16 probe_pipeline`.
impl Wire for JoinSpec {
    fn put<B: BufMut>(&self, buf: &mut B) {
        put!(buf, self.join_id, self.probe_pipeline);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok(JoinSpec {
            join_id: u16::get(r)?,
            probe_pipeline: u16::get(r)?,
        })
    }
}

/// `source | steps`.
impl Wire for Pipeline {
    fn put<B: BufMut>(&self, buf: &mut B) {
        put!(buf, self.source, self.steps);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok(Pipeline {
            source: SourceSpec::get(r)?,
            steps: Vec::get(r)?,
        })
    }
}

/// `num_slots | pipelines | joins | output | agg option`.
impl Wire for Stage {
    fn put<B: BufMut>(&self, buf: &mut B) {
        put!(
            buf,
            self.num_slots,
            self.pipelines,
            self.joins,
            self.output,
            self.agg
        );
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        let num_slots = usize::get(r)?;
        Ok(Stage {
            pipelines: Vec::get(r)?,
            joins: Vec::get(r)?,
            output: Vec::get(r)?,
            agg: Option::get(r)?,
            num_slots,
        })
    }
}

/// The function alone.
impl Wire for AggSpec {
    fn put<B: BufMut>(&self, buf: &mut B) {
        self.func.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        Ok(AggSpec {
            func: AggFunc::get(r)?,
        })
    }
}

/// `num_params | stages`.
impl Wire for Plan {
    fn put<B: BufMut>(&self, buf: &mut B) {
        put!(buf, self.num_params, self.stages);
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        let num_params = usize::get(r)?;
        Ok(Plan {
            stages: Vec::get(r)?,
            num_params,
        })
    }
}

// ---------------------------------------------------------------------------
// Aggregation partials and errors
// ---------------------------------------------------------------------------

impl Wire for AggState {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            AggState::Count(n) => {
                buf.put_u8(0);
                n.put(buf);
            }
            AggState::Sum(v) => {
                buf.put_u8(1);
                v.put(buf);
            }
            AggState::Min(v) => {
                buf.put_u8(2);
                v.put(buf);
            }
            AggState::Max(v) => {
                buf.put_u8(3);
                v.put(buf);
            }
            AggState::Avg { sum, count } => {
                buf.put_u8(4);
                put!(buf, sum, count);
            }
            AggState::TopK { rows } => {
                buf.put_u8(5);
                rows.put(buf);
            }
            AggState::GroupCount { map } => {
                buf.put_u8(6);
                map.put(buf);
            }
            AggState::GroupSum { map } => {
                buf.put_u8(7);
                map.put(buf);
            }
            AggState::Collect { rows } => {
                buf.put_u8(8);
                rows.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        match u8::get(r)? {
            0 => Ok(AggState::Count(u64::get(r)?)),
            1 => Ok(AggState::Sum(Value::get(r)?)),
            2 => Ok(AggState::Min(Option::get(r)?)),
            3 => Ok(AggState::Max(Option::get(r)?)),
            4 => Ok(AggState::Avg {
                sum: f64::get(r)?,
                count: u64::get(r)?,
            }),
            5 => Ok(AggState::TopK { rows: Vec::get(r)? }),
            6 => Ok(AggState::GroupCount { map: Wire::get(r)? }),
            7 => Ok(AggState::GroupSum { map: Wire::get(r)? }),
            8 => Ok(AggState::Collect { rows: Vec::get(r)? }),
            t => Err(bad("agg-state", t)),
        }
    }
}

impl Wire for GdError {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            GdError::VertexNotFound(v) => {
                buf.put_u8(0);
                v.put(buf);
            }
            GdError::UnknownSymbol(s) => {
                buf.put_u8(1);
                s.put(buf);
            }
            GdError::InvalidProgram(s) => {
                buf.put_u8(2);
                s.put(buf);
            }
            GdError::Parse { offset, message } => {
                buf.put_u8(3);
                put!(buf, offset, message);
            }
            GdError::TypeError(s) => {
                buf.put_u8(4);
                s.put(buf);
            }
            GdError::EngineClosed => buf.put_u8(5),
            GdError::QueryTimeout(q) => {
                buf.put_u8(6);
                q.put(buf);
            }
            GdError::QueryCancelled(q) => {
                buf.put_u8(7);
                q.put(buf);
            }
            GdError::Overloaded => buf.put_u8(8),
            GdError::TxnAborted(s) => {
                buf.put_u8(9);
                s.put(buf);
            }
            GdError::InvariantViolation(s) => {
                buf.put_u8(10);
                s.put(buf);
            }
            GdError::Internal(s) => {
                buf.put_u8(11);
                s.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        match u8::get(r)? {
            0 => Ok(GdError::VertexNotFound(VertexId::get(r)?)),
            1 => Ok(GdError::UnknownSymbol(String::get(r)?)),
            2 => Ok(GdError::InvalidProgram(String::get(r)?)),
            3 => Ok(GdError::Parse {
                offset: usize::get(r)?,
                message: String::get(r)?,
            }),
            4 => Ok(GdError::TypeError(String::get(r)?)),
            5 => Ok(GdError::EngineClosed),
            6 => Ok(GdError::QueryTimeout(QueryId::get(r)?)),
            7 => Ok(GdError::QueryCancelled(QueryId::get(r)?)),
            8 => Ok(GdError::Overloaded),
            9 => Ok(GdError::TxnAborted(String::get(r)?)),
            10 => Ok(GdError::InvariantViolation(String::get(r)?)),
            11 => Ok(GdError::Internal(String::get(r)?)),
            t => Err(bad("error", t)),
        }
    }
}

// ---------------------------------------------------------------------------
// WorkerMsg / CoordMsg / WireMsg
// ---------------------------------------------------------------------------

impl Wire for WorkerMsg {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            WorkerMsg::HandOff(run) => {
                buf.put_u8(0);
                run.put(buf);
            }
            WorkerMsg::QueryBegin { ctx, stage, from } => {
                buf.put_u8(1);
                stage.put(buf);
                buf.put_u32_le(from.map_or(FROM_COORDINATOR, |w| w.0));
                put!(buf, ctx.query, ctx.plan, ctx.params, ctx.read_ts);
            }
            WorkerMsg::StageBegin { query, stage } => {
                buf.put_u8(2);
                put!(buf, query, stage);
            }
            WorkerMsg::StartSource {
                query,
                pipeline,
                weight,
            } => {
                buf.put_u8(3);
                put!(buf, query, pipeline, weight);
            }
            WorkerMsg::QueryEnd { query } => {
                buf.put_u8(5);
                query.put(buf);
            }
            WorkerMsg::CancelQuery { query } => {
                buf.put_u8(6);
                query.put(buf);
            }
            WorkerMsg::Bsp(BspSignal::RunStep {
                query,
                depth,
                expect,
            }) => {
                buf.put_u8(11);
                put!(buf, query, depth, expect);
            }
            WorkerMsg::Bsp(BspSignal::Gather { query }) => {
                buf.put_u8(4);
                query.put(buf);
            }
            WorkerMsg::Shutdown => buf.put_u8(13),
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        match u8::get(r)? {
            0 => Ok(WorkerMsg::HandOff(HandOff::get(r)?)),
            1 => {
                let stage = u16::get(r)?;
                let from = match u32::get(r)? {
                    FROM_COORDINATOR => None,
                    w => Some(WorkerId(w)),
                };
                let ctx = QueryCtx {
                    query: QueryId::get(r)?,
                    plan: Plan::get(r)?,
                    params: Vec::get(r)?,
                    read_ts: u64::get(r)?,
                };
                Ok(WorkerMsg::QueryBegin {
                    ctx: Arc::new(ctx),
                    stage,
                    from,
                })
            }
            2 => Ok(WorkerMsg::StageBegin {
                query: QueryId::get(r)?,
                stage: u16::get(r)?,
            }),
            3 => Ok(WorkerMsg::StartSource {
                query: QueryId::get(r)?,
                pipeline: u16::get(r)?,
                weight: Weight::get(r)?,
            }),
            4 => Ok(WorkerMsg::Bsp(BspSignal::Gather {
                query: QueryId::get(r)?,
            })),
            5 => Ok(WorkerMsg::QueryEnd {
                query: QueryId::get(r)?,
            }),
            6 => Ok(WorkerMsg::CancelQuery {
                query: QueryId::get(r)?,
            }),
            11 => Ok(WorkerMsg::Bsp(BspSignal::RunStep {
                query: QueryId::get(r)?,
                depth: u32::get(r)?,
                expect: u64::get(r)?,
            })),
            13 => Ok(WorkerMsg::Shutdown),
            t => Err(bad("worker-msg", t)),
        }
    }
}

/// [`CoordMsg::Submit`] is the one variant that never crosses node
/// boundaries (it carries the client's in-process reply channel):
/// [`encode_packet`] refuses it before writing a byte, so its arm here
/// writes nothing.
impl Wire for CoordMsg {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            CoordMsg::Submit { .. } => {}
            CoordMsg::Cancel { query } => {
                buf.put_u8(1);
                query.put(buf);
            }
            CoordMsg::Progress {
                query,
                weight,
                steps,
            } => {
                buf.put_u8(2);
                put!(buf, query, weight, steps);
            }
            CoordMsg::Rows { query, rows } => {
                buf.put_u8(3);
                put!(buf, query, rows);
            }
            CoordMsg::AggPartial { query, state } => {
                buf.put_u8(4);
                put!(buf, query, state);
            }
            CoordMsg::WorkerError { query, error } => {
                buf.put_u8(5);
                put!(buf, query, error);
            }
            CoordMsg::BspStepDone {
                query,
                finished,
                sent,
                consumed_count,
                steps,
            } => {
                buf.put_u8(6);
                put!(buf, query, finished, sent, consumed_count, steps);
            }
            CoordMsg::Shutdown => buf.put_u8(11),
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        match u8::get(r)? {
            1 => Ok(CoordMsg::Cancel {
                query: QueryId::get(r)?,
            }),
            2 => Ok(CoordMsg::Progress {
                query: QueryId::get(r)?,
                weight: Weight::get(r)?,
                steps: u64::get(r)?,
            }),
            3 => Ok(CoordMsg::Rows {
                query: QueryId::get(r)?,
                rows: Vec::get(r)?,
            }),
            4 => Ok(CoordMsg::AggPartial {
                query: QueryId::get(r)?,
                state: Option::get(r)?,
            }),
            5 => Ok(CoordMsg::WorkerError {
                query: QueryId::get(r)?,
                error: GdError::get(r)?,
            }),
            6 => Ok(CoordMsg::BspStepDone {
                query: QueryId::get(r)?,
                finished: Weight::get(r)?,
                sent: Vec::get(r)?,
                consumed_count: u64::get(r)?,
                steps: u64::get(r)?,
            }),
            11 => Ok(CoordMsg::Shutdown),
            t => Err(bad("coord-msg", t)),
        }
    }
}

/// `u8 0 | u32 dest | worker msg` or `u8 1 | coord msg`.
impl Wire for WireMsg {
    fn put<B: BufMut>(&self, buf: &mut B) {
        match self {
            WireMsg::Worker { dest, msg } => {
                buf.put_u8(0);
                put!(buf, dest, msg);
            }
            WireMsg::Coord(msg) => {
                buf.put_u8(1);
                msg.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> GdResult<Self> {
        match u8::get(r)? {
            0 => Ok(WireMsg::Worker {
                dest: WorkerId::get(r)?,
                msg: WorkerMsg::get(r)?,
            }),
            1 => Ok(WireMsg::Coord(CoordMsg::get(r)?)),
            t => Err(bad("wire-msg", t)),
        }
    }
}

// ---------------------------------------------------------------------------
// Packets
// ---------------------------------------------------------------------------

/// Decode exactly one wire message from the bytes [`decode_packet`] read
/// it from (a fault-injected duplicate is those bytes decoded again).
pub(crate) fn decode_msg(bytes: &[u8]) -> GdResult<WireMsg> {
    let mut r = Reader::new(bytes);
    let msg = WireMsg::get(&mut r)?;
    r.finish("message")?;
    Ok(msg)
}

/// Encode a full packet body: `u32 count | count × wire msg`. The tier-1
/// flush of a remote lane is the only caller outside tests, so every
/// message crossing a wire is encoded exactly once.
pub fn encode_packet(buf: &mut impl BufMut, msgs: &[WireMsg]) -> GdResult<()> {
    if msgs
        .iter()
        .any(|m| matches!(m, WireMsg::Coord(CoordMsg::Submit { .. })))
    {
        return Err(GdError::Internal(
            "wire: CoordMsg::Submit cannot cross node boundaries".into(),
        ));
    }
    put_seq(buf, msgs.len() as u32, msgs);
    Ok(())
}

/// Tier-2 combining: append the messages of packet body `other` to packet
/// body `body` (both written by [`encode_packet`]), leaving in `body` the
/// bytes `encode_packet` writes for the two message lists joined.
pub(crate) fn append_packet(body: &mut Vec<u8>, other: &[u8]) {
    let count = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let total = count(body) + count(other);
    body[..4].copy_from_slice(&total.to_le_bytes());
    body.extend_from_slice(&other[4..]);
}

/// Decode a full packet body into its messages, each with the bytes it was
/// read from. Rejects trailing garbage: a packet must be consumed exactly,
/// and one bad byte anywhere fails the whole packet.
pub fn decode_packet(body: &[u8]) -> GdResult<Vec<(WireMsg, &[u8])>> {
    let mut r = Reader::new(body);
    let n = u32::get(&mut r)? as usize;
    let msgs = get_seq(&mut r, n, |r| {
        let start = r.pos;
        let msg = WireMsg::get(r)?;
        Ok((msg, &body[start..r.pos]))
    })?;
    r.finish("packet body")?;
    Ok(msgs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> Plan {
        Plan {
            stages: vec![Stage {
                pipelines: vec![Pipeline {
                    source: SourceSpec::IndexLookup {
                        label: Label(1),
                        key: PropKey(2),
                        value: Expr::Param(0),
                    },
                    steps: vec![
                        PlanStep::Expand {
                            dir: Direction::Both,
                            label: Label(3),
                            edge_loads: vec![(PropKey(4), 1)],
                        },
                        PlanStep::Filter(Expr::And(vec![
                            Expr::lt(Expr::Slot(0), Expr::int(9)),
                            Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::Prop(PropKey(1)))))),
                        ])),
                        PlanStep::Compute(vec![(
                            0,
                            Expr::Add(Box::new(Expr::Slot(0)), Box::new(Expr::int(1))),
                        )]),
                        PlanStep::LoopEnd {
                            counter: 2,
                            min: 1,
                            max: 3,
                            back_to: 0,
                        },
                        PlanStep::Dedup { slots: vec![0, 2] },
                        PlanStep::MinDist { dist_slot: 2 },
                        PlanStep::Join {
                            join_id: 0,
                            side: JoinSide::Probe,
                            key: Expr::Tuple(vec![
                                Expr::VertexId,
                                Expr::Month(Box::new(Expr::Slot(1))),
                            ]),
                        },
                        PlanStep::MoveTo { vertex_slot: 1 },
                    ],
                }],
                joins: vec![JoinSpec {
                    join_id: 0,
                    probe_pipeline: 0,
                }],
                output: vec![Expr::VertexId, Expr::Day(Box::new(Expr::Slot(1)))],
                agg: Some(AggSpec {
                    func: AggFunc::TopK {
                        k: 5,
                        sort: vec![(Expr::Slot(0), Order::Desc)],
                        output: vec![Expr::VertexId],
                        distinct: vec![Expr::VertexId],
                    },
                }),
                num_slots: 3,
            }],
            num_params: 1,
        }
    }

    /// Put `x`, check that [`encoded_len`] is the encoder's own count, and
    /// read it back, consuming every byte — every round-trip test below
    /// goes through here.
    fn roundtrip<T: Wire>(x: &T) -> T {
        let mut buf = Vec::new();
        x.put(&mut buf);
        assert_eq!(encoded_len(x), buf.len(), "encoded_len drifted");
        let mut r = Reader::new(&buf);
        let back = T::get(&mut r).unwrap();
        r.finish("test value").unwrap();
        back
    }

    /// `ts` as a run, each traverser a record of its own.
    fn run_of(ts: Vec<Traverser>) -> HandOff {
        let mut run = HandOff::default();
        ts.into_iter().for_each(|t| run.push(t));
        run
    }

    fn roundtrip_worker(msg: WorkerMsg) -> WorkerMsg {
        let dest = WorkerId(7);
        match roundtrip(&WireMsg::Worker { dest, msg }) {
            WireMsg::Worker { dest: d, msg } if d == dest => msg,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn roundtrip_coord(msg: CoordMsg) -> CoordMsg {
        match roundtrip(&WireMsg::Coord(msg)) {
            WireMsg::Coord(msg) => msg,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Encode `msgs` as one packet, check the body is the `u32` count plus
    /// each message's [`encoded_len`], and decode it back: every message,
    /// each paired with exactly the bytes it was read from.
    fn roundtrip_packet(msgs: &[WireMsg]) -> (Vec<u8>, Vec<WireMsg>) {
        let mut body = Vec::new();
        encode_packet(&mut body, msgs).unwrap();
        let payload: usize = msgs.iter().map(encoded_len).sum();
        assert_eq!(4 + payload, body.len(), "u32 count + each encoded_len");
        let back: Vec<WireMsg> = decode_packet(&body)
            .unwrap()
            .into_iter()
            .map(|(msg, bytes)| {
                assert_eq!(bytes.len(), encoded_len(&msg), "span of {msg:?}");
                let again = decode_msg(bytes).unwrap();
                assert_eq!(format!("{again:?}"), format!("{msg:?}"));
                msg
            })
            .collect();
        assert_eq!(format!("{back:?}"), format!("{msgs:?}"));
        (body, back)
    }

    #[test]
    fn value_roundtrips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.5),
            Value::str(""),
            Value::str("hello – unicode ✓"),
            Value::Vertex(VertexId(u64::MAX)),
            Value::list(vec![
                Value::Int(1),
                Value::list(vec![Value::str("nested")]),
                Value::Null,
            ]),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn garbage_tag_rejected() {
        assert!(Value::get(&mut Reader::new(&[99])).is_err());
    }

    #[test]
    fn traverser_roundtrip() {
        let mut t = Traverser::root(QueryId(9), 2, VertexId(77), 3, Weight(0xDEAD));
        t.pc = 5;
        t.depth = 4;
        t.set_slot(1, Value::str("x"));
        t.aux_key = Some(Value::Vertex(VertexId(3)));
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut t = Traverser::root(QueryId(1), 0, VertexId(1), 1, Weight(1));
        t.set_slot(0, Value::str("hello"));
        let mut full = Vec::new();
        t.put(&mut full);
        for cut in [0, 1, 8, full.len() - 1] {
            let mut r = Reader::new(&full[..cut]);
            assert!(Traverser::get(&mut r).is_err(), "cut at {cut}");
        }
    }

    /// The size the outbox buffers a traverser by, field by field.
    #[test]
    fn encoded_len_counts_every_traverser_field() {
        let mut t = Traverser::root(QueryId(1), 0, VertexId(5), 0, Weight::ROOT);
        let fixed = 8 + 2 + 2 + 8 + 8 + 4 + 1 + 2;
        assert_eq!(encoded_len(&t), fixed);
        t.aux_key = Some(Value::str("key"));
        assert_eq!(encoded_len(&t), fixed + 1 + 4 + 3);
        t.set_slot(0, Value::Int(9));
        assert_eq!(encoded_len(&t), fixed + 1 + 4 + 3 + 9);
    }

    #[test]
    fn plan_roundtrips() {
        assert_eq!(roundtrip(&sample_plan()), sample_plan());
    }

    #[test]
    fn every_source_and_agg_variant_roundtrips() {
        assert_eq!(roundtrip(&pinned_plan()), pinned_plan());
    }

    #[test]
    fn query_begin_roundtrips_with_full_plan() {
        for from in [None, Some(WorkerId(0)), Some(WorkerId(7))] {
            let msg = WorkerMsg::QueryBegin {
                ctx: Arc::new(QueryCtx {
                    query: QueryId(42),
                    plan: sample_plan(),
                    params: vec![Value::str("alice"), Value::Int(7)],
                    read_ts: 9,
                }),
                stage: 1,
                from,
            };
            let WorkerMsg::QueryBegin {
                ctx,
                stage,
                from: got,
            } = roundtrip_worker(msg)
            else {
                panic!("decoded to another variant");
            };
            assert_eq!((stage, got), (1, from), "the introducer travels");
            assert_eq!(ctx.query, QueryId(42));
            assert_eq!(ctx.plan, sample_plan());
            assert_eq!(ctx.params, vec![Value::str("alice"), Value::Int(7)]);
            assert_eq!(ctx.read_ts, 9);
        }
    }

    #[test]
    fn every_worker_msg_variant_roundtrips() {
        let msgs = vec![
            WorkerMsg::HandOff(run_of(vec![Traverser::root(
                QueryId(1),
                0,
                VertexId(2),
                2,
                Weight(5),
            )])),
            WorkerMsg::StageBegin {
                query: QueryId(1),
                stage: 2,
            },
            WorkerMsg::StartSource {
                query: QueryId(1),
                pipeline: 0,
                weight: Weight(u64::MAX),
            },
            WorkerMsg::QueryEnd { query: QueryId(1) },
            WorkerMsg::CancelQuery { query: QueryId(1) },
            WorkerMsg::Bsp(BspSignal::RunStep {
                query: QueryId(1),
                depth: 4,
                expect: 7,
            }),
            WorkerMsg::Bsp(BspSignal::Gather { query: QueryId(1) }),
            WorkerMsg::Shutdown,
        ];
        for msg in msgs {
            // WorkerMsg is not PartialEq (Arc ctx); compare debug renders,
            // which include every payload field.
            let sent = format!("{msg:?}");
            assert_eq!(sent, format!("{:?}", roundtrip_worker(msg)));
        }
    }

    #[test]
    fn every_coord_msg_variant_roundtrips() {
        let mut map = FxHashMap::default();
        map.insert(ValueKey::Int(1), 5i64);
        map.insert(ValueKey::Str(Arc::from("k")), -2);
        let msgs = vec![
            CoordMsg::Cancel { query: QueryId(3) },
            CoordMsg::Progress {
                query: QueryId(3),
                weight: Weight(77),
                steps: 5,
            },
            CoordMsg::Rows {
                query: QueryId(3),
                rows: vec![vec![Value::Int(1), Value::str("x")], vec![Value::Null]],
            },
            CoordMsg::AggPartial {
                query: QueryId(3),
                state: Some(Box::new(AggState::GroupCount { map })),
            },
            CoordMsg::AggPartial {
                query: QueryId(3),
                state: None,
            },
            CoordMsg::WorkerError {
                query: QueryId(3),
                error: GdError::VertexNotFound(VertexId(9)),
            },
            CoordMsg::BspStepDone {
                query: QueryId(3),
                finished: Weight(1),
                sent: vec![2, 0, u64::MAX],
                consumed_count: 5,
                steps: 6,
            },
            CoordMsg::Shutdown,
        ];
        for msg in msgs {
            let sent = format!("{msg:?}");
            assert_eq!(sent, format!("{:?}", roundtrip_coord(msg)));
        }
    }

    #[test]
    fn submit_refuses_to_cross_the_wire() {
        let (reply, _rx) = crossbeam::channel::unbounded();
        let msg = CoordMsg::Submit {
            query: QueryId(1),
            plan: sample_plan(),
            params: vec![],
            read_ts: None,
            reply: reply.into(),
            submitted_at: std::time::Instant::now(), // lint: allow(sim-determinism) test constructs a never-sent message
            deadline: None,
        };
        let mut buf = Vec::new();
        assert!(encode_packet(&mut buf, &[WireMsg::Coord(msg)]).is_err());
        assert!(buf.is_empty(), "nothing written before the refusal");
    }

    /// A run carries each shared register file once, comes back with the
    /// same sharing, and a record index past the run's records fails the
    /// decode with a typed error instead of reaching the importer.
    #[test]
    fn hand_off_crosses_with_each_shared_record_once() {
        let run = pinned_run(3);
        let (records, len) = (run.records.len(), run.len());
        let msgs = [WireMsg::Worker {
            dest: WorkerId(1),
            msg: WorkerMsg::HandOff(run),
        }];
        let (mut body, back) = roundtrip_packet(&msgs);
        let [WireMsg::Worker {
            msg: WorkerMsg::HandOff(got),
            ..
        }] = &back[..]
        else {
            panic!("a run comes back a run");
        };
        assert_eq!((got.records.len(), got.len()), (records, len));
        assert_eq!((records, len), (3, 6), "three siblings shared a record");
        // The last traverser's record index is the body's last four bytes.
        let at = body.len() - 4;
        body[at..].copy_from_slice(&(records as u32).to_le_bytes());
        let err = decode_packet(&body).unwrap_err();
        assert!(err.to_string().contains("hand-off record 3 of 3"), "{err}");
        // It is query 2's; record 0 is query 0's.
        body[at..].copy_from_slice(&0u32.to_le_bytes());
        let err = decode_packet(&body).unwrap_err();
        assert!(
            err.to_string()
                .contains("hand-off record 0 shared by queries"),
            "{err}"
        );
    }

    #[test]
    fn agg_state_map_encoding_is_deterministic() {
        // Build two maps with different insertion orders; bytes must match.
        let mut a = FxHashMap::default();
        let mut b = FxHashMap::default();
        for i in 0..20i64 {
            a.insert(ValueKey::Int(i), i * 2);
        }
        for i in (0..20i64).rev() {
            b.insert(ValueKey::Int(i), i * 2);
        }
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        AggState::GroupSum { map: a }.put(&mut ba);
        AggState::GroupSum { map: b }.put(&mut bb);
        assert_eq!(ba, bb, "sorted-entry encoding is order independent");
    }

    #[test]
    fn all_agg_states_roundtrip() {
        for s in pinned_agg_states() {
            assert_eq!(roundtrip(&s), s);
            roundtrip_coord(CoordMsg::AggPartial {
                query: QueryId(1),
                state: Some(Box::new(s)),
            });
        }
    }

    #[test]
    fn all_errors_roundtrip() {
        for e in pinned_errors() {
            assert_eq!(format!("{:?}", roundtrip(&e)), format!("{e:?}"));
            roundtrip_coord(CoordMsg::WorkerError {
                query: QueryId(1),
                error: e,
            });
        }
    }

    #[test]
    fn packet_roundtrips_and_rejects_garbage() {
        let msgs = vec![
            WireMsg::Worker {
                dest: WorkerId(3),
                msg: WorkerMsg::HandOff(run_of(vec![Traverser::root(
                    QueryId(1),
                    0,
                    VertexId(1),
                    1,
                    Weight(1),
                )])),
            },
            WireMsg::Coord(CoordMsg::Progress {
                query: QueryId(1),
                weight: Weight(2),
                steps: 3,
            }),
            WireMsg::Coord(CoordMsg::Rows {
                query: QueryId(1),
                rows: vec![vec![Value::Int(5)]],
            }),
            WireMsg::Worker {
                dest: WorkerId(0),
                msg: WorkerMsg::QueryEnd { query: QueryId(1) },
            },
            WireMsg::Coord(CoordMsg::Shutdown),
        ];
        let (body, _) = roundtrip_packet(&msgs);
        // Truncations at every boundary fail loudly, never panic.
        for cut in 0..body.len() {
            assert!(decode_packet(&body[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected.
        let mut noisy = body.clone();
        noisy.push(0xAB);
        assert!(decode_packet(&noisy).is_err());
    }

    /// Traverser runs of every shape the interpreter produces — locals,
    /// aux keys, nested values, shared records, the empty run — survive a
    /// packet exactly.
    #[test]
    fn packet_roundtrips_traverser_batches() {
        let msgs: Vec<WireMsg> = [0, 1, 17]
            .into_iter()
            .map(|n| WireMsg::Worker {
                dest: WorkerId(n as u32),
                msg: WorkerMsg::HandOff(pinned_run(n)),
            })
            .collect();
        let (_, mut back) = roundtrip_packet(&msgs);
        let Some(WireMsg::Worker {
            msg: WorkerMsg::HandOff(run),
            ..
        }) = back.pop()
        else {
            panic!("a run comes back a run");
        };
        assert_eq!(run.into_traversers(), pinned_run(17).into_traversers());
    }

    /// Joining flushed bodies gives exactly the body of the joined list.
    #[test]
    fn appended_packets_equal_one_packet_of_both() {
        let msgs: Vec<WireMsg> = (0..5u64)
            .map(|i| {
                WireMsg::Coord(CoordMsg::Progress {
                    query: QueryId(i),
                    weight: Weight(i),
                    steps: i,
                })
            })
            .collect();
        let (mut joined, mut tail, mut whole) = (Vec::new(), Vec::new(), Vec::new());
        encode_packet(&mut joined, &msgs[..2]).unwrap();
        encode_packet(&mut tail, &msgs[2..]).unwrap();
        encode_packet(&mut whole, &msgs).unwrap();
        append_packet(&mut joined, &tail);
        assert_eq!(joined, whole);
    }

    /// Tier-2 combining can put far more than 65 535 messages in one packet
    /// (up to 65 merged flushes, each holding up to `flush_threshold / 25`
    /// progress reports); the `u32` count carries them all.
    #[test]
    fn packet_count_survives_70000_messages() {
        let msgs: Vec<WireMsg> = (0..70_000u64)
            .map(|i| {
                WireMsg::Coord(CoordMsg::Progress {
                    query: QueryId(i),
                    weight: Weight(i),
                    steps: 1,
                })
            })
            .collect();
        let mut body = Vec::new();
        encode_packet(&mut body, &msgs).unwrap();
        let back = decode_packet(&body).expect("no count wrap-around");
        assert_eq!(back.len(), 70_000);
        assert!(matches!(
            back[69_999].0,
            WireMsg::Coord(CoordMsg::Progress {
                query: QueryId(69_999),
                ..
            })
        ));
    }

    /// A packet of one `CoordMsg::Rows` whose single value is a `List`
    /// nested `lists` deep around a `Null`, written byte by byte (building
    /// and dropping such a `Value` would recurse as deeply as decoding it).
    fn deep_rows_packet(lists: usize) -> Vec<u8> {
        let mut body = Vec::new();
        body.put_u32_le(1); // one message
        body.put_u8(1); // for the coordinator
        body.put_u8(3); // Rows
        body.put_u64_le(7); // query
        body.put_u32_le(1); // one row
        body.put_u32_le(1); // of one value
        for _ in 0..lists {
            body.put_u8(TAG_LIST);
            body.put_u32_le(1);
        }
        body.put_u8(TAG_NULL);
        body
    }

    fn nesting_error<T>(r: GdResult<T>) -> bool {
        matches!(r, Err(GdError::Internal(m)) if m.contains("nesting deeper than"))
    }

    /// A ~100 KB packet nested 20 000 deep — far under the frame limit —
    /// once overflowed a socket reader thread's default 2 MiB stack and
    /// aborted the node. It is now a typed error on such a thread.
    #[test]
    fn nesting_past_the_budget_fails_typed_on_a_2mib_thread() {
        let body = deep_rows_packet(20_000);
        assert_eq!(body.len(), 100_023);
        let decoded = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || decode_packet(&body).map(|msgs| msgs.len()))
            .unwrap()
            .join()
            .expect("the decoder returns instead of overflowing its stack");
        assert!(nesting_error(decoded));
    }

    /// The budget is exact, and values, value keys and expressions are
    /// charged against it together.
    #[test]
    fn nesting_budget_is_exact_and_shared() {
        let depth = MAX_NESTING as usize;
        // `depth - 1` lists around the `Null` are `depth` nested values.
        assert!(decode_packet(&deep_rows_packet(depth - 1)).is_ok());
        assert!(nesting_error(decode_packet(&deep_rows_packet(depth))));
        let nots = |n: usize, leaf: &[u8]| {
            let mut b = vec![9u8; n]; // Expr::Not
            b.extend_from_slice(leaf);
            b
        };
        let vertex_id = [3u8];
        assert!(Expr::get(&mut Reader::new(&nots(depth - 1, &vertex_id))).is_ok());
        assert!(nesting_error(Expr::get(&mut Reader::new(&nots(
            depth, &vertex_id
        )))));
        // An `Expr::Const` holding a one-list value: two more levels.
        let const_list = [0u8, TAG_LIST, 0, 0, 0, 0];
        assert!(Expr::get(&mut Reader::new(&nots(depth - 2, &const_list))).is_ok());
        assert!(nesting_error(Expr::get(&mut Reader::new(&nots(
            depth - 1,
            &const_list
        )))));
        let mut keys = Vec::new();
        for _ in 0..depth {
            keys.extend_from_slice(&[TAG_LIST, 1, 0, 0, 0]);
        }
        keys.push(TAG_NULL);
        assert!(ValueKey::get(&mut Reader::new(&keys[5..])).is_ok());
        assert!(nesting_error(ValueKey::get(&mut Reader::new(&keys))));
    }

    /// Every `Expr` variant, and every `CmpOp` inside a `Cmp`.
    fn pinned_exprs() -> Vec<Expr> {
        let slot = |s| Box::new(Expr::Slot(s));
        let mut xs: Vec<Expr> = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]
        .into_iter()
        .map(|op| Expr::Cmp(slot(0), op, slot(1)))
        .collect();
        xs.extend([
            Expr::Const(Value::list(vec![Value::str("c"), Value::Bool(true)])),
            Expr::Param(3),
            Expr::Slot(4),
            Expr::VertexId,
            Expr::Prop(PropKey(5)),
            Expr::LabelIs(Label(6)),
            Expr::And(vec![Expr::Slot(0), Expr::Slot(1)]),
            Expr::Or(vec![Expr::Slot(2)]),
            Expr::Not(slot(0)),
            Expr::In(
                slot(1),
                vec![Value::Int(1), Value::Float(-0.5), Value::Null],
            ),
            Expr::IsNull(slot(2)),
            Expr::Add(slot(0), slot(1)),
            Expr::Sub(slot(1), slot(0)),
            Expr::Mul(slot(2), slot(2)),
            Expr::Tuple(vec![Expr::VertexId, Expr::Param(0)]),
            Expr::Month(slot(3)),
            Expr::Day(slot(3)),
        ]);
        xs
    }

    /// A plan naming every source, step, aggregation, order and direction
    /// variant, beside the round-trip tests' `sample_plan`.
    fn pinned_plan() -> Plan {
        let sources = [
            SourceSpec::Param { param: 2 },
            SourceSpec::IndexLookup {
                label: Label(1),
                key: PropKey(2),
                value: Expr::Param(1),
            },
            SourceSpec::ScanLabel { label: Label(7) },
            SourceSpec::PrevRows {
                vertex_col: 1,
                seed: vec![(0, 2), (1, 0)],
            },
        ];
        let mut steps: Vec<PlanStep> = [Direction::Out, Direction::In, Direction::Both]
            .into_iter()
            .map(|dir| PlanStep::Expand {
                dir,
                label: Label(3),
                edge_loads: vec![(PropKey(4), 1), (PropKey(5), 2)],
            })
            .collect();
        steps.extend(pinned_exprs().into_iter().map(PlanStep::Filter));
        steps.extend([
            PlanStep::Load(vec![(PropKey(1), 0)]),
            PlanStep::Compute(vec![(0, Expr::Slot(1)), (2, Expr::Param(0))]),
            PlanStep::Dedup { slots: vec![0, 2] },
            PlanStep::MinDist { dist_slot: 2 },
            PlanStep::LoopEnd {
                counter: 2,
                min: -1,
                max: i64::MAX,
                back_to: 3,
            },
            PlanStep::Join {
                join_id: 1,
                side: JoinSide::Build,
                key: Expr::VertexId,
            },
            PlanStep::Join {
                join_id: 1,
                side: JoinSide::Probe,
                key: Expr::Slot(0),
            },
            PlanStep::MoveTo { vertex_slot: 1 },
        ]);
        let group = [
            GroupOrder::CountDesc,
            GroupOrder::CountAsc,
            GroupOrder::KeyAsc,
        ];
        let mut aggs: Vec<Option<AggSpec>> = vec![None];
        aggs.extend(
            [
                AggFunc::Count,
                AggFunc::Sum(Expr::Slot(0)),
                AggFunc::Min(Expr::Slot(1)),
                AggFunc::Max(Expr::Slot(2)),
                AggFunc::Avg(Expr::Slot(0)),
                AggFunc::TopK {
                    k: 5,
                    sort: vec![(Expr::Slot(0), Order::Desc), (Expr::Slot(1), Order::Asc)],
                    output: vec![Expr::VertexId],
                    distinct: vec![Expr::VertexId, Expr::Slot(2)],
                },
                AggFunc::GroupSum {
                    key: Expr::VertexId,
                    value: Expr::Slot(1),
                    order: GroupOrder::KeyAsc,
                    limit: 3,
                },
                AggFunc::Collect {
                    output: vec![Expr::VertexId],
                    limit: 100,
                },
            ]
            .into_iter()
            .chain(group.into_iter().map(|order| AggFunc::GroupCount {
                key: Expr::VertexId,
                order,
                limit: 10,
            }))
            .map(|func| Some(AggSpec { func })),
        );
        let mut plan = sample_plan();
        plan.num_params = 2;
        plan.stages.extend(aggs.into_iter().map(|agg| {
            Stage {
                pipelines: sources
                    .iter()
                    .map(|source| Pipeline {
                        source: source.clone(),
                        steps: steps.clone(),
                    })
                    .collect(),
                joins: vec![JoinSpec {
                    join_id: 1,
                    probe_pipeline: 3,
                }],
                output: vec![Expr::Slot(0), Expr::Param(1)],
                agg,
                num_slots: 4,
            }
        }));
        plan
    }

    /// Every aggregation-state variant, both map shapes with several keys.
    fn pinned_agg_states() -> Vec<AggState> {
        let map = |n: i64| {
            let mut m = FxHashMap::default();
            for i in 0..n {
                m.insert(ValueKey::Int(i - 2), i * 3);
            }
            m.insert(ValueKey::Str(Arc::from("k")), -2);
            m.insert(ValueKey::List(vec![ValueKey::Float(7), ValueKey::Null]), 1);
            m
        };
        vec![
            AggState::Count(9),
            AggState::Sum(Value::Float(1.5)),
            AggState::Min(None),
            AggState::Min(Some(Value::Int(-3))),
            AggState::Max(None),
            AggState::Max(Some(Value::str("z"))),
            AggState::Avg { sum: 2.5, count: 4 },
            AggState::TopK {
                rows: vec![
                    (
                        vec![Value::Int(1)],
                        vec![Value::str("row")],
                        vec![ValueKey::Vertex(VertexId(4)), ValueKey::Bool(true)],
                    ),
                    (vec![], vec![], vec![]),
                ],
            },
            AggState::GroupCount { map: map(5) },
            AggState::GroupSum { map: map(20) },
            AggState::Collect {
                rows: vec![vec![Value::Int(1)], vec![]],
            },
        ]
    }

    /// Every error variant.
    fn pinned_errors() -> Vec<GdError> {
        vec![
            GdError::VertexNotFound(VertexId(1)),
            GdError::UnknownSymbol("name".into()),
            GdError::InvalidProgram("bad".into()),
            GdError::Parse {
                offset: 3,
                message: "oops".into(),
            },
            GdError::TypeError("t".into()),
            GdError::EngineClosed,
            GdError::QueryTimeout(QueryId(2)),
            GdError::QueryCancelled(QueryId(3)),
            GdError::Overloaded,
            GdError::TxnAborted("w".into()),
            GdError::InvariantViolation("inv".into()),
            GdError::Internal("i".into()),
        ]
    }

    /// Traversers of every shape: locals of every value kind, a string
    /// local, aux keys, nested lists, hostile depths.
    fn pinned_batch(n: u64) -> Vec<Traverser> {
        (0..n)
            .map(|i| {
                let mut t = Traverser::root(QueryId(i), 1, VertexId(i * 7), 3, Weight(!i));
                t.pc = i as u16;
                t.depth = u32::MAX - i as u32;
                t.set_slot(0, Value::Int(-(i as i64)));
                t.set_slot(1, Value::str("local"));
                t.set_slot(2, Value::list(vec![Value::str("x"), Value::Float(0.5)]));
                match i % 3 {
                    0 => t.aux_key = Some(Value::Vertex(VertexId(i))),
                    1 => t.aux_key = Some(Value::str("key")),
                    _ => {}
                }
                t
            })
            .collect()
    }

    /// `pinned_batch(n)`, each traverser a record of its own, then a
    /// sibling of each of the first five sharing its record, as an
    /// `Expand`'s children do.
    fn pinned_run(n: u64) -> HandOff {
        let mut run = run_of(pinned_batch(n));
        for i in 0..n.min(5) as usize {
            let at = &run.traversers[i];
            let sibling = ArenaTraverser {
                vertex: VertexId(at.vertex.0 + 1),
                aux_key: at.aux_key.clone(),
                ..*at
            };
            run.push_indexed(sibling, i as u32);
        }
        run
    }

    /// Every worker and coordinator message that crosses a wire, carrying
    /// every sample above.
    fn pinned_packet() -> Vec<WireMsg> {
        let q = QueryId(0x0102_0304_0506_0708);
        let mut worker = vec![
            WorkerMsg::HandOff(pinned_run(17)),
            WorkerMsg::HandOff(HandOff::default()),
            WorkerMsg::StageBegin { query: q, stage: 2 },
            WorkerMsg::StartSource {
                query: q,
                pipeline: 3,
                weight: Weight(u64::MAX),
            },
            WorkerMsg::QueryEnd { query: q },
            WorkerMsg::CancelQuery { query: q },
            WorkerMsg::Bsp(BspSignal::RunStep {
                query: q,
                depth: 4,
                expect: 7,
            }),
            WorkerMsg::Bsp(BspSignal::RunStep {
                query: q,
                depth: u32::MAX,
                expect: u64::MAX,
            }),
            WorkerMsg::Bsp(BspSignal::Gather { query: q }),
            WorkerMsg::Shutdown,
        ];
        for from in [None, Some(WorkerId(0)), Some(WorkerId(7))] {
            worker.push(WorkerMsg::QueryBegin {
                ctx: Arc::new(QueryCtx {
                    query: q,
                    plan: pinned_plan(),
                    params: vec![Value::str("alice"), Value::Int(7)],
                    read_ts: 9,
                }),
                stage: 1,
                from,
            });
        }
        let mut coord = vec![
            CoordMsg::Cancel { query: q },
            CoordMsg::Progress {
                query: q,
                weight: Weight(77),
                steps: 5,
            },
            CoordMsg::Rows {
                query: q,
                rows: vec![
                    vec![Value::Int(1), Value::str("x")],
                    vec![],
                    vec![Value::list(vec![Value::list(vec![Value::Null])])],
                ],
            },
            CoordMsg::AggPartial {
                query: q,
                state: None,
            },
            CoordMsg::BspStepDone {
                query: q,
                finished: Weight(1),
                sent: vec![],
                consumed_count: 5,
                steps: 6,
            },
            CoordMsg::BspStepDone {
                query: q,
                finished: Weight(6),
                sent: vec![0, 3, u64::MAX],
                consumed_count: u64::MAX,
                steps: 0,
            },
            CoordMsg::Shutdown,
        ];
        coord.extend(
            pinned_agg_states()
                .into_iter()
                .map(|s| CoordMsg::AggPartial {
                    query: q,
                    state: Some(Box::new(s)),
                }),
        );
        coord.extend(
            pinned_errors()
                .into_iter()
                .map(|error| CoordMsg::WorkerError { query: q, error }),
        );
        let mut msgs: Vec<WireMsg> = worker
            .into_iter()
            .enumerate()
            .map(|(i, msg)| WireMsg::Worker {
                dest: WorkerId(i as u32),
                msg,
            })
            .collect();
        msgs.extend(coord.into_iter().map(WireMsg::Coord));
        msgs
    }

    /// The layout, pinned: one packet holding every sample above, checked
    /// by length and FNV-1a hash. The byte count is the cost model's and
    /// the flush schedule's input, so a refactor of the encoder must leave
    /// this test passing unchanged.
    #[test]
    fn packet_layout_is_pinned() {
        let msgs = pinned_packet();
        let mut body = Vec::new();
        encode_packet(&mut body, &msgs).unwrap();
        let fnv = body.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            (body.len(), fnv),
            (45_973, 0x9e70_b51c_24e9_8639),
            "the wire layout moved"
        );
        let back: Vec<WireMsg> = decode_packet(&body)
            .unwrap()
            .into_iter()
            .map(|(msg, _)| msg)
            .collect();
        assert_eq!(format!("{back:?}"), format!("{msgs:?}"));
    }
}
