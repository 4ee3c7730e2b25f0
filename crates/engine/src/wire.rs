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
//! caller of [`decode_packet`]. A traverser batch is a
//! [`WorkerMsg::Batch`] like any other worker message; the flush policy
//! sizes buffered messages with [`encoded_len`], the same encoder run into
//! a counting sink, so nothing else in the engine describes a message's
//! size. Hand-rolled — no serde format — so the layout is stable and the
//! decoder surfaces `GdError` on any truncation or corruption instead of
//! panicking.
//!
//! Matches are deliberately exhaustive (no wildcard arms): adding a message
//! or plan variant is a compile error until its encoding is defined here.
//!
//! Two messages intentionally do not cross the wire:
//! - [`CoordMsg::Submit`] carries the client's crossbeam reply channel;
//!   clients always talk to the coordinator's own node. Encoding it is an
//!   error, not a panic.
//! - Map-shaped aggregation partials ([`AggState::GroupCount`]/`GroupSum`)
//!   are encoded with entries sorted by key so the same state always
//!   produces the same bytes (hash-map iteration order is not stable).

use std::sync::Arc;

use bytes::BufMut;

use graphdance_common::value::ValueKey;
use graphdance_common::{
    FxHashMap, GdError, GdResult, Label, PartId, PropKey, QueryId, Value, VertexId, WorkerId,
};
use graphdance_pstm::{AggState, Row, Weight};
use graphdance_query::expr::{CmpOp, Expr};
use graphdance_query::plan::{
    AggFunc, AggSpec, GroupOrder, JoinSide, JoinSpec, Order, Pipeline, Plan, PlanStep, SourceSpec,
    Stage,
};
use graphdance_storage::Direction;

use crate::codec::{self, Reader};
use crate::messages::{BspSignal, CoordMsg, QueryCtx, WorkerMsg};
use crate::net::WireMsg;

/// `QueryBegin::from` on the wire when the coordinator introduced the
/// query (no worker id reaches it: topologies index workers by `u32`).
const FROM_COORDINATOR: u32 = u32::MAX;

fn bad(what: &str, tag: u8) -> GdError {
    GdError::Internal(format!("wire: unknown {what} tag {tag}"))
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(r: &mut Reader<'_>) -> GdResult<String> {
    let n = r.u32()? as usize;
    let raw = r.take(n)?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| GdError::Internal("wire: invalid utf8".into()))
}

fn put_usize(buf: &mut impl BufMut, n: usize) {
    buf.put_u32_le(n as u32);
}

fn get_usize(r: &mut Reader<'_>) -> GdResult<usize> {
    Ok(r.u32()? as usize)
}

fn put_values(buf: &mut impl BufMut, vs: &[Value]) {
    put_usize(buf, vs.len());
    for v in vs {
        codec::encode_value(buf, v);
    }
}

fn get_values(r: &mut Reader<'_>) -> GdResult<Vec<Value>> {
    let n = get_usize(r)?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(codec::decode_value_borrowed(r)?);
    }
    Ok(out)
}

fn put_rows(buf: &mut impl BufMut, rows: &[Row]) {
    put_usize(buf, rows.len());
    for row in rows {
        put_values(buf, row);
    }
}

fn get_rows(r: &mut Reader<'_>) -> GdResult<Vec<Row>> {
    let n = get_usize(r)?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get_values(r)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// ValueKey
// ---------------------------------------------------------------------------
//
// Same tag space as the Value codec, with `Float` keyed by IEEE-754 bits.

fn encode_value_key(buf: &mut impl BufMut, k: &ValueKey) {
    match k {
        ValueKey::Null => buf.put_u8(0),
        ValueKey::Bool(false) => buf.put_u8(1),
        ValueKey::Bool(true) => buf.put_u8(2),
        ValueKey::Int(i) => {
            buf.put_u8(3);
            buf.put_i64_le(*i);
        }
        ValueKey::Float(bits) => {
            buf.put_u8(4);
            buf.put_u64_le(*bits);
        }
        ValueKey::Str(s) => {
            buf.put_u8(5);
            put_str(buf, s);
        }
        ValueKey::Vertex(v) => {
            buf.put_u8(6);
            buf.put_u64_le(v.0);
        }
        ValueKey::List(l) => {
            buf.put_u8(7);
            put_usize(buf, l.len());
            for x in l {
                encode_value_key(buf, x);
            }
        }
    }
}

fn decode_value_key(r: &mut Reader<'_>) -> GdResult<ValueKey> {
    match r.u8()? {
        0 => Ok(ValueKey::Null),
        1 => Ok(ValueKey::Bool(false)),
        2 => Ok(ValueKey::Bool(true)),
        3 => Ok(ValueKey::Int(r.i64()?)),
        4 => Ok(ValueKey::Float(r.u64()?)),
        5 => Ok(ValueKey::Str(Arc::from(get_str(r)?.as_str()))),
        6 => Ok(ValueKey::Vertex(VertexId(r.u64()?))),
        7 => {
            let n = get_usize(r)?;
            let mut out = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                out.push(decode_value_key(r)?);
            }
            Ok(ValueKey::List(out))
        }
        t => Err(bad("value-key", t)),
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

fn encode_cmp_op(buf: &mut impl BufMut, op: CmpOp) {
    buf.put_u8(match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    });
}

fn decode_cmp_op(r: &mut Reader<'_>) -> GdResult<CmpOp> {
    match r.u8()? {
        0 => Ok(CmpOp::Eq),
        1 => Ok(CmpOp::Ne),
        2 => Ok(CmpOp::Lt),
        3 => Ok(CmpOp::Le),
        4 => Ok(CmpOp::Gt),
        5 => Ok(CmpOp::Ge),
        t => Err(bad("cmp-op", t)),
    }
}

fn put_exprs(buf: &mut impl BufMut, xs: &[Expr]) {
    put_usize(buf, xs.len());
    for x in xs {
        encode_expr(buf, x);
    }
}

fn get_exprs(r: &mut Reader<'_>) -> GdResult<Vec<Expr>> {
    let n = get_usize(r)?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(decode_expr(r)?);
    }
    Ok(out)
}

fn encode_expr(buf: &mut impl BufMut, e: &Expr) {
    match e {
        Expr::Const(v) => {
            buf.put_u8(0);
            codec::encode_value(buf, v);
        }
        Expr::Param(i) => {
            buf.put_u8(1);
            put_usize(buf, *i);
        }
        Expr::Slot(s) => {
            buf.put_u8(2);
            buf.put_u8(*s);
        }
        Expr::VertexId => buf.put_u8(3),
        Expr::Prop(k) => {
            buf.put_u8(4);
            buf.put_u16_le(k.0);
        }
        Expr::LabelIs(l) => {
            buf.put_u8(5);
            buf.put_u16_le(l.0);
        }
        Expr::Cmp(a, op, b) => {
            buf.put_u8(6);
            encode_expr(buf, a);
            encode_cmp_op(buf, *op);
            encode_expr(buf, b);
        }
        Expr::And(xs) => {
            buf.put_u8(7);
            put_exprs(buf, xs);
        }
        Expr::Or(xs) => {
            buf.put_u8(8);
            put_exprs(buf, xs);
        }
        Expr::Not(x) => {
            buf.put_u8(9);
            encode_expr(buf, x);
        }
        Expr::In(x, set) => {
            buf.put_u8(10);
            encode_expr(buf, x);
            put_values(buf, set);
        }
        Expr::IsNull(x) => {
            buf.put_u8(11);
            encode_expr(buf, x);
        }
        Expr::Add(a, b) => {
            buf.put_u8(12);
            encode_expr(buf, a);
            encode_expr(buf, b);
        }
        Expr::Sub(a, b) => {
            buf.put_u8(13);
            encode_expr(buf, a);
            encode_expr(buf, b);
        }
        Expr::Mul(a, b) => {
            buf.put_u8(14);
            encode_expr(buf, a);
            encode_expr(buf, b);
        }
        Expr::Tuple(xs) => {
            buf.put_u8(15);
            put_exprs(buf, xs);
        }
        Expr::Month(x) => {
            buf.put_u8(16);
            encode_expr(buf, x);
        }
        Expr::Day(x) => {
            buf.put_u8(17);
            encode_expr(buf, x);
        }
    }
}

fn decode_expr(r: &mut Reader<'_>) -> GdResult<Expr> {
    match r.u8()? {
        0 => Ok(Expr::Const(codec::decode_value_borrowed(r)?)),
        1 => Ok(Expr::Param(get_usize(r)?)),
        2 => Ok(Expr::Slot(r.u8()?)),
        3 => Ok(Expr::VertexId),
        4 => Ok(Expr::Prop(PropKey(r.u16()?))),
        5 => Ok(Expr::LabelIs(Label(r.u16()?))),
        6 => {
            let a = decode_expr(r)?;
            let op = decode_cmp_op(r)?;
            let b = decode_expr(r)?;
            Ok(Expr::Cmp(Box::new(a), op, Box::new(b)))
        }
        7 => Ok(Expr::And(get_exprs(r)?)),
        8 => Ok(Expr::Or(get_exprs(r)?)),
        9 => Ok(Expr::Not(Box::new(decode_expr(r)?))),
        10 => {
            let x = decode_expr(r)?;
            let set = get_values(r)?;
            Ok(Expr::In(Box::new(x), set))
        }
        11 => Ok(Expr::IsNull(Box::new(decode_expr(r)?))),
        12 => {
            let a = decode_expr(r)?;
            let b = decode_expr(r)?;
            Ok(Expr::Add(Box::new(a), Box::new(b)))
        }
        13 => {
            let a = decode_expr(r)?;
            let b = decode_expr(r)?;
            Ok(Expr::Sub(Box::new(a), Box::new(b)))
        }
        14 => {
            let a = decode_expr(r)?;
            let b = decode_expr(r)?;
            Ok(Expr::Mul(Box::new(a), Box::new(b)))
        }
        15 => Ok(Expr::Tuple(get_exprs(r)?)),
        16 => Ok(Expr::Month(Box::new(decode_expr(r)?))),
        17 => Ok(Expr::Day(Box::new(decode_expr(r)?))),
        t => Err(bad("expr", t)),
    }
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

fn encode_order(buf: &mut impl BufMut, o: Order) {
    buf.put_u8(match o {
        Order::Asc => 0,
        Order::Desc => 1,
    });
}

fn decode_order(r: &mut Reader<'_>) -> GdResult<Order> {
    match r.u8()? {
        0 => Ok(Order::Asc),
        1 => Ok(Order::Desc),
        t => Err(bad("order", t)),
    }
}

fn encode_group_order(buf: &mut impl BufMut, o: GroupOrder) {
    buf.put_u8(match o {
        GroupOrder::CountDesc => 0,
        GroupOrder::CountAsc => 1,
        GroupOrder::KeyAsc => 2,
    });
}

fn decode_group_order(r: &mut Reader<'_>) -> GdResult<GroupOrder> {
    match r.u8()? {
        0 => Ok(GroupOrder::CountDesc),
        1 => Ok(GroupOrder::CountAsc),
        2 => Ok(GroupOrder::KeyAsc),
        t => Err(bad("group-order", t)),
    }
}

fn encode_direction(buf: &mut impl BufMut, d: Direction) {
    buf.put_u8(match d {
        Direction::Out => 0,
        Direction::In => 1,
        Direction::Both => 2,
    });
}

fn decode_direction(r: &mut Reader<'_>) -> GdResult<Direction> {
    match r.u8()? {
        0 => Ok(Direction::Out),
        1 => Ok(Direction::In),
        2 => Ok(Direction::Both),
        t => Err(bad("direction", t)),
    }
}

fn encode_source(buf: &mut impl BufMut, s: &SourceSpec) {
    match s {
        SourceSpec::Param { param } => {
            buf.put_u8(0);
            put_usize(buf, *param);
        }
        SourceSpec::IndexLookup { label, key, value } => {
            buf.put_u8(1);
            buf.put_u16_le(label.0);
            buf.put_u16_le(key.0);
            encode_expr(buf, value);
        }
        SourceSpec::ScanLabel { label } => {
            buf.put_u8(2);
            buf.put_u16_le(label.0);
        }
        SourceSpec::PrevRows { vertex_col, seed } => {
            buf.put_u8(3);
            put_usize(buf, *vertex_col);
            put_usize(buf, seed.len());
            for (slot, col) in seed {
                buf.put_u8(*slot);
                put_usize(buf, *col);
            }
        }
    }
}

fn decode_source(r: &mut Reader<'_>) -> GdResult<SourceSpec> {
    match r.u8()? {
        0 => Ok(SourceSpec::Param {
            param: get_usize(r)?,
        }),
        1 => Ok(SourceSpec::IndexLookup {
            label: Label(r.u16()?),
            key: PropKey(r.u16()?),
            value: decode_expr(r)?,
        }),
        2 => Ok(SourceSpec::ScanLabel {
            label: Label(r.u16()?),
        }),
        3 => {
            let vertex_col = get_usize(r)?;
            let n = get_usize(r)?;
            let mut seed = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let slot = r.u8()?;
                let col = get_usize(r)?;
                seed.push((slot, col));
            }
            Ok(SourceSpec::PrevRows { vertex_col, seed })
        }
        t => Err(bad("source", t)),
    }
}

fn put_prop_slots(buf: &mut impl BufMut, loads: &[(PropKey, u8)]) {
    put_usize(buf, loads.len());
    for (k, s) in loads {
        buf.put_u16_le(k.0);
        buf.put_u8(*s);
    }
}

fn get_prop_slots(r: &mut Reader<'_>) -> GdResult<Vec<(PropKey, u8)>> {
    let n = get_usize(r)?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let k = PropKey(r.u16()?);
        let s = r.u8()?;
        out.push((k, s));
    }
    Ok(out)
}

fn encode_step(buf: &mut impl BufMut, step: &PlanStep) {
    match step {
        PlanStep::Expand {
            dir,
            label,
            edge_loads,
        } => {
            buf.put_u8(0);
            encode_direction(buf, *dir);
            buf.put_u16_le(label.0);
            put_prop_slots(buf, edge_loads);
        }
        PlanStep::Filter(e) => {
            buf.put_u8(1);
            encode_expr(buf, e);
        }
        PlanStep::Load(loads) => {
            buf.put_u8(2);
            put_prop_slots(buf, loads);
        }
        PlanStep::Compute(assigns) => {
            buf.put_u8(3);
            put_usize(buf, assigns.len());
            for (slot, e) in assigns {
                buf.put_u8(*slot);
                encode_expr(buf, e);
            }
        }
        PlanStep::Dedup { slots } => {
            buf.put_u8(4);
            put_usize(buf, slots.len());
            for s in slots {
                buf.put_u8(*s);
            }
        }
        PlanStep::MinDist { dist_slot } => {
            buf.put_u8(5);
            buf.put_u8(*dist_slot);
        }
        PlanStep::LoopEnd {
            counter,
            min,
            max,
            back_to,
        } => {
            buf.put_u8(6);
            buf.put_u8(*counter);
            buf.put_i64_le(*min);
            buf.put_i64_le(*max);
            buf.put_u16_le(*back_to);
        }
        PlanStep::Join { join_id, side, key } => {
            buf.put_u8(7);
            buf.put_u16_le(*join_id);
            buf.put_u8(match side {
                JoinSide::Probe => 0,
                JoinSide::Build => 1,
            });
            encode_expr(buf, key);
        }
        PlanStep::MoveTo { vertex_slot } => {
            buf.put_u8(8);
            buf.put_u8(*vertex_slot);
        }
    }
}

fn decode_step(r: &mut Reader<'_>) -> GdResult<PlanStep> {
    match r.u8()? {
        0 => Ok(PlanStep::Expand {
            dir: decode_direction(r)?,
            label: Label(r.u16()?),
            edge_loads: get_prop_slots(r)?,
        }),
        1 => Ok(PlanStep::Filter(decode_expr(r)?)),
        2 => Ok(PlanStep::Load(get_prop_slots(r)?)),
        3 => {
            let n = get_usize(r)?;
            let mut assigns = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let slot = r.u8()?;
                let e = decode_expr(r)?;
                assigns.push((slot, e));
            }
            Ok(PlanStep::Compute(assigns))
        }
        4 => {
            let n = get_usize(r)?;
            let mut slots = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                slots.push(r.u8()?);
            }
            Ok(PlanStep::Dedup { slots })
        }
        5 => Ok(PlanStep::MinDist { dist_slot: r.u8()? }),
        6 => Ok(PlanStep::LoopEnd {
            counter: r.u8()?,
            min: r.i64()?,
            max: r.i64()?,
            back_to: r.u16()?,
        }),
        7 => {
            let join_id = r.u16()?;
            let side = match r.u8()? {
                0 => JoinSide::Probe,
                1 => JoinSide::Build,
                t => return Err(bad("join-side", t)),
            };
            let key = decode_expr(r)?;
            Ok(PlanStep::Join { join_id, side, key })
        }
        8 => Ok(PlanStep::MoveTo {
            vertex_slot: r.u8()?,
        }),
        t => Err(bad("plan-step", t)),
    }
}

fn encode_agg_func(buf: &mut impl BufMut, f: &AggFunc) {
    match f {
        AggFunc::Count => buf.put_u8(0),
        AggFunc::Sum(e) => {
            buf.put_u8(1);
            encode_expr(buf, e);
        }
        AggFunc::Min(e) => {
            buf.put_u8(2);
            encode_expr(buf, e);
        }
        AggFunc::Max(e) => {
            buf.put_u8(3);
            encode_expr(buf, e);
        }
        AggFunc::Avg(e) => {
            buf.put_u8(4);
            encode_expr(buf, e);
        }
        AggFunc::TopK {
            k,
            sort,
            output,
            distinct,
        } => {
            buf.put_u8(5);
            put_usize(buf, *k);
            put_usize(buf, sort.len());
            for (e, o) in sort {
                encode_expr(buf, e);
                encode_order(buf, *o);
            }
            put_exprs(buf, output);
            put_exprs(buf, distinct);
        }
        AggFunc::GroupCount { key, order, limit } => {
            buf.put_u8(6);
            encode_expr(buf, key);
            encode_group_order(buf, *order);
            put_usize(buf, *limit);
        }
        AggFunc::GroupSum {
            key,
            value,
            order,
            limit,
        } => {
            buf.put_u8(7);
            encode_expr(buf, key);
            encode_expr(buf, value);
            encode_group_order(buf, *order);
            put_usize(buf, *limit);
        }
        AggFunc::Collect { output, limit } => {
            buf.put_u8(8);
            put_exprs(buf, output);
            put_usize(buf, *limit);
        }
    }
}

fn decode_agg_func(r: &mut Reader<'_>) -> GdResult<AggFunc> {
    match r.u8()? {
        0 => Ok(AggFunc::Count),
        1 => Ok(AggFunc::Sum(decode_expr(r)?)),
        2 => Ok(AggFunc::Min(decode_expr(r)?)),
        3 => Ok(AggFunc::Max(decode_expr(r)?)),
        4 => Ok(AggFunc::Avg(decode_expr(r)?)),
        5 => {
            let k = get_usize(r)?;
            let n = get_usize(r)?;
            let mut sort = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let e = decode_expr(r)?;
                let o = decode_order(r)?;
                sort.push((e, o));
            }
            let output = get_exprs(r)?;
            let distinct = get_exprs(r)?;
            Ok(AggFunc::TopK {
                k,
                sort,
                output,
                distinct,
            })
        }
        6 => Ok(AggFunc::GroupCount {
            key: decode_expr(r)?,
            order: decode_group_order(r)?,
            limit: get_usize(r)?,
        }),
        7 => Ok(AggFunc::GroupSum {
            key: decode_expr(r)?,
            value: decode_expr(r)?,
            order: decode_group_order(r)?,
            limit: get_usize(r)?,
        }),
        8 => Ok(AggFunc::Collect {
            output: get_exprs(r)?,
            limit: get_usize(r)?,
        }),
        t => Err(bad("agg-func", t)),
    }
}

/// Encode a full plan.
pub fn encode_plan(buf: &mut impl BufMut, plan: &Plan) {
    put_usize(buf, plan.num_params);
    put_usize(buf, plan.stages.len());
    for stage in &plan.stages {
        put_usize(buf, stage.num_slots);
        put_usize(buf, stage.pipelines.len());
        for p in &stage.pipelines {
            encode_source(buf, &p.source);
            put_usize(buf, p.steps.len());
            for s in &p.steps {
                encode_step(buf, s);
            }
        }
        put_usize(buf, stage.joins.len());
        for j in &stage.joins {
            buf.put_u16_le(j.join_id);
            buf.put_u16_le(j.probe_pipeline);
        }
        put_exprs(buf, &stage.output);
        match &stage.agg {
            None => buf.put_u8(0),
            Some(spec) => {
                buf.put_u8(1);
                encode_agg_func(buf, &spec.func);
            }
        }
    }
}

/// Decode a full plan.
pub(crate) fn decode_plan(r: &mut Reader<'_>) -> GdResult<Plan> {
    let num_params = get_usize(r)?;
    let n_stages = get_usize(r)?;
    let mut stages = Vec::with_capacity(n_stages.min(64));
    for _ in 0..n_stages {
        let num_slots = get_usize(r)?;
        let n_pipes = get_usize(r)?;
        let mut pipelines = Vec::with_capacity(n_pipes.min(64));
        for _ in 0..n_pipes {
            let source = decode_source(r)?;
            let n_steps = get_usize(r)?;
            let mut steps = Vec::with_capacity(n_steps.min(1024));
            for _ in 0..n_steps {
                steps.push(decode_step(r)?);
            }
            pipelines.push(Pipeline { source, steps });
        }
        let n_joins = get_usize(r)?;
        let mut joins = Vec::with_capacity(n_joins.min(64));
        for _ in 0..n_joins {
            joins.push(JoinSpec {
                join_id: r.u16()?,
                probe_pipeline: r.u16()?,
            });
        }
        let output = get_exprs(r)?;
        let agg = match r.u8()? {
            0 => None,
            1 => Some(AggSpec {
                func: decode_agg_func(r)?,
            }),
            t => return Err(bad("agg-option", t)),
        };
        stages.push(Stage {
            pipelines,
            joins,
            output,
            agg,
            num_slots,
        });
    }
    Ok(Plan { stages, num_params })
}

// ---------------------------------------------------------------------------
// Aggregation partials
// ---------------------------------------------------------------------------

fn put_sorted_map(buf: &mut impl BufMut, map: &FxHashMap<ValueKey, i64>) {
    let mut entries: Vec<(&ValueKey, &i64)> = map.iter().collect();
    // Sorted by the key's total order so identical states are identical
    // bytes regardless of hash-map iteration order.
    entries.sort_by(|a, b| a.0.cmp(b.0));
    put_usize(buf, entries.len());
    for (k, v) in entries {
        encode_value_key(buf, k);
        buf.put_i64_le(*v);
    }
}

fn get_map(r: &mut Reader<'_>) -> GdResult<FxHashMap<ValueKey, i64>> {
    let n = get_usize(r)?;
    let mut map = FxHashMap::default();
    map.reserve(n.min(4096));
    for _ in 0..n {
        let k = decode_value_key(r)?;
        let v = r.i64()?;
        map.insert(k, v);
    }
    Ok(map)
}

/// Encode an aggregation partial.
pub fn encode_agg_state(buf: &mut impl BufMut, s: &AggState) {
    match s {
        AggState::Count(n) => {
            buf.put_u8(0);
            buf.put_u64_le(*n);
        }
        AggState::Sum(v) => {
            buf.put_u8(1);
            codec::encode_value(buf, v);
        }
        AggState::Min(v) => {
            buf.put_u8(2);
            match v {
                None => buf.put_u8(0),
                Some(v) => {
                    buf.put_u8(1);
                    codec::encode_value(buf, v);
                }
            }
        }
        AggState::Max(v) => {
            buf.put_u8(3);
            match v {
                None => buf.put_u8(0),
                Some(v) => {
                    buf.put_u8(1);
                    codec::encode_value(buf, v);
                }
            }
        }
        AggState::Avg { sum, count } => {
            buf.put_u8(4);
            buf.put_f64_le(*sum);
            buf.put_u64_le(*count);
        }
        AggState::TopK { rows } => {
            buf.put_u8(5);
            put_usize(buf, rows.len());
            for (sort, row, distinct) in rows {
                put_values(buf, sort);
                put_values(buf, row);
                put_usize(buf, distinct.len());
                for k in distinct {
                    encode_value_key(buf, k);
                }
            }
        }
        AggState::GroupCount { map } => {
            buf.put_u8(6);
            put_sorted_map(buf, map);
        }
        AggState::GroupSum { map } => {
            buf.put_u8(7);
            put_sorted_map(buf, map);
        }
        AggState::Collect { rows } => {
            buf.put_u8(8);
            put_rows(buf, rows);
        }
    }
}

/// Decode an aggregation partial.
pub(crate) fn decode_agg_state(r: &mut Reader<'_>) -> GdResult<AggState> {
    match r.u8()? {
        0 => Ok(AggState::Count(r.u64()?)),
        1 => Ok(AggState::Sum(codec::decode_value_borrowed(r)?)),
        2 => {
            let present = r.u8()? != 0;
            Ok(AggState::Min(if present {
                Some(codec::decode_value_borrowed(r)?)
            } else {
                None
            }))
        }
        3 => {
            let present = r.u8()? != 0;
            Ok(AggState::Max(if present {
                Some(codec::decode_value_borrowed(r)?)
            } else {
                None
            }))
        }
        4 => Ok(AggState::Avg {
            sum: r.f64()?,
            count: r.u64()?,
        }),
        5 => {
            let n = get_usize(r)?;
            let mut rows = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let sort = get_values(r)?;
                let row = get_values(r)?;
                let nd = get_usize(r)?;
                let mut distinct = Vec::with_capacity(nd.min(1024));
                for _ in 0..nd {
                    distinct.push(decode_value_key(r)?);
                }
                rows.push((sort, row, distinct));
            }
            Ok(AggState::TopK { rows })
        }
        6 => Ok(AggState::GroupCount { map: get_map(r)? }),
        7 => Ok(AggState::GroupSum { map: get_map(r)? }),
        8 => Ok(AggState::Collect { rows: get_rows(r)? }),
        t => Err(bad("agg-state", t)),
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

fn encode_error(buf: &mut impl BufMut, e: &GdError) {
    match e {
        GdError::VertexNotFound(v) => {
            buf.put_u8(0);
            buf.put_u64_le(v.0);
        }
        GdError::UnknownSymbol(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
        GdError::InvalidProgram(s) => {
            buf.put_u8(2);
            put_str(buf, s);
        }
        GdError::Parse { offset, message } => {
            buf.put_u8(3);
            put_usize(buf, *offset);
            put_str(buf, message);
        }
        GdError::TypeError(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
        GdError::EngineClosed => buf.put_u8(5),
        GdError::QueryTimeout(q) => {
            buf.put_u8(6);
            buf.put_u64_le(q.0);
        }
        GdError::QueryCancelled(q) => {
            buf.put_u8(7);
            buf.put_u64_le(q.0);
        }
        GdError::Overloaded => buf.put_u8(8),
        GdError::TxnAborted(s) => {
            buf.put_u8(9);
            put_str(buf, s);
        }
        GdError::InvariantViolation(s) => {
            buf.put_u8(10);
            put_str(buf, s);
        }
        GdError::Internal(s) => {
            buf.put_u8(11);
            put_str(buf, s);
        }
    }
}

fn decode_error(r: &mut Reader<'_>) -> GdResult<GdError> {
    match r.u8()? {
        0 => Ok(GdError::VertexNotFound(VertexId(r.u64()?))),
        1 => Ok(GdError::UnknownSymbol(get_str(r)?)),
        2 => Ok(GdError::InvalidProgram(get_str(r)?)),
        3 => Ok(GdError::Parse {
            offset: get_usize(r)?,
            message: get_str(r)?,
        }),
        4 => Ok(GdError::TypeError(get_str(r)?)),
        5 => Ok(GdError::EngineClosed),
        6 => Ok(GdError::QueryTimeout(QueryId(r.u64()?))),
        7 => Ok(GdError::QueryCancelled(QueryId(r.u64()?))),
        8 => Ok(GdError::Overloaded),
        9 => Ok(GdError::TxnAborted(get_str(r)?)),
        10 => Ok(GdError::InvariantViolation(get_str(r)?)),
        11 => Ok(GdError::Internal(get_str(r)?)),
        t => Err(bad("error", t)),
    }
}

// ---------------------------------------------------------------------------
// WorkerMsg / CoordMsg
// ---------------------------------------------------------------------------

/// Encode a worker control message. Every variant crosses the wire.
pub fn encode_worker_msg(buf: &mut impl BufMut, msg: &WorkerMsg) -> GdResult<()> {
    match msg {
        WorkerMsg::Batch(ts) => {
            buf.put_u8(0);
            put_usize(buf, ts.len());
            for t in ts {
                codec::encode_traverser(buf, t);
            }
        }
        WorkerMsg::QueryBegin { ctx, stage, from } => {
            buf.put_u8(1);
            buf.put_u16_le(*stage);
            buf.put_u32_le(from.map_or(FROM_COORDINATOR, |w| w.0));
            buf.put_u64_le(ctx.query.0);
            encode_plan(buf, &ctx.plan);
            put_values(buf, &ctx.params);
            buf.put_u64_le(ctx.read_ts);
        }
        WorkerMsg::StageBegin { query, stage } => {
            buf.put_u8(2);
            buf.put_u64_le(query.0);
            buf.put_u16_le(*stage);
        }
        WorkerMsg::StartSource {
            query,
            pipeline,
            weight,
        } => {
            buf.put_u8(3);
            buf.put_u64_le(query.0);
            buf.put_u16_le(*pipeline);
            buf.put_u64_le(weight.0);
        }
        WorkerMsg::QueryEnd { query } => {
            buf.put_u8(5);
            buf.put_u64_le(query.0);
        }
        WorkerMsg::CancelQuery { query } => {
            buf.put_u8(6);
            buf.put_u64_le(query.0);
        }
        WorkerMsg::Bsp(BspSignal::RunStep { query, depth }) => {
            buf.put_u8(11);
            buf.put_u64_le(query.0);
            buf.put_u32_le(*depth);
        }
        WorkerMsg::Bsp(BspSignal::Probe { query, round }) => {
            buf.put_u8(12);
            buf.put_u64_le(query.0);
            buf.put_u64_le(*round);
        }
        WorkerMsg::Bsp(BspSignal::Gather { query }) => {
            buf.put_u8(4);
            buf.put_u64_le(query.0);
        }
        WorkerMsg::Shutdown => buf.put_u8(13),
    }
    Ok(())
}

/// Decode a worker control message.
pub(crate) fn decode_worker_msg(r: &mut Reader<'_>) -> GdResult<WorkerMsg> {
    match r.u8()? {
        0 => {
            let n = get_usize(r)?;
            let mut ts = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                ts.push(codec::decode_traverser_borrowed(r)?);
            }
            Ok(WorkerMsg::Batch(ts))
        }
        1 => {
            let stage = r.u16()?;
            let from = match r.u32()? {
                FROM_COORDINATOR => None,
                w => Some(WorkerId(w)),
            };
            let query = QueryId(r.u64()?);
            let plan = decode_plan(r)?;
            let params = get_values(r)?;
            let read_ts = r.u64()?;
            Ok(WorkerMsg::QueryBegin {
                ctx: Arc::new(QueryCtx {
                    query,
                    plan,
                    params,
                    read_ts,
                }),
                stage,
                from,
            })
        }
        2 => Ok(WorkerMsg::StageBegin {
            query: QueryId(r.u64()?),
            stage: r.u16()?,
        }),
        3 => Ok(WorkerMsg::StartSource {
            query: QueryId(r.u64()?),
            pipeline: r.u16()?,
            weight: Weight(r.u64()?),
        }),
        4 => Ok(WorkerMsg::Bsp(BspSignal::Gather {
            query: QueryId(r.u64()?),
        })),
        5 => Ok(WorkerMsg::QueryEnd {
            query: QueryId(r.u64()?),
        }),
        6 => Ok(WorkerMsg::CancelQuery {
            query: QueryId(r.u64()?),
        }),
        11 => Ok(WorkerMsg::Bsp(BspSignal::RunStep {
            query: QueryId(r.u64()?),
            depth: r.u32()?,
        })),
        12 => Ok(WorkerMsg::Bsp(BspSignal::Probe {
            query: QueryId(r.u64()?),
            round: r.u64()?,
        })),
        13 => Ok(WorkerMsg::Shutdown),
        t => Err(bad("worker-msg", t)),
    }
}

/// Encode a coordinator message. [`CoordMsg::Submit`] is the one variant
/// that legitimately never crosses node boundaries (it carries the client's
/// in-process reply channel), so encoding it is an error.
pub fn encode_coord_msg(buf: &mut impl BufMut, msg: &CoordMsg) -> GdResult<()> {
    match msg {
        CoordMsg::Submit { .. } => {
            return Err(GdError::Internal(
                "wire: CoordMsg::Submit cannot cross node boundaries".into(),
            ));
        }
        CoordMsg::Cancel { query } => {
            buf.put_u8(1);
            buf.put_u64_le(query.0);
        }
        CoordMsg::Progress {
            query,
            weight,
            steps,
        } => {
            buf.put_u8(2);
            buf.put_u64_le(query.0);
            buf.put_u64_le(weight.0);
            buf.put_u64_le(*steps);
        }
        CoordMsg::Rows { query, rows } => {
            buf.put_u8(3);
            buf.put_u64_le(query.0);
            put_rows(buf, rows);
        }
        CoordMsg::AggPartial { query, state } => {
            buf.put_u8(4);
            buf.put_u64_le(query.0);
            match state {
                None => buf.put_u8(0),
                Some(s) => {
                    buf.put_u8(1);
                    encode_agg_state(buf, s);
                }
            }
        }
        CoordMsg::WorkerError { query, error } => {
            buf.put_u8(5);
            buf.put_u64_le(query.0);
            encode_error(buf, error);
        }
        CoordMsg::BspStepDone {
            query,
            part,
            finished,
            issued,
            count,
            consumed,
            consumed_count,
            steps,
        } => {
            buf.put_u8(6);
            buf.put_u64_le(query.0);
            buf.put_u32_le(part.0);
            buf.put_u64_le(finished.0);
            buf.put_u64_le(issued.0);
            buf.put_u64_le(*count);
            buf.put_u64_le(consumed.0);
            buf.put_u64_le(*consumed_count);
            buf.put_u64_le(*steps);
        }
        CoordMsg::BspParked {
            query,
            part,
            parked,
            round,
        } => {
            buf.put_u8(7);
            buf.put_u64_le(query.0);
            buf.put_u32_le(part.0);
            buf.put_u64_le(parked.0);
            buf.put_u64_le(*round);
        }
        CoordMsg::Tick => buf.put_u8(10),
        CoordMsg::Shutdown => buf.put_u8(11),
    }
    Ok(())
}

/// Decode a coordinator message.
pub(crate) fn decode_coord_msg(r: &mut Reader<'_>) -> GdResult<CoordMsg> {
    match r.u8()? {
        1 => Ok(CoordMsg::Cancel {
            query: QueryId(r.u64()?),
        }),
        2 => Ok(CoordMsg::Progress {
            query: QueryId(r.u64()?),
            weight: Weight(r.u64()?),
            steps: r.u64()?,
        }),
        3 => Ok(CoordMsg::Rows {
            query: QueryId(r.u64()?),
            rows: get_rows(r)?,
        }),
        4 => {
            let query = QueryId(r.u64()?);
            let state = match r.u8()? {
                0 => None,
                1 => Some(Box::new(decode_agg_state(r)?)),
                t => return Err(bad("agg-partial-option", t)),
            };
            Ok(CoordMsg::AggPartial { query, state })
        }
        5 => Ok(CoordMsg::WorkerError {
            query: QueryId(r.u64()?),
            error: decode_error(r)?,
        }),
        6 => Ok(CoordMsg::BspStepDone {
            query: QueryId(r.u64()?),
            part: PartId(r.u32()?),
            finished: Weight(r.u64()?),
            issued: Weight(r.u64()?),
            count: r.u64()?,
            consumed: Weight(r.u64()?),
            consumed_count: r.u64()?,
            steps: r.u64()?,
        }),
        7 => Ok(CoordMsg::BspParked {
            query: QueryId(r.u64()?),
            part: PartId(r.u32()?),
            parked: Weight(r.u64()?),
            round: r.u64()?,
        }),
        10 => Ok(CoordMsg::Tick),
        11 => Ok(CoordMsg::Shutdown),
        t => Err(bad("coord-msg", t)),
    }
}

// ---------------------------------------------------------------------------
// WireMsg — the unit a transport packet carries
// ---------------------------------------------------------------------------

/// Encode one wire message: `u8 0 | u32 dest | worker msg` or
/// `u8 1 | coord msg`.
pub fn encode_wire_msg(buf: &mut impl BufMut, msg: &WireMsg) -> GdResult<()> {
    match msg {
        WireMsg::Worker { dest, msg } => {
            buf.put_u8(0);
            buf.put_u32_le(dest.0);
            encode_worker_msg(buf, msg)
        }
        WireMsg::Coord(msg) => {
            buf.put_u8(1);
            encode_coord_msg(buf, msg)
        }
    }
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

/// Exact size of `msg` inside a packet body — the one byte count the I/O
/// scheduler sizes buffered messages with. It is [`encode_wire_msg`] run
/// into a counting sink, so there is no second description of the layout
/// to keep in step.
pub fn encoded_len(msg: &WireMsg) -> usize {
    let mut n = ByteCount(0);
    // `CoordMsg::Submit` is the one refusal, and it never reaches a remote
    // lane; the flush that encodes reports it if one ever does.
    let _ = encode_wire_msg(&mut n, msg);
    n.0
}

fn decode_wire_msg(r: &mut Reader<'_>) -> GdResult<WireMsg> {
    match r.u8()? {
        0 => {
            let dest = WorkerId(r.u32()?);
            let msg = decode_worker_msg(r)?;
            Ok(WireMsg::Worker { dest, msg })
        }
        1 => Ok(WireMsg::Coord(decode_coord_msg(r)?)),
        t => Err(bad("wire-msg", t)),
    }
}

/// Decode exactly one wire message from the bytes [`decode_packet`] read
/// it from (a fault-injected duplicate is those bytes decoded again).
pub(crate) fn decode_msg(bytes: &[u8]) -> GdResult<WireMsg> {
    let mut r = Reader::new(bytes);
    let msg = decode_wire_msg(&mut r)?;
    if !r.is_empty() {
        return Err(GdError::Internal(
            "wire: trailing bytes after message".into(),
        ));
    }
    Ok(msg)
}

/// Encode a full packet body: `u32 count | count × wire msg`. The tier-1
/// flush of a remote lane is the only caller outside tests, so every
/// message crossing a wire is encoded exactly once.
pub fn encode_packet(buf: &mut impl BufMut, msgs: &[WireMsg]) -> GdResult<()> {
    buf.put_u32_le(msgs.len() as u32);
    for m in msgs {
        encode_wire_msg(buf, m)?;
    }
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
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let start = r.pos();
        let msg = decode_wire_msg(&mut r)?;
        out.push((msg, &body[start..r.pos()]));
    }
    if !r.is_empty() {
        return Err(GdError::Internal(
            "wire: trailing bytes after packet body".into(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_pstm::Traverser;

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

    /// Encode, check that [`encoded_len`] is the encoder's own count, and
    /// decode back — every round-trip test below goes through here.
    fn roundtrip_wire(msg: WireMsg) -> WireMsg {
        let mut buf = Vec::new();
        encode_wire_msg(&mut buf, &msg).unwrap();
        assert_eq!(encoded_len(&msg), buf.len(), "encoded_len of {msg:?}");
        let mut r = Reader::new(&buf);
        let back = decode_wire_msg(&mut r).unwrap();
        assert!(r.is_empty(), "wire msg fully consumed");
        back
    }

    fn roundtrip_worker(msg: WorkerMsg) -> WorkerMsg {
        let dest = WorkerId(7);
        match roundtrip_wire(WireMsg::Worker { dest, msg }) {
            WireMsg::Worker { dest: d, msg } if d == dest => msg,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn roundtrip_coord(msg: CoordMsg) -> CoordMsg {
        match roundtrip_wire(WireMsg::Coord(msg)) {
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
    fn plan_roundtrips() {
        let plan = sample_plan();
        let mut buf = Vec::new();
        encode_plan(&mut buf, &plan);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_plan(&mut r).unwrap(), plan);
        assert!(r.is_empty());
    }

    #[test]
    fn every_source_and_agg_variant_roundtrips() {
        for src in [
            SourceSpec::Param { param: 2 },
            SourceSpec::ScanLabel { label: Label(7) },
            SourceSpec::PrevRows {
                vertex_col: 1,
                seed: vec![(0, 2), (1, 0)],
            },
        ] {
            let mut buf = Vec::new();
            encode_source(&mut buf, &src);
            assert_eq!(decode_source(&mut Reader::new(&buf)).unwrap(), src);
        }
        for f in [
            AggFunc::Count,
            AggFunc::Sum(Expr::Slot(0)),
            AggFunc::Min(Expr::Slot(0)),
            AggFunc::Max(Expr::Slot(0)),
            AggFunc::Avg(Expr::Slot(0)),
            AggFunc::GroupCount {
                key: Expr::VertexId,
                order: GroupOrder::CountDesc,
                limit: 10,
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
        ] {
            let mut buf = Vec::new();
            encode_agg_func(&mut buf, &f);
            assert_eq!(decode_agg_func(&mut Reader::new(&buf)).unwrap(), f);
        }
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
            WorkerMsg::Batch(vec![Traverser::root(
                QueryId(1),
                0,
                VertexId(2),
                2,
                Weight(5),
            )]),
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
            }),
            WorkerMsg::Bsp(BspSignal::Probe {
                query: QueryId(1),
                round: 7,
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
                part: PartId(0),
                finished: Weight(1),
                issued: Weight(2),
                count: 3,
                consumed: Weight(4),
                consumed_count: 5,
                steps: 6,
            },
            CoordMsg::BspParked {
                query: QueryId(3),
                part: PartId(1),
                parked: Weight(6),
                round: 2,
            },
            CoordMsg::Tick,
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
        assert!(encode_coord_msg(&mut buf, &msg).is_err());
        assert!(buf.is_empty(), "nothing written before the refusal");
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
        encode_agg_state(&mut ba, &AggState::GroupSum { map: a });
        encode_agg_state(&mut bb, &AggState::GroupSum { map: b });
        assert_eq!(ba, bb, "sorted-entry encoding is order independent");
    }

    #[test]
    fn all_agg_states_roundtrip() {
        let states = vec![
            AggState::Count(9),
            AggState::Sum(Value::Float(1.5)),
            AggState::Min(None),
            AggState::Min(Some(Value::Int(-3))),
            AggState::Max(Some(Value::str("z"))),
            AggState::Avg { sum: 2.5, count: 4 },
            AggState::TopK {
                rows: vec![(
                    vec![Value::Int(1)],
                    vec![Value::str("row")],
                    vec![ValueKey::Vertex(VertexId(4))],
                )],
            },
            AggState::Collect {
                rows: vec![vec![Value::Int(1)], vec![]],
            },
        ];
        for s in &states {
            let mut buf = Vec::new();
            encode_agg_state(&mut buf, s);
            let mut r = Reader::new(&buf);
            assert_eq!(&decode_agg_state(&mut r).unwrap(), s);
            assert!(r.is_empty());
            roundtrip_coord(CoordMsg::AggPartial {
                query: QueryId(1),
                state: Some(Box::new(s.clone())),
            });
        }
    }

    #[test]
    fn all_errors_roundtrip() {
        let errs = vec![
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
        ];
        for e in &errs {
            let mut buf = Vec::new();
            encode_error(&mut buf, e);
            let mut r = Reader::new(&buf);
            assert_eq!(
                format!("{:?}", decode_error(&mut r).unwrap()),
                format!("{e:?}")
            );
            assert!(r.is_empty());
            roundtrip_coord(CoordMsg::WorkerError {
                query: QueryId(1),
                error: e.clone(),
            });
        }
    }

    #[test]
    fn packet_roundtrips_and_rejects_garbage() {
        let msgs = vec![
            WireMsg::Worker {
                dest: WorkerId(3),
                msg: WorkerMsg::Batch(vec![Traverser::root(
                    QueryId(1),
                    0,
                    VertexId(1),
                    1,
                    Weight(1),
                )]),
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
            WireMsg::Coord(CoordMsg::Tick),
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

    /// Traverser batches of every shape the interpreter produces — locals,
    /// aux keys, nested values, the empty batch — survive a packet exactly.
    #[test]
    fn packet_roundtrips_traverser_batches() {
        let batch = |n: u64| {
            (0..n)
                .map(|i| {
                    let mut t = Traverser::root(QueryId(i), 1, VertexId(i * 7), 3, Weight(!i));
                    t.pc = i as u16;
                    t.depth = u32::MAX - i as u32;
                    t.set_slot(0, Value::Int(-(i as i64)));
                    t.set_slot(2, Value::list(vec![Value::str("x"), Value::Float(0.5)]));
                    if i % 2 == 0 {
                        t.aux_key = Some(Value::Vertex(VertexId(i)));
                    }
                    t
                })
                .collect()
        };
        let msgs: Vec<WireMsg> = [0, 1, 17]
            .into_iter()
            .map(|n| WireMsg::Worker {
                dest: WorkerId(n as u32),
                msg: WorkerMsg::Batch(batch(n)),
            })
            .collect();
        let (_, back) = roundtrip_packet(&msgs);
        let WireMsg::Worker {
            msg: WorkerMsg::Batch(ts),
            ..
        } = &back[2]
        else {
            panic!("a batch comes back a batch");
        };
        assert_eq!(ts, &batch(17));
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
}
