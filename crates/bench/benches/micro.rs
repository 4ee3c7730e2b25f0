//! Criterion micro-benchmarks of GraphDance's core data structures: weight
//! arithmetic (§IV-A), memoranda operations (§III-B), the packet codec, the
//! partitioner, TEL scans, and expression evaluation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use graphdance_common::rng::seeded;
use graphdance_common::{Label, PartId, Partitioner, PropKey, QueryId, Value, VertexId, WorkerId};
use graphdance_engine::messages::WorkerMsg;
use graphdance_engine::net::WireMsg;
use graphdance_engine::wire;
use graphdance_pstm::{HandOff, Memo, Traverser, Weight};
use graphdance_query::expr::{EvalCtx, Expr};
use graphdance_storage::{TelList, VertexRecord};

fn bench_weight(c: &mut Criterion) {
    let mut rng = seeded(1);
    c.bench_function("weight/split_one", |b| {
        let mut w = Weight::ROOT;
        b.iter(|| black_box(w.split_one(&mut rng)));
    });
    c.bench_function("weight/split_16", |b| {
        b.iter(|| black_box(Weight::ROOT.split(16, &mut rng)));
    });
}

fn bench_partitioner(c: &mut Criterion) {
    let p = Partitioner::new(8, 8);
    c.bench_function("partitioner/part_of", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(p.part_of(VertexId(i)))
        });
    });
}

fn bench_memo(c: &mut Criterion) {
    c.bench_function("memo/dedup_insert_fresh", |b| {
        let mut memo = Memo::new();
        let q = memo.query_mut(QueryId(1));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(q.dedup_insert(0, 0, VertexId(i), vec![]))
        });
    });
    c.bench_function("memo/min_dist_update", |b| {
        let mut memo = Memo::new();
        let q = memo.query_mut(QueryId(1));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(q.min_dist_update(0, 0, VertexId(i % 1000), (i % 7) as i64))
        });
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut run = HandOff::default();
    for i in 0..64 {
        let mut t = Traverser::root(QueryId(1), 0, VertexId(i), 4, Weight(i));
        t.set_slot(0, Value::Int(i as i64));
        t.set_slot(1, Value::str("payload"));
        run.push(t);
    }
    let packet = [WireMsg::Worker {
        dest: WorkerId(1),
        msg: WorkerMsg::HandOff(run),
    }];
    c.bench_function("codec/encode_packet_64", |b| {
        b.iter(|| {
            let mut body = Vec::new();
            wire::encode_packet(&mut body, black_box(&packet)).unwrap();
            body
        });
    });
    let mut body = Vec::new();
    wire::encode_packet(&mut body, &packet).unwrap();
    c.bench_function("codec/decode_packet_64", |b| {
        b.iter(|| black_box(wire::decode_packet(black_box(&body)).unwrap().len()));
    });
}

fn bench_tel(c: &mut Criterion) {
    let mut tel = TelList::new();
    for i in 0..256u64 {
        tel.insert(
            Label(0),
            VertexId(i),
            graphdance_common::EdgeId(i),
            1,
            vec![],
        );
    }
    c.bench_function("tel/scan_visible_256", |b| {
        b.iter(|| black_box(tel.scan_visible(Label(0), 10).count()));
    });
}

fn bench_expr(c: &mut Criterion) {
    let record = VertexRecord {
        label: Label(0),
        create_ts: 0,
        props: vec![
            (PropKey(0), Value::Int(42)),
            (PropKey(1), Value::str("alice")),
        ],
    };
    let locals = [Value::Int(5)];
    let ctx = EvalCtx {
        vertex: VertexId(1),
        record: Some(&record),
        locals: &locals,
        params: &[],
    };
    let pred = Expr::And(vec![
        Expr::gt(Expr::Prop(PropKey(0)), Expr::int(10)),
        Expr::lt(Expr::Slot(0), Expr::int(100)),
    ]);
    c.bench_function("expr/filter_eval", |b| {
        b.iter(|| black_box(pred.eval_bool(&ctx).unwrap()));
    });
}

fn bench_graph_partition(c: &mut Criterion) {
    use graphdance_storage::{Direction, GraphBuilder};
    let mut builder = GraphBuilder::new(Partitioner::single());
    let l = builder.schema_mut().register_vertex_label("V");
    let e = builder.schema_mut().register_edge_label("E");
    for i in 0..1000u64 {
        builder.add_vertex(VertexId(i), l, vec![]).unwrap();
    }
    for i in 0..1000u64 {
        for d in 1..=8u64 {
            builder
                .add_edge(VertexId(i), e, VertexId((i + d) % 1000), vec![])
                .unwrap();
        }
    }
    let g = builder.finish();
    c.bench_function("storage/expand_deg8", |b| {
        let part = g.read(PartId(0));
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1000;
            black_box(
                part.edges(VertexId(i), Direction::Out, e, 1)
                    .unwrap()
                    .count(),
            )
        });
    });
}

fn bench_agg(c: &mut Criterion) {
    use graphdance_pstm::AggState;
    use graphdance_query::expr::EvalCtx;
    use graphdance_query::plan::{AggFunc, Order};
    let func = AggFunc::TopK {
        k: 10,
        sort: vec![(Expr::Slot(0), Order::Desc)],
        output: vec![Expr::Slot(0)],
        distinct: vec![],
    };
    c.bench_function("agg/topk_insert", |b| {
        let mut st = AggState::new(&func);
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            let locals = [Value::Int(i % 1000)];
            let ctx = EvalCtx {
                vertex: VertexId(1),
                record: None,
                locals: &locals,
                params: &[],
            };
            st.insert(&func, &ctx).unwrap();
        });
    });
    let gfunc = AggFunc::GroupCount {
        key: Expr::Slot(0),
        order: graphdance_query::plan::GroupOrder::CountDesc,
        limit: 100,
    };
    c.bench_function("agg/group_count_insert", |b| {
        let mut st = AggState::new(&gfunc);
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            let locals = [Value::Int(i % 256)];
            let ctx = EvalCtx {
                vertex: VertexId(1),
                record: None,
                locals: &locals,
                params: &[],
            };
            st.insert(&gfunc, &ctx).unwrap();
        });
    });
}

fn bench_datagen(c: &mut Criterion) {
    use graphdance_datagen::{KhopDataset, KhopParams};
    c.bench_function("datagen/lj_sim_2k", |b| {
        b.iter(|| black_box(KhopDataset::generate(KhopParams::lj_sim(2_000))));
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_weight, bench_partitioner, bench_memo, bench_codec, bench_tel, bench_expr, bench_graph_partition, bench_agg, bench_datagen
);
criterion_main!(micro);
