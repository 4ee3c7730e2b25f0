//! The 14 LDBC SNB Interactive Complex queries as PSTM plans.
//!
//! Each constructor documents its parameter layout. Where the official
//! query has details that do not change its systems-level shape (negative
//! existence conditions, full result-column lists), we simplify and say so
//! — every engine runs the same plan, so comparisons stay fair.

use graphdance_common::{GdError, GdResult};
use graphdance_query::expr::{CmpOp, Expr};
use graphdance_query::plan::{GroupOrder, Order, Plan};
use graphdance_query::QueryBuilder;
use graphdance_storage::Schema;

/// Names of the IC queries, index 0 = IC1.
pub const IC_NAMES: [&str; 14] = [
    "IC1", "IC2", "IC3", "IC4", "IC5", "IC6", "IC7", "IC8", "IC9", "IC10", "IC11", "IC12", "IC13",
    "IC14",
];

/// Build all 14 plans (index 0 = IC1).
pub fn build_ic_plans(schema: &Schema) -> GdResult<Vec<Plan>> {
    Ok(vec![
        ic1(schema)?,
        ic2(schema)?,
        ic3(schema)?,
        ic4(schema)?,
        ic5(schema)?,
        ic6(schema)?,
        ic7(schema)?,
        ic8(schema)?,
        ic9(schema)?,
        ic10(schema)?,
        ic11(schema)?,
        ic12(schema)?,
        ic13(schema)?,
        ic14(schema)?,
    ])
}

/// Shared prelude: friends (and optionally friends-of-friends) of `$0`
/// with min-distance pruning; excludes the start person. Returns the
/// distance slot.
fn friends_prefix(b: &mut QueryBuilder<'_>, max_hops: i64) -> u8 {
    b.v_param(0);
    let c = b.alloc_slot();
    let d = b.alloc_slot();
    b.repeat(1, max_hops, c, |r| {
        r.compute(
            d,
            Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
        );
        r.both("knows");
        r.min_dist(d);
    });
    b.filter(Expr::ne(Expr::VertexId, Expr::Param(0)));
    d
}

/// [`friends_prefix`] with each friend emitted once. Async delivery can
/// route a longer path through `MinDist` before the shortest arrives, and
/// the prefix then emits that friend once per improvement; a query that
/// counts or lists per friend must see each friend once. (`dedup` keeps the
/// first arrival, so a query that reads the distance slot cannot use it.)
fn distinct_friends(b: &mut QueryBuilder<'_>, max_hops: i64) {
    friends_prefix(b, max_hops);
    b.dedup();
}

/// IC1 — transitive friends with a given first name.
///
/// Params: `$0` start person (vertex), `$1` firstName (string).
/// Returns top 20 `(person, lastName, distance)` ordered by
/// (distance asc, lastName asc, id asc).
pub fn ic1(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    let d = friends_prefix(&mut b, 3);
    b.has("firstName", CmpOp::Eq, Expr::Param(1));
    let last = b.load("lastName");
    // `distinct` by vertex: async delivery can route a longer path through
    // MinDist before the shortest arrives, emitting one row per distance.
    // Keeping only the best-sorted (= minimum-distance) row per person in
    // the aggregation makes the result exact regardless of arrival order.
    b.top_k_distinct(
        20,
        vec![
            (Expr::Slot(d), Order::Asc),
            (Expr::Slot(last), Order::Asc),
            (Expr::VertexId, Order::Asc),
        ],
        vec![Expr::VertexId, Expr::Slot(last), Expr::Slot(d)],
        vec![Expr::VertexId],
    );
    b.compile()
}

/// IC2 — recent messages by friends.
///
/// Params: `$0` person, `$1` maxDate (epoch ms).
/// Returns top 20 `(friend, message, creationDate)` newest first.
pub fn ic2(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    b.v_param(0);
    b.both("knows");
    let f = b.alloc_slot();
    b.compute(f, Expr::VertexId);
    b.in_("hasCreator");
    let created = b.load("creationDate");
    b.filter(Expr::le(Expr::Slot(created), Expr::Param(1)));
    b.top_k(
        20,
        vec![
            (Expr::Slot(created), Order::Desc),
            (Expr::VertexId, Order::Asc),
        ],
        vec![Expr::Slot(f), Expr::VertexId, Expr::Slot(created)],
    );
    b.compile()
}

/// IC3 — friends/FoF whose messages were posted from country X or Y in a
/// date window. (Simplification: official IC3 requires counts in *both*
/// countries and excludes residents; we count messages in either country,
/// which preserves the traversal + per-person aggregation shape.)
///
/// Params: `$0` person, `$1`/`$2` country names, `$3` startDate,
/// `$4` endDate. Returns top 20 `(friend, messageCount)`.
pub fn ic3(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    distinct_friends(&mut b, 2);
    let f = b.alloc_slot();
    b.compute(f, Expr::VertexId);
    b.in_("hasCreator");
    let created = b.load("creationDate");
    b.filter(Expr::And(vec![
        Expr::ge(Expr::Slot(created), Expr::Param(3)),
        Expr::lt(Expr::Slot(created), Expr::Param(4)),
    ]));
    b.out("isLocatedIn");
    let country = b.prop("name");
    b.filter(Expr::Or(vec![
        Expr::eq(country.clone(), Expr::Param(1)),
        Expr::eq(country, Expr::Param(2)),
    ]));
    b.group_count(Expr::Slot(f), GroupOrder::CountDesc, 20);
    b.compile()
}

/// IC4 — new topics: tags on friends' posts in a window, by post count.
/// (Simplification: the "tag must not appear before the window" negative
/// condition is dropped.)
///
/// Params: `$0` person, `$1` startDate, `$2` endDate.
/// Returns top 10 `(tagName, postCount)`.
pub fn ic4(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    b.v_param(0);
    b.both("knows");
    b.in_("hasCreator");
    b.has_label("Post");
    let created = b.load("creationDate");
    b.filter(Expr::And(vec![
        Expr::ge(Expr::Slot(created), Expr::Param(1)),
        Expr::lt(Expr::Slot(created), Expr::Param(2)),
    ]));
    b.out("hasTag");
    let name = b.load("name");
    b.group_count(Expr::Slot(name), GroupOrder::CountDesc, 10);
    b.compile()
}

/// IC5 — new groups: forums that friends/FoF joined after a date, scored
/// by the number of posts those friends made in them.
///
/// Params: `$0` person, `$1` minJoinDate.
/// Returns top 20 `(forum, postCount)`.
pub fn ic5(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    distinct_friends(&mut b, 2);
    let f = b.alloc_slot();
    b.compute(f, Expr::VertexId);
    let join_date = b.alloc_slot();
    b.expand(
        graphdance_storage::Direction::In,
        "hasMember",
        vec![("joinDate", join_date)],
    );
    b.filter(Expr::gt(Expr::Slot(join_date), Expr::Param(1)));
    let forum = b.alloc_slot();
    b.compute(forum, Expr::VertexId);
    b.out("containerOf");
    b.out("hasCreator");
    b.filter(Expr::eq(Expr::VertexId, Expr::Slot(f)));
    b.group_count(Expr::Slot(forum), GroupOrder::CountDesc, 20);
    b.compile()
}

/// IC6 — tag co-occurrence: other tags on friends'/FoF's posts that carry
/// tag `$1`.
///
/// Params: `$0` person, `$1` tagName.
/// Returns top 10 `(tagName, postCount)`.
pub fn ic6(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    distinct_friends(&mut b, 2);
    b.in_("hasCreator");
    b.has_label("Post");
    let post = b.alloc_slot();
    b.compute(post, Expr::VertexId);
    b.out("hasTag");
    b.has("name", CmpOp::Eq, Expr::Param(1));
    b.move_to(post);
    b.out("hasTag");
    b.has("name", CmpOp::Ne, Expr::Param(1));
    let name = b.load("name");
    b.group_count(Expr::Slot(name), GroupOrder::CountDesc, 10);
    b.compile()
}

/// IC7 — recent likers of the person's messages.
///
/// Params: `$0` person. Returns top 20 `(liker, likeDate, message)` newest
/// like first. (Simplification: the `isNew` flag and latency column are
/// omitted.)
pub fn ic7(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    b.v_param(0);
    b.in_("hasCreator");
    let msg = b.alloc_slot();
    b.compute(msg, Expr::VertexId);
    let like_date = b.alloc_slot();
    b.expand(
        graphdance_storage::Direction::In,
        "likes",
        vec![("creationDate", like_date)],
    );
    b.top_k(
        20,
        vec![
            (Expr::Slot(like_date), Order::Desc),
            (Expr::VertexId, Order::Asc),
        ],
        vec![Expr::VertexId, Expr::Slot(like_date), Expr::Slot(msg)],
    );
    b.compile()
}

/// IC8 — recent replies to the person's messages.
///
/// Params: `$0` person. Returns top 20 `(author, comment, creationDate)`.
pub fn ic8(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    b.v_param(0);
    b.in_("hasCreator");
    b.in_("replyOf");
    let comment = b.alloc_slot();
    b.compute(comment, Expr::VertexId);
    let created = b.load("creationDate");
    b.out("hasCreator");
    b.top_k(
        20,
        vec![
            (Expr::Slot(created), Order::Desc),
            (Expr::Slot(comment), Order::Asc),
        ],
        vec![Expr::VertexId, Expr::Slot(comment), Expr::Slot(created)],
    );
    b.compile()
}

/// IC9 — recent messages by friends or friends-of-friends before a date.
///
/// Params: `$0` person, `$1` maxDate. Returns top 20
/// `(friend, message, creationDate)`.
pub fn ic9(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    distinct_friends(&mut b, 2);
    let f = b.alloc_slot();
    b.compute(f, Expr::VertexId);
    b.in_("hasCreator");
    let created = b.load("creationDate");
    b.filter(Expr::lt(Expr::Slot(created), Expr::Param(1)));
    b.top_k(
        20,
        vec![
            (Expr::Slot(created), Order::Desc),
            (Expr::VertexId, Order::Asc),
        ],
        vec![Expr::Slot(f), Expr::VertexId, Expr::Slot(created)],
    );
    b.compile()
}

/// IC10 — friend recommendation: friends-of-friends with a birthday in the
/// given month, scored by posting activity. (Simplification: the official
/// common-interest score — posts with/without overlapping interest tags —
/// is replaced by the candidate's post count, preserving the
/// FoF-filter-aggregate shape.)
///
/// Params: `$0` person, `$1` month (1..=12).
/// Returns top 10 `(candidate, postCount)`.
///
/// No [`distinct_friends`] here: the query filters on the distance slot,
/// and `dedup` keeps a vertex's first arrival, which can be the longer
/// path.
pub fn ic10(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    let d = friends_prefix(&mut b, 2);
    b.filter(Expr::eq(Expr::Slot(d), Expr::int(2))); // FoF only
    let bday = b.load("birthday");
    b.filter(Expr::eq(
        Expr::Month(Box::new(Expr::Slot(bday))),
        Expr::Param(1),
    ));
    let cand = b.alloc_slot();
    b.compute(cand, Expr::VertexId);
    b.in_("hasCreator");
    b.has_label("Post");
    b.group_count(Expr::Slot(cand), GroupOrder::CountDesc, 10);
    b.compile()
}

/// IC11 — job referral: friends/FoF who work at a company in country `$1`
/// since before `$2`.
///
/// Params: `$0` person, `$1` countryName, `$2` maxWorkFrom (year).
/// Returns top 10 `(friend, companyName, workFrom)` earliest first.
pub fn ic11(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    distinct_friends(&mut b, 2);
    let f = b.alloc_slot();
    b.compute(f, Expr::VertexId);
    let work_from = b.alloc_slot();
    b.expand(
        graphdance_storage::Direction::Out,
        "workAt",
        vec![("workFrom", work_from)],
    );
    b.filter(Expr::lt(Expr::Slot(work_from), Expr::Param(2)));
    let company = b.load("name");
    b.out("isLocatedIn");
    b.has("name", CmpOp::Eq, Expr::Param(1));
    b.top_k(
        10,
        vec![
            (Expr::Slot(work_from), Order::Asc),
            (Expr::Slot(f), Order::Asc),
            (Expr::Slot(company), Order::Desc),
        ],
        vec![Expr::Slot(f), Expr::Slot(company), Expr::Slot(work_from)],
    );
    b.compile()
}

/// IC12 — expert search: friends whose comments reply to posts tagged with
/// a tag whose class equals `$1` or descends from it.
///
/// Params: `$0` person, `$1` tagClassName.
/// Returns top 20 `(friend, replyCount)`.
///
/// The "class or any ancestor" disjunction is expressed with two pipelines
/// aggregating into the same per-partition GroupCount memo: one tests the
/// tag's direct class, the other walks `isSubclassOf` 1..4 levels up.
pub fn ic12(schema: &Schema) -> GdResult<Plan> {
    let build_branch = |walk_up: bool| -> GdResult<Plan> {
        let mut b = QueryBuilder::new(schema);
        b.v_param(0);
        b.both("knows");
        let f = b.alloc_slot();
        b.compute(f, Expr::VertexId);
        b.in_("hasCreator");
        b.has_label("Comment");
        b.out("replyOf");
        b.has_label("Post");
        b.out("hasTag");
        b.out("hasType");
        if walk_up {
            let c = b.alloc_slot();
            b.repeat(1, 4, c, |r| {
                r.out("isSubclassOf");
            });
        }
        b.has("name", CmpOp::Eq, Expr::Param(1));
        b.group_count(Expr::Slot(f), GroupOrder::CountDesc, 20);
        b.compile()
    };
    let direct = build_branch(false)?;
    let walked = build_branch(true)?;
    let mut plan = direct;
    let extra = walked.stages.into_iter().next().expect("one stage");
    plan.stages[0].pipelines.extend(extra.pipelines);
    plan.stages[0].num_slots = plan.stages[0].num_slots.max(extra.num_slots);
    plan.validate().map_err(GdError::InvalidProgram)?;
    Ok(plan)
}

/// IC13 — length of the shortest `knows` path between two persons (≤ 6
/// hops; unreachable pairs — and `person1 == person2` — return no rows,
/// which the caller reports as −1 / 0 respectively).
///
/// Params: `$0` person1, `$1` person2. Returns `[[distance]]`.
pub fn ic13(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    b.v_param(0);
    b.filter(Expr::ne(Expr::Param(0), Expr::Param(1)));
    let c = b.alloc_slot();
    let d = b.alloc_slot();
    b.repeat(1, 6, c, |r| {
        r.compute(
            d,
            Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
        );
        r.both("knows");
        r.min_dist(d);
    });
    b.filter(Expr::eq(Expr::VertexId, Expr::Param(1)));
    b.top_k(1, vec![(Expr::Slot(d), Order::Asc)], vec![Expr::Slot(d)]);
    b.compile()
}

/// IC14 — (simplified) trusted-connection paths: the distances (≤ 4 hops)
/// at which person2 is reachable from person1, with the number of
/// `(vertex, distance)`-distinct arrivals per distance as the path weight.
/// (The official query enumerates all shortest paths and scores them by
/// reply interactions; the bounded distance histogram preserves the
/// multi-source traversal + aggregate shape.)
///
/// Params: `$0` person1, `$1` person2. Returns `(distance, weight)` rows.
pub fn ic14(schema: &Schema) -> GdResult<Plan> {
    let mut b = QueryBuilder::new(schema);
    b.v_param(0);
    let c = b.alloc_slot();
    let d = b.alloc_slot();
    b.repeat(1, 4, c, |r| {
        r.compute(
            d,
            Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
        );
        r.both("knows");
        r.dedup_by(vec![d]);
    });
    b.filter(Expr::eq(Expr::VertexId, Expr::Param(1)));
    b.group_count(Expr::Slot(d), GroupOrder::KeyAsc, 5);
    b.compile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_datagen::SnbDataset;

    fn schema() -> Schema {
        let mut s = Schema::new();
        SnbDataset::register_schema(&mut s);
        s
    }

    #[test]
    fn all_ic_plans_compile_and_validate() {
        let s = schema();
        let plans = build_ic_plans(&s).unwrap();
        assert_eq!(plans.len(), 14);
        for (i, p) in plans.iter().enumerate() {
            assert!(p.validate().is_ok(), "IC{} invalid", i + 1);
            assert!(p.num_params >= 1, "IC{} should take params", i + 1);
        }
    }

    #[test]
    fn ic12_has_two_branch_pipelines() {
        let s = schema();
        let p = ic12(&s).unwrap();
        assert_eq!(p.stages[0].pipelines.len(), 2);
    }

    #[test]
    fn ic1_param_count() {
        let s = schema();
        assert_eq!(ic1(&s).unwrap().num_params, 2);
        assert_eq!(ic13(&s).unwrap().num_params, 2);
        assert_eq!(ic3(&s).unwrap().num_params, 5);
    }
}
