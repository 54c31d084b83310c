//! Criterion microbenchmarks for the join primitives — the cost
//! hierarchy the paper's conclusions rest on (§7.2, §9):
//!
//! structural join < cross-tree join (direct) < cross-tree join
//! (link-probe) ≈ value join, and the quadratic nested-loop
//! inequality join far behind.

use mct_bench::microbench::Criterion;
use mct_bench::{criterion_group, criterion_main};
use mct_bench::Fixtures;
use mct_core::{cross_tree_join, cross_tree_join_direct};
use mct_query::ast::CmpOp;
use mct_query::ops::{
    holistic_path_join, index_scan, nl_join_cmp, structural_join, value_join_eq, KeySpec, Rel,
};
use mct_workloads::SchemaKind;

fn joins(c: &mut Criterion) {
    let mut fx = Fixtures::build(0.2);

    // --- structural join: orders ⋈child orderlines (MCT cust tree) ----
    {
        let db = fx.db(mct_workloads::Dataset::Tpcw, SchemaKind::Mct);
        let cust = db.db.color("cust").unwrap();
        let orders = index_scan(db, cust, "order").unwrap();
        let lines = index_scan(db, cust, "orderline").unwrap();
        c.bench_function("structural_join/order-orderline", |b| {
            b.iter(|| structural_join(&orders, 0, &lines, 0, Rel::Child).len())
        });
        let o: Vec<_> = orders.iter().map(|t| t[0]).collect();
        let l: Vec<_> = lines.iter().map(|t| t[0]).collect();
        c.bench_function("holistic_path_join/order-orderline", |b| {
            b.iter(|| holistic_path_join(&[o.clone(), l.clone()], &[Rel::Child]).len())
        });
    }

    // --- value join: shallow orderlines ⋈ orders by IDREF --------------
    {
        let db = fx.db(mct_workloads::Dataset::Tpcw, SchemaKind::Shallow);
        let black = db.db.color("black").unwrap();
        let orders = index_scan(db, black, "order").unwrap();
        let lines = index_scan(db, black, "orderline").unwrap();
        c.bench_function("value_join/orderline-order", |b| {
            b.iter(|| {
                value_join_eq(
                    db,
                    &lines,
                    0,
                    &KeySpec::Attr("orderIdRef".into()),
                    &orders,
                    0,
                    &KeySpec::Attr("id".into()),
                )
                .unwrap()
                .len()
            })
        });
        // Quadratic nested-loop inequality join (kept small).
        let totals = index_scan(db, black, "total").unwrap();
        let small: Vec<_> = totals.iter().take(300).cloned().collect();
        c.bench_function("nl_inequality_join/totals-300", |b| {
            b.iter(|| nl_join_cmp(db, &small, 0, &small, 0, CmpOp::Gt).unwrap().len())
        });
    }

    // --- cross-tree join: the A1 ablation -------------------------------
    {
        let db = fx.db(mct_workloads::Dataset::Tpcw, SchemaKind::Mct);
        let cust = db.db.color("cust").unwrap();
        let auth = db.db.color("auth").unwrap();
        let lines = db.postings_named(cust, "orderline").unwrap();
        c.bench_function("cross_tree/link_probe", |b| {
            b.iter(|| cross_tree_join(db, &lines, auth).unwrap().len())
        });
        c.bench_function("cross_tree/direct", |b| {
            b.iter(|| cross_tree_join_direct(db, &lines, auth).len())
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = joins
}
criterion_main!(benches);
