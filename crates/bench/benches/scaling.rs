//! Criterion microbenchmarks for the morsel-driven parallel executor:
//! cross-tree join and holistic chain join at 1/2/4/8 worker threads
//! on the TPC-W MCT fixture. The interesting output is the scaling
//! curve — on a single-core container all points collapse to the
//! sequential time plus scheduling overhead, which is itself worth
//! watching.

use mct_bench::microbench::Criterion;
use mct_bench::Fixtures;
use mct_bench::{criterion_group, criterion_main};
use mct_query::exec::holistic_chain_par;
use mct_query::ops::{cross_tree_op, Rel};
use mct_query::Tuple;
use mct_workloads::SchemaKind;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn scaling(c: &mut Criterion) {
    let mut fx = Fixtures::build(0.2);
    let db = fx.db(mct_workloads::Dataset::Tpcw, SchemaKind::Mct);
    let cust = db.db.color("cust").unwrap();
    let auth = db.db.color("auth").unwrap();
    let db = &*db;

    // --- cross-tree: cust orderlines -> auth items --------------------
    let lines = db.postings_named(cust, "orderline").expect("postings");
    let tuples: Vec<Tuple> = lines.iter().map(|r| vec![*r]).collect();
    let expected = cross_tree_op(db, tuples.clone(), 0, auth, 1, None)
        .expect("join")
        .len();
    for threads in THREADS {
        let name = format!("cross_tree_par/orderline-auth/t{threads}");
        c.bench_function(&name, |b| {
            b.iter(|| {
                let out = cross_tree_op(db, tuples.clone(), 0, auth, threads, None).expect("join");
                assert_eq!(out.len(), expected);
                out.len()
            })
        });
    }

    // --- chain: customer/order/orderline holistic join ----------------
    let lists = vec![
        db.postings_named(cust, "customer").expect("postings"),
        db.postings_named(cust, "order").expect("postings"),
        lines,
    ];
    let rels = [Rel::Child, Rel::Child];
    let expected = holistic_chain_par(&lists, &rels, 1, None).expect("join").len();
    for threads in THREADS {
        let name = format!("holistic_chain_par/cust-order-line/t{threads}");
        c.bench_function(&name, |b| {
            b.iter(|| {
                let out = holistic_chain_par(&lists, &rels, threads, None).expect("join");
                assert_eq!(out.len(), expected);
                out.len()
            })
        });
    }
}

criterion_group!(benches, scaling);
criterion_main!(benches);
