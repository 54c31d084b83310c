//! Criterion benchmarks for update machinery — the ablation behind the
//! gapped interval numbering (DESIGN.md): an insert that fits the
//! numbering gap updates indexes incrementally, while a fragment too
//! large for it pays a full re-annotation + per-color reindex.

use mct_bench::microbench::Criterion;
use mct_bench::{criterion_group, criterion_main};
use mct_core::{McNodeId, MctDatabase, StoredDb};
use std::collections::HashMap;

fn build_store(n: usize) -> (StoredDb, Vec<McNodeId>) {
    let mut db = MctDatabase::new();
    let red = db.add_color("red");
    let root = db.new_element("catalog", red);
    db.append_child(McNodeId::DOCUMENT, root, red);
    let mut items = Vec::with_capacity(n);
    for i in 0..n {
        let e = db.new_element("item", red);
        db.set_content(e, &format!("item {i}"));
        db.append_child(root, e, red);
        items.push(e);
    }
    (StoredDb::build(db, 64 * 1024 * 1024).unwrap(), items)
}

fn updates(c: &mut Criterion) {
    // Gap path: one leaf fits the numbering gap under its parent.
    c.bench_function("insert/gap_path", |b| {
        b.iter_batched(
            || build_store(5_000),
            |(mut s, items)| {
                let red = s.db.color("red").unwrap();
                let e = s.new_element("remark", Some("fresh"), &[]);
                s.attach(items[items.len() / 2], &[e], &HashMap::new(), red)
                    .unwrap();
            },
            mct_bench::microbench::BatchSize::LargeInput,
        )
    });

    // Renumber path: a four-node fragment does not fit a leaf's
    // stride-8 gap (stride 8 / 9 = 0), so it renumbers and reindexes
    // the whole color.
    c.bench_function("insert/renumber_path", |b| {
        b.iter_batched(
            || build_store(5_000),
            |(mut s, items)| {
                let red = s.db.color("red").unwrap();
                let e = s.new_element("remark", None, &[]);
                let xs: Vec<_> = (0..3).map(|_| s.new_element("x", Some("fresh"), &[])).collect();
                let edges = HashMap::from([(e, xs)]);
                s.attach(items[items.len() / 2], &[e], &edges, red).unwrap();
            },
            mct_bench::microbench::BatchSize::LargeInput,
        )
    });

    // Content update through heap + content index.
    c.bench_function("update_content/write_through", |b| {
        b.iter_batched(
            || build_store(5_000),
            |(mut s, items)| {
                s.update_content(items[17], "replacement content").unwrap();
            },
            mct_bench::microbench::BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = updates
}
criterion_main!(benches);
