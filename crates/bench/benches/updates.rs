//! Criterion benchmarks for update machinery — the ablation behind the
//! gapped interval numbering (DESIGN.md): a leaf insert that fits the
//! numbering gap updates indexes incrementally, while a forced
//! renumber pays a full re-annotation + per-color reindex.

use mct_bench::microbench::Criterion;
use mct_bench::{criterion_group, criterion_main};
use mct_core::{McNodeId, MctDatabase, StoredDb};

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
    // Gap-path insert: append a leaf, assign codes in the gap, persist.
    c.bench_function("insert/gap_path", |b| {
        b.iter_batched(
            || build_store(5_000),
            |(mut s, items)| {
                let red = s.db.color("red").unwrap();
                let target = items[items.len() / 2];
                let e = s.db.new_element("remark", red);
                s.db.set_content(e, "fresh");
                s.db.append_child(target, e, red);
                let fit = s.db.try_assign_gap_codes(e, red);
                assert!(fit, "first insert under a leaf must fit the gap");
                s.persist_new_element(e).unwrap();
            },
            mct_bench::microbench::BatchSize::LargeInput,
        )
    });

    // Renumber path: force a full annotate + reindex of the color.
    c.bench_function("insert/renumber_path", |b| {
        b.iter_batched(
            || build_store(5_000),
            |(mut s, items)| {
                let red = s.db.color("red").unwrap();
                let target = items[items.len() / 2];
                let e = s.db.new_element("remark", red);
                s.db.set_content(e, "fresh");
                s.db.append_child(target, e, red);
                s.reindex_color(red).unwrap();
                s.persist_new_element(e).unwrap();
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
