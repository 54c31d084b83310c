//! B+-tree microbenchmarks — the storage layer's "B+-tree probe"
//! numbers: building an index over 50 K sorted keys by one insert per
//! key vs bottom-up bulk load, point `get`s, and a tag-index postings
//! scan (`scan_range`).

use mct_bench::microbench::{BatchSize, Criterion};
use mct_bench::{criterion_group, criterion_main};
use mct_storage::{BTree, BufferPool, IntervalCode, KeyEncoder, MemDisk, TagIndex, PAGE_SIZE};

const KEYS: u32 = 50_000;

/// A pool that holds every tree built here, so nothing is evicted.
fn pool() -> BufferPool<MemDisk> {
    BufferPool::new(MemDisk::new(), 1024 * PAGE_SIZE)
}

fn btree(c: &mut Criterion) {
    // Link-index shaped entries: be32(node id) → a packed record id.
    let entries: Vec<(Vec<u8>, u64)> = (0..KEYS)
        .map(|i| (KeyEncoder::u32(i).to_vec(), u64::from(i) << 16))
        .collect();

    c.bench_function("btree/build_50k/insert", |b| {
        b.iter_batched(
            pool,
            |p| {
                let mut t = BTree::create(&p).unwrap();
                for (k, v) in &entries {
                    t.insert(&p, k, *v).unwrap();
                }
                t.page_count()
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("btree/build_50k/bulk_load", |b| {
        b.iter_batched(
            pool,
            |p| BTree::bulk_load(&p, &entries).unwrap().page_count(),
            BatchSize::LargeInput,
        )
    });

    let p = pool();
    let links = BTree::bulk_load(&p, &entries).unwrap();
    // 10 000 point probes per sample, strided over the key space.
    c.bench_function("btree/get_x10k", |b| {
        b.iter(|| {
            (0..10_000u32)
                .filter(|i| {
                    let key = KeyEncoder::u32(i.wrapping_mul(7_919) % KEYS);
                    links.get(&p, &key).unwrap().is_some()
                })
                .count()
        })
    });

    // 50 K postings over 50 tags; one scan returns one tag's 1 000.
    let mut postings: Vec<(Vec<u8>, u64)> = (0..KEYS)
        .map(|i| {
            let code = IntervalCode {
                start: 8 * i,
                end: 8 * i + 7,
                level: 3,
            };
            (TagIndex::key(i % 50, &code), u64::from(i))
        })
        .collect();
    postings.sort_unstable();
    let tags = TagIndex::from_btree(BTree::bulk_load(&p, &postings).unwrap());
    c.bench_function("btree/postings_scan_1k", |b| {
        b.iter(|| tags.postings(&p, 17).unwrap().len())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = btree
}
criterion_main!(benches);
