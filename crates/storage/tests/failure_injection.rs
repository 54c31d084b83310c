//! Failure-injection tests: corrupt or hostile on-disk state must
//! surface as typed errors, never panics or silent corruption.

use mct_storage::{
    BTree, BufferPool, ContentIndex, FaultDisk, FaultInjector, HeapFile, MemDisk, PageId, RecordId,
    StorageError, TagIndex, PAGE_SIZE,
};

fn pool() -> BufferPool<MemDisk> {
    BufferPool::new(MemDisk::new(), 32 * PAGE_SIZE)
}

/// Pool over a fault-injected in-memory disk.
fn faulty_pool(frames: usize) -> (BufferPool<FaultDisk<MemDisk>>, FaultInjector) {
    let inj = FaultInjector::new(0xDEAD);
    let pool = BufferPool::new(
        FaultDisk::new(MemDisk::new(), inj.clone()),
        frames * PAGE_SIZE,
    );
    (pool, inj)
}

#[test]
fn corrupt_btree_node_is_reported_not_panicked() {
    let p = pool();
    let mut t = BTree::create(&p).unwrap();
    for i in 0..100u32 {
        t.insert(&p, &i.to_be_bytes(), u64::from(i)).unwrap();
    }
    // Scribble over the root page: claim a huge entry count with no
    // backing bytes.
    p.with_page_mut(PageId(0), |buf| {
        buf[0] = 1; // leaf
        buf[1] = 0xFF; // count lo
        buf[2] = 0xFF; // count hi
        buf[7] = 0xEE; // garbage key length territory
    })
    .unwrap();
    let r = t.get(&p, &5u32.to_be_bytes());
    assert!(
        matches!(r, Err(StorageError::Corrupt(_))),
        "expected Corrupt, got {r:?}"
    );
}

#[test]
fn corrupt_btree_nodes_fail_every_access_path() {
    // A one-leaf tree of 100 four-byte keys: a 7-byte header, then
    // 14-byte entries (klen:u16, key, val:u64).
    const LAST_ENTRY: usize = 7 + 99 * 14;
    type Scribble = fn(&mut [u8]);
    let corruptions: [(&str, Scribble); 3] = [
        ("bad kind byte", |buf| buf[0] = 7),
        ("count too large for the page", |buf| {
            buf[1..3].copy_from_slice(&4_000u16.to_le_bytes())
        }),
        ("truncated last entry", |buf| {
            buf[LAST_ENTRY..LAST_ENTRY + 2].copy_from_slice(&u16::MAX.to_le_bytes())
        }),
    ];
    for (what, corrupt) in corruptions {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        for i in 0..100u32 {
            t.insert(&p, &i.to_be_bytes(), u64::from(i)).unwrap();
        }
        p.with_page_mut(PageId(0), corrupt).unwrap();
        // The probe is the last key, so even a scan that stops at the
        // first key above it must read the last entry.
        let got = t.get(&p, &99u32.to_be_bytes());
        assert!(
            matches!(got, Err(StorageError::Corrupt(_))),
            "{what}: get gave {got:?}"
        );
        let scanned = t.range_vec(&p, &[], None);
        assert!(
            matches!(scanned, Err(StorageError::Corrupt(_))),
            "{what}: scan_range gave {scanned:?}"
        );
        let inserted = t.insert(&p, &500u32.to_be_bytes(), 500);
        assert!(
            matches!(inserted, Err(StorageError::Corrupt(_))),
            "{what}: insert gave {inserted:?}"
        );
    }
}

#[test]
fn heap_get_on_foreign_page_is_an_error() {
    let p = pool();
    let mut h = HeapFile::new();
    let id = h.insert(&p, b"hello").unwrap();
    // A record id pointing at a slot that never existed.
    let bogus = RecordId {
        page: id.page,
        slot: 999,
    };
    assert!(matches!(
        h.get(&p, bogus),
        Err(StorageError::RecordNotFound { .. })
    ));
}

#[test]
fn reading_unallocated_page_is_an_error() {
    let p = pool();
    let _ = p.allocate().unwrap();
    let r = p.with_page(PageId(1000), |_| ());
    assert!(matches!(r, Err(StorageError::PageOutOfRange { .. })));
}

#[test]
fn heap_survives_record_boundary_sizes() {
    // Records exactly at, just below, and above page capacity.
    let p = pool();
    let mut h = HeapFile::new();
    let max = mct_storage::page::MAX_RECORD;
    assert!(h.insert(&p, &vec![7u8; max]).is_ok());
    assert!(h.insert(&p, &vec![7u8; max - 1]).is_ok());
    assert!(matches!(
        h.insert(&p, &vec![7u8; max + 1]),
        Err(StorageError::RecordTooLarge { .. })
    ));
    // After the failure the heap still works.
    let id = h.insert(&p, b"still fine").unwrap();
    assert_eq!(h.get(&p, id).unwrap(), b"still fine");
}

#[test]
fn btree_handles_empty_and_duplicate_heavy_keys() {
    let p = pool();
    let mut t = BTree::create(&p).unwrap();
    // Empty key is legal.
    t.insert(&p, b"", 1).unwrap();
    assert_eq!(t.get(&p, b"").unwrap(), Some(1));
    // Massive overwrite churn on one key must not grow the tree.
    for i in 0..10_000u64 {
        t.insert(&p, b"hot", i).unwrap();
    }
    assert_eq!(t.get(&p, b"hot").unwrap(), Some(9_999));
    assert_eq!(t.len(), 2);
    assert!(t.page_count() <= 2, "overwrites must not leak pages");
}

// ----- scheduled I/O faults: every structure reports, none panic ------------

/// Drive an operation repeatedly with a read fault scheduled at every
/// successive read index until one run completes without the fault
/// firing. Each faulted run must return a typed error (never panic),
/// and the structure must stay usable afterwards.
fn exhaust_read_faults<T>(
    inj: &FaultInjector,
    mut op: impl FnMut() -> mct_storage::Result<T>,
) -> u64 {
    let mut faulted = 0;
    loop {
        let base = inj.reads();
        inj.fail_at_read(base + faulted);
        match op() {
            Err(StorageError::Io(_)) => faulted += 1,
            Err(e) => panic!("expected injected Io error, got {e:?}"),
            Ok(_) => {
                inj.disarm();
                return faulted;
            }
        }
    }
}

#[test]
fn heap_reports_read_and_write_faults() {
    let (p, inj) = faulty_pool(4);
    let mut h = HeapFile::new();
    let mut ids = Vec::new();
    let rec = |i: u32| {
        let mut r = vec![0u8; 500];
        r[..4].copy_from_slice(&i.to_le_bytes());
        r
    };
    for i in 0..200u32 {
        ids.push(h.insert(&p, &rec(i)).unwrap());
    }
    p.evict_all().unwrap();
    // Cold reads with a fault at every read index in turn.
    let faulted = exhaust_read_faults(&inj, || h.get(&p, ids[100]));
    assert!(faulted > 0, "cold heap get must read from disk");
    assert_eq!(h.get(&p, ids[100]).unwrap(), rec(100));
    // A write fault during eviction: the heap spans far more pages
    // than the pool holds, so inserts force dirty-frame flushes.
    inj.fail_at_write(inj.writes());
    let mut err = None;
    for i in 200..400u32 {
        if let Err(e) = h.insert(&p, &rec(i)) {
            err = Some(e);
            break;
        }
    }
    let err = err.expect("eviction write fault must surface");
    assert!(matches!(err, StorageError::Io(_)), "typed error: {err:?}");
    // The engine is still alive after the clean failure.
    inj.disarm();
    let id = h.insert(&p, b"post-fault").unwrap();
    assert_eq!(h.get(&p, id).unwrap(), b"post-fault");

}

#[test]
fn tag_index_reports_read_faults() {
    use mct_storage::IntervalCode;
    let (p, inj) = faulty_pool(4);
    let mut t = TagIndex::create(&p).unwrap();
    for i in 0..500u32 {
        let code = IntervalCode {
            start: i * 8,
            end: i * 8 + 7,
            level: 2,
        };
        t.insert(&p, i % 7, code, u64::from(i)).unwrap();
    }
    p.evict_all().unwrap();
    let faulted = exhaust_read_faults(&inj, || t.postings(&p, 3));
    assert!(faulted > 1, "postings scan descends and walks leaves");
    let posts = t.postings(&p, 3).unwrap();
    let expected = (0..500u32).filter(|i| i % 7 == 3).count();
    assert_eq!(posts.len(), expected);
}

#[test]
fn content_index_reports_read_faults() {
    let (p, inj) = faulty_pool(4);
    let mut idx = ContentIndex::create(&p).unwrap();
    for i in 0..500u32 {
        idx.insert(&p, &format!("value-{}", i % 50), u64::from(i))
            .unwrap();
    }
    p.evict_all().unwrap();
    let faulted = exhaust_read_faults(&inj, || idx.lookup(&p, "value-17"));
    assert!(faulted > 0);
    assert_eq!(idx.lookup(&p, "value-17").unwrap().len(), 10);
}

#[test]
fn btree_reports_write_faults_on_split() {
    let (p, inj) = faulty_pool(4);
    let mut t = BTree::create(&p).unwrap();
    // Grow until evictions happen constantly, failing one write.
    inj.fail_at_write(8);
    let mut err = None;
    for i in 0..5_000u64 {
        if let Err(e) = t.insert(&p, &i.to_be_bytes(), i) {
            err = Some(e);
            break;
        }
    }
    let err = err.expect("write fault must surface through the tree");
    assert!(matches!(err, StorageError::Io(_)), "typed error: {err:?}");
    inj.disarm();
    // Still insertable and readable afterwards.
    t.insert(&p, b"recovered", 1).unwrap();
    assert_eq!(t.get(&p, b"recovered").unwrap(), Some(1));
}

#[test]
fn pool_eviction_write_fault_keeps_page_dirty() {
    let (p, inj) = faulty_pool(2); // clamped to the 8-frame minimum
    let a = p.allocate().unwrap();
    p.with_page_mut(a, |b| b[0] = 0xAB).unwrap();
    // Fail the flush of `a` during eviction pressure.
    inj.fail_at_write(inj.writes());
    let mut failures = 0;
    for _ in 0..2 * p.capacity() {
        if p.allocate().is_err() {
            failures += 1;
        }
    }
    assert!(failures > 0, "eviction flush fault must surface");
    inj.disarm();
    // The dirtied byte was not lost: the frame stayed dirty and the
    // next successful flush persists it.
    p.evict_all().unwrap();
    p.with_page(a, |b| assert_eq!(b[0], 0xAB)).unwrap();
}

#[test]
fn bit_flip_under_the_pool_reads_as_corrupt() {
    let (mut p, _inj) = faulty_pool(8);
    let mut h = HeapFile::new();
    let id = h.insert(&p, b"precious bytes").unwrap();
    p.evict_all().unwrap();
    p.disk_mut().flip_bit(id.page, 900 * 8).unwrap();
    let r = h.get(&p, id);
    assert!(
        matches!(r, Err(StorageError::Corrupt(_))),
        "flipped bit must fail the page checksum, got {r:?}"
    );
}

// ----- injected faults are visible as metrics, not just errors --------------
//
// Global counters are shared across the parallel test threads, so the
// assertions compare before/after deltas against the pool's own (per-
// instance, deterministic) PoolStats rather than absolute values.

#[test]
fn injected_checksum_failure_counts_as_corrupt_read_metric() {
    let global = mct_obs::counter("storage.corrupt_reads");
    let (mut p, _inj) = faulty_pool(8);
    let mut h = HeapFile::new();
    let id = h.insert(&p, b"counted bytes").unwrap();
    p.evict_all().unwrap();
    p.disk_mut().flip_bit(id.page, 900 * 8).unwrap();
    let mark_local = p.stats();
    let mark_global = global.get();
    assert!(matches!(h.get(&p, id), Err(StorageError::Corrupt(_))));
    let local = p.stats().delta_since(&mark_local);
    assert_eq!(local.corrupt_reads, 1, "pool counted the checksum failure");
    assert!(
        global.get() - mark_global >= local.corrupt_reads,
        "storage.corrupt_reads reflects the pool's count"
    );
}

#[test]
fn injected_io_errors_count_as_io_error_metric() {
    let global = mct_obs::counter("storage.io_errors");
    let (p, inj) = faulty_pool(8);
    let mut h = HeapFile::new();
    let id = h.insert(&p, b"io counted").unwrap();
    p.evict_all().unwrap();
    // Read fault on the cold fetch.
    let mark_local = p.stats();
    let mark_global = global.get();
    inj.fail_at_read(inj.reads());
    assert!(matches!(h.get(&p, id), Err(StorageError::Io(_))));
    assert_eq!(p.stats().delta_since(&mark_local).io_errors, 1);
    // Write fault on an eviction flush.
    p.with_page_mut(id.page, |b| b[1] = 9).unwrap();
    inj.fail_at_write(inj.writes());
    assert!(matches!(p.evict_all(), Err(StorageError::Io(_))));
    inj.disarm();
    let local = p.stats().delta_since(&mark_local);
    assert_eq!(local.io_errors, 2, "one read fault + one write fault");
    assert!(
        global.get() - mark_global >= local.io_errors,
        "storage.io_errors reflects the pool's count"
    );
}

#[test]
fn delete_insert_churn_reuses_space() {
    let p = pool();
    let mut h = HeapFile::new();
    // Fill one page, then churn delete/insert; page count must stay
    // bounded (compaction reclaims tombstones).
    let mut ids = Vec::new();
    for i in 0..50 {
        ids.push(h.insert(&p, &[i as u8; 120]).unwrap());
    }
    let pages_before = h.page_count();
    for round in 0..100 {
        let id = ids.remove(0);
        h.delete(&p, id).unwrap();
        ids.push(h.insert(&p, &[round as u8; 120]).unwrap());
    }
    assert!(
        h.page_count() <= pages_before + 1,
        "churn leaked pages: {} -> {}",
        pages_before,
        h.page_count()
    );
}
