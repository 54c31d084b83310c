//! Catalog records are outside input: recovery reads them off disk and
//! a replica off the network. Malformed bytes must decode to
//! `StorageError::Corrupt` (or, in a chained record's version field, to
//! `CatalogBase`), never a panic.
//!
//! Both records come from the log of a small WAL-attached TPC-W store:
//! its first (rooted) commit and the chained commit of one insert. Every
//! strict prefix of each is refused; every single-byte change either
//! installs or is refused. The store is TPC-W cut to two of each entity
//! (every color and relation kept), so that trying every byte of its
//! rooted record stays quick in a debug build.

use mct_core::{MctDatabase, StoredDb};
use mct_query::{execute_update_with, parse_update};
use mct_storage::{BufferPool, MemDisk, ReplRecord, StorageError, TailCursor, Wal};
use mct_workloads::{TpcwConfig, TpcwData};

const POOL: usize = 1 << 20;
/// Byte range of the version a record produces (after the magic).
const VERSION_BYTES: std::ops::Range<usize> = 8..16;

/// TPC-W with `N` of each entity, every reference folded into range.
fn small_tpcw() -> MctDatabase {
    const N: usize = 2;
    let mut d = TpcwData::generate(&TpcwConfig {
        scale: 0.0,
        seed: 42,
    });
    d.countries.truncate(N);
    d.authors.truncate(N);
    d.items.truncate(N);
    d.customers.truncate(N);
    d.addresses.truncate(2 * N);
    d.orders.truncate(N);
    d.dates.truncate(N);
    d.orderlines.retain(|l| l.order < N);
    for it in &mut d.items {
        it.author %= N;
    }
    for a in &mut d.addresses {
        a.country %= N;
    }
    for o in &mut d.orders {
        o.customer %= N;
        o.bill_addr %= 2 * N;
        o.ship_addr %= 2 * N;
        o.date %= N;
    }
    for l in &mut d.orderlines {
        l.item %= N;
    }
    d.build_mct()
}

/// The rooted first commit and the chained commit of one insert.
fn records() -> (Vec<u8>, Vec<u8>) {
    let mut pool = BufferPool::new(MemDisk::new(), POOL);
    pool.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
    let mut s = StoredDb::build_on(pool, small_tpcw()).unwrap();
    assert_eq!(s.db.palette.len(), 5, "every TPC-W color");
    s.sync().unwrap();
    let insert = parse_update(
        r#"for $i in document("tpcw")/{auth}descendant::item update $i { insert <note>n</note> }"#,
    )
    .unwrap();
    execute_update_with(&mut s, &insert, None).unwrap();
    let (records, _) = s
        .pool
        .with_wal(|w| w.read_committed_after(&mut TailCursor::new(), 0, u64::MAX))
        .unwrap();
    let mut catalogs = records.into_iter().filter_map(|r| match r {
        ReplRecord::Commit { catalog, .. } => Some(catalog),
        ReplRecord::Image { .. } => None,
    });
    let (rooted, chained) = (catalogs.next().unwrap(), catalogs.next().unwrap());
    assert!(
        catalogs.next().is_none(),
        "one build commit and one update commit"
    );
    (rooted, chained)
}

/// Install `record` as a snapshot (rooted) or onto the state `base`
/// describes (chained).
fn install(base: Option<&[u8]>, record: &[u8]) -> mct_storage::Result<()> {
    match base {
        None => StoredDb::from_snapshot(MemDisk::new(), record, POOL).map(drop),
        Some(base) => {
            let mut s = StoredDb::from_snapshot(MemDisk::new(), base, POOL).unwrap();
            s.apply_repl_commit(0, record)
        }
    }
}

fn check(name: &str, base: Option<&[u8]>, record: &[u8]) {
    install(base, record).unwrap_or_else(|e| panic!("{name}: the record itself: {e}"));
    for len in 0..record.len() {
        match install(base, &record[..len]) {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("{name}: prefix of {len} bytes gave {other:?}"),
        }
    }
    let mut changed = record.to_vec();
    for at in 0..record.len() {
        for flip in [0x01, 0xFF] {
            changed[at] ^= flip;
            match install(base, &changed) {
                Ok(()) | Err(StorageError::Corrupt(_)) => {}
                Err(StorageError::CatalogBase { .. })
                    if base.is_some() && VERSION_BYTES.contains(&at) => {}
                Err(e) => panic!("{name}: byte {at} ^ {flip:#x} gave {e}"),
            }
            changed[at] ^= flip;
        }
    }
}

#[test]
fn malformed_catalog_records_are_corrupt_never_a_panic() {
    let (rooted, chained) = records();
    eprintln!("rooted {} B, chained {} B", rooted.len(), chained.len());
    check("rooted", None, &rooted);
    check("chained", Some(&rooted), &chained);
}
