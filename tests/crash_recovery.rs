//! Crash-consistency loop: kill the engine at every write boundary.
//!
//! Builds a TPC-W-derived MCT database onto a fault-injected file
//! disk, then repeats the build with a simulated power loss (torn
//! write + dead disk) at each write the uncrashed run performed. After
//! every crash the database is reopened through WAL recovery and must
//! answer cross-tree joins and holistic chain joins byte-identically
//! to the uncrashed run; crashes before the first durable commit must
//! report "nothing committed" so the caller can rebuild. A final test
//! checks that silent bit rot surfaces as `StorageError::Corrupt`.

use mct_core::{cross_tree_join, MctDatabase, StoredDb};
use mct_query::ops::{holistic_path_join, Rel};
use mct_storage::{
    BufferPool, DiskManager, FaultDisk, FaultInjector, FileDisk, PageId, StorageError, Wal,
    PAGE_SIZE,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Small pool (64 frames) so the build evicts pages — crash points
/// cover mid-build data writes, WAL appends, and the commit flush.
const POOL: usize = 64 * PAGE_SIZE;

fn tpcw_db() -> MctDatabase {
    let cfg = mct_workloads::tpcw::TpcwConfig {
        scale: 0.01,
        seed: 42,
    };
    mct_workloads::tpcw::TpcwData::generate(&cfg).build_mct()
}

/// Cross-tree join + chain join results, as one comparable blob.
fn digest<D: DiskManager>(s: &mut StoredDb<D>) -> String {
    let mut out = String::new();
    let cust = s.db.color("cust").unwrap();
    let date = s.db.color("date").unwrap();
    let auth = s.db.color("auth").unwrap();
    // Color transitions: orders into the date tree, order lines into
    // the item/author tree.
    let orders = s.postings_named(cust, "order").unwrap();
    for r in cross_tree_join(s, &orders, date).unwrap() {
        writeln!(out, "o n{} [{},{}]@{}", r.node.0, r.code.start, r.code.end, r.code.level)
            .unwrap();
    }
    let lines = s.postings_named(cust, "orderline").unwrap();
    for r in cross_tree_join(s, &lines, auth).unwrap() {
        writeln!(out, "l n{} [{},{}]@{}", r.node.0, r.code.start, r.code.end, r.code.level)
            .unwrap();
    }
    // Chain join over three posting lists of the customer tree:
    // customer/order//qty.
    let lists: Vec<_> = ["customer", "order", "qty"]
        .iter()
        .map(|t| s.postings_named(cust, t).unwrap())
        .collect();
    for t in holistic_path_join(&lists, &[Rel::Child, Rel::Descendant]) {
        writeln!(out, "t {t:?}").unwrap();
    }
    // Value access paths: index lookup + heap fetch.
    for n in s.attr_lookup("id", "o0").unwrap() {
        writeln!(out, "a n{} {:?}", n.0, s.fetch_attrs(n).unwrap()).unwrap();
    }
    out
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mct-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fresh fault-wrapped pool over `dir` (removes any previous files).
/// One injector spans the page file and the WAL, so its write counter
/// enumerates every write boundary of build + sync.
fn faulted_pool(
    dir: &Path,
    injector: &FaultInjector,
) -> mct_storage::Result<BufferPool<FaultDisk<FileDisk>>> {
    let _ = std::fs::remove_file(dir.join("pages.db"));
    let _ = std::fs::remove_file(dir.join("wal.log"));
    let data = FaultDisk::new(FileDisk::open(&dir.join("pages.db"))?, injector.clone());
    let wal_disk = FaultDisk::new(FileDisk::open(&dir.join("wal.log"))?, injector.clone());
    let wal = Wal::create(Box::new(wal_disk))?;
    let mut pool = BufferPool::new(data, POOL);
    pool.attach_wal(wal);
    Ok(pool)
}

fn build_and_sync(
    dir: &Path,
    injector: &FaultInjector,
) -> mct_storage::Result<StoredDb<FaultDisk<FileDisk>>> {
    let pool = faulted_pool(dir, injector)?;
    let mut s = StoredDb::build_on(pool, tpcw_db())?;
    s.sync()?;
    Ok(s)
}

fn recover(dir: &Path) -> mct_storage::Result<Option<StoredDb<FileDisk>>> {
    let data = FileDisk::open(&dir.join("pages.db"))?;
    let wal_disk = Box::new(FileDisk::open(&dir.join("wal.log"))?);
    StoredDb::open_with(data, wal_disk, POOL)
}

#[test]
fn every_crash_point_recovers_to_the_uncrashed_result() {
    let dir = test_dir("crash-loop");

    // Uncrashed run: count the write boundaries and take the baseline.
    let injector = FaultInjector::new(0xFEED);
    let mut clean = build_and_sync(&dir, &injector).expect("uncrashed build");
    let total_writes = injector.writes();
    let baseline = digest(&mut clean);
    assert!(!baseline.is_empty(), "digest exercises real query results");
    assert!(total_writes > 50, "build must cross many write boundaries");
    drop(clean);

    // The baseline must also survive a plain reopen.
    let mut reopened = recover(&dir).unwrap().expect("clean run is durable");
    assert_eq!(digest(&mut reopened), baseline);
    drop(reopened);

    let (mut before_commit, mut after_commit) = (0u32, 0u32);
    for k in 0..total_writes {
        let injector = FaultInjector::new(0xFEED ^ k);
        injector.crash_at_write(k);
        let r = build_and_sync(&dir, &injector);
        assert!(r.is_err(), "crash point {k} must surface an error");
        assert!(injector.crashed(), "crash point {k} must have fired");
        drop(r);
        match recover(&dir).unwrap_or_else(|e| panic!("recovery after crash {k} failed: {e}")) {
            Some(mut s) => {
                // The commit made it to stable storage before the
                // crash: recovery must reproduce the uncrashed state.
                assert_eq!(digest(&mut s), baseline, "divergence after crash point {k}");
                after_commit += 1;
            }
            None => {
                // Nothing durable yet: the caller rebuilds from the
                // source data and arrives at the same state.
                before_commit += 1;
                if before_commit % 16 == 1 {
                    let inj = FaultInjector::new(1);
                    let mut s = build_and_sync(&dir, &inj).expect("clean rebuild");
                    assert_eq!(digest(&mut s), baseline, "rebuild after crash point {k}");
                }
            }
        }
    }
    assert!(before_commit > 0, "some crash points precede the commit fsync");
    assert!(after_commit > 0, "some crash points follow the commit fsync");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_rot_is_detected_as_corrupt() {
    let dir = test_dir("bit-rot");
    let injector = FaultInjector::new(7);
    let mut s = build_and_sync(&dir, &injector).unwrap();
    let baseline = digest(&mut s);
    s.pool.evict_all().unwrap();

    // Flip one bit in the middle of every data page in turn until a
    // read trips over it — every flip inside the checksummed region
    // must be detected, never silently returned.
    let num_pages = s.pool.num_pages();
    assert!(num_pages > 0);
    let victim = PageId(num_pages / 2);
    s.pool.disk_mut().flip_bit(victim, (PAGE_SIZE / 2) * 8 + 3).unwrap();
    let got = s.pool.with_page(victim, |_| ());
    assert!(
        matches!(got, Err(StorageError::Corrupt(_))),
        "bit flip must read as Corrupt, got {got:?}"
    );

    // Recovery from the intact WAL repairs the page and the full
    // query answer.
    drop(s);
    let mut r = recover(&dir).unwrap().expect("WAL still has the commit");
    assert_eq!(digest(&mut r), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}
