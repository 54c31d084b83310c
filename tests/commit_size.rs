//! Commits are O(change): a one-value update on a WAL-attached TPC-W
//! store appends the same few page images and a small catalog delta to
//! its log whatever the document's size, and opening the transaction
//! encodes nothing. A rooted record (what a checkpoint or a replication
//! snapshot carries) stays as small as the full catalog it replaced.
//! A structural statement — a color-scoped delete, a small insert — is
//! O(change) too: it keeps every other node's interval code, so it
//! allocates no page and logs no more than a value update may.
//!
//! The catalog counters (`catalog.encodes.*`) are process-global, so
//! this binary holds a single `#[test]`.

use mct_core::{McNodeId, StoredDb};
use mct_query::{execute_update, parse_update};
use mct_storage::{BufferPool, MemDisk, ReplRecord, TailCursor, Wal};
use mct_workloads::{TpcwConfig, TpcwData};

const POOL: usize = 64 << 20;
/// What one replace-value commit may append to the log: a handful of
/// 8 KiB page images and their before-images, plus the catalog delta.
const COMMIT_BUDGET: u64 = 64 * 1024;
/// What its catalog record may take: the touched node and record-id
/// slots plus the heap/index directory.
const CATALOG_BUDGET: usize = 8 * 1024;
/// `snapshot_catalog()` bytes of the freshly built and synced store at
/// scales 0.05 and 0.5, in the full-catalog format that preceded
/// rooted records (measured with this file's seed and pool). A rooted
/// record may take at most 1 % more.
const FULL_CATALOG_BYTES: [(f64, usize); 2] = [(0.05, 381_851), (0.5, 3_868_851)];

fn wal_len(s: &StoredDb) -> u64 {
    s.pool.with_wal(|w| Ok(w.len_bytes())).unwrap()
}

fn encodes(kind: &str) -> u64 {
    mct_obs::counter(&format!("catalog.encodes.{kind}")).get()
}

/// Log and data-file fsyncs so far.
fn fsyncs() -> (u64, u64) {
    (
        mct_obs::counter("wal.fsyncs").get(),
        mct_obs::counter("storage.pool.fsyncs").get(),
    )
}

/// One same-length replace-value commit at `scale`: the log bytes it
/// appended, the bytes `begin_txn` alone appended, the size of the
/// commit's catalog record, the store's node count and the size of its
/// snapshot before the update.
fn one_update(s: &mut StoredDb) -> (u64, u64, usize, usize, usize) {
    let elements = s.db.len();
    let snapshot = s.snapshot_catalog().len();
    let cost = (0..s.db.len() as u32)
        .map(McNodeId)
        .find(|&n| s.db.name_str(n) == Some("cost"))
        .expect("TPC-W has item costs");
    // Bump the last digit: the new content-index key sorts next to the
    // old one, so the update rewrites the pages it found the old value
    // in (a key that lands in another, full leaf splits it and adds
    // two page images — pages, not catalog).
    let mut new = s.db.content(cost).unwrap().to_string();
    let last = new.pop().expect("costs are not empty");
    new.push(if last == '9' { '8' } else { (last as u8 + 1) as char });

    let (full, delta) = (encodes("full"), encodes("delta"));
    let (wal_fsyncs, pool_fsyncs) = fsyncs();
    let before = wal_len(s);
    let lsn = s.pool.with_wal(|w| Ok(w.committed_lsn())).unwrap();
    let txn = s.begin_txn().unwrap();
    let begun = wal_len(s) - before;
    s.update_content(cost, &new).unwrap();
    s.commit_txn(txn).unwrap();
    let committed = wal_len(s) - before;
    assert_eq!(encodes("full"), full, "begin + commit encoded a full catalog");
    assert_eq!(encodes("delta"), delta + 1, "the commit carries one delta");
    assert_eq!(
        fsyncs(),
        (wal_fsyncs + 1, pool_fsyncs),
        "a commit fsyncs the log once and the data file never"
    );
    assert_eq!(s.fetch_content(cost).unwrap().as_deref(), Some(new.as_str()));
    let (records, _) = s
        .pool
        .with_wal(|w| w.read_committed_after(&mut TailCursor::new(), lsn, u64::MAX))
        .unwrap();
    let catalog = records
        .iter()
        .find_map(|r| match r {
            ReplRecord::Commit { catalog, .. } => Some(catalog.len()),
            ReplRecord::Image { .. } => None,
        })
        .expect("the commit record");
    (committed, begun, catalog, elements, snapshot)
}

/// A WAL-attached TPC-W store at `scale`, built and synced.
fn store(scale: f64) -> StoredDb {
    let tpcw = TpcwData::generate(&TpcwConfig { scale, seed: 42 });
    let mut pool = BufferPool::new(MemDisk::new(), POOL);
    pool.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
    let mut s = StoredDb::build_on(pool, tpcw.build_mct()).unwrap();
    s.sync().unwrap();
    s
}

/// Run the update statement `text`, which must touch one binding: the
/// pages it allocated and the log bytes its transaction appended.
fn statement(s: &mut StoredDb, text: &str) -> (u32, u64) {
    let (pages, wal) = (s.pool.num_pages(), wal_len(s));
    assert_eq!(execute_update(s, &parse_update(text).unwrap()).unwrap(), 1, "{text}");
    (s.pool.num_pages() - pages, wal_len(s) - wal)
}

/// The contents of the first two item titles.
fn two_titles(s: &StoredDb) -> [String; 2] {
    let mut titles = (0..s.db.len() as u32)
        .map(McNodeId)
        .filter(|&n| s.db.name_str(n) == Some("title"))
        .map(|n| s.db.content(n).unwrap().to_string());
    [titles.next().unwrap(), titles.next().unwrap()]
}

#[test]
fn one_value_commit_appends_o_change_to_the_log_at_any_scale() {
    for (scale, full) in FULL_CATALOG_BYTES {
        let mut s = store(scale);
        let (committed, begun, catalog, elements, snapshot) = one_update(&mut s);
        eprintln!(
            "scale {scale}: {elements} nodes, begin {begun} B, commit {committed} B \
             (catalog {catalog} B), snapshot {snapshot} B"
        );
        assert!(
            snapshot * 100 <= full * 101,
            "scale {scale}: a rooted snapshot takes {snapshot} bytes, the full catalog took {full}"
        );
        assert!(
            begun <= 64,
            "scale {scale}: begin_txn appended {begun} bytes (one txn-begin record is 28)"
        );
        assert!(
            committed <= COMMIT_BUDGET,
            "scale {scale}: one replace-value commit appended {committed} bytes \
             (> {COMMIT_BUDGET}) to the log of a {elements}-node store"
        );
        assert!(
            catalog <= CATALOG_BUDGET,
            "scale {scale}: the commit's catalog record is {catalog} bytes"
        );

        let [deleted, noted] = two_titles(&s);
        let statements = [
            format!(
                r#"for $t in document("tpcw")/{{auth}}descendant::title where $t = "{deleted}"
                   update $t {{ delete $t }}"#
            ),
            format!(
                r#"for $i in document("tpcw")/{{auth}}descendant::item
                   where $i/{{auth}}child::title = "{noted}"
                   update $i {{ insert <note><x/></note> }}"#
            ),
        ];
        for text in &statements {
            let (pages, logged) = statement(&mut s, text);
            eprintln!("scale {scale}: {pages} new page(s), {logged} B logged by {text}");
            assert_eq!(pages, 0, "scale {scale}: {text} allocated {pages} page(s)");
            assert!(
                logged <= COMMIT_BUDGET,
                "scale {scale}: {text} appended {logged} bytes (> {COMMIT_BUDGET}) to the log"
            );
        }
        let report = s.check().unwrap();
        assert!(report.is_ok(), "scale {scale}: {report}");
        let (_, pool_fsyncs) = fsyncs();
        s.checkpoint().unwrap();
        assert!(fsyncs().1 > pool_fsyncs, "scale {scale}: a checkpoint fsyncs the data file");
    }
}
