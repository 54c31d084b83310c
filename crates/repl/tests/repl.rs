//! End-to-end replication over real sockets, in-process: snapshot
//! bootstrap, streaming catch-up, resume after reconnect, the
//! snapshot re-bootstrap forced when checkpoint truncation outruns a
//! disconnected replica, and the one forced when a catalog delta does
//! not extend the replica's catalog.
//!
//! Primary and replica share the process-global metric registry here,
//! so counter assertions work on before/after deltas, never absolute
//! values — and every test takes [`registry_lock`], because a sibling
//! test's bootstrap running in parallel bumps the same counters. (The
//! cure is a metrics registry per instance; the lock is the stop-gap.)

mod common;

use common::{commit_edit, primary_store, POOL};
use mct_repl::proto::{self, Frame};
use mct_repl::{start_primary, start_replica, PrimaryCfg, ReplicaCfg};
use mct_storage::{DiskManager, MemDisk, PageId, ReplRecord, StorageError, TailCursor, PAGE_SIZE};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

type SharedDb = Arc<RwLock<mct_core::StoredDb<MemDisk>>>;

fn fast_primary_cfg() -> PrimaryCfg {
    PrimaryCfg {
        advertise_http: "127.0.0.1:9999".to_string(),
        poll_interval: Duration::from_millis(5),
        ..PrimaryCfg::default()
    }
}

fn fast_replica_cfg(primary: &str, id: &str) -> ReplicaCfg {
    ReplicaCfg {
        primary: primary.to_string(),
        replica_id: id.to_string(),
        pool_bytes: POOL,
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(200),
        connect_attempts: 50,
    }
}

fn shared(db: mct_core::StoredDb<MemDisk>) -> SharedDb {
    Arc::new(RwLock::new(db))
}

fn commit_on(db: &SharedDb, text: &str) -> u64 {
    let mut w = db.write().unwrap_or_else(PoisonError::into_inner);
    commit_edit(&mut w, text)
}

/// Serializes the tests of this binary over the global registry.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while !cond() {
        if Instant::now() >= end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

#[test]
fn snapshot_bootstrap_then_streaming_catchup() {
    let _registry = registry_lock();
    let db = shared(primary_store());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let primary = start_primary(listener, Arc::clone(&db), fast_primary_cfg()).unwrap();

    let replica = start_replica(fast_replica_cfg(&addr, "r1")).unwrap();
    assert_eq!(replica.primary_http(), "127.0.0.1:9999");
    assert!(replica.applied_lsn() > 0, "bootstrap carries the snapshot LSN");

    // Bootstrap state matches the primary exactly.
    let primary_fp = db.read().unwrap().digest();
    assert_eq!(replica.db().read().unwrap().digest(), primary_fp);

    // Stream three committed edits; the replica converges to each.
    for i in 0..3 {
        let lsn = commit_on(&db, &format!("Edit {i}"));
        assert!(
            replica.wait_applied(lsn, Duration::from_secs(10)),
            "replica stuck below LSN {lsn}"
        );
    }
    let primary_fp = db.read().unwrap().digest();
    assert_eq!(replica.db().read().unwrap().digest(), primary_fp);

    // The replica's store passes the deep checker.
    let rep = {
        let rdb = replica.db();
        let r = rdb.read().unwrap_or_else(PoisonError::into_inner);
        r.check().unwrap()
    };
    assert!(rep.is_ok(), "replica violations: {rep}");

    // Lag drains to zero at quiescence, and the primary has the ack.
    assert!(
        wait_until(Duration::from_secs(5), || {
            mct_obs::gauge("repl.lag_bytes").get() == 0
                && mct_obs::gauge("repl.lag_records").get() == 0
        }),
        "lag gauges never drained"
    );
    let applied = replica.applied_lsn();
    assert!(
        wait_until(Duration::from_secs(5), || {
            primary.min_acked_lsn() == Some(applied)
        }),
        "primary never saw the replica's ack (acked={:?}, applied={applied})",
        primary.min_acked_lsn()
    );
    let status = primary.replicas();
    assert_eq!(status.len(), 1);
    assert_eq!(status[0].0, "r1");
    assert!(status[0].1.connected);

    replica.shutdown();
    primary.shutdown();
}

#[test]
fn reconnect_resumes_from_applied_lsn_without_snapshot() {
    let _registry = registry_lock();
    let db = shared(primary_store());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let primary = start_primary(listener, Arc::clone(&db), fast_primary_cfg()).unwrap();

    let replica = start_replica(fast_replica_cfg(&addr.to_string(), "r1")).unwrap();
    let lsn = commit_on(&db, "before outage");
    assert!(replica.wait_applied(lsn, Duration::from_secs(10)));

    // Baselines first: the replica starts counting reconnect attempts
    // the instant the primary goes away.
    let snapshots_before = mct_obs::counter("repl.snapshots").get();
    let reconnects_before = mct_obs::counter("repl.reconnects").get();

    // Primary goes away; more work commits while the replica is blind.
    primary.shutdown();
    let lsn = commit_on(&db, "during outage");

    // Primary comes back on the same port with the same store.
    let listener = TcpListener::bind(addr).unwrap();
    let primary = start_primary(listener, Arc::clone(&db), fast_primary_cfg()).unwrap();

    assert!(
        replica.wait_applied(lsn, Duration::from_secs(10)),
        "replica never caught up after reconnect"
    );
    let primary_fp = db.read().unwrap().digest();
    assert_eq!(replica.db().read().unwrap().digest(), primary_fp);
    assert!(
        mct_obs::counter("repl.reconnects").get() > reconnects_before,
        "reconnect was not counted"
    );
    assert_eq!(
        mct_obs::counter("repl.snapshots").get(),
        snapshots_before,
        "a resume-eligible replica was re-snapshotted"
    );

    replica.shutdown();
    primary.shutdown();
}

#[test]
fn checkpoint_truncation_outruns_replica_and_forces_rebootstrap() {
    let _registry = registry_lock();
    let db = shared(primary_store());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let primary = start_primary(listener, Arc::clone(&db), fast_primary_cfg()).unwrap();

    let replica = start_replica(fast_replica_cfg(&addr.to_string(), "r1")).unwrap();
    let lsn = commit_on(&db, "seen by replica");
    assert!(replica.wait_applied(lsn, Duration::from_secs(10)));

    // Outage; the primary commits AND checkpoints, truncating the log
    // past the replica's position.
    primary.shutdown();
    let lsn = {
        let mut w = db.write().unwrap_or_else(PoisonError::into_inner);
        commit_edit(&mut w, "beyond the checkpoint");
        w.checkpoint().unwrap();
        w.pool.with_wal(|wal| Ok(wal.committed_lsn())).unwrap()
    };
    {
        let w = db.read().unwrap_or_else(PoisonError::into_inner);
        let floor = w.pool.with_wal(|wal| Ok(wal.resume_floor())).unwrap();
        assert!(
            floor > replica.applied_lsn(),
            "test setup: checkpoint must outrun the replica (floor={floor}, applied={})",
            replica.applied_lsn()
        );
    }

    let snapshots_before = mct_obs::counter("repl.snapshots").get();

    let listener = TcpListener::bind(addr).unwrap();
    let primary = start_primary(listener, Arc::clone(&db), fast_primary_cfg()).unwrap();

    assert!(
        replica.wait_applied(lsn, Duration::from_secs(10)),
        "replica never re-bootstrapped"
    );
    let primary_fp = db.read().unwrap().digest();
    assert_eq!(replica.db().read().unwrap().digest(), primary_fp);
    assert!(
        mct_obs::counter("repl.snapshots").get() >= snapshots_before + 2,
        "expected a fresh snapshot on both ends (primary cut + replica apply)"
    );
    let rep = {
        let rdb = replica.db();
        let r = rdb.read().unwrap_or_else(PoisonError::into_inner);
        r.check().unwrap()
    };
    assert!(rep.is_ok(), "replica violations after re-bootstrap: {rep}");

    replica.shutdown();
    primary.shutdown();
}

#[test]
fn two_replicas_converge_independently() {
    let _registry = registry_lock();
    let db = shared(primary_store());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let primary = start_primary(listener, Arc::clone(&db), fast_primary_cfg()).unwrap();

    let r1 = start_replica(fast_replica_cfg(&addr, "r1")).unwrap();
    let r2 = start_replica(fast_replica_cfg(&addr, "r2")).unwrap();
    let lsn = commit_on(&db, "fan out");
    assert!(r1.wait_applied(lsn, Duration::from_secs(10)));
    assert!(r2.wait_applied(lsn, Duration::from_secs(10)));

    let primary_fp = db.read().unwrap().digest();
    assert_eq!(r1.db().read().unwrap().digest(), primary_fp);
    assert_eq!(r2.db().read().unwrap().digest(), primary_fp);
    assert_eq!(primary.replicas().len(), 2);

    r1.shutdown();
    r2.shutdown();
    primary.shutdown();
}

/// Committed records after `lsn`, as `(images, (lsn, num_pages, catalog))`
/// batches, one per commit.
type Batch = (Vec<(u32, Vec<u8>)>, (u64, u32, Vec<u8>));

fn batches_after(db: &mct_core::StoredDb<MemDisk>, lsn: u64) -> Vec<Batch> {
    let (records, _) = db
        .pool
        .with_wal(|w| w.read_committed_after(&mut TailCursor::new(), lsn, u64::MAX))
        .unwrap();
    let mut out = Vec::new();
    let mut images = Vec::new();
    for rec in records {
        match rec {
            ReplRecord::Image { page, image, .. } => images.push((page.0, image)),
            ReplRecord::Commit {
                lsn,
                num_pages,
                catalog,
                ..
            } => out.push((std::mem::take(&mut images), (lsn, num_pages, catalog))),
        }
    }
    out
}

fn committed_lsn(db: &mct_core::StoredDb<MemDisk>) -> u64 {
    db.pool.with_wal(|w| Ok(w.committed_lsn())).unwrap()
}

/// Send a snapshot of `db` the way the primary's bootstrap does;
/// returns its LSN.
fn send_snapshot(conn: &mut TcpStream, db: &SharedDb) -> u64 {
    let w = db.read().unwrap_or_else(PoisonError::into_inner);
    let lsn = committed_lsn(&w);
    let num_pages = w.pool.num_pages();
    let catalog = w.snapshot_catalog();
    let http = "127.0.0.1:9999".to_string();
    proto::write_frame(conn, &Frame::SnapBegin { lsn, num_pages, primary_http: http, catalog })
        .unwrap();
    let mut buf = [0u8; PAGE_SIZE];
    for page in 0..num_pages {
        w.pool.read_page_raw(PageId(page), &mut buf).unwrap();
        proto::write_frame(conn, &Frame::SnapPage { page, image: buf.to_vec() }).unwrap();
    }
    proto::write_frame(conn, &Frame::SnapEnd).unwrap();
    lsn
}

/// Accept the next connection and return it with the LSN its `HELLO`
/// presented; panics after ten seconds without one.
fn accept_hello(listener: &TcpListener) -> (TcpStream, u64) {
    listener.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut conn = loop {
        match listener.accept() {
            Ok((conn, _)) => break conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(Instant::now() < deadline, "the replica never connected");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("accept: {e}"),
        }
    };
    conn.set_nonblocking(false).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match proto::read_frame(&mut conn).unwrap() {
        Frame::Hello { last_applied_lsn, .. } => (conn, last_applied_lsn),
        other => panic!("expected HELLO, got {other:?}"),
    }
}

/// A catalog delta whose base is not the replica's catalog version (a
/// commit frame went missing) is refused with the typed error before
/// any of its batch is installed; the replica then asks for a snapshot
/// (HELLO with LSN 0), re-bootstraps and ends equal to the primary.
#[test]
fn delta_on_a_foreign_base_is_refused_and_forces_rebootstrap() {
    let _registry = registry_lock();

    // The store itself: refuse, change nothing.
    let mut primary = primary_store();
    let mut pages = MemDisk::new();
    let mut buf = [0u8; PAGE_SIZE];
    for p in 0..primary.pool.num_pages() {
        primary.pool.read_page_raw(PageId(p), &mut buf).unwrap();
        pages.allocate().unwrap();
        pages.write(PageId(p), &buf).unwrap();
    }
    let mut replica_store =
        mct_core::StoredDb::from_snapshot(pages, &primary.snapshot_catalog(), POOL).unwrap();
    let base = committed_lsn(&primary);
    commit_edit(&mut primary, "lost on the way");
    commit_edit(&mut primary, "arrives");
    let batches = batches_after(&primary, base);
    assert_eq!(batches.len(), 2);
    let (_, (_, num_pages, catalog)) = &batches[1];
    let before = replica_store.snapshot_catalog();
    for err in [
        replica_store.check_catalog_base(catalog).unwrap_err(),
        replica_store.apply_repl_commit(*num_pages, catalog).unwrap_err(),
    ] {
        assert!(matches!(err, StorageError::CatalogBase { .. }), "{err}");
    }
    assert_eq!(replica_store.snapshot_catalog(), before, "the refused delta changed the store");

    // Over the wire, from a primary that drops one commit frame.
    let db = shared(primary_store());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let bootstrap = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let (mut conn, lsn) = accept_hello(&listener);
            assert_eq!(lsn, 0, "a new replica has nothing applied");
            send_snapshot(&mut conn, &db);
            (listener, conn)
        })
    };
    let replica = start_replica(fast_replica_cfg(&addr, "fenced")).unwrap();
    let (listener, mut conn) = bootstrap.join().unwrap();
    let booted = replica.db().read().unwrap().digest();
    let base = committed_lsn(&db.read().unwrap());
    commit_on(&db, "lost on the way");
    let lsn = commit_on(&db, "arrives");
    let batches = batches_after(&db.read().unwrap(), base);
    for (i, (images, (lsn, num_pages, catalog))) in batches.into_iter().enumerate() {
        for (page, image) in images {
            proto::write_frame(&mut conn, &Frame::RecImage { lsn, page, image }).unwrap();
        }
        if i == 1 {
            let commit = Frame::RecCommit { lsn, checkpoint: false, num_pages, catalog };
            proto::write_frame(&mut conn, &commit).unwrap();
        }
    }

    let (mut conn2, hello_lsn) = accept_hello(&listener);
    assert_eq!(hello_lsn, 0, "after a refused delta the replica asks for a snapshot");
    assert_eq!(
        replica.db().read().unwrap().digest(),
        booted,
        "nothing of the refused batch was installed"
    );
    assert_eq!(send_snapshot(&mut conn2, &db), lsn);
    assert!(replica.wait_applied(lsn, Duration::from_secs(10)), "no re-bootstrap");
    let primary_fp = db.read().unwrap().digest();
    assert_eq!(replica.db().read().unwrap().digest(), primary_fp);
    let rep = {
        let rdb = replica.db();
        let r = rdb.read().unwrap_or_else(PoisonError::into_inner);
        r.check().unwrap()
    };
    assert!(rep.is_ok(), "replica violations after re-bootstrap: {rep}");
    replica.shutdown();
    drop((conn, conn2));
}
