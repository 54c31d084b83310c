//! End-to-end replication over real sockets, in-process: snapshot
//! bootstrap, streaming catch-up, resume after reconnect, and the
//! snapshot re-bootstrap forced when checkpoint truncation outruns a
//! disconnected replica.
//!
//! Primary and replica share the process-global metric registry here,
//! so counter assertions work on before/after deltas, never absolute
//! values — and every test takes [`registry_lock`], because a sibling
//! test's bootstrap running in parallel bumps the same counters. (The
//! cure is a metrics registry per instance; the lock is the stop-gap.)

mod common;

use common::{commit_edit, fingerprint, primary_store, POOL};
use mct_repl::{start_primary, start_replica, PrimaryCfg, ReplicaCfg, ReplicaHandle};
use mct_storage::MemDisk;
use std::net::TcpListener;
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

fn replica_fingerprint(r: &ReplicaHandle) -> Vec<String> {
    let db = r.db();
    let w = db.read().unwrap_or_else(PoisonError::into_inner);
    fingerprint(&w)
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
    let primary_fp = {
        let w = db.read().unwrap_or_else(PoisonError::into_inner);
        fingerprint(&w)
    };
    assert_eq!(replica_fingerprint(&replica), primary_fp);

    // Stream three committed edits; the replica converges to each.
    for i in 0..3 {
        let lsn = commit_on(&db, &format!("Edit {i}"));
        assert!(
            replica.wait_applied(lsn, Duration::from_secs(10)),
            "replica stuck below LSN {lsn}"
        );
    }
    let primary_fp = {
        let w = db.read().unwrap_or_else(PoisonError::into_inner);
        fingerprint(&w)
    };
    assert_eq!(replica_fingerprint(&replica), primary_fp);

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
    let primary_fp = {
        let w = db.read().unwrap_or_else(PoisonError::into_inner);
        fingerprint(&w)
    };
    assert_eq!(replica_fingerprint(&replica), primary_fp);
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
    let primary_fp = {
        let w = db.read().unwrap_or_else(PoisonError::into_inner);
        fingerprint(&w)
    };
    assert_eq!(replica_fingerprint(&replica), primary_fp);
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

    let primary_fp = {
        let w = db.read().unwrap_or_else(PoisonError::into_inner);
        fingerprint(&w)
    };
    assert_eq!(replica_fingerprint(&r1), primary_fp);
    assert_eq!(replica_fingerprint(&r2), primary_fp);
    assert_eq!(primary.replicas().len(), 2);

    r1.shutdown();
    r2.shutdown();
    primary.shutdown();
}
