//! Boundary-kill sweep: the primary "crashes" (fault-injected socket
//! teardown) after frame 1, 2, 3, … of the replication conversation,
//! and after every single one of those kills the replica must hold a
//! committed prefix of the primary's history — never a torn batch —
//! with zero deep-checker violations. Same discipline as the
//! txn_crash write-boundary loop, one protocol frame at a time.

mod common;

use common::{commit_edit, primary_store, POOL};
use mct_repl::{start_primary, start_replica, PrimaryCfg, ReplicaCfg};
use mct_storage::MemDisk;
use std::net::TcpListener;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

type SharedDb = Arc<RwLock<mct_core::StoredDb<MemDisk>>>;

/// Number of edits committed while the replica is (maybe) streaming.
const EDITS: u64 = 3;
/// Frame-budget sweep cap — far above what full catch-up needs; the
/// sweep stops at the first budget that allowed full catch-up.
const MAX_FRAMES: u64 = 400;

#[test]
fn kill_at_every_frame_boundary_leaves_a_committed_prefix() {
    let mut caught_up_at = None;
    for budget in 1..=MAX_FRAMES {
        let db: SharedDb = Arc::new(RwLock::new(primary_store()));
        // Committed-prefix fingerprints the replica may legally hold.
        let mut prefixes = vec![db.read().unwrap().digest()];

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let primary = start_primary(
            listener,
            Arc::clone(&db),
            PrimaryCfg {
                advertise_http: "127.0.0.1:9999".to_string(),
                poll_interval: Duration::from_millis(2),
                fail_after_frames: Some(budget),
                ..PrimaryCfg::default()
            },
        )
        .unwrap();

        let replica = match start_replica(ReplicaCfg {
            primary: addr,
            replica_id: "crash-test".to_string(),
            pool_bytes: POOL,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            connect_attempts: 2,
        }) {
            Ok(r) => r,
            Err(_) => {
                // The kill landed inside the bootstrap snapshot: the
                // replica never came up, which is itself a committed
                // prefix (the empty one). Nothing further to check.
                primary.shutdown();
                continue;
            }
        };

        let mut final_lsn = 0;
        for i in 0..EDITS {
            let mut w = db.write().unwrap_or_else(PoisonError::into_inner);
            final_lsn = commit_edit(&mut w, &format!("crash edit {i}"));
            drop(w);
            prefixes.push(db.read().unwrap().digest());
        }

        // Run until the injected crash fires or the replica fully
        // catches up — whichever happens first.
        let end = Instant::now() + Duration::from_secs(10);
        loop {
            if replica.applied_lsn() >= final_lsn || primary.crash_injected() {
                break;
            }
            assert!(Instant::now() < end, "budget {budget}: no crash, no catch-up");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Grace for frames already on the wire, then require stability.
        let mut applied = replica.applied_lsn();
        loop {
            std::thread::sleep(Duration::from_millis(100));
            let now = replica.applied_lsn();
            if now == applied {
                break;
            }
            applied = now;
            assert!(Instant::now() < end, "budget {budget}: applied LSN never settled");
        }

        let replica_db = replica.db();
        let replica_fp = replica_db.read().unwrap().digest();
        assert!(
            prefixes.contains(&replica_fp),
            "budget {budget}: replica state is not a committed prefix (applied={applied})"
        );
        let rep = {
            let r = replica_db.read().unwrap_or_else(PoisonError::into_inner);
            r.check().unwrap()
        };
        assert!(rep.is_ok(), "budget {budget}: replica violations: {rep}");

        let done = applied >= final_lsn;
        replica.shutdown();
        primary.shutdown();
        if done {
            caught_up_at = Some(budget);
            break;
        }
    }
    assert!(
        caught_up_at.is_some(),
        "no frame budget up to {MAX_FRAMES} allowed full catch-up — \
         the sweep never covered the whole conversation"
    );
}
