//! Update-atomicity crash loop: kill the engine at every write
//! boundary *during update execution*.
//!
//! For each of the six benchmark updates (TU1–TU4 on the TPC-W data,
//! SU1–SU2 on the SIGMOD-Record data) the test first measures how many
//! disk writes a clean run of that statement performs against a synced
//! durable store, then repeats the run with a simulated power loss
//! (torn write + dead disk) at each write boundary in turn. After
//! every crash the store is reopened through WAL recovery
//! (redo-committed + undo-losers) and must be EITHER exactly the
//! pre-update state (crash before the commit record was durable) or
//! exactly the post-update state (crash during the data flush after
//! it) — never anything in between — and the deep consistency checker
//! (`mctck`) must report zero violations. A second test injects a
//! clean I/O error (disk stays alive) and requires a typed error plus
//! a store that keeps answering from the pre-update state without any
//! recovery step.

use mct_core::{MctDatabase, StoredDb};
use mct_storage::{DiskManager, FaultDisk, FaultInjector, FileDisk, PAGE_SIZE};
use mct_workloads::{
    all_queries, run_update, Dataset, Params, QueryKind, SchemaKind, SigmodConfig, SigmodData,
    TpcwConfig, TpcwData, WorkloadQuery,
};
use std::path::{Path, PathBuf};

/// Enough frames that a small-scale store fits, small enough that the
/// commit path still writes real pages.
const POOL: usize = 256 * PAGE_SIZE;

fn datasets() -> (TpcwData, SigmodData) {
    let tpcw = TpcwData::generate(&TpcwConfig {
        scale: 0.01,
        seed: 42,
    });
    let sigmod = SigmodData::generate(&SigmodConfig {
        scale: 0.01,
        seed: 42,
    });
    (tpcw, sigmod)
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mct-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copy the durable store files from `base` into `work`.
fn clone_store(base: &Path, work: &Path) {
    std::fs::create_dir_all(work).unwrap();
    for f in ["pages.db", "wal.log"] {
        std::fs::copy(base.join(f), work.join(f)).unwrap();
    }
}

/// Open the store in `dir` on fault-wrapped disks sharing `injector`.
fn open_faulted(
    dir: &Path,
    injector: &FaultInjector,
) -> mct_storage::Result<Option<StoredDb<FaultDisk<FileDisk>>>> {
    let data = FaultDisk::new(FileDisk::open(&dir.join("pages.db"))?, injector.clone());
    let wal_disk = Box::new(FaultDisk::new(
        FileDisk::open(&dir.join("wal.log"))?,
        injector.clone(),
    ));
    StoredDb::open_with(data, wal_disk, POOL)
}

/// Open the store in `dir` on plain disks (WAL recovery runs here).
fn recover(dir: &Path) -> mct_storage::Result<Option<StoredDb<FileDisk>>> {
    let data = FileDisk::open(&dir.join("pages.db"))?;
    let wal_disk = Box::new(FileDisk::open(&dir.join("wal.log"))?);
    StoredDb::open_with(data, wal_disk, POOL)
}

/// Assert the deep checker passes, with context for failures.
fn assert_clean<D: DiskManager>(s: &StoredDb<D>, ctx: &str) {
    let rep = s.check().unwrap_or_else(|e| panic!("{ctx}: check aborted: {e}"));
    assert!(rep.is_ok(), "{ctx}: consistency violations:\n{rep}");
}

/// The six benchmark updates, against the matching dataset.
fn update_workloads(p: &Params) -> Vec<WorkloadQuery> {
    let updates: Vec<WorkloadQuery> = all_queries(p)
        .into_iter()
        .filter(|wq| wq.kind == QueryKind::Update)
        .collect();
    assert_eq!(
        updates.len(),
        6,
        "expected TU1-TU4 + SU1-SU2, got {:?}",
        updates.iter().map(|w| w.id).collect::<Vec<_>>()
    );
    updates
}

/// Crash-at-every-write-boundary loop for one update statement.
///
/// `base` holds a synced pristine store; the workload runs on copies.
fn crash_loop_one(wq: &WorkloadQuery, base: &Path, work: &Path, pre_digest: &str) -> bool {
    // Clean run: count the write boundaries and take the committed
    // post-update fingerprint.
    clone_store(base, work);
    let injector = FaultInjector::new(0xABCD);
    let mut s = open_faulted(work, &injector)
        .expect("clean open")
        .expect("base store is durable");
    let writes_before = injector.writes();
    run_update(&mut s, wq, SchemaKind::Mct).expect("clean update run");
    let total = injector.writes() - writes_before;
    assert!(total > 0, "{}: an update must cross write boundaries", wq.id);
    let post_digest = s.digest();
    // At this scale some statements match zero tuples; their commit
    // framing (begin/commit records, sync) still crosses write
    // boundaries and is still crash-tested below.
    let changes = post_digest != pre_digest;
    assert_clean(&s, &format!("{} clean run", wq.id));
    drop(s);
    // The committed update survives a plain reopen.
    let reopened = recover(work).unwrap().expect("committed update is durable");
    assert_eq!(reopened.digest(), post_digest, "{}: durability", wq.id);
    drop(reopened);

    let (mut rolled_back, mut replayed) = (0u64, 0u64);
    for k in 0..total {
        clone_store(base, work);
        let injector = FaultInjector::new(0xABCD ^ k);
        let mut s = open_faulted(work, &injector)
            .expect("iteration open")
            .expect("base store is durable");
        injector.crash_at_write(injector.writes() + k);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_update(&mut s, wq, SchemaKind::Mct)
        }));
        // run_update panics on executor errors; either way the crash
        // must have fired and the store is now on a dead disk.
        assert!(r.is_err() || injector.crashed(), "{} write {k}: no crash", wq.id);
        drop(s);

        let mut recovered = recover(work)
            .unwrap_or_else(|e| panic!("{} write {k}: recovery failed: {e}", wq.id))
            .unwrap_or_else(|| panic!("{} write {k}: base commit lost", wq.id));
        let now = recovered.digest();
        if now == pre_digest {
            rolled_back += 1;
        } else if now == post_digest {
            replayed += 1;
        } else {
            panic!(
                "{} write {k}: recovered to a state that is neither pre- nor post-update",
                wq.id
            );
        }
        assert_clean(&recovered, &format!("{} after crash at write {k}", wq.id));
        // The recovered store accepts the same statement again (from
        // whichever state it landed in).
        run_update(&mut recovered, wq, SchemaKind::Mct)
            .unwrap_or_else(|e| panic!("{} write {k}: post-recovery update failed: {e}", wq.id));
        assert_clean(&recovered, &format!("{} post-recovery update at write {k}", wq.id));
    }
    if changes {
        assert!(
            rolled_back > 0,
            "{}: some crash points must precede the commit record",
            wq.id
        );
        assert!(
            replayed > 0,
            "{}: some crash points must follow the commit record",
            wq.id
        );
    }
    changes
}

fn build_base(dir: &Path, db: MctDatabase) -> String {
    let mut s = StoredDb::create(dir, db, POOL).expect("create base store");
    s.sync().expect("sync base store");
    let d = s.digest();
    assert_clean(&s, "pristine base");
    d
}

#[test]
fn every_update_crash_point_recovers_atomically() {
    let (tpcw, sigmod) = datasets();
    let params = Params::derive(&tpcw, &sigmod);
    let tpcw_base = test_dir("txn-crash-tpcw-base");
    let sigmod_base = test_dir("txn-crash-sigmod-base");
    let work = test_dir("txn-crash-work");
    let tpcw_digest = build_base(&tpcw_base, tpcw.build_mct());
    let sigmod_digest = build_base(&sigmod_base, sigmod.build_mct());

    let mut effective = 0u32;
    for wq in update_workloads(&params) {
        let (base, pre) = match wq.dataset {
            Dataset::Tpcw => (&tpcw_base, &tpcw_digest),
            Dataset::Sigmod => (&sigmod_base, &sigmod_digest),
        };
        if crash_loop_one(&wq, base, &work, pre) {
            effective += 1;
        }
    }
    assert!(
        effective >= 3,
        "most benchmark updates must actually modify the store at this scale"
    );
    for d in [&tpcw_base, &sigmod_base, &work] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Crash-at-every-write-boundary loop *through a WAL checkpoint*.
///
/// With `--checkpoint-bytes 0` semantics (threshold zero) every commit
/// is followed by a full checkpoint: flush, data fsync, checkpoint
/// record, header-slot publish, relocation, physical truncation. This
/// test runs two effective updates back to back under that policy, so
/// the write boundaries include every step of two complete checkpoint
/// cycles, and kills the engine at each one in turn. Recovery must
/// land on exactly one of the committed states along the chain
/// (pre-update, after update 1, after update 2) — truncation must
/// never outrun the durability of the flushed pages — and the deep
/// checker must report zero violations every time.
#[test]
fn every_crash_point_through_a_checkpoint_recovers_atomically() {
    let (tpcw, sigmod) = datasets();
    let params = Params::derive(&tpcw, &sigmod);
    let base = test_dir("txn-ckpt-base");
    let work = test_dir("txn-ckpt-work");
    let pre_digest = build_base(&base, tpcw.build_mct());

    // Probe for TPC-W updates that actually modify data at this scale
    // (the atomicity test above guarantees at least one exists).
    let mut updates = Vec::new();
    for wq in update_workloads(&params)
        .into_iter()
        .filter(|w| w.dataset == Dataset::Tpcw)
    {
        clone_store(&base, &work);
        let mut s = recover(&work).unwrap().expect("probe open");
        run_update(&mut s, &wq, SchemaKind::Mct).expect("probe update");
        if s.digest() != pre_digest {
            updates.push(wq);
        }
    }
    assert!(
        !updates.is_empty(),
        "at least one TPC-W update must modify the store at this scale"
    );
    updates.truncate(2);
    let run_all = |s: &mut StoredDb<FaultDisk<FileDisk>>| -> Result<(), String> {
        for wq in &updates {
            run_update(s, wq, SchemaKind::Mct).map_err(|e| format!("{}: {e}", wq.id))?;
        }
        Ok(())
    };

    // Reference run without checkpoints, to prove the instrumented run
    // below actually crosses checkpoint-internal write boundaries.
    clone_store(&base, &work);
    let injector = FaultInjector::new(0x5EED);
    let mut s = open_faulted(&work, &injector).unwrap().expect("durable");
    let before = injector.writes();
    run_all(&mut s).expect("no-checkpoint reference run");
    let plain_total = injector.writes() - before;
    drop(s);

    // Clean run under the always-checkpoint policy: collect the chain
    // of committed digests and the write-boundary count.
    clone_store(&base, &work);
    let wal_size = |d: &Path| std::fs::metadata(d.join("wal.log")).unwrap().len();
    let wal_before = wal_size(&work);
    let injector = FaultInjector::new(0x5EED);
    let mut s = open_faulted(&work, &injector).unwrap().expect("durable");
    s.set_checkpoint_bytes(Some(0));
    let before = injector.writes();
    let mut chain = vec![pre_digest.clone()];
    for wq in &updates {
        run_update(&mut s, wq, SchemaKind::Mct).expect("clean checkpointed update");
        chain.push(s.digest());
    }
    let total = injector.writes() - before;
    assert_clean(&s, "clean checkpointed run");
    drop(s);
    assert!(
        total > plain_total,
        "checkpoints must add write boundaries ({total} vs {plain_total} without)"
    );
    // Both checkpoints truncated the log: the file holds only the last
    // checkpoint + nothing, far below the seeded base WAL.
    assert!(
        wal_size(&work) < wal_before,
        "checkpoint must shrink wal.log ({wal_before} -> {})",
        wal_size(&work)
    );
    let reopened = recover(&work).unwrap().expect("durable");
    assert_eq!(reopened.digest(), *chain.last().unwrap(), "durability");
    drop(reopened);

    let (mut at_pre, mut at_post) = (0u64, 0u64);
    for k in 0..total {
        clone_store(&base, &work);
        let injector = FaultInjector::new(0x5EED ^ k);
        let mut s = open_faulted(&work, &injector).unwrap().expect("durable");
        s.set_checkpoint_bytes(Some(0));
        injector.crash_at_write(injector.writes() + k);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_all(&mut s)));
        // Checkpoint failures are swallowed (the commit is already
        // durable), so a late crash can leave run_all returning Ok —
        // but the injector must have fired.
        assert!(injector.crashed(), "write {k}: no crash (r={r:?})");
        drop(s);

        let mut recovered = recover(&work)
            .unwrap_or_else(|e| panic!("write {k}: recovery failed: {e}"))
            .unwrap_or_else(|| panic!("write {k}: base commit lost"));
        let now = recovered.digest();
        assert!(
            chain.contains(&now),
            "write {k}: recovered to a state off the committed chain"
        );
        if now == chain[0] {
            at_pre += 1;
        }
        if now == *chain.last().unwrap() {
            at_post += 1;
        }
        assert_clean(&recovered, &format!("after crash at write {k}"));
        // The recovered store still takes updates from wherever it
        // landed.
        run_update(&mut recovered, &updates[0], SchemaKind::Mct)
            .unwrap_or_else(|e| panic!("write {k}: post-recovery update failed: {e}"));
        assert_clean(&recovered, &format!("post-recovery update at write {k}"));
    }
    assert!(at_pre > 0, "some crash points must precede the first commit");
    assert!(
        at_post > 0,
        "some crash points must follow the last commit (checkpoint tail)"
    );
    for d in [&base, &work] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A clean injected I/O error (the disk stays alive, one write fails)
/// must surface as a typed error and leave the live store — no
/// recovery step, no reopen — answering from the pre-update state.
#[test]
fn clean_io_error_rolls_back_without_recovery() {
    let (tpcw, sigmod) = datasets();
    let params = Params::derive(&tpcw, &sigmod);
    let base = test_dir("txn-ioerr-base");
    let work = test_dir("txn-ioerr-work");
    let pre_digest = build_base(&base, tpcw.build_mct());
    let wq = update_workloads(&params)
        .into_iter()
        .find(|w| w.dataset == Dataset::Tpcw)
        .unwrap();

    clone_store(&base, &work);
    let injector = FaultInjector::new(5);
    let mut s = open_faulted(&work, &injector)
        .expect("open")
        .expect("durable");
    // A few writes into the transaction: past TXN_BEGIN, before the
    // commit point.
    injector.fail_at_write(injector.writes() + 3);
    let stmt = mct_query::parse_update(&wq.mct_text).unwrap();
    let err = mct_query::execute_update_with(&mut s, &stmt, None)
        .expect_err("the injected write error must fail the update");
    assert!(
        matches!(err, mct_query::EvalError::Storage(_)),
        "typed storage error expected, got: {err}"
    );
    // Same live handle, no recovery: exact pre-update state, checker
    // clean, and the statement succeeds on retry.
    assert_eq!(s.digest(), pre_digest, "rollback must be byte-exact");
    assert_clean(&s, "after clean I/O error rollback");
    run_update(&mut s, &wq, SchemaKind::Mct).expect("retry after rollback");
    assert_ne!(s.digest(), pre_digest);
    assert_clean(&s, "after retry");
    for d in [&base, &work] {
        let _ = std::fs::remove_dir_all(d);
    }
}
