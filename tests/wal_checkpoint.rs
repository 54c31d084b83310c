//! WAL-growth regression test for checkpoint-and-truncate.
//!
//! A few hundred committed updates run against a durable store with a
//! small `checkpoint_bytes` threshold. Without checkpointing the WAL
//! grows linearly (every commit appends its page images plus a catalog
//! delta); with it the file must stay bounded by a small
//! multiple of one checkpoint cycle. A restart afterwards must replay
//! only the post-checkpoint suffix — observed through the
//! `wal.replay.*` counters, which this test binary owns exclusively
//! (single `#[test]`, own process, so the process-global registry sees
//! no other WAL traffic).

use mct_core::StoredDb;
use mct_storage::PAGE_SIZE;
use mct_workloads::{
    all_queries, run_update, Dataset, Params, QueryKind, SchemaKind, SigmodConfig, SigmodData,
    TpcwConfig, TpcwData, WorkloadQuery,
};
use std::path::{Path, PathBuf};

const POOL: usize = 256 * PAGE_SIZE;
/// Checkpoint once the live WAL exceeds a quarter MiB. A checkpoint
/// record carries the full catalog (~140 KiB at this scale) and each
/// commit its page images plus a catalog delta (~10 KiB), so a
/// checkpoint fires every dozen or so commits — exercising both the
/// bounded growth and the replay-a-short-suffix paths.
const THRESHOLD: u64 = 256 * 1024;
/// Committed transactions to push through the store.
const UPDATES: usize = 300;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mct-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_size(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).unwrap().len()
}

fn tpcw_updates(p: &Params) -> Vec<WorkloadQuery> {
    all_queries(p)
        .into_iter()
        .filter(|wq| wq.kind == QueryKind::Update && wq.dataset == Dataset::Tpcw)
        .collect()
}

#[test]
fn sustained_updates_keep_the_wal_bounded_and_recovery_short() {
    let tpcw = TpcwData::generate(&TpcwConfig {
        scale: 0.01,
        seed: 42,
    });
    let sigmod = SigmodData::generate(&SigmodConfig {
        scale: 0.01,
        seed: 42,
    });
    let params = Params::derive(&tpcw, &sigmod);
    let updates = tpcw_updates(&params);
    assert!(!updates.is_empty());

    let dir = test_dir("wal-growth");
    let mut s = StoredDb::create(&dir, tpcw.build_mct(), POOL).expect("create");
    s.sync().expect("seed sync");
    let seeded = wal_size(&dir);

    // One explicit checkpoint calibrates the cost of a single cycle:
    // FRONT + one checkpoint record carrying the catalog snapshot.
    s.checkpoint().expect("initial checkpoint");
    let cycle = wal_size(&dir);
    assert!(
        cycle < seeded,
        "a checkpoint must truncate the seeded WAL ({seeded} -> {cycle})"
    );

    s.set_checkpoint_bytes(Some(THRESHOLD));
    let ckpts_before = mct_obs::counter("wal.checkpoints").get();
    let mut max_size = 0u64;
    for i in 0..UPDATES {
        let wq = &updates[i % updates.len()];
        run_update(&mut s, wq, SchemaKind::Mct)
            .unwrap_or_else(|e| panic!("update {i} ({}): {e}", wq.id));
        max_size = max_size.max(wal_size(&dir));
    }
    let ckpts = mct_obs::counter("wal.checkpoints").get() - ckpts_before;
    eprintln!(
        "wal-growth: seeded={seeded} cycle={cycle} max={max_size} \
         final={} checkpoints={ckpts}",
        wal_size(&dir)
    );

    // Many commits crossed the threshold, so checkpoints kept firing…
    assert!(
        ckpts >= 10,
        "expected sustained checkpointing, got {ckpts} over {UPDATES} updates"
    );
    // …and the file never grew past a few cycles: the live region is
    // trimmed back under THRESHOLD after every crossing, and the
    // transient peak (old prefix + in-flight checkpoint record) stays
    // within one extra cycle of the steady state. Unbounded growth
    // would blow through this by two orders of magnitude.
    assert!(
        max_size < 2 * THRESHOLD + 4 * cycle,
        "wal.log peaked at {max_size} (cycle={cycle}); the log is not bounded"
    );
    // The gauge agrees with the live region the next restart will scan.
    let live = mct_obs::gauge("wal.bytes").get();
    assert!(
        live <= max_size && live > 0,
        "wal.bytes gauge out of range: {live}"
    );

    // A couple of trailing commits small enough not to cross the
    // threshold again, so the restart has a genuine post-checkpoint
    // suffix to replay (not just the checkpoint record itself).
    s.set_checkpoint_bytes(None);
    for (i, wq) in updates.iter().take(2).enumerate() {
        run_update(&mut s, wq, SchemaKind::Mct)
            .unwrap_or_else(|e| panic!("trailing update {i} ({}): {e}", wq.id));
    }

    let before_restart = s.digest();
    assert!(s.check().expect("checker").is_ok(), "pre-restart violations");
    drop(s);

    // Restart: recovery must replay only the post-checkpoint suffix.
    let images_before = mct_obs::counter("wal.replay.images_applied").get();
    let commits_before = mct_obs::counter("wal.replay.commits_seen").get();
    let s = StoredDb::open(&dir, POOL)
        .expect("reopen")
        .expect("store is durable");
    let images = mct_obs::counter("wal.replay.images_applied").get() - images_before;
    let commits = mct_obs::counter("wal.replay.commits_seen").get() - commits_before;
    eprintln!("wal-growth: replay images={images} commits={commits}");

    // The scan starts at the checkpoint record, so it sees that record
    // plus at most the handful of commits that landed after the last
    // threshold crossing — nowhere near the {UPDATES} commits (and all
    // their images) the full history holds.
    assert!(
        (3..20).contains(&commits),
        "replay saw {commits} commit/checkpoint records; expected the \
         checkpoint plus the two trailing commits, nowhere near {UPDATES}"
    );
    let per_commit_pages = (THRESHOLD / PAGE_SIZE as u64).max(1);
    assert!(
        images < 20 * per_commit_pages,
        "replay applied {images} page images; recovery is not short"
    );
    assert_eq!(s.digest(), before_restart, "recovery changed the data");
    assert!(s.check().expect("checker").is_ok(), "post-restart violations");
    let _ = std::fs::remove_dir_all(&dir);
}
