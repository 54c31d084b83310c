//! Fault-schedule mode: crash points and txn aborts mid-case.
//!
//! A second store runs on [`FaultDisk`]s (data + WAL) sharing one
//! [`FaultInjector`]. Per update the schedule picks, deterministically
//! from the case seed: a clean apply, an injected txn abort (mutate,
//! then return `Err` from `with_txn` — must roll back byte-exactly),
//! or an armed `fail_at_write` crash point. After an injected storage
//! failure the store must sit at exactly the pre- or post-image of the
//! op (commit-point atomicity), pass `mctck`, and — when rolled back —
//! accept a clean re-execution that lands on the oracle's committed
//! state. At the end of the case the store is dropped without a
//! checkpoint and recovered from its own (faulted) disks: recovery —
//! the last rooted catalog record in the log plus the chain after
//! it — must land on the last committed state and pass `mctck`.

use mct_core::{McNodeId, MctDatabase, StoredDb};
use mct_query::ast::UpdateStmt;
use mct_query::{execute_update_with, EvalError};
use mct_storage::{BufferPool, FaultDisk, FaultInjector, MemDisk, StorageError, Wal};
use mct_workloads::rng::XorShiftRng;

use crate::diff::{canon_items, CaseOp, Divergence, POOL_BYTES};

fn div(op: Option<usize>, detail: String) -> Divergence {
    Divergence {
        surface: "fault".to_string(),
        op,
        detail,
    }
}

type Faulted = StoredDb<FaultDisk<MemDisk>>;

fn build_faulted(base: &MctDatabase, injector: &FaultInjector) -> Result<Faulted, Divergence> {
    let setup = |e: String| div(None, format!("setup: {e}"));
    let data = FaultDisk::new(MemDisk::new(), injector.clone());
    let wal_disk = FaultDisk::new(MemDisk::new(), injector.clone());
    let mut pool = BufferPool::new(data, POOL_BYTES);
    pool.attach_wal(Wal::create(Box::new(wal_disk)).map_err(|e| setup(e.to_string()))?);
    let mut s = StoredDb::build_on(pool, base.clone()).map_err(|e| setup(e.to_string()))?;
    s.sync().map_err(|e| setup(e.to_string()))?;
    Ok(s)
}

fn check_clean(s: &Faulted, at: Option<usize>, when: &str) -> Result<(), Divergence> {
    match s.check() {
        Ok(rep) if rep.is_ok() => Ok(()),
        Ok(rep) => Err(div(
            at,
            format!(
                "mctck found {} violation(s) {when}: {:?}",
                rep.total_violations,
                rep.violations.first()
            ),
        )),
        Err(e) => Err(div(at, format!("mctck failed {when}: {e}"))),
    }
}

/// Run the case with the oracle beside a fault-injected store.
/// Queries cross-check results; updates run under the fault schedule.
pub fn run_fault_case(
    base: &MctDatabase,
    ops: &[CaseOp],
    seed: u64,
) -> Result<(), Divergence> {
    let mut oracle = StoredDb::build(base.clone(), POOL_BYTES)
        .map_err(|e| div(None, format!("setup: {e}")))?;
    let injector = FaultInjector::new(seed);
    injector.disarm();
    let mut faulted = build_faulted(base, &injector)?;
    let mut rng = XorShiftRng::seed_from_u64(seed ^ 0xFA17_5EED);

    for (i, op) in ops.iter().enumerate() {
        let at = Some(i);
        match op {
            CaseOp::Query(e) => {
                let a = {
                    let mut ctx = mct_query::EvalContext::new(&mut oracle);
                    mct_query::eval(&mut ctx, e).map_err(|err| err.to_string())
                };
                let b = {
                    let mut ctx = mct_query::EvalContext::new(&mut faulted);
                    mct_query::eval(&mut ctx, e).map_err(|err| err.to_string())
                };
                // Built elements compare by identity, so results from
                // two evaluations compare by their canonical text.
                let same = match (&a, &b) {
                    (Ok(x), Ok(y)) => canon_items(x) == canon_items(y),
                    (Err(x), Err(y)) => x == y,
                    _ => false,
                };
                if !same {
                    return Err(div(
                        at,
                        format!("query diverged on the faulted store for {:?}", e.to_string()),
                    ));
                }
            }
            CaseOp::Update(u) => {
                run_faulted_update(&mut oracle, &mut faulted, &injector, u, &mut rng, at)?;
            }
        }
    }

    injector.disarm();
    check_clean(&faulted, None, "at end of case")?;
    let committed = faulted.digest();
    if committed != oracle.digest() {
        return Err(div(
            None,
            "final faulted-store state differs from oracle".to_string(),
        ));
    }
    recover_and_compare(faulted, &committed)
}

/// Drop the store and recover it from its own disks: the result must
/// be the last committed state, `committed`, and check clean.
fn recover_and_compare(faulted: Faulted, committed: &str) -> Result<(), Divergence> {
    let recovery = |e: String| div(None, format!("recovery: {e}"));
    let (data, wal) = faulted.pool.into_parts();
    let wal = wal.ok_or_else(|| recovery("the store lost its WAL".to_string()))?;
    let recovered = StoredDb::open_with(data, wal.into_disk(), POOL_BYTES)
        .map_err(|e| recovery(e.to_string()))?
        .ok_or_else(|| recovery("no durable commit".to_string()))?;
    check_clean(&recovered, None, "after recovery")?;
    if recovered.digest() != committed {
        return Err(div(
            None,
            "recovered store differs from the last committed state".to_string(),
        ));
    }
    Ok(())
}

fn run_faulted_update(
    oracle: &mut StoredDb,
    faulted: &mut Faulted,
    injector: &FaultInjector,
    u: &UpdateStmt,
    rng: &mut XorShiftRng,
    at: Option<usize>,
) -> Result<(), Divergence> {
    let pre = faulted.digest();
    let oracle_out = execute_update_with(oracle, u, None);
    let oracle_canon = match &oracle_out {
        Ok(o) => Ok((o.tuples, o.elements)),
        Err(e) => Err(e.to_string()),
    };
    let post = oracle.digest();

    // Apply `u` cleanly and require agreement with the oracle.
    let apply_clean = |faulted: &mut Faulted| -> Result<(), Divergence> {
        let out = execute_update_with(faulted, u, None);
        let canon = match &out {
            Ok(o) => Ok((o.tuples, o.elements)),
            Err(e) => Err(e.to_string()),
        };
        if canon != oracle_canon {
            return Err(div(
                at,
                format!("update outcome {canon:?} != oracle {oracle_canon:?}"),
            ));
        }
        if faulted.digest() != post {
            return Err(div(at, "state digest differs from oracle".to_string()));
        }
        Ok(())
    };

    match rng.gen_range(0..3u8) {
        // Clean apply.
        0 => apply_clean(faulted)?,
        // Injected txn abort first: mutate under with_txn, bail out.
        1 => {
            let victim = (0..faulted.db.len() as u32)
                .map(McNodeId)
                .find(|&n| faulted.db.node(n).content.is_some());
            if let Some(n) = victim {
                let r: Result<(), StorageError> = faulted.with_txn(|s| {
                    s.update_content(n, "fuzz-injected-abort")?;
                    Err(StorageError::Corrupt("injected txn abort"))
                });
                if r.is_ok() {
                    return Err(div(at, "injected txn abort was swallowed".to_string()));
                }
                if faulted.digest() != pre {
                    return Err(div(
                        at,
                        "aborted txn left a visible state change".to_string(),
                    ));
                }
                check_clean(faulted, at, "after injected txn abort")?;
            }
            apply_clean(faulted)?;
        }
        // Armed crash point: fail the k-th write from here.
        _ => {
            let k = rng.gen_range(0..16u64);
            injector.fail_at_write(injector.writes() + k);
            match execute_update_with(faulted, u, None) {
                Ok(out) => {
                    // The op finished before the armed write (or used
                    // fewer writes) — it must still match the oracle.
                    injector.disarm();
                    let canon: Result<(usize, usize), String> = Ok((out.tuples, out.elements));
                    if canon != oracle_canon || faulted.digest() != post {
                        return Err(div(
                            at,
                            format!("update outcome {canon:?} != oracle {oracle_canon:?} (fault unarmed path)"),
                        ));
                    }
                }
                Err(EvalError::Storage(_)) => {
                    injector.disarm();
                    let now = faulted.digest();
                    if now != pre && now != post {
                        return Err(div(
                            at,
                            "crash point left a partial state (neither pre- nor post-image)"
                                .to_string(),
                        ));
                    }
                    check_clean(faulted, at, "after injected crash point")?;
                    if now == pre {
                        // Rolled back: a clean retry must succeed and
                        // land on the oracle's committed state.
                        apply_clean(faulted)?;
                    } else if oracle_canon.is_err() {
                        return Err(div(
                            at,
                            "faulted store committed an update the oracle rejected".to_string(),
                        ));
                    }
                }
                Err(e) => {
                    // A plain eval error (not storage): the fault never
                    // fired mid-op. Must match the oracle's error, with
                    // no state change.
                    injector.disarm();
                    if oracle_canon.is_ok() {
                        return Err(div(
                            at,
                            format!("faulted store errored ({e}) where oracle succeeded"),
                        ));
                    }
                    if faulted.digest() != pre {
                        return Err(div(
                            at,
                            "failed update left a visible state change".to_string(),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}
