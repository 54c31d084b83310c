//! Layer probes of the traced run: each times one layer's public entry
//! points directly, on the store (and server) of the workload that is
//! running, so every workload reports every layer.

use crate::engine::{served_read_op, ServedParts};
use crate::mix::{Inputs, ReadClass};
use crate::recorder::median;
use crate::trace::Tracer;
use mct_core::{cross_tree_join, cross_tree_join_direct, StoredDb};
use mct_query::{eval, parse_query, plan_path, EvalContext, Expr, Item};
use mct_serialize::{emit_exchange, infer_schema, opt_serialize, reconstruct};
use mct_server::{AppState, Client};
use mct_storage::{DiskManager, FileDisk, PageId, Wal, PAGE_SIZE};
use mct_workloads::{run_read, SchemaKind};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Named probe results: `(name, value, unit)`.
pub type Probes = Vec<(String, f64, &'static str)>;

/// Statements parsed or planned per timed sample: one parse takes
/// about 2 µs, too close to the timer for a sample of its own.
const BATCH: u32 = 32;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn push(out: &mut Probes, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_string(), value, unit));
}

/// `query` layer: parse, plan, shared execution, interpreter and hand
/// plan over the read mix; also a median per statement id.
pub fn query_probes<D: DiskManager>(
    db: &mut StoredDb<D>,
    inputs: &Inputs,
    out: &mut Probes,
) -> Result<(), String> {
    let (mut parse_us, mut plan_us, mut exec_ms, mut interp_ms, mut hand_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut planned = 0usize;
    for (v, round) in inputs.rounds.iter().enumerate().take(2) {
        for op in round {
            let t = Instant::now();
            for _ in 0..BATCH {
                black_box(parse_query(black_box(&op.text)).map_err(|e| e.to_string())?);
            }
            parse_us.push(secs(t) * 1e6 / f64::from(BATCH));
            let expr = parse_query(&op.text).map_err(|e| e.to_string())?;
            let mut plan = None;
            if let Expr::Path(p) = &expr {
                let t = Instant::now();
                for _ in 0..BATCH {
                    plan = black_box(plan_path(db, black_box(p), true)).ok();
                }
                if plan.is_some() {
                    plan_us.push(secs(t) * 1e6 / f64::from(BATCH));
                }
            }
            let mut runs = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                match &plan {
                    Some(plan) => {
                        black_box(
                            plan.execute_shared_analyze(db, 1, None)
                                .map_err(|e| e.to_string())?,
                        );
                    }
                    None => {
                        let mut ctx = EvalContext::new(db);
                        black_box(eval(&mut ctx, &expr).map_err(|e| e.to_string())?);
                        db.ensure_all_annotated().map_err(|e| e.to_string())?;
                    }
                }
                runs.push(secs(t) * 1e3);
            }
            let ms = median(&runs);
            if plan.is_some() {
                exec_ms.push(ms);
                planned += usize::from(v == 0);
            } else {
                interp_ms.push(ms);
            }
            if v == 0 {
                push(out, &format!("query.{}_ms", op.id), ms, "ms");
            }
            if op.class == ReadClass::Flwor {
                let mut runs = Vec::new();
                for _ in 0..3 {
                    let t = Instant::now();
                    black_box(
                        run_read(db, &op.id, SchemaKind::Mct, &inputs.variants[v], true)
                            .map_err(|e| e.to_string())?,
                    );
                    runs.push(secs(t) * 1e3);
                }
                hand_ms.push(median(&runs));
            }
        }
    }
    push(out, "query.parse_us", median(&parse_us), "us");
    push(out, "query.plan_us", median(&plan_us), "us");
    push(out, "query.exec_ms", median(&exec_ms), "ms");
    push(out, "query.interp_ms", median(&interp_ms), "ms");
    push(out, "query.handplan_ms", median(&hand_ms), "ms");
    push(
        out,
        "query.planner_coverage",
        planned as f64 / inputs.rounds[0].len() as f64,
        "ratio",
    );
    Ok(())
}

/// `core` layer: a one-element transaction split into begin, body and
/// commit; the catalog snapshot every commit carries; and the
/// cross-tree join both ways.
pub fn core_probes<D: DiskManager>(db: &mut StoredDb<D>, out: &mut Probes) -> Result<(), String> {
    let err = |e: mct_storage::StorageError| e.to_string();
    let cost = {
        let mut ctx = EvalContext::new(db);
        let expr = parse_query(r#"document("tpcw")/{auth}descendant::item/{auth}child::cost"#)
            .map_err(|e| e.to_string())?;
        match eval(&mut ctx, &expr).map_err(|e| e.to_string())?.first() {
            Some(Item::Node(n, _)) => *n,
            _ => return Err("no item cost to probe".to_string()),
        }
    };
    // Writing back the value the element already has keeps the store
    // what the workload left.
    let value = db.fetch_content(cost).map_err(err)?.unwrap_or_default();
    // Without a WAL a commit only ends the transaction (about a
    // microsecond), so a sample is the mean of four. No checkpoint may
    // ride on a probed commit: its cost is `checkpoint_stall_share`.
    let policy = db.checkpoint_bytes();
    db.set_checkpoint_bytes(None);
    let (mut begin, mut commit) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (mut begin_s, mut commit_s) = (0.0, 0.0);
        for _ in 0..4 {
            let t = Instant::now();
            let txn = db.begin_txn().map_err(err)?;
            begin_s += secs(t);
            db.update_content(cost, &value).map_err(err)?;
            let t = Instant::now();
            db.commit_txn(txn).map_err(err)?;
            commit_s += secs(t);
        }
        begin.push(begin_s * 1e3 / 4.0);
        commit.push(commit_s * 1e3 / 4.0);
    }
    db.set_checkpoint_bytes(policy);
    db.ensure_all_annotated().map_err(err)?;
    push(out, "core.begin_txn_ms", median(&begin), "ms");
    push(out, "core.commit_txn_ms", median(&commit), "ms");
    push(
        out,
        "core.snapshot_bytes",
        db.snapshot_catalog().len() as f64,
        "bytes",
    );

    let cust = db.db.color("cust").ok_or("no cust color")?;
    let auth = db.db.color("auth").ok_or("no auth color")?;
    let lines = db.postings_named(cust, "orderline").map_err(err)?;
    let (mut probe, mut direct) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        black_box(cross_tree_join(db, &lines, auth).map_err(err)?);
        probe.push(secs(t) * 1e6);
        let t = Instant::now();
        black_box(cross_tree_join_direct(db, &lines, auth));
        direct.push(secs(t) * 1e6);
    }
    push(out, "core.crosstree_us", median(&probe), "us");
    push(out, "core.crosstree_direct_us", median(&direct), "us");
    Ok(())
}

/// `storage` layer: one page image + a commit record + `sync` on a
/// scratch log — the floor under every durable commit.
pub fn wal_probe(scratch: &Path, out: &mut Probes) -> Result<(), String> {
    let err = |e: mct_storage::StorageError| e.to_string();
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let path = scratch.join(format!("probe-wal-{}.log", std::process::id()));
    let mut wal = Wal::create(Box::new(FileDisk::open(&path).map_err(err)?)).map_err(err)?;
    let image = vec![0x5au8; PAGE_SIZE];
    let mut runs = Vec::new();
    for i in 0..20u32 {
        let t = Instant::now();
        wal.append_image(PageId(i), &image).map_err(err)?;
        wal.append_commit(i + 1, b"probe").map_err(err)?;
        wal.sync().map_err(err)?;
        runs.push(secs(t) * 1e3);
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    push(out, "storage.wal_commit_probe_ms", median(&runs), "ms");
    Ok(())
}

/// `serialize` and `xml` layers: the §5 exchange round trip once on the
/// store's logical database.
pub fn exchange_probes<D: DiskManager>(db: &StoredDb<D>, out: &mut Probes) -> Result<(), String> {
    let (schema, stats) = infer_schema(&db.db);
    let scheme = opt_serialize(&schema, &stats);
    let t = Instant::now();
    let doc = emit_exchange(&db.db, &scheme);
    let text = mct_xml::write_document(&doc, &mct_xml::WriteOptions::default());
    push(out, "serialize.emit_ms", secs(t) * 1e3, "ms");
    let t = Instant::now();
    let parsed = mct_xml::parse(&text).map_err(|e| e.to_string())?;
    push(
        out,
        "xml.parse_mb_s",
        text.len() as f64 / 1e6 / secs(t),
        "MB/s",
    );
    let t = Instant::now();
    let back = reconstruct(&parsed).map_err(|e| e.to_string())?;
    push(out, "serialize.reconstruct_ms", secs(t) * 1e3, "ms");
    if back.structural_count() != db.db.structural_count() {
        return Err("exchange round trip lost structural records".to_string());
    }
    Ok(())
}

/// `server` layer: one round of the mix over HTTP, each request also
/// run through `handle_request` directly and stage by stage.
pub fn server_probes<D: DiskManager>(
    state: &AppState<D>,
    port: u16,
    inputs: &Inputs,
    out: &mut Probes,
) -> Result<(), String> {
    let client = Client::new("127.0.0.1", port);
    let mut tr = Tracer::new(Instant::now(), true);
    let mut parts = ServedParts::default();
    for pass in 0..3 {
        if pass == 1 {
            // The first pass warmed the plan cache; measure the rest.
            parts = ServedParts::default();
        }
        for (i, op) in inputs.rounds[0].iter().enumerate() {
            served_read_op(
                &client,
                state,
                &op.text,
                &mut tr,
                i as u64,
                Some(&mut parts),
            )?;
        }
    }
    let ms = |ns: Vec<f64>| median(&ns) / 1e6;
    push(
        out,
        "server.handle_ms",
        ms(parts.handle_samples_ns.iter().map(|&v| v as f64).collect()),
        "ms",
    );
    push(
        out,
        "server.render_ms",
        ms(parts.render_samples_ns.iter().map(|&v| v as f64).collect()),
        "ms",
    );
    push(
        out,
        "server.socket_http_ms",
        ms(parts.socket_http_ns.iter().map(|&v| v as f64).collect()),
        "ms",
    );
    Ok(())
}
