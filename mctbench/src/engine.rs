//! One op, executed the way `mctd` executes it, with a span around
//! each call into a layer.
//!
//! Reads dispatch exactly as `mct_server::server::handle_query` does:
//! `parse_query`, then `plan_path` + `execute_shared_analyze` when the
//! planner accepts the expression, else `eval` followed by
//! `ensure_all_annotated`. Updates are `parse_update` +
//! `execute_update_with`.

use crate::trace::{SpanId, Tracer};
use mct_core::StoredDb;
use mct_query::{
    eval, execute_update_with, parse_query, parse_update, plan_path, CancelToken, EvalContext,
    Expr, PlanError,
};
use mct_server::server::handle_request;
use mct_server::{render_xml, rows_from_items, rows_from_tuples, AppState, Client, Request};
use mct_storage::DiskManager;
use std::sync::PoisonError;
use std::time::Instant;

/// Run one read statement in-process; returns the row count.
pub fn read_op<D: DiskManager>(
    db: &mut StoredDb<D>,
    text: &str,
    tr: &mut Tracer,
    op: u64,
) -> Result<usize, String> {
    let root = tr.root("op", op);
    let out = read_stages(db, text, tr, root, op);
    tr.end(root);
    out
}

fn read_stages<D: DiskManager>(
    db: &mut StoredDb<D>,
    text: &str,
    tr: &mut Tracer,
    root: SpanId,
    op: u64,
) -> Result<usize, String> {
    let s = tr.begin("query.parse", root, op);
    let expr = parse_query(text);
    tr.end(s);
    let expr = expr.map_err(|e| format!("parse: {e}"))?;
    let mut plan = None;
    if let Expr::Path(path) = &expr {
        let s = tr.begin("query.plan", root, op);
        let planned = plan_path(db, path, true);
        tr.end(s);
        match planned {
            Ok(p) => plan = Some(p),
            Err(PlanError::Unsupported(_)) => {}
            Err(e) => return Err(format!("plan: {e}")),
        }
    }
    if let Some(plan) = plan {
        let s = tr.begin("query.exec", root, op);
        let ran = plan.execute_shared_analyze(db, 1, None);
        tr.end(s);
        let (tuples, report) = ran.map_err(|e| format!("exec: {e}"))?;
        // Per-operator times come from the engine's own report; lay
        // them end to end under the exec span.
        let mut at = tr.start_of(s);
        for stage in &report.stages {
            let dur = stage.elapsed.as_nanos() as u64;
            tr.record(operator_name(&stage.label), s, op, at, dur);
            at += dur;
        }
        Ok(tuples.len())
    } else {
        let s = tr.begin("query.interp", root, op);
        let ran = {
            let mut ctx = EvalContext::new(db);
            eval(&mut ctx, &expr)
        };
        let annotated = db.ensure_all_annotated();
        tr.end(s);
        annotated.map_err(|e| format!("annotate: {e}"))?;
        ran.map(|items| items.len())
            .map_err(|e| format!("eval: {e}"))
    }
}

/// Span name for one plan stage, from the label `EXPLAIN` prints.
fn operator_name(label: &str) -> &'static str {
    let l = label.to_ascii_lowercase();
    if l.contains("cross") {
        "query.op.crosstree"
    } else if l.contains("chain") || l.contains("holistic") || l.contains("pathstack") {
        "query.op.chain"
    } else if l.contains("content") || l.contains("entry") {
        "query.op.content_entry"
    } else if l.contains("parent") {
        "query.op.parent"
    } else if l.contains("dup") {
        "query.op.dup_elim"
    } else {
        "query.op.other"
    }
}

/// Run one update statement in-process; returns the elements touched.
pub fn update_op<D: DiskManager>(
    db: &mut StoredDb<D>,
    text: &str,
    tr: &mut Tracer,
    op: u64,
) -> Result<usize, String> {
    let root = tr.root("op", op);
    let s = tr.begin("query.parse_update", root, op);
    let stmt = parse_update(text);
    tr.end(s);
    let out = stmt.map_err(|e| format!("parse: {e}")).and_then(|stmt| {
        // begin_txn + both evaluation phases + commit_txn: the update
        // executor owns the transaction, so from outside it is one call.
        let s = tr.begin("query.execute_update", root, op);
        let ran = execute_update_with(db, &stmt, None);
        tr.end(s);
        ran.map(|o| o.elements).map_err(|e| format!("update: {e}"))
    });
    tr.end(root);
    out
}

/// `count="N"` of a `/query` XML body.
pub fn body_count(body: &str) -> Option<usize> {
    let rest = body.split_once("<results count=\"")?.1;
    rest.split_once('"')?.0.parse().ok()
}

/// `"elements":N` of an `/update` JSON body.
pub fn body_elements(body: &str) -> Option<usize> {
    let rest = body.split_once("\"elements\":")?.1;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// What a traced served read adds up besides its own latency.
#[derive(Default)]
pub struct ServedParts {
    /// Per op: HTTP round trip − direct `handle_request`.
    pub socket_http_ns: Vec<i64>,
    /// Per op: direct `handle_request`.
    pub handle_samples_ns: Vec<u64>,
    /// Per op: `rows_from_*` + `render_xml` + dropping the result.
    pub render_samples_ns: Vec<u64>,
}

/// One read over HTTP. Returns the row count the body carries. Given
/// `parts`, the request is then taken apart, so the round trip splits
/// into socket + HTTP, handler, and the handler's parts.
pub fn served_read_op<D: DiskManager>(
    client: &Client,
    state: &AppState<D>,
    text: &str,
    tr: &mut Tracer,
    op: u64,
    parts: Option<&mut ServedParts>,
) -> Result<usize, String> {
    let root = tr.root("op", op);
    let reply = client.query(text);
    let roundtrip_ns = tr.end(root);
    let reply = reply.map_err(|e| format!("transport: {e}"))?;
    if !reply.is_ok() {
        return Err(format!(
            "HTTP {}: {}",
            reply.status,
            reply.body_str().trim()
        ));
    }
    let rows = body_count(&reply.body_str()).ok_or("body carries no row count")?;
    if let Some(parts) = parts {
        take_apart(state, text, tr, op, roundtrip_ns, parts)?;
    }
    Ok(rows)
}

/// Run the request `text` again without the socket — the whole handler,
/// and its stages one by one — and record a `server.handle` span with
/// the stages as its children.
fn take_apart<D: DiskManager>(
    state: &AppState<D>,
    text: &str,
    tr: &mut Tracer,
    op: u64,
    roundtrip_ns: u64,
    parts: &mut ServedParts,
) -> Result<(), String> {
    let req = Request {
        method: "POST".to_string(),
        path: "/query".to_string(),
        query: None,
        headers: Vec::new(),
        body: text.as_bytes().to_vec(),
    };
    let whole = |state: &AppState<D>| -> Result<u64, String> {
        let t = Instant::now();
        let resp = handle_request(state, &req);
        let ns = t.elapsed().as_nanos() as u64;
        if resp.status != 200 {
            return Err(format!("direct handle_request: {}", resp.status));
        }
        Ok(ns)
    };
    // The server ran the request on another thread; the first call on
    // this one pays for caches that thread warmed, so it is not timed.
    // Whole and stages then take turns going first, so neither always
    // runs on what the other left warm.
    whole(state)?;
    let at = tr.now();
    let (handle_ns, mut stages) = if parts.handle_samples_ns.len().is_multiple_of(2) {
        let handle_ns = whole(state)?;
        (handle_ns, staged_handle(state, text)?)
    } else {
        let stages = staged_handle(state, text)?;
        (whole(state)?, stages)
    };
    // What the handler does for any request — id, log record, routing,
    // timers, response headers — is what it takes to refuse an empty one.
    let empty = Request {
        body: Vec::new(),
        ..req
    };
    let t = Instant::now();
    std::hint::black_box(handle_request(state, &empty));
    stages.push(("server.envelope", t.elapsed().as_nanos() as u64));

    let h = tr.record("server.handle", SpanId::NONE, op, at, handle_ns);
    let mut child_at = at;
    for &(name, ns) in &stages {
        tr.record(name, h, op, child_at, ns);
        child_at += ns;
    }
    let render_ns = stages
        .iter()
        .find(|s| s.0 == "server.render")
        .map_or(0, |s| s.1);
    parts
        .socket_http_ns
        .push(roundtrip_ns as i64 - handle_ns as i64);
    parts.handle_samples_ns.push(handle_ns);
    parts.render_samples_ns.push(render_ns);
    Ok(())
}

/// The handler's stages, each called directly: `(span name, ns)` in
/// the order the handler runs them.
fn staged_handle<D: DiskManager>(
    state: &AppState<D>,
    text: &str,
) -> Result<Vec<(&'static str, u64)>, String> {
    let mut stages = Vec::with_capacity(6);
    let mut stage =
        |name: &'static str, t: Instant| stages.push((name, t.elapsed().as_nanos() as u64));
    let t = Instant::now();
    let db = state.db.read().unwrap_or_else(PoisonError::into_inner);
    stage("server.lock_wait", t);
    let t = Instant::now();
    let cached = state.cache.lookup(text, db.generation());
    stage("server.cache_lookup", t);
    let fresh; // parsed and planned here on a stale or evicted entry, as the handler does
    let (expr, plan) = match &cached {
        Some(p) => (&p.expr, p.plan.as_ref()),
        None => {
            let t = Instant::now();
            let expr = parse_query(text).map_err(|e| format!("parse: {e}"))?;
            stage("query.parse", t);
            let t = Instant::now();
            let plan = match &expr {
                Expr::Path(p) => plan_path(&db, p, true).ok(),
                _ => None,
            };
            stage("query.plan", t);
            fresh = (expr, plan);
            (&fresh.0, fresh.1.as_ref())
        }
    };
    if let Some(plan) = plan {
        let t = Instant::now();
        // The handler runs every plan under its deadline token and
        // keeps the rendered analyze tree for its slow log.
        let cancel = state.cfg.deadline.map(CancelToken::after);
        let (tuples, report) = plan
            .execute_shared_analyze(&db, state.cfg.exec_threads, cancel.as_ref())
            .map_err(|e| format!("exec: {e}"))?;
        std::hint::black_box(report.render());
        stage("query.exec", t);
        let t = Instant::now();
        std::hint::black_box(render_xml(&rows_from_tuples(&db, &tuples)));
        drop(tuples);
        stage("server.render", t);
    } else {
        drop(db);
        let t = Instant::now();
        let mut db = state.db.write().unwrap_or_else(PoisonError::into_inner);
        stage("server.lock_wait", t);
        let t = Instant::now();
        let items = {
            let mut ctx = EvalContext::new(&mut db);
            eval(&mut ctx, expr).map_err(|e| format!("eval: {e}"))?
        };
        db.ensure_all_annotated()
            .map_err(|e| format!("annotate: {e}"))?;
        stage("query.interp", t);
        let t = Instant::now();
        std::hint::black_box(render_xml(&rows_from_items(&db, &items)));
        drop(items);
        stage("server.render", t);
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_read_by_their_counts() {
        assert_eq!(body_count("<results count=\"12\">\n</results>\n"), Some(12));
        assert_eq!(body_count("nope"), None);
        assert_eq!(
            body_elements("{\"tuples\":1,\"elements\":60,\"generation\":4}\n"),
            Some(60)
        );
        assert_eq!(body_elements("{}"), None);
    }
}
