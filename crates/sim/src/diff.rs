//! Differential execution of one fuzz case across the five surfaces.
//!
//! The **oracle** is the navigational interpreter ([`mct_query::eval`])
//! running on its own private store — the simplest, most literally
//! §3.2-shaped evaluator in the tree. Every other surface must agree
//! with it:
//!
//! 1. **planned** — `plan_path` + `PathPlan::execute_shared` at one
//!    thread on a second store (same logical content, independent
//!    pages/indexes), for the plannable path fragment of each query;
//!    plus the interpreter itself re-run on that second store (catches
//!    store-construction divergence even for non-plannable queries).
//! 2. **parallel** — `execute_shared` at `--threads N` vs `1`,
//!    required byte-identical (same tuples, same order).
//! 3. **served** — the mctd HTTP path (`POST /query` / `POST
//!    /update`), compared against the body the oracle's state renders.
//! 4. **replica** — a live WAL-shipped replica of the served store,
//!    which must serve the identical bytes and converge to the same
//!    digest after every update.
//!
//! After the op list runs, every store is `mctck`-checked and its
//! logical digest compared; any mismatch, unexpected status, check
//! violation, or panic is a [`Divergence`].

use std::fmt;
use std::net::TcpListener;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use mct_core::{MctDatabase, StoredDb};
use mct_query::ast::{Expr, UpdateStmt};
use mct_query::{
    eval, execute_update_with, plan_path, EvalContext, EvalError, Item, PlanError, Tuple,
};
use mct_repl::{start_primary, start_replica, PrimaryCfg, PrimaryHandle, ReplicaCfg, ReplicaHandle};
use mct_server::{
    render_xml, rows_from_items, rows_from_tuples, serve_shared, Client, ServerConfig,
    ServerHandle,
};
use mct_storage::{BufferPool, MemDisk, Wal};

/// Buffer-pool size for every fuzz store — documents are ≤ a few dozen
/// elements, so small pools keep case setup cheap.
pub const POOL_BYTES: usize = 8 << 20;

/// Which non-oracle surfaces a run compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SurfaceSet {
    /// Planner + second-store interpreter.
    pub planned: bool,
    /// Morsel-parallel executor (N threads vs 1).
    pub parallel: bool,
    /// The mctd HTTP path.
    pub served: bool,
    /// A live WAL-shipped replica (implies a served primary).
    pub replica: bool,
}

impl SurfaceSet {
    /// All five surfaces.
    pub fn all() -> SurfaceSet {
        SurfaceSet {
            planned: true,
            parallel: true,
            served: true,
            replica: true,
        }
    }

    /// In-process surfaces only (no sockets) — what the shrinker uses
    /// when the failure is local, and what unit tests use for speed.
    pub fn local() -> SurfaceSet {
        SurfaceSet {
            planned: true,
            parallel: true,
            served: false,
            replica: false,
        }
    }

    /// Parse `all`, `local`, or a comma list of
    /// `planned,parallel,served,replica`.
    pub fn parse(s: &str) -> Result<SurfaceSet, String> {
        match s {
            "all" => return Ok(SurfaceSet::all()),
            "local" => return Ok(SurfaceSet::local()),
            _ => {}
        }
        let mut set = SurfaceSet {
            planned: false,
            parallel: false,
            served: false,
            replica: false,
        };
        for part in s.split(',').filter(|p| !p.is_empty()) {
            match part {
                "planned" => set.planned = true,
                "parallel" => set.parallel = true,
                "served" => set.served = true,
                "replica" => set.replica = true,
                other => return Err(format!("unknown surface {other:?}")),
            }
        }
        Ok(set)
    }

    /// Restrict to the surfaces needed to reproduce a divergence seen
    /// on `surface` — shrinking probes hundreds of candidates, so a
    /// local failure should not pay for sockets on every probe.
    pub fn for_failure(&self, surface: &str) -> SurfaceSet {
        match surface {
            "planned" | "parallel" | "oracle" => SurfaceSet {
                planned: self.planned,
                parallel: self.parallel,
                served: false,
                replica: false,
            },
            "served" => SurfaceSet {
                served: true,
                replica: false,
                ..*self
            },
            _ => *self,
        }
    }

    /// Human label, e.g. `naive+planned+parallel+served+replica`.
    pub fn label(&self) -> String {
        let mut parts = vec!["naive"];
        if self.planned {
            parts.push("planned");
        }
        if self.parallel {
            parts.push("parallel");
        }
        if self.served {
            parts.push("served");
        }
        if self.replica {
            parts.push("replica");
        }
        parts.join("+")
    }
}

/// One operation of a fuzz case.
#[derive(Clone, Debug)]
pub enum CaseOp {
    /// A read-only query.
    Query(Expr),
    /// An update statement.
    Update(UpdateStmt),
}

impl CaseOp {
    /// Source text (round-trips through the parser — the AST `Display`
    /// impls are parseable by design).
    pub fn text(&self) -> String {
        match self {
            CaseOp::Query(e) => e.to_string(),
            CaseOp::Update(u) => u.to_string(),
        }
    }

    /// `query` or `update` — the `.mcx` line prefix.
    pub fn kind(&self) -> &'static str {
        match self {
            CaseOp::Query(_) => "query",
            CaseOp::Update(_) => "update",
        }
    }
}

/// A detected disagreement between surfaces (or a consistency-check
/// failure on one of them).
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which surface disagreed with the oracle (`planned`, `parallel`,
    /// `served`, `replica`, `fault`, `panic`, `check`, `setup`).
    pub surface: String,
    /// Index of the op that exposed it, if attributable.
    pub op: Option<usize>,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Some(i) => write!(f, "[{}] op #{i}: {}", self.surface, self.detail),
            None => write!(f, "[{}] {}", self.surface, self.detail),
        }
    }
}

fn div(surface: &str, op: Option<usize>, detail: String) -> Divergence {
    Divergence {
        surface: surface.to_string(),
        op,
        detail,
    }
}

/// Harness configuration for one case.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Thread count for the "N threads" side of the parallel compare
    /// (also the served exec_threads).
    pub threads: usize,
    /// Surfaces to compare.
    pub surfaces: SurfaceSet,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            threads: 4,
            surfaces: SurfaceSet::all(),
        }
    }
}

/// Items as comparable text: see [`canon_item`].
pub(crate) fn canon_items(items: &[Item]) -> Vec<String> {
    items.iter().map(canon_item).collect()
}

/// A stored node by id; a built element, which has none, by its
/// structure.
fn canon_item(it: &Item) -> String {
    match it {
        Item::Node(n, _) => format!("n{}", n.0),
        Item::Built(b) => format!(
            "e:<{}>[{}]a{:?}{:?}",
            b.name,
            b.content.as_deref().unwrap_or(""),
            b.attrs,
            canon_items(&b.children)
        ),
        Item::Str(s) => format!("s:{s}"),
        Item::Num(v) => format!("f:{v}"),
        Item::Bool(b) => format!("b:{b}"),
    }
}

fn node_set(tuples: &[Tuple]) -> Vec<u32> {
    let mut v: Vec<u32> = tuples.iter().map(|t| t[0].node.0).collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn run_interp<D: mct_storage::DiskManager>(
    s: &mut StoredDb<D>,
    e: &Expr,
) -> Result<Vec<String>, String> {
    let mut ctx = EvalContext::new(s);
    match eval(&mut ctx, e) {
        Ok(items) => Ok(canon_items(&items)),
        Err(err) => Err(err.to_string()),
    }
}

fn check_store<D: mct_storage::DiskManager>(
    s: &StoredDb<D>,
    label: &str,
) -> Result<(), Divergence> {
    match s.check() {
        Ok(rep) if rep.is_ok() => Ok(()),
        Ok(rep) => Err(div(
            "check",
            None,
            format!(
                "mctck found {} violation(s) on {label}: {:?}",
                rep.total_violations,
                rep.violations.first()
            ),
        )),
        Err(e) => Err(div("check", None, format!("mctck failed on {label}: {e}"))),
    }
}

// ---------------------------------------------------------------------------
// Served / replica rig
// ---------------------------------------------------------------------------

struct ReplicaParts {
    db: Arc<RwLock<StoredDb<MemDisk>>>,
    handle: Option<ReplicaHandle>,
    http: Option<ServerHandle<MemDisk>>,
    client: Client,
}

struct Rig {
    shared: Arc<RwLock<StoredDb<MemDisk>>>,
    http: Option<ServerHandle<MemDisk>>,
    client: Client,
    primary: Option<PrimaryHandle>,
    replica: Option<ReplicaParts>,
}

impl Rig {
    fn build(base: &MctDatabase, cfg: &DiffConfig) -> Result<Rig, Divergence> {
        let setup = |e: String| div("setup", None, e);
        // WAL-backed pool so the primary can ship records.
        let mut pool = BufferPool::new(MemDisk::new(), POOL_BYTES);
        pool.attach_wal(Wal::create(Box::new(MemDisk::new())).map_err(|e| setup(e.to_string()))?);
        let mut stored =
            StoredDb::build_on(pool, base.clone()).map_err(|e| setup(e.to_string()))?;
        stored.sync().map_err(|e| setup(e.to_string()))?;
        let shared = Arc::new(RwLock::new(stored));

        let server_cfg = |primary_http: Option<String>| ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 2,
            exec_threads: cfg.threads.max(1),
            repl_primary: cfg.surfaces.replica && primary_http.is_none(),
            primary_http,
            ..ServerConfig::default()
        };

        let http = serve_shared(Arc::clone(&shared), server_cfg(None))
            .map_err(|e| setup(e.to_string()))?;
        let client = Client::new("127.0.0.1", http.port()).with_timeout(Duration::from_secs(10));

        let (primary, replica) = if cfg.surfaces.replica {
            let advertise = format!("127.0.0.1:{}", http.port());
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| setup(e.to_string()))?;
            let repl_port = listener.local_addr().map_err(|e| setup(e.to_string()))?.port();
            let primary = start_primary(
                listener,
                Arc::clone(&shared),
                PrimaryCfg {
                    advertise_http: advertise.clone(),
                    poll_interval: Duration::from_millis(2),
                    ..PrimaryCfg::default()
                },
            )
            .map_err(|e| setup(e.to_string()))?;
            let rep = start_replica(ReplicaCfg {
                primary: format!("127.0.0.1:{repl_port}"),
                replica_id: "fuzz-replica".to_string(),
                pool_bytes: POOL_BYTES,
                ..ReplicaCfg::default()
            })
            .map_err(|e| setup(e.to_string()))?;
            let rep_db = rep.db();
            let rep_http = serve_shared(Arc::clone(&rep_db), server_cfg(Some(advertise)))
                .map_err(|e| setup(e.to_string()))?;
            let rep_client =
                Client::new("127.0.0.1", rep_http.port()).with_timeout(Duration::from_secs(10));
            (
                Some(primary),
                Some(ReplicaParts {
                    db: rep_db,
                    handle: Some(rep),
                    http: Some(rep_http),
                    client: rep_client,
                }),
            )
        } else {
            (None, None)
        };

        Ok(Rig {
            shared,
            http: Some(http),
            client,
            primary,
            replica,
        })
    }

    fn shutdown(mut self) {
        if let Some(mut rep) = self.replica.take() {
            if let Some(h) = rep.http.take() {
                h.shutdown();
            }
            if let Some(h) = rep.handle.take() {
                h.shutdown();
            }
        }
        if let Some(h) = self.http.take() {
            h.shutdown();
        }
        if let Some(p) = self.primary.take() {
            p.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// The case runner
// ---------------------------------------------------------------------------

/// Run one case across the configured surfaces. `Ok(())` means every
/// surface agreed with the oracle and every store passed `mctck`.
pub fn run_case(base: &MctDatabase, ops: &[CaseOp], cfg: &DiffConfig) -> Result<(), Divergence> {
    let setup = |e: String| div("setup", None, e);
    let mut oracle = StoredDb::build(base.clone(), POOL_BYTES).map_err(|e| setup(e.to_string()))?;
    let mut planned = if cfg.surfaces.planned || cfg.surfaces.parallel {
        Some(StoredDb::build(base.clone(), POOL_BYTES).map_err(|e| setup(e.to_string()))?)
    } else {
        None
    };
    let rig = if cfg.surfaces.served || cfg.surfaces.replica {
        Some(Rig::build(base, cfg)?)
    } else {
        None
    };

    let result = run_ops(&mut oracle, planned.as_mut(), rig.as_ref(), ops, cfg);
    let result = result.and_then(|()| {
        // Final sweep: mctck every store, cross-check digests.
        check_store(&oracle, "oracle")?;
        let want = oracle.digest();
        if let Some(pl) = planned.as_ref() {
            check_store(pl, "planned")?;
            if pl.digest() != want {
                return Err(div(
                    "planned",
                    None,
                    "final state digest differs from oracle".to_string(),
                ));
            }
        }
        if let Some(rig) = rig.as_ref() {
            let g = rig.shared.read().unwrap();
            check_store(&g, "served")?;
            if g.digest() != want {
                return Err(div(
                    "served",
                    None,
                    "final state digest differs from oracle".to_string(),
                ));
            }
            drop(g);
            if let Some(rep) = rig.replica.as_ref() {
                let g = rep.db.read().unwrap();
                check_store(&g, "replica")?;
                if g.digest() != want {
                    return Err(div(
                        "replica",
                        None,
                        "final replica digest differs from oracle".to_string(),
                    ));
                }
            }
        }
        Ok(())
    });

    if let Some(rig) = rig {
        rig.shutdown();
    }
    result
}

fn run_ops(
    oracle: &mut StoredDb,
    mut planned: Option<&mut StoredDb>,
    rig: Option<&Rig>,
    ops: &[CaseOp],
    cfg: &DiffConfig,
) -> Result<(), Divergence> {
    for (i, op) in ops.iter().enumerate() {
        let at = Some(i);
        match op {
            CaseOp::Query(e) => {
                run_query(oracle, planned.as_deref_mut(), rig, e, cfg, at)?;
            }
            CaseOp::Update(u) => {
                run_update(oracle, planned.as_deref_mut(), rig, u, at)?;
            }
        }
    }
    Ok(())
}

fn run_query(
    oracle: &mut StoredDb,
    planned: Option<&mut StoredDb>,
    rig: Option<&Rig>,
    e: &Expr,
    cfg: &DiffConfig,
    at: Option<usize>,
) -> Result<(), Divergence> {
    let text = e.to_string();
    let before = oracle.digest();
    let oracle_items = {
        let mut ctx = EvalContext::new(oracle);
        eval(&mut ctx, e)
    };
    if oracle.digest() != before {
        return Err(div("oracle", at, format!("the read {text:?} changed the store")));
    }
    let oracle_canon = match &oracle_items {
        Ok(items) => Ok(canon_items(items)),
        Err(err) => Err(err.to_string()),
    };

    if let Some(pl) = planned {
        // The interpreter on a second store must agree verbatim —
        // catches build/annotation divergence even when the query is
        // not plannable.
        let second = run_interp(pl, e);
        if second != oracle_canon {
            return Err(div(
                "planned",
                at,
                format!("interpreter drift between stores on {text:?}: {second:?} vs {oracle_canon:?}"),
            ));
        }

        if let (Expr::Path(p), Ok(items)) = (e, &oracle_items) {
            match plan_path(pl, p, true) {
                Ok(plan) => {
                    let non_nodes = items.iter().any(|it| !matches!(it, Item::Node(..)));
                    if non_nodes {
                        return Err(div(
                            "planned",
                            at,
                            format!("planner accepted {text:?} but interpreter returned non-node items"),
                        ));
                    }
                    let mut want: Vec<u32> = items
                        .iter()
                        .filter_map(|it| match it {
                            Item::Node(n, _) => Some(n.0),
                            _ => None,
                        })
                        .collect();
                    want.sort_unstable();
                    want.dedup();

                    // One thread: compared with the interpreter on
                    // "planned", with N threads on "parallel".
                    let surface = if cfg.surfaces.planned { "planned" } else { "parallel" };
                    let one = plan.execute_shared(pl, 1, None).map_err(|err| {
                        div(surface, at, format!("plan execute failed on {text:?}: {err}"))
                    })?;
                    if cfg.surfaces.planned {
                        let got = node_set(&one);
                        if got != want {
                            return Err(div(
                                "planned",
                                at,
                                format!("plan nodes {got:?} != interpreter nodes {want:?} for {text:?}"),
                            ));
                        }
                    }
                    if cfg.surfaces.parallel {
                        let threads = cfg.threads.max(2);
                        let many = plan.execute_shared(pl, threads, None).map_err(|err| {
                            div("parallel", at, format!("{threads}-thread execute failed: {err}"))
                        })?;
                        if one != many {
                            return Err(div(
                                "parallel",
                                at,
                                format!(
                                    "{threads}-thread execution differs from 1-thread for {text:?} ({} vs {} tuples)",
                                    many.len(),
                                    one.len()
                                ),
                            ));
                        }
                        if node_set(&one) != want {
                            return Err(div(
                                "parallel",
                                at,
                                format!("parallel nodes differ from interpreter for {text:?}"),
                            ));
                        }
                    }
                }
                // Not plannable: the interpreter fallback covered it.
                Err(PlanError::Unsupported(_)) => {}
                Err(err) => {
                    return Err(div(
                        "planned",
                        at,
                        format!("planner error {err} on {text:?} the interpreter evaluated fine"),
                    ));
                }
            }
        }
    }

    if let Some(rig) = rig {
        // Expected response, mimicking the server's plan-vs-interpret
        // decision against the oracle's state.
        let expected = match &oracle_items {
            Ok(items) => {
                let plan = match e {
                    Expr::Path(p) => plan_path(oracle, p, true).ok(),
                    _ => None,
                };
                let body = match plan {
                    Some(plan) => {
                        let tuples = plan.execute_shared(oracle, 1, None).map_err(|err| {
                            div("served", at, format!("oracle-side plan failed: {err}"))
                        })?;
                        render_xml(&rows_from_tuples(oracle, &tuples))
                    }
                    None => render_xml(&rows_from_items(oracle, items)),
                };
                (200u16, Some(body))
            }
            Err(EvalError::Storage(_)) => (500, None),
            Err(_) => (400, None),
        };

        if cfg.surfaces.served || cfg.surfaces.replica {
            let reply = rig
                .client
                .query(&text)
                .map_err(|err| div("served", at, format!("http query failed: {err}")))?;
            let body = String::from_utf8_lossy(&reply.body).into_owned();
            if reply.status != expected.0 {
                return Err(div(
                    "served",
                    at,
                    format!(
                        "status {} != expected {} for {text:?} (body: {})",
                        reply.status,
                        expected.0,
                        body.lines().next().unwrap_or("")
                    ),
                ));
            }
            if let Some(want_body) = &expected.1 {
                if &body != want_body {
                    return Err(div(
                        "served",
                        at,
                        format!("served body differs for {text:?}:\n--- got ---\n{body}\n--- want ---\n{want_body}"),
                    ));
                }
            }
            if rig.shared.read().unwrap().digest() != before {
                return Err(div("served", at, format!("the read {text:?} changed the store")));
            }
            if let Some(rep) = rig.replica.as_ref() {
                let rr = rep
                    .client
                    .query(&text)
                    .map_err(|err| div("replica", at, format!("http query failed: {err}")))?;
                let rbody = String::from_utf8_lossy(&rr.body).into_owned();
                if rr.status != reply.status || rbody != body {
                    return Err(div(
                        "replica",
                        at,
                        format!(
                            "replica reply ({}, {} bytes) differs from primary ({}, {} bytes) for {text:?}",
                            rr.status,
                            rbody.len(),
                            reply.status,
                            body.len()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

fn run_update(
    oracle: &mut StoredDb,
    planned: Option<&mut StoredDb>,
    rig: Option<&Rig>,
    u: &UpdateStmt,
    at: Option<usize>,
) -> Result<(), Divergence> {
    let text = u.to_string();
    let oracle_out = execute_update_with(oracle, u, None);
    let oracle_canon = match &oracle_out {
        Ok(o) => Ok((o.tuples, o.elements)),
        Err(e) => Err(e.to_string()),
    };
    let want_digest = oracle.digest();

    if let Some(pl) = planned {
        let out = execute_update_with(pl, u, None);
        let canon = match &out {
            Ok(o) => Ok((o.tuples, o.elements)),
            Err(e) => Err(e.to_string()),
        };
        if canon != oracle_canon {
            return Err(div(
                "planned",
                at,
                format!("update outcome {canon:?} != oracle {oracle_canon:?} for {text:?}"),
            ));
        }
        if pl.digest() != want_digest {
            return Err(div(
                "planned",
                at,
                format!("state digest differs from oracle after {text:?}"),
            ));
        }
    }

    if let Some(rig) = rig {
        let reply = rig
            .client
            .update(&text)
            .map_err(|err| div("served", at, format!("http update failed: {err}")))?;
        let body = String::from_utf8_lossy(&reply.body).into_owned();
        match &oracle_canon {
            Ok((tuples, elements)) => {
                let prefix = format!("{{\"tuples\":{tuples},\"elements\":{elements}");
                if reply.status != 200 || !body.starts_with(&prefix) {
                    return Err(div(
                        "served",
                        at,
                        format!(
                            "update reply ({}, {}) != expected 200 starting {prefix:?} for {text:?}",
                            reply.status,
                            body.lines().next().unwrap_or("")
                        ),
                    ));
                }
            }
            Err(_) => {
                let want = if matches!(oracle_out, Err(EvalError::Storage(_))) {
                    500
                } else {
                    400
                };
                if reply.status != want {
                    return Err(div(
                        "served",
                        at,
                        format!(
                            "update reply status {} != expected {want} for failing {text:?}",
                            reply.status
                        ),
                    ));
                }
            }
        }
        let served_digest = {
            let g = rig.shared.read().unwrap();
            g.digest()
        };
        if served_digest != want_digest {
            return Err(div(
                "served",
                at,
                format!("served state digest differs from oracle after {text:?}"),
            ));
        }
        if let Some(rep) = rig.replica.as_ref() {
            // WAL shipping is asynchronous: wait for convergence.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let got = {
                    let g = rep.db.read().unwrap();
                    g.digest()
                };
                if got == want_digest {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(div(
                        "replica",
                        at,
                        format!("replica never converged to oracle state after {text:?}"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(3));
            }
        }
    }
    Ok(())
}
