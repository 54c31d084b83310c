//! The `mctd` serving core: acceptor → bounded queue → worker pool →
//! shared [`StoredDb`].
//!
//! ## Threading model
//!
//! One acceptor thread blocks on `accept(2)` and pushes connections
//! into a bounded [`sync_channel`]; `workers` threads pop connections
//! and serve them to completion (HTTP keep-alive: a worker owns a
//! connection for its whole life, so clients that multiplex many
//! requests should use `Connection: close`, as [`crate::Client`]
//! does). When the queue is full the acceptor answers `503` with
//! `Retry-After: 1` inline and drops the connection — admission
//! control costs one small write, never a thread.
//!
//! ## Locking protocol
//!
//! The database sits in one [`RwLock`]:
//!
//! * every `/query` that calls no `createColor` runs and renders under
//!   the **read** lock, so queries run concurrently on all workers:
//!   planner-covered ones via `PathPlan::execute_shared`, the rest in
//!   the interpreter over [`EvalContext::shared`] (an element
//!   constructor builds a value and writes nothing);
//! * a `/query` calling `createColor` (§4.3 — it adds a colored tree)
//!   and every `/update` take the **write** lock. Which lock a query
//!   takes is decided once, from its parsed expression
//!   ([`Prepared::creates_color`]), and counted in
//!   `server.query.read_lock` / `server.query.write_lock`. Both writes
//!   run as one store transaction, and a replica refuses both with
//!   `421` before it takes any lock.
//!
//! ## Cancellation
//!
//! Each request gets a [`CancelToken`] carrying its deadline (server
//! default, overridable per request with an `X-Deadline-Ms` header).
//! The parallel operators check it at morsel boundaries and the
//! interpreter once per 256 tuples or step outputs; an expired token
//! surfaces as [`StorageError::Cancelled`] or [`EvalError::Cancelled`]
//! → `408`.
//!
//! ## Shutdown
//!
//! [`ServerHandle::initiate_shutdown`] flips the drain flag and wakes
//! the acceptor with a loopback connection. The acceptor stops and
//! drops its sender; workers drain every already-queued connection to
//! completion, then exit. No accepted request is ever abandoned.

use crate::cache::{fnv1a, PlanCache, Prepared};
use crate::http::{self, Request, Response};
use crate::obslog::{ExecKind, RequestLog, RequestRecord, SlowLog};
use crate::render::{self, Row};
use crate::stats;
use mct_core::StoredDb;
use mct_obs::{Counter, Gauge, Histogram, Sampler, SamplerHandle};
use mct_query::plan::plan_path;
use mct_query::{
    eval, execute_update_with, parse_query, parse_update, CancelToken, EvalContext, EvalError,
    Expr, Item, PlanError,
};
use mct_storage::{DiskManager, StorageError};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. `Default` matches the README quickstart.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind; `0` picks an ephemeral port (see
    /// [`ServerHandle::port`]).
    pub port: u16,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded accept-queue depth; beyond it connections get `503`.
    pub queue_depth: usize,
    /// Default per-request deadline (`None` = no deadline).
    pub deadline: Option<Duration>,
    /// Morsel-executor threads per query (within one request).
    pub exec_threads: usize,
    /// Request-body cap in bytes (`413` beyond it).
    pub max_body: usize,
    /// Plan-cache capacity in entries.
    pub cache_capacity: usize,
    /// Latency threshold for the slow-query log (`None` disables
    /// capture; zero captures every query/update).
    pub slow_threshold: Option<Duration>,
    /// Slow-query log ring capacity (entries retained for `/slow`).
    pub slow_capacity: usize,
    /// `/stats` sampling interval.
    pub stats_interval: Duration,
    /// `/stats` ring capacity (samples retained — window horizon =
    /// `stats_window × stats_interval`).
    pub stats_window: usize,
    /// Structured request-log target: the literal `stderr` or a file
    /// path (`None` = request logging off).
    pub log_json: Option<String>,
    /// This server is a replication primary (`mctd --repl-listen`) —
    /// reported as `"role":"primary"` on `/healthz`.
    pub repl_primary: bool,
    /// Set on a replica: the primary's HTTP address. `/update` is
    /// refused with `421` + an `X-Primary` header pointing here, and
    /// `/healthz` reports `"role":"replica"`.
    pub primary_http: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 4,
            queue_depth: 64,
            deadline: Some(Duration::from_secs(30)),
            exec_threads: 1,
            max_body: http::DEFAULT_MAX_BODY,
            cache_capacity: 256,
            slow_threshold: Some(Duration::from_millis(100)),
            slow_capacity: 32,
            stats_interval: Duration::from_secs(1),
            stats_window: 300,
            log_json: None,
            repl_primary: false,
            primary_http: None,
        }
    }
}

impl ServerConfig {
    /// The replication role this config implies, as shown on
    /// `/healthz`.
    pub fn role(&self) -> &'static str {
        if self.primary_http.is_some() {
            "replica"
        } else if self.repl_primary {
            "primary"
        } else {
            "standalone"
        }
    }
}

/// Handles to the server's metric instruments (global registry names
/// under `server.*`; scrape them at `/metrics`).
pub struct ServerMetrics {
    /// Connections accepted.
    pub accepted: Counter,
    /// Connections rejected with `503` by admission control.
    pub rejected: Counter,
    /// Requests handled (any status).
    pub requests: Counter,
    /// Requests that hit their deadline (`408`).
    pub timeouts: Counter,
    /// Responses with status ≥ 400.
    pub http_errors: Counter,
    /// Requests currently executing.
    pub inflight: Gauge,
    /// Per-endpoint latency histograms (nanoseconds).
    pub lat_query: Histogram,
    /// `/update` latency.
    pub lat_update: Histogram,
    /// `/metrics` latency.
    pub lat_metrics: Histogram,
    /// `/healthz` latency.
    pub lat_healthz: Histogram,
    /// `/check` latency.
    pub lat_check: Histogram,
    /// `/stats` latency.
    pub lat_stats: Histogram,
    /// `/slow` latency.
    pub lat_slow: Histogram,
    /// `/query` executions under the read lock: planned ones and
    /// interpreted ones without `createColor`.
    pub query_read_lock: Counter,
    /// `/query` executions under the write lock: those calling
    /// `createColor`.
    pub query_write_lock: Counter,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        ServerMetrics {
            accepted: mct_obs::counter("server.accepted"),
            rejected: mct_obs::counter("server.rejected"),
            requests: mct_obs::counter("server.requests"),
            timeouts: mct_obs::counter("server.timeouts"),
            http_errors: mct_obs::counter("server.http.errors"),
            inflight: mct_obs::gauge("server.inflight"),
            lat_query: mct_obs::histogram("server.latency.query"),
            lat_update: mct_obs::histogram("server.latency.update"),
            lat_metrics: mct_obs::histogram("server.latency.metrics"),
            lat_healthz: mct_obs::histogram("server.latency.healthz"),
            lat_check: mct_obs::histogram("server.latency.check"),
            lat_stats: mct_obs::histogram("server.latency.stats"),
            lat_slow: mct_obs::histogram("server.latency.slow"),
            query_read_lock: mct_obs::counter("server.query.read_lock"),
            query_write_lock: mct_obs::counter("server.query.write_lock"),
        }
    }
}

/// Per-request observability plumbing hung off [`AppState`]: request
/// identity, the structured request log, the slow-query log, and the
/// `/stats` sampler handle.
pub struct ObsState {
    /// Structured request log (`--log-json`), when enabled.
    pub request_log: Option<RequestLog>,
    /// Slow-query capture ring, when enabled.
    pub slow: Option<SlowLog>,
    /// Read handle onto the `/stats` sampler ring.
    pub sampler: SamplerHandle,
    /// Monotone request-id source (ids start at 1).
    next_request_id: AtomicU64,
    /// When the server started (uptime basis).
    pub started: Instant,
    /// Wall-clock start time, seconds since the epoch.
    pub start_unix: u64,
    /// `server.uptime_seconds`, refreshed on each `/metrics` scrape.
    uptime: Gauge,
    /// Global `storage.pool.hits` — read around each request to
    /// estimate per-request pool traffic.
    pool_hits: Counter,
    /// Global `storage.pool.misses` (same use).
    pool_misses: Counter,
}

impl ObsState {
    /// The next request id (monotone per process, starting at 1).
    pub fn next_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// What the router learns about a request as it executes, beyond the
/// response itself: log-line fields, plus the raw material for slow
/// capture (query text and the analyze tree from the run that was
/// slow).
struct RequestCtx {
    record: RequestRecord,
    query: Option<String>,
    analyze: String,
}

impl RequestCtx {
    fn new(id: u64, method: &str, endpoint: &str) -> RequestCtx {
        RequestCtx {
            record: RequestRecord::new(id, method, endpoint),
            query: None,
            analyze: String::new(),
        }
    }
}

/// Shared server state: the database, the plan cache, config, and the
/// drain flag.
pub struct AppState<D: DiskManager = mct_storage::MemDisk> {
    /// The one shared database. Behind an `Arc` so subsystems outside
    /// the server (the replication primary's snapshot/stream threads,
    /// a replica's applier) can share it.
    pub db: Arc<RwLock<StoredDb<D>>>,
    /// Prepared-statement cache.
    pub cache: PlanCache,
    /// Effective configuration.
    pub cfg: ServerConfig,
    /// Set once shutdown begins; new connections get `503 draining`.
    pub draining: AtomicBool,
    /// Metric handles.
    pub metrics: ServerMetrics,
    /// Request-level observability: ids, request log, slow log, stats.
    pub obs: ObsState,
}

/// Decrements the in-flight gauge even on panic or early return.
struct InflightGuard(Gauge);

impl InflightGuard {
    fn enter(g: &Gauge) -> InflightGuard {
        g.add(1);
        InflightGuard(g.clone())
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// A running server. Dropping the handle does NOT stop the server;
/// call [`ServerHandle::shutdown`] (or `initiate_shutdown` + `wait`).
pub struct ServerHandle<D: DiskManager = mct_storage::MemDisk> {
    addr: SocketAddr,
    state: Arc<AppState<D>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<u64>>,
    sampler: Option<Sampler>,
}

impl<D: DiskManager> ServerHandle<D> {
    /// Bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Shared state — tests inspect the cache and metrics through it.
    pub fn state(&self) -> &Arc<AppState<D>> {
        &self.state
    }

    /// Begin a graceful drain: stop accepting, finish everything
    /// queued. Idempotent; returns immediately.
    pub fn initiate_shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        // Wake the acceptor if it is parked in accept(2).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Block until the drain completes; returns the total number of
    /// requests served over the server's lifetime.
    pub fn wait(mut self) -> u64 {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let mut served = 0;
        for w in self.workers.drain(..) {
            served += w.join().unwrap_or(0);
        }
        if let Some(mut s) = self.sampler.take() {
            s.stop();
        }
        if let Some(log) = &self.state.obs.request_log {
            log.flush();
        }
        served
    }

    /// [`initiate_shutdown`](Self::initiate_shutdown) + [`wait`](Self::wait).
    pub fn shutdown(self) -> u64 {
        self.initiate_shutdown();
        self.wait()
    }
}

/// Start serving `stored` with `cfg`.
pub fn serve<D>(stored: StoredDb<D>, cfg: ServerConfig) -> std::io::Result<ServerHandle<D>>
where
    D: DiskManager + Sync + 'static,
{
    serve_shared(Arc::new(RwLock::new(stored)), cfg)
}

/// [`serve`] over an already-shared database — the replication entry
/// point: `mctd --repl-listen` hands the same `Arc` to the HTTP server
/// and the WAL-shipping primary; `mctd --replica-of` hands in the
/// store its applier keeps in sync.
pub fn serve_shared<D>(
    db: Arc<RwLock<StoredDb<D>>>,
    cfg: ServerConfig,
) -> std::io::Result<ServerHandle<D>>
where
    D: DiskManager + Sync + 'static,
{
    let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
    let addr = listener.local_addr()?;

    let request_log = match &cfg.log_json {
        Some(target) => Some(RequestLog::open(target).map_err(|e| {
            std::io::Error::other(format!("opening request log {target}: {e}"))
        })?),
        None => None,
    };
    let sampler = Sampler::start(mct_obs::global(), cfg.stats_interval, cfg.stats_window.max(1));
    let start_unix = mct_obs::unix_ms() / 1000;
    mct_obs::gauge("process.start_unix").set(start_unix);

    let state = Arc::new(AppState {
        cache: PlanCache::new(cfg.cache_capacity),
        db,
        draining: AtomicBool::new(false),
        metrics: ServerMetrics::new(),
        obs: ObsState {
            request_log,
            slow: cfg
                .slow_threshold
                .map(|t| SlowLog::new(t, cfg.slow_capacity.max(1))),
            sampler: sampler.handle(),
            next_request_id: AtomicU64::new(0),
            started: Instant::now(),
            start_unix,
            uptime: mct_obs::gauge("server.uptime_seconds"),
            pool_hits: mct_obs::counter("storage.pool.hits"),
            pool_misses: mct_obs::counter("storage.pool.misses"),
        },
        cfg,
    });

    let (tx, rx) = sync_channel::<TcpStream>(state.cfg.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::with_capacity(state.cfg.workers.max(1));
    for i in 0..state.cfg.workers.max(1) {
        let state = Arc::clone(&state);
        let rx = Arc::clone(&rx);
        workers.push(
            std::thread::Builder::new()
                .name(format!("mctd-worker-{i}"))
                .spawn(move || worker_loop(&state, &rx))?,
        );
    }

    let acceptor = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("mctd-acceptor".to_string())
            .spawn(move || acceptor_loop(&state, &listener, tx))?
    };

    Ok(ServerHandle {
        addr,
        state,
        acceptor: Some(acceptor),
        workers,
        sampler: Some(sampler),
    })
}

fn acceptor_loop<D: DiskManager>(
    state: &AppState<D>,
    listener: &TcpListener,
    tx: std::sync::mpsc::SyncSender<TcpStream>,
) {
    for stream in listener.incoming() {
        if state.draining.load(Ordering::SeqCst) {
            break; // the wake-up (or raced) connection is dropped
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        state.metrics.accepted.inc();
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => {
                state.metrics.rejected.inc();
                reject_busy(stream);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` here lets workers drain the queue and then exit.
}

/// Tell an over-admission connection to come back later. Best-effort:
/// a peer that already vanished just loses the courtesy note.
fn reject_busy(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = Response::text(503, "server busy\n")
        .header("Retry-After", "1")
        .write_to(&mut stream, true);
}

fn worker_loop<D: DiskManager>(
    state: &AppState<D>,
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
) -> u64 {
    let mut served = 0u64;
    loop {
        // Take the next connection; hold the receiver lock only for the
        // recv itself so idle workers queue fairly.
        let next = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        match next {
            Ok(stream) => served += serve_connection(state, stream),
            Err(_) => return served, // acceptor gone and queue empty
        }
    }
}

/// Serve one connection to completion. Returns requests handled.
fn serve_connection<D: DiskManager>(state: &AppState<D>, stream: TcpStream) -> u64 {
    let _ = stream.set_nodelay(true);
    // A peer that stops talking mid-request must not pin a worker
    // forever (slowloris); reads time out and the connection drops.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut writer = stream;
    let mut reader = match writer.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(_) => return 0,
    };

    let mut handled = 0u64;
    loop {
        match http::read_request(&mut reader, state.cfg.max_body) {
            Ok(None) => break,
            Err(e) => {
                if let Some(resp) = http::error_response(&e) {
                    state.metrics.http_errors.inc();
                    let _ = resp.write_to(&mut writer, true);
                }
                break;
            }
            Ok(Some(req)) => {
                let resp = handle_request(state, &req);
                handled += 1;
                let close = req.wants_close() || state.draining.load(Ordering::SeqCst);
                if resp.status >= 400 {
                    state.metrics.http_errors.inc();
                }
                if resp.write_to(&mut writer, close).is_err() || close {
                    break;
                }
            }
        }
    }
    handled
}

/// Route one request. Panics inside a handler are contained to a `500`
/// so a worker thread (and its queue slot) survives any single bad
/// request.
///
/// This is also where the observability record is assembled: the
/// request gets a process-monotone id (echoed as `X-Request-Id`, and
/// visible to trace subscribers on every worker thread via
/// [`mct_obs::trace::request_scope`]), end-to-end latency and pool
/// deltas are measured around routing, the JSON request-log line is
/// written, and requests over the slow threshold are captured with the
/// analyze tree from the run that was slow.
pub fn handle_request<D: DiskManager>(state: &AppState<D>, req: &Request) -> Response {
    state.metrics.requests.inc();
    let _inflight = InflightGuard::enter(&state.metrics.inflight);

    let id = state.obs.next_id();
    let _tag = mct_obs::trace::request_scope(id);
    let mut ctx = RequestCtx::new(id, &req.method, &req.path);
    // Per-request pool traffic as a global-counter delta: exact when
    // the request runs alone, approximate (overlapping requests'
    // traffic bleeds in) under concurrency. Cheap — two relaxed loads —
    // which is the right trade for a per-request log field.
    let pool_mark = (state.obs.pool_hits.get(), state.obs.pool_misses.get());
    let t0 = Instant::now();

    let result = catch_unwind(AssertUnwindSafe(|| route(state, req, &mut ctx)));
    let resp = result.unwrap_or_else(|_| Response::text(500, "internal error\n"));

    ctx.record.latency = t0.elapsed();
    ctx.record.ts_ms = mct_obs::unix_ms();
    ctx.record.status = resp.status;
    ctx.record.pool_hits = state.obs.pool_hits.get().saturating_sub(pool_mark.0);
    ctx.record.pool_misses = state.obs.pool_misses.get().saturating_sub(pool_mark.1);

    if let Some(log) = &state.obs.request_log {
        log.write(&ctx.record);
    }
    if let (Some(slow), Some(query)) = (&state.obs.slow, &ctx.query) {
        if slow.qualifies(ctx.record.latency) {
            slow.capture(ctx.record.clone(), query, &ctx.analyze);
        }
    }
    resp.header("X-Request-Id", &id.to_string())
}

fn route<D: DiskManager>(state: &AppState<D>, req: &Request, ctx: &mut RequestCtx) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let _t = state.metrics.lat_healthz.start_timer();
            let status = if state.draining.load(Ordering::SeqCst) {
                "draining"
            } else {
                "ok"
            };
            let code = if status == "ok" { 200 } else { 503 };
            Response::text(
                code,
                format!(
                    "{{\"status\":\"{status}\",\"role\":\"{}\",\"uptime_seconds\":{},\"start_unix\":{}}}\n",
                    state.cfg.role(),
                    state.obs.started.elapsed().as_secs(),
                    state.obs.start_unix
                ),
            )
            .content_type("application/json")
        }
        ("GET", "/metrics") => {
            let _t = state.metrics.lat_metrics.start_timer();
            // Refresh the uptime gauge so every scrape exports it
            // current (it has no natural write path of its own).
            state
                .obs
                .uptime
                .set(state.obs.started.elapsed().as_secs());
            Response::text(200, mct_obs::global().snapshot().to_prometheus())
                .content_type("text/plain; version=0.0.4")
        }
        ("GET", "/stats") => {
            let _t = state.metrics.lat_stats.start_timer();
            let window = req
                .query_param("window")
                .and_then(|w| w.parse::<usize>().ok())
                .unwrap_or(60)
                .max(1);
            let samples = state.obs.sampler.samples(window);
            Response::text(
                200,
                stats::render_stats(&samples, state.obs.sampler.interval()),
            )
            .content_type("application/json")
        }
        ("GET", "/slow") => {
            let _t = state.metrics.lat_slow.start_timer();
            let body = match &state.obs.slow {
                Some(slow) => slow.to_json(),
                None => {
                    "{\"threshold_ms\":null,\"captured_total\":0,\"capacity\":0,\"entries\":[]}\n"
                        .to_string()
                }
            };
            Response::text(200, body).content_type("application/json")
        }
        ("POST", "/query") => {
            let _t = state.metrics.lat_query.start_timer();
            handle_query(state, req, ctx)
        }
        ("POST", "/update") => {
            let _t = state.metrics.lat_update.start_timer();
            if let Some(primary) = &state.cfg.primary_http {
                return misdirect(primary);
            }
            handle_update(state, req, ctx)
        }
        ("GET", "/check") => {
            let _t = state.metrics.lat_check.start_timer();
            handle_check(state)
        }
        (_, "/healthz" | "/metrics" | "/check" | "/stats" | "/slow") => {
            Response::text(405, "method not allowed\n").header("Allow", "GET")
        }
        (_, "/query" | "/update") => {
            Response::text(405, "method not allowed\n").header("Allow", "POST")
        }
        _ => Response::text(404, "not found\n"),
    }
}

/// A replica never executes writes: misdirect the client to the
/// primary (421 + X-Primary, the same address a multi-endpoint client
/// uses to re-route).
fn misdirect(primary: &str) -> Response {
    Response::text(
        421,
        format!("{{\"error\":\"read-only replica\",\"primary\":\"{primary}\"}}\n"),
    )
    .content_type("application/json")
    .header("X-Primary", primary)
}

/// `408` once the request's deadline has passed.
fn past_deadline<D: DiskManager>(
    state: &AppState<D>,
    cancel: Option<&CancelToken>,
) -> Option<Response> {
    if !cancel.is_some_and(CancelToken::is_cancelled) {
        return None;
    }
    state.metrics.timeouts.inc();
    Some(Response::text(408, "deadline exceeded\n"))
}

/// The request's cancel token: `X-Deadline-Ms` wins over the server
/// default.
fn request_cancel<D: DiskManager>(state: &AppState<D>, req: &Request) -> Option<CancelToken> {
    if let Some(ms) = req.header("x-deadline-ms") {
        let ms: u64 = ms.parse().ok()?;
        return Some(CancelToken::after(Duration::from_millis(ms)));
    }
    state.cfg.deadline.map(CancelToken::after)
}

fn wants_json(req: &Request) -> bool {
    req.query_param("format") == Some("json")
        || req
            .header("accept")
            .map(|a| a.contains("application/json"))
            .unwrap_or(false)
}

fn respond_rows(rows: &[Row], json: bool) -> Response {
    if json {
        Response::text(200, render::render_json(rows)).content_type("application/json")
    } else {
        Response::text(200, render::render_xml(rows)).content_type("application/xml")
    }
}

fn handle_query<D: DiskManager>(
    state: &AppState<D>,
    req: &Request,
    ctx: &mut RequestCtx,
) -> Response {
    let text = match req.body_str() {
        Ok(t) => t.trim(),
        Err(_) => return Response::text(400, "query body is not valid UTF-8\n"),
    };
    if text.is_empty() {
        return Response::text(400, "empty query\n");
    }
    ctx.query = Some(text.to_string());
    ctx.record.query_hash = fnv1a(text);
    // `createColor` is a write, so a replica refuses it as it refuses
    // `/update`, before it takes any lock. The substring test spares
    // every other query a second parse.
    if let Some(primary) = &state.cfg.primary_http {
        if text.contains("createColor") && parse_query(text).is_ok_and(|e| e.calls("createColor")) {
            return misdirect(primary);
        }
    }
    let json = wants_json(req);
    let cancel = request_cancel(state, req);

    let db = state.db.read().unwrap_or_else(PoisonError::into_inner);
    let generation = db.generation();
    let prepared = match state.cache.lookup(text, generation) {
        Some(p) => {
            ctx.record.cache_hit = Some(true);
            p
        }
        None => {
            ctx.record.cache_hit = Some(false);
            let expr = match parse_query(text) {
                Ok(e) => e,
                Err(e) => return Response::text(400, format!("parse error: {e}\n")),
            };
            let plan = match &expr {
                Expr::Path(p) => match plan_path(&db, p, true) {
                    Ok(plan) => Some(plan),
                    Err(PlanError::Unsupported(_)) => None,
                    Err(e @ PlanError::UnknownColor(_)) => {
                        return Response::text(400, format!("plan error: {e}\n"))
                    }
                },
                _ => None,
            };
            let creates_color = expr.calls("createColor");
            let prepared = Arc::new(Prepared {
                expr,
                plan,
                creates_color,
            });
            state.cache.insert(text, generation, Arc::clone(&prepared));
            prepared
        }
    };

    if let Some(plan) = &prepared.plan {
        state.metrics.query_read_lock.inc();
        // The analyze variant instruments every stage (two clock
        // reads and a pool-stats delta per stage) so a slow run is
        // captured with its own per-operator tree — no re-run.
        ctx.record.exec = ExecKind::Plan;
        return match plan.execute_shared_analyze(&db, state.cfg.exec_threads, cancel.as_ref()) {
            Ok((tuples, report)) => {
                ctx.record.rows = report.rows;
                ctx.analyze = report.render();
                let rows = render::rows_from_tuples(&db, &tuples);
                respond_rows(&rows, json)
            }
            Err(StorageError::Cancelled) => {
                state.metrics.timeouts.inc();
                Response::text(408, "deadline exceeded\n")
            }
            Err(e) => Response::text(500, format!("execution failed: {e}\n")),
        };
    }

    // Interpreter path: FLWOR, constructors, predicates outside the
    // planner fragment. It only reads the store, so it stays under the
    // read lock — unless it calls `createColor`, which adds a colored
    // tree and so serializes on the write lock.
    if !prepared.creates_color {
        state.metrics.query_read_lock.inc();
        ctx.record.exec = ExecKind::Interp;
        if let Some(r) = past_deadline(state, cancel.as_ref()) {
            return r;
        }
        let items = eval(&mut EvalContext::shared(&db).with_cancel(cancel), &prepared.expr);
        return respond_items(state, &db, items, ctx, json);
    }
    drop(db);
    let mut db = state.db.write().unwrap_or_else(PoisonError::into_inner);
    state.metrics.query_write_lock.inc();
    ctx.record.exec = ExecKind::CreateColor;
    if let Some(r) = past_deadline(state, cancel.as_ref()) {
        return r;
    }
    // One transaction, as an update is: a refused `createColor` leaves
    // the store as it was, and a successful one is committed — durable
    // under a WAL and shipped to replicas.
    let items = db.with_txn(|s| eval(&mut EvalContext::new(s).with_cancel(cancel), &prepared.expr));
    respond_items(state, &db, items, ctx, json)
}

/// Render the interpreter's answer, or its error.
fn respond_items<D: DiskManager>(
    state: &AppState<D>,
    stored: &StoredDb<D>,
    items: Result<Vec<Item>, EvalError>,
    ctx: &mut RequestCtx,
    json: bool,
) -> Response {
    let items = match items {
        Ok(items) => items,
        Err(EvalError::Storage(e)) => {
            return Response::text(500, format!("execution failed: {e}\n"))
        }
        Err(EvalError::Cancelled) => {
            state.metrics.timeouts.inc();
            return Response::text(408, "deadline exceeded\n");
        }
        Err(e) => return Response::text(400, format!("query error: {e}\n")),
    };
    ctx.record.rows = items.len() as u64;
    let rows = render::rows_from_items(stored, &items);
    respond_rows(&rows, json)
}

fn handle_update<D: DiskManager>(
    state: &AppState<D>,
    req: &Request,
    ctx: &mut RequestCtx,
) -> Response {
    let text = match req.body_str() {
        Ok(t) => t.trim(),
        Err(_) => return Response::text(400, "update body is not valid UTF-8\n"),
    };
    if text.is_empty() {
        return Response::text(400, "empty update\n");
    }
    ctx.query = Some(text.to_string());
    ctx.record.query_hash = fnv1a(text);
    let stmt = match parse_update(text) {
        Ok(s) => s,
        Err(e) => return Response::text(400, format!("parse error: {e}\n")),
    };
    let cancel = request_cancel(state, req);

    let mut db = state.db.write().unwrap_or_else(PoisonError::into_inner);
    // Failpoint for panic-containment tests, armed only when the
    // MCTD_TEST_PANIC env var is set: panics while the write lock is
    // held, exactly like a buggy update executor would. The catch in
    // `handle_request` must contain it to a `500` and the next request
    // must get the (un-poisoned-by-convention) lock.
    if req.header("x-test-panic").is_some() && std::env::var_os("MCTD_TEST_PANIC").is_some() {
        panic!("test-injected panic while holding the write lock");
    }
    // Deadline is only honored before the update starts; once running,
    // the statement either commits whole or rolls back whole (the
    // update executor wraps both phases in a store transaction).
    if let Some(r) = past_deadline(state, cancel.as_ref()) {
        return r;
    }
    let out = match execute_update_with(&mut db, &stmt, None) {
        Ok(o) => o,
        // The transaction has already rolled back: readers see the
        // exact pre-update store behind this 5xx.
        Err(EvalError::Storage(e)) => {
            return Response::text(500, format!("update failed (rolled back): {e}\n"))
        }
        Err(e) => return Response::text(400, format!("update error (rolled back): {e}\n")),
    };
    ctx.record.rows = out.tuples as u64;
    Response::text(
        200,
        format!(
            "{{\"tuples\":{},\"elements\":{},\"generation\":{}}}\n",
            out.tuples,
            out.elements,
            db.generation()
        ),
    )
    .content_type("application/json")
}

/// `GET /check` — run the deep consistency checker (mctck) over the
/// served database under the read lock. `200` with the report when the
/// store verifies, `500` with the violation list when it does not.
fn handle_check<D: DiskManager>(state: &AppState<D>) -> Response {
    let db = state.db.read().unwrap_or_else(PoisonError::into_inner);
    match db.check() {
        Ok(rep) => {
            let status = if rep.is_ok() { 200 } else { 500 };
            Response::text(status, format!("{rep}\n"))
        }
        Err(e) => Response::text(500, format!("check aborted: {e}\n")),
    }
}
