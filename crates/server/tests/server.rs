//! End-to-end tests against a real listening `mctd` core.
//!
//! Every test starts an in-process server (`serve`) on an ephemeral
//! port and talks to it over real TCP via [`Client`] or raw sockets.
//! The metrics registry is process-global, so tests that assert on
//! counters/gauges serialize through [`test_lock`].

use mct_core::StoredDb;
use mct_query::{eval, parse_query, plan_path, EvalContext, Expr};
use mct_server::server::handle_request;
use mct_server::{
    render_xml, rows_from_items, rows_from_tuples, serve, AppState, Client, Json, Request,
    ServerConfig, ServerHandle,
};
use mct_workloads::{
    all_queries, movies, Dataset, Params, QueryKind, SigmodConfig, SigmodData, TpcwConfig,
    TpcwData,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const POOL: usize = 16 * 1024 * 1024;

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn movies_store() -> StoredDb {
    StoredDb::build(movies::build().db, POOL).expect("build movies")
}

fn start(cfg: ServerConfig) -> ServerHandle {
    serve(movies_store(), cfg).expect("server starts")
}

/// Expected `/query` XML body, computed by executing the plan directly
/// (no server) and rendering through the same shared renderer.
fn direct_xml(stored: &StoredDb, query: &str) -> String {
    let expr = parse_query(query).expect("parse");
    let Expr::Path(p) = &expr else {
        panic!("test queries must be bare paths")
    };
    let plan = plan_path(stored, p, true).expect("plannable");
    let tuples = plan.execute_shared(stored, 1, None).expect("direct execution");
    render_xml(&rows_from_tuples(stored, &tuples))
}

const Q_MOVIES: &str = "document(\"m\")/{red}descendant::movie";
const Q_NAMES: &str = "document(\"m\")/{red}descendant::movie/{red}child::name";
const Q_GENRES: &str = "document(\"m\")/{red}child::movie-genre";

#[test]
fn sixteen_concurrent_clients_get_byte_identical_results() {
    let _guard = test_lock();
    // Reference copy executed directly, server copy behind TCP.
    let reference = movies_store();
    let queries = [Q_MOVIES, Q_NAMES, Q_GENRES];
    let expected: Vec<String> = queries
        .iter()
        .map(|q| direct_xml(&reference, q))
        .collect();

    let handle = start(ServerConfig {
        workers: 4,
        exec_threads: 2,
        ..ServerConfig::default()
    });
    let port = handle.port();

    // The green hierarchy is untouched by the red-path queries above,
    // so this update churns generations (and the plan cache) without
    // changing any expected byte.
    let update = "for $y in document(\"m\")/{green}descendant::movie-award \
                  update $y { insert <stress-note>n</stress-note> }";

    std::thread::scope(|scope| {
        for client_id in 0..16 {
            let expected = &expected;
            scope.spawn(move || {
                let client = Client::new("127.0.0.1", port);
                for i in 0..20 {
                    if client_id < 4 && i % 10 == 5 {
                        let reply = client.update(update).expect("update reply");
                        assert_eq!(reply.status, 200, "{}", reply.body_str());
                    } else {
                        let qi = (client_id + i) % queries.len();
                        let reply = client.query(queries[qi]).expect("query reply");
                        assert_eq!(reply.status, 200, "{}", reply.body_str());
                        assert_eq!(
                            reply.body_str(),
                            expected[qi],
                            "client {client_id} request {i} diverged on {}",
                            queries[qi]
                        );
                    }
                }
            });
        }
    });

    let state = handle.state();
    assert!(
        state.cache.hits.get() > 0,
        "repeat queries must hit the plan cache"
    );
    handle.shutdown();
}

#[test]
fn malformed_requests_get_4xx_and_the_server_survives() {
    let _guard = test_lock();
    let handle = start(ServerConfig::default());
    let port = handle.port();

    let send_raw = |raw: &[u8], half_close: bool| -> String {
        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(raw).expect("write");
        if half_close {
            s.shutdown(std::net::Shutdown::Write).ok();
        }
        let mut out = Vec::new();
        s.read_to_end(&mut out).ok();
        String::from_utf8_lossy(&out).into_owned()
    };

    // (raw request, expected status fragment)
    let table: &[(&[u8], &str, bool)] = &[
        (b"GARBAGE\r\n\r\n", "400", false),
        (b"GET /query HTTP/9.9\r\n\r\n", "400", false),
        (b"GET /no-such-path HTTP/1.1\r\n\r\n", "404", false),
        (b"PUT /query HTTP/1.1\r\n\r\n", "405", false),
        (b"GET /metrics extra HTTP/1.1\r\n\r\n", "400", false),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: not-a-number\r\n\r\n",
            "400",
            false,
        ),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            "413",
            false,
        ),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\n\xff\xfe\xfd\xfc",
            "400",
            false,
        ),
        (b"POST /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n", "400", false),
        // Truncated mid-headers: the peer gives up, we answer 400.
        (b"GET /healthz HTTP/1.1\r\nHost: x\r\nPartial: ", "400", true),
    ];
    for (raw, status, half_close) in table {
        let got = send_raw(raw, *half_close);
        assert!(
            got.starts_with(&format!("HTTP/1.1 {status}")),
            "request {:?} expected {status}, got {:?}",
            String::from_utf8_lossy(raw),
            got.lines().next().unwrap_or("")
        );
    }

    // An oversized request line is cut off at the limit with 400/413,
    // not buffered forever.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
    let got = send_raw(long.as_bytes(), false);
    assert!(
        got.starts_with("HTTP/1.1 413") || got.starts_with("HTTP/1.1 400"),
        "oversized request line: {:?}",
        got.lines().next().unwrap_or("")
    );

    // After all that abuse the server still answers cleanly.
    let reply = Client::new("127.0.0.1", port).healthz().expect("health");
    assert_eq!(reply.status, 200);
    let health = Json::parse(reply.body_str().trim()).expect("healthz is JSON");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    handle.shutdown();
}

/// A query nested past `MAX_NESTING` is a 400, not a stack overflow
/// that aborts the process: 2 000 parentheses (a 4 KB request) used to
/// take `mctd` down with every connection on it.
#[test]
fn deeply_nested_queries_get_400_and_the_server_survives() {
    let _guard = test_lock();
    let handle = start(ServerConfig::default());
    let client = Client::new("127.0.0.1", handle.port());
    let parens = |levels: usize| format!("{}1{}", "(".repeat(levels), ")".repeat(levels));

    for levels in [2_000, mct_query::MAX_NESTING] {
        let reply = client.query(&parens(levels)).expect("past the limit");
        assert_eq!(reply.status, 400, "{levels} levels: {}", reply.body_str());
        assert!(reply.body_str().contains("nesting"), "{}", reply.body_str());
    }
    // The outermost expression is the first level.
    let at_limit = client.query(&parens(mct_query::MAX_NESTING - 1)).expect("at the limit");
    assert_eq!(at_limit.status, 200, "{}", at_limit.body_str());
    assert_eq!(client.healthz().expect("health").status, 200);
    handle.shutdown();
}

#[test]
fn deadline_exceeded_returns_408_and_inflight_returns_to_zero() {
    let _guard = test_lock();
    let handle = start(ServerConfig::default());
    let client = Client::new("127.0.0.1", handle.port());

    // X-Deadline-Ms: 0 expires before the first morsel-boundary check.
    let reply = client.query_with_deadline(Q_MOVIES, 0).expect("reply");
    assert_eq!(reply.status, 408, "{}", reply.body_str());

    let metrics = client.metrics().expect("metrics").body_str();
    let inflight = mct_server::prom_value(&metrics, "server.inflight");
    // The /metrics request itself is in flight while rendering the
    // snapshot, so the gauge legitimately reads 1 from inside.
    assert!(
        inflight == Some(0) || inflight == Some(1),
        "inflight gauge should be restored, got {inflight:?}"
    );
    assert_eq!(handle.state().metrics.inflight.get(), 0);
    assert!(handle.state().metrics.timeouts.get() >= 1);
    handle.shutdown();
}

#[test]
fn cached_plans_never_serve_stale_results_after_updates() {
    let _guard = test_lock();
    let handle = start(ServerConfig::default());
    let client = Client::new("127.0.0.1", handle.port());
    let state = handle.state();

    let before = client.query(Q_MOVIES).expect("cold query");
    assert_eq!(before.status, 200);
    let misses_after_cold = state.cache.misses.get();
    assert!(misses_after_cold >= 1);

    // Warm: same text, same bytes, served from the cache.
    let hits_before = state.cache.hits.get();
    let warm = client.query(Q_MOVIES).expect("warm query");
    assert_eq!(warm.body_str(), before.body_str());
    assert!(state.cache.hits.get() > hits_before, "second run must hit");

    // An update that changes the red hierarchy the query scans.
    let update = "for $g in document(\"m\")/{red}child::movie-genre \
                  where $g/{red}child::name = \"Comedy\" \
                  update $g { insert <movie>fresh-movie</movie> }";
    let reply = client.update(update).expect("update");
    assert_eq!(reply.status, 200, "{}", reply.body_str());

    // The cached plan is generation-stamped: the next lookup must
    // miss (invalidation), re-prepare, and see the new movie.
    let invalidations_before = state.cache.invalidations.get();
    let after = client.query(Q_MOVIES).expect("post-update query");
    assert_eq!(after.status, 200);
    assert_ne!(
        after.body_str(),
        before.body_str(),
        "stale cached result served after an update"
    );
    assert!(after.body_str().contains("fresh-movie"));
    assert!(state.cache.invalidations.get() > invalidations_before);
    handle.shutdown();
}

/// §4.3's `createColor` into a color the store has never seen.
const CREATE_BYV: &str =
    r#"createColor("byv", <byvotes>{ document("m")/{green}descendant::movie }</byvotes>)"#;

#[test]
fn create_color_over_http_keeps_the_store_checkable_and_queryable() {
    let _guard = test_lock();
    let handle = start(ServerConfig::default());
    let client = Client::new("127.0.0.1", handle.port());
    let created = client.query(CREATE_BYV).expect("createColor");
    assert_eq!(created.status, 200, "{}", created.body_str());
    let check = client.request("GET", "/check", None, &[]).expect("check");
    assert_eq!(check.status, 200, "zero violations: {}", check.body_str());
    // The new color is planned on the server; the interpreter on a
    // reference store that ran the same statement is the oracle.
    let q = r#"document("m")/{byv}descendant::movie"#;
    let served = client.query(q).expect("query the new color");
    assert_eq!(served.status, 200, "{}", served.body_str());
    let mut reference = movies_store();
    let mut ctx = EvalContext::new(&mut reference);
    eval(&mut ctx, &parse_query(CREATE_BYV).unwrap()).unwrap();
    let items = eval(&mut ctx, &parse_query(q).unwrap()).unwrap();
    assert_eq!(items.len(), 3, "every green movie sits in the new color");
    assert_eq!(
        served.body_str(),
        render_xml(&rows_from_items(&reference, &items))
    );
    handle.shutdown();
}

/// The paper's dupl-problem (§4.2): each tree would hold a movie's name
/// twice, so `createColor` refuses it.
const DUPL_PROBLEM: &str = r#"for $m in document("m")/{green}descendant::movie[{green}child::votes > 10]
    return createColor("black", <dupl-problem>
        <m1> { $m/{green}child::name } </m1>
        <m2> { $m/{green}child::name } </m2>
    </dupl-problem>)"#;

/// A refused `createColor` runs as one transaction that rolls back: a
/// 4xx, and not a node, color or catalog byte changed.
#[test]
fn a_refused_create_color_leaves_the_store_unchanged() {
    let _guard = test_lock();
    let handle = start(ServerConfig::default());
    let client = Client::new("127.0.0.1", handle.port());
    let observe = || {
        let db = handle.state().db.read().unwrap();
        let palette: Vec<String> = db.db.palette.iter().map(|(_, n)| n.to_string()).collect();
        (db.db.len(), palette, db.snapshot_catalog())
    };
    let before = observe();
    let refused = client.query(DUPL_PROBLEM).expect("reply");
    assert!((400..500).contains(&refused.status), "{}", refused.body_str());
    assert!(observe() == before, "a refused createColor changed the store");
    handle.shutdown();
}

/// A successful `createColor` on a WAL-backed store is committed by the
/// request that ran it, not left for the next `/update` to sync.
#[test]
fn create_color_on_a_wal_store_is_committed() {
    let _guard = test_lock();
    let (stored, _injector) = faulted_store();
    let handle = serve(stored, ServerConfig::default()).expect("server starts");
    let client = Client::new("127.0.0.1", handle.port());
    let created = client.query(CREATE_BYV).expect("createColor");
    assert_eq!(created.status, 200, "{}", created.body_str());
    let db = handle.state().db.read().unwrap();
    assert!(db.db.palette.get("byv").is_some());
    assert!(db.is_synced(), "createColor left uncommitted changes");
    drop(db);
    handle.shutdown();
}

/// A `createColor` past the 32-color palette is a query error: `400`,
/// the store unchanged and still checkable, the server serviceable.
#[test]
fn create_color_beyond_the_palette_is_refused_with_400() {
    let _guard = test_lock();
    let handle = start(ServerConfig::default());
    let client = Client::new("127.0.0.1", handle.port());
    let create = |k: usize| {
        client
            .query(&format!("createColor(\"k{k}\", <k{k}/>)"))
            .unwrap()
    };
    let colors = handle.state().db.read().unwrap().db.palette.len();
    for k in colors..32 {
        let reply = create(k);
        assert_eq!(reply.status, 200, "color {k}: {}", reply.body_str());
    }
    let before = handle.state().db.read().unwrap().snapshot_catalog();
    let refused = create(32);
    assert_eq!(refused.status, 400, "{}", refused.body_str());
    let body = refused.body_str();
    assert!(body.contains("palette"), "{body}");
    assert!(handle.state().db.read().unwrap().snapshot_catalog() == before);
    let check = client.request("GET", "/check", None, &[]).expect("check");
    assert_eq!(check.status, 200, "zero violations: {}", check.body_str());
    // An existing color is still found by name, not created.
    assert_eq!(create(31).status, 200);
    let served = client.query(Q_MOVIES).expect("query after the refusal");
    assert_eq!(served.status, 200, "{}", served.body_str());
    handle.shutdown();
}

#[test]
fn admission_control_rejects_beyond_the_queue_with_503() {
    let _guard = test_lock();
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let port = handle.port();
    let state = handle.state();

    // Pin the only worker: a keep-alive connection that completed one
    // request owns its worker until it closes.
    let mut pinned = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    pinned.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    pinned
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut first = [0u8; 512];
    let n = pinned.read(&mut first).expect("pinned response");
    assert!(String::from_utf8_lossy(&first[..n]).starts_with("HTTP/1.1 200"));

    // Fill the queue's single slot.
    let queued = TcpStream::connect(("127.0.0.1", port)).expect("connect queued");
    let accepted_target = state.metrics.accepted.get() + 1;
    let deadline = Instant::now() + Duration::from_secs(5);
    while state.metrics.accepted.get() < accepted_target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    // One more connection must bounce with 503 + Retry-After.
    let mut extra = TcpStream::connect(("127.0.0.1", port)).expect("connect extra");
    extra.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut raw = Vec::new();
    extra.read_to_end(&mut raw).expect("rejection note");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 503"), "got {text:?}");
    assert!(text.contains("Retry-After: 1"));
    assert!(state.metrics.rejected.get() >= 1);

    // Release the worker; the queued connection must then be served.
    drop(pinned);
    let mut queued = queued;
    queued.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut out = Vec::new();
    queued.read_to_end(&mut out).expect("queued response");
    assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 200"));
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_requests_without_loss() {
    let _guard = test_lock();
    let handle = start(ServerConfig {
        workers: 1, // everything funnels through one worker → real queue
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let port = handle.port();
    let state = handle.state();
    let accepted_before = state.metrics.accepted.get();

    const CLIENTS: usize = 8;
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let reply = Client::new("127.0.0.1", port)
                    .query(Q_NAMES)
                    .expect("drained request must still complete");
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(reply.status);
            });
        }

        // Let every connection reach the accept queue, then pull the
        // plug while most of them are still waiting for the worker.
        let deadline = Instant::now() + Duration::from_secs(5);
        while state.metrics.accepted.get() < accepted_before + CLIENTS as u64
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.initiate_shutdown();
    });

    let statuses = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(statuses.len(), CLIENTS, "no request may be dropped");
    assert!(
        statuses.iter().all(|s| *s == 200),
        "drained requests must succeed: {statuses:?}"
    );
    let served = handle.wait();
    assert!(served >= CLIENTS as u64);
}

#[test]
fn json_format_and_xml_format_round_trip() {
    let _guard = test_lock();
    let handle = start(ServerConfig::default());
    let client = Client::new("127.0.0.1", handle.port());

    // A leading `child::` step binds only roots of the red tree:
    // comedy and action (slapstick is comedy's child, so it is only
    // reached via `descendant::`).
    let xml = client.query(Q_GENRES).expect("xml");
    assert_eq!(xml.status, 200);
    assert_eq!(xml.header("content-type"), Some("application/xml"));
    assert!(xml.body_str().starts_with("<results count=\"2\">"));
    assert!(xml.body_str().contains("<node name=\"movie-genre\""));

    let json = client.query_json(Q_GENRES).expect("json");
    assert_eq!(json.status, 200);
    assert_eq!(json.header("content-type"), Some("application/json"));
    assert!(json.body_str().starts_with("{\"count\":2,"));
    assert!(json.body_str().contains("\"name\":\"movie-genre\""));

    // Interpreter-only query (FLWOR) over the write lock still works.
    let flwor = client
        .query("for $g in document(\"m\")/{red}child::movie-genre return $g/{red}child::name")
        .expect("flwor");
    assert_eq!(flwor.status, 200, "{}", flwor.body_str());
    assert!(flwor.body_str().contains("Comedy"));

    // Unparseable and unplannable-color queries are 400s.
    let bad = client.query("this is not MCXQuery ((").expect("bad");
    assert_eq!(bad.status, 400);
    let badcolor = client
        .query("document(\"m\")/{chartreuse}child::movie-genre")
        .expect("bad color");
    assert_eq!(badcolor.status, 400, "{}", badcolor.body_str());

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body_str().contains("# TYPE server_requests counter"));
    handle.shutdown();
}

/// Movies store on fault-injected disks with a WAL attached, synced
/// clean, so update transactions produce real write traffic.
fn faulted_store() -> (
    StoredDb<mct_storage::FaultDisk<mct_storage::MemDisk>>,
    mct_storage::FaultInjector,
) {
    use mct_storage::{BufferPool, FaultDisk, FaultInjector, MemDisk, Wal};
    let injector = FaultInjector::new(11);
    let data = FaultDisk::new(MemDisk::new(), injector.clone());
    let wal = Wal::create(Box::new(FaultDisk::new(MemDisk::new(), injector.clone()))).unwrap();
    let mut pool = BufferPool::new(data, POOL);
    pool.attach_wal(wal);
    let mut stored = StoredDb::build_on(pool, movies::build().db).expect("build movies");
    stored.sync().expect("initial sync");
    (stored, injector)
}

const UPDATE_FRESH: &str = "for $g in document(\"m\")/{red}child::movie-genre \
                            where $g/{red}child::name = \"Comedy\" \
                            update $g { insert <movie>fresh-movie</movie> }";

#[test]
fn mid_update_io_error_returns_500_and_readers_see_pre_update_state() {
    let _guard = test_lock();
    let (stored, injector) = faulted_store();
    let handle = serve(stored, ServerConfig::default()).expect("server starts");
    let client = Client::new("127.0.0.1", handle.port());

    let baseline = client.query(Q_MOVIES).expect("baseline query");
    assert_eq!(baseline.status, 200);
    let aborts_before =
        mct_server::prom_value(&client.metrics().unwrap().body_str(), "txn.aborts").unwrap_or(0);

    // Fail a write a few appends into the transaction — past the
    // TXN_BEGIN record, inside the undo-image traffic, well before the
    // commit point — so the statement must roll back whole.
    injector.fail_at_write(injector.writes() + 3);
    let reply = client.update(UPDATE_FRESH).expect("update reply");
    assert_eq!(reply.status, 500, "{}", reply.body_str());
    assert!(reply.body_str().contains("rolled back"), "{}", reply.body_str());
    injector.disarm();

    // Readers see exactly the pre-update store...
    let after = client.query(Q_MOVIES).expect("post-fault query");
    assert_eq!(after.body_str(), baseline.body_str());
    assert!(!after.body_str().contains("fresh-movie"));
    // ...the deep checker finds nothing wrong...
    let check = client.request("GET", "/check", None, &[]).expect("check");
    assert_eq!(check.status, 200, "{}", check.body_str());
    assert!(check.body_str().contains("zero violations"));
    // ...and the abort is visible in the metrics.
    let aborts_after =
        mct_server::prom_value(&client.metrics().unwrap().body_str(), "txn.aborts").unwrap();
    assert!(aborts_after > aborts_before);

    // With the fault gone the same statement goes through.
    let retry = client.update(UPDATE_FRESH).expect("retry");
    assert_eq!(retry.status, 200, "{}", retry.body_str());
    let committed = client.query(Q_MOVIES).expect("post-commit query");
    assert!(committed.body_str().contains("fresh-movie"));
    let check = client.request("GET", "/check", None, &[]).expect("check");
    assert_eq!(check.status, 200, "{}", check.body_str());
    handle.shutdown();
}

#[test]
fn panicking_update_is_contained_and_the_server_stays_serviceable() {
    let _guard = test_lock();
    std::env::set_var("MCTD_TEST_PANIC", "1");
    let handle = start(ServerConfig::default());
    let client = Client::new("127.0.0.1", handle.port());

    let baseline = client.query(Q_MOVIES).expect("baseline");
    assert_eq!(baseline.status, 200);

    // The failpoint panics while the write lock is held.
    let reply = client
        .request("POST", "/update", Some(UPDATE_FRESH), &[("X-Test-Panic", "1")])
        .expect("panic reply");
    assert_eq!(reply.status, 500, "{}", reply.body_str());
    std::env::remove_var("MCTD_TEST_PANIC");

    // The write lock was released and nothing was applied: queries and
    // updates keep working on the unchanged store.
    let after = client.query(Q_MOVIES).expect("post-panic query");
    assert_eq!(after.status, 200);
    assert_eq!(after.body_str(), baseline.body_str());
    let check = client.request("GET", "/check", None, &[]).expect("check");
    assert_eq!(check.status, 200, "{}", check.body_str());
    let update = client.update(UPDATE_FRESH).expect("post-panic update");
    assert_eq!(update.status, 200, "{}", update.body_str());
    assert!(client.query(Q_MOVIES).unwrap().body_str().contains("fresh-movie"));
    handle.shutdown();
}

#[test]
fn transaction_and_check_metrics_are_exported() {
    let _guard = test_lock();
    let (stored, injector) = faulted_store();
    let handle = serve(stored, ServerConfig::default()).expect("server starts");
    let client = Client::new("127.0.0.1", handle.port());

    let grab = |name: &str| -> u64 {
        mct_server::prom_value(&client.metrics().unwrap().body_str(), name).unwrap_or(0)
    };
    let begins0 = grab("txn.begins");
    let commits0 = grab("txn.commits");
    let aborts0 = grab("txn.aborts");
    let undos0 = grab("wal.undo_records");

    // One committed update, one aborted one.
    assert_eq!(client.update(UPDATE_FRESH).unwrap().status, 200);
    injector.fail_at_write(injector.writes() + 3);
    assert_eq!(client.update(UPDATE_FRESH).unwrap().status, 500);
    injector.disarm();

    assert!(grab("txn.begins") >= begins0 + 2);
    assert!(grab("txn.commits") > commits0);
    assert!(grab("txn.aborts") > aborts0);
    assert!(grab("wal.undo_records") > undos0, "undo records must be logged");

    // /check bumps its run counter and reports zero violations.
    let runs0 = grab("check.runs");
    let check = client.request("GET", "/check", None, &[]).expect("check");
    assert_eq!(check.status, 200, "{}", check.body_str());
    assert!(grab("check.runs") > runs0);
    assert_eq!(grab("check.violations"), 0);
    handle.shutdown();
}

#[test]
fn healthz_reports_uptime_and_every_response_carries_a_request_id() {
    let _guard = test_lock();
    let handle = start(ServerConfig::default());
    let client = Client::new("127.0.0.1", handle.port());

    let reply = client.healthz().expect("health");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("application/json"));
    let health = Json::parse(reply.body_str().trim()).expect("healthz is JSON");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    let start_unix = health.get("start_unix").unwrap().as_u64().unwrap();
    assert!(start_unix > 1_500_000_000, "start_unix looks like a unix time");
    assert!(health.get("uptime_seconds").unwrap().as_u64().is_some());

    // Request ids are monotone across requests and echoed on every
    // endpoint, including errors.
    let id1: u64 = reply.header("x-request-id").expect("id header").parse().unwrap();
    let reply2 = client.query("not a query ((").expect("bad query");
    assert_eq!(reply2.status, 400);
    let id2: u64 = reply2.header("x-request-id").expect("id header").parse().unwrap();
    assert!(id2 > id1, "ids must be monotone: {id1} then {id2}");

    // /metrics exports the uptime gauge and the process start time.
    let metrics = client.metrics().expect("metrics").body_str();
    assert!(metrics.contains("server_uptime_seconds"));
    let exported_start = mct_server::prom_value(&metrics, "process.start_unix").unwrap();
    assert_eq!(exported_start, start_unix);
    // Histogram quantile lines made it into the export (satellite a).
    assert!(
        metrics.contains("server_latency_healthz{quantile=\"0.99\"}"),
        "quantile lines missing from /metrics"
    );
    handle.shutdown();
}

#[test]
fn slow_log_captures_queries_over_the_threshold_with_analyze_trees() {
    let _guard = test_lock();
    // Threshold zero: every query qualifies, so the test needs no
    // artificially slow work.
    let handle = start(ServerConfig {
        slow_threshold: Some(Duration::ZERO),
        slow_capacity: 4,
        ..ServerConfig::default()
    });
    let client = Client::new("127.0.0.1", handle.port());

    for _ in 0..2 {
        assert_eq!(client.query(Q_NAMES).unwrap().status, 200);
    }
    assert_eq!(client.query(Q_GENRES).unwrap().status, 200);

    let reply = client.slow().expect("slow");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("application/json"));
    let v = Json::parse(reply.body_str().trim()).expect("/slow is JSON");
    assert_eq!(v.get("threshold_ms").unwrap().as_u64(), Some(0));
    assert!(v.get("captured_total").unwrap().as_u64().unwrap() >= 3);
    let entries = v.get("entries").unwrap().as_array().unwrap();
    assert!(!entries.is_empty() && entries.len() <= 4, "{}", entries.len());
    // Newest first: the Q_GENRES query leads, with a real per-stage
    // analyze tree from the execution that was captured.
    let newest = &entries[0];
    assert_eq!(newest.get("query").unwrap().as_str(), Some(Q_GENRES));
    assert_eq!(newest.get("exec").unwrap().as_str(), Some("plan"));
    let analyze = newest.get("analyze").unwrap().as_str().unwrap();
    assert!(analyze.contains("rows "), "analyze tree present: {analyze}");
    assert!(analyze.contains("total: "), "totals footer present");
    // A later Q_NAMES entry was a plan-cache hit.
    assert!(entries
        .iter()
        .any(|e| e.get("cache").unwrap().as_str() == Some("hit")));
    handle.shutdown();
}

#[test]
fn stats_returns_a_monotone_window_covering_the_traffic() {
    let _guard = test_lock();
    let handle = start(ServerConfig {
        stats_interval: Duration::from_millis(25),
        stats_window: 64,
        ..ServerConfig::default()
    });
    let client = Client::new("127.0.0.1", handle.port());

    // Traffic spread over several sampler ticks: queries plus one
    // guaranteed error (unparseable query).
    for i in 0..30 {
        let q = if i == 7 { "((" } else { Q_NAMES };
        client.query(q).expect("query reply");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let the sampler take at least one more tick after the traffic.
    std::thread::sleep(Duration::from_millis(60));

    let reply = client.stats(64).expect("stats");
    assert_eq!(reply.status, 200);
    let v = Json::parse(reply.body_str().trim()).expect("/stats is JSON");
    assert_eq!(v.get("interval_ms").unwrap().as_u64(), Some(25));
    let samples = v.get("samples").unwrap().as_array().unwrap();
    assert!(samples.len() >= 3, "several ticks: {}", samples.len());
    // Timestamps are monotone non-decreasing.
    let stamps: Vec<u64> = samples
        .iter()
        .map(|s| s.get("unix_ms").unwrap().as_u64().unwrap())
        .collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    // The aggregate accounts for at least the traffic we sent that
    // landed inside sampled windows, and the error shows up.
    let agg = v.get("aggregate").unwrap();
    let requests = agg.get("requests").unwrap().as_u64().unwrap();
    assert!(requests >= 20, "window covers the traffic: {requests}");
    assert!(agg.get("errors").unwrap().as_u64().unwrap() >= 1);
    assert!(agg.get("qps").unwrap().as_f64().unwrap() > 0.0);
    assert!(agg.get("p50_us").unwrap().as_u64().unwrap() > 0);
    // A narrower window is a suffix of the wide one.
    let narrow = client.stats(2).expect("narrow stats");
    let nv = Json::parse(narrow.body_str().trim()).unwrap();
    assert!(nv.get("samples").unwrap().as_array().unwrap().len() <= 2);
    handle.shutdown();
}

#[test]
fn request_log_writes_one_parseable_line_per_request_with_unique_ids() {
    let _guard = test_lock();
    let dir = std::env::temp_dir().join(format!("mctd-reqlog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("requests.jsonl");
    let _ = std::fs::remove_file(&path);

    let handle = start(ServerConfig {
        log_json: Some(path.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    });
    let client = Client::new("127.0.0.1", handle.port());

    assert_eq!(client.query(Q_NAMES).unwrap().status, 200); // miss
    assert_eq!(client.query(Q_NAMES).unwrap().status, 200); // hit
    assert_eq!(client.query("((").unwrap().status, 400); // parse error
    let update = "for $g in document(\"m\")/{red}child::movie-genre \
                  where $g/{red}child::name = \"Comedy\" \
                  update $g { insert <logged-movie>x</logged-movie> }";
    assert_eq!(client.update(update).unwrap().status, 200);
    assert_eq!(client.healthz().unwrap().status, 200);
    handle.shutdown(); // drains and flushes

    let text = std::fs::read_to_string(&path).expect("request log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "one line per request:\n{text}");
    let parsed: Vec<Json> = lines
        .iter()
        .map(|l| Json::parse(l).expect("log line is JSON"))
        .collect();

    // Ids are unique; endpoints, outcomes, and exec kinds line up.
    let ids: std::collections::HashSet<u64> = parsed
        .iter()
        .map(|v| v.get("id").unwrap().as_u64().unwrap())
        .collect();
    assert_eq!(ids.len(), 5, "request ids must be unique");
    assert_eq!(parsed[0].get("endpoint").unwrap().as_str(), Some("/query"));
    assert_eq!(parsed[0].get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(parsed[0].get("exec").unwrap().as_str(), Some("plan"));
    assert_eq!(parsed[1].get("cache").unwrap().as_str(), Some("hit"));
    // Identical query text → identical hash; both differ from idle.
    assert_eq!(
        parsed[0].get("query_hash").unwrap().as_str(),
        parsed[1].get("query_hash").unwrap().as_str()
    );
    assert_eq!(parsed[2].get("status").unwrap().as_u64(), Some(400));
    assert_eq!(parsed[2].get("outcome").unwrap().as_str(), Some("error"));
    assert_eq!(parsed[3].get("endpoint").unwrap().as_str(), Some("/update"));
    assert!(parsed[3].get("rows").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(parsed[4].get("endpoint").unwrap().as_str(), Some("/healthz"));
    assert_eq!(parsed[4].get("query_hash").unwrap().as_str(), Some("0000000000000000"));
    for v in &parsed {
        assert!(v.get("latency_us").unwrap().as_u64().is_some());
        assert!(v.get("ts_ms").unwrap().as_u64().unwrap() > 1_500_000_000_000);
    }
    let _ = std::fs::remove_file(&path);
}

/// A small TPC-W store (MCT design) and its `TQ1..TQ16` texts.
fn tpcw_reads() -> (StoredDb, Vec<(&'static str, String)>) {
    let data = TpcwData::generate(&TpcwConfig { scale: 0.05, seed: 1 });
    let sigmod = SigmodData::generate(&SigmodConfig { scale: 0.02, seed: 1 });
    let params = Params::derive(&data, &sigmod);
    let reads = all_queries(&params)
        .into_iter()
        .filter(|q| q.dataset == Dataset::Tpcw && q.kind == QueryKind::Read)
        .map(|q| (q.id, q.mct_text))
        .collect();
    let stored = StoredDb::build(data.build_mct(), POOL).expect("build tpcw");
    (stored, reads)
}

fn post_query(text: &str) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/query".to_string(),
        query: None,
        headers: Vec::new(),
        body: text.as_bytes().to_vec(),
    }
}

/// Send `text` to `/query` through the handler on a thread of its own;
/// the receiver gets the reply's status.
fn query_on_thread(state: &Arc<AppState>, text: &'static str) -> Receiver<u16> {
    let (tx, rx) = mpsc::channel();
    let state = Arc::clone(state);
    std::thread::spawn(move || {
        let _ = tx.send(handle_request(&state, &post_query(text)).status);
    });
    rx
}

/// An interpreted read that constructs elements runs beside a reader
/// holding the lock; only `createColor` waits for the write lock.
#[test]
fn constructing_reads_run_under_a_held_read_lock_and_create_color_waits() {
    let _guard = test_lock();
    let handle = start(ServerConfig::default());
    let state = handle.state();
    let held = state.db.read().unwrap();
    let flwor = query_on_thread(
        state,
        r#"for $m in document("m")/{green}descendant::movie
           return <m>{ $m/{green}child::name }</m>"#,
    );
    assert_eq!(
        flwor.recv_timeout(Duration::from_secs(10)),
        Ok(200),
        "a FLWOR query must not wait for another reader"
    );
    let create = query_on_thread(state, CREATE_BYV);
    assert!(
        create.recv_timeout(Duration::from_millis(300)).is_err(),
        "createColor must wait for the write lock"
    );
    drop(held);
    assert_eq!(create.recv_timeout(Duration::from_secs(10)), Ok(200));
    handle.shutdown();
}

/// TQ16 builds a `<group>` per expensive item. Its runs through the
/// read path leave the store exactly as it was.
#[test]
fn constructing_reads_leave_the_store_unchanged() {
    let _guard = test_lock();
    let (stored, reads) = tpcw_reads();
    let tq16 = &reads.iter().find(|(id, _)| *id == "TQ16").expect("TQ16").1;
    let handle = serve(stored, ServerConfig::default()).expect("server starts");
    let state = handle.state();
    let fingerprint = || {
        let db = state.db.read().unwrap();
        (db.db.len(), db.generation(), db.snapshot_catalog())
    };
    let before = fingerprint();
    let first = handle_request(state, &post_query(tq16));
    let body = String::from_utf8_lossy(&first.body).into_owned();
    assert_eq!(first.status, 200, "{body}");
    assert!(body.contains("<node name=\"group\" colors=\"\">"), "{body}");
    for _ in 1..1000 {
        assert_eq!(handle_request(state, &post_query(tq16)).status, 200);
    }
    assert!(fingerprint() == before, "a read changed the store");
    handle.shutdown();
}

/// A round of `TQ1..TQ16` counts only read-lock executions and logs
/// them as shared interpreter runs; `createColor` counts one write-lock
/// execution, logged as exclusive.
#[test]
fn queries_count_and_log_the_lock_they_took() {
    let _guard = test_lock();
    let dir = std::env::temp_dir().join(format!("mctd-locklog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("requests.jsonl");
    let _ = std::fs::remove_file(&path);
    let (stored, reads) = tpcw_reads();
    let handle = serve(
        stored,
        ServerConfig {
            log_json: Some(path.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let client = Client::new("127.0.0.1", handle.port());
    let metrics = &handle.state().metrics;
    let counts = || (metrics.query_read_lock.get(), metrics.query_write_lock.get());

    let (read0, write0) = counts();
    for (id, text) in &reads {
        let reply = client.query(text).expect("reply");
        assert_eq!(reply.status, 200, "{id}: {}", reply.body_str());
    }
    assert_eq!(counts(), (read0 + reads.len() as u64, write0));
    let created = client
        .query(r#"createColor("k", <k>{ document("tpcw")/{auth}descendant::author[1] }</k>)"#)
        .expect("createColor");
    assert_eq!(created.status, 200, "{}", created.body_str());
    assert_eq!(counts(), (read0 + reads.len() as u64, write0 + 1));
    handle.shutdown();

    let text = std::fs::read_to_string(&path).expect("request log written");
    let exec: Vec<String> = text
        .lines()
        .map(|l| Json::parse(l).expect("log line is JSON"))
        .map(|v| v.get("exec").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(exec.len(), reads.len() + 1, "{text}");
    assert!(exec[..reads.len()].iter().all(|e| e == "interp" || e == "plan"), "{exec:?}");
    assert!(exec.contains(&"interp".to_string()), "{exec:?}");
    assert_eq!(exec[reads.len()], "interp_exclusive");
    let _ = std::fs::remove_file(&path);
}

/// An interpreted cross product honors its deadline: three unrelated
/// `for` bindings over a TPC-W store would run for minutes, yet the
/// reply is `408` within about a second, and an update sent meanwhile
/// gets the write lock about as soon.
#[test]
fn an_interpreted_cross_product_gets_408_at_its_deadline_and_frees_the_lock() {
    let _guard = test_lock();
    let (stored, _) = tpcw_reads();
    let handle = serve(stored, ServerConfig::default()).expect("server starts");
    let state = Arc::clone(handle.state());
    let timeouts = state.metrics.timeouts.get();
    let all = r#"document("tpcw")/{cust}descendant::node()"#;
    let mut query = post_query(&format!(
        "for $a in {all}, $b in {all}, $c in {all} where $c/{{cust}}child::nosuch return $a"
    ));
    query.headers.push(("x-deadline-ms".to_string(), "100".to_string()));
    let started = Instant::now();
    let (tx, query_status) = mpsc::channel();
    let s = Arc::clone(&state);
    std::thread::spawn(move || {
        let _ = tx.send(handle_request(&s, &query).status);
    });
    std::thread::sleep(Duration::from_millis(20));
    let mut update = post_query(
        r#"for $a in document("tpcw")/{auth}descendant::author
           where $a/{auth}child::name = "nobody"
           update $a { replace value of $a/{auth}child::name with "x" }"#,
    );
    update.path = "/update".to_string();
    let (tx, update_status) = mpsc::channel();
    let s = Arc::clone(&state);
    std::thread::spawn(move || {
        let _ = tx.send(handle_request(&s, &update).status);
    });
    assert_eq!(query_status.recv_timeout(Duration::from_secs(3)), Ok(408));
    assert_eq!(update_status.recv_timeout(Duration::from_secs(3)), Ok(200));
    assert!(
        started.elapsed() < Duration::from_millis(1500),
        "both replies took {:?}",
        started.elapsed()
    );
    assert_eq!(state.metrics.timeouts.get(), timeouts + 1);
    handle.shutdown();
}
