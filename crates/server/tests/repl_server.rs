//! Two-node serving: a replication primary and a live replica, each
//! behind its own in-process HTTP front end. Covers the read path
//! (byte-identical query results once the replica catches up), the
//! write path (`/update` and `createColor` on the replica are
//! misdirected to the primary with `421` + `X-Primary`), and the `role`
//! field on `/healthz`.

use mct_core::StoredDb;
use mct_repl::{start_primary, start_replica, PrimaryCfg, ReplicaCfg};
use mct_server::{serve_shared, Client, ServerConfig};
use mct_storage::{BufferPool, MemDisk, Wal};
use mct_workloads::movies;
use std::net::TcpListener;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

const POOL: usize = 16 * 1024 * 1024;

/// The movies store on a WAL-backed pool (replication ships the WAL),
/// synced so the log has a committed baseline.
fn wal_movies_store() -> StoredDb<MemDisk> {
    let mut pool = BufferPool::new(MemDisk::new(), POOL);
    pool.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
    let mut s = StoredDb::build_on(pool, movies::build().db).unwrap();
    s.sync().unwrap();
    s
}

const Q_MOVIES: &str = "document(\"m\")/{red}descendant::movie";
const Q_AWARDS: &str = "document(\"m\")/{green}descendant::movie-award";
const Q_NOTES: &str = "document(\"m\")/{green}descendant::repl-note";
const UPDATE: &str = "for $y in document(\"m\")/{green}descendant::movie-award \
                      update $y { insert <repl-note>shipped</repl-note> }";

#[test]
fn two_node_cluster_misdirects_writes_and_converges_reads() {
    // Primary: shared store + HTTP front end + replication listener.
    let db = Arc::new(RwLock::new(wal_movies_store()));
    let primary_http = serve_shared(
        Arc::clone(&db),
        ServerConfig {
            repl_primary: true,
            ..ServerConfig::default()
        },
    )
    .expect("primary http");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let repl_addr = listener.local_addr().unwrap().to_string();
    let primary = start_primary(
        listener,
        Arc::clone(&db),
        PrimaryCfg {
            advertise_http: primary_http.addr().to_string(),
            poll_interval: Duration::from_millis(5),
            ..PrimaryCfg::default()
        },
    )
    .expect("primary repl");

    // Replica: bootstrap over the wire, then its own HTTP front end.
    let replica = start_replica(ReplicaCfg {
        primary: repl_addr,
        replica_id: "http-test".to_string(),
        pool_bytes: POOL,
        ..ReplicaCfg::default()
    })
    .expect("replica bootstraps");
    let replica_http = serve_shared(
        replica.db(),
        ServerConfig {
            primary_http: Some(replica.primary_http()),
            ..ServerConfig::default()
        },
    )
    .expect("replica http");

    let to_primary = Client::new("127.0.0.1", primary_http.port());
    let to_replica = Client::new("127.0.0.1", replica_http.port());

    // Roles are visible on /healthz.
    let h = to_primary.healthz().expect("primary healthz");
    assert!(
        h.body_str().contains("\"role\":\"primary\""),
        "primary healthz: {}",
        h.body_str()
    );
    let h = to_replica.healthz().expect("replica healthz");
    assert!(
        h.body_str().contains("\"role\":\"replica\""),
        "replica healthz: {}",
        h.body_str()
    );

    // Bootstrap state already serves byte-identical reads.
    for q in [Q_MOVIES, Q_AWARDS] {
        let p = to_primary.query(q).expect("primary query");
        let r = to_replica.query(q).expect("replica query");
        assert_eq!(p.status, 200, "{}", p.body_str());
        assert_eq!(r.status, 200, "{}", r.body_str());
        assert_eq!(p.body_str(), r.body_str(), "bootstrap diverged on {q}");
    }

    // Writes on the replica are misdirected, not executed.
    let reply = to_replica.update(UPDATE).expect("replica update reply");
    assert_eq!(reply.status, 421, "{}", reply.body_str());
    assert_eq!(
        reply.header("X-Primary"),
        Some(primary_http.addr().to_string().as_str()),
        "X-Primary must name the primary's HTTP address"
    );
    assert!(reply.body_str().contains("read-only replica"));

    // A write on the primary streams to the replica; reads reconverge.
    let reply = to_primary.update(UPDATE).expect("primary update reply");
    assert_eq!(reply.status, 200, "{}", reply.body_str());
    let expected = to_primary.query(Q_NOTES).expect("post-update query");
    assert_eq!(expected.status, 200);
    let expected = expected.body_str().to_string();
    assert!(
        expected.contains("repl-note"),
        "update must be visible on the primary"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = to_replica.query(Q_NOTES).expect("replica query");
        assert_eq!(got.status, 200, "{}", got.body_str());
        if got.body_str() == expected {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica never converged: {}",
            got.body_str()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    replica_http.shutdown();
    replica.shutdown();
    primary_http.shutdown();
    primary.shutdown();
}

/// `createColor` writes a colored tree, so a replica's front end
/// refuses it as it refuses `/update`: `421` + `X-Primary` before it
/// takes any lock (the store's write lock is held throughout), and the
/// replicated store keeps its palette.
#[test]
fn create_color_on_a_replica_is_misdirected_before_any_lock() {
    let db = Arc::new(RwLock::new(wal_movies_store()));
    let primary = "127.0.0.1:8642";
    let replica_http = serve_shared(
        Arc::clone(&db),
        ServerConfig {
            primary_http: Some(primary.to_string()),
            ..ServerConfig::default()
        },
    )
    .expect("replica http");
    let client = Client::new("127.0.0.1", replica_http.port()).with_timeout(Duration::from_secs(5));
    let colors = db.read().unwrap().db.palette.len();

    let held = db.write().unwrap();
    let create = r#"createColor("byv", <byv>{ document("m")/{green}descendant::movie }</byv>)"#;
    let reply = client.query(create).expect("a reply under the write lock");
    drop(held);
    assert_eq!(reply.status, 421, "{}", reply.body_str());
    assert_eq!(reply.header("X-Primary"), Some(primary));
    let db = db.read().unwrap();
    assert_eq!(db.db.palette.len(), colors);
    assert!(db.db.palette.get("byv").is_none());
    drop(db);
    replica_http.shutdown();
}
