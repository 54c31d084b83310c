//! The replica side of WAL shipping: bootstrap from a snapshot, apply
//! streamed commits under the server's write lock, ack progress, and
//! reconnect (resuming or re-bootstrapping) when the primary goes away.
//!
//! ## Apply protocol
//!
//! Image frames are buffered in memory; nothing touches the store
//! until the matching commit frame arrives, and then the whole batch
//! is applied under one write-lock section ([`StoredDb::apply_repl_image`]
//! per page + [`StoredDb::apply_repl_commit`]). Readers on the serving
//! side therefore only ever observe committed prefixes — the same
//! atomicity the primary's own readers get from its commit path.
//!
//! Most commits carry a catalog record chained onto the previous one.
//! Before installing a batch the replica checks that the record is
//! rooted or produces its own catalog version plus one
//! ([`StoredDb::check_catalog_base`]); if not, a commit went missing,
//! nothing of the batch is applied, and the replica re-bootstraps from
//! a snapshot.
//!
//! ## Reconnect
//!
//! On any stream error the replica reconnects with capped exponential
//! backoff, presenting its last applied LSN. The primary answers
//! `RESUME` when that LSN is still inside its live log; otherwise
//! (checkpoint truncation outran us) it sends a fresh snapshot and the
//! replica swaps in a whole new store, lifting the generation past the
//! old one so plan caches cannot serve stale plans. After a refused
//! record the replica presents LSN 0, which always gets a snapshot.

use crate::proto::{self, Frame};
use mct_core::StoredDb;
use mct_obs::{Counter, Gauge};
use mct_storage::{DiskManager, MemDisk, PageId, StorageError};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Replica-side tunables.
#[derive(Clone, Debug)]
pub struct ReplicaCfg {
    /// The primary's replication listener, `host:port`.
    pub primary: String,
    /// Stable identity reported in `HELLO` (shows up in the primary's
    /// status registry). Empty = let the primary use the peer address.
    pub replica_id: String,
    /// Buffer-pool capacity for the local store.
    pub pool_bytes: usize,
    /// First reconnect delay; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Reconnect delay cap.
    pub backoff_cap: Duration,
    /// How many connect attempts the *initial* bootstrap makes before
    /// [`start_replica`] gives up (later reconnects retry forever).
    pub connect_attempts: u32,
}

impl Default for ReplicaCfg {
    fn default() -> Self {
        ReplicaCfg {
            primary: String::new(),
            replica_id: String::new(),
            pool_bytes: 128 << 20,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            connect_attempts: 20,
        }
    }
}

struct Engine {
    cfg: ReplicaCfg,
    db: Arc<RwLock<StoredDb<MemDisk>>>,
    applied: AtomicU64,
    shutdown: AtomicBool,
    primary_http: Mutex<String>,
    snapshots: Counter,
    reconnects: Counter,
    lag_bytes: Gauge,
    lag_records: Gauge,
    applied_gauge: Gauge,
}

/// A running replica: the shared store it keeps in sync, plus the
/// applier thread. Serve reads from [`ReplicaHandle::db`]; call
/// [`ReplicaHandle::shutdown`] to stop.
pub struct ReplicaHandle {
    engine: Arc<Engine>,
    applier: Option<JoinHandle<()>>,
}

impl ReplicaHandle {
    /// The replicated store (share it with a server).
    pub fn db(&self) -> Arc<RwLock<StoredDb<MemDisk>>> {
        Arc::clone(&self.engine.db)
    }

    /// The primary's HTTP address, as advertised during bootstrap —
    /// where a replica's `421` responses point.
    pub fn primary_http(&self) -> String {
        self.engine
            .primary_http
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// LSN of the last commit applied locally.
    pub fn applied_lsn(&self) -> u64 {
        self.engine.applied.load(Ordering::SeqCst)
    }

    /// Block until the applied LSN reaches `lsn` (true) or `timeout`
    /// passes (false). Test/ops helper for "read your writes".
    pub fn wait_applied(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.applied_lsn() < lsn {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// Stop applying and join the applier thread. The store stays
    /// usable (frozen at the last applied commit).
    pub fn shutdown(mut self) {
        self.engine.shutdown.store(true, Ordering::SeqCst);
        if let Some(a) = self.applier.take() {
            let _ = a.join();
        }
    }
}

fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other(format!("no address resolved for {addr}")))?;
    let stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

fn sio(e: StorageError) -> io::Error {
    io::Error::other(format!("storage: {e}"))
}

/// Carry a refused catalog record through `io::Error` so the applier
/// can tell it from a broken connection.
fn stale_base(e: StorageError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn is_stale_base(e: &io::Error) -> bool {
    matches!(
        e.get_ref().and_then(|inner| inner.downcast_ref::<StorageError>()),
        Some(StorageError::CatalogBase { .. })
    )
}

/// Read a full snapshot (after its `SnapBegin`) into a fresh store.
fn read_snapshot(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    lsn: u64,
    num_pages: u32,
    catalog: &[u8],
    pool_bytes: usize,
) -> io::Result<(StoredDb<MemDisk>, u64)> {
    let mut disk = MemDisk::new();
    let mut received = 0u32;
    loop {
        match proto::read_frame_idle(stream, stop)? {
            Some(Frame::SnapPage { page, image }) => {
                while disk.num_pages() <= page {
                    disk.allocate().map_err(sio)?;
                }
                disk.write(PageId(page), &image).map_err(sio)?;
                received += 1;
            }
            Some(Frame::SnapEnd) => break,
            Some(other) => {
                return Err(io::Error::other(format!(
                    "unexpected frame inside snapshot: {other:?}"
                )))
            }
            None => return Err(io::Error::other("shutdown during snapshot")),
        }
    }
    if received != num_pages {
        return Err(io::Error::other(format!(
            "snapshot advertised {num_pages} pages, got {received}"
        )));
    }
    let store = StoredDb::from_snapshot(disk, catalog, pool_bytes).map_err(sio)?;
    Ok((store, lsn))
}

/// A freshly bootstrapped store and the snapshot LSN it captures,
/// present only when the primary answered the handshake with a
/// snapshot rather than a resume.
type Bootstrap = Option<(StoredDb<MemDisk>, u64)>;

/// Connect and perform the initial handshake, returning the stream
/// plus the bootstrap result: `Some(store)` if the primary sent a
/// snapshot, `None` if it resumed us at our applied LSN.
fn handshake(
    cfg: &ReplicaCfg,
    stop: &AtomicBool,
    applied: u64,
) -> io::Result<(TcpStream, String, Bootstrap)> {
    let mut stream = connect(&cfg.primary, Duration::from_secs(5))?;
    proto::write_frame(
        &mut stream,
        &Frame::Hello {
            version: proto::VERSION,
            last_applied_lsn: applied,
            replica_id: cfg.replica_id.clone(),
        },
    )?;
    match proto::read_frame_idle(&mut stream, stop)? {
        Some(Frame::Resume { primary_http, .. }) => Ok((stream, primary_http, None)),
        Some(Frame::SnapBegin {
            lsn,
            num_pages,
            primary_http,
            catalog,
        }) => {
            let snap = read_snapshot(&mut stream, stop, lsn, num_pages, &catalog, cfg.pool_bytes)?;
            proto::write_frame(&mut stream, &Frame::Ack { applied_lsn: snap.1 })?;
            Ok((stream, primary_http, Some(snap)))
        }
        Some(other) => Err(io::Error::other(format!(
            "expected RESUME or SNAP_BEGIN, got {other:?}"
        ))),
        None => Err(io::Error::other("shutdown during handshake")),
    }
}

/// Bootstrap from the primary and start the applier thread.
///
/// Blocks until the first snapshot is fully applied, so the returned
/// handle's store is immediately servable.
pub fn start_replica(cfg: ReplicaCfg) -> io::Result<ReplicaHandle> {
    let stop = AtomicBool::new(false);
    let mut attempt = 0u32;
    let (stream, primary_http, snap) = loop {
        match handshake(&cfg, &stop, 0) {
            Ok(ok) => break ok,
            Err(e) => {
                attempt += 1;
                if attempt >= cfg.connect_attempts.max(1) {
                    return Err(io::Error::other(format!(
                        "bootstrap from {} failed after {attempt} attempts: {e}",
                        cfg.primary
                    )));
                }
                std::thread::sleep(backoff(&cfg, attempt));
            }
        }
    };
    let (store, snap_lsn) = snap.ok_or_else(|| {
        // HELLO carried LSN 0, which is never inside the live log.
        io::Error::other("primary resumed a replica that has no store yet")
    })?;

    let engine = Arc::new(Engine {
        db: Arc::new(RwLock::new(store)),
        applied: AtomicU64::new(snap_lsn),
        shutdown: AtomicBool::new(false),
        primary_http: Mutex::new(primary_http),
        snapshots: mct_obs::counter("repl.snapshots"),
        reconnects: mct_obs::counter("repl.reconnects"),
        lag_bytes: mct_obs::gauge("repl.lag_bytes"),
        lag_records: mct_obs::gauge("repl.lag_records"),
        applied_gauge: mct_obs::gauge("repl.applied_lsn"),
        cfg,
    });
    engine.snapshots.inc();
    engine.applied_gauge.set(snap_lsn);

    let applier = {
        let engine = Arc::clone(&engine);
        std::thread::Builder::new()
            .name("mct-repl-applier".to_string())
            .spawn(move || applier_loop(&engine, stream))?
    };

    Ok(ReplicaHandle {
        engine,
        applier: Some(applier),
    })
}

fn backoff(cfg: &ReplicaCfg, attempt: u32) -> Duration {
    cfg.backoff_base
        .saturating_mul(1u32 << attempt.min(10))
        .min(cfg.backoff_cap)
}

/// Pump frames until shutdown, reconnecting (resume or re-bootstrap)
/// on any stream error.
fn applier_loop(engine: &Engine, mut stream: TcpStream) {
    loop {
        match pump(engine, &mut stream) {
            Ok(()) => return, // clean shutdown
            Err(e) => {
                // A refused record means our catalog is not the one the
                // stream extends: only a snapshot can repair that.
                let rebootstrap = is_stale_base(&e);
                if engine.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                engine.reconnects.inc();
                let mut attempt = 0u32;
                loop {
                    std::thread::sleep(backoff(&engine.cfg, attempt));
                    attempt = attempt.saturating_add(1);
                    if engine.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let applied = if rebootstrap {
                        0
                    } else {
                        engine.applied.load(Ordering::SeqCst)
                    };
                    match handshake(&engine.cfg, &engine.shutdown, applied) {
                        Ok((s, http, snap)) => {
                            *engine
                                .primary_http
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner) = http;
                            if let Some((store, lsn)) = snap {
                                // Truncation outran us: swap in the
                                // fresh store wholesale.
                                let mut w =
                                    engine.db.write().unwrap_or_else(PoisonError::into_inner);
                                let old_gen = w.generation();
                                *w = store;
                                w.set_generation_floor(old_gen + 1);
                                drop(w);
                                engine.applied.store(lsn, Ordering::SeqCst);
                                engine.applied_gauge.set(lsn);
                                engine.snapshots.inc();
                            }
                            stream = s;
                            break;
                        }
                        Err(_) => continue,
                    }
                }
            }
        }
    }
}

/// Apply frames from one healthy connection. `Ok(())` = shutdown was
/// requested; `Err` = the connection broke.
fn pump(engine: &Engine, stream: &mut TcpStream) -> io::Result<()> {
    // Images buffered until their commit frame; discarded wholesale if
    // the connection dies first (resume re-ships them).
    let mut pending: Vec<(PageId, Vec<u8>)> = Vec::new();
    loop {
        let frame = match proto::read_frame_idle(stream, &engine.shutdown)? {
            Some(f) => f,
            None => return Ok(()),
        };
        match frame {
            Frame::RecImage { page, image, .. } => {
                pending.push((PageId(page), image));
            }
            Frame::RecCommit {
                lsn,
                num_pages,
                catalog,
                ..
            } => {
                {
                    let mut db = engine.db.write().unwrap_or_else(PoisonError::into_inner);
                    db.check_catalog_base(&catalog).map_err(stale_base)?;
                    for (page, image) in pending.drain(..) {
                        db.apply_repl_image(page, &image).map_err(sio)?;
                    }
                    db.apply_repl_commit(num_pages, &catalog).map_err(sio)?;
                }
                engine.applied.store(lsn, Ordering::SeqCst);
                engine.applied_gauge.set(lsn);
                proto::write_frame(stream, &Frame::Ack { applied_lsn: lsn })?;
            }
            Frame::Heartbeat {
                committed_lsn,
                lag_bytes,
            } => {
                let applied = engine.applied.load(Ordering::SeqCst);
                engine.lag_bytes.set(lag_bytes);
                engine
                    .lag_records
                    .set(committed_lsn.saturating_sub(applied));
            }
            other => {
                return Err(io::Error::other(format!(
                    "unexpected frame on established stream: {other:?}"
                )))
            }
        }
    }
}
