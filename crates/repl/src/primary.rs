//! The primary side of WAL shipping: accept replicas, bootstrap them
//! from a consistent snapshot (or resume them inside the live log),
//! then stream committed records as they appear.
//!
//! ## Snapshot cut
//!
//! A snapshot must capture *exactly* the committed state at one LSN.
//! The cut runs under the database **write** lock: `sync()` unless the
//! store is exactly its last commit (so the pages and the catalog
//! equal the committed state at the snapshot's LSN, and the next
//! chained catalog record extends the snapshot's version), then copy
//! every raw page and a rooted record of the catalog into memory. The frames stream
//! *after* the lock drops — a bootstrap never blocks the primary for
//! longer than one memory-speed page copy.
//!
//! ## Streaming
//!
//! The stream thread polls [`Wal::read_committed_after`] through
//! [`BufferPool::with_wal`] — the same mutex `commit` and `checkpoint`
//! hold for their whole multi-step sequences, so a tail read can never
//! observe a checkpoint relocation half-done (see the wal module's
//! relocation test). Only records at or below the last commit are ever
//! shipped: a replica, by construction, applies committed prefixes.
//!
//! ## Acking
//!
//! A per-connection reader thread consumes [`Frame::Ack`] messages and
//! records each replica's applied LSN in the shared registry, exported
//! through [`PrimaryHandle::replicas`] and the `repl.lag_*` gauges.
//!
//! [`Wal::read_committed_after`]: mct_storage::Wal::read_committed_after
//! [`BufferPool::with_wal`]: mct_storage::BufferPool::with_wal

use crate::proto::{self, Frame};
use mct_core::StoredDb;
use mct_obs::{Counter, Gauge};
use mct_storage::{DiskManager, PageId, ReplRecord, StorageError, TailCursor, PAGE_SIZE};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Primary-side tunables.
#[derive(Clone, Debug)]
pub struct PrimaryCfg {
    /// The primary's HTTP address (`host:port`), advertised to
    /// replicas so they can point rejected `/update`s at it.
    pub advertise_http: String,
    /// How often the stream thread polls the WAL for new commits.
    pub poll_interval: Duration,
    /// Per-poll byte budget — bounds how long one poll holds the WAL
    /// mutex and how much memory a batch pins.
    pub max_batch_bytes: u64,
    /// Fault injection for boundary-kill tests: after this many frames
    /// (counted across all connections), every send fails and the
    /// acceptor stops — the primary behaves as if it crashed at a
    /// message boundary. `None` in production.
    pub fail_after_frames: Option<u64>,
}

impl Default for PrimaryCfg {
    fn default() -> Self {
        PrimaryCfg {
            advertise_http: String::new(),
            poll_interval: Duration::from_millis(50),
            max_batch_bytes: 1 << 20,
            fail_after_frames: None,
        }
    }
}

/// What the primary knows about one replica.
#[derive(Clone, Debug, Default)]
pub struct ReplicaStatus {
    /// Highest commit LSN the replica has acked.
    pub acked_lsn: u64,
    /// Committed WAL bytes not yet streamed to it.
    pub lag_bytes: u64,
    /// Is the connection currently up?
    pub connected: bool,
}

struct Shared {
    shutdown: AtomicBool,
    /// Remaining frame budget when fault injection is armed (drops to
    /// zero and below = crashed); `i64::MAX` when not armed.
    frame_budget: AtomicI64,
    registry: Mutex<HashMap<String, ReplicaStatus>>,
    snapshots: Counter,
    lag_bytes: Gauge,
    lag_records: Gauge,
}

impl Shared {
    fn crashed(&self) -> bool {
        self.frame_budget.load(Ordering::SeqCst) <= 0
    }

    /// Export the aggregate lag gauges: worst lag over connected
    /// replicas (a primary with no replicas exports 0).
    fn export_lag(&self, committed_lsn: u64) {
        let reg = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        let mut worst_bytes = 0u64;
        let mut worst_records = 0u64;
        for st in reg.values().filter(|s| s.connected) {
            worst_bytes = worst_bytes.max(st.lag_bytes);
            worst_records = worst_records.max(committed_lsn.saturating_sub(st.acked_lsn));
        }
        self.lag_bytes.set(worst_bytes);
        self.lag_records.set(worst_records);
    }
}

/// A running replication listener. Dropping the handle does not stop
/// it; call [`PrimaryHandle::shutdown`].
pub struct PrimaryHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl PrimaryHandle {
    /// Bound address of the replication listener.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Snapshot of the per-replica status registry, sorted by id.
    pub fn replicas(&self) -> Vec<(String, ReplicaStatus)> {
        let reg = self
            .shared
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<_> = reg.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Has fault injection exhausted the frame budget? (Test hook for
    /// the boundary-kill suite; always false without
    /// [`PrimaryCfg::fail_after_frames`].)
    pub fn crash_injected(&self) -> bool {
        self.shared.crashed()
    }

    /// Lowest acked LSN across connected replicas (`None` when no
    /// replica is connected).
    pub fn min_acked_lsn(&self) -> Option<u64> {
        self.replicas()
            .into_iter()
            .filter(|(_, s)| s.connected)
            .map(|(_, s)| s.acked_lsn)
            .min()
    }

    /// Stop accepting, tear down every replica connection, and join
    /// all threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor if it is parked in accept(2).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let conns: Vec<_> = {
            let mut guard = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for c in conns {
            let _ = c.join();
        }
    }
}

fn sio(e: StorageError) -> io::Error {
    io::Error::other(format!("storage: {e}"))
}

/// Start serving the replication protocol on `listener` over the
/// shared database. The database must have a WAL attached — the WAL is
/// the thing being shipped.
pub fn start_primary<D>(
    listener: TcpListener,
    db: Arc<RwLock<StoredDb<D>>>,
    cfg: PrimaryCfg,
) -> io::Result<PrimaryHandle>
where
    D: DiskManager + Sync + 'static,
{
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        frame_budget: AtomicI64::new(match cfg.fail_after_frames {
            Some(n) => i64::try_from(n).unwrap_or(i64::MAX),
            None => i64::MAX,
        }),
        registry: Mutex::new(HashMap::new()),
        snapshots: mct_obs::counter("repl.snapshots"),
        lag_bytes: mct_obs::gauge("repl.lag_bytes"),
        lag_records: mct_obs::gauge("repl.lag_records"),
    });
    let conns = Arc::new(Mutex::new(Vec::new()));

    let acceptor = {
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("mct-repl-acceptor".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::SeqCst) || shared.crashed() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    let db = Arc::clone(&db);
                    let cfg = cfg.clone();
                    let handle = std::thread::Builder::new()
                        .name("mct-repl-conn".to_string())
                        .spawn(move || {
                            let _ = serve_replica(stream, &db, &cfg, &shared);
                        });
                    if let Ok(h) = handle {
                        conns
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(h);
                    }
                }
            })?
    };

    Ok(PrimaryHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        conns,
    })
}

/// Send one frame, charging the fault-injection budget. When the
/// budget runs dry the socket is slammed shut — from the replica's
/// side this is indistinguishable from the primary dying at a message
/// boundary, which is exactly what the crash tests want.
fn send(stream: &mut TcpStream, shared: &Shared, frame: &Frame) -> io::Result<()> {
    if shared.frame_budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
        let _ = stream.shutdown(Shutdown::Both);
        return Err(io::Error::other("injected primary crash at frame boundary"));
    }
    proto::write_frame(stream, frame)
}

/// Clears a replica's `connected` flag on any exit path.
struct Disconnect<'a>(&'a Shared, String);

impl Drop for Disconnect<'_> {
    fn drop(&mut self) {
        let mut reg = self
            .0
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(st) = reg.get_mut(&self.1) {
            st.connected = false;
        }
    }
}

/// Serve one replica connection to completion: HELLO, resume-or-
/// snapshot, then stream until disconnect or shutdown.
fn serve_replica<D>(
    mut stream: TcpStream,
    db: &Arc<RwLock<StoredDb<D>>>,
    cfg: &PrimaryCfg,
    shared: &Arc<Shared>,
) -> io::Result<()>
where
    D: DiskManager + Sync + 'static,
{
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;

    let (replica_lsn, replica_id) = match proto::read_frame(&mut stream)? {
        Frame::Hello {
            version,
            last_applied_lsn,
            replica_id,
        } => {
            if version != proto::VERSION {
                return Err(io::Error::other(format!(
                    "replica speaks protocol v{version}, primary v{}",
                    proto::VERSION
                )));
            }
            (last_applied_lsn, replica_id)
        }
        other => return Err(io::Error::other(format!("expected HELLO, got {other:?}"))),
    };
    let replica_id = if replica_id.is_empty() {
        stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "replica".to_string())
    } else {
        replica_id
    };

    {
        let mut reg = shared
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let st = reg.entry(replica_id.clone()).or_default();
        st.connected = true;
        st.acked_lsn = replica_lsn;
    }
    let _disconnect = Disconnect(shared, replica_id.clone());

    // Resume iff the replica's LSN is still inside the live log.
    let resumable = replica_lsn > 0 && {
        let dbr = db.read().unwrap_or_else(PoisonError::into_inner);
        dbr.pool
            .with_wal(|w| Ok((w.resume_floor(), w.committed_lsn())))
            .map(|(floor, committed)| floor <= replica_lsn && replica_lsn <= committed)
            .map_err(sio)?
    };

    let mut cursor = TailCursor::new();
    let after_lsn = if resumable {
        send(
            &mut stream,
            shared,
            &Frame::Resume {
                from_lsn: replica_lsn,
                primary_http: cfg.advertise_http.clone(),
            },
        )?;
        replica_lsn
    } else {
        // Snapshot cut: capture the committed state at one LSN under
        // the write lock, stream it after the lock drops.
        let (snap_lsn, num_pages, pages, catalog) = {
            let mut dbw = db.write().unwrap_or_else(PoisonError::into_inner);
            if !dbw.is_synced() {
                dbw.sync().map_err(sio)?;
            }
            let snap_lsn = dbw.pool.with_wal(|w| Ok(w.committed_lsn())).map_err(sio)?;
            let num_pages = dbw.pool.num_pages();
            let mut pages = Vec::with_capacity(num_pages as usize);
            let mut buf = [0u8; PAGE_SIZE];
            for p in 0..num_pages {
                dbw.pool.read_page_raw(PageId(p), &mut buf).map_err(sio)?;
                pages.push(buf.to_vec());
            }
            (snap_lsn, num_pages, pages, dbw.snapshot_catalog())
        };
        shared.snapshots.inc();
        send(
            &mut stream,
            shared,
            &Frame::SnapBegin {
                lsn: snap_lsn,
                num_pages,
                primary_http: cfg.advertise_http.clone(),
                catalog,
            },
        )?;
        for (p, image) in pages.into_iter().enumerate() {
            send(
                &mut stream,
                shared,
                &Frame::SnapPage {
                    page: p as u32,
                    image,
                },
            )?;
        }
        send(&mut stream, shared, &Frame::SnapEnd)?;
        snap_lsn
    };

    // ACK reader: a second thread on a cloned handle, so acks flow
    // while the stream side sits in a poll sleep.
    let ack_stop = Arc::new(AtomicBool::new(false));
    let ack_reader = {
        let mut rd = stream.try_clone()?;
        rd.set_read_timeout(Some(Duration::from_millis(500)))?;
        let stop = Arc::clone(&ack_stop);
        let shared = Arc::clone(shared);
        let id = replica_id.clone();
        std::thread::Builder::new()
            .name("mct-repl-ack".to_string())
            .spawn(move || loop {
                match proto::read_frame_idle(&mut rd, &stop) {
                    Ok(Some(Frame::Ack { applied_lsn })) => {
                        let mut reg = shared
                            .registry
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        if let Some(st) = reg.get_mut(&id) {
                            st.acked_lsn = st.acked_lsn.max(applied_lsn);
                        }
                    }
                    Ok(Some(_)) => continue, // tolerate unexpected frames
                    Ok(None) | Err(_) => return,
                }
            })?
    };

    let result = stream_committed(
        &mut stream,
        db,
        cfg,
        shared,
        &replica_id,
        &mut cursor,
        after_lsn,
    );

    ack_stop.store(true, Ordering::SeqCst);
    let _ = stream.shutdown(Shutdown::Both);
    let _ = ack_reader.join();
    result
}

/// Poll the WAL and ship committed records until shutdown, crash
/// injection, or a connection error.
fn stream_committed<D>(
    stream: &mut TcpStream,
    db: &Arc<RwLock<StoredDb<D>>>,
    cfg: &PrimaryCfg,
    shared: &Shared,
    replica_id: &str,
    cursor: &mut TailCursor,
    after_lsn: u64,
) -> io::Result<()>
where
    D: DiskManager + Sync + 'static,
{
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (records, remaining, committed) = {
            let dbr = db.read().unwrap_or_else(PoisonError::into_inner);
            dbr.pool
                .with_wal(|w| {
                    let (recs, rem) =
                        w.read_committed_after(cursor, after_lsn, cfg.max_batch_bytes)?;
                    Ok((recs, rem, w.committed_lsn()))
                })
                .map_err(sio)?
        };
        let idle = records.is_empty() && remaining == 0;
        for rec in records {
            let frame = match rec {
                ReplRecord::Image { lsn, page, image } => Frame::RecImage {
                    lsn,
                    page: page.0,
                    image,
                },
                ReplRecord::Commit {
                    lsn,
                    num_pages,
                    catalog,
                    checkpoint,
                } => Frame::RecCommit {
                    lsn,
                    checkpoint,
                    num_pages,
                    catalog,
                },
            };
            send(stream, shared, &frame)?;
        }
        send(
            stream,
            shared,
            &Frame::Heartbeat {
                committed_lsn: committed,
                lag_bytes: remaining,
            },
        )?;
        {
            let mut reg = shared
                .registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(st) = reg.get_mut(replica_id) {
                st.lag_bytes = remaining;
            }
        }
        shared.export_lag(committed);
        if idle {
            std::thread::sleep(cfg.poll_interval);
        }
    }
}
