//! Concurrent buffer pool: sharded page table, pin-counted frames,
//! clock-sweep eviction.
//!
//! Every page operation goes through `&self`, so any number of reader
//! threads can share one pool (writes to the *same* page are
//! serialized by the per-frame lock). The design:
//!
//! * the page table is split across [`NUM_SHARDS`] `RwLock`-protected
//!   shards, so table lookups by different threads rarely contend;
//! * each frame carries its own `RwLock` (many concurrent readers of
//!   one hot page), a **pin count** advising the eviction sweep to
//!   pass it over, and a reference bit;
//! * eviction is a **clock sweep** (second chance): O(1) amortized,
//!   replacing the old O(n) `min_by_key` LRU scan, and it only takes
//!   frames whose lock it can claim without blocking.
//!
//! Pin counts are advisory; correctness does not depend on them.
//! After pinning, an accessor re-checks the frame's page id under the
//! frame lock and retries the table lookup if an eviction won the
//! race. The sweep claims a frame via `try_write`, so a frame being
//! read is never stolen mid-access.
//!
//! Lock order is `frame → shard → disk`; table lookups drop the shard
//! lock *before* touching the frame, so the two never deadlock.
//! Closures passed to [`BufferPool::with_page`] /
//! [`BufferPool::with_page_mut`] must not re-enter the pool for the
//! same page (self-deadlock on the frame lock); nested access to
//! *different* pages is safe but discouraged — every call site in this
//! repository completes its closure without re-entering.
//!
//! [`BufferPool::with_page_mut`] marks the frame dirty (and records it
//! for the next commit) *unconditionally* — it cannot know whether the
//! closure wrote. Read-only call sites must use
//! [`BufferPool::with_page`], or they turn every access into a
//! writeback and a WAL page image.
//!
//! The pool owns the physical page envelope (see [`crate::page`]):
//! consumers are handed only the [`crate::page::PAGE_BODY`]-byte body
//! slice. Each checksum is verified on every miss — bit rot surfaces
//! as [`StorageError::Corrupt`] — and stamped on every writeback. The
//! miss path is failure-atomic: when the disk read errors or the
//! checksum fails, the provisional table entry is removed and the
//! victim frame returns to a clean free state (no corrupt bytes
//! retained), so a retry or a fetch of a different page behaves as if
//! the failed fetch never happened. With a [`Wal`] attached, the pool
//! also tracks which pages were dirtied since the last commit;
//! [`BufferPool::commit`] logs their images, writes a commit record,
//! and fsyncs the log before it writes the pages back, so a crash at
//! any write boundary is recoverable. Commit assumes the single-writer
//! model (writes require `&mut` access at the database layer) and must
//! not race other commits or writers.
//!
//! [`BufferPool::begin_txn`] opens a pool-level transaction: the
//! first write to each pre-existing page captures its before-image
//! (and, with a WAL, logs an undo record), so
//! [`BufferPool::abort_txn`] can restore every touched page and
//! truncate away every transaction-allocated one — with or without a
//! log. Commit ends the transaction as a winner; a crash instead
//! leaves it a loser for WAL recovery to undo.

use crate::disk::DiskManager;
use crate::error::StorageError;
use crate::page::{
    page_lsn, set_page_lsn, stamp_page_checksum, verify_page_checksum, PageId, PAGE_HEADER,
    PAGE_SIZE,
};
use crate::wal::Wal;
use crate::Result;
use mct_obs::Counter;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Hit/miss/eviction counters. Lifetime totals — they are never
/// reset; per-query consumers take a [`BufferPool::stats`] mark
/// before the query and diff with [`PoolStats::delta_since`] after,
/// so EXPLAIN ANALYZE and bench reports can coexist without
/// clobbering each other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that had to read from disk.
    pub misses: u64,
    /// Evictions performed (clean or dirty).
    pub evictions: u64,
    /// Dirty-page writebacks.
    pub writebacks: u64,
    /// Page reads that failed checksum verification.
    pub corrupt_reads: u64,
    /// Page reads/writes that failed with an I/O error.
    pub io_errors: u64,
}

impl PoolStats {
    /// Counters accumulated since `mark` (an earlier
    /// [`BufferPool::stats`] snapshot): `self - mark`, saturating.
    pub fn delta_since(&self, mark: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(mark.hits),
            misses: self.misses.saturating_sub(mark.misses),
            evictions: self.evictions.saturating_sub(mark.evictions),
            writebacks: self.writebacks.saturating_sub(mark.writebacks),
            corrupt_reads: self.corrupt_reads.saturating_sub(mark.corrupt_reads),
            io_errors: self.io_errors.saturating_sub(mark.io_errors),
        }
    }

    /// Total page requests (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

impl std::ops::Sub for PoolStats {
    type Output = PoolStats;
    fn sub(self, mark: PoolStats) -> PoolStats {
        self.delta_since(&mark)
    }
}

/// Global-registry handles mirroring [`PoolStats`], shared by every
/// pool in the process (`storage.pool.*`, `storage.corrupt_reads`,
/// `storage.io_errors`), plus `storage.pool.fsyncs`: data-file fsyncs,
/// which only [`BufferPool::checkpoint`] issues.
struct PoolCounters {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    writebacks: Counter,
    corrupt_reads: Counter,
    io_errors: Counter,
    fsyncs: Counter,
}

fn pool_counters() -> &'static PoolCounters {
    static C: OnceLock<PoolCounters> = OnceLock::new();
    C.get_or_init(|| PoolCounters {
        hits: mct_obs::counter("storage.pool.hits"),
        misses: mct_obs::counter("storage.pool.misses"),
        evictions: mct_obs::counter("storage.pool.evictions"),
        writebacks: mct_obs::counter("storage.pool.writebacks"),
        corrupt_reads: mct_obs::counter("storage.corrupt_reads"),
        io_errors: mct_obs::counter("storage.io_errors"),
        fsyncs: mct_obs::counter("storage.pool.fsyncs"),
    })
}

/// Global-registry handles for transaction activity (`txn.*`), bumped
/// by every pool in the process.
struct TxnCounters {
    begins: Counter,
    commits: Counter,
    aborts: Counter,
}

fn txn_counters() -> &'static TxnCounters {
    static C: OnceLock<TxnCounters> = OnceLock::new();
    C.get_or_init(|| TxnCounters {
        begins: mct_obs::counter("txn.begins"),
        commits: mct_obs::counter("txn.commits"),
        aborts: mct_obs::counter("txn.aborts"),
    })
}

/// Per-pool atomic counters (the `&self` twin of [`PoolStats`]); every
/// bump also feeds the process-wide `mct-obs` registry.
#[derive(Default)]
struct SharedStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    corrupt_reads: AtomicU64,
    io_errors: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            corrupt_reads: self.corrupt_reads.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        pool_counters().hits.inc();
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        pool_counters().misses.inc();
    }

    fn eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        pool_counters().evictions.inc();
    }

    fn writeback(&self) {
        self.writebacks.fetch_add(1, Ordering::Relaxed);
        pool_counters().writebacks.inc();
    }

    fn corrupt_read(&self) {
        self.corrupt_reads.fetch_add(1, Ordering::Relaxed);
        pool_counters().corrupt_reads.inc();
    }

    /// Record the I/O-error metric when `e` is [`StorageError::Io`].
    fn note_error(&self, e: &StorageError) {
        if matches!(e, StorageError::Io(_)) {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            pool_counters().io_errors.inc();
        }
    }
}

// Poison-tolerant lock helpers: a panicking closure in one thread must
// not wedge every other thread on a PoisonError (the stress tests rely
// on this). The guarded data is bytes + flags whose invariants are
// re-established by the caller, not broken mid-panic.
fn rlock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wlock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn mlock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Contents of one frame, guarded by the frame's `RwLock`. The page
/// buffer is allocated lazily on first use, so a large pool costs only
/// frame metadata until pages actually flow through it.
struct FrameSlot {
    page: Option<PageId>,
    dirty: bool,
    buf: Option<Box<[u8; PAGE_SIZE]>>,
}

impl FrameSlot {
    fn buf_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.buf.get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }
}

struct Frame {
    slot: RwLock<FrameSlot>,
    /// Accessors holding (or about to take) the slot lock. Advisory:
    /// the sweep skips pinned frames, but correctness comes from the
    /// post-pin page-id re-check, not from the count.
    pins: AtomicU32,
    /// Clock-sweep reference bit (second chance).
    referenced: AtomicBool,
}

/// Unpins its frame on drop, so a panicking access closure cannot leak
/// a pin and permanently shield the frame from eviction.
struct PinGuard<'a> {
    frame: &'a Frame,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.frame.pins.fetch_sub(1, Ordering::Release);
    }
}

/// Pool-level state of one in-flight transaction (see
/// [`BufferPool::begin_txn`]). Before-images are captured at first
/// touch, so `before` maps each pre-existing page the transaction
/// dirtied to its contents as of the begin.
struct PoolTxn {
    id: u64,
    /// Data-file page count at begin. Allocation is monotonic, so any
    /// page at or past this was allocated by the transaction and is
    /// dropped wholesale on abort.
    base_pages: u32,
    /// First-touch before-images of pages that existed at begin.
    before: HashMap<PageId, Box<[u8; PAGE_SIZE]>>,
}

/// Page-table shard count (power of two). Pages hash by id, which is
/// sequential, so shards load-balance perfectly.
const NUM_SHARDS: usize = 16;

/// Full clock sweeps attempted before declaring the pool exhausted
/// (every frame pinned or locked).
const MAX_SWEEPS: usize = 8;

/// A fixed-capacity concurrent page cache over a [`DiskManager`].
pub struct BufferPool<D: DiskManager> {
    disk: Mutex<D>,
    frames: Vec<Frame>,
    shards: Vec<RwLock<HashMap<PageId, usize>>>,
    /// Clock hand for the eviction sweep.
    clock: AtomicUsize,
    stats: SharedStats,
    wal: Mutex<Option<Wal>>,
    /// Mirrors `wal.is_some()`; only mutated under `&mut self`, so the
    /// hot path can check it without locking.
    wal_attached: bool,
    /// Pages dirtied since the last commit; tracked only with a WAL.
    dirty_since_commit: Mutex<BTreeSet<PageId>>,
    /// In-flight transaction, if any (at most one: the single-writer
    /// model serializes writers at the database layer).
    txn: Mutex<Option<PoolTxn>>,
    /// Mirrors `txn.is_some()` so the write hot path can skip the
    /// mutex when no transaction is open.
    txn_active: AtomicBool,
}

impl<D: DiskManager> BufferPool<D> {
    /// Create a pool of `capacity_bytes / PAGE_SIZE` frames (min 8).
    pub fn new(disk: D, capacity_bytes: usize) -> Self {
        let n = (capacity_bytes / PAGE_SIZE).max(8);
        BufferPool {
            disk: Mutex::new(disk),
            frames: (0..n)
                .map(|_| Frame {
                    slot: RwLock::new(FrameSlot {
                        page: None,
                        dirty: false,
                        buf: None,
                    }),
                    pins: AtomicU32::new(0),
                    referenced: AtomicBool::new(false),
                })
                .collect(),
            shards: (0..NUM_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            clock: AtomicUsize::new(0),
            stats: SharedStats::default(),
            wal: Mutex::new(None),
            wal_attached: false,
            dirty_since_commit: Mutex::new(BTreeSet::new()),
            txn: Mutex::new(None),
            txn_active: AtomicBool::new(false),
        }
    }

    /// Maximum number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Current counters (lifetime totals — see [`PoolStats`] for the
    /// mark/delta pattern that replaces resetting).
    pub fn stats(&self) -> PoolStats {
        self.stats.snapshot()
    }

    /// Underlying disk manager (mutable; e.g. to inject faults).
    pub fn disk_mut(&mut self) -> &mut D {
        self.disk
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Attach a write-ahead log. From here on, pages dirtied through
    /// the pool are tracked and [`BufferPool::commit`] becomes the
    /// durability boundary.
    pub fn attach_wal(&mut self, wal: Wal) {
        *self
            .wal
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(wal);
        self.wal_attached = true;
    }

    /// Whether a WAL is attached.
    pub fn has_wal(&self) -> bool {
        self.wal_attached
    }

    /// Whether a transaction is currently open.
    pub fn txn_active(&self) -> bool {
        self.txn_active.load(Ordering::Acquire)
    }

    /// The attached WAL (mutable), if any.
    pub fn wal_mut(&mut self) -> Option<&mut Wal> {
        self.wal
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_mut()
    }

    /// Pages dirtied since the last commit (zero without a WAL). A
    /// read-only access must not grow this.
    pub fn dirty_since_commit_count(&self) -> usize {
        mlock(&self.dirty_since_commit).len()
    }

    /// Live bytes in the attached WAL (zero without one): the input to
    /// the auto-checkpoint policy and the `wal.bytes` gauge.
    pub fn wal_bytes(&self) -> u64 {
        mlock(&self.wal).as_ref().map_or(0, |w| w.len_bytes())
    }

    /// Run `f` against the attached WAL under the pool's WAL mutex.
    ///
    /// This is the shared-read guard for log **tail readers**
    /// (replication): [`BufferPool::commit`] and
    /// [`BufferPool::checkpoint`] hold the same mutex for their whole
    /// append/relocate sequence, so a tail read serialized through
    /// here can never observe a checkpoint relocation half-done. A
    /// [`crate::wal::TailCursor`] held *across* calls can still go
    /// stale (a relocation between two reads); its LSN fence handles
    /// that by rescanning from the live start. Errors when no WAL is
    /// attached. `f` must not re-enter the pool.
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> Result<R>) -> Result<R> {
        let mut guard = mlock(&self.wal);
        let wal = guard
            .as_mut()
            .ok_or(StorageError::Corrupt("with_wal without an attached WAL"))?;
        f(wal)
    }

    /// Install a full page image shipped from a replication stream:
    /// overwrite the resident frame when cached (marked dirty so it
    /// reaches disk), else stamp the checksum and write straight
    /// through. Pages past the current end of file are allocated.
    /// Exclusive-writer, like the redo path it mirrors — the replica
    /// applies batches under its database write lock.
    pub fn install_image(&self, id: PageId, image: &[u8]) -> Result<()> {
        debug_assert_eq!(image.len(), PAGE_SIZE);
        while mlock(&self.disk).num_pages() <= id.0 {
            mlock(&self.disk).allocate()?;
        }
        loop {
            let Some(fi) = rlock(self.shard_of(id)).get(&id).copied() else {
                break;
            };
            let mut slot = wlock(&self.frames[fi].slot);
            if slot.page == Some(id) {
                slot.buf_mut().copy_from_slice(image);
                slot.dirty = true;
                return Ok(());
            }
            // Evicted between lookup and lock; look again.
        }
        let mut buf = [0u8; PAGE_SIZE];
        buf.copy_from_slice(image);
        stamp_page_checksum(&mut buf);
        if let Err(e) = mlock(&self.disk).write(id, &buf) {
            self.stats.note_error(&e);
            return Err(e);
        }
        Ok(())
    }

    /// Copy the raw physical page (envelope + body) into `buf`: from
    /// the resident frame when cached (checksum re-stamped so the copy
    /// is self-verifying), else straight from disk. Snapshot shipping
    /// reads the committed file through this after a flush.
    pub fn read_page_raw(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        loop {
            let Some(fi) = rlock(self.shard_of(id)).get(&id).copied() else {
                break;
            };
            let slot = rlock(&self.frames[fi].slot);
            if slot.page == Some(id) {
                let fbuf = slot.buf.as_ref().expect("resident frame has a buffer");
                buf.copy_from_slice(&fbuf[..]);
                stamp_page_checksum(buf);
                return Ok(());
            }
            // Evicted between lookup and lock; look again.
        }
        if let Err(e) = mlock(&self.disk).read(id, buf) {
            self.stats.note_error(&e);
            return Err(e);
        }
        Ok(())
    }

    /// Shrink the data file to `n` pages, dropping any cached frames
    /// past the new end (replication commit apply: the shipped commit
    /// names the authoritative page count). Exclusive-writer.
    pub fn truncate_pages(&self, n: u32) -> Result<()> {
        for frame in &self.frames {
            let mut slot = wlock(&frame.slot);
            if let Some(p) = slot.page {
                if p.0 >= n {
                    wlock(self.shard_of(p)).remove(&p);
                    slot.page = None;
                    slot.dirty = false;
                }
            }
        }
        mlock(&self.disk).truncate(n)?;
        Ok(())
    }

    /// Tear the pool down into its disk and WAL (cached pages are
    /// dropped, not flushed — commit first for durability).
    pub fn into_parts(self) -> (D, Option<Wal>) {
        (
            self.disk
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            self.wal
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Allocate a fresh page; it enters the cache zeroed and dirty.
    pub fn allocate(&self) -> Result<PageId> {
        let id = mlock(&self.disk).allocate()?;
        let (fi, mut slot) = self.claim_victim()?;
        self.release_occupant(&mut slot)?;
        slot.buf_mut().fill(0);
        slot.page = Some(id);
        slot.dirty = true;
        self.frames[fi].referenced.store(true, Ordering::Relaxed);
        wlock(self.shard_of(id)).insert(id, fi);
        if self.wal_attached {
            mlock(&self.dirty_since_commit).insert(id);
        }
        Ok(id)
    }

    /// Number of pages allocated on disk.
    pub fn num_pages(&self) -> u32 {
        mlock(&self.disk).num_pages()
    }

    /// Run `f` over an immutable view of page `id`'s body (the page
    /// minus its physical envelope). Concurrent readers of the same
    /// page run in parallel.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        loop {
            let pin = self.pin(id)?;
            let slot = rlock(&pin.frame.slot);
            if slot.page == Some(id) {
                let buf = slot.buf.as_ref().expect("resident frame has a buffer");
                return Ok(f(&buf[PAGE_HEADER..]));
            }
            // Evicted between the table lookup and the frame lock; the
            // table is authoritative — look it up again.
        }
    }

    /// Run `f` over a mutable view of page `id`'s body; marks it dirty
    /// (and queues it for the next commit) **unconditionally** — the
    /// pool cannot observe whether the closure wrote. Read-only
    /// accesses belong on [`BufferPool::with_page`].
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        loop {
            let pin = self.pin(id)?;
            let mut slot = wlock(&pin.frame.slot);
            if slot.page == Some(id) {
                // Capture the transaction before-image *before* the
                // closure can write: if the undo append fails, the
                // page is still unmodified and the error aborts the
                // update with nothing to roll back for this page.
                if self.txn_active.load(Ordering::Acquire) {
                    let buf = slot.buf.as_ref().expect("resident frame has a buffer");
                    self.txn_capture(id, buf)?;
                }
                slot.dirty = true;
                if self.wal_attached {
                    mlock(&self.dirty_since_commit).insert(id);
                }
                let buf = slot.buf.as_mut().expect("resident frame has a buffer");
                return Ok(f(&mut buf[PAGE_HEADER..]));
            }
        }
    }

    /// Record `id`'s before-image in the open transaction (first touch
    /// only; pages the transaction itself allocated need no undo — the
    /// abort truncates them away). Appends a WAL undo record when a
    /// log is attached. Called with the frame lock held; takes the
    /// `txn` then `wal` mutexes, which never deadlocks against
    /// [`BufferPool::commit`]'s `wal → frame` order because commit is
    /// an exclusive-writer operation and so never races a write.
    fn txn_capture(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        let mut guard = mlock(&self.txn);
        let Some(txn) = guard.as_mut() else {
            return Ok(());
        };
        if id.0 >= txn.base_pages || txn.before.contains_key(&id) {
            return Ok(());
        }
        if self.wal_attached {
            if let Some(wal) = mlock(&self.wal).as_mut() {
                wal.append_undo(txn.id, id, &buf[..])?;
            }
        }
        txn.before.insert(id, Box::new(*buf));
        Ok(())
    }

    /// The LSN stamped on page `id` (zero if never committed).
    pub fn page_lsn(&self, id: PageId) -> Result<u64> {
        loop {
            let pin = self.pin(id)?;
            let slot = rlock(&pin.frame.slot);
            if slot.page == Some(id) {
                let buf = slot.buf.as_ref().expect("resident frame has a buffer");
                return Ok(page_lsn(&buf[..]));
            }
        }
    }

    fn shard_of(&self, id: PageId) -> &RwLock<HashMap<PageId, usize>> {
        &self.shards[id.0 as usize & (NUM_SHARDS - 1)]
    }

    /// Pin the frame holding `id`, loading the page on a miss. The
    /// caller must still verify the frame's page id under the frame
    /// lock — a concurrent eviction can win the race between the table
    /// lookup and the pin.
    fn pin(&self, id: PageId) -> Result<PinGuard<'_>> {
        loop {
            // The shard lock is dropped before the frame is touched
            // (lock order: frame before shard, never both ways).
            let found = rlock(self.shard_of(id)).get(&id).copied();
            if let Some(fi) = found {
                let frame = &self.frames[fi];
                frame.pins.fetch_add(1, Ordering::Acquire);
                frame.referenced.store(true, Ordering::Relaxed);
                self.stats.hit();
                return Ok(PinGuard { frame });
            }
            if let Some(fi) = self.load(id)? {
                return Ok(PinGuard {
                    frame: &self.frames[fi],
                });
            }
            // Lost the load race: another thread claimed the table
            // entry for `id` first. Retry the lookup.
        }
    }

    /// Read `id` from disk into a victim frame. Returns `None` when a
    /// concurrent load of the same page won the race. Failure-atomic:
    /// on read error or checksum mismatch the provisional table entry
    /// is removed and the frame returns to a clean free state.
    fn load(&self, id: PageId) -> Result<Option<usize>> {
        let (fi, mut slot) = self.claim_victim()?;
        self.release_occupant(&mut slot)?;
        {
            let mut shard = wlock(self.shard_of(id));
            if shard.contains_key(&id) {
                return Ok(None); // the frame stays free for later use
            }
            shard.insert(id, fi);
        }
        self.stats.miss();
        let read = {
            let buf = slot.buf_mut();
            match mlock(&self.disk).read(id, &mut buf[..]) {
                Ok(()) if verify_page_checksum(&buf[..]) => Ok(()),
                Ok(()) => {
                    self.stats.corrupt_read();
                    Err(StorageError::Corrupt("page checksum mismatch"))
                }
                Err(e) => {
                    self.stats.note_error(&e);
                    Err(e)
                }
            }
        };
        if let Err(e) = read {
            wlock(self.shard_of(id)).remove(&id);
            if let Some(buf) = slot.buf.as_mut() {
                buf.fill(0); // no corrupt bytes left behind
            }
            slot.page = None;
            slot.dirty = false;
            return Err(e);
        }
        slot.page = Some(id);
        slot.dirty = false;
        let frame = &self.frames[fi];
        frame.referenced.store(true, Ordering::Relaxed);
        // Pin before releasing the frame lock so the sweep passes us by.
        frame.pins.fetch_add(1, Ordering::Acquire);
        Ok(Some(fi))
    }

    /// Clock sweep (second chance): claim an unpinned, unreferenced
    /// frame whose lock is free, write-locked. Frames are skipped, not
    /// waited on, so a reader mid-access is never stolen from.
    fn claim_victim(&self) -> Result<(usize, RwLockWriteGuard<'_, FrameSlot>)> {
        let n = self.frames.len();
        for sweep in 0..MAX_SWEEPS {
            for _ in 0..n {
                let fi = self.clock.fetch_add(1, Ordering::Relaxed) % n;
                let frame = &self.frames[fi];
                if frame.pins.load(Ordering::Acquire) != 0 {
                    continue;
                }
                if frame.referenced.swap(false, Ordering::Relaxed) {
                    continue; // second chance
                }
                let slot = match frame.slot.try_write() {
                    Ok(g) => g,
                    Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => continue,
                };
                // A pin taken after our check means someone wants this
                // page; leave it to them.
                if frame.pins.load(Ordering::Acquire) != 0 {
                    continue;
                }
                return Ok((fi, slot));
            }
            if sweep + 1 < MAX_SWEEPS {
                std::thread::yield_now();
            }
        }
        Err(StorageError::PoolExhausted)
    }

    /// Write back and unmap a claimed frame's current occupant (frame
    /// write guard held by the caller). Failure-atomic: when the
    /// write-back errors, the frame keeps its page and dirty flag, so
    /// the data is neither lost nor aliased on a later retry.
    fn release_occupant(&self, slot: &mut FrameSlot) -> Result<()> {
        let Some(old) = slot.page else {
            return Ok(());
        };
        if slot.dirty {
            let buf = slot.buf.as_mut().expect("dirty frame has a buffer");
            stamp_page_checksum(&mut buf[..]);
            if let Err(e) = mlock(&self.disk).write(old, &buf[..]) {
                self.stats.note_error(&e);
                return Err(e);
            }
            slot.dirty = false;
            self.stats.writeback();
        }
        self.stats.eviction();
        wlock(self.shard_of(old)).remove(&old);
        slot.page = None;
        Ok(())
    }

    /// Write every dirty frame back; the cache stays warm.
    pub fn flush_all(&self) -> Result<()> {
        for frame in &self.frames {
            let mut slot = wlock(&frame.slot);
            if slot.dirty {
                if let Some(id) = slot.page {
                    let buf = slot.buf.as_mut().expect("dirty frame has a buffer");
                    stamp_page_checksum(&mut buf[..]);
                    if let Err(e) = mlock(&self.disk).write(id, &buf[..]) {
                        self.stats.note_error(&e);
                        return Err(e);
                    }
                    self.stats.writeback();
                    slot.dirty = false;
                }
            }
        }
        Ok(())
    }

    /// Cold-cache mode: flush everything and drop all frames.
    pub fn evict_all(&self) -> Result<()> {
        self.flush_all()?;
        for frame in &self.frames {
            let mut slot = wlock(&frame.slot);
            if let Some(old) = slot.page {
                wlock(self.shard_of(old)).remove(&old);
                slot.page = None;
                slot.dirty = false;
            }
            frame.referenced.store(false, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Open a transaction: from here until [`BufferPool::commit`] or
    /// [`BufferPool::abort_txn`], the first write to each pre-existing
    /// page captures its before-image (and logs a WAL undo record when
    /// a log is attached), so the whole write set can be rolled back.
    ///
    /// At most one transaction may be open (single-writer model);
    /// nesting is an error. Like commit, begin/abort are
    /// exclusive-writer operations: concurrent readers are fine,
    /// concurrent writers are not.
    pub fn begin_txn(&self, id: u64) -> Result<()> {
        let mut txn = mlock(&self.txn);
        if txn.is_some() {
            return Err(StorageError::Corrupt("nested transaction"));
        }
        if self.wal_attached {
            if let Some(wal) = mlock(&self.wal).as_mut() {
                wal.append_txn_begin(id)?;
            }
        }
        *txn = Some(PoolTxn {
            id,
            base_pages: mlock(&self.disk).num_pages(),
            before: HashMap::new(),
        });
        self.txn_active.store(true, Ordering::Release);
        txn_counters().begins.inc();
        Ok(())
    }

    /// Close the open transaction as committed *without* a durability
    /// point — the pool has no WAL, so the write set simply stays
    /// live and the undo images are dropped. WAL-attached pools must
    /// go through [`BufferPool::commit`] instead. Returns the
    /// transaction's id.
    pub fn end_txn(&self) -> Result<u64> {
        let Some(txn) = mlock(&self.txn).take() else {
            return Err(StorageError::Corrupt("end_txn without an open transaction"));
        };
        self.txn_active.store(false, Ordering::Release);
        txn_counters().commits.inc();
        Ok(txn.id)
    }

    /// Roll the open transaction back: restore every captured
    /// before-image (into the frame when resident, straight to disk
    /// when evicted), drop and truncate every page the transaction
    /// allocated, and log a WAL abort record. Restored pages stay in
    /// the dirty set so the next commit re-logs and re-flushes them.
    /// Returns the aborted transaction's id.
    pub fn abort_txn(&self) -> Result<u64> {
        let Some(txn) = mlock(&self.txn).take() else {
            return Err(StorageError::Corrupt("abort without an open transaction"));
        };
        self.txn_active.store(false, Ordering::Release);
        for (&id, image) in &txn.before {
            self.restore_image(id, image)?;
        }
        let base = txn.base_pages;
        for frame in &self.frames {
            let mut slot = wlock(&frame.slot);
            if let Some(p) = slot.page {
                if p.0 >= base {
                    wlock(self.shard_of(p)).remove(&p);
                    slot.page = None;
                    slot.dirty = false;
                }
            }
        }
        if self.wal_attached {
            mlock(&self.dirty_since_commit).retain(|p| p.0 < base);
        }
        mlock(&self.disk).truncate(base)?;
        if self.wal_attached {
            if let Some(wal) = mlock(&self.wal).as_mut() {
                wal.append_txn_abort(txn.id)?;
            }
        }
        txn_counters().aborts.inc();
        Ok(txn.id)
    }

    /// Put one before-image back: into the resident frame when the
    /// page is cached, else straight to disk (checksum re-stamped so a
    /// later read verifies). Exclusive-writer, like the abort it
    /// serves.
    fn restore_image(&self, id: PageId, image: &[u8; PAGE_SIZE]) -> Result<()> {
        loop {
            let Some(fi) = rlock(self.shard_of(id)).get(&id).copied() else {
                break;
            };
            let mut slot = wlock(&self.frames[fi].slot);
            if slot.page == Some(id) {
                slot.buf_mut().copy_from_slice(&image[..]);
                slot.dirty = true;
                if self.wal_attached {
                    mlock(&self.dirty_since_commit).insert(id);
                }
                return Ok(());
            }
            // Evicted between lookup and lock; look again.
        }
        let mut buf = *image;
        stamp_page_checksum(&mut buf);
        if let Err(e) = mlock(&self.disk).write(id, &buf) {
            self.stats.note_error(&e);
            return Err(e);
        }
        if self.wal_attached {
            mlock(&self.dirty_since_commit).insert(id);
        }
        Ok(())
    }

    /// Commit: make everything dirtied since the last commit durable.
    ///
    /// Protocol (redo-only WAL):
    /// 1. log the full image of every page dirtied since the last
    ///    commit, stamping each with its record's LSN and checksum;
    /// 2. log a commit record carrying the data-file page count and
    ///    the caller's `catalog` blob;
    /// 3. fsync the log — the commit point;
    /// 4. write dirty frames back to the data file, without an fsync.
    ///
    /// A crash before step 3 recovers the previous commit; after it,
    /// this one (recovery replays the logged images over the data
    /// file). The log fsync is the commit's only one: between
    /// checkpoints the data file is consistent only together with the
    /// log, whose images since its start repair any write-back the
    /// crash lost, and [`BufferPool::checkpoint`] fsyncs the data file
    /// before the log drops them. Returns the commit record's LSN.
    ///
    /// Commit is an exclusive-writer operation: concurrent readers are
    /// fine, but racing it against writers or another commit is not
    /// supported (the database layer's `&mut` write path enforces
    /// this).
    pub fn commit(&self, catalog: &[u8]) -> Result<u64> {
        let mut wal_guard = mlock(&self.wal);
        let wal = wal_guard
            .as_mut()
            .ok_or(StorageError::Corrupt("commit without an attached WAL"))?;
        let pages: Vec<PageId> = std::mem::take(&mut *mlock(&self.dirty_since_commit))
            .into_iter()
            .collect();
        if let Err(e) = self.log_images(wal, &pages) {
            self.stats.note_error(&e);
            // Put the set back so a retry re-logs everything.
            mlock(&self.dirty_since_commit).extend(pages.iter().copied());
            return Err(e);
        }
        let num_pages = mlock(&self.disk).num_pages();
        let lsn = match wal
            .append_commit(num_pages, catalog)
            .and_then(|lsn| wal.sync().map(|()| lsn))
        {
            Ok(lsn) => lsn,
            Err(e) => {
                mlock(&self.dirty_since_commit).extend(pages.iter().copied());
                return Err(e);
            }
        };
        drop(wal_guard);
        // The commit record is durable: the open transaction (if any)
        // has won. Drop its undo state *now*, before the flush — a
        // flush failure past this point must surface as an I/O error
        // to be repaired by replay, never as a rollback of a commit.
        if self.txn_active.load(Ordering::Acquire) {
            if mlock(&self.txn).take().is_some() {
                txn_counters().commits.inc();
            }
            self.txn_active.store(false, Ordering::Release);
        }
        self.flush_all()?;
        Ok(lsn)
    }

    /// Checkpoint: bound the WAL so recovery replays only work since
    /// this point. Only legal at a quiescent point — no open
    /// transaction and nothing dirtied since the last commit —
    /// because advancing the log's start pointer discards the redo
    /// images that repair uncommitted writes, and flushing
    /// not-yet-committed pages here would silently commit them.
    ///
    /// Ordering is the load-bearing part: every committed page is
    /// flushed and the **data file fsynced before** the WAL's start
    /// pointer moves ([`Wal::checkpoint`]), so truncation never
    /// outruns durability of the pages whose redo images it discards.
    ///
    /// Returns the checkpoint record's LSN.
    pub fn checkpoint(&self, catalog: &[u8]) -> Result<u64> {
        let mut wal_guard = mlock(&self.wal);
        let wal = wal_guard
            .as_mut()
            .ok_or(StorageError::Corrupt("checkpoint without an attached WAL"))?;
        if self.txn_active.load(Ordering::Acquire) {
            return Err(StorageError::Corrupt(
                "checkpoint inside an open transaction",
            ));
        }
        if !mlock(&self.dirty_since_commit).is_empty() {
            return Err(StorageError::Corrupt(
                "checkpoint with uncommitted dirty pages",
            ));
        }
        // 1. Make the committed state durable in the data file. Commit
        // writes its pages back but never fsyncs them, so this fsync is
        // what lets the log forget their images; the flush writes any
        // frame a failed commit write-back left dirty.
        self.flush_all()?;
        let num_pages = {
            let mut disk = mlock(&self.disk);
            disk.sync_data()?;
            pool_counters().fsyncs.inc();
            disk.num_pages()
        };
        // 2. Only now may the log advance its start pointer.
        wal.checkpoint(num_pages, catalog)
    }

    /// Step 1 of [`BufferPool::commit`]: append a redo image for every
    /// page in `pages`, LSN-stamping resident frames in place and
    /// evicted pages through the disk.
    fn log_images(&self, wal: &mut Wal, pages: &[PageId]) -> Result<()> {
        for &id in pages {
            let lsn = wal.next_lsn();
            let resident = rlock(self.shard_of(id)).get(&id).copied();
            if let Some(fi) = resident {
                let mut slot = wlock(&self.frames[fi].slot);
                if slot.page == Some(id) {
                    // The frame now differs from disk by its LSN even
                    // if it was clean; make sure it gets flushed.
                    slot.dirty = true;
                    let buf = slot.buf.as_mut().expect("resident frame has a buffer");
                    set_page_lsn(&mut buf[..], lsn);
                    stamp_page_checksum(&mut buf[..]);
                    wal.append_image(id, &buf[..])?;
                    continue;
                }
                // Evicted between lookup and lock; fall through.
            }
            // Evicted since being dirtied: its checksum was stamped on
            // writeback; refresh the LSN and log.
            let mut buf = [0u8; PAGE_SIZE];
            {
                let mut disk = mlock(&self.disk);
                disk.read(id, &mut buf)?;
                set_page_lsn(&mut buf, lsn);
                stamp_page_checksum(&mut buf);
                disk.write(id, &buf)?;
            }
            wal.append_image(id, &buf)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn tiny_pool() -> BufferPool<MemDisk> {
        // 8 frames minimum.
        BufferPool::new(MemDisk::new(), 8 * PAGE_SIZE)
    }

    #[test]
    fn pool_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<BufferPool<MemDisk>>();
    }

    #[test]
    fn allocate_and_readback() {
        let p = tiny_pool();
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[100] = 42).unwrap();
        let v = p.with_page(id, |b| b[100]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = tiny_pool();
        let first = p.allocate().unwrap();
        p.with_page_mut(first, |b| b[0] = 7).unwrap();
        // Allocate enough pages to force eviction of `first`.
        for _ in 0..20 {
            let id = p.allocate().unwrap();
            p.with_page_mut(id, |b| b[0] = 1).unwrap();
        }
        assert!(p.stats().evictions > 0);
        // Reading `first` must return the written value via disk.
        let v = p.with_page(first, |b| b[0]).unwrap();
        assert_eq!(v, 7);
        assert!(p.stats().writebacks > 0);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let p = tiny_pool();
        let id = p.allocate().unwrap();
        let mark = p.stats();
        p.with_page(id, |_| ()).unwrap();
        p.with_page(id, |_| ()).unwrap();
        let d = p.stats().delta_since(&mark);
        assert_eq!(d.hits, 2);
        assert_eq!(d.misses, 0);
        let mark = p.stats();
        p.evict_all().unwrap();
        p.with_page(id, |_| ()).unwrap();
        assert_eq!(p.stats().delta_since(&mark).misses, 1, "cold read after evict_all");
    }

    #[test]
    fn clock_sweep_evicts_unreferenced_over_recently_used() {
        let p = tiny_pool();
        let ids: Vec<PageId> = (0..8).map(|_| p.allocate().unwrap()).collect();
        // Touch everything except ids[0]: the sweep clears reference
        // bits once around, then takes the first frame not re-touched.
        for &id in &ids[1..] {
            p.with_page(id, |_| ()).unwrap();
        }
        let _ = p.allocate().unwrap(); // forces one eviction
        let mark = p.stats();
        p.with_page(ids[1], |_| ()).unwrap();
        assert_eq!(
            (p.stats() - mark).hits,
            1,
            "recently used page stayed resident"
        );
        p.with_page(ids[0], |_| ()).unwrap();
        assert_eq!((p.stats() - mark).misses, 1, "cold page was the victim");
    }

    #[test]
    fn flush_all_then_cold_read_sees_data() {
        let p = tiny_pool();
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[10] = 99).unwrap();
        p.evict_all().unwrap();
        assert_eq!(p.with_page(id, |b| b[10]).unwrap(), 99);
    }

    #[test]
    fn many_pages_beyond_capacity() {
        let p = tiny_pool();
        let ids: Vec<PageId> = (0..100).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |b| b[0] = i as u8).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(id, |b| b[0]).unwrap(), i as u8);
        }
    }

    #[test]
    fn bit_flip_on_disk_is_detected_on_read() {
        let mut p = tiny_pool();
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[500] = 77).unwrap();
        p.evict_all().unwrap();
        // Flip one bit in the cell area, behind the pool's back.
        let mut raw = [0u8; PAGE_SIZE];
        p.disk_mut().read(id, &mut raw).unwrap();
        raw[PAGE_SIZE - 1] ^= 0x10;
        p.disk_mut().write(id, &raw).unwrap();
        assert!(matches!(
            p.with_page(id, |_| ()),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_read_leaves_pool_usable_and_unmapped() {
        // Satellite regression: the corrupt-checksum miss path must be
        // failure-atomic — retrying yields the same clean error, other
        // pages stay fetchable, and no frame aliases the corrupt page.
        let mut p = tiny_pool();
        let good = p.allocate().unwrap();
        p.with_page_mut(good, |b| b[0] = 5).unwrap();
        let bad = p.allocate().unwrap();
        p.with_page_mut(bad, |b| b[0] = 6).unwrap();
        p.evict_all().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        p.disk_mut().read(bad, &mut raw).unwrap();
        raw[PAGE_SIZE / 2] ^= 0x01;
        p.disk_mut().write(bad, &raw).unwrap();
        let mark = p.stats();
        // Retry the corrupt page twice: same error both times, and the
        // failed fetch never enters the page table (each try re-reads).
        for _ in 0..2 {
            assert!(matches!(
                p.with_page(bad, |_| ()),
                Err(StorageError::Corrupt(_))
            ));
        }
        let d = p.stats() - mark;
        assert_eq!(d.corrupt_reads, 2, "each retry re-reads and re-detects");
        assert_eq!(d.hits, 0, "corrupt page never became resident");
        // A different page still fetches fine afterwards.
        assert_eq!(p.with_page(good, |b| b[0]).unwrap(), 5);
    }

    #[test]
    fn read_only_access_is_not_marked_dirty() {
        // Satellite regression: `with_page` must cause zero writebacks
        // and zero dirty_since_commit growth.
        let mut p = tiny_pool();
        p.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[0] = 1).unwrap();
        p.commit(b"").unwrap();
        assert_eq!(p.dirty_since_commit_count(), 0);
        let mark = p.stats();
        for _ in 0..10 {
            p.with_page(id, |b| assert_eq!(b[0], 1)).unwrap();
        }
        assert_eq!(p.dirty_since_commit_count(), 0, "reads queue no WAL images");
        p.flush_all().unwrap();
        assert_eq!((p.stats() - mark).writebacks, 0, "reads cause no writebacks");
    }

    #[test]
    fn commit_then_replay_recovers_evicted_and_resident_pages() {
        use crate::wal::Wal;
        let mut p = BufferPool::new(MemDisk::new(), 8 * PAGE_SIZE);
        p.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
        // More pages than frames, so some dirty pages get evicted
        // (uncommitted) before commit.
        let ids: Vec<PageId> = (0..30).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |b| b[3] = i as u8).unwrap();
        }
        p.commit(b"cat").unwrap();
        // Post-commit scribbles that must NOT survive recovery.
        p.with_page_mut(ids[0], |b| b[3] = 200).unwrap();
        p.flush_all().unwrap();

        // Simulate crash: recover from the WAL alone onto a fresh disk
        // seeded with whatever the data file held (scribbles and all).
        let (mut data, wal) = p.into_parts();
        let mut wal = wal.unwrap();
        let state = wal.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(state.catalog(), b"cat");
        assert_eq!(state.num_pages, 30);
        let rp = BufferPool::new(data, 8 * PAGE_SIZE);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                rp.with_page(id, |b| b[3]).unwrap(),
                i as u8,
                "page {id:?} reflects committed, not post-commit, state"
            );
        }
    }

    #[test]
    fn commit_without_wal_is_an_error() {
        let p = tiny_pool();
        assert!(matches!(p.commit(b""), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn committed_pages_carry_their_lsn() {
        use crate::wal::Wal;
        let mut p = BufferPool::new(MemDisk::new(), 8 * PAGE_SIZE);
        p.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[0] = 1).unwrap();
        assert_eq!(p.page_lsn(id).unwrap(), 0, "never committed");
        p.commit(b"").unwrap();
        assert!(p.page_lsn(id).unwrap() > 0, "stamped at commit");
    }

    #[test]
    fn txn_abort_restores_pages_and_truncates_allocations() {
        let p = tiny_pool();
        let keep = p.allocate().unwrap();
        p.with_page_mut(keep, |b| b[0] = 1).unwrap();
        let base = p.num_pages();

        p.begin_txn(1).unwrap();
        p.with_page_mut(keep, |b| b[0] = 99).unwrap();
        let fresh = p.allocate().unwrap();
        p.with_page_mut(fresh, |b| b[0] = 42).unwrap();
        assert!(p.txn_active());
        p.abort_txn().unwrap();
        assert!(!p.txn_active());

        assert_eq!(p.with_page(keep, |b| b[0]).unwrap(), 1, "before-image restored");
        assert_eq!(p.num_pages(), base, "txn allocation truncated");
        assert!(matches!(
            p.with_page(fresh, |_| ()),
            Err(StorageError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn txn_abort_restores_evicted_pages_too() {
        // 8 frames, write far more pages inside the txn so the first
        // victim is evicted (its txn modification reaches the disk)
        // before the abort.
        let p = tiny_pool();
        let victim = p.allocate().unwrap();
        p.with_page_mut(victim, |b| b[7] = 3).unwrap();
        let pre: Vec<PageId> = (0..4).map(|_| p.allocate().unwrap()).collect();
        for &id in &pre {
            p.with_page_mut(id, |b| b[7] = 4).unwrap();
        }

        p.begin_txn(2).unwrap();
        p.with_page_mut(victim, |b| b[7] = 88).unwrap();
        for &id in &pre {
            p.with_page_mut(id, |b| b[7] = 89).unwrap();
        }
        for _ in 0..30 {
            let id = p.allocate().unwrap();
            p.with_page_mut(id, |b| b[7] = 90).unwrap();
        }
        assert!(p.stats().evictions > 0, "txn writes must out-size the pool");
        p.abort_txn().unwrap();

        assert_eq!(p.with_page(victim, |b| b[7]).unwrap(), 3);
        for &id in &pre {
            assert_eq!(p.with_page(id, |b| b[7]).unwrap(), 4);
        }
    }

    #[test]
    fn txn_commit_keeps_writes_and_later_abort_is_an_error() {
        let mut p = tiny_pool();
        p.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[0] = 1).unwrap();
        p.commit(b"base").unwrap();

        p.begin_txn(3).unwrap();
        p.with_page_mut(id, |b| b[0] = 2).unwrap();
        p.commit(b"after").unwrap();
        assert!(!p.txn_active(), "commit closes the transaction");
        assert!(p.abort_txn().is_err(), "nothing left to abort");
        assert_eq!(p.with_page(id, |b| b[0]).unwrap(), 2);
    }

    #[test]
    fn nested_txn_is_rejected() {
        let p = tiny_pool();
        p.begin_txn(1).unwrap();
        assert!(matches!(p.begin_txn(2), Err(StorageError::Corrupt(_))));
        p.abort_txn().unwrap();
    }

    #[test]
    fn txn_crash_is_undone_by_replay() {
        // A txn dirties committed pages, evicts some to the data file,
        // and then the process "crashes" (no commit, no abort). WAL
        // replay must both redo the commit and undo the loser.
        let mut p = BufferPool::new(MemDisk::new(), 8 * PAGE_SIZE);
        p.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
        let ids: Vec<PageId> = (0..12).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |b| b[0] = i as u8).unwrap();
        }
        p.commit(b"base").unwrap();

        p.begin_txn(9).unwrap();
        for &id in &ids {
            p.with_page_mut(id, |b| b[0] = 111).unwrap();
        }
        let extra = p.allocate().unwrap();
        p.with_page_mut(extra, |b| b[0] = 112).unwrap();
        p.flush_all().unwrap(); // loser's writes hit the data file

        let (mut data, wal) = p.into_parts();
        let mut wal = wal.unwrap();
        let st = wal.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalog(), b"base");
        assert_eq!(st.losers, vec![9]);
        assert!(st.undos_applied > 0);
        assert_eq!(data.num_pages(), ids.len() as u32, "loser allocation gone");
        let rp = BufferPool::new(data, 8 * PAGE_SIZE);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(rp.with_page(id, |b| b[0]).unwrap(), i as u8);
        }
    }

    #[test]
    fn shared_reads_across_threads() {
        let p = tiny_pool();
        let ids: Vec<PageId> = (0..32).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |b| b[0] = i as u8).unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..4 {
                let p = &p;
                let ids = &ids;
                scope.spawn(move || {
                    for round in 0..50 {
                        let i = (t * 7 + round * 13) % ids.len();
                        let v = p.with_page(ids[i], |b| b[0]).unwrap();
                        assert_eq!(v, i as u8);
                    }
                });
            }
        });
    }
}
