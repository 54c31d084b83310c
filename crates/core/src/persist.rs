//! The physical MCT database (§6.2, Figure 10).
//!
//! [`StoredDb`] maps a logical [`MctDatabase`] onto the storage engine
//! exactly the way the paper modified Timber:
//!
//! * one **content record** per element with content, in a heap file;
//! * one **attribute record** per element with attributes;
//! * one **structural record per (element, color)** — the interval
//!   code + tag + node id — in a per-color heap file;
//! * per-color **tag indexes** over the structural records (posting
//!   lists in local document order — the inputs to structural joins);
//! * a **content index** and an **attribute index** (value → node) for
//!   selection predicates and ID/IDREF value joins;
//! * per-color **link indexes** (node → interval code): these are the
//!   paper's "additional attributes providing links back to each of the
//!   corresponding single-colored structural nodes", and the access
//!   path used by the cross-tree join.
//!
//! All query-time access goes through the shared buffer pool, so page
//! hits/misses and the warm/cold cache distinction behave as in §7.
//!
//! **Durability.** With a WAL attached, [`StoredDb::sync`] commits the
//! dirty pages with a catalog record (see the snapshot module) of what
//! the change journal saw change, so a commit costs O(change), not
//! O(document). The first commit after a build or a failed commit and
//! every checkpoint are *rooted* (encoded against the zero journal, so
//! they carry the whole catalog); the rest are *chained* onto the
//! commit before. Every install goes through one path: recovery
//! ([`StoredDb::open_with`]) applies the last rooted record in the live
//! log and the chain after it onto an empty catalog, a replica applies
//! each record in place onto its state
//! ([`StoredDb::apply_repl_commit`]) or a snapshot onto an empty one
//! ([`StoredDb::from_snapshot`]), and transactions roll back from the
//! same journal.

use crate::color::ColorId;
use crate::database::{Journal, McNodeId, McNodeKind, MctDatabase};
use crate::snapshot::{self, Delta, Directory, Header};
use mct_storage::{
    BTree, BufferPool, ContentIndex, DiskManager, FileDisk, HeapFile, IntervalCode, KeyEncoder,
    MemDisk, RecordId, StorageError, StorageStats, TagIndex, Wal, PAGE_SIZE,
};
use mct_xml::Sym;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide transaction id source (ids must only be unique within
/// one WAL's unreplayed tail, so a simple counter suffices).
static NEXT_TXN_ID: AtomicU64 = AtomicU64::new(1);

/// Handle for an open transaction on a [`StoredDb`] (see
/// [`StoredDb::begin_txn`]). It holds only the id: what an abort
/// restores is in the store's change journal, which has recorded the
/// begin-time value of everything the transaction touched. Dropping
/// the handle without committing or aborting leaves the transaction
/// open, so prefer the scoped [`StoredDb::with_txn`].
#[must_use = "a transaction must be committed or aborted"]
pub struct Txn {
    id: u64,
}

impl Txn {
    /// This transaction's id (as framed in the WAL).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Physical half of the change journal (the logical half lives in the
/// [`MctDatabase`]): the heap/index directory when the journal started
/// and the journal of each record-id map.
struct PhysJournal {
    dir: Directory,
    content: RidJournal,
    attr: RidJournal,
}

/// Change journal of one record-id map: its length when the journal
/// started and the start-time value of each slot set since. The zero
/// journal (the default) describes the empty map.
#[derive(Default)]
pub(crate) struct RidJournal {
    pub len: usize,
    pub saved: BTreeMap<u32, Option<RecordId>>,
}

impl RidJournal {
    fn start(rids: &[Option<RecordId>]) -> RidJournal {
        RidJournal {
            len: rids.len(),
            saved: BTreeMap::new(),
        }
    }

    /// Put every saved slot back and drop what was pushed since.
    fn roll_back(self, rids: &mut Vec<Option<RecordId>>) {
        rids.truncate(self.len);
        for (n, rid) in self.saved {
            if let Some(slot) = rids.get_mut(n as usize) {
                *slot = rid;
            }
        }
    }
}

/// One entry of a posting list: a structural node reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StructRef {
    /// Logical node.
    pub node: McNodeId,
    /// Interval code in the posting's colored tree.
    pub code: IntervalCode,
}

/// A stored (physical) MCT database over any disk manager. The
/// default `MemDisk` is the paper's experimental configuration; a
/// `FileDisk` plus an attached WAL gives a crash-consistent on-disk
/// database (see [`StoredDb::create`] / [`StoredDb::open`]).
///
/// **Annotation invariant.** Between calls, every node attached in a
/// colored tree has a valid interval code there, every other node has
/// none, and every color of the palette has its structural heap, tag
/// index and link index, keyed by exactly the interval codes of the
/// logical twin. Every constructor and load path establishes it.
/// The logical database is read-only outside this crate (see
/// [`DbView`]); it changes only through the mutators
/// [`StoredDb::add_color`], [`StoredDb::new_element`],
/// [`StoredDb::attach`], [`StoredDb::detach`] and
/// [`StoredDb::update_content`], each of which writes the change
/// through to the heaps and indexes and leaves the invariant holding.
/// Readers rely on it and never re-annotate. A read that meets a
/// violation gets [`StorageError::NotAnnotated`], never a panic.
///
/// **Change journal.** While a WAL is attached or a transaction is
/// open, the store and its logical database journal the first change
/// of every node, `(color, node)` slot and record-id slot. A commit
/// writes only those (a chained catalog record, see the snapshot
/// module), an abort puts the journaled values back in place. Without
/// a WAL or a transaction the journal is off and costs one branch per
/// mutation.
pub struct StoredDb<D: DiskManager = MemDisk> {
    /// The logical database (kept for construction & exact navigation),
    /// read-only: change it through the mutators.
    pub db: DbView,
    /// Shared buffer pool over the disk.
    pub pool: BufferPool<D>,
    pub(crate) content_heap: HeapFile,
    pub(crate) attr_heap: HeapFile,
    pub(crate) struct_heaps: Vec<HeapFile>,
    pub(crate) tag_indexes: Vec<TagIndex>,
    pub(crate) link_indexes: Vec<BTree>,
    pub(crate) content_index: ContentIndex,
    pub(crate) attr_index: ContentIndex,
    pub(crate) content_rid: Vec<Option<RecordId>>,
    pub(crate) attr_rid: Vec<Option<RecordId>>,
    /// Monotone store generation: bumped by every write-through update
    /// (content/structure/index changes). Consumers holding derived
    /// state — prepared-plan caches, catalog snapshots — stamp the
    /// generation they were built against and treat a mismatch as
    /// stale. In-process only; a fresh open starts at 0.
    generation: u64,
    /// Auto-checkpoint policy: once a committed transaction leaves
    /// more than this many live bytes in the WAL,
    /// [`StoredDb::commit_txn`] takes a checkpoint. `None` (the
    /// default) disables the policy.
    checkpoint_bytes: Option<u64>,
    /// Version of the catalog the current state extends: the version
    /// of the last catalog record written, recovered or applied.
    catalog_version: u64,
    /// Physical half of the change journal; `None` when off.
    journal: Option<PhysJournal>,
    /// The next commit must be rooted: nothing durable is known to
    /// describe the state the journal started at.
    full_due: bool,
}

/// Read-only view of a [`StoredDb`]'s logical database. Every
/// `&MctDatabase` method reaches through it; nothing that takes
/// `&mut MctDatabase` does, so a stored document can only change
/// through the [`StoredDb`] mutators, which keep the physical store in
/// step.
///
/// ```
/// # use mct_core::{MctDatabase, StoredDb};
/// let mut db = MctDatabase::new();
/// db.add_color("red");
/// let s = StoredDb::build(db, 1 << 20).unwrap();
/// assert!(s.db.color("red").is_some());
/// ```
///
/// ```compile_fail,E0596
/// # use mct_core::{McNodeId, StoredDb};
/// fn graft(s: &mut StoredDb, n: McNodeId) {
///     let red = s.db.color("red").unwrap();
///     s.db.append_child(McNodeId::DOCUMENT, n, red);
/// }
/// ```
pub struct DbView(pub(crate) MctDatabase);

impl std::ops::Deref for DbView {
    type Target = MctDatabase;

    fn deref(&self) -> &MctDatabase {
        &self.0
    }
}

/// Why [`StoredDb::attach`] refused a fragment. A refused attach
/// changes nothing.
#[derive(Debug)]
pub enum AttachError {
    /// The §4.2 dynamic error: the node already occurs in the colored
    /// tree (named), or twice in the fragment.
    Duplicate(McNodeId, String),
    /// The parent does not occur in the colored tree (named).
    ParentNotInColor(McNodeId, String),
    /// Storage-layer failure while writing the fragment through.
    Storage(StorageError),
}

impl From<StorageError> for AttachError {
    fn from(e: StorageError) -> Self {
        AttachError::Storage(e)
    }
}

impl StoredDb<MemDisk> {
    /// Persist a logical database in memory. Annotates every color,
    /// then bulk loads heaps and indexes. `pool_bytes` bounds the
    /// buffer pool (the paper used 256 MiB).
    pub fn build(db: MctDatabase, pool_bytes: usize) -> mct_storage::Result<StoredDb> {
        StoredDb::build_on(BufferPool::new(MemDisk::new(), pool_bytes), db)
    }
}

impl StoredDb<FileDisk> {
    /// Build a durable database under `dir` (`pages.db` + `wal.log`),
    /// replacing any previous contents. The result is not durable
    /// until the first [`StoredDb::sync`].
    pub fn create(
        dir: impl AsRef<Path>,
        db: MctDatabase,
        pool_bytes: usize,
    ) -> mct_storage::Result<StoredDb<FileDisk>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut data = FileDisk::open(&dir.join("pages.db"))?;
        data.truncate(0)?;
        let wal = Wal::create(Box::new(FileDisk::open(&dir.join("wal.log"))?))?;
        let mut pool = BufferPool::new(data, pool_bytes);
        pool.attach_wal(wal);
        StoredDb::build_on(pool, db)
    }

    /// Open a durable database under `dir`, recovering from the WAL.
    /// Returns `Ok(None)` when no commit ever became durable (fresh
    /// directory, or a crash before the first sync) — the caller
    /// should rebuild with [`StoredDb::create`].
    pub fn open(
        dir: impl AsRef<Path>,
        pool_bytes: usize,
    ) -> mct_storage::Result<Option<StoredDb<FileDisk>>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let data = FileDisk::open(&dir.join("pages.db"))?;
        let wal_disk = Box::new(FileDisk::open(&dir.join("wal.log"))?);
        StoredDb::open_with(data, wal_disk, pool_bytes)
    }
}

impl<D: DiskManager> StoredDb<D> {
    /// Persist a logical database onto a caller-supplied buffer pool
    /// (its disk must be empty). If a WAL is attached it is reset —
    /// a rebuild invalidates any previously committed state.
    ///
    /// Heap records are appended in node order; each index's entries
    /// are collected, sorted and bulk-loaded bottom-up.
    pub fn build_on(mut pool: BufferPool<D>, mut db: MctDatabase) -> mct_storage::Result<StoredDb<D>> {
        if let Some(wal) = pool.wal_mut() {
            wal.reset()?;
        }
        db.stop_journal();
        let ncolors = db.palette.len();
        for i in 0..ncolors {
            db.annotate(ColorId(i as u8));
        }
        let mut content_heap = HeapFile::new();
        let mut attr_heap = HeapFile::new();
        let mut content_keys = Vec::new();
        let mut attr_keys = Vec::new();
        let mut content_rid = vec![None; db.len()];
        let mut attr_rid = vec![None; db.len()];
        let elements: Vec<McNodeId> = (0..db.len() as u32)
            .map(McNodeId)
            .filter(|&n| {
                let node = db.node(n);
                node.kind == McNodeKind::Element && !node.colors.is_empty()
            })
            .collect();

        for &n in &elements {
            let node = db.node(n);
            let value = u64::from(n.0);
            if let Some(content) = &node.content {
                let rec = encode_content(n, content);
                content_rid[n.index()] = Some(content_heap.insert(&pool, &rec)?);
                content_keys.push((ContentIndex::key(content, value), value));
            }
            if !node.attrs.is_empty() {
                let rec = encode_attrs(n, &node.attrs);
                attr_rid[n.index()] = Some(attr_heap.insert(&pool, &rec)?);
                for (s, v) in &node.attrs {
                    let key = format!("{}={}", db.names.resolve(*s), v);
                    attr_keys.push((ContentIndex::key(&key, value), value));
                }
            }
        }
        let content_index = ContentIndex::from_btree(load_index(&pool, content_keys)?);
        let attr_index = ContentIndex::from_btree(load_index(&pool, attr_keys)?);
        let mut struct_heaps = Vec::with_capacity(ncolors);
        let mut tag_indexes = Vec::with_capacity(ncolors);
        let mut link_indexes = Vec::with_capacity(ncolors);
        for i in 0..ncolors {
            let c = ColorId(i as u8);
            let members = elements
                .iter()
                .copied()
                .filter(|&n| db.node(n).colors.contains(c));
            let (heap, tag, link) = load_color(&pool, &db, c, members)?;
            struct_heaps.push(heap);
            tag_indexes.push(tag);
            link_indexes.push(link);
        }
        Ok(StoredDb {
            db: DbView(db),
            pool,
            content_heap,
            attr_heap,
            struct_heaps,
            tag_indexes,
            link_indexes,
            content_index,
            attr_index,
            content_rid,
            attr_rid,
            generation: 0,
            checkpoint_bytes: None,
            catalog_version: 0,
            journal: None,
            full_due: true,
        })
    }

    // ----- durability ---------------------------------------------------------

    /// Make the current state durable: commit every page written since
    /// the last sync through the attached WAL, with a catalog record
    /// that advances the catalog version by one. The record carries
    /// what the change journal saw since the last commit; it is rooted
    /// (the whole catalog) when there is no journal to go by: the first
    /// commit after a build, or after a commit that failed. Returns the
    /// commit LSN. Errors if the pool has no WAL.
    pub fn sync(&mut self) -> mct_storage::Result<u64> {
        if !self.pool.has_wal() {
            return Err(StorageError::Corrupt("commit without an attached WAL"));
        }
        let version = self.catalog_version + 1;
        let record = self.encode_catalog(version, self.full_due);
        match self.pool.commit(&record) {
            Ok(lsn) => {
                self.catalog_version = version;
                self.full_due = false;
                self.start_journal();
                Ok(lsn)
            }
            Err(e) => {
                // The record may have reached the log all the same; a
                // rooted record next time makes the chain unambiguous.
                self.full_due = true;
                Err(e)
            }
        }
    }

    /// The catalog record at `version` of what the change journal saw
    /// change, or rooted — against the zero journal, so it carries the
    /// whole catalog — when `rooted` or the journal is off.
    fn encode_catalog(&self, version: u64, rooted: bool) -> Vec<u8> {
        let (zero, empty) = (Journal::default(), RidJournal::default());
        let (j, content, attr) = match (&self.journal, self.db.journal.as_deref()) {
            (Some(pj), Some(j)) if !rooted => (j, &pj.content, &pj.attr),
            _ => (&zero, &empty, &empty),
        };
        let rids = [(&self.content_rid[..], content), (&self.attr_rid[..], attr)];
        snapshot::encode(&self.db, j, &self.directory(), rids, version)
    }

    /// Checkpoint the WAL: flush every committed page, fsync the data
    /// file, then let the log advance its start pointer past the
    /// now-redundant prefix (see [`BufferPool::checkpoint`] for the
    /// ordering invariant). Only legal at a quiescent point — errors
    /// inside an open transaction or with uncommitted dirty pages.
    /// Returns the checkpoint record's LSN.
    pub fn checkpoint(&mut self) -> mct_storage::Result<u64> {
        let version = self.catalog_version + 1;
        let catalog = self.encode_catalog(version, true);
        match self.pool.checkpoint(&catalog) {
            Ok(lsn) => {
                self.catalog_version = version;
                self.full_due = false;
                self.start_journal();
                Ok(lsn)
            }
            Err(e) => {
                self.full_due = true;
                Err(e)
            }
        }
    }

    /// True when a WAL is attached and the current state is exactly the
    /// last commit's: no page dirtied and no catalog change since.
    pub fn is_synced(&self) -> bool {
        self.pool.has_wal() && self.pool.dirty_since_commit_count() == 0 && self.journal_is_clean()
    }

    /// Set (or clear) the auto-checkpoint threshold in live WAL bytes.
    pub fn set_checkpoint_bytes(&mut self, bytes: Option<u64>) {
        self.checkpoint_bytes = bytes;
    }

    /// The auto-checkpoint threshold, if any.
    pub fn checkpoint_bytes(&self) -> Option<u64> {
        self.checkpoint_bytes
    }

    /// Policy hook run after every durable commit: checkpoint when the
    /// live log has outgrown the configured threshold. The commit this
    /// rides on is already durable, so a checkpoint failure must not
    /// surface as a commit failure (the caller would misread it as a
    /// rollback); it is swallowed and counted instead, and the next
    /// commit retries.
    fn maybe_checkpoint(&mut self) {
        let Some(limit) = self.checkpoint_bytes else {
            return;
        };
        if self.pool.wal_bytes() <= limit {
            return;
        }
        if self.checkpoint().is_err() {
            mct_obs::counter("wal.checkpoint.errors").inc();
        }
    }

    /// Recover a database from its data disk and WAL: replay every
    /// page image up to the last durable commit, truncate any torn
    /// tail, and rebuild the `StoredDb` from the committed catalog —
    /// the last rooted record in the live log and every record after
    /// it, applied in order. Returns `Ok(None)` when the WAL holds no
    /// commit.
    pub fn open_with(
        mut data: D,
        wal_disk: Box<dyn DiskManager + Send>,
        pool_bytes: usize,
    ) -> mct_storage::Result<Option<StoredDb<D>>> {
        let mut wal = Wal::open(wal_disk)?;
        let Some(state) = wal.replay_into(&mut data)? else {
            return Ok(None);
        };
        let root = state
            .catalogs
            .iter()
            .rposition(|c| is_rooted(c))
            .ok_or(StorageError::Corrupt("no rooted catalog in the live log"))?;
        let mut pool = BufferPool::new(data, pool_bytes);
        pool.attach_wal(wal);
        Self::assemble(pool, &state.catalogs[root..]).map(Some)
    }

    /// Construct a `StoredDb` over a pool whose page file already holds
    /// the state `records` (a rooted catalog record and the chain after
    /// it) describe, by applying them in order onto an empty catalog.
    fn assemble(
        pool: BufferPool<D>,
        records: &[impl AsRef<[u8]>],
    ) -> mct_storage::Result<StoredDb<D>> {
        let empty = || ContentIndex::from_btree(BTree::from_parts(mct_storage::PageId(0), 0, 0));
        let mut s = StoredDb {
            db: DbView(MctDatabase::new()),
            pool,
            content_heap: HeapFile::new(),
            attr_heap: HeapFile::new(),
            struct_heaps: Vec::new(),
            tag_indexes: Vec::new(),
            link_indexes: Vec::new(),
            content_index: empty(),
            attr_index: empty(),
            content_rid: Vec::new(),
            attr_rid: Vec::new(),
            generation: 0,
            checkpoint_bytes: None,
            catalog_version: 0,
            journal: None,
            full_due: false,
        };
        if !records.first().is_some_and(|r| is_rooted(r.as_ref())) {
            return Err(StorageError::Corrupt("catalog chain does not start rooted"));
        }
        for r in records {
            s.apply_catalog(r.as_ref())?;
        }
        if s.pool.has_wal() {
            s.start_journal();
        }
        s.ensure_all_annotated()?;
        Ok(s)
    }

    /// Install a catalog record: refuse it with
    /// [`StorageError::CatalogBase`] unless it fits this store's
    /// catalog version (see the snapshot module), else apply it in
    /// place. A record that does not fit changes nothing.
    fn apply_catalog(&mut self, bytes: &[u8]) -> mct_storage::Result<()> {
        let record = Delta::parse(bytes)?;
        record.header.check_base(self.catalog_version)?;
        let version = record.header.version;
        let dir = record.apply(&mut self.db.0, [&mut self.content_rid, &mut self.attr_rid])?;
        self.install_directory(dir);
        self.catalog_version = version;
        Ok(())
    }

    // ----- replication ----------------------------------------------------------

    /// Serialize the current catalog (logical database + physical
    /// directory) as a rooted record at the store's catalog version —
    /// the record a rooted commit or a checkpoint carries. Replication
    /// ships it in snapshot frames.
    pub fn snapshot_catalog(&self) -> Vec<u8> {
        self.encode_catalog(self.catalog_version, true)
    }

    /// Rebuild a `StoredDb` over `data`, a page file whose raw
    /// contents already equal the state the rooted record `catalog`
    /// describes (e.g. pages shipped by a replication snapshot). No WAL
    /// is attached — a replica's durability is the primary's log, not
    /// its own.
    pub fn from_snapshot(
        data: D,
        catalog: &[u8],
        pool_bytes: usize,
    ) -> mct_storage::Result<StoredDb<D>> {
        Self::assemble(BufferPool::new(data, pool_bytes), &[catalog])
    }

    /// Apply one replicated page image (the replica's redo path).
    /// Exclusive-writer: the replica applies record batches under its
    /// server write lock, so readers only ever see committed prefixes.
    pub fn apply_repl_image(
        &mut self,
        page: mct_storage::PageId,
        image: &[u8],
    ) -> mct_storage::Result<()> {
        self.pool.install_image(page, image)
    }

    /// Check that a shipped catalog record fits this store: a rooted
    /// record always does, a chained one only when it produces this
    /// store's catalog version plus one — otherwise
    /// [`StorageError::CatalogBase`] (a commit went missing on the way;
    /// the replica must re-bootstrap). Reads only the record's header
    /// and changes nothing, so a replica can check before it installs
    /// the commit's page images.
    pub fn check_catalog_base(&self, catalog: &[u8]) -> mct_storage::Result<()> {
        Header::of(catalog)?.check_base(self.catalog_version)
    }

    /// Apply a replicated commit: apply the shipped catalog record in
    /// place, truncate the page file to the committed count and bump the
    /// generation so plan caches and other derived state go stale. A
    /// record that does not fit (see [`StoredDb::check_catalog_base`])
    /// is refused before anything changes. Idempotent for checkpoint
    /// records (rooted).
    pub fn apply_repl_commit(&mut self, num_pages: u32, catalog: &[u8]) -> mct_storage::Result<()> {
        self.apply_catalog(catalog)?;
        self.pool.truncate_pages(num_pages)?;
        self.generation += 1;
        self.ensure_all_annotated()
    }

    // ----- transactions ---------------------------------------------------------

    /// Open a transaction covering both the physical pages (pool-level
    /// before-images, WAL begin/undo framing) and the logical catalog
    /// (the change journal, which from here records the begin-time
    /// value of everything the transaction touches; nothing is copied
    /// up front). Until [`StoredDb::commit_txn`], any error, panic, or
    /// crash rolls the whole update back:
    ///
    /// * [`StoredDb::abort_txn`] restores pages and catalog in place;
    /// * a crash leaves the transaction a loser for WAL recovery.
    ///
    /// With a WAL attached, any work done outside a transaction — dirty
    /// pages or journaled catalog changes — is committed first ("clean
    /// baseline"), so the captured undo images equal committed page
    /// contents (the precondition for recovery's redo-then-undo to land
    /// exactly on the committed state) and the journal starts empty.
    pub fn begin_txn(&mut self) -> mct_storage::Result<Txn> {
        let wal = self.pool.has_wal();
        if wal && !self.is_synced() {
            self.sync()?;
        }
        let id = NEXT_TXN_ID.fetch_add(1, Ordering::Relaxed);
        self.pool.begin_txn(id)?;
        if !wal {
            self.start_journal();
        }
        Ok(Txn { id })
    }

    /// Commit the transaction. With a WAL this is a durability point
    /// (returns the commit LSN); without one the write set simply
    /// stays live and 0 is returned. If the commit fails *before*
    /// becoming durable, the transaction is rolled back in place so
    /// the caller still observes all-or-nothing; if it fails after
    /// (flush error past the WAL fsync), the commit stands and the
    /// error is a plain I/O failure for recovery to repair.
    pub fn commit_txn(&mut self, _txn: Txn) -> mct_storage::Result<u64> {
        if !self.pool.has_wal() {
            let ended = self.pool.end_txn();
            self.stop_journal();
            return ended.map(|_| 0);
        }
        match self.sync() {
            Ok(lsn) => {
                self.maybe_checkpoint();
                Ok(lsn)
            }
            Err(e) => {
                if self.pool.txn_active() {
                    // The commit record never became durable: abort so
                    // a failed update leaves the store untouched.
                    let _ = self.pool.abort_txn();
                    self.roll_back_journal();
                    self.start_journal();
                    self.generation += 1;
                }
                Err(e)
            }
        }
    }

    /// Roll the transaction back: restore every page the transaction
    /// touched (pool before-images), truncate its allocations, and put
    /// the begin-time logical database + physical catalog back in place
    /// from the change journal. The generation still advances — derived
    /// state stamped mid-transaction must read as stale.
    pub fn abort_txn(&mut self, _txn: Txn) -> mct_storage::Result<()> {
        let pool_res = self.pool.abort_txn();
        self.roll_back_journal();
        if self.pool.has_wal() {
            self.start_journal();
        }
        self.generation += 1;
        pool_res.map(|_| ())
    }

    /// Run `f` inside a transaction: commit on `Ok`, abort on `Err`,
    /// and abort on panic before resuming the unwind — so a poisoned
    /// update closure can never leave a half-applied store behind.
    pub fn with_txn<R, E, F>(&mut self, f: F) -> Result<R, E>
    where
        F: FnOnce(&mut Self) -> Result<R, E>,
        E: From<mct_storage::StorageError>,
    {
        let txn = self.begin_txn()?;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self))) {
            Ok(Ok(v)) => {
                self.commit_txn(txn)?;
                Ok(v)
            }
            Ok(Err(e)) => {
                self.abort_txn(txn)?;
                Err(e)
            }
            Err(payload) => {
                let _ = self.abort_txn(txn);
                std::panic::resume_unwind(payload);
            }
        }
    }

    // ----- change journal ---------------------------------------------------------

    /// Start (or restart) both halves of the change journal at the
    /// current state.
    fn start_journal(&mut self) {
        self.db.0.start_journal();
        self.journal = Some(PhysJournal {
            dir: self.directory(),
            content: RidJournal::start(&self.content_rid),
            attr: RidJournal::start(&self.attr_rid),
        });
    }

    fn stop_journal(&mut self) {
        self.db.0.stop_journal();
        self.journal = None;
    }

    /// True when the journal is on and has seen no change. (The
    /// directory only changes with pages, which the pool tracks.)
    fn journal_is_clean(&self) -> bool {
        self.db.journal_is_clean()
            && self.journal.as_ref().is_some_and(|j| {
                [(&j.content, &self.content_rid), (&j.attr, &self.attr_rid)]
                    .iter()
                    .all(|(rj, rids)| rj.saved.is_empty() && rj.len == rids.len())
            })
    }

    /// Put everything the journal saw change back to its start-time
    /// value and turn the journal off. No-op when it is off.
    fn roll_back_journal(&mut self) {
        self.db.0.roll_back();
        let Some(j) = self.journal.take() else {
            return;
        };
        j.content.roll_back(&mut self.content_rid);
        j.attr.roll_back(&mut self.attr_rid);
        self.install_directory(j.dir);
    }

    /// Set node `n`'s content or attribute record id, journaling the
    /// slot's old value first.
    fn set_rid(&mut self, attr: bool, n: McNodeId, rid: RecordId) {
        let (rids, saved) = if attr {
            (
                &mut self.attr_rid,
                self.journal.as_mut().map(|j| &mut j.attr.saved),
            )
        } else {
            (
                &mut self.content_rid,
                self.journal.as_mut().map(|j| &mut j.content.saved),
            )
        };
        if rids.len() <= n.index() {
            rids.resize(n.index() + 1, None);
        }
        if let Some(saved) = saved {
            saved.entry(n.0).or_insert(rids[n.index()]);
        }
        rids[n.index()] = Some(rid);
    }

    /// The heap/index directory.
    fn directory(&self) -> Directory {
        Directory {
            content_heap: self.content_heap.parts(),
            attr_heap: self.attr_heap.parts(),
            struct_heaps: self.struct_heaps.iter().map(HeapFile::parts).collect(),
            tag_indexes: self.tag_indexes.iter().map(|t| t.btree().parts()).collect(),
            link_indexes: self.link_indexes.iter().map(BTree::parts).collect(),
            content_index: self.content_index.btree().parts(),
            attr_index: self.attr_index.btree().parts(),
        }
    }

    /// Put a directory in place over the current pool.
    fn install_directory(&mut self, dir: Directory) {
        let heap = |(p, r, b): (Vec<mct_storage::PageId>, u64, u64)| HeapFile::from_parts(p, r, b);
        let tree = |(r, e, p)| BTree::from_parts(r, e, p);
        self.content_heap = heap(dir.content_heap);
        self.attr_heap = heap(dir.attr_heap);
        self.struct_heaps = dir.struct_heaps.into_iter().map(heap).collect();
        self.tag_indexes = dir
            .tag_indexes
            .into_iter()
            .map(|t| TagIndex::from_btree(tree(t)))
            .collect();
        self.link_indexes = dir.link_indexes.into_iter().map(tree).collect();
        self.content_index = ContentIndex::from_btree(tree(dir.content_index));
        self.attr_index = ContentIndex::from_btree(tree(dir.attr_index));
    }

    // ----- access paths -------------------------------------------------------

    /// Posting list for `tag` in colored tree `c`, in local document
    /// order (via the tag B+-tree: page-cost-bearing).
    pub fn postings(&self, c: ColorId, tag: Sym) -> mct_storage::Result<Vec<StructRef>> {
        let posts = self.tag_indexes[self.storage_of(c)?].postings(&self.pool, tag.0)?;
        Ok(struct_refs(posts))
    }

    /// Posting list by tag name (resolving through the interner).
    pub fn postings_named(&self, c: ColorId, tag: &str) -> mct_storage::Result<Vec<StructRef>> {
        match self.db.names.get(tag) {
            Some(sym) => self.postings(c, sym),
            None => Ok(Vec::new()),
        }
    }

    /// The color-`c` elements named `tag` below any of `nodes`, read
    /// from the tag index: each node's region is its code in `c` (the
    /// document node's is the whole list; a node not in `c` has none),
    /// and one cursor reads the outermost regions
    /// ([`mct_storage::TagIndex::postings_within`]). In start order,
    /// without duplicates.
    pub fn descendants_named(
        &self,
        c: ColorId,
        tag: Sym,
        nodes: impl IntoIterator<Item = McNodeId>,
    ) -> mct_storage::Result<Vec<StructRef>> {
        let mut codes: Vec<(u32, u32)> = nodes
            .into_iter()
            .filter_map(|n| match n {
                McNodeId::DOCUMENT => Some((0, u32::MAX)),
                n => self.db.code(n, c).map(|code| (code.start, code.end)),
            })
            .collect();
        codes.sort_unstable();
        // A region inside one already kept adds nothing to read.
        let mut regions: Vec<(u32, u32)> = Vec::with_capacity(codes.len());
        for (start, end) in codes {
            match regions.last_mut() {
                Some(last) if start < last.1 => last.1 = last.1.max(end),
                _ => regions.push((start, end)),
            }
        }
        let index = &self.tag_indexes[self.storage_of(c)?];
        Ok(struct_refs(index.postings_within(&self.pool, tag.0, &regions)?))
    }

    /// Nodes whose content equals `value` exactly.
    pub fn content_lookup(&self, value: &str) -> mct_storage::Result<Vec<McNodeId>> {
        Ok(self
            .content_index
            .lookup(&self.pool, value)?
            .into_iter()
            .map(|v| McNodeId(v as u32))
            .collect())
    }

    /// Nodes with attribute `name` equal to `value`.
    pub fn attr_lookup(&self, name: &str, value: &str) -> mct_storage::Result<Vec<McNodeId>> {
        let key = format!("{name}={value}");
        Ok(self
            .attr_index
            .lookup(&self.pool, &key)?
            .into_iter()
            .map(|v| McNodeId(v as u32))
            .collect())
    }

    /// Fetch an element's content through the heap (page-cost-bearing).
    pub fn fetch_content(&self, n: McNodeId) -> mct_storage::Result<Option<String>> {
        match self.content_rid.get(n.index()).copied().flatten() {
            Some(rid) => {
                let rec = self.content_heap.get(&self.pool, rid)?;
                Ok(Some(decode_content(&rec).1))
            }
            None => Ok(None),
        }
    }

    /// Fetch an element's attributes through the heap.
    pub fn fetch_attrs(&self, n: McNodeId) -> mct_storage::Result<Vec<(String, String)>> {
        match self.attr_rid.get(n.index()).copied().flatten() {
            Some(rid) => {
                let rec = self.attr_heap.get(&self.pool, rid)?;
                Ok(decode_attrs(&rec, &self.db))
            }
            None => Ok(Vec::new()),
        }
    }

    /// Everything a read can observe, as one comparable text: the
    /// palette, then per node its tag, its content and attributes read
    /// through the heaps, its colors, and in each of them its interval
    /// code and parent. Stores that applied the same changes to one
    /// base share node ids, so their digests compare directly; a failed
    /// heap read shows as a difference, not a panic.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (c, name) in self.db.palette.iter() {
            let _ = writeln!(out, "c{} {name}", c.index());
        }
        for i in 0..self.db.len() {
            let n = McNodeId(i as u32);
            let colors = self.db.colors(n);
            let _ = write!(
                out,
                "n{i} {:?} {:?} {:?} {colors:?}",
                self.db.name_str(n),
                self.fetch_content(n),
                self.fetch_attrs(n),
            );
            for c in colors.iter() {
                let code = self.db.code(n, c).map(|k| (k.start, k.end, k.level));
                let parent = self.db.parent(n, c).map(|p| p.0);
                let _ = write!(out, " c{}:{code:?}<-{parent:?}", c.index());
            }
            out.push('\n');
        }
        out
    }

    /// The color-link probe (§6.2): interval code of `n` in tree `to`,
    /// through the per-color link index — one B+-tree descent plus one
    /// structural-record fetch per call, which is what makes a color
    /// transition cost like a value join.
    pub fn link_probe(
        &self,
        n: McNodeId,
        to: ColorId,
    ) -> mct_storage::Result<Option<IntervalCode>> {
        let i = self.storage_of(to)?;
        let Some(packed) = self.link_indexes[i].get(&self.pool, &KeyEncoder::u32(n.0))? else {
            return Ok(None);
        };
        let rec = self.struct_heaps[i].get(&self.pool, unpack_rid(packed))?;
        Ok(Some(IntervalCode::from_bytes(&rec[..10])))
    }

    /// Direct in-memory color link (the "more sophisticated
    /// implementation" the paper speculates about) — ablation A1.
    pub fn link_direct(&self, n: McNodeId, to: ColorId) -> Option<IntervalCode> {
        if !self.db.colors(n).contains(to) {
            return None;
        }
        self.db.code(n, to)
    }

    // ----- staleness detection --------------------------------------------------

    /// Current store generation. Any write-through update bumps it, so
    /// derived state stamped with an older generation is stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Raise the generation to at least `floor`. A replica that swaps
    /// in a freshly bootstrapped store (which starts at generation 0)
    /// lifts it past the store it replaces, so generation-stamped
    /// derived state (plan caches) cannot confuse the two.
    pub fn set_generation_floor(&mut self, floor: u64) {
        if self.generation < floor {
            self.generation = floor;
        }
    }

    /// Restore the annotation invariant (see [`StoredDb`]): give each
    /// color that has no structural heap and indexes yet its own. The
    /// load paths in this crate need it; every mutator leaves the
    /// invariant holding, so a caller outside the crate always finds
    /// nothing to do.
    pub fn ensure_all_annotated(&mut self) -> mct_storage::Result<()> {
        for i in 0..self.db.palette.len() {
            let c = ColorId(i as u8);
            if self.storage_of(c).is_err() {
                self.reindex_color(c)?;
            }
        }
        Ok(())
    }

    /// Index of color `c`'s structural heap and indexes. A color the
    /// palette gained since its last [`Self::reindex_color`] has none.
    pub(crate) fn storage_of(&self, c: ColorId) -> mct_storage::Result<usize> {
        let i = c.index();
        (i < self.struct_heaps.len())
            .then_some(i)
            .ok_or(StorageError::NotAnnotated)
    }

    // ----- mutators ------------------------------------------------------------

    /// Register color `name` (idempotent by name) with its structural
    /// heap and indexes. The palette must have room for a new color
    /// (see [`crate::Palette::CAPACITY`]).
    pub fn add_color(&mut self, name: &str) -> mct_storage::Result<ColorId> {
        let c = self.db.0.add_color(name);
        self.ensure_all_annotated()?;
        Ok(c)
    }

    /// Create an element with no color yet, the node an element
    /// constructor makes (§4.2). It occurs in no colored tree and has
    /// no records until [`Self::attach`] gives it its first color.
    pub fn new_element(
        &mut self,
        name: &str,
        content: Option<&str>,
        attrs: &[(String, String)],
    ) -> McNodeId {
        let db = &mut self.db.0;
        let n = db.new_element_uncolored(name);
        if let Some(text) = content {
            db.set_content(n, text);
        }
        for (k, v) in attrs {
            db.set_attr(n, k, v);
        }
        n
    }

    /// Attach nodes in colored tree `c`: each of `roots` as the last
    /// child of `parent`, and below each node the children `edges`
    /// lists for it, recursively (an element constructor's pending
    /// edges). Nodes keep their identity and their place in other
    /// colors; a node lacking `c` gains it. The new members get interval
    /// codes in the gap after `parent`'s last child, or the color is
    /// renumbered when they do not fit, and structural records; a node
    /// whose first color this is gets its content and attribute records.
    ///
    /// Refused before anything changes when `parent` does not occur in
    /// `c`, or a node already occurs in `c` or twice in the fragment.
    pub fn attach(
        &mut self,
        parent: McNodeId,
        roots: &[McNodeId],
        edges: &HashMap<McNodeId, Vec<McNodeId>>,
        c: ColorId,
    ) -> Result<(), AttachError> {
        let occurs = |n: McNodeId| self.db.tree(c).link(n).attached;
        let color = || self.db.palette.name(c).to_string();
        if !occurs(parent) {
            return Err(AttachError::ParentNotInColor(parent, color()));
        }
        // The fragment in pre-order, each node with its parent.
        let mut fragment = Vec::new();
        let mut seen = HashSet::new();
        let mut stack: Vec<(McNodeId, McNodeId)> = roots.iter().rev().map(|&r| (parent, r)).collect();
        while let Some((p, n)) = stack.pop() {
            if occurs(n) || !seen.insert(n) {
                return Err(AttachError::Duplicate(n, color()));
            }
            fragment.push((p, n));
            stack.extend(edges.get(&n).into_iter().flatten().rev().map(|&k| (n, k)));
        }
        if fragment.is_empty() {
            return Ok(());
        }
        self.generation += 1;
        for &(p, n) in &fragment {
            if !self.db.colors(n).contains(c) {
                self.db.0.add_node_color(n, c);
            }
            self.db.0.append_child(p, n, c);
        }
        if self.db.0.number_fragment(parent, roots, c) {
            for &(_, n) in &fragment {
                self.write_struct(n, c)?;
            }
        } else {
            // Renumbering rewrites every structural record of `c`,
            // the fragment's included.
            self.reindex_color(c)?;
        }
        for &(_, n) in &fragment {
            self.write_records(n)?;
        }
        Ok(())
    }

    /// Color-scoped delete (§4.3): remove node `n` with its color-`c`
    /// subtree from colored tree `c` only. The nodes keep their other
    /// colors and their content and attribute records, and every other
    /// node keeps its code. No-op when `n` does not occur in `c`; `n`
    /// must not be the document node.
    pub fn detach(&mut self, n: McNodeId, c: ColorId) -> mct_storage::Result<()> {
        assert_ne!(n, McNodeId::DOCUMENT, "the document node roots every colored tree");
        if !self.db.colors(n).contains(c) {
            return Ok(());
        }
        let subtree: Vec<McNodeId> = self.db.descendants_or_self(n, c).collect();
        for d in subtree {
            self.unindex_node(d, c)?;
        }
        self.db.0.remove_color(n, c);
        Ok(())
    }

    /// Replace an element's content, updating heap and content index.
    pub fn update_content(&mut self, n: McNodeId, new: &str) -> mct_storage::Result<()> {
        self.generation += 1;
        let old = self.db.content(n).map(str::to_string);
        self.db.0.set_content(n, new);
        if let Some(old) = &old {
            self.content_index.remove(&self.pool, old, u64::from(n.0))?;
        }
        let rec = encode_content(n, new);
        let rid = match self.content_rid.get(n.index()).copied().flatten() {
            // The record may relocate when it grows past its page.
            Some(rid) => self.content_heap.update(&self.pool, rid, &rec)?,
            None => {
                if self.content_rid.len() < self.db.len() {
                    self.content_rid.resize(self.db.len(), None);
                }
                self.content_heap.insert(&self.pool, &rec)?
            }
        };
        if self.content_rid[n.index()] != Some(rid) {
            self.set_rid(false, n, rid);
        }
        self.content_index.insert(&self.pool, new, u64::from(n.0))?;
        Ok(())
    }

    /// Write node `n`'s content and attribute records and index
    /// entries, each unless it has one already (from an earlier color).
    fn write_records(&mut self, n: McNodeId) -> mct_storage::Result<()> {
        let node = self.db.node(n).clone();
        let has = |rids: &[Option<RecordId>]| rids.get(n.index()).copied().flatten().is_some();
        if let Some(content) = node.content.as_deref().filter(|_| !has(&self.content_rid)) {
            let rid = self.content_heap.insert(&self.pool, &encode_content(n, content))?;
            self.content_index.insert(&self.pool, content, u64::from(n.0))?;
            self.set_rid(false, n, rid);
        }
        if !node.attrs.is_empty() && !has(&self.attr_rid) {
            let rid = self.attr_heap.insert(&self.pool, &encode_attrs(n, &node.attrs))?;
            for (s, v) in &node.attrs {
                let key = format!("{}={}", self.db.names.resolve(*s), v);
                self.attr_index.insert(&self.pool, &key, u64::from(n.0))?;
            }
            self.set_rid(true, n, rid);
        }
        Ok(())
    }

    /// Write node `n`'s structural record in color `c` and its tag and
    /// link index entries.
    fn write_struct(&mut self, n: McNodeId, c: ColorId) -> mct_storage::Result<()> {
        let i = self.storage_of(c)?;
        let name = self.db.node(n).name.expect("element named");
        let code = self.db.code(n, c).expect("code assigned");
        let rid = self.struct_heaps[i].insert(&self.pool, &encode_struct(n, name, code))?;
        self.tag_indexes[i].insert(&self.pool, name.0, code, u64::from(n.0))?;
        self.link_indexes[i].insert(&self.pool, &KeyEncoder::u32(n.0), pack_rid(rid))?;
        Ok(())
    }

    /// Remove node `n` from colored tree `c`'s structural heap and
    /// indexes (physical side of a color-scoped delete).
    pub(crate) fn unindex_node(&mut self, n: McNodeId, c: ColorId) -> mct_storage::Result<()> {
        self.generation += 1;
        let name = self.db.node(n).name.expect("element named");
        let i = self.storage_of(c)?;
        if let Some(code) = self.db.code(n, c) {
            self.tag_indexes[i].remove(&self.pool, name.0, code)?;
            if let Some(packed) = self.link_indexes[i].get(&self.pool, &KeyEncoder::u32(n.0))? {
                self.struct_heaps[i].delete(&self.pool, unpack_rid(packed))?;
            }
            self.link_indexes[i].delete(&self.pool, &KeyEncoder::u32(n.0))?;
        }
        Ok(())
    }

    /// Renumber color `c` and rebuild its structural heap and indexes
    /// from the codes. The first color without storage gets its heap
    /// and indexes here; [`Self::ensure_all_annotated`] reaches such
    /// colors in palette order. The old heap's and indexes' pages are
    /// not reused.
    fn reindex_color(&mut self, c: ColorId) -> mct_storage::Result<()> {
        self.generation += 1;
        self.db.0.annotate(c);
        let members = self.db.descendants_or_self(McNodeId::DOCUMENT, c).skip(1);
        let (heap, tag, link) = load_color(&self.pool, &self.db, c, members)?;
        if c.index() == self.struct_heaps.len() {
            self.struct_heaps.push(heap);
            self.tag_indexes.push(tag);
            self.link_indexes.push(link);
        } else {
            self.struct_heaps[c.index()] = heap;
            self.tag_indexes[c.index()] = tag;
            self.link_indexes[c.index()] = link;
        }
        Ok(())
    }

    // ----- statistics (Table 1) -------------------------------------------------

    /// Storage statistics in the shape of the paper's Table 1.
    pub fn stats(&self) -> StorageStats {
        let (num_elements, num_attrs, num_content) = self.db.counts();
        let data_pages = self.content_heap.page_count()
            + self.attr_heap.page_count()
            + self
                .struct_heaps
                .iter()
                .map(HeapFile::page_count)
                .sum::<usize>();
        let index_pages: u64 = self
            .tag_indexes
            .iter()
            .map(|t| u64::from(t.page_count()))
            .chain(self.link_indexes.iter().map(|t| u64::from(t.page_count())))
            .sum::<u64>()
            + u64::from(self.content_index.page_count())
            + u64::from(self.attr_index.page_count());
        StorageStats {
            num_elements,
            num_attrs,
            num_content,
            num_structural: self.db.structural_count(),
            data_bytes: data_pages as u64 * PAGE_SIZE as u64,
            index_bytes: index_pages * PAGE_SIZE as u64,
        }
    }

    /// Cold-cache mode: drop every cached page (§7: "flushing all
    /// buffers completely before each query evaluation").
    pub fn flush_cache(&self) -> mct_storage::Result<()> {
        self.pool.evict_all()
    }
}

/// Tag-index postings as structural references.
fn struct_refs(posts: Vec<mct_storage::index::Posting>) -> Vec<StructRef> {
    posts
        .into_iter()
        .map(|p| StructRef {
            node: McNodeId(p.node as u32),
            code: p.code,
        })
        .collect()
}

/// True when `record` is a rooted catalog record (see the snapshot
/// module); false for a chained or malformed one.
fn is_rooted(record: &[u8]) -> bool {
    Header::of(record).is_ok_and(|h| h.rooted())
}

/// Sort `(key, value)` pairs and bulk-load them into a fresh B+-tree.
/// A key given twice is stored once, as an insert would overwrite it.
fn load_index<D: DiskManager>(
    pool: &BufferPool<D>,
    mut entries: Vec<(Vec<u8>, u64)>,
) -> mct_storage::Result<BTree> {
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|a, b| a.0 == b.0);
    BTree::bulk_load(pool, &entries)
}

/// Color `c`'s physical side for its member elements: their
/// structural records appended to a fresh heap in the order given,
/// and the tag and link indexes over them bulk-loaded.
fn load_color<D: DiskManager>(
    pool: &BufferPool<D>,
    db: &MctDatabase,
    c: ColorId,
    members: impl Iterator<Item = McNodeId>,
) -> mct_storage::Result<(HeapFile, TagIndex, BTree)> {
    let mut heap = HeapFile::new();
    let mut tags = Vec::new();
    let mut links = Vec::new();
    for n in members {
        let name = db.node(n).name.expect("element named");
        let code = db.code(n, c).expect("annotated");
        let rid = heap.insert(pool, &encode_struct(n, name, code))?;
        tags.push((TagIndex::key(name.0, &code), u64::from(n.0)));
        // The link index points at the structural record (Figure 10's
        // back-links).
        links.push((KeyEncoder::u32(n.0).to_vec(), pack_rid(rid)));
    }
    let tag = TagIndex::from_btree(load_index(pool, tags)?);
    Ok((heap, tag, load_index(pool, links)?))
}

pub(crate) fn encode_content(n: McNodeId, content: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + content.len());
    out.extend_from_slice(&n.0.to_le_bytes());
    out.extend_from_slice(content.as_bytes());
    out
}

pub(crate) fn decode_content(rec: &[u8]) -> (McNodeId, String) {
    let n = McNodeId(u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]));
    (n, String::from_utf8_lossy(&rec[4..]).into_owned())
}

pub(crate) fn encode_attrs(n: McNodeId, attrs: &[(Sym, Box<str>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + attrs.len() * 12);
    out.extend_from_slice(&n.0.to_le_bytes());
    out.extend_from_slice(&(attrs.len() as u16).to_le_bytes());
    for (s, v) in attrs {
        out.extend_from_slice(&s.0.to_le_bytes());
        out.extend_from_slice(&(v.len() as u16).to_le_bytes());
        out.extend_from_slice(v.as_bytes());
    }
    out
}

pub(crate) fn decode_attrs(rec: &[u8], db: &MctDatabase) -> Vec<(String, String)> {
    let count = u16::from_le_bytes([rec[4], rec[5]]) as usize;
    let mut out = Vec::with_capacity(count);
    let mut at = 6;
    for _ in 0..count {
        let sym = Sym(u32::from_le_bytes([
            rec[at],
            rec[at + 1],
            rec[at + 2],
            rec[at + 3],
        ]));
        let len = u16::from_le_bytes([rec[at + 4], rec[at + 5]]) as usize;
        at += 6;
        let v = String::from_utf8_lossy(&rec[at..at + len]).into_owned();
        at += len;
        out.push((db.names.resolve(sym).to_string(), v));
    }
    out
}

pub(crate) fn encode_struct(n: McNodeId, name: Sym, code: IntervalCode) -> Vec<u8> {
    let mut out = Vec::with_capacity(18);
    out.extend_from_slice(&code.to_bytes());
    out.extend_from_slice(&name.0.to_le_bytes());
    out.extend_from_slice(&n.0.to_le_bytes());
    out
}

fn pack_rid(rid: RecordId) -> u64 {
    (u64::from(rid.page.0) << 16) | u64::from(rid.slot)
}

pub(crate) fn unpack_rid(v: u64) -> RecordId {
    RecordId {
        page: mct_storage::PageId((v >> 16) as u32),
        slot: (v & 0xFFFF) as u16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::MctDatabase;

    fn small_db() -> MctDatabase {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");
        let genre = db.new_element("movie-genre", red);
        db.set_content(genre, "Comedy");
        db.append_child(McNodeId::DOCUMENT, genre, red);
        let award = db.new_element("movie-award", green);
        db.set_content(award, "Oscar");
        db.append_child(McNodeId::DOCUMENT, award, green);
        for i in 0..10 {
            let m = db.new_element("movie", red);
            db.set_attr(m, "id", &format!("m{i}"));
            db.append_child(genre, m, red);
            let name = db.new_element("name", red);
            db.set_content(name, &format!("Movie {i}"));
            db.append_child(m, name, red);
            if i % 2 == 0 {
                db.add_node_color(m, green);
                db.append_child(award, m, green);
            }
        }
        db
    }

    #[test]
    fn build_and_postings() {
        let s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let red = s.db.color("red").unwrap();
        let green = s.db.color("green").unwrap();
        let red_movies = s.postings_named(red, "movie").unwrap();
        let green_movies = s.postings_named(green, "movie").unwrap();
        assert_eq!(red_movies.len(), 10);
        assert_eq!(green_movies.len(), 5);
        // Posting lists are sorted by start (document order).
        assert!(red_movies.windows(2).all(|w| w[0].code.start < w[1].code.start));
        // Unknown tag -> empty.
        assert!(s.postings_named(red, "nope").unwrap().is_empty());
        let report = s.check().unwrap();
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn content_and_attr_lookup() {
        let s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let hits = s.content_lookup("Movie 3").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(s.db.name_str(hits[0]), Some("name"));
        let byattr = s.attr_lookup("id", "m7").unwrap();
        assert_eq!(byattr.len(), 1);
        assert_eq!(s.db.name_str(byattr[0]), Some("movie"));
        assert!(s.content_lookup("Movie 99").unwrap().is_empty());
    }

    #[test]
    fn fetch_content_via_heap() {
        let s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let hits = s.content_lookup("Movie 3").unwrap();
        assert_eq!(s.fetch_content(hits[0]).unwrap().as_deref(), Some("Movie 3"));
        let red = s.db.color("red").unwrap();
        let movies = s.postings_named(red, "movie").unwrap();
        assert_eq!(s.fetch_content(movies[0].node).unwrap(), None);
        let attrs = s.fetch_attrs(movies[0].node).unwrap();
        assert_eq!(attrs, vec![("id".to_string(), "m0".to_string())]);
    }

    #[test]
    fn link_probe_matches_direct() {
        let s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let red = s.db.color("red").unwrap();
        let green = s.db.color("green").unwrap();
        let red_movies = s.postings_named(red, "movie").unwrap();
        for r in &red_movies {
            let via_probe = s.link_probe(r.node, green).unwrap();
            let via_direct = s.link_direct(r.node, green);
            match (via_probe, via_direct) {
                (Some(p), Some(d)) => {
                    assert_eq!(p.start, d.start);
                    assert_eq!(p.end, d.end);
                }
                (None, None) => {}
                other => panic!("probe/direct disagree: {other:?}"),
            }
        }
        // Exactly the even movies are green.
        let crossings = red_movies
            .iter()
            .filter(|r| s.link_direct(r.node, green).is_some())
            .count();
        assert_eq!(crossings, 5);
    }

    #[test]
    fn stats_count_structural_replication() {
        let s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let st = s.stats();
        // 2 hierarchy roots + 10 movies + 10 names = 22 elements.
        assert_eq!(st.num_elements, 22);
        // movies with 2 colors: 5 extra structural records.
        assert_eq!(st.num_structural, 27);
        assert_eq!(st.num_attrs, 10);
        assert_eq!(st.num_content, 12);
        assert!(st.data_bytes > 0);
        assert!(st.index_bytes > 0);
    }

    #[test]
    fn update_content_is_visible_everywhere() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let hits = s.content_lookup("Movie 3").unwrap();
        let n = hits[0];
        s.update_content(n, "Renamed").unwrap();
        assert!(s.content_lookup("Movie 3").unwrap().is_empty());
        assert_eq!(s.content_lookup("Renamed").unwrap(), vec![n]);
        assert_eq!(s.fetch_content(n).unwrap().as_deref(), Some("Renamed"));
        assert_eq!(s.db.content(n), Some("Renamed"));
    }

    #[test]
    fn insert_element_write_through() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let red = s.db.color("red").unwrap();
        let genre = s.postings_named(red, "movie-genre").unwrap()[0].node;
        let m = s.new_element("movie", Some("Fresh Movie"), &[]);
        s.attach(genre, &[m], &HashMap::new(), red).unwrap();
        let movies = s.postings_named(red, "movie").unwrap();
        assert_eq!(movies.len(), 11);
        assert_eq!(s.content_lookup("Fresh Movie").unwrap(), vec![m]);
        assert!(s.check().unwrap().is_ok());
    }

    #[test]
    fn detach_removes_from_postings() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let green = s.db.color("green").unwrap();
        let gm = s.postings_named(green, "movie").unwrap();
        let victim = gm[0].node;
        s.detach(victim, green).unwrap();
        let after = s.postings_named(green, "movie").unwrap();
        assert_eq!(after.len(), gm.len() - 1);
        assert!(after.iter().all(|r| r.node != victim));
        // Red side unaffected.
        let red = s.db.color("red").unwrap();
        assert_eq!(s.postings_named(red, "movie").unwrap().len(), 10);
    }

    #[test]
    fn reindex_color_after_renumber() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let red = s.db.color("red").unwrap();
        s.db.0.annotate(red); // force renumber
        s.reindex_color(red).unwrap();
        let movies = s.postings_named(red, "movie").unwrap();
        assert_eq!(movies.len(), 10);
        for r in &movies {
            assert_eq!(s.db.code(r.node, red).unwrap().start, r.code.start);
        }
        let report = s.check().unwrap();
        assert!(report.is_ok(), "{report}");
    }

    fn walled_pool(pool_bytes: usize) -> BufferPool<MemDisk> {
        let mut pool = BufferPool::new(MemDisk::new(), pool_bytes);
        pool.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
        pool
    }

    #[test]
    fn sync_open_roundtrip_in_memory() {
        let mut s = StoredDb::build_on(walled_pool(4 * 1024 * 1024), small_db()).unwrap();
        let before = s.digest();
        s.sync().unwrap();
        let (data, wal) = s.pool.into_parts();
        let r = StoredDb::open_with(data, wal.unwrap().into_disk(), 4 * 1024 * 1024)
            .unwrap()
            .expect("committed state recovered");
        assert_eq!(r.digest(), before);
        // Recovered database still answers value lookups and probes.
        let green = r.db.color("green").unwrap();
        let hits = r.content_lookup("Movie 3").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(r.attr_lookup("id", "m2").unwrap().len(), 1);
        let red_movies = {
            let red = r.db.color("red").unwrap();
            r.postings_named(red, "movie").unwrap()
        };
        let crossings = red_movies
            .iter()
            .filter(|m| r.link_probe(m.node, green).unwrap().is_some())
            .count();
        assert_eq!(crossings, 5);
    }

    #[test]
    fn snapshot_ship_and_rebuild_matches_source() {
        // The replication bootstrap path in miniature: raw pages +
        // catalog blob shipped to a fresh MemDisk rebuild the exact
        // same observable store.
        let mut s = StoredDb::build_on(walled_pool(4 * 1024 * 1024), small_db()).unwrap();
        s.sync().unwrap();
        let before = s.digest();
        let catalog = s.snapshot_catalog();
        let mut shipped = MemDisk::new();
        for p in 0..s.pool.num_pages() {
            let mut buf = [0u8; PAGE_SIZE];
            s.pool
                .read_page_raw(mct_storage::PageId(p), &mut buf)
                .unwrap();
            shipped.allocate().unwrap();
            shipped.write(mct_storage::PageId(p), &buf).unwrap();
        }
        let mut r = StoredDb::from_snapshot(shipped, &catalog, 4 * 1024 * 1024).unwrap();
        assert_eq!(r.digest(), before);
        assert!(!r.pool.has_wal(), "replicas have no log of their own");

        // Replicated-commit apply: mutate the source, commit, ship the
        // images + commit the way the stream would.
        let n = s.content_lookup("Movie 3").unwrap()[0];
        s.update_content(n, "Shipped Edit").unwrap();
        s.sync().unwrap();
        let after = s.digest();
        let mut cursor = mct_storage::TailCursor::new();
        let (records, remaining) = s
            .pool
            .with_wal(|wal| wal.read_committed_after(&mut cursor, 0, u64::MAX))
            .unwrap();
        assert_eq!(remaining, 0);
        for rec in records {
            match rec {
                mct_storage::ReplRecord::Image { page, image, .. } => {
                    r.apply_repl_image(page, &image).unwrap();
                }
                mct_storage::ReplRecord::Commit {
                    num_pages, catalog, ..
                } => {
                    r.apply_repl_commit(num_pages, &catalog).unwrap();
                }
            }
        }
        assert_eq!(r.digest(), after);
        assert_eq!(r.content_lookup("Shipped Edit").unwrap(), vec![n]);
        assert!(r.generation() > 0, "replicated commit bumps the generation");
    }

    #[test]
    fn open_before_first_sync_is_none() {
        let s = StoredDb::build_on(walled_pool(4 * 1024 * 1024), small_db()).unwrap();
        // No sync() — nothing is durable yet.
        let (data, wal) = s.pool.into_parts();
        assert!(
            StoredDb::open_with(data, wal.unwrap().into_disk(), 4 * 1024 * 1024)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn changes_after_sync_roll_back_on_reopen() {
        let mut s = StoredDb::build_on(walled_pool(4 * 1024 * 1024), small_db()).unwrap();
        s.sync().unwrap();
        let before = s.digest();
        let hits = s.content_lookup("Movie 3").unwrap();
        s.update_content(hits[0], "Unsynced Edit").unwrap();
        s.pool.flush_all().unwrap(); // even flushed-but-uncommitted pages roll back
        let (data, wal) = s.pool.into_parts();
        let r = StoredDb::open_with(data, wal.unwrap().into_disk(), 4 * 1024 * 1024)
            .unwrap()
            .unwrap();
        assert_eq!(r.digest(), before);
        assert!(r.content_lookup("Unsynced Edit").unwrap().is_empty());
        assert_eq!(r.content_lookup("Movie 3").unwrap().len(), 1);
    }

    #[test]
    fn sync_without_wal_errors() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        assert!(s.sync().is_err(), "MemDisk pool without WAL cannot sync");
    }

    #[test]
    fn create_sync_open_on_files() {
        let dir = std::env::temp_dir().join(format!("mct-persist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let before = {
            let mut s = StoredDb::create(&dir, small_db(), 4 * 1024 * 1024).unwrap();
            s.sync().unwrap();
            s.digest()
        };
        let mut r = StoredDb::open(&dir, 4 * 1024 * 1024)
            .unwrap()
            .expect("durable database reopened");
        assert_eq!(r.digest(), before);
        // A second sync after an update survives another reopen.
        let n = r.content_lookup("Movie 1").unwrap()[0];
        r.update_content(n, "Second Life").unwrap();
        r.sync().unwrap();
        drop(r);
        let r2 = StoredDb::open(&dir, 4 * 1024 * 1024).unwrap().unwrap();
        assert_eq!(r2.content_lookup("Second Life").unwrap(), vec![n]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_bumps_on_every_write_path() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        assert_eq!(s.generation(), 0, "fresh build starts at 0");
        let n = s.content_lookup("Movie 3").unwrap()[0];
        s.update_content(n, "Renamed").unwrap();
        let g1 = s.generation();
        assert!(g1 > 0, "update_content bumps");
        // Reads leave the generation untouched.
        let red = s.db.color("red").unwrap();
        s.postings_named(red, "movie").unwrap();
        s.fetch_content(n).unwrap();
        assert_eq!(s.generation(), g1);
        let green = s.db.color("green").unwrap();
        let victim = s.postings_named(green, "movie").unwrap()[0].node;
        s.detach(victim, green).unwrap();
        assert!(s.generation() > g1, "detach bumps");
        let g2 = s.generation();
        let n = s.new_element("note", None, &[]);
        assert_eq!(s.generation(), g2, "an uncolored node changes no record");
        s.attach(McNodeId::DOCUMENT, &[n], &HashMap::new(), green).unwrap();
        assert!(s.generation() > g2, "attach bumps");
        let g3 = s.generation();
        s.add_color("blue").unwrap();
        assert!(s.generation() > g3, "add_color bumps");
    }

    #[test]
    fn structural_updates_keep_every_other_code() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let red = s.db.color("red").unwrap();
        let codes = |s: &StoredDb| -> Vec<_> {
            (0..s.db.len() as u32).map(|i| s.db.code(McNodeId(i), red)).collect()
        };
        let before = codes(&s);
        let genre = s.postings_named(red, "movie-genre").unwrap()[0].node;
        let m = s.new_element("movie", None, &[]);
        let name = s.new_element("name", Some("Gap Movie"), &[]);
        s.attach(genre, &[m], &HashMap::from([(m, vec![name])]), red).unwrap();
        let victim = s.postings_named(red, "movie").unwrap()[3].node;
        let gone: Vec<_> = s.db.descendants_or_self(victim, red).collect();
        s.detach(victim, red).unwrap();
        let after = codes(&s);
        for (i, b) in before.iter().enumerate() {
            if !gone.contains(&McNodeId(i as u32)) {
                assert_eq!(after[i], *b, "n{i} keeps its code");
            }
        }
        let fresh = s.db.code(m, red).unwrap();
        assert!(fresh.is_parent_of(&s.db.code(name, red).unwrap()));
        assert!(s.db.code(genre, red).unwrap().is_parent_of(&fresh));
        assert_eq!(s.postings_named(red, "movie").unwrap().len(), 10);
        let report = s.check().unwrap();
        assert!(report.is_ok(), "{report}");
    }

    /// A multi-structure mutation batch used by the txn tests: content
    /// rewrite + fresh element + color-scoped delete.
    fn mutate_everything<D: DiskManager>(s: &mut StoredDb<D>) -> mct_storage::Result<()> {
        let n = s.content_lookup("Movie 3")?[0];
        s.update_content(n, "Txn Edit")?;
        let red = s.db.color("red").unwrap();
        let genre = s.postings_named(red, "movie-genre")?[0].node;
        let m = s.new_element("movie", Some("Txn Movie"), &[]);
        match s.attach(genre, &[m], &HashMap::new(), red) {
            Err(AttachError::Storage(e)) => return Err(e),
            other => other.unwrap(),
        }
        let green = s.db.color("green").unwrap();
        let victim = s.postings_named(green, "movie")?[0].node;
        s.detach(victim, green)
    }

    #[test]
    fn txn_abort_restores_fingerprint_without_wal() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let before = s.digest();
        let txn = s.begin_txn().unwrap();
        mutate_everything(&mut s).unwrap();
        assert_ne!(s.digest(), before, "mutations visible inside the txn");
        s.abort_txn(txn).unwrap();
        assert_eq!(s.digest(), before, "abort restores everything");
        assert!(s.content_lookup("Txn Edit").unwrap().is_empty());
        assert_eq!(s.content_lookup("Movie 3").unwrap().len(), 1);
    }

    #[test]
    fn txn_abort_restores_fingerprint_with_wal() {
        let mut s = StoredDb::build_on(walled_pool(4 * 1024 * 1024), small_db()).unwrap();
        s.sync().unwrap();
        let before = s.digest();
        let txn = s.begin_txn().unwrap();
        mutate_everything(&mut s).unwrap();
        s.abort_txn(txn).unwrap();
        assert_eq!(s.digest(), before);
        // The aborted state is also what a reopen recovers.
        let (data, wal) = s.pool.into_parts();
        let r = StoredDb::open_with(data, wal.unwrap().into_disk(), 4 * 1024 * 1024)
            .unwrap()
            .unwrap();
        assert_eq!(r.digest(), before);
    }

    /// An abort puts back the begin-time catalog byte for byte, with a
    /// WAL and without, after value, structure and color changes.
    #[test]
    fn txn_abort_restores_the_catalog_bytes() {
        for wal in [false, true] {
            let mut s = if wal {
                StoredDb::build_on(walled_pool(4 * 1024 * 1024), small_db()).unwrap()
            } else {
                StoredDb::build_on(BufferPool::new(MemDisk::new(), 4 * 1024 * 1024), small_db())
                    .unwrap()
            };
            if wal {
                s.sync().unwrap();
            }
            let txn = s.begin_txn().unwrap();
            let at_begin = s.snapshot_catalog();
            mutate_everything(&mut s).unwrap();
            let blue = s.add_color("blue").unwrap();
            let b = s.new_element("blue-root", None, &[]);
            s.attach(McNodeId::DOCUMENT, &[b], &HashMap::new(), blue).unwrap();
            assert_ne!(s.snapshot_catalog(), at_begin);
            s.abort_txn(txn).unwrap();
            assert!(s.snapshot_catalog() == at_begin, "wal={wal}: abort left another catalog");
            assert!(s.check().unwrap().is_ok());
        }
    }

    /// Commits after the first are deltas; recovery rebuilds the same
    /// catalog from the full one and the chain, also across a
    /// checkpoint; a delta that does not extend a store's catalog is
    /// refused before anything changes.
    #[test]
    fn delta_chain_recovers_byte_exact_and_refuses_a_foreign_base() {
        let mut s = StoredDb::build_on(walled_pool(4 * 1024 * 1024), small_db()).unwrap();
        s.sync().unwrap();
        let reopen = |s: &mut StoredDb| {
            let mut data = MemDisk::new();
            let mut buf = [0u8; PAGE_SIZE];
            for p in 0..s.pool.num_pages() {
                s.pool.read_page_raw(mct_storage::PageId(p), &mut buf).unwrap();
                data.allocate().unwrap();
                data.write(mct_storage::PageId(p), &buf).unwrap();
            }
            let records = s
                .pool
                .with_wal(|w| w.read_committed_after(&mut mct_storage::TailCursor::new(), 0, u64::MAX))
                .unwrap()
                .0;
            let mut fresh = Wal::create(Box::new(MemDisk::new())).unwrap();
            for r in records {
                if let mct_storage::ReplRecord::Commit { num_pages, catalog, .. } = r {
                    fresh.append_commit(num_pages, &catalog).unwrap();
                }
            }
            StoredDb::open_with(data, fresh.into_disk(), 4 * 1024 * 1024)
                .unwrap()
                .unwrap()
                .snapshot_catalog()
        };
        let txn = s.begin_txn().unwrap();
        mutate_everything(&mut s).unwrap();
        s.commit_txn(txn).unwrap();
        let stale = s.snapshot_catalog();
        assert_eq!(reopen(&mut s), s.snapshot_catalog());
        s.checkpoint().unwrap();
        let n = s.content_lookup("Movie 1").unwrap()[0];
        s.update_content(n, "After the checkpoint").unwrap();
        s.sync().unwrap();
        assert_eq!(reopen(&mut s), s.snapshot_catalog());

        // A delta on another base: refused, nothing changed.
        let mut other = StoredDb::from_snapshot(MemDisk::new(), &stale, 4 * 1024 * 1024).unwrap();
        let mut cursor = mct_storage::TailCursor::new();
        let (records, _) = s
            .pool
            .with_wal(|w| w.read_committed_after(&mut cursor, 0, u64::MAX))
            .unwrap();
        let delta = records
            .into_iter()
            .rev()
            .find_map(|r| match r {
                mct_storage::ReplRecord::Commit { catalog, checkpoint: false, .. } => Some(catalog),
                _ => None,
            })
            .unwrap();
        let err = other.apply_repl_commit(0, &delta).unwrap_err();
        assert!(matches!(err, StorageError::CatalogBase { .. }), "{err}");
        assert!(other.snapshot_catalog() == stale);
    }

    /// A record-id map's length is its base plus the tail the record
    /// carries: a record claiming a million slots it does not hold is
    /// refused as corrupt, allocates nothing for them and changes
    /// nothing.
    #[test]
    fn a_record_id_map_longer_than_its_payload_is_corrupt() {
        let mut s = StoredDb::build_on(walled_pool(4 * 1024 * 1024), small_db()).unwrap();
        s.sync().unwrap();
        let base = s.snapshot_catalog();
        let lsn = s.pool.with_wal(|w| Ok(w.committed_lsn())).unwrap();
        let n = s.content_lookup("Movie 3").unwrap()[0];
        s.update_content(n, "Movie 4").unwrap();
        s.sync().unwrap();
        let (records, _) = s
            .pool
            .with_wal(|w| {
                w.read_committed_after(&mut mct_storage::TailCursor::new(), lsn, u64::MAX)
            })
            .unwrap();
        let mut record = records
            .into_iter()
            .find_map(|r| match r {
                mct_storage::ReplRecord::Commit { catalog, .. } => Some(catalog),
                mct_storage::ReplRecord::Image { .. } => None,
            })
            .unwrap();
        // The attribute map comes last: no changed slot, an empty tail.
        let at = record.len() - 4;
        assert_eq!(record[at - 4..], [0; 8]);
        record[at..].copy_from_slice(&1_000_000u32.to_le_bytes());

        let mut replica = StoredDb::from_snapshot(MemDisk::new(), &base, 4 * 1024 * 1024).unwrap();
        let attr_len = replica.attr_rid.len();
        let err = replica
            .apply_repl_commit(s.pool.num_pages(), &record)
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert_eq!(replica.attr_rid.len(), attr_len);
        assert!(replica.snapshot_catalog() == base);
    }

    #[test]
    fn txn_commit_makes_the_batch_durable() {
        let mut s = StoredDb::build_on(walled_pool(4 * 1024 * 1024), small_db()).unwrap();
        s.sync().unwrap();
        let txn = s.begin_txn().unwrap();
        mutate_everything(&mut s).unwrap();
        s.commit_txn(txn).unwrap();
        let after = s.digest();
        let (data, wal) = s.pool.into_parts();
        let r = StoredDb::open_with(data, wal.unwrap().into_disk(), 4 * 1024 * 1024)
            .unwrap()
            .unwrap();
        assert_eq!(r.digest(), after);
        assert_eq!(r.content_lookup("Txn Edit").unwrap().len(), 1);
    }

    #[test]
    fn crash_mid_txn_recovers_to_pre_txn_state() {
        let mut s = StoredDb::build_on(walled_pool(4 * 1024 * 1024), small_db()).unwrap();
        s.sync().unwrap();
        let before = s.digest();
        let txn = s.begin_txn().unwrap();
        mutate_everything(&mut s).unwrap();
        // Crash: neither commit nor abort; even force the loser's
        // pages onto the data file first.
        s.pool.flush_all().unwrap();
        drop(txn);
        let (data, wal) = s.pool.into_parts();
        let r = StoredDb::open_with(data, wal.unwrap().into_disk(), 4 * 1024 * 1024)
            .unwrap()
            .unwrap();
        assert_eq!(r.digest(), before, "loser txn fully undone");
    }

    #[test]
    fn with_txn_commits_on_ok_and_aborts_on_err() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let before = s.digest();
        let r: Result<(), mct_storage::StorageError> = s.with_txn(|s| {
            mutate_everything(s)?;
            Err(mct_storage::StorageError::Cancelled)
        });
        assert!(matches!(r, Err(mct_storage::StorageError::Cancelled)));
        assert_eq!(s.digest(), before, "Err path aborts");

        let r: Result<(), mct_storage::StorageError> = s.with_txn(mutate_everything);
        assert!(r.is_ok());
        assert_ne!(s.digest(), before, "Ok path commits");
    }

    #[test]
    fn with_txn_aborts_on_panic_and_stays_usable() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let before = s.digest();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), mct_storage::StorageError> = s.with_txn(|s| {
                mutate_everything(s)?;
                panic!("poisoned update closure");
            });
        }));
        assert!(unwound.is_err(), "the panic must propagate");
        assert_eq!(s.digest(), before, "panic path aborts");
        assert!(!s.pool.txn_active(), "no transaction left dangling");
        // The database remains fully serviceable: a later txn works.
        let r: Result<(), mct_storage::StorageError> = s.with_txn(mutate_everything);
        assert!(r.is_ok());
        assert_eq!(s.content_lookup("Txn Edit").unwrap().len(), 1);
    }

    #[test]
    fn cold_cache_flush() {
        let s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let red = s.db.color("red").unwrap();
        s.postings_named(red, "movie").unwrap();
        s.flush_cache().unwrap();
        let mark = s.pool.stats();
        s.postings_named(red, "movie").unwrap();
        assert!(
            s.pool.stats().delta_since(&mark).misses > 0,
            "cold read after flush"
        );
    }
}
