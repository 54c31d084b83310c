//! Write-ahead log: LSN-stamped, checksummed redo + undo records.
//!
//! The log is a byte stream laid over [`DiskManager`] pages (so the
//! fault-injection wrapper covers log I/O exactly like data I/O). Six
//! record kinds exist:
//!
//! * **page image** — the full post-write contents of one data page;
//! * **commit** — marks every preceding image as durable, and carries
//!   the committed data-file page count plus an opaque catalog blob
//!   (the database's logical + physical metadata: in `mct-core`, a
//!   catalog record, either chained onto the previous commit's or
//!   rooted — the change from an empty store);
//! * **txn begin** — opens a transaction (txn id);
//! * **undo** — the full *before*-image of a page about to be dirtied
//!   by an open transaction (txn id + page + image);
//! * **txn abort** — records that a transaction was rolled back in
//!   memory (its undo images were applied to the live pool);
//! * **checkpoint** — a commit record in all but kind, written by
//!   [`Wal::checkpoint`] at a point where every preceding effect is
//!   already durable in the data file.
//!
//! Each record is covered by its own CRC-32, so a torn append is
//! detected and the log logically ends at the last intact record
//! ([`Wal::open`] truncates the torn tail). Recovery
//! ([`Wal::replay_into`]) redoes every page image written before the
//! *last* commit record, in log order, truncates the data file to the
//! committed page count — dropping both torn data-page writes and
//! pages allocated by an uncommitted build — returns the catalog blob
//! of every commit in the live log (oldest first: the caller may apply
//! the last rooted record and the chain after it), and then **undoes
//! losers**: any transaction whose begin record sits after the last
//! commit never committed, so its undo images (captured against the
//! committed baseline) are applied in reverse log order, wiping
//! whatever the losing transaction managed to evict to the data file.
//!
//! The protocol in [`BufferPool::commit`](crate::BufferPool::commit)
//! is: log images of all pages dirtied since the previous commit →
//! log the commit record → fsync the log → flush the pool. The log
//! fsync is the commit point and the only fsync a commit pays: the
//! data file is not fsynced, so between checkpoints it is consistent
//! only together with the log, whose images since its start redo any
//! page write the crash lost. A crash at any point either recovers the
//! previous commit (commit record not durable) or the new one (it is).
//! Because every committed image is replayed on recovery, evicting an
//! uncommitted dirty page to the data file between commits is safe:
//! the overwrite is repaired by replay, and pages past the committed
//! count are truncated away.
//!
//! The log is reset only by an explicit [`Wal::reset`] (a fresh
//! database build); it is the authoritative copy of committed state.
//! Between resets it is bounded by **checkpointing**
//! ([`Wal::checkpoint`]): once the caller has made every committed
//! page durable in the data file (flush + fsync), a checkpoint record
//! — a commit record in all but kind — is appended carrying the
//! committed page count and catalog, and the log's *start pointer* is
//! advanced past the old prefix, so recovery replays only records
//! written since. The start pointer lives in two alternating
//! single-page header slots at pages 0 and 1 (records begin at byte
//! offset [`FRONT`]); each slot carries an epoch and a CRC, the live
//! slot is the valid one with the higher epoch, and a slot write is a
//! single page write so a torn header falls back to the other slot.
//! When the live region no longer overlaps the front of the file, the
//! checkpoint record is additionally rewritten at [`FRONT`] (with a
//! fresh, higher LSN) and the file physically truncated. Stale bytes
//! past a relocated checkpoint are fenced by an LSN-monotonicity
//! guard during the scan: a record whose LSN does not exceed its
//! predecessor's logically ends the log.

use crate::crc::crc32;
use crate::disk::DiskManager;
use crate::error::StorageError;
use crate::page::{PageId, PAGE_SIZE};
use crate::Result;
use mct_obs::{Counter, Gauge};
use std::sync::OnceLock;

/// Global-registry handles for WAL activity (`wal.*`), shared by
/// every log in the process.
struct WalCounters {
    appends: Counter,
    bytes_appended: Counter,
    fsyncs: Counter,
    commits: Counter,
    checkpoints: Counter,
    undo_records: Counter,
    replay_images_applied: Counter,
    replay_commits_seen: Counter,
    replay_undos_applied: Counter,
    replay_losers: Counter,
    /// Live bytes in the log (end − start); absolute, not a delta.
    bytes: Gauge,
}

fn wal_counters() -> &'static WalCounters {
    static C: OnceLock<WalCounters> = OnceLock::new();
    C.get_or_init(|| WalCounters {
        appends: mct_obs::counter("wal.appends"),
        bytes_appended: mct_obs::counter("wal.bytes_appended"),
        fsyncs: mct_obs::counter("wal.fsyncs"),
        commits: mct_obs::counter("wal.commits"),
        checkpoints: mct_obs::counter("wal.checkpoints"),
        undo_records: mct_obs::counter("wal.undo_records"),
        replay_images_applied: mct_obs::counter("wal.replay.images_applied"),
        replay_commits_seen: mct_obs::counter("wal.replay.commits_seen"),
        replay_undos_applied: mct_obs::counter("wal.replay.undos_applied"),
        replay_losers: mct_obs::counter("wal.replay.losers"),
        bytes: mct_obs::gauge("wal.bytes"),
    })
}

/// Magic leading every record (little-endian "WL").
const MAGIC: u16 = 0x4C57;
const HEADER: usize = 16; // magic u16, kind u8, pad u8, len u32, lsn u64
const TRAILER: usize = 4; // crc u32 over header + payload
/// Upper bound on payload length accepted during a scan; anything
/// larger is treated as a torn/corrupt record.
const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

const KIND_IMAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_TXN_BEGIN: u8 = 3;
const KIND_UNDO: u8 = 4;
const KIND_TXN_ABORT: u8 = 5;
/// Commit-shaped record written by [`Wal::checkpoint`]: same payload
/// as [`KIND_COMMIT`], but marks a point where every preceding effect
/// is already durable in the data file.
const KIND_CHECKPOINT: u8 = 6;

/// Magic leading each header slot ("WH" + version 2).
const HDR_MAGIC: u32 = 0x0248_4C57;
/// Byte offset where records begin: pages 0 and 1 are header slots.
pub const FRONT: u64 = 2 * PAGE_SIZE as u64;
/// Bytes of a header slot covered by its CRC (magic, epoch, start).
const HDR_BODY: usize = 4 + 8 + 8;

/// Outcome of scanning the log: the state the last commit captured.
#[derive(Debug)]
pub struct CommittedState {
    /// Data-file page count at the last commit.
    pub num_pages: u32,
    /// The catalog blob of every commit and checkpoint record in the
    /// live log, oldest first (so never empty). The log does not read
    /// them: a database that writes rooted and chained records rebuilds
    /// its catalog from the last rooted one and the chain after it.
    pub catalogs: Vec<Vec<u8>>,
    /// LSN of the last commit record.
    pub lsn: u64,
    /// Ids of loser transactions (begun after the last commit and
    /// never committed) whose undo images were applied.
    pub losers: Vec<u64>,
    /// Number of undo before-images applied while rolling back losers.
    pub undos_applied: u64,
}

/// A committed record surfaced to a tail reader (replication): only
/// page images and commit/checkpoint markers — transaction framing is
/// skipped, exactly as [`Wal::replay_into`] skips it for the
/// committed prefix.
#[derive(Debug, Clone)]
pub enum ReplRecord {
    /// Full post-write image of one data page.
    Image {
        lsn: u64,
        page: PageId,
        image: Vec<u8>,
    },
    /// Commit (or checkpoint) marker: every preceding image is
    /// durable; carries the committed page count and catalog blob.
    Commit {
        lsn: u64,
        num_pages: u32,
        catalog: Vec<u8>,
        /// True for [`Wal::checkpoint`] records (no new images; the
        /// catalog re-describes already-applied state).
        checkpoint: bool,
    },
}

impl CommittedState {
    /// The catalog blob of the last commit.
    pub fn catalog(&self) -> &[u8] {
        self.catalogs.last().map_or(&[], Vec::as_slice)
    }
}

impl ReplRecord {
    /// The record's LSN.
    pub fn lsn(&self) -> u64 {
        match self {
            ReplRecord::Image { lsn, .. } | ReplRecord::Commit { lsn, .. } => *lsn,
        }
    }
}

/// Position of a tail reader in the log. Offsets are physical and go
/// stale when [`Wal::checkpoint`] relocates the live region, so the
/// cursor also remembers the LSN of the last record it consumed: a
/// cursor is only trusted when the record at its offset carries a
/// *higher* LSN (the same monotonicity fence [`Wal::open`] uses), and
/// otherwise the read rescans from the live start, skipping records
/// the reader already has by LSN.
#[derive(Debug, Clone, Copy, Default)]
pub struct TailCursor {
    offset: u64,
    last_lsn: u64,
}

impl TailCursor {
    /// A cursor that has consumed nothing; the first read scans from
    /// the live start.
    pub fn new() -> TailCursor {
        TailCursor::default()
    }

    /// LSN of the last record this cursor consumed (0 initially).
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }
}

/// The write-ahead log over its own page file.
pub struct Wal {
    disk: Box<dyn DiskManager + Send>,
    /// Byte offset of the first live record (advanced by checkpoints).
    start: u64,
    /// Append cursor (byte offset past the last intact record).
    end: u64,
    /// Byte offset just past the last commit record, if any.
    last_commit_end: Option<u64>,
    /// LSN of the last commit/checkpoint record (0 when none).
    last_commit_lsn: u64,
    /// Oldest commit LSN a tail reader can resume from without a
    /// snapshot (see [`Wal::resume_floor`]).
    resume_floor: u64,
    next_lsn: u64,
    /// Epoch of the live header slot (0 until a checkpoint writes one).
    epoch: u64,
}

impl Wal {
    /// Start a fresh, empty log (drops any previous contents).
    pub fn create(mut disk: Box<dyn DiskManager + Send>) -> Result<Wal> {
        disk.truncate(0)?;
        Ok(Wal {
            disk,
            start: FRONT,
            end: FRONT,
            last_commit_end: None,
            last_commit_lsn: 0,
            resume_floor: 0,
            next_lsn: 1,
            epoch: 0,
        })
    }

    /// Open an existing log, scanning it to find the end of the intact
    /// prefix and the position of the last commit. The scan begins at
    /// the start offset named by the live header slot (or [`FRONT`]
    /// when no slot is valid) and also ends at the first record whose
    /// LSN fails to exceed its predecessor's — stale pre-checkpoint
    /// bytes left behind by a relocation look exactly like that. A
    /// torn tail (short or checksum-failing record) is truncated:
    /// subsequent appends overwrite it.
    pub fn open(disk: Box<dyn DiskManager + Send>) -> Result<Wal> {
        let mut wal = Wal {
            disk,
            start: FRONT,
            end: FRONT,
            last_commit_end: None,
            last_commit_lsn: 0,
            resume_floor: 0,
            next_lsn: 1,
            epoch: 0,
        };
        if let Some((epoch, start)) = wal.read_live_header()? {
            wal.epoch = epoch;
            wal.start = start;
        }
        let mut off = wal.start;
        let mut prev_lsn = 0u64;
        let mut first = true;
        while let Some((kind, lsn, total)) = wal.parse_record_at(off)? {
            if lsn <= prev_lsn {
                break;
            }
            if first {
                // Conservative resume floor after a restart: when the
                // log begins with a checkpoint, the images it captured
                // are gone, so only readers at/past its LSN can
                // resume. (The exact pre-checkpoint commit LSN is not
                // recorded; using the checkpoint's own LSN forces at
                // worst one extra snapshot.) A log that still starts
                // with ordinary records is complete from LSN 0.
                wal.resume_floor = if kind == KIND_CHECKPOINT { lsn } else { 0 };
                first = false;
            }
            prev_lsn = lsn;
            off += total;
            wal.next_lsn = wal.next_lsn.max(lsn + 1);
            if kind == KIND_COMMIT || kind == KIND_CHECKPOINT {
                wal.last_commit_end = Some(off);
                wal.last_commit_lsn = lsn;
            }
        }
        wal.end = off;
        wal_counters().bytes.set(wal.end - wal.start);
        Ok(wal)
    }

    /// Bytes the live log region occupies (records between the start
    /// pointer and the append cursor).
    pub fn len_bytes(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Byte offset of the first live record (exposed for tests and
    /// diagnostics; [`FRONT`] until a checkpoint moves it).
    pub fn start_offset(&self) -> u64 {
        self.start
    }

    /// Whether the log contains at least one commit record.
    pub fn has_commit(&self) -> bool {
        self.last_commit_end.is_some()
    }

    /// Next LSN that will be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN of the last commit or checkpoint record (0 when the log
    /// holds none). Everything at or below this LSN is committed and
    /// visible to tail readers.
    pub fn committed_lsn(&self) -> u64 {
        self.last_commit_lsn
    }

    /// Oldest committed LSN a tail reader can resume from: a reader
    /// that has applied everything up to `from_lsn` can catch up by
    /// streaming iff `resume_floor() <= from_lsn <=
    /// committed_lsn()` — otherwise the images it is missing were
    /// discarded by a checkpoint and it needs a full snapshot.
    /// Maintained as the LSN of the last commit whose state the most
    /// recent checkpoint captured (0 before any checkpoint).
    pub fn resume_floor(&self) -> u64 {
        self.resume_floor
    }

    /// Read committed records past `cursor`, skipping any with LSN ≤
    /// `after_lsn` (the reader already has them) and all transaction
    /// framing. Stops after ~`max_bytes` of emitted record bytes or at
    /// the last commit, whichever is first. Returns the records and
    /// the committed bytes still beyond the cursor (0 = caught up).
    ///
    /// The cursor carries the relocation fence: when its offset falls
    /// outside the live committed region, or the record there does
    /// not carry a higher LSN than the cursor's last (stale
    /// pre-relocation bytes look exactly like that), the read rescans
    /// from the live start — `after_lsn` keeps the rescan from
    /// re-emitting records the reader already applied, except for a
    /// relocated checkpoint record (fresh LSN, same payload), whose
    /// re-application is idempotent.
    pub fn read_committed_after(
        &mut self,
        cursor: &mut TailCursor,
        after_lsn: u64,
        max_bytes: u64,
    ) -> Result<(Vec<ReplRecord>, u64)> {
        let Some(commit_end) = self.last_commit_end else {
            return Ok((Vec::new(), 0));
        };
        let mut valid = cursor.offset >= self.start && cursor.offset <= commit_end;
        if valid && cursor.offset < commit_end {
            valid = matches!(
                self.parse_record_at(cursor.offset)?,
                Some((_, lsn, _)) if lsn > cursor.last_lsn
            );
        } else if valid {
            // At the committed end the cursor must have consumed the
            // last commit itself: a relocation can end its fresh copy
            // exactly where the stale cursor points.
            valid = cursor.last_lsn >= self.last_commit_lsn;
        }
        if !valid {
            cursor.offset = self.start;
            cursor.last_lsn = 0;
        }
        let mut out = Vec::new();
        let mut emitted = 0u64;
        while cursor.offset < commit_end && emitted < max_bytes {
            let Some((kind, lsn, total)) = self.parse_record_at(cursor.offset)? else {
                return Err(StorageError::Corrupt("WAL record vanished during tail"));
            };
            if lsn <= cursor.last_lsn {
                return Err(StorageError::Corrupt("WAL tail lost LSN monotonicity"));
            }
            if lsn > after_lsn {
                let payload_len = (total as usize) - HEADER - TRAILER;
                match kind {
                    KIND_IMAGE => {
                        let payload =
                            self.read_bytes(cursor.offset + HEADER as u64, payload_len)?;
                        let page = PageId(u32::from_le_bytes(
                            payload[0..4].try_into().expect("image header"),
                        ));
                        out.push(ReplRecord::Image {
                            lsn,
                            page,
                            image: payload[4..].to_vec(),
                        });
                        emitted += total;
                    }
                    KIND_COMMIT | KIND_CHECKPOINT => {
                        let payload =
                            self.read_bytes(cursor.offset + HEADER as u64, payload_len)?;
                        let num_pages =
                            u32::from_le_bytes(payload[0..4].try_into().expect("commit header"));
                        let cat_len =
                            u32::from_le_bytes(payload[4..8].try_into().expect("commit header"))
                                as usize;
                        if payload.len() < 8 + cat_len {
                            return Err(StorageError::Corrupt("WAL commit payload truncated"));
                        }
                        out.push(ReplRecord::Commit {
                            lsn,
                            num_pages,
                            catalog: payload[8..8 + cat_len].to_vec(),
                            checkpoint: kind == KIND_CHECKPOINT,
                        });
                        emitted += total;
                    }
                    KIND_TXN_BEGIN | KIND_UNDO | KIND_TXN_ABORT => {}
                    _ => return Err(StorageError::Corrupt("unknown WAL record kind")),
                }
            }
            cursor.offset += total;
            cursor.last_lsn = lsn;
        }
        Ok((out, commit_end.saturating_sub(cursor.offset)))
    }

    /// Append a page-image redo record; returns its LSN.
    pub fn append_image(&mut self, page: PageId, image: &[u8]) -> Result<u64> {
        debug_assert_eq!(image.len(), PAGE_SIZE);
        let mut payload = Vec::with_capacity(4 + PAGE_SIZE);
        payload.extend_from_slice(&page.0.to_le_bytes());
        payload.extend_from_slice(image);
        self.append(KIND_IMAGE, &payload)
    }

    /// Append a commit record carrying the committed page count and
    /// the catalog blob; returns its LSN.
    pub fn append_commit(&mut self, num_pages: u32, catalog: &[u8]) -> Result<u64> {
        let mut payload = Vec::with_capacity(8 + catalog.len());
        payload.extend_from_slice(&num_pages.to_le_bytes());
        payload.extend_from_slice(&(catalog.len() as u32).to_le_bytes());
        payload.extend_from_slice(catalog);
        let lsn = self.append(KIND_COMMIT, &payload)?;
        self.last_commit_end = Some(self.end);
        self.last_commit_lsn = lsn;
        wal_counters().commits.inc();
        Ok(lsn)
    }

    /// Append a transaction-begin record; returns its LSN.
    pub fn append_txn_begin(&mut self, txn: u64) -> Result<u64> {
        self.append(KIND_TXN_BEGIN, &txn.to_le_bytes())
    }

    /// Append an undo record: the before-image of `page` as it stood
    /// when transaction `txn` first dirtied it; returns its LSN.
    pub fn append_undo(&mut self, txn: u64, page: PageId, before: &[u8]) -> Result<u64> {
        debug_assert_eq!(before.len(), PAGE_SIZE);
        let mut payload = Vec::with_capacity(12 + PAGE_SIZE);
        payload.extend_from_slice(&txn.to_le_bytes());
        payload.extend_from_slice(&page.0.to_le_bytes());
        payload.extend_from_slice(before);
        let lsn = self.append(KIND_UNDO, &payload)?;
        wal_counters().undo_records.inc();
        Ok(lsn)
    }

    /// Append a transaction-abort record (the in-memory rollback
    /// already happened; this closes the txn in the log); returns its
    /// LSN.
    pub fn append_txn_abort(&mut self, txn: u64) -> Result<u64> {
        self.append(KIND_TXN_ABORT, &txn.to_le_bytes())
    }

    /// Force the log to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.disk.sync_data()?;
        wal_counters().fsyncs.inc();
        Ok(())
    }

    /// Tear the log down into its backing disk (e.g. to reopen it
    /// later with [`Wal::open`]).
    pub fn into_disk(self) -> Box<dyn DiskManager + Send> {
        self.disk
    }

    /// Drop all log contents (fresh-build path).
    pub fn reset(&mut self) -> Result<()> {
        self.disk.truncate(0)?;
        self.start = FRONT;
        self.end = FRONT;
        self.last_commit_end = None;
        self.last_commit_lsn = 0;
        self.resume_floor = 0;
        self.next_lsn = 1;
        self.epoch = 0;
        wal_counters().bytes.set(0);
        Ok(())
    }

    /// Checkpoint: bound the log by advancing its start pointer.
    ///
    /// **Precondition** (the caller's responsibility — see
    /// [`BufferPool::checkpoint`](crate::BufferPool::checkpoint)):
    /// every page of the committed state described by `num_pages` +
    /// `catalog` is already durable in the data file (flushed *and*
    /// fsynced). Nothing here may run before that fsync completes;
    /// advancing the start pointer discards the redo images that would
    /// otherwise repair a torn or lost data-page write.
    ///
    /// Sequence (each step fsynced before the next):
    /// 1. append a [`KIND_CHECKPOINT`] record (page count + catalog)
    ///    at the current end, offset `X`;
    /// 2. publish `start = X` in the next header slot — the logical
    ///    truncation point; a crash before this publishes nothing and
    ///    recovery replays the old prefix (idempotent);
    /// 3. if the live region `[X, end)` no longer overlaps the front
    ///    of the file, rewrite the checkpoint record at [`FRONT`] with
    ///    a *fresh* LSN, publish `start = FRONT`, and physically
    ///    truncate the file. The stale bytes after the relocated
    ///    record all carry older LSNs, so the scan guard in
    ///    [`Wal::open`] ends the log there.
    ///
    /// Returns the LSN of the live checkpoint record.
    pub fn checkpoint(&mut self, num_pages: u32, catalog: &[u8]) -> Result<u64> {
        let mut payload = Vec::with_capacity(8 + catalog.len());
        payload.extend_from_slice(&num_pages.to_le_bytes());
        payload.extend_from_slice(&(catalog.len() as u32).to_le_bytes());
        payload.extend_from_slice(catalog);
        let total = (HEADER + payload.len() + TRAILER) as u64;

        // Tail readers below the state this checkpoint captures (the
        // last commit) lose their images when the prefix is
        // discarded; they must re-bootstrap from a snapshot.
        self.resume_floor = self.last_commit_lsn;

        // 1. Checkpoint record at the current end.
        let x = self.end;
        let mut lsn = self.append(KIND_CHECKPOINT, &payload)?;
        self.sync()?;
        // 2. Logical truncation: the live log now starts at X.
        self.publish_start(x)?;
        self.start = x;
        self.last_commit_end = Some(self.end);
        self.last_commit_lsn = lsn;
        // 3. Physical reclamation, only when the fresh copy cannot
        // clobber the live region it is replacing. When it would
        // overlap, skip: the next checkpoint's X is further out and
        // will satisfy the condition.
        if FRONT + total <= x {
            self.end = FRONT;
            lsn = self.append(KIND_CHECKPOINT, &payload)?;
            self.sync()?;
            self.publish_start(FRONT)?;
            self.start = FRONT;
            self.last_commit_end = Some(self.end);
            self.last_commit_lsn = lsn;
            let pages = self.end.div_ceil(PAGE_SIZE as u64) as u32;
            self.disk.truncate(pages)?;
        }
        wal_counters().checkpoints.inc();
        wal_counters().bytes.set(self.end - self.start);
        Ok(lsn)
    }

    /// Write the next header slot (epoch + start + CRC) and fsync it.
    /// Slots alternate by epoch parity so the currently-live slot is
    /// never overwritten; a torn write invalidates only the new slot.
    fn publish_start(&mut self, start: u64) -> Result<()> {
        let epoch = self.epoch + 1;
        let slot = (epoch % 2) as u32;
        let mut buf = [0u8; PAGE_SIZE];
        buf[0..4].copy_from_slice(&HDR_MAGIC.to_le_bytes());
        buf[4..12].copy_from_slice(&epoch.to_le_bytes());
        buf[12..20].copy_from_slice(&start.to_le_bytes());
        let crc = crc32(&buf[..HDR_BODY]);
        buf[HDR_BODY..HDR_BODY + 4].copy_from_slice(&crc.to_le_bytes());
        while self.disk.num_pages() <= slot {
            self.disk.allocate()?;
        }
        self.disk.write(PageId(slot), &buf)?;
        self.sync()?;
        self.epoch = epoch;
        Ok(())
    }

    /// Read both header slots; return `(epoch, start)` of the valid
    /// slot with the highest epoch, or `None` when neither validates
    /// (fresh or pre-checkpoint log).
    fn read_live_header(&mut self) -> Result<Option<(u64, u64)>> {
        let mut live: Option<(u64, u64)> = None;
        for slot in 0..2u32 {
            if self.disk.num_pages() <= slot {
                continue;
            }
            let mut buf = [0u8; PAGE_SIZE];
            self.disk.read(PageId(slot), &mut buf)?;
            if u32::from_le_bytes(buf[0..4].try_into().expect("hdr")) != HDR_MAGIC {
                continue;
            }
            let stored = u32::from_le_bytes(
                buf[HDR_BODY..HDR_BODY + 4].try_into().expect("hdr crc"),
            );
            if crc32(&buf[..HDR_BODY]) != stored {
                continue;
            }
            let epoch = u64::from_le_bytes(buf[4..12].try_into().expect("hdr"));
            let start = u64::from_le_bytes(buf[12..20].try_into().expect("hdr"));
            if start < FRONT {
                continue;
            }
            if live.is_none_or(|(e, _)| epoch > e) {
                live = Some((epoch, start));
            }
        }
        Ok(live)
    }

    /// Replay the log into `target`.
    ///
    /// **Redo pass**: apply every page image logged before the last
    /// commit, in log order, then truncate `target` to the committed
    /// page count. **Undo pass**: any transaction whose begin record
    /// follows the last commit is a loser — apply its undo
    /// before-images in reverse log order (skipping pages past the
    /// committed count, which the truncate already dropped), so pages
    /// the loser evicted to the data file return to their committed
    /// contents. Finally sync `target`. Returns the committed state —
    /// with the catalog blob of every commit in the live log, so a
    /// caller that chains catalog records can rebuild from them — or
    /// `None` when the log holds no commit (nothing durable).
    pub fn replay_into(&mut self, target: &mut dyn DiskManager) -> Result<Option<CommittedState>> {
        let Some(commit_end) = self.last_commit_end else {
            return Ok(None);
        };
        let mut off = self.start;
        let mut committed: Option<(u32, u64)> = None;
        let mut catalogs = Vec::new();
        while off < commit_end {
            let (kind, lsn, total) = self
                .parse_record_at(off)?
                .ok_or(StorageError::Corrupt("WAL record vanished during replay"))?;
            let payload = self.read_bytes(off + HEADER as u64, (total as usize) - HEADER - TRAILER)?;
            match kind {
                KIND_IMAGE => {
                    let page = PageId(u32::from_le_bytes(
                        payload[0..4].try_into().expect("image header"),
                    ));
                    while target.num_pages() <= page.0 {
                        target.allocate()?;
                    }
                    target.write(page, &payload[4..])?;
                    wal_counters().replay_images_applied.inc();
                }
                KIND_COMMIT | KIND_CHECKPOINT => {
                    let num_pages =
                        u32::from_le_bytes(payload[0..4].try_into().expect("commit header"));
                    let cat_len =
                        u32::from_le_bytes(payload[4..8].try_into().expect("commit header"))
                            as usize;
                    if payload.len() < 8 + cat_len {
                        return Err(StorageError::Corrupt("WAL commit payload truncated"));
                    }
                    committed = Some((num_pages, lsn));
                    catalogs.push(payload[8..8 + cat_len].to_vec());
                    wal_counters().replay_commits_seen.inc();
                }
                // Txn framing before the last commit belongs to
                // winners (committed) or txns already rolled back and
                // re-committed; redo of the commit's images covers it.
                KIND_TXN_BEGIN | KIND_UNDO | KIND_TXN_ABORT => {}
                _ => return Err(StorageError::Corrupt("unknown WAL record kind")),
            }
            off += total;
        }
        let (num_pages, lsn) =
            committed.ok_or(StorageError::Corrupt("WAL commit marker unreadable"))?;
        target.truncate(num_pages)?;

        // Undo pass over the intact tail past the last commit. Every
        // begin out there belongs to a txn whose commit never became
        // durable; its before-images were captured against the
        // committed baseline, so applying them (in reverse) is
        // idempotent and returns evicted loser pages to committed
        // contents. Explicitly aborted txns are included: their
        // in-memory rollback may itself not have reached the data
        // file, and re-applying the same before-images is harmless.
        let mut losers: Vec<u64> = Vec::new();
        let mut undos: Vec<(u64, u32, u64, usize)> = Vec::new(); // (txn, page, img off, len)
        off = commit_end;
        while off < self.end {
            let Some((kind, _lsn, total)) = self.parse_record_at(off)? else {
                break;
            };
            match kind {
                KIND_TXN_BEGIN => {
                    let b = self.read_bytes(off + HEADER as u64, 8)?;
                    let txn = u64::from_le_bytes(b[0..8].try_into().expect("begin header"));
                    if !losers.contains(&txn) {
                        losers.push(txn);
                    }
                }
                KIND_UNDO => {
                    let b = self.read_bytes(off + HEADER as u64, 12)?;
                    let txn = u64::from_le_bytes(b[0..8].try_into().expect("undo header"));
                    let page = u32::from_le_bytes(b[8..12].try_into().expect("undo header"));
                    let img_off = off + (HEADER + 12) as u64;
                    let img_len = (total as usize) - HEADER - TRAILER - 12;
                    undos.push((txn, page, img_off, img_len));
                }
                _ => {}
            }
            off += total;
        }
        let mut undos_applied = 0u64;
        for &(txn, page, img_off, img_len) in undos.iter().rev() {
            if !losers.contains(&txn) || page >= num_pages {
                continue;
            }
            let image = self.read_bytes(img_off, img_len)?;
            target.write(PageId(page), &image)?;
            undos_applied += 1;
            wal_counters().replay_undos_applied.inc();
        }
        wal_counters().replay_losers.add(losers.len() as u64);

        target.sync_data()?;
        Ok(Some(CommittedState {
            num_pages,
            catalogs,
            lsn,
            losers,
            undos_applied,
        }))
    }

    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<u64> {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let mut rec = Vec::with_capacity(HEADER + payload.len() + TRAILER);
        rec.extend_from_slice(&MAGIC.to_le_bytes());
        rec.push(kind);
        rec.push(0);
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&lsn.to_le_bytes());
        rec.extend_from_slice(payload);
        let crc = crc32(&rec);
        rec.extend_from_slice(&crc.to_le_bytes());
        self.write_bytes(self.end, &rec)?;
        self.end += rec.len() as u64;
        wal_counters().appends.inc();
        wal_counters().bytes_appended.add(rec.len() as u64);
        // During a checkpoint relocation the cursor transiently sits
        // before the (not-yet-moved) start pointer; saturate to 0.
        wal_counters().bytes.set(self.end.saturating_sub(self.start));
        Ok(lsn)
    }

    /// Parse the record starting at `off`. Returns `(kind, lsn, total
    /// record bytes)` when the record is intact, `None` when the log
    /// logically ends here (short, bad magic, or bad checksum).
    fn parse_record_at(&mut self, off: u64) -> Result<Option<(u8, u64, u64)>> {
        let allocated = self.disk.num_pages() as u64 * PAGE_SIZE as u64;
        if off + (HEADER + TRAILER) as u64 > allocated {
            return Ok(None);
        }
        let header = self.read_bytes(off, HEADER)?;
        if u16::from_le_bytes([header[0], header[1]]) != MAGIC {
            return Ok(None);
        }
        let kind = header[2];
        let len = u32::from_le_bytes(header[4..8].try_into().expect("header")) as usize;
        let lsn = u64::from_le_bytes(header[8..16].try_into().expect("header"));
        if len > MAX_PAYLOAD {
            return Ok(None);
        }
        let total = (HEADER + len + TRAILER) as u64;
        if off + total > allocated {
            return Ok(None);
        }
        let body = self.read_bytes(off, HEADER + len)?;
        let stored =
            u32::from_le_bytes(self.read_bytes(off + (HEADER + len) as u64, TRAILER)?[0..4]
                .try_into()
                .expect("crc"));
        if crc32(&body) != stored {
            return Ok(None);
        }
        Ok(Some((kind, lsn, total)))
    }

    fn read_bytes(&mut self, mut off: u64, len: usize) -> Result<Vec<u8>> {
        let mut out = vec![0u8; len];
        let mut i = 0usize;
        let mut buf = [0u8; PAGE_SIZE];
        while i < len {
            let page = (off / PAGE_SIZE as u64) as u32;
            let in_page = (off % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(len - i);
            self.disk.read(PageId(page), &mut buf)?;
            out[i..i + n].copy_from_slice(&buf[in_page..in_page + n]);
            off += n as u64;
            i += n;
        }
        Ok(out)
    }

    fn write_bytes(&mut self, mut off: u64, data: &[u8]) -> Result<()> {
        let mut i = 0usize;
        let mut buf = [0u8; PAGE_SIZE];
        while i < data.len() {
            let page = (off / PAGE_SIZE as u64) as u32;
            let in_page = (off % PAGE_SIZE as u64) as usize;
            while self.disk.num_pages() <= page {
                self.disk.allocate()?;
            }
            let n = (PAGE_SIZE - in_page).min(data.len() - i);
            if in_page != 0 || n != PAGE_SIZE {
                self.disk.read(PageId(page), &mut buf)?;
            }
            buf[in_page..in_page + n].copy_from_slice(&data[i..i + n]);
            self.disk.write(PageId(page), &buf)?;
            off += n as u64;
            i += n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn image(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE]
    }

    #[test]
    fn append_scan_replay_roundtrip() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        wal.append_image(PageId(0), &image(1)).unwrap();
        wal.append_image(PageId(1), &image(2)).unwrap();
        wal.append_commit(2, b"catalog-v1").unwrap();
        wal.sync().unwrap();

        let mut data = MemDisk::new();
        let state = wal.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(state.num_pages, 2);
        assert_eq!(state.catalog(), b"catalog-v1");
        assert_eq!(data.num_pages(), 2);
        let mut buf = [0u8; PAGE_SIZE];
        data.read(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[100], 2);
    }

    #[test]
    fn replay_returns_every_live_catalog_oldest_first() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        for (i, cat) in [b"c1", b"c2", b"c3"].iter().enumerate() {
            wal.append_image(PageId(0), &image(i as u8)).unwrap();
            wal.append_commit(1, *cat).unwrap();
        }
        wal.append_image(PageId(0), &image(9)).unwrap(); // uncommitted
        let mut data = MemDisk::new();
        let st = wal.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalogs, vec![b"c1".to_vec(), b"c2".to_vec(), b"c3".to_vec()]);
        // A checkpoint ends the chain before it: the live log starts there.
        wal.checkpoint(1, b"k").unwrap();
        wal.append_commit(1, b"d1").unwrap();
        let mut reopened = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        let st = reopened.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalogs, vec![b"k".to_vec(), b"d1".to_vec()]);
        assert_eq!(st.catalog(), b"d1");
    }

    #[test]
    fn later_image_wins_and_uncommitted_tail_is_ignored() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        wal.append_image(PageId(0), &image(1)).unwrap();
        wal.append_commit(1, b"c1").unwrap();
        wal.append_image(PageId(0), &image(9)).unwrap();
        wal.append_commit(1, b"c2").unwrap();
        // Uncommitted afterwork: image without a commit.
        wal.append_image(PageId(0), &image(42)).unwrap();

        let mut data = MemDisk::new();
        let state = wal.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(state.catalog(), b"c2");
        let mut buf = [0u8; PAGE_SIZE];
        data.read(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 9, "replay stops at the last commit");
    }

    #[test]
    fn replay_truncates_to_committed_page_count() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        wal.append_image(PageId(0), &image(1)).unwrap();
        wal.append_commit(1, b"").unwrap();
        // Data file grew past the commit (uncommitted allocations).
        let mut data = MemDisk::new();
        for _ in 0..5 {
            data.allocate().unwrap();
        }
        wal.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(data.num_pages(), 1);
    }

    #[test]
    fn reopen_resumes_lsns_and_cursor() {
        let mut disk = MemDisk::new();
        let mut end;
        {
            let mut wal = Wal::create(Box::new(std::mem::take(&mut disk))).unwrap();
            wal.append_image(PageId(0), &image(3)).unwrap();
            wal.append_commit(1, b"x").unwrap();
            end = wal.len_bytes();
            // Steal the disk back out by replaying onto a scratch target
            // and rebuilding; instead just keep using wal below.
            let mut data = MemDisk::new();
            wal.replay_into(&mut data).unwrap().unwrap();
            assert_eq!(wal.next_lsn(), 3);
            assert!(end > 0);
        }
        // Fresh log on a fresh disk: cursor restarts.
        let wal2 = Wal::create(Box::new(MemDisk::new())).unwrap();
        assert_eq!(wal2.len_bytes(), 0);
        assert!(!wal2.has_commit());
        end = wal2.len_bytes();
        assert_eq!(end, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_overwritten() {
        // Build a log, then corrupt bytes after the first commit to
        // simulate a torn append.
        let mut inner = MemDisk::new();
        {
            let mut wal = Wal::create(Box::new(std::mem::take(&mut inner))).unwrap();
            wal.append_image(PageId(0), &image(7)).unwrap();
            wal.append_commit(1, b"good").unwrap();
            let keep = wal.end;
            wal.append_image(PageId(0), &image(8)).unwrap();
            // Corrupt one byte inside the torn record.
            let page = (keep / PAGE_SIZE as u64) as u32;
            let mut buf = [0u8; PAGE_SIZE];
            wal.disk.read(PageId(page), &mut buf).unwrap();
            buf[(keep % PAGE_SIZE as u64) as usize + 3] ^= 0xFF;
            wal.disk.write(PageId(page), &buf).unwrap();
            // Reopen via a scan of the same underlying pages.
            let mut copy = MemDisk::new();
            for p in 0..wal.disk.num_pages() {
                let mut b = [0u8; PAGE_SIZE];
                wal.disk.read(PageId(p), &mut b).unwrap();
                copy.allocate().unwrap();
                copy.write(PageId(p), &b).unwrap();
            }
            let reopened = Wal::open(Box::new(copy)).unwrap();
            assert_eq!(reopened.end, keep, "torn record truncated");
            assert!(reopened.has_commit());
        }
    }

    #[test]
    fn empty_log_replays_to_none() {
        let mut wal = Wal::open(Box::new(MemDisk::new())).unwrap();
        let mut data = MemDisk::new();
        assert!(wal.replay_into(&mut data).unwrap().is_none());
    }

    /// Regression (satellite): a zero-length / just-created WAL file on
    /// a real file disk must open and recover cleanly, not error.
    #[test]
    fn zero_length_wal_file_recovers_cleanly() {
        let path = std::env::temp_dir().join(format!("mct-wal-empty-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            // Just-created (the file does not exist yet).
            let disk = crate::FileDisk::open(&path).unwrap();
            let mut wal = Wal::open(Box::new(disk)).unwrap();
            assert_eq!(wal.len_bytes(), 0);
            assert!(!wal.has_commit());
            let mut data = MemDisk::new();
            assert!(wal.replay_into(&mut data).unwrap().is_none());
        }
        {
            // Zero-length (the file exists but holds nothing).
            assert!(path.exists());
            let disk = crate::FileDisk::open(&path).unwrap();
            let mut wal = Wal::open(Box::new(disk)).unwrap();
            assert_eq!(wal.len_bytes(), 0);
            assert!(!wal.has_commit());
            // And the empty log accepts appends + a commit afterwards.
            wal.append_image(PageId(0), &image(4)).unwrap();
            wal.append_commit(1, b"first").unwrap();
            wal.sync().unwrap();
            let mut data = MemDisk::new();
            let st = wal.replay_into(&mut data).unwrap().unwrap();
            assert_eq!(st.catalog(), b"first");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Copy a WAL's underlying pages into a fresh MemDisk.
    fn clone_pages(wal: &mut Wal) -> MemDisk {
        let mut copy = MemDisk::new();
        for p in 0..wal.disk.num_pages() {
            let mut b = [0u8; PAGE_SIZE];
            wal.disk.read(PageId(p), &mut b).unwrap();
            copy.allocate().unwrap();
            copy.write(PageId(p), &b).unwrap();
        }
        copy
    }

    /// Regression (satellite): when the last intact record is a commit
    /// and torn garbage starts at the very next byte, recovery must
    /// keep that commit (the tail is truncated exactly at its end).
    #[test]
    fn commit_record_exactly_at_torn_tail_recovers() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        wal.append_image(PageId(0), &image(1)).unwrap();
        wal.append_commit(1, b"c1").unwrap();
        wal.append_image(PageId(0), &image(2)).unwrap();
        wal.append_commit(1, b"c2").unwrap();
        let keep = wal.end;
        // Torn garbage immediately after the commit: half a header of
        // a would-be next record.
        wal.write_bytes(keep, &[0x57, 0x4C, 0x01]).unwrap();

        let mut reopened = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        assert_eq!(reopened.end, keep, "log ends exactly at the commit");
        let mut data = MemDisk::new();
        let st = reopened.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalog(), b"c2", "the commit at the torn tail survives");
        let mut buf = [0u8; PAGE_SIZE];
        data.read(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 2);
    }

    /// The complementary case: the commit record itself is torn, so
    /// recovery must fall back to the previous commit.
    #[test]
    fn torn_commit_record_falls_back_to_previous_commit() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        wal.append_image(PageId(0), &image(1)).unwrap();
        wal.append_commit(1, b"c1").unwrap();
        let keep = wal.end;
        wal.append_image(PageId(0), &image(2)).unwrap();
        wal.append_commit(1, b"c2").unwrap();
        // Tear the final commit: flip a byte inside its trailer CRC.
        let tear_at = wal.end - 2;
        let mut b = wal.read_bytes(tear_at, 1).unwrap();
        b[0] ^= 0xFF;
        wal.write_bytes(tear_at, &b).unwrap();

        let mut reopened = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        assert!(reopened.end >= keep);
        let mut data = MemDisk::new();
        let st = reopened.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalog(), b"c1", "torn commit must not win");
        let mut buf = [0u8; PAGE_SIZE];
        data.read(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 1, "image past the surviving commit is not redone");
    }

    #[test]
    fn loser_txn_tail_is_undone_in_reverse() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        // Committed state: one page, contents never imaged (simulates
        // a commit whose images live in an older, checkpointed log —
        // forces the undo pass to be load-bearing, not just redo).
        wal.append_commit(1, b"base").unwrap();
        // Loser txn 7 dirtied page 0 twice; the first before-image is
        // the committed baseline.
        wal.append_txn_begin(7).unwrap();
        wal.append_undo(7, PageId(0), &image(3)).unwrap();
        wal.append_undo(7, PageId(0), &image(5)).unwrap();
        // Loser also allocated page 1 (no undo record: truncation
        // handles fresh pages) and evicted both to the data file.
        let mut data = MemDisk::new();
        data.allocate().unwrap();
        data.allocate().unwrap();
        data.write(PageId(0), &image(9)).unwrap();
        data.write(PageId(1), &image(9)).unwrap();

        let st = wal.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.losers, vec![7]);
        assert_eq!(st.undos_applied, 2);
        assert_eq!(data.num_pages(), 1, "loser's allocation truncated");
        let mut buf = [0u8; PAGE_SIZE];
        data.read(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 3, "reverse-order undo restores the oldest before-image");
    }

    #[test]
    fn aborted_txn_tail_is_still_undone() {
        // An in-memory abort wrote an abort record but crashed before
        // the rolled-back pages were re-committed: recovery must still
        // apply the undo images.
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        wal.append_commit(1, b"base").unwrap();
        wal.append_txn_begin(11).unwrap();
        wal.append_undo(11, PageId(0), &image(4)).unwrap();
        wal.append_txn_abort(11).unwrap();
        let mut data = MemDisk::new();
        data.allocate().unwrap();
        data.write(PageId(0), &image(8)).unwrap();

        let st = wal.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.losers, vec![11]);
        let mut buf = [0u8; PAGE_SIZE];
        data.read(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 4);
    }

    #[test]
    fn committed_txn_framing_is_not_undone() {
        // Txn framing *before* the last commit belongs to a winner:
        // replay must redo its images and apply no undo.
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        wal.append_txn_begin(3).unwrap();
        wal.append_undo(3, PageId(0), &image(1)).unwrap();
        wal.append_image(PageId(0), &image(2)).unwrap();
        wal.append_commit(1, b"win").unwrap();
        let mut data = MemDisk::new();
        let st = wal.replay_into(&mut data).unwrap().unwrap();
        assert!(st.losers.is_empty());
        assert_eq!(st.undos_applied, 0);
        let mut buf = [0u8; PAGE_SIZE];
        data.read(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 2, "winner's redo image sticks");
    }

    #[test]
    fn checkpoint_relocates_truncates_and_recovers() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        // Enough images that the live region extends well past FRONT,
        // so the checkpoint record fits at the front without overlap.
        for i in 0..4u8 {
            wal.append_image(PageId(0), &image(i)).unwrap();
            wal.append_commit(1, b"c").unwrap();
        }
        let pages_before = wal.disk.num_pages();
        wal.checkpoint(1, b"ckpt").unwrap();
        assert_eq!(wal.start_offset(), FRONT, "relocated to the front");
        assert!(wal.len_bytes() < PAGE_SIZE as u64, "one record lives");
        assert!(
            wal.disk.num_pages() < pages_before,
            "file physically shrank"
        );

        // Reopen: the scan must stop at the relocated record despite
        // stale old-record bytes in the tail of its page.
        let mut reopened = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        assert_eq!(reopened.start_offset(), FRONT);
        assert_eq!(reopened.end, wal.end, "stale tail bytes are fenced");
        let mut data = MemDisk::new();
        let st = reopened.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalog(), b"ckpt");
        assert_eq!(st.num_pages, 1);
    }

    #[test]
    fn commits_after_checkpoint_replay_on_top_of_it() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        for _ in 0..4 {
            wal.append_image(PageId(0), &image(1)).unwrap();
            wal.append_commit(1, b"old").unwrap();
        }
        wal.checkpoint(1, b"ck").unwrap();
        // The checkpointed image of page 0 is NOT in the live log: it
        // lives only in the data file. A later commit's image must
        // replay on top of whatever the checkpoint left there.
        wal.append_image(PageId(1), &image(7)).unwrap();
        wal.append_commit(2, b"after").unwrap();

        let mut reopened = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        // Data file as the checkpoint flushed it (page 0 durable).
        let mut data = MemDisk::new();
        data.allocate().unwrap();
        data.write(PageId(0), &image(1)).unwrap();
        let st = reopened.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalog(), b"after");
        assert_eq!(st.num_pages, 2);
        let mut buf = [0u8; PAGE_SIZE];
        data.read(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 1, "checkpoint-flushed page survives untouched");
        data.read(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 7, "post-checkpoint commit is redone");
    }

    #[test]
    fn overlapping_checkpoint_skips_relocation_then_reclaims() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        // Live region smaller than the checkpoint record itself: the
        // fresh copy would overlap what it replaces at the front, so
        // the first checkpoint only advances the start.
        let big_catalog = vec![7u8; 200];
        wal.append_commit(0, b"c1").unwrap();
        wal.checkpoint(0, &big_catalog).unwrap();
        assert!(wal.start_offset() > FRONT, "relocation skipped");
        assert!(wal.has_commit());
        let mut reopened = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        assert_eq!(reopened.start_offset(), wal.start_offset());
        let mut data = MemDisk::new();
        let st = reopened.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalog(), big_catalog);

        // Push the end far enough out and checkpoint again: now the
        // front is free and the log snaps back.
        for _ in 0..3 {
            wal.append_image(PageId(0), &image(2)).unwrap();
            wal.append_commit(1, b"c2").unwrap();
        }
        wal.checkpoint(1, b"k2").unwrap();
        assert_eq!(wal.start_offset(), FRONT, "second checkpoint relocates");
        let mut reopened2 = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        let mut data2 = MemDisk::new();
        data2.allocate().unwrap();
        data2.write(PageId(0), &image(2)).unwrap();
        let st2 = reopened2.replay_into(&mut data2).unwrap().unwrap();
        assert_eq!(st2.catalog(), b"k2");
    }

    #[test]
    fn header_slots_alternate_and_torn_slot_falls_back() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        for _ in 0..4 {
            wal.append_image(PageId(0), &image(3)).unwrap();
            wal.append_commit(1, b"c").unwrap();
        }
        // First checkpoint relocates: publishes epoch 1 (slot 1,
        // start = X) then epoch 2 (slot 0, start = FRONT).
        wal.checkpoint(1, b"k1").unwrap();
        assert_eq!(wal.epoch, 2);
        // Simulate a torn write of the *newest* header (slot 0): the
        // scan must fall back to the older slot, whose start still
        // points at an intact checkpoint record — here the relocated
        // record's page, which epoch 1 predates. Reconstruct the
        // crash-window state instead: corrupt slot 0 *before* the
        // relocation's truncate, i.e. on a clone taken mid-sequence.
        let mut copy = clone_pages(&mut wal);
        let mut buf = [0u8; PAGE_SIZE];
        copy.read(PageId(0), &mut buf).unwrap();
        buf[5] ^= 0xFF; // break the CRC
        copy.write(PageId(0), &buf).unwrap();
        let reopened = Wal::open(Box::new(copy)).unwrap();
        // Epoch 1 (slot 1) is the surviving header; its start is the
        // pre-relocation checkpoint offset, past FRONT.
        assert_eq!(reopened.epoch, 1);
        assert!(reopened.start_offset() > FRONT);
        // That offset was truncated away with the old tail, so no
        // record parses there — but this state can only arise from a
        // torn relocation header, *before* the truncate ran, when the
        // record at X was still intact. Verify that full crash window
        // separately below.
    }

    #[test]
    fn crash_between_checkpoint_publishes_recovers_from_either_slot() {
        // Walk the full relocation sequence by hand and snapshot the
        // disk between every step; every snapshot must recover the
        // checkpoint state.
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        for _ in 0..4 {
            wal.append_image(PageId(0), &image(6)).unwrap();
            wal.append_commit(1, b"c").unwrap();
        }
        let catalog = b"kk";
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&(catalog.len() as u32).to_le_bytes());
        payload.extend_from_slice(catalog);

        // Step 1: checkpoint record at the end (no header yet).
        let x = wal.end;
        wal.append(KIND_CHECKPOINT, &payload).unwrap();
        let mut snap = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        let st = snap
            .replay_into(&mut MemDisk::new())
            .unwrap()
            .expect("old prefix + new record both intact");
        assert_eq!(st.catalog(), b"kk", "checkpoint is the last commit-like record");

        // Step 2: publish start = X.
        wal.publish_start(x).unwrap();
        wal.start = x;
        wal.last_commit_end = Some(wal.end);
        let mut snap = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        assert_eq!(snap.start_offset(), x);
        let mut data = MemDisk::new();
        data.allocate().unwrap();
        data.write(PageId(0), &image(6)).unwrap();
        let st = snap.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalog(), b"kk");

        // Step 3: relocated record at FRONT, before its header.
        wal.end = FRONT;
        wal.append(KIND_CHECKPOINT, &payload).unwrap();
        let mut snap = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        assert_eq!(snap.start_offset(), x, "header still names X");
        let mut data = MemDisk::new();
        data.allocate().unwrap();
        data.write(PageId(0), &image(6)).unwrap();
        let st = snap.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalog(), b"kk", "record at X is still intact");

        // Step 4: publish start = FRONT (truncate not yet run).
        wal.publish_start(FRONT).unwrap();
        wal.start = FRONT;
        wal.last_commit_end = Some(wal.end);
        let mut snap = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        assert_eq!(snap.start_offset(), FRONT);
        assert_eq!(snap.end, wal.end, "stale bytes past FRONT record fenced by LSN guard");
        let mut data = MemDisk::new();
        data.allocate().unwrap();
        data.write(PageId(0), &image(6)).unwrap();
        let st = snap.replay_into(&mut data).unwrap().unwrap();
        assert_eq!(st.catalog(), b"kk");
    }

    #[test]
    fn appends_after_checkpoint_overwrite_stale_bytes_safely() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        for _ in 0..4 {
            wal.append_image(PageId(0), &image(1)).unwrap();
            wal.append_commit(1, b"c").unwrap();
        }
        wal.checkpoint(1, b"k").unwrap();
        assert_eq!(wal.start_offset(), FRONT);
        // New commits overwrite the stale region record by record;
        // every reopen in between must parse cleanly.
        for i in 0..3u8 {
            wal.append_image(PageId(0), &image(10 + i)).unwrap();
            wal.append_commit(1, b"new").unwrap();
            let mut reopened = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
            assert_eq!(reopened.end, wal.end);
            let mut data = MemDisk::new();
            data.allocate().unwrap();
            let st = reopened.replay_into(&mut data).unwrap().unwrap();
            assert_eq!(st.catalog(), b"new");
            let mut buf = [0u8; PAGE_SIZE];
            data.read(PageId(0), &mut buf).unwrap();
            assert_eq!(buf[0], 10 + i);
        }
    }

    /// Apply a tail batch onto a scratch disk, asserting LSNs only
    /// ever increase across the reader's lifetime.
    fn apply_tail(
        records: &[ReplRecord],
        data: &mut MemDisk,
        applied: &mut u64,
        catalog: &mut Vec<u8>,
    ) {
        for rec in records {
            assert!(rec.lsn() > *applied, "tail reader saw a stale LSN");
            match rec {
                ReplRecord::Image { lsn, page, image } => {
                    while data.num_pages() <= page.0 {
                        data.allocate().unwrap();
                    }
                    data.write(*page, image).unwrap();
                    *applied = *lsn;
                }
                ReplRecord::Commit { lsn, num_pages, catalog: cat, .. } => {
                    data.truncate(*num_pages).unwrap();
                    *catalog = cat.clone();
                    *applied = *lsn;
                }
            }
        }
    }

    /// Satellite: a tail reader whose cursor straddles a checkpoint
    /// relocation must rescan via the LSN fence and never observe
    /// stale pre-relocation bytes.
    #[test]
    fn tail_across_relocation_never_sees_stale_bytes() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        let mut cursor = TailCursor::new();
        let mut data = MemDisk::new();
        let mut applied = 0u64;
        let mut catalog = Vec::new();

        // Commit a few times and drain the tail up to date.
        for i in 0..4u8 {
            wal.append_image(PageId(0), &image(i)).unwrap();
            wal.append_commit(1, b"pre").unwrap();
        }
        let (recs, remaining) = wal
            .read_committed_after(&mut cursor, applied, u64::MAX)
            .unwrap();
        apply_tail(&recs, &mut data, &mut applied, &mut catalog);
        assert_eq!(remaining, 0);
        assert_eq!(applied, wal.committed_lsn());
        assert_eq!(catalog, b"pre");

        // Relocating checkpoint: physical offsets all change, the old
        // cursor offset now points into stale bytes.
        let floor_commit = wal.committed_lsn();
        wal.checkpoint(1, b"ck").unwrap();
        assert_eq!(wal.start_offset(), FRONT, "relocated");
        assert_eq!(wal.resume_floor(), floor_commit);

        // The next read must fence the stale cursor, rescan from the
        // live start, and emit exactly the relocated checkpoint
        // record (idempotent catalog reapply) — nothing stale.
        let (recs, remaining) = wal
            .read_committed_after(&mut cursor, applied, u64::MAX)
            .unwrap();
        assert_eq!(recs.len(), 1, "only the relocated checkpoint is new");
        assert!(matches!(
            recs[0],
            ReplRecord::Commit { checkpoint: true, .. }
        ));
        apply_tail(&recs, &mut data, &mut applied, &mut catalog);
        assert_eq!(remaining, 0);
        assert_eq!(catalog, b"ck");
        assert_eq!(applied, wal.committed_lsn());

        // Post-relocation commits stream normally and land on the
        // same bytes a from-scratch replay produces.
        wal.append_image(PageId(0), &image(42)).unwrap();
        wal.append_commit(1, b"post").unwrap();
        let (recs, remaining) = wal
            .read_committed_after(&mut cursor, applied, u64::MAX)
            .unwrap();
        apply_tail(&recs, &mut data, &mut applied, &mut catalog);
        assert_eq!(remaining, 0);
        assert_eq!(catalog, b"post");
        let mut buf = [0u8; PAGE_SIZE];
        data.read(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 42);
    }

    /// Two checkpoints of the same size in a row: the second relocates
    /// its record to end exactly at the offset a drained cursor holds.
    /// The cursor must still see the new record, not "caught up".
    #[test]
    fn tail_sees_a_relocation_that_ends_at_its_offset() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        let mut cursor = TailCursor::new();
        let (mut data, mut applied, mut catalog) = (MemDisk::new(), 0u64, Vec::new());
        wal.append_image(PageId(0), &image(1)).unwrap();
        wal.append_commit(1, b"c").unwrap();
        wal.checkpoint(1, b"k1").unwrap();
        assert_eq!(wal.start_offset(), FRONT, "relocated");
        let (recs, _) = wal.read_committed_after(&mut cursor, applied, u64::MAX).unwrap();
        apply_tail(&recs, &mut data, &mut applied, &mut catalog);
        assert_eq!(catalog, b"k1");

        wal.checkpoint(1, b"k2").unwrap();
        assert_eq!(wal.start_offset(), FRONT, "relocated onto the same span");
        let (recs, remaining) = wal.read_committed_after(&mut cursor, applied, u64::MAX).unwrap();
        apply_tail(&recs, &mut data, &mut applied, &mut catalog);
        assert_eq!(remaining, 0);
        assert_eq!(catalog, b"k2", "the second checkpoint reached the reader");
        assert_eq!(applied, wal.committed_lsn());
    }

    /// A fresh cursor (new replica) over a relocated log starts from
    /// the live start and skips records at/below its `after_lsn`.
    #[test]
    fn fresh_cursor_skips_already_applied_records() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        wal.append_image(PageId(0), &image(1)).unwrap();
        let c1 = wal.append_commit(1, b"c1").unwrap();
        wal.append_image(PageId(0), &image(2)).unwrap();
        wal.append_commit(1, b"c2").unwrap();

        // A reader that already holds c1 gets only the second batch.
        let mut cursor = TailCursor::new();
        let (recs, remaining) = wal.read_committed_after(&mut cursor, c1, u64::MAX).unwrap();
        assert_eq!(remaining, 0);
        assert_eq!(recs.len(), 2, "one image + one commit past c1");
        assert!(recs.iter().all(|r| r.lsn() > c1));
        assert!(matches!(
            recs.last().unwrap(),
            ReplRecord::Commit { catalog, .. } if catalog == b"c2"
        ));
    }

    /// Batches bounded by `max_bytes` make progress and report the
    /// bytes still outstanding.
    #[test]
    fn bounded_tail_batches_drain_incrementally() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        for i in 0..6u8 {
            wal.append_image(PageId(0), &image(i)).unwrap();
            wal.append_commit(1, b"c").unwrap();
        }
        let mut cursor = TailCursor::new();
        let mut applied = 0u64;
        let mut data = MemDisk::new();
        let mut catalog = Vec::new();
        let mut rounds = 0usize;
        loop {
            let (recs, remaining) = wal
                .read_committed_after(&mut cursor, applied, PAGE_SIZE as u64)
                .unwrap();
            apply_tail(&recs, &mut data, &mut applied, &mut catalog);
            rounds += 1;
            if remaining == 0 {
                break;
            }
            assert!(rounds < 100, "bounded batches must make progress");
        }
        assert!(rounds > 1, "max_bytes actually bounded the batches");
        assert_eq!(applied, wal.committed_lsn());
        let mut buf = [0u8; PAGE_SIZE];
        data.read(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 5);
    }

    /// Txn framing (begin/undo/abort) before the commit is never
    /// surfaced to tail readers.
    #[test]
    fn tail_skips_txn_framing() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        wal.append_txn_begin(1).unwrap();
        wal.append_undo(1, PageId(0), &image(0)).unwrap();
        wal.append_image(PageId(0), &image(5)).unwrap();
        wal.append_commit(1, b"done").unwrap();
        // Uncommitted tail work must not be surfaced either.
        wal.append_image(PageId(0), &image(9)).unwrap();

        let mut cursor = TailCursor::new();
        let (recs, remaining) = wal.read_committed_after(&mut cursor, 0, u64::MAX).unwrap();
        assert_eq!(remaining, 0);
        assert_eq!(recs.len(), 2, "image + commit only");
        assert!(matches!(recs[0], ReplRecord::Image { .. }));
        assert!(matches!(recs[1], ReplRecord::Commit { checkpoint: false, .. }));
    }

    /// Resume-floor bookkeeping across create → commit → checkpoint →
    /// reopen.
    #[test]
    fn resume_floor_tracks_checkpoints_and_reopen() {
        let mut wal = Wal::create(Box::new(MemDisk::new())).unwrap();
        assert_eq!(wal.resume_floor(), 0);
        assert_eq!(wal.committed_lsn(), 0);
        for _ in 0..4 {
            wal.append_image(PageId(0), &image(1)).unwrap();
            wal.append_commit(1, b"c").unwrap();
        }
        let last_commit = wal.committed_lsn();
        assert!(last_commit > 0);
        assert_eq!(wal.resume_floor(), 0, "no checkpoint yet: all resumable");

        wal.checkpoint(1, b"k").unwrap();
        assert_eq!(wal.resume_floor(), last_commit);
        assert!(wal.committed_lsn() > last_commit, "checkpoint LSN is fresh");

        // Reopen: the log now starts with a checkpoint record, so the
        // floor is (conservatively) that record's LSN.
        let reopened = Wal::open(Box::new(clone_pages(&mut wal))).unwrap();
        assert_eq!(reopened.committed_lsn(), wal.committed_lsn());
        assert_eq!(reopened.resume_floor(), wal.committed_lsn());

        // A log without checkpoints reopens with floor 0.
        let mut plain = Wal::create(Box::new(MemDisk::new())).unwrap();
        plain.append_image(PageId(0), &image(1)).unwrap();
        plain.append_commit(1, b"c").unwrap();
        let reopened = Wal::open(Box::new(clone_pages(&mut plain))).unwrap();
        assert_eq!(reopened.resume_floor(), 0);
        assert_eq!(reopened.committed_lsn(), plain.committed_lsn());
    }
}
