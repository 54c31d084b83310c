//! # mct-storage — native paged storage engine
//!
//! A self-contained storage substrate standing in for the Timber native
//! XML database the paper built on. It provides exactly what the
//! paper's physical model (§6) needs:
//!
//! * [`page`] — 8 KiB slotted pages with stable slot directories.
//! * [`disk`] — a disk manager abstraction with file-backed and
//!   in-memory implementations.
//! * [`buffer`] — an LRU buffer pool (default 256 MiB, like the paper's
//!   testbed) with pin counts, dirty tracking, and hit/miss statistics;
//!   supports explicit flushing for cold-cache experiments.
//! * [`heap`] — heap files of variable-length records addressed by
//!   `(page, slot)` record ids.
//! * [`btree`] — a B+-tree over the buffer pool with variable-length
//!   byte keys, range scans, and practical lazy deletion.
//! * [`encoding`] — order-preserving key encodings and the
//!   `(start, end, level)` interval encoding used for structural nodes.
//! * [`index`] — tag-name and content-value indexes built on the
//!   B+-tree, returning posting lists in document order.
//! * [`stats`] — storage accounting for the paper's Table 1.
//!
//! Crash consistency (not in the paper, but required of any engine
//! that claims durability):
//!
//! * [`crc`] — CRC-32 used by the per-page checksum envelope and the
//!   log record trailers.
//! * [`wal`] — a write-ahead log of LSN-stamped page images and commit
//!   records, with redo-only recovery and torn-tail truncation.
//! * [`fault`] — a fault-injecting disk wrapper (scheduled I/O errors,
//!   torn-write crash points, bit flips) for recovery testing.

pub mod btree;
pub mod buffer;
pub mod crc;
pub mod disk;
pub mod encoding;
pub mod error;
pub mod fault;
pub mod heap;
pub mod index;
pub mod page;
pub mod stats;
pub mod wal;

pub use btree::BTree;
pub use buffer::{BufferPool, PoolStats};
pub use crc::{crc32, Crc32};
pub use disk::{DiskManager, FileDisk, MemDisk};
pub use encoding::{IntervalCode, KeyEncoder};
pub use error::StorageError;
pub use fault::{FaultDisk, FaultInjector};
pub use heap::{HeapFile, RecordId};
pub use index::{ContentIndex, TagIndex};
pub use page::{PageId, PAGE_BODY, PAGE_HEADER, PAGE_SIZE};
pub use stats::StorageStats;
pub use wal::{CommittedState, ReplRecord, TailCursor, Wal};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, StorageError>;
