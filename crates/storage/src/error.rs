//! Storage-layer errors.

use std::fmt;
use std::io;

/// Errors surfaced by the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (file-backed disk manager).
    Io(io::Error),
    /// A page id beyond the allocated range was requested.
    PageOutOfRange {
        /// Requested page.
        page: u32,
        /// Number of allocated pages.
        allocated: u32,
    },
    /// A record id pointed at a missing or deleted slot.
    RecordNotFound {
        /// Page of the record.
        page: u32,
        /// Slot within the page.
        slot: u16,
    },
    /// The record (or key) is too large to ever fit a page.
    RecordTooLarge {
        /// Size requested.
        size: usize,
        /// Maximum size a page can hold.
        max: usize,
    },
    /// Every buffer frame is pinned; nothing can be evicted.
    PoolExhausted,
    /// B+-tree bulk-load input was not sorted strictly ascending by key.
    UnsortedKeys {
        /// First entry whose key is not above its predecessor's.
        index: usize,
    },
    /// On-page bytes failed structural validation.
    Corrupt(&'static str),
    /// The operation was cancelled cooperatively (deadline exceeded or
    /// an explicit cancel) before it completed.
    Cancelled,
    /// A read met a color tree whose interval codes are stale, or a
    /// color without its structural heap and indexes.
    NotAnnotated,
    /// A delta catalog record applies to another catalog version than
    /// the store holds (a replica missed a commit): nothing was applied.
    CatalogBase {
        /// The version the delta applies to.
        base: u64,
        /// The version the store holds.
        version: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::PageOutOfRange { page, allocated } => {
                write!(f, "page {page} out of range (allocated {allocated})")
            }
            StorageError::RecordNotFound { page, slot } => {
                write!(f, "record ({page}, {slot}) not found")
            }
            StorageError::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page capacity {max}")
            }
            StorageError::PoolExhausted => write!(f, "buffer pool exhausted (all frames pinned)"),
            StorageError::UnsortedKeys { index } => {
                write!(f, "bulk-load key {index} is not above its predecessor")
            }
            StorageError::Corrupt(what) => write!(f, "corrupt page: {what}"),
            StorageError::Cancelled => write!(f, "operation cancelled"),
            StorageError::NotAnnotated => write!(f, "color tree not annotated"),
            StorageError::CatalogBase { base, version } => write!(
                f,
                "catalog delta applies to version {base}, the store holds version {version}"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}
