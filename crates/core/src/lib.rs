//! # mct-core — the multi-colored tree data model
//!
//! The paper's primary contribution (§3, §6): an evolutionary extension
//! of the XML data model in which every node carries a set of *colors*
//! and the database maintains one rooted ordered tree per color over
//! the shared node set. One logical node — one stored copy of its
//! content and attributes — can be hierarchically related to different
//! nodes in different colored trees, replacing value-based joins with
//! structural navigation.
//!
//! * [`color`] — [`ColorId`], [`ColorSet`] (bitmask), [`Palette`].
//! * [`database`] — [`MctDatabase`]: the arena, the per-color trees,
//!   the color-aware accessors of §3.2 (`parent`, `children`,
//!   `string-value`, `typed-value`, `colors`), the first-/next-color
//!   constructors of §3.3, gapped interval annotation and per-color
//!   local order.
//! * [`xmlbridge`] — plain XML ⇄ single-colored MCT conversion.
//! * [`persist`] — [`StoredDb`]: the Timber-style physical layout of
//!   §6.2 / Figure 10 over `mct-storage` (structural node per color,
//!   link indexes, tag/content/attribute indexes, buffer pool).
//! * [`crosstree`] — the cross-tree join access method for color
//!   transitions, plus the direct-link ablation variant.

pub mod check;
pub mod color;
pub mod crosstree;
pub mod database;
pub mod persist;
mod snapshot;
pub mod xmlbridge;

pub use check::{CheckReport, Violation};
pub use color::{ColorId, ColorSet, Palette};
pub use crosstree::{cross_tree_join, cross_tree_join_direct};
pub use database::{McNode, McNodeId, McNodeKind, MctDatabase, CODE_STRIDE};
pub use persist::{AttachError, DbView, StoredDb, StructRef, Txn};
pub use xmlbridge::{export_color, export_subtree, import_document};
