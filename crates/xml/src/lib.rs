//! # mct-xml — XML data model substrate
//!
//! This crate implements the slice of the W3C XML data model ("XQuery 1.0
//! and XPath 2.0 Data Model") that the multi-colored tree (MCT) system
//! builds on:
//!
//! * [`qname`] — a compact string interner for element/attribute names,
//!   so that the rest of the system compares names as `u32`s.
//! * [`node`] — the node kinds of the data model and the arena node id.
//! * [`document`] — an arena-allocated ordered tree of nodes with the
//!   classic accessors (`parent`, `children`, `attributes`,
//!   `string-value`, `typed-value`, document order).
//! * [`parser`] — a hand-written, dependency-free XML parser for the
//!   subset needed here (elements, attributes, text, CDATA, comments,
//!   processing instructions, character/entity references).
//! * [`writer`] — serialization back to XML text with proper escaping.
//! * [`dtd`] — DTD-style schemas (content models with `? + *`
//!   quantifiers), document validation, functional dependencies over
//!   DTD paths, and the paper's Definition 3.3 *shallow*/*deep*
//!   classification (XNF-based, after Arenas & Libkin).
//!
//! The MCT crates treat a plain XML document as the degenerate
//! single-color case; everything color-aware lives in `mct-core`.

pub mod document;
pub mod dtd;
pub mod node;
pub mod parser;
pub mod qname;
pub mod writer;

pub use document::{Document, NodeData};
pub use dtd::{AttrDecl, ContentParticle, Dtd, ElementDecl, Fd, FdTarget, Quantifier};
pub use node::{NodeId, NodeKind};
pub use parser::{parse, ParseError, MAX_NESTING};
pub use qname::{Interner, Sym};
pub use writer::{write_document, write_node, WriteOptions};
