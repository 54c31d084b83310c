//! Binary catalog records for crash-consistent persistence.
//!
//! Every WAL commit and checkpoint record of a [`StoredDb`] carries a
//! catalog blob: the logical database plus the physical directory
//! (heap page lists, B+-tree roots, record-id maps). There are two
//! kinds, both versioned by the store's catalog version, which every
//! record advances by one:
//!
//! * a **full** catalog ([`encode`]) describes the whole state. The
//!   first commit after a build or a WAL reset, every checkpoint, the
//!   first commit after a failed one, and replication snapshots
//!   ([`StoredDb::snapshot_catalog`]) are full;
//! * a **delta** ([`encode_delta`]) names the version it applies to
//!   (its *base*) and carries only what the change journals saw
//!   change since: the lengths of the node arena, interner, palette,
//!   colored trees and record-id maps, the new values at the journaled
//!   positions (in key order, so the bytes are deterministic), every
//!   color registered since whole, and the small heap/index directory.
//!   Applying one ([`Delta::apply`]) truncates to the base lengths,
//!   pushes what is new and sets positions, so it is idempotent on its
//!   base and costs O(change).
//!
//! Recovery ([`decode_chain`]) decodes the last full catalog in the
//! live log and applies the deltas after it in order, each against the
//! version the previous one produced. The catalog is therefore exactly
//! as durable (and exactly as checksummed) as the records that carry
//! it — no superblock or catalog pages.
//!
//! The format is a private little-endian encoding, versioned by an
//! 8-byte magic per kind. Malformed bytes decode to
//! [`StorageError::Corrupt`], never a panic, and a delta is checked
//! against the database before any of it is applied.
//!
//! [`StoredDb`]: crate::persist::StoredDb
//! [`StoredDb::snapshot_catalog`]: crate::persist::StoredDb::snapshot_catalog

use crate::color::{ColorSet, Palette};
use crate::database::{ColorTree, Journal, Links, McNode, McNodeKind, MctDatabase, NO_CODE};
use mct_storage::{IntervalCode, PageId, RecordId, StorageError};
use mct_xml::{Interner, Sym};
use std::collections::BTreeMap;

/// Magic of a full catalog; bump the trailing digit on layout changes.
const MAGIC_FULL: &[u8; 8] = b"MCTSNAP2";
/// Magic of a delta catalog.
const MAGIC_DELTA: &[u8; 8] = b"MCTDLTA1";
/// Encoding of `None` for optional u32 fields (node ids, syms).
const NONE32: u32 = u32::MAX;
/// Encoding of `None` for optional packed record ids.
const NONE64: u64 = u64::MAX;

/// Catalog parts of one heap file: `(pages, records, bytes)`.
pub(crate) type HeapParts = (Vec<PageId>, u64, u64);
/// Catalog parts of one B+-tree: `(root, entries, pages)`.
pub(crate) type TreeParts = (PageId, u64, u32);

/// The heap/index directory of a [`StoredDb`]: where every heap file
/// and B+-tree lives in the page file.
///
/// [`StoredDb`]: crate::persist::StoredDb
#[derive(Clone, Debug)]
pub(crate) struct Directory {
    pub content_heap: HeapParts,
    pub attr_heap: HeapParts,
    pub struct_heaps: Vec<HeapParts>,
    pub tag_indexes: Vec<TreeParts>,
    pub link_indexes: Vec<TreeParts>,
    pub content_index: TreeParts,
    pub attr_index: TreeParts,
}

/// The physical catalog: everything a [`StoredDb`] holds outside the
/// page file itself.
///
/// [`StoredDb`]: crate::persist::StoredDb
pub(crate) struct PhysCatalog {
    pub dir: Directory,
    pub content_rid: Vec<Option<RecordId>>,
    pub attr_rid: Vec<Option<RecordId>>,
}

/// One record-id map and the positions journaled in it.
pub(crate) type RidChanges<'a> = (&'a [Option<RecordId>], &'a BTreeMap<u32, Option<RecordId>>);

// ----- encoding ---------------------------------------------------------------

/// The full catalog at catalog version `version`.
pub(crate) fn encode(db: &MctDatabase, phys: &PhysCatalog, version: u64) -> Vec<u8> {
    mct_obs::counter("catalog.encodes.full").inc();
    let mut out = Vec::with_capacity(64 * 1024);
    out.extend_from_slice(MAGIC_FULL);
    put_u64(&mut out, version);
    // Interner: strings in Sym order (interning order), so decoding
    // re-interns them to identical symbols.
    put_u32(&mut out, db.names.len() as u32);
    for (_, s) in db.names.iter() {
        put_str(&mut out, s);
    }
    // Palette, in ColorId order.
    out.push(db.palette.len() as u8);
    for (_, name) in db.palette.iter() {
        put_str(&mut out, name);
    }
    // Node arena.
    put_u32(&mut out, db.nodes.len() as u32);
    for n in &db.nodes {
        put_node(&mut out, n);
    }
    // Colored trees: links + interval codes, parallel to the arena.
    out.push(db.trees.len() as u8);
    for t in &db.trees {
        put_tree(&mut out, t);
    }
    put_directory(&mut out, &phys.dir);
    put_rids(&mut out, &phys.content_rid);
    put_rids(&mut out, &phys.attr_rid);
    out
}

/// The delta from catalog version `base` to `base + 1`: what `j` (the
/// logical journal) and `rids` (each record-id map with its journaled
/// positions) saw change since they started at `base`, plus `dir`.
pub(crate) fn encode_delta(
    db: &MctDatabase,
    j: &Journal,
    dir: &Directory,
    rids: [RidChanges<'_>; 2],
    base: u64,
) -> Vec<u8> {
    mct_obs::counter("catalog.encodes.delta").inc();
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(MAGIC_DELTA);
    put_u64(&mut out, base);
    put_u32(&mut out, j.names_len as u32);
    put_u32(&mut out, (db.names.len() - j.names_len) as u32);
    for (_, s) in db.names.iter().skip(j.names_len) {
        put_str(&mut out, s);
    }
    out.push(j.colors() as u8);
    out.push((db.palette.len() - j.colors()) as u8);
    for (_, name) in db.palette.iter().skip(j.colors()) {
        put_str(&mut out, name);
    }
    put_u32(&mut out, j.nodes_len as u32);
    put_u32(&mut out, db.nodes.len() as u32);
    put_u32(&mut out, j.nodes.len() as u32);
    for &n in j.nodes.keys() {
        put_u32(&mut out, n);
        put_node(&mut out, &db.nodes[n as usize]);
    }
    for n in &db.nodes[j.nodes_len..] {
        put_node(&mut out, n);
    }
    out.push(db.trees.len() as u8);
    for (c, t) in db.trees.iter().enumerate() {
        if c >= j.colors() {
            out.push(1);
            put_tree(&mut out, t);
            continue;
        }
        out.push(0);
        put_u64(&mut out, t.node_count);
        out.push(t.dirty as u8);
        put_u32(&mut out, t.links.len() as u32);
        let slots: Vec<u32> = j
            .links
            .range((c as u8, 0)..=(c as u8, u32::MAX))
            .map(|(&(_, n), _)| n)
            .filter(|&n| (n as usize) < t.links.len())
            .collect();
        put_u32(&mut out, slots.len() as u32);
        for n in slots {
            put_u32(&mut out, n);
            put_link(&mut out, &t.links[n as usize], &t.codes[n as usize]);
        }
        let renumbered = j.codes.contains_key(&(c as u8));
        out.push(renumbered as u8);
        if renumbered {
            for code in &t.codes {
                out.extend_from_slice(&code.to_bytes());
            }
        }
    }
    put_directory(&mut out, dir);
    for (rids, keys) in rids {
        put_u32(&mut out, rids.len() as u32);
        let slots: Vec<u32> = keys
            .keys()
            .copied()
            .filter(|&n| (n as usize) < rids.len())
            .collect();
        put_u32(&mut out, slots.len() as u32);
        for n in slots {
            put_u32(&mut out, n);
            put_u64(&mut out, pack(rids[n as usize]));
        }
    }
    out
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_node(out: &mut Vec<u8>, n: &McNode) {
    out.push(match n.kind {
        McNodeKind::Document => 0,
        McNodeKind::Element => 1,
    });
    put_u32(out, n.name.map_or(NONE32, |s| s.0));
    match &n.content {
        Some(c) => put_str(out, c),
        None => put_u32(out, NONE32),
    }
    put_u16(out, n.attrs.len() as u16);
    for (s, v) in &n.attrs {
        put_u32(out, s.0);
        put_str(out, v);
    }
    put_u32(out, n.colors.0);
}

fn put_link(out: &mut Vec<u8>, l: &Links, code: &IntervalCode) {
    put_u32(out, l.parent);
    put_u32(out, l.first_child);
    put_u32(out, l.last_child);
    put_u32(out, l.prev);
    put_u32(out, l.next);
    out.push(l.attached as u8);
    out.extend_from_slice(&code.to_bytes());
}

fn put_tree(out: &mut Vec<u8>, t: &ColorTree) {
    put_u64(out, t.node_count);
    out.push(t.dirty as u8);
    put_u32(out, t.links.len() as u32);
    for (l, code) in t.links.iter().zip(&t.codes) {
        put_link(out, l, code);
    }
}

fn put_heap(out: &mut Vec<u8>, (pages, records, bytes): &HeapParts) {
    put_u32(out, pages.len() as u32);
    for p in pages {
        put_u32(out, p.0);
    }
    put_u64(out, *records);
    put_u64(out, *bytes);
}

fn put_btree(out: &mut Vec<u8>, (root, entries, pages): &TreeParts) {
    put_u32(out, root.0);
    put_u64(out, *entries);
    put_u32(out, *pages);
}

fn put_directory(out: &mut Vec<u8>, dir: &Directory) {
    put_heap(out, &dir.content_heap);
    put_heap(out, &dir.attr_heap);
    out.push(dir.struct_heaps.len() as u8);
    for h in &dir.struct_heaps {
        put_heap(out, h);
    }
    out.push(dir.tag_indexes.len() as u8);
    for t in &dir.tag_indexes {
        put_btree(out, t);
    }
    out.push(dir.link_indexes.len() as u8);
    for t in &dir.link_indexes {
        put_btree(out, t);
    }
    put_btree(out, &dir.content_index);
    put_btree(out, &dir.attr_index);
}

fn pack(r: Option<RecordId>) -> u64 {
    r.map_or(NONE64, |rid| (u64::from(rid.page.0) << 16) | u64::from(rid.slot))
}

fn unpack(packed: u64) -> Option<RecordId> {
    (packed != NONE64).then_some(RecordId {
        page: PageId((packed >> 16) as u32),
        slot: (packed & 0xFFFF) as u16,
    })
}

fn put_rids(out: &mut Vec<u8>, rids: &[Option<RecordId>]) {
    put_u32(out, rids.len() as u32);
    for &r in rids {
        put_u64(out, pack(r));
    }
}

// ----- decoding ---------------------------------------------------------------

/// Decode a full catalog: the database, its physical catalog and the
/// catalog version.
pub(crate) fn decode(bytes: &[u8]) -> mct_storage::Result<(MctDatabase, PhysCatalog, u64)> {
    let mut r = Reader { b: bytes, at: 0 };
    if r.take(8)? != MAGIC_FULL {
        return Err(corrupt("bad snapshot magic"));
    }
    let version = r.u64()?;
    let mut names = Interner::new();
    let nstrings = r.u32()?;
    for i in 0..nstrings {
        let s = r.str()?;
        if names.intern(s) != Sym(i) {
            return Err(corrupt("duplicate interner string"));
        }
    }
    let mut palette = Palette::new();
    let ncolors = r.u8()? as usize;
    if ncolors > 32 {
        return Err(corrupt("palette beyond 32-color limit"));
    }
    for _ in 0..ncolors {
        let name = r.str()?.to_string();
        palette.register(&name);
    }
    if palette.len() != ncolors {
        return Err(corrupt("duplicate palette color"));
    }
    let nnodes = r.u32()? as usize;
    let mut nodes = Vec::with_capacity(nnodes.min(1 << 20));
    for _ in 0..nnodes {
        nodes.push(r.node(nstrings)?);
    }
    let ntrees = r.u8()? as usize;
    if ntrees != ncolors {
        return Err(corrupt("tree count != color count"));
    }
    let mut trees = Vec::with_capacity(ntrees);
    for _ in 0..ntrees {
        trees.push(r.tree(nnodes)?);
    }
    let db = MctDatabase {
        nodes,
        names,
        palette,
        trees,
        journal: None,
    };
    let dir = r.directory(ncolors)?;
    let content_rid = r.rids()?;
    let attr_rid = r.rids()?;
    r.end()?;
    let phys = PhysCatalog {
        dir,
        content_rid,
        attr_rid,
    };
    Ok((db, phys, version))
}

/// A decoded catalog record of either kind.
pub(crate) enum Record {
    /// A full catalog: the database, its physical catalog, the version.
    Full(MctDatabase, PhysCatalog, u64),
    /// A delta onto [`Delta::base`].
    Delta(Delta),
}

impl Record {
    pub(crate) fn decode(bytes: &[u8]) -> mct_storage::Result<Record> {
        Ok(match base_of(bytes)? {
            None => {
                let (db, phys, version) = decode(bytes)?;
                Record::Full(db, phys, version)
            }
            Some(_) => Record::Delta(Delta::decode(bytes)?),
        })
    }
}

/// The base version of a catalog blob: `None` for a full catalog,
/// `Some(base)` for a delta.
pub(crate) fn base_of(bytes: &[u8]) -> mct_storage::Result<Option<u64>> {
    let mut r = Reader { b: bytes, at: 0 };
    match r.take(8)? {
        m if m == MAGIC_FULL => Ok(None),
        m if m == MAGIC_DELTA => Ok(Some(r.u64()?)),
        _ => Err(corrupt("bad snapshot magic")),
    }
}

/// The error for a delta whose base is not the version at hand.
pub(crate) fn check_base(base: u64, version: u64) -> mct_storage::Result<()> {
    if base == version {
        Ok(())
    } else {
        Err(StorageError::CatalogBase { base, version })
    }
}

/// Rebuild the catalog the chain of records `catalogs` (oldest first)
/// ends at: decode the last full catalog and apply every delta after
/// it, each against the version its predecessor produced.
pub(crate) fn decode_chain(
    catalogs: &[Vec<u8>],
) -> mct_storage::Result<(MctDatabase, PhysCatalog, u64)> {
    let last_full = catalogs
        .iter()
        .rposition(|c| c.starts_with(MAGIC_FULL))
        .ok_or(corrupt("no full catalog in the live log"))?;
    let (mut db, mut phys, mut version) = decode(&catalogs[last_full])?;
    for bytes in &catalogs[last_full + 1..] {
        let delta = Delta::decode(bytes)?;
        check_base(delta.base, version)?;
        version = delta.base + 1;
        phys.dir = delta.apply(&mut db, &mut phys.content_rid, &mut phys.attr_rid)?;
    }
    Ok((db, phys, version))
}

/// One colored tree in a delta.
enum TreeChange {
    /// A color that existed at the base: its new length and counters,
    /// the journaled slots, and all its codes when it was renumbered.
    Patch {
        len: usize,
        node_count: u64,
        dirty: bool,
        slots: Vec<(u32, Links, IntervalCode)>,
        codes: Option<Vec<IntervalCode>>,
    },
    /// A color registered since the base, whole.
    Whole(ColorTree),
}

/// A record-id map in a delta: its length and the slots set.
type RidSlots = (usize, Vec<(u32, Option<RecordId>)>);

/// A decoded delta catalog (see the module docs).
pub(crate) struct Delta {
    /// The catalog version this delta applies to; it produces `base + 1`.
    pub base: u64,
    names_base: usize,
    names: Vec<String>,
    colors_base: usize,
    colors: Vec<String>,
    nodes_base: usize,
    changed_nodes: Vec<(u32, McNode)>,
    new_nodes: Vec<McNode>,
    trees: Vec<TreeChange>,
    dir: Directory,
    rids: [RidSlots; 2],
}

impl Delta {
    pub(crate) fn decode(bytes: &[u8]) -> mct_storage::Result<Delta> {
        let mut r = Reader { b: bytes, at: 0 };
        if r.take(8)? != MAGIC_DELTA {
            return Err(corrupt("bad delta magic"));
        }
        let base = r.u64()?;
        let names_base = r.u32()? as usize;
        let n = r.u32()?;
        let mut names = Vec::with_capacity((n as usize).min(1 << 16));
        for _ in 0..n {
            names.push(r.str()?.to_string());
        }
        let nstrings = u32::try_from(names_base + names.len())
            .map_err(|_| corrupt("interner beyond u32"))?;
        let colors_base = r.u8()? as usize;
        let n = r.u8()?;
        let mut colors = Vec::with_capacity(n as usize);
        for _ in 0..n {
            colors.push(r.str()?.to_string());
        }
        if colors_base + colors.len() > 32 {
            return Err(corrupt("palette beyond 32-color limit"));
        }
        let nodes_base = r.u32()? as usize;
        let nodes_len = r.u32()? as usize;
        if nodes_len < nodes_base {
            return Err(corrupt("delta shrinks the arena"));
        }
        let n = r.u32()?;
        let mut changed_nodes = Vec::with_capacity((n as usize).min(1 << 16));
        for _ in 0..n {
            let i = r.u32()?;
            if i as usize >= nodes_base {
                return Err(corrupt("delta node out of range"));
            }
            changed_nodes.push((i, r.node(nstrings)?));
        }
        let mut new_nodes = Vec::with_capacity((nodes_len - nodes_base).min(1 << 16));
        for _ in nodes_base..nodes_len {
            new_nodes.push(r.node(nstrings)?);
        }
        let ntrees = r.u8()? as usize;
        if ntrees != colors_base + colors.len() {
            return Err(corrupt("tree count != color count"));
        }
        let mut trees = Vec::with_capacity(ntrees);
        for c in 0..ntrees {
            let whole = r.u8()? != 0;
            if whole != (c >= colors_base) {
                return Err(corrupt("delta tree kind does not match its color"));
            }
            if whole {
                trees.push(TreeChange::Whole(r.tree(nodes_len)?));
                continue;
            }
            let node_count = r.u64()?;
            let dirty = r.u8()? != 0;
            let len = r.u32()? as usize;
            if len > nodes_len {
                return Err(corrupt("tree longer than arena"));
            }
            let n = r.u32()?;
            let mut slots = Vec::with_capacity((n as usize).min(1 << 16));
            for _ in 0..n {
                let i = r.u32()?;
                if i as usize >= len {
                    return Err(corrupt("delta link out of range"));
                }
                let (l, code) = r.link()?;
                slots.push((i, l, code));
            }
            let codes = if r.u8()? != 0 {
                let mut codes = Vec::with_capacity(len);
                for _ in 0..len {
                    codes.push(IntervalCode::from_bytes(r.take(IntervalCode::BYTES)?));
                }
                Some(codes)
            } else {
                None
            };
            trees.push(TreeChange::Patch {
                len,
                node_count,
                dirty,
                slots,
                codes,
            });
        }
        let dir = r.directory(ntrees)?;
        let mut rid_map = || -> mct_storage::Result<RidSlots> {
            let len = r.u32()? as usize;
            let n = r.u32()?;
            let mut slots = Vec::with_capacity((n as usize).min(1 << 16));
            for _ in 0..n {
                let i = r.u32()?;
                if i as usize >= len {
                    return Err(corrupt("delta record id out of range"));
                }
                slots.push((i, unpack(r.u64()?)));
            }
            Ok((len, slots))
        };
        let rids = [rid_map()?, rid_map()?];
        r.end()?;
        Ok(Delta {
            base,
            names_base,
            names,
            colors_base,
            colors,
            nodes_base,
            changed_nodes,
            new_nodes,
            trees,
            dir,
            rids,
        })
    }

    /// Apply the delta in place to `db` and the two record-id maps
    /// (the caller has checked [`Delta::base`]) and return the new
    /// directory. Everything is checked against `db` first, so a delta
    /// that does not fit changes nothing.
    pub(crate) fn apply(
        self,
        db: &mut MctDatabase,
        content_rid: &mut Vec<Option<RecordId>>,
        attr_rid: &mut Vec<Option<RecordId>>,
    ) -> mct_storage::Result<Directory> {
        if db.names.len() < self.names_base
            || db.palette.len() < self.colors_base
            || db.trees.len() < self.colors_base
            || db.nodes.len() < self.nodes_base
        {
            return Err(corrupt("delta base is longer than the database"));
        }
        let fresh = |s: &String, i: usize, earlier: &[String]| {
            !earlier[..i].contains(s)
        };
        let names_fresh = self.names.iter().enumerate().all(|(i, s)| {
            db.names.get(s).is_none_or(|sym| sym.index() >= self.names_base)
                && fresh(s, i, &self.names)
        });
        let colors_fresh = self.colors.iter().enumerate().all(|(i, s)| {
            db.palette
                .get(s)
                .is_none_or(|c| c.index() >= self.colors_base)
                && fresh(s, i, &self.colors)
        });
        if !names_fresh || !colors_fresh {
            return Err(corrupt("delta re-registers a name or color"));
        }

        db.names.truncate(self.names_base);
        for s in &self.names {
            db.names.intern(s);
        }
        db.palette.truncate(self.colors_base);
        for s in &self.colors {
            db.palette.register(s);
        }
        db.nodes.truncate(self.nodes_base);
        for (i, node) in self.changed_nodes {
            db.nodes[i as usize] = node;
        }
        db.nodes.extend(self.new_nodes);
        db.trees.truncate(self.colors_base);
        for (c, change) in self.trees.into_iter().enumerate() {
            match change {
                TreeChange::Whole(t) => db.trees.push(t),
                TreeChange::Patch {
                    len,
                    node_count,
                    dirty,
                    slots,
                    codes,
                } => {
                    let t = &mut db.trees[c];
                    t.links.resize(len, Links::default());
                    t.codes.resize(len, NO_CODE);
                    t.node_count = node_count;
                    t.dirty = dirty;
                    for (i, l, code) in slots {
                        t.links[i as usize] = l;
                        t.codes[i as usize] = code;
                    }
                    if let Some(codes) = codes {
                        t.codes = codes;
                    }
                }
            }
        }
        for ((len, slots), rids) in self.rids.into_iter().zip([content_rid, attr_rid]) {
            rids.resize(len, None);
            for (i, rid) in slots {
                rids[i as usize] = rid;
            }
        }
        Ok(self.dir)
    }
}

fn corrupt(what: &'static str) -> StorageError {
    StorageError::Corrupt(what)
}

struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> mct_storage::Result<&'a [u8]> {
        if self.b.len() - self.at < n {
            return Err(corrupt("snapshot truncated"));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn end(&self) -> mct_storage::Result<()> {
        if self.at == self.b.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after snapshot"))
        }
    }

    fn u8(&mut self) -> mct_storage::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> mct_storage::Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> mct_storage::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> mct_storage::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str_of(&mut self, len: usize) -> mct_storage::Result<&'a str> {
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("snapshot string not UTF-8"))
    }

    fn str(&mut self) -> mct_storage::Result<&'a str> {
        let len = self.u32()? as usize;
        self.str_of(len)
    }

    /// A node record whose name symbols lie below `nstrings`.
    fn node(&mut self, nstrings: u32) -> mct_storage::Result<McNode> {
        let kind = match self.u8()? {
            0 => McNodeKind::Document,
            1 => McNodeKind::Element,
            _ => return Err(corrupt("bad node kind")),
        };
        let name = match self.u32()? {
            NONE32 => None,
            s if s < nstrings => Some(Sym(s)),
            _ => return Err(corrupt("node name out of range")),
        };
        let content = match self.u32()? {
            NONE32 => None,
            len => Some(self.str_of(len as usize)?.into()),
        };
        let nattrs = self.u16()? as usize;
        let mut attrs = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            let s = self.u32()?;
            if s >= nstrings {
                return Err(corrupt("attr name out of range"));
            }
            attrs.push((Sym(s), self.str()?.into()));
        }
        let colors = ColorSet(self.u32()?);
        Ok(McNode {
            kind,
            name,
            content,
            attrs,
            colors,
        })
    }

    fn link(&mut self) -> mct_storage::Result<(Links, IntervalCode)> {
        let links = Links {
            parent: self.u32()?,
            first_child: self.u32()?,
            last_child: self.u32()?,
            prev: self.u32()?,
            next: self.u32()?,
            attached: self.u8()? != 0,
        };
        Ok((links, IntervalCode::from_bytes(self.take(IntervalCode::BYTES)?)))
    }

    /// A colored tree no longer than an arena of `nnodes`.
    fn tree(&mut self, nnodes: usize) -> mct_storage::Result<ColorTree> {
        let node_count = self.u64()?;
        let dirty = self.u8()? != 0;
        let len = self.u32()? as usize;
        if len > nnodes {
            return Err(corrupt("tree longer than arena"));
        }
        let mut links = Vec::with_capacity(len);
        let mut codes = Vec::with_capacity(len);
        for _ in 0..len {
            let (l, code) = self.link()?;
            links.push(l);
            codes.push(code);
        }
        Ok(ColorTree {
            links,
            codes,
            node_count,
            dirty,
        })
    }

    fn heap(&mut self) -> mct_storage::Result<HeapParts> {
        let npages = self.u32()? as usize;
        let mut pages = Vec::with_capacity(npages.min(1 << 20));
        for _ in 0..npages {
            pages.push(PageId(self.u32()?));
        }
        Ok((pages, self.u64()?, self.u64()?))
    }

    fn btree(&mut self) -> mct_storage::Result<TreeParts> {
        Ok((PageId(self.u32()?), self.u64()?, self.u32()?))
    }

    /// A directory with one structural heap, tag index and link index
    /// per color of a palette of `ncolors`.
    fn directory(&mut self, ncolors: usize) -> mct_storage::Result<Directory> {
        let content_heap = self.heap()?;
        let attr_heap = self.heap()?;
        if self.u8()? as usize != ncolors {
            return Err(corrupt("struct heap count != color count"));
        }
        let struct_heaps = (0..ncolors)
            .map(|_| self.heap())
            .collect::<mct_storage::Result<_>>()?;
        if self.u8()? as usize != ncolors {
            return Err(corrupt("tag index count != color count"));
        }
        let tag_indexes = (0..ncolors)
            .map(|_| self.btree())
            .collect::<mct_storage::Result<_>>()?;
        if self.u8()? as usize != ncolors {
            return Err(corrupt("link index count != color count"));
        }
        let link_indexes = (0..ncolors)
            .map(|_| self.btree())
            .collect::<mct_storage::Result<_>>()?;
        Ok(Directory {
            content_heap,
            attr_heap,
            struct_heaps,
            tag_indexes,
            link_indexes,
            content_index: self.btree()?,
            attr_index: self.btree()?,
        })
    }

    fn rids(&mut self) -> mct_storage::Result<Vec<Option<RecordId>>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(unpack(self.u64()?));
        }
        Ok(out)
    }
}
