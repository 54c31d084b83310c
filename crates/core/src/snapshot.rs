//! Binary catalog records for crash-consistent persistence.
//!
//! Every WAL commit and checkpoint record of a [`StoredDb`] carries a
//! catalog record: the logical database plus the physical directory
//! (heap page lists, B+-tree roots, record-id maps). There is one kind
//! of record ([`encode`]): the change from a *base* — the state a
//! change journal started at — to the state at the catalog version the
//! record produces. It holds, in key order so the bytes are
//! deterministic:
//!
//! * a fixed header: the version the record produces and every base
//!   length (interner, palette, node arena, both record-id maps);
//! * the strings and colors registered since the base;
//! * the node arena, every colored tree (links + interval codes) and
//!   both record-id maps *positionally*: the journaled slots below the
//!   base, then the tail from the base (a color registered since the
//!   base has base 0); a tree also carries its counters and, when it
//!   was renumbered, all its codes;
//! * the small heap/index directory.
//!
//! A record encoded against a zero journal (every base length 0) is
//! **rooted**: it carries the whole state and applies to any store. The
//! first commit after a build or a failed commit, every checkpoint and
//! replication snapshots ([`StoredDb::snapshot_catalog`]) are rooted;
//! every other commit is **chained** onto the version before it. The
//! header alone tells which, so a store checks a record's base
//! ([`Header::check_base`]) before it reads the payload: a rooted
//! record always fits, a chained one only when it produces the store's
//! version plus one. Applying one ([`Delta::apply`]) truncates to the
//! base lengths, pushes what is new and sets positions, so it costs
//! O(record) and is idempotent on its base.
//!
//! Recovery applies the last rooted record in the live log and every
//! chained record after it, in order. The catalog is therefore exactly
//! as durable (and exactly as checksummed) as the records that carry it
//! — no superblock or catalog pages.
//!
//! The format is a private little-endian encoding, versioned by an
//! 8-byte magic. Malformed bytes decode to [`StorageError::Corrupt`],
//! never a panic; no allocation is sized by a length field beyond the
//! bytes that are left; and a record is checked against the database
//! before any of it is applied.
//!
//! [`StoredDb`]: crate::persist::StoredDb
//! [`StoredDb::snapshot_catalog`]: crate::persist::StoredDb::snapshot_catalog

use crate::color::{ColorSet, Palette};
use crate::database::{ColorTree, Journal, Links, McNode, McNodeKind, MctDatabase};
use crate::persist::RidJournal;
use mct_storage::{IntervalCode, PageId, RecordId, StorageError};
use mct_xml::Sym;
use std::collections::HashSet;

/// Magic of a catalog record; bump the trailing digits on layout changes.
const MAGIC: &[u8; 8] = b"MCTCAT02";
/// Encoding of `None` for optional u32 fields (node ids, syms).
const NONE32: u32 = u32::MAX;
/// Encoding of `None` for optional packed record ids.
const NONE64: u64 = u64::MAX;
/// Fewest bytes one encoded node record takes.
const NODE_BYTES: usize = 15;
/// Bytes of one encoded link + interval code.
const LINK_BYTES: usize = 21 + IntervalCode::BYTES;

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

/// One record-id map and its journal.
pub(crate) type RidChanges<'a> = (&'a [Option<RecordId>], &'a RidJournal);

/// The fixed head of a catalog record.
pub(crate) struct Header {
    /// The catalog version the record produces.
    pub version: u64,
    names: usize,
    colors: usize,
    nodes: usize,
    rids: [usize; 2],
}

impl Header {
    /// Read the header of `bytes` without decoding the payload.
    pub(crate) fn of(bytes: &[u8]) -> mct_storage::Result<Header> {
        Reader { b: bytes, at: 0 }.header()
    }

    /// True when every base length is 0: the record carries the whole
    /// state and applies to any store.
    pub(crate) fn rooted(&self) -> bool {
        self.names == 0 && self.colors == 0 && self.nodes == 0 && self.rids == [0, 0]
    }

    /// Refuse a chained record that does not produce `version + 1`
    /// with [`StorageError::CatalogBase`]; a rooted record always fits.
    pub(crate) fn check_base(&self, version: u64) -> mct_storage::Result<()> {
        if self.rooted() || self.version == version.wrapping_add(1) {
            Ok(())
        } else {
            Err(StorageError::CatalogBase {
                base: self.version.wrapping_sub(1),
                version,
            })
        }
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(MAGIC);
        put_u64(out, self.version);
        put_u32(out, self.names as u32);
        out.push(self.colors as u8);
        put_u32(out, self.nodes as u32);
        put_u32(out, self.rids[0] as u32);
        put_u32(out, self.rids[1] as u32);
    }
}

// ----- encoding ---------------------------------------------------------------

/// The record that takes the state `j` (the logical journal) and `rids`
/// (each record-id map with its journal) started at to the current
/// state, at catalog version `version`. Against a zero journal it is
/// rooted.
pub(crate) fn encode(
    db: &MctDatabase,
    j: &Journal,
    dir: &Directory,
    rids: [RidChanges<'_>; 2],
    version: u64,
) -> Vec<u8> {
    let header = Header {
        version,
        names: j.names_len,
        colors: j.colors(),
        nodes: j.nodes_len,
        rids: rids.map(|(_, rj)| rj.len),
    };
    let rooted = header.rooted();
    mct_obs::counter(if rooted {
        "catalog.encodes.full"
    } else {
        "catalog.encodes.delta"
    })
    .inc();
    let mut out = Vec::with_capacity(if rooted { 64 * 1024 } else { 4096 });
    header.put(&mut out);
    put_u32(&mut out, (db.names.len() - j.names_len) as u32);
    for (_, s) in db.names.iter().skip(j.names_len) {
        put_str(&mut out, s);
    }
    out.push((db.palette.len() - j.colors()) as u8);
    for (_, name) in db.palette.iter().skip(j.colors()) {
        put_str(&mut out, name);
    }
    let nodes = &db.nodes;
    put_positional(
        &mut out,
        nodes.len(),
        j.nodes_len,
        j.nodes.keys(),
        |out, i| put_node(out, &nodes[i]),
    );
    out.push(db.trees.len() as u8);
    for (c, t) in db.trees.iter().enumerate() {
        let base = j.trees.get(c).map_or(0, |&(len, _)| len);
        put_u32(&mut out, base as u32);
        put_u64(&mut out, t.node_count);
        let changed = j
            .links
            .range((c as u8, 0)..=(c as u8, u32::MAX))
            .map(|((_, n), _)| n);
        put_positional(&mut out, t.links.len(), base, changed, |out, i| {
            put_link(out, &t.links[i], &t.codes[i])
        });
        let renumbered = j.codes.contains_key(&(c as u8));
        out.push(renumbered as u8);
        if renumbered {
            for code in &t.codes {
                out.extend_from_slice(&code.to_bytes());
            }
        }
    }
    put_directory(&mut out, dir);
    for (rids, rj) in rids {
        put_positional(&mut out, rids.len(), rj.len, rj.saved.keys(), |out, i| {
            put_u64(out, pack(rids[i]))
        });
    }
    out
}

/// A sequence of `len` values relative to a base of length `base`:
/// the slots named by `changed` that lie below the base, then the tail
/// from the base; `put` writes the value at an index.
fn put_positional<'k>(
    out: &mut Vec<u8>,
    len: usize,
    base: usize,
    changed: impl Iterator<Item = &'k u32>,
    put: impl Fn(&mut Vec<u8>, usize),
) {
    let changed: Vec<usize> = changed.map(|&i| i as usize).filter(|&i| i < base).collect();
    put_u32(out, changed.len() as u32);
    for i in changed {
        put_u32(out, i as u32);
        put(out, i);
    }
    put_u32(out, (len - base) as u32);
    for i in base..len {
        put(out, i);
    }
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

// ----- decoding ---------------------------------------------------------------

/// A sequence relative to a base: new values at slots below the base,
/// and the tail that replaces everything from the base on.
struct Positional<T> {
    changed: Vec<(u32, T)>,
    tail: Vec<T>,
}

impl<T> Positional<T> {
    /// Length of the sequence it produces from a base of `base`.
    fn len(&self, base: usize) -> usize {
        base + self.tail.len()
    }

    /// Apply onto `v`, which holds at least `base` values.
    fn apply(self, v: &mut Vec<T>, base: usize) {
        v.truncate(base);
        for (i, x) in self.changed {
            v[i as usize] = x;
        }
        v.extend(self.tail);
    }
}

/// One colored tree in a record: its base length, counters, links +
/// codes relative to the base, and all its codes when it was
/// renumbered.
struct TreeChange {
    base: usize,
    node_count: u64,
    slots: Positional<(Links, IntervalCode)>,
    codes: Option<Vec<IntervalCode>>,
}

/// A decoded catalog record (see the module docs).
pub(crate) struct Delta {
    pub header: Header,
    names: Vec<String>,
    colors: Vec<String>,
    nodes: Positional<McNode>,
    trees: Vec<TreeChange>,
    dir: Directory,
    rids: [Positional<Option<RecordId>>; 2],
}

impl Delta {
    /// Decode a record. Checks everything that does not depend on the
    /// database it will be applied to.
    pub(crate) fn parse(bytes: &[u8]) -> mct_storage::Result<Delta> {
        let mut r = Reader { b: bytes, at: 0 };
        let header = r.header()?;
        let n = r.u32()? as usize;
        let mut names = Vec::with_capacity(r.cap(n, 4));
        for _ in 0..n {
            names.push(r.str()?.to_string());
        }
        if !distinct(&names) {
            return Err(corrupt("duplicate interner string"));
        }
        let nstrings = u32::try_from(header.names + names.len())
            .map_err(|_| corrupt("interner beyond u32"))?;
        let n = r.u8()? as usize;
        if header.colors + n > Palette::CAPACITY {
            return Err(corrupt("palette beyond 32-color limit"));
        }
        let mut colors = Vec::with_capacity(n);
        for _ in 0..n {
            colors.push(r.str()?.to_string());
        }
        if !distinct(&colors) {
            return Err(corrupt("duplicate palette color"));
        }
        let nodes = r.positional(header.nodes, NODE_BYTES, |r| r.node(nstrings))?;
        let nodes_len = nodes.len(header.nodes);
        let ntrees = r.u8()? as usize;
        if ntrees != header.colors + colors.len() {
            return Err(corrupt("tree count != color count"));
        }
        let mut trees = Vec::with_capacity(ntrees);
        for c in 0..ntrees {
            let base = r.u32()? as usize;
            if c >= header.colors && base != 0 {
                return Err(corrupt("new color with a base"));
            }
            let node_count = r.u64()?;
            let slots = r.positional(base, LINK_BYTES, Reader::link)?;
            let len = slots.len(base);
            if len > nodes_len {
                return Err(corrupt("tree longer than arena"));
            }
            let codes = if r.u8()? != 0 {
                let mut codes = Vec::with_capacity(r.cap(len, IntervalCode::BYTES));
                for _ in 0..len {
                    codes.push(IntervalCode::from_bytes(r.take(IntervalCode::BYTES)?));
                }
                Some(codes)
            } else {
                None
            };
            trees.push(TreeChange {
                base,
                node_count,
                slots,
                codes,
            });
        }
        let dir = r.directory(ntrees)?;
        let mut rid_map = |base| r.positional(base, 8, |r| Ok(unpack(r.u64()?)));
        let rids = [rid_map(header.rids[0])?, rid_map(header.rids[1])?];
        r.end()?;
        Ok(Delta {
            header,
            names,
            colors,
            nodes,
            trees,
            dir,
            rids,
        })
    }

    /// Apply the record in place to `db` and the two record-id maps
    /// (the caller has checked the base, see [`Header::check_base`])
    /// and return the new directory. Everything is checked against
    /// `db` first, so a record that does not fit changes nothing.
    pub(crate) fn apply(
        self,
        db: &mut MctDatabase,
        [content_rid, attr_rid]: [&mut Vec<Option<RecordId>>; 2],
    ) -> mct_storage::Result<Directory> {
        let h = &self.header;
        if db.names.len() < h.names
            || db.palette.len() < h.colors
            || db.trees.len() < h.colors
            || db.nodes.len() < h.nodes
            || content_rid.len() < h.rids[0]
            || attr_rid.len() < h.rids[1]
        {
            return Err(corrupt("record base is longer than the database"));
        }
        if (self.trees.iter().zip(&db.trees)).any(|(tc, t)| t.links.len() < tc.base) {
            return Err(corrupt("tree base is longer than the tree"));
        }
        if self
            .names
            .iter()
            .any(|s| db.names.get(s).is_some_and(|sym| sym.index() < h.names))
        {
            return Err(corrupt("duplicate interner string"));
        }
        if self
            .colors
            .iter()
            .any(|s| db.palette.get(s).is_some_and(|c| c.index() < h.colors))
        {
            return Err(corrupt("duplicate palette color"));
        }

        db.names.truncate(h.names);
        for s in &self.names {
            db.names.intern(s);
        }
        db.palette.truncate(h.colors);
        for s in &self.colors {
            db.palette.register(s);
        }
        self.nodes.apply(&mut db.nodes, h.nodes);
        db.trees.truncate(h.colors);
        db.trees.resize_with(self.trees.len(), ColorTree::new);
        for (tc, t) in self.trees.into_iter().zip(&mut db.trees) {
            t.links.truncate(tc.base);
            t.codes.truncate(tc.base);
            for (i, (l, code)) in tc.slots.changed {
                t.links[i as usize] = l;
                t.codes[i as usize] = code;
            }
            let (links, codes): (Vec<_>, Vec<_>) = tc.slots.tail.into_iter().unzip();
            t.links.extend(links);
            t.codes.extend(codes);
            if let Some(codes) = tc.codes {
                t.codes = codes;
            }
            t.node_count = tc.node_count;
        }
        let [content, attr] = self.rids;
        content.apply(content_rid, h.rids[0]);
        attr.apply(attr_rid, h.rids[1]);
        Ok(self.dir)
    }
}

/// True when no string occurs twice in `names`.
fn distinct(names: &[String]) -> bool {
    let mut seen = HashSet::with_capacity(names.len());
    names.iter().all(|s| seen.insert(s.as_str()))
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
            return Err(corrupt("catalog record truncated"));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// How many of `n` items of at least `item_bytes` each the bytes
    /// left can hold: the most any pre-allocation may reserve.
    fn cap(&self, n: usize, item_bytes: usize) -> usize {
        n.min((self.b.len() - self.at) / item_bytes)
    }

    fn end(&self) -> mct_storage::Result<()> {
        if self.at == self.b.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after catalog record"))
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
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("catalog string not UTF-8"))
    }

    fn str(&mut self) -> mct_storage::Result<&'a str> {
        let len = self.u32()? as usize;
        self.str_of(len)
    }

    fn header(&mut self) -> mct_storage::Result<Header> {
        if self.take(8)? != MAGIC {
            return Err(corrupt("bad catalog magic"));
        }
        Ok(Header {
            version: self.u64()?,
            names: self.u32()? as usize,
            colors: self.u8()? as usize,
            nodes: self.u32()? as usize,
            rids: [self.u32()? as usize, self.u32()? as usize],
        })
    }

    /// A sequence relative to a base of `base`, whose values take at
    /// least `item_bytes` each and are read by `read`.
    fn positional<T>(
        &mut self,
        base: usize,
        item_bytes: usize,
        mut read: impl FnMut(&mut Self) -> mct_storage::Result<T>,
    ) -> mct_storage::Result<Positional<T>> {
        let n = self.u32()? as usize;
        let mut changed = Vec::with_capacity(self.cap(n, 4 + item_bytes));
        for _ in 0..n {
            let i = self.u32()?;
            if i as usize >= base {
                return Err(corrupt("changed slot beyond the base"));
            }
            changed.push((i, read(self)?));
        }
        let n = self.u32()? as usize;
        let mut tail = Vec::with_capacity(self.cap(n, item_bytes));
        for _ in 0..n {
            tail.push(read(self)?);
        }
        Ok(Positional { changed, tail })
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
        let mut attrs = Vec::with_capacity(self.cap(nattrs, 8));
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

    fn heap(&mut self) -> mct_storage::Result<HeapParts> {
        let npages = self.u32()? as usize;
        let mut pages = Vec::with_capacity(self.cap(npages, 4));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::ColorId;
    use crate::database::McNodeId;

    fn dir(ncolors: usize) -> Directory {
        let heap = || (Vec::new(), 0, 0);
        Directory {
            content_heap: heap(),
            attr_heap: heap(),
            struct_heaps: (0..ncolors).map(|_| heap()).collect(),
            tag_indexes: vec![(PageId(0), 0, 0); ncolors],
            link_indexes: vec![(PageId(0), 0, 0); ncolors],
            content_index: (PageId(0), 0, 0),
            attr_index: (PageId(0), 0, 0),
        }
    }

    fn db() -> MctDatabase {
        let mut db = MctDatabase::new();
        let a = db.add_color("colorA");
        db.add_color("colorB");
        for name in ["nameA", "nameB"] {
            let n = db.new_element(name, a);
            db.append_child(McNodeId::DOCUMENT, n, a);
        }
        db
    }

    /// `db`'s rooted record, with a directory for `ncolors` colors.
    fn rooted(db: &MctDatabase, ncolors: usize) -> Vec<u8> {
        encode(
            db,
            &Journal::default(),
            &dir(ncolors),
            [(&[], &RidJournal::default()); 2],
            1,
        )
    }

    /// Decode `bytes` and apply them onto `db`; the `Corrupt` reason.
    fn install(db: &mut MctDatabase, bytes: &[u8]) -> Result<(), &'static str> {
        let (mut content, mut attr) = (Vec::new(), Vec::new());
        match Delta::parse(bytes).and_then(|d| d.apply(db, [&mut content, &mut attr])) {
            Ok(_) => Ok(()),
            Err(StorageError::Corrupt(why)) => Err(why),
            Err(e) => panic!("{e}"),
        }
    }

    fn position(bytes: &[u8], s: &str) -> usize {
        bytes
            .windows(s.len())
            .position(|w| w == s.as_bytes())
            .unwrap()
    }

    fn replace(bytes: &mut [u8], from: &str, to: &str) {
        let at = position(bytes, from);
        bytes[at..at + to.len()].copy_from_slice(to.as_bytes());
    }

    #[test]
    fn a_rooted_record_rebuilds_the_database_it_was_encoded_from() {
        let bytes = rooted(&db(), 2);
        let mut rebuilt = MctDatabase::new();
        install(&mut rebuilt, &bytes).unwrap();
        assert!(rooted(&rebuilt, 2) == bytes);
    }

    /// The checks a whole catalog needs: no string or color twice, at
    /// most 32 colors, one tree and one set of directory entries per
    /// color.
    #[test]
    fn a_rooted_record_keeps_every_whole_catalog_check() {
        let good = rooted(&db(), 2);
        let refused = |bytes: &[u8]| install(&mut MctDatabase::new(), bytes).unwrap_err();
        let mut twice = good.clone();
        replace(&mut twice, "nameB", "nameA");
        assert_eq!(refused(&twice), "duplicate interner string");
        let mut twice = good.clone();
        replace(&mut twice, "colorB", "colorA");
        assert_eq!(refused(&twice), "duplicate palette color");
        // The palette count precedes the first color's length.
        let mut many = good.clone();
        many[position(&good, "colorA") - 5] = 33;
        assert_eq!(refused(&many), "palette beyond 32-color limit");
        let mut extra = db();
        extra.trees.push(ColorTree::new());
        assert_eq!(refused(&rooted(&extra, 2)), "tree count != color count");
        assert_eq!(
            refused(&rooted(&db(), 1)),
            "struct heap count != color count"
        );
    }

    /// A chained record fits only a database at least as long as its
    /// base, and may not register a name its base already holds; one
    /// that does not fit changes nothing.
    #[test]
    fn a_chained_record_is_checked_against_the_database() {
        let base = db();
        let mut next = base.clone();
        next.start_journal();
        let n = next.new_element("nameC", ColorId(0));
        next.append_child(McNodeId::DOCUMENT, n, ColorId(0));
        let j = next.journal.take().unwrap();
        let bytes = encode(&next, &j, &dir(2), [(&[], &RidJournal::default()); 2], 2);
        let refused = |target: &mut MctDatabase, bytes: &[u8]| {
            let before = rooted(target, 2);
            let why = install(target, bytes).unwrap_err();
            assert!(rooted(target, 2) == before, "{why}: something was applied");
            why
        };
        let mut empty = MctDatabase::new();
        assert_eq!(
            refused(&mut empty, &bytes),
            "record base is longer than the database"
        );
        let mut short = base.clone();
        short.trees[0].links.truncate(1);
        short.trees[0].codes.truncate(1);
        assert_eq!(
            refused(&mut short, &bytes),
            "tree base is longer than the tree"
        );
        let mut again = bytes.clone();
        replace(&mut again, "nameC", "nameA");
        assert_eq!(
            refused(&mut base.clone(), &again),
            "duplicate interner string"
        );
        let mut target = base.clone();
        install(&mut target, &bytes).unwrap();
        assert!(rooted(&target, 2) == rooted(&next, 2));
    }
}
