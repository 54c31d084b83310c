//! A B+-tree over the buffer pool.
//!
//! Keys are arbitrary byte strings (unique at this layer — callers
//! needing duplicates compose `key || value` composite keys, see
//! [`crate::index`]); values are `u64`. One tree node per page;
//! leaves are chained for range scans.
//!
//! A tree is either created empty and grown by inserts, or built
//! bottom-up from sorted entries by [`BTree::bulk_load`], which packs
//! every node up to the split threshold. Reads (`get`, `scan_range`)
//! walk the node bytes in place; only insert and delete decode a node
//! into owned entries and re-encode it.
//!
//! Deletion is *lazy* (remove from leaf, no rebalancing) — the standard
//! practical simplification; the paper's workloads are insert- and
//! read-heavy, and under-full pages are reabsorbed by later inserts.
//!
//! Node wire format (little-endian):
//!
//! ```text
//! leaf:     0x01  count:u16  next:u32(+1, 0=none)  { klen:u16 key val:u64 }*
//! internal: 0x00  count:u16  child0:u32            { klen:u16 key child:u32 }*
//! ```
//!
//! In an internal node, `child0` covers keys `< key[0]`, and `child[i]`
//! covers `key[i] <= k < key[i+1]`.

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::error::StorageError;
use crate::page::{PageId, PAGE_BODY};
use crate::Result;
use std::cmp::Ordering;
use std::ops::ControlFlow;

/// Soft byte budget per node; exceeding it triggers a split, and
/// [`BTree::bulk_load`] packs nodes up to it.
const NODE_BUDGET: usize = PAGE_BODY - 64;

/// Bytes before the first entry: kind, count, link.
const NODE_HEADER: usize = 7;
const KIND_INTERNAL: u8 = 0;
const KIND_LEAF: u8 = 1;

/// Longest key [`BTree::bulk_load`] accepts: one leaf entry must fit a
/// node on its own.
const MAX_KEY: usize = NODE_BUDGET - NODE_HEADER - 2 - 8;

/// Bytes an entry takes besides its key: the key length plus the
/// value (leaf) or child page id (internal node).
fn entry_overhead(leaf: bool) -> usize {
    if leaf {
        2 + 8
    } else {
        2 + 4
    }
}

/// Result of a recursive insert: the replaced value (if any) and a
/// `(separator, new right page)` pair when the child split.
type InsertOutcome = (Option<u64>, Option<(Vec<u8>, PageId)>);

/// A node decoded into owned entries — the write path's form.
#[derive(Clone, Debug)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, u64)>,
        next: Option<PageId>,
    },
    Internal {
        child0: PageId,
        entries: Vec<(Vec<u8>, PageId)>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                7 + entries.iter().map(|(k, _)| 2 + k.len() + 8).sum::<usize>()
            }
            Node::Internal { entries, .. } => {
                7 + entries.iter().map(|(k, _)| 2 + k.len() + 4).sum::<usize>()
            }
        }
    }

    fn encode(&self, buf: &mut [u8]) {
        match self {
            Node::Leaf { entries, next } => encode_node(
                buf,
                true,
                next.map_or(0, |p| p.0 + 1),
                entries.iter().map(|(k, v)| (k.as_slice(), *v)),
            ),
            Node::Internal { child0, entries } => encode_node(
                buf,
                false,
                child0.0,
                entries.iter().map(|(k, c)| (k.as_slice(), u64::from(c.0))),
            ),
        }
    }

    fn decode(buf: &[u8]) -> Result<Node> {
        let view = NodeView::parse(buf)?;
        if view.leaf {
            let entries = view
                .entries()
                .map(|e| e.map(|(k, v)| (k.to_vec(), v)))
                .collect::<Result<_>>()?;
            Ok(Node::Leaf {
                entries,
                next: view.next_leaf(),
            })
        } else {
            let entries = view
                .entries()
                .map(|e| e.map(|(k, c)| (k.to_vec(), PageId(c as u32))))
                .collect::<Result<_>>()?;
            Ok(Node::Internal {
                child0: PageId(view.link),
                entries,
            })
        }
    }
}

/// Serialize one node: the header, then each entry as `klen key value`,
/// the value 8 bytes wide in a leaf and 4 (a child page) in an
/// internal node.
fn encode_node<'k>(
    buf: &mut [u8],
    leaf: bool,
    link: u32,
    entries: impl ExactSizeIterator<Item = (&'k [u8], u64)>,
) {
    let mut w = Writer { buf, at: 0 };
    w.u8(if leaf { KIND_LEAF } else { KIND_INTERNAL });
    w.u16(entries.len() as u16);
    w.u32(link);
    for (k, v) in entries {
        w.u16(k.len() as u16);
        w.bytes(k);
        if leaf {
            w.u64(v);
        } else {
            w.u32(v as u32);
        }
    }
}

/// A node read in place from its page body. [`NodeView::parse`] is the
/// one header check for both the read path and [`Node::decode`]: the
/// kind byte must name a leaf or an internal node, and `count` entries
/// of the smallest size must fit the page body, so a scribbled header
/// is `Corrupt` before any entry is read. Entries are then read through
/// bounds-checked slices, so an entry running past the page is
/// `Corrupt` too.
struct NodeView<'a> {
    leaf: bool,
    count: usize,
    /// Leaf: next leaf + 1 (0 = none). Internal: `child0`.
    link: u32,
    buf: &'a [u8],
}

impl<'a> NodeView<'a> {
    fn parse(buf: &'a [u8]) -> Result<NodeView<'a>> {
        let mut r = Reader { buf, at: 0 };
        let leaf = match r.u8()? {
            KIND_LEAF => true,
            KIND_INTERNAL => false,
            _ => return Err(StorageError::Corrupt("btree node kind")),
        };
        let count = r.u16()? as usize;
        let link = r.u32()?;
        if NODE_HEADER + count * entry_overhead(leaf) > buf.len() {
            return Err(StorageError::Corrupt("btree node count exceeds page"));
        }
        Ok(NodeView {
            leaf,
            count,
            link,
            buf,
        })
    }

    /// Entries in key order: `(key, value)` in a leaf, `(key, child
    /// page)` in an internal node.
    fn entries(&self) -> impl Iterator<Item = Result<(&'a [u8], u64)>> + 'a {
        let mut r = Reader {
            buf: self.buf,
            at: NODE_HEADER,
        };
        let leaf = self.leaf;
        (0..self.count).map(move |_| {
            let klen = r.u16()? as usize;
            let key = r.bytes(klen)?;
            let val = if leaf { r.u64()? } else { u64::from(r.u32()?) };
            Ok((key, val))
        })
    }

    /// Internal node: the child covering `key` — that of the last entry
    /// whose key is `<= key`, else `child0`.
    fn child_for(&self, key: &[u8]) -> Result<PageId> {
        let mut child = self.link;
        for e in self.entries() {
            let (k, c) = e?;
            if k > key {
                break;
            }
            child = c as u32;
        }
        Ok(PageId(child))
    }

    /// Leaf: the value stored under `key`.
    fn find(&self, key: &[u8]) -> Result<Option<u64>> {
        for e in self.entries() {
            let (k, v) = e?;
            match k.cmp(key) {
                Ordering::Less => {}
                Ordering::Equal => return Ok(Some(v)),
                Ordering::Greater => break,
            }
        }
        Ok(None)
    }

    /// Leaf: the next leaf in the chain.
    fn next_leaf(&self) -> Option<PageId> {
        self.link.checked_sub(1).map(PageId)
    }
}

struct Writer<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf[self.at] = v;
        self.at += 1;
    }
    fn u16(&mut self, v: u16) {
        self.buf[self.at..self.at + 2].copy_from_slice(&v.to_le_bytes());
        self.at += 2;
    }
    fn u32(&mut self, v: u32) {
        self.buf[self.at..self.at + 4].copy_from_slice(&v.to_le_bytes());
        self.at += 4;
    }
    fn u64(&mut self, v: u64) {
        self.buf[self.at..self.at + 8].copy_from_slice(&v.to_le_bytes());
        self.at += 8;
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf[self.at..self.at + b.len()].copy_from_slice(b);
        self.at += b.len();
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(StorageError::Corrupt("btree node truncated"));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

/// How many of the leading entries, given their key lengths, one node
/// of the given kind holds within [`NODE_BUDGET`].
fn packed_len(key_lens: impl Iterator<Item = usize>, leaf: bool) -> usize {
    let mut size = NODE_HEADER;
    let mut n = 0;
    for klen in key_lens {
        size += entry_overhead(leaf) + klen;
        if size > NODE_BUDGET {
            break;
        }
        n += 1;
    }
    n
}

/// A B+-tree rooted at a page, parameterized by the shared buffer pool.
pub struct BTree {
    root: PageId,
    entries: u64,
    pages: u32,
}

impl BTree {
    /// Decompose into raw parts `(root, entries, pages)` for a durable
    /// catalog. The node pages themselves live in the buffer pool's
    /// disk file.
    pub fn parts(&self) -> (PageId, u64, u32) {
        (self.root, self.entries, self.pages)
    }

    /// Reassemble a tree from [`BTree::parts`] output against the same
    /// disk file.
    pub fn from_parts(root: PageId, entries: u64, pages: u32) -> BTree {
        BTree { root, entries, pages }
    }

    /// Create an empty tree (allocates the root leaf).
    pub fn create<D: DiskManager>(pool: &BufferPool<D>) -> Result<BTree> {
        let root = pool.allocate()?;
        let node = Node::Leaf {
            entries: Vec::new(),
            next: None,
        };
        write_node(pool, root, &node)?;
        Ok(BTree {
            root,
            entries: 0,
            pages: 1,
        })
    }

    /// Build a tree bottom-up from `entries`, sorted strictly ascending
    /// by key. Leaves are written left to right, each packed up to the
    /// split threshold and chained to the next; each internal level is
    /// then packed the same way over the level below until one root is
    /// left. Every page is written once. Empty input gives the same
    /// tree as [`BTree::create`].
    ///
    /// Out-of-order or repeated keys are [`StorageError::UnsortedKeys`],
    /// and a key too long to fit a node is
    /// [`StorageError::RecordTooLarge`]; both are reported before any
    /// page is allocated.
    pub fn bulk_load<D: DiskManager>(
        pool: &BufferPool<D>,
        entries: &[(Vec<u8>, u64)],
    ) -> Result<BTree> {
        if let Some((k, _)) = entries.iter().find(|(k, _)| k.len() > MAX_KEY) {
            return Err(StorageError::RecordTooLarge {
                size: k.len(),
                max: MAX_KEY,
            });
        }
        if let Some(i) = entries.windows(2).position(|w| w[0].0 >= w[1].0) {
            return Err(StorageError::UnsortedKeys { index: i + 1 });
        }
        if entries.is_empty() {
            return BTree::create(pool);
        }
        let mut pages = 0u32;
        // Each node of the level just written: (its first key, its page).
        let mut level: Vec<(&[u8], PageId)> = Vec::new();
        let mut page = pool.allocate()?;
        let mut rest = entries;
        loop {
            let n = packed_len(rest.iter().map(|(k, _)| k.len()), true);
            let (leaf, tail) = rest.split_at(n);
            let next = if tail.is_empty() {
                None
            } else {
                Some(pool.allocate()?)
            };
            pool.with_page_mut(page, |buf| {
                encode_node(
                    buf,
                    true,
                    next.map_or(0, |p| p.0 + 1),
                    leaf.iter().map(|(k, v)| (k.as_slice(), *v)),
                )
            })?;
            pages += 1;
            level.push((&leaf[0].0, page));
            rest = tail;
            match next {
                Some(p) => page = p,
                None => break,
            }
        }
        while level.len() > 1 {
            let mut upper = Vec::new();
            let mut rest = &level[..];
            while !rest.is_empty() {
                // The first child is child0; the node's entries are the
                // children after it, keyed by their first keys.
                let mut n = 1 + packed_len(rest[1..].iter().map(|(k, _)| k.len()), false);
                if rest.len() - n == 1 && n > 2 {
                    // Leave the next node two children, not a lone child0.
                    n -= 1;
                }
                let (children, tail) = rest.split_at(n);
                let node = pool.allocate()?;
                pool.with_page_mut(node, |buf| {
                    encode_node(
                        buf,
                        false,
                        children[0].1 .0,
                        children[1..].iter().map(|(k, c)| (*k, u64::from(c.0))),
                    )
                })?;
                pages += 1;
                upper.push((children[0].0, node));
                rest = tail;
            }
            level = upper;
        }
        Ok(BTree {
            root: level[0].1,
            entries: entries.len() as u64,
            pages,
        })
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of pages this tree has allocated.
    pub fn page_count(&self) -> u32 {
        self.pages
    }

    /// Levels from the root down to the leaves (1 when the root is a
    /// leaf).
    pub fn height<D: DiskManager>(&self, pool: &BufferPool<D>) -> Result<u32> {
        let mut page = self.root;
        let mut height = 1;
        loop {
            let child = pool.with_page(page, |buf| {
                NodeView::parse(buf).map(|n| (!n.leaf).then_some(PageId(n.link)))
            })??;
            match child {
                Some(c) => {
                    page = c;
                    height += 1;
                }
                None => return Ok(height),
            }
        }
    }

    /// Exact-match lookup.
    pub fn get<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        key: &[u8],
    ) -> Result<Option<u64>> {
        self.at_leaf(pool, key, |leaf| leaf.find(key))
    }

    /// Descend from the root to the leaf covering `key` and run
    /// `on_leaf` over it in place.
    fn at_leaf<D: DiskManager, R>(
        &self,
        pool: &BufferPool<D>,
        key: &[u8],
        mut on_leaf: impl FnMut(&NodeView<'_>) -> Result<R>,
    ) -> Result<R> {
        let mut page = self.root;
        loop {
            let step = pool.with_page(page, |buf| {
                let node = NodeView::parse(buf)?;
                if node.leaf {
                    on_leaf(&node).map(ControlFlow::Break)
                } else {
                    node.child_for(key).map(ControlFlow::Continue)
                }
            })??;
            match step {
                ControlFlow::Break(r) => return Ok(r),
                ControlFlow::Continue(child) => page = child,
            }
        }
    }

    /// Insert or overwrite. Returns the previous value if the key existed.
    pub fn insert<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        key: &[u8],
        value: u64,
    ) -> Result<Option<u64>> {
        let (old, split) = self.insert_rec(pool, self.root, key, value)?;
        if let Some((sep, right)) = split {
            // Root split: create a new root.
            let old_root = self.root;
            let new_root = pool.allocate()?;
            self.pages += 1;
            let node = Node::Internal {
                child0: old_root,
                entries: vec![(sep, right)],
            };
            write_node(pool, new_root, &node)?;
            self.root = new_root;
        }
        if old.is_none() {
            self.entries += 1;
        }
        Ok(old)
    }

    fn insert_rec<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        page: PageId,
        key: &[u8],
        value: u64,
    ) -> Result<InsertOutcome> {
        let mut node = read_node(pool, page)?;
        match &mut node {
            Node::Leaf { entries, next: _ } => {
                let old = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        let old = entries[i].1;
                        entries[i].1 = value;
                        Some(old)
                    }
                    Err(i) => {
                        entries.insert(i, (key.to_vec(), value));
                        None
                    }
                };
                if node.serialized_size() <= NODE_BUDGET {
                    write_node(pool, page, &node)?;
                    return Ok((old, None));
                }
                // Split the leaf.
                let (entries, next) = match node {
                    Node::Leaf { entries, next } => (entries, next),
                    _ => unreachable!(),
                };
                let mid = entries.len() / 2;
                let right_entries = entries[mid..].to_vec();
                let left_entries = entries[..mid].to_vec();
                let sep = right_entries[0].0.clone();
                let right_page = pool.allocate()?;
                self.pages += 1;
                write_node(
                    pool,
                    right_page,
                    &Node::Leaf {
                        entries: right_entries,
                        next,
                    },
                )?;
                write_node(
                    pool,
                    page,
                    &Node::Leaf {
                        entries: left_entries,
                        next: Some(right_page),
                    },
                )?;
                Ok((old, Some((sep, right_page))))
            }
            Node::Internal { child0, entries } => {
                let child = descend(entries, *child0, key);
                let (old, split) = self.insert_rec(pool, child, key, value)?;
                if let Some((sep, right)) = split {
                    let pos = entries
                        .binary_search_by(|(k, _)| k.as_slice().cmp(&sep))
                        .unwrap_or_else(|i| i);
                    entries.insert(pos, (sep, right));
                    if node.serialized_size() <= NODE_BUDGET {
                        write_node(pool, page, &node)?;
                        return Ok((old, None));
                    }
                    // Split the internal node.
                    let (child0, entries) = match node {
                        Node::Internal { child0, entries } => (child0, entries),
                        _ => unreachable!(),
                    };
                    let mid = entries.len() / 2;
                    let (up_key, up_child) = entries[mid].clone();
                    let right_entries = entries[mid + 1..].to_vec();
                    let left_entries = entries[..mid].to_vec();
                    let right_page = pool.allocate()?;
                    self.pages += 1;
                    write_node(
                        pool,
                        right_page,
                        &Node::Internal {
                            child0: up_child,
                            entries: right_entries,
                        },
                    )?;
                    write_node(
                        pool,
                        page,
                        &Node::Internal {
                            child0,
                            entries: left_entries,
                        },
                    )?;
                    return Ok((old, Some((up_key, right_page))));
                }
                Ok((old, None))
            }
        }
    }

    /// Delete a key (lazy: no rebalancing). Returns the removed value.
    pub fn delete<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        key: &[u8],
    ) -> Result<Option<u64>> {
        let mut page = self.root;
        loop {
            let mut node = read_node(pool, page)?;
            match &mut node {
                Node::Leaf { entries, .. } => {
                    match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                        Ok(i) => {
                            let (_, v) = entries.remove(i);
                            write_node(pool, page, &node)?;
                            self.entries -= 1;
                            return Ok(Some(v));
                        }
                        Err(_) => return Ok(None),
                    }
                }
                Node::Internal { child0, entries } => {
                    page = descend(entries, *child0, key);
                }
            }
        }
    }

    /// Visit every `(key, value)` with `lo <= key < hi` in key order.
    /// `hi = None` means unbounded above. `f` runs while the leaf's page
    /// is pinned, so it must not call back into the pool.
    pub fn scan_range<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        lo: &[u8],
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8], u64),
    ) -> Result<()> {
        let mut next = self.at_leaf(pool, lo, |leaf| scan_leaf(leaf, lo, hi, &mut f))?;
        while let Some(page) = next {
            next = pool.with_page(page, |buf| {
                let leaf = NodeView::parse(buf)?;
                if !leaf.leaf {
                    return Err(StorageError::Corrupt("leaf chain hit internal node"));
                }
                scan_leaf(&leaf, lo, hi, &mut f)
            })??;
        }
        Ok(())
    }

    /// Collect a range into a vector (convenience over [`Self::scan_range`]).
    pub fn range_vec<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        lo: &[u8],
        hi: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, u64)>> {
        let mut out = Vec::new();
        self.scan_range(pool, lo, hi, |k, v| out.push((k.to_vec(), v)))?;
        Ok(out)
    }
}

/// Visit a leaf's entries in `[lo, hi)`. Returns the next leaf to visit,
/// or `None` once `hi` is reached or the chain ends.
fn scan_leaf(
    leaf: &NodeView<'_>,
    lo: &[u8],
    hi: Option<&[u8]>,
    f: &mut impl FnMut(&[u8], u64),
) -> Result<Option<PageId>> {
    for e in leaf.entries() {
        let (k, v) = e?;
        if k < lo {
            continue;
        }
        if hi.is_some_and(|hi| k >= hi) {
            return Ok(None);
        }
        f(k, v);
    }
    Ok(leaf.next_leaf())
}

fn descend(entries: &[(Vec<u8>, PageId)], child0: PageId, key: &[u8]) -> PageId {
    // Last entry with key <= target, else child0.
    match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
        Ok(i) => entries[i].1,
        Err(0) => child0,
        Err(i) => entries[i - 1].1,
    }
}

fn read_node<D: DiskManager>(pool: &BufferPool<D>, page: PageId) -> Result<Node> {
    pool.with_page(page, Node::decode)?
}

fn write_node<D: DiskManager>(pool: &BufferPool<D>, page: PageId, node: &Node) -> Result<()> {
    debug_assert!(
        node.serialized_size() <= PAGE_BODY,
        "node overflows page: {}",
        node.serialized_size()
    );
    pool.with_page_mut(page, |buf| node.encode(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use crate::disk::MemDisk;

    fn pool() -> BufferPool<MemDisk> {
        BufferPool::new(MemDisk::new(), 64 * PAGE_SIZE)
    }

    #[test]
    fn insert_get_small() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        assert_eq!(t.insert(&p, b"b", 2).unwrap(), None);
        assert_eq!(t.insert(&p, b"a", 1).unwrap(), None);
        assert_eq!(t.insert(&p, b"c", 3).unwrap(), None);
        assert_eq!(t.get(&p, b"a").unwrap(), Some(1));
        assert_eq!(t.get(&p, b"b").unwrap(), Some(2));
        assert_eq!(t.get(&p, b"c").unwrap(), Some(3));
        assert_eq!(t.get(&p, b"d").unwrap(), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn overwrite_returns_old() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        t.insert(&p, b"k", 1).unwrap();
        assert_eq!(t.insert(&p, b"k", 2).unwrap(), Some(1));
        assert_eq!(t.get(&p, b"k").unwrap(), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_inserts_force_splits() {
        let p = BufferPool::new(MemDisk::new(), 256 * PAGE_SIZE);
        let mut t = BTree::create(&p).unwrap();
        let n = 20_000u32;
        for i in 0..n {
            // Interleaved order to exercise both split directions.
            let k = i.wrapping_mul(2654435761) ^ i;
            t.insert(&p, &k.to_be_bytes(), u64::from(i)).unwrap();
        }
        assert!(t.page_count() > 10, "splits happened: {}", t.page_count());
        for i in 0..n {
            let k = i.wrapping_mul(2654435761) ^ i;
            assert_eq!(t.get(&p, &k.to_be_bytes()).unwrap(), Some(u64::from(i)));
        }
    }

    #[test]
    fn range_scan_in_order() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        for i in (0..100u32).rev() {
            t.insert(&p, &i.to_be_bytes(), u64::from(i)).unwrap();
        }
        let got = t
            .range_vec(&p, &10u32.to_be_bytes(), Some(&20u32.to_be_bytes()))
            .unwrap();
        let vals: Vec<u64> = got.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, (10..20).collect::<Vec<u64>>());
    }

    #[test]
    fn full_scan_is_sorted_after_splits() {
        let p = BufferPool::new(MemDisk::new(), 256 * PAGE_SIZE);
        let mut t = BTree::create(&p).unwrap();
        let mut keys: Vec<u32> = (0..5000).map(|i| i * 7 % 5000).collect();
        keys.dedup();
        for &k in &keys {
            t.insert(&p, &k.to_be_bytes(), u64::from(k)).unwrap();
        }
        let got = t.range_vec(&p, &[], None).unwrap();
        let mut prev: Option<Vec<u8>> = None;
        for (k, _) in &got {
            if let Some(pk) = &prev {
                assert!(pk < k, "scan out of order");
            }
            prev = Some(k.clone());
        }
        assert_eq!(got.len() as u64, t.len());
    }

    #[test]
    fn delete_removes_key() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        for i in 0..100u32 {
            t.insert(&p, &i.to_be_bytes(), u64::from(i)).unwrap();
        }
        assert_eq!(t.delete(&p, &50u32.to_be_bytes()).unwrap(), Some(50));
        assert_eq!(t.delete(&p, &50u32.to_be_bytes()).unwrap(), None);
        assert_eq!(t.get(&p, &50u32.to_be_bytes()).unwrap(), None);
        assert_eq!(t.len(), 99);
        // Neighbours untouched.
        assert_eq!(t.get(&p, &49u32.to_be_bytes()).unwrap(), Some(49));
        assert_eq!(t.get(&p, &51u32.to_be_bytes()).unwrap(), Some(51));
    }

    #[test]
    fn variable_length_keys() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        let keys = ["a", "ab", "abc", "b", "ba", "z", ""];
        for (i, k) in keys.iter().enumerate() {
            t.insert(&p, k.as_bytes(), i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(&p, k.as_bytes()).unwrap(), Some(i as u64));
        }
        // Lexicographic scan order.
        let got = t.range_vec(&p, &[], None).unwrap();
        let strs: Vec<String> = got
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(strs, ["", "a", "ab", "abc", "b", "ba", "z"]);
    }

    #[test]
    fn long_keys_split_correctly() {
        let p = BufferPool::new(MemDisk::new(), 128 * PAGE_SIZE);
        let mut t = BTree::create(&p).unwrap();
        for i in 0..500u32 {
            let key = format!("{:0>200}", i); // 200-byte keys
            t.insert(&p, key.as_bytes(), u64::from(i)).unwrap();
        }
        for i in 0..500u32 {
            let key = format!("{:0>200}", i);
            assert_eq!(t.get(&p, key.as_bytes()).unwrap(), Some(u64::from(i)));
        }
    }

    #[test]
    fn scan_after_deletes_skips_them() {
        let p = pool();
        let mut t = BTree::create(&p).unwrap();
        for i in 0..50u32 {
            t.insert(&p, &i.to_be_bytes(), u64::from(i)).unwrap();
        }
        for i in (0..50u32).step_by(2) {
            t.delete(&p, &i.to_be_bytes()).unwrap();
        }
        let got = t.range_vec(&p, &[], None).unwrap();
        assert_eq!(got.len(), 25);
        assert!(got.iter().all(|(_, v)| v % 2 == 1));
    }

    // ----- bulk load ------------------------------------------------------------

    /// `n` entries with 8-byte big-endian keys `0, 2, 4, …` (odd keys
    /// are free for later inserts).
    fn even_entries(n: u64) -> Vec<(Vec<u8>, u64)> {
        (0..n)
            .map(|i| ((2 * i).to_be_bytes().to_vec(), i))
            .collect()
    }

    /// Entries of 8-byte keys one packed leaf holds.
    fn leaf_capacity() -> u64 {
        packed_len(std::iter::repeat(8), true) as u64
    }

    /// Load `entries` into a fresh pool; check that `len`, `page_count`
    /// and the pages the pool allocated agree, and that a full scan and
    /// every point lookup return the input.
    fn load_and_check(entries: &[(Vec<u8>, u64)]) -> (BufferPool<MemDisk>, BTree) {
        let p = BufferPool::new(MemDisk::new(), 256 * PAGE_SIZE);
        let t = BTree::bulk_load(&p, entries).unwrap();
        assert_eq!(t.len(), entries.len() as u64);
        assert_eq!(
            t.page_count(),
            p.num_pages(),
            "every page written is counted"
        );
        assert_eq!(t.range_vec(&p, &[], None).unwrap(), entries);
        for (k, v) in entries {
            assert_eq!(t.get(&p, k).unwrap(), Some(*v));
        }
        (p, t)
    }

    #[test]
    fn bulk_load_empty_is_create() {
        let (p, mut t) = load_and_check(&[]);
        assert_eq!((t.page_count(), t.height(&p).unwrap()), (1, 1));
        assert_eq!(t.get(&p, b"x").unwrap(), None);
        t.insert(&p, b"x", 7).unwrap();
        assert_eq!(t.get(&p, b"x").unwrap(), Some(7));
    }

    #[test]
    fn bulk_load_one_entry() {
        let (p, t) = load_and_check(&even_entries(1));
        assert_eq!((t.page_count(), t.height(&p).unwrap()), (1, 1));
    }

    #[test]
    fn bulk_load_exactly_one_full_leaf() {
        let (p, t) = load_and_check(&even_entries(leaf_capacity()));
        assert_eq!((t.page_count(), t.height(&p).unwrap()), (1, 1));
    }

    #[test]
    fn bulk_load_one_past_a_full_leaf() {
        let (p, t) = load_and_check(&even_entries(leaf_capacity() + 1));
        // Two leaves under one root.
        assert_eq!((t.page_count(), t.height(&p).unwrap()), (3, 2));
    }

    #[test]
    fn bulk_load_builds_several_internal_levels() {
        // 600-byte keys: 13 entries per leaf and 14 children per internal
        // node, so 2 000 entries need three levels.
        let entries: Vec<(Vec<u8>, u64)> = (0..2_000u64)
            .map(|i| (format!("{i:0>600}").into_bytes(), i))
            .collect();
        let (p, t) = load_and_check(&entries);
        assert_eq!(t.height(&p).unwrap(), 3);
        let lo = format!("{:0>600}", 700).into_bytes();
        let hi = format!("{:0>600}", 1_300).into_bytes();
        let got = t.range_vec(&p, &lo, Some(&hi)).unwrap();
        assert_eq!(got, entries[700..1_300]);
        // 190 entries make 15 leaves: one more than an internal node
        // holds, so the last internal node takes two of them.
        let (p, t) = load_and_check(&entries[..190]);
        assert_eq!((t.page_count(), t.height(&p).unwrap()), (15 + 2 + 1, 3));
    }

    #[test]
    fn bulk_load_rejects_unsorted_and_duplicate_keys() {
        let p = pool();
        let unsorted = vec![(b"b".to_vec(), 1), (b"a".to_vec(), 2)];
        let dup = vec![(b"a".to_vec(), 1), (b"b".to_vec(), 2), (b"b".to_vec(), 3)];
        assert!(matches!(
            BTree::bulk_load(&p, &unsorted),
            Err(StorageError::UnsortedKeys { index: 1 })
        ));
        assert!(matches!(
            BTree::bulk_load(&p, &dup),
            Err(StorageError::UnsortedKeys { index: 2 })
        ));
        let huge = vec![(vec![0u8; MAX_KEY + 1], 1)];
        assert!(matches!(
            BTree::bulk_load(&p, &huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
        assert_eq!(p.num_pages(), 0, "rejected input allocates nothing");
    }

    #[test]
    fn inserts_and_deletes_on_a_bulk_loaded_tree_match_the_model() {
        let entries = even_entries(5 * leaf_capacity());
        let (p, mut t) = load_and_check(&entries);
        let mut model: std::collections::BTreeMap<Vec<u8>, u64> = entries.iter().cloned().collect();
        let pages = t.page_count();
        // Odd keys land inside full leaves, which split on first touch.
        for i in (1..2 * entries.len() as u64).step_by(37) {
            let k = i.to_be_bytes().to_vec();
            assert_eq!(t.insert(&p, &k, i).unwrap(), model.insert(k, i));
        }
        assert!(t.page_count() > pages, "full leaves split");
        for i in (0..2 * entries.len() as u64).step_by(5) {
            let k = i.to_be_bytes().to_vec();
            assert_eq!(t.delete(&p, &k).unwrap(), model.remove(&k));
        }
        assert_eq!(t.len(), model.len() as u64);
        let expected: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
        assert_eq!(t.range_vec(&p, &[], None).unwrap(), expected);
        for (k, v) in &expected {
            assert_eq!(t.get(&p, k).unwrap(), Some(*v));
        }
    }
}
