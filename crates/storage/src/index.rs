//! Tag-name and content-value indexes over the B+-tree.
//!
//! * [`TagIndex`] — `(tag, interval)` → node. A posting-list scan for a
//!   tag returns its structural nodes **sorted by interval start**,
//!   i.e. in (per-color) document order — exactly the input order the
//!   stack-tree structural join and holistic chain join require.
//! * [`ContentIndex`] — `value → nodes`, for string-equality predicates
//!   and attribute-value (cross-tree / IDREF) joins.

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::encoding::{IntervalCode, KeyEncoder};
use crate::Result;
use mct_obs::Counter;
use std::sync::OnceLock;

/// Global-registry handles for index access methods
/// (`storage.index.*`), shared by every index in the process.
struct IndexCounters {
    tag_inserts: Counter,
    tag_probes: Counter,
    tag_entries: Counter,
    content_inserts: Counter,
    content_probes: Counter,
}

fn index_counters() -> &'static IndexCounters {
    static C: OnceLock<IndexCounters> = OnceLock::new();
    C.get_or_init(|| IndexCounters {
        tag_inserts: mct_obs::counter("storage.index.tag.inserts"),
        tag_probes: mct_obs::counter("storage.index.tag.probes"),
        tag_entries: mct_obs::counter("storage.index.tag.entries"),
        content_inserts: mct_obs::counter("storage.index.content.inserts"),
        content_probes: mct_obs::counter("storage.index.content.probes"),
    })
}

/// A structural-node posting: interval code plus the logical node id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Posting {
    /// Interval code within the posting's tree.
    pub code: IntervalCode,
    /// Logical node identifier (caller-defined).
    pub node: u64,
}

/// Index over element tag names (one per colored tree in MCT use).
pub struct TagIndex {
    tree: BTree,
}

impl TagIndex {
    /// Create an empty tag index.
    pub fn create<D: DiskManager>(pool: &BufferPool<D>) -> Result<TagIndex> {
        Ok(TagIndex {
            tree: BTree::create(pool)?,
        })
    }

    /// Wrap an existing B+-tree (catalog reopen path).
    pub fn from_btree(tree: BTree) -> TagIndex {
        TagIndex { tree }
    }

    /// The underlying B+-tree (for catalog persistence).
    pub fn btree(&self) -> &BTree {
        &self.tree
    }

    /// The B+-tree key of a posting: `be32(tag) || code`, so one tag's
    /// postings are adjacent and ordered by interval start.
    pub fn key(tag: u32, code: &IntervalCode) -> Vec<u8> {
        KeyEncoder::pair(&KeyEncoder::u32(tag), &code.to_bytes())
    }

    /// Add a structural node under `tag`.
    pub fn insert<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        tag: u32,
        code: IntervalCode,
        node: u64,
    ) -> Result<()> {
        index_counters().tag_inserts.inc();
        self.tree.insert(pool, &Self::key(tag, &code), node)?;
        Ok(())
    }

    /// Remove a structural node entry.
    pub fn remove<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        tag: u32,
        code: IntervalCode,
    ) -> Result<bool> {
        Ok(self.tree.delete(pool, &Self::key(tag, &code))?.is_some())
    }

    /// All postings for `tag`, in interval-start (document) order.
    pub fn postings<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        tag: u32,
    ) -> Result<Vec<Posting>> {
        self.postings_starting(pool, tag, std::iter::once((0, 1 << 32)))
    }

    /// The postings for `tag` that lie inside one of `regions`, in
    /// document order. A region `(s, e)` is an element's interval code,
    /// and holds the postings whose start is in `(s, e]`: the element's
    /// descendants. Regions must be sorted by `s` and disjoint; one
    /// cursor reads them all ([`BTree::scan_ranges`]).
    pub fn postings_within<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        tag: u32,
        regions: &[(u32, u32)],
    ) -> Result<Vec<Posting>> {
        let starts = regions.iter().map(|&(s, e)| (u64::from(s) + 1, u64::from(e) + 1));
        self.postings_starting(pool, tag, starts)
    }

    /// The postings for `tag` whose start lies in one of the `[lo, hi)`
    /// spans of `starts` (`u64`, so a span can end past `u32::MAX`).
    /// Counts one probe, and every posting returned.
    fn postings_starting<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        tag: u32,
        starts: impl Iterator<Item = (u64, u64)>,
    ) -> Result<Vec<Posting>> {
        let counters = index_counters();
        counters.tag_probes.inc();
        // `be32(tag) ‖ be32(start)` sorts before every key of that tag
        // and start. Start 2^32 gives the next tag's first key, or no
        // bound after the last tag.
        let key = |start: u64| (u64::from(tag) << 32).checked_add(start).map(u64::to_be_bytes);
        let ranges: Vec<([u8; 8], Option<[u8; 8]>)> = starts
            .filter(|(lo, hi)| lo < hi)
            .filter_map(|(lo, hi)| Some((key(lo)?, key(hi))))
            .collect();
        let mut out = Vec::new();
        self.tree.scan_ranges(pool, &ranges, |k, v| {
            out.push(Posting {
                code: IntervalCode::from_bytes(&k[4..]),
                node: v,
            });
        })?;
        counters.tag_entries.add(out.len() as u64);
        Ok(out)
    }

    /// Number of index entries.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Pages allocated by the underlying B+-tree.
    pub fn page_count(&self) -> u32 {
        self.tree.page_count()
    }
}

/// Index over content/attribute string values.
///
/// Keys are `value 0x00 be64(node)`; values must not contain NUL
/// (asserted), which holds for the paper's data-centric workloads.
pub struct ContentIndex {
    tree: BTree,
}

impl ContentIndex {
    /// Create an empty content index.
    pub fn create<D: DiskManager>(pool: &BufferPool<D>) -> Result<ContentIndex> {
        Ok(ContentIndex {
            tree: BTree::create(pool)?,
        })
    }

    /// Wrap an existing B+-tree (catalog reopen path).
    pub fn from_btree(tree: BTree) -> ContentIndex {
        ContentIndex { tree }
    }

    /// The underlying B+-tree (for catalog persistence).
    pub fn btree(&self) -> &BTree {
        &self.tree
    }

    /// The B+-tree key of `(value, node)`: `value 0x00 be64(node)`.
    pub fn key(value: &str, node: u64) -> Vec<u8> {
        assert!(
            !value.as_bytes().contains(&0),
            "content index values must not contain NUL"
        );
        let mut k = Vec::with_capacity(value.len() + 9);
        k.extend_from_slice(value.as_bytes());
        k.push(0);
        k.extend_from_slice(&KeyEncoder::u64(node));
        k
    }

    /// Add `(value, node)`.
    pub fn insert<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        value: &str,
        node: u64,
    ) -> Result<()> {
        index_counters().content_inserts.inc();
        self.tree.insert(pool, &Self::key(value, node), node)?;
        Ok(())
    }

    /// Remove `(value, node)`.
    pub fn remove<D: DiskManager>(
        &mut self,
        pool: &BufferPool<D>,
        value: &str,
        node: u64,
    ) -> Result<bool> {
        Ok(self.tree.delete(pool, &Self::key(value, node))?.is_some())
    }

    /// All nodes whose value equals `value` exactly.
    pub fn lookup<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        value: &str,
    ) -> Result<Vec<u64>> {
        index_counters().content_probes.inc();
        let mut lo = value.as_bytes().to_vec();
        lo.push(0);
        let hi = KeyEncoder::prefix_upper_bound(&lo);
        let mut out = Vec::new();
        self.tree
            .scan_range(pool, &lo, hi.as_deref(), |_, v| out.push(v))?;
        Ok(out)
    }

    /// All `(value, node)` pairs with `lo <= value < hi` (string range).
    pub fn lookup_range<D: DiskManager>(
        &self,
        pool: &BufferPool<D>,
        lo: &str,
        hi: Option<&str>,
    ) -> Result<Vec<(String, u64)>> {
        index_counters().content_probes.inc();
        let lo_key = lo.as_bytes().to_vec();
        let hi_key = hi.map(|h| {
            let mut k = h.as_bytes().to_vec();
            k.push(0);
            k
        });
        let mut out = Vec::new();
        self.tree
            .scan_range(pool, &lo_key, hi_key.as_deref(), |k, v| {
                let end = k.len() - 9; // strip 0x00 + be64(node)
                out.push((String::from_utf8_lossy(&k[..end]).into_owned(), v));
            })?;
        Ok(out)
    }

    /// Number of index entries.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Pages allocated by the underlying B+-tree.
    pub fn page_count(&self) -> u32 {
        self.tree.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::page::PAGE_SIZE;

    fn pool() -> BufferPool<MemDisk> {
        BufferPool::new(MemDisk::new(), 128 * PAGE_SIZE)
    }

    fn code(start: u32, end: u32, level: u16) -> IntervalCode {
        IntervalCode { start, end, level }
    }

    #[test]
    fn tag_postings_in_document_order() {
        let p = pool();
        let mut idx = TagIndex::create(&p).unwrap();
        // Insert out of order; expect start-order retrieval.
        idx.insert(&p, 7, code(30, 40, 2), 103).unwrap();
        idx.insert(&p, 7, code(10, 20, 2), 101).unwrap();
        idx.insert(&p, 7, code(21, 29, 3), 102).unwrap();
        idx.insert(&p, 8, code(5, 50, 1), 200).unwrap();
        let posts = idx.postings(&p, 7).unwrap();
        let starts: Vec<u32> = posts.iter().map(|p| p.code.start).collect();
        assert_eq!(starts, vec![10, 21, 30]);
        let nodes: Vec<u64> = posts.iter().map(|p| p.node).collect();
        assert_eq!(nodes, vec![101, 102, 103]);
    }

    #[test]
    fn tag_isolation_between_tags() {
        let p = pool();
        let mut idx = TagIndex::create(&p).unwrap();
        idx.insert(&p, 1, code(1, 2, 1), 10).unwrap();
        idx.insert(&p, 2, code(3, 4, 1), 20).unwrap();
        assert_eq!(idx.postings(&p, 1).unwrap().len(), 1);
        assert_eq!(idx.postings(&p, 2).unwrap().len(), 1);
        assert_eq!(idx.postings(&p, 3).unwrap().len(), 0);
    }

    #[test]
    fn tag_max_u32_boundary() {
        let p = pool();
        let mut idx = TagIndex::create(&p).unwrap();
        idx.insert(&p, u32::MAX, code(1, 2, 1), 10).unwrap();
        assert_eq!(idx.postings(&p, u32::MAX).unwrap().len(), 1);
        assert_eq!(idx.postings(&p, u32::MAX - 1).unwrap().len(), 0);
    }

    #[test]
    fn postings_within_reads_the_starts_inside_each_region() {
        let p = pool();
        let mut idx = TagIndex::create(&p).unwrap();
        for start in [5u32, 10, 11, 20, 30, u32::MAX] {
            idx.insert(&p, 7, code(start, start, 2), u64::from(start)).unwrap();
        }
        idx.insert(&p, 8, code(12, 13, 1), 1).unwrap();
        idx.insert(&p, u32::MAX, code(3, 9, 1), 99).unwrap();
        let nodes = |tag: u32, regions: &[(u32, u32)]| -> Vec<u64> {
            let posts = idx.postings_within(&p, tag, regions).unwrap();
            posts.iter().map(|p| p.node).collect()
        };
        // `(s, e]`: the region's own start is outside, its end inside.
        assert_eq!(nodes(7, &[(5, 11), (19, 30)]), [10, 11, 20, 30]);
        assert_eq!(nodes(7, &[(0, 4), (11, 19)]), [] as [u64; 0]);
        // An end of u32::MAX reaches the last start, not the next tag.
        assert_eq!(nodes(7, &[(30, u32::MAX)]), [u64::from(u32::MAX)]);
        assert_eq!(nodes(7, &[(u32::MAX, u32::MAX)]), [] as [u64; 0]);
        assert_eq!(nodes(u32::MAX, &[(2, u32::MAX)]), [99]);
        assert_eq!(nodes(7, &[]), [] as [u64; 0]);
    }

    #[test]
    fn tag_remove() {
        let p = pool();
        let mut idx = TagIndex::create(&p).unwrap();
        let c = code(10, 20, 2);
        idx.insert(&p, 7, c, 1).unwrap();
        assert!(idx.remove(&p, 7, c).unwrap());
        assert!(!idx.remove(&p, 7, c).unwrap());
        assert!(idx.postings(&p, 7).unwrap().is_empty());
    }

    #[test]
    fn content_exact_lookup() {
        let p = pool();
        let mut idx = ContentIndex::create(&p).unwrap();
        idx.insert(&p, "Comedy", 1).unwrap();
        idx.insert(&p, "Comedy", 2).unwrap();
        idx.insert(&p, "ComedyClub", 3).unwrap();
        idx.insert(&p, "Drama", 4).unwrap();
        let mut got = idx.lookup(&p, "Comedy").unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "prefix value must not leak in");
        assert_eq!(idx.lookup(&p, "Thriller").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn content_range_lookup() {
        let p = pool();
        let mut idx = ContentIndex::create(&p).unwrap();
        for (v, n) in [("apple", 1u64), ("banana", 2), ("cherry", 3), ("date", 4)] {
            idx.insert(&p, v, n).unwrap();
        }
        let got = idx.lookup_range(&p, "b", Some("d")).unwrap();
        let names: Vec<&str> = got.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(names, ["banana", "cherry"]);
    }

    #[test]
    fn content_remove_specific_pair() {
        let p = pool();
        let mut idx = ContentIndex::create(&p).unwrap();
        idx.insert(&p, "x", 1).unwrap();
        idx.insert(&p, "x", 2).unwrap();
        assert!(idx.remove(&p, "x", 1).unwrap());
        assert_eq!(idx.lookup(&p, "x").unwrap(), vec![2]);
    }

    #[test]
    fn large_posting_lists() {
        let p = BufferPool::new(MemDisk::new(), 512 * PAGE_SIZE);
        let mut idx = TagIndex::create(&p).unwrap();
        for i in 0..10_000u32 {
            idx.insert(&p, 42, code(i * 2, i * 2 + 1, 3), u64::from(i))
                .unwrap();
        }
        let posts = idx.postings(&p, 42).unwrap();
        assert_eq!(posts.len(), 10_000);
        assert!(posts.windows(2).all(|w| w[0].code.start < w[1].code.start));
    }
}
