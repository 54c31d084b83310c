//! `mctck` — deep consistency verification of a [`StoredDb`].
//!
//! A multi-colored tree store keeps several redundant structures per
//! node — one structural record *per color*, tag/link/content/attr
//! indexes, interval codes — which multiplies the ways a partial
//! update can leave them silently disagreeing. [`StoredDb::check`]
//! cross-checks every pair:
//!
//! * **logical shape** — every node attached in a colored tree has an
//!   interval code there and no other node has one; along each colored
//!   tree the codes are nested-or-disjoint, in per-color document
//!   order, with `level = parent.level + 1`;
//! * **struct heap ↔ logical tree** — each per-color structural
//!   record names an attached element whose code and tag match, and
//!   record counts equal attached-node counts;
//! * **tag index ↔ logical tree** — every tag-index entry decodes to
//!   an attached element with that tag and exactly that code, and
//!   every attached element is present (count equality + uniqueness);
//! * **link index ↔ struct heap** (color-link symmetry, §6.2) — each
//!   link entry resolves through the packed record id to a structural
//!   record for the same node with the logical code, and every node
//!   carrying the color links back;
//! * **content/attr heaps + indexes ↔ logical nodes** — record ids
//!   round-trip, heap payloads equal logical content/attributes, every
//!   live heap record is the one its node's record id names (no
//!   orphans), and every value-index entry matches the node it names.
//!
//! The checker is read-only (`&self`, shared buffer pool), so a
//! server can run it under its read lock; it also runs offline via
//! the `mctck` binary and after WAL recovery in the crash tests.
//! Every violation found bumps the `check.violations` counter.

use crate::color::ColorId;
use crate::database::{McNodeId, McNodeKind};
use crate::persist::{decode_attrs, decode_content, unpack_rid, StoredDb};
use mct_storage::{DiskManager, HeapFile, IntervalCode, RecordId};
use mct_obs::Counter;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

/// Cap on retained violation details; everything is still *counted*.
const MAX_DETAILS: usize = 256;

struct CheckCounters {
    runs: Counter,
    violations: Counter,
}

fn check_counters() -> &'static CheckCounters {
    static C: OnceLock<CheckCounters> = OnceLock::new();
    C.get_or_init(|| CheckCounters {
        runs: mct_obs::counter("check.runs"),
        violations: mct_obs::counter("check.violations"),
    })
}

/// One invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable category slug (e.g. `"code-nesting"`, `"link-orphan"`).
    pub category: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.category, self.detail)
    }
}

/// Outcome of a [`StoredDb::check`] run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Violations found (details capped at [`MAX_DETAILS`]; the count
    /// in [`CheckReport::total_violations`] is exact).
    pub violations: Vec<Violation>,
    /// Exact number of violations found.
    pub total_violations: u64,
    /// Colors examined.
    pub colors_checked: usize,
    /// Attached (node, color) structural pairs examined.
    pub structural_checked: u64,
    /// Heap records + index entries examined.
    pub records_checked: u64,
}

impl CheckReport {
    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.total_violations == 0
    }

    fn flag(&mut self, category: &'static str, detail: String) {
        self.total_violations += 1;
        check_counters().violations.inc();
        if self.violations.len() < MAX_DETAILS {
            self.violations.push(Violation { category, detail });
        }
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "mctck: {} color(s), {} structural pair(s), {} record(s)/entr(ies) checked",
            self.colors_checked, self.structural_checked, self.records_checked
        )?;
        if self.is_ok() {
            write!(f, "mctck: OK — zero violations")
        } else {
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            if self.total_violations as usize > self.violations.len() {
                writeln!(
                    f,
                    "  … and {} more",
                    self.total_violations as usize - self.violations.len()
                )?;
            }
            write!(f, "mctck: FAILED — {} violation(s)", self.total_violations)
        }
    }
}

impl<D: DiskManager> StoredDb<D> {
    /// Run the full cross-structure consistency check (read-only).
    ///
    /// I/O errors and corrupt pages abort the check with `Err`; a
    /// structurally *inconsistent* but readable store returns `Ok`
    /// with the violations in the report.
    pub fn check(&self) -> mct_storage::Result<CheckReport> {
        check_counters().runs.inc();
        let mut rep = CheckReport::default();
        let ncolors = self.db.palette.len();
        rep.colors_checked = ncolors;

        // Attached node set per color, in per-color document order,
        // from the logical trees — the ground truth the physical
        // structures are checked against. `None` for a color without
        // storage (flagged here, skipped below).
        let mut attached: Vec<Option<Vec<McNodeId>>> = Vec::with_capacity(ncolors);
        for ci in 0..ncolors {
            let c = ColorId(ci as u8);
            self.check_stray_codes(c, &mut rep);
            if self.storage_of(c).is_err() {
                rep.flag(
                    "color-without-storage",
                    format!("color {ci} has no structural heap or indexes"),
                );
                attached.push(None);
                continue;
            }
            let nodes: Vec<McNodeId> = self
                .db
                .descendants_or_self(McNodeId::DOCUMENT, c)
                .skip(1)
                .collect();
            self.check_codes(c, &nodes, &mut rep);
            attached.push(Some(nodes));
        }

        for (ci, nodes) in attached.iter().enumerate() {
            let Some(nodes) = nodes else { continue };
            let c = ColorId(ci as u8);
            self.check_struct_heap(c, nodes, &mut rep)?;
            self.check_tag_index(c, nodes, &mut rep)?;
            self.check_link_index(c, nodes, &mut rep)?;
        }
        self.check_color_bits(&attached, &mut rep);
        self.check_content(&mut rep)?;
        self.check_attrs(&mut rep)?;
        Ok(rep)
    }

    /// A node that does not occur in colored tree `c` has no code
    /// there: a delete that leaves one behind is caught here.
    fn check_stray_codes(&self, c: ColorId, rep: &mut CheckReport) {
        let ci = c.index();
        for (i, l) in self.db.tree(c).links.iter().enumerate() {
            let n = McNodeId(i as u32);
            if let Some(code) = self.db.code(n, c).filter(|_| !l.attached) {
                rep.flag(
                    "stray-code",
                    format!(
                        "color {ci}: n{i} is not attached but has code [{},{}]",
                        code.start, code.end
                    ),
                );
            }
        }
    }

    /// Interval codes along one colored tree: present (the document's
    /// too), nested within the parent, disjoint and ordered across
    /// siblings, level = parent level + 1, and strictly increasing
    /// starts in pre-order (per-color document order).
    fn check_codes(&self, c: ColorId, nodes: &[McNodeId], rep: &mut CheckReport) {
        let ci = c.index();
        if self.db.code(McNodeId::DOCUMENT, c).is_none() {
            rep.flag("missing-code", format!("color {ci}: the document has no code"));
        }
        let mut last_start: Option<u32> = None;
        for &n in nodes {
            rep.structural_checked += 1;
            let Some(code) = self.db.code(n, c) else {
                rep.flag("missing-code", format!("color {ci}: node n{} has no code", n.0));
                continue;
            };
            if code.start > code.end {
                rep.flag(
                    "code-inverted",
                    format!("color {ci}: n{} has start {} > end {}", n.0, code.start, code.end),
                );
            }
            if let Some(prev) = last_start {
                if code.start <= prev {
                    rep.flag(
                        "doc-order",
                        format!(
                            "color {ci}: n{} start {} not after predecessor start {prev}",
                            n.0, code.start
                        ),
                    );
                }
            }
            last_start = Some(code.start);
            // Against the parent.
            let parent = self.db.parent(n, c);
            if let Some((p, pc)) = parent.and_then(|p| Some((p, self.db.code(p, c)?))) {
                if code.start <= pc.start || code.end >= pc.end {
                    rep.flag(
                        "code-nesting",
                        format!(
                            "color {ci}: n{} [{},{}] not inside parent n{} [{},{}]",
                            n.0, code.start, code.end, p.0, pc.start, pc.end
                        ),
                    );
                }
                if code.level != pc.level + 1 {
                    rep.flag(
                        "code-level",
                        format!(
                            "color {ci}: n{} level {} under parent level {}",
                            n.0, code.level, pc.level
                        ),
                    );
                }
            }
            // Against the previous sibling: disjoint and ordered.
            let mut prev_sib: Option<McNodeId> = None;
            if let Some(p) = self.db.parent(n, c) {
                for s in self.db.children(p, c) {
                    if s == n {
                        break;
                    }
                    prev_sib = Some(s);
                }
            }
            if let Some(s) = prev_sib {
                if let Some(sc) = self.db.code(s, c) {
                    if sc.end >= code.start {
                        rep.flag(
                            "sibling-overlap",
                            format!(
                                "color {ci}: siblings n{} [{},{}] and n{} [{},{}] not disjoint",
                                s.0, sc.start, sc.end, n.0, code.start, code.end
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Per-color structural heap ↔ logical tree.
    fn check_struct_heap(
        &self,
        c: ColorId,
        attached: &[McNodeId],
        rep: &mut CheckReport,
    ) -> mct_storage::Result<()> {
        let ci = c.index();
        let want: HashSet<u32> = attached.iter().map(|n| n.0).collect();
        let mut seen = 0u64;
        let mut flags: Vec<(&'static str, String)> = Vec::new();
        self.struct_heaps[ci].scan(&self.pool, |_rid, rec| {
            seen += 1;
            if rec.len() < 18 {
                flags.push((
                    "struct-record-short",
                    format!("color {ci}: structural record of {} bytes", rec.len()),
                ));
                return;
            }
            let code = IntervalCode::from_bytes(&rec[..10]);
            let name = u32::from_le_bytes(rec[10..14].try_into().expect("struct name"));
            let n = McNodeId(u32::from_le_bytes(rec[14..18].try_into().expect("struct node")));
            if !want.contains(&n.0) {
                flags.push((
                    "struct-orphan",
                    format!("color {ci}: structural record for unattached node n{}", n.0),
                ));
                return;
            }
            match self.db.code(n, c) {
                Some(logical) if logical == code => {}
                Some(logical) => flags.push((
                    "struct-code-drift",
                    format!(
                        "color {ci}: n{} stored [{},{}]@{} vs logical [{},{}]@{}",
                        n.0, code.start, code.end, code.level,
                        logical.start, logical.end, logical.level
                    ),
                )),
                None => flags.push((
                    "struct-code-drift",
                    format!("color {ci}: n{} stored but has no logical code", n.0),
                )),
            }
            if self.db.node(n).name.map(|s| s.0) != Some(name) {
                flags.push((
                    "struct-tag-drift",
                    format!("color {ci}: n{} stored under wrong tag sym {name}", n.0),
                ));
            }
        })?;
        rep.records_checked += seen;
        for (cat, detail) in flags {
            rep.flag(cat, detail);
        }
        if seen != attached.len() as u64 {
            rep.flag(
                "struct-count",
                format!(
                    "color {ci}: {} structural record(s) vs {} attached node(s)",
                    seen,
                    attached.len()
                ),
            );
        }
        Ok(())
    }

    /// Per-color tag index ↔ logical tree.
    fn check_tag_index(
        &self,
        c: ColorId,
        attached: &[McNodeId],
        rep: &mut CheckReport,
    ) -> mct_storage::Result<()> {
        let ci = c.index();
        let want: HashSet<u32> = attached.iter().map(|n| n.0).collect();
        let entries = self.tag_indexes[ci].btree().range_vec(&self.pool, &[], None)?;
        rep.records_checked += entries.len() as u64;
        let mut covered: HashSet<u32> = HashSet::new();
        for (key, val) in &entries {
            if key.len() != 14 {
                rep.flag(
                    "tag-key-malformed",
                    format!("color {ci}: tag key of {} bytes", key.len()),
                );
                continue;
            }
            let tag = u32::from_be_bytes(key[..4].try_into().expect("tag prefix"));
            let code = IntervalCode::from_bytes(&key[4..14]);
            let n = McNodeId(*val as u32);
            if !want.contains(&n.0) {
                rep.flag(
                    "tag-orphan",
                    format!("color {ci}: tag entry for unattached node n{}", n.0),
                );
                continue;
            }
            covered.insert(n.0);
            if self.db.node(n).name.map(|s| s.0) != Some(tag) {
                rep.flag(
                    "tag-drift",
                    format!("color {ci}: n{} indexed under wrong tag sym {tag}", n.0),
                );
            }
            if self.db.code(n, c) != Some(code) {
                rep.flag(
                    "tag-code-drift",
                    format!("color {ci}: n{} tag-indexed with a stale code", n.0),
                );
            }
        }
        if entries.len() != attached.len() {
            rep.flag(
                "tag-count",
                format!(
                    "color {ci}: {} tag entr(ies) vs {} attached node(s)",
                    entries.len(),
                    attached.len()
                ),
            );
        }
        for &n in attached {
            if !covered.contains(&n.0) {
                rep.flag(
                    "tag-missing",
                    format!("color {ci}: attached node n{} absent from the tag index", n.0),
                );
            }
        }
        Ok(())
    }

    /// Per-color link index ↔ struct heap ↔ logical code (the §6.2
    /// back-links the cross-tree join descends through).
    fn check_link_index(
        &self,
        c: ColorId,
        attached: &[McNodeId],
        rep: &mut CheckReport,
    ) -> mct_storage::Result<()> {
        let ci = c.index();
        let entries = self.link_indexes[ci].range_vec(&self.pool, &[], None)?;
        rep.records_checked += entries.len() as u64;
        let mut linked: HashSet<u32> = HashSet::new();
        for (key, packed) in &entries {
            if key.len() != 4 {
                rep.flag(
                    "link-key-malformed",
                    format!("color {ci}: link key of {} bytes", key.len()),
                );
                continue;
            }
            let n = McNodeId(u32::from_be_bytes(key[..4].try_into().expect("link key")));
            linked.insert(n.0);
            let rec = match self.struct_heaps[ci].get(&self.pool, unpack_rid(*packed)) {
                Ok(rec) => rec,
                Err(mct_storage::StorageError::RecordNotFound { .. }) => {
                    rep.flag(
                        "link-dangling",
                        format!("color {ci}: n{} links to a deleted structural record", n.0),
                    );
                    continue;
                }
                Err(e) => return Err(e),
            };
            if rec.len() < 18 {
                rep.flag(
                    "struct-record-short",
                    format!("color {ci}: linked structural record of {} bytes", rec.len()),
                );
                continue;
            }
            let rec_node = McNodeId(u32::from_le_bytes(rec[14..18].try_into().expect("node")));
            if rec_node != n {
                rep.flag(
                    "link-mismatch",
                    format!("color {ci}: n{} links to a record for n{}", n.0, rec_node.0),
                );
            }
            let code = IntervalCode::from_bytes(&rec[..10]);
            if self.db.code(n, c) != Some(code) {
                rep.flag(
                    "link-code-drift",
                    format!("color {ci}: n{} link resolves to a stale code", n.0),
                );
            }
        }
        for &n in attached {
            if !linked.contains(&n.0) {
                rep.flag(
                    "link-missing",
                    format!("color {ci}: attached node n{} has no link entry", n.0),
                );
            }
        }
        for n in &linked {
            if !attached.iter().any(|a| a.0 == *n) {
                rep.flag(
                    "link-orphan",
                    format!("color {ci}: link entry for unattached node n{n}"),
                );
            }
        }
        Ok(())
    }

    /// `dm:colors` bits ↔ tree attachment (color-link symmetry at the
    /// logical level: a node claims exactly the colors whose trees
    /// contain it).
    fn check_color_bits(&self, attached: &[Option<Vec<McNodeId>>], rep: &mut CheckReport) {
        let in_tree: Vec<Option<HashSet<u32>>> = attached
            .iter()
            .map(|v| v.as_ref().map(|v| v.iter().map(|n| n.0).collect()))
            .collect();
        for i in 0..self.db.len() {
            let n = McNodeId(i as u32);
            if n == McNodeId::DOCUMENT || self.db.node(n).kind != McNodeKind::Element {
                continue;
            }
            let colors = self.db.colors(n);
            for (ci, tree) in in_tree.iter().enumerate() {
                let Some(tree) = tree else { continue };
                let claimed = colors.contains(ColorId(ci as u8));
                let present = tree.contains(&n.0);
                if claimed != present {
                    rep.flag(
                        "color-bit-mismatch",
                        format!(
                            "n{} {} color {ci} but is {} its tree",
                            n.0,
                            if claimed { "claims" } else { "lacks" },
                            if present { "in" } else { "not in" }
                        ),
                    );
                }
            }
        }
    }

    /// Content heap + content index ↔ logical node content.
    fn check_content(&self, rep: &mut CheckReport) -> mct_storage::Result<()> {
        // Forward: every colored element with content round-trips.
        for i in 0..self.db.len() {
            let n = McNodeId(i as u32);
            let node = self.db.node(n);
            if node.kind != McNodeKind::Element || node.colors.is_empty() {
                continue;
            }
            let Some(content) = node.content.as_deref() else {
                continue;
            };
            rep.records_checked += 1;
            match self.content_rid.get(i).copied().flatten() {
                None => rep.flag(
                    "content-rid-missing",
                    format!("n{} has content but no heap record id", n.0),
                ),
                Some(rid) => match self.content_heap.get(&self.pool, rid) {
                    Ok(rec) => {
                        let (rn, rv) = decode_content(&rec);
                        if rn != n || rv != content {
                            rep.flag(
                                "content-drift",
                                format!("n{} heap record disagrees with logical content", n.0),
                            );
                        }
                    }
                    Err(mct_storage::StorageError::RecordNotFound { .. }) => rep.flag(
                        "content-rid-dangling",
                        format!("n{} content record id points at a deleted slot", n.0),
                    ),
                    Err(e) => return Err(e),
                },
            }
            if !self
                .content_index
                .lookup(&self.pool, content)?
                .contains(&u64::from(n.0))
            {
                rep.flag(
                    "content-index-missing",
                    format!("n{} content absent from the content index", n.0),
                );
            }
        }
        self.check_heap_owners(&self.content_heap, &self.content_rid, "content-record-orphan", rep)?;
        // Reverse: every index entry names a node with that content.
        let entries = self.content_index.btree().range_vec(&self.pool, &[], None)?;
        rep.records_checked += entries.len() as u64;
        for (key, val) in &entries {
            if key.len() < 9 {
                rep.flag("content-key-malformed", format!("key of {} bytes", key.len()));
                continue;
            }
            let value = String::from_utf8_lossy(&key[..key.len() - 9]);
            let n = McNodeId(*val as u32);
            if n.index() >= self.db.len() || self.db.content(n) != Some(value.as_ref()) {
                rep.flag(
                    "content-index-orphan",
                    format!("content index maps {value:?} to n{} which disagrees", n.0),
                );
            }
        }
        Ok(())
    }

    /// Reverse over a content or attribute heap: every live record is
    /// the one its node's record id names. (Both record kinds start with
    /// the node id.) Anything else is an orphan: live in the heap,
    /// reachable from no node.
    fn check_heap_owners(
        &self,
        heap: &HeapFile,
        rids: &[Option<RecordId>],
        category: &'static str,
        rep: &mut CheckReport,
    ) -> mct_storage::Result<()> {
        let mut orphans = Vec::new();
        heap.scan(&self.pool, |rid, rec| {
            rep.records_checked += 1;
            let owner = rec.get(..4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
            if owner.and_then(|n| rids.get(n as usize).copied().flatten()) != Some(rid) {
                orphans.push((rid, owner));
            }
        })?;
        for (rid, owner) in orphans {
            rep.flag(category, format!("record {rid:?} of n{owner:?} is not the one its node names"));
        }
        Ok(())
    }

    /// Attribute heap + attribute index ↔ logical node attributes.
    fn check_attrs(&self, rep: &mut CheckReport) -> mct_storage::Result<()> {
        for i in 0..self.db.len() {
            let n = McNodeId(i as u32);
            let node = self.db.node(n);
            if node.kind != McNodeKind::Element || node.colors.is_empty() || node.attrs.is_empty() {
                continue;
            }
            rep.records_checked += 1;
            match self.attr_rid.get(i).copied().flatten() {
                None => rep.flag(
                    "attr-rid-missing",
                    format!("n{} has attributes but no heap record id", n.0),
                ),
                Some(rid) => match self.attr_heap.get(&self.pool, rid) {
                    Ok(rec) => {
                        let stored = decode_attrs(&rec, &self.db);
                        let logical: Vec<(String, String)> = node
                            .attrs
                            .iter()
                            .map(|(s, v)| (self.db.names.resolve(*s).to_string(), v.to_string()))
                            .collect();
                        if stored != logical {
                            rep.flag(
                                "attr-drift",
                                format!("n{} heap attributes disagree with logical ones", n.0),
                            );
                        }
                    }
                    Err(mct_storage::StorageError::RecordNotFound { .. }) => rep.flag(
                        "attr-rid-dangling",
                        format!("n{} attribute record id points at a deleted slot", n.0),
                    ),
                    Err(e) => return Err(e),
                },
            }
            for (s, v) in &node.attrs {
                let key = format!("{}={}", self.db.names.resolve(*s), v);
                if !self
                    .attr_index
                    .lookup(&self.pool, &key)?
                    .contains(&u64::from(n.0))
                {
                    rep.flag(
                        "attr-index-missing",
                        format!("n{} attribute {key:?} absent from the index", n.0),
                    );
                }
            }
        }
        self.check_heap_owners(&self.attr_heap, &self.attr_rid, "attr-record-orphan", rep)?;
        // Reverse over the attribute index.
        let entries = self.attr_index.btree().range_vec(&self.pool, &[], None)?;
        rep.records_checked += entries.len() as u64;
        let mut by_node: HashMap<u32, Vec<String>> = HashMap::new();
        for (key, val) in &entries {
            if key.len() < 9 {
                rep.flag("attr-key-malformed", format!("key of {} bytes", key.len()));
                continue;
            }
            by_node
                .entry(*val as u32)
                .or_default()
                .push(String::from_utf8_lossy(&key[..key.len() - 9]).into_owned());
        }
        for (node, keys) in &by_node {
            let n = McNodeId(*node);
            if n.index() >= self.db.len() {
                rep.flag("attr-index-orphan", format!("attr index names unknown n{node}"));
                continue;
            }
            let logical: HashSet<String> = self
                .db
                .node(n)
                .attrs
                .iter()
                .map(|(s, v)| format!("{}={}", self.db.names.resolve(*s), v))
                .collect();
            for k in keys {
                if !logical.contains(k) {
                    rep.flag(
                        "attr-index-orphan",
                        format!("attr index maps {k:?} to n{node} which lacks it"),
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::database::{McNodeId, MctDatabase};
    use crate::persist::{encode_attrs, encode_content, StoredDb};

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
    fn clean_build_passes() {
        let s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let rep = s.check().unwrap();
        assert!(rep.is_ok(), "clean build must verify: {rep}");
        assert_eq!(rep.colors_checked, 2);
        assert!(rep.structural_checked > 0);
        assert!(rep.records_checked > 0);
    }

    #[test]
    fn still_ok_after_write_through_updates() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let n = s.content_lookup("Movie 3").unwrap()[0];
        s.update_content(n, "Renamed").unwrap();
        let green = s.db.color("green").unwrap();
        let victim = s.postings_named(green, "movie").unwrap()[0].node;
        s.detach(victim, green).unwrap();
        let rep = s.check().unwrap();
        assert!(rep.is_ok(), "maintained store must verify: {rep}");
    }

    #[test]
    fn colors_changed_behind_the_store_are_flagged_then_restored() {
        use mct_storage::StorageError::NotAnnotated;
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let red = s.db.color("red").unwrap();
        let genre = s.postings_named(red, "movie-genre").unwrap()[0].node;
        let m = s.db.0.new_element("movie", red);
        s.db.0.append_child(genre, m, red);
        let blue = s.db.0.add_color("blue");
        let rep = s.check().unwrap();
        let flagged: Vec<_> = rep.violations.iter().map(|v| v.category).collect();
        assert_eq!(
            flagged,
            [
                "missing-code",
                "color-without-storage",
                "struct-count",
                "tag-count",
                "tag-missing",
                "link-missing"
            ],
            "{rep}"
        );
        assert!(matches!(s.postings_named(blue, "movie"), Err(NotAnnotated)));
        assert!(matches!(s.link_probe(McNodeId(1), blue), Err(NotAnnotated)));
        s.db.0.remove_color(m, red);
        s.ensure_all_annotated().unwrap();
        assert!(s.check().unwrap().is_ok());
        assert_eq!(s.postings_named(red, "movie").unwrap().len(), 10);
        assert!(s.postings_named(blue, "movie").unwrap().is_empty());
    }

    /// A node with a code in a color it does not occur in is flagged:
    /// what a delete that forgot to clear the code would leave.
    #[test]
    fn detects_a_stray_code() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let (red, green) = (s.db.color("red").unwrap(), s.db.color("green").unwrap());
        let odd = s.attr_lookup("id", "m3").unwrap()[0];
        let code = s.db.code(odd, red).unwrap();
        s.db.0.tree_mut(green).codes[odd.index()] = code;
        let rep = s.check().unwrap();
        let flagged: Vec<_> = rep.violations.iter().map(|v| v.category).collect();
        assert_eq!(flagged, ["stray-code"], "{rep}");
    }

    #[test]
    fn detects_torn_structural_state() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        // Simulate a half-applied delete: drop the structural index
        // entries but "forget" the logical color removal.
        let green = s.db.color("green").unwrap();
        let victim = s.postings_named(green, "movie").unwrap()[0].node;
        s.unindex_node(victim, green).unwrap();
        // (no db.remove_color — the logical side still claims green)
        let rep = s.check().unwrap();
        assert!(!rep.is_ok(), "torn delete must be caught");
        assert!(
            rep.violations.iter().any(|v| v.category == "link-missing"
                || v.category == "tag-missing"
                || v.category == "struct-count"),
            "wrong categories: {rep}"
        );
    }

    #[test]
    fn detects_content_index_drift() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let n = s.content_lookup("Movie 3").unwrap()[0];
        // Mutate only the logical content, skipping heap + index.
        s.db.0.set_content(n, "Silently Edited");
        let rep = s.check().unwrap();
        assert!(!rep.is_ok());
        assert!(
            rep.violations.iter().any(|v| v.category.starts_with("content-")),
            "wrong categories: {rep}"
        );
    }

    /// A live heap record that no node's record id names is flagged,
    /// for the content heap and the attribute heap alike.
    #[test]
    fn detects_orphaned_heap_records() {
        let mut s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let n = s.content_lookup("Movie 3").unwrap()[0];
        s.content_heap.insert(&s.pool, &encode_content(n, "Movie 3")).unwrap();
        let m = s.attr_lookup("id", "m3").unwrap()[0];
        let attrs = s.db.node(m).attrs.clone();
        s.attr_heap.insert(&s.pool, &encode_attrs(m, &attrs)).unwrap();
        let rep = s.check().unwrap();
        let flagged: Vec<_> = rep.violations.iter().map(|v| v.category).collect();
        assert_eq!(flagged, ["content-record-orphan", "attr-record-orphan"], "{rep}");
    }

    #[test]
    fn report_renders_both_outcomes() {
        let s = StoredDb::build(small_db(), 4 * 1024 * 1024).unwrap();
        let rep = s.check().unwrap();
        assert!(format!("{rep}").contains("zero violations"));
        let mut s = s;
        let n = s.content_lookup("Movie 3").unwrap()[0];
        s.db.0.set_content(n, "Drift");
        let rep = s.check().unwrap();
        assert!(format!("{rep}").contains("FAILED"));
    }
}
