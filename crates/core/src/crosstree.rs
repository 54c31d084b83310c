//! The cross-tree join access method (§6.2).
//!
//! "A color transition is accomplished by a *cross-tree join* access
//! method, which simply follows the links described above to obtain
//! the structural node of each element for the color being
//! transitioned to. This bulk access method is implemented in a
//! straightforward fashion as an attribute-value based join."
//!
//! [`cross_tree_join`] is that method: for each input structural
//! reference in the source color, it probes the target color's link
//! index (a B+-tree keyed by node id — the "attribute") and fetches
//! the target structural record; inputs without the target color drop
//! out. The output is re-sorted into the target tree's local order so
//! downstream structural joins can consume it directly.
//!
//! [`cross_tree_join_direct`] is the ablation variant (A1 in
//! DESIGN.md): it follows in-memory links with no page traffic,
//! quantifying the paper's speculation that "a more sophisticated
//! implementation could bring down the cost of a color crossing
//! substantially".

use crate::color::ColorId;
use crate::persist::{StoredDb, StructRef};
use mct_obs::Counter;
use mct_storage::DiskManager;
use std::sync::OnceLock;

/// Global-registry handles for color transitions
/// (`query.crosstree.*`), shared by both join variants here and by
/// `mct-query`'s tuple-stream operator.
pub struct CrossTreeCounters {
    /// Transitions run.
    pub calls: Counter,
    /// References fed in.
    pub input_rows: Counter,
    /// References that had the target color.
    pub output_rows: Counter,
    /// Color transitions performed (equal to `output_rows`).
    pub transitions: Counter,
}

/// The process-wide `query.crosstree.*` counter handles.
pub fn crosstree_counters() -> &'static CrossTreeCounters {
    static C: OnceLock<CrossTreeCounters> = OnceLock::new();
    C.get_or_init(|| CrossTreeCounters {
        calls: mct_obs::counter("query.crosstree.calls"),
        input_rows: mct_obs::counter("query.crosstree.input_rows"),
        output_rows: mct_obs::counter("query.crosstree.output_rows"),
        transitions: mct_obs::counter("query.crosstree.transitions"),
    })
}

/// Bulk color transition via the link-index (attribute-value) join —
/// the paper's implementation. Output is sorted by target-tree start.
/// Takes `&StoredDb`: probes are pure reads through the concurrent
/// buffer pool, so callers may fan input partitions across threads.
pub fn cross_tree_join<D: DiskManager>(
    stored: &StoredDb<D>,
    input: &[StructRef],
    to: ColorId,
) -> mct_storage::Result<Vec<StructRef>> {
    let _span = mct_obs::trace::span("crosstree.join");
    let c = crosstree_counters();
    c.calls.inc();
    c.input_rows.add(input.len() as u64);
    let mut out = Vec::with_capacity(input.len());
    for r in input {
        if let Some(code) = stored.link_probe(r.node, to)? {
            out.push(StructRef { node: r.node, code });
        }
    }
    out.sort_unstable_by_key(|r| r.code.start);
    c.output_rows.add(out.len() as u64);
    c.transitions.add(out.len() as u64);
    Ok(out)
}

/// Bulk color transition via direct in-memory links (ablation A1).
pub fn cross_tree_join_direct<D: DiskManager>(
    stored: &StoredDb<D>,
    input: &[StructRef],
    to: ColorId,
) -> Vec<StructRef> {
    let _span = mct_obs::trace::span("crosstree.join_direct");
    let c = crosstree_counters();
    c.calls.inc();
    c.input_rows.add(input.len() as u64);
    let mut out = Vec::with_capacity(input.len());
    for r in input {
        if let Some(code) = stored.link_direct(r.node, to) {
            out.push(StructRef { node: r.node, code });
        }
    }
    out.sort_unstable_by_key(|r| r.code.start);
    c.output_rows.add(out.len() as u64);
    c.transitions.add(out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{McNodeId, MctDatabase};
    use crate::persist::StoredDb;

    /// Two hierarchies over 100 items: by-category (red) and by-decade
    /// (green); every third item is also green.
    fn stored() -> StoredDb {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");
        let cat = db.new_element("category", red);
        db.append_child(McNodeId::DOCUMENT, cat, red);
        let decade = db.new_element("decade", green);
        db.append_child(McNodeId::DOCUMENT, decade, green);
        for i in 0..100 {
            let item = db.new_element("item", red);
            db.set_content(item, &format!("item {i}"));
            db.append_child(cat, item, red);
            if i % 3 == 0 {
                db.add_node_color(item, green);
                db.append_child(decade, item, green);
            }
        }
        StoredDb::build(db, 8 * 1024 * 1024).unwrap()
    }

    #[test]
    fn join_filters_and_reorders() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let green = s.db.color("green").unwrap();
        let reds = s.postings_named(red, "item").unwrap();
        assert_eq!(reds.len(), 100);
        let crossed = cross_tree_join(&s, &reds, green).unwrap();
        assert_eq!(crossed.len(), 34, "items 0,3,...,99");
        // Sorted in green local order.
        assert!(crossed.windows(2).all(|w| w[0].code.start < w[1].code.start));
        // Codes are green codes, not red ones.
        for r in &crossed {
            assert_eq!(r.code.start, s.db.code(r.node, green).unwrap().start);
        }
    }

    #[test]
    fn direct_variant_agrees_with_probe_variant() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let green = s.db.color("green").unwrap();
        let reds = s.postings_named(red, "item").unwrap();
        let a = cross_tree_join(&s, &reds, green).unwrap();
        let b = cross_tree_join_direct(&s, &reds, green);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.code.start, y.code.start);
            assert_eq!(x.code.end, y.code.end);
        }
    }

    #[test]
    fn probe_variant_recovers_level() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let green = s.db.color("green").unwrap();
        let reds = s.postings_named(red, "item").unwrap();
        let crossed = cross_tree_join(&s, &reds, green).unwrap();
        for r in &crossed {
            assert_eq!(r.code.level, s.db.code(r.node, green).unwrap().level);
        }
    }

    #[test]
    fn transition_to_same_color_is_identity_modulo_order() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let reds = s.postings_named(red, "item").unwrap();
        let same = cross_tree_join(&s, &reds, red).unwrap();
        assert_eq!(same.len(), reds.len());
        assert_eq!(same, reds);
    }

    #[test]
    fn empty_input_empty_output() {
        let s = stored();
        let green = s.db.color("green").unwrap();
        assert!(cross_tree_join(&s, &[], green).unwrap().is_empty());
    }

    #[test]
    fn probe_join_pays_page_accesses_direct_does_not() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let green = s.db.color("green").unwrap();
        let reds = s.postings_named(red, "item").unwrap();
        let mark = s.pool.stats();
        let _ = cross_tree_join_direct(&s, &reds, green);
        let direct_hits = s.pool.stats().delta_since(&mark).accesses();
        assert_eq!(direct_hits, 0, "direct variant touches no pages");
        let _ = cross_tree_join(&s, &reds, green).unwrap();
        let probe_hits = s.pool.stats().delta_since(&mark).accesses();
        assert!(probe_hits >= reds.len() as u64, "one probe per input at least");
    }
}
