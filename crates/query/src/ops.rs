//! The physical operator algebra.
//!
//! Bulk (operator-at-a-time) operators over posting lists, in the
//! style of Timber's algebra that the paper's implementation used:
//!
//! * [`index_scan`] — tag-index posting list for one color.
//! * [`structural_join`] — the **stack-tree** binary structural join of
//!   Al-Khalifa et al. \[2\]: merges two lists sorted by start using a
//!   stack of open ancestors; `O(|A| + |D| + |out|)`.
//! * [`holistic_path_join`] — the **PathStack** holistic chain join of
//!   Bruno et al. \[8\]: linked stacks, one per query node, no
//!   intermediate results for the chain. (Branching twigs decompose
//!   into chains joined on the branch element, as Timber did.)
//! * [`value_join_eq`] — hash join on content/attribute values (the
//!   shallow schema's ID/IDREF joins).
//! * [`nl_join_cmp`] — block nested-loop join for inequality
//!   predicates; quadratic, exactly the behaviour the paper observed.
//! * [`cross_tree_op`] — the color-transition operator (§6.2) over
//!   tuple streams, built on [`mct_core::cross_tree_join`]'s probe,
//!   sequential or morsel-parallel.
//! * selections ([`select_contains`], [`select_cmp`],
//!   [`select_attr_eq`]), [`dup_elim`], [`project`], [`sort_by_col`].
//!
//! Every value comparison — the selections, both value joins — is the
//! interpreter's: [`CmpOp::holds`] on the element's content or the
//! attribute's text (numeric when both sides are numbers, else
//! strings). An element without content has no value here and never
//! matches.
//!
//! Tuples are just `Vec<StructRef>` with positional columns; joins
//! concatenate the outer and inner tuples.

use crate::ast::{as_number, CmpOp};
use crate::exec::{self, CancelToken};
use mct_core::{ColorId, McNodeId, StoredDb, StructRef};
use mct_storage::DiskManager;
use std::collections::HashMap;

/// Deliberate-fault hooks for the differential-testing harness
/// (`mct-sim` / `mctfuzz`). Arming a hook makes an operator compute a
/// *wrong* answer on purpose, so the harness can prove it detects and
/// minimizes real divergence. Every hook defaults to off and costs one
/// relaxed atomic load on the paths it guards.
#[doc(hidden)]
pub mod testing_faults {
    use std::sync::atomic::{AtomicBool, Ordering};

    static CHAIN_OFF_BY_ONE: AtomicBool = AtomicBool::new(false);

    /// Arm/disarm the off-by-one in [`super::holistic_path_join`]'s
    /// stack expansion (it skips the bottom entry of each parent
    /// stack, dropping root-to-leaf matches).
    pub fn set_chain_off_by_one(on: bool) {
        CHAIN_OFF_BY_ONE.store(on, Ordering::SeqCst);
    }

    pub(super) fn chain_off_by_one() -> bool {
        CHAIN_OFF_BY_ONE.load(Ordering::Relaxed)
    }
}

/// A tuple of structural references (positional columns).
pub type Tuple = Vec<StructRef>;

/// Structural relationship tested by a join.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// Parent-child (level difference exactly 1).
    Child,
    /// Ancestor-descendant (strict containment).
    Descendant,
}

/// How to extract a join key from a node.
#[derive(Clone, Debug)]
pub enum KeySpec {
    /// The element's content string.
    Content,
    /// The value of a named attribute.
    Attr(String),
    /// Whitespace-separated tokens of a named attribute (IDREFS).
    AttrTokens(String),
}

/// Scan a tag's posting list in color `c`, producing 1-column tuples
/// in local document order.
pub fn index_scan<D: DiskManager>(
    s: &StoredDb<D>,
    c: ColorId,
    tag: &str,
) -> mct_storage::Result<Vec<Tuple>> {
    Ok(s.postings_named(c, tag)?.into_iter().map(|r| vec![r]).collect())
}

/// Stack-tree structural join. Inputs must be sorted by `code.start`
/// of the join columns (posting lists already are). Produces
/// `outer ++ inner` tuples sorted by the inner (descendant) column.
pub fn structural_join(
    outer: &[Tuple],
    ocol: usize,
    inner: &[Tuple],
    icol: usize,
    rel: Rel,
) -> Vec<Tuple> {
    debug_assert!(is_sorted_by(outer, ocol));
    debug_assert!(is_sorted_by(inner, icol));
    let mut out = Vec::new();
    // Stack holds indexes into `outer` of currently open ancestors.
    let mut stack: Vec<usize> = Vec::new();
    let mut oi = 0usize;
    for it in inner {
        let d = it[icol].code;
        // Open every ancestor candidate starting before d.
        while oi < outer.len() && outer[oi][ocol].code.start < d.start {
            let a = outer[oi][ocol].code;
            // Close stack entries that end before this ancestor starts.
            while let Some(&top) = stack.last() {
                if outer[top][ocol].code.end < a.start {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(oi);
            oi += 1;
        }
        // Close entries that end before d starts.
        while let Some(&top) = stack.last() {
            if outer[top][ocol].code.end < d.start {
                stack.pop();
            } else {
                break;
            }
        }
        // Every remaining open entry containing d matches (they are
        // nested, so all of them contain d if they are still open and
        // d.end fits).
        for &ai in &stack {
            let a = outer[ai][ocol].code;
            if !a.is_ancestor_of(&d) {
                continue;
            }
            if rel == Rel::Child && a.level + 1 != d.level {
                continue;
            }
            let mut t = outer[ai].clone();
            t.extend_from_slice(it);
            out.push(t);
        }
    }
    out
}

/// Naive nested-loop structural join — the test oracle.
pub fn naive_structural_join(
    outer: &[Tuple],
    ocol: usize,
    inner: &[Tuple],
    icol: usize,
    rel: Rel,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    for it in inner {
        for ot in outer {
            let a = ot[ocol].code;
            let d = it[icol].code;
            let hit = match rel {
                Rel::Child => a.is_parent_of(&d),
                Rel::Descendant => a.is_ancestor_of(&d),
            };
            if hit {
                let mut t = ot.clone();
                t.extend_from_slice(it);
                out.push(t);
            }
        }
    }
    out
}

/// PathStack holistic join over a chain `q0 rel0 q1 rel1 ... qk`.
/// `lists[i]` is the (start-sorted) posting list for chain node `i`;
/// `rels[i]` relates `q_i` (ancestor side) to `q_{i+1}`. Produces one
/// tuple per root-to-leaf match, columns in chain order.
pub fn holistic_path_join(lists: &[Vec<StructRef>], rels: &[Rel]) -> Vec<Tuple> {
    assert_eq!(lists.len(), rels.len() + 1, "k+1 lists need k relations");
    let k = lists.len();
    if k == 1 {
        return lists[0].iter().map(|&r| vec![r]).collect();
    }
    // Per-node stacks of (ref, parent_stack_top_index_at_push).
    let mut stacks: Vec<Vec<(StructRef, usize)>> = vec![Vec::new(); k];
    let mut cursors = vec![0usize; k];
    let mut out = Vec::new();
    loop {
        // qmin: the list whose next element has the smallest start.
        let mut qmin = usize::MAX;
        let mut min_start = u32::MAX;
        for (i, list) in lists.iter().enumerate() {
            if cursors[i] < list.len() && list[cursors[i]].code.start < min_start {
                min_start = list[cursors[i]].code.start;
                qmin = i;
            }
        }
        if qmin == usize::MAX {
            break;
        }
        let next = lists[qmin][cursors[qmin]];
        cursors[qmin] += 1;
        // Clean every stack: pop entries whose interval ended.
        for st in stacks.iter_mut() {
            while let Some(&(top, _)) = st.last() {
                if top.code.end < next.code.start {
                    st.pop();
                } else {
                    break;
                }
            }
        }
        // Push only when the parent stack is non-empty (or root).
        if qmin == 0 || !stacks[qmin - 1].is_empty() {
            let parent_top = if qmin == 0 {
                0
            } else {
                stacks[qmin - 1].len() - 1
            };
            stacks[qmin].push((next, parent_top));
            if qmin == k - 1 {
                // Leaf push: emit all root-to-leaf combinations ending
                // at this leaf.
                expand(&stacks, rels, k - 1, stacks[k - 1].len() - 1, &mut out);
            }
        }
    }
    // Output in leaf (document) order already; each tuple is
    // [q0, q1, ..., qk].
    out
}

/// Emit every root-to-leaf tuple whose level-`level` column is
/// `stacks[level][idx]` (called exactly when a leaf is pushed).
fn expand(
    stacks: &[Vec<(StructRef, usize)>],
    rels: &[Rel],
    level: usize,
    idx: usize,
    out: &mut Vec<Tuple>,
) {
    for mut t in paths_to(stacks, rels, level, idx) {
        t.reverse(); // built leaf→root; emit root→leaf
        out.push(t);
    }
}

/// All partial tuples `[entry, parent, ..., root]` (leaf first) ending
/// at `stacks[level][idx]`, honouring the per-edge relations and the
/// parent-stack bound captured at push time.
fn paths_to(
    stacks: &[Vec<(StructRef, usize)>],
    rels: &[Rel],
    level: usize,
    idx: usize,
) -> Vec<Vec<StructRef>> {
    let (r, parent_top) = stacks[level][idx];
    if level == 0 {
        return vec![vec![r]];
    }
    let mut result = Vec::new();
    let bound = parent_top.min(stacks[level - 1].len().saturating_sub(1));
    let lo = usize::from(testing_faults::chain_off_by_one());
    for i in lo..=bound {
        let (a, _) = stacks[level - 1][i];
        if !a.code.is_ancestor_of(&r.code) {
            continue;
        }
        if rels[level - 1] == Rel::Child && a.code.level + 1 != r.code.level {
            continue;
        }
        for mut p in paths_to(stacks, rels, level - 1, i) {
            p.insert(0, r);
            result.push(p);
        }
    }
    result
}

/// A hash key that is equal exactly when [`CmpOp::Eq`] holds: a
/// number's bits when the key is a number, else the string.
#[derive(PartialEq, Eq, Hash)]
enum JoinKey {
    Num(u64),
    Str(String),
}

impl JoinKey {
    /// `None` for NaN, which equals nothing. Adding `0.0` folds `-0`
    /// into `0`, the one pair of equal numbers with different bits.
    fn of(text: String) -> Option<JoinKey> {
        match as_number(&text) {
            Some(v) if v.is_nan() => None,
            Some(v) => Some(JoinKey::Num((v + 0.0).to_bits())),
            None => Some(JoinKey::Str(text)),
        }
    }
}

/// Hash equality join on extracted keys, equal as [`CmpOp::Eq`]
/// decides. Builds on the right, probes with the left; output order
/// follows the left input.
pub fn value_join_eq<D: DiskManager>(
    s: &StoredDb<D>,
    left: &[Tuple],
    lcol: usize,
    lkey: &KeySpec,
    right: &[Tuple],
    rcol: usize,
    rkey: &KeySpec,
) -> mct_storage::Result<Vec<Tuple>> {
    let mut table: HashMap<JoinKey, Vec<usize>> = HashMap::with_capacity(right.len());
    for (i, t) in right.iter().enumerate() {
        for key in extract_keys(s, t[rcol], rkey)?.into_iter().filter_map(JoinKey::of) {
            table.entry(key).or_default().push(i);
        }
    }
    let mut out = Vec::new();
    for lt in left {
        for key in extract_keys(s, lt[lcol], lkey)?.into_iter().filter_map(JoinKey::of) {
            if let Some(matches) = table.get(&key) {
                for &ri in matches {
                    let mut t = lt.clone();
                    t.extend_from_slice(&right[ri]);
                    out.push(t);
                }
            }
        }
    }
    Ok(out)
}

/// Nested-loop join on a content comparison — quadratic by design
/// (this is the inequality value join whose scaling the paper calls
/// out in §7.2).
pub fn nl_join_cmp<D: DiskManager>(
    s: &StoredDb<D>,
    left: &[Tuple],
    lcol: usize,
    right: &[Tuple],
    rcol: usize,
    op: CmpOp,
) -> mct_storage::Result<Vec<Tuple>> {
    // Pre-fetch the contents once per side (still O(n*m) pairs).
    let lvals = fetch_contents(s, left, lcol)?;
    let rvals = fetch_contents(s, right, rcol)?;
    let mut out = Vec::new();
    for (lt, lv) in left.iter().zip(&lvals) {
        let Some(lv) = lv else { continue };
        for (rt, rv) in right.iter().zip(&rvals) {
            let Some(rv) = rv else { continue };
            if op.holds(lv, rv) {
                let mut t = lt.clone();
                t.extend_from_slice(rt);
                out.push(t);
            }
        }
    }
    Ok(out)
}

/// The color-transition operator: replace column `col`'s structural
/// reference with its counterpart in color `to` (dropping tuples whose
/// node lacks the color), then re-sort by that column. Uses the
/// paper's link-probe join and counts into the same `query.crosstree.*`
/// counters as [`mct_core::cross_tree_join`].
///
/// `threads <= 1` (or an input below two morsels) probes in one pass
/// over `input`, recoding tuples in place. Otherwise the input is cut
/// into contiguous morsels probed by [`exec::run_morsels`] workers
/// through the shared buffer pool; the re-sort makes the output
/// byte-identical at any thread count. `cancel` is checked on entry
/// and at every morsel.
pub fn cross_tree_op<D: DiskManager>(
    s: &StoredDb<D>,
    input: Vec<Tuple>,
    col: usize,
    to: ColorId,
    threads: usize,
    cancel: Option<&CancelToken>,
) -> mct_storage::Result<Vec<Tuple>> {
    exec::check_cancel(cancel)?;
    let _span = mct_obs::trace::span("crosstree.op");
    let c = mct_core::crosstree::crosstree_counters();
    c.calls.inc();
    c.input_rows.add(input.len() as u64);
    let mut out = if threads <= 1 || input.len() < 2 * exec::MIN_MORSEL {
        probe_links(s, input.into_iter(), col, to)?
    } else {
        let ranges = exec::chunk_ranges(input.len(), threads);
        let chunks = exec::run_morsels(threads, ranges.len(), |ci| {
            exec::check_cancel(cancel)?;
            probe_links(s, input[ranges[ci].clone()].iter().cloned(), col, to)
        })?;
        chunks.into_iter().flatten().collect()
    };
    out.sort_by_key(|t| t[col].code.start);
    c.output_rows.add(out.len() as u64);
    c.transitions.add(out.len() as u64);
    Ok(out)
}

/// The link-probe loop behind [`cross_tree_op`]: keep the tuples whose
/// `col` node has color `to`, that column recoded into `to`'s tree.
fn probe_links<D: DiskManager>(
    s: &StoredDb<D>,
    tuples: impl ExactSizeIterator<Item = Tuple>,
    col: usize,
    to: ColorId,
) -> mct_storage::Result<Vec<Tuple>> {
    let mut out = Vec::with_capacity(tuples.len());
    for mut t in tuples {
        if let Some(code) = s.link_probe(t[col].node, to)? {
            t[col].code = code;
            out.push(t);
        }
    }
    Ok(out)
}

/// Keep tuples whose `col` content contains `needle`.
pub fn select_contains<D: DiskManager>(
    s: &StoredDb<D>,
    input: Vec<Tuple>,
    col: usize,
    needle: &str,
) -> mct_storage::Result<Vec<Tuple>> {
    let mut out = Vec::new();
    for t in input {
        if let Some(content) = s.fetch_content(t[col].node)? {
            if content.contains(needle) {
                out.push(t);
            }
        }
    }
    Ok(out)
}

/// Keep tuples whose `col` content compares `op` against `value`.
pub fn select_cmp<D: DiskManager>(
    s: &StoredDb<D>,
    input: Vec<Tuple>,
    col: usize,
    op: CmpOp,
    value: &str,
) -> mct_storage::Result<Vec<Tuple>> {
    let mut out = Vec::new();
    for t in input {
        if s.fetch_content(t[col].node)?.is_some_and(|c| op.holds(&c, value)) {
            out.push(t);
        }
    }
    Ok(out)
}

/// Keep tuples whose `col` attribute `name` equals `value`.
pub fn select_attr_eq<D: DiskManager>(
    s: &StoredDb<D>,
    input: Vec<Tuple>,
    col: usize,
    name: &str,
    value: &str,
) -> mct_storage::Result<Vec<Tuple>> {
    let mut out = Vec::new();
    for t in input {
        if has_attr_eq(s, t[col].node, name, value)? {
            out.push(t);
        }
    }
    Ok(out)
}

/// Whether element `n` has attribute `name` equal to `value`, compared
/// as [`CmpOp::Eq`] compares.
pub fn has_attr_eq<D: DiskManager>(
    s: &StoredDb<D>,
    n: McNodeId,
    name: &str,
    value: &str,
) -> mct_storage::Result<bool> {
    let attrs = s.fetch_attrs(n)?;
    Ok(attrs.iter().any(|(a, v)| a == name && CmpOp::Eq.holds(v, value)))
}

/// Remove duplicate tuples, comparing the node ids of `cols`.
/// Preserves first-occurrence order.
pub fn dup_elim(input: Vec<Tuple>, cols: &[usize]) -> Vec<Tuple> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(input.len());
    for t in input {
        let key: Vec<u32> = cols.iter().map(|&c| t[c].node.0).collect();
        if seen.insert(key) {
            out.push(t);
        }
    }
    out
}

/// Project tuples onto `cols` (in the given order).
pub fn project(input: Vec<Tuple>, cols: &[usize]) -> Vec<Tuple> {
    input
        .into_iter()
        .map(|t| cols.iter().map(|&c| t[c]).collect())
        .collect()
}

/// Sort tuples by the start code of `col`.
pub fn sort_by_col(mut input: Vec<Tuple>, col: usize) -> Vec<Tuple> {
    input.sort_by_key(|t| t[col].code.start);
    input
}

fn is_sorted_by(tuples: &[Tuple], col: usize) -> bool {
    tuples
        .windows(2)
        .all(|w| w[0][col].code.start <= w[1][col].code.start)
}

fn extract_keys<D: DiskManager>(
    s: &StoredDb<D>,
    r: StructRef,
    spec: &KeySpec,
) -> mct_storage::Result<Vec<String>> {
    Ok(match spec {
        KeySpec::Content => s.fetch_content(r.node)?.map(|c| vec![c]).unwrap_or_default(),
        KeySpec::Attr(name) => {
            let attrs = s.fetch_attrs(r.node)?;
            attrs
                .into_iter()
                .filter(|(n, _)| n == name)
                .map(|(_, v)| v)
                .collect()
        }
        KeySpec::AttrTokens(name) => {
            let attrs = s.fetch_attrs(r.node)?;
            attrs
                .into_iter()
                .filter(|(n, _)| n == name)
                .flat_map(|(_, v)| v.split_whitespace().map(str::to_string).collect::<Vec<_>>())
                .collect()
        }
    })
}

fn fetch_contents<D: DiskManager>(
    s: &StoredDb<D>,
    tuples: &[Tuple],
    col: usize,
) -> mct_storage::Result<Vec<Option<String>>> {
    tuples.iter().map(|t| s.fetch_content(t[col].node)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_core::{McNodeId, MctDatabase, StoredDb};

    /// genre > movie > (name, role*) in red; award > movie in green for
    /// even movies; actor > role in blue.
    fn stored() -> StoredDb {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");
        let blue = db.add_color("blue");
        let genre = db.new_element("genre", red);
        db.set_content(genre, "Comedy");
        db.append_child(McNodeId::DOCUMENT, genre, red);
        let award = db.new_element("award", green);
        db.set_content(award, "Oscar");
        db.append_child(McNodeId::DOCUMENT, award, green);
        let actor = db.new_element("actor", blue);
        db.set_content(actor, "Bette Davis");
        db.append_child(McNodeId::DOCUMENT, actor, blue);
        for i in 0..8 {
            let m = db.new_element("movie", red);
            db.set_attr(m, "id", &format!("m{i}"));
            db.append_child(genre, m, red);
            let name = db.new_element("name", red);
            db.set_content(name, &format!("Movie {i}"));
            db.append_child(m, name, red);
            let votes = db.new_element("votes", red);
            db.set_content(votes, &format!("{}", i * 10));
            db.append_child(m, votes, red);
            if i % 2 == 0 {
                db.add_node_color(m, green);
                db.append_child(award, m, green);
            }
            if i % 4 == 0 {
                let role = db.new_element("role", red);
                db.set_attr(role, "movieIdRef", &format!("m{i}"));
                db.append_child(m, role, red);
                db.add_node_color(role, blue);
                db.append_child(actor, role, blue);
            }
        }
        StoredDb::build(db, 8 * 1024 * 1024).unwrap()
    }

    #[test]
    fn structural_join_matches_naive() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let genres = index_scan(&s, red, "genre").unwrap();
        let movies = index_scan(&s, red, "movie").unwrap();
        let names = index_scan(&s, red, "name").unwrap();
        for rel in [Rel::Child, Rel::Descendant] {
            let fast = structural_join(&genres, 0, &movies, 0, rel);
            let slow = naive_structural_join(&genres, 0, &movies, 0, rel);
            assert_eq!(fast.len(), slow.len(), "{rel:?}");
            assert_eq!(fast.len(), 8);
        }
        // genre//name is descendant but not child.
        let desc = structural_join(&genres, 0, &names, 0, Rel::Descendant);
        let child = structural_join(&genres, 0, &names, 0, Rel::Child);
        assert_eq!(desc.len(), 8);
        assert_eq!(child.len(), 0);
    }

    #[test]
    fn structural_join_tuple_concatenation() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let movies = index_scan(&s, red, "movie").unwrap();
        let names = index_scan(&s, red, "name").unwrap();
        let joined = structural_join(&movies, 0, &names, 0, Rel::Child);
        assert!(joined.iter().all(|t| t.len() == 2));
        for t in &joined {
            assert!(t[0].code.is_parent_of(&t[1].code));
        }
    }

    #[test]
    fn holistic_chain_equals_binary_composition() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let genres: Vec<_> = s.postings_named(red, "genre").unwrap();
        let movies: Vec<_> = s.postings_named(red, "movie").unwrap();
        let names: Vec<_> = s.postings_named(red, "name").unwrap();
        let holistic = holistic_path_join(
            &[genres.clone(), movies.clone(), names.clone()],
            &[Rel::Descendant, Rel::Child],
        );
        // Binary composition oracle.
        let g: Vec<Tuple> = genres.iter().map(|&r| vec![r]).collect();
        let m: Vec<Tuple> = movies.iter().map(|&r| vec![r]).collect();
        let n: Vec<Tuple> = names.iter().map(|&r| vec![r]).collect();
        let gm = structural_join(&g, 0, &m, 0, Rel::Descendant);
        let gm = sort_by_col(gm, 1);
        let gmn = structural_join(&gm, 1, &n, 0, Rel::Child);
        assert_eq!(holistic.len(), gmn.len());
        assert_eq!(holistic.len(), 8);
        let mut a: Vec<Vec<u32>> = holistic
            .iter()
            .map(|t| t.iter().map(|r| r.node.0).collect())
            .collect();
        let mut b: Vec<Vec<u32>> = gmn
            .iter()
            .map(|t| t.iter().map(|r| r.node.0).collect())
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn holistic_single_list_passthrough() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let movies: Vec<_> = s.postings_named(red, "movie").unwrap();
        let out = holistic_path_join(std::slice::from_ref(&movies), &[]);
        assert_eq!(out.len(), movies.len());
    }

    #[test]
    fn value_join_on_attribute() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let movies = index_scan(&s, red, "movie").unwrap();
        let roles = index_scan(&s, red, "role").unwrap();
        let joined = value_join_eq(
            &s,
            &roles,
            0,
            &KeySpec::Attr("movieIdRef".into()),
            &movies,
            0,
            &KeySpec::Attr("id".into()),
        )
        .unwrap();
        assert_eq!(joined.len(), 2, "roles exist for movies 0 and 4");
        for t in &joined {
            let role_ref = s.fetch_attrs(t[0].node).unwrap();
            let movie_id = s.fetch_attrs(t[1].node).unwrap();
            assert_eq!(role_ref[0].1, movie_id[0].1);
        }
    }

    #[test]
    fn value_join_idrefs_tokens() {
        // Build a tiny db with an IDREFS attribute.
        let mut db = MctDatabase::new();
        let c = db.add_color("black");
        let root = db.new_element("root", c);
        db.append_child(McNodeId::DOCUMENT, root, c);
        let a = db.new_element("a", c);
        db.set_attr(a, "refs", "x y z");
        db.append_child(root, a, c);
        for id in ["x", "y", "w"] {
            let b = db.new_element("b", c);
            db.set_attr(b, "id", id);
            db.append_child(root, b, c);
        }
        let s = StoredDb::build(db, 1024 * 1024).unwrap();
        let as_ = index_scan(&s, c, "a").unwrap();
        let bs = index_scan(&s, c, "b").unwrap();
        let joined = value_join_eq(
            &s,
            &as_,
            0,
            &KeySpec::AttrTokens("refs".into()),
            &bs,
            0,
            &KeySpec::Attr("id".into()),
        )
        .unwrap();
        assert_eq!(joined.len(), 2, "x and y match, z has no target, w unreferenced");
    }

    #[test]
    fn nested_loop_inequality_join() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let votes = index_scan(&s, red, "votes").unwrap();
        // votes > votes: strict pairs among 0,10,...,70 → 28 pairs.
        let joined = nl_join_cmp(&s, &votes, 0, &votes, 0, CmpOp::Gt).unwrap();
        assert_eq!(joined.len(), 28);
    }

    #[test]
    fn cross_tree_op_changes_codes_and_order() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let green = s.db.color("green").unwrap();
        let movies = index_scan(&s, red, "movie").unwrap();
        let crossed = cross_tree_op(&s, movies, 0, green, 1, None).unwrap();
        assert_eq!(crossed.len(), 4, "even movies are green");
        for t in &crossed {
            assert_eq!(
                t[0].code.start,
                s.db.code(t[0].node, green).unwrap().start
            );
        }
        assert!(crossed.windows(2).all(|w| w[0][0].code.start <= w[1][0].code.start));
    }

    #[test]
    fn selections() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let names = index_scan(&s, red, "name").unwrap();
        let eq = select_cmp(&s, names.clone(), 0, CmpOp::Eq, "Movie 3").unwrap();
        assert_eq!(eq.len(), 1);
        let has = select_contains(&s, names.clone(), 0, "Movie").unwrap();
        assert_eq!(has.len(), 8);
        let votes = index_scan(&s, red, "votes").unwrap();
        let big = select_cmp(&s, votes, 0, CmpOp::Gt, "45").unwrap();
        assert_eq!(big.len(), 3); // 50, 60, 70
        let movies = index_scan(&s, red, "movie").unwrap();
        let m3 = select_attr_eq(&s, movies, 0, "id", "m3").unwrap();
        assert_eq!(m3.len(), 1);
    }

    /// One `v` element per content string under a single-colored root.
    fn values(contents: &[&str]) -> (StoredDb, Vec<Tuple>) {
        let mut db = MctDatabase::new();
        let c = db.add_color("black");
        let root = db.new_element("root", c);
        db.append_child(McNodeId::DOCUMENT, root, c);
        for content in contents {
            let v = db.new_element("v", c);
            db.set_content(v, content);
            db.append_child(root, v, c);
        }
        let s = StoredDb::build(db, 1024 * 1024).unwrap();
        let vs = index_scan(&s, c, "v").unwrap();
        (s, vs)
    }

    #[test]
    fn select_cmp_compares_like_the_interpreter() {
        // "NaN" and "inf" are numbers; "n/a" and "apple" are not, so
        // they compare as strings.
        let (s, vs) = values(&["NaN", "inf", "-inf", "n/a", "5", "7.0", "apple"]);
        let fetch = |ts: &[Tuple]| -> Vec<String> {
            ts.iter()
                .map(|t| s.fetch_content(t[0].node).unwrap().unwrap_or_default())
                .collect()
        };
        let gt = select_cmp(&s, vs.clone(), 0, CmpOp::Gt, "1").unwrap();
        assert_eq!(fetch(&gt), ["inf", "n/a", "5", "7.0", "apple"]);
        let ne = select_cmp(&s, vs.clone(), 0, CmpOp::Ne, "5").unwrap();
        assert_eq!(fetch(&ne), ["NaN", "inf", "-inf", "n/a", "7.0", "apple"], "NaN != 5");
        let eq = select_cmp(&s, vs.clone(), 0, CmpOp::Eq, " 07").unwrap();
        assert_eq!(fetch(&eq), ["7.0"]);
        let nan = select_cmp(&s, vs, 0, CmpOp::Eq, "NaN").unwrap();
        assert!(nan.is_empty(), "NaN equals nothing, not even NaN");
    }

    #[test]
    fn value_join_matches_exactly_when_eq_holds() {
        let contents = ["7", "7.0", " 07", "seven", "0", "-0", "NaN", "inf", "x y"];
        let (s, vs) = values(&contents);
        let joined = value_join_eq(&s, &vs, 0, &KeySpec::Content, &vs, 0, &KeySpec::Content)
            .unwrap();
        let mut got: Vec<(u32, u32)> = joined.iter().map(|t| (t[0].node.0, t[1].node.0)).collect();
        let mut want = Vec::new();
        for l in &vs {
            for r in &vs {
                let lc = s.fetch_content(l[0].node).unwrap().unwrap();
                let rc = s.fetch_content(r[0].node).unwrap().unwrap();
                if CmpOp::Eq.holds(&lc, &rc) {
                    want.push((l[0].node.0, r[0].node.0));
                }
            }
        }
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        // 3 sevens and 2 zeros pair up, NaN with nothing, the other
        // three only with themselves.
        assert_eq!(got.len(), 9 + 4 + 3, "{got:?}");
    }

    #[test]
    fn dup_elim_and_project() {
        let s = stored();
        let red = s.db.color("red").unwrap();
        let movies = index_scan(&s, red, "movie").unwrap();
        let names = index_scan(&s, red, "name").unwrap();
        let joined = structural_join(&movies, 0, &names, 0, Rel::Child);
        let only_movies = project(joined.clone(), &[0]);
        assert!(only_movies.iter().all(|t| t.len() == 1));
        let doubled: Vec<Tuple> = joined.iter().chain(joined.iter()).cloned().collect();
        let unique = dup_elim(doubled, &[0, 1]);
        assert_eq!(unique.len(), joined.len());
    }
}
