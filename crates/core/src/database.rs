//! The multi-colored tree database (§3 of the paper).
//!
//! An [`MctDatabase`] is the triple `(N, C, {T_c})` of Definition 3.2:
//! a shared node arena, a palette of colors, and one rooted ordered
//! tree per color over those nodes. Every colored tree is rooted at
//! the document node, which therefore carries all colors.
//!
//! **Physical modeling note.** Following Timber's design that the paper
//! builds on (§6.2, Figure 10), an element's text content and
//! attributes are stored *with* the element (one content record, one
//! attribute record), not as separate structural nodes. This bakes in
//! Definition 3.2(iii) — attribute and text nodes always carry all of
//! their element's colors — by construction, and matches the paper's
//! data-centric workloads (no mixed content). What is replicated per
//! color is exactly the *structural relationship* (the `Links` record
//! plus the `(start, end, level)` interval code), mirroring Figure 10's
//! one-structural-node-per-color layout.

use crate::color::{ColorId, ColorSet, Palette};
use mct_storage::IntervalCode;
use mct_xml::{Interner, Sym};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a node in the MCT arena. `McNodeId(0)` is the
/// document node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct McNodeId(pub u32);

impl McNodeId {
    /// The document node, root of every colored tree.
    pub const DOCUMENT: McNodeId = McNodeId(0);

    /// Arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for McNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

const NONE: u32 = u32::MAX;

/// Per-color structural links of one node (Figure 10's "structural
/// relationships node" for that color).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Links {
    pub parent: u32,
    pub first_child: u32,
    pub last_child: u32,
    pub prev: u32,
    pub next: u32,
    /// Whether the node belongs to this tree at all (it may carry the
    /// color while being temporarily detached during restructuring).
    pub attached: bool,
}

impl Default for Links {
    fn default() -> Self {
        Links {
            parent: NONE,
            first_child: NONE,
            last_child: NONE,
            prev: NONE,
            next: NONE,
            attached: false,
        }
    }
}

/// Sentinel interval code for "not annotated / not in tree".
pub(crate) const NO_CODE: IntervalCode = IntervalCode {
    start: u32::MAX,
    end: 0,
    level: 0,
};

/// Gap stride for interval numbering: consecutive code slots are this
/// far apart, leaving room for in-place insertions (see
/// [`crate::StoredDb::attach`]).
pub const CODE_STRIDE: u32 = 8;

/// One colored tree `T_c` (Definition 3.1): links + interval codes.
#[derive(Clone, Debug)]
pub(crate) struct ColorTree {
    pub links: Vec<Links>,
    pub codes: Vec<IntervalCode>,
    /// Number of nodes attached in this tree.
    pub node_count: u64,
}

impl ColorTree {
    pub(crate) fn new() -> Self {
        ColorTree {
            links: Vec::new(),
            codes: Vec::new(),
            node_count: 0,
        }
    }

    fn grow(&mut self, n: usize) {
        if self.links.len() < n {
            self.links.resize_with(n, Links::default);
            self.codes.resize(n, NO_CODE);
        }
    }

    #[inline]
    pub fn link(&self, n: McNodeId) -> &Links {
        &self.links[n.index()]
    }

    #[inline]
    fn link_mut(&mut self, n: McNodeId) -> &mut Links {
        &mut self.links[n.index()]
    }
}

/// Node kinds in the MCT arena (see module docs for why text and
/// attributes are folded into elements).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McNodeKind {
    /// The document node.
    Document,
    /// An element (possibly with content and attributes).
    Element,
}

/// One node record in the arena.
#[derive(Clone, Debug)]
pub struct McNode {
    /// Kind of node.
    pub kind: McNodeKind,
    /// Element name.
    pub name: Option<Sym>,
    /// Text content (the element's single content node).
    pub content: Option<Box<str>>,
    /// Attributes as name/value pairs, in set order.
    pub attrs: Vec<(Sym, Box<str>)>,
    /// The node's colors (`dm:colors`, §3.2).
    pub colors: ColorSet,
}

/// First-touch change journal of an [`MctDatabase`]: what the
/// database looked like when the journal started, kept only for what
/// has changed since. The arena, interner and palette only grow, so
/// their base lengths cover every push; a node record and a
/// `(color, node)` link + code are saved the first time a mutation
/// touches them, and [`MctDatabase::annotate`] saves a whole color's
/// codes once. Rolling back restores exactly these; a catalog record
/// (see the snapshot module) carries the new values at the same keys. Colors registered since the start are not journaled: they are
/// dropped on rollback and shipped whole. The zero journal (the
/// default: every base length 0) describes the empty database; a
/// record against it is rooted.
#[derive(Clone, Debug, Default)]
pub(crate) struct Journal {
    /// Arena length at the start.
    pub nodes_len: usize,
    /// Interner length at the start.
    pub names_len: usize,
    /// Per color at the start: `(slots, node_count)`.
    pub trees: Vec<(usize, u64)>,
    /// Start-time record of each touched node below `nodes_len`.
    pub nodes: BTreeMap<u32, McNode>,
    /// Start-time links + code of each touched `(color, node)` slot.
    pub links: BTreeMap<(u8, u32), (Links, IntervalCode)>,
    /// Start-time codes of each color renumbered since.
    pub codes: BTreeMap<u8, Vec<IntervalCode>>,
}

impl Journal {
    fn start(db: &MctDatabase) -> Journal {
        Journal {
            nodes_len: db.nodes.len(),
            names_len: db.names.len(),
            trees: db
                .trees
                .iter()
                .map(|t| (t.links.len(), t.node_count))
                .collect(),
            nodes: BTreeMap::new(),
            links: BTreeMap::new(),
            codes: BTreeMap::new(),
        }
    }

    /// Number of colors at the start.
    pub fn colors(&self) -> usize {
        self.trees.len()
    }
}

/// The MCT database: shared nodes, a palette, and one tree per color.
/// `Clone` duplicates the full logical state — node ids included —
/// which differential tests rely on to build independent stores that
/// stay id-comparable (see `mct-sim`).
#[derive(Clone, Debug)]
pub struct MctDatabase {
    pub(crate) nodes: Vec<McNode>,
    /// Name interner shared by all colored trees.
    pub names: Interner,
    /// Registered colors.
    pub palette: Palette,
    pub(crate) trees: Vec<ColorTree>,
    /// Change journal; `None` (off) unless a [`crate::StoredDb`] that
    /// owns this database has a WAL attached or a transaction open.
    pub(crate) journal: Option<Box<Journal>>,
}

impl Default for MctDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl MctDatabase {
    /// Create a database containing only the document node (no colors).
    pub fn new() -> Self {
        MctDatabase {
            nodes: vec![McNode {
                kind: McNodeKind::Document,
                name: None,
                content: None,
                attrs: Vec::new(),
                colors: ColorSet::EMPTY,
            }],
            names: Interner::new(),
            palette: Palette::new(),
            trees: Vec::new(),
            journal: None,
        }
    }

    /// Number of arena slots (including any detached nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the document node exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Borrow a node record.
    #[inline]
    pub fn node(&self, n: McNodeId) -> &McNode {
        &self.nodes[n.index()]
    }

    pub(crate) fn tree(&self, c: ColorId) -> &ColorTree {
        &self.trees[c.index()]
    }

    pub(crate) fn tree_mut(&mut self, c: ColorId) -> &mut ColorTree {
        &mut self.trees[c.index()]
    }

    // ----- change journal -----------------------------------------------------

    /// Start (or restart) the change journal at the current state.
    pub(crate) fn start_journal(&mut self) {
        self.journal = Some(Box::new(Journal::start(self)));
    }

    /// Turn the change journal off.
    pub(crate) fn stop_journal(&mut self) {
        self.journal = None;
    }

    /// True when the journal is on and nothing changed since it started.
    pub(crate) fn journal_is_clean(&self) -> bool {
        self.journal.as_deref().is_some_and(|j| {
            j.nodes.is_empty()
                && j.links.is_empty()
                && j.codes.is_empty()
                && j.nodes_len == self.nodes.len()
                && j.names_len == self.names.len()
                && j.colors() == self.trees.len()
        })
    }

    /// Put back every value the journal saved, so the database is
    /// exactly what it was when the journal started, and turn the
    /// journal off. No-op when it is off.
    pub(crate) fn roll_back(&mut self) {
        let Some(j) = self.journal.take() else {
            return;
        };
        let j = *j;
        let colors = j.colors();
        self.nodes.truncate(j.nodes_len);
        for (n, node) in j.nodes {
            self.nodes[n as usize] = node;
        }
        self.names.truncate(j.names_len);
        self.palette.truncate(colors);
        self.trees.truncate(colors);
        for (t, &(len, node_count)) in self.trees.iter_mut().zip(&j.trees) {
            t.links.truncate(len);
            t.codes.truncate(len);
            t.node_count = node_count;
        }
        for ((c, n), (links, code)) in j.links {
            let t = &mut self.trees[c as usize];
            if (n as usize) < t.links.len() {
                t.links[n as usize] = links;
                t.codes[n as usize] = code;
            }
        }
        for (c, mut codes) in j.codes {
            let t = &mut self.trees[c as usize];
            codes.truncate(t.links.len());
            t.codes = codes;
        }
    }

    /// Journal node `n`'s record before its first change.
    #[inline]
    fn touch_node(&mut self, n: McNodeId) {
        if let Some(j) = &mut self.journal {
            if n.index() < j.nodes_len {
                j.nodes
                    .entry(n.0)
                    .or_insert_with(|| self.nodes[n.index()].clone());
            }
        }
    }

    /// Journal the links + code of `n` (a node id or `NONE`) in tree
    /// `c` before their first change.
    #[inline]
    fn touch_link(&mut self, c: ColorId, n: u32) {
        if let Some(j) = &mut self.journal {
            if n != NONE && c.index() < j.colors() {
                let t = &self.trees[c.index()];
                j.links
                    .entry((c.0, n))
                    .or_insert_with(|| (t.links[n as usize], t.codes[n as usize]));
            }
        }
    }

    // ----- colors -----------------------------------------------------------

    /// Register a color. The document node becomes the root of the new
    /// colored tree (Definition 3.2: every tree shares the document
    /// root), numbered as its only node. Idempotent by name.
    pub fn add_color(&mut self, name: &str) -> ColorId {
        if let Some(c) = self.palette.get(name) {
            return c;
        }
        let c = self.palette.register(name);
        debug_assert_eq!(c.index(), self.trees.len());
        let mut t = ColorTree::new();
        t.grow(self.nodes.len());
        t.link_mut(McNodeId::DOCUMENT).attached = true;
        t.node_count = 1;
        self.trees.push(t);
        self.number(c, &[McNodeId::DOCUMENT], 0, CODE_STRIDE, 0);
        self.touch_node(McNodeId::DOCUMENT);
        self.nodes[0].colors = self.nodes[0].colors.with(c);
        c
    }

    /// Color id by name.
    pub fn color(&self, name: &str) -> Option<ColorId> {
        self.palette.get(name)
    }

    /// `dm:colors` (§3.2): the colors of a node, always non-empty for
    /// attached nodes.
    #[inline]
    pub fn colors(&self, n: McNodeId) -> ColorSet {
        self.node(n).colors
    }

    // ----- constructors (§3.3) ---------------------------------------------

    /// *First-color* element constructor: a brand-new node with unique
    /// identity carrying color `c`, initially detached in `T_c`.
    pub fn new_element(&mut self, name: &str, c: ColorId) -> McNodeId {
        assert!(c.index() < self.trees.len(), "unregistered color {c:?}");
        let id = self.new_element_uncolored(name);
        self.nodes[id.index()].colors = ColorSet::single(c);
        id
    }

    /// Create an element with *no* colors yet — the transient state of
    /// an element constructor before `createColor` assigns its first
    /// color (§4.2). Such nodes are invisible to every colored tree
    /// and excluded from [`Self::counts`] until colored.
    pub fn new_element_uncolored(&mut self, name: &str) -> McNodeId {
        let sym = self.names.intern(name);
        let id = McNodeId(u32::try_from(self.nodes.len()).expect("MCT arena overflow"));
        self.nodes.push(McNode {
            kind: McNodeKind::Element,
            name: Some(sym),
            content: None,
            attrs: Vec::new(),
            colors: ColorSet::EMPTY,
        });
        for t in &mut self.trees {
            t.grow(self.nodes.len());
        }
        id
    }

    /// *Next-color* constructor: add color `c` to an existing node
    /// (same identity returned, per §3.3). The node is detached in
    /// `T_c` until appended.
    pub fn add_node_color(&mut self, n: McNodeId, c: ColorId) {
        assert!(c.index() < self.trees.len(), "unregistered color {c:?}");
        assert!(
            self.node(n).kind == McNodeKind::Element,
            "only elements take extra colors explicitly"
        );
        self.touch_node(n);
        self.nodes[n.index()].colors = self.nodes[n.index()].colors.with(c);
    }

    /// Set (replace) the element's text content.
    pub fn set_content(&mut self, n: McNodeId, content: &str) {
        assert_eq!(self.node(n).kind, McNodeKind::Element);
        self.touch_node(n);
        self.nodes[n.index()].content = Some(content.into());
    }

    /// The element's text content, if any.
    pub fn content(&self, n: McNodeId) -> Option<&str> {
        self.node(n).content.as_deref()
    }

    /// Set (replace) an attribute.
    pub fn set_attr(&mut self, n: McNodeId, name: &str, value: &str) {
        assert_eq!(self.node(n).kind, McNodeKind::Element);
        let sym = self.names.intern(name);
        self.touch_node(n);
        let node = &mut self.nodes[n.index()];
        if let Some(slot) = node.attrs.iter_mut().find(|(s, _)| *s == sym) {
            slot.1 = value.into();
        } else {
            node.attrs.push((sym, value.into()));
        }
    }

    /// Attribute value by name.
    pub fn attr(&self, n: McNodeId, name: &str) -> Option<&str> {
        let sym = self.names.get(name)?;
        self.node(n)
            .attrs
            .iter()
            .find(|(s, _)| *s == sym)
            .map(|(_, v)| v.as_ref())
    }

    /// Element name string.
    pub fn name_str(&self, n: McNodeId) -> Option<&str> {
        self.node(n).name.map(|s| self.names.resolve(s))
    }

    // ----- structure mutation ------------------------------------------------

    /// Append `child` as the last child of `parent` in colored tree `c`.
    /// The child has no interval code until the tree is numbered
    /// ([`Self::annotate`]).
    ///
    /// Both nodes must carry `c` (color compatibility), and `child`
    /// must not already be attached in `T_c` — a node occurs at most
    /// once per colored tree.
    pub fn append_child(&mut self, parent: McNodeId, child: McNodeId, c: ColorId) {
        self.attach_checks(parent, child, c);
        let old_last = self.tree(c).link(parent).last_child;
        self.touch_link(c, parent.0);
        self.touch_link(c, child.0);
        self.touch_link(c, old_last);
        let t = self.tree_mut(c);
        {
            let l = t.link_mut(child);
            l.parent = parent.0;
            l.prev = old_last;
            l.next = NONE;
            l.attached = true;
        }
        if old_last == NONE {
            t.link_mut(parent).first_child = child.0;
        } else {
            t.links[old_last as usize].next = child.0;
        }
        t.link_mut(parent).last_child = child.0;
        t.node_count += 1;
    }

    fn attach_checks(&self, parent: McNodeId, child: McNodeId, c: ColorId) {
        assert!(
            self.colors(parent).contains(c),
            "append: parent lacks color {c:?}"
        );
        assert!(
            self.colors(child).contains(c),
            "append: child lacks color {c:?} (use add_node_color first)"
        );
        assert!(
            !self.tree(c).link(child).attached,
            "append: node already occurs in tree {c:?} (at most once per colored tree)"
        );
        // Note: the parent may itself still be detached — first-color
        // constructors build trees bottom-up (§3.3), so whole detached
        // fragments are legal and get rooted when their top is appended.
    }

    /// Detach `n` (with its color-`c` subtree) from tree `c` and clear
    /// its interval code there. Every other code stays valid: removing
    /// a node leaves the survivors' intervals nested and ordered. The
    /// node keeps the color; use [`Self::remove_color`] to drop it.
    pub fn detach(&mut self, n: McNodeId, c: ColorId) {
        let l = *self.tree(c).link(n);
        if !l.attached || l.parent == NONE {
            return;
        }
        for m in [n.0, l.parent, l.prev, l.next] {
            self.touch_link(c, m);
        }
        let t = self.tree_mut(c);
        if l.prev == NONE {
            t.links[l.parent as usize].first_child = l.next;
        } else {
            t.links[l.prev as usize].next = l.next;
        }
        if l.next == NONE {
            t.links[l.parent as usize].last_child = l.prev;
        } else {
            t.links[l.next as usize].prev = l.prev;
        }
        let lm = t.link_mut(n);
        lm.parent = NONE;
        lm.prev = NONE;
        lm.next = NONE;
        lm.attached = false;
        t.codes[n.index()] = NO_CODE;
        t.node_count -= 1;
    }

    /// Drop color `c` from node `n`: detaches it from `T_c` and removes
    /// the color. Its color-`c` children are detached too (recursively
    /// the whole `c`-subtree leaves the tree but keeps other colors).
    pub fn remove_color(&mut self, n: McNodeId, c: ColorId) {
        // Detach the subtree bottom-up.
        let subtree: Vec<McNodeId> = self.descendants_or_self(n, c).collect();
        for &d in subtree.iter().rev() {
            self.detach(d, c);
            self.touch_node(d);
            self.nodes[d.index()].colors = self.nodes[d.index()].colors.without(c);
        }
    }

    // ----- color-aware accessors (§3.2) --------------------------------------

    /// `dm:parent($n, $c)`: parent in tree `c`, or `None` when the node
    /// lacks the color (color-incompatible) or is a root.
    #[inline]
    pub fn parent(&self, n: McNodeId, c: ColorId) -> Option<McNodeId> {
        if !self.colors(n).contains(c) {
            return None;
        }
        let p = self.tree(c).link(n).parent;
        (p != NONE).then_some(McNodeId(p))
    }

    /// `dm:children($n, $c)`: children in tree `c`, empty when
    /// color-incompatible.
    pub fn children(&self, n: McNodeId, c: ColorId) -> ChildIter<'_> {
        let first = if self.colors(n).contains(c) {
            self.tree(c).link(n).first_child
        } else {
            NONE
        };
        ChildIter {
            tree: self.tree(c),
            next: first,
        }
    }

    /// First color-`c` child named `name`.
    pub fn child_named(&self, n: McNodeId, name: &str, c: ColorId) -> Option<McNodeId> {
        let sym = self.names.get(name)?;
        self.children(n, c)
            .find(|&ch| self.node(ch).name == Some(sym))
    }

    /// Pre-order traversal of the color-`c` subtree, including `n`.
    /// Empty when color-incompatible.
    pub fn descendants_or_self(&self, n: McNodeId, c: ColorId) -> DescendIter<'_> {
        let start = if self.colors(n).contains(c) {
            Some(n)
        } else {
            None
        };
        DescendIter {
            tree: self.tree(c),
            root: n,
            next: start,
        }
    }

    /// Pre-order traversal excluding `n` itself.
    pub fn descendants(&self, n: McNodeId, c: ColorId) -> impl Iterator<Item = McNodeId> + '_ {
        self.descendants_or_self(n, c).skip(1)
    }

    /// Ancestors in tree `c`, nearest first, ending at the document.
    pub fn ancestors(&self, n: McNodeId, c: ColorId) -> impl Iterator<Item = McNodeId> + '_ {
        let mut cur = self.parent(n, c);
        std::iter::from_fn(move || {
            let r = cur?;
            cur = self.parent(r, c);
            Some(r)
        })
    }

    /// `dm:string-value($n, $c)`: concatenated content of the color-`c`
    /// subtree in local order; `None` when color-incompatible.
    pub fn string_value(&self, n: McNodeId, c: ColorId) -> Option<String> {
        if !self.colors(n).contains(c) {
            return None;
        }
        let mut out = String::new();
        for d in self.descendants_or_self(n, c) {
            if let Some(t) = &self.node(d).content {
                out.push_str(t);
            }
        }
        Some(out)
    }

    /// `dm:typed-value($n, $c)` as a number when it parses.
    pub fn typed_number(&self, n: McNodeId, c: ColorId) -> Option<f64> {
        self.string_value(n, c)?.trim().parse().ok()
    }

    // ----- interval codes & local order --------------------------------------

    /// (Re-)number tree `c` whole with gapped `(start, end, level)`
    /// codes in pre-order (the *local order* of §3.1): the document
    /// from 0 with [`CODE_STRIDE`].
    pub fn annotate(&mut self, c: ColorId) {
        if let Some(j) = &mut self.journal {
            if c.index() < j.colors() && !j.codes.contains_key(&c.0) {
                // The start-time codes: today's, except where a slot
                // was journaled with an older one.
                let mut codes = self.trees[c.index()].codes.clone();
                for (&(_, n), &(_, code)) in j.links.range((c.0, 0)..=(c.0, u32::MAX)) {
                    if let Some(slot) = codes.get_mut(n as usize) {
                        *slot = code;
                    }
                }
                j.codes.insert(c.0, codes);
            }
        }
        let len = self.nodes.len();
        let t = self.tree_mut(c);
        t.grow(len);
        t.codes.fill(NO_CODE);
        self.number(c, &[McNodeId::DOCUMENT], 0, CODE_STRIDE, 0);
    }

    /// Number `roots`, just appended as the last children of `parent`
    /// in tree `c`, with their color-`c` subtrees inside the gap from
    /// the previous sibling's end (or the parent's start) to the
    /// parent's end, so no other code changes. A fragment of k nodes
    /// takes the stride `gap / (2k + 1)`. Returns `false`, changing
    /// nothing, when that stride is 0: the caller renumbers with
    /// [`Self::annotate`]. The codes are journaled with the links the
    /// appends touched.
    pub(crate) fn number_fragment(
        &mut self,
        parent: McNodeId,
        roots: &[McNodeId],
        c: ColorId,
    ) -> bool {
        let Some(&first) = roots.first() else {
            return true;
        };
        let Some(pc) = self.code(parent, c) else {
            return false;
        };
        let prev = self.tree(c).link(first).prev;
        let lower = if prev == NONE {
            Some(pc.start)
        } else {
            self.code(McNodeId(prev), c).map(|p| p.end)
        };
        let Some(lower) = lower.filter(|&l| l < pc.end) else {
            return false;
        };
        let k: u64 = roots
            .iter()
            .map(|&r| self.descendants_or_self(r, c).count() as u64)
            .sum();
        let stride = u64::from(pc.end - lower) / (2 * k + 1);
        if stride == 0 {
            return false;
        }
        self.number(c, roots, lower, stride as u32, pc.level + 1);
        true
    }

    /// Number the color-`c` subtrees of `roots` in order by an Euler
    /// tour: a counter starts at `lower` and steps by `stride` at each
    /// node's entry (its start) and exit (its end); the roots get level
    /// `level`. Iterative, so arbitrarily deep trees are fine.
    fn number(&mut self, c: ColorId, roots: &[McNodeId], lower: u32, stride: u32, level: u16) {
        let t = self.tree_mut(c);
        let mut counter = lower;
        // (node, level, closing): children are pushed in reverse so the
        // leftmost pops first.
        let mut stack: Vec<(u32, u16, bool)> =
            roots.iter().rev().map(|r| (r.0, level, false)).collect();
        while let Some((n, level, closing)) = stack.pop() {
            counter += stride;
            let code = &mut t.codes[n as usize];
            if closing {
                code.end = counter;
                continue;
            }
            *code = IntervalCode {
                start: counter,
                end: counter,
                level,
            };
            stack.push((n, level, true));
            let kids = stack.len();
            let mut cur = t.links[n as usize].first_child;
            while cur != NONE {
                stack.push((cur, level + 1, false));
                cur = t.links[cur as usize].next;
            }
            stack[kids..].reverse();
        }
    }

    /// Interval code of `n` in tree `c`; `None` when `n` does not occur
    /// there or has not been numbered since it was appended.
    pub fn code(&self, n: McNodeId, c: ColorId) -> Option<IntervalCode> {
        let code = self.tree(c).codes[n.index()];
        (code.start != u32::MAX).then_some(code)
    }

    // ----- statistics ---------------------------------------------------------

    /// Per-color attached node count (including the document node).
    pub fn tree_size(&self, c: ColorId) -> u64 {
        self.tree(c).node_count
    }

    /// `(elements, attributes, content_records)` over the whole arena
    /// (each element counted once, regardless of colors).
    pub fn counts(&self) -> (u64, u64, u64) {
        let mut elements = 0;
        let mut attrs = 0;
        let mut contents = 0;
        for n in &self.nodes {
            if n.kind == McNodeKind::Element && !n.colors.is_empty() {
                elements += 1;
                attrs += n.attrs.len() as u64;
                if n.content.is_some() {
                    contents += 1;
                }
            }
        }
        (elements, attrs, contents)
    }

    /// Total structural records: Σ_c nodes attached in `T_c`
    /// (excluding the document roots). A node with k colors counts k
    /// times — exactly Figure 10's replication.
    pub fn structural_count(&self) -> u64 {
        self.trees.iter().map(|t| t.node_count - 1).sum()
    }

    /// Verify all per-tree doubly linked list invariants, color
    /// consistency, and code consistency: a detached node has no code,
    /// and a numbered node's parent is numbered and encloses it.
    pub fn check_invariants(&self) {
        for (ci, t) in self.trees.iter().enumerate() {
            let c = ColorId(ci as u8);
            let mut attached = 0u64;
            for (i, l) in t.links.iter().enumerate() {
                let n = McNodeId(i as u32);
                if !l.attached {
                    assert_eq!(t.codes[i], NO_CODE, "{n:?} detached in {c:?} with a code");
                    continue;
                }
                attached += 1;
                assert!(
                    self.colors(n).contains(c) || n == McNodeId::DOCUMENT,
                    "{n:?} attached in {c:?} without the color"
                );
                // Child list round-trip.
                let mut prev = NONE;
                let mut cur = l.first_child;
                while cur != NONE {
                    assert_eq!(t.links[cur as usize].prev, prev);
                    assert_eq!(t.links[cur as usize].parent, i as u32);
                    prev = cur;
                    cur = t.links[cur as usize].next;
                }
                assert_eq!(l.last_child, prev, "last_child mismatch for {n:?}");
            }
            assert_eq!(attached, t.node_count, "node_count mismatch in {c:?}");
            for n in self.descendants_or_self(McNodeId::DOCUMENT, c) {
                if let (Some(code), Some(p)) = (self.code(n, c), self.parent(n, c)) {
                    assert!(
                        self.code(p, c).is_some_and(|pc| pc.is_parent_of(&code)),
                        "parent code of {n:?} in {c:?} inconsistent"
                    );
                }
            }
        }
    }
}

/// Iterator over a node's children in one colored tree.
pub struct ChildIter<'a> {
    tree: &'a ColorTree,
    next: u32,
}

impl Iterator for ChildIter<'_> {
    type Item = McNodeId;
    fn next(&mut self) -> Option<McNodeId> {
        if self.next == NONE {
            return None;
        }
        let cur = self.next;
        self.next = self.tree.links[cur as usize].next;
        Some(McNodeId(cur))
    }
}

/// Pre-order iterator over a color-`c` subtree.
pub struct DescendIter<'a> {
    tree: &'a ColorTree,
    root: McNodeId,
    next: Option<McNodeId>,
}

impl Iterator for DescendIter<'_> {
    type Item = McNodeId;
    fn next(&mut self) -> Option<McNodeId> {
        let cur = self.next?;
        let l = &self.tree.links[cur.index()];
        self.next = if l.first_child != NONE {
            Some(McNodeId(l.first_child))
        } else {
            let mut up = cur;
            loop {
                if up == self.root {
                    break None;
                }
                let ul = &self.tree.links[up.index()];
                if ul.next != NONE {
                    break Some(McNodeId(ul.next));
                }
                if ul.parent == NONE {
                    break None;
                }
                up = McNodeId(ul.parent);
            }
        };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's Figure 2 skeleton: red movie-genre hierarchy,
    /// green movie-award hierarchy, movies in both.
    fn figure2() -> (MctDatabase, ColorId, ColorId, McNodeId, McNodeId) {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");

        let genre = db.new_element("movie-genre", red);
        db.append_child(McNodeId::DOCUMENT, genre, red);
        db.set_content(genre, "Comedy");

        let award = db.new_element("movie-award", green);
        db.append_child(McNodeId::DOCUMENT, award, green);
        db.set_content(award, "Oscar-1950");

        // A movie in both hierarchies: same identity, two colors.
        let movie = db.new_element("movie", red);
        db.append_child(genre, movie, red);
        db.add_node_color(movie, green);
        db.append_child(award, movie, green);

        let name = db.new_element("name", red);
        db.set_content(name, "All About Eve");
        db.append_child(movie, name, red);
        db.add_node_color(name, green);
        db.append_child(movie, name, green);

        (db, red, green, movie, name)
    }

    #[test]
    fn multicolored_node_has_two_parents() {
        let (db, red, green, movie, _) = figure2();
        db.check_invariants();
        let red_parent = db.parent(movie, red).unwrap();
        let green_parent = db.parent(movie, green).unwrap();
        assert_ne!(red_parent, green_parent);
        assert_eq!(db.name_str(red_parent), Some("movie-genre"));
        assert_eq!(db.name_str(green_parent), Some("movie-award"));
    }

    #[test]
    fn color_incompatible_accessors_return_empty() {
        let (mut db, red, green, _, _) = figure2();
        let blue = db.add_color("blue");
        let genre = db.child_named(McNodeId::DOCUMENT, "movie-genre", red).unwrap();
        assert_eq!(db.parent(genre, blue), None);
        assert_eq!(db.children(genre, blue).count(), 0);
        assert_eq!(db.string_value(genre, blue), None);
        assert_eq!(db.parent(genre, green), None, "genre is not green");
    }

    #[test]
    fn colors_accessor() {
        let (db, red, green, movie, _) = figure2();
        let cs = db.colors(movie);
        assert!(cs.contains(red) && cs.contains(green));
        assert_eq!(cs.len(), 2);
        assert_eq!(db.colors(McNodeId::DOCUMENT).len(), 2, "document has all colors");
    }

    #[test]
    fn string_value_is_per_color() {
        let (mut db, red, green, movie, _) = figure2();
        // Add a green-only votes child (like Figure 2).
        let votes = db.new_element("votes", green);
        db.set_content(votes, "11");
        db.append_child(movie, votes, green);
        assert_eq!(db.string_value(movie, red).unwrap(), "All About Eve");
        assert_eq!(db.string_value(movie, green).unwrap(), "All About Eve11");
        assert_eq!(db.typed_number(votes, green), Some(11.0));
    }

    #[test]
    fn node_stored_once() {
        let (db, ..) = figure2();
        // 4 elements + document despite the movie living in two trees.
        let (elements, _, contents) = db.counts();
        assert_eq!(elements, 4);
        assert_eq!(contents, 3);
        // Structural records: red tree has genre+movie+name, green has
        // award+movie+name => 6.
        assert_eq!(db.structural_count(), 6);
    }

    #[test]
    fn at_most_once_per_colored_tree() {
        let (mut db, red, _, movie, _) = figure2();
        let genre = db.parent(movie, red).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.append_child(genre, movie, red);
        }));
        assert!(r.is_err(), "double attach in one tree must panic");
    }

    #[test]
    fn append_requires_color() {
        let (mut db, red, green, _, name) = figure2();
        let loner = db.new_element("loner", red);
        let _ = green;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.append_child(name, loner, ColorId(1)); // green: loner lacks it
        }));
        assert!(r.is_err());
    }

    #[test]
    fn annotation_codes_are_consistent() {
        let (mut db, red, green, movie, name) = figure2();
        db.annotate(red);
        db.annotate(green);
        db.check_invariants();
        let mr = db.code(movie, red).unwrap();
        let nr = db.code(name, red).unwrap();
        assert!(mr.is_parent_of(&nr));
        let mg = db.code(movie, green).unwrap();
        let ng = db.code(name, green).unwrap();
        assert!(mg.is_parent_of(&ng));
        // Each tree's root hierarchy contains the movie in that tree.
        let genre = db.parent(movie, red).unwrap();
        let award = db.parent(movie, green).unwrap();
        assert!(db.code(genre, red).unwrap().is_parent_of(&mr));
        assert!(db.code(award, green).unwrap().is_parent_of(&mg));
    }

    #[test]
    fn local_order_is_per_color_preorder() {
        let (mut db, red, green, movie, name) = figure2();
        db.annotate(red);
        db.annotate(green);
        let red_order: Vec<_> = db.descendants_or_self(McNodeId::DOCUMENT, red).collect();
        let green_order: Vec<_> = db.descendants_or_self(McNodeId::DOCUMENT, green).collect();
        let genre = db.parent(movie, red).unwrap();
        let award = db.parent(movie, green).unwrap();
        assert_eq!(red_order, vec![McNodeId::DOCUMENT, genre, movie, name]);
        assert_eq!(green_order, vec![McNodeId::DOCUMENT, award, movie, name]);
    }

    #[test]
    fn detach_and_reattach_in_one_color() {
        let (mut db, red, green, movie, _) = figure2();
        let genre = db.parent(movie, red).unwrap();
        db.detach(movie, red);
        db.check_invariants();
        assert_eq!(db.parent(movie, red), None);
        assert!(db.colors(movie).contains(red), "detach keeps the color");
        assert!(
            db.parent(movie, green).is_some(),
            "green structure unaffected"
        );
        db.append_child(genre, movie, red);
        db.check_invariants();
        assert_eq!(db.parent(movie, red), Some(genre));
    }

    #[test]
    fn remove_color_drops_subtree_from_one_tree() {
        let (mut db, red, green, movie, name) = figure2();
        db.remove_color(movie, green);
        db.check_invariants();
        assert!(!db.colors(movie).contains(green));
        assert!(!db.colors(name).contains(green), "subtree loses color too");
        assert!(db.colors(movie).contains(red), "red identity survives");
        assert_eq!(db.parent(movie, red).map(|p| db.name_str(p).unwrap().to_string()),
            Some("movie-genre".into()));
        let award = db.child_named(McNodeId::DOCUMENT, "movie-award", green).unwrap();
        assert_eq!(db.children(award, green).count(), 0);
    }

    /// Every code of tree `c`, by node.
    fn codes(db: &MctDatabase, c: ColorId) -> Vec<Option<IntervalCode>> {
        (0..db.len() as u32).map(|i| db.code(McNodeId(i), c)).collect()
    }

    #[test]
    fn fragment_numbers_in_the_gap() {
        let (mut db, red, _, movie, name) = figure2();
        db.annotate(red);
        let before = codes(&db, red);
        // A two-node fragment appended under movie, after name.
        let scene = db.new_element("scene", red);
        let shot = db.new_element("shot", red);
        db.append_child(movie, scene, red);
        db.append_child(scene, shot, red);
        assert!(db.number_fragment(movie, &[scene], red), "the stride leaves room");
        let after = codes(&db, red);
        assert_eq!(after[..scene.index()], before[..scene.index()], "no renumbering");
        let (sc, sh) = (db.code(scene, red).unwrap(), db.code(shot, red).unwrap());
        assert!(db.code(movie, red).unwrap().is_parent_of(&sc));
        assert!(sc.is_parent_of(&sh));
        assert!(db.code(name, red).unwrap().end < sc.start, "after its previous sibling");
        db.check_invariants();
    }

    #[test]
    fn fragment_numbering_falls_back_when_the_gap_is_spent() {
        let (mut db, red, _, _, name) = figure2();
        db.annotate(red);
        // A fresh leaf's gap is one stride: three nodes fit, four don't.
        let chain = |db: &mut MctDatabase, k: usize| {
            let nodes: Vec<_> = (0..k).map(|i| db.new_element(&format!("f{i}"), red)).collect();
            db.append_child(name, nodes[0], red);
            for w in nodes.windows(2) {
                db.append_child(w[0], w[1], red);
            }
            nodes[0]
        };
        let three = chain(&mut db, 3);
        assert!(db.number_fragment(name, &[three], red));
        db.remove_color(three, red);
        let four = chain(&mut db, 4);
        let before = codes(&db, red);
        assert!(!db.number_fragment(name, &[four], red), "stride 8 / 9 is 0");
        assert_eq!(codes(&db, red), before, "a refused numbering changes nothing");
        db.annotate(red);
        db.check_invariants();
        // Leaves appended one by one spend the gap eventually.
        let movie = db.parent(name, red).unwrap();
        let mut fallbacks = 0;
        for i in 0..20 {
            let e = db.new_element(&format!("e{i}"), red);
            db.append_child(movie, e, red);
            if !db.number_fragment(movie, &[e], red) {
                fallbacks += 1;
                db.annotate(red);
            }
        }
        assert!(fallbacks > 0, "a bounded gap must eventually overflow");
        db.check_invariants();
    }

    #[test]
    fn remove_color_clears_only_the_removed_codes() {
        let (mut db, red, _, movie, name) = figure2();
        db.annotate(red);
        let before = codes(&db, red);
        db.remove_color(movie, red);
        db.check_invariants();
        let after = codes(&db, red);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i == movie.index() || i == name.index() {
                assert_eq!(*a, None, "n{i} left red");
            } else {
                assert_eq!(a, b, "n{i} keeps its code");
            }
        }
    }

    #[test]
    fn ancestors_walk() {
        let (db, red, _, movie, name) = figure2();
        let anc: Vec<_> = db.ancestors(name, red).collect();
        assert_eq!(anc.len(), 3); // movie, genre, document
        assert_eq!(anc[0], movie);
        assert_eq!(anc[2], McNodeId::DOCUMENT);
    }

    #[test]
    fn attrs_are_color_independent() {
        let (mut db, red, green, movie, _) = figure2();
        db.set_attr(movie, "id", "RG012");
        assert_eq!(db.attr(movie, "id"), Some("RG012"));
        // Same value regardless of which tree we came from.
        let via_red = db.parent(movie, red).map(|_| db.attr(movie, "id"));
        let via_green = db.parent(movie, green).map(|_| db.attr(movie, "id"));
        assert_eq!(via_red, via_green);
        db.set_attr(movie, "id", "RG999");
        assert_eq!(db.attr(movie, "id"), Some("RG999"));
    }

    /// Everything the journal covers, as one comparable value.
    fn state(db: &MctDatabase) -> String {
        let names: Vec<_> = db.names.iter().collect();
        let colors: Vec<_> = db.palette.iter().collect();
        format!("{names:?} {colors:?} {:?} {:?}", db.nodes, db.trees)
    }

    #[test]
    fn roll_back_restores_every_journaled_change() {
        let (mut db, red, green, movie, name) = figure2();
        db.annotate(red);
        db.annotate(green);
        db.start_journal();
        let before = state(&db);
        assert!(db.journal_is_clean());

        db.set_content(name, "Changed");
        db.set_attr(movie, "fresh-attr", "1");
        let extra = db.new_element("scene", red);
        db.append_child(movie, extra, red);
        assert!(db.number_fragment(movie, &[extra], red));
        let first = db.new_element("first", red);
        db.append_child(movie, first, red);
        db.annotate(red);
        db.remove_color(movie, green);
        db.add_node_color(extra, green);
        let blue = db.add_color("blue");
        let b = db.new_element("b", blue);
        db.append_child(McNodeId::DOCUMENT, b, blue);
        db.annotate(blue);
        db.new_element_uncolored("loose");
        assert!(!db.journal_is_clean());
        assert_ne!(state(&db), before);

        db.roll_back();
        assert_eq!(state(&db), before);
        assert!(db.journal.is_none());
        db.check_invariants();
        assert_eq!(db.color("blue"), None);
        assert_eq!(db.names.get("loose"), None);
    }

    #[test]
    fn deep_tree_annotation_is_iterative() {
        let mut db = MctDatabase::new();
        let c = db.add_color("black");
        let mut parent = McNodeId::DOCUMENT;
        for i in 0..5000 {
            let e = db.new_element(&format!("d{}", i % 7), c);
            db.append_child(parent, e, c);
            parent = e;
        }
        db.annotate(c); // must not overflow the stack
        let leaf_code = db.code(parent, c).unwrap();
        assert_eq!(leaf_code.level, 5000);
    }
}
