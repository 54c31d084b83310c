//! The MCXQuery interpreter.
//!
//! Navigational evaluation of parsed expressions against a
//! [`StoredDb`]. `mctd` serves every FLWOR and constructor with it,
//! updates bind their tuples with its binding loop, and `mctfuzz`
//! checks the planner against it, so it shares no code with the
//! planner or the operators but one read: a named `descendant` step
//! takes its nodes from the tag index through
//! [`StoredDb::descendants_named`], as the planner's chains do; every
//! other step walks the resident twin. Its cost rule: lookups are paid
//! once per query, work once per match, and nothing is allocated per
//! node. Each step resolves its `{color}` and name once per top-level
//! [`eval`] (a memo cleared when `createColor` grows the palette or the
//! interner); predicates, `where`, `and` and `or` evaluate to a `bool`;
//! a comparison of the context item, a variable or one `child` step
//! from them with a literal tests each node in place; scratch sequences
//! are pooled; variables live in a scope stack read by borrow. A
//! [`CancelToken`] ([`EvalContext::with_cancel`]) is checked once per
//! 256 tuples, step outputs or nodes compared.
//!
//! Semantics implemented from §4:
//!
//! * colored location steps — every step resolves its `{color}` (or
//!   inherits the context's default color) and navigates that tree;
//!   step results come back in the step color's local order;
//! * enclosed expressions **retain node identity** (§4.2);
//! * element constructors and `createCopy` build [`Built`] elements:
//!   a constructor's result is a query answer, not document state, so
//!   a query reads the store and never writes it;
//! * `createColor` is the one form that changes the store: it makes
//!   the built elements of a sequence stored nodes and materializes the
//!   sequence under that colored tree's document root; a duplicate is
//!   refused before the color or any built node is made, so a refused
//!   call changes nothing (earlier calls of the same query stand; `mctd`
//!   runs the query inside `StoredDb::with_txn`). It needs a context
//!   made by [`EvalContext::new`]; on one made by
//!   [`EvalContext::shared`] it is [`EvalError::ReadOnly`];
//! * attaching one node twice into the same colored tree raises the
//!   paper's *dynamic error* (the `dupl-problem` example).

use crate::ast::*;
use crate::exec::CancelToken;
use mct_core::{AttachError, ColorId, McNodeId, MctDatabase, Palette, StoredDb};
use mct_storage::{DiskManager, MemDisk};
use mct_xml::Sym;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An item in the XQuery data model sense. Nodes remember the color
/// of the step that located them (used by updates and ordering).
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// A stored node plus its provenance color.
    Node(McNodeId, Option<ColorId>),
    /// An element a constructor or `createCopy` built.
    Built(Arc<Built>),
    /// A string value.
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
}

/// An element an element constructor or `createCopy` built: a value of
/// the query, not part of the store (§4.2). It has no color, so every
/// colored axis from it is empty. Its identity is its allocation: `=`
/// holds between two built elements only when they are the same one,
/// and `createColor` makes one stored node of it however often it
/// occurs.
#[derive(Debug)]
pub struct Built {
    /// Element name.
    pub name: String,
    /// Text content.
    pub content: Option<String>,
    /// Attributes, in constructor order.
    pub attrs: Vec<(String, String)>,
    /// Stored nodes, which keep their identity, and nested built
    /// elements, in order.
    pub children: Vec<Item>,
}

impl Built {
    /// Attribute value by name (the last one set, as on a stored node).
    fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Identity, not structure: see [`Built`].
impl PartialEq for Built {
    fn eq(&self, other: &Built) -> bool {
        std::ptr::eq(self, other)
    }
}

/// A sequence of items — every MCXQuery value.
pub type Sequence = Vec<Item>;

/// Evaluation errors, including the paper's dynamic error for
/// duplicate nodes in a constructed colored tree.
#[derive(Debug)]
pub enum EvalError {
    /// Storage-layer failure.
    Storage(mct_storage::StorageError),
    /// Unknown variable reference.
    UnknownVar(String),
    /// Unknown color literal.
    UnknownColor(String),
    /// A step had no color and no default color exists.
    NoColor,
    /// The §4.2 dynamic error: a node would occur twice in one colored
    /// tree of a constructed result.
    DuplicateNode(McNodeId, String),
    /// `createColor` into a new color when the palette already holds
    /// [`Palette::CAPACITY`] colors.
    PaletteFull(String),
    /// `createColor` on a context that reads the store through a shared
    /// borrow ([`EvalContext::shared`]). The store is unchanged.
    ReadOnly,
    /// The context's [`CancelToken`] fired: its deadline passed or it
    /// was cancelled.
    Cancelled,
    /// Anything else (type errors, unsupported forms).
    Dynamic(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Storage(e) => write!(f, "storage error: {e}"),
            EvalError::UnknownVar(v) => write!(f, "unknown variable ${v}"),
            EvalError::UnknownColor(c) => write!(f, "unknown color {{{c}}}"),
            EvalError::NoColor => write!(f, "location step without a color specification"),
            EvalError::DuplicateNode(n, color) => write!(
                f,
                "dynamic error: node {n:?} occurs more than once in colored tree {{{color}}}"
            ),
            EvalError::PaletteFull(c) => write!(
                f,
                "cannot create color {{{c}}}: the palette holds {} colors already",
                Palette::CAPACITY
            ),
            EvalError::ReadOnly => {
                f.write_str("createColor changes the store, and this context only reads it")
            }
            EvalError::Cancelled => f.write_str("query cancelled: deadline exceeded"),
            EvalError::Dynamic(m) => write!(f, "dynamic error: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<mct_storage::StorageError> for EvalError {
    fn from(e: mct_storage::StorageError) -> Self {
        EvalError::Storage(e)
    }
}

impl From<AttachError> for EvalError {
    fn from(e: AttachError) -> Self {
        match e {
            AttachError::Duplicate(n, color) => EvalError::DuplicateNode(n, color),
            AttachError::ParentNotInColor(n, color) => EvalError::Dynamic(format!(
                "node {n:?} does not occur in colored tree {{{color}}}"
            )),
            AttachError::Storage(e) => EvalError::Storage(e),
        }
    }
}

/// Result alias.
pub type EvalResult<T> = Result<T, EvalError>;

/// How an [`EvalContext`] holds its store. Every read goes through the
/// shared side ([`Deref`]); only `createColor` needs `Exclusive`.
pub enum Store<'a, D: DiskManager> {
    /// Read through a shared borrow.
    Shared(&'a StoredDb<D>),
    /// Held exclusively, so `createColor` may change it.
    Exclusive(&'a mut StoredDb<D>),
}

impl<D: DiskManager> Deref for Store<'_, D> {
    type Target = StoredDb<D>;

    fn deref(&self) -> &StoredDb<D> {
        match self {
            Store::Shared(s) => s,
            Store::Exclusive(s) => s,
        }
    }
}

/// The stored nodes made of built elements, each made once: a built
/// element is one node however often it is attached (§4.2 identity).
/// `edges` holds the children of every node made, the fragment
/// [`StoredDb::attach`] walks.
#[derive(Default)]
pub(crate) struct Materializer {
    /// By address; the `Arc` keeps the address from being reused.
    made: HashMap<usize, (Arc<Built>, McNodeId)>,
    pub(crate) edges: HashMap<McNodeId, Vec<McNodeId>>,
}

impl Materializer {
    /// The stored node of a node item: a stored node is itself, a
    /// built element becomes a new element with no color yet
    /// ([`StoredDb::new_element`]), its children first. `None` for an
    /// atomic item.
    pub(crate) fn node<D: DiskManager>(
        &mut self,
        stored: &mut StoredDb<D>,
        item: &Item,
    ) -> Option<McNodeId> {
        match item {
            Item::Node(n, _) => Some(*n),
            Item::Built(b) => Some(self.make(stored, b)),
            _ => None,
        }
    }

    /// The stored node made of `b`, made now if it was not yet.
    pub(crate) fn make<D: DiskManager>(
        &mut self,
        stored: &mut StoredDb<D>,
        b: &Arc<Built>,
    ) -> McNodeId {
        let key = Arc::as_ptr(b) as usize;
        if let Some(&(_, n)) = self.made.get(&key) {
            return n;
        }
        let kids: Vec<McNodeId> = b
            .children
            .iter()
            .filter_map(|k| self.node(stored, k))
            .collect();
        let n = stored.new_element(&b.name, b.content.as_deref(), &b.attrs);
        if !kids.is_empty() {
            self.edges.insert(n, kids);
        }
        self.made.insert(key, (Arc::clone(b), n));
        n
    }
}

/// A step as one query resolves it, once and not once per context
/// node.
#[derive(Clone, Copy)]
enum Resolved {
    /// An attribute step: its name's symbol, `None` when the store
    /// never interned the name.
    Attr(Option<Sym>),
    /// A tree step: its color and node test.
    Tree(ColorId, Test),
}

/// A node test over symbols.
#[derive(Clone, Copy)]
enum Test {
    Any,
    Element,
    Name(Sym),
    /// A name the store never interned names no node.
    Never,
}

impl Test {
    fn matches(self, db: &MctDatabase, n: McNodeId) -> bool {
        match self {
            Test::Any => true,
            Test::Element => db.node(n).name.is_some(),
            Test::Name(s) => db.node(n).name == Some(s),
            Test::Never => false,
        }
    }
}

/// Evaluation context: the stored database, variable bindings, the
/// context item, and the per-query memo and scratch space.
pub struct EvalContext<'a, D: DiskManager = MemDisk> {
    /// The database queried and, by `createColor` alone, changed.
    pub stored: Store<'a, D>,
    /// Default color for steps without a `{color}` (plain XQuery over
    /// a single-colored database).
    pub default_color: Option<ColorId>,
    /// Variable bindings, innermost last. The first `bound` are live;
    /// the rest keep their buffers for the next binding.
    vars: Vec<(String, Sequence)>,
    bound: usize,
    context_item: Option<Item>,
    /// What `createColor` made of built elements.
    made: Materializer,
    /// The steps resolved in this top-level call, by address.
    steps: Vec<(usize, Resolved)>,
    /// Scratch sequences and node lists, reused.
    seqs: Vec<Sequence>,
    ids: Vec<Vec<McNodeId>>,
    cancel: Option<CancelToken>,
    /// Work done since the token was last checked.
    ticks: usize,
}

impl<'a, D: DiskManager> EvalContext<'a, D> {
    /// A context that may run `createColor`, the one form that changes
    /// the store.
    pub fn new(stored: &'a mut StoredDb<D>) -> Self {
        Self::over(Store::Exclusive(stored))
    }

    /// A context that reads the store through a shared borrow: every
    /// query but one calling `createColor`, which is
    /// [`EvalError::ReadOnly`].
    pub fn shared(stored: &'a StoredDb<D>) -> Self {
        Self::over(Store::Shared(stored))
    }

    fn over(stored: Store<'a, D>) -> Self {
        EvalContext {
            stored,
            default_color: None,
            vars: Vec::new(),
            bound: 0,
            context_item: None,
            made: Materializer::default(),
            steps: Vec::new(),
            seqs: Vec::new(),
            ids: Vec::new(),
            cancel: None,
            ticks: 0,
        }
    }

    /// Set the default color by name (for single-color XQuery).
    pub fn with_default_color(mut self, name: &str) -> EvalResult<Self> {
        let c = self
            .stored
            .db
            .color(name)
            .ok_or_else(|| EvalError::UnknownColor(name.to_string()))?;
        self.default_color = Some(c);
        Ok(self)
    }

    /// End evaluation with [`EvalError::Cancelled`] once `cancel`
    /// fires.
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Read a variable binding.
    pub fn var(&self, name: &str) -> Option<&Sequence> {
        self.var_slot(name).ok().map(|i| &self.vars[i].1)
    }

    fn var_slot(&self, name: &str) -> EvalResult<usize> {
        self.vars[..self.bound]
            .iter()
            .rposition(|(n, _)| n == name)
            .ok_or_else(|| EvalError::UnknownVar(name.to_string()))
    }

    /// A new innermost binding of `name`, empty.
    fn push_var(&mut self, name: &str) -> usize {
        if self.bound == self.vars.len() {
            self.vars.push(Default::default());
        }
        let (n, v) = &mut self.vars[self.bound];
        n.clear();
        n.push_str(name);
        v.clear();
        self.bound += 1;
        self.bound - 1
    }

    fn scratch(&mut self) -> Sequence {
        self.seqs.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut v: Sequence) {
        v.clear();
        self.seqs.push(v);
    }

    /// Counts `work` done and checks the token each time 256 more
    /// units have passed, so no node pays a clock read.
    fn tick(&mut self, work: usize) -> EvalResult<()> {
        self.ticks += work;
        if self.ticks < 256 {
            return Ok(());
        }
        self.ticks = 0;
        match &self.cancel {
            Some(t) if t.is_cancelled() => Err(EvalError::Cancelled),
            _ => Ok(()),
        }
    }

    /// The store for writing, with what `createColor` made so far;
    /// [`EvalError::ReadOnly`] on a shared context.
    fn exclusive(&mut self) -> EvalResult<(&mut StoredDb<D>, &mut Materializer)> {
        match &mut self.stored {
            Store::Exclusive(s) => Ok((&mut **s, &mut self.made)),
            Store::Shared(_) => Err(EvalError::ReadOnly),
        }
    }

    fn resolve_color(&self, spec: &Option<String>) -> EvalResult<ColorId> {
        match spec {
            Some(name) => self
                .stored
                .db
                .color(name)
                .ok_or_else(|| EvalError::UnknownColor(name.clone())),
            None => self.default_color.ok_or(EvalError::NoColor),
        }
    }

    /// `step`'s color and node test, looked up once per top-level call.
    fn resolve(&mut self, step: &Step) -> EvalResult<Resolved> {
        let key = step as *const Step as usize;
        if let Some(&(_, r)) = self.steps.iter().find(|(k, _)| *k == key) {
            return Ok(r);
        }
        let sym = match &step.test {
            NodeTest::Name(name) => self.stored.db.names.get(name),
            _ => None,
        };
        let r = match (&step.test, step.axis) {
            (NodeTest::Name(_), Axis::Attribute) => Resolved::Attr(sym),
            (_, Axis::Attribute) => {
                return Err(EvalError::Dynamic("attribute step needs a name".into()))
            }
            (test, _) => Resolved::Tree(
                self.resolve_color(&step.color)?,
                match test {
                    NodeTest::AnyNode => Test::Any,
                    NodeTest::AnyElement => Test::Element,
                    NodeTest::Name(_) => sym.map_or(Test::Never, Test::Name),
                },
            ),
        };
        self.steps.push((key, r));
        Ok(r)
    }
}

/// Evaluate a parsed expression. This is one top-level call: each of
/// its steps is resolved once, however many nodes it is applied to.
pub fn eval<D: DiskManager>(ctx: &mut EvalContext<'_, D>, e: &Expr) -> EvalResult<Sequence> {
    ctx.steps.clear();
    let bound = ctx.bound;
    let out = value(ctx, e);
    ctx.bound = bound;
    out
}

/// `e`'s value as a new sequence, within the current top-level call.
pub(crate) fn value<D: DiskManager>(ctx: &mut EvalContext<'_, D>, e: &Expr) -> EvalResult<Sequence> {
    let mut out = Vec::new();
    expr_into(ctx, e, &mut out)?;
    Ok(out)
}

/// Appends `e`'s value to `out`.
fn expr_into<D: DiskManager>(ctx: &mut EvalContext<'_, D>, e: &Expr, out: &mut Sequence) -> EvalResult<()> {
    match e {
        Expr::Lit(lit) => out.push(match lit.number() {
            Some(n) if !lit.is_str() => Item::Num(n),
            _ => Item::Str(lit.text().to_string()),
        }),
        Expr::Path(p) => path_into(ctx, p, out)?,
        Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) => out.push(Item::Bool(truth(ctx, e)?)),
        Expr::Call(name, args) => call_into(ctx, name, args, out)?,
        Expr::Flwor(f) => flwor_into(ctx, f, out)?,
        Expr::Ctor(c) => out.push(Item::Built(eval_ctor(ctx, c)?)),
        Expr::Sequence(items) => {
            for i in items {
                expr_into(ctx, i, out)?;
            }
        }
    }
    Ok(())
}

/// `f` of `e`'s value, computed in a pooled sequence.
fn with_value<D: DiskManager, T>(
    ctx: &mut EvalContext<'_, D>,
    e: &Expr,
    f: impl FnOnce(&EvalContext<'_, D>, &[Item]) -> T,
) -> EvalResult<T> {
    let mut v = ctx.scratch();
    expr_into(ctx, e, &mut v)?;
    let t = f(ctx, &v);
    ctx.recycle(v);
    Ok(t)
}

/// The atomized first item of `e`'s value, `""` for the empty
/// sequence; a literal's text is borrowed.
fn first_string<'e, D: DiskManager>(ctx: &mut EvalContext<'_, D>, e: &'e Expr) -> EvalResult<Cow<'e, str>> {
    if let Expr::Lit(lit) = e {
        return Ok(Cow::Borrowed(lit.text()));
    }
    with_value(ctx, e, |ctx, v| {
        Cow::Owned(v.first().map(|i| atomize(ctx, i)).unwrap_or_default())
    })
}

/// `e`'s effective boolean value; a comparison, `and` and `or` build
/// no sequence for it.
fn truth<D: DiskManager>(ctx: &mut EvalContext<'_, D>, e: &Expr) -> EvalResult<bool> {
    match e {
        Expr::Cmp(l, op, r) => compare(ctx, l, *op, r),
        Expr::And(l, r) => Ok(truth(ctx, l)? && truth(ctx, r)?),
        Expr::Or(l, r) => Ok(truth(ctx, l)? || truth(ctx, r)?),
        _ => with_value(ctx, e, |_, v| effective_boolean(v)),
    }
}

/// A general comparison. A literal's text and number were fixed by
/// the parser, so only the other side is atomized and parsed.
fn compare<D: DiskManager>(ctx: &mut EvalContext<'_, D>, l: &Expr, op: CmpOp, r: &Expr) -> EvalResult<bool> {
    if let (Expr::Path(p), Expr::Lit(lit)) = (l, r) {
        if let Some(hit) = compare_in_place(ctx, p, op, lit)? {
            return Ok(hit);
        }
    }
    let mut lv = ctx.scratch();
    expr_into(ctx, l, &mut lv)?;
    let hit = match r {
        Expr::Lit(lit) => lv.iter().any(|a| {
            op.holds_parsed(&atomize_in(&ctx.stored, a), lit.text(), lit.number())
        }),
        _ => with_value(ctx, r, |ctx, rv| general_compare(ctx, &lv, op, rv))?,
    };
    ctx.recycle(lv);
    Ok(hit)
}

/// [`compare`] of a path with a literal, testing each node where the
/// path reaches it and stopping at the first hit: no sequence is built.
/// `None` unless `p` starts at the context item or a variable and has
/// at most one `child` step, without predicates.
fn compare_in_place<D: DiskManager>(
    ctx: &mut EvalContext<'_, D>,
    p: &PathExpr,
    op: CmpOp,
    lit: &Literal,
) -> EvalResult<Option<bool>> {
    let step = match p.steps.as_slice() {
        [] => None,
        [s] if s.axis == Axis::Child && s.predicates.is_empty() => Some(s),
        _ => return Ok(None),
    };
    let var = match &p.start {
        PathStart::Var(v) => Some(ctx.var_slot(v)?),
        PathStart::Context => None,
        PathStart::Document(_) => return Ok(None),
    };
    let step = match step.map(|s| ctx.resolve(s)).transpose()? {
        Some(Resolved::Attr(_)) => return Ok(None),
        Some(Resolved::Tree(c, test)) => Some((c, test)),
        None => None,
    };
    let db = &ctx.stored.db;
    let mut tested = 0;
    let mut holds = |item: &Item| {
        tested += 1;
        op.holds_parsed(&atomize_in(&ctx.stored, item), lit.text(), lit.number())
    };
    let start = start_items(ctx, &p.start, var, &[]);
    let hit = match step {
        None => start.iter().any(&mut holds),
        Some((c, test)) => start.iter().any(|item| match *item {
            Item::Node(n, _) => db
                .children(n, c)
                .filter(|&k| test.matches(db, k))
                .any(|k| holds(&Item::Node(k, Some(c)))),
            _ => false,
        }),
    };
    ctx.tick(tested + 1)?;
    Ok(Some(hit))
}

// ---------------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------------

fn path_into<D: DiskManager>(ctx: &mut EvalContext<'_, D>, p: &PathExpr, out: &mut Sequence) -> EvalResult<()> {
    let doc = [Item::Node(McNodeId::DOCUMENT, None)];
    let var = match &p.start {
        PathStart::Var(v) => Some(ctx.var_slot(v)?),
        _ => None,
    };
    if p.steps.is_empty() {
        out.extend_from_slice(start_items(ctx, &p.start, var, &doc));
        return Ok(());
    }
    let mut input = ctx.scratch();
    for (i, step) in p.steps.iter().enumerate() {
        let r = ctx.resolve(step)?;
        let last = i + 1 == p.steps.len();
        let mut output = if last { std::mem::take(out) } else { ctx.scratch() };
        let mut nodes = ctx.ids.pop().unwrap_or_default();
        let from = if i == 0 { start_items(ctx, &p.start, var, &doc) } else { &input };
        let ordered = gather(&ctx.stored, step, r, from, &mut nodes, &mut output)?;
        ctx.tick(nodes.len() + 1)?;
        if let Resolved::Tree(c, _) = r {
            select(ctx, step, c, ordered, &mut nodes)?;
            output.extend(nodes.iter().map(|&n| Item::Node(n, Some(c))));
        }
        nodes.clear();
        ctx.ids.push(nodes);
        if last {
            *out = output;
        } else {
            let done = std::mem::replace(&mut input, output);
            ctx.recycle(done);
        }
    }
    ctx.recycle(input);
    Ok(())
}

/// Where a path starts, borrowed where it lives: a variable's items
/// (at `var`, its slot) are not copied.
fn start_items<'c, D: DiskManager>(
    ctx: &'c EvalContext<'_, D>,
    start: &PathStart,
    var: Option<usize>,
    doc: &'c [Item],
) -> &'c [Item] {
    match (start, var) {
        (PathStart::Var(_), Some(i)) => &ctx.vars[i].1,
        (PathStart::Context, _) => ctx.context_item.as_slice(),
        _ => doc,
    }
}

/// Appends what `step` reaches from `input` and passes its node test:
/// node ids to `nodes` for a tree step, attribute values to `out` for
/// an attribute step. Returns whether `nodes` is in the step color's
/// local order without duplicates already. A built element has no
/// color, so every colored axis from it is empty.
///
/// A named `descendant` step reads the tag index, inside the regions
/// of its input nodes ([`StoredDb::descendants_named`], the read the
/// planner's chains make); every other step walks the resident twin.
fn gather<D: DiskManager>(
    stored: &StoredDb<D>,
    step: &Step,
    r: Resolved,
    input: &[Item],
    nodes: &mut Vec<McNodeId>,
    out: &mut Sequence,
) -> EvalResult<bool> {
    let db = &stored.db;
    let (c, test) = match r {
        Resolved::Attr(sym) => {
            let NodeTest::Name(name) = &step.test else {
                return Ok(true);
            };
            for item in input {
                let value = match item {
                    Item::Node(n, _) => sym
                        .and_then(|s| db.node(*n).attrs.iter().find(|(k, _)| *k == s))
                        .map(|(_, v)| &**v),
                    Item::Built(b) => b.attr(name),
                    _ => None,
                };
                out.extend(value.map(|v| Item::Str(v.to_string())));
            }
            return Ok(true);
        }
        Resolved::Tree(_, Test::Never) => return Ok(true),
        Resolved::Tree(c, Test::Name(tag)) if step.axis == Axis::Descendant => {
            let from = input.iter().filter_map(|item| match *item {
                Item::Node(n, _) => Some(n),
                _ => None,
            });
            let found = stored.descendants_named(c, tag, from)?;
            nodes.extend(found.iter().map(|r| r.node));
            return Ok(true);
        }
        Resolved::Tree(c, test) => (c, test),
    };
    let keep = |n: &McNodeId| test.matches(db, *n);
    let in_c = |n: McNodeId| db.colors(n).contains(c) || n == McNodeId::DOCUMENT;
    let mut inputs = 0;
    for item in input {
        let Item::Node(n, _) = *item else { continue };
        inputs += 1;
        match step.axis {
            Axis::Child => nodes.extend(db.children(n, c).filter(keep)),
            Axis::Descendant => nodes.extend(db.descendants(n, c).filter(keep)),
            Axis::DescendantOrSelf => nodes.extend(db.descendants_or_self(n, c).filter(keep)),
            Axis::Parent => nodes.extend(db.parent(n, c).filter(keep)),
            Axis::Ancestor => nodes.extend(db.ancestors(n, c).filter(keep)),
            Axis::AncestorOrSelf => {
                nodes.extend(Some(n).filter(|&n| in_c(n)).filter(keep));
                nodes.extend(db.ancestors(n, c).filter(keep));
            }
            Axis::SelfAxis => nodes.extend(Some(n).filter(|&n| in_c(n)).filter(keep)),
            // Attribute steps resolve to `Resolved::Attr`; one that still
            // carries this axis here must surface as a dynamic error
            // rather than a crash.
            Axis::Attribute => {
                return Err(EvalError::Dynamic(
                    "attribute axis reached tree navigation".into(),
                ))
            }
        }
    }
    // From one node, these axes yield distinct nodes in that order
    // already.
    Ok(inputs <= 1
        && matches!(
            step.axis,
            Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::SelfAxis | Axis::Parent
        ))
}

/// Puts a tree step's nodes in its color's local order without
/// duplicates (path semantics) unless they are `ordered` already, then
/// keeps those its predicates pass.
fn select<D: DiskManager>(
    ctx: &mut EvalContext<'_, D>,
    step: &Step,
    c: ColorId,
    ordered: bool,
    nodes: &mut Vec<McNodeId>,
) -> EvalResult<()> {
    if !ordered {
        let db = &ctx.stored.db;
        nodes.sort_by_key(|&n| db.code(n, c).map(|cd| cd.start).unwrap_or(0));
        nodes.dedup();
    }
    // A predicate evaluating to a single number is a POSITION test
    // (XPath: `movie[2]` = the second movie), applied against the
    // sequence surviving the previous predicates.
    for pred in &step.predicates {
        let mut kept = 0;
        for pos in 0..nodes.len() {
            let n = nodes[pos];
            let saved = ctx.context_item.replace(Item::Node(n, Some(c)));
            let keep = match pred {
                Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) => truth(ctx, pred),
                _ => with_value(ctx, pred, |_, v| match v {
                    [Item::Num(want)] => (pos + 1) as f64 == *want,
                    _ => effective_boolean(v),
                }),
            };
            ctx.context_item = saved;
            if keep? {
                nodes[kept] = n;
                kept += 1;
            }
        }
        nodes.truncate(kept);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Atomization & comparison
// ---------------------------------------------------------------------------

/// Atomize an item to a string (nodes use their string value in their
/// provenance color, falling back to direct content; a built element
/// has no color, so its content or nothing).
pub fn atomize<D: DiskManager>(ctx: &EvalContext<'_, D>, item: &Item) -> String {
    atomize_in(&ctx.stored, item).into_owned()
}

/// [`atomize`], borrowing what it can: a string item and a node's own
/// content are not copied.
fn atomize_in<'s, D: DiskManager>(stored: &'s StoredDb<D>, item: &'s Item) -> Cow<'s, str> {
    match item {
        Item::Str(s) => Cow::Borrowed(s),
        Item::Num(n) => Cow::Owned(format_num(*n)),
        Item::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
        Item::Built(b) => Cow::Borrowed(b.content.as_deref().unwrap_or("")),
        Item::Node(n, c) => {
            let db = &stored.db;
            // In this data model an element's text is a single content
            // record (see mct-core's physical modeling note), so a node
            // with direct content atomizes to exactly that — its
            // children are separate elements, not text fragments.
            if let Some(content) = db.content(*n) {
                return Cow::Borrowed(content);
            }
            // Content-less elements atomize to their subtree text in
            // the provenance color (classic string-value), falling
            // back to the node's other colors.
            Cow::Owned(
                c.iter()
                    .copied()
                    .chain(db.colors(*n).iter())
                    .find_map(|c| db.string_value(*n, c))
                    .unwrap_or_default(),
            )
        }
    }
}

/// A number's text as [`atomize`] gives it (integral values without a
/// fraction).
pub(crate) fn format_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// XPath general comparison: existential over both sequences, each
/// pair of atomized values compared by [`CmpOp::holds`].
pub fn general_compare<D: DiskManager>(ctx: &EvalContext<'_, D>, l: &[Item], op: CmpOp, r: &[Item]) -> bool {
    l.iter().any(|a| {
        r.iter().any(|b| match same_node(a, b) {
            // Two nodes compare by identity — the comparison the
            // paper's Q3 `{red}descendant::movie[. = $m]` relies on
            // (a multi-colored node is the *same* node in every tree).
            Some(same) => match op {
                CmpOp::Eq => same,
                CmpOp::Ne => !same,
                _ => false,
            },
            None => op.holds(&atomize_in(&ctx.stored, a), &atomize_in(&ctx.stored, b)),
        })
    })
}

/// Whether two node items are one node; `None` unless both are nodes.
fn same_node(a: &Item, b: &Item) -> Option<bool> {
    match (a, b) {
        (Item::Node(x, _), Item::Node(y, _)) => Some(x == y),
        (Item::Built(x), Item::Built(y)) => Some(Arc::ptr_eq(x, y)),
        (Item::Node(..), Item::Built(_)) | (Item::Built(_), Item::Node(..)) => Some(false),
        _ => None,
    }
}

/// XPath effective boolean value.
pub fn effective_boolean(seq: &[Item]) -> bool {
    match seq.first() {
        None => false,
        Some(Item::Bool(b)) if seq.len() == 1 => *b,
        Some(Item::Num(n)) if seq.len() == 1 => *n != 0.0,
        Some(Item::Str(s)) if seq.len() == 1 => !s.is_empty(),
        Some(_) => true,
    }
}

// ---------------------------------------------------------------------------
// Functions
// ---------------------------------------------------------------------------

fn call_into<D: DiskManager>(ctx: &mut EvalContext<'_, D>, name: &str, args: &[Expr], out: &mut Sequence) -> EvalResult<()> {
    let item = match name {
        "contains" | "starts-with" => {
            expect_args(name, args, 2)?;
            let mut hay = ctx.scratch();
            expr_into(ctx, &args[0], &mut hay)?;
            let needle = first_string(ctx, &args[1])?;
            let hit = hay.iter().any(|h| {
                let h = atomize_in(&ctx.stored, h);
                if name == "contains" {
                    h.contains(&*needle)
                } else {
                    h.starts_with(&*needle)
                }
            });
            ctx.recycle(hay);
            Item::Bool(hit)
        }
        "count" => {
            expect_args(name, args, 1)?;
            Item::Num(with_value(ctx, &args[0], |_, v| v.len())? as f64)
        }
        "empty" => {
            expect_args(name, args, 1)?;
            Item::Bool(with_value(ctx, &args[0], |_, v| v.is_empty())?)
        }
        "not" => {
            expect_args(name, args, 1)?;
            Item::Bool(!truth(ctx, &args[0])?)
        }
        "string" => {
            expect_args(name, args, 1)?;
            Item::Str(first_string(ctx, &args[0])?.into_owned())
        }
        "number" => {
            expect_args(name, args, 1)?;
            Item::Num(with_value(ctx, &args[0], |ctx, v| {
                v.first()
                    .and_then(|i| as_number(&atomize_in(&ctx.stored, i)))
                    .unwrap_or(f64::NAN)
            })?)
        }
        "string-length" => {
            expect_args(name, args, 1)?;
            let len = with_value(ctx, &args[0], |ctx, v| {
                v.first()
                    .map(|i| atomize_in(&ctx.stored, i).chars().count())
                    .unwrap_or(0)
            })?;
            Item::Num(len as f64)
        }
        "concat" => {
            let mut s = String::new();
            for a in args {
                with_value(ctx, a, |ctx, v| {
                    for i in v {
                        s.push_str(&atomize_in(&ctx.stored, i));
                    }
                })?;
            }
            Item::Str(s)
        }
        "sum" | "avg" | "min" | "max" => {
            expect_args(name, args, 1)?;
            let nums: Vec<f64> = with_value(ctx, &args[0], |ctx, v| {
                v.iter()
                    .filter_map(|i| as_number(&atomize_in(&ctx.stored, i)))
                    .collect()
            })?;
            if nums.is_empty() {
                // The empty sequence for avg/min/max of nothing.
                if name == "sum" {
                    out.push(Item::Num(0.0));
                }
                return Ok(());
            }
            Item::Num(match name {
                "sum" => nums.iter().sum(),
                "avg" => nums.iter().sum::<f64>() / nums.len() as f64,
                "min" => nums.iter().copied().fold(f64::INFINITY, f64::min),
                _ => nums.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            })
        }
        "distinct-values" => {
            expect_args(name, args, 1)?;
            return with_value(ctx, &args[0], |ctx, v| {
                let mut seen = HashSet::new();
                for i in v {
                    let s = atomize(ctx, i);
                    if seen.insert(s.clone()) {
                        out.push(Item::Str(s));
                    }
                }
            });
        }
        "createCopy" => {
            expect_args(name, args, 1)?;
            return with_value(ctx, &args[0], |ctx, v| {
                for item in v {
                    out.push(deep_copy(&ctx.stored, item)?);
                }
                Ok(())
            })?;
        }
        "createColor" => {
            expect_args(name, args, 2)?;
            // Refused before anything is evaluated: a shared context
            // changes nothing.
            ctx.exclusive()?;
            let color_name = color_literal(ctx, &args[0])?;
            let palette = &ctx.stored.db.palette;
            if palette.get(&color_name).is_none() && palette.len() >= Palette::CAPACITY {
                return Err(EvalError::PaletteFull(color_name));
            }
            let v = value(ctx, &args[1])?;
            // The palette or the interner may grow: steps resolve afresh.
            ctx.steps.clear();
            let (stored, made) = ctx.exclusive()?;
            let roots = fragment_roots(stored, made, &v, &color_name)?;
            let c = stored.add_color(&color_name)?;
            // Built elements become stored nodes.
            out.extend(v.into_iter().map(|item| match item {
                Item::Built(b) => Item::Node(made.make(stored, &b), None),
                other => other,
            }));
            let roots: Vec<McNodeId> = roots
                .into_iter()
                .map(|k| k.unwrap_or_else(|addr| made.made[&addr].1))
                .collect();
            stored.attach(McNodeId::DOCUMENT, &roots, &made.edges, c)?;
            return Ok(());
        }
        other => return Err(EvalError::Dynamic(format!("unknown function {other}()"))),
    };
    out.push(item);
    Ok(())
}

/// A node of a `createColor` fragment before it is made: a stored node
/// (a built element made earlier is one), or the address of a built
/// element not made yet.
type FragNode = Result<McNodeId, usize>;

/// The nodes `createColor` attaches under the document node: each item
/// not in color `color` yet, unless another item's constructed content
/// holds it, in order. Each goes under the document node, the root
/// every colored tree shares (Definition 3.2).
///
/// The fragment is checked as [`StoredDb::attach`] checks it, but
/// before the color or any built element is made, so a refused call
/// changes nothing: [`EvalError::DuplicateNode`] when a node is reached
/// twice or is in the color already, [`EvalError::Dynamic`] when a
/// built element, which has no node yet, is reached twice.
fn fragment_roots<D: DiskManager>(
    stored: &StoredDb<D>,
    made: &Materializer,
    items: &[Item],
    color: &str,
) -> EvalResult<Vec<FragNode>> {
    let db = &stored.db;
    let c = db.palette.get(color);
    let node = |item: &Item| match item {
        Item::Node(n, _) => Some(Ok(*n)),
        Item::Built(b) => {
            let addr = Arc::as_ptr(b) as usize;
            Some(made.made.get(&addr).map_or(Err(addr), |&(_, n)| Ok(n)))
        }
        _ => None,
    };
    // The children of each built element not made yet, and its name.
    let mut fresh: HashMap<usize, (&str, Vec<FragNode>)> = HashMap::new();
    let mut stack: Vec<&Item> = items.iter().collect();
    while let Some(item) = stack.pop() {
        if let (Item::Built(b), Some(Err(addr))) = (item, node(item)) {
            if let Entry::Vacant(e) = fresh.entry(addr) {
                e.insert((&b.name, b.children.iter().filter_map(node).collect()));
                stack.extend(&b.children);
            }
        }
    }
    let children = |n: FragNode, into: &mut Vec<FragNode>| match n {
        Ok(n) => into.extend(made.edges.get(&n).into_iter().flatten().map(|&k| Ok(k))),
        Err(addr) => into.extend_from_slice(&fresh[&addr].1),
    };
    let in_c = |n: McNodeId| c.is_some_and(|c| db.parent(n, c).is_some());
    let mut seen = HashSet::new();
    let mut roots: Vec<FragNode> = items
        .iter()
        .filter_map(node)
        .filter(|&n| n.map_or(true, |n| n != McNodeId::DOCUMENT && !in_c(n)))
        .filter(|&n| seen.insert(n))
        .collect();
    let mut held = HashSet::new();
    let mut stack = Vec::new();
    for &r in &roots {
        children(r, &mut stack);
    }
    while let Some(n) = stack.pop() {
        if held.insert(n) {
            children(n, &mut stack);
        }
    }
    roots.retain(|n| !held.contains(n));
    // Attach's own walk: the document node and every node of `c` are
    // in `c` already.
    let mut seen = HashSet::new();
    let mut stack = roots.clone();
    while let Some(n) = stack.pop() {
        if n.is_ok_and(|n| n == McNodeId::DOCUMENT || in_c(n)) || !seen.insert(n) {
            return Err(match n {
                Ok(n) => EvalError::DuplicateNode(n, color.to_string()),
                Err(addr) => EvalError::Dynamic(format!(
                    "constructed element <{}> occurs more than once in colored tree {{{color}}}",
                    fresh[&addr].0
                )),
            });
        }
        children(n, &mut stack);
    }
    Ok(roots)
}

fn expect_args(name: &str, args: &[Expr], n: usize) -> EvalResult<()> {
    if args.len() == n {
        Ok(())
    } else {
        Err(EvalError::Dynamic(format!(
            "{name}() expects {n} argument(s), got {}",
            args.len()
        )))
    }
}

/// `createColor`'s first argument: a quoted string, or a bare name the
/// parser read as a relative one-step path (the paper writes
/// `createColor(black, ...)`).
fn color_literal<D: DiskManager>(ctx: &mut EvalContext<'_, D>, e: &Expr) -> EvalResult<String> {
    match e {
        Expr::Lit(lit) => Ok(lit.text().to_string()),
        Expr::Path(p)
            if p.start == PathStart::Context
                && p.steps.len() == 1
                && p.steps[0].axis == Axis::Child
                && p.steps[0].predicates.is_empty() =>
        {
            if let NodeTest::Name(n) = &p.steps[0].test {
                Ok(n.clone())
            } else {
                Err(EvalError::Dynamic("bad color literal".into()))
            }
        }
        _ => with_value(ctx, e, |ctx, v| v.first().map(|i| atomize(ctx, i)))?
            .ok_or_else(|| EvalError::Dynamic("empty color literal".into())),
    }
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

fn eval_ctor<D: DiskManager>(ctx: &mut EvalContext<'_, D>, ctor: &Constructor) -> EvalResult<Arc<Built>> {
    let mut text = String::new();
    let mut children = Vec::new();
    for item in &ctor.children {
        match item {
            ConstructorItem::Text(t) => text.push_str(t),
            ConstructorItem::Element(inner) => {
                children.push(Item::Built(eval_ctor(ctx, inner)?));
            }
            ConstructorItem::Enclosed(e) => {
                // Identity-preserving: node items become children with
                // their existing identity (§4.2); atomic items become
                // text content.
                for it in value(ctx, e)? {
                    match it {
                        Item::Node(..) | Item::Built(_) => children.push(it),
                        other => text.push_str(&atomize_in(&ctx.stored, &other)),
                    }
                }
            }
        }
    }
    Ok(Arc::new(Built {
        name: ctor.name.clone(),
        content: (!text.is_empty()).then_some(text),
        attrs: ctor.attrs.clone(),
        children,
    }))
}

/// `createCopy` of one item: a node becomes a new built element with
/// its name, content and attributes and copies of its children — a
/// built element's, or a stored node's in its provenance color (none
/// without one). Atomic items stay as they are.
fn deep_copy<D: DiskManager>(stored: &StoredDb<D>, item: &Item) -> EvalResult<Item> {
    let built = match item {
        Item::Built(b) => Built {
            name: b.name.clone(),
            content: b.content.clone(),
            attrs: b.attrs.clone(),
            children: b
                .children
                .iter()
                .map(|k| deep_copy(stored, k))
                .collect::<EvalResult<_>>()?,
        },
        Item::Node(n, color) => {
            let db = &stored.db;
            let name = db
                .name_str(*n)
                .ok_or_else(|| EvalError::Dynamic("createCopy of a non-element".into()))?
                .to_string();
            let node = db.node(*n);
            let attrs = node
                .attrs
                .iter()
                .map(|(s, v)| (db.names.resolve(*s).to_string(), v.to_string()))
                .collect();
            let children = match *color {
                Some(c) => db
                    .children(*n, c)
                    .map(|k| deep_copy(stored, &Item::Node(k, Some(c))))
                    .collect::<EvalResult<_>>()?,
                None => Vec::new(),
            };
            Built {
                name,
                content: node.content.as_deref().map(str::to_string),
                attrs,
                children,
            }
        }
        atomic => return Ok(atomic.clone()),
    };
    Ok(Item::Built(Arc::new(built)))
}

// ---------------------------------------------------------------------------
// FLWOR
// ---------------------------------------------------------------------------

fn flwor_into<D: DiskManager>(ctx: &mut EvalContext<'_, D>, f: &Flwor, out: &mut Sequence) -> EvalResult<()> {
    let where_ = f.where_.as_deref();
    if f.order_by.is_empty() {
        return bind_tuples(ctx, &f.clauses, where_, &mut |ctx| expr_into(ctx, &f.ret, out));
    }
    // Each tuple's keys and the range of its items in `items`.
    let mut rows: Vec<(Vec<String>, std::ops::Range<usize>)> = Vec::new();
    let mut items = Vec::new();
    bind_tuples(ctx, &f.clauses, where_, &mut |ctx| {
        let keys = f
            .order_by
            .iter()
            .map(|(k, _)| first_string(ctx, k).map(Cow::into_owned))
            .collect::<EvalResult<_>>()?;
        let from = items.len();
        expr_into(ctx, &f.ret, &mut items)?;
        rows.push((keys, from..items.len()));
        Ok(())
    })?;
    rows.sort_by(|(ka, _), (kb, _)| {
        for ((a, b), (_, ascending)) in ka.iter().zip(kb).zip(&f.order_by) {
            // A total order, which the sort relies on: the empty key
            // first, then numbers by value (total_cmp orders NaN,
            // since "NaN" parses as f64), then other strings.
            let ord = match (as_number(a), as_number(b)) {
                (Some(na), Some(nb)) => na.total_cmp(&nb),
                (na, nb) => (!a.is_empty(), na.is_none(), a)
                    .cmp(&(!b.is_empty(), nb.is_none(), b)),
            };
            if ord != std::cmp::Ordering::Equal {
                return if *ascending { ord } else { ord.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    });
    for (_, range) in rows {
        out.extend(items[range].iter_mut().map(|i| std::mem::replace(i, Item::Bool(false))));
    }
    Ok(())
}

/// The one binding loop, of FLWOR expressions and update statements:
/// binds each tuple of `clauses` in turn, keeps it when `where_` holds,
/// and runs `body` on it. A `for` variable's slot is overwritten per
/// item, not made anew, and the token is checked once per 256 items.
pub(crate) fn bind_tuples<'a, D: DiskManager, F>(
    ctx: &mut EvalContext<'a, D>,
    clauses: &[FlworClause],
    where_: Option<&Expr>,
    body: &mut F,
) -> EvalResult<()>
where
    F: FnMut(&mut EvalContext<'a, D>) -> EvalResult<()>,
{
    let Some((clause, rest)) = clauses.split_first() else {
        if let Some(w) = where_ {
            if !truth(ctx, w)? {
                return Ok(());
            }
        }
        return body(ctx);
    };
    // The source is evaluated before the variable is bound, so that it
    // still sees an outer binding of the same name.
    let mut items = ctx.scratch();
    match clause {
        FlworClause::For(var, src) => {
            expr_into(ctx, src, &mut items)?;
            let slot = ctx.push_var(var);
            for item in items.drain(..) {
                ctx.tick(1)?;
                let bound = &mut ctx.vars[slot].1;
                bound.clear();
                bound.push(item);
                bind_tuples(ctx, rest, where_, body)?;
            }
        }
        FlworClause::Let(var, src) => {
            expr_into(ctx, src, &mut items)?;
            let slot = ctx.push_var(var);
            std::mem::swap(&mut ctx.vars[slot].1, &mut items);
            bind_tuples(ctx, rest, where_, body)?;
        }
    }
    // An error leaves its bindings behind; `eval` drops them.
    ctx.bound -= 1;
    ctx.recycle(items);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_update};
    use mct_core::{McNodeId, MctDatabase, StoredDb};

    /// The Figure 2 movie database (genre/award/actor hierarchies).
    fn movie_db() -> StoredDb {
        StoredDb::build(movie_mct(), 8 * 1024 * 1024).unwrap()
    }

    fn movie_mct() -> MctDatabase {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");
        let blue = db.add_color("blue");

        // Red: movie-genre hierarchy (Comedy with sub-genre Slapstick).
        let comedy = db.new_element("movie-genre", red);
        db.append_child(McNodeId::DOCUMENT, comedy, red);
        let cname = db.new_element("name", red);
        db.set_content(cname, "Comedy");
        db.append_child(comedy, cname, red);

        // Green: award hierarchy.
        let award = db.new_element("movie-award", green);
        db.append_child(McNodeId::DOCUMENT, award, green);
        let aname = db.new_element("name", green);
        db.set_content(aname, "Oscar-1950");
        db.append_child(award, aname, green);

        // Blue: actors.
        let actor = db.new_element("actor", blue);
        db.append_child(McNodeId::DOCUMENT, actor, blue);
        let actname = db.new_element("name", blue);
        db.set_content(actname, "Bette Davis");
        db.append_child(actor, actname, blue);

        // Movies: "All About Eve" (red+green, role by Bette), "Evil Fun"
        // (red only), "Other" (red+green).
        let m1 = db.new_element("movie", red);
        db.append_child(comedy, m1, red);
        db.add_node_color(m1, green);
        db.append_child(award, m1, green);
        let m1n = db.new_element("name", red);
        db.set_content(m1n, "All About Eve");
        db.append_child(m1, m1n, red);
        db.add_node_color(m1n, green);
        db.append_child(m1, m1n, green);
        let votes = db.new_element("votes", green);
        db.set_content(votes, "11");
        db.append_child(m1, votes, green);
        let role = db.new_element("movie-role", red);
        db.append_child(m1, role, red);
        db.add_node_color(role, blue);
        db.append_child(actor, role, blue);
        let rname = db.new_element("name", red);
        db.set_content(rname, "Margo");
        db.append_child(role, rname, red);

        let m2 = db.new_element("movie", red);
        db.append_child(comedy, m2, red);
        let m2n = db.new_element("name", red);
        db.set_content(m2n, "Evil Fun");
        db.append_child(m2, m2n, red);

        let m3 = db.new_element("movie", red);
        db.append_child(comedy, m3, red);
        db.add_node_color(m3, green);
        db.append_child(award, m3, green);
        let m3n = db.new_element("name", red);
        db.set_content(m3n, "Other Story");
        db.append_child(m3, m3n, red);
        db.add_node_color(m3n, green);
        db.append_child(m3, m3n, green);
        let votes3 = db.new_element("votes", green);
        db.set_content(votes3, "7");
        db.append_child(m3, votes3, green);
        db
    }

    fn run(s: &mut StoredDb, q: &str) -> Sequence {
        let e = parse_query(q).unwrap();
        let mut ctx = EvalContext::new(s);
        eval(&mut ctx, &e).unwrap()
    }

    fn strings(s: &mut StoredDb, q: &str) -> Vec<String> {
        let e = parse_query(q).unwrap();
        let mut ctx = EvalContext::new(s);
        let v = eval(&mut ctx, &e).unwrap();
        let ctx2 = EvalContext::new(s);
        v.iter().map(|i| atomize(&ctx2, i)).collect()
    }

    #[test]
    fn q1_comedy_movies_named_eve() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"for $m in document("mdb.xml")/{red}descendant::movie-genre[{red}child::name = "Comedy"]/
                    {red}descendant::movie[contains({red}child::name, "Eve")]
               return $m/{red}child::name"#,
        );
        assert_eq!(out, vec!["All About Eve"]);
    }

    #[test]
    fn q2_adds_green_membership_condition() {
        let mut s = movie_db();
        // Paper Q2: comedy + Oscar-nominated + name contains Eve.
        let out = strings(
            &mut s,
            r#"for $m in document("mdb.xml")/{red}descendant::movie-genre[{red}child::name = "Comedy"]/
                    {red}descendant::movie[contains({red}child::name, "Eve")],
                $m2 in document("mdb.xml")/{green}descendant::movie-award
                    [contains({green}child::name, "Oscar")]/{green}descendant::movie
               where $m = $m2
               return $m/{red}child::name"#,
        );
        // `$m = $m2` compares node identity: the movie is the SAME
        // node in the red and green trees.
        assert_eq!(out, vec!["All About Eve"]);
    }

    #[test]
    fn q4_multicolor_single_path() {
        let mut s = movie_db();
        // Movies with votes > 10 → their roles (red) → actors (blue).
        let out = strings(
            &mut s,
            r#"for $a in document("mdb.xml")/{green}descendant::movie-award
                    [contains({green}child::name, "Oscar")]/{green}descendant::movie
                    [{green}child::votes > 10]/{red}child::movie-role/{blue}parent::actor
               return $a/{blue}child::name"#,
        );
        assert_eq!(out, vec!["Bette Davis"]);
    }

    #[test]
    fn parent_axis_with_color() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"document("m")/{blue}descendant::movie-role/{red}parent::movie/{red}child::name"#,
        );
        assert_eq!(out, vec!["All About Eve"]);
    }

    #[test]
    fn color_incompatibility_empties_step() {
        let mut s = movie_db();
        let out = run(
            &mut s,
            r#"document("m")/{blue}descendant::movie-genre"#,
        );
        assert!(out.is_empty(), "genre nodes are not blue");
    }

    #[test]
    fn votes_comparison_numeric() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"for $m in document("m")/{green}descendant::movie[{green}child::votes > 10]
               return $m/{green}child::name"#,
        );
        assert_eq!(out, vec!["All About Eve"]);
    }

    #[test]
    fn constructor_retains_identity() {
        let mut s = movie_db();
        let e = parse_query(
            r#"for $m in document("m")/{green}descendant::movie
               return createColor("black", <m-name> { $m/{green}child::name } </m-name>)"#,
        )
        .unwrap();
        let mut ctx = EvalContext::new(&mut s);
        let out = eval(&mut ctx, &e).unwrap();
        assert_eq!(out.len(), 2);
        let black = s.db.color("black").unwrap();
        for item in &out {
            let Item::Node(n, _) = item else {
                unreachable!("query returns nodes")
            };
            assert_eq!(s.db.name_str(*n), Some("m-name"));
            // Its black child is the ORIGINAL name node (identity kept).
            let kids: Vec<_> = s.db.children(*n, black).collect();
            assert_eq!(kids.len(), 1);
            let red = s.db.color("red").unwrap();
            assert!(
                s.db.colors(kids[0]).contains(red),
                "child is the original (red) node, not a copy"
            );
        }
    }

    #[test]
    fn create_copy_breaks_identity() {
        let mut s = movie_db();
        let e = parse_query(
            r#"for $m in document("m")/{green}descendant::movie
               return createColor("black", <m-name> { createCopy($m/{green}child::name) } </m-name>)"#,
        )
        .unwrap();
        let mut ctx = EvalContext::new(&mut s);
        let out = eval(&mut ctx, &e).unwrap();
        let black = s.db.color("black").unwrap();
        let red = s.db.color("red").unwrap();
        for item in &out {
            let Item::Node(n, _) = item else {
                unreachable!("query returns nodes")
            };
            let kids: Vec<_> = s.db.children(*n, black).collect();
            assert_eq!(kids.len(), 1);
            assert!(
                !s.db.colors(kids[0]).contains(red),
                "copy must be a fresh node"
            );
        }
    }

    /// On a shared context, `createColor` is the typed `ReadOnly`
    /// error, refused before anything changes.
    #[test]
    fn create_color_on_a_shared_context_is_read_only() {
        let s = movie_db();
        let before = (s.db.len(), s.generation(), s.snapshot_catalog());
        let e = parse_query(
            r#"createColor("black", <m>{ document("m")/{green}descendant::movie }</m>)"#,
        )
        .unwrap();
        let err = eval(&mut EvalContext::shared(&s), &e).unwrap_err();
        assert!(matches!(err, EvalError::ReadOnly), "{err}");
        assert!((s.db.len(), s.generation(), s.snapshot_catalog()) == before);
        assert!(s.db.color("black").is_none());
    }

    /// A constructor on a shared context builds a value: stored
    /// children keep their identity, the element has its attributes and
    /// content but no color, and it equals only itself.
    #[test]
    fn constructors_build_values_on_a_shared_context() {
        let s = movie_db();
        let len = s.db.len();
        let mut ctx = EvalContext::shared(&s);
        let q = r#"document("m")/{green}descendant::movie/{green}child::name"#;
        let names = eval(&mut ctx, &parse_query(q).unwrap()).unwrap();
        let e = parse_query(
            r#"for $m in document("m")/{green}descendant::movie
               let $r := <r k="v">{ $m/{green}child::name } { 7 }</r>
               return ($r, $r/@k, count($r/{green}child::node()),
                       $r = $r, $r = <r/>, createCopy($r))"#,
        )
        .unwrap();
        let out = eval(&mut ctx, &e).unwrap();
        assert_eq!(out.len(), 12, "{out:?}");
        let Item::Built(r) = &out[0] else { panic!("{:?}", out[0]) };
        assert_eq!((r.name.as_str(), r.content.as_deref()), ("r", Some("7")));
        assert_eq!(r.children, vec![names[0].clone()], "the child is the stored name node");
        assert_eq!(out[1], Item::Str("v".into()));
        assert_eq!(out[2], Item::Num(0.0), "a built element has no color");
        assert_eq!(out[3..5], [Item::Bool(true), Item::Bool(false)]);
        let Item::Built(copy) = &out[5] else { panic!("{:?}", out[5]) };
        assert!(out[5] != out[0], "a copy is a new element");
        let Item::Built(name_copy) = &copy.children[0] else { panic!("{copy:?}") };
        assert_eq!(name_copy.name, "name");
        assert_eq!(name_copy.content.as_deref(), Some("All About Eve"));
        assert_eq!(s.db.len(), len, "reads write no node");
    }

    #[test]
    fn duplicate_node_raises_dynamic_error() {
        let mut s = movie_db();
        // The paper's dupl-problem constructor.
        let e = parse_query(
            r#"for $m in document("m")/{green}descendant::movie[{green}child::votes > 10]
               return createColor("black", <dupl-problem>
                   <m1> { $m/{green}child::name } </m1>
                   <m2> { $m/{green}child::name } </m2>
               </dupl-problem>)"#,
        )
        .unwrap();
        let before = (s.db.len(), s.db.palette.len(), s.snapshot_catalog());
        let mut ctx = EvalContext::new(&mut s);
        let err = eval(&mut ctx, &e).unwrap_err();
        assert!(matches!(err, EvalError::DuplicateNode(..)), "{err}");
        // Refused before the color or any built node was made.
        assert!((s.db.len(), s.db.palette.len(), s.snapshot_catalog()) == before);
        assert!(s.db.color("black").is_none());
    }

    /// `createColor` refuses a node already in the color and a built
    /// element reached twice, and changes nothing; a call before the
    /// refused one stands.
    #[test]
    fn a_refused_create_color_changes_nothing() {
        let mut s = movie_db();
        let before = (s.db.len(), s.db.palette.len(), s.snapshot_catalog());
        for q in [
            r#"createColor("red", <x>{ document("m")/{red}descendant::movie[1] }</x>)"#,
            r#"let $b := <b/> return createColor("black", <x>{ $b }{ $b }</x>)"#,
            r#"let $b := <b/> return createColor("black", (<x>{ $b }</x>, <y>{ $b }</y>))"#,
        ] {
            let e = err(&mut s, q);
            assert!(matches!(e, EvalError::DuplicateNode(..) | EvalError::Dynamic(_)), "{q}: {e}");
            assert!((s.db.len(), s.db.palette.len(), s.snapshot_catalog()) == before, "{q}");
        }
        let q = r#"for $i in (1, 2) return createColor("black", <x>{ document("m")/{blue}child::actor }</x>)"#;
        assert!(matches!(err(&mut s, q), EvalError::DuplicateNode(..)));
        let black = s.db.color("black").expect("the first iteration stands");
        assert_eq!(s.db.children(McNodeId::DOCUMENT, black).count(), 1);
        assert!(s.check().unwrap().is_ok());
    }

    #[test]
    fn q5_restructuring_group_by_votes() {
        let mut s = movie_db();
        // Figure 3 Q5 (votes ascending; result per Figure 7).
        let e = parse_query(
            r#"createColor("black", <byvotes> {
                 for $v in distinct-values(document("m")/{green}descendant::votes)
                 order by $v
                 return
                   <award-byvotes> {
                     for $m in document("m")/{green}descendant::movie[{green}child::votes = $v]
                     return $m
                   } <votes> { $v } </votes>
                   </award-byvotes>
               } </byvotes>)"#,
        )
        .unwrap();
        let mut ctx = EvalContext::new(&mut s);
        let out = eval(&mut ctx, &e).unwrap();
        assert_eq!(out.len(), 1);
        let Item::Node(byvotes, _) = out[0] else {
            unreachable!("constructor returns a node")
        };
        let black = s.db.color("black").unwrap();
        let groups: Vec<_> = s.db.children(byvotes, black).collect();
        assert_eq!(groups.len(), 2, "votes 7 and 11");
        // Each group: movie (reused identity!) + new votes node.
        let g0: Vec<_> = s.db.children(groups[0], black).collect();
        assert_eq!(g0.len(), 2);
        let green = s.db.color("green").unwrap();
        assert!(s.db.colors(g0[0]).contains(green), "movie identity reused");
        // Movies now have three colors (red, green, black) per §4.3.
        assert_eq!(s.db.colors(g0[0]).len(), 3);
        let votes_el = g0[1];
        assert_eq!(s.db.name_str(votes_el), Some("votes"));
        assert_eq!(s.db.content(votes_el), Some("7"), "ascending order");
    }

    #[test]
    fn order_by_descending() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"for $v in distinct-values(document("m")/{green}descendant::votes)
               order by $v descending
               return $v"#,
        );
        assert_eq!(out, vec!["11", "7"]);
    }

    /// Descending order reverses the comparison of the raw keys: a
    /// prefix sorts after its extensions, and numbers keep their full
    /// precision.
    #[test]
    fn order_by_descending_reverses_raw_keys() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"for $x in ("ab", "abc", "b") order by $x descending return $x"#,
        );
        assert_eq!(out, vec!["b", "abc", "ab"]);
        let out = strings(
            &mut s,
            r#"for $x in (0.0000001, 0.0000002, 3) order by $x descending return $x"#,
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], "3");
        assert!(as_number(&out[1]) > as_number(&out[2]), "{out:?}");
    }

    /// Keys that mix numbers and other strings sort by a total order
    /// (the sort panics on one that is not): the empty key first, then
    /// numbers by value, then strings.
    #[test]
    fn order_by_mixed_keys_is_a_total_order() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"for $x in ("b", "10", "", "9", "a") order by $x return $x"#,
        );
        assert_eq!(out, vec!["", "9", "10", "a", "b"]);
        // Numbers and digit-led strings: "2" < "10" < "1a" < "2" under
        // a comparator that mixes numeric and string order.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let keys: Vec<String> = (0..400)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let suffix = if x & 1 == 0 { "" } else { "a" };
                format!(r#""{}{suffix}""#, (x >> 8) % 101)
            })
            .collect();
        let q = format!("for $x in ({}) order by $x return $x", keys.join(", "));
        assert_eq!(strings(&mut s, &q).len(), 400);
    }

    #[test]
    fn let_and_count() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"let $m := document("m")/{red}descendant::movie
               return count($m)"#,
        );
        assert_eq!(out, vec!["3"]);
    }

    #[test]
    fn attribute_step() {
        // Give the first red movie an attribute, then query it.
        let mut db = movie_mct();
        let red = db.color("red").unwrap();
        let first = db
            .descendants(McNodeId::DOCUMENT, red)
            .find(|&n| db.name_str(n) == Some("movie"))
            .unwrap();
        db.set_attr(first, "rating", "PG");
        let mut s = StoredDb::build(db, 8 * 1024 * 1024).unwrap();
        let out = strings(
            &mut s,
            r#"document("m")/{red}descendant::movie/@rating"#,
        );
        assert_eq!(out, vec!["PG"]);
    }

    #[test]
    fn unknown_color_is_an_error() {
        let mut s = movie_db();
        let e = parse_query(r#"document("m")/{chartreuse}descendant::movie"#).unwrap();
        let mut ctx = EvalContext::new(&mut s);
        assert!(matches!(
            eval(&mut ctx, &e),
            Err(EvalError::UnknownColor(_))
        ));
    }

    #[test]
    fn default_color_inherited_when_unspecified() {
        let mut s = movie_db();
        let e = parse_query(r#"document("m")/descendant::movie"#).unwrap();
        let mut ctx = EvalContext::new(&mut s).with_default_color("red").unwrap();
        let out = eval(&mut ctx, &e).unwrap();
        assert_eq!(out.len(), 3);
        // Without a default color, the same query errors.
        let mut ctx2 = EvalContext::new(&mut s);
        assert!(matches!(eval(&mut ctx2, &e), Err(EvalError::NoColor)));
    }

    #[test]
    fn positional_predicates() {
        let mut s = movie_db();
        // The second red movie.
        let out = strings(
            &mut s,
            r#"document("m")/{red}descendant::movie[2]/{red}child::name"#,
        );
        assert_eq!(out, vec!["Evil Fun"]);
        // Position after a filtering predicate.
        let out = strings(
            &mut s,
            r#"document("m")/{green}descendant::movie[{green}child::votes > 0][1]/{green}child::name"#,
        );
        assert_eq!(out, vec!["All About Eve"]);
    }

    #[test]
    fn ancestor_or_self_axis() {
        let mut s = movie_db();
        let out = run(
            &mut s,
            r#"document("m")/{red}descendant::movie-role/{red}ancestor-or-self::movie-role"#,
        );
        assert_eq!(out.len(), 1);
        let out2 = run(
            &mut s,
            r#"document("m")/{red}descendant::movie-role/{red}ancestor-or-self::node()"#,
        );
        // role + movie + genre + document.
        assert_eq!(out2.len(), 4);
    }

    #[test]
    fn aggregate_functions() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"sum(document("m")/{green}descendant::votes)"#,
        );
        assert_eq!(out, vec!["18"]); // 11 + 7
        let out = strings(
            &mut s,
            r#"max(document("m")/{green}descendant::votes)"#,
        );
        assert_eq!(out, vec!["11"]);
        let out = strings(
            &mut s,
            r#"avg(document("m")/{green}descendant::votes)"#,
        );
        assert_eq!(out, vec!["9"]);
        let out = strings(&mut s, r#"min(document("m")/{green}descendant::votes)"#);
        assert_eq!(out, vec!["7"]);
    }

    #[test]
    fn string_functions() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"for $m in document("m")/{red}descendant::movie[starts-with({red}child::name, "All")]
               return string-length($m/{red}child::name)"#,
        );
        assert_eq!(out, vec!["13"]); // "All About Eve"
        let out = strings(&mut s, r#"concat("a", "b", 3)"#);
        assert_eq!(out, vec!["ab3"]);
    }

    #[test]
    fn update_replace_value() {
        let mut s = movie_db();
        let u = parse_update(
            r#"for $m in document("m")/{green}descendant::movie
               where $m/{green}child::votes = 7
               update $m {
                   replace value of $m/{green}child::votes with "8"
               }"#,
        )
        .unwrap();
        let n = crate::update::execute_update(&mut s, &u).unwrap();
        assert_eq!(n, 1);
        let out = strings(
            &mut s,
            r#"document("m")/{green}descendant::movie/{green}child::votes"#,
        );
        assert!(out.contains(&"8".to_string()));
        assert!(!out.contains(&"7".to_string()));
    }

    fn err(s: &mut StoredDb, q: &str) -> EvalError {
        eval(&mut EvalContext::new(s), &parse_query(q).unwrap()).unwrap_err()
    }

    /// An inner `for` shadows an outer binding of the same name, which
    /// is visible again after it; a `let` may rebind a name from its
    /// own old value; a binding does not outlive its FLWOR.
    #[test]
    fn bindings_shadow_and_end_with_their_flwor() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"for $x in ("1", "2") return (for $x in ("a") return $x, $x)"#,
        );
        assert_eq!(out, vec!["a", "1", "a", "2"]);
        let out = strings(&mut s, r#"let $x := "a" let $x := concat($x, "b") return $x"#);
        assert_eq!(out, vec!["ab"]);
        let e = err(&mut s, r#"(for $x in ("1") return $x, $x)"#);
        assert!(matches!(&e, EvalError::UnknownVar(v) if v == "x"), "{e}");
        let e = err(&mut s, r#"for $x in ("1") return $y"#);
        assert!(matches!(&e, EvalError::UnknownVar(v) if v == "y"), "{e}");
    }

    /// A predicate may read the variable its path starts from.
    #[test]
    fn a_predicate_reads_the_variable_its_path_starts_from() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"for $x in document("m")/{red}descendant::movie
               return $x/{red}child::name[. = $x/{red}child::name]"#,
        );
        assert_eq!(out, vec!["All About Eve", "Evil Fun", "Other Story"]);
    }

    /// Literal comparisons: numbers compare as numbers when both sides
    /// are numbers, as strings otherwise; NaN equals nothing.
    #[test]
    fn literal_comparisons_follow_the_one_rule() {
        let mut s = movie_db();
        let count = |s: &mut StoredDb, pred: &str| {
            strings(s, &format!(r#"count(document("m")/{{green}}descendant::votes[{pred}])"#))
        };
        for (pred, want) in [
            (". = 7", "1"),
            (r#". = "7""#, "1"),
            (r#". = "07""#, "1"),
            (r#". = "7x""#, "0"),
            (r#". > "2""#, "2"),
            // "2x" is no number, so "11" > "2x" fails as strings.
            (r#". > "2x""#, "1"),
            (r#". = "NaN""#, "0"),
            (r#". != "NaN""#, "2"),
            (". != 7", "1"),
        ] {
            assert_eq!(count(&mut s, pred), vec![want], "[{pred}]");
        }
    }

    /// A position after a boolean predicate counts the survivors; a
    /// number computed from a path is a position too.
    #[test]
    fn positions_after_booleans_and_from_paths() {
        let mut s = movie_db();
        let out = strings(
            &mut s,
            r#"document("m")/{red}descendant::movie[{red}child::name != "Evil Fun"][2]/{red}child::name"#,
        );
        assert_eq!(out, vec!["Other Story"]);
        let out = strings(
            &mut s,
            r#"document("m")/{red}descendant::movie[count({red}child::name)]/{red}child::name"#,
        );
        assert_eq!(out, vec!["All About Eve"]);
    }

    /// A step evaluated before `createColor` interned its name sees the
    /// new node afterwards, in the same query; so does a step in a new
    /// color.
    #[test]
    fn steps_resolve_afresh_after_create_color() {
        let mut s = movie_db();
        let out = run(
            &mut s,
            r#"for $i in ("1", "2")
               return (count(document("m")/{red}descendant::fresh), createColor("red", <fresh/>))"#,
        );
        assert_eq!((out.len(), &out[0], &out[2]), (4, &Item::Num(0.0), &Item::Num(1.0)));
        let out = run(
            &mut s,
            r#"(createColor("white", <x/>), count(document("m")/{white}descendant::x))"#,
        );
        assert_eq!(out.last(), Some(&Item::Num(1.0)));
    }

    /// A step from a built element gives the empty sequence.
    #[test]
    fn a_step_from_a_built_element_is_empty() {
        let mut s = movie_db();
        let out = run(&mut s, r#"let $b := <a><name/></a> return $b/{red}descendant::name"#);
        assert!(out.is_empty(), "{out:?}");
    }

    /// A comparison of a short path with a literal is tested in place;
    /// it answers as the same comparison with a sequence on the right,
    /// which builds the left side's sequence.
    #[test]
    fn in_place_comparisons_answer_as_sequences_do() {
        let mut db = movie_mct();
        let red = db.color("red").unwrap();
        let root = db.new_element("nums", red);
        db.append_child(McNodeId::DOCUMENT, root, red);
        for v in ["7", " 07", "seven", "NaN"] {
            let n = db.new_element("n", red);
            db.set_content(n, v);
            db.append_child(root, n, red);
        }
        let mut s = StoredDb::build(db, 8 * 1024 * 1024).unwrap();
        let movies = r#"document("m")/{red}descendant::movie"#;
        let nums = r#"document("m")/{red}child::nums"#;
        let with_x = r#"let $x := (<b>7</b>, "x", 3) where $x"#;
        // (text before the literal, the literal, text after it, rows)
        for (before, lit, after, want) in [
            // A content-less child compares by its string-value.
            (format!("{movies}[{{red}}child::movie-role ="), r#""Margo""#, "]", 1),
            (format!("{movies}[{{green}}child::votes ="), "7", "]", 1),
            (format!("{movies}[{{green}}child::votes >"), r#""10""#, "]", 1),
            (format!("{movies}[{{green}}child::votes !="), "7", "]", 1),
            (format!("{movies}[{{green}}child::votes ="), r#""NaN""#, "]", 0),
            // Several same-named children: any one decides.
            (format!("{nums}[{{red}}child::n ="), "7", "]", 1),
            (format!("{nums}[{{red}}child::n ="), r#""seven""#, "]", 1),
            (format!("{nums}[{{red}}child::n !="), "7", "]", 1),
            // "seven" is no number, so it is greater than "100" as a
            // string.
            (format!("{nums}[{{red}}child::n >"), "100", "]", 1),
            (format!("{nums}[{{red}}child::n <"), "0", "]", 0),
            (format!("{nums}[{{red}}child::n ="), r#""NaN""#, "]", 0),
            (format!("{nums}[{{red}}child::n !="), r#""NaN""#, "]", 1),
            (format!("{nums}/{{red}}child::n[. ="), "7", "]", 2),
            (format!("{nums}/{{red}}child::n[. <"), r#""8""#, "]", 2),
            (format!("{nums}/{{red}}child::n[. ="), r#""NaN""#, "]", 0),
            // A variable holding built and atomic items, with no step
            // and with a step a built element gives nothing for.
            (format!("{with_x} ="), "7", " return 1", 1),
            (format!("{with_x} ="), r#""x""#, " return 1", 1),
            (format!("{with_x} ="), "3", " return 1", 1),
            (format!("{with_x} ="), r#""y""#, " return 1", 0),
            (format!("{with_x}/{{red}}child::b ="), "7", " return 1", 0),
            (r#"let $x := document("m")/{red}child::none where $x !="#.into(), "1", " return 1", 0),
            (format!("for $m in {movies} where $m/{{red}}child::name ="), r#""Evil Fun""#, " return $m", 1),
        ] {
            let q = format!("{before} {lit}{after}");
            assert_eq!(run(&mut s, &q).len(), want, "{q}");
            // The same with a two-item sequence on the right.
            let q = format!("{before} ({lit}, {lit}){after}");
            assert_eq!(run(&mut s, &q).len(), want, "{q}");
        }
    }

    /// A comparison tested in place still checks the token: one
    /// candidate with many children is cancelled in its predicate, and
    /// in a `where` clause.
    #[test]
    fn an_expired_token_cancels_an_in_place_comparison() {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let root = db.new_element("root", red);
        db.append_child(McNodeId::DOCUMENT, root, red);
        for i in 0..1_000 {
            let a = db.new_element("a", red);
            db.set_content(a, &i.to_string());
            db.append_child(root, a, red);
        }
        let s = StoredDb::build(db, 8 * 1024 * 1024).unwrap();
        for q in [
            r#"document("d")/{red}child::root[{red}child::a = "none"]"#,
            r#"for $r in document("d")/{red}child::root where $r/{red}child::a = "none" return $r"#,
        ] {
            let e = parse_query(q).unwrap();
            let run = |token| eval(&mut EvalContext::shared(&s).with_cancel(token), &e);
            assert!(run(None).unwrap().is_empty(), "{q}");
            let token = CancelToken::new();
            token.cancel();
            let e = run(Some(token)).unwrap_err();
            assert!(matches!(e, EvalError::Cancelled), "{q}: {e}");
        }
    }

    /// An expired token ends evaluation with `Cancelled`.
    #[test]
    fn an_expired_token_cancels_a_cross_product() {
        let s = movie_db();
        let all = r#"document("m")/{red}descendant::node()"#;
        let q = format!("for $a in {all}, $b in {all}, $c in {all}, $d in {all} return $a");
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = EvalContext::shared(&s).with_cancel(Some(token));
        let e = eval(&mut ctx, &parse_query(&q).unwrap()).unwrap_err();
        assert!(matches!(e, EvalError::Cancelled), "{e}");
    }
}
