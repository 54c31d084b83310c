//! The MCXQuery interpreter.
//!
//! Navigational evaluation of parsed expressions against a
//! [`StoredDb`]. This is the *specification-level* evaluator used by
//! examples and tests; the benchmark queries run hand-picked physical
//! plans from [`crate::ops`] instead, exactly as the paper did ("we
//! manually specified the query plan").
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
//!   refused before anything is attached, but after the color and the
//!   built nodes are made, so a caller that wants a refusal to leave
//!   no trace runs the query inside `StoredDb::with_txn`, as `mctd`
//!   does. It needs a context made by [`EvalContext::new`]; on one
//!   made by [`EvalContext::shared`] it is [`EvalError::ReadOnly`];
//! * attaching one node twice into the same colored tree raises the
//!   paper's *dynamic error* (the `dupl-problem` example).

use crate::ast::*;
use mct_core::{AttachError, ColorId, McNodeId, Palette, StoredDb};
use mct_storage::{DiskManager, MemDisk};
use std::borrow::Cow;
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

/// Evaluation context: the stored database, variable bindings and the
/// context item.
pub struct EvalContext<'a, D: DiskManager = MemDisk> {
    /// The database queried and, by `createColor` alone, changed.
    pub stored: Store<'a, D>,
    /// Default color for steps without a `{color}` (plain XQuery over
    /// a single-colored database).
    pub default_color: Option<ColorId>,
    vars: HashMap<String, Sequence>,
    context_item: Option<Item>,
    /// What `createColor` made of built elements.
    made: Materializer,
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
            vars: HashMap::new(),
            context_item: None,
            made: Materializer::default(),
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

    /// Bind a variable.
    pub fn bind(&mut self, name: &str, value: Sequence) {
        self.vars.insert(name.to_string(), value);
    }

    /// Read a variable binding.
    pub fn var(&self, name: &str) -> Option<&Sequence> {
        self.vars.get(name)
    }

    /// Set a variable, returning the previous binding.
    pub fn set_var(&mut self, name: &str, value: Sequence) -> Option<Sequence> {
        self.vars.insert(name.to_string(), value)
    }

    /// Restore a previous binding from [`Self::set_var`].
    pub fn restore_var(&mut self, name: &str, old: Option<Sequence>) {
        match old {
            Some(v) => {
                self.vars.insert(name.to_string(), v);
            }
            None => {
                self.vars.remove(name);
            }
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
}

/// Evaluate a parsed expression.
pub fn eval<D: DiskManager>(ctx: &mut EvalContext<'_, D>, e: &Expr) -> EvalResult<Sequence> {
    match e {
        Expr::Lit(Literal::Str(s)) => Ok(vec![Item::Str(s.clone())]),
        Expr::Lit(Literal::Num(n)) => Ok(vec![Item::Num(*n)]),
        Expr::Path(p) => eval_path(ctx, p),
        Expr::Cmp(l, op, r) => {
            let lv = eval(ctx, l)?;
            let hit = match &**r {
                // A literal compares as its text; no sequence is built.
                Expr::Lit(lit) => {
                    let text = match lit {
                        Literal::Str(s) => Cow::Borrowed(s.as_str()),
                        Literal::Num(n) => Cow::Owned(format_num(*n)),
                    };
                    lv.iter().any(|a| op.holds(&atomize_in(&ctx.stored, a), &text))
                }
                _ => {
                    let rv = eval(ctx, r)?;
                    general_compare(ctx, &lv, *op, &rv)
                }
            };
            Ok(vec![Item::Bool(hit)])
        }
        Expr::And(l, r) => {
            let lv = eval(ctx, l)?;
            if !effective_boolean(&lv) {
                return Ok(vec![Item::Bool(false)]);
            }
            let rv = eval(ctx, r)?;
            Ok(vec![Item::Bool(effective_boolean(&rv))])
        }
        Expr::Or(l, r) => {
            let lv = eval(ctx, l)?;
            if effective_boolean(&lv) {
                return Ok(vec![Item::Bool(true)]);
            }
            let rv = eval(ctx, r)?;
            Ok(vec![Item::Bool(effective_boolean(&rv))])
        }
        Expr::Call(name, args) => eval_call(ctx, name, args),
        Expr::Flwor(f) => eval_flwor(ctx, f),
        Expr::Ctor(c) => Ok(vec![Item::Built(eval_ctor(ctx, c)?)]),
        Expr::Sequence(items) => {
            let mut out = Vec::new();
            for i in items {
                out.extend(eval(ctx, i)?);
            }
            Ok(out)
        }
    }
}

// ---------------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------------

fn eval_path<D: DiskManager>(ctx: &mut EvalContext<'_, D>, p: &PathExpr) -> EvalResult<Sequence> {
    match &p.start {
        PathStart::Document(_) => {
            eval_steps(ctx, &[Item::Node(McNodeId::DOCUMENT, None)], &p.steps)
        }
        PathStart::Var(v) => {
            let start = ctx
                .vars
                .get(v)
                .cloned()
                .ok_or_else(|| EvalError::UnknownVar(v.clone()))?;
            eval_steps(ctx, &start, &p.steps)
        }
        PathStart::Context => {
            let item = ctx.context_item.clone();
            eval_steps(ctx, item.as_slice(), &p.steps)
        }
    }
}

fn eval_steps<D: DiskManager>(
    ctx: &mut EvalContext<'_, D>,
    start: &[Item],
    steps: &[Step],
) -> EvalResult<Sequence> {
    let Some((first, rest)) = steps.split_first() else {
        return Ok(start.to_vec());
    };
    let mut current = eval_step(ctx, start, first)?;
    for step in rest {
        current = eval_step(ctx, &current, step)?;
    }
    Ok(current)
}

fn eval_step<D: DiskManager>(ctx: &mut EvalContext<'_, D>, input: &[Item], step: &Step) -> EvalResult<Sequence> {
    // Attribute steps produce strings and need no tree.
    if step.axis == Axis::Attribute {
        let NodeTest::Name(aname) = &step.test else {
            return Err(EvalError::Dynamic("attribute step needs a name".into()));
        };
        let db = &ctx.stored.db;
        let mut out = Vec::new();
        for item in input {
            let value = match item {
                Item::Node(n, _) => db.attr(*n, aname),
                Item::Built(b) => b.attr(aname),
                _ => None,
            };
            if let Some(v) = value {
                out.push(Item::Str(v.to_string()));
            }
        }
        return Ok(out);
    }
    let c = ctx.resolve_color(&step.color)?;
    let db = &ctx.stored.db;
    // A name test compares symbols; a name the store never interned
    // names no node.
    let want = match &step.test {
        NodeTest::Name(name) => match db.names.get(name) {
            Some(sym) => Some(sym),
            None => return Ok(Vec::new()),
        },
        _ => None,
    };
    let mut nodes: Vec<McNodeId> = Vec::new();
    let mut inputs = 0;
    // A built element has no color: every colored axis from it is empty.
    for item in input {
        let Item::Node(n, _) = item else { continue };
        let n = *n;
        inputs += 1;
        match step.axis {
            Axis::Child => nodes.extend(db.children(n, c)),
            Axis::Descendant => nodes.extend(db.descendants(n, c)),
            Axis::DescendantOrSelf => nodes.extend(db.descendants_or_self(n, c)),
            Axis::Parent => nodes.extend(db.parent(n, c)),
            Axis::Ancestor => nodes.extend(db.ancestors(n, c)),
            Axis::AncestorOrSelf => {
                if db.colors(n).contains(c) || n == McNodeId::DOCUMENT {
                    nodes.push(n);
                }
                nodes.extend(db.ancestors(n, c));
            }
            Axis::SelfAxis => {
                if db.colors(n).contains(c) || n == McNodeId::DOCUMENT {
                    nodes.push(n);
                }
            }
            // Handled by the early return above; a step that still
            // carries this axis here is a parser/planner defect, which
            // must surface as a dynamic error rather than a crash.
            Axis::Attribute => {
                return Err(EvalError::Dynamic(
                    "attribute axis reached tree navigation".into(),
                ))
            }
        }
    }
    // Node test.
    match &step.test {
        NodeTest::AnyNode => {}
        NodeTest::AnyElement => nodes.retain(|&n| db.node(n).name.is_some()),
        NodeTest::Name(_) => nodes.retain(|&n| db.node(n).name == want),
    }
    // Local order of the step color + dedup (path semantics). From one
    // node, these axes yield distinct nodes in that order already.
    let ordered = inputs <= 1
        && matches!(
            step.axis,
            Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::SelfAxis | Axis::Parent
        );
    if !ordered {
        nodes.sort_by_key(|&n| db.code(n, c).map(|cd| cd.start).unwrap_or(0));
        nodes.dedup();
    }
    // Predicates. A predicate evaluating to a single number is a
    // POSITION test (XPath: `movie[2]` = the second movie), applied
    // against the sequence surviving the previous predicates.
    let mut survivors = nodes;
    for pred in &step.predicates {
        let mut next = Vec::with_capacity(survivors.len());
        for (pos, &n) in survivors.iter().enumerate() {
            let saved = ctx.context_item.replace(Item::Node(n, Some(c)));
            let v = eval(ctx, pred);
            ctx.context_item = saved;
            let v = v?;
            let keep = match v.as_slice() {
                [Item::Num(want)] => (pos + 1) as f64 == *want,
                _ => effective_boolean(&v),
            };
            if keep {
                next.push(n);
            }
        }
        survivors = next;
    }
    Ok(survivors
        .into_iter()
        .map(|n| Item::Node(n, Some(c)))
        .collect())
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
pub fn general_compare<D: DiskManager>(ctx: &EvalContext<'_, D>, l: &Sequence, op: CmpOp, r: &Sequence) -> bool {
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
pub fn effective_boolean(seq: &Sequence) -> bool {
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

fn eval_call<D: DiskManager>(ctx: &mut EvalContext<'_, D>, name: &str, args: &[Expr]) -> EvalResult<Sequence> {
    match name {
        "contains" => {
            expect_args(name, args, 2)?;
            let hay = eval(ctx, &args[0])?;
            let needle = eval(ctx, &args[1])?;
            let needle = needle.first().map(|i| atomize(ctx, i)).unwrap_or_default();
            let hit = hay.iter().any(|h| atomize_in(&ctx.stored, h).contains(&needle));
            Ok(vec![Item::Bool(hit)])
        }
        "count" => {
            expect_args(name, args, 1)?;
            let v = eval(ctx, &args[0])?;
            Ok(vec![Item::Num(v.len() as f64)])
        }
        "empty" => {
            expect_args(name, args, 1)?;
            let v = eval(ctx, &args[0])?;
            Ok(vec![Item::Bool(v.is_empty())])
        }
        "not" => {
            expect_args(name, args, 1)?;
            let v = eval(ctx, &args[0])?;
            Ok(vec![Item::Bool(!effective_boolean(&v))])
        }
        "string" => {
            expect_args(name, args, 1)?;
            let v = eval(ctx, &args[0])?;
            Ok(vec![Item::Str(
                v.first().map(|i| atomize(ctx, i)).unwrap_or_default(),
            )])
        }
        "number" => {
            expect_args(name, args, 1)?;
            let v = eval(ctx, &args[0])?;
            let n = v
                .first()
                .and_then(|i| as_number(&atomize_in(&ctx.stored, i)))
                .unwrap_or(f64::NAN);
            Ok(vec![Item::Num(n)])
        }
        "starts-with" => {
            expect_args(name, args, 2)?;
            let hay = eval(ctx, &args[0])?;
            let prefix = eval(ctx, &args[1])?;
            let prefix = prefix.first().map(|i| atomize(ctx, i)).unwrap_or_default();
            let hit = hay.iter().any(|h| atomize_in(&ctx.stored, h).starts_with(&prefix));
            Ok(vec![Item::Bool(hit)])
        }
        "string-length" => {
            expect_args(name, args, 1)?;
            let v = eval(ctx, &args[0])?;
            let len = v
                .first()
                .map(|i| atomize_in(&ctx.stored, i).chars().count())
                .unwrap_or(0);
            Ok(vec![Item::Num(len as f64)])
        }
        "concat" => {
            let mut out = String::new();
            for a in args {
                let v = eval(ctx, a)?;
                for i in &v {
                    out.push_str(&atomize_in(&ctx.stored, i));
                }
            }
            Ok(vec![Item::Str(out)])
        }
        "sum" | "avg" | "min" | "max" => {
            expect_args(name, args, 1)?;
            let v = eval(ctx, &args[0])?;
            let nums: Vec<f64> = v
                .iter()
                .filter_map(|i| as_number(&atomize_in(&ctx.stored, i)))
                .collect();
            if nums.is_empty() {
                return Ok(if name == "sum" {
                    vec![Item::Num(0.0)]
                } else {
                    vec![] // empty sequence for avg/min/max of nothing
                });
            }
            let r = match name {
                "sum" => nums.iter().sum(),
                "avg" => nums.iter().sum::<f64>() / nums.len() as f64,
                "min" => nums.iter().copied().fold(f64::INFINITY, f64::min),
                _ => nums.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            };
            Ok(vec![Item::Num(r)])
        }
        "distinct-values" => {
            expect_args(name, args, 1)?;
            let v = eval(ctx, &args[0])?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for i in &v {
                let s = atomize(ctx, i);
                if seen.insert(s.clone()) {
                    out.push(Item::Str(s));
                }
            }
            Ok(out)
        }
        "createCopy" => {
            expect_args(name, args, 1)?;
            let v = eval(ctx, &args[0])?;
            v.iter().map(|item| deep_copy(&ctx.stored, item)).collect()
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
            let v = eval(ctx, &args[1])?;
            let (stored, made) = ctx.exclusive()?;
            let c = stored.add_color(&color_name)?;
            // Built elements become stored nodes. Each item not in `c`
            // yet goes under the document node, the root every colored
            // tree shares (Definition 3.2), unless another item's
            // constructed content holds it.
            let out: Sequence = v
                .into_iter()
                .map(|item| match item {
                    Item::Built(b) => Item::Node(made.make(stored, &b), None),
                    other => other,
                })
                .collect();
            let mut seen = HashSet::new();
            let mut roots: Vec<McNodeId> = out
                .iter()
                .filter_map(|item| match *item {
                    Item::Node(n, _) => Some(n),
                    _ => None,
                })
                .filter(|&n| n != McNodeId::DOCUMENT && stored.db.parent(n, c).is_none())
                .filter(|&n| seen.insert(n))
                .collect();
            let mut held = HashSet::new();
            let mut stack = roots.clone();
            while let Some(n) = stack.pop() {
                for &k in made.edges.get(&n).into_iter().flatten() {
                    if held.insert(k) {
                        stack.push(k);
                    }
                }
            }
            roots.retain(|n| !held.contains(n));
            stored.attach(McNodeId::DOCUMENT, &roots, &made.edges, c)?;
            Ok(out)
        }
        other => Err(EvalError::Dynamic(format!("unknown function {other}()"))),
    }
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
        Expr::Lit(Literal::Str(s)) => Ok(s.clone()),
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
        _ => {
            let v = eval(ctx, e)?;
            v.first()
                .map(|i| atomize(ctx, i))
                .ok_or_else(|| EvalError::Dynamic("empty color literal".into()))
        }
    }
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

fn eval_ctor<D: DiskManager>(
    ctx: &mut EvalContext<'_, D>,
    ctor: &Constructor,
) -> EvalResult<Arc<Built>> {
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
                for it in eval(ctx, e)? {
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

fn eval_flwor<D: DiskManager>(ctx: &mut EvalContext<'_, D>, f: &Flwor) -> EvalResult<Sequence> {
    let mut out: Vec<(Vec<String>, Sequence)> = Vec::new();
    bind_clauses(ctx, f, 0, &mut out)?;
    if !f.order_by.is_empty() {
        out.sort_by(|(ka, _), (kb, _)| {
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
    }
    Ok(out.into_iter().flat_map(|(_, seq)| seq).collect())
}

fn bind_clauses<D: DiskManager>(
    ctx: &mut EvalContext<'_, D>,
    f: &Flwor,
    depth: usize,
    out: &mut Vec<(Vec<String>, Sequence)>,
) -> EvalResult<()> {
    if depth == f.clauses.len() {
        // where / order-by / return.
        if let Some(w) = &f.where_ {
            let v = eval(ctx, w)?;
            if !effective_boolean(&v) {
                return Ok(());
            }
        }
        let mut keys = Vec::with_capacity(f.order_by.len());
        for (k, _) in &f.order_by {
            let v = eval(ctx, k)?;
            keys.push(v.first().map(|i| atomize(ctx, i)).unwrap_or_default());
        }
        let r = eval(ctx, &f.ret)?;
        out.push((keys, r));
        return Ok(());
    }
    match &f.clauses[depth] {
        FlworClause::For(var, src) => {
            let items = eval(ctx, src)?;
            for item in items {
                let old = ctx.set_var(var, vec![item]);
                bind_clauses(ctx, f, depth + 1, out)?;
                ctx.restore_var(var, old);
            }
            Ok(())
        }
        FlworClause::Let(var, src) => {
            let v = eval(ctx, src)?;
            let old = ctx.set_var(var, v);
            bind_clauses(ctx, f, depth + 1, out)?;
            ctx.restore_var(var, old);
            Ok(())
        }
    }
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
        let mut ctx = EvalContext::new(&mut s);
        let err = eval(&mut ctx, &e).unwrap_err();
        assert!(matches!(err, EvalError::DuplicateNode(..)), "{err}");
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
}
