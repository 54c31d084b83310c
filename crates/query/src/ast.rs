//! Abstract syntax for the MCXQuery subset (§4).
//!
//! MCXQuery is XQuery with every location step optionally prefixed by a
//! `{color}` specification (Figure 6's grammar change), plus the
//! `createColor` / `createCopy` functions and color-aware updates.
//! This module also computes the query-complexity metrics of the
//! paper's Figures 11 and 12 (number of path expressions, number of
//! variable bindings) directly from the AST.

use std::fmt;

/// An XPath axis (the subset the paper's queries use; MCXQuery
/// conservatively includes the reverse axes the paper wishes for in
/// §2.2, since our engine supports them).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Axis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `self::`
    SelfAxis,
    /// `attribute::` / `@`
    Attribute,
}

impl Axis {
    /// Unabbreviated syntax name.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::SelfAxis => "self",
            Axis::Attribute => "attribute",
        }
    }
}

/// A node test within a step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NodeTest {
    /// A name test, e.g. `movie`.
    Name(String),
    /// `node()` — any node.
    AnyNode,
    /// `*` — any element.
    AnyElement,
}

/// One location step: optional color, axis, node test, predicates.
#[derive(Clone, PartialEq, Debug)]
pub struct Step {
    /// The `{color}` specification; `None` inherits the context color
    /// (plain XQuery over a single-colored database).
    pub color: Option<String>,
    /// Navigation axis.
    pub axis: Axis,
    /// Node test.
    pub test: NodeTest,
    /// Zero or more `[...]` predicates.
    pub predicates: Vec<Expr>,
}

/// Where a path expression starts.
#[derive(Clone, PartialEq, Debug)]
pub enum PathStart {
    /// `document("uri")` — the document node.
    Document(String),
    /// `$var`.
    Var(String),
    /// The context item (relative paths inside predicates).
    Context,
}

/// A path expression: a start plus location steps.
#[derive(Clone, PartialEq, Debug)]
pub struct PathExpr {
    /// Start point.
    pub start: PathStart,
    /// The steps, outermost first.
    pub steps: Vec<Step>,
}

/// Comparison operators (general comparisons, existential over
/// sequences as in XPath).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The comparison rule of MCXQuery's general comparisons, applied
    /// to two atomized values — the one place it is written. When both
    /// sides are numbers ([`as_number`]) they compare as `f64` (IEEE,
    /// so a NaN fails every operator but `!=`); otherwise they compare
    /// as strings, byte by byte.
    pub fn holds(self, l: &str, r: &str) -> bool {
        self.holds_parsed(l, r, as_number(r))
    }

    /// [`Self::holds`] with `r`'s number, `as_number(r)`, parsed once
    /// by the caller: `l` is parsed only when `r` is a number.
    pub fn holds_parsed(self, l: &str, r: &str, r_num: Option<f64>) -> bool {
        let ord = match r_num.and_then(|b| Some((as_number(l)?, b))) {
            Some((a, b)) => a.partial_cmp(&b),
            None => Some(l.cmp(r)),
        };
        use std::cmp::Ordering::{Equal, Greater, Less};
        match self {
            CmpOp::Eq => ord == Some(Equal),
            CmpOp::Ne => ord != Some(Equal),
            CmpOp::Lt => ord == Some(Less),
            CmpOp::Le => matches!(ord, Some(Less | Equal)),
            CmpOp::Gt => ord == Some(Greater),
            CmpOp::Ge => matches!(ord, Some(Greater | Equal)),
        }
    }
}

/// The one "is this a number" test: `s`, trimmed, parses as an `f64`
/// (so `"NaN"` and `"inf"` are numbers, `"7.0"` and `" 07"` both 7).
pub fn as_number(s: &str) -> Option<f64> {
    s.trim().parse::<f64>().ok()
}

/// A literal, with its text and its number fixed by the parser: the
/// text a comparison sees (a number's as `atomize` writes it) and the
/// number, when the text is one ([`as_number`]).
#[derive(Clone, Debug)]
pub struct Literal {
    text: String,
    num: Option<f64>,
    quoted: bool,
}

impl Literal {
    /// A string literal.
    pub fn str(text: impl Into<String>) -> Literal {
        let text = text.into();
        Literal { num: as_number(&text), text, quoted: true }
    }

    /// A numeric literal.
    pub fn num(n: f64) -> Literal {
        Literal { text: crate::eval::format_num(n), num: Some(n), quoted: false }
    }

    /// Its text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Its number, when its text is one.
    pub fn number(&self) -> Option<f64> {
        self.num
    }

    /// Whether it is a string literal.
    pub fn is_str(&self) -> bool {
        self.quoted
    }
}

/// The number follows from the text.
impl PartialEq for Literal {
    fn eq(&self, other: &Literal) -> bool {
        (self.quoted, &self.text) == (other.quoted, &other.text)
    }
}

/// A FLWOR clause.
#[derive(Clone, PartialEq, Debug)]
pub enum FlworClause {
    /// `for $v in expr`
    For(String, Expr),
    /// `let $v := expr`
    Let(String, Expr),
}

/// A FLWOR expression.
#[derive(Clone, PartialEq, Debug)]
pub struct Flwor {
    /// The for/let clauses in order.
    pub clauses: Vec<FlworClause>,
    /// Optional `where`.
    pub where_: Option<Box<Expr>>,
    /// `order by` keys with ascending flag.
    pub order_by: Vec<(Expr, bool)>,
    /// The `return` expression.
    pub ret: Box<Expr>,
}

/// Items inside an element constructor.
#[derive(Clone, PartialEq, Debug)]
pub enum ConstructorItem {
    /// Literal text.
    Text(String),
    /// `{ expr }` — an enclosed expression (identity-preserving, §4.2).
    Enclosed(Expr),
    /// A nested element constructor.
    Element(Constructor),
}

/// `<name attr="...">...</name>` constructor.
#[derive(Clone, PartialEq, Debug)]
pub struct Constructor {
    /// Element name.
    pub name: String,
    /// Attributes (literal values only in this subset).
    pub attrs: Vec<(String, String)>,
    /// Content items.
    pub children: Vec<ConstructorItem>,
}

/// An MCXQuery expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A path expression.
    Path(PathExpr),
    /// A literal.
    Lit(Literal),
    /// General comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Logical and.
    And(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// Function call: `contains`, `count`, `distinct-values`,
    /// `createColor`, `createCopy`, `not`, `empty`.
    Call(String, Vec<Expr>),
    /// FLWOR.
    Flwor(Flwor),
    /// Element constructor.
    Ctor(Constructor),
    /// Parenthesized sequence (comma operator).
    Sequence(Vec<Expr>),
}

/// An update action (after Tatarinov et al., the paper's reference 25,
/// extended with colors
/// as §4.3 describes).
#[derive(Clone, PartialEq, Debug)]
pub enum UpdateAction {
    /// `delete $child` — remove the target nodes from the colored tree
    /// they were located in (subtree-scoped).
    Delete(Expr),
    /// `insert <ctor> into $target` semantics carried by the enclosing
    /// update binding; the expression is the content to insert.
    Insert(Expr),
    /// `replace value of $x with expr`.
    ReplaceValue(Expr, Expr),
}

/// `for/let/where ... update $target { actions }`.
#[derive(Clone, PartialEq, Debug)]
pub struct UpdateStmt {
    /// Binding clauses.
    pub clauses: Vec<FlworClause>,
    /// Optional filter.
    pub where_: Option<Box<Expr>>,
    /// The variable naming the update target.
    pub target: String,
    /// Actions applied per binding tuple.
    pub actions: Vec<UpdateAction>,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Unparsing (Display): parse(format!("{e}")) reproduces `e`
// ---------------------------------------------------------------------------

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Name(n) => f.write_str(n),
            NodeTest::AnyNode => f.write_str("node()"),
            NodeTest::AnyElement => f.write_str("*"),
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = &self.color {
            write!(f, "{{{c}}}")?;
        }
        write!(f, "{}::{}", self.axis, self.test)?;
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.start {
            PathStart::Document(uri) => write!(f, "document(\"{uri}\")")?,
            PathStart::Var(v) => write!(f, "${v}")?,
            PathStart::Context => {
                // Relative path: steps join with '/' and no leading dot
                // when there is at least one step.
                if self.steps.is_empty() {
                    return f.write_str(".");
                }
                let mut first = true;
                for s in &self.steps {
                    if !first {
                        f.write_str("/")?;
                    }
                    write!(f, "{s}")?;
                    first = false;
                }
                return Ok(());
            }
        }
        for s in &self.steps {
            write!(f, "/{s}")?;
        }
        Ok(())
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.quoted {
            write!(f, "\"{}\"", self.text)
        } else {
            f.write_str(&self.text)
        }
    }
}

impl fmt::Display for Constructor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}", self.name)?;
        for (n, v) in &self.attrs {
            write!(f, " {n}=\"{v}\"")?;
        }
        if self.children.is_empty() {
            return f.write_str("/>");
        }
        f.write_str(">")?;
        for c in &self.children {
            match c {
                ConstructorItem::Text(t) => f.write_str(t)?,
                ConstructorItem::Enclosed(e) => write!(f, " {{ {e} }} ")?,
                ConstructorItem::Element(inner) => write!(f, "{inner}")?,
            }
        }
        write!(f, "</{}>", self.name)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Path(p) => write!(f, "{p}"),
            Expr::Lit(l) => write!(f, "{l}"),
            Expr::Cmp(a, op, b) => write!(f, "{a} {op} {b}"),
            Expr::And(a, b) => write!(f, "{a} and {b}"),
            Expr::Or(a, b) => write!(f, "{a} or {b}"),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Flwor(fl) => {
                for cl in &fl.clauses {
                    match cl {
                        FlworClause::For(v, e) => write!(f, "for ${v} in {e} ")?,
                        FlworClause::Let(v, e) => write!(f, "let ${v} := {e} ")?,
                    }
                }
                if let Some(w) = &fl.where_ {
                    write!(f, "where {w} ")?;
                }
                for (i, (k, asc)) in fl.order_by.iter().enumerate() {
                    if i == 0 {
                        f.write_str("order by ")?;
                    } else {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k}{}", if *asc { "" } else { " descending" })?;
                    if i + 1 == fl.order_by.len() {
                        f.write_str(" ")?;
                    }
                }
                write!(f, "return {}", fl.ret)
            }
            Expr::Ctor(c) => write!(f, "{c}"),
            Expr::Sequence(items) => {
                f.write_str("(")?;
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for UpdateStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for cl in &self.clauses {
            match cl {
                FlworClause::For(v, e) => write!(f, "for ${v} in {e} ")?,
                FlworClause::Let(v, e) => write!(f, "let ${v} := {e} ")?,
            }
        }
        if let Some(w) = &self.where_ {
            write!(f, "where {w} ")?;
        }
        write!(f, "update ${} {{ ", self.target)?;
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match a {
                UpdateAction::Delete(e) => write!(f, "delete {e}")?,
                UpdateAction::Insert(e) => write!(f, "insert {e}")?,
                UpdateAction::ReplaceValue(t, v) => write!(f, "replace value of {t} with {v}")?,
            }
        }
        f.write_str(" }")
    }
}

// ---------------------------------------------------------------------------
// Complexity metrics (Figures 11 & 12)
// ---------------------------------------------------------------------------

/// Query-specification complexity, the paper's proxy for simplicity
/// (§7.3): path-expression count and variable-binding count.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Complexity {
    /// Number of path expressions in the query.
    pub path_exprs: usize,
    /// Number of variable bindings (`for`/`let` clauses).
    pub var_bindings: usize,
}

/// Measure an expression's complexity.
pub fn complexity(e: &Expr) -> Complexity {
    let mut c = Complexity::default();
    walk(e, &mut c);
    c
}

/// Measure an update statement's complexity.
pub fn update_complexity(u: &UpdateStmt) -> Complexity {
    let mut c = Complexity::default();
    for cl in &u.clauses {
        c.var_bindings += 1;
        match cl {
            FlworClause::For(_, e) | FlworClause::Let(_, e) => walk(e, &mut c),
        }
    }
    if let Some(w) = &u.where_ {
        walk(w, &mut c);
    }
    for a in &u.actions {
        match a {
            UpdateAction::Delete(e) | UpdateAction::Insert(e) => walk(e, &mut c),
            UpdateAction::ReplaceValue(a, b) => {
                walk(a, &mut c);
                walk(b, &mut c);
            }
        }
    }
    c
}

fn walk(e: &Expr, c: &mut Complexity) {
    e.visit(&mut |e| match e {
        Expr::Path(_) => c.path_exprs += 1,
        Expr::Flwor(f) => c.var_bindings += f.clauses.len(),
        _ => {}
    });
}

impl Expr {
    /// Call `f` on this expression and every expression inside it —
    /// step predicates and constructor content included — parents
    /// before children.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Path(p) => {
                for pred in p.steps.iter().flat_map(|s| &s.predicates) {
                    pred.visit(f);
                }
            }
            Expr::Lit(_) => {}
            Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Call(_, args) | Expr::Sequence(args) => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Flwor(fl) => {
                for cl in &fl.clauses {
                    match cl {
                        FlworClause::For(_, e) | FlworClause::Let(_, e) => e.visit(f),
                    }
                }
                if let Some(w) = &fl.where_ {
                    w.visit(f);
                }
                for (k, _) in &fl.order_by {
                    k.visit(f);
                }
                fl.ret.visit(f);
            }
            Expr::Ctor(ct) => ct.visit(f),
        }
    }

    /// Whether the expression calls the function `name` anywhere in it.
    pub fn calls(&self, name: &str) -> bool {
        let mut hit = false;
        self.visit(&mut |e| hit |= matches!(e, Expr::Call(n, _) if n == name));
        hit
    }
}

impl Constructor {
    fn visit(&self, f: &mut impl FnMut(&Expr)) {
        for item in &self.children {
            match item {
                ConstructorItem::Text(_) => {}
                ConstructorItem::Enclosed(e) => e.visit(f),
                ConstructorItem::Element(inner) => inner.visit(f),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_step(color: Option<&str>, axis: Axis, name: &str) -> Step {
        Step {
            color: color.map(str::to_string),
            axis,
            test: NodeTest::Name(name.into()),
            predicates: Vec::new(),
        }
    }

    #[test]
    fn calls_finds_a_function_anywhere_in_the_expression() {
        let q = crate::parser::parse_query(
            r#"for $m in document("m")/{red}child::a[not(empty({red}child::b))]
               return <x>{ createColor("k", $m) }</x>"#,
        )
        .unwrap();
        assert!(q.calls("createColor"));
        assert!(q.calls("empty"), "inside a step predicate");
        assert!(!q.calls("createCopy"));
    }

    #[test]
    fn holds_compares_numbers_numerically_and_the_rest_bytewise() {
        assert!(CmpOp::Eq.holds("7.0", " 07"));
        assert!(!CmpOp::Eq.holds("7", "seven"));
        assert!(CmpOp::Lt.holds("9", "10"), "numbers");
        assert!(CmpOp::Gt.holds("9", "10x"), "strings");
        assert!(CmpOp::Gt.holds("apple", "5"));
        assert!(CmpOp::Eq.holds("-0", "0"));
        assert!(CmpOp::Ge.holds("inf", "1e308"));
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert!(!op.holds("NaN", "3") && !op.holds("3", "NaN"), "{op}");
            assert!(!op.holds("NaN", "NaN"), "{op}");
        }
        assert!(CmpOp::Ne.holds("NaN", "NaN"), "IEEE: NaN != NaN");
    }

    #[test]
    fn complexity_counts_nested_paths_in_predicates() {
        // //movie[child::name = "Eve"] : 2 path expressions.
        let inner = Expr::Cmp(
            Box::new(Expr::Path(PathExpr {
                start: PathStart::Context,
                steps: vec![name_step(None, Axis::Child, "name")],
            })),
            CmpOp::Eq,
            Box::new(Expr::Lit(Literal::str("Eve"))),
        );
        let outer = Expr::Path(PathExpr {
            start: PathStart::Document("mdb.xml".into()),
            steps: vec![Step {
                color: Some("red".into()),
                axis: Axis::Descendant,
                test: NodeTest::Name("movie".into()),
                predicates: vec![inner],
            }],
        });
        let c = complexity(&outer);
        assert_eq!(c.path_exprs, 2);
        assert_eq!(c.var_bindings, 0);
    }

    #[test]
    fn complexity_counts_flwor_bindings() {
        let path = |v: &str| {
            Expr::Path(PathExpr {
                start: PathStart::Var(v.into()),
                steps: vec![],
            })
        };
        let f = Expr::Flwor(Flwor {
            clauses: vec![
                FlworClause::For("m".into(), path("d")),
                FlworClause::For("a".into(), path("d")),
                FlworClause::Let("x".into(), path("m")),
            ],
            where_: Some(Box::new(Expr::Cmp(
                Box::new(path("m")),
                CmpOp::Eq,
                Box::new(path("a")),
            ))),
            order_by: vec![],
            ret: Box::new(path("x")),
        });
        let c = complexity(&f);
        assert_eq!(c.var_bindings, 3);
        assert_eq!(c.path_exprs, 6);
    }

    #[test]
    fn update_complexity_counts_clauses_and_actions() {
        let path = |v: &str| {
            Expr::Path(PathExpr {
                start: PathStart::Var(v.into()),
                steps: vec![],
            })
        };
        let u = UpdateStmt {
            clauses: vec![FlworClause::For("m".into(), path("d"))],
            where_: Some(Box::new(Expr::Cmp(
                Box::new(path("m")),
                CmpOp::Eq,
                Box::new(Expr::Lit(Literal::str("x"))),
            ))),
            target: "m".into(),
            actions: vec![UpdateAction::ReplaceValue(
                path("m"),
                Expr::Lit(Literal::str("y")),
            )],
        };
        let c = update_complexity(&u);
        assert_eq!(c.var_bindings, 1);
        // clause path + where path + replace-target path.
        assert_eq!(c.path_exprs, 3);
    }

    #[test]
    fn constructor_children_are_walked() {
        let ctor = Expr::Ctor(Constructor {
            name: "m-name".into(),
            attrs: vec![],
            children: vec![
                ConstructorItem::Text("label: ".into()),
                ConstructorItem::Enclosed(Expr::Path(PathExpr {
                    start: PathStart::Var("m".into()),
                    steps: vec![name_step(Some("red"), Axis::Child, "name")],
                })),
            ],
        });
        assert_eq!(complexity(&ctor).path_exprs, 1);
    }
}
