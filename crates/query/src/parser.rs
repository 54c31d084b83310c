//! Parser for the MCXQuery subset.
//!
//! A character-level recursive-descent parser covering: FLWOR
//! expressions, color-decorated path expressions in unabbreviated
//! (`{red}descendant::movie`) and abbreviated (`/{red}movie`,
//! `//movie`, `@attr`) syntax, general comparisons, `and`/`or`,
//! function calls (`contains`, `count`, `distinct-values`,
//! `createColor`, `createCopy`, ...), element constructors with
//! enclosed expressions, and Tatarinov-style update statements
//! (`for ... where ... update $v { delete ..., insert ..., replace
//! value of ... with ... }`).

use crate::ast::*;
use std::fmt;

/// A parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Description of what went wrong.
    pub message: String,
    /// Byte offset.
    pub offset: usize,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MCXQuery parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for QueryParseError {}

type PResult<T> = Result<T, QueryParseError>;

/// How deeply expressions, FLWORs and constructors may nest. The parser
/// recurses once per level, so without a bound a few kilobytes of
/// parentheses overflow the stack of the thread parsing them (and abort
/// the process); past it, parsing fails with a [`QueryParseError`].
/// A level of predicates takes about 11 KiB of stack in a debug build,
/// so 100 levels fit a default 2 MiB thread with room to spare.
pub const MAX_NESTING: usize = 100;

/// Parse a query expression.
pub fn parse_query(input: &str) -> PResult<Expr> {
    let mut p = P::new(input);
    let e = p.expr()?;
    p.ws();
    if !p.eof() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

/// Parse an update statement.
pub fn parse_update(input: &str) -> PResult<UpdateStmt> {
    let mut p = P::new(input);
    let u = p.update_stmt()?;
    p.ws();
    if !p.eof() {
        return Err(p.err("trailing input after update statement"));
    }
    Ok(u)
}

struct P<'a> {
    b: &'a [u8],
    at: usize,
    /// Levels of [`P::nested`] open at `at`.
    depth: usize,
}

impl<'a> P<'a> {
    fn new(s: &'a str) -> Self {
        P {
            b: s.as_bytes(),
            at: 0,
            depth: 0,
        }
    }

    /// Run `f` one nesting level deeper, or fail past [`MAX_NESTING`].
    /// Every recursive cycle of the grammar passes through a caller of
    /// this: `or_expr`, `flwor_or_update` and `constructor`.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn err(&self, m: impl Into<String>) -> QueryParseError {
        QueryParseError {
            message: m.into(),
            offset: self.at,
        }
    }

    fn eof(&self) -> bool {
        self.at >= self.b.len()
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.at).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.b.get(self.at + 1).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    fn lit(&mut self, s: &str) -> bool {
        if self.b[self.at..].starts_with(s.as_bytes()) {
            self.at += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> PResult<()> {
        if self.lit(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    /// Match a keyword at a word boundary.
    fn kw(&mut self, w: &str) -> bool {
        self.ws();
        if self.b[self.at..].starts_with(w.as_bytes()) {
            let after = self.b.get(self.at + w.len()).copied();
            if !matches!(after, Some(c) if is_name_char(c)) {
                self.at += w.len();
                return true;
            }
        }
        false
    }

    fn peek_kw(&mut self, w: &str) -> bool {
        let save = self.at;
        let hit = self.kw(w);
        self.at = save;
        hit
    }

    fn name(&mut self) -> PResult<String> {
        self.ws();
        let start = self.at;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.at += 1,
            _ => return Err(self.err("expected name")),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.at += 1;
        }
        Ok(String::from_utf8_lossy(&self.b[start..self.at]).into_owned())
    }

    fn string_lit(&mut self) -> PResult<String> {
        self.ws();
        let q = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected string literal")),
        };
        self.at += 1;
        let start = self.at;
        while let Some(c) = self.peek() {
            if c == q {
                let s = String::from_utf8_lossy(&self.b[start..self.at]).into_owned();
                self.at += 1;
                return Ok(s);
            }
            self.at += 1;
        }
        Err(self.err("unterminated string literal"))
    }

    fn var(&mut self) -> PResult<String> {
        self.ws();
        self.expect("$")?;
        self.name()
    }

    // ----- expressions --------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.ws();
        if self.peek_kw("for") || self.peek_kw("let") {
            // Could be FLWOR or update; look ahead for `update`.
            let save = self.at;
            match self.flwor_or_update()? {
                FlworOrUpdate::Flwor(f) => Ok(Expr::Flwor(f)),
                FlworOrUpdate::Update(_) => {
                    self.at = save;
                    Err(self.err("update statement where expression expected (use parse_update)"))
                }
            }
        } else {
            self.or_expr()
        }
    }

    fn update_stmt(&mut self) -> PResult<UpdateStmt> {
        match self.flwor_or_update()? {
            FlworOrUpdate::Update(u) => Ok(u),
            FlworOrUpdate::Flwor(_) => Err(self.err("expected an update statement")),
        }
    }

    fn clauses(&mut self) -> PResult<Vec<FlworClause>> {
        let mut clauses = Vec::new();
        loop {
            if self.kw("for") {
                loop {
                    let v = self.var()?;
                    self.ws();
                    if !self.kw("in") {
                        return Err(self.err("expected `in`"));
                    }
                    let e = self.or_expr()?;
                    clauses.push(FlworClause::For(v, e));
                    self.ws();
                    if !self.lit(",") {
                        break;
                    }
                }
            } else if self.kw("let") {
                loop {
                    let v = self.var()?;
                    self.ws();
                    self.expect(":=")?;
                    let e = self.or_expr()?;
                    clauses.push(FlworClause::Let(v, e));
                    self.ws();
                    if !self.lit(",") {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        if clauses.is_empty() {
            return Err(self.err("expected for/let clause"));
        }
        Ok(clauses)
    }

    fn flwor_or_update(&mut self) -> PResult<FlworOrUpdate> {
        self.nested(Self::flwor_or_update_body)
    }

    fn flwor_or_update_body(&mut self) -> PResult<FlworOrUpdate> {
        let clauses = self.clauses()?;
        let where_ = if self.kw("where") {
            Some(Box::new(self.or_expr()?))
        } else {
            None
        };
        if self.kw("update") {
            let target = self.var()?;
            self.ws();
            self.expect("{")?;
            let mut actions = vec![self.action()?];
            self.ws();
            while self.lit(",") {
                actions.push(self.action()?);
                self.ws();
            }
            self.expect("}")?;
            return Ok(FlworOrUpdate::Update(UpdateStmt {
                clauses,
                where_,
                target,
                actions,
            }));
        }
        let mut order_by = Vec::new();
        if self.kw("order") {
            if !self.kw("by") {
                return Err(self.err("expected `by` after `order`"));
            }
            loop {
                let k = self.or_expr()?;
                let asc = if self.kw("descending") {
                    false
                } else {
                    let _ = self.kw("ascending");
                    true
                };
                order_by.push((k, asc));
                self.ws();
                if !self.lit(",") {
                    break;
                }
            }
        }
        if !self.kw("return") {
            return Err(self.err("expected `return`"));
        }
        let ret = Box::new(self.expr()?);
        Ok(FlworOrUpdate::Flwor(Flwor {
            clauses,
            where_,
            order_by,
            ret,
        }))
    }

    fn action(&mut self) -> PResult<UpdateAction> {
        if self.kw("delete") {
            Ok(UpdateAction::Delete(self.or_expr()?))
        } else if self.kw("insert") {
            Ok(UpdateAction::Insert(self.or_expr()?))
        } else if self.kw("replace") {
            if !self.kw("value") || !self.kw("of") {
                return Err(self.err("expected `value of` after `replace`"));
            }
            let target = self.or_expr()?;
            if !self.kw("with") {
                return Err(self.err("expected `with`"));
            }
            let v = self.or_expr()?;
            Ok(UpdateAction::ReplaceValue(target, v))
        } else {
            Err(self.err("expected delete/insert/replace action"))
        }
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        self.nested(|p| {
            let mut l = p.and_expr()?;
            while p.kw("or") {
                let r = p.and_expr()?;
                l = Expr::Or(Box::new(l), Box::new(r));
            }
            Ok(l)
        })
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut l = self.cmp_expr()?;
        while self.kw("and") {
            let r = self.cmp_expr()?;
            l = Expr::And(Box::new(l), Box::new(r));
        }
        Ok(l)
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let l = self.path_expr()?;
        self.ws();
        let op = if self.lit("!=") {
            Some(CmpOp::Ne)
        } else if self.lit("<=") {
            Some(CmpOp::Le)
        } else if self.lit(">=") {
            Some(CmpOp::Ge)
        } else if self.lit("=") {
            Some(CmpOp::Eq)
        } else if self.peek() == Some(b'<') && !self.at_constructor() {
            self.at += 1;
            Some(CmpOp::Lt)
        } else if self.lit(">") {
            Some(CmpOp::Gt)
        } else {
            None
        };
        match op {
            Some(op) => {
                let r = self.path_expr()?;
                Ok(Expr::Cmp(Box::new(l), op, Box::new(r)))
            }
            None => Ok(l),
        }
    }

    fn at_constructor(&mut self) -> bool {
        // `<` immediately followed by a name-start char begins a
        // constructor; `< x` (space) is a comparison.
        self.peek() == Some(b'<')
            && matches!(self.peek2(), Some(c) if c.is_ascii_alphabetic() || c == b'_')
    }

    // ----- paths ----------------------------------------------------------------

    fn path_expr(&mut self) -> PResult<Expr> {
        self.ws();
        // Constructor?
        if self.at_constructor() {
            return Ok(Expr::Ctor(self.constructor()?));
        }
        // Primary start.
        let start: Option<PathStart> = if self.peek_kw("document") {
            let save = self.at;
            let _ = self.kw("document");
            self.ws();
            if self.lit("(") {
                let uri = self.string_lit()?;
                self.ws();
                self.expect(")")?;
                Some(PathStart::Document(uri))
            } else {
                self.at = save;
                None
            }
        } else if self.peek() == Some(b'$') {
            Some(PathStart::Var(self.var()?))
        } else if self.peek() == Some(b'.') && self.peek2() != Some(b'.') {
            self.at += 1;
            Some(PathStart::Context)
        } else {
            None
        };

        match start {
            Some(start) => {
                let steps = self.step_list()?;
                Ok(Expr::Path(PathExpr { start, steps }))
            }
            None => {
                // Literal / call / parenthesized / relative path.
                if let Some(c) = self.peek() {
                    if c == b'"' || c == b'\'' {
                        return Ok(Expr::Lit(Literal::str(self.string_lit()?)));
                    }
                    if c.is_ascii_digit()
                        || (c == b'-' && matches!(self.peek2(), Some(d) if d.is_ascii_digit()))
                    {
                        return self.number();
                    }
                    if c == b'(' {
                        self.at += 1;
                        let mut items = vec![self.expr()?];
                        self.ws();
                        while self.lit(",") {
                            items.push(self.expr()?);
                            self.ws();
                        }
                        self.expect(")")?;
                        let inner = if items.len() == 1 {
                            items.pop().unwrap()
                        } else {
                            Expr::Sequence(items)
                        };
                        // A parenthesized expr may continue as a path.
                        return Ok(inner);
                    }
                }
                // Function call?
                let save = self.at;
                if let Ok(name) = self.name() {
                    self.ws();
                    if self.peek() == Some(b'(') {
                        self.at += 1;
                        let mut args = Vec::new();
                        self.ws();
                        if self.peek() != Some(b')') {
                            args.push(self.expr()?);
                            self.ws();
                            while self.lit(",") {
                                args.push(self.expr()?);
                                self.ws();
                            }
                        }
                        self.expect(")")?;
                        // Calls may continue as a path: count(...)/x not
                        // supported; treat call as terminal.
                        return Ok(Expr::Call(name, args));
                    }
                    self.at = save;
                }
                // Relative path from the context item.
                let steps = self.relative_steps()?;
                if steps.is_empty() {
                    return Err(self.err("expected expression"));
                }
                Ok(Expr::Path(PathExpr {
                    start: PathStart::Context,
                    steps,
                }))
            }
        }
    }

    fn number(&mut self) -> PResult<Expr> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.at]).unwrap_or("");
        text.parse::<f64>()
            .map(|n| Expr::Lit(Literal::num(n)))
            .map_err(|_| self.err("bad number"))
    }

    /// Steps following a primary: `/step`, `//step`.
    fn step_list(&mut self) -> PResult<Vec<Step>> {
        let mut steps = Vec::new();
        loop {
            self.ws();
            if self.lit("//") {
                let mut s = self.step()?;
                // `//x` is shorthand for descendant (with the step's
                // own axis discarded only if it was the default child).
                if s.axis == Axis::Child {
                    s.axis = Axis::Descendant;
                }
                steps.push(s);
            } else if self.lit("/") {
                steps.push(self.step()?);
            } else {
                break;
            }
        }
        Ok(steps)
    }

    /// A relative path that begins directly with a step.
    fn relative_steps(&mut self) -> PResult<Vec<Step>> {
        let first = self.step()?;
        let mut steps = vec![first];
        steps.extend(self.step_list()?);
        Ok(steps)
    }

    fn step(&mut self) -> PResult<Step> {
        self.ws();
        // Color spec.
        let color = if self.peek() == Some(b'{') {
            self.at += 1;
            let c = self.name()?;
            self.ws();
            self.expect("}")?;
            Some(c)
        } else {
            None
        };
        self.ws();
        // Attribute shorthand.
        if self.lit("@") {
            let name = self.name()?;
            return Ok(Step {
                color,
                axis: Axis::Attribute,
                test: NodeTest::Name(name),
                predicates: self.predicates()?,
            });
        }
        if self.lit("*") {
            return Ok(Step {
                color,
                axis: Axis::Child,
                test: NodeTest::AnyElement,
                predicates: self.predicates()?,
            });
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            return Ok(Step {
                color,
                axis: Axis::SelfAxis,
                test: NodeTest::AnyNode,
                predicates: self.predicates()?,
            });
        }
        let name = self.name()?;
        // Axis?
        self.ws();
        if self.lit("::") {
            let axis = match name.as_str() {
                "child" => Axis::Child,
                "descendant" => Axis::Descendant,
                "descendant-or-self" => Axis::DescendantOrSelf,
                "parent" => Axis::Parent,
                "ancestor" => Axis::Ancestor,
                "ancestor-or-self" => Axis::AncestorOrSelf,
                "self" => Axis::SelfAxis,
                "attribute" => Axis::Attribute,
                other => return Err(self.err(format!("unknown axis `{other}`"))),
            };
            self.ws();
            let test = if self.lit("node()") {
                NodeTest::AnyNode
            } else if self.lit("*") {
                NodeTest::AnyElement
            } else {
                NodeTest::Name(self.name()?)
            };
            return Ok(Step {
                color,
                axis,
                test,
                predicates: self.predicates()?,
            });
        }
        // Abbreviated: name test on the child axis.
        Ok(Step {
            color,
            axis: Axis::Child,
            test: NodeTest::Name(name),
            predicates: self.predicates()?,
        })
    }

    fn predicates(&mut self) -> PResult<Vec<Expr>> {
        let mut preds = Vec::new();
        loop {
            self.ws();
            if !self.lit("[") {
                break;
            }
            let e = self.or_expr()?;
            self.ws();
            self.expect("]")?;
            preds.push(e);
        }
        Ok(preds)
    }

    // ----- constructors -----------------------------------------------------------

    fn constructor(&mut self) -> PResult<Constructor> {
        self.nested(Self::constructor_body)
    }

    fn constructor_body(&mut self) -> PResult<Constructor> {
        self.expect("<")?;
        let name = self.name()?;
        let mut attrs = Vec::new();
        loop {
            self.ws();
            if self.lit("/>") {
                return Ok(Constructor {
                    name,
                    attrs,
                    children: Vec::new(),
                });
            }
            if self.lit(">") {
                break;
            }
            let aname = self.name()?;
            self.ws();
            self.expect("=")?;
            let v = self.string_lit()?;
            attrs.push((aname, v));
        }
        // Content.
        let mut children = Vec::new();
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unterminated constructor <{name}>"))),
                Some(b'<') => {
                    if self.b[self.at..].starts_with(b"</") {
                        flush_text(&mut text, &mut children);
                        self.expect("</")?;
                        let close = self.name()?;
                        if close != name {
                            return Err(self.err(format!(
                                "mismatched constructor close </{close}> for <{name}>"
                            )));
                        }
                        self.ws();
                        self.expect(">")?;
                        return Ok(Constructor {
                            name,
                            attrs,
                            children,
                        });
                    }
                    flush_text(&mut text, &mut children);
                    children.push(ConstructorItem::Element(self.constructor()?));
                }
                Some(b'{') => {
                    flush_text(&mut text, &mut children);
                    self.at += 1;
                    let e = self.expr()?;
                    self.ws();
                    self.expect("}")?;
                    children.push(ConstructorItem::Enclosed(e));
                }
                Some(c) => {
                    text.push(c as char);
                    self.at += 1;
                }
            }
        }
    }
}

fn flush_text(text: &mut String, children: &mut Vec<ConstructorItem>) {
    let trimmed = text.trim();
    if !trimmed.is_empty() {
        children.push(ConstructorItem::Text(trimmed.to_string()));
    }
    text.clear();
}

enum FlworOrUpdate {
    Flwor(Flwor),
    Update(UpdateStmt),
}

fn is_name_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_colored_path() {
        let e = parse_query(r#"document("mdb.xml")/{red}descendant::movie-genre"#).unwrap();
        let Expr::Path(p) = e else { panic!("not a path") };
        assert_eq!(p.start, PathStart::Document("mdb.xml".into()));
        assert_eq!(p.steps.len(), 1);
        assert_eq!(p.steps[0].color.as_deref(), Some("red"));
        assert_eq!(p.steps[0].axis, Axis::Descendant);
        assert_eq!(p.steps[0].test, NodeTest::Name("movie-genre".into()));
    }

    #[test]
    fn parse_paper_q1() {
        // Figure 3, Q1 (slightly reformatted).
        let q = r#"
            for $m in document("mdb.xml")/{red}descendant::movie-genre[{red}child::name = "Comedy"]/
                    {red}descendant::movie[contains({red}child::name, "Eve")]
            return createColor("black", <m-name> { $m/{red}child::name } </m-name>)
        "#;
        let e = parse_query(q).unwrap();
        let Expr::Flwor(f) = e else { panic!("not flwor") };
        assert_eq!(f.clauses.len(), 1);
        let FlworClause::For(v, body) = &f.clauses[0] else {
            panic!()
        };
        assert_eq!(v, "m");
        let Expr::Path(p) = body else { panic!() };
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].predicates.len(), 1);
        // return: createColor(black, ctor).
        let Expr::Call(name, args) = f.ret.as_ref() else {
            panic!()
        };
        assert_eq!(name, "createColor");
        assert_eq!(args.len(), 2);
        assert!(matches!(args[1], Expr::Ctor(_)));
        // Complexity matches Figure 11/12 style counting.
        let c = crate::ast::complexity(&Expr::Flwor(f));
        assert_eq!(c.var_bindings, 1);
        assert_eq!(c.path_exprs, 4); // main path + name pred + contains arg + ctor enclosed
    }

    #[test]
    fn parse_multi_var_for() {
        let q = r#"
            for $m in document("m.xml")/{green}descendant::movie,
                $a in document("m.xml")/{blue}descendant::actor
            where $m/{red}child::votes > 10
            return $a
        "#;
        let Expr::Flwor(f) = parse_query(q).unwrap() else {
            panic!()
        };
        assert_eq!(f.clauses.len(), 2);
        assert!(f.where_.is_some());
    }

    #[test]
    fn parse_comparisons_and_logic() {
        let e = parse_query(r#"$a/x = "v" and $b/y > 3 or $c/z != $d"#).unwrap();
        assert!(matches!(e, Expr::Or(_, _)));
    }

    #[test]
    fn lt_vs_constructor_disambiguation() {
        let cmp = parse_query("$a < 5").unwrap();
        assert!(matches!(cmp, Expr::Cmp(_, CmpOp::Lt, _)));
        let ctor = parse_query("<x>hi</x>").unwrap();
        assert!(matches!(ctor, Expr::Ctor(_)));
    }

    #[test]
    fn parse_nested_constructor_with_enclosed() {
        let e = parse_query(r#"<a t="1"><b>{ $x }</b>literal</a>"#).unwrap();
        let Expr::Ctor(c) = e else { panic!() };
        assert_eq!(c.name, "a");
        assert_eq!(c.attrs, vec![("t".to_string(), "1".to_string())]);
        assert_eq!(c.children.len(), 2);
        assert!(matches!(c.children[0], ConstructorItem::Element(_)));
        assert!(matches!(c.children[1], ConstructorItem::Text(_)));
    }

    #[test]
    fn parse_abbreviated_steps() {
        let Expr::Path(p) = parse_query("$m/{red}name/@id").unwrap() else {
            panic!()
        };
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::Child);
        assert_eq!(p.steps[0].color.as_deref(), Some("red"));
        assert_eq!(p.steps[1].axis, Axis::Attribute);
    }

    #[test]
    fn parse_double_slash() {
        let Expr::Path(p) = parse_query(r#"document("d")//movie"#).unwrap() else {
            panic!()
        };
        assert_eq!(p.steps[0].axis, Axis::Descendant);
    }

    #[test]
    fn parse_parent_and_ancestor_axes() {
        let Expr::Path(p) =
            parse_query("$r/{blue}parent::actor/{blue}ancestor::troupe").unwrap()
        else {
            panic!()
        };
        assert_eq!(p.steps[0].axis, Axis::Parent);
        assert_eq!(p.steps[1].axis, Axis::Ancestor);
    }

    #[test]
    fn parse_relative_path_in_predicate() {
        let Expr::Path(p) =
            parse_query(r#"document("d")/{red}descendant::movie[{red}child::name = "Eve"]"#)
                .unwrap()
        else {
            panic!()
        };
        let pred = &p.steps[0].predicates[0];
        let Expr::Cmp(l, CmpOp::Eq, _) = pred else { panic!() };
        let Expr::Path(inner) = l.as_ref() else { panic!() };
        assert_eq!(inner.start, PathStart::Context);
    }

    #[test]
    fn parse_order_by() {
        let q = r#"for $v in distinct-values(document("d")/{green}descendant::votes)
                   order by $v
                   return <v>{ $v }</v>"#;
        let Expr::Flwor(f) = parse_query(q).unwrap() else {
            panic!()
        };
        assert_eq!(f.order_by.len(), 1);
        assert!(f.order_by[0].1, "ascending by default");
    }

    #[test]
    fn parse_let_clause() {
        let q = "let $x := $m/{red}name return $x";
        let Expr::Flwor(f) = parse_query(q).unwrap() else {
            panic!()
        };
        assert!(matches!(f.clauses[0], FlworClause::Let(..)));
    }

    #[test]
    fn parse_update_statement() {
        let q = r#"
            for $m in document("d")/{red}descendant::movie
            where $m/{red}child::name = "Eve"
            update $m {
                replace value of $m/{red}child::votes with "42",
                delete $m/{red}child::scene,
                insert <note>fixed</note>
            }
        "#;
        let u = parse_update(q).unwrap();
        assert_eq!(u.target, "m");
        assert_eq!(u.actions.len(), 3);
        assert!(matches!(u.actions[0], UpdateAction::ReplaceValue(..)));
        assert!(matches!(u.actions[1], UpdateAction::Delete(_)));
        assert!(matches!(u.actions[2], UpdateAction::Insert(_)));
    }

    #[test]
    fn parse_errors_have_positions() {
        let e = parse_query("for $m in").unwrap_err();
        assert!(e.offset > 0);
        assert!(parse_query("$a/{red").is_err());
        assert!(parse_query(r#"<a>{ $x </a>"#).is_err());
        assert!(parse_query("document(").is_err());
    }

    #[test]
    fn self_closing_constructor() {
        let Expr::Ctor(c) = parse_query(r#"<empty flag="y"/>"#).unwrap() else {
            panic!()
        };
        assert!(c.children.is_empty());
        assert_eq!(c.attrs.len(), 1);
    }

    #[test]
    fn sequence_expression() {
        let e = parse_query("($a, $b, $c)").unwrap();
        let Expr::Sequence(items) = e else { panic!() };
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn parse_paper_q4_multicolor_path() {
        // Q4's path uses three different colors across steps.
        let q = r#"document("mdb.xml")/{green}descendant::movie-award
            [contains({green}child::name, "Oscar")]/{green}descendant::movie
            [{green}child::votes > 10]/{red}child::movie-role/{blue}parent::actor"#;
        let Expr::Path(p) = parse_query(q).unwrap() else {
            panic!()
        };
        let colors: Vec<&str> = p.steps.iter().map(|s| s.color.as_deref().unwrap()).collect();
        assert_eq!(colors, ["green", "green", "red", "blue"]);
        assert_eq!(p.steps[3].axis, Axis::Parent);
    }

    fn nest(open: &str, inner: &str, close: &str, levels: usize) -> String {
        format!("{}{inner}{}", open.repeat(levels), close.repeat(levels))
    }

    /// Every recursive form of the grammar fails past `MAX_NESTING`
    /// levels with a typed error instead of overflowing the stack.
    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        const DEEP: usize = 100_000;
        for q in [
            nest("(", "1", ")", DEEP),
            nest("a[", "b", "]", DEEP),
            nest("<a>", "", "</a>", DEEP),
            nest("<a>{", "1", "}</a>", DEEP),
            nest("for $x in 1 return ", "1", "", DEEP),
        ] {
            let e = parse_query(&q).unwrap_err();
            assert!(e.message.contains("nesting"), "{e}");
        }
        let update = format!("for $x in 1 update $x {{ delete {} }}", nest("(", "$x", ")", DEEP));
        assert!(parse_update(&update).unwrap_err().message.contains("nesting"));
        // The outermost expression is the first level.
        assert!(parse_query(&nest("(", "1", ")", MAX_NESTING - 1)).is_ok());
        assert!(parse_query(&nest("(", "1", ")", MAX_NESTING)).is_err());
        assert!(parse_query(&nest("a[", "b", "]", MAX_NESTING - 1)).is_ok());
        assert!(parse_query(&nest("<a>", "", "</a>", MAX_NESTING - 1)).is_ok());
    }

    /// Deterministic token soup: both parsers must reject arbitrary
    /// token sequences with a typed error whose offset lies inside the
    /// input — never a panic. This is the same invariant mctfuzz
    /// checks on every case (see `mct_sim::check_soup`); the RNG is an
    /// inlined xorshift so this crate gains no dev-dependency.
    #[test]
    fn parsers_survive_token_soup() {
        const SOUP: [&str; 48] = [
            "document", "(", ")", "\"d\"", "/", "{", "}", "{red}", "{nope}", "child",
            "descendant", "parent", "self", "::", "*", "node()", "[", "]", "=", "!=", "<", "<=",
            ">", ">=", "\"", "'", "$", "$x", "for", "let", ":=", "in", "where", "order", "by",
            "return", "update", "delete", "insert", "replace", "value", "of", "with", "and",
            "contains", "1", "3.5", "é",
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..500 {
            let n = (next() % 25) as usize;
            let mut text = String::new();
            for _ in 0..n {
                text.push_str(SOUP[next() as usize % SOUP.len()]);
                if next() % 5 < 2 {
                    text.push(' ');
                }
            }
            for err in [
                parse_query(&text).map(|_| ()).err(),
                parse_update(&text).map(|_| ()).err(),
            ]
            .into_iter()
            .flatten()
            {
                assert!(
                    err.offset <= text.len(),
                    "case {case}: error offset {} past end of {:?} (len {})",
                    err.offset,
                    text,
                    text.len()
                );
            }
        }
    }
}
