//! DTD-style schemas, validation, and the paper's shallow/deep test.
//!
//! The paper (Definition 3.3, after Arenas & Libkin's XNF) calls a
//! schema `(D, F)` — a DTD plus functional dependencies — *shallow* iff
//! for every non-trivial FD `S → p.@attr` or `S → p.content` implied by
//! `(D, F)`, the FD `S → p` is also implied; otherwise it is *deep*.
//!
//! We implement a practical FD system over DTD paths with the tree
//! axioms:
//!
//! * **reflexivity** — `S → p` for every `p ∈ S`;
//! * **ancestor rule** — a node determines its ancestors (`S → p`
//!   implies `S → prefix(p)`), because a tree node has one parent;
//! * **node-property rule** — a node determines its own attributes and
//!   content (`S → p` implies `S → p.@a` and `S → p.content`);
//! * **transitivity** over the declared FDs.
//!
//! Implication is decided by a fixpoint chase over these axioms and the
//! declared FDs. Since the only FDs that can *introduce* an `@attr` /
//! `content` right-hand side (other than via the node-property rule,
//! which makes them trivially shallow) are declared, it suffices to
//! check each declared attr/content FD against the closure of its own
//! left-hand side — exactly what [`Dtd::is_shallow`] does.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use crate::document::Document;
use crate::node::{NodeId, NodeKind};

/// Occurrence quantifier in a content model, as in DTDs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Quantifier {
    /// Exactly one.
    One,
    /// `?` — zero or one.
    Optional,
    /// `+` — one or more.
    Plus,
    /// `*` — zero or more.
    Star,
}

impl Quantifier {
    /// Minimum number of occurrences.
    pub fn min(self) -> usize {
        match self {
            Quantifier::One | Quantifier::Plus => 1,
            Quantifier::Optional | Quantifier::Star => 0,
        }
    }

    /// Maximum occurrences (`None` = unbounded).
    pub fn max(self) -> Option<usize> {
        match self {
            Quantifier::One | Quantifier::Optional => Some(1),
            Quantifier::Plus | Quantifier::Star => None,
        }
    }

    /// DTD suffix for display.
    pub fn suffix(self) -> &'static str {
        match self {
            Quantifier::One => "",
            Quantifier::Optional => "?",
            Quantifier::Plus => "+",
            Quantifier::Star => "*",
        }
    }
}

/// One `name quantifier` item in a sequential content model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ContentParticle {
    /// Child element name.
    pub name: String,
    /// How many times it may occur.
    pub quant: Quantifier,
}

/// An attribute declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AttrDecl {
    /// Attribute name.
    pub name: String,
    /// `#REQUIRED` vs `#IMPLIED`.
    pub required: bool,
}

/// An element type declaration: a sequential content model (particles
/// in order) plus whether text content (`#PCDATA`) is allowed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ElementDecl {
    /// Element type name.
    pub name: String,
    /// Ordered child particles.
    pub children: Vec<ContentParticle>,
    /// Declared attributes.
    pub attrs: Vec<AttrDecl>,
    /// Whether `#PCDATA` is allowed.
    pub has_text: bool,
}

/// A path from the DTD root, e.g. `movies/movie/name`, stored as its
/// name components.
pub type DtdPath = Vec<String>;

/// Right-hand side of a functional dependency.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum FdTarget {
    /// The node at this path.
    Path(DtdPath),
    /// `p.@attr`.
    Attr(DtdPath, String),
    /// `p.content`.
    Content(DtdPath),
}

impl FdTarget {
    /// The underlying node path.
    pub fn path(&self) -> &DtdPath {
        match self {
            FdTarget::Path(p) | FdTarget::Attr(p, _) | FdTarget::Content(p) => p,
        }
    }
}

/// A functional dependency `S → target` over DTD paths.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fd {
    /// Determinant set of targets (paths / attrs / contents).
    pub lhs: Vec<FdTarget>,
    /// Determined target.
    pub rhs: FdTarget,
}

/// A DTD: element declarations plus functional dependencies.
#[derive(Clone, Debug, Default)]
pub struct Dtd {
    /// Root element name.
    pub root: String,
    elements: HashMap<String, ElementDecl>,
    /// Declared functional dependencies.
    pub fds: Vec<Fd>,
}

/// A validation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValidationError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "validation error: {}", self.message)
    }
}

impl std::error::Error for ValidationError {}

impl Dtd {
    /// Start an empty DTD rooted at `root`.
    pub fn new(root: &str) -> Self {
        Dtd {
            root: root.to_string(),
            elements: HashMap::new(),
            fds: Vec::new(),
        }
    }

    /// Declare an element type. `children` uses `(name, quantifier)`
    /// pairs; `has_text` permits `#PCDATA`.
    pub fn element(
        mut self,
        name: &str,
        children: &[(&str, Quantifier)],
        attrs: &[&str],
        has_text: bool,
    ) -> Self {
        self.elements.insert(
            name.to_string(),
            ElementDecl {
                name: name.to_string(),
                children: children
                    .iter()
                    .map(|(n, q)| ContentParticle {
                        name: n.to_string(),
                        quant: *q,
                    })
                    .collect(),
                attrs: attrs
                    .iter()
                    .map(|a| AttrDecl {
                        name: a.to_string(),
                        required: false,
                    })
                    .collect(),
                has_text,
            },
        );
        self
    }

    /// Declare a functional dependency.
    pub fn fd(mut self, lhs: Vec<FdTarget>, rhs: FdTarget) -> Self {
        self.fds.push(Fd { lhs, rhs });
        self
    }

    /// Look up an element declaration.
    pub fn get(&self, name: &str) -> Option<&ElementDecl> {
        self.elements.get(name)
    }

    // ----- validation -------------------------------------------------------

    /// Validate a document against this DTD: root name, content models
    /// (greedy sequential matching), attribute declarations.
    pub fn validate(&self, doc: &Document) -> Result<(), ValidationError> {
        let root = doc.root_element().ok_or_else(|| ValidationError {
            message: "document has no root element".into(),
        })?;
        if doc.name_str(root) != Some(self.root.as_str()) {
            return Err(ValidationError {
                message: format!(
                    "root element is <{}>, expected <{}>",
                    doc.name_str(root).unwrap_or("?"),
                    self.root
                ),
            });
        }
        self.validate_element(doc, root)
    }

    fn validate_element(&self, doc: &Document, el: NodeId) -> Result<(), ValidationError> {
        let name = doc.name_str(el).unwrap_or("?").to_string();
        let Some(decl) = self.elements.get(&name) else {
            return Err(ValidationError {
                message: format!("undeclared element <{name}>"),
            });
        };
        // Attributes must be declared.
        for attr in doc.attributes(el) {
            let aname = doc.name_str(attr).unwrap_or("?");
            if !decl.attrs.iter().any(|a| a.name == aname) {
                return Err(ValidationError {
                    message: format!("undeclared attribute {aname} on <{name}>"),
                });
            }
        }
        // Children: greedy sequential matching against the particles.
        let mut particles = decl.children.iter();
        let mut current: Option<&ContentParticle> = particles.next();
        let mut seen = 0usize;
        for child in doc.children(el) {
            match doc.kind(child) {
                NodeKind::Text => {
                    if !decl.has_text {
                        return Err(ValidationError {
                            message: format!("text content not allowed in <{name}>"),
                        });
                    }
                    continue;
                }
                NodeKind::Comment | NodeKind::ProcessingInstruction => continue,
                NodeKind::Element => {}
                k => {
                    return Err(ValidationError {
                        message: format!("unexpected {k:?} child in <{name}>"),
                    })
                }
            }
            let cname = doc.name_str(child).unwrap_or("?");
            loop {
                match current {
                    Some(p) if p.name == cname => {
                        seen += 1;
                        if p.quant.max() == Some(seen) {
                            current = particles.next();
                            seen = 0;
                        }
                        break;
                    }
                    Some(p) if seen >= p.quant.min() => {
                        current = particles.next();
                        seen = 0;
                    }
                    Some(p) => {
                        return Err(ValidationError {
                            message: format!(
                                "in <{name}>: expected <{}>{}, found <{cname}>",
                                p.name,
                                p.quant.suffix()
                            ),
                        })
                    }
                    None => {
                        return Err(ValidationError {
                            message: format!("in <{name}>: unexpected <{cname}>"),
                        })
                    }
                }
            }
            self.validate_element(doc, child)?;
        }
        // Remaining particles must be satisfiable with zero occurrences.
        if let Some(p) = current {
            if seen < p.quant.min() {
                return Err(ValidationError {
                    message: format!(
                        "in <{name}>: missing required <{}>{}",
                        p.name,
                        p.quant.suffix()
                    ),
                });
            }
        }
        for p in particles {
            if p.quant.min() > 0 {
                return Err(ValidationError {
                    message: format!("in <{name}>: missing required <{}>", p.name),
                });
            }
        }
        Ok(())
    }

    // ----- shallow/deep classification (Definition 3.3) ---------------------

    /// Closure of a determinant set under the tree axioms and declared
    /// FDs. Returns every [`FdTarget`] implied by `lhs`.
    pub fn closure(&self, lhs: &[FdTarget]) -> BTreeSet<FdTarget> {
        // Paths longer than anything mentioned in the FDs (or the lhs)
        // cannot affect implication; capping there keeps the chase
        // terminating on recursive DTDs.
        let max_depth = self
            .fds
            .iter()
            .flat_map(|fd| fd.lhs.iter().chain(std::iter::once(&fd.rhs)))
            .chain(lhs.iter())
            .map(|t| t.path().len())
            .max()
            .unwrap_or(0);
        let mut set: BTreeSet<FdTarget> = BTreeSet::new();
        let mut frontier: Vec<FdTarget> = lhs.to_vec();
        while let Some(t) = frontier.pop() {
            if !set.insert(t.clone()) {
                continue;
            }
            if let FdTarget::Path(p) = &t {
                // Ancestor rule.
                if p.len() > 1 {
                    frontier.push(FdTarget::Path(p[..p.len() - 1].to_vec()));
                }
                // Node-property rule: a node determines its declared
                // attributes and its content; it also determines any
                // child that can occur at most once (single-child rule).
                if let Some(last) = p.last() {
                    if let Some(decl) = self.elements.get(last) {
                        for a in &decl.attrs {
                            frontier.push(FdTarget::Attr(p.clone(), a.name.clone()));
                        }
                        if decl.has_text {
                            frontier.push(FdTarget::Content(p.clone()));
                        }
                        if p.len() < max_depth {
                            for part in &decl.children {
                                if part.quant.max() == Some(1) {
                                    let mut child = p.clone();
                                    child.push(part.name.clone());
                                    frontier.push(FdTarget::Path(child));
                                }
                            }
                        }
                    }
                }
            }
            // Transitivity over declared FDs.
            for fd in &self.fds {
                if !set.contains(&fd.rhs) && fd.lhs.iter().all(|l| set.contains(l)) {
                    frontier.push(fd.rhs.clone());
                }
            }
        }
        set
    }

    /// Whether `lhs → rhs` is implied by `(D, F)`.
    pub fn implies(&self, lhs: &[FdTarget], rhs: &FdTarget) -> bool {
        self.closure(lhs).contains(rhs)
    }

    /// Definition 3.3: the schema is **shallow** iff for every
    /// non-trivial implied FD `S → p.@attr` / `S → p.content`, the FD
    /// `S → p` is also implied. Returns the offending FD when deep.
    pub fn shallow_violation(&self) -> Option<&Fd> {
        self.fds.iter().find(|fd| {
            let node_path = match &fd.rhs {
                FdTarget::Attr(p, _) | FdTarget::Content(p) => p.clone(),
                FdTarget::Path(_) => return false,
            };
            // Non-trivial: rhs not already in lhs's reflexive part.
            if fd.lhs.contains(&fd.rhs) {
                return false;
            }
            !self.implies(&fd.lhs, &FdTarget::Path(node_path))
        })
    }

    /// True when the schema is shallow per Definition 3.3.
    pub fn is_shallow(&self) -> bool {
        self.shallow_violation().is_none()
    }

    /// True when the schema is deep (not shallow).
    pub fn is_deep(&self) -> bool {
        !self.is_shallow()
    }
}

/// Convenience: build a [`DtdPath`] from `/`-separated text.
pub fn path(s: &str) -> DtdPath {
    s.split('/').map(str::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn q(s: &str) -> Quantifier {
        match s {
            "?" => Quantifier::Optional,
            "+" => Quantifier::Plus,
            "*" => Quantifier::Star,
            _ => Quantifier::One,
        }
    }

    fn movie_dtd() -> Dtd {
        Dtd::new("movies")
            .element("movies", &[("movie", q("*"))], &[], false)
            .element(
                "movie",
                &[("name", q("")), ("actor", q("*"))],
                &["year"],
                false,
            )
            .element("name", &[], &[], true)
            .element("actor", &[("name", q(""))], &["id"], false)
    }

    #[test]
    fn validate_ok() {
        let d = parse(
            r#"<movies><movie year="1950"><name>Eve</name><actor id="a1"><name>Bette</name></actor></movie></movies>"#,
        )
        .unwrap();
        movie_dtd().validate(&d).unwrap();
    }

    #[test]
    fn validate_missing_required_child() {
        let d = parse("<movies><movie/></movies>").unwrap();
        let e = movie_dtd().validate(&d).unwrap_err();
        assert!(e.message.contains("missing required <name>"), "{e}");
    }

    #[test]
    fn validate_wrong_order() {
        let d = parse("<movies><movie><actor id='a'><name>x</name></actor><name>Eve</name></movie></movies>")
            .unwrap();
        assert!(movie_dtd().validate(&d).is_err());
    }

    #[test]
    fn validate_undeclared_attribute() {
        let d = parse(r#"<movies><movie bogus="1"><name>Eve</name></movie></movies>"#).unwrap();
        let e = movie_dtd().validate(&d).unwrap_err();
        assert!(e.message.contains("undeclared attribute"));
    }

    #[test]
    fn validate_undeclared_element() {
        let d = parse("<movies><tvshow/></movies>").unwrap();
        assert!(movie_dtd().validate(&d).is_err());
    }

    #[test]
    fn validate_unexpected_text() {
        let d = parse("<movies>stray text</movies>").unwrap();
        let e = movie_dtd().validate(&d).unwrap_err();
        assert!(e.message.contains("text content not allowed"));
    }

    #[test]
    fn validate_root_mismatch() {
        let d = parse("<films/>").unwrap();
        assert!(movie_dtd().validate(&d).is_err());
    }

    #[test]
    fn plus_quantifier_requires_one() {
        let dtd = Dtd::new("r")
            .element("r", &[("a", q("+"))], &[], false)
            .element("a", &[], &[], true);
        assert!(dtd.validate(&parse("<r/>").unwrap()).is_err());
        assert!(dtd.validate(&parse("<r><a/><a/></r>").unwrap()).is_ok());
    }

    #[test]
    fn optional_quantifier_allows_zero_or_one() {
        let dtd = Dtd::new("r")
            .element("r", &[("a", q("?"))], &[], false)
            .element("a", &[], &[], true);
        assert!(dtd.validate(&parse("<r/>").unwrap()).is_ok());
        assert!(dtd.validate(&parse("<r><a/></r>").unwrap()).is_ok());
        assert!(dtd.validate(&parse("<r><a/><a/></r>").unwrap()).is_err());
    }

    // ---- Definition 3.3 ----------------------------------------------------

    /// Shallow-1 from Example 1.1: flat, actors referenced by id; the
    /// only FDs say an actor id determines the actor node — node FDs,
    /// which never violate shallowness.
    fn shallow_schema() -> Dtd {
        Dtd::new("db")
            .element("db", &[("movie", q("*")), ("actor", q("*"))], &[], false)
            .element("movie", &[("name", q(""))], &["id", "roleIdRefs"], false)
            .element("actor", &[("name", q(""))], &["id", "roleIdRefs"], false)
            .element("name", &[], &[], true)
            .fd(
                vec![FdTarget::Attr(path("db/actor"), "id".into())],
                FdTarget::Path(path("db/actor")),
            )
    }

    /// Deep-1: actors replicated under each movie; the actor's name
    /// (content of db/movie/actor/name) is determined by the actor id,
    /// but the id does NOT determine the *node* (it occurs once per
    /// movie the actor plays in) — the classic XNF violation.
    fn deep_schema() -> Dtd {
        Dtd::new("db")
            .element("db", &[("movie", q("*"))], &[], false)
            .element("movie", &[("name", q("")), ("actor", q("*"))], &[], false)
            .element("actor", &[("name", q(""))], &["id"], false)
            .element("name", &[], &[], true)
            .fd(
                vec![FdTarget::Attr(path("db/movie/actor"), "id".into())],
                FdTarget::Content(path("db/movie/actor/name")),
            )
    }

    #[test]
    fn shallow_schema_is_shallow() {
        assert!(shallow_schema().is_shallow());
    }

    #[test]
    fn deep_schema_is_deep() {
        let d = deep_schema();
        assert!(d.is_deep());
        let v = d.shallow_violation().unwrap();
        assert!(matches!(v.rhs, FdTarget::Content(_)));
    }

    #[test]
    fn deep_becomes_shallow_when_node_is_determined() {
        // Adding "actor id determines the actor node" makes the schema
        // shallow again (the replication is declared away).
        let d = deep_schema().fd(
            vec![FdTarget::Attr(path("db/movie/actor"), "id".into())],
            FdTarget::Path(path("db/movie/actor")),
        );
        assert!(d.is_shallow());
    }

    #[test]
    fn closure_includes_ancestors_and_properties() {
        let d = deep_schema();
        let c = d.closure(&[FdTarget::Path(path("db/movie/actor"))]);
        assert!(c.contains(&FdTarget::Path(path("db/movie"))));
        assert!(c.contains(&FdTarget::Path(path("db"))));
        assert!(c.contains(&FdTarget::Attr(path("db/movie/actor"), "id".into())));
    }

    #[test]
    fn trivial_fd_is_not_a_violation() {
        // S → s for s ∈ S is trivial even when s is an attribute target.
        let d = Dtd::new("r").element("r", &[], &["a"], false).fd(
            vec![FdTarget::Attr(path("r"), "a".into())],
            FdTarget::Attr(path("r"), "a".into()),
        );
        assert!(d.is_shallow());
    }

    #[test]
    fn implies_is_reflexive_and_transitive() {
        let d = shallow_schema();
        let p = FdTarget::Path(path("db/actor"));
        assert!(d.implies(std::slice::from_ref(&p), &p));
        // id → node, node → name content (node-property via has_text on name?
        // name is a child element, not content; but id → node → its attrs).
        assert!(d.implies(
            &[FdTarget::Attr(path("db/actor"), "id".into())],
            &FdTarget::Attr(path("db/actor"), "roleIdRefs".into())
        ));
    }
}
