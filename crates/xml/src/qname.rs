//! String interning for qualified names.
//!
//! Element tags, attribute names, and processing-instruction targets are
//! interned into a [`Sym`] (a `u32` index). The rest of the system —
//! storage keys, index entries, query node tests — compares names by
//! `Sym`, never by string, which keeps hot comparisons branch-free and
//! allocation-free.

use std::collections::HashMap;
use std::fmt;

/// An interned string. `Sym`s are only meaningful relative to the
/// [`Interner`] that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// Index into the interner's table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// A monotonically growing string table.
///
/// Strings are never removed; `Sym` values stay valid for the lifetime
/// of the interner. Lookup is by hash map; resolution is an indexed read.
#[derive(Default, Clone)]
pub struct Interner {
    strings: Vec<Box<str>>,
    map: HashMap<Box<str>, Sym>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(
            u32::try_from(self.strings.len()).expect("interner overflow: more than 2^32 names"),
        );
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Look up a symbol without interning. Returns `None` if `s` was
    /// never interned.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Forget every string interned after the first `len`, so the
    /// interner is what it was when [`Self::len`] returned `len`
    /// (a rollback). No-op when `len >= self.len()`.
    pub fn truncate(&mut self, len: usize) {
        let from = len.min(self.strings.len());
        for s in self.strings.drain(from..) {
            self.map.remove(&s);
        }
    }

    /// Iterate over `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), s.as_ref()))
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.strings.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("movie");
        let b = i.intern("movie");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        let mut i = Interner::new();
        let a = i.intern("movie");
        let b = i.intern("actor");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "movie");
        assert_eq!(i.resolve(b), "actor");
    }

    #[test]
    fn truncate_forgets_later_strings_and_reinterns_them_in_order() {
        let mut i = Interner::new();
        let a = i.intern("a");
        i.intern("b");
        i.intern("c");
        i.truncate(1);
        assert_eq!(i.len(), 1);
        assert_eq!(i.get("b"), None);
        assert_eq!(i.get("a"), Some(a));
        assert_eq!(i.intern("c"), Sym(1), "symbols are handed out again from the cut");
        i.truncate(9);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("x").is_none());
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_string_is_internable() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
    }

    #[test]
    fn iter_yields_in_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let v: Vec<_> = i.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(v, ["a", "b"]);
    }

    #[test]
    fn syms_are_dense_indices() {
        let mut i = Interner::new();
        for n in 0..100 {
            let s = i.intern(&format!("name{n}"));
            assert_eq!(s.index(), n);
        }
    }
}
