//! Colors: the distinguishing property of the MCT data model (§3.1).
//!
//! A database has a finite palette of colors; every node carries a
//! non-empty set of them (the `dm:colors` accessor, §3.2). Color sets
//! are a `u32` bitmask, capping a database at 32 colors — far beyond
//! the paper's workloads (TPC-W uses 5, SIGMOD-Record 2).

use std::fmt;

/// Identifier of a color within a database's palette.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColorId(pub u8);

impl ColorId {
    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ColorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A set of colors (bitmask over the palette).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ColorSet(pub u32);

impl ColorSet {
    /// The empty set.
    pub const EMPTY: ColorSet = ColorSet(0);

    /// Singleton set.
    #[inline]
    pub fn single(c: ColorId) -> ColorSet {
        ColorSet(1 << c.0)
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, c: ColorId) -> bool {
        self.0 & (1 << c.0) != 0
    }

    /// Add a color (returns the new set).
    #[inline]
    #[must_use]
    pub fn with(self, c: ColorId) -> ColorSet {
        ColorSet(self.0 | (1 << c.0))
    }

    /// Remove a color (returns the new set).
    #[inline]
    #[must_use]
    pub fn without(self, c: ColorId) -> ColorSet {
        ColorSet(self.0 & !(1 << c.0))
    }

    /// Union.
    #[inline]
    #[must_use]
    pub fn union(self, other: ColorSet) -> ColorSet {
        ColorSet(self.0 | other.0)
    }

    /// Intersection.
    #[inline]
    #[must_use]
    pub fn intersect(self, other: ColorSet) -> ColorSet {
        ColorSet(self.0 & other.0)
    }

    /// Number of colors in the set.
    #[inline]
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True when no colors are present.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over member colors in id order.
    pub fn iter(self) -> impl Iterator<Item = ColorId> {
        (0..32u8)
            .filter(move |&i| self.0 & (1 << i) != 0)
            .map(ColorId)
    }
}

impl fmt::Debug for ColorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{c:?}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ColorId> for ColorSet {
    fn from_iter<I: IntoIterator<Item = ColorId>>(iter: I) -> Self {
        iter.into_iter()
            .fold(ColorSet::EMPTY, |acc, c| acc.with(c))
    }
}

/// The palette: the database's registered colors, by name.
#[derive(Clone, Debug, Default)]
pub struct Palette {
    names: Vec<String>,
}

impl Palette {
    /// Most colors a palette holds (a [`ColorSet`] is a `u32`).
    pub const CAPACITY: usize = 32;

    /// Empty palette.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a color (idempotent by name).
    ///
    /// # Panics
    /// Panics when the 32-color limit is exceeded.
    pub fn register(&mut self, name: &str) -> ColorId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return ColorId(i as u8);
        }
        assert!(
            self.names.len() < Self::CAPACITY,
            "palette limited to 32 colors"
        );
        self.names.push(name.to_string());
        ColorId((self.names.len() - 1) as u8)
    }

    /// Forget every color registered after the first `len` (a rollback).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.names.truncate(len);
    }

    /// Look up a color by name without registering.
    pub fn get(&self, name: &str) -> Option<ColorId> {
        self.names.iter().position(|n| n == name).map(|i| ColorId(i as u8))
    }

    /// Name of a color.
    pub fn name(&self, c: ColorId) -> &str {
        &self.names[c.index()]
    }

    /// Number of registered colors.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no colors are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(ColorId, name)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ColorId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (ColorId(i as u8), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations() {
        let r = ColorId(0);
        let g = ColorId(1);
        let b = ColorId(2);
        let rg = ColorSet::single(r).with(g);
        assert!(rg.contains(r));
        assert!(rg.contains(g));
        assert!(!rg.contains(b));
        assert_eq!(rg.len(), 2);
        assert_eq!(rg.without(r), ColorSet::single(g));
        assert_eq!(rg.union(ColorSet::single(b)).len(), 3);
        assert_eq!(rg.intersect(ColorSet::single(g)), ColorSet::single(g));
    }

    #[test]
    fn set_iteration_in_order() {
        let s: ColorSet = [ColorId(3), ColorId(0), ColorId(7)].into_iter().collect();
        let v: Vec<u8> = s.iter().map(|c| c.0).collect();
        assert_eq!(v, vec![0, 3, 7]);
    }

    #[test]
    fn empty_set() {
        assert!(ColorSet::EMPTY.is_empty());
        assert_eq!(ColorSet::EMPTY.len(), 0);
        assert_eq!(ColorSet::EMPTY.iter().count(), 0);
    }

    #[test]
    fn palette_register_is_idempotent() {
        let mut p = Palette::new();
        let red = p.register("red");
        let green = p.register("green");
        assert_ne!(red, green);
        assert_eq!(p.register("red"), red);
        assert_eq!(p.len(), 2);
        assert_eq!(p.name(red), "red");
        assert_eq!(p.get("green"), Some(green));
        assert_eq!(p.get("blue"), None);
    }

    #[test]
    fn high_color_ids_work() {
        let mut p = Palette::new();
        let ids: Vec<ColorId> = (0..32).map(|i| p.register(&format!("c{i}"))).collect();
        let all: ColorSet = ids.iter().copied().collect();
        assert_eq!(all.len(), 32);
        assert!(all.contains(ColorId(31)));
    }

    #[test]
    #[should_panic(expected = "32 colors")]
    fn palette_overflow_panics() {
        let mut p = Palette::new();
        for i in 0..33 {
            p.register(&format!("c{i}"));
        }
    }
}
