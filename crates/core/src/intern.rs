//! Global string interner.
//!
//! Predicates, ontology types and locales are drawn from a controlled,
//! slowly-growing vocabulary, while triples number in the billions in the
//! paper's deployment. Interning turns every such string into a 4-byte
//! [`Symbol`], keeping [`ExtendedTriple`](crate::ExtendedTriple) compact and
//! making predicate comparisons integer comparisons (hot in blocking, joins
//! and view maintenance).
//!
//! The interner is a process-global, append-only table guarded by an RwLock;
//! lookups of already-interned strings take the read path only.

use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;
use std::sync::OnceLock;

use crate::FxHashMap;

/// An interned string. Two `Symbol`s are equal iff their strings are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Resolve this symbol back to its string.
    pub fn text(self) -> Arc<str> {
        resolve(self)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", resolve(*self))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", resolve(*self))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        intern(s)
    }
}

struct InternerInner {
    by_text: FxHashMap<Arc<str>, Symbol>,
    by_id: Vec<Arc<str>>,
}

struct Interner {
    inner: RwLock<InternerInner>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            inner: RwLock::new(InternerInner {
                by_text: FxHashMap::default(),
                by_id: Vec::new(),
            }),
        }
    }

    fn intern(&self, text: &str) -> Symbol {
        if let Some(&sym) = self.inner.read().by_text.get(text) {
            return sym;
        }
        let mut inner = self.inner.write();
        // Double-check: another writer may have interned between our locks.
        if let Some(&sym) = inner.by_text.get(text) {
            return sym;
        }
        let arc: Arc<str> = Arc::from(text);
        let sym = Symbol(u32::try_from(inner.by_id.len()).expect("interner overflow"));
        inner.by_id.push(Arc::clone(&arc));
        inner.by_text.insert(arc, sym);
        sym
    }

    fn resolve(&self, sym: Symbol) -> Arc<str> {
        Arc::clone(&self.inner.read().by_id[sym.0 as usize])
    }
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new)
}

/// Intern `text`, returning its process-wide [`Symbol`].
pub fn intern(text: &str) -> Symbol {
    global().intern(text)
}

/// Resolve a [`Symbol`] back to its string.
///
/// # Panics
/// Panics if `sym` was not produced by [`intern`] in this process.
pub fn resolve(sym: Symbol) -> Arc<str> {
    global().resolve(sym)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("educated_at");
        let b = intern("educated_at");
        assert_eq!(a, b);
        assert_eq!(&*resolve(a), "educated_at");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = intern("school");
        let b = intern("degree");
        assert_ne!(a, b);
        assert_eq!(&*resolve(a), "school");
        assert_eq!(&*resolve(b), "degree");
    }

    #[test]
    fn empty_string_is_internable() {
        let e = intern("");
        assert_eq!(&*resolve(e), "");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let words: Vec<String> = (0..64).map(|i| format!("pred_{i}")).collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let words = words.clone();
                std::thread::spawn(move || words.iter().map(|w| intern(w)).collect::<Vec<_>>())
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "all threads must agree on symbols");
        }
    }

    #[test]
    fn display_uses_underlying_text() {
        let s = intern("genre");
        assert_eq!(s.to_string(), "genre");
        assert_eq!(format!("{s:?}"), "`genre`");
    }
}
