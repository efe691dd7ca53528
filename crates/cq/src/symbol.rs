//! Global string interner.
//!
//! Queries, constraints and the symbolic chase instances manipulate very large
//! numbers of predicate names, tag names and string constants. Interning them
//! as `u32` [`Symbol`]s makes atom comparison, hashing and homomorphism search
//! cheap. The interner is global and append-only, guarded by an `RwLock`;
//! interned strings are leaked (`Box::leak`) so that resolving a symbol back
//! to its string ([`symbol_name`]) returns a `&'static str` without
//! allocating — the resolve path sits on hot loops (per-atom cost estimation,
//! navigation classification in the backchase reachability graph) where a
//! fresh `String` per call showed up in profiles. The leak is bounded by the
//! number of distinct strings ever interned, which the interner retains for
//! the lifetime of the process anyway.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned string. Cheap to copy, hash and compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

struct Interner {
    names: Vec<&'static str>,
    map: HashMap<&'static str, u32>,
}

impl Interner {
    fn new() -> Self {
        Interner { names: Vec::new(), map: HashMap::new() }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = self.names.len() as u32;
        self.names.push(leaked);
        self.map.insert(leaked, id);
        id
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::new()))
}

/// Intern `s`, returning its [`Symbol`].
///
/// A poisoned lock is recovered, here and in [`symbol_name`]: the interner
/// is append-only and a name is pushed before the map points at it, so a
/// panic under a guard leaves it valid — and a resident service must not
/// lose every later request to one that died.
pub fn symbol(s: &str) -> Symbol {
    // Fast path: check under a read lock first (most symbols repeat).
    {
        let guard = interner().read().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = guard.map.get(s) {
            return Symbol(id);
        }
    }
    let mut guard = interner().write().unwrap_or_else(PoisonError::into_inner);
    Symbol(guard.intern(s))
}

/// Resolve a [`Symbol`] back to its string. Allocation-free: the interner
/// leaks each distinct string once, so the resolved name is `'static`.
pub fn symbol_name(sym: Symbol) -> &'static str {
    let guard = interner().read().unwrap_or_else(PoisonError::into_inner);
    guard.names.get(sym.0 as usize).copied().unwrap_or("<sym:invalid>")
}

impl Symbol {
    /// Intern a string (convenience constructor).
    pub fn intern(s: &str) -> Symbol {
        symbol(s)
    }

    /// The interned string.
    pub fn as_str(&self) -> &'static str {
        symbol_name(*self)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", symbol_name(*self))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", symbol_name(*self))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        symbol(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        symbol(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = symbol("child");
        let b = symbol("child");
        assert_eq!(a, b);
        assert_eq!(symbol_name(a), "child");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = symbol("alpha-test-symbol");
        let b = symbol("beta-test-symbol");
        assert_ne!(a, b);
    }

    #[test]
    fn display_and_debug_show_name() {
        let a = symbol("desc");
        assert_eq!(format!("{a}"), "desc");
        assert_eq!(format!("{a:?}"), "desc");
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "tag".into();
        let b: Symbol = String::from("tag").into();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "tag");
    }

    #[test]
    fn unknown_symbol_renders_placeholder() {
        let bogus = Symbol(u32::MAX);
        assert!(symbol_name(bogus).starts_with("<sym:"));
    }

    /// The resolve path must not allocate: two resolves of the same symbol
    /// return the same `&'static str` (pointer-identical).
    #[test]
    fn resolution_returns_stable_static_str() {
        let a = symbol("stable-name-test");
        let s1 = symbol_name(a);
        let s2 = a.as_str();
        assert!(std::ptr::eq(s1, s2));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for j in 0..100 {
                        ids.push(symbol(&format!("conc-{}", (i * j) % 50)));
                    }
                    ids
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every name maps to exactly one id.
        for j in 0..50 {
            let s = format!("conc-{j}");
            assert_eq!(symbol(&s), symbol(&s));
        }
    }
}
