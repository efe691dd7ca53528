//! Global string interner.
//!
//! Queries, constraints and the symbolic chase instances manipulate very large
//! numbers of predicate names, tag names and string constants. Interning them
//! as `u32` [`Symbol`]s makes atom comparison, hashing and homomorphism search
//! cheap. The interner is global and append-only. Interning goes through a
//! map guarded by an `RwLock`; resolving takes no lock. Under the write lock,
//! each new name is published into an append-only table of doubling chunks
//! (chunk `k` holds the `64 << k` ids after those of the chunks before it),
//! whose chunks and slots are `OnceLock`s: a reader finds a name's slot by
//! arithmetic on its id and reads it with one acquire load. Interned strings
//! are leaked (`Box::leak`) so that resolving a symbol back to its string
//! ([`symbol_name`]) returns a `&'static str` without allocating — the
//! resolve path sits on hot loops (per-atom cost estimation, navigation
//! classification in the backchase reachability graph, rendering every
//! constant of a scan's rows) where a fresh `String`, or a lock, per call
//! showed up in profiles. The leak is bounded by the number of distinct
//! strings ever interned, which the interner retains for the lifetime of the
//! process anyway.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned string. Cheap to copy, hash and compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// The ids of the first chunk of [`NAMES`]; chunk `k` holds `FIRST_CHUNK << k`.
const FIRST_CHUNK: usize = 64;

/// Chunks enough for every id below `FIRST_CHUNK * (2^CHUNKS - 1)`, just
/// short of `u32::MAX`.
const CHUNKS: usize = 26;

/// The names by id, readable without a lock: a chunk is allocated, and a
/// slot set, once, under the interner's write lock.
struct Names {
    chunks: [OnceLock<Box<[OnceLock<&'static str>]>>; CHUNKS],
}

static NAMES: Names = Names::new();

impl Names {
    const fn new() -> Names {
        Names { chunks: [const { OnceLock::new() }; CHUNKS] }
    }

    /// The chunk holding `id`, and `id`'s slot in it.
    fn locate(id: u32) -> (usize, usize) {
        let chunk = (id as usize / FIRST_CHUNK + 1).ilog2() as usize;
        (chunk, id as usize - FIRST_CHUNK * ((1 << chunk) - 1))
    }

    fn get(&self, id: u32) -> Option<&'static str> {
        let (chunk, slot) = Names::locate(id);
        self.chunks.get(chunk)?.get()?[slot].get().copied()
    }

    /// Publish `name` as `id`'s. Ids are published once each, in order,
    /// under the interner's write lock.
    fn publish(&self, id: u32, name: &'static str) {
        let (chunk, slot) = Names::locate(id);
        let len = FIRST_CHUNK << chunk;
        let slots = self.chunks.get(chunk).expect("an id below the table's end");
        let slots = slots.get_or_init(|| (0..len).map(|_| OnceLock::new()).collect());
        assert!(slots[slot].set(name).is_ok(), "an id is published once");
    }
}

struct Interner {
    /// Ids handed out so far.
    len: u32,
    map: HashMap<&'static str, u32>,
}

impl Interner {
    fn new() -> Self {
        Interner { len: 0, map: HashMap::new() }
    }

    /// The id of `s`, interning it if new. The id is counted before the name
    /// is published and published before the map points at it, so a panic
    /// in between wastes the id and nothing else.
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = self.len;
        self.len += 1;
        NAMES.publish(id, leaked);
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
/// A poisoned lock is recovered: the interner is append-only and a name is
/// published before the map points at it, so a panic under a guard leaves it
/// valid — and a resident service must not lose every later request to one
/// that died.
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

/// Resolve a [`Symbol`] back to its string. Lock- and allocation-free: the
/// interner leaks each distinct string once and publishes it in a table
/// read without a lock, so the resolved name is `'static`. An id never
/// handed out resolves to `<sym:invalid>`.
pub fn symbol_name(sym: Symbol) -> &'static str {
    NAMES.get(sym.0).unwrap_or("<sym:invalid>")
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

    /// More than three chunks of fresh names: every id resolves, the first
    /// and last id of every chunk included; in a table of its own, so the ids
    /// are known, and through the global interner.
    #[test]
    fn names_resolve_across_chunk_boundaries() {
        let table = Names::new();
        let ids = 1_000u32;
        let names: Vec<&'static str> =
            (0..ids).map(|i| &*Box::leak(format!("n{i}").into_boxed_str())).collect();
        for (id, name) in (0..).zip(&names) {
            table.publish(id, name);
        }
        let (mut first, mut chunk) = (0u32, 0);
        while first < ids {
            let last = first + (FIRST_CHUNK << chunk) as u32 - 1;
            assert_eq!(Names::locate(first), (chunk, 0));
            assert_eq!(Names::locate(last), (chunk, (FIRST_CHUNK << chunk) - 1));
            for id in [first, last.min(ids - 1)] {
                assert_eq!(table.get(id), Some(names[id as usize]));
            }
            (first, chunk) = (last + 1, chunk + 1);
        }
        assert!(chunk > 3, "{ids} ids span more than three chunks");
        assert!((0..ids).all(|id| table.get(id) == Some(names[id as usize])));
        assert_eq!(table.get(ids), None, "a slot not yet published");
        assert_eq!(table.get(first + 1), None, "a chunk not yet allocated");
        assert_eq!(table.get(u32::MAX), None, "an id past the table");

        let fresh: Vec<(Symbol, String)> = (0..ids)
            .map(|i| format!("chunk-boundary-{i}"))
            .map(|name| (symbol(&name), name))
            .collect();
        assert!(fresh.iter().all(|(sym, name)| symbol_name(*sym) == name));
    }

    /// Four threads intern 1 000 names each, half of them shared, and resolve
    /// the other threads' symbols as they arrive: every name round-trips.
    #[test]
    fn names_resolve_while_other_threads_intern() {
        const THREADS: usize = 4;
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..THREADS).map(|_| std::sync::mpsc::channel::<(Symbol, String)>()).unzip();
        std::thread::scope(|scope| {
            for (t, inbox) in receivers.into_iter().enumerate() {
                let senders = senders.clone();
                scope.spawn(move || {
                    let check = |(sym, name): (Symbol, String)| {
                        assert_eq!(symbol_name(sym), name);
                        assert_eq!(symbol(&name), sym);
                    };
                    for j in 0..1_000 {
                        let name = match j % 2 {
                            0 => format!("shared-name-{j}"),
                            _ => format!("own-name-{t}-{j}"),
                        };
                        let sym = symbol(&name);
                        for (_, to) in senders.iter().enumerate().filter(|(u, _)| *u != t) {
                            to.send((sym, name.clone())).expect("the receiver runs");
                        }
                        inbox.try_iter().for_each(check);
                    }
                    drop(senders);
                    inbox.iter().for_each(check);
                });
            }
            drop(senders);
        });
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
