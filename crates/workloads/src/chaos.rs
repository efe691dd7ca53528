//! Fault injection and adversarial arrivals for chaos-testing the resident
//! service (`tests/chaos.rs`).
//!
//! Two ingredients:
//!
//! * [`FaultInjector`] — a deterministic [`FaultHook`] implementation that
//!   injects a panic every `panic_period`-th cold reformulation and an
//!   artificial stall every `stall_period`-th cache lookup, counting what it
//!   injected so a harness can assert the faults were actually exercised;
//! * [`adversarial_request`] — a stream of *divergent* star-query shapes
//!   (varying corner subsets and duplicated navigation) that defeats the
//!   shape-keyed plan cache on purpose, forcing the service down the cold
//!   chase & backchase path where budgets and panics bite.

use crate::star::StarConfig;
use mars::FaultHook;
use mars_xml::parse_path;
use mars_xquery::{XBindAtom, XBindQuery, XBindTerm};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic fault injection at the service's named pipeline points
/// (see the module docs). Periods of `0` disable that fault class.
#[derive(Debug)]
pub struct FaultInjector {
    /// Panic on every `panic_period`-th `"reformulate"` firing (0 = never).
    pub panic_period: usize,
    /// Stall on every `stall_period`-th `"lookup"` firing (0 = never).
    pub stall_period: usize,
    /// Duration of one injected stall.
    pub stall: Duration,
    lookups: AtomicUsize,
    reformulations: AtomicUsize,
    panics: AtomicUsize,
    stalls: AtomicUsize,
}

impl FaultInjector {
    /// A new injector with the given periods and stall length.
    pub fn new(panic_period: usize, stall_period: usize, stall: Duration) -> FaultInjector {
        FaultInjector {
            panic_period,
            stall_period,
            stall,
            lookups: AtomicUsize::new(0),
            reformulations: AtomicUsize::new(0),
            panics: AtomicUsize::new(0),
            stalls: AtomicUsize::new(0),
        }
    }

    /// The pipeline-point callback: count the firing and inject the fault
    /// when its period divides the count. Panics escape from here on
    /// purpose — the service's `catch_unwind` is what is under test.
    pub fn fire(&self, point: &str) {
        match point {
            "lookup" => {
                let n = self.lookups.fetch_add(1, Ordering::SeqCst) + 1;
                if self.stall_period > 0 && n.is_multiple_of(self.stall_period) {
                    self.stalls.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(self.stall);
                }
            }
            "reformulate" => {
                let n = self.reformulations.fetch_add(1, Ordering::SeqCst) + 1;
                if self.panic_period > 0 && n.is_multiple_of(self.panic_period) {
                    self.panics.fetch_add(1, Ordering::SeqCst);
                    panic!("injected chaos panic (reformulation #{n})");
                }
            }
            _ => {}
        }
    }

    /// Package the injector as a [`FaultHook`] for
    /// `MarsService::with_fault_hook`.
    pub fn hook(self: &Arc<Self>) -> FaultHook {
        let inj = Arc::clone(self);
        Arc::new(move |point: &str| inj.fire(point))
    }

    /// Panics injected so far.
    pub fn injected_panics(&self) -> usize {
        self.panics.load(Ordering::SeqCst)
    }

    /// Stalls injected so far.
    pub fn injected_stalls(&self) -> usize {
        self.stalls.load(Ordering::SeqCst)
    }
}

/// The `i`-th adversarial arrival against a star configuration: a star query
/// over a *varying subset* of the corners (width cycles `1..=NC`), with a
/// unique key constant, and — on every third request — a duplicated hub
/// navigation that widens the universal plan. Consecutive widths differ, so
/// consecutive arrivals have different shape keys and the plan cache cannot
/// absorb the stream.
pub fn adversarial_request(cfg: &StarConfig, i: usize) -> XBindQuery {
    let doc = cfg.document();
    let width = 1 + (i % cfg.nc.max(1));
    let mut head: Vec<String> = vec!["k".to_string()];
    // One fixed name: the shape key covers the query name, and the stream
    // should diverge on *structure* (width, duplication), not on labels —
    // recurrences of a structure are legitimate warm hits.
    let mut q = XBindQuery::new("Chaos")
        .with_atom(XBindAtom::AbsolutePath {
            document: doc.clone(),
            path: parse_path("//R").unwrap(),
            var: "r".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./K/text()").unwrap(),
            source: "r".to_string(),
            var: "k".to_string(),
        });
    for c in 1..=width {
        q = q
            .with_atom(XBindAtom::RelativePath {
                path: parse_path(&format!("./A{c}/text()")).unwrap(),
                source: "r".to_string(),
                var: format!("a{c}"),
            })
            .with_atom(XBindAtom::AbsolutePath {
                document: doc.clone(),
                path: parse_path(&format!("//S{c}")).unwrap(),
                var: format!("s{c}"),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./A/text()").unwrap(),
                source: format!("s{c}"),
                var: format!("sa{c}"),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./B/text()").unwrap(),
                source: format!("s{c}"),
                var: format!("b{c}"),
            })
            .with_atom(XBindAtom::Eq(
                XBindTerm::var(&format!("a{c}")),
                XBindTerm::var(&format!("sa{c}")),
            ));
        head.push(format!("b{c}"));
    }
    if i.is_multiple_of(3) {
        // Duplicated hub navigation: sound (joins the same K), but widens
        // the universal plan the backchase has to minimize.
        q = q
            .with_atom(XBindAtom::AbsolutePath {
                document: doc,
                path: parse_path("//R").unwrap(),
                var: "r2".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./K/text()").unwrap(),
                source: "r2".to_string(),
                var: "k".to_string(),
            });
    }
    // A unique key constant per arrival: parameterized out of the shape,
    // so it exercises re-substitution, not the cache key.
    q = q.with_atom(XBindAtom::Eq(XBindTerm::var("k"), XBindTerm::str(&format!("key{i}"))));
    q.head = head;
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_xquery::shape_of;
    use std::collections::HashSet;

    #[test]
    fn injector_fires_on_its_periods() {
        let inj = Arc::new(FaultInjector::new(3, 2, Duration::from_millis(1)));
        let hook = inj.hook();
        for _ in 0..4 {
            hook("lookup");
        }
        assert_eq!(inj.injected_stalls(), 2, "every 2nd lookup stalls");
        hook("reformulate");
        hook("reformulate");
        assert_eq!(inj.injected_panics(), 0);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook("reformulate")));
        assert!(boom.is_err(), "every 3rd reformulation panics");
        assert_eq!(inj.injected_panics(), 1);
        hook("unknown-point"); // ignored, not a fault site
    }

    #[test]
    fn adversarial_requests_are_safe_and_shape_divergent() {
        let cfg = StarConfig::figure5(3);
        let reserved = HashSet::new();
        let mut keys = HashSet::new();
        for i in 0..6 {
            let q = adversarial_request(&cfg, i);
            assert!(q.is_safe(), "request {i} must be reformulable");
            keys.insert(shape_of(&q, &reserved).key);
        }
        assert!(keys.len() >= 3, "the stream must defeat the shape cache, got {keys:?}");
        // Constants are parameterized out: same width + same duplication
        // phase = same shape, different key constant.
        let a = shape_of(&adversarial_request(&cfg, 0), &reserved);
        let b = shape_of(&adversarial_request(&cfg, 6), &reserved);
        assert_eq!(a.key, b.key);
        assert_ne!(a.constants, b.constants);
    }
}
