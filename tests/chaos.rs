//! The chaos accounting gate of the resident service, count-only: under
//! adversarial arrivals, injected panics and stalls, hopeless deadlines and
//! an admission limit below the client count, every arrival ends in exactly
//! one accounted outcome, no client thread dies, every fault class was
//! actually exercised, and the service answers correctly afterwards.
//!
//! The harness lives here, beside its only user:
//!
//! * [`FaultInjector`] — a deterministic [`FaultHook`] implementation that
//!   injects a panic every `panic_period`-th cold reformulation and an
//!   artificial stall every `stall_period`-th cache lookup, counting what it
//!   injected so the gate can assert the faults were actually exercised;
//! * [`adversarial_request`] — a stream of *divergent* star-query shapes
//!   (varying corner subsets and duplicated navigation) that defeats the
//!   shape-keyed plan cache on purpose, forcing the service down the cold
//!   chase & backchase path where budgets and panics bite.
//!
//! Latency under faults is not measured here; `marsbench` owns the clock.

use mars_system::mars::{FaultHook, MarsError, MarsOptions, MarsService, ReformulationBudget};
use mars_system::workloads::star::StarConfig;
use mars_system::xml::parse_path;
use mars_system::xquery::{shape_of, XBindAtom, XBindQuery, XBindTerm};
use std::collections::HashSet;
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
    // so it exercises instantiation, not the cache key.
    q = q.with_atom(XBindAtom::Eq(XBindTerm::var("k"), XBindTerm::str(&format!("key{i}"))));
    q.head = head;
    q
}

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
    let (first, seventh) = (adversarial_request(&cfg, 0), adversarial_request(&cfg, 6));
    let (a, b) = (shape_of(&first, &reserved), shape_of(&seventh, &reserved));
    assert_eq!(a.key, b.key);
    assert_ne!(a.constants, b.constants);
}

#[test]
fn every_chaos_arrival_is_accounted_and_the_service_recovers() {
    const REQUESTS: usize = 24;
    const CLIENTS: usize = 2;
    const PANIC_PERIOD: usize = 5;

    let cfg = StarConfig::figure5(4);
    let injector = Arc::new(FaultInjector::new(PANIC_PERIOD, 3, Duration::from_millis(2)));
    // Admission below the client count, so overlapping arrivals shed.
    let service = MarsService::new(cfg.mars(MarsOptions::specialized()))
        .with_admission_limit(CLIENTS - 1)
        .with_fault_hook(injector.hook());
    // Shapes diverge so the plan cache cannot absorb the stream; every 4th
    // arrival carries a deadline it cannot meet and must degrade.
    let budget = |i: usize| {
        let deadline = if i % 4 == 3 { Duration::ZERO } else { Duration::from_secs(30) };
        ReformulationBudget::unbounded().with_deadline(deadline)
    };

    // Final outcome per arrival: 0 served, 1 degraded, 2 shed, 3 panicked.
    // (The service's own counters count attempts — a retried rejection bumps
    // `shed` again — so the zero-lost gate is stated over these finals.)
    let finals: [AtomicUsize; 4] = Default::default();
    let next = AtomicUsize::new(0);
    let survivors = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= REQUESTS {
                        break;
                    }
                    let request = adversarial_request(&cfg, i);
                    // A well-behaved client: an overload rejection is
                    // retried with backoff a bounded number of times.
                    let mut backoffs = 0;
                    let outcome = loop {
                        match service.reformulate_xbind_with(&request, &budget(i)) {
                            Err(MarsError::Overloaded { .. }) if backoffs < 1000 => {
                                backoffs += 1;
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            other => break other,
                        }
                    };
                    let slot = match outcome {
                        Ok(block) if block.is_degraded() => 1,
                        Ok(_) => 0,
                        Err(MarsError::Overloaded { .. }) => 2,
                        Err(MarsError::ReformulationPanicked { .. }) => 3,
                        // Any other error is a hole in the ladder: the
                        // arrival stays unaccounted and fails the gate.
                        Err(_) => continue,
                    };
                    finals[slot].fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        clients.into_iter().filter_map(|c| c.join().ok()).count()
    });
    assert_eq!(survivors, CLIENTS, "an injected panic escaped the service's isolation");

    let [served, degraded, shed, panicked] = finals.map(AtomicUsize::into_inner);
    assert_eq!(
        served + degraded + shed + panicked,
        REQUESTS,
        "lost arrivals (served {served}, degraded {degraded}, shed {shed}, panicked {panicked})"
    );
    assert!(injector.injected_panics() >= 1, "no panic was exercised");
    assert!(injector.injected_stalls() >= 1, "no stall was exercised");
    assert!(degraded >= 1, "no degradation was exercised");
    assert!(panicked >= 1, "an injected panic was not surfaced as its typed error");

    // Afterwards, a shape that only ever arrived with a hopeless deadline
    // (arrival 3: degraded every time, so never cached) is answered in full.
    // The hook is still armed, but two consecutive cold reformulations
    // cannot both fall on the panic period.
    let request = adversarial_request(&cfg, 3);
    let calm = (0..2)
        .find_map(|_| service.reformulate_xbind(&request).ok())
        .expect("one of two consecutive requests is undisturbed");
    let reference = cfg.mars(MarsOptions::specialized()).reformulate_xbind(&request);
    assert!(!calm.is_degraded() && calm.result.has_reformulation());
    assert_eq!(calm.result.minimal.len(), reference.result.minimal.len());
    assert_eq!(
        calm.result.best.as_ref().map(|(q, cost)| (q.body.len(), *cost)),
        reference.result.best.as_ref().map(|(q, cost)| (q.body.len(), *cost))
    );
}
