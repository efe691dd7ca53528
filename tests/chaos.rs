//! The chaos accounting gate of the resident service, count-only: under
//! adversarial arrivals, injected panics and stalls, hopeless deadlines and
//! an admission limit below the client count, every arrival ends in exactly
//! one accounted outcome, no client thread dies, every fault class was
//! actually exercised, and the service answers correctly afterwards.
//!
//! Latency under faults is not measured here; `marsbench` owns the clock.

use mars_system::mars::{MarsError, MarsOptions, MarsService, ReformulationBudget};
use mars_system::workloads::chaos::{adversarial_request, FaultInjector};
use mars_system::workloads::star::StarConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
