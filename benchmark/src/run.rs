//! One benchmark run: set-up, oracle pass, timed rounds, checks, metrics.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::pipeline::{
    build_store, engine_counters, publish, publish_direct, replay_hidden_stages, Published,
    ServiceCounters, Store, Tenant,
};
use crate::stats::{
    document_digest, kernel_ms, median, median_or_zero, peak_rss_mb, quantile, root_children,
    REFERENCE_KERNEL_MS,
};
use crate::trace::{Off, Probe, Recorder, SETUP};
use crate::workloads::{Request, Step, Stream, Template, Workload};
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per untraced run; `setup_s` is their median. A traced run
    /// sets up once.
    pub setups: usize,
}

pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the human reading the output.
    pub failures: Vec<String>,
    pub oracle_checked: u64,
    pub oracle_failed: u64,
    pub rounds: usize,
    /// Every timed round, in order: `[p50 ms, p90 ms, publishes/s]` at
    /// reference speed, the same three by the wall clock, and the median
    /// kernel time of the round's speed probes in ms.
    pub per_round: Vec<[f64; 7]>,
    /// Digest of the documents of round 0, in request order.
    pub output_digest: u64,
    /// `(name, value, unit)`, in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The end-to-end times as the wall clock read them, and the median
    /// kernel time they were scaled by. For the reader, not for the driver.
    pub wall_clock: Vec<(&'static str, f64, &'static str)>,
    /// The span trace, when tracing was on.
    pub recorder: Option<Recorder>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.oracle_failed == 0 && self.attempted > 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Per-request verification state.
struct Checker {
    templates: Vec<Template>,
    /// Reference digests from direct evaluation, when the timed stores are
    /// small enough for it.
    reference: HashMap<(usize, String), u64>,
    first_seen: HashMap<(usize, String), u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    oracle_checked: u64,
    oracle_failed: u64,
}

impl Checker {
    /// Run the oracle pass, then start counting requests.
    fn after_oracle(cfg: &Config, stores: &[Store], stream: &Stream) -> Checker {
        let mut failures = Vec::new();
        let timed_stores = cfg.workload.timed_at_oracle_size().then_some(stores);
        let (reference, oracle_checked, oracle_failed) = oracle(cfg, timed_stores, &mut failures);
        Checker {
            templates: stream.templates.clone(),
            // Reference digests only apply where the timed stores are the
            // oracle's; elsewhere the oracle's documents are of another size.
            reference: if timed_stores.is_some() { reference } else { HashMap::new() },
            first_seen: HashMap::new(),
            attempted: 0,
            failed: 0,
            failures,
            oracle_checked,
            oracle_failed,
        }
    }

    /// The run's outcome so far: counts and failures, no metrics yet.
    fn outcome(self, cfg: &Config, rounds: usize, output_digest: u64) -> Outcome {
        Outcome {
            workload: cfg.workload.kind.name(),
            seed: cfg.seed,
            trace: cfg.trace,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            oracle_checked: self.oracle_checked,
            oracle_failed: self.oracle_failed,
            rounds,
            per_round: Vec::new(),
            output_digest,
            metrics: Vec::new(),
            wall_clock: Vec::new(),
            recorder: None,
        }
    }

    fn fail(&mut self, request: &Request, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(format!("{}: {why}", self.templates[request.template].name));
        }
    }

    /// Count the request and return its document digest (0 when it failed).
    fn check(&mut self, request: &Request, outcome: &Result<Published, String>) -> u64 {
        self.attempted += 1;
        let published = match outcome {
            Ok(p) => p,
            Err(why) => {
                self.fail(request, why.clone());
                return 0;
            }
        };
        let expected_route = self.templates[request.template].route;
        if published.rows != request.expect_rows {
            self.fail(
                request,
                format!("{} rows, expected {}", published.rows, request.expect_rows),
            );
            return 0;
        }
        if published.route != expected_route {
            self.fail(request, format!("ran {:?}, expected {expected_route:?}", published.route));
            return 0;
        }
        let digest = document_digest(&published.xml);
        let key = (request.template, request.key.clone());
        if let Some(want) = self.reference.get(&key) {
            if *want != digest {
                self.fail(request, "document differs from direct evaluation".to_string());
                return 0;
            }
        }
        let first = *self.first_seen.entry(key).or_insert(digest);
        if first != digest {
            self.fail(request, "document differs from the first one for this request".to_string());
            return 0;
        }
        digest
    }
}

fn open_tenants<'s, P: Probe>(stores: &'s [Store], p: &mut P) -> Vec<Tenant<'s>> {
    stores.iter().map(|s| Tenant::open(s, p)).collect()
}

/// Request time between two speed probes, in ms: about a tenth of a timed
/// round goes into probing.
const PROBE_EVERY_MS: f64 = 8.0;

/// What one pass over some steps produced.
#[derive(Default)]
struct Pass {
    /// Wall-clock latency of every request, in ms.
    latencies: Vec<f64>,
    /// Chained digest of the documents.
    digest: u64,
    /// Speed probes: `(requests served before the probe, kernel ms)`.
    probes: Vec<(usize, f64)>,
}

impl Pass {
    /// Latencies at reference speed: each wall-clock latency scaled by what
    /// the calibration kernel took next to it — the median of the two probes
    /// before the request and the two after.
    fn at_reference_speed(&self) -> Vec<f64> {
        self.latencies
            .iter()
            .enumerate()
            .map(|(i, latency)| {
                let after = self.probes.partition_point(|(at, _)| *at <= i);
                let near =
                    &self.probes[after.saturating_sub(2)..(after + 2).min(self.probes.len())];
                let kernel = median_or_zero(near.iter().map(|(_, ms)| *ms).collect());
                latency * REFERENCE_KERNEL_MS / kernel
            })
            .collect()
    }

    fn kernel_ms(&self) -> f64 {
        median_or_zero(self.probes.iter().map(|(_, ms)| *ms).collect())
    }
}

/// Run `steps` in order: requests are published, timed and checked. With
/// `probe_speed`, the calibration kernel runs between requests, off the
/// request clock, whenever [`PROBE_EVERY_MS`] of request time have passed.
fn serve<P: Probe>(
    steps: &[Step],
    tenants: &mut [Tenant<'_>],
    checker: &mut Checker,
    probe_speed: bool,
    p: &mut P,
) -> Pass {
    let mut pass = Pass::default();
    let mut since_probe = PROBE_EVERY_MS;
    for step in steps {
        match step {
            // Tuning happens between requests, off the request clock.
            Step::Retune { tenant, spec } => {
                p.request(SETUP, "");
                tenants[*tenant].retune(spec, p);
            }
            Step::FreshService { tenant } => {
                p.request(SETUP, "");
                tenants[*tenant].fresh_service(p);
            }
            Step::Request(request) => {
                if probe_speed && since_probe >= PROBE_EVERY_MS {
                    pass.probes.push((pass.latencies.len(), kernel_ms()));
                    since_probe = 0.0;
                }
                let template = &checker.templates[request.template];
                let tenant = &tenants[template.tenant];
                p.request(pass.latencies.len() as u32, &template.name);
                let clock = Instant::now();
                let outcome = publish(tenant, &request.text, p);
                let latency = clock.elapsed().as_secs_f64() * 1e3;
                pass.latencies.push(latency);
                since_probe += latency;
                if let (true, Ok(published)) = (P::ON, &outcome) {
                    replay_hidden_stages(tenant, published, p);
                }
                let digest = checker.check(request, &outcome);
                pass.digest = (pass.digest ^ digest).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    p.request(SETUP, "");
    pass
}

/// First half of a set-up: generate the documents, populate the stores, and
/// bind the request stream to them.
fn build_stores<P: Probe>(cfg: &Config, p: &mut P) -> (Vec<Store>, Stream) {
    let stores: Vec<Store> =
        cfg.workload.tenants().iter().map(|spec| build_store(spec, cfg.seed, p)).collect();
    let stream = cfg.workload.stream(&stores, cfg.seed);
    (stores, stream)
}

/// Second half: compile the correspondences, open the services and routers,
/// serve the warm-up requests.
fn open_and_warm<'s, P: Probe>(
    stores: &'s [Store],
    stream: &Stream,
    p: &mut P,
) -> Result<Vec<Tenant<'s>>, String> {
    let tenants = open_tenants(stores, p);
    for step in stream.warmup() {
        if let Step::Request(r) = step {
            let tenant = &tenants[stream.templates[r.template].tenant];
            publish(tenant, &r.text, p).map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok(tenants)
}

/// The output oracle: for every template once, on oracle-sized stores, the
/// set of children of the published result root must equal the one direct
/// evaluation of the **unprojected** query produces, and have the size the
/// generator expects. `timed` are the benchmark's own stores when those are
/// oracle-sized: then nothing is published here, and the digests returned
/// are what every timed request of the same `(template, key)` must match.
fn oracle(
    cfg: &Config,
    timed: Option<&[Store]>,
    failures: &mut Vec<String>,
) -> (HashMap<(usize, String), u64>, u64, u64) {
    let built: Vec<Store>;
    let stores = match timed {
        Some(stores) => stores,
        None => {
            built = cfg
                .workload
                .oracle_tenants()
                .iter()
                .map(|spec| build_store(spec, cfg.seed, &mut Off))
                .collect();
            &built
        }
    };
    let stream = cfg.workload.stream(stores, cfg.seed);
    let tenants = if timed.is_some() { Vec::new() } else { open_tenants(stores, &mut Off) };
    let mut reference = HashMap::new();
    let (mut checked, mut failed) = (0, 0);
    for request in stream.one_of_each() {
        let template = &stream.templates[request.template];
        checked += 1;
        let verdict = publish_direct(&stores[template.tenant], &request.text)
            .map_err(|e| format!("direct evaluation: {e}"))
            .and_then(|direct| {
                let want: BTreeSet<&str> = root_children(&direct).into_iter().collect();
                if want.len() != request.expect_rows {
                    return Err(format!(
                        "direct evaluation gives {} rows, the generator expects {}",
                        want.len(),
                        request.expect_rows
                    ));
                }
                if let Some(tenant) = tenants.get(template.tenant) {
                    let got = publish(tenant, &request.text, &mut Off)?;
                    if want != root_children(&got.xml).into_iter().collect() {
                        return Err("published children differ from direct evaluation".to_string());
                    }
                }
                Ok(document_digest(&direct))
            });
        match verdict {
            Ok(digest) => {
                reference.insert((request.template, request.key.clone()), digest);
            }
            Err(why) => {
                failed += 1;
                if failures.len() < 5 {
                    failures.push(format!("oracle, {}: {why}", template.name));
                }
            }
        }
    }
    (reference, checked, failed)
}

fn sum_counters(tenants: &[Tenant<'_>]) -> ServiceCounters {
    tenants.iter().fold(ServiceCounters::default(), |acc, t| acc.plus(t.counters()))
}

/// Times consecutive set-ups by the wall clock, with three runs of the
/// calibration kernel before and after each.
struct SetupClock {
    started: Instant,
    before: [f64; 3],
    /// `(wall seconds, median kernel ms around it)` of every set-up so far.
    laps: Vec<(f64, f64)>,
}

fn probe_thrice() -> [f64; 3] {
    [kernel_ms(), kernel_ms(), kernel_ms()]
}

impl SetupClock {
    /// The first set-up is timed from `started`, the start of the process.
    fn start(started: Instant) -> SetupClock {
        // The kernel's first runs pay for cold caches and fresh pages.
        probe_thrice();
        SetupClock { started, before: probe_thrice(), laps: Vec::new() }
    }

    /// A set-up just ended and the next one begins.
    fn lap(&mut self) {
        let seconds = self.started.elapsed().as_secs_f64();
        let after = probe_thrice();
        self.laps.push((seconds, median(&mut [self.before, after].concat())));
        (self.started, self.before) = (Instant::now(), after);
    }

    /// Median set-up time by the wall clock, and at reference speed.
    fn medians(&self) -> (f64, f64) {
        let wall = self.laps.iter().map(|(s, _)| *s).collect();
        let reference = self.laps.iter().map(|(s, k)| s * REFERENCE_KERNEL_MS / k).collect();
        (median_or_zero(wall), median_or_zero(reference))
    }
}

pub fn run(cfg: &Config, process_start: Instant) -> Result<Outcome, String> {
    if cfg.trace {
        traced_run(cfg)
    } else {
        timed_run(cfg, process_start)
    }
}

/// The run behind the end-to-end metrics: `cfg.setups` set-ups (all but the
/// last thrown away), the oracle, then whole rounds until the time is up.
/// Every round has the same mix, so each yields a median, a 90th percentile
/// and a throughput of its own, at reference speed and by the wall clock;
/// the run reports the median round.
fn timed_run(cfg: &Config, process_start: Instant) -> Result<Outcome, String> {
    let mut setup = SetupClock::start(process_start);
    for _ in 1..cfg.setups {
        let (stores, stream) = build_stores(cfg, &mut Off);
        open_and_warm(&stores, &stream, &mut Off)?;
        setup.lap();
    }
    let (stores, stream) = build_stores(cfg, &mut Off);
    let mut tenants = open_and_warm(&stores, &stream, &mut Off)?;
    setup.lap();
    let mut checker = Checker::after_oracle(cfg, &stores, &stream);

    let budget = Duration::from_secs_f64(cfg.seconds);
    let clock = Instant::now();
    let mut output_digest = 0;
    let mut rounds: Vec<[f64; 7]> = Vec::new();
    while rounds.is_empty() || clock.elapsed() < budget {
        let pass = serve(&stream.round(rounds.len()), &mut tenants, &mut checker, true, &mut Off);
        if rounds.is_empty() {
            output_digest = pass.digest;
        }
        let summary = |mut latencies: Vec<f64>| {
            let per_s = latencies.len() as f64 / latencies.iter().sum::<f64>() * 1e3;
            latencies.sort_by(f64::total_cmp);
            [quantile(&latencies, 0.5), quantile(&latencies, 0.9), per_s]
        };
        let [p50, p90, per_s] = summary(pass.at_reference_speed());
        let [wall_p50, wall_p90, wall_per_s] = summary(pass.latencies.clone());
        rounds.push([p50, p90, per_s, wall_p50, wall_p90, wall_per_s, pass.kernel_ms()]);
    }

    let column = |c: usize| median(&mut rounds.iter().map(|r| r[c]).collect::<Vec<f64>>());
    let (wall_setup, reference_setup) = setup.medians();
    let values = [reference_setup, column(0), column(1), column(2), peak_rss_mb()];
    let mut outcome = checker.outcome(cfg, rounds.len(), output_digest);
    outcome.metrics =
        END_TO_END.iter().zip(values).map(|((m, _), v)| (m.name, v, m.unit)).collect();
    outcome.wall_clock = vec![
        ("wall_setup_s", wall_setup, "s"),
        ("wall_publish_p50_ms", column(3), "ms"),
        ("wall_publish_p90_ms", column(4), "ms"),
        ("wall_publishes_per_s", column(5), "1/s"),
        ("kernel_ms", column(6), "ms"),
    ];
    outcome.per_round = rounds;
    Ok(outcome)
}

/// The run behind the per-layer metrics: one set-up, the oracle, round 0
/// untraced (the overhead baseline), then round 0 again with spans on.
fn traced_run(cfg: &Config) -> Result<Outcome, String> {
    let mut recorder = Recorder::new();
    let (stores, stream) = build_stores(cfg, &mut recorder);
    let mut tenants = open_and_warm(&stores, &stream, &mut recorder)?;
    let mut checker = Checker::after_oracle(cfg, &stores, &stream);

    let round = stream.round(0);
    let baseline = serve(&round, &mut tenants, &mut checker, false, &mut Off);
    // Counts are totals over the traced pass; only the facts loaded come
    // from set-up.
    let facts_loaded = recorder.counter("storage.facts_loaded");
    recorder.counters.clear();
    recorder.samples.clear();
    recorder.count("storage.facts_loaded", facts_loaded);
    let engine_before = engine_counters();
    let service_before = sum_counters(&tenants);
    let traced = serve(&round, &mut tenants, &mut checker, false, &mut recorder);
    let engine_after = engine_counters();
    let engine = (engine_after.0 - engine_before.0, engine_after.1 - engine_before.1);
    let service = sum_counters(&tenants).since(service_before);

    let mut outcome = checker.outcome(cfg, 1, traced.digest);
    outcome.metrics = per_layer_metrics(&recorder, &baseline, &traced, engine, service);
    outcome.recorder = Some(recorder);
    Ok(outcome)
}

/// The per-layer metrics, from the spans and counters of the traced pass,
/// the engine's and the services' counters over it, and the untraced
/// baseline pass.
fn per_layer_metrics(
    r: &Recorder,
    baseline: &Pass,
    traced: &Pass,
    engine: (u64, u64),
    service: ServiceCounters,
) -> Vec<(&'static str, f64, &'static str)> {
    let p50 = |pass: &Pass| median(&mut pass.latencies.clone());
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    PER_LAYER
        .iter()
        .map(|m| {
            let span = m.name.strip_suffix("_ms").unwrap_or(m.name);
            let value = match m.name {
                "mars.cache_hit_ratio" => ratio(service.hits, service.hits + service.misses),
                "mars.cache_entries" => service.entries as f64,
                "mars.cache_invalidations" => service.invalidations as f64,
                "mars.degraded_uncached" => service.degraded_uncached as f64,
                "mars.served" => service.served as f64,
                "mars.degraded" => service.degraded as f64,
                "mars.shed" => service.shed as f64,
                "mars.panicked" => service.panicked as f64,
                "chase.compilations" => engine.0 as f64,
                "chase.index_builds" => engine.1 as f64,
                "backchase.useful_ratio" => ratio(
                    r.counter("backchase.minimal_found"),
                    r.counter("backchase.equivalence_checks"),
                ),
                "cost.q_error" => r.median_sample("cost.q_error"),
                "trace.overhead_share" => (p50(traced) - p50(baseline)) / p50(baseline),
                "trace.coverage_share" => r.coverage("publish"),
                "trace.requests" => traced.latencies.len() as f64,
                // Set-up steps: total over the tenants.
                "workloads.generate_ms"
                | "storage.materialize_views_ms"
                | "grex.encode_document_ms"
                | "storage.load_facts_ms"
                | "storage.first_exec_ms" => r.span_ms(span).iter().sum(),
                // Tuning steps happen between requests: median per call.
                "mars.compile_correspondence_ms" | "mars.replace_ms" => {
                    median_or_zero(r.span_ms(span))
                }
                name if name.ends_with("_ms") => median_or_zero(r.per_request_ms(span)),
                name => r.counter(name) as f64,
            };
            (m.name, value, m.unit)
        })
        .collect()
}
