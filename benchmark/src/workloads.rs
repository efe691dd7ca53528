//! The four workloads: tenants, templates and the seeded request stream.
//!
//! A stream is cut into **rounds** of fixed composition; the timed phase runs
//! whole rounds, so every run of a workload measures the same mix however
//! many rounds fit into its time, and p50/p90 each stay inside one latency
//! cluster. Round 0 is the same for every run of a seed: the output digest
//! and the exact counts are taken over it.

use crate::pipeline::{leaf_texts, RouteKind, Store, TenantSpec};
use crate::stats::Rng;
use crate::templates::{key_variable, render, star_subsets, Filter, Shape, EXCLUSION_VARIABLE};
use std::collections::{BTreeSet, HashMap};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ColdTemplates,
    WarmPoint,
    WarmScan,
    NavMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::ColdTemplates, Kind::WarmPoint, Kind::WarmScan, Kind::NavMixed];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdTemplates => "cold_templates",
            Kind::WarmPoint => "warm_point",
            Kind::WarmScan => "warm_scan",
            Kind::NavMixed => "nav_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload is in the benchmark (one line, for BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Kind::ColdTemplates => "every arrival misses the plan cache: reformulation time as redundancy grows (Fig. 5); chase + backchase are the request",
            Kind::WarmPoint => "steady state of a resident service, one-row answers: parse, shape, cache lookup and re-substitution dominate; chase = 0",
            Kind::WarmScan => "same store and plans as warm_point, whole-document answers: bind + tag + serialize dominate, relational executor second",
            Kind::NavMixed => "plans over native XML: router navigation over DocIndex is the request, plus the only mixed-route plan (Example 1.1)",
        }
    }
}

/// How a template's requests vary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// No constant: the whole answer.
    Scan,
    /// `key = "<constant>"`: one row, or none for a constant never seen.
    Lookup,
    /// `b1 != "<constant>"`: the whole answer minus the rows carrying it.
    Exclude,
}

#[derive(Clone, Debug)]
pub struct Template {
    pub name: String,
    pub tenant: usize,
    pub shape: Shape,
    pub form: Form,
    /// The backend the plan must run on; a request served by another one
    /// fails.
    pub route: RouteKind,
}

#[derive(Clone, Debug)]
pub struct Request {
    pub template: usize,
    pub text: String,
    pub expect_rows: usize,
    /// Requests with equal `(template, key)` must publish equal documents.
    pub key: String,
}

#[derive(Clone, Debug)]
pub enum Step {
    Request(Request),
    /// Swap a rebuilt system into the tenant's service (`MarsService::replace`).
    Retune {
        tenant: usize,
        spec: TenantSpec,
    },
    /// Give the tenant a new service with an empty plan cache.
    FreshService {
        tenant: usize,
    },
}

/// A workload at a size: `div` = 1 is the benchmark, 20 the smoke run.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub div: usize,
}

const STAR_NC: usize = 6;
const SNOWFLAKE: &str = "snowflake-skewed-r0";
const CHAIN: &str = "chain-uniform-r0";

fn star(nv: usize, hubs: usize, corner: usize) -> TenantSpec {
    TenantSpec::Star { nc: STAR_NC, nv, hubs, corner }
}

impl Workload {
    fn scaled(&self, full: usize, at_least: usize) -> usize {
        (full / self.div).max(at_least)
    }

    /// The tenants the timed phase runs on.
    pub fn tenants(&self) -> Vec<TenantSpec> {
        match self.kind {
            // The smoke run keeps every store at oracle size.
            _ if self.div > 1 => self.oracle_tenants(),
            // Reformulation does not read the data, so the stores stay at
            // oracle size and every timed document is checked against direct
            // evaluation.
            Kind::ColdTemplates => self.oracle_tenants(),
            Kind::WarmPoint | Kind::WarmScan => vec![star(STAR_NC - 1, 1000, 40)],
            Kind::NavMixed => vec![
                TenantSpec::Scenario { name: CHAIN, scale: 1000 },
                TenantSpec::Scenario { name: SNOWFLAKE, scale: 1000 },
                TenantSpec::Example11 { patients: 40 },
            ],
        }
    }

    /// The same tenants at a size the naive engine can evaluate directly.
    pub fn oracle_tenants(&self) -> Vec<TenantSpec> {
        match self.kind {
            Kind::ColdTemplates => vec![
                star(STAR_NC - 1, 6, 3),
                TenantSpec::Xmark { people: 12, items: 8, auctions: 10 },
                TenantSpec::Example11 { patients: 8 },
            ],
            Kind::WarmPoint | Kind::WarmScan => vec![star(STAR_NC - 1, 6, 3)],
            Kind::NavMixed => vec![
                TenantSpec::Scenario { name: CHAIN, scale: 12 },
                TenantSpec::Scenario { name: SNOWFLAKE, scale: 12 },
                TenantSpec::Example11 { patients: 8 },
            ],
        }
    }

    /// Whether the timed stores are themselves oracle-sized.
    pub fn timed_at_oracle_size(&self) -> bool {
        self.tenants() == self.oracle_tenants()
    }

    pub fn templates(&self) -> Vec<Template> {
        let star_template = |corners: Vec<usize>, form: Form, tenant: usize, route: RouteKind| {
            let ids: Vec<String> = corners.iter().map(usize::to_string).collect();
            Template {
                name: format!("star:{}:{form:?}", ids.join("-")).to_lowercase(),
                tenant,
                shape: Shape::Star(corners),
                form,
                route,
            }
        };
        let prefix = |n: usize| (1..=n).collect::<Vec<usize>>();
        let example11 = |tenant: usize, form: Form| Template {
            name: format!("ex11:{form:?}").to_lowercase(),
            tenant,
            shape: Shape::Example11,
            form,
            route: RouteKind::Mixed,
        };
        match self.kind {
            Kind::ColdTemplates => {
                // The smoke run keeps every `div`-th template.
                let mut out: Vec<Template> = star_subsets(STAR_NC)
                    .into_iter()
                    .step_by(self.div)
                    .map(|c| star_template(c, Form::Scan, 0, RouteKind::Relational))
                    .collect();
                // Q1–Q3 reformulate onto the materialized views; Q4 is one
                // descendant step, which navigation answers cheapest.
                out.extend((1..=4).step_by(self.div).map(|n| Template {
                    name: format!("xmark:q{n}"),
                    tenant: 1,
                    shape: Shape::Xmark(n),
                    form: Form::Scan,
                    route: if n == 4 { RouteKind::Xml } else { RouteKind::Relational },
                }));
                out.push(example11(2, Form::Scan));
                out
            }
            Kind::WarmPoint => [6, 4, 3, 2]
                .map(|n| star_template(prefix(n), Form::Lookup, 0, RouteKind::Relational))
                .to_vec(),
            Kind::WarmScan => [6, 4, 2]
                .map(|n| star_template(prefix(n), Form::Exclude, 0, RouteKind::Relational))
                .to_vec(),
            Kind::NavMixed => {
                let chain = |form: Form| Template {
                    name: format!("chain:{form:?}").to_lowercase(),
                    tenant: 0,
                    shape: Shape::Chain,
                    form,
                    route: RouteKind::Xml,
                };
                vec![
                    chain(Form::Lookup),
                    star_template(prefix(3), Form::Lookup, 1, RouteKind::Xml),
                    chain(Form::Scan),
                    star_template(prefix(3), Form::Scan, 1, RouteKind::Xml),
                    example11(2, Form::Lookup),
                ]
            }
        }
    }

    /// Bind the templates to populated stores: read off the documents what
    /// each request must return.
    pub fn stream(&self, stores: &[Store], seed: u64) -> Stream {
        let templates = self.templates();
        let facts = templates.iter().map(|t| Facts::of(&t.shape, &stores[t.tenant])).collect();
        Stream { workload: *self, seed, templates, facts }
    }
}

/// What the documents say a template's requests return.
struct Facts {
    /// Values the lookup variable takes, in document order.
    keys: Vec<String>,
    /// Rows of the unfiltered query.
    full_rows: usize,
    /// Values an `Exclude` request can name, each with the rows left.
    exclusions: Vec<(String, usize)>,
}

fn distinct<T: Ord>(items: impl IntoIterator<Item = T>) -> usize {
    items.into_iter().collect::<BTreeSet<T>>().len()
}

impl Facts {
    fn of(shape: &Shape, store: &Store) -> Facts {
        match shape {
            // Every hub points at one existing row of every corner, and `K`
            // is a key: one row per hub.
            Shape::Star(corners) => {
                let keys = leaf_texts(store, "star.xml", "R", "K");
                let mut pointing: HashMap<String, usize> = HashMap::new();
                for a in leaf_texts(store, "star.xml", "R", "A1") {
                    *pointing.entry(a).or_default() += 1;
                }
                // Excluding a `B` of corner 1 drops the hubs pointing at it.
                let exclusions = if corners.contains(&1) {
                    leaf_texts(store, "star.xml", "S1", "A")
                        .iter()
                        .zip(leaf_texts(store, "star.xml", "S1", "B"))
                        .map(|(a, b)| (b, keys.len() - pointing.get(a).copied().unwrap_or(0)))
                        .collect()
                } else {
                    Vec::new()
                };
                Facts { full_rows: keys.len(), keys, exclusions }
            }
            // Both pointers of every link hit an existing key: one row per L1.
            Shape::Chain => {
                let keys = leaf_texts(store, "chain.xml", "L1", "K");
                Facts { full_rows: keys.len(), keys, exclusions: Vec::new() }
            }
            Shape::Xmark(n) => {
                let of =
                    |element: &str, leaf: &str| leaf_texts(store, "auction.xml", element, leaf);
                let full_rows = match n {
                    1 => distinct(of("person", "name")),
                    // Names and ids are in bijection: distinct (seller, price).
                    2 => distinct(
                        of("open_auction", "seller").into_iter().zip(of("open_auction", "current")),
                    ),
                    // Every itemref names an existing item with one category.
                    3 => distinct(of("open_auction", "itemref")),
                    _ => distinct(of("item", "name")),
                };
                Facts { keys: Vec::new(), full_rows, exclusions: Vec::new() }
            }
            // Each diagnosis is treated with one drug, which has one price.
            Shape::Example11 => {
                let mut keys: Vec<String> = Vec::new();
                for d in leaf_texts(store, "case.xml", "case", "diagnosis") {
                    if !keys.contains(&d) {
                        keys.push(d);
                    }
                }
                Facts { full_rows: keys.len(), keys, exclusions: Vec::new() }
            }
        }
    }
}

pub struct Stream {
    workload: Workload,
    seed: u64,
    pub templates: Vec<Template>,
    facts: Vec<Facts>,
}

impl Stream {
    /// A request of template `t`. `pick` selects the constant: the key or
    /// excluded value with that index (wrapping), or for `None` on a lookup a
    /// constant no document holds.
    fn request(&self, t: usize, pick: Option<usize>, unseen: usize) -> Request {
        let (tpl, facts) = (&self.templates[t], &self.facts[t]);
        let (filter, expect_rows, key) = match (tpl.form, pick) {
            (Form::Scan, _) => (Filter::None, facts.full_rows, "*".to_string()),
            (Form::Lookup, Some(i)) => {
                let key = facts.keys[i % facts.keys.len()].clone();
                (Filter::Eq(key_variable(&tpl.shape), key.clone()), 1, key)
            }
            (Form::Lookup, None) => (
                Filter::Eq(key_variable(&tpl.shape), format!("miss-{unseen}")),
                0,
                "miss".to_string(),
            ),
            (Form::Exclude, pick) => {
                let (value, left) = &facts.exclusions[pick.unwrap_or(0) % facts.exclusions.len()];
                (Filter::Neq(EXCLUSION_VARIABLE, value.clone()), *left, format!("!{value}"))
            }
        };
        Request { template: t, text: render(&tpl.shape, &filter), expect_rows, key }
    }

    /// Every template once, with its first constant: what the oracle
    /// publishes, and what primes a warm workload's plan cache.
    pub fn one_of_each(&self) -> Vec<Request> {
        (0..self.templates.len()).map(|t| self.request(t, Some(0), 0)).collect()
    }

    /// Requests served during set-up. Warm workloads prime every template;
    /// the cold one only touches each tenant's last (widest) template, since
    /// its first epoch invalidates whatever set-up cached.
    pub fn warmup(&self) -> Vec<Step> {
        let all = self.one_of_each();
        match self.workload.kind {
            Kind::ColdTemplates => {
                let last_of_tenant = |r: &Request| {
                    let tenant = self.templates[r.template].tenant;
                    self.templates.iter().rposition(|t| t.tenant == tenant) == Some(r.template)
                };
                all.into_iter().filter(last_of_tenant).map(Step::Request).collect()
            }
            _ => all.into_iter().map(Step::Request).collect(),
        }
    }

    /// Round `r` of the stream.
    pub fn round(&self, r: usize) -> Vec<Step> {
        let w = &self.workload;
        let mut rng = Rng::new(self.seed ^ (r as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match w.kind {
            // Two epochs. Each starts with the tuning event on the star
            // tenant (NV alternates 4 / 5, so the fingerprint changes and
            // the sweep strands every plan) and new services for the others.
            // NV = 4 comes first: set-up warmed the NV = 5 system.
            Kind::ColdTemplates => {
                let mut steps = Vec::new();
                for nv in [STAR_NC - 2, STAR_NC - 1] {
                    steps.push(Step::Retune { tenant: 0, spec: star(nv, 6, 3) });
                    steps.push(Step::FreshService { tenant: 1 });
                    steps.push(Step::FreshService { tenant: 2 });
                    steps.extend(self.one_of_each().into_iter().map(Step::Request));
                }
                steps
            }
            // Per 20 requests: 4 × six corners, 2 × four, 8 × three, 6 × two,
            // so the median falls in the middle of the three-corner requests
            // and the 90th percentile in the middle of the six-corner ones.
            // Every tenth block of 20 asks for keys no document holds.
            Kind::WarmPoint => {
                let n = w.scaled(4000, 200);
                let mut steps: Vec<Step> = (0..n)
                    .map(|i| {
                        let t = match i % 20 {
                            0..=3 => 0,
                            4..=5 => 1,
                            6..=13 => 2,
                            _ => 3,
                        };
                        let pick = ((i / 20) % 10 != 9).then(|| rng.below(1 << 30));
                        Step::Request(self.request(t, pick, r * n + i))
                    })
                    .collect();
                rng.shuffle(&mut steps);
                steps
            }
            // Per 10 requests: 2 × six corners, 5 × four, 3 × two (median in
            // the middle of the four-corner requests, 90th percentile in the
            // middle of the six-corner ones), each excluding the next value.
            Kind::WarmScan => {
                let n = w.scaled(240, 10);
                (0..n)
                    .map(|i| {
                        let t = match i % 10 {
                            0 | 5 => 0,
                            1 | 3 | 6 | 8 | 9 => 1,
                            _ => 2,
                        };
                        Step::Request(self.request(t, Some(r * n + i), 0))
                    })
                    .collect()
            }
            // Per 20 requests: 3 chain + 8 snowflake lookups, 2 chain + 4
            // snowflake scans, 3 Example 1.1 lookups. The median falls in the
            // middle of the snowflake lookups, the 90th percentile in the
            // middle of the snowflake scans.
            Kind::NavMixed => {
                let n = w.scaled(200, 20);
                let mut steps: Vec<Step> = (0..n)
                    .map(|i| {
                        let t = match i % 20 {
                            0..=2 => 0,
                            3..=10 => 1,
                            11..=12 => 2,
                            13..=16 => 3,
                            _ => 4,
                        };
                        Step::Request(self.request(t, Some(rng.below(1 << 30)), 0))
                    })
                    .collect();
                rng.shuffle(&mut steps);
                steps
            }
        }
    }
}
