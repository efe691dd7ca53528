//! The plan cache's shape key, written in one pass into one buffer
//! (`mars_xquery::shape_of`), is byte-identical to the key the earlier
//! per-atom rendering produced — the rendering kept below as `reference` —
//! on every client query of the repository's workloads, with and without
//! constant filters. A cached entry is found by that key, so any drift would
//! turn every warm hit of a resident service into a miss.

use mars::Mars;
use mars_workloads::{example11, scenarios::Scenario, star::StarConfig, xmark};
use mars_xquery::{shape_of, XBindAtom, XBindQuery, XBindTerm};
use std::collections::HashSet;

/// The shape key as it was rendered before the one-pass writer: one `String`
/// per term and per atom, joined at the end.
mod reference {
    use mars_xquery::{QueryShape, XBindAtom, XBindQuery, XBindTerm};
    use std::collections::{HashMap, HashSet};

    struct Normalizer<'a> {
        reserved: &'a HashSet<String>,
        vars: HashMap<String, usize>,
        var_order: Vec<String>,
        params: HashMap<String, usize>,
        param_order: Vec<String>,
    }

    impl Normalizer<'_> {
        fn var(&mut self, name: &str) -> String {
            let next = self.vars.len();
            let i = *self.vars.entry(name.to_string()).or_insert(next);
            if i == next && self.var_order.len() == next {
                self.var_order.push(name.to_string());
            }
            format!("v{i}")
        }

        fn constant(&mut self, value: &str) -> String {
            if self.reserved.contains(value) {
                return format!("{value:?}");
            }
            let next = self.params.len();
            let i = *self.params.entry(value.to_string()).or_insert(next);
            if i == next && self.param_order.len() == next {
                self.param_order.push(value.to_string());
            }
            format!("?{i}")
        }

        fn term(&mut self, t: &XBindTerm) -> String {
            match t {
                XBindTerm::Var(v) => self.var(v),
                XBindTerm::Str(s) => self.constant(s),
            }
        }

        fn atom(&mut self, a: &XBindAtom) -> String {
            match a {
                XBindAtom::AbsolutePath { document, path, var } => {
                    format!("doc({document:?})[{path}]({})", self.var(var))
                }
                XBindAtom::RelativePath { path, source, var } => {
                    format!("rel[{path}]({},{})", self.var(source), self.var(var))
                }
                XBindAtom::QueryRef { name, vars } => {
                    let vs: Vec<String> = vars.iter().map(|v| self.var(v)).collect();
                    format!("ref {name}({})", vs.join(","))
                }
                XBindAtom::Relational { relation, args } => {
                    let ts: Vec<String> = args.iter().map(|t| self.term(t)).collect();
                    format!("{relation}({})", ts.join(","))
                }
                XBindAtom::Eq(a, b) => format!("eq({},{})", self.term(a), self.term(b)),
                XBindAtom::Neq(a, b) => format!("neq({},{})", self.term(a), self.term(b)),
            }
        }
    }

    pub fn shape_of(q: &XBindQuery, reserved: &HashSet<String>) -> QueryShape {
        let mut n = Normalizer {
            reserved,
            vars: HashMap::new(),
            var_order: Vec::new(),
            params: HashMap::new(),
            param_order: Vec::new(),
        };
        let head: Vec<String> = q.head.iter().map(|v| n.var(v)).collect();
        let atoms: Vec<String> = q.atoms.iter().map(|a| n.atom(a)).collect();
        let key = format!(
            "{name}{distinct}({head}) :- {atoms}",
            name = q.name,
            distinct = if q.distinct { " distinct" } else { "" },
            head = head.join(","),
            atoms = atoms.join(" & "),
        );
        QueryShape { key, constants: n.param_order, variables: n.var_order }
    }
}

/// `q` as it arrives, and `q` with constant filters on its first head
/// variable: a fresh value, the same value twice (an implicit equality
/// join), a reserved value, and a filter through a `Neq`.
fn variants(q: &XBindQuery, reserved: &HashSet<String>) -> Vec<XBindQuery> {
    let Some(v) = q.head.first() else { return vec![q.clone()] };
    let filter = |value: &str| XBindAtom::Eq(XBindTerm::var(v), XBindTerm::str(value));
    let mut out = vec![
        q.clone(),
        q.clone().with_atom(filter("key-17")),
        q.clone().with_atom(filter("key-17")).with_atom(filter("key-17")),
        q.clone()
            .with_atom(filter("key-17"))
            .with_atom(XBindAtom::Neq(XBindTerm::str("key-18"), XBindTerm::var(v))),
    ];
    let mut reserved: Vec<&String> = reserved.iter().collect();
    reserved.sort();
    if let Some(value) = reserved.first() {
        out.push(q.clone().with_atom(filter(value)).with_atom(filter("key-17")));
    }
    out
}

fn assert_same_shapes(system: &Mars, queries: &[XBindQuery]) {
    let reserved = system.reserved_constants();
    for q in queries {
        for variant in variants(q, &reserved) {
            for reserved in [&reserved, &HashSet::new()] {
                assert_eq!(
                    shape_of(&variant, reserved),
                    reference::shape_of(&variant, reserved),
                    "the shapes of {} differ",
                    variant.name
                );
            }
        }
    }
}

#[test]
fn star_nc6_corner_subsets_shape_as_before() {
    let cfg = StarConfig::figure5(6);
    let subsets: Vec<XBindQuery> = (1u32..64)
        .map(|mask| {
            let corners: Vec<usize> = (1..=6).filter(|c| mask & (1 << (c - 1)) != 0).collect();
            cfg.corner_query(&corners)
        })
        .collect();
    assert_same_shapes(&cfg.mars(mars::MarsOptions::specialized()), &subsets);
}

#[test]
fn xmark_example_1_1_and_the_scenario_matrix_shape_as_before() {
    assert_same_shapes(&xmark::mars(true), &xmark::query_suite());
    assert_same_shapes(&example11::mars(), &[example11::client_query()]);
    for scenario in Scenario::matrix() {
        assert_same_shapes(&scenario.mars(), &[scenario.client_query()]);
    }
}
