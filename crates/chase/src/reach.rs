//! XML-specific pruning of the universal plan and the atom reachability
//! graph (Section 3.2, criteria 1–3).
//!
//! * **Criterion 1**: a `desc(x,y)` atom that runs "parallel" to a chain of
//!   `child`/`desc` atoms from `x` to `y` is redundant and, in any reasonable
//!   (monotone) cost model, never part of the optimal reformulation — it is
//!   removed from the universal plan before the backchase.
//! * **Criteria 2–3**: subqueries whose navigation "jumps" (child/descendant
//!   steps that are not contiguous) or that never enter the document through
//!   the root or another valid entry point do not correspond to legal XQuery
//!   navigation and are never enumerated. Both criteria are implemented by
//!   traversing a directed *reachability graph* whose nodes are the atoms of
//!   the universal plan.
//!
//! Both read an atom as navigation only through the GReX classifier
//! ([`Atom::navigation`]): `base#document` at the base's arity. Any other
//! atom — a view or table called `desc` or `id` included — is a relation,
//! hence an entry point, and never a `desc` edge.
//!
//! The graph is compiled once per backchase: each atom's required and
//! produced variables become word bitsets over dense variable ids, so the
//! atoms a prefix of the backchase's walk may be extended by are found with
//! word operations ([`ReachabilityGraph::extensions_into`]). Every set the
//! walk builds is an entry point extended by enabled atoms, hence legal by
//! construction. The legality fixpoint that states the definition lives
//! beside the tests, as the oracle the growth is held against.

use mars_cq::{Atom, AtomSet, ConjunctiveQuery, FxHashMap, FxHashSet, NavBase, Term, Variable};
use std::collections::VecDeque;

const WORD_BITS: usize = 64;

/// The variables an atom requires and those it produces ([`atom_io`]).
pub(crate) type AtomIo = (Vec<Variable>, Vec<Variable>);

/// The variable(s) an atom *requires* to be already bound for its navigation
/// to be contiguous, and the variable(s) it *produces*.
pub(crate) fn atom_io(atom: &Atom) -> AtomIo {
    let var = |i: usize| -> Vec<Variable> { atom.args[i].as_var().into_iter().collect() };
    let Some((base, _)) = atom.navigation() else {
        // Relations, views, specialization relations and Skolem graphs are
        // entry points producing all their variables.
        return (vec![], atom.variables().collect());
    };
    match base {
        // root(x): produces x, requires nothing — an entry point.
        NavBase::Root => (vec![], var(0)),
        // el(x), tag(x,t): require the node, produce nothing new.
        NavBase::El | NavBase::Tag => (var(0), vec![]),
        // child(x,y) / desc(x,y) navigate from x to y; text(x,v) and id(x,v)
        // produce the value of a bound node.
        NavBase::Child | NavBase::Desc | NavBase::Text | NavBase::Id => (var(0), var(1)),
        // attr(x,name,v): requires the node, produces the value.
        NavBase::Attr => (var(0), var(2)),
    }
}

/// Is the atom a `child` or `desc` edge — an edge of criterion 1's graph?
fn is_edge(atom: &Atom) -> bool {
    matches!(atom.navigation(), Some((NavBase::Child | NavBase::Desc, _)))
}

/// Is the atom a `desc` edge — one criterion 1 may drop?
fn is_desc(atom: &Atom) -> bool {
    matches!(atom.navigation(), Some((NavBase::Desc, _)))
}

/// Remove `desc` atoms that are parallel to a chain of `child`/`desc` atoms
/// (criterion 1). Reflexive `desc(x,x)` atoms are parallel to the empty chain
/// and are removed as well.
///
/// Removal is *iterative*: one atom is dropped at a time and reachability is
/// recomputed over the surviving edges. Judging every `desc` atom against the
/// full edge set and removing them in bulk is unsound — two `desc` atoms that
/// are each other's only alternative path would both be justified and both
/// removed, disconnecting navigation that some reformulation still needs (a
/// completeness loss, not just a missed optimization).
///
/// The navigation edges are indexed once, each tagged by its atom; a search
/// skips the edges of the atom under test and of every atom already dropped,
/// so a later check sees an earlier removal without rebuilding anything.
pub fn prune_parallel_desc(plan: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut adjacency: FxHashMap<Term, Vec<(usize, Term)>> = FxHashMap::default();
    for (i, a) in plan.body.iter().enumerate() {
        if is_edge(a) {
            adjacency.entry(a.args[0]).or_default().push((i, a.args[1]));
        }
    }
    let mut keep = vec![true; plan.body.len()];
    let mut seen: FxHashSet<Term> = FxHashSet::default();
    let mut queue: VecDeque<Term> = VecDeque::new();
    let mut reachable_without = |from: Term, to: Term, skip: usize, keep: &[bool]| -> bool {
        if from == to {
            return true;
        }
        seen.clear();
        queue.clear();
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                return true;
            }
            if !seen.insert(cur) {
                continue;
            }
            if let Some(edges) = adjacency.get(&cur) {
                queue.extend(edges.iter().filter(|&&(j, _)| j != skip && keep[j]).map(|&(_, y)| y));
            }
        }
        false
    };

    let mut changed = true;
    while changed {
        changed = false;
        for (i, a) in plan.body.iter().enumerate() {
            if !keep[i] || !is_desc(a) {
                continue;
            }
            if reachable_without(a.args[0], a.args[1], i, &keep) {
                keep[i] = false;
                changed = true;
            }
        }
    }
    let body: Vec<Atom> =
        plan.body.iter().enumerate().filter(|(i, _)| keep[*i]).map(|(_, a)| a.clone()).collect();
    ConjunctiveQuery {
        name: plan.name.clone(),
        head: plan.head.clone(),
        body,
        inequalities: plan.inequalities.clone(),
    }
}

/// The atom reachability graph of a query: an atom is *enabled* by a set of
/// atoms when each variable it requires is produced by one of them, and the
/// graph's roots are the entry-point atoms, which the empty set enables.
#[derive(Clone, Debug)]
pub struct ReachabilityGraph {
    /// Words per variable bitset (at least one).
    words: usize,
    /// Atom `i`'s required variables: words `i * words .. (i + 1) * words`.
    requires: Vec<u64>,
    /// Atom `i`'s produced variables, laid out like `requires`.
    produces: Vec<u64>,
    /// Indices of entry-point atoms (criterion 3 roots).
    pub roots: Vec<usize>,
}

impl ReachabilityGraph {
    /// Build the reachability graph of a query body, numbering its variables
    /// densely and compiling what each atom requires and produces into
    /// bitsets.
    pub fn new(query: &ConjunctiveQuery) -> ReachabilityGraph {
        ReachabilityGraph::from_io(&query.body.iter().map(atom_io).collect::<Vec<_>>())
    }

    /// The graph of a body whose atoms' [`atom_io`] is `io`, in body order:
    /// a backchase computes it once for this graph and criterion 4.
    pub(crate) fn from_io(io: &[AtomIo]) -> ReachabilityGraph {
        let mut ids: FxHashMap<Variable, usize> = FxHashMap::default();
        for &v in io.iter().flat_map(|(r, p)| r.iter().chain(p)) {
            let next = ids.len();
            ids.entry(v).or_insert(next);
        }
        let words = ids.len().div_ceil(WORD_BITS).max(1);
        let mut requires = vec![0; io.len() * words];
        let mut produces = vec![0; io.len() * words];
        for (i, (r, p)) in io.iter().enumerate() {
            for (bits, vars) in [(&mut requires, r), (&mut produces, p)] {
                for v in vars {
                    let id = ids[v];
                    bits[i * words + id / WORD_BITS] |= 1 << (id % WORD_BITS);
                }
            }
        }
        let roots = (0..io.len()).filter(|&i| io[i].0.is_empty()).collect();
        ReachabilityGraph { words, requires, produces, roots }
    }

    /// Number of atoms.
    fn atoms(&self) -> usize {
        self.requires.len() / self.words
    }

    fn requires(&self, i: usize) -> &[u64] {
        &self.requires[i * self.words..(i + 1) * self.words]
    }

    fn produces(&self, i: usize) -> &[u64] {
        &self.produces[i * self.words..(i + 1) * self.words]
    }

    /// Does `produced` hold every variable atom `i` requires?
    fn is_enabled_by(&self, i: usize, produced: &[u64]) -> bool {
        self.requires(i).iter().zip(produced).all(|(r, p)| r & !p == 0)
    }

    /// The variables no atom produces: where a set's produced variables
    /// start ([`ReachabilityGraph::produce`] adds an atom's).
    pub fn nothing_produced(&self) -> Vec<u64> {
        vec![0; self.words]
    }

    /// Add the variables atom `i` produces to `produced`.
    pub fn produce(&self, i: usize, produced: &mut [u64]) {
        for (p, w) in produced.iter_mut().zip(self.produces(i)) {
            *p |= w;
        }
    }

    /// The atoms outside `mask` and `blocked` that `produced` *enables* (each
    /// variable they require is in it), ascending, into `out`, which is
    /// overwritten. With `produced` the variables `mask`'s atoms produce,
    /// these are the atoms the set can grow by, less the blocked ones.
    pub fn extensions_into(
        &self,
        mask: &AtomSet,
        blocked: &AtomSet,
        produced: &[u64],
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend((0..self.atoms()).filter(|&i| {
            !mask.contains(i) && !blocked.contains(i) && self.is_enabled_by(i, produced)
        }));
    }
}

/// The set-based forms the compiled ones replaced, and the legality
/// fixpoint that growth by enabled atoms is held against: the oracles the
/// tests compare with. (The backchase's walk grows a set only by atoms it
/// enables, so it builds legal sets alone.)
#[cfg(test)]
pub(crate) mod reference {
    use super::{atom_io, is_desc, is_edge, ReachabilityGraph};
    use mars_cq::{Atom, AtomSet, ConjunctiveQuery, Term, Variable};
    use std::collections::{HashMap, HashSet, VecDeque};

    /// The atoms outside `mask` that `mask` enables, ascending, by the
    /// graph's word bitsets: the atoms a set can grow by.
    pub fn enabled_into(g: &ReachabilityGraph, mask: &AtomSet) -> Vec<usize> {
        let mut produced = g.nothing_produced();
        for i in mask.iter() {
            g.produce(i, &mut produced);
        }
        let mut out = Vec::new();
        g.extensions_into(mask, &AtomSet::new(), &produced, &mut out);
        out
    }

    /// The atoms (outside `subset`) whose required variables `subset`
    /// produces, ascending.
    pub fn enabled(query: &ConjunctiveQuery, subset: &[usize]) -> Vec<usize> {
        let io: Vec<_> = query.body.iter().map(atom_io).collect();
        let chosen: HashSet<usize> = subset.iter().copied().collect();
        let produced: HashSet<Variable> =
            subset.iter().flat_map(|&i| io[i].1.iter().copied()).collect();
        (0..io.len())
            .filter(|i| !chosen.contains(i))
            .filter(|&i| io[i].0.iter().all(|v| produced.contains(v)))
            .collect()
    }

    /// Is the subset of atom indices a *legal* subquery body according to
    /// criteria 2–3? The subset must be *constructible*: starting from its
    /// entry points, every atom must become enabled (all required variables
    /// produced) by atoms added before it. This is strictly stronger than
    /// checking that requirements are produced *somewhere* in the subset —
    /// that weaker test accepts navigation cycles detached from any entry
    /// point, which no XQuery navigation can express.
    ///
    /// The backchase never asks: every set its walk grows from the roots by
    /// the atoms [`ReachabilityGraph::extensions_into`] offers is
    /// constructible by construction, and conversely.
    pub fn is_legal_subset(g: &ReachabilityGraph, subset: &[usize]) -> bool {
        let mut produced = vec![0; g.words];
        let mut pending = subset.to_vec();
        loop {
            let before = pending.len();
            pending.retain(|&i| {
                if !g.is_enabled_by(i, &produced) {
                    return true;
                }
                for (p, w) in produced.iter_mut().zip(g.produces(i)) {
                    *p |= w;
                }
                false
            });
            if pending.is_empty() {
                return !subset.is_empty();
            }
            if pending.len() == before {
                return false;
            }
        }
    }

    /// Criterion 1 with the surviving edges re-indexed for every search.
    pub fn prune_parallel_desc(plan: &ConjunctiveQuery) -> ConjunctiveQuery {
        let mut keep = vec![true; plan.body.len()];

        let reachable_without = |from: Term, to: Term, skip: usize, keep: &[bool]| -> bool {
            if from == to {
                return true;
            }
            let mut adj: HashMap<Term, Vec<Term>> = HashMap::new();
            for (i, a) in plan.body.iter().enumerate() {
                if keep[i] && i != skip && is_edge(a) {
                    adj.entry(a.args[0]).or_default().push(a.args[1]);
                }
            }
            let mut seen = HashSet::new();
            let mut queue = VecDeque::from([from]);
            while let Some(cur) = queue.pop_front() {
                if cur == to {
                    return true;
                }
                if !seen.insert(cur) {
                    continue;
                }
                if let Some(next) = adj.get(&cur) {
                    queue.extend(next.iter().copied());
                }
            }
            false
        };

        let mut changed = true;
        while changed {
            changed = false;
            for (i, a) in plan.body.iter().enumerate() {
                if !keep[i] || !is_desc(a) {
                    continue;
                }
                if reachable_without(a.args[0], a.args[1], i, &keep) {
                    keep[i] = false;
                    changed = true;
                }
            }
        }
        let body: Vec<Atom> = plan
            .body
            .iter()
            .enumerate()
            .filter(|(i, _)| keep[*i])
            .map(|(_, a)| a.clone())
            .collect();
        ConjunctiveQuery {
            name: plan.name.clone(),
            head: plan.head.clone(),
            body,
            inequalities: plan.inequalities.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::{Atom, ConjunctiveQuery, Term};
    use proptest::prelude::*;

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    fn chain_query(n: usize) -> ConjunctiveQuery {
        // root(x1), child(x1,x2), ..., child(x_{n-1}, x_n)
        let mut body = vec![root(t("x1"))];
        for i in 1..n {
            body.push(child(t(&format!("x{i}")), t(&format!("x{}", i + 1))));
        }
        ConjunctiveQuery::new("chain").with_head(vec![t(&format!("x{n}"))]).with_body(body)
    }

    /// The atoms `subset` enables, by the graph's word bitsets.
    fn enabled(g: &ReachabilityGraph, subset: &[usize]) -> Vec<usize> {
        reference::enabled_into(g, &subset.iter().copied().collect())
    }

    /// The indices of `bits`, ascending.
    fn indices(bits: u32, n: usize) -> Vec<usize> {
        (0..n).filter(|i| bits >> i & 1 != 0).collect()
    }

    #[test]
    fn criterion_1_removes_parallel_desc() {
        // chain with the chase-added desc atoms: all desc parallel to child chains go away.
        let mut q = chain_query(4);
        q = q
            .with_atom(desc(t("x1"), t("x2")))
            .with_atom(desc(t("x1"), t("x3")))
            .with_atom(desc(t("x2"), t("x4")))
            .with_atom(desc(t("x2"), t("x2")));
        let pruned = prune_parallel_desc(&q);
        assert!(pruned.body.iter().all(|a| a.predicate.name() != "desc#d.xml"));
        assert_eq!(pruned.body.len(), 4); // root + 3 child atoms
    }

    #[test]
    fn criterion_1_keeps_essential_desc() {
        // //a/b : root(r), desc(r,a), child(a,b) — the desc atom is the only
        // way to reach `a`, it must be kept.
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("b")]).with_body(vec![
            root(t("r")),
            desc(t("r"), t("a")),
            child(t("a"), t("b")),
        ]);
        let pruned = prune_parallel_desc(&q);
        assert_eq!(pruned.body.len(), 3);
    }

    #[test]
    fn criterion_1_uses_multi_edge_chains() {
        // desc(x,z) parallel to desc(x,y), child(y,z) is removed.
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("z")]).with_body(vec![
            root(t("x")),
            desc(t("x"), t("y")),
            child(t("y"), t("z")),
            desc(t("x"), t("z")),
        ]);
        let pruned = prune_parallel_desc(&q);
        assert_eq!(pruned.body.len(), 3);
        assert!(pruned.body.contains(&desc(t("x"), t("y"))));
        assert!(!pruned.body.contains(&desc(t("x"), t("z"))));
    }

    /// Regression (criterion 1): two `desc` atoms that are each other's only
    /// alternative path must not *both* be removed. Judged against the full
    /// edge set, `desc(x,y)` is parallel to `desc(x,z), child(z,y)` and
    /// `desc(x,z)` is parallel to `desc(x,y), child(y,z)` — bulk removal
    /// would disconnect both `y` and `z` from `x` and lose every
    /// reformulation that navigates through them.
    #[test]
    fn criterion_1_mutual_parallelism_keeps_connectivity() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("y"), t("z")]).with_body(vec![
            root(t("x")),
            desc(t("x"), t("y")),
            desc(t("x"), t("z")),
            child(t("y"), t("z")),
            child(t("z"), t("y")),
        ]);
        let pruned = prune_parallel_desc(&q);
        // y and z must still be reachable from x.
        let reaches = |target: Term| -> bool {
            let mut seen = vec![t("x")];
            let mut frontier = vec![t("x")];
            while let Some(cur) = frontier.pop() {
                for a in &pruned.body {
                    if (a.predicate.name() == "desc#d.xml" || a.predicate.name() == "child#d.xml")
                        && a.args[0] == cur
                        && !seen.contains(&a.args[1])
                    {
                        seen.push(a.args[1]);
                        frontier.push(a.args[1]);
                    }
                }
            }
            seen.contains(&target)
        };
        assert!(reaches(t("y")), "y disconnected: {pruned}");
        assert!(reaches(t("z")), "z disconnected: {pruned}");
    }

    /// A random `root` / `child` / `desc` plan of at most 14 atoms over two
    /// documents, with reflexive `desc` atoms and mutually parallel `desc`
    /// pairs shaped like the one above.
    fn random_navigation(seed: u64) -> ConjunctiveQuery {
        let mut rng = TestRng::new(seed);
        let len = 1 + (rng.next_u64() % 14) as usize;
        let mut body = Vec::new();
        while body.len() < len {
            let doc = ["#a.xml", "#b.xml"][(rng.next_u64() % 2) as usize];
            let nav = |base: &str, x: usize, y: usize| {
                Atom::named(&format!("{base}{doc}"), vec![t(&format!("v{x}")), t(&format!("v{y}"))])
            };
            let (x, y, z) = (rng.next_u64() % 6, rng.next_u64() % 6, rng.next_u64() % 6);
            let (x, y, z) = (x as usize, y as usize, z as usize);
            match rng.next_u64() % 6 {
                0 => body.push(Atom::named(&format!("root{doc}"), vec![t(&format!("v{x}"))])),
                1 | 2 => body.push(nav("child", x, y)),
                3 => body.push(nav("desc", x, y)),
                4 => body.push(nav("desc", x, x)),
                _ => body.extend([
                    nav("desc", x, y),
                    nav("desc", x, z),
                    nav("child", y, z),
                    nav("child", z, y),
                ]),
            }
        }
        body.truncate(14);
        ConjunctiveQuery::new("P").with_head(vec![t("v0")]).with_body(body)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One adjacency tagged by atom drops the same atoms, in the same
        /// order, as re-indexing the surviving edges for every search.
        #[test]
        fn criterion_1_agrees_with_the_reference(seed in 0u64..u64::MAX) {
            let plan = random_navigation(seed);
            prop_assert_eq!(prune_parallel_desc(&plan), reference::prune_parallel_desc(&plan));
        }
    }

    /// Regression (criteria 2–3): a navigation cycle detached from the entry
    /// point satisfies the naive "requirements produced somewhere" test but
    /// is not constructible and must be rejected — `is_legal_subset` and
    /// growth by enabled atoms must agree on the search space.
    #[test]
    fn criteria_2_3_reject_detached_cycles() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("b")]).with_body(vec![
            root(t("r")),
            child(t("r"), t("a")),
            child(t("x"), t("y")),
            child(t("y"), t("x")),
        ]);
        let g = ReachabilityGraph::new(&q);
        assert!(reference::is_legal_subset(&g, &[0, 1]));
        assert!(!reference::is_legal_subset(&g, &[0, 1, 2, 3]), "detached cycle must be illegal");
        assert!(!reference::is_legal_subset(&g, &[2, 3]));
    }

    #[test]
    fn entry_points() {
        // An entry point (criterion 3) requires no variable to be bound.
        let is_entry_point = |atom: &Atom| atom_io(atom).0.is_empty();
        assert!(is_entry_point(&root(t("r"))));
        assert!(is_entry_point(&Atom::named("drugPrice", vec![t("d"), t("p")])));
        assert!(is_entry_point(&Atom::named("V3", vec![t("k"), t("b")])));
        assert!(!is_entry_point(&child(t("x"), t("y"))));
        assert!(!is_entry_point(&tag(t("x"), "a")));
    }

    #[test]
    fn legal_subsets_of_a_chain_are_prefixes() {
        // Paper: criteria 2-3 reduce the chain's subqueries from exponential
        // to O(n) — exactly the root-anchored prefixes.
        let q = chain_query(5);
        let g = ReachabilityGraph::new(&q);
        assert_eq!(g.roots, vec![0]);
        // Prefixes are legal.
        for k in 1..=5usize {
            let subset: Vec<usize> = (0..k).collect();
            assert!(reference::is_legal_subset(&g, &subset), "prefix of length {k} must be legal");
        }
        // The subquery {root(x1), child(x2,x3)} violates contiguity (criterion 2).
        assert!(!reference::is_legal_subset(&g, &[0, 2]));
        // The subquery {child(x1,x2), child(x2,x3)} has no entry point (criterion 3).
        assert!(!reference::is_legal_subset(&g, &[1, 2]));
        // Count all legal subsets by brute force: must be exactly n (the prefixes).
        let n = q.body.len();
        let mut legal = 0;
        for mask in 1u32..(1 << n) {
            let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            if reference::is_legal_subset(&g, &subset) {
                legal += 1;
            }
        }
        assert_eq!(legal, n);
    }

    #[test]
    fn enabled_atoms_grow_along_navigation() {
        let q = chain_query(4);
        let g = ReachabilityGraph::new(&q);
        // With nothing chosen, only the entry point (root) is enabled.
        for (subset, expected) in [(&[][..], vec![0]), (&[0], vec![1]), (&[0, 1], vec![2])] {
            assert_eq!(enabled(&g, subset), expected);
            assert_eq!(reference::enabled(&q, subset), expected);
        }
    }

    /// 70 atoms over 70 variables: the variable bitsets and the atom sets
    /// both span two words. Growth from the root reaches the prefixes, one
    /// per size, and nothing else.
    #[test]
    fn growth_spans_two_words_on_a_70_atom_chain() {
        let q = chain_query(70);
        let g = ReachabilityGraph::new(&q);
        assert_eq!(g.words, 2);
        let mut level: Vec<AtomSet> = g.roots.iter().map(|&r| AtomSet::singleton(r)).collect();
        for k in 1..=70 {
            let prefix: Vec<usize> = (0..k).collect();
            assert_eq!(level, [prefix.iter().copied().collect::<AtomSet>()], "size {k}");
            assert!(reference::is_legal_subset(&g, &prefix));
            let grown = enabled(&g, &prefix);
            assert_eq!(grown, reference::enabled(&q, &prefix));
            level = grown.iter().map(|&a| level[0].with(a)).collect();
        }
        assert!(level.is_empty());
        // A gap at the word boundary: illegal, and it enables only the gap.
        let gapped: Vec<usize> = (0..70).filter(|&i| i != 63).collect();
        assert!(!reference::is_legal_subset(&g, &gapped));
        assert_eq!(enabled(&g, &gapped), [63]);
        assert_eq!(reference::enabled(&q, &gapped), [63]);
    }

    /// A random pool of at most 12 atoms: GReX navigation over two documents
    /// with constants in node positions, views as entry points, detached
    /// navigation cycles, and `el` / `tag` / `attr` / `text` tests.
    fn random_pool(seed: u64) -> ConjunctiveQuery {
        let mut rng = TestRng::new(seed);
        let len = 1 + (rng.next_u64() % 12) as usize;
        let mut body = Vec::new();
        while body.len() < len {
            let doc = ["#a.xml", "#b.xml"][(rng.next_u64() % 2) as usize];
            let mut node = || match rng.next_u64() % 8 {
                0 => Term::constant_str("n0"),
                k => t(&format!("x{}", k % 5)),
            };
            let (x, y) = (node(), node());
            let value = t(&format!("v{}", rng.next_u64() % 3));
            let grex = |base: &str, args: Vec<Term>| Atom::named(&format!("{base}{doc}"), args);
            match rng.next_u64() % 10 {
                0 | 1 => body.push(grex("root", vec![x])),
                2 | 3 => body.push(grex("child", vec![x, y])),
                4 => body.push(grex("desc", vec![x, y])),
                5 => body.push(grex("el", vec![x])),
                6 => body.push(grex("tag", vec![x, Term::constant_str("a")])),
                7 => body.push(grex("attr", vec![x, Term::constant_str("k"), value])),
                8 => body.push(Atom::named("V", vec![x, value])),
                _ => body.extend([grex("child", vec![x, y]), grex("child", vec![y, x])]),
            }
        }
        body.truncate(12);
        ConjunctiveQuery::new("P").with_head(vec![t("x0")]).with_body(body)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The search space is the same, proved over every subset: (i) growth
        /// from the roots by the atoms each set enables reaches exactly the
        /// subsets the legality fixpoint accepts — the invariant that keeps
        /// the fixpoint out of the backchase — and (ii) the word bitsets
        /// agree with the set-based reference on each one.
        #[test]
        fn growth_from_the_roots_reaches_exactly_the_legal_subsets(seed in 0u64..u64::MAX) {
            let q = random_pool(seed);
            let g = ReachabilityGraph::new(&q);
            let n = q.body.len();
            for bits in 0u32..1 << n {
                let subset = indices(bits, n);
                prop_assert_eq!(enabled(&g, &subset), reference::enabled(&q, &subset), "{}", q);
            }
            let mut grown: FxHashSet<u32> = FxHashSet::default();
            let mut stack: Vec<u32> = g.roots.iter().map(|&r| 1 << r).collect();
            while let Some(bits) = stack.pop() {
                if grown.insert(bits) {
                    stack.extend(enabled(&g, &indices(bits, n)).iter().map(|&a| bits | 1 << a));
                }
            }
            let legal: FxHashSet<u32> =
                (0u32..1 << n).filter(|&bits| reference::is_legal_subset(&g, &indices(bits, n))).collect();
            prop_assert_eq!(grown, legal, "{}", q);
        }
    }

    #[test]
    fn views_are_their_own_entry_points_in_the_graph() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("k")]).with_body(vec![
            Atom::named("V1", vec![t("k"), t("b1"), t("b2")]),
            Atom::named("V2", vec![t("k"), t("b2"), t("b3")]),
            root(t("r")),
            child(t("r"), t("e")),
        ]);
        let g = ReachabilityGraph::new(&q);
        assert!(g.roots.contains(&0) && g.roots.contains(&1) && g.roots.contains(&2));
        assert!(reference::is_legal_subset(&g, &[0]));
        assert!(reference::is_legal_subset(&g, &[0, 1]));
        assert!(!reference::is_legal_subset(&g, &[3]));
        assert!(reference::is_legal_subset(&g, &[2, 3]));
    }
}
