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

use mars_cq::{Atom, ConjunctiveQuery, Term, Variable};
use std::collections::{HashMap, HashSet, VecDeque};

/// The variable(s) an atom *requires* to be already bound for its navigation
/// to be contiguous, and the variable(s) it *produces*. GReX navigation
/// predicates (with or without a `#document` suffix) are the ones subject to
/// the navigation legality criteria; every other predicate (base relations,
/// materialized views, specialization relations) is a valid entry point by
/// itself.
fn atom_io(atom: &Atom) -> (Vec<Variable>, Vec<Variable>) {
    let vars: Vec<Option<Variable>> = atom.args.iter().map(|t| t.as_var()).collect();
    let var = |i: usize| -> Vec<Variable> { vars.get(i).copied().flatten().into_iter().collect() };
    match atom.predicate.grex().0 {
        // root(x): produces x, requires nothing — an entry point.
        "root" => (vec![], var(0)),
        // el(x): structural marker; requires the node, produces nothing new.
        "el" => (var(0), vec![]),
        // child(x,y) / desc(x,y): navigate from x to y.
        "child" | "desc" => (var(0), var(1)),
        // tag(x,t): requires the node; a tag test produces no new node.
        "tag" => (var(0), vec![]),
        // text(x,v), id(x,v): require the node, produce the value.
        "text" | "id" => (var(0), var(1)),
        // attr(x,name,v): requires the node, produces the value.
        "attr" => (var(0), var(2)),
        // Anything else (relations, views, specialization relations, Skolem
        // graphs) is an entry point producing all its variables.
        _ => (vec![], atom.variables().collect()),
    }
}

/// Is this atom a valid entry point into the data (criterion 3)?
pub fn is_entry_point(atom: &Atom) -> bool {
    atom_io(atom).0.is_empty()
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
pub fn prune_parallel_desc(plan: &ConjunctiveQuery) -> ConjunctiveQuery {
    let is_nav = |a: &Atom| {
        let base = a.predicate.grex().0;
        (base == "desc" || base == "child") && a.arity() == 2
    };
    let mut keep = vec![true; plan.body.len()];

    let reachable_without = |from: Term, to: Term, skip: usize, keep: &[bool]| -> bool {
        if from == to {
            return true;
        }
        let mut adj: HashMap<Term, Vec<Term>> = HashMap::new();
        for (i, a) in plan.body.iter().enumerate() {
            if keep[i] && i != skip && is_nav(a) {
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
            if !keep[i] || a.predicate.grex().0 != "desc" || a.arity() != 2 {
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

/// The atom reachability graph of a query: nodes are atom indices, with an
/// edge `a1 → a2` when `a1` produces a variable that `a2` requires. The
/// graph's roots are the entry-point atoms.
#[derive(Clone, Debug)]
pub struct ReachabilityGraph {
    /// For each atom, the variables it requires.
    requires: Vec<Vec<Variable>>,
    /// For each atom, the variables it produces.
    produces: Vec<Vec<Variable>>,
    /// Indices of entry-point atoms (criterion 3 roots).
    pub roots: Vec<usize>,
    /// Successor lists (atom index → atoms it enables).
    pub successors: Vec<Vec<usize>>,
}

impl ReachabilityGraph {
    /// Build the reachability graph of a query body.
    pub fn new(query: &ConjunctiveQuery) -> ReachabilityGraph {
        let n = query.body.len();
        let mut requires = Vec::with_capacity(n);
        let mut produces = Vec::with_capacity(n);
        for a in &query.body {
            let (r, p) = atom_io(a);
            requires.push(r);
            produces.push(p);
        }
        let roots: Vec<usize> = (0..n).filter(|&i| requires[i].is_empty()).collect();
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for (j, required) in requires.iter().enumerate() {
                if i == j {
                    continue;
                }
                if required.iter().any(|v| produces[i].contains(v)) {
                    successors[i].push(j);
                }
            }
        }
        ReachabilityGraph { requires, produces, roots, successors }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.requires.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.requires.is_empty()
    }

    /// Is the subset of atom indices a *legal* subquery body according to
    /// criteria 2–3? The subset must be *constructible*: starting from its
    /// entry points, every atom must become enabled (all required variables
    /// produced) by atoms added before it. This is strictly stronger than
    /// checking that requirements are produced *somewhere* in the subset —
    /// that weaker test accepts navigation cycles detached from any entry
    /// point, which no XQuery navigation can express and which the
    /// [`ReachabilityGraph::enabled`]-driven enumeration can never reach
    /// (the two must agree, or the backchase's seed/grow strategy and its
    /// legality filter would disagree about the search space).
    pub fn is_legal_subset(&self, subset: &[usize]) -> bool {
        if subset.is_empty() {
            return false;
        }
        let mut produced: HashSet<Variable> = HashSet::new();
        let mut added = vec![false; subset.len()];
        let mut remaining = subset.len();
        let mut progress = true;
        while progress && remaining > 0 {
            progress = false;
            for (k, &i) in subset.iter().enumerate() {
                if !added[k] && self.requires[i].iter().all(|v| produced.contains(v)) {
                    produced.extend(self.produces[i].iter().copied());
                    added[k] = true;
                    remaining -= 1;
                    progress = true;
                }
            }
        }
        remaining == 0
    }

    /// The atoms that become *enabled* (all required variables produced) by
    /// the given subset — candidates for growing the subset by one atom.
    pub fn enabled(&self, subset: &[usize]) -> Vec<usize> {
        let chosen: HashSet<usize> = subset.iter().copied().collect();
        let produced: HashSet<Variable> =
            subset.iter().flat_map(|&i| self.produces[i].iter().copied()).collect();
        (0..self.len())
            .filter(|i| !chosen.contains(i))
            .filter(|&i| self.requires[i].iter().all(|v| produced.contains(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::{Atom, ConjunctiveQuery, Term};

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
        assert!(pruned.body.iter().all(|a| a.predicate.name() != "desc"));
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
                    if (a.predicate.name() == "desc" || a.predicate.name() == "child")
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

    /// Regression (criteria 2–3): a navigation cycle detached from the entry
    /// point satisfies the naive "requirements produced somewhere" test but
    /// is not constructible and must be rejected — `is_legal_subset` and the
    /// `enabled`-driven enumeration must agree on the search space.
    #[test]
    fn criteria_2_3_reject_detached_cycles() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("b")]).with_body(vec![
            root(t("r")),
            child(t("r"), t("a")),
            child(t("x"), t("y")),
            child(t("y"), t("x")),
        ]);
        let g = ReachabilityGraph::new(&q);
        assert!(g.is_legal_subset(&[0, 1]));
        assert!(!g.is_legal_subset(&[0, 1, 2, 3]), "detached cycle must be illegal");
        assert!(!g.is_legal_subset(&[2, 3]));
    }

    #[test]
    fn entry_points() {
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
            assert!(g.is_legal_subset(&subset), "prefix of length {k} must be legal");
        }
        // The subquery {root(x1), child(x2,x3)} violates contiguity (criterion 2).
        assert!(!g.is_legal_subset(&[0, 2]));
        // The subquery {child(x1,x2), child(x2,x3)} has no entry point (criterion 3).
        assert!(!g.is_legal_subset(&[1, 2]));
        // Count all legal subsets by brute force: must be exactly n (the prefixes).
        let n = q.body.len();
        let mut legal = 0;
        for mask in 1u32..(1 << n) {
            let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            if g.is_legal_subset(&subset) {
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
        assert_eq!(g.enabled(&[]), vec![0]);
        assert_eq!(g.enabled(&[0]), vec![1]);
        assert_eq!(g.enabled(&[0, 1]), vec![2]);
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
        assert!(g.is_legal_subset(&[0]));
        assert!(g.is_legal_subset(&[0, 1]));
        assert!(!g.is_legal_subset(&[3]));
        assert!(g.is_legal_subset(&[2, 3]));
    }
}
