//! The backchase: bottom-up enumeration of subqueries of the universal plan
//! with cost-based pruning (Section 2.3), the XML-specific navigation
//! pruning of Section 3.2 and a fourth criterion that never grows a
//! candidate holding an atom another of its atoms implies — or, for a query
//! under no dependencies at all, minimization to its core.
//!
//! Reformulations may only mention the *proprietary* schema, so the
//! enumeration is restricted to the subquery `M` of the universal plan induced
//! by proprietary-schema atoms (the *initial reformulation*); all minimal
//! reformulations are subqueries of `M`. Subqueries are inspected in order of
//! increasing size; when one is found equivalent to the original query it is a
//! *minimal* reformulation (no smaller subquery was equivalent), the best cost
//! is updated, and supersets are pruned.
//!
//! # The core path
//!
//! Under an empty dependency set a cost-pruned backchase does not enumerate.
//! Without dependencies the minimal reformulations are exactly the cores of
//! the pool — all isomorphic, so all the same size and cost — and dropping
//! atoms one at a time while the rest stays equivalent finds one (classical
//! conjunctive-query minimization, Chandra–Merlin 1977). The choice is made
//! by the input alone: `deds` empty and [`BackchaseOptions::exhaustive`]
//! unset. An exhaustive run enumerates whatever the dependencies, because
//! its contract is every minimal reformulation. The enumeration over a
//! 27–42-atom dependency-free navigation pool (the redundancy-0 scenarios)
//! takes seconds per query, where the core path runs a few dozen
//! equivalence checks.
//!
//! # Engine structure
//!
//! The enumeration is **level-synchronous**: level `L` checks candidate
//! atom sets ([`AtomSet`] — growable bitsets, so pools wider than 128 atoms
//! enumerate exhaustively) of `L` atoms, and its verdicts are read before
//! level `L + 1` is built. A *walk* builds each level's candidates: exactly
//! the sets a breadth-first frontier of every legal subset would check, in
//! that frontier's order, without building the unsafe subsets in between
//! (see below). A level is then judged in one pass on the calling thread,
//! in position order: each candidate's memo seed is probed, it is checked,
//! and its verdict is recorded — the funnel counters, `minimal` and `best`,
//! the memo of the next level, and what the walk extends.
//!
//! ## A candidate is an atom set until it is proved
//!
//! A candidate reaches its check as a set of pool atoms, and is rendered as
//! a query only where something reads one. Most checks need none, because
//! two facts hold of every candidate:
//!
//! * **It binds the head.** While the safety prefilter is active (fewer
//!   than 64 head variables), the walk emits only sets whose atoms cover
//!   every head variable, so the check does not test safety again. With
//!   the prefilter off, and on the core path, it does.
//! * **It lies in the plan's first branch.** The pool is taken from
//!   `primary`, the rendering of the universal plan's first branch, so
//!   every pool atom is an atom of that branch, under its head, and the
//!   identity maps the candidate there. `original ⊆ candidate` is searched
//!   only on the other branches of a disjunctive plan.
//!
//! A resumed back-chase reads its seed and the one atom it adds; a
//! from-scratch one, and a search into another branch, render the
//! candidate once, without a name. Only a candidate found equivalent is
//! rendered as `{name}_candidate{n}`, `n` its position among the checked
//! candidates of the whole run. Debug builds still run both skipped tests,
//! as assertions.
//!
//! ## The canonical sequence
//!
//! A set of pool atoms is *constructible* (criteria 2–3) when its atoms can
//! be added one at a time, each *enabled* by the atoms before it: every
//! variable it requires is produced by one of them
//! ([`ReachabilityGraph`], which compiles both to word bitsets). Its
//! *canonical sequence* is the construction order that always takes the
//! smallest atom the earlier atoms enable. The walk extends a prefix
//! `P = (a₁ … a_d)` by an atom `g` only when all three hold: `g ∉ P`; `P`
//! enables `g`; and no `j` has both `g < a_j` and `g` enabled by
//! `a₁ … a_{j−1}` (then the canonical sequence would have taken `g` at
//! step `j`). So every extension is again a canonical sequence, every
//! canonical sequence is reached through its own prefixes, and the walk
//! reaches each constructible set exactly once, with no visited set. The
//! third condition is a bitset per prefix, its *blocked* atoms
//! ([`ReachabilityGraph::extensions_into`] skips them): extending `P` by
//! `g` blocks, for that child, every atom `P` could be extended by that is
//! smaller than `g`. In a relational pool every atom is an entry point, so
//! the canonical sequences are the ascending ones and the walk enumerates
//! combinations.
//!
//! **Why this is the BFS order.** The breadth-first enumeration the walk
//! replaced held level `k + 1` in first-insertion order: it grew level
//! `k`'s sets in their order, each by the atoms it enables in ascending
//! order, and kept a child the first time a parent produced it. Suppose
//! level `k` is in canonical-sequence order (level 1 is: the entry points
//! ascending). Let `S` have canonical sequence `(a₁ … a_{k+1})` and
//! `C = {a₁ … a_k}`. Any other parent `S ∖ {a_j}`, `j ≤ k`, that is
//! constructible agrees with `S`'s sequence on `a₁ … a_{j−1}` and then
//! takes an atom greater than `a_j`, which is what `C`'s takes: `C` is
//! `S`'s earliest parent. So `S` sits where `(C's sequence, a_{k+1})` —
//! its own canonical sequence — sorts, and level `k + 1` is in canonical
//! order too. Pruning keeps the argument: a set that is not grown (found,
//! outside the plan, or too costly) has only supersets that are dropped
//! too — they hold a found or outside-plan set, or cost more than a best
//! that only falls — so a candidate's canonical prefixes are all grown.
//! The walk sorts each level's candidates by canonical sequence.
//!
//! ## The cover bound and the buckets
//!
//! Most legal sets are unsafe: some head variable none of their atoms
//! mentions. They are only ever grown. For a prefix `P`, the *cover bound*
//! `LB(P)` counts, greedily, missing head variables whose covering pool
//! atoms are pairwise disjoint (the safety prefilter's bits): a safe
//! superset needs a distinct atom for each. It is infinite when every atom
//! covering a missing variable is blocked. No safe set built from `P` has
//! fewer than `ready(P) = |P| + LB(P)` atoms, and a child's `ready` is kept
//! no lower than its parent's. A prefix waits in the bucket of its `ready`
//! level, and building level `L` expands bucket `L`:
//!
//! * a child with `ready ≤ L` is expanded at once;
//! * a child of `L` atoms that covers the head is a candidate of level `L`;
//! * any other child waits in its own bucket.
//!
//! After the verdicts, a candidate neither equivalent nor outside the plan
//! waits for level `L + 1`. Three rules cut an extension: it holds an
//! implied pair (criterion 4, below); it holds a found or outside-plan set
//! (only the sets holding the new atom are tested: the prefix holds none);
//! or, cost-pruned, even its cheapest way to `ready` atoms costs more than
//! the level's frozen best — as does a waiting prefix when its level comes.
//! Each prefix is expanded at most once
//! ([`CbStatistics::prefixes_expanded`]). The search ends when no bucket at
//! or above the next level holds a prefix, or, cost-pruned, when the next
//! level's size times the cheapest atom costs more than the best.
//!
//! The walk checks what the BFS checked. A candidate `S` of level `L`
//! passes every cut at every canonical prefix: `S` completes each within
//! the best, each holds no dead set and no implied pair, and each has
//! `ready ≤ L` because `S` is a safe set built from it. A prefix expanded at level `ℓ` has fewer than `ℓ`
//! atoms, so `S`'s last prefix is expanded at level `L` exactly, and `S` is
//! built there. Conversely a set the walk emits passes every test the BFS
//! applies at its level. `the_walk_checks_what_the_bfs_checks` holds the
//! walk against that BFS (`reference::Bfs`, test code) on random pools
//! fed random verdicts. Navigation legality is never checked per
//! candidate: every set the walk builds is constructible by construction,
//! and `reach::reference::is_legal_subset` (test code) is the oracle the
//! tests hold that against.
//!
//! The walk holds the prefixes waiting for later levels. The candidate
//! budget bounds them as well as the checks
//! ([`BackchaseOptions::max_candidates`]): a pool whose head few sets cover
//! (an unspecialized navigation pool) stops there, truncated, instead of
//! growing without bound.
//!
//! # Criterion 4: implied atoms
//!
//! The paper's criteria prune navigation; a fourth prunes redundancy that
//! Σ itself states. Pool atom `b` *implies* pool atom `a` when a TGD of Σ
//! with one premise atom, one conjunct and no equality or inequality fires
//! on `b` and derives an atom `a` maps onto by a map that fixes every
//! variable `a` shares with the rest of the pool, the head or an
//! inequality; and dropping `a` beside `b` keeps the candidate
//! constructible (every variable `a` produces is private to it, or `b`
//! produces it and requires nothing `a` does not). The relation is closed
//! transitively over the pool, once per backchase, from the single-premise
//! TGDs [`CompiledDeps`] collects once per engine. On a GReX pool it relates
//! `child(x,y)` to the `el(x)`, `el(y)` TIX `child_el` derives, and an
//! `el(x)` to the `id(x,i)` `el_id` derives when `i` occurs nowhere else;
//! on a relational pool, a relation to a view with a one-atom body over it.
//!
//! The walk cuts an extension `P ∪ {g}` whenever `g` implies, or is
//! implied by, an atom of `P` — one word test per extension, counted as
//! [`CbStatistics::implied_skips`]. This is sound. A candidate `S` holding
//! `b` and an `a` it implies is equivalent to `S ∖ {a}`: the chase of
//! `S ∖ {a}` satisfies the TGD on `b`, so the identity extended by the map
//! sends `S` into it, and the converse containment is trivial. `S ∖ {a}`
//! keeps the head (a head variable of `a` is shared, so `b` holds it), is
//! constructible, and costs less (`atom_cost` is positive), so it, or a
//! subset of it, was inspected a level earlier and `S` is not minimal. A
//! subset of a candidate without an implied pair has none either, so every
//! other candidate is built along the same canonical prefixes and checked
//! in the same order: in a run no budget cuts, `minimal`, its costs, `best`
//! and its ties are what the enumeration without the criterion finds; only
//! the funnel counters, which candidates the per-level memo keeps, and the
//! candidates' ordinals move. Why the constructibility condition and the transitive closure
//! keep this sound is argued in the `implied` module.
//!
//! # The spec-level Σ
//!
//! Schema specialization (Section 5, Fig. 7) runs the C&B on the
//! specialized problem: the query, the views and the constraints are
//! specialized, and the navigation a mapping abbreviates is restored only
//! afterwards. A [`CompiledDeps`] built with a navigation layer
//! ([`CompiledDeps::with_navigation_layer`]) keeps that problem's
//! dependency set beside the full one ([`CompiledDeps::spec_level`]): Σ
//! minus the navigation layer of every *abbreviated* document — its
//! mappings' definitional pairs `c_m` / `b_m`, its TIX, and the
//! `unique_child` XICs a mapping's functional dependency restates. `mars`
//! decides which documents are abbreviated (every mapping over one has
//! single-valued fields, and nothing outside the layer mentions its
//! navigation). When neither the original query nor the pool holds a
//! navigation atom, the backchase runs the spec-level Σ: every back-chase,
//! every memo seed and criterion 4's single-premise TGDs. The chase to the
//! universal plan, and the core-path test, read the full Σ.
//!
//! Leaving dependencies out never admits a wrong reformulation: for
//! Σ' ⊆ Σ, a candidate contained in the original under Σ' is contained in
//! it under Σ, and the other half of the test, `original ⊆ candidate`,
//! reads the universal plan the full Σ built. What the gate guards is
//! completeness. In a back-chase of a navigation-free candidate the only
//! navigation is what `b_m` writes; the layer derives from it more
//! navigation, which no dependency outside the layer reads, and
//! specialization atoms equal to existing ones up to their fields, which
//! the mapping's functional dependency merges. Without the gate that
//! argument fails twice over: a mapping without single-valued fields has no
//! functional dependency, so its DTD EGDs carry equalities nothing else
//! derives; and a view whose dependencies mention the document's navigation
//! (a GAV view publishing a table as the document, say) reads what the
//! layer derives, so a LAV view over that navigation answers a query over
//! the table only through the layer.
//!
//! The best cost a candidate is pruned against stays frozen for its level
//! (the level's discoveries take effect at its end), for two reasons. The
//! funnel counters (candidates inspected, cost-pruned, equivalence checks)
//! then do not depend on the order in which same-size candidates happen to
//! be visited, so they are reproducible and comparable across changes. And a
//! reformulation found mid-level cannot cost-prune a same-size candidate:
//! neither contains the other, both may be minimal, and in the
//! non-exhaustive mode `minimal` keeps every one whose cost does not exceed
//! the best of the *smaller* sizes.
//!
//! Whether a candidate is equivalent to the original query is decided by one
//! function, `Equivalence::check`, for the enumeration and for the core path
//! alike: safety, then `original ⊆ candidate` (the candidate maps into
//! every universal-plan branch; into the first by the identity, see above),
//! then the "back" chase of the candidate —
//! from scratch or resumed from a memoized subset — under the engine's one
//! [`ChaseOptions`], then `candidate ⊆ original` (the original maps into
//! every back-chase branch). Both containment halves run the chase's own
//! join kernel over the chase's own instances, where they lie: the
//! universal plan arrives as the resident branches the chase produced, a
//! candidate whose atoms occur verbatim in one (every subquery of that
//! branch) passing by identity without a search and any other through
//! [`maps_into`]; and the original is compiled once per backchase
//! ([`ContainmentProgram`]) and asked against each resident back-chase
//! branch.
//!
//! The expensive step per candidate is the back chase. Three optimizations
//! keep it off the critical path:
//!
//! * **Shared compilation**: the dependency set arrives as a
//!   [`CompiledDeps`] built once per engine; no chase anywhere in the
//!   enumeration recompiles it.
//! * **Resident chase memoization**: completed back-chases are cached keyed
//!   on the candidate's [`AtomSet`], as *resident* branches
//!   ([`ResidentBranch`]) — symbolic instances that keep their column
//!   indexes. A candidate grown from an already-chased subset clones the
//!   cached instances (a map of relation handles) and resumes with the one
//!   new atom ([`chase_resident_with_atoms_compiled`]) — the seed is already
//!   at fixpoint, so only consequences of the new atom fire. Because the
//!   candidates come level by level, only the previous and current levels'
//!   seeds are retained.
//! * **Folded subset costs**: the cost model is additive (`atom_cost`, a
//!   fixed weight per atom), so the pool's per-atom costs are computed once
//!   and a prefix's cost is its parent's plus one atom's.
//!
//! The backchase's work — the funnel counters, the phase times, whether and
//! why a budget cut it — is written into the [`CbStatistics`] it is handed;
//! the [`BackchaseOutcome`] it returns holds only what it found.

use crate::cb::CbStatistics;
use crate::chase::{
    add_dependency_work, chase_resident_with_atoms_compiled, chase_to_resident_compiled,
    ChaseOptions, ChaseStats, ChaseStop, ResidentBranch,
};
use crate::compiled::CompiledDeps;
use crate::evaluate::{maps_into, ContainmentProgram};
use crate::implied::ImpliedAtoms;
use crate::instance::thread_index_build_count;
use crate::reach::{atom_io, prune_parallel_desc, ReachabilityGraph};
use mars_cq::{Atom, AtomSet, ConjunctiveQuery, FxHashMap, NavBase, Predicate, Term, Variable};
use std::cell::OnceCell;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The backchase's cost model: the estimated cost of one body atom. A query
/// costs the sum over its body, so the model is additive — a candidate is
/// priced by folding the pool's per-atom costs over its atom set — and
/// **monotone**: a subquery never costs more than the query it was taken
/// from, which is all cost-based pruning needs to never discard the optimum
/// (Section 2.3). Navigation is weighted as pruning criterion 1 (Section
/// 3.2) assumes: "accessing the descendants of a node is at least as
/// expensive as accessing its children" — `desc` 4, `child` 1, anything
/// else 2. An exhaustive backchase returns every minimal reformulation, so
/// any other model can rank them afterwards.
fn atom_cost(atom: &Atom) -> f64 {
    match atom.navigation() {
        Some((NavBase::Child, _)) => 1.0,
        Some((NavBase::Desc, _)) => 4.0,
        _ => 2.0,
    }
}

/// Why an anytime backchase stopped short of a complete enumeration.
///
/// MARS's soundness does not depend on minimality: *any* equivalent
/// reformulation answers the query correctly, minimization is an
/// optimization. A budgeted run therefore degrades instead of erroring — it
/// keeps the best (cheapest, minimal-so-far) reformulations found before the
/// budget ran out, and tags the outcome with the reason. The universal plan
/// itself is the floor of this degradation ladder: a sound answer always
/// exists even when the enumeration found nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Degradation {
    /// The wall-clock deadline ([`ChaseOptions::deadline`]) expired
    /// mid-search (the chase to the universal plan, a back-chase, or the
    /// backchase's level loop).
    DeadlineExceeded,
    /// [`BackchaseOptions::max_candidates`] stopped the enumeration.
    CandidateBudget,
    /// A structural chase ceiling ([`ChaseOptions::max_atoms`],
    /// `max_rounds` or `max_branches`) stopped the universal-plan chase or a
    /// back-chase, so some candidates could not be confirmed.
    AtomCeiling,
}

impl Degradation {
    /// Severity rank used by [`Degradation::merge`] (higher = reported in
    /// preference).
    fn rank(self) -> u8 {
        match self {
            Degradation::DeadlineExceeded => 2,
            Degradation::CandidateBudget => 1,
            Degradation::AtomCeiling => 0,
        }
    }

    /// Keep the most severe of two optional degradation reasons (a deadline
    /// stop outranks the candidate budget, which outranks a size ceiling).
    pub fn merge(a: Option<Degradation>, b: Option<Degradation>) -> Option<Degradation> {
        match (a, b) {
            (Some(x), Some(y)) => Some(if y.rank() > x.rank() { y } else { x }),
            (x, y) => x.or(y),
        }
    }

    /// The degradation reason carried by an incomplete chase, `None` for a
    /// completed one. Structural ceilings (rounds/atoms/branches) all map to
    /// [`Degradation::AtomCeiling`]; a clock stop maps to
    /// [`Degradation::DeadlineExceeded`].
    pub fn of_chase(stats: &ChaseStats) -> Option<Degradation> {
        if stats.completed() {
            return None;
        }
        Some(match stats.stop {
            Some(ChaseStop::Deadline) => Degradation::DeadlineExceeded,
            _ => Degradation::AtomCeiling,
        })
    }
}

/// Options controlling the backchase. Back-chases run under the engine's
/// [`ChaseOptions`], passed to [`backchase`] beside these; its
/// [`deadline`](ChaseOptions::deadline) is also the clock of the enumeration.
#[derive(Clone, Debug)]
pub struct BackchaseOptions {
    /// Enumerate *all* minimal reformulations, even those costing more than
    /// the best found so far. Needed by the experiments that count
    /// reformulations (and by the paper's proposed cost-model testbed); when
    /// `false`, cost-based pruning discards expensive candidates early, and
    /// a query under no dependencies is minimized to its core instead of
    /// enumerated (see the module docs).
    pub exhaustive: bool,
    /// Upper bound on the number of candidate subqueries handed to the
    /// equivalence checks ([`CbStatistics::candidates_inspected`]), and on
    /// the prefixes the walk holds at once (waiting for a later level: its
    /// memory). When either bound stops the enumeration,
    /// [`CbStatistics::backchase_truncated`] is set.
    pub max_candidates: usize,
    /// Upper bound on the number of memoized back-chase results retained per
    /// level, the first this many of its candidates (memory guard for very
    /// wide pools).
    pub chase_cache_per_level: usize,
}

impl Default for BackchaseOptions {
    fn default() -> Self {
        BackchaseOptions {
            exhaustive: false,
            max_candidates: 200_000,
            chase_cache_per_level: 8_192,
        }
    }
}

impl BackchaseOptions {
    /// Options that enumerate every minimal reformulation.
    pub fn exhaustive() -> BackchaseOptions {
        BackchaseOptions { exhaustive: true, ..Default::default() }
    }
}

/// What the backchase found. How much work that took, and whether a budget
/// cut it short, is recorded in the [`CbStatistics`] handed to [`backchase`].
#[derive(Clone, Debug, Default)]
pub struct BackchaseOutcome {
    /// All minimal reformulations found (query + estimated cost), in the
    /// order they were discovered (increasing subquery size).
    pub minimal: Vec<(ConjunctiveQuery, f64)>,
    /// The minimum-cost reformulation.
    pub best: Option<(ConjunctiveQuery, f64)>,
}

impl CbStatistics {
    /// Add what one equivalence check cost, and what cut it, to the totals.
    fn absorb(&mut self, check: &EquivalenceCheck) {
        self.backchase_chase_phase += check.chase_time;
        self.backchase_containment_phase += check.containment_time;
        self.backchase_chase_rounds += check.chase.rounds;
        self.backchase_premise_evaluations += check.chase.premise_evaluations;
        add_dependency_work(&mut self.backchase_dependencies, &check.chase.dependencies);
        self.degradation = Degradation::merge(self.degradation, check.degradation);
    }

    /// Record that a budget stopped the enumeration short of exhausting the
    /// search space.
    fn truncate(&mut self, reason: Degradation) {
        self.backchase_truncated = true;
        self.degradation = Degradation::merge(self.degradation, Some(reason));
    }
}

/// The atoms of `body` over a `proprietary` predicate, in order: the body
/// of the *initial reformulation* of a universal plan, the largest subquery
/// induced by proprietary-schema atoms. If any reformulation exists, that is
/// one (not necessarily minimal), and every minimal reformulation is a
/// subquery of it. A plan's atoms come grouped by predicate, so the set is
/// asked once per run of atoms sharing one.
pub(crate) fn proprietary_atoms(body: &[Atom], proprietary: &HashSet<Predicate>) -> Vec<Atom> {
    let mut last: Option<(Predicate, bool)> = None;
    let mut kept = |p: Predicate| match last {
        Some((q, keep)) if q == p => keep,
        _ => last.insert((p, proprietary.contains(&p))).1,
    };
    body.iter().filter(|a| kept(a.predicate)).cloned().collect()
}

/// The pool of candidate atoms: `atoms`, the proprietary atoms of the plan,
/// minus the parallel `desc` atoms (pruning criterion 1). The criterion drops
/// only `desc` atoms, so it runs only when `atoms` hold one, and the plan it
/// prunes is filtered again only when it dropped one.
fn candidate_pool(
    primary: &ConjunctiveQuery,
    atoms: Vec<Atom>,
    proprietary: &HashSet<Predicate>,
) -> Vec<Atom> {
    if atoms.iter().any(|a| matches!(a.navigation(), Some((NavBase::Desc, _)))) {
        let pruned = prune_parallel_desc(primary);
        if pruned.body.len() < primary.body.len() {
            return proprietary_atoms(&pruned.body, proprietary);
        }
    }
    atoms
}

/// The largest variable disambiguator of `q`'s head, body and inequalities.
fn max_variable_index(q: &ConjunctiveQuery) -> u32 {
    let body = q.body.iter().flat_map(|a| a.args.iter());
    let inequalities = q.inequalities.iter().flat_map(|(a, b)| [a, b]);
    let terms = q.head.iter().chain(body).chain(inequalities);
    terms.filter_map(Term::as_var).map(|v| v.index).max().unwrap_or(0)
}

/// What one equivalence check concluded.
enum Verdict {
    /// A head variable of the candidate is not bound by its body: nothing
    /// else was looked at.
    Unsafe,
    /// `original ⊆ candidate` fails: the candidate does not map into some
    /// universal-plan branch — and a homomorphism from any superset would
    /// restrict to one from the candidate, so no superset does either.
    OutsidePlan,
    /// `candidate ⊆ original` was not established: the back-chase ran out
    /// of budget, lost every branch, or has a branch the original does not
    /// map into. It is handed back as a memo seed when the check was asked
    /// for one and the back-chase completed with a surviving branch.
    NotContained(Option<Vec<ResidentBranch>>),
    /// Both containments hold.
    Equivalent,
}

/// A [`Verdict`] with what reaching it cost.
struct EquivalenceCheck {
    verdict: Verdict,
    /// The back-chase resumed from a memoized subset chase.
    resumed: bool,
    /// Why the back-chase stopped short of its fixpoint, when it did (the
    /// candidate could then not be confirmed).
    degradation: Option<Degradation>,
    chase_time: Duration,
    containment_time: Duration,
    /// The back-chase's statistics (the default when none ran).
    chase: ChaseStats,
}

/// A candidate as [`Equivalence::check`] reads it. Both kinds are
/// subqueries of the pool, whose atoms are atoms of the universal plan's
/// first branch under its head.
#[derive(Clone, Copy)]
enum Candidate<'a> {
    /// Pool atoms, ascending: one of the enumeration's, rendered as a query
    /// only for a step that reads one (see the module docs). `covers_head`:
    /// the walk built it with the safety prefilter active, so every head
    /// variable is an atom's.
    Atoms { pool: &'a ConjunctiveQuery, atoms: &'a [usize], covers_head: bool },
    /// A query: one of the core path's.
    Query(&'a ConjunctiveQuery),
}

impl<'a> Candidate<'a> {
    /// The candidate as a query. Pool atoms are rendered once, into
    /// `rendered`, without a name.
    fn query<'s>(&self, rendered: &'s OnceCell<ConjunctiveQuery>) -> &'s ConjunctiveQuery
    where
        'a: 's,
    {
        match *self {
            Candidate::Query(q) => q,
            Candidate::Atoms { pool, atoms, .. } => rendered.get_or_init(|| {
                let body = atoms.iter().map(|&i| pool.body[i].clone()).collect();
                pool.subquery_with(body, String::new())
            }),
        }
    }
}

/// The equivalence test of one backchase: everything about it that does not
/// depend on the candidate, prepared once.
struct Equivalence<'a> {
    /// The original query, compiled for `original → back-chase branch`.
    original: ContainmentProgram,
    /// The universal plan's branches as the chase left them: the targets of
    /// `candidate → plan branch`.
    plan: &'a [ResidentBranch],
    deds: &'a CompiledDeps,
    /// The engine's chase options as the back-chases run under them.
    chase: ChaseOptions,
}

impl Equivalence<'_> {
    /// Is `candidate` (a subquery of the pool, same head) equivalent to the
    /// original query under the dependencies?
    ///
    /// * `original ⊆ candidate` holds iff `candidate` maps into every branch
    ///   of the universal plan preserving the head. Into the first branch,
    ///   whose atoms and head the pool's are, the identity maps it, so only
    ///   the other branches of a disjunctive plan are searched.
    /// * `candidate ⊆ original` holds iff chasing `candidate` ("back")
    ///   completes with at least one surviving branch and the original maps
    ///   into every one preserving the head. With a `seed` — the resident
    ///   chase of the candidate minus one atom, and that atom — the chase
    ///   resumes from it instead of starting over. With `memoize`, a
    ///   back-chase that does not confirm is kept as a seed (see
    ///   [`Verdict::NotContained`]).
    fn check(
        &self,
        candidate: Candidate<'_>,
        seed: Option<(&[ResidentBranch], &Atom)>,
        memoize: bool,
    ) -> EquivalenceCheck {
        let mut check = EquivalenceCheck {
            verdict: Verdict::Unsafe,
            resumed: false,
            degradation: None,
            chase_time: Duration::ZERO,
            containment_time: Duration::ZERO,
            chase: ChaseStats::default(),
        };
        let rendered = OnceCell::new();
        let safe = match candidate {
            Candidate::Atoms { covers_head: true, .. } => {
                debug_assert!(candidate.query(&rendered).is_safe(), "the walk covers the head");
                true
            }
            _ => candidate.query(&rendered).is_safe(),
        };
        if !safe {
            return check;
        }
        let containment_start = Instant::now();
        // A candidate whose atoms occur verbatim in a branch, under its
        // head, maps there by the identity.
        let identity = |b: &ResidentBranch| {
            let candidate = candidate.query(&rendered);
            candidate.head == b.head()
                && candidate.body.iter().all(|a| b.instance().contains_atom(a))
        };
        let (first, others) = self.plan.split_first().expect("a universal plan has a branch");
        debug_assert!(identity(first), "a pool atom is an atom of the first branch");
        let maps_into_plan = others
            .iter()
            .all(|b| identity(b) || maps_into(candidate.query(&rendered), b.instance(), b.head()));
        check.containment_time = containment_start.elapsed();
        if !maps_into_plan {
            check.verdict = Verdict::OutsidePlan;
            return check;
        }
        let chase_start = Instant::now();
        let back = match seed {
            Some((branches, added)) => {
                check.resumed = true;
                chase_resident_with_atoms_compiled(
                    branches,
                    std::slice::from_ref(added),
                    self.deds,
                    &self.chase,
                )
            }
            None => chase_to_resident_compiled(candidate.query(&rendered), self.deds, &self.chase),
        };
        check.chase_time = chase_start.elapsed();
        let (branches, chase) = back.into_parts();
        check.degradation = Degradation::of_chase(&chase);
        let confirm_start = Instant::now();
        let confirmed = chase.completed()
            && !branches.is_empty()
            && branches.iter().all(|b| self.original.maps_into(b.instance(), b.head()));
        check.containment_time += confirm_start.elapsed();
        check.verdict = if confirmed {
            Verdict::Equivalent
        } else if memoize && chase.completed() && !branches.is_empty() {
            Verdict::NotContained(Some(branches))
        } else {
            Verdict::NotContained(None)
        };
        check.chase = chase;
        check
    }
}

/// Head-variable coverage prefilter: safety as a bitset fold over the head
/// variables — exactly the `is_safe()` condition (inequality variables are
/// NOT required: `subquery` projects away inequalities its atoms do not
/// cover). More than 63 head variables disable the prefilter (every
/// candidate passes) and `candidate.is_safe()` does the gating.
struct SafetyPrefilter {
    active: bool,
    full: u64,
    per_atom: Vec<u64>,
    /// Per head variable, the pool atoms that mention it.
    covering: Vec<AtomSet>,
    /// Per head variable, every head variable a pool atom mentions beside
    /// it: the variables whose covering atoms are not disjoint from its own.
    conflicts: Vec<u64>,
}

impl SafetyPrefilter {
    fn new(pool_query: &ConjunctiveQuery, pool: &[Atom]) -> SafetyPrefilter {
        let safety_vars: Vec<Variable> = pool_query.head_variables().into_iter().collect();
        let active = safety_vars.len() < 64;
        let full = if active { (1u64 << safety_vars.len()) - 1 } else { 0 };
        let per_atom: Vec<u64> = pool
            .iter()
            .map(|a| {
                safety_vars
                    .iter()
                    .take(63)
                    .enumerate()
                    .filter(|(_, v)| a.mentions(**v))
                    .fold(0u64, |acc, (j, _)| acc | (1 << j))
            })
            .collect();
        let covering: Vec<AtomSet> = (0..safety_vars.len().min(63))
            .map(|j| (0..pool.len()).filter(|&i| per_atom[i] >> j & 1 != 0).collect())
            .collect();
        let conflicts =
            covering.iter().map(|atoms| atoms.iter().fold(0, |acc, i| acc | per_atom[i])).collect();
        SafetyPrefilter { active, full, per_atom, covering, conflicts }
    }

    /// The head variables pool atom `i` mentions.
    fn bits(&self, i: usize) -> u64 {
        self.per_atom[i]
    }

    /// Do atoms mentioning the head variables `covered` make a safe
    /// candidate?
    fn covers(&self, covered: u64) -> bool {
        !self.active || covered == self.full
    }

    /// A lower bound on the atoms a set covering `covered` must add to be
    /// safe, when it may not add a `blocked` atom: greedily, the missing
    /// head variables whose covering pool atoms are pairwise disjoint, each
    /// of which takes an atom of its own. `usize::MAX` when every atom
    /// covering a missing one is blocked (or there is none); 0 when the
    /// prefilter is off.
    fn lower_bound(&self, covered: u64, blocked: &AtomSet) -> usize {
        if !self.active {
            return 0;
        }
        let (mut missing, mut taken, mut count) = (self.full & !covered, 0u64, 0);
        while missing != 0 {
            let j = missing.trailing_zeros() as usize;
            missing &= missing - 1;
            if self.covering[j].is_subset_of(blocked) {
                return usize::MAX;
            }
            if taken >> j & 1 == 0 {
                count += 1;
                taken |= self.conflicts[j];
            }
        }
        count
    }
}

/// One prefix of the walk: a set of pool atoms, built along its canonical
/// sequence, with what extending it needs.
struct Prefix {
    /// The canonical sequence: the atoms in the order the walk added them.
    sequence: Vec<usize>,
    atoms: AtomSet,
    /// The atoms no extension may add: each was enabled before some later,
    /// greater atom of the sequence.
    blocked: AtomSet,
    /// The variables the atoms produce ([`ReachabilityGraph::produce`]).
    produced: Vec<u64>,
    /// The atoms' cost. `atom_cost` is a small integer, so the sum is
    /// exact in any order.
    cost: f64,
    /// The head variables the atoms mention ([`SafetyPrefilter::bits`]).
    covered: u64,
    /// No safe set the walk builds from this prefix has fewer atoms: its
    /// size plus the cover bound, and never below its parent's.
    ready: usize,
}

/// The walk that builds each level's candidates (see the module docs): the
/// prefixes waiting for each level, and the sets no candidate may hold.
struct Walk<'a> {
    graph: &'a ReachabilityGraph,
    implied: &'a ImpliedAtoms,
    safety: &'a SafetyPrefilter,
    costs: &'a [f64],
    /// The cheapest pool atom's cost.
    cheapest: f64,
    exhaustive: bool,
    /// `waiting[L]`: the prefixes expanded when level `L` is built.
    waiting: Vec<Vec<Prefix>>,
    /// The last level built (0 before the first).
    level: usize,
    /// The found and outside-plan sets: no set holding one is built.
    dead: Vec<AtomSet>,
    /// For each pool atom, the dead sets holding it.
    dead_with: Vec<Vec<usize>>,
    /// The prefixes the walk holds: waiting, to expand, or candidates.
    held: usize,
    /// The most prefixes the walk may hold at once.
    max_held: usize,
    /// The walk stopped building a level at `max_held`.
    cut: bool,
    /// Scratch: the atoms a prefix may be extended by.
    extensions: Vec<usize>,
}

impl<'a> Walk<'a> {
    fn new(
        graph: &'a ReachabilityGraph,
        implied: &'a ImpliedAtoms,
        safety: &'a SafetyPrefilter,
        costs: &'a [f64],
        exhaustive: bool,
        max_held: usize,
    ) -> Walk<'a> {
        let n = costs.len();
        let mut walk = Walk {
            graph,
            implied,
            safety,
            costs,
            cheapest: costs.iter().copied().fold(f64::INFINITY, f64::min),
            exhaustive,
            waiting: (0..=n).map(|_| Vec::new()).collect(),
            level: 0,
            dead: Vec::new(),
            dead_with: vec![Vec::new(); n],
            held: 1,
            max_held,
            cut: false,
            extensions: Vec::new(),
        };
        let ready = safety.lower_bound(0, &AtomSet::new());
        let empty = Prefix {
            sequence: Vec::new(),
            atoms: AtomSet::new(),
            blocked: AtomSet::new(),
            produced: graph.nothing_produced(),
            cost: 0.0,
            covered: 0,
            ready,
        };
        walk.wait(ready.max(1), empty);
        walk
    }

    /// Let `prefix` wait for `level`. Past the pool's size no set is safe.
    fn wait(&mut self, level: usize, prefix: Prefix) {
        match self.waiting.get_mut(level) {
            Some(waiting) => waiting.push(prefix),
            None => self.held -= 1,
        }
    }

    /// Is the search over: no prefix waits for the next level or a later
    /// one, or (cost-pruned) the next level's cheapest set costs more than
    /// `best`?
    fn is_over(&self, best: f64) -> bool {
        let next = self.level + 1;
        self.waiting.get(next..).is_none_or(|later| later.iter().all(Vec::is_empty))
            || (!self.exhaustive && next as f64 * self.cheapest > best)
    }

    /// Does every safe set a prefix of `size` atoms costing `cost`, ready
    /// for level `ready`, leads to cost more than `best`? It holds at least
    /// `ready` atoms, each costing at least the cheapest.
    fn too_costly(&self, cost: f64, size: usize, ready: usize, best: f64) -> bool {
        !self.exhaustive && cost + ready.saturating_sub(size) as f64 * self.cheapest > best
    }

    /// Build the next level: expand every prefix waiting for it, and every
    /// extension ready for it, and return the level's candidates in the
    /// order of their canonical sequences. `best` is the level's frozen
    /// best cost. The cuts and expansions are counted in `stats`. Holding
    /// `max_held` prefixes stops the level short and sets `cut`.
    fn next_level(&mut self, best: f64, stats: &mut CbStatistics) -> Vec<Prefix> {
        self.level += 1;
        let level = self.level;
        let mut stack = std::mem::take(&mut self.waiting[level]);
        let mut extensions = std::mem::take(&mut self.extensions);
        let mut candidates = Vec::new();
        'expand: while let Some(prefix) = stack.pop() {
            self.held -= 1;
            // A waiting prefix meets a best it was not built against.
            let len = prefix.sequence.len();
            if self.too_costly(prefix.cost, len, prefix.ready.max(len + 1), best) {
                stats.pruned_by_cost += 1;
                continue;
            }
            stats.prefixes_expanded += 1;
            let graph = self.graph;
            graph.extensions_into(
                &prefix.atoms,
                &prefix.blocked,
                &prefix.produced,
                &mut extensions,
            );
            // Each extension blocks the ones before it for its children.
            let mut blocked = prefix.blocked.clone();
            for &g in &extensions {
                if let Some((covered, ready)) = self.admit(&prefix, g, &blocked, best, stats) {
                    if self.held == self.max_held {
                        self.cut = true;
                        break 'expand;
                    }
                    self.held += 1;
                    let child = prefix.extend(g, blocked.clone(), covered, ready, self);
                    if len + 1 == level && self.safety.covers(covered) {
                        candidates.push(child);
                    } else if ready <= level {
                        stack.push(child);
                    } else {
                        self.wait(ready, child);
                    }
                }
                blocked.insert(g);
            }
        }
        self.held -= stack.len();
        self.extensions = extensions;
        candidates.sort_unstable_by(|a, b| a.sequence.cmp(&b.sequence));
        candidates
    }

    /// Is `prefix ∪ {g}`, whose extensions may not add a `blocked` atom,
    /// built? Then its head coverage and readiness. It is cut when it holds
    /// an implied pair (criterion 4), holds a dead set, leads to no safe set,
    /// or costs more than `best` on every way to one; `stats` counts the
    /// first and the last.
    fn admit(
        &self,
        prefix: &Prefix,
        g: usize,
        blocked: &AtomSet,
        best: f64,
        stats: &mut CbStatistics,
    ) -> Option<(u64, usize)> {
        if self.implied.pairs_with(g, &prefix.atoms) {
            stats.implied_skips += 1;
            return None;
        }
        if self.holds_dead(&prefix.atoms, g) {
            return None;
        }
        let size = prefix.sequence.len() + 1;
        let covered = prefix.covered | self.safety.bits(g);
        let ready =
            prefix.ready.max(size.saturating_add(self.safety.lower_bound(covered, blocked)));
        if ready >= self.waiting.len() {
            return None;
        }
        if self.too_costly(prefix.cost + self.costs[g], size, ready, best) {
            stats.pruned_by_cost += 1;
            return None;
        }
        Some((covered, ready))
    }

    /// Does `atoms ∪ {g}` hold a dead set? `atoms` holds none, so only the
    /// dead sets holding `g` are tested.
    fn holds_dead(&self, atoms: &AtomSet, g: usize) -> bool {
        self.dead_with[g].iter().any(|&d| self.dead[d].iter().all(|i| i == g || atoms.contains(i)))
    }

    /// A candidate neither equivalent nor outside the plan: its extensions
    /// are built with the next level.
    fn grow_later(&mut self, candidate: Prefix) {
        self.wait(self.level + 1, candidate);
    }

    /// A candidate found equivalent, or outside the plan: no set holding it
    /// is built.
    fn close(&mut self, atoms: AtomSet) {
        self.held -= 1;
        for i in atoms.iter() {
            self.dead_with[i].push(self.dead.len());
        }
        self.dead.push(atoms);
    }
}

impl Prefix {
    /// The prefix extended by `g`, with the given blocked atoms, head
    /// coverage and readiness.
    fn extend(
        &self,
        g: usize,
        blocked: AtomSet,
        covered: u64,
        ready: usize,
        walk: &Walk,
    ) -> Prefix {
        let mut sequence = Vec::with_capacity(self.sequence.len() + 1);
        sequence.extend_from_slice(&self.sequence);
        sequence.push(g);
        let mut produced = self.produced.clone();
        walk.graph.produce(g, &mut produced);
        Prefix {
            sequence,
            atoms: self.atoms.with(g),
            blocked,
            produced,
            cost: self.cost + walk.costs[g],
            covered,
            ready,
        }
    }
}

/// Run the backchase.
///
/// `original` is the query being reformulated; `plan` holds the resident
/// branches its chase produced (at least one) and `primary` is the first of
/// them rendered as a query
/// ([`ResidentChase::primary`](crate::ResidentChase::primary)) — the
/// universal plan whose subqueries are enumerated. `proprietary` is the set
/// of predicates that may appear in a reformulation, `atoms` the
/// proprietary atoms of `primary`, in order, `deds` the dependency set in its
/// shared compiled form ([`CompiledDeps`] — built once per
/// engine, reused by every back-chase here), and `chase` the engine's chase
/// options: every back-chase runs under them, and their deadline is the
/// clock of the enumeration.
///
/// The backchase's work is added to `stats`: the funnel counters
/// (`candidates_inspected`, `pruned_by_cost`, `equivalence_checks`,
/// `chase_cache_hits`, `containment_dead_cone_skips`, `implied_skips`), the
/// back-chases' rounds and premise evaluations, the index builds, the phase
/// times, the duration, and whether and why a
/// budget cut it (`backchase_truncated`, merged into `degradation`).
#[allow(clippy::too_many_arguments)]
pub fn backchase(
    original: &ConjunctiveQuery,
    primary: &ConjunctiveQuery,
    atoms: Vec<Atom>,
    plan: &[ResidentBranch],
    proprietary: &HashSet<Predicate>,
    deds: &CompiledDeps,
    chase: &ChaseOptions,
    options: &BackchaseOptions,
    stats: &mut CbStatistics,
) -> BackchaseOutcome {
    let start = Instant::now();
    let builds = thread_index_build_count();
    let outcome = search(original, primary, atoms, plan, proprietary, deds, chase, options, stats);
    stats.index_builds += thread_index_build_count() - builds;
    stats.backchase_duration += start.elapsed();
    outcome
}

/// The search [`backchase`] times and counts index builds around.
#[allow(clippy::too_many_arguments)]
fn search(
    original: &ConjunctiveQuery,
    primary: &ConjunctiveQuery,
    atoms: Vec<Atom>,
    plan: &[ResidentBranch],
    proprietary: &HashSet<Predicate>,
    deds: &CompiledDeps,
    chase: &ChaseOptions,
    options: &BackchaseOptions,
    stats: &mut CbStatistics,
) -> BackchaseOutcome {
    let mut outcome = BackchaseOutcome::default();

    let pool = candidate_pool(primary, atoms, proprietary);
    if pool.is_empty() {
        return outcome;
    }
    let pool_query = ConjunctiveQuery {
        name: format!("{}_pool", primary.name),
        head: primary.head.clone(),
        body: pool,
        inequalities: primary.inequalities.clone(),
    };
    let pool = pool_query.body.as_slice();

    // Back-chases invent variables strictly above every pool variable index,
    // so a cached chase can later absorb any further pool atom without an
    // invented variable colliding with a pool variable of the same base name.
    let max_pool_index = max_variable_index(&pool_query).max(max_variable_index(original));
    // The spec-level Σ (see the module docs) when neither the original nor
    // the pool navigates: every back-chase, memo seed and criterion 4 then
    // run under it.
    let navigates = |atoms: &[Atom]| atoms.iter().any(|a| a.navigation().is_some());
    let sigma = match deds.spec_level() {
        Some(spec) if !navigates(&original.body) && !navigates(pool) => spec,
        _ => deds,
    };
    let equivalence = Equivalence {
        original: ContainmentProgram::new(original),
        plan,
        deds: sigma,
        chase: ChaseOptions {
            min_fresh_index: chase.min_fresh_index.max(max_pool_index + 1),
            ..chase.clone()
        },
    };

    if deds.deds().is_empty() && !options.exhaustive {
        // The core path (see the module docs): one minimal reformulation.
        let initial = ConjunctiveQuery { name: format!("{}_initial", primary.name), ..pool_query };
        if let Some(core) = minimize_to_core(&initial, &equivalence, stats) {
            let cost = core.body.iter().map(atom_cost).sum();
            outcome.best = Some((core.clone(), cost));
            outcome.minimal.push((core, cost));
        }
        return outcome;
    }

    let io: Vec<_> = pool.iter().map(atom_io).collect();
    let graph = ReachabilityGraph::from_io(&io);
    let implied = ImpliedAtoms::new(&pool_query, &io, sigma.single_premise_tgds());
    let atom_costs: Vec<f64> = pool.iter().map(atom_cost).collect();
    let safety = SafetyPrefilter::new(&pool_query, pool);

    // The walk builds each level's candidates: the sets a level-synchronous
    // enumeration by subset size checks, in its order (see the module docs).
    // The candidate budget also bounds the prefixes it holds.
    let (exhaustive, budget) = (options.exhaustive, options.max_candidates);
    let mut walk = Walk::new(&graph, &implied, &safety, &atom_costs, exhaustive, budget);
    // Best reformulation cost as of the end of the previous level. Frozen
    // for the whole level (see the module docs): a reformulation discovered
    // mid-level cannot cost-prune its own level, only the next one. Sound
    // (monotone cost model) and bounded: at most one level of same-size
    // candidates is evaluated without the tighter bound.
    let mut best_cost = f64::INFINITY;
    // Memoized back-chases of the previous level's candidates.
    let mut prev_level: FxHashMap<AtomSet, Vec<ResidentBranch>> = FxHashMap::default();
    // Candidates handed to the checks so far: the candidate budget, and
    // (continuing across levels) the candidates' names.
    let mut inspected = 0usize;

    while !walk.is_over(best_cost) {
        // Anytime deadline, checked level-synchronously: an expired deadline
        // stops the enumeration *between* levels, keeping everything found
        // so far — never mid-level, so an undegraded run is byte-identical
        // to an unbounded one.
        if chase.deadline.is_some_and(|d| Instant::now() >= d) {
            stats.truncate(Degradation::DeadlineExceeded);
            break;
        }
        // The level's candidates: safe, cheap enough for the level's frozen
        // best, and holding no found reformulation, no outside-plan set and
        // no implied pair.
        let walk_start = Instant::now();
        let mut level = walk.next_level(best_cost, stats);
        stats.backchase_cost_phase += walk_start.elapsed();
        let remaining = options.max_candidates.saturating_sub(inspected);
        let truncated = level.len() > remaining || walk.cut;
        if truncated {
            stats.truncate(Degradation::CandidateBudget);
            level.truncate(remaining);
        }

        // One pass, in position order: each candidate's rendering, its memo
        // seed, its check, and its verdict — the funnel counters, the memo,
        // and what the walk extends.
        let memoized = level.len().min(options.chase_cache_per_level);
        let mut cur_level: FxHashMap<AtomSet, Vec<ResidentBranch>> =
            FxHashMap::with_capacity_and_hasher(memoized, Default::default());
        let mut next_best = best_cost;
        for (position, mut prefix) in level.into_iter().enumerate() {
            inspected += 1;
            let subset: Vec<usize> = prefix.atoms.iter().collect();
            // Resume from the memoized chase of the candidate minus one
            // atom, probed by taking each atom out and putting it back.
            let mut seed = None;
            for &i in &subset {
                prefix.atoms.remove(i);
                let memo = prev_level.get(&prefix.atoms);
                prefix.atoms.insert(i);
                if let Some(branches) = memo {
                    seed = Some((branches.as_slice(), &pool[i]));
                    break;
                }
            }
            let memoize = position < options.chase_cache_per_level;
            let candidate =
                Candidate::Atoms { pool: &pool_query, atoms: &subset, covers_head: safety.active };
            let check = equivalence.check(candidate, seed, memoize);
            stats.absorb(&check);
            stats.equivalence_checks += usize::from(!matches!(check.verdict, Verdict::Unsafe));
            stats.chase_cache_hits += usize::from(check.resumed);
            match check.verdict {
                // Outside the plan, no superset can pass either (antichain
                // dead cone): no set holding it is built.
                Verdict::OutsidePlan => {
                    stats.containment_dead_cone_skips += 1;
                    walk.close(prefix.atoms);
                }
                // No superset of a reformulation is minimal. A reformulation
                // is the one candidate rendered with its name.
                Verdict::Equivalent => {
                    let body = subset.iter().map(|&i| pool[i].clone()).collect();
                    let name = format!("{}_candidate{inspected}", original.name);
                    let candidate = pool_query.subquery_with(body, name);
                    let cost = prefix.cost;
                    walk.close(prefix.atoms);
                    if cost < next_best {
                        next_best = cost;
                        outcome.best = Some((candidate.clone(), cost));
                    }
                    outcome.minimal.push((candidate, cost));
                }
                // Not (yet) a reformulation: its supersets are chased next
                // level, resuming from its chase if it was kept.
                Verdict::NotContained(Some(seed)) => {
                    cur_level.insert(prefix.atoms.clone(), seed);
                    walk.grow_later(prefix);
                }
                Verdict::NotContained(None) | Verdict::Unsafe => walk.grow_later(prefix),
            }
        }
        best_cost = next_best;
        prev_level = cur_level;
        if truncated {
            break;
        }
    }

    stats.candidates_inspected += inspected;
    outcome
}

/// The core path: drop atoms from the initial reformulation one at a time
/// while what is left stays a reformulation. Every test is an
/// [`Equivalence::check`] from scratch, so a back-chase cut by the engine's
/// budgets fails its candidate and is recorded in `stats` like one of the
/// enumeration's.
fn minimize_to_core(
    initial: &ConjunctiveQuery,
    equivalence: &Equivalence<'_>,
    stats: &mut CbStatistics,
) -> Option<ConjunctiveQuery> {
    let mut equivalent = |candidate: &ConjunctiveQuery| {
        let check = equivalence.check(Candidate::Query(candidate), None, false);
        stats.equivalence_checks += 1;
        stats.absorb(&check);
        matches!(check.verdict, Verdict::Equivalent)
    };
    if !equivalent(initial) {
        return None;
    }
    let mut current = initial.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..current.body.len() {
            if current.body.len() == 1 {
                break;
            }
            let mut cand = current.clone();
            cand.body.remove(i);
            if equivalent(&cand) {
                current = cand;
                changed = true;
                break;
            }
        }
    }
    Some(current)
}

/// The level builder the walk replaced: a breadth-first frontier of every
/// legal set, deduplicated through a visited set and grown by the atoms
/// each set enables. It is the oracle the walk is held against. One rule is
/// the walk's: a set holding an outside-plan set is dropped like one
/// holding a reformulation. (The builder it replaced checked such a set
/// again when another parent reached it, and counted a second dead-cone
/// skip: the verdict was the same.)
#[cfg(test)]
mod reference {
    use super::SafetyPrefilter;
    use crate::implied::ImpliedAtoms;
    use crate::reach::reference::enabled_into;
    use crate::reach::ReachabilityGraph;
    use mars_cq::{AtomSet, FxHashSet};

    /// The breadth-first enumeration by subset size, fed its checked
    /// candidates' fates level by level.
    pub(super) struct Bfs<'a> {
        graph: &'a ReachabilityGraph,
        implied: &'a ImpliedAtoms,
        safety: &'a SafetyPrefilter,
        costs: &'a [f64],
        exhaustive: bool,
        /// The next level's sets, in first-insertion order.
        frontier: Vec<AtomSet>,
        /// The level built last: each set, and whether it was checked.
        level: Vec<(AtomSet, bool)>,
        /// The found and outside-plan sets: a set holding one is dropped.
        dead: Vec<AtomSet>,
        /// The sets the levels held, after the dead ones were dropped.
        pub(super) built: usize,
    }

    impl<'a> Bfs<'a> {
        pub(super) fn new(
            graph: &'a ReachabilityGraph,
            implied: &'a ImpliedAtoms,
            safety: &'a SafetyPrefilter,
            costs: &'a [f64],
            exhaustive: bool,
        ) -> Bfs<'a> {
            let frontier = graph.roots.iter().map(|&r| AtomSet::singleton(r)).collect();
            let (level, dead) = (Vec::new(), Vec::new());
            Bfs { graph, implied, safety, costs, exhaustive, frontier, level, dead, built: 0 }
        }

        pub(super) fn is_over(&self) -> bool {
            self.frontier.is_empty()
        }

        /// The next level's checked candidates, in order: the frontier's
        /// sets that hold no dead set, cost no more than `best` (unless
        /// exhaustive) and pass the safety prefilter. The others are grown
        /// unchecked, except the cost-pruned ones.
        pub(super) fn next_level(&mut self, best: f64) -> Vec<AtomSet> {
            let mut checked = Vec::new();
            for mask in std::mem::take(&mut self.frontier) {
                if self.dead.iter().any(|d| d.is_subset_of(&mask)) {
                    continue;
                }
                self.built += 1;
                let cost: f64 = mask.iter().map(|i| self.costs[i]).sum();
                if !self.exhaustive && cost > best {
                    continue;
                }
                let covered = mask.iter().fold(0, |acc, i| acc | self.safety.bits(i));
                let check = self.safety.covers(covered);
                if check {
                    checked.push(mask.clone());
                }
                self.level.push((mask, check));
            }
            checked
        }

        /// The level's checked candidates closed (found or outside the
        /// plan) or not, in order: grow the level by one enabled atom, skipping
        /// a child that holds an implied pair.
        pub(super) fn settle(&mut self, closed: &[bool]) {
            let mut closed = closed.iter();
            let mut visited: FxHashSet<AtomSet> = FxHashSet::default();
            for (mut mask, checked) in std::mem::take(&mut self.level) {
                if checked && *closed.next().expect("a fate per checked candidate") {
                    self.dead.push(mask);
                    continue;
                }
                for g in enabled_into(self.graph, &mask) {
                    if self.implied.pairs_with(g, &mask) {
                        continue;
                    }
                    mask.insert(g);
                    if visited.insert(mask.clone()) {
                        self.frontier.push(mask.clone());
                    }
                    mask.remove(g);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implied::SinglePremiseTgds;
    use crate::reach::reference::is_legal_subset;
    use mars_cq::atom::builders::{child, desc, el, id, root, tag, text};
    use mars_cq::ded::view_dependencies;
    use mars_cq::{Atom, Conjunct, Ded, Term, Variable};
    use mars_oracle::{containment_mapping, naive_chase, ChaseBudget};
    use proptest::prelude::*;

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    fn cost(q: &ConjunctiveQuery) -> f64 {
        q.body.iter().map(atom_cost).sum()
    }

    #[test]
    fn desc_costs_more_than_child() {
        assert!(atom_cost(&desc(t("x"), t("y"))) > atom_cost(&child(t("x"), t("y"))));
        // Only navigation is weighted: a relation sharing the base's name is
        // an ordinary atom.
        let bare = Atom::named("desc", vec![t("x"), t("y")]);
        assert_eq!(atom_cost(&bare), atom_cost(&Atom::named("V", vec![t("x"), t("y")])));
    }

    #[test]
    fn monotone_in_number_of_atoms() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x")]).with_body(vec![
            Atom::named("R", vec![t("x"), t("y")]),
            Atom::named("S", vec![t("y"), t("z")]),
            desc(t("x"), t("z")),
        ]);
        for k in 1..=q.body.len() {
            let idx: Vec<usize> = (0..k).collect();
            assert!(cost(&q.subquery(&idx)) <= cost(&q));
        }
    }

    /// Additivity: the costs of two disjoint subqueries sum to the cost of
    /// their union, so the backchase's per-candidate fold over the pool's
    /// atom costs prices every subquery exactly.
    #[test]
    fn atom_costs_sum_to_estimate() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x")]).with_body(vec![
            child(t("x"), t("y")),
            desc(t("y"), t("z")),
            Atom::named("V", vec![t("z")]),
        ]);
        assert_eq!(cost(&q), 7.0);
        assert_eq!(cost(&q.subquery(&[0, 2])) + cost(&q.subquery(&[1])), cost(&q));
    }

    /// The running Section 2.3 example: public schema {A, B}, storage {V},
    /// LAV view V(x,z) :- A(x,y), B(y,z), semantic constraint (ind).
    fn section_2_3_setup() -> (ConjunctiveQuery, Vec<Ded>, HashSet<Predicate>) {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![Variable::named("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let defq = ConjunctiveQuery::new("V").with_head(vec![t("x"), t("z")]).with_body(vec![
            Atom::named("A", vec![t("x"), t("y")]),
            Atom::named("B", vec![t("y"), t("z")]),
        ]);
        let (c_v, b_v) = view_dependencies("V", &defq);
        let deds = vec![ind, c_v, b_v];
        let proprietary: HashSet<Predicate> = [Predicate::new("V")].into_iter().collect();
        (q, deds, proprietary)
    }

    /// Section 2.3 setup with a second, redundant proprietary copy of A.
    fn redundant_setup() -> (ConjunctiveQuery, Vec<Ded>, HashSet<Predicate>) {
        let (q, mut deds, _) = section_2_3_setup();
        let defa = ConjunctiveQuery::new("Astored")
            .with_head(vec![t("x"), t("y")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let (c_a, b_a) = view_dependencies("Astored", &defa);
        deds.push(c_a);
        deds.push(b_a);
        let proprietary: HashSet<Predicate> =
            [Predicate::new("V"), Predicate::new("Astored")].into_iter().collect();
        (q, deds, proprietary)
    }

    /// A query under no dependencies with a redundant atom,
    /// `Q(x) :- A(x,y), A(x,z)`: either atom alone is its core.
    fn dependency_free_setup() -> (ConjunctiveQuery, HashSet<Predicate>) {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x")]).with_body(vec![
            Atom::named("A", vec![t("x"), t("y")]),
            Atom::named("A", vec![t("x"), t("z")]),
        ]);
        (q, [Predicate::new("A")].into_iter().collect())
    }

    /// What the backchase found, and the statistics it recorded.
    type Run = (BackchaseOutcome, CbStatistics);

    fn run(
        q: &ConjunctiveQuery,
        deds: &[Ded],
        proprietary: &HashSet<Predicate>,
        options: &BackchaseOptions,
    ) -> Run {
        run_under(q, deds, proprietary, &ChaseOptions::default(), options)
    }

    /// The universal plan chased under default options, then the backchase
    /// under `chase`. A query every chase branch of which fails has no
    /// reformulation.
    fn run_under(
        q: &ConjunctiveQuery,
        deds: &[Ded],
        proprietary: &HashSet<Predicate>,
        chase: &ChaseOptions,
        options: &BackchaseOptions,
    ) -> Run {
        run_compiled(q, &CompiledDeps::new(deds), proprietary, chase, options)
    }

    /// [`run_under`] with the dependencies compiled. The universal plan is
    /// chased afresh, so no index an earlier run built on its relations is
    /// reused.
    fn run_compiled(
        q: &ConjunctiveQuery,
        compiled: &CompiledDeps,
        proprietary: &HashSet<Predicate>,
        chase: &ChaseOptions,
        options: &BackchaseOptions,
    ) -> Run {
        let up = chase_to_resident_compiled(q, compiled, &ChaseOptions::default());
        let mut stats = CbStatistics::default();
        let Some(primary) = up.primary(&q.name) else {
            return (BackchaseOutcome::default(), stats);
        };
        let atoms = proprietary_atoms(&primary.body, proprietary);
        let outcome = backchase(
            q,
            &primary,
            atoms,
            up.branches(),
            proprietary,
            compiled,
            chase,
            options,
            &mut stats,
        );
        (outcome, stats)
    }

    #[test]
    fn section_2_3_backchase_finds_view_rewriting() {
        let (q, deds, proprietary) = section_2_3_setup();
        let (out, stats) = run(&q, &deds, &proprietary, &BackchaseOptions::default());
        assert_eq!(out.minimal.len(), 1);
        assert!(!stats.backchase_truncated);
        let (best, _) = out.best.as_ref().unwrap();
        assert_eq!(best.body.len(), 1);
        assert_eq!(best.body[0].predicate.name(), "V");
    }

    #[test]
    fn initial_reformulation_restricts_to_proprietary_atoms() {
        let (q, deds, proprietary) = section_2_3_setup();
        let engine = crate::ChaseBackchase::new(deds, &[], proprietary);
        let initial = engine.reformulate(&q, &Default::default()).initial.unwrap();
        assert_eq!(initial.body.len(), 1);
        assert_eq!(initial.body[0].predicate.name(), "V");
    }

    /// The branchy half of the equivalence check. `A(x,y) → S(x) ∨ (T(x) ∧
    /// x = y)` splits the universal plan of `Q(x) :- A(x,y)` in two; the
    /// primary branch holds `Astored(x,y)`, `VS(x)` (a view over `A ∧ S`) and
    /// `W(x)` (a view of `VS`), the second one `Astored(y,y)` under the head
    /// `y`. A candidate without `Astored` does not map into the second
    /// branch — its cone is cut — and one with it maps there only through
    /// the kernel (head and atoms differ from the primary's). `minimal` is
    /// what brute force over every subset of the pool finds, each decided by
    /// the oracle: the naive chase and a containment mapping into every leaf.
    #[test]
    fn disjunctive_plan_is_checked_on_every_branch() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let split = Ded::disjunctive(
            "split",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![
                Conjunct::atoms(vec![Atom::named("S", vec![t("x")])]),
                Conjunct::atoms(vec![Atom::named("T", vec![t("x")])])
                    .with_equalities(vec![(t("x"), t("y"))]),
            ],
        );
        let mut deds = vec![split];
        for (name, head, body) in [
            ("Astored", vec![t("x"), t("y")], vec![Atom::named("A", vec![t("x"), t("y")])]),
            (
                "VS",
                vec![t("x")],
                vec![Atom::named("A", vec![t("x"), t("y")]), Atom::named("S", vec![t("x")])],
            ),
            ("W", vec![t("x")], vec![Atom::named("VS", vec![t("x")])]),
        ] {
            let def = ConjunctiveQuery::new(name).with_head(head).with_body(body);
            let (c, b) = view_dependencies(name, &def);
            deds.extend([c, b]);
        }
        let proprietary: HashSet<Predicate> =
            ["Astored", "VS", "W"].into_iter().map(Predicate::new).collect();

        let compiled = CompiledDeps::new(&deds);
        let up = chase_to_resident_compiled(&q, &compiled, &ChaseOptions::default());
        assert_eq!(up.branches().len(), 2, "the disjunction splits the universal plan");
        let primary = up.primary(&q.name).unwrap();
        let pool: Vec<Atom> =
            primary.body.iter().filter(|a| proprietary.contains(&a.predicate)).cloned().collect();
        assert_eq!(pool.len(), 3);

        let (out, stats) = run(&q, &deds, &proprietary, &BackchaseOptions::exhaustive());
        assert!(stats.containment_dead_cone_skips >= 1, "a cone outside the second branch is cut");
        assert!(!stats.backchase_truncated && stats.degradation.is_none());
        // The oracle: `candidate ≡ q` iff each maps into every leaf of the
        // other's naive chase (and the candidate is safe and consistent).
        let maps_into_chase_of = |from: &ConjunctiveQuery, of: &ConjunctiveQuery| {
            let tree = naive_chase(of, &deds, &ChaseBudget::small());
            assert!(tree.terminated());
            !tree.leaves.is_empty()
                && tree.leaves.iter().all(|leaf| containment_mapping(from, leaf).is_some())
        };
        let equivalent: Vec<Vec<Atom>> = (1u32..1 << pool.len())
            .map(|mask| -> Vec<Atom> {
                (0..pool.len()).filter(|i| mask & (1 << i) != 0).map(|i| pool[i].clone()).collect()
            })
            .filter(|body| {
                let candidate = primary.clone().with_body(body.clone());
                candidate.is_safe()
                    && maps_into_chase_of(&candidate, &q)
                    && maps_into_chase_of(&q, &candidate)
            })
            .collect();
        let mut minimal: Vec<Vec<Atom>> = equivalent
            .iter()
            .filter(|body| {
                !equivalent
                    .iter()
                    .any(|e| e.len() < body.len() && e.iter().all(|a| body.contains(a)))
            })
            .cloned()
            .collect();
        minimal.sort();
        let mut found: Vec<Vec<Atom>> = out.minimal.iter().map(|(m, _)| m.body.clone()).collect();
        found.sort();
        assert_eq!(found, minimal);
        assert_eq!(found, [vec![pool[0].clone()]], "only the stored copy answers the query");
    }

    /// A redundant-storage scenario: the proprietary schema stores the public
    /// relation A itself *and* the view V. Both the A-only and the V-only
    /// rewritings are minimal reformulations; the best one is chosen by cost.
    #[test]
    fn redundant_storage_yields_multiple_minimal_reformulations() {
        let (q, deds, proprietary) = redundant_setup();
        let (out, _) = run(&q, &deds, &proprietary, &BackchaseOptions::exhaustive());
        assert_eq!(out.minimal.len(), 2, "both the view and the stored copy are minimal");
        let best = out.best.as_ref().unwrap();
        assert_eq!(best.0.body.len(), 1);
        // Cost pruning (non-exhaustive) still finds at least one and the best.
        let (pruned, _) = run(&q, &deds, &proprietary, &BackchaseOptions::default());
        assert!(pruned.best.is_some());
    }

    #[test]
    fn no_reformulation_without_supporting_constraint() {
        // Without (ind) the view cannot answer Q.
        let (q, deds, proprietary) = section_2_3_setup();
        let deds_no_ind: Vec<Ded> = deds.iter().skip(1).cloned().collect();
        let (out, _) = run(&q, &deds_no_ind, &proprietary, &BackchaseOptions::default());
        assert!(out.minimal.is_empty());
        assert!(out.best.is_none());
    }

    #[test]
    fn unsafe_subqueries_are_rejected() {
        // Head variable x must be bound by the reformulation body.
        let (q, deds, _) = section_2_3_setup();
        // Make only B proprietary: B(y,z) does not bind x, so no reformulation.
        let proprietary: HashSet<Predicate> = [Predicate::new("B")].into_iter().collect();
        let (out, _) = run(&q, &deds, &proprietary, &BackchaseOptions::default());
        assert!(out.minimal.is_empty());
    }

    #[test]
    fn cost_pruning_reduces_inspected_candidates() {
        let (q, deds, proprietary) = redundant_setup();
        let (exhaustive, exhaustive_stats) =
            run(&q, &deds, &proprietary, &BackchaseOptions::exhaustive());
        let (pruned, pruned_stats) = run(&q, &deds, &proprietary, &BackchaseOptions::default());
        assert!(pruned_stats.candidates_inspected <= exhaustive_stats.candidates_inspected);
        assert_eq!(exhaustive_stats.pruned_by_cost, 0, "an exhaustive run prunes nothing by cost");
        assert!(pruned_stats.pruned_by_cost <= pruned_stats.candidates_inspected);
        assert_eq!(
            pruned.best.as_ref().map(|(_, c)| *c),
            exhaustive.best.as_ref().map(|(_, c)| *c),
            "pruning must not change the optimum under a monotone cost model"
        );
    }

    /// Regression: a truncated enumeration must be distinguishable from a
    /// complete one.
    #[test]
    fn truncation_is_reported() {
        let (q, deds, proprietary) = redundant_setup();
        let opts = BackchaseOptions { max_candidates: 1, ..BackchaseOptions::exhaustive() };
        let (out, stats) = run(&q, &deds, &proprietary, &opts);
        assert!(stats.backchase_truncated, "hitting max_candidates must set the flag");
        assert!(out.minimal.len() < 2);
        let (_, complete) = run(&q, &deds, &proprietary, &BackchaseOptions::exhaustive());
        assert!(!complete.backchase_truncated);
    }

    /// The candidate budget degrades anytime-style: whatever was found before
    /// the cut is kept (tagged, not thrown away as an error).
    #[test]
    fn candidate_budget_degrades_to_best_so_far() {
        let (q, deds, proprietary) = redundant_setup();
        let opts = BackchaseOptions { max_candidates: 1, ..BackchaseOptions::exhaustive() };
        let (out, stats) = run(&q, &deds, &proprietary, &opts);
        assert!(stats.backchase_truncated);
        assert_eq!(stats.degradation, Some(Degradation::CandidateBudget));
        assert_eq!(out.minimal.len(), 1, "the anytime result keeps what was found before the cut");
        assert!(out.best.is_some());
        let (_, complete) = run(&q, &deds, &proprietary, &BackchaseOptions::exhaustive());
        assert_eq!(complete.degradation, None);
        assert!(!complete.backchase_truncated);
    }

    /// An already-expired deadline stops the enumeration before the first
    /// level — no error, an empty tagged outcome (the universal plan upstream
    /// remains the sound floor of the ladder).
    #[test]
    fn expired_deadline_yields_anytime_degradation() {
        let (q, deds, proprietary) = redundant_setup();
        let exhaustive = BackchaseOptions::exhaustive();
        let expired =
            ChaseOptions::default().with_deadline(Instant::now() - Duration::from_secs(1));
        let (out, stats) = run_under(&q, &deds, &proprietary, &expired, &exhaustive);
        assert!(stats.backchase_truncated);
        assert_eq!(stats.degradation, Some(Degradation::DeadlineExceeded));
        assert!(out.minimal.is_empty());
        assert_eq!(stats.candidates_inspected, 0);
        // A generous deadline is byte-identical to no deadline at all.
        let generous =
            ChaseOptions::default().with_deadline(Instant::now() + Duration::from_secs(3600));
        let bounded = run_under(&q, &deds, &proprietary, &generous, &exhaustive);
        let unbounded = run(&q, &deds, &proprietary, &exhaustive);
        assert_eq!(strip_durations(bounded), strip_durations(unbounded));
    }

    /// Degradation reasons merge by severity: a deadline stop outranks the
    /// candidate budget, which outranks a size ceiling.
    #[test]
    fn degradation_merge_keeps_the_most_severe_reason() {
        use Degradation::*;
        assert_eq!(Degradation::merge(None, None), None);
        assert_eq!(Degradation::merge(Some(AtomCeiling), None), Some(AtomCeiling));
        assert_eq!(Degradation::merge(None, Some(CandidateBudget)), Some(CandidateBudget));
        assert_eq!(
            Degradation::merge(Some(CandidateBudget), Some(DeadlineExceeded)),
            Some(DeadlineExceeded)
        );
        assert_eq!(
            Degradation::merge(Some(DeadlineExceeded), Some(AtomCeiling)),
            Some(DeadlineExceeded)
        );
    }

    /// Regression for the memoized back-chase: resuming from a cached subset
    /// chase must find exactly the reformulations a from-scratch chase finds —
    /// every minimal body with its cost, in the same order, and the same
    /// best. (`tests/end_to_end.rs` runs the same comparison on the star and
    /// on Example 1.1.)
    #[test]
    fn memoized_and_scratch_backchase_agree() {
        let (q, deds, proprietary) = redundant_setup();
        let (memo, _) = run(&q, &deds, &proprietary, &BackchaseOptions::exhaustive());
        let opts = BackchaseOptions { chase_cache_per_level: 0, ..BackchaseOptions::exhaustive() };
        let (scratch, scratch_stats) = run(&q, &deds, &proprietary, &opts);
        assert_eq!(scratch_stats.chase_cache_hits, 0);
        assert!(!memo.minimal.is_empty());
        assert_eq!(memo.minimal, scratch.minimal);
        assert_eq!(memo.best, scratch.best);
    }

    /// A run rendered with its wall-clock fields zeroed (everything else must
    /// be bit-for-bit reproducible).
    fn strip_durations((outcome, stats): Run) -> String {
        let stats = CbStatistics {
            backchase_duration: Duration::ZERO,
            backchase_cost_phase: Duration::ZERO,
            backchase_chase_phase: Duration::ZERO,
            backchase_containment_phase: Duration::ZERO,
            ..stats
        };
        format!("{outcome:?} {stats:?}")
    }

    /// The phase profile: the recorded phases are non-zero where work
    /// happened and, being wall time on the caller, sum to at most the
    /// total backchase duration.
    #[test]
    fn phase_profile_is_recorded() {
        let (q, deds, proprietary) = redundant_setup();
        let (_, stats) = run(&q, &deds, &proprietary, &BackchaseOptions::exhaustive());
        assert!(stats.backchase_chase_phase > Duration::default());
        assert!(stats.backchase_containment_phase > Duration::default());
        assert!(
            stats.backchase_cost_phase
                + stats.backchase_chase_phase
                + stats.backchase_containment_phase
                <= stats.backchase_duration
        );
    }

    /// A backchase repeats itself: on the star at NC = 5 (exhaustive),
    /// Example 1.1 and the XMark suite, two runs in one process find the
    /// same minimal bodies in the same order and the same best, and record
    /// every counter of [`CbStatistics`] alike, index builds included.
    #[test]
    fn a_backchase_repeats_itself() {
        use mars::{Mars, MarsOptions};
        use mars_workloads::{example11, star::StarConfig, xmark};
        let star = StarConfig::figure5(5);
        let star_mars = star.mars(MarsOptions::specialized().exhaustive());
        let (example11_mars, xmark_mars) = (example11::mars(), xmark::mars(true));
        let mut cases: Vec<(&Mars, _, BackchaseOptions)> = vec![
            (&star_mars, star.client_query(), BackchaseOptions::exhaustive()),
            (&example11_mars, example11::client_query(), BackchaseOptions::default()),
        ];
        for query in xmark::query_suite() {
            cases.push((&xmark_mars, query, BackchaseOptions::default()));
        }
        for (mars, query, options) in cases {
            let block = mars.reformulate_xbind(&query);
            let initial = block.result.initial.expect("the query has a reformulation");
            let proprietary: HashSet<Predicate> =
                initial.body.iter().map(|a| a.predicate).collect();
            let (q, compiled) = (&block.compiled, CompiledDeps::new(mars.dependencies()));
            let chase = ChaseOptions::default();
            let first = run_compiled(q, &compiled, &proprietary, &chase, &options);
            assert!(!first.0.minimal.is_empty(), "{}", query.name);
            let second = run_compiled(q, &compiled, &proprietary, &chase, &options);
            assert_eq!(strip_durations(second), strip_durations(first), "{}", query.name);
        }
    }

    /// Regression for the removed 128-atom ceiling: a candidate pool wider
    /// than 128 atoms is enumerated exhaustively (no silent greedy fallback,
    /// no truncation flag). The pool is a 139-atom navigation chain, so the
    /// reachability pruning keeps the search space linear: the prefixes.
    /// Only the full chain binds the head, so the walk expands the chain's
    /// prefixes, the empty one included, and checks the full chain alone.
    #[test]
    fn pool_wider_than_128_atoms_is_enumerated_exhaustively() {
        let steps = 138usize;
        let mut body = vec![root(t("x0"))];
        for i in 0..steps {
            body.push(child(t(&format!("x{i}")), t(&format!("x{}", i + 1))));
        }
        let q =
            ConjunctiveQuery::new("deep").with_head(vec![t(&format!("x{steps}"))]).with_body(body);
        let proprietary: HashSet<Predicate> =
            [Predicate::new("root#d.xml"), Predicate::new("child#d.xml")].into_iter().collect();
        let (out, stats) = run(&q, &[], &proprietary, &BackchaseOptions::exhaustive());
        assert!(!stats.backchase_truncated, "a wide pool must enumerate completely, not truncate");
        assert_eq!(out.minimal.len(), 1, "only the full chain binds the head");
        assert_eq!(out.minimal[0].0.body.len(), steps + 1);
        // Navigation pruning keeps it linear: one prefix per size.
        assert_eq!(stats.prefixes_expanded, steps + 1);
        assert_eq!(stats.candidates_inspected, 1);
    }

    /// Under no dependencies a cost-pruned run takes the core path: it finds
    /// one correct reformulation, the core, without inspecting a candidate;
    /// an exhaustive run still enumerates every minimal one.
    #[test]
    fn dependency_free_pool_is_minimized_to_its_core() {
        let (q, proprietary) = dependency_free_setup();
        let (out, stats) = run(&q, &[], &proprietary, &BackchaseOptions::default());
        assert_eq!(out.minimal.len(), 1, "the core path yields one reformulation");
        assert!(!stats.backchase_truncated, "the core path is complete, not truncated");
        let (m, _) = &out.minimal[0];
        assert_eq!(m.body.len(), 1, "the core is a single atom here");
        assert_eq!(stats.candidates_inspected, 0, "the core path enumerates nothing");
        // The exhaustive enumeration, by contrast, finds both cores.
        let (full, _) = run(&q, &[], &proprietary, &BackchaseOptions::exhaustive());
        assert_eq!(full.minimal.len(), 2);
    }

    /// The core path races the engine's clock like the enumeration: a
    /// back-chase the deadline cuts fails its candidate *and* is reported
    /// (`degradation == None` must mean nothing was cut), and a deadline that
    /// never trips changes nothing.
    #[test]
    fn greedy_minimization_reports_a_budget_cut() {
        let (q, proprietary) = dependency_free_setup();
        let options = BackchaseOptions::default();
        let expired =
            ChaseOptions::default().with_deadline(Instant::now() - Duration::from_secs(1));
        let (cut, cut_stats) = run_under(&q, &[], &proprietary, &expired, &options);
        assert_eq!(cut_stats.degradation, Some(Degradation::DeadlineExceeded));
        assert!(cut.minimal.is_empty() && cut.best.is_none());

        let generous =
            ChaseOptions::default().with_deadline(Instant::now() + Duration::from_secs(3600));
        let bounded = run_under(&q, &[], &proprietary, &generous, &options);
        let unbounded = run(&q, &[], &proprietary, &options);
        assert_eq!(unbounded.1.degradation, None);
        assert_eq!(unbounded.0.minimal.len(), 1);
        assert_eq!(strip_durations(bounded), strip_durations(unbounded));
    }

    /// A random navigation query of at most 8 atoms under no dependencies: a
    /// tree of `child` / `desc` steps under `root(n0)`, each new node
    /// optionally tested by a constant `tag` or given a `text` value (a
    /// constant or a variable). About a third of the steps duplicate an
    /// earlier step under fresh variables, tests and values included, so the
    /// core is usually a proper subset; the head picks one or two variables
    /// of the body, which may sit inside a duplicate.
    fn random_dependency_free(seed: u64) -> ConjunctiveQuery {
        let mut rng = TestRng::new(seed);
        let mut body = vec![root(t("n0"))];
        // Each step below node 0: its parent, whether it is a `desc` step,
        // and the atoms on its node.
        let mut steps: Vec<(usize, bool, Vec<Atom>)> = Vec::new();
        while body.len() < 8 {
            let node = steps.len() + 1;
            let n = t(&format!("n{node}"));
            let step = if !steps.is_empty() && rng.next_u64().is_multiple_of(3) {
                let (parent, descendant, on_node) = &steps[rng.next_u64() as usize % steps.len()];
                let renamed = on_node
                    .iter()
                    .map(|a| match a.args[1] {
                        Term::Var(_) => text(n, t(&format!("v{node}"))),
                        value => Atom::new(a.predicate, vec![n, value]),
                    })
                    .collect();
                (*parent, *descendant, renamed)
            } else {
                let on_node = match rng.next_u64() % 5 {
                    0 => vec![tag(n, "a")],
                    1 => vec![tag(n, "b")],
                    2 => vec![text(n, Term::constant_str("c"))],
                    3 => vec![text(n, t(&format!("v{node}")))],
                    _ => vec![],
                };
                (rng.next_u64() as usize % node, rng.next_u64().is_multiple_of(4), on_node)
            };
            let p = t(&format!("n{}", step.0));
            body.push(if step.1 { desc(p, n) } else { child(p, n) });
            body.extend(step.2.iter().cloned());
            steps.push(step);
        }
        body.truncate(8);
        let vars = ConjunctiveQuery::new("B").with_body(body.clone()).variables();
        let head: Vec<Term> = (0..1 + rng.next_u64() % 2)
            .map(|_| Term::Var(vars[rng.next_u64() as usize % vars.len()]))
            .collect();
        ConjunctiveQuery::new("R").with_head(head).with_body(body)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The core path returns a reformulation the enumeration returns:
        /// under no dependencies, the cost-pruned run finds exactly one
        /// minimal reformulation, undegraded, whose body is one of the
        /// exhaustive enumeration's minimal bodies — and every one of those
        /// has its size and cost (the cores of a query are isomorphic).
        #[test]
        fn core_path_returns_a_reformulation_the_enumeration_returns(seed in 0u64..u64::MAX) {
            let q = random_dependency_free(seed);
            let proprietary: HashSet<Predicate> = q.body.iter().map(|a| a.predicate).collect();
            let (core, stats) = run(&q, &[], &proprietary, &BackchaseOptions::default());
            let (all, _) = run(&q, &[], &proprietary, &BackchaseOptions::exhaustive());
            prop_assert_eq!(stats.degradation, None);
            prop_assert_eq!(core.minimal.len(), 1, "{}", q);
            let (body, cost) = (&core.minimal[0].0.body, core.minimal[0].1);
            prop_assert!(all.minimal.iter().any(|(m, _)| &m.body == body), "{}", q);
            for (m, c) in &all.minimal {
                prop_assert_eq!((m.body.len(), *c), (body.len(), cost), "{}", q);
            }
        }
    }

    /// Every minimal reformulation by brute force, bodies sorted: each subset
    /// of the pool that criteria 2–3 accept (`is_legal_subset`), smallest
    /// first, decided from scratch by `Equivalence::check`. A subset holding
    /// an equivalent one is not minimal and is not checked. `None` when the
    /// pool is wider than 16 atoms.
    fn brute_force_minimal(
        q: &ConjunctiveQuery,
        deds: &[Ded],
        proprietary: &HashSet<Predicate>,
    ) -> Option<Vec<Vec<Atom>>> {
        let compiled = CompiledDeps::new(deds);
        let up = chase_to_resident_compiled(q, &compiled, &ChaseOptions::default());
        let primary = up.primary(&q.name).expect("the query has a universal plan");
        let body = prune_parallel_desc(&primary).body;
        let pool = ConjunctiveQuery {
            body: body.into_iter().filter(|a| proprietary.contains(&a.predicate)).collect(),
            ..primary
        };
        let n = pool.body.len();
        if n > 16 {
            return None;
        }
        let above = pool.variables().iter().chain(&q.variables()).map(|v| v.index).max();
        let equivalence = Equivalence {
            original: ContainmentProgram::new(q),
            plan: up.branches(),
            deds: &compiled,
            chase: ChaseOptions { min_fresh_index: above.unwrap_or(0) + 1, ..Default::default() },
        };
        let graph = ReachabilityGraph::new(&pool);
        let mut masks: Vec<u32> = (1..1 << n).collect();
        masks.sort_by_key(|m| m.count_ones());
        let mut found: Vec<Vec<usize>> = Vec::new();
        for mask in masks {
            let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            if found.iter().any(|f| f.iter().all(|i| subset.contains(i)))
                || !is_legal_subset(&graph, &subset)
            {
                continue;
            }
            let check = equivalence.check(Candidate::Query(&pool.subquery(&subset)), None, false);
            if matches!(check.verdict, Verdict::Equivalent) {
                found.push(subset);
            }
        }
        let mut bodies: Vec<Vec<Atom>> = found
            .iter()
            .map(|subset| subset.iter().map(|&i| pool.body[i].clone()).collect())
            .collect();
        bodies.sort();
        Some(bodies)
    }

    /// The minimal bodies an exhaustive backchase finds, sorted, and its
    /// statistics.
    fn exhaustive_minimal(
        q: &ConjunctiveQuery,
        deds: &[Ded],
        proprietary: &HashSet<Predicate>,
    ) -> (Vec<Vec<Atom>>, CbStatistics) {
        let (out, stats) = run(q, deds, proprietary, &BackchaseOptions::exhaustive());
        assert!(!stats.backchase_truncated && stats.degradation.is_none());
        let mut bodies: Vec<Vec<Atom>> = out.minimal.into_iter().map(|(m, _)| m.body).collect();
        bodies.sort();
        (bodies, stats)
    }

    /// The TIX constraints of `d.xml` a path query's chase fires, written
    /// out: the closure (`base`, `trans`, `refl`), `child_el` and `el_id`,
    /// and the keys. Of the single-premise TGDs, `child_el` and `el_id`
    /// relate pool atoms; `base` and `refl` derive `desc` atoms criterion 1
    /// already drops from the pool.
    fn tix() -> Vec<Ded> {
        let (x, y, z, i, j) = (t("x"), t("y"), t("z"), t("i"), t("j"));
        vec![
            Ded::tgd("base", vec![child(x, y)], vec![], vec![desc(x, y)]),
            Ded::tgd("trans", vec![desc(x, y), desc(y, z)], vec![], vec![desc(x, z)]),
            Ded::tgd("refl", vec![el(x)], vec![], vec![desc(x, x)]),
            Ded::tgd("child_el", vec![child(x, y)], vec![], vec![el(x), el(y)]),
            Ded::tgd("el_id", vec![el(x)], vec![Variable::named("i")], vec![id(x, i)]),
            Ded::egd("id_key", vec![id(x, i), id(x, j)], i, j),
            Ded::egd("root_unique", vec![root(x), root(y)], x, y),
            Ded::egd("parent_unique", vec![child(x, z), child(y, z)], x, y),
        ]
    }

    /// The document's GReX predicates, plus `extra`.
    fn grex_proprietary(extra: &[&str]) -> HashSet<Predicate> {
        let (x, y) = (t("x"), t("y"));
        [root(x), el(x), child(x, y), desc(x, y), tag(x, "a"), text(x, y), id(x, y)]
            .iter()
            .map(|a| a.predicate)
            .chain(extra.iter().map(|p| Predicate::new(p)))
            .collect()
    }

    /// `/a/b/text()` as `Q(v) :- root(r), child(r,x), tag(x,"a"),
    /// child(x,y), tag(y,"b"), text(y,v)`, over a proprietary document that
    /// also stores the answer as a view `V(v)` of the same body. The pool
    /// is 13 atoms: `V`, the six of the query, and the `el` and `id` atoms
    /// the chase adds to its three nodes.
    fn grex_setup() -> (ConjunctiveQuery, Vec<Ded>, HashSet<Predicate>) {
        let (r, x, y, v) = (t("r"), t("x"), t("y"), t("v"));
        let body = vec![root(r), child(r, x), tag(x, "a"), child(x, y), tag(y, "b"), text(y, v)];
        let q = ConjunctiveQuery::new("Q").with_head(vec![v]).with_body(body.clone());
        let view = ConjunctiveQuery::new("V").with_head(vec![v]).with_body(body);
        let (c_v, b_v) = view_dependencies("V", &view);
        let mut deds = tix();
        deds.extend([c_v, b_v]);
        (q, deds, grex_proprietary(&["V"]))
    }

    /// Criterion 4 keeps completeness on a GReX pool: the exhaustive
    /// backchase finds exactly the minimal reformulations brute force over
    /// every legal subset finds, while it skips children holding an `el` or
    /// `id` that navigation implies.
    #[test]
    fn implied_atom_pruning_keeps_every_minimal_reformulation_of_a_grex_pool() {
        let (q, deds, proprietary) = grex_setup();
        let (found, stats) = exhaustive_minimal(&q, &deds, &proprietary);
        assert!(stats.implied_skips > 0, "the pool holds implied el / id atoms");
        assert_eq!(Some(&found), brute_force_minimal(&q, &deds, &proprietary).as_ref());
        let mut sizes: Vec<usize> = found.iter().map(Vec::len).collect();
        sizes.sort();
        assert_eq!(sizes, [1, 6], "V, and the navigation");
    }

    /// The same completeness on the XMark suite, under three engines: the
    /// benchmark's specialized one, whose pools add the document's `el` and
    /// `id` atoms to specialization relations and views; the same with the
    /// navigation replaced, whose relational pools hold a specialization
    /// relation and a view of it that imply each other; and the
    /// unspecialized one. Pools wider than 16 atoms (Q2 and Q3 beside the
    /// specialized engine's navigation, 39 atoms) are left out: brute force
    /// cannot cover them. Every query is compared at least once.
    #[test]
    fn implied_atom_pruning_keeps_every_minimal_reformulation_of_xmark() {
        use mars::{Mars, MarsOptions};
        use mars_workloads::xmark;
        let replaced = MarsOptions { spec_replaces_navigation: true, ..MarsOptions::specialized() };
        let engines = [
            xmark::mars(true),
            Mars::with_options(xmark::correspondence(), replaced),
            xmark::mars(false),
        ];
        let (mut compared, mut skips) = (HashSet::new(), 0);
        for mars in &engines {
            for query in xmark::query_suite() {
                let block = mars.reformulate_xbind(&query);
                let Some(initial) = block.result.initial else { continue };
                let proprietary: HashSet<Predicate> =
                    initial.body.iter().map(|a| a.predicate).collect();
                let (q, deds) = (&block.compiled, mars.dependencies());
                let Some(expected) = brute_force_minimal(q, deds, &proprietary) else { continue };
                let (found, stats) = exhaustive_minimal(q, deds, &proprietary);
                assert!(!found.is_empty(), "{}", query.name);
                assert_eq!(found, expected, "{}", query.name);
                compared.insert(query.name);
                skips += stats.implied_skips;
            }
        }
        assert_eq!(compared.len(), 4, "{compared:?}");
        assert!(skips > 0, "some XMark pool holds an implied pair");
    }

    /// `Q(..) :- root(r), child(r,x), tag(x,"a"), id(x,i), ..`: an `id`
    /// whose identity the head exports, or another pool atom joins, is not
    /// implied by `el(x)`, and the reformulation that needs it is found.
    #[test]
    fn an_identity_the_query_uses_is_kept() {
        let (r, x, i, v) = (t("r"), t("x"), t("i"), t("v"));
        let navigation = vec![root(r), child(r, x), tag(x, "a"), id(x, i)];
        let joined = Atom::named("R", vec![i, v]);
        for (head, body) in [
            (vec![i], navigation.clone()),
            (vec![v], navigation.iter().cloned().chain([joined.clone()]).collect()),
        ] {
            let q = ConjunctiveQuery::new("Q").with_head(head).with_body(body.clone());
            let proprietary = grex_proprietary(&["R"]);
            let (found, stats) = exhaustive_minimal(&q, &tix(), &proprietary);
            assert!(stats.implied_skips > 0, "the chase's own el / id atoms are still skipped");
            let (mut needed, mut expected) = (found.concat(), body);
            needed.sort();
            expected.sort();
            assert_eq!((found.len(), needed), (1, expected), "{q}");
            assert_eq!(Some(&found), brute_force_minimal(&q, &tix(), &proprietary).as_ref());
        }
    }

    /// A dependency set whose TGDs have no single premise atom, or carry an
    /// inequality, relates no pool atoms: the backchase skips nothing and
    /// finds the same reformulations.
    #[test]
    fn no_single_premise_tgd_skips_nothing() {
        let (q, deds, proprietary) = grex_setup();
        let (x, y, r) = (t("x"), t("y"), t("r"));
        let rewritten: Vec<Ded> = deds
            .iter()
            .map(|d| match d.name.as_str() {
                "child_el" => d.clone().with_premise_inequalities(vec![(x, y)]),
                "el_id" => Ded { premise: vec![el(x), root(r)], ..d.clone() },
                _ => d.clone(),
            })
            .collect();
        let (found, stats) = exhaustive_minimal(&q, &rewritten, &proprietary);
        assert_eq!(stats.implied_skips, 0);
        assert_eq!(found, exhaustive_minimal(&q, &deds, &proprietary).0);
    }

    /// Dropping an implied entry point must leave the candidate
    /// constructible. `Q(v) :- child(v,w), child(w,v)` under `V(v) :-
    /// child(w,v)` (its `bV` alone): each `child` implies the `V` of its
    /// target, which also produces that node. Yet `{V(v), child(v,w),
    /// child(w,v)}` is constructible only from `V(v)` — `child(w,v)` needs
    /// the `w` that `child(v,w)` produces, which needs `v` — so it is a
    /// minimal reformulation, and so is its mirror image through `V(w)`.
    #[test]
    fn an_implied_entry_point_navigation_starts_from_is_kept() {
        let (v, w) = (t("v"), t("w"));
        let q =
            ConjunctiveQuery::new("Q").with_head(vec![v]).with_body(vec![child(v, w), child(w, v)]);
        let b_v = Ded::tgd("bV", vec![child(w, v)], vec![], vec![Atom::named("V", vec![v])]);
        let deds = [b_v];
        let proprietary: HashSet<Predicate> = [child(v, w).predicate, Predicate::new("V")].into();
        let (found, _) = exhaustive_minimal(&q, &deds, &proprietary);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(Some(found), brute_force_minimal(&q, &deds, &proprietary));
    }

    /// The parts of a backchase its enumeration reads, over a pool given
    /// directly: no chase runs.
    struct Enumeration {
        graph: ReachabilityGraph,
        implied: ImpliedAtoms,
        safety: SafetyPrefilter,
        costs: Vec<f64>,
    }

    impl Enumeration {
        fn new(pool: &ConjunctiveQuery, deds: &[Ded], costs: Vec<f64>) -> Enumeration {
            let io: Vec<_> = pool.body.iter().map(atom_io).collect();
            Enumeration {
                graph: ReachabilityGraph::from_io(&io),
                implied: ImpliedAtoms::new(pool, &io, &SinglePremiseTgds::new(deds)),
                safety: SafetyPrefilter::new(pool, &pool.body),
                costs,
            }
        }

        /// Each level the walk builds, fed `found` / `outside` as its
        /// candidates' verdicts: its number and its candidates in order,
        /// levels without one left out. Also the prefixes it expanded.
        fn walk(
            &self,
            exhaustive: bool,
            fate: impl Fn(&AtomSet) -> Fate,
        ) -> (Vec<(usize, Vec<AtomSet>)>, usize) {
            let (graph, implied, safety) = (&self.graph, &self.implied, &self.safety);
            let mut walk = Walk::new(graph, implied, safety, &self.costs, exhaustive, usize::MAX);
            let (mut levels, mut best, mut stats) = (Vec::new(), f64::INFINITY, Default::default());
            while !walk.is_over(best) {
                let candidates = walk.next_level(best, &mut stats);
                let sets: Vec<AtomSet> = candidates.iter().map(|c| c.atoms.clone()).collect();
                let mut next_best = best;
                for candidate in candidates {
                    match fate(&candidate.atoms) {
                        Fate::Found => {
                            next_best = next_best.min(candidate.cost);
                            walk.close(candidate.atoms);
                        }
                        Fate::Outside => walk.close(candidate.atoms),
                        Fate::Open => walk.grow_later(candidate),
                    }
                }
                best = next_best;
                if !sets.is_empty() {
                    levels.push((walk.level, sets));
                }
            }
            (levels, stats.prefixes_expanded)
        }

        /// [`Enumeration::walk`] on the reference BFS, with the sets its
        /// levels held.
        fn bfs(
            &self,
            exhaustive: bool,
            fate: impl Fn(&AtomSet) -> Fate,
        ) -> (Vec<(usize, Vec<AtomSet>)>, usize) {
            let mut bfs = reference::Bfs::new(
                &self.graph,
                &self.implied,
                &self.safety,
                &self.costs,
                exhaustive,
            );
            let (mut levels, mut best, mut size) = (Vec::new(), f64::INFINITY, 0);
            while !bfs.is_over() {
                size += 1;
                let sets = bfs.next_level(best);
                let fates: Vec<Fate> = sets.iter().map(&fate).collect();
                for (set, f) in sets.iter().zip(&fates) {
                    if *f == Fate::Found {
                        best = best.min(set.iter().map(|i| self.costs[i]).sum());
                    }
                }
                bfs.settle(&fates.iter().map(|f| *f != Fate::Open).collect::<Vec<_>>());
                if !sets.is_empty() {
                    levels.push((size, sets));
                }
            }
            (levels, bfs.built)
        }
    }

    /// What a check's verdict tells the enumeration of its candidate.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Fate {
        /// Equivalent: a reformulation; no superset is built.
        Found,
        /// Outside the plan; no superset is built.
        Outside,
        /// Neither: its supersets are built.
        Open,
    }

    /// A verdict for every set, fixed by `seed`: one in eight is found, one
    /// in sixteen outside the plan.
    fn random_fate(seed: u64) -> impl Fn(&AtomSet) -> Fate {
        move |set| {
            let mut h = seed;
            for i in set.iter() {
                h = (h ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
            }
            match h % 16 {
                0 | 1 => Fate::Found,
                2 => Fate::Outside,
                _ => Fate::Open,
            }
        }
    }

    /// A random pool of at most 12 atoms, its dependencies and its atoms'
    /// costs. Three shapes: relational atoms under single-premise TGDs that
    /// relate some of them; GReX navigation of `d.xml` under `tix()`, whose
    /// `child_el` and `el_id` relate `child`, `el` and `id` atoms; and
    /// relations mentioning 70 head variables, with navigation below them,
    /// where the safety prefilter is off.
    fn random_enumeration(seed: u64) -> (ConjunctiveQuery, Vec<Ded>, Vec<f64>) {
        let mut rng = TestRng::new(seed);
        let len = 1 + (rng.next_u64() % 12) as usize;
        let var = |k: u64| t(&format!("x{k}"));
        let (mut body, mut head) = (Vec::new(), Vec::new());
        let deds = match rng.next_u64() % 3 {
            0 => {
                let r = |k: u64, a: Term, b: Term| Atom::named(&format!("R{k}"), vec![a, b]);
                while body.len() < len {
                    let (k, a, b) = (rng.next_u64() % 3, rng.next_u64() % 6, rng.next_u64() % 6);
                    body.push(r(k, var(a), var(b)));
                }
                let (x, y) = (t("x"), t("y"));
                let z = Variable::named("z");
                vec![
                    Ded::tgd("r0_r1", vec![r(0, x, y)], vec![], vec![r(1, x, y)]),
                    Ded::tgd("r1_r2", vec![r(1, x, y)], vec![z], vec![r(2, y, Term::Var(z))]),
                    Ded::tgd("r2_r0", vec![r(2, x, y)], vec![], vec![r(0, y, x)]),
                ]
            }
            1 => {
                while body.len() < len {
                    let (x, y) = (var(rng.next_u64() % 5), var(rng.next_u64() % 5));
                    let value = t(&format!("v{}", rng.next_u64() % 3));
                    body.push(match rng.next_u64() % 10 {
                        0 | 1 => root(x),
                        2 | 3 => child(x, y),
                        4 => desc(x, y),
                        5 => el(x),
                        6 => id(x, value),
                        7 => tag(x, "a"),
                        8 => text(x, value),
                        _ => Atom::named("V", vec![x, value]),
                    });
                }
                tix()
            }
            _ => {
                while body.len() < len {
                    if rng.next_u64().is_multiple_of(3) {
                        body.push(child(var(rng.next_u64() % 70), var(rng.next_u64() % 70)));
                    } else {
                        let from = rng.next_u64() % 60;
                        let args = (from..from + 10).map(var).collect();
                        body.push(Atom::named(&format!("W{}", rng.next_u64() % 3), args));
                    }
                }
                head = (0..70).map(var).collect();
                tix()
            }
        };
        if head.is_empty() {
            let vars = ConjunctiveQuery::new("B").with_body(body.clone()).variables();
            head = (0..rng.next_u64() % 3)
                .filter_map(|_| vars.get(rng.next_u64() as usize % vars.len().max(1)))
                .map(|&v| Term::Var(v))
                .collect();
        }
        let costs = body.iter().map(|_| [1.0, 2.0, 4.0][(rng.next_u64() % 3) as usize]).collect();
        (ConjunctiveQuery::new("P").with_head(head).with_body(body), deds, costs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The walk builds each level's candidates exactly as the BFS it
        /// replaced checks them, in the same order, when both are fed the
        /// same verdicts — cost-pruned or exhaustive, with criterion-4
        /// pairs, with the prefilter on and off.
        #[test]
        fn the_walk_checks_what_the_bfs_checks(seed in 0u64..u64::MAX) {
            let (pool, deds, costs) = random_enumeration(seed);
            let enumeration = Enumeration::new(&pool, &deds, costs);
            for exhaustive in [false, true] {
                let (walk, _) = enumeration.walk(exhaustive, random_fate(seed));
                let (bfs, _) = enumeration.bfs(exhaustive, random_fate(seed));
                prop_assert_eq!(&walk, &bfs, "{} exhaustive {}", pool, exhaustive);
            }
        }

        /// Never more work than the BFS: the walk expands no more prefixes
        /// than the BFS's levels held sets, plus the empty prefix.
        #[test]
        fn the_walk_expands_no_more_than_the_bfs_builds(seed in 0u64..u64::MAX) {
            let (pool, deds, costs) = random_enumeration(seed);
            let enumeration = Enumeration::new(&pool, &deds, costs);
            for exhaustive in [false, true] {
                let (_, expanded) = enumeration.walk(exhaustive, random_fate(seed));
                let (_, built) = enumeration.bfs(exhaustive, random_fate(seed));
                prop_assert!(expanded <= built + 1, "{} exhaustive {}", pool, exhaustive);
            }
        }
    }

    /// A prefilter-off pool: every set is a candidate, so the walk and the
    /// BFS check every legal set without an implied pair.
    #[test]
    fn without_the_prefilter_every_legal_set_is_a_candidate() {
        let head: Vec<Term> = (0..64).map(|k| t(&format!("x{k}"))).collect();
        let body = vec![
            Atom::named("W", head.clone()),
            child(t("x0"), t("y")),
            el(t("y")),
            Atom::named("R", vec![t("x1"), t("z")]),
        ];
        let pool = ConjunctiveQuery::new("P").with_head(head).with_body(body);
        let enumeration = Enumeration::new(&pool, &tix(), vec![2.0, 1.0, 2.0, 2.0]);
        assert!(!enumeration.safety.active);
        let open = |_: &AtomSet| Fate::Open;
        let (walk, _) = enumeration.walk(true, open);
        assert_eq!(walk, enumeration.bfs(true, open).0);
        let sizes: Vec<usize> = walk.iter().map(|(_, sets)| sets.len()).collect();
        // {W}, {R}; {W,child}, {W,R}; {W,child,R}. `el(y)` needs the `y`
        // `child` produces, and `child` implies it, so no set holds it.
        assert_eq!(sizes, [2, 2, 1], "{walk:?}");
    }

    /// The walk holds at most `max_held` prefixes — waiting, or candidates
    /// not yet settled — and stops building a level (`cut`) at that bound,
    /// which the backchase reports as its candidate budget. The pool's 13
    /// relations are all entry points, and only sets holding both `R0` and
    /// `H` are safe, so most prefixes wait.
    #[test]
    fn the_walk_holds_at_most_max_held_prefixes() {
        let body: Vec<Atom> = (0..12)
            .map(|k| Atom::named(&format!("R{k}"), vec![t(&format!("x{k}"))]))
            .chain([Atom::named("H", vec![t("h")])])
            .collect();
        let pool = ConjunctiveQuery::new("P").with_head(vec![t("h"), t("x0")]).with_body(body);
        let e = Enumeration::new(&pool, &[], vec![2.0; 13]);
        let mut walk = Walk::new(&e.graph, &e.implied, &e.safety, &e.costs, true, 10);
        let mut stats = CbStatistics::default();
        while !walk.is_over(f64::INFINITY) && !walk.cut {
            let candidates = walk.next_level(f64::INFINITY, &mut stats);
            let waiting: usize = walk.waiting.iter().map(Vec::len).sum();
            assert_eq!(walk.held, waiting + candidates.len());
            assert!(walk.held <= 10, "{} prefixes held", walk.held);
            candidates.into_iter().for_each(|c| walk.grow_later(c));
        }
        assert!(walk.cut, "the pool's walk holds more than 10 prefixes");
        let (unbounded, _) = e.walk(true, |_| Fate::Open);
        assert_eq!(unbounded.iter().map(|(_, sets)| sets.len()).sum::<usize>(), 1 << 11);
    }

    /// A random reformulation problem small enough for brute force: a
    /// relational chain query under LAV views of its sub-chains, a stored
    /// copy of `A` with a view over it (a criterion-4 pair) and sometimes an
    /// inclusion dependency; or a GReX path query `/a/b/text()` of depth 1
    /// or 2 under `tix()`, with a view of the whole path or of its first
    /// step.
    fn random_reformulation(seed: u64) -> (ConjunctiveQuery, Vec<Ded>, HashSet<Predicate>) {
        let mut rng = TestRng::new(seed);
        let var = |k: usize| t(&format!("x{k}"));
        let mut deds = Vec::new();
        let view = |name: &str, head: Vec<Term>, body: Vec<Atom>, deds: &mut Vec<Ded>| {
            let def = ConjunctiveQuery::new(name).with_head(head).with_body(body);
            let (c, b) = view_dependencies(name, &def);
            deds.extend([c, b]);
            Predicate::new(name)
        };
        if rng.next_u64().is_multiple_of(2) {
            let chain = 2 + (rng.next_u64() % 2) as usize;
            let body: Vec<Atom> = (0..chain)
                .map(|k| Atom::named(["A", "B", "C"][k], vec![var(k), var(k + 1)]))
                .collect();
            let head = if rng.next_u64().is_multiple_of(2) {
                vec![var(0)]
            } else {
                vec![var(0), var(chain)]
            };
            let mut proprietary = HashSet::new();
            for k in 0..3 {
                let from = (rng.next_u64() % chain as u64) as usize;
                let to = (from + 1 + (rng.next_u64() % 2) as usize).min(chain);
                let head: Vec<Term> = (from..=to).map(var).collect();
                proprietary.insert(view(
                    &format!("V{k}"),
                    head,
                    body[from..to].to_vec(),
                    &mut deds,
                ));
            }
            let a = Atom::named("A", vec![t("x"), t("y")]);
            proprietary.insert(view("Astored", vec![t("x"), t("y")], vec![a], &mut deds));
            let stored = Atom::named("Astored", vec![t("x"), t("y")]);
            proprietary.insert(view("W", vec![t("x"), t("y")], vec![stored], &mut deds));
            if rng.next_u64().is_multiple_of(2) {
                let z = Variable::named("z");
                let (a, b) = (vec![t("x"), t("y")], vec![t("y"), Term::Var(z)]);
                let ind =
                    Ded::tgd("ind", vec![Atom::named("A", a)], vec![z], vec![Atom::named("B", b)]);
                deds.push(ind);
            }
            let q = ConjunctiveQuery::new("Q").with_head(head).with_body(body);
            (q, deds, proprietary)
        } else {
            let (r, v) = (t("r"), t("v"));
            let tags: Vec<&str> =
                (0..2).map(|_| if rng.next_u64().is_multiple_of(2) { "a" } else { "b" }).collect();
            let mut body = vec![root(r), child(r, var(1)), tag(var(1), tags[0])];
            let depth = 1 + (rng.next_u64() % 2) as usize;
            if depth == 2 {
                body.extend([child(var(1), var(2)), tag(var(2), tags[1])]);
            }
            body.push(text(var(depth), v));
            let extra = if rng.next_u64().is_multiple_of(2) {
                view("V", vec![v], body.clone(), &mut deds)
            } else {
                view("V", vec![var(1)], body[..3].to_vec(), &mut deds)
            };
            deds.extend(tix());
            let q = ConjunctiveQuery::new("Q").with_head(vec![v]).with_body(body);
            (q, deds, grex_proprietary(&[extra.name()]))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The walk loses no minimal reformulation: an exhaustive backchase
        /// finds exactly what brute force over every legal subset finds.
        #[test]
        fn the_exhaustive_walk_finds_what_brute_force_finds(seed in 0u64..u64::MAX) {
            let (q, deds, proprietary) = random_reformulation(seed);
            if let Some(expected) = brute_force_minimal(&q, &deds, &proprietary) {
                let (found, _) = exhaustive_minimal(&q, &deds, &proprietary);
                prop_assert_eq!(found, expected, "{}", q);
            }
        }
    }

    /// The pool's atoms in `set` as the check renders them.
    fn rendered(pool: &ConjunctiveQuery, set: &AtomSet) -> ConjunctiveQuery {
        pool.subquery_with(set.iter().map(|i| pool.body[i].clone()).collect(), String::new())
    }

    /// A random pool of [`random_enumeration`] as a plan, with a random
    /// half of its predicates proprietary, and the universal plan of a
    /// [`random_reformulation`] problem with its proprietary predicates.
    fn random_plans(seed: u64) -> Vec<(ConjunctiveQuery, HashSet<Predicate>)> {
        let mut rng = TestRng::new(seed);
        let (pool, _, _) = random_enumeration(seed);
        let proprietary =
            pool.predicates().into_iter().filter(|_| rng.next_u64().is_multiple_of(2));
        let mut plans = vec![(pool.clone(), proprietary.collect())];
        let (q, deds, proprietary) = random_reformulation(seed);
        let up = chase_to_resident_compiled(&q, &CompiledDeps::new(&deds), &Default::default());
        plans.extend(up.primary(&q.name).map(|primary| (primary, proprietary)));
        plans
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Criterion 1's gate changes no pool: the pool is the proprietary
        /// filter of the pruned plan, and with no proprietary `desc` atom
        /// that is the proprietary filter of the plan itself.
        #[test]
        fn the_criterion_1_gate_changes_no_pool(seed in 0u64..u64::MAX) {
            for (plan, proprietary) in random_plans(seed) {
                let keep = |body: Vec<Atom>| -> Vec<Atom> {
                    body.into_iter().filter(|a| proprietary.contains(&a.predicate)).collect()
                };
                let (pruned, filtered) = (keep(prune_parallel_desc(&plan).body), keep(plan.body.clone()));
                let pool = candidate_pool(&plan, proprietary_atoms(&plan.body, &proprietary), &proprietary);
                prop_assert_eq!(&pool, &pruned, "{}", plan);
                if !filtered.iter().any(|a| matches!(a.navigation(), Some((NavBase::Desc, _)))) {
                    prop_assert_eq!(&filtered, &pruned, "{}", plan);
                }
            }
        }

        /// What the checks no longer test. With the safety prefilter active,
        /// every candidate the walk hands to a check binds the head; and
        /// every candidate of a chased plan's pool lies in the plan's first
        /// branch, under its head, so the identity maps it there.
        #[test]
        fn a_checked_candidate_is_safe_and_in_the_first_branch(seed in 0u64..u64::MAX) {
            let (pool, deds, costs) = random_enumeration(seed);
            let enumeration = Enumeration::new(&pool, &deds, costs);
            for exhaustive in [false, true] {
                let (levels, _) = enumeration.walk(exhaustive, random_fate(seed));
                for set in levels.iter().flat_map(|(_, sets)| sets) {
                    let safe = rendered(&pool, set).is_safe();
                    prop_assert!(safe || !enumeration.safety.active, "{} {:?}", pool, set);
                }
            }
            let (q, deds, proprietary) = random_reformulation(seed);
            let up = chase_to_resident_compiled(&q, &CompiledDeps::new(&deds), &Default::default());
            let Some(primary) = up.primary(&q.name) else { return };
            let atoms = proprietary_atoms(&primary.body, &proprietary);
            let pool = ConjunctiveQuery { body: candidate_pool(&primary, atoms, &proprietary), ..primary };
            let enumeration = Enumeration::new(&pool, &deds, pool.body.iter().map(atom_cost).collect());
            prop_assert!(enumeration.safety.active);
            let first = &up.branches()[0];
            for exhaustive in [false, true] {
                let (levels, _) = enumeration.walk(exhaustive, random_fate(seed));
                for set in levels.iter().flat_map(|(_, sets)| sets) {
                    let candidate = rendered(&pool, set);
                    prop_assert!(candidate.is_safe(), "{} {:?}", pool, set);
                    prop_assert_eq!(&candidate.head[..], first.head());
                    prop_assert!(candidate.body.iter().all(|a| first.instance().contains_atom(a)));
                }
            }
        }
    }
}
