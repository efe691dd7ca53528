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
//! The enumeration is a **level-synchronous** BFS over candidate atom sets
//! ([`AtomSet`] — growable bitsets, so pools wider than 128 atoms enumerate
//! exhaustively; the old `u128` ceiling and its silent greedy fallback are
//! gone). Each level holds every candidate of one subquery size. Its costs
//! are computed in one pass, and then the level is judged in three passes:
//!
//! 1. in position order, cost pruning and the safety prefilter, and for
//!    each candidate that reaches the equivalence check its rendering as a
//!    subquery and its memo seed;
//! 2. the equivalence checks, on every core the process may use
//!    (`std::thread::available_parallelism`, the calling thread one of the
//!    workers, helpers under `std::thread::scope`);
//! 3. in position order again, the verdicts: the funnel counters, `minimal`
//!    and `best`, the memo of the next level, and growth by one atom.
//!
//! Growth is bitset work. The [`ReachabilityGraph`] compiles each pool
//! atom's required and produced variables into word bitsets once, so the
//! atoms a candidate enables are found with word operations
//! ([`ReachabilityGraph::enabled_into`]). Each child is probed in place (the
//! atom inserted into the candidate, looked up, removed) against an
//! Fx-hashed set of the next level's candidates, and only a new child is
//! cloned; that set starts empty at every level, because a (k+1)-subset is
//! only ever grown at level k. The frontier keeps first-insertion order, so
//! the candidate order — and with it `minimal`, `best` ties and the
//! per-level memo budget — does not depend on the set. Navigation legality
//! (criteria 2–3) is never checked per candidate: every candidate is an
//! entry point grown by atoms it enables, so it is constructible by
//! construction. The legality fixpoint, `reach::reference::is_legal_subset`
//! (test code), is the oracle the tests hold that growth against.
//!
//! # Parallel checks, identical results
//!
//! The checks of one level are independent. Which candidates are checked
//! depends only on the level's frozen best cost (see below) and the
//! previous level's memo; a check reads only the universal plan, the
//! compiled dependencies and its own seed from that memo; and nothing it
//! decides feeds another check of its level. So a worker takes the next
//! *group* of checks — those resuming from one seed, in position order; a
//! check from scratch is a group of its own — and runs it, and the third
//! pass reads the verdicts in position order. `minimal`, the costs, `best`
//! and its ties, every funnel counter and every back-chase are what one
//! thread computes, on any number of workers
//! (`parallel_checks_find_what_one_worker_finds`). With one core the same
//! code runs the checks on the caller and spawns nothing; a level with one
//! group spawns nothing either. A helper's panic is raised again on the
//! caller with its payload.
//!
//! The shared reads are safe because a relation is `Sync`: its lazily
//! built column indexes sit behind a lock ([`crate::Relation::index`]).
//! Index builds must also not depend on the schedule
//! ([`CbStatistics::index_builds`] counts each thread's builds). The
//! universal plan's relations are only read, so an index two workers race
//! to build is kept and counted once. A resumed back-chase, though, shares
//! the relations it never wrote with the seed it resumed from and with its
//! siblings; kept as seeds, two of them would be read by two workers, and
//! which indexes a later copy-on-write carried over would depend on which
//! worker filled a shared cache first. So a seed **owns its relations**:
//! the check that keeps it copies every relation it still shares
//! (`Arc::make_mut` on each). A seed is then read by its own group, on one
//! worker, in order, and the count repeats exactly.
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
//! Growth skips a child `mask ∪ {g}` whenever `g` implies, or is implied
//! by, an atom of `mask` — one word test per probe, counted as
//! [`CbStatistics::implied_skips`]. This is sound. A candidate `S` holding
//! `b` and an `a` it implies is equivalent to `S ∖ {a}`: the chase of
//! `S ∖ {a}` satisfies the TGD on `b`, so the identity extended by the map
//! sends `S` into it, and the converse containment is trivial. `S ∖ {a}`
//! keeps the head (a head variable of `a` is shared, so `b` holds it), is
//! constructible, and costs less (`atom_cost` is positive), so it, or a
//! subset of it, was inspected a level earlier and `S` is not minimal. A
//! subset of a candidate without an implied pair has none either, so every
//! other candidate is grown from the same parents in the same order: in a
//! run no budget cuts, `minimal`, its costs, `best` and its ties are what
//! the enumeration without the criterion finds; only the funnel counters,
//! which candidates the per-level memo keeps, and the candidates' ordinals
//! move. Why the constructibility condition and the transitive closure
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
//! the best of the *smaller* sizes. It also leaves no verdict of a level
//! that another check of the level depends on, so the checks can run in
//! parallel (see above).
//!
//! Whether a candidate is equivalent to the original query is decided by one
//! function, `Equivalence::check`, for the enumeration and for the core path
//! alike: safety, then `original ⊆ candidate` (the candidate maps into
//! every universal-plan branch), then the "back" chase of the candidate —
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
//!   at fixpoint, so only consequences of the new atom fire. A seed owns
//!   its relations (see above), so it shares none with its siblings.
//!   Because the BFS visits subsets level by level, only the previous and
//!   current size levels are retained.
//! * **Folded subset costs**: the cost model is additive (`atom_cost`, a
//!   fixed weight per atom), so the pool's per-atom costs are computed once
//!   and a candidate's cost is a fold over its bitset, one pass per level.
//!
//! The backchase's work — the funnel counters, the phase times, whether and
//! why a budget cut it — is written into the [`CbStatistics`] it is handed;
//! the [`BackchaseOutcome`] it returns holds only what it found.

use crate::cb::CbStatistics;
use crate::chase::{
    add_dependency_work, chase_resident_with_atoms_compiled, chase_to_resident_compiled,
    ChaseOptions, ChaseStats, ChaseStop, DependencyWork, ResidentBranch,
};
use crate::compiled::CompiledDeps;
use crate::evaluate::{maps_into, ContainmentProgram};
use crate::implied::ImpliedAtoms;
use crate::instance::thread_index_build_count;
use crate::reach::{prune_parallel_desc, ReachabilityGraph};
use mars_cq::{
    Atom, AtomSet, ConjunctiveQuery, FxHashMap, FxHashSet, NavBase, Predicate, Variable,
};
use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
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
    /// mid-search (the chase to the universal plan, a back-chase, or the BFS
    /// level loop).
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
        if stats.completed {
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
    /// Upper bound on the number of candidate subqueries inspected. When the
    /// bound stops the enumeration, [`CbStatistics::backchase_truncated`] is
    /// set.
    pub max_candidates: usize,
    /// Upper bound on the number of memoized back-chase results retained per
    /// BFS size level (memory guard for very wide pools).
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

/// The *initial reformulation*: the largest subquery of the universal plan
/// induced by proprietary-schema atoms. If any reformulation exists, this is
/// one (not necessarily minimal), and every minimal reformulation is a
/// subquery of it.
pub fn initial_reformulation(
    universal_plan: &ConjunctiveQuery,
    proprietary: &HashSet<Predicate>,
) -> ConjunctiveQuery {
    let indices: Vec<usize> = universal_plan
        .body
        .iter()
        .enumerate()
        .filter(|(_, a)| proprietary.contains(&a.predicate))
        .map(|(i, _)| i)
        .collect();
    let mut q = universal_plan.subquery(&indices);
    q.name = format!("{}_initial", universal_plan.name);
    q
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
    /// map into. It is handed back as a memo seed, owning its relations,
    /// when the check was asked for one and the back-chase completed with a
    /// surviving branch.
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
    /// Is `candidate` (a subquery of the universal plan, same head)
    /// equivalent to the original query under the dependencies?
    ///
    /// * `original ⊆ candidate` holds iff `candidate` maps into every branch
    ///   of the universal plan preserving the head — for subqueries of a
    ///   branch this is the identity mapping, but every branch is checked so
    ///   that multi-branch (disjunctive) plans are handled.
    /// * `candidate ⊆ original` holds iff chasing `candidate` ("back")
    ///   completes with at least one surviving branch and the original maps
    ///   into every one preserving the head. With a `seed` — the resident
    ///   chase of the candidate minus one atom, and that atom — the chase
    ///   resumes from it instead of starting over. With `memoize`, a
    ///   back-chase that does not confirm is kept as a seed (see
    ///   [`Verdict::NotContained`]).
    fn check(
        &self,
        candidate: &ConjunctiveQuery,
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
        if !candidate.is_safe() {
            return check;
        }
        let containment_start = Instant::now();
        let maps_into_plan = self.plan.iter().all(|b| {
            let (head, inst) = (b.head(), b.instance());
            (candidate.head == head && candidate.body.iter().all(|a| inst.contains_atom(a)))
                || maps_into(candidate, inst, head)
        });
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
            None => chase_to_resident_compiled(candidate, self.deds, &self.chase),
        };
        check.chase_time = chase_start.elapsed();
        let (branches, chase) = back.into_parts();
        check.degradation = Degradation::of_chase(&chase);
        let confirm_start = Instant::now();
        let confirmed = chase.completed
            && !branches.is_empty()
            && branches.iter().all(|b| self.original.maps_into(b.instance(), b.head()));
        check.containment_time += confirm_start.elapsed();
        check.verdict = if confirmed {
            Verdict::Equivalent
        } else if memoize && chase.completed && !branches.is_empty() {
            // A seed owns its relations (see the module docs): it shares
            // none with the seed it resumed from, nor with a sibling.
            let mut branches = branches;
            branches.iter_mut().for_each(ResidentBranch::own_relations);
            Verdict::NotContained(Some(branches))
        } else {
            Verdict::NotContained(None)
        };
        check.chase = chase;
        check
    }

    /// Run a level's checks on up to `workers` threads, the caller one of
    /// them, and return them in job order with their per-dependency work
    /// summed ([`ChaseStats::dependencies`], taken out of each check) and
    /// the index builds of the helper threads. Each worker takes the next
    /// group of jobs and runs it in order, so the checks resuming from one
    /// seed run in order on one thread. A helper's panic is raised again on
    /// the caller, with its payload.
    fn check_all(
        &self,
        jobs: &[Job<'_>],
        groups: &[Vec<usize>],
        workers: usize,
    ) -> (Vec<EquivalenceCheck>, Vec<DependencyWork>, usize) {
        // The next group to take. `Relaxed` suffices: it publishes no data
        // (the jobs are shared read-only, the checks come back by `join`).
        let next = AtomicUsize::new(0);
        let work = || {
            let builds = thread_index_build_count();
            let (mut done, mut dependencies) = (Vec::new(), Vec::new());
            while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
                for &j in group {
                    let job = &jobs[j];
                    let mut check = self.check(&job.candidate, job.seed, job.memoize);
                    // Summed as it finishes, on the thread that counted it:
                    // a level holds one tally per worker, not one per check.
                    let counted = std::mem::take(&mut check.chase.dependencies);
                    add_dependency_work(&mut dependencies, &counted);
                    done.push((j, check));
                }
            }
            (done, dependencies, thread_index_build_count() - builds)
        };
        let (mut done, dependencies, helper_builds) = std::thread::scope(|scope| {
            let helpers: Vec<_> =
                (1..workers.min(groups.len())).map(|_| scope.spawn(work)).collect();
            let (mut done, mut dependencies, _) = work();
            let mut builds = 0;
            for helper in helpers {
                match helper.join() {
                    Ok((more, more_dependencies, more_builds)) => {
                        done.extend(more);
                        add_dependency_work(&mut dependencies, &more_dependencies);
                        builds += more_builds;
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            (done, dependencies, builds)
        });
        done.sort_unstable_by_key(|&(j, _)| j);
        (done.into_iter().map(|(_, check)| check).collect(), dependencies, helper_builds)
    }
}

/// One equivalence check of a level, as the level's first pass prepared it.
struct Job<'a> {
    candidate: ConjunctiveQuery,
    /// The memoized chase the check resumes from, and the atom it adds.
    seed: Option<(&'a [ResidentBranch], &'a Atom)>,
    /// Keep the back-chase as a seed if it does not confirm (the per-level
    /// memo budget).
    memoize: bool,
}

/// What a level's first pass decided for one candidate.
enum Step {
    /// It costs more than the best reformulation of a smaller size: not
    /// checked, not grown.
    Pruned,
    /// It fails the safety prefilter: grown without a check.
    Grow,
    /// It has a [`Job`].
    Check,
}

/// The number of threads a backchase level runs its checks on: every core
/// the process may use, read once per process.
fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
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
        SafetyPrefilter { active, full, per_atom }
    }

    fn passes(&self, mask: &AtomSet) -> bool {
        !self.active || mask.iter().fold(0u64, |acc, i| acc | self.per_atom[i]) == self.full
    }
}

/// Run the backchase.
///
/// `original` is the query being reformulated; `plan` holds the resident
/// branches its chase produced (at least one) and `primary` is the first of
/// them rendered as a query
/// ([`ResidentChase::primary`](crate::ResidentChase::primary)) — the
/// universal plan whose subqueries are enumerated. `proprietary` is the set
/// of predicates that may appear in a reformulation, `deds` the dependency
/// set in its shared compiled form ([`CompiledDeps`] — built once per
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
    plan: &[ResidentBranch],
    proprietary: &HashSet<Predicate>,
    deds: &CompiledDeps,
    chase: &ChaseOptions,
    options: &BackchaseOptions,
    stats: &mut CbStatistics,
) -> BackchaseOutcome {
    let workers = available_workers();
    backchase_on(workers, original, primary, plan, proprietary, deds, chase, options, stats)
}

/// [`backchase`] with each level's checks on `workers` threads: the seam the
/// tests fix the worker count with, to hold a parallel run against a serial
/// one.
#[allow(clippy::too_many_arguments)]
fn backchase_on(
    workers: usize,
    original: &ConjunctiveQuery,
    primary: &ConjunctiveQuery,
    plan: &[ResidentBranch],
    proprietary: &HashSet<Predicate>,
    deds: &CompiledDeps,
    chase: &ChaseOptions,
    options: &BackchaseOptions,
    stats: &mut CbStatistics,
) -> BackchaseOutcome {
    let start = Instant::now();
    let builds = thread_index_build_count();
    let outcome =
        search(workers, original, primary, plan, proprietary, deds, chase, options, stats);
    stats.index_builds += thread_index_build_count() - builds;
    stats.backchase_duration += start.elapsed();
    outcome
}

/// The search [`backchase_on`] times and counts index builds around.
#[allow(clippy::too_many_arguments)]
fn search(
    workers: usize,
    original: &ConjunctiveQuery,
    primary: &ConjunctiveQuery,
    plan: &[ResidentBranch],
    proprietary: &HashSet<Predicate>,
    deds: &CompiledDeps,
    chase: &ChaseOptions,
    options: &BackchaseOptions,
    stats: &mut CbStatistics,
) -> BackchaseOutcome {
    let mut outcome = BackchaseOutcome::default();

    // Pool of candidate atoms: proprietary atoms of the plan, minus the
    // parallel `desc` atoms (pruning criterion 1).
    let pool: Vec<_> = prune_parallel_desc(primary)
        .body
        .into_iter()
        .filter(|a| proprietary.contains(&a.predicate))
        .collect();
    if pool.is_empty() {
        return outcome;
    }
    let pool_query = ConjunctiveQuery {
        name: format!("{}_pool", primary.name),
        head: primary.head.clone(),
        body: pool.clone(),
        inequalities: primary.inequalities.clone(),
    };

    // Back-chases invent variables strictly above every pool variable index,
    // so a cached chase can later absorb any further pool atom without an
    // invented variable colliding with a pool variable of the same base name.
    let max_pool_index = pool_query
        .variables()
        .iter()
        .map(|v| v.index)
        .chain(original.variables().iter().map(|v| v.index))
        .max()
        .unwrap_or(0);
    // The spec-level Σ (see the module docs) when neither the original nor
    // the pool navigates: every back-chase, memo seed and criterion 4 then
    // run under it.
    let navigates = |atoms: &[Atom]| atoms.iter().any(|a| a.navigation().is_some());
    let sigma = match deds.spec_level() {
        Some(spec) if !navigates(&original.body) && !navigates(&pool) => spec,
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

    let graph = ReachabilityGraph::new(&pool_query);
    let implied = ImpliedAtoms::new(&pool_query, sigma.single_premise_tgds());
    let atom_costs: Vec<f64> = pool.iter().map(atom_cost).collect();
    let safety = SafetyPrefilter::new(&pool_query, &pool);

    // Level-synchronous breadth-first enumeration by subset size. Seeds: the
    // entry points of the navigation (pruning criterion 3).
    let mut frontier: Vec<AtomSet> = graph.roots.iter().map(|&s| AtomSet::singleton(s)).collect();
    // The next level's candidates, for deduplication: a (k+1)-subset is only
    // ever grown at level k, so the set starts empty at every level.
    let mut visited: FxHashSet<AtomSet> = FxHashSet::default();
    let (mut produced, mut enabled) = (Vec::new(), Vec::new());
    let mut found: Vec<AtomSet> = Vec::new();
    // Best reformulation cost as of the end of the previous level. Frozen
    // for the whole level (see the module docs): a reformulation discovered
    // mid-level cannot cost-prune its own level, only the next one. Sound
    // (monotone cost model) and bounded: at most one level of same-size
    // candidates is evaluated without the tighter bound.
    let mut best_cost = f64::INFINITY;
    // Memoized back-chases of the previous BFS size level.
    let mut prev_level: FxHashMap<AtomSet, Vec<ResidentBranch>> = FxHashMap::default();
    // Candidates inspected so far: the candidate budget, and (continuing
    // across levels) the candidates' names.
    let mut inspected = 0usize;

    while !frontier.is_empty() {
        // Anytime deadline, checked level-synchronously: an expired deadline
        // stops the enumeration *between* levels, keeping everything found
        // so far — never mid-level, so an undegraded run is byte-identical
        // to an unbounded one.
        if chase.deadline.is_some_and(|d| Instant::now() >= d) {
            stats.truncate(Degradation::DeadlineExceeded);
            break;
        }
        // Minimality pruning: supersets of a found reformulation are not
        // minimal and are dropped without counting as inspected. (Within a
        // level no candidate can be a strict superset of another of the same
        // size, so found reformulations of previous levels suffice.)
        let mut level: Vec<AtomSet> = std::mem::take(&mut frontier)
            .into_iter()
            .filter(|m| !found.iter().any(|f| f.is_subset_of(m)))
            .collect();
        let remaining = options.max_candidates.saturating_sub(inspected);
        let truncated = level.len() > remaining;
        if truncated {
            stats.truncate(Degradation::CandidateBudget);
            level.truncate(remaining);
        }
        if level.is_empty() {
            break;
        }

        // The level's costs, in one pass: the bound they are pruned against
        // is frozen for the level.
        let cost_start = Instant::now();
        let costs: Vec<f64> =
            level.iter().map(|mask| mask.iter().map(|i| atom_costs[i]).sum()).collect();
        stats.backchase_cost_phase += cost_start.elapsed();

        // First pass, in position order: cost pruning, the safety
        // prefilter, and for each candidate to check its rendering and its
        // memo seed. Checks resuming from one seed form one group.
        let mut steps = Vec::with_capacity(level.len());
        let mut jobs: Vec<Job<'_>> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: FxHashMap<*const ResidentBranch, usize> = FxHashMap::default();
        for (position, (mask, &cost)) in level.iter_mut().zip(&costs).enumerate() {
            // Cost-based pruning: a subquery costing more than the best found
            // so far cannot lead to the optimum (monotone cost model), so
            // neither it nor its supersets are considered further.
            if !options.exhaustive && cost > best_cost {
                steps.push(Step::Pruned);
                continue;
            }
            // The safety prefilter: a subset failing it is not checked, only
            // grown. (Navigation legality, criteria 2–3, holds by
            // construction: every candidate is a root grown by enabled atoms.)
            if !safety.passes(mask) {
                steps.push(Step::Grow);
                continue;
            }
            let subset: Vec<usize> = mask.iter().collect();
            let mut candidate = pool_query.subquery(&subset);
            candidate.name = format!("{}_candidate{}", original.name, inspected + position + 1);
            // Resume from the memoized chase of the candidate minus one
            // atom, probed by taking each atom out and putting it back.
            let mut seed = None;
            for &i in &subset {
                mask.remove(i);
                let memo = prev_level.get(mask);
                mask.insert(i);
                if let Some(branches) = memo {
                    seed = Some((branches.as_slice(), &pool[i]));
                    break;
                }
            }
            let group = match seed {
                Some((branches, _)) => *group_of.entry(branches.as_ptr()).or_insert(groups.len()),
                None => groups.len(),
            };
            if group == groups.len() {
                groups.push(Vec::new());
            }
            groups[group].push(jobs.len());
            steps.push(Step::Check);
            jobs.push(Job { candidate, seed, memoize: position < options.chase_cache_per_level });
        }

        inspected += level.len();

        // Second pass: the checks, on every worker. A check reads only the
        // universal plan, the dependencies and its own seed, so it decides
        // what it would decide alone (see the module docs).
        let (checks, dependencies, helper_builds) = equivalence.check_all(&jobs, &groups, workers);
        stats.index_builds += helper_builds;
        add_dependency_work(&mut stats.backchase_dependencies, &dependencies);
        let candidates: Vec<ConjunctiveQuery> = jobs.into_iter().map(|job| job.candidate).collect();
        let mut checked = candidates.into_iter().zip(checks);

        // Third pass, in position order: the verdicts, the memo and growth.
        visited.clear();
        let mut cur_level: FxHashMap<AtomSet, Vec<ResidentBranch>> = FxHashMap::default();
        let mut next_best = best_cost;
        for ((mut mask, cost), step) in level.into_iter().zip(costs).zip(steps) {
            match step {
                Step::Pruned => {
                    stats.pruned_by_cost += 1;
                    continue;
                }
                Step::Grow => {}
                Step::Check => {
                    let (candidate, check) = checked.next().expect("a check per job");
                    stats.absorb(&check);
                    stats.equivalence_checks +=
                        usize::from(!matches!(check.verdict, Verdict::Unsafe));
                    stats.chase_cache_hits += usize::from(check.resumed);
                    match check.verdict {
                        // Outside the plan, no superset can pass either
                        // (antichain dead cone): the cone ends here.
                        Verdict::OutsidePlan => {
                            stats.containment_dead_cone_skips += 1;
                            continue;
                        }
                        // No superset of a reformulation is minimal.
                        Verdict::Equivalent => {
                            found.push(mask);
                            if cost < next_best {
                                next_best = cost;
                                outcome.best = Some((candidate.clone(), cost));
                            }
                            outcome.minimal.push((candidate, cost));
                            continue;
                        }
                        // Not (yet) a reformulation: its supersets are chased
                        // next level, resuming from its chase if it was kept.
                        Verdict::NotContained(Some(seed)) => {
                            cur_level.insert(mask.clone(), seed);
                        }
                        Verdict::NotContained(None) | Verdict::Unsafe => {}
                    }
                }
            }
            // Grow the subset by one atom: each child is probed in place and
            // only a new one is cloned. A child holding an implied pair is
            // never minimal (criterion 4) and is not grown.
            graph.enabled_into(&mask, &mut produced, &mut enabled);
            for &g in &enabled {
                if implied.pairs_with(g, &mask) {
                    stats.implied_skips += 1;
                    continue;
                }
                mask.insert(g);
                if !visited.contains(&mask) {
                    visited.insert(mask.clone());
                    frontier.push(mask.clone());
                }
                mask.remove(g);
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
        let check = equivalence.check(candidate, None, false);
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

#[cfg(test)]
mod tests {
    use super::*;
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
        let compiled = CompiledDeps::new(deds);
        run_on(available_workers(), q, &compiled, proprietary, chase, options)
    }

    /// [`run_under`] with each level's checks on `workers` threads. The
    /// universal plan is chased afresh, so no index an earlier run built on
    /// its relations is reused.
    fn run_on(
        workers: usize,
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
        let outcome = backchase_on(
            workers,
            q,
            &primary,
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
        let up =
            chase_to_resident_compiled(&q, &CompiledDeps::new(&deds), &ChaseOptions::default());
        let initial = initial_reformulation(&up.primary(&q.name).unwrap(), &proprietary);
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
    /// happened and, with one worker, sum to at most the total backchase
    /// duration (with more they sum work time over threads, which may
    /// exceed it).
    #[test]
    fn phase_profile_is_recorded() {
        let (q, deds, proprietary) = redundant_setup();
        let (compiled, chase) = (CompiledDeps::new(&deds), ChaseOptions::default());
        let exhaustive = BackchaseOptions::exhaustive();
        let (_, stats) = run_on(1, &q, &compiled, &proprietary, &chase, &exhaustive);
        assert!(stats.backchase_chase_phase > Duration::default());
        assert!(stats.backchase_containment_phase > Duration::default());
        assert!(
            stats.backchase_cost_phase
                + stats.backchase_chase_phase
                + stats.backchase_containment_phase
                <= stats.backchase_duration
        );
    }

    /// A level's checks on several threads decide what one thread decides:
    /// on the star at NC = 5 (exhaustive), Example 1.1 and the XMark suite,
    /// runs on 1, 2 and 3 workers, each twice, find the same minimal bodies
    /// in the same order and the same best, and record every counter of
    /// [`CbStatistics`] alike, index builds included.
    #[test]
    fn parallel_checks_find_what_one_worker_finds() {
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
            let serial = run_on(1, q, &compiled, &proprietary, &chase, &options);
            assert!(!serial.0.minimal.is_empty(), "{}", query.name);
            let serial = strip_durations(serial);
            for workers in [1, 2, 3, 1, 2, 3] {
                let run = run_on(workers, q, &compiled, &proprietary, &chase, &options);
                assert_eq!(strip_durations(run), serial, "{} on {workers} workers", query.name);
            }
        }
    }

    /// Regression for the removed 128-atom ceiling: a candidate pool wider
    /// than 128 atoms is enumerated exhaustively (no silent greedy fallback,
    /// no truncation flag). The pool is a 139-atom navigation chain, so the
    /// reachability pruning keeps the search space linear: the prefixes.
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
        assert_eq!(stats.candidates_inspected, steps + 1);
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
            let check = equivalence.check(&pool.subquery(&subset), None, false);
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

    /// A check that panics, on a helper thread or on the caller, panics the
    /// caller with its own payload. The last job resumes the chase of `Q(x)
    /// :- A(x,y)` with the unary `A(x)`, which breaks the relation's arity;
    /// the caller usually takes the first group, of sound checks, so the
    /// panic usually happens on a helper.
    #[test]
    fn a_panicking_check_panics_the_caller_with_its_payload() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let compiled = CompiledDeps::new(&[]);
        let up = chase_to_resident_compiled(&q, &compiled, &ChaseOptions::default());
        let equivalence = Equivalence {
            original: ContainmentProgram::new(&q),
            plan: up.branches(),
            deds: &compiled,
            chase: ChaseOptions::default(),
        };
        let unary = Atom::named("A", vec![t("x")]);
        let mut jobs: Vec<Job<'_>> =
            (0..8).map(|_| Job { candidate: q.clone(), seed: None, memoize: false }).collect();
        let seed = Some((up.branches(), &unary));
        jobs.push(Job { candidate: q.clone(), seed, memoize: false });
        let groups = [(0..8).collect(), vec![8]];
        for workers in [1, 2, 3] {
            let run = || equivalence.check_all(&jobs, &groups, workers);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .err()
                .expect("the checks panic");
            let message = payload.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.contains("every tuple of a relation has its arity"), "{message}");
        }
    }

    /// A back-chase kept as a memo seed owns its relations: it shares none
    /// with the seed it resumed from, though the resumed chase by itself
    /// shares every relation it did not write. On `grex_setup`'s pool,
    /// `{text(y,v)}` is checked from scratch and kept, and `{text(y,v),
    /// tag(y,"b")}` resumes from it.
    #[test]
    fn a_kept_seed_shares_no_relation_with_the_seed_it_resumed_from() {
        let (q, deds, proprietary) = grex_setup();
        let compiled = CompiledDeps::new(&deds);
        let up = chase_to_resident_compiled(&q, &compiled, &ChaseOptions::default());
        let primary = up.primary(&q.name).unwrap();
        let body = primary.body.iter().filter(|a| proprietary.contains(&a.predicate)).cloned();
        let pool = ConjunctiveQuery { body: body.collect(), ..primary };
        let above = pool.variables().iter().chain(&q.variables()).map(|v| v.index).max();
        let chase = ChaseOptions { min_fresh_index: above.unwrap_or(0) + 1, ..Default::default() };
        let equivalence = Equivalence {
            original: ContainmentProgram::new(&q),
            plan: up.branches(),
            deds: &compiled,
            chase: chase.clone(),
        };
        let at = |atom: &Atom| pool.body.iter().position(|a| a == atom).unwrap();
        let (text_y, tag_y) = (at(&text(t("y"), t("v"))), at(&tag(t("y"), "b")));
        let kept = |check: EquivalenceCheck| match check.verdict {
            Verdict::NotContained(Some(seed)) => seed,
            _ => panic!("the candidate is kept as a seed"),
        };
        let parent = kept(equivalence.check(&pool.subquery(&[text_y]), None, true));
        let seed = Some((parent.as_slice(), &pool.body[tag_y]));
        let child = kept(equivalence.check(&pool.subquery(&[text_y, tag_y]), seed, true));
        let shared = |branches: &[ResidentBranch]| {
            let (of, from) = (branches[0].instance(), parent[0].instance());
            let predicates: HashSet<Predicate> = of.atoms().iter().map(|a| a.predicate).collect();
            predicates.into_iter().any(|p| match (of.relation_data(p), from.relation_data(p)) {
                (Some(a), Some(b)) => std::ptr::eq(a, b),
                _ => false,
            })
        };
        let resumed = chase_resident_with_atoms_compiled(
            &parent,
            std::slice::from_ref(&pool.body[tag_y]),
            &compiled,
            &chase,
        );
        assert!(shared(resumed.branches()), "a resumed chase shares what it did not write");
        assert!(!shared(&child), "a kept seed owns every relation");
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
}
