//! The top-level Chase & Backchase driver.
//!
//! [`ChaseBackchase`] bundles the dependency set (compiled schema
//! correspondence + XICs + TIX), the proprietary-schema predicate set, a
//! plug-in cost estimator and the chase/backchase options, and exposes the
//! reformulation entry point used by the MARS facade and the experiments,
//! [`ChaseBackchase::reformulate`] — full C&B: chase to the universal plan,
//! compute the initial reformulation (Section 2.3; the time to it is
//! [`CbStatistics::time_to_initial`]), run the backchase, return all minimal
//! reformulations and the cost-optimal one.

use crate::backchase::{
    backchase, initial_reformulation, BackchaseOptions, BackchaseOutcome, Degradation,
};
use crate::chase::{chase_to_resident_compiled, ChaseOptions, ChaseStats};
use crate::compiled::CompiledDeps;
use mars_cost::{CostEstimator, WeightedAtomEstimator};
use mars_cq::{ConjunctiveQuery, Ded, Predicate};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A per-request budget for one reformulation: a wall-clock deadline plus
/// candidate/atom ceilings, all optional. The budget extends the standing
/// engine options ([`ChaseOptions::deadline`],
/// [`BackchaseOptions::max_candidates`]) without replacing them: applying it
/// ([`ReformulationBudget::apply`]) tightens a copy of the engine's
/// [`CbOptions`] for this one request.
///
/// Budgets degrade, they do not error: a run that exhausts its budget
/// returns the best reformulation found so far tagged with a
/// [`Degradation`] reason (see [`CbStatistics::degradation`]), and the
/// universal plan remains the sound floor when nothing was found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReformulationBudget {
    /// Wall-clock budget for the whole chase → backchase pipeline. Converted
    /// to one absolute [`Instant`] when applied ([`ChaseOptions::deadline`]),
    /// the clock the initial chase, every back-chase (resumed ones included)
    /// and the BFS level loop all read.
    pub deadline: Option<Duration>,
    /// Ceiling on backchase candidates inspected (`None` keeps the engine's
    /// [`BackchaseOptions::max_candidates`]).
    pub max_candidates: Option<usize>,
    /// Ceiling on atoms per chase branch (`None` keeps the engine's
    /// [`ChaseOptions::max_atoms`]).
    pub max_atoms: Option<usize>,
}

impl ReformulationBudget {
    /// The unbounded budget (keeps every engine default).
    pub fn unbounded() -> ReformulationBudget {
        ReformulationBudget::default()
    }

    /// Builder: bound the request by a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> ReformulationBudget {
        self.deadline = Some(d);
        self
    }

    /// Builder: bound the number of backchase candidates inspected.
    pub fn with_max_candidates(mut self, n: usize) -> ReformulationBudget {
        self.max_candidates = Some(n);
        self
    }

    /// Builder: bound the atoms per chase branch.
    pub fn with_max_atoms(mut self, n: usize) -> ReformulationBudget {
        self.max_atoms = Some(n);
        self
    }

    /// Does this budget constrain anything at all?
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.max_candidates.is_none() && self.max_atoms.is_none()
    }

    /// Tighten a copy of `base` with this budget. The relative deadline is
    /// resolved to one absolute [`Instant`] *now*, so resumed chases cannot
    /// restart the clock (see [`ChaseOptions::deadline`]).
    pub fn apply(&self, base: &CbOptions) -> CbOptions {
        let mut opts = base.clone();
        if let Some(d) = self.deadline {
            // `None` on overflow = a deadline too far away to ever trip.
            opts.chase.deadline = Instant::now().checked_add(d).or(opts.chase.deadline);
        }
        if let Some(n) = self.max_candidates {
            opts.backchase.max_candidates = n;
        }
        if let Some(n) = self.max_atoms {
            opts.chase.max_atoms = n;
        }
        opts
    }
}

/// Options for the full C&B run.
#[derive(Clone, Debug, Default)]
pub struct CbOptions {
    /// Chase options: the chase to the universal plan and every back-chase
    /// of the backchase run under these.
    pub chase: ChaseOptions,
    /// Backchase options (minimization).
    pub backchase: BackchaseOptions,
}

impl CbOptions {
    /// Options enumerating all minimal reformulations.
    pub fn exhaustive() -> CbOptions {
        CbOptions { chase: ChaseOptions::default(), backchase: BackchaseOptions::exhaustive() }
    }
}

/// Timing and size statistics of a C&B run.
#[derive(Clone, Debug, Default)]
pub struct CbStatistics {
    /// Statistics of the chase phase.
    pub chase: ChaseStats,
    /// Time to build the universal plan.
    pub time_to_universal_plan: Duration,
    /// Time to the initial reformulation (chase + restriction to the
    /// proprietary schema) — the quantity plotted in Figure 5.
    pub time_to_initial: Duration,
    /// Additional time spent in the backchase ("delta to best minimal
    /// reformulation" in Figure 5).
    pub backchase_duration: Duration,
    /// End-to-end duration.
    pub total: Duration,
    /// Number of atoms in the (primary) universal plan.
    pub universal_plan_atoms: usize,
    /// Candidate subqueries inspected by the backchase.
    pub candidates_inspected: usize,
    /// Equivalence (chase) checks performed by the backchase.
    pub equivalence_checks: usize,
    /// Back-chases resumed from a memoized subset chase.
    pub chase_cache_hits: usize,
    /// Always 0: nothing produces it any more (kept for `marsbench`).
    pub containment_success_transfers: usize,
    /// Always 0: nothing produces it any more (kept for `marsbench`).
    pub containment_delta_searches: usize,
    /// Candidates whose superset cone was cut after failing to map into a
    /// universal-plan branch (see
    /// [`BackchaseOutcome::containment_dead_cone_skips`]).
    pub containment_dead_cone_skips: usize,
    /// Backchase wall-clock spent computing candidate costs.
    pub backchase_cost_phase: Duration,
    /// Backchase wall-clock spent in back-chases (scratch or resumed).
    pub backchase_chase_phase: Duration,
    /// Backchase wall-clock spent in containment checks.
    pub backchase_containment_phase: Duration,
    /// `true` when the backchase hit its candidate budget or deadline before
    /// exhausting the search space (see [`BackchaseOutcome::truncated`]): the
    /// minimal reformulation set is possibly incomplete.
    pub backchase_truncated: bool,
    /// Why this run degraded, when it did: the most severe budget hit across
    /// the universal-plan chase and the backchase
    /// ([`BackchaseOutcome::degradation`] merged with the chase's own stop
    /// reason). `None` exactly when nothing was cut anywhere — the answer is
    /// the same one an unbounded run would produce.
    pub degradation: Option<Degradation>,
}

/// The result of reformulating one query.
#[derive(Clone, Debug)]
pub struct ReformulationResult {
    /// The universal plan (primary branch).
    pub universal_plan: ConjunctiveQuery,
    /// The initial reformulation (largest proprietary subquery), if non-empty.
    pub initial: Option<ConjunctiveQuery>,
    /// All minimal reformulations found (with estimated costs).
    pub minimal: Vec<(ConjunctiveQuery, f64)>,
    /// The cost-optimal reformulation.
    pub best: Option<(ConjunctiveQuery, f64)>,
    /// Statistics.
    pub stats: CbStatistics,
}

impl ReformulationResult {
    /// The best reformulation, falling back to the initial one.
    pub fn best_or_initial(&self) -> Option<&ConjunctiveQuery> {
        self.best.as_ref().map(|(q, _)| q).or(self.initial.as_ref())
    }

    /// Did MARS find any reformulation at all?
    pub fn has_reformulation(&self) -> bool {
        self.best.is_some() || self.initial.as_ref().map(|q| !q.body.is_empty()).unwrap_or(false)
    }
}

/// The C&B engine.
///
/// Thread-safe and cheap to clone: the dependency set is compiled exactly
/// once at construction ([`CompiledDeps`]) and shared via `Arc` across every
/// chase, back-chase, candidate branch and query block — no entry point
/// recompiles it.
#[derive(Clone)]
pub struct ChaseBackchase {
    /// Dependencies (compiled schema correspondence, XICs, TIX, relational
    /// integrity constraints) in shared compiled form.
    compiled: Arc<CompiledDeps>,
    /// Predicates of the proprietary schema (the only ones allowed in
    /// reformulations).
    pub proprietary: HashSet<Predicate>,
    /// Plug-in cost estimator.
    pub estimator: Arc<dyn CostEstimator>,
    /// Options.
    pub options: CbOptions,
}

impl ChaseBackchase {
    /// An engine with the default (weighted-atom) cost estimator. Compiles
    /// the dependency set once, up front.
    pub fn new(deds: Vec<Ded>, proprietary: HashSet<Predicate>) -> ChaseBackchase {
        ChaseBackchase {
            compiled: Arc::new(CompiledDeps::new(&deds)),
            proprietary,
            estimator: Arc::new(WeightedAtomEstimator::default()),
            options: CbOptions::default(),
        }
    }

    /// The dependency set this engine reformulates under.
    pub fn deds(&self) -> &[Ded] {
        self.compiled.deds()
    }

    /// Builder: replace the cost estimator.
    pub fn with_estimator(mut self, estimator: Arc<dyn CostEstimator>) -> ChaseBackchase {
        self.estimator = estimator;
        self
    }

    /// Builder: replace the options.
    pub fn with_options(mut self, options: CbOptions) -> ChaseBackchase {
        self.options = options;
        self
    }

    /// Full chase & backchase reformulation of a query, under the engine's
    /// options tightened by `budget` for this one request (see
    /// [`ReformulationBudget::apply`]; the engine itself is untouched).
    pub fn reformulate(
        &self,
        query: &ConjunctiveQuery,
        budget: &ReformulationBudget,
    ) -> ReformulationResult {
        let start = Instant::now();
        let options = budget.apply(&self.options);
        let up = chase_to_resident_compiled(query, &self.compiled, &options.chase);
        let time_to_universal_plan = start.elapsed();

        // The one rendering of the chase result: the primary branch.
        let primary = up.primary(&query.name);
        let initial = primary
            .as_ref()
            .map(|p| initial_reformulation(p, &self.proprietary))
            .filter(|initial| !initial.body.is_empty());
        let time_to_initial = start.elapsed();

        let bc = match &primary {
            Some(primary) => backchase(
                query,
                primary,
                up.branches(),
                &self.proprietary,
                &self.compiled,
                self.estimator.as_ref(),
                &options.chase,
                &options.backchase,
            ),
            // No surviving branch (an unsatisfiable query): an empty outcome.
            None => BackchaseOutcome::default(),
        };
        let universal_plan = primary.unwrap_or_else(|| ConjunctiveQuery {
            name: format!("{}_unsat", query.name),
            head: query.head.clone(),
            body: Vec::new(),
            inequalities: query.inequalities.clone(),
        });

        let stats = CbStatistics {
            chase: up.stats().clone(),
            time_to_universal_plan,
            time_to_initial,
            backchase_duration: bc.duration,
            total: start.elapsed(),
            universal_plan_atoms: universal_plan.body.len(),
            candidates_inspected: bc.candidates_inspected,
            equivalence_checks: bc.equivalence_checks,
            chase_cache_hits: bc.chase_cache_hits,
            containment_success_transfers: 0,
            containment_delta_searches: 0,
            containment_dead_cone_skips: bc.containment_dead_cone_skips,
            backchase_cost_phase: bc.cost_phase,
            backchase_chase_phase: bc.chase_phase,
            backchase_containment_phase: bc.containment_phase,
            backchase_truncated: bc.truncated,
            degradation: Degradation::merge(bc.degradation, Degradation::of_chase(up.stats())),
        };
        ReformulationResult { universal_plan, initial, minimal: bc.minimal, best: bc.best, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::ded::view_dependencies;
    use mars_cq::{Atom, Term, Variable};

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    fn engine() -> (ChaseBackchase, ConjunctiveQuery) {
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
        let proprietary: HashSet<Predicate> = [Predicate::new("V")].into_iter().collect();
        (ChaseBackchase::new(vec![ind, c_v, b_v], proprietary), q)
    }

    #[test]
    fn end_to_end_reformulation() {
        let (cb, q) = engine();
        let result = cb.reformulate(&q, &ReformulationBudget::unbounded());
        assert!(result.has_reformulation());
        let best = result.best.as_ref().unwrap();
        assert_eq!(best.0.body.len(), 1);
        assert_eq!(best.0.body[0].predicate.name(), "V");
        assert_eq!(result.stats.universal_plan_atoms, 3);
        assert!(result.stats.time_to_initial <= result.stats.total);
        assert_eq!(result.minimal.len(), 1);
        assert_eq!(result.best_or_initial().unwrap().body[0].predicate.name(), "V");
    }

    #[test]
    fn queries_without_reformulation_are_reported() {
        let (cb, _) = engine();
        // A query over a predicate unrelated to the correspondence.
        let q = ConjunctiveQuery::new("Qother")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("C", vec![t("x")])]);
        let result = cb.reformulate(&q, &ReformulationBudget::unbounded());
        assert!(!result.has_reformulation());
        assert!(result.best.is_none());
        assert!(result.initial.is_none());
    }

    #[test]
    fn builder_methods() {
        let (cb, q) = engine();
        let cb = cb
            .with_estimator(Arc::new(WeightedAtomEstimator::default()))
            .with_options(CbOptions::exhaustive());
        assert!(cb.options.backchase.exhaustive);
        let result = cb.reformulate(&q, &ReformulationBudget::unbounded());
        assert!(result.has_reformulation());
    }

    #[test]
    fn unsatisfiable_query_produces_empty_plan() {
        let denial = Ded::denial("no_a", vec![Atom::named("A", vec![t("x"), t("y")])]);
        let cb = ChaseBackchase::new(vec![denial], HashSet::new());
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let result = cb.reformulate(&q, &ReformulationBudget::unbounded());
        assert!(result.universal_plan.body.is_empty());
        assert!(!result.has_reformulation());
    }
}
