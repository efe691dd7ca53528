//! # mars-chase — the scalable Chase & Backchase engine
//!
//! This crate is the reproduction of Section 3 of the MARS paper: a new,
//! set-oriented implementation of the C&B algorithm that scales to the large
//! relational queries (hundreds of joins) and numerous constraints (hundreds
//! of DEDs) produced by the XML-to-relational reduction.
//!
//! The key idea (Section 3.1) is that chasing a query `Q` with a constraint
//! `c` can be viewed as *evaluating a relational query obtained from `c` over
//! a small database obtained from `Q`* — the symbolic instance `Inst(Q)` whose
//! constants are `Q`'s variables and whose tuples are `Q`'s body atoms.
//! Constraint premises are compiled once into join plans evaluated with hash
//! joins and selection pushdown; the extension check against the conclusion is
//! a semijoin.
//!
//! On top of the chase the crate implements:
//!
//! * **shared compilation** ([`CompiledDeps`]): the dependency set is
//!   compiled once per engine (closure detection, EGD-priority ordering,
//!   per-DED slot-compiled join programs for premise and conclusions) and
//!   shared via `Arc` across every chase, back-chase, branch and query block,
//! * **one premise-join kernel** ([`evaluate`]): a dirty dependency re-joins
//!   its full premise over flat term rows, each step a filtered scan of a
//!   relation of at most [`SCAN_THRESHOLD`] tuples or a probe of the
//!   persistent column index of a larger one, with the blocked test of
//!   pure-equality conclusions pushed into the join
//!   ([`CompiledDed::unblocked_bindings`]) — and the same kernel, entered
//!   with a query's head variables bound, is the containment-mapping test
//!   ([`maps_into`]; [`ContainmentProgram`] when one query is mapped into
//!   many targets): the engine has one conjunctive-query
//!   evaluator, and `mars-oracle`'s backtracking search, a dev-dependency
//!   only, is the oracle it is tested against,
//! * the **chase shortcut** of Section 3.2 (the effect of the TIX constraints
//!   `(refl)`, `(base)`, `(trans)` is computed directly as a transitive
//!   closure instead of step-by-step),
//! * the **backchase** with level-synchronous bottom-up subquery enumeration
//!   over growable [`mars_cq::AtomSet`] bitsets (no pool-width ceiling): a
//!   walk that builds only the candidates a level checks, with cost-based
//!   pruning and the three XML-specific pruning criteria implemented on the
//!   atom reachability graph — or, for a query under no dependencies,
//!   minimization to its core,
//! * the top-level [`ChaseBackchase`] driver returning the initial
//!   reformulation, all minimal reformulations and the cost-optimal one.
//!
//! The engine is `Send + Sync`, and a resident service reformulates
//! different requests on different threads. One reformulation runs on the
//! calling thread and spawns none: the chase to the universal plan, the
//! walk that builds the candidates, and each level's equivalence checks in
//! position order (see [`mod@backchase`]).
//!
//! The crate depends on `mars-cq` alone. What is XML-specific about it — the
//! pruning criteria, the closure shortcut, the cost weights — applies to the
//! atoms `mars_cq`'s classifier ([`mars_cq::Atom::navigation`]) reads as GReX
//! navigation, and to nothing else.

#![deny(missing_docs)]

pub mod backchase;
pub mod cb;
pub mod chase;
pub mod compiled;
pub mod evaluate;
mod implied;
pub mod instance;
pub mod reach;
pub mod shortcut;

pub use backchase::{backchase, BackchaseOptions, BackchaseOutcome, Degradation};
pub use cb::{CbOptions, CbStatistics, ChaseBackchase, ReformulationBudget, ReformulationResult};
pub use chase::{
    chase_resident_with_atoms_compiled, chase_to_resident_compiled, ChaseOptions, ChaseStats,
    ChaseStop, DependencyWork, ResidentBranch, ResidentChase,
};
pub use compiled::{compilation_count, CompiledConclusion, CompiledDed, CompiledDeps, Unblocked};
pub use evaluate::{
    evaluate_bindings, maps_into, satisfiable, Binding, ContainmentProgram, JoinScratch,
    SCAN_THRESHOLD,
};
pub use instance::{index_build_count, Relation, SymbolicInstance};
pub use reach::{prune_parallel_desc, ReachabilityGraph};
pub use shortcut::{detect_closure_constraints, ClosureConstraints};
