//! Logical → physical compilation of conjunctive queries.
//!
//! [`physical_plan`] compiles a [`ConjunctiveQuery`] into an explicit
//! physical operator tree against a [`StatisticsCatalog`]:
//!
//! * [`TableScan`] — one per body atom, with **constant-predicate pushdown**
//!   (constant arguments become scan predicates), intra-atom repeated
//!   variables checked in the scan, and **column pruning** (only columns
//!   consumed above the scan survive);
//! * [`NavScan`] — when the planner is handed [`NavigationStatistics`] (the
//!   router's case), one leaf for all the atoms that navigate a stored
//!   document, run natively in the order the one orderer of native
//!   navigation chose and priced from the documents' statistics;
//!   every other atom stays a `TableScan`;
//! * `HashJoin` — a left-deep join tree over the leaves whose **join order**
//!   and per-join **build side** are chosen from the estimates (smallest
//!   estimated leaf first, then greedily the connected leaf minimizing the
//!   estimated join output; the smaller estimated side is hashed); join
//!   outputs are pruned to the columns still needed above;
//! * `Filter` — residual inequalities, applied once all operands are bound;
//! * `Project` / `Distinct` — the head row and set semantics at the root.
//!
//! One tree serves every route: its leaves say which store serves them, and
//! [`PhysicalPlan::estimated_cost`] prices all of them in one unit.
//!
//! **The tree names terms by position, not by value.** A scan names its body
//! atom, a pushdown the column whose constant the query holds there, an
//! output column the [`Position`] of a variable occurrence, and a `Filter`
//! or `Project` operand that no column binds the head term or inequality
//! side it stands for ([`Operand`]). Executors read the terms from the query
//! they run. So one tree serves every query of its shape — the same atoms,
//! the same pattern of repeated variables and constants — whatever its
//! constants or its variables' spellings: the router keeps the tree it chose
//! in its [`RoutingDecision`](crate::RoutingDecision), and a plan-cache hit
//! runs that tree, frozen at the statistics of the request that planned it.
//!
//! The planner is **advisory by construction**: every choice (order, build
//! side, pruning, which store serves a leaf) changes cost only, never the
//! result set. Executors (see `mars_storage`) are property-tested
//! byte-identical to the naive evaluator for any planner choice, which is
//! also why a frozen tree stays correct when the statistics move.
//!
//! [`PhysicalPlan::display`] renders a tree with the names of one query; the
//! rendering is stable and is snapshot-tested (`tests/golden/plans/`), so
//! plan-shape regressions show up as golden diffs the same way emitted SQL
//! does.

use crate::route::{plan_native, NavigationStatistics};
use crate::stats::StatisticsCatalog;
use mars_cq::{ConjunctiveQuery, Predicate, Term, Variable};
use std::fmt;

/// Where a term sits in a query: argument `arg` of body atom `atom`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Position {
    /// Index into the query's body.
    pub atom: usize,
    /// Index into that atom's arguments.
    pub arg: usize,
}

impl Position {
    /// The variable an output column binds: the term `q` holds at this
    /// position, which a tree names only when it is a variable.
    ///
    /// # Panics
    ///
    /// Panics when that term is a constant: `q` is not of the shape the tree
    /// was planned for.
    pub fn var(self, q: &ConjunctiveQuery) -> Variable {
        let term = q.body[self.atom].args[self.arg];
        term.as_var().expect("an output column names a variable occurrence")
    }
}

/// Where an operand of a `Filter` predicate or `Project` column comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// A column of the operator's input row.
    Column(usize),
    /// The query's head term at this index, which no column binds: a
    /// constant, or a variable the body never binds (unsafe query), which
    /// executors emit as itself, matching the naive evaluator.
    Head(usize),
    /// One side of the query's inequality at index `pair`, which no column
    /// binds: the right side when `right`, else the left.
    Inequality {
        /// Index into the query's inequalities.
        pair: usize,
        /// Which side of the pair.
        right: bool,
    },
}

impl Operand {
    /// The term of `q` a non-column operand stands for; `None` for a column.
    pub fn term(self, q: &ConjunctiveQuery) -> Option<Term> {
        match self {
            Operand::Column(_) => None,
            Operand::Head(i) => Some(q.head[i]),
            Operand::Inequality { pair, right } => {
                let (a, b) = q.inequalities[pair];
                Some(if right { b } else { a })
            }
        }
    }
}

/// Which side of a hash join is hashed (the other side streams and probes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildSide {
    /// Hash the left (accumulated) input.
    Left,
    /// Hash the right (newly joined scan) input.
    Right,
}

/// A pruned, predicate-pushed scan of one stored relation (one body atom).
#[derive(Clone, Debug, PartialEq)]
pub struct TableScan {
    /// The scanned relation.
    pub relation: Predicate,
    /// The body atom scanned.
    pub atom: usize,
    /// The kept columns, ascending: each the position of the variable it
    /// binds, whose `arg` is the input column. Everything else is pruned at
    /// the scan.
    pub output: Vec<Position>,
    /// Pushed-down input columns, ascending: the scan keeps the rows equal
    /// to the constant the query's atom holds in each.
    pub pushdown: Vec<usize>,
    /// Intra-atom repeated-variable equalities: `(first column, later column)`.
    pub duplicates: Vec<(usize, usize)>,
    /// Estimated output rows (from exact tuple counts and distincts).
    pub est_rows: f64,
    /// Tuples the scan reads before pushdown (the relation's cardinality).
    /// Drives [`PhysicalPlan::estimated_cost`]; deliberately not rendered,
    /// so the golden plan snapshots stay shape-only.
    pub input_rows: f64,
}

/// Native navigation of stored documents (leaf): the query's navigation
/// atoms over documents the XML store holds, run by the navigation kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct NavScan {
    /// The navigation atoms' body indices, in the order the planner chose:
    /// the order the kernel runs them in.
    pub atoms: Vec<usize>,
    /// The variables materialized as output columns — those the head, an
    /// inequality or another leaf reads — each by the position of one of
    /// its occurrences in the navigation atoms.
    pub output: Vec<Position>,
    /// Rows the order is estimated to touch: the unit the kernel counts its
    /// work in.
    pub cost: f64,
    /// Estimated output rows.
    pub est_rows: f64,
}

/// A physical operator tree for one conjunctive query.
#[derive(Clone, Debug, PartialEq)]
pub enum PhysicalPlan {
    /// Scan one relation (leaf).
    TableScan(TableScan),
    /// Navigate stored documents natively (leaf).
    NavScan(NavScan),
    /// Hash `build` side on the key columns, stream the other side through it.
    HashJoin {
        /// Accumulated left input.
        left: Box<PhysicalPlan>,
        /// Newly joined right input (always a leaf in left-deep plans).
        right: Box<PhysicalPlan>,
        /// Equi-join key columns of the left output.
        left_keys: Vec<usize>,
        /// The right output columns, pairwise equal to `left_keys`.
        right_keys: Vec<usize>,
        /// Which input is hashed — chosen from estimated cardinalities.
        build: BuildSide,
        /// Left output columns kept after the join (column pruning).
        left_keep: Vec<usize>,
        /// Right output columns kept after the join.
        right_keep: Vec<usize>,
        /// The variable each output column binds (left-kept then right-kept).
        output: Vec<Position>,
        /// Estimated output rows.
        est_rows: f64,
    },
    /// Residual inequality filter (`left <> right` per predicate).
    Filter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Inequality predicates over the input row.
        predicates: Vec<(Operand, Operand)>,
    },
    /// Project the head row out of the final join layout.
    Project {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// One operand per head term.
        columns: Vec<Operand>,
    },
    /// Set semantics at the root: deduplicate and emit rows in ascending
    /// order (the engine's deterministic output order).
    Distinct {
        /// Input operator.
        input: Box<PhysicalPlan>,
    },
}

impl PhysicalPlan {
    /// The variable occurrences this operator's output columns bind (empty
    /// above `Project`, whose output is rows, not bindings).
    pub fn output(&self) -> &[Position] {
        match self {
            PhysicalPlan::TableScan(scan) => &scan.output,
            PhysicalPlan::NavScan(scan) => &scan.output,
            PhysicalPlan::HashJoin { output, .. } => output,
            PhysicalPlan::Filter { input, .. } => input.output(),
            PhysicalPlan::Project { .. } | PhysicalPlan::Distinct { .. } => &[],
        }
    }

    /// Estimated output rows of this operator.
    pub fn est_rows(&self) -> f64 {
        match self {
            PhysicalPlan::TableScan(scan) => scan.est_rows,
            PhysicalPlan::NavScan(scan) => scan.est_rows,
            PhysicalPlan::HashJoin { est_rows, .. } => *est_rows,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Distinct { input } => input.est_rows(),
        }
    }

    /// Estimated total work of executing this operator tree: every table
    /// scan pays its full input cardinality, a navigation scan the rows its
    /// order touches, every hash join pays both inputs (build + probe) plus
    /// its output, and the row-at-a-time tail operators pay their input once
    /// more. The unit is "rows touched", so costs are comparable across
    /// plans and, via `mars_cost::route_query`, across the stores the leaves
    /// read.
    pub fn estimated_cost(&self) -> f64 {
        match self {
            PhysicalPlan::TableScan(scan) => scan.input_rows,
            PhysicalPlan::NavScan(scan) => scan.cost,
            PhysicalPlan::HashJoin { left, right, est_rows, .. } => {
                left.estimated_cost()
                    + right.estimated_cost()
                    + left.est_rows()
                    + right.est_rows()
                    + est_rows
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Distinct { input } => input.estimated_cost() + input.est_rows(),
        }
    }

    /// The navigation leaf, if this tree has one.
    pub fn nav_scan(&self) -> Option<&NavScan> {
        match self {
            PhysicalPlan::TableScan(_) => None,
            PhysicalPlan::NavScan(scan) => Some(scan),
            PhysicalPlan::HashJoin { left, right, .. } => left.nav_scan().or(right.nav_scan()),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Distinct { input } => input.nav_scan(),
        }
    }

    /// The number of leaves of this tree.
    pub fn leaf_count(&self) -> usize {
        match self {
            PhysicalPlan::TableScan(_) | PhysicalPlan::NavScan(_) => 1,
            PhysicalPlan::HashJoin { left, right, .. } => left.leaf_count() + right.leaf_count(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Distinct { input } => input.leaf_count(),
        }
    }

    /// This tree rendered with the terms of `q`, a query of the shape it
    /// was planned for (stable; snapshot-tested under `tests/golden/plans/`).
    pub fn display<'a>(&'a self, q: &'a ConjunctiveQuery) -> impl fmt::Display + 'a {
        Rendered { plan: self, q }
    }
}

/// The first occurrence of each variable of the atoms `atoms` index, in
/// their order.
fn first_occurrences(q: &ConjunctiveQuery, atoms: &[usize]) -> Vec<(Variable, Position)> {
    let mut vars: Vec<(Variable, Position)> = Vec::new();
    for &atom in atoms {
        for (arg, t) in q.body[atom].args.iter().enumerate() {
            if let Term::Var(v) = t {
                if !vars.iter().any(|(w, _)| w == v) {
                    vars.push((*v, Position { atom, arg }));
                }
            }
        }
    }
    vars
}

/// Compile `q` into a physical plan against `stats`. Handed `nav`, the atoms
/// that navigate a document it stores become one [`NavScan`] leaf, after the
/// [`TableScan`]s of the others; without it every atom is a `TableScan`.
///
/// Deterministic: the same query and statistics always produce the same plan
/// (ties break on leaf index). The plan changes with the statistics, but the
/// executed *result set* does not — that is the planner's core invariant.
/// The plan names terms by position (module docs), so it runs any query of
/// `q`'s shape.
///
/// # Panics
///
/// Panics if the query body is empty (no relation to scan); callers handle
/// body-less queries directly.
pub fn physical_plan(
    q: &ConjunctiveQuery,
    stats: &dyn StatisticsCatalog,
    nav: Option<&dyn NavigationStatistics>,
) -> PhysicalPlan {
    assert!(!q.body.is_empty(), "physical_plan requires a non-empty body");
    let var = |p: &Position| p.var(q);

    // Variables consumed above the leaves: head, inequalities, other leaves.
    let ineq_vars: Vec<Variable> =
        q.inequalities.iter().flat_map(|(a, b)| [a, b]).filter_map(Term::as_var).collect();
    let head_vars: Vec<Variable> = q.head.iter().filter_map(Term::as_var).collect();

    // One leaf per scanned atom, in body order, then the navigation leaf.
    let navigation = nav.map(|nav| plan_native(&q.body, nav)).filter(|scan| !scan.atoms.is_empty());
    let native: &[usize] = navigation.as_ref().map_or(&[], |scan| &scan.atoms);
    let scanned: Vec<usize> = (0..q.body.len()).filter(|i| !native.contains(i)).collect();
    let mut leaf_vars: Vec<Vec<(Variable, Position)>> =
        scanned.iter().map(|&i| first_occurrences(q, &[i])).collect();
    if !native.is_empty() {
        leaf_vars.push(first_occurrences(q, native));
    }
    let needed_above_leaf = |l: usize, v: &Variable| {
        head_vars.contains(v)
            || ineq_vars.contains(v)
            || leaf_vars
                .iter()
                .enumerate()
                .any(|(k, vars)| k != l && vars.iter().any(|(w, _)| w == v))
    };
    let needed_output = |l: usize| -> Vec<Position> {
        leaf_vars[l].iter().filter(|(v, _)| needed_above_leaf(l, v)).map(|&(_, p)| p).collect()
    };

    // One pruned, predicate-pushed scan per scanned atom.
    let mut leaves: Vec<PhysicalPlan> = scanned
        .iter()
        .enumerate()
        .map(|(l, &i)| {
            let atom = &q.body[i];
            let relation = atom.predicate;
            let mut pushdown = Vec::new();
            let mut duplicates = Vec::new();
            for (col, arg) in atom.args.iter().enumerate() {
                match arg {
                    Term::Const(_) => pushdown.push(col),
                    Term::Var(v) => match leaf_vars[l].iter().find(|(w, _)| w == v) {
                        Some((_, first)) if first.arg != col => duplicates.push((first.arg, col)),
                        _ => {}
                    },
                }
            }

            let mut est = stats.tuple_count(relation) as f64;
            for &col in &pushdown {
                est /= stats.distinct_in_column(relation, col).max(1) as f64;
            }
            for (a, b) in &duplicates {
                let d = stats
                    .distinct_in_column(relation, *a)
                    .max(stats.distinct_in_column(relation, *b))
                    .max(1);
                est /= d as f64;
            }
            PhysicalPlan::TableScan(TableScan {
                relation,
                atom: i,
                output: needed_output(l),
                pushdown,
                duplicates,
                est_rows: est,
                input_rows: stats.tuple_count(relation) as f64,
            })
        })
        .collect();
    if let Some(mut scan) = navigation {
        scan.output = needed_output(leaves.len());
        leaves.push(PhysicalPlan::NavScan(scan));
    }

    // Greedy stats-driven join order: smallest estimated leaf first, then the
    // connected leaf minimizing the estimated join output. Disconnected
    // leaves (cross products) are deferred until nothing connected remains.
    let mut remaining: Vec<usize> = (0..leaves.len()).collect();
    let start = remaining
        .iter()
        .copied()
        .min_by(|&a, &b| leaves[a].est_rows().total_cmp(&leaves[b].est_rows()).then(a.cmp(&b)))
        .expect("non-empty body");
    remaining.retain(|&i| i != start);

    // Per-variable distinct estimate in the accumulated intermediate result:
    // the minimum distinct count over the leaves that bound it so far. A
    // table scan reads its column's exact count; navigation keeps no
    // per-variable statistics, so each of its rows counts as distinct.
    let var_distinct = |leaf: &PhysicalPlan, v: Variable| -> f64 {
        let PhysicalPlan::TableScan(scan) = leaf else { return leaf.est_rows().max(1.0) };
        scan.output
            .iter()
            .find(|p| var(p) == v)
            .map(|p| stats.distinct_in_column(scan.relation, p.arg).max(1) as f64)
            .unwrap_or(1.0)
    };
    let mut bound_distinct: Vec<(Variable, f64)> = leaves[start]
        .output()
        .iter()
        .map(|p| (var(p), var_distinct(&leaves[start], var(p))))
        .collect();

    let order_leaves_left = |remaining: &[usize], bound: &[(Variable, f64)], cur_est: f64| {
        let mut best: Option<(usize, f64, bool)> = None; // (leaf, est_out, connected)
        for &i in remaining {
            let leaf = &leaves[i];
            let mut connected = false;
            let mut est_out = cur_est * leaf.est_rows();
            for v in leaf.output().iter().map(var) {
                if let Some((_, dl)) = bound.iter().find(|(bv, _)| *bv == v) {
                    connected = true;
                    est_out /= dl.max(var_distinct(leaf, v)).max(1.0);
                }
            }
            let better = match &best {
                None => true,
                // A connected leaf always beats a cross product; among equals
                // the smaller estimated output wins, ties on leaf index.
                Some((_, best_est, best_conn)) => {
                    (connected && !best_conn) || (connected == *best_conn && est_out < *best_est)
                }
            };
            if better {
                best = Some((i, est_out, connected));
            }
        }
        best.expect("remaining is non-empty")
    };

    // Decide the order reading the leaves in place: (leaf, estimated join
    // output) per join.
    let mut joins: Vec<(usize, f64)> = Vec::new();
    let mut est_rows = leaves[start].est_rows();
    while !remaining.is_empty() {
        let (next, est_out, _connected) = order_leaves_left(&remaining, &bound_distinct, est_rows);
        remaining.retain(|&i| i != next);
        for v in leaves[next].output().iter().map(var) {
            let dr = var_distinct(&leaves[next], v);
            match bound_distinct.iter_mut().find(|(bv, _)| *bv == v) {
                Some((_, dl)) => *dl = dl.min(dr),
                None => bound_distinct.push((v, dr)),
            }
        }
        joins.push((next, est_out));
        est_rows = est_out;
    }

    // Then assemble the left-deep tree, moving each leaf into it once.
    let mut leaves: Vec<Option<PhysicalPlan>> = leaves.into_iter().map(Some).collect();
    let mut plan = leaves[start].take().expect("each leaf joins once");
    for (j, &(next, est_out)) in joins.iter().enumerate() {
        let leaf = leaves[next].take().expect("each leaf joins once");
        let left_vars: Vec<Variable> = plan.output().iter().map(var).collect();
        let right_vars: Vec<Variable> = leaf.output().iter().map(var).collect();

        let (left_keys, right_keys): (Vec<usize>, Vec<usize>) = left_vars
            .iter()
            .enumerate()
            .filter_map(|(lc, v)| right_vars.iter().position(|rv| rv == v).map(|rc| (lc, rc)))
            .unzip();

        // Column pruning at the join output: keep a variable only if the
        // head, an inequality or a not-yet-joined leaf still needs it.
        let needed_later = |v: &Variable| {
            head_vars.contains(v)
                || ineq_vars.contains(v)
                || joins[j + 1..].iter().any(|&(k, _)| leaf_vars[k].iter().any(|(w, _)| w == v))
        };
        let left_keep: Vec<usize> =
            (0..left_vars.len()).filter(|&c| needed_later(&left_vars[c])).collect();
        // Shared variables keep their left copy; the right copy is equal by
        // the join and is dropped.
        let right_keep: Vec<usize> = (0..right_vars.len())
            .filter(|&c| needed_later(&right_vars[c]) && !left_vars.contains(&right_vars[c]))
            .collect();
        let output: Vec<Position> = left_keep
            .iter()
            .map(|&c| plan.output()[c])
            .chain(right_keep.iter().map(|&c| leaf.output()[c]))
            .collect();

        // Build the smaller estimated input; ties build the fresh leaf (its
        // hash table is bounded by one leaf, not an intermediate result).
        let build =
            if leaf.est_rows() <= plan.est_rows() { BuildSide::Right } else { BuildSide::Left };

        plan = PhysicalPlan::HashJoin {
            left: Box::new(plan),
            right: Box::new(leaf),
            left_keys,
            right_keys,
            build,
            left_keep,
            right_keep,
            output,
            est_rows: est_out,
        };
    }

    // Residual inequalities, then the head projection, then set semantics.
    // A term no column binds is named by where the query holds it.
    let layout: Vec<Variable> = plan.output().iter().map(var).collect();
    let operand = |t: &Term, unbound: Operand| {
        t.as_var()
            .and_then(|v| layout.iter().position(|&lv| lv == v))
            .map_or(unbound, Operand::Column)
    };
    if !q.inequalities.is_empty() {
        let predicates = (q.inequalities.iter().enumerate())
            .map(|(pair, (a, b))| {
                (
                    operand(a, Operand::Inequality { pair, right: false }),
                    operand(b, Operand::Inequality { pair, right: true }),
                )
            })
            .collect();
        plan = PhysicalPlan::Filter { input: Box::new(plan), predicates };
    }
    let columns = q.head.iter().enumerate().map(|(i, t)| operand(t, Operand::Head(i))).collect();
    plan = PhysicalPlan::Project { input: Box::new(plan), columns };
    PhysicalPlan::Distinct { input: Box::new(plan) }
}

// ---------------------------------------------------------------------------
// Rendering (stable; snapshot-tested under tests/golden/plans/)
// ---------------------------------------------------------------------------

/// A tree beside the query whose terms it renders ([`PhysicalPlan::display`]).
struct Rendered<'a> {
    plan: &'a PhysicalPlan,
    q: &'a ConjunctiveQuery,
}

impl fmt::Display for Rendered<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render_node(self.plan, self.q, f, "")
    }
}

/// The variable names of `output`, comma-separated.
fn render_vars(output: &[Position], q: &ConjunctiveQuery) -> String {
    output.iter().map(|p| p.var(q).to_string()).collect::<Vec<_>>().join(", ")
}

/// Render an operand against the output of the operator's input.
fn render_operand(op: Operand, layout: &[Position], q: &ConjunctiveQuery) -> String {
    match (op, op.term(q)) {
        (Operand::Column(c), _) => match layout.get(c) {
            Some(p) => p.var(q).to_string(),
            None => format!("#{c}"),
        },
        (_, Some(Term::Const(c))) => format!("'{}'", c.render()),
        (_, Some(Term::Var(v))) => format!("unbound({v})"),
        (_, None) => unreachable!("only a column names no term"),
    }
}

fn render_node(
    plan: &PhysicalPlan,
    q: &ConjunctiveQuery,
    f: &mut fmt::Formatter<'_>,
    prefix: &str,
) -> fmt::Result {
    match plan {
        PhysicalPlan::TableScan(scan) => {
            let cols: Vec<String> =
                scan.output.iter().map(|p| format!("c{}→{}", p.arg, p.var(q))).collect();
            write!(f, "TableScan {} cols=[{}]", scan.relation.name(), cols.join(", "))?;
            if !scan.pushdown.is_empty() {
                let args = &q.body[scan.atom].args;
                let preds: Vec<String> = (scan.pushdown.iter())
                    .map(|&c| {
                        let k = args[c].as_const().expect("a pushed-down column holds a constant");
                        format!("c{c}='{}'", k.render())
                    })
                    .collect();
                write!(f, " pushdown=[{}]", preds.join(", "))?;
            }
            if !scan.duplicates.is_empty() {
                let dups: Vec<String> =
                    scan.duplicates.iter().map(|(a, b)| format!("c{a}=c{b}")).collect();
                write!(f, " dup=[{}]", dups.join(", "))?;
            }
            write!(f, " ~{:.0} rows", scan.est_rows)
        }
        PhysicalPlan::NavScan(scan) => {
            let order: Vec<String> = scan.atoms.iter().map(|&i| q.body[i].to_string()).collect();
            let (order, out) = (order.join(", "), render_vars(&scan.output, q));
            write!(f, "NavScan order=[{order}] out=[{out}] ~{:.0} rows", scan.est_rows)
        }
        PhysicalPlan::HashJoin { left, right, left_keys, build, output, est_rows, .. } => {
            let lvars = left.output();
            let key_names: Vec<String> = left_keys
                .iter()
                .map(|&lc| match lvars.get(lc) {
                    Some(p) => p.var(q).to_string(),
                    None => format!("#{lc}"),
                })
                .collect();
            let side = match build {
                BuildSide::Left => "left",
                BuildSide::Right => "right",
            };
            writeln!(
                f,
                "HashJoin on [{}] build={side} out=[{}] ~{est_rows:.0} rows",
                key_names.join(", "),
                render_vars(output, q),
            )?;
            write!(f, "{prefix}├─ ")?;
            render_node(left, q, f, &format!("{prefix}│  "))?;
            writeln!(f)?;
            write!(f, "{prefix}└─ ")?;
            render_node(right, q, f, &format!("{prefix}   "))
        }
        PhysicalPlan::Filter { input, predicates } => {
            let layout = input.output();
            let preds: Vec<String> = predicates
                .iter()
                .map(|&(a, b)| {
                    let (a, b) = (render_operand(a, layout, q), render_operand(b, layout, q));
                    format!("{a} <> {b}")
                })
                .collect();
            writeln!(f, "Filter [{}]", preds.join(", "))?;
            write!(f, "{prefix}└─ ")?;
            render_node(input, q, f, &format!("{prefix}   "))
        }
        PhysicalPlan::Project { input, columns } => {
            let layout = input.output();
            let cols: Vec<String> =
                columns.iter().map(|&op| render_operand(op, layout, q)).collect();
            writeln!(f, "Project [{}]", cols.join(", "))?;
            write!(f, "{prefix}└─ ")?;
            render_node(input, q, f, &format!("{prefix}   "))
        }
        PhysicalPlan::Distinct { input } => {
            writeln!(f, "Distinct")?;
            write!(f, "{prefix}└─ ")?;
            render_node(input, q, f, &format!("{prefix}   "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::Atom;
    use std::collections::HashMap;

    struct Fixed(HashMap<Predicate, (usize, Vec<usize>)>);

    impl StatisticsCatalog for Fixed {
        fn holds(&self, relation: Predicate) -> bool {
            self.0.contains_key(&relation)
        }
        fn tuple_count(&self, relation: Predicate) -> usize {
            self.0.get(&relation).map(|(n, _)| *n).unwrap_or(0)
        }
        fn distinct_in_column(&self, relation: Predicate, col: usize) -> usize {
            self.0.get(&relation).and_then(|(_, d)| d.get(col)).copied().unwrap_or(0)
        }
    }

    fn stats(entries: &[(&str, usize, &[usize])]) -> Fixed {
        Fixed(entries.iter().map(|(name, n, d)| (Predicate::new(name), (*n, d.to_vec()))).collect())
    }

    /// `Q(x, z) :- big(x, y), small(y, z, 'k')` — the plan must start from
    /// the smaller scan, push the constant into it, and build on it.
    #[test]
    fn join_order_and_build_side_follow_statistics() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x"), Term::var("z")])
            .with_body(vec![
                Atom::named("big", vec![Term::var("x"), Term::var("y")]),
                Atom::named("small", vec![Term::var("y"), Term::var("z"), Term::constant_str("k")]),
            ]);
        let s = stats(&[("big", 10_000, &[10_000, 100]), ("small", 50, &[50, 50, 5])]);
        let plan = physical_plan(&q, &s, None);
        let text = plan.display(&q).to_string();
        assert!(text.contains("pushdown=[c2='k']"), "constant must be pushed down:\n{text}");
        // The left-deep start is the selective `small` scan, so the join
        // builds on the accumulated (smaller) left side.
        assert!(text.contains("build=left"), "build side must follow estimates:\n{text}");
        let first_scan = text.lines().find(|l| l.contains("TableScan")).unwrap();
        assert!(first_scan.contains("small"), "must start from the selective scan:\n{text}");
    }

    /// Columns bound to variables used nowhere else are pruned at the scan.
    #[test]
    fn unused_columns_are_pruned() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![Term::var("a")]).with_body(vec![
            Atom::named("r", vec![Term::var("a"), Term::var("junk"), Term::var("b")]),
            Atom::named("s", vec![Term::var("b"), Term::var("junk2")]),
        ]);
        let s = stats(&[("r", 10, &[10, 10, 10]), ("s", 10, &[10, 10])]);
        let plan = physical_plan(&q, &s, None);
        let text = plan.display(&q).to_string();
        assert!(!text.contains("junk"), "unused columns must be pruned:\n{text}");
        assert!(text.contains("c0→a"), "needed columns must survive:\n{text}");
    }

    /// Repeated variables inside one atom become scan-level equalities.
    #[test]
    fn duplicate_variables_check_in_the_scan() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x")])
            .with_body(vec![Atom::named("r", vec![Term::var("x"), Term::var("x")])]);
        let s = stats(&[("r", 10, &[5, 5])]);
        let plan = physical_plan(&q, &s, None);
        let text = plan.display(&q).to_string();
        assert!(text.contains("dup=[c0=c1]"), "repeated variable must be a scan check:\n{text}");
        assert!(text.contains("~2 rows"), "duplicate check must reduce the estimate:\n{text}");
    }

    /// Inequalities survive as a residual Filter; head constants project as
    /// literals; unsafe head variables render as unbound.
    #[test]
    fn filter_project_and_unbound_render() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x"), Term::constant_str("tag"), Term::var("ghost")])
            .with_body(vec![Atom::named("r", vec![Term::var("x"), Term::var("y")])])
            .with_inequality(Term::var("x"), Term::var("y"));
        let s = stats(&[("r", 10, &[10, 10])]);
        let text = physical_plan(&q, &s, None).display(&q).to_string();
        assert!(text.contains("Filter [x <> y]"), "{text}");
        assert!(text.contains("Project [x, 'tag', unbound(ghost)]"), "{text}");
        assert!(text.starts_with("Distinct"), "{text}");
    }
}
