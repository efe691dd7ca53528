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
//!   document, run natively in the order
//!   [`plan_navigation`](crate::plan_navigation) chose and priced by it;
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
//! The planner is **advisory by construction**: every choice (order, build
//! side, pruning, which store serves a leaf) changes cost only, never the
//! result set. Executors (see `mars_storage`) are property-tested
//! byte-identical to the naive evaluator for any planner choice.
//!
//! [`PhysicalPlan`]'s [`fmt::Display`] rendering is stable and is snapshot-
//! tested (`tests/golden/plans/`), so plan-shape regressions show up as
//! golden diffs the same way emitted SQL does.

use crate::route::{plan_native, NavOrder, NavigationStatistics};
use crate::stats::StatisticsCatalog;
use mars_cq::{Atom, ConjunctiveQuery, Constant, Predicate, Term, Variable};
use std::fmt;

/// Where an operand of a `Filter` predicate or `Project` column comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// A column of the operator's input row.
    Column(usize),
    /// A literal constant from the query text.
    Const(Constant),
    /// A variable the query body never binds (unsafe query); executors must
    /// emit the variable itself, matching the naive evaluator.
    Unbound(Variable),
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
#[derive(Clone, Debug)]
pub struct TableScan {
    /// The scanned relation.
    pub relation: Predicate,
    /// Kept input columns, ascending — everything else is pruned at the scan.
    pub columns: Vec<usize>,
    /// The variable each kept column binds (parallel to `columns`).
    pub output: Vec<Variable>,
    /// Pushed-down constant equalities: `(input column, constant)`.
    pub pushdown: Vec<(usize, Constant)>,
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
#[derive(Clone, Debug)]
pub struct NavScan {
    /// The navigation atoms, in the order
    /// [`plan_navigation`](crate::plan_navigation) chose: the order the
    /// kernel runs them in.
    pub atoms: Vec<Atom>,
    /// The variables materialized as output columns: those the head, an
    /// inequality or another leaf reads.
    pub output: Vec<Variable>,
    /// Rows the order is estimated to touch ([`NavOrder::cost`]): the unit
    /// the kernel counts its work in.
    pub cost: f64,
    /// Estimated output rows ([`NavOrder::rows`]).
    pub est_rows: f64,
}

/// A physical operator tree for one conjunctive query.
#[derive(Clone, Debug)]
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
        /// Equi-join keys: `(left output column, right output column)`.
        keys: Vec<(usize, usize)>,
        /// Which input is hashed — chosen from estimated cardinalities.
        build: BuildSide,
        /// Left output columns kept after the join (column pruning).
        left_keep: Vec<usize>,
        /// Right output columns kept after the join.
        right_keep: Vec<usize>,
        /// The variable each output column binds (left-kept then right-kept).
        output: Vec<Variable>,
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
    /// The variables bound by this operator's output columns (empty above
    /// `Project`, whose output is rows, not bindings).
    pub fn output_vars(&self) -> &[Variable] {
        match self {
            PhysicalPlan::TableScan(scan) => &scan.output,
            PhysicalPlan::NavScan(scan) => &scan.output,
            PhysicalPlan::HashJoin { output, .. } => output,
            PhysicalPlan::Filter { input, .. } => input.output_vars(),
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
        self.leaves().into_iter().find_map(|leaf| match leaf {
            PhysicalPlan::NavScan(scan) => Some(scan),
            _ => None,
        })
    }

    /// The leaves of this tree, left to right.
    pub fn leaves(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::TableScan(_) | PhysicalPlan::NavScan(_) => vec![self],
            PhysicalPlan::HashJoin { left, right, .. } => {
                let mut leaves = left.leaves();
                leaves.extend(right.leaves());
                leaves
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Distinct { input } => input.leaves(),
        }
    }
}

/// Compile `q` into a physical plan against `stats`. Handed `nav`, the atoms
/// that navigate a document it stores become one [`NavScan`] leaf, after the
/// [`TableScan`]s of the others; without it every atom is a `TableScan`.
///
/// Deterministic: the same query and statistics always produce the same plan
/// (ties break on leaf index). The plan changes with the statistics, but the
/// executed *result set* does not — that is the planner's core invariant.
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

    // Variables consumed above the leaves: head, inequalities, other leaves.
    let ineq_vars: Vec<Variable> =
        q.inequalities.iter().flat_map(|(a, b)| [a, b]).filter_map(Term::as_var).collect();
    let head_vars: Vec<Variable> = q.head.iter().filter_map(Term::as_var).collect();

    // One leaf per scanned atom, in body order, then the navigation leaf.
    let navigation =
        nav.map(|nav| plan_native(&q.body, nav)).filter(|planned| !planned.order.is_empty());
    let native: &[usize] = navigation.as_ref().map_or(&[], |planned| &planned.order);
    let scanned: Vec<usize> = (0..q.body.len()).filter(|i| !native.contains(i)).collect();
    let vars_of = |atoms: &[usize]| {
        let mut vars: Vec<Variable> = Vec::new();
        for v in atoms.iter().flat_map(|&i| q.body[i].variables()) {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        vars
    };
    let mut leaf_vars: Vec<Vec<Variable>> = scanned.iter().map(|&i| vars_of(&[i])).collect();
    if !native.is_empty() {
        leaf_vars.push(vars_of(native));
    }
    let needed_above_leaf = |l: usize, v: &Variable| {
        head_vars.contains(v)
            || ineq_vars.contains(v)
            || leaf_vars.iter().enumerate().any(|(k, vars)| k != l && vars.contains(v))
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
            let mut first: Vec<(Variable, usize)> = Vec::new();
            for (col, arg) in atom.args.iter().enumerate() {
                match arg {
                    Term::Const(c) => pushdown.push((col, *c)),
                    Term::Var(v) => match first.iter().find(|(fv, _)| fv == v) {
                        Some((_, first_col)) => duplicates.push((*first_col, col)),
                        None => first.push((*v, col)),
                    },
                }
            }
            let (output, columns): (Vec<Variable>, Vec<usize>) =
                first.iter().filter(|(v, _)| needed_above_leaf(l, v)).copied().unzip();

            let mut est = stats.tuple_count(relation) as f64;
            for (col, _) in &pushdown {
                est /= stats.distinct_in_column(relation, *col).max(1) as f64;
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
                columns,
                output,
                pushdown,
                duplicates,
                est_rows: est,
                input_rows: stats.tuple_count(relation) as f64,
            })
        })
        .collect();
    if let Some(NavOrder { order, cost, rows }) = navigation {
        let atoms = order.iter().map(|&i| q.body[i].clone()).collect();
        let l = leaves.len();
        let output = leaf_vars[l].iter().filter(|v| needed_above_leaf(l, v)).copied().collect();
        leaves.push(PhysicalPlan::NavScan(NavScan { atoms, output, cost, est_rows: rows }));
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
    let var_distinct = |leaf: &PhysicalPlan, v: &Variable| -> f64 {
        let PhysicalPlan::TableScan(scan) = leaf else { return leaf.est_rows().max(1.0) };
        scan.output
            .iter()
            .position(|sv| sv == v)
            .map(|k| stats.distinct_in_column(scan.relation, scan.columns[k]).max(1) as f64)
            .unwrap_or(1.0)
    };
    let mut bound_distinct: Vec<(Variable, f64)> =
        leaves[start].output_vars().iter().map(|v| (*v, var_distinct(&leaves[start], v))).collect();

    let order_leaves_left = |remaining: &[usize], bound: &[(Variable, f64)], cur_est: f64| {
        let mut best: Option<(usize, f64, bool)> = None; // (leaf, est_out, connected)
        for &i in remaining {
            let leaf = &leaves[i];
            let shared: Vec<&Variable> = leaf
                .output_vars()
                .iter()
                .filter(|v| bound.iter().any(|(bv, _)| bv == *v))
                .collect();
            let connected = !shared.is_empty();
            let mut est_out = cur_est * leaf.est_rows();
            for v in &shared {
                let dl = bound.iter().find(|(bv, _)| bv == *v).map(|(_, d)| *d).unwrap_or(1.0);
                let dr = var_distinct(leaf, v);
                est_out /= dl.max(dr).max(1.0);
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
        for v in leaves[next].output_vars() {
            let dr = var_distinct(&leaves[next], v);
            match bound_distinct.iter_mut().find(|(bv, _)| bv == v) {
                Some((_, dl)) => *dl = dl.min(dr),
                None => bound_distinct.push((*v, dr)),
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
        let leaf_output = leaf.output_vars();

        let left_vars: Vec<Variable> = plan.output_vars().to_vec();
        let keys: Vec<(usize, usize)> = left_vars
            .iter()
            .enumerate()
            .filter_map(|(lc, v)| leaf_output.iter().position(|sv| sv == v).map(|rc| (lc, rc)))
            .collect();

        // Column pruning at the join output: keep a variable only if the
        // head, an inequality or a not-yet-joined leaf still needs it.
        let needed_later = |v: &Variable| {
            head_vars.contains(v)
                || ineq_vars.contains(v)
                || joins[j + 1..].iter().any(|&(k, _)| leaf_vars[k].contains(v))
        };
        let left_keep: Vec<usize> =
            (0..left_vars.len()).filter(|&c| needed_later(&left_vars[c])).collect();
        // Shared variables keep their left copy; the right copy is equal by
        // the join and is dropped.
        let right_keep: Vec<usize> = (0..leaf_output.len())
            .filter(|&c| needed_later(&leaf_output[c]) && !left_vars.contains(&leaf_output[c]))
            .collect();
        let output: Vec<Variable> = left_keep
            .iter()
            .map(|&c| left_vars[c])
            .chain(right_keep.iter().map(|&c| leaf_output[c]))
            .collect();

        // Build the smaller estimated input; ties build the fresh leaf (its
        // hash table is bounded by one leaf, not an intermediate result).
        let build =
            if leaf.est_rows() <= plan.est_rows() { BuildSide::Right } else { BuildSide::Left };

        plan = PhysicalPlan::HashJoin {
            left: Box::new(plan),
            right: Box::new(leaf),
            keys,
            build,
            left_keep,
            right_keep,
            output,
            est_rows: est_out,
        };
    }

    // Residual inequalities, then the head projection, then set semantics.
    let layout: Vec<Variable> = plan.output_vars().to_vec();
    let operand = |t: &Term| match t {
        Term::Const(c) => Operand::Const(*c),
        Term::Var(v) => match layout.iter().position(|lv| lv == v) {
            Some(c) => Operand::Column(c),
            None => Operand::Unbound(*v),
        },
    };
    if !q.inequalities.is_empty() {
        let predicates = q.inequalities.iter().map(|(a, b)| (operand(a), operand(b))).collect();
        plan = PhysicalPlan::Filter { input: Box::new(plan), predicates };
    }
    let columns = q.head.iter().map(operand).collect();
    plan = PhysicalPlan::Project { input: Box::new(plan), columns };
    PhysicalPlan::Distinct { input: Box::new(plan) }
}

// ---------------------------------------------------------------------------
// Rendering (stable; snapshot-tested under tests/golden/plans/)
// ---------------------------------------------------------------------------

/// Render an operand against the variable layout of the operator's input.
fn render_operand(op: &Operand, layout: &[Variable]) -> String {
    match op {
        Operand::Column(c) => match layout.get(*c) {
            Some(v) => v.to_string(),
            None => format!("#{c}"),
        },
        Operand::Const(c) => format!("'{}'", c.render()),
        Operand::Unbound(v) => format!("unbound({v})"),
    }
}

fn render_node(plan: &PhysicalPlan, f: &mut fmt::Formatter<'_>, prefix: &str) -> fmt::Result {
    match plan {
        PhysicalPlan::TableScan(scan) => {
            let cols: Vec<String> =
                scan.columns.iter().zip(&scan.output).map(|(c, v)| format!("c{c}→{v}")).collect();
            write!(f, "TableScan {} cols=[{}]", scan.relation.name(), cols.join(", "))?;
            if !scan.pushdown.is_empty() {
                let preds: Vec<String> =
                    scan.pushdown.iter().map(|(c, k)| format!("c{c}='{}'", k.render())).collect();
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
            let order: Vec<String> = scan.atoms.iter().map(|a| a.to_string()).collect();
            let out: Vec<String> = scan.output.iter().map(|v| v.to_string()).collect();
            let (order, out) = (order.join(", "), out.join(", "));
            write!(f, "NavScan order=[{order}] out=[{out}] ~{:.0} rows", scan.est_rows)
        }
        PhysicalPlan::HashJoin { left, right, keys, build, output, est_rows, .. } => {
            let lvars = left.output_vars();
            let key_names: Vec<String> = keys
                .iter()
                .map(|(lc, _)| match lvars.get(*lc) {
                    Some(v) => v.to_string(),
                    None => format!("#{lc}"),
                })
                .collect();
            let side = match build {
                BuildSide::Left => "left",
                BuildSide::Right => "right",
            };
            let out: Vec<String> = output.iter().map(|v| v.to_string()).collect();
            writeln!(
                f,
                "HashJoin on [{}] build={side} out=[{}] ~{est_rows:.0} rows",
                key_names.join(", "),
                out.join(", "),
            )?;
            write!(f, "{prefix}├─ ")?;
            render_node(left, f, &format!("{prefix}│  "))?;
            writeln!(f)?;
            write!(f, "{prefix}└─ ")?;
            render_node(right, f, &format!("{prefix}   "))
        }
        PhysicalPlan::Filter { input, predicates } => {
            let layout = input.output_vars();
            let preds: Vec<String> = predicates
                .iter()
                .map(|(a, b)| {
                    format!("{} <> {}", render_operand(a, layout), render_operand(b, layout))
                })
                .collect();
            writeln!(f, "Filter [{}]", preds.join(", "))?;
            write!(f, "{prefix}└─ ")?;
            render_node(input, f, &format!("{prefix}   "))
        }
        PhysicalPlan::Project { input, columns } => {
            let layout = input.output_vars();
            let cols: Vec<String> = columns.iter().map(|op| render_operand(op, layout)).collect();
            writeln!(f, "Project [{}]", cols.join(", "))?;
            write!(f, "{prefix}└─ ")?;
            render_node(input, f, &format!("{prefix}   "))
        }
        PhysicalPlan::Distinct { input } => {
            writeln!(f, "Distinct")?;
            write!(f, "{prefix}└─ ")?;
            render_node(input, f, &format!("{prefix}   "))
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render_node(self, f, "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::Atom;
    use std::collections::HashMap;

    struct Fixed(HashMap<Predicate, (usize, Vec<usize>)>);

    impl StatisticsCatalog for Fixed {
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
        let text = plan.to_string();
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
        let text = plan.to_string();
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
        let text = plan.to_string();
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
        let text = physical_plan(&q, &s, None).to_string();
        assert!(text.contains("Filter [x <> y]"), "{text}");
        assert!(text.contains("Project [x, 'tag', unbound(ghost)]"), "{text}");
        assert!(text.starts_with("Distinct"), "{text}");
    }
}
