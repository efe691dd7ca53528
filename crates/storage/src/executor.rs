//! Vectorized evaluation of physical plans over the stored facts and
//! documents.
//!
//! `execute_plan` walks a [`PhysicalPlan`] (compiled by
//! [`mars_cost::physical_plan`] from exact storage statistics) bottom-up; it
//! runs every route, because a route is only what the plan's leaves read.
//! Every operator materializes its output as one flat row-major `Batch` —
//! a single `Vec<Term>` holding `len` rows of `width` columns in the
//! operator's pruned layout — so executing a plan performs a constant number
//! of allocations per operator, not per row. The operators:
//!
//! * `TableScan` reads one relation, keeps the rows matching the pushed-down
//!   constants and the intra-atom duplicate-variable checks, and keeps only
//!   the pruned columns. A pushdown is read the way the chase's join steps
//!   read a key ([`mars_chase::Relation::any_with_key`]): a relation of at
//!   most [`mars_chase::SCAN_THRESHOLD`] rows is scanned, a larger one is
//!   probed through its persistent column index, built once per column set
//!   and kept up to date on insert. Rows come out in row order either way;
//! * `NavScan` compiles its atoms, in the order they are listed, into the native
//!   navigation kernel ([`crate::navigation`]) over the stored documents and
//!   materializes the leaf's output columns, counting the candidate tuples
//!   the kernel enumerates;
//! * `HashJoin` hashes the plan-chosen build side on the key columns
//!   (Fx-style multiplicative hashing, with a single-column fast path that
//!   indexes the bare [`Term`]) and probes it with the other side
//!   (intermediate row order is plan-dependent — the root `Distinct`
//!   canonicalizes it away);
//! * `Filter` compacts out rows failing a residual inequality, in place;
//! * `Project` assembles the head row (columns, literal constants, or the
//!   variable itself for unsafe head variables — matching the naive
//!   evaluator);
//! * `Distinct`, the plan's root, is `execute_plan` itself: it deduplicates
//!   and emits rows in **ascending [`Row`] order** — the deterministic output
//!   order `RelationalDatabase::query` guarantees for both the physical and
//!   the naive evaluator.
//!
//! Correctness does not depend on the planner: any join order, build side or
//! pruning produces the same row set (property-tested byte-identical to the
//! naive evaluator in `tests/property_based.rs`).

use crate::navigation::NavPlan;
use crate::relational::Row;
use crate::xml_engine::{XmlStore, XmlStoreError};
use mars_chase::SymbolicInstance;
use mars_cost::{BuildSide, Operand, PhysicalPlan};
use mars_cq::Term;
use std::collections::{BTreeSet, HashMap};

/// The workspace's Fx-style hasher (`mars_cq::fx`): join keys are one or two
/// tiny `Copy` terms, so SipHash's per-key setup would dominate the probe.
pub(crate) use mars_cq::FxBuild as Fx;

/// A flat row-major batch: `len` rows of `width` terms each, stored in one
/// contiguous allocation. `width` may be 0 (a Boolean sub-result), which is
/// why `len` is tracked explicitly.
pub(crate) struct Batch {
    pub(crate) width: usize,
    pub(crate) len: usize,
    pub(crate) data: Vec<Term>,
}

impl Batch {
    pub(crate) fn new(width: usize) -> Batch {
        Batch { width, len: 0, data: Vec::new() }
    }

    pub(crate) fn row(&self, i: usize) -> &[Term] {
        &self.data[i * self.width..i * self.width + self.width]
    }

    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Term]> {
        (0..self.len).map(|i| self.row(i))
    }
}

/// Execute `plan` — table scans over `inst`, navigation scans over `xml`'s
/// documents — returning the deduplicated head rows in ascending order and
/// the candidate tuples navigation enumerated. `plan` must be a root plan
/// (ending in `Distinct ∘ Project`, as [`mars_cost::physical_plan`]
/// produces). Fails when a navigation scan reads a document `xml` lacks.
pub(crate) fn execute_plan(
    plan: &PhysicalPlan,
    inst: &SymbolicInstance,
    xml: &XmlStore,
) -> Result<(Vec<Row>, u64), XmlStoreError> {
    let mut nav_tuples = 0;
    let batch = eval(plan, inst, xml, &mut nav_tuples)?;
    let rows: BTreeSet<Row> = batch.rows().map(<[Term]>::to_vec).collect();
    Ok((rows.into_iter().collect(), nav_tuples))
}

/// Resolve an operand against a row (unsafe/unbound variables evaluate to
/// themselves, exactly like the naive evaluator's `apply_term`).
fn resolve(op: &Operand, row: &[Term]) -> Term {
    match op {
        Operand::Column(c) => row[*c],
        Operand::Const(k) => Term::Const(*k),
        Operand::Unbound(v) => Term::Var(*v),
    }
}

/// Hash the `build` batch on `build_cols`, probe with the `probe` batch on
/// `probe_cols`, and call `on_match(build_row, probe_row)` for every
/// matching pair in probe-major order. Single-column keys — the common case
/// for chained star joins — index the bare [`Term`] and skip the per-row
/// key allocation entirely.
fn hash_join(
    build: &Batch,
    probe: &Batch,
    build_cols: &[usize],
    probe_cols: &[usize],
    mut on_match: impl FnMut(usize, usize),
) {
    if let (&[bc], &[pc]) = (build_cols, probe_cols) {
        let mut table: HashMap<Term, Vec<u32>, Fx> =
            HashMap::with_capacity_and_hasher(build.len, Fx::default());
        for (i, row) in build.rows().enumerate() {
            table.entry(row[bc]).or_default().push(i as u32);
        }
        for (p, row) in probe.rows().enumerate() {
            if let Some(ids) = table.get(&row[pc]) {
                for &b in ids {
                    on_match(b as usize, p);
                }
            }
        }
        return;
    }
    let mut table: HashMap<Vec<Term>, Vec<u32>, Fx> =
        HashMap::with_capacity_and_hasher(build.len, Fx::default());
    for (i, row) in build.rows().enumerate() {
        let key: Vec<Term> = build_cols.iter().map(|&c| row[c]).collect();
        table.entry(key).or_default().push(i as u32);
    }
    let mut key: Vec<Term> = Vec::with_capacity(probe_cols.len());
    for (p, row) in probe.rows().enumerate() {
        key.clear();
        key.extend(probe_cols.iter().map(|&c| row[c]));
        if let Some(ids) = table.get(&key) {
            for &b in ids {
                on_match(b as usize, p);
            }
        }
    }
}

fn eval(
    plan: &PhysicalPlan,
    inst: &SymbolicInstance,
    xml: &XmlStore,
    nav_tuples: &mut u64,
) -> Result<Batch, XmlStoreError> {
    Ok(match plan {
        PhysicalPlan::TableScan(scan) => {
            let mut out = Batch::new(scan.columns.len());
            if let Some(relation) = inst.relation_data(scan.relation) {
                // The pushed-down columns are ascending, so they name the
                // persistent index a join step over them would probe.
                let cols: Vec<usize> = scan.pushdown.iter().map(|&(c, _)| c).collect();
                let key: Vec<Term> = scan.pushdown.iter().map(|&(_, k)| Term::Const(k)).collect();
                relation.any_with_key(&cols, &key, |tuple| {
                    if scan.duplicates.iter().all(|(a, b)| tuple[*a] == tuple[*b]) {
                        out.data.extend(scan.columns.iter().map(|&c| tuple[c]));
                        out.len += 1;
                    }
                    false
                });
            }
            out
        }
        PhysicalPlan::NavScan(scan) => {
            let (batch, tuples) = NavPlan::compile(&scan.atoms, xml)?.execute(&scan.output);
            *nav_tuples += tuples;
            batch
        }
        PhysicalPlan::HashJoin { left, right, keys, build, left_keep, right_keep, .. } => {
            let left_rows = eval(left, inst, xml, nav_tuples)?;
            let right_rows = eval(right, inst, xml, nav_tuples)?;
            let mut out = Batch::new(left_keep.len() + right_keep.len());
            if left_rows.len == 0 || right_rows.len == 0 {
                return Ok(out);
            }
            let lk: Vec<usize> = keys.iter().map(|&(lc, _)| lc).collect();
            let rk: Vec<usize> = keys.iter().map(|&(_, rc)| rc).collect();
            let mut emit = |lrow: &[Term], rrow: &[Term]| {
                out.data.extend(left_keep.iter().map(|&c| lrow[c]));
                out.data.extend(right_keep.iter().map(|&c| rrow[c]));
                out.len += 1;
            };
            match build {
                BuildSide::Right => hash_join(&right_rows, &left_rows, &rk, &lk, |b, p| {
                    emit(left_rows.row(p), right_rows.row(b))
                }),
                BuildSide::Left => hash_join(&left_rows, &right_rows, &lk, &rk, |b, p| {
                    emit(left_rows.row(b), right_rows.row(p))
                }),
            }
            out
        }
        PhysicalPlan::Filter { input, predicates } => {
            let mut batch = eval(input, inst, xml, nav_tuples)?;
            // In-place compaction: copy each surviving row down over the
            // gap left by dropped ones (rows are `Copy` terms).
            let width = batch.width;
            let mut kept = 0;
            for i in 0..batch.len {
                let row = batch.row(i);
                if predicates.iter().all(|(a, b)| resolve(a, row) != resolve(b, row)) {
                    if kept != i {
                        batch.data.copy_within(i * width..(i + 1) * width, kept * width);
                    }
                    kept += 1;
                }
            }
            batch.data.truncate(kept * width);
            batch.len = kept;
            batch
        }
        PhysicalPlan::Project { input, columns } => {
            let batch = eval(input, inst, xml, nav_tuples)?;
            let mut out = Batch::new(columns.len());
            out.data.reserve(columns.len() * batch.len);
            for i in 0..batch.len {
                let row = batch.row(i);
                out.data.extend(columns.iter().map(|op| resolve(op, row)));
                out.len += 1;
            }
            out
        }
        // Rows are a set: the one deduplication (and the output order) is
        // `execute_plan`'s, at the root.
        PhysicalPlan::Distinct { input } => eval(input, inst, xml, nav_tuples)?,
    })
}

#[cfg(test)]
mod tests {
    use crate::RelationalDatabase;
    use mars_cq::{Atom, ConjunctiveQuery, Predicate, Term};

    /// `r(k<i>, g<i mod 7>, x<i mod 3>, h<i mod 5>)` with `n` rows.
    fn database(n: usize) -> RelationalDatabase {
        let mut db = RelationalDatabase::new();
        for i in 0..n {
            let row = [
                format!("k{i}"),
                format!("g{}", i % 7),
                format!("x{}", i % 3),
                format!("h{}", i % 5),
            ];
            db.insert_strs("r", &row.iter().map(String::as_str).collect::<Vec<_>>());
        }
        db
    }

    fn lookup(args: Vec<Term>) -> ConjunctiveQuery {
        ConjunctiveQuery::new("Q").with_head(vec![Term::var("v")]).with_atom(Atom::named("r", args))
    }

    fn builds(db: &RelationalDatabase) -> usize {
        db.inst.relation_data(Predicate::new("r")).unwrap().index_builds()
    }

    /// A pushed-down scan follows the chase's access-path rule: a relation
    /// over `SCAN_THRESHOLD` rows is probed through one persistent index,
    /// built on the first lookup; a smaller one is scanned and builds none;
    /// and the rows are the naive evaluator's either way.
    #[test]
    fn pushed_down_scans_probe_a_persistent_index_above_the_scan_threshold() {
        let db = database(1_000);
        for i in (0..1_000).step_by(10) {
            let key = Term::constant_str(&format!("k{i}"));
            let q = lookup(vec![key, Term::var("v"), Term::var("a"), Term::var("b")]);
            assert_eq!(db.query(&q), vec![vec![Term::constant_str(&format!("g{}", i % 7))]]);
        }
        assert_eq!(builds(&db), 1, "100 lookups on one column build its index once");

        let small = database(mars_chase::SCAN_THRESHOLD);
        let q =
            lookup(vec![Term::constant_str("k3"), Term::var("v"), Term::var("a"), Term::var("b")]);
        assert_eq!(small.query(&q), vec![vec![Term::constant_str("g3")]]);
        assert_eq!(builds(&small), 0, "a relation of at most SCAN_THRESHOLD rows builds no index");

        let q = lookup(vec![
            Term::var("v"),
            Term::constant_str("g2"),
            Term::var("a"),
            Term::constant_str("h4"),
        ]);
        let text = db.plan(&q).to_string();
        assert!(text.contains("pushdown=[c1='g2', c3='h4']"), "two pushed columns:\n{text}");
        let rows = db.query(&q);
        assert_eq!(rows.len(), 1_000 / 35 + 1, "every 35th row carries g2 and h4");
        assert_eq!(builds(&db), 2, "the two columns have an index of their own");
        assert_eq!(rows, db.query_naive(&q));
    }
}
