//! The native navigation kernel: a conjunction of GReX navigation atoms
//! compiled once into typed steps and run over a flat slot batch.
//!
//! `NavPlan::compile` takes a `NavScan` leaf's atoms (body indices of the
//! query being run) in the order the planner
//! ([`mars_cost::physical_plan`]) chose for them — the order the leaf's
//! estimate prices — and resolves every atom's access path at compile time
//! from what is bound when it runs:
//!
//! | atom, bound arguments | step | enumerates |
//! |---|---|---|
//! | `root(n)` | `Root` | the root (binds or checks) |
//! | `el(n)`, `tag(n, t)` with `n` free | `Elements{tag}` | all elements / the by-tag bucket |
//! | `child(p, c)`, `p` bound | `Children{tag}` | `p`'s child elements |
//! | `child(p, c)`, `c` bound | `Parent` | `c`'s parent (binds or checks) |
//! | `desc(a, d)`, `a` bound | `Descendants{tag}` | a preorder slice / a sub-slice of the by-tag bucket |
//! | `desc(a, d)`, `d` bound | `Ancestors{tag}` | `d`'s ancestor chain |
//! | `desc(a, d)`, both bound | `IsDescendant` | two rank comparisons |
//! | `id(a, b)` | `Same` | the node itself (binds or checks) |
//! | `tag(n, t)`, `n` bound | `TagOf` | `n`'s tag (binds or checks — `TagCheck`) |
//! | `text(n, v)`, `n` bound | `TextOf` | `n`'s text (binds or checks) |
//! | `text(n, v)`, `v` bound | `TextProbe{tag}` | the by-text / by-(tag, text) bucket |
//! | `attr(n, a, v)` | `AttrOf` | `n`'s attributes |
//!
//! An atom with nothing bound is seeded by `Elements` on its node argument
//! first. `{tag}` is **tag pushdown**: when a step binds a node that a later
//! `tag(n, "c")` atom constrains, that atom is fused into the step, which
//! then enumerates through the matching index (or rejects candidates before
//! a row is written) and the atom's own step disappears.
//!
//! Slots are typed at compile time: a variable that only ever stands in node
//! positions of one document is a [`NodeId`] slot, everything else a
//! [`Term`] slot; the `"<doc>/n<k>"` constants are materialized only by
//! `NavPlan::execute`. The rare variable used both ways is a term slot
//! with `NodeOf` / `TermOf` conversion steps around the atoms that navigate
//! from it. Steps producing at most one row per input row run in place;
//! only the enumerating ones write a new batch.

use crate::doc_index::DocIndex;
use crate::executor::Batch;
use crate::xml_engine::{XmlStore, XmlStoreError};
use mars_cq::{Atom, NavBase, Term, Variable};
use mars_xml::{Document, NodeId};

/// A bound node operand: a slot of the row, or a constant of the query
/// resolved to its element at compile time.
#[derive(Clone, Copy, PartialEq)]
enum NodeIn {
    Slot(usize),
    Const(NodeId),
}

impl NodeIn {
    fn get(self, nodes: &[NodeId]) -> NodeId {
        match self {
            NodeIn::Slot(s) => nodes[s],
            NodeIn::Const(n) => n,
        }
    }
}

/// A bound value operand.
#[derive(Clone, Copy)]
enum ValueIn {
    Slot(usize),
    Const(Term),
}

impl ValueIn {
    fn get(self, values: &[Term]) -> Term {
        match self {
            ValueIn::Slot(s) => values[s],
            ValueIn::Const(t) => t,
        }
    }
}

/// What a step does with a node it produces: bind a free slot, or compare
/// with an operand that is already bound.
#[derive(Clone, Copy)]
enum NodeOut {
    Bind(usize),
    Check(NodeIn),
}

impl NodeOut {
    fn put(self, nodes: &mut [NodeId], n: NodeId) -> bool {
        match self {
            NodeOut::Bind(s) => {
                nodes[s] = n;
                true
            }
            NodeOut::Check(c) => c.get(nodes) == n,
        }
    }
}

/// The value counterpart of [`NodeOut`].
#[derive(Clone, Copy)]
enum ValueOut {
    Bind(usize),
    Check(ValueIn),
}

impl ValueOut {
    fn put(self, values: &mut [Term], t: Term) -> bool {
        match self {
            ValueOut::Bind(s) => {
                values[s] = t;
                true
            }
            ValueOut::Check(c) => c.get(values) == t,
        }
    }
}

/// One compiled navigation step (see the module table). `doc` indexes
/// [`NavPlan::docs`]; `out` is the node slot an enumerating step binds.
enum Step {
    Elements {
        doc: usize,
        out: usize,
        tag: Option<ValueIn>,
    },
    Children {
        doc: usize,
        parent: NodeIn,
        out: usize,
        tag: Option<ValueIn>,
    },
    Descendants {
        doc: usize,
        ancestor: NodeIn,
        out: usize,
        tag: Option<ValueIn>,
    },
    Ancestors {
        doc: usize,
        descendant: NodeIn,
        out: usize,
        tag: Option<ValueIn>,
    },
    TextProbe {
        doc: usize,
        value: ValueIn,
        out: usize,
        tag: Option<ValueIn>,
    },
    AttrOf {
        doc: usize,
        node: NodeIn,
        name: ValueOut,
        value: ValueOut,
    },
    Root {
        doc: usize,
        node: NodeOut,
    },
    Parent {
        doc: usize,
        child: NodeIn,
        parent: NodeOut,
    },
    Same {
        from: NodeIn,
        to: NodeOut,
    },
    IsDescendant {
        doc: usize,
        ancestor: NodeIn,
        descendant: NodeIn,
    },
    TagOf {
        doc: usize,
        node: NodeIn,
        tag: ValueOut,
    },
    TextOf {
        doc: usize,
        node: NodeIn,
        value: ValueOut,
    },
    /// The element a bound term denotes (drops the row if none).
    NodeOf {
        doc: usize,
        term: ValueIn,
        out: usize,
    },
    /// The node constant of a bound element.
    TermOf {
        doc: usize,
        node: NodeIn,
        term: ValueOut,
    },
}

/// Where a variable lives in the batch.
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    Node { slot: usize, doc: usize },
    Value(usize),
}

/// An argument as the compiler sees it when its atom runs.
#[derive(Clone, Copy)]
enum Arg<I> {
    Bound(I),
    Free(usize),
}

/// The binding batch: `len` rows of `node_width` node slots and
/// `value_width` term slots, row-major in two flat allocations. A slot holds
/// a placeholder until the step that binds it has run; the compiler never
/// emits a read before that.
struct Rows {
    node_width: usize,
    value_width: usize,
    len: usize,
    nodes: Vec<NodeId>,
    values: Vec<Term>,
}

impl Rows {
    fn empty(node_width: usize, value_width: usize) -> Rows {
        Rows { node_width, value_width, len: 0, nodes: Vec::new(), values: Vec::new() }
    }

    fn nodes(&self, i: usize) -> &[NodeId] {
        &self.nodes[i * self.node_width..(i + 1) * self.node_width]
    }

    fn values(&self, i: usize) -> &[Term] {
        &self.values[i * self.value_width..(i + 1) * self.value_width]
    }

    /// Append row `i` of `from` with node slot `slot` bound to `node`.
    fn push_bound(&mut self, from: &Rows, i: usize, slot: usize, node: NodeId) {
        let at = self.nodes.len();
        self.nodes.extend_from_slice(from.nodes(i));
        self.nodes[at + slot] = node;
        self.values.extend_from_slice(from.values(i));
        self.len += 1;
    }

    /// Run an at-most-one-output step in place: `step` binds or checks on
    /// the row it is handed and says whether the row survives; survivors are
    /// compacted down over the gaps.
    fn retain(&mut self, mut step: impl FnMut(&mut [NodeId], &mut [Term]) -> bool) {
        let (nw, vw) = (self.node_width, self.value_width);
        let mut kept = 0;
        for i in 0..self.len {
            let nodes = &mut self.nodes[i * nw..(i + 1) * nw];
            let values = &mut self.values[i * vw..(i + 1) * vw];
            if step(nodes, values) {
                if kept != i {
                    self.nodes.copy_within(i * nw..(i + 1) * nw, kept * nw);
                    self.values.copy_within(i * vw..(i + 1) * vw, kept * vw);
                }
                kept += 1;
            }
        }
        self.nodes.truncate(kept * nw);
        self.values.truncate(kept * vw);
        self.len = kept;
    }
}

/// A compiled navigation plan over the documents of one [`XmlStore`].
pub(crate) struct NavPlan<'s> {
    docs: Vec<(&'s Document, &'s DocIndex)>,
    steps: Vec<Step>,
    /// `false` when a constant in a node position denotes no element of its
    /// document: no binding can exist and nothing runs.
    satisfiable: bool,
    slots: Vec<(Variable, Slot)>,
    node_width: usize,
    value_width: usize,
}

/// Compilation state: the plan under construction plus what is bound so far.
struct Compiler<'a, 's> {
    plan: NavPlan<'s>,
    atoms: Vec<&'a Atom>,
    /// Base and document (an index into `plan.docs`) per atom.
    parsed: Vec<(NavBase, usize)>,
    /// Tag atoms fused into the step that binds their node.
    fused: Vec<bool>,
    node_bound: Vec<bool>,
    value_bound: Vec<bool>,
    /// Hidden node slots standing in for a free term-slot variable, to be
    /// converted back once the atom that binds them has been emitted.
    pending: Vec<(usize, usize, usize)>,
}

impl<'s> NavPlan<'s> {
    /// Compile the atoms of `body` that `order` indexes, in that order,
    /// against the documents of `xml`.
    ///
    /// # Errors
    ///
    /// [`XmlStoreError::NotNavigable`] for an atom that is not GReX
    /// navigation, [`XmlStoreError::MissingDocument`] for navigation over a
    /// document the store does not hold.
    pub(crate) fn compile(
        body: &[Atom],
        order: &[usize],
        xml: &'s XmlStore,
    ) -> Result<NavPlan<'s>, XmlStoreError> {
        let atoms: Vec<&Atom> = order.iter().map(|&i| &body[i]).collect();
        let mut docs: Vec<(&Document, &DocIndex)> = Vec::new();
        let mut parsed = Vec::with_capacity(atoms.len());
        for atom in &atoms {
            let (base, document) = atom
                .navigation()
                .ok_or(XmlStoreError::NotNavigable { predicate: atom.predicate })?;
            let doc = match docs.iter().position(|(d, _)| d.name == document) {
                Some(doc) => doc,
                None => {
                    docs.push(xml.indexed(document).ok_or_else(|| {
                        XmlStoreError::MissingDocument { document: document.to_string() }
                    })?);
                    docs.len() - 1
                }
            };
            parsed.push((base, doc));
        }
        // A variable is a node slot when every occurrence is a node position
        // of one document; any other use makes it a term slot.
        let mut kinds: Vec<(Variable, Option<usize>)> = Vec::new();
        for (atom, &(base, doc)) in atoms.iter().zip(&parsed) {
            for (k, t) in atom.args.iter().enumerate() {
                let Term::Var(v) = t else { continue };
                let kind = (k == 0 || matches!(base, NavBase::Child | NavBase::Desc | NavBase::Id))
                    .then_some(doc);
                match kinds.iter_mut().find(|(w, _)| w == v) {
                    Some((_, seen)) if *seen != kind => *seen = None,
                    Some(_) => {}
                    None => kinds.push((*v, kind)),
                }
            }
        }
        let (mut node_width, mut value_width) = (0, 0);
        let slots = kinds
            .into_iter()
            .map(|(v, kind)| {
                let width = if kind.is_some() { &mut node_width } else { &mut value_width };
                *width += 1;
                let slot = match kind {
                    Some(doc) => Slot::Node { slot: *width - 1, doc },
                    None => Slot::Value(*width - 1),
                };
                (v, slot)
            })
            .collect();

        let mut compiler = Compiler {
            plan: NavPlan {
                docs,
                steps: Vec::new(),
                satisfiable: true,
                slots,
                node_width,
                value_width,
            },
            fused: vec![false; atoms.len()],
            atoms,
            parsed,
            node_bound: vec![false; node_width],
            value_bound: vec![false; value_width],
            pending: Vec::new(),
        };
        for at in 0..compiler.atoms.len() {
            if !compiler.fused[at] && compiler.atom(at).is_none() {
                compiler.plan.satisfiable = false;
                break;
            }
        }
        Ok(compiler.plan)
    }

    fn slot(&self, v: Variable) -> Option<Slot> {
        self.slots.iter().find(|(w, _)| *w == v).map(|(_, s)| *s)
    }

    /// Run the plan. Returns the surviving bindings and the number of
    /// candidate tuples enumerated on the way: per step, one per input row
    /// for an in-place step, one per candidate for an enumerating one.
    fn run(&self) -> (Rows, u64) {
        let mut rows = Rows::empty(self.node_width, self.value_width);
        let mut tuples = 0u64;
        if !self.satisfiable {
            return (rows, tuples);
        }
        rows.nodes = vec![NodeId(0); self.node_width];
        rows.values = vec![Term::constant_int(0); self.value_width];
        rows.len = 1;
        for step in &self.steps {
            if rows.len == 0 {
                break;
            }
            rows = self.step(step, rows, &mut tuples);
        }
        (rows, tuples)
    }

    fn step(&self, step: &Step, mut rows: Rows, tuples: &mut u64) -> Rows {
        // Enumerating steps fill `next`; in-place steps return `rows`.
        let mut next = Rows::empty(self.node_width, self.value_width);
        let has_tag = |index: &DocIndex, tag: Option<ValueIn>, values: &[Term], n: NodeId| {
            tag.is_none_or(|t| index.tag_term(n) == t.get(values))
        };
        match *step {
            Step::Elements { doc, out, tag } => {
                let index = self.docs[doc].1;
                for i in 0..rows.len {
                    let found = match tag {
                        Some(t) => index.with_tag(t.get(rows.values(i))),
                        None => index.elements(),
                    };
                    *tuples += found.len() as u64;
                    for &n in found {
                        next.push_bound(&rows, i, out, n);
                    }
                }
            }
            Step::Children { doc, parent, out, tag } => {
                let (document, index) = self.docs[doc];
                for i in 0..rows.len {
                    for c in document.child_elements(parent.get(rows.nodes(i))) {
                        *tuples += 1;
                        if has_tag(index, tag, rows.values(i), c) {
                            next.push_bound(&rows, i, out, c);
                        }
                    }
                }
            }
            Step::Descendants { doc, ancestor, out, tag } => {
                let index = self.docs[doc].1;
                for i in 0..rows.len {
                    let a = ancestor.get(rows.nodes(i));
                    let found = match tag {
                        Some(t) => index.descendants_with_tag(a, t.get(rows.values(i))),
                        None => index.descendants_or_self(a),
                    };
                    *tuples += found.len() as u64;
                    for &d in found {
                        next.push_bound(&rows, i, out, d);
                    }
                }
            }
            Step::Ancestors { doc, descendant, out, tag } => {
                let (document, index) = self.docs[doc];
                for i in 0..rows.len {
                    // desc is descendant-or-self: the walk starts at the node.
                    let mut at = Some(descendant.get(rows.nodes(i)));
                    while let Some(a) = at {
                        *tuples += 1;
                        if has_tag(index, tag, rows.values(i), a) {
                            next.push_bound(&rows, i, out, a);
                        }
                        at = document.node(a).parent;
                    }
                }
            }
            Step::TextProbe { doc, value, out, tag } => {
                let index = self.docs[doc].1;
                for i in 0..rows.len {
                    let values = rows.values(i);
                    let found = match tag {
                        Some(t) => index.with_tag_and_text(t.get(values), value.get(values)),
                        None => index.with_text(value.get(values)),
                    };
                    *tuples += found.len() as u64;
                    for &n in found {
                        next.push_bound(&rows, i, out, n);
                    }
                }
            }
            Step::AttrOf { doc, node, name, value } => {
                let index = self.docs[doc].1;
                let vw = self.value_width;
                for i in 0..rows.len {
                    for &(a, v) in index.attributes(node.get(rows.nodes(i))) {
                        *tuples += 1;
                        // Written first, checked after: `value` may compare
                        // against the slot `name` has just bound.
                        next.values.extend_from_slice(rows.values(i));
                        let written = next.values.len() - vw;
                        let row = &mut next.values[written..];
                        if name.put(row, a) && value.put(row, v) {
                            next.nodes.extend_from_slice(rows.nodes(i));
                            next.len += 1;
                        } else {
                            next.values.truncate(written);
                        }
                    }
                }
            }
            Step::Root { doc, node } => {
                let root = self.docs[doc].0.root();
                *tuples += rows.len as u64;
                rows.retain(|nodes, _| root.is_some_and(|r| node.put(nodes, r)));
                return rows;
            }
            Step::Parent { doc, child, parent } => {
                let document = self.docs[doc].0;
                *tuples += rows.len as u64;
                rows.retain(|nodes, _| {
                    document.node(child.get(nodes)).parent.is_some_and(|p| parent.put(nodes, p))
                });
                return rows;
            }
            Step::Same { from, to } => {
                *tuples += rows.len as u64;
                rows.retain(|nodes, _| to.put(nodes, from.get(nodes)));
                return rows;
            }
            Step::IsDescendant { doc, ancestor, descendant } => {
                let index = self.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|nodes, _| {
                    index.is_descendant_or_self(ancestor.get(nodes), descendant.get(nodes))
                });
                return rows;
            }
            Step::TagOf { doc, node, tag } => {
                let index = self.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|nodes, values| tag.put(values, index.tag_term(node.get(nodes))));
                return rows;
            }
            Step::TextOf { doc, node, value } => {
                let index = self.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|nodes, values| {
                    index.text_term(node.get(nodes)).is_some_and(|t| value.put(values, t))
                });
                return rows;
            }
            Step::NodeOf { doc, term, out } => {
                let index = self.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|nodes, values| {
                    index.node_of(term.get(values)).map(|n| nodes[out] = n).is_some()
                });
                return rows;
            }
            Step::TermOf { doc, node, term } => {
                let index = self.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|nodes, values| term.put(values, index.node_term(node.get(nodes))));
                return rows;
            }
        }
        next
    }

    /// Run the plan and materialize `columns` (variables the plan binds) as
    /// a term batch — the one place node slots become `"<doc>/n<k>"`
    /// constants. Also returns the candidate tuples enumerated.
    pub(crate) fn execute(&self, columns: impl Iterator<Item = Variable>) -> (Batch, u64) {
        let (rows, tuples) = self.run();
        let slots: Vec<Slot> = columns
            .map(|v| self.slot(v).expect("projected columns are variables the plan binds"))
            .collect();
        let mut out = Batch::new(slots.len());
        out.data.reserve(slots.len() * rows.len);
        for i in 0..rows.len {
            out.data.extend(slots.iter().map(|slot| match *slot {
                Slot::Node { slot, doc } => self.docs[doc].1.node_term(rows.nodes(i)[slot]),
                Slot::Value(slot) => rows.values(i)[slot],
            }));
        }
        out.len = rows.len;
        (out, tuples)
    }
}

impl Compiler<'_, '_> {
    fn index(&self, doc: usize) -> &DocIndex {
        self.plan.docs[doc].1
    }

    fn hidden_node_slot(&mut self) -> usize {
        self.node_bound.push(false);
        self.plan.node_width += 1;
        self.plan.node_width - 1
    }

    /// Resolve a node-position argument. `None`: a constant that denotes no
    /// element of `doc`, so the atom — and the plan — matches nothing.
    fn node_arg(&mut self, t: Term, doc: usize) -> Option<Arg<NodeIn>> {
        let Term::Var(v) = t else {
            return self.index(doc).node_of(t).map(|n| Arg::Bound(NodeIn::Const(n)));
        };
        Some(match self.plan.slot(v).expect("every variable of the atoms has a slot") {
            Slot::Node { slot, .. } if self.node_bound[slot] => Arg::Bound(NodeIn::Slot(slot)),
            Slot::Node { slot, .. } => Arg::Free(slot),
            // A term-slot variable in a node position navigates through a
            // hidden node slot: looked up before the atom when the variable
            // is bound, converted back after it otherwise.
            Slot::Value(value) => {
                let hidden = self.hidden_node_slot();
                if self.value_bound[value] {
                    self.plan.steps.push(Step::NodeOf {
                        doc,
                        term: ValueIn::Slot(value),
                        out: hidden,
                    });
                    self.node_bound[hidden] = true;
                    Arg::Bound(NodeIn::Slot(hidden))
                } else {
                    self.pending.push((doc, hidden, value));
                    Arg::Free(hidden)
                }
            }
        })
    }

    fn value_arg(&self, t: Term) -> Arg<ValueIn> {
        let Term::Var(v) = t else { return Arg::Bound(ValueIn::Const(t)) };
        match self.plan.slot(v).expect("every variable of the atoms has a slot") {
            Slot::Value(slot) if self.value_bound[slot] => Arg::Bound(ValueIn::Slot(slot)),
            Slot::Value(slot) => Arg::Free(slot),
            Slot::Node { .. } => unreachable!("a variable in a value position is a term slot"),
        }
    }

    fn node_out(&mut self, arg: Arg<NodeIn>) -> NodeOut {
        match arg {
            Arg::Bound(n) => NodeOut::Check(n),
            Arg::Free(slot) => {
                self.node_bound[slot] = true;
                NodeOut::Bind(slot)
            }
        }
    }

    fn value_out(&mut self, t: Term) -> ValueOut {
        match self.value_arg(t) {
            Arg::Bound(v) => ValueOut::Check(v),
            Arg::Free(slot) => {
                self.value_bound[slot] = true;
                ValueOut::Bind(slot)
            }
        }
    }

    /// Tag pushdown: claim a later `tag(t, "c")` atom over `doc` for the
    /// step about to bind the free node variable `t`.
    fn fuse_tag(&mut self, t: Term, doc: usize, at: usize) -> Option<ValueIn> {
        if !matches!(t, Term::Var(v) if matches!(self.plan.slot(v), Some(Slot::Node { .. }))) {
            return None;
        }
        let later = (at + 1..self.atoms.len()).find(|&j| {
            let tag = &self.atoms[j];
            !self.fused[j]
                && self.parsed[j] == (NavBase::Tag, doc)
                && tag.args[0] == t
                && tag.args[1].is_const()
        })?;
        self.fused[later] = true;
        Some(ValueIn::Const(self.atoms[later].args[1]))
    }

    /// Make a node argument bound, enumerating all elements into it if free.
    fn seeded(&mut self, arg: Arg<NodeIn>, t: Term, doc: usize, at: usize) -> NodeIn {
        match arg {
            Arg::Bound(n) => n,
            Arg::Free(out) => {
                let tag = self.fuse_tag(t, doc, at);
                self.plan.steps.push(Step::Elements { doc, out, tag });
                self.node_bound[out] = true;
                NodeIn::Slot(out)
            }
        }
    }

    /// Emit the steps of the atom at position `at`. `None` when the atom can
    /// match nothing (see [`Compiler::node_arg`]).
    fn atom(&mut self, at: usize) -> Option<()> {
        let (base, doc) = self.parsed[at];
        let atom = self.atoms[at];
        let args = &atom.args;
        let (t0, t1) = (args[0], args.get(1).copied());
        let first = self.node_arg(t0, doc)?;
        let step = match base {
            NavBase::Root => Step::Root { doc, node: self.node_out(first) },
            // A bound node slot only ever holds elements of its document.
            NavBase::El => {
                self.seeded(first, t0, doc, at);
                return self.convert_pending();
            }
            NavBase::Child | NavBase::Desc | NavBase::Id => {
                let t1 = t1.expect("arity checked by Atom::navigation");
                let mut second = self.node_arg(t1, doc)?;
                // The cheap direction of an edge with one bound end.
                if let (Arg::Free(out), Arg::Bound(bound)) = (first, second) {
                    self.node_bound[out] = true;
                    let step = match base {
                        NavBase::Child => {
                            Step::Parent { doc, child: bound, parent: NodeOut::Bind(out) }
                        }
                        NavBase::Desc => {
                            let tag = self.fuse_tag(t0, doc, at);
                            Step::Ancestors { doc, descendant: bound, out, tag }
                        }
                        _ => Step::Same { from: bound, to: NodeOut::Bind(out) },
                    };
                    self.plan.steps.push(step);
                    return self.convert_pending();
                }
                let from = self.seeded(first, t0, doc, at);
                // `p(x, x)` with `x` free: the seed has just bound it.
                if matches!(second, Arg::Free(s) if from == NodeIn::Slot(s)) {
                    second = Arg::Bound(from);
                }
                match (base, second) {
                    (NavBase::Child, Arg::Bound(c)) => {
                        Step::Parent { doc, child: c, parent: NodeOut::Check(from) }
                    }
                    (NavBase::Child, Arg::Free(out)) => {
                        self.node_bound[out] = true;
                        let tag = self.fuse_tag(t1, doc, at);
                        Step::Children { doc, parent: from, out, tag }
                    }
                    (NavBase::Desc, Arg::Bound(d)) => {
                        Step::IsDescendant { doc, ancestor: from, descendant: d }
                    }
                    (NavBase::Desc, Arg::Free(out)) => {
                        self.node_bound[out] = true;
                        let tag = self.fuse_tag(t1, doc, at);
                        Step::Descendants { doc, ancestor: from, out, tag }
                    }
                    (_, second) => Step::Same { from, to: self.node_out(second) },
                }
            }
            NavBase::Tag => {
                let t1 = t1.expect("arity checked by Atom::navigation");
                match (first, self.value_arg(t1)) {
                    // The by-tag bucket is the atom's whole answer.
                    (Arg::Free(out), Arg::Bound(tag)) => {
                        self.node_bound[out] = true;
                        Step::Elements { doc, out, tag: Some(tag) }
                    }
                    _ => {
                        let node = self.seeded(first, t0, doc, at);
                        Step::TagOf { doc, node, tag: self.value_out(t1) }
                    }
                }
            }
            NavBase::Text => {
                let t1 = t1.expect("arity checked by Atom::navigation");
                match (first, self.value_arg(t1)) {
                    (Arg::Free(out), Arg::Bound(value)) => {
                        self.node_bound[out] = true;
                        let tag = self.fuse_tag(t0, doc, at);
                        Step::TextProbe { doc, value, out, tag }
                    }
                    _ => {
                        let node = self.seeded(first, t0, doc, at);
                        Step::TextOf { doc, node, value: self.value_out(t1) }
                    }
                }
            }
            NavBase::Attr => {
                let node = self.seeded(first, t0, doc, at);
                // Resolved in argument order: `attr(n, v, v)` binds `v` to
                // the name and checks the value against it.
                let name = self.value_out(args[1]);
                let value = self.value_out(args[2]);
                Step::AttrOf { doc, node, name, value }
            }
        };
        self.plan.steps.push(step);
        self.convert_pending()
    }

    /// Convert the hidden node slots the atom just bound back into their
    /// term-slot variables (binding the variable, or checking it when the
    /// same atom bound it through another argument).
    fn convert_pending(&mut self) -> Option<()> {
        for (doc, hidden, value) in std::mem::take(&mut self.pending) {
            let term = if self.value_bound[value] {
                ValueOut::Check(ValueIn::Slot(value))
            } else {
                self.value_bound[value] = true;
                ValueOut::Bind(value)
            };
            self.plan.steps.push(Step::TermOf { doc, node: NodeIn::Slot(hidden), term });
        }
        Some(())
    }
}
