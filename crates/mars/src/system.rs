//! The MARS system: schema correspondence compilation and query reformulation.

use crate::error::MarsError;
use crate::result::{BlockReformulation, MarsResult};
use mars_chase::{CbOptions, ChaseBackchase, ReformulationBudget};
use mars_cq::{ConjunctiveQuery, Constant, Ded, Predicate, Term};
use mars_grex::{
    compile_view, compile_xbind, compile_xic, tix_constraints_core, CompileContext, GrexSchema,
    ViewDef,
};
use mars_specialize::{specialize_query, specialize_view, specialize_xic, SpecializationMapping};
use mars_xml::Step;
use mars_xquery::{decorrelate, parse_xquery, XBindAtom, XBindQuery, XBindTerm, Xic};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The schema correspondence between the public and proprietary schemas
/// (Section 2.1 "The schema correspondence").
#[derive(Clone, Debug, Default)]
pub struct SchemaCorrespondence {
    /// Public (virtual) documents client queries may navigate.
    pub public_documents: Vec<String>,
    /// GAV views: proprietary → public (e.g. `CaseMap`, `IdMap`).
    pub gav_views: Vec<ViewDef>,
    /// LAV views: public/proprietary → redundant proprietary storage
    /// (e.g. `DrugPriceMap`, the `cacheEntry.xml` cache).
    pub lav_views: Vec<ViewDef>,
    /// XML integrity constraints on public or proprietary documents.
    pub xics: Vec<Xic>,
    /// Relational integrity constraints (already in DED form).
    pub relational_constraints: Vec<Ded>,
    /// Proprietary base relations (tables reformulations may scan).
    pub proprietary_relations: Vec<String>,
    /// Proprietary native XML documents (reformulations may navigate them).
    pub proprietary_documents: Vec<String>,
    /// Schema specializations (Section 5), applied when
    /// [`MarsOptions::use_specialization`] is set.
    pub specializations: Vec<SpecializationMapping>,
}

impl SchemaCorrespondence {
    /// Every document taking part in the correspondence (public, proprietary,
    /// and XML view outputs) — each gets a copy of TIX.
    pub fn all_documents(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |d: &str| {
            if !out.iter().any(|x| x == d) {
                out.push(d.to_string());
            }
        };
        for d in &self.public_documents {
            push(d);
        }
        for d in &self.proprietary_documents {
            push(d);
        }
        for v in self.gav_views.iter().chain(self.lav_views.iter()) {
            if let mars_grex::ViewOutput::XmlFlat { document, .. } = &v.output {
                push(document);
            }
            for a in &v.body.atoms {
                if let XBindAtom::AbsolutePath { document, .. } = a {
                    push(document);
                }
            }
        }
        out
    }
}

/// The document of a DTD-style `unique_child` XIC ([`Xic::unique_child`])
/// over a field a specialization mapping covers: its premise binds `p` by
/// the mapping's entity path and reads one child path `c` from `p` twice,
/// as `n` and `m`; its one conclusion is `n = m`; and `c`, or `c/text()`,
/// is a field path of the mapping. At the spec level such an XIC says what
/// the mapping's functional dependency says.
fn covered_unique_child<'a>(xic: &Xic, mappings: &'a [SpecializationMapping]) -> Option<&'a str> {
    let [XBindAtom::AbsolutePath { document, path, var: p }, XBindAtom::RelativePath { path: c, source: s, var: n }, XBindAtom::RelativePath { path: c2, source: s2, var: m }] =
        xic.premise.as_slice()
    else {
        return None;
    };
    let [conclusion] = xic.conclusions.as_slice() else { return None };
    let (n, m) = (XBindTerm::var(n), XBindTerm::var(m));
    let equal = conclusion.equalities == [(n.clone(), m.clone())]
        || conclusion.equalities == [(m.clone(), n.clone())];
    if c != c2 || s != p || s2 != p || n == m || !conclusion.atoms.is_empty() || !equal {
        return None;
    }
    let mut text = c.clone();
    text.steps.push(Step::Text);
    mappings
        .iter()
        .find(|mapping| {
            &mapping.document == document
                && &mapping.entity_path == path
                && mapping.fields.iter().any(|f| f.path == *c || f.path == text)
        })
        .map(|mapping| mapping.document.as_str())
}

/// The positions of the navigation layers of the *abbreviated* documents,
/// ascending: the dependencies a spec-level back-chase leaves out.
///
/// `layers` holds each document's navigation layer: its mappings'
/// definitional pairs `c_m` / `b_m`, its TIX and the `unique_child` XICs
/// over fields a mapping covers. A document is abbreviated when every
/// mapping over it has single-valued fields, and no dependency outside its
/// layer mentions its navigation: no view's `c_V` / `b_V`, GAV or LAV, no
/// other XIC (after specialization), no relational constraint. The caller
/// checks that specialization replaces navigation.
///
/// A spec-level back-chase then confirms every candidate the full one
/// does, as long as neither the query nor the candidate pool navigates.
/// Inside such a back-chase navigation only comes from the `b_m` steps.
/// What the layer derives from it is either more navigation, which no
/// dependency outside the layer reads, or a specialization atom that
/// `c_m` reads back off the navigation `b_m` wrote. Those atoms are equal
/// to existing ones up to the fields, and the mapping's functional
/// dependency, which stays, merges the fields. The `unique_child` XICs'
/// merges of field nodes are that same dependency, one level down.
fn abbreviated_layers(
    deds: &[Ded],
    layers: &HashMap<&str, Vec<usize>>,
    mappings: &[SpecializationMapping],
) -> Vec<usize> {
    let navigates = |ded: &Ded, document: &str| {
        ded.premise
            .iter()
            .chain(ded.conclusions.iter().flat_map(|c| &c.atoms))
            .any(|a| a.navigation().is_some_and(|(_, d)| d == document))
    };
    let mut out: Vec<usize> = layers
        .iter()
        .filter(|(document, layer)| {
            mappings.iter().filter(|m| m.document == **document).all(|m| m.single_valued)
                && deds
                    .iter()
                    .enumerate()
                    .all(|(i, ded)| layer.contains(&i) || !navigates(ded, document))
        })
        .flat_map(|(_, layer)| layer.iter().copied())
        .collect();
    out.sort_unstable();
    out
}

/// Options controlling the MARS pipeline.
#[derive(Clone, Debug)]
pub struct MarsOptions {
    /// Apply schema specialization (Section 5) before compilation.
    pub use_specialization: bool,
    /// When specialization is active, access specialized proprietary
    /// documents *exclusively* through their specialization relations: the
    /// raw GReX navigation predicates of a proprietary document covered by at
    /// least one specialization mapping are withheld from the proprietary
    /// schema. Reformulations (and the backchase candidate pool) then mention
    /// only specialization relations, materialized views and unspecialized
    /// documents — the Section 5 search-space reduction. Leave `false` for
    /// mixed storage whose queries navigate parts of a document no
    /// specialization covers (e.g. attributes outside the mapped fields).
    pub spec_replaces_navigation: bool,
    /// Add the TIX built-in constraints for every document.
    pub include_tix: bool,
    /// Chase & Backchase options.
    pub cb: CbOptions,
}

impl Default for MarsOptions {
    fn default() -> Self {
        MarsOptions {
            use_specialization: false,
            spec_replaces_navigation: false,
            include_tix: true,
            cb: CbOptions::default(),
        }
    }
}

impl MarsOptions {
    /// Options with specialization enabled.
    pub fn specialized() -> MarsOptions {
        MarsOptions { use_specialization: true, ..Default::default() }
    }

    /// Options that enumerate all minimal reformulations.
    pub fn exhaustive(mut self) -> MarsOptions {
        self.cb = CbOptions::exhaustive();
        self
    }
}

/// The MARS system, ready to reformulate client queries.
pub struct Mars {
    correspondence: SchemaCorrespondence,
    options: MarsOptions,
    engine: ChaseBackchase,
}

impl Mars {
    /// Build the system: compile the correspondence into DEDs and set up the
    /// C&B engine with the default options.
    pub fn new(correspondence: SchemaCorrespondence) -> Mars {
        Mars::with_options(correspondence, MarsOptions::default())
    }

    /// Build the system with explicit options.
    pub fn with_options(correspondence: SchemaCorrespondence, options: MarsOptions) -> Mars {
        let (deds, navigation_layer, proprietary) = Self::compile(&correspondence, &options);
        let engine = ChaseBackchase::new(deds, &navigation_layer, proprietary)
            .with_options(options.cb.clone());
        Mars { correspondence, options, engine }
    }

    /// The compiled dependency set (schema correspondence + XICs + TIX).
    pub fn dependencies(&self) -> &[Ded] {
        self.engine.deds()
    }

    /// The schema correspondence this system was built from.
    pub fn correspondence(&self) -> &SchemaCorrespondence {
        &self.correspondence
    }

    /// A digest of everything a reformulation depends on besides the query
    /// itself: the compiled dependency set, the proprietary-schema predicates
    /// and the pipeline options. Two systems with equal fingerprints
    /// reformulate identical inputs identically, so the fingerprint is the
    /// invalidation key of the [`crate::PlanCache`] — rebuilding the system
    /// from a changed correspondence changes the fingerprint and strands
    /// every cached plan of the old one.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for d in self.engine.deds() {
            d.to_string().hash(&mut h);
        }
        let mut proprietary: Vec<&str> = self.engine.proprietary.iter().map(|p| p.name()).collect();
        proprietary.sort_unstable();
        proprietary.hash(&mut h);
        format!("{:?}", self.options).hash(&mut h);
        h.finish()
    }

    /// Every string constant the compiled dependency set mentions, plus all
    /// document names of the correspondence. These constants are *structural*:
    /// the chase joins a client query's constants against them, so the plan
    /// cache must never parameterize them out of a query shape (see
    /// [`mars_xquery::shape_of`]).
    pub fn reserved_constants(&self) -> HashSet<String> {
        fn push(out: &mut HashSet<String>, t: &Term) {
            if let Term::Const(c @ Constant::Str(_)) = t {
                out.insert(c.render());
            }
        }
        let mut out = HashSet::new();
        for d in self.engine.deds() {
            for a in &d.premise {
                for t in &a.args {
                    push(&mut out, t);
                }
            }
            for (a, b) in &d.premise_inequalities {
                push(&mut out, a);
                push(&mut out, b);
            }
            for c in &d.conclusions {
                for atom in &c.atoms {
                    for t in &atom.args {
                        push(&mut out, t);
                    }
                }
                for (a, b) in &c.equalities {
                    push(&mut out, a);
                    push(&mut out, b);
                }
            }
        }
        out.extend(self.correspondence.all_documents());
        out
    }

    /// Compile the correspondence: the dependency set, the positions in it
    /// of every abbreviated document's navigation layer (see
    /// [`abbreviated_layers`]), and the proprietary schema.
    fn compile(
        corr: &SchemaCorrespondence,
        options: &MarsOptions,
    ) -> (Vec<Ded>, Vec<usize>, HashSet<Predicate>) {
        let mut ctx = CompileContext::new();
        let mut deds: Vec<Ded> = Vec::new();
        let mut proprietary: HashSet<Predicate> = HashSet::new();
        // Per document, the dependencies of its navigation layer: its
        // mappings' definitional pairs, its TIX, and the `unique_child`
        // XICs a mapping's functional dependency restates.
        let mut layers: HashMap<&str, Vec<usize>> = HashMap::new();

        let specialize_active = options.use_specialization && !corr.specializations.is_empty();
        let maybe_spec_view = |v: &ViewDef| -> ViewDef {
            if specialize_active {
                specialize_view(v, &corr.specializations)
            } else {
                v.clone()
            }
        };

        // Views (GAV and LAV are compiled identically — direction neutrality).
        for view in corr.gav_views.iter().chain(corr.lav_views.iter()) {
            let v = maybe_spec_view(view);
            deds.extend(compile_view(&mut ctx, &v));
        }
        // LAV view outputs are redundant proprietary storage.
        for view in &corr.lav_views {
            proprietary.extend(view.output_predicates());
        }

        // XICs.
        for xic in &corr.xics {
            let x = if specialize_active {
                specialize_xic(xic, &corr.specializations)
            } else {
                xic.clone()
            };
            if let Some(document) = covered_unique_child(xic, &corr.specializations) {
                layers.entry(document).or_default().push(deds.len());
            }
            deds.push(compile_xic(&mut ctx, &x));
        }

        // Relational constraints are passed through.
        deds.extend(corr.relational_constraints.iter().cloned());

        // Specialization relations: definitional constraints linking each
        // relation to the navigation it abbreviates, and (when specialization
        // is active and the document is proprietary) membership in the
        // proprietary schema.
        if specialize_active {
            for m in &corr.specializations {
                let start = deds.len();
                deds.extend(compile_view(&mut ctx, &m.definition_view()));
                layers.entry(&m.document).or_default().extend(start..deds.len());
                deds.extend(m.functional_dependency());
                if corr.proprietary_documents.contains(&m.document) {
                    proprietary.insert(Predicate::new(&m.relation));
                }
            }
        }

        // TIX for every document involved.
        if options.include_tix {
            for doc in corr.all_documents() {
                let start = deds.len();
                deds.extend(tix_constraints_core(&GrexSchema::new(&doc)));
                if let Some(d) = corr.specializations.iter().find(|m| m.document == doc) {
                    layers.entry(&d.document).or_default().extend(start..deds.len());
                }
            }
        }

        // Proprietary base relations and native documents. When specialization
        // is active and replaces navigation, a specialized proprietary
        // document contributes only its specialization relations (added
        // above), not its raw GReX predicates.
        for r in &corr.proprietary_relations {
            proprietary.insert(Predicate::new(r));
        }
        for d in &corr.proprietary_documents {
            let specialized = specialize_active
                && options.spec_replaces_navigation
                && corr.specializations.iter().any(|m| &m.document == d);
            if !specialized {
                proprietary.extend(GrexSchema::new(d).all_predicates());
            }
        }

        let navigation_layer = if specialize_active && options.spec_replaces_navigation {
            abbreviated_layers(&deds, &layers, &corr.specializations)
        } else {
            Vec::new()
        };
        (deds, navigation_layer, proprietary)
    }

    /// Reformulate a single XBind query (one navigation block).
    pub fn reformulate_xbind(&self, xbind: &XBindQuery) -> BlockReformulation {
        self.reformulate_within(xbind, &ReformulationBudget::unbounded())
    }

    fn reformulate_within(
        &self,
        xbind: &XBindQuery,
        budget: &ReformulationBudget,
    ) -> BlockReformulation {
        let start = Instant::now();
        let effective =
            if self.options.use_specialization && !self.correspondence.specializations.is_empty() {
                specialize_query(xbind, &self.correspondence.specializations)
            } else {
                xbind.clone()
            };
        let mut ctx = CompileContext::new();
        let compiled: ConjunctiveQuery = compile_xbind(&mut ctx, &effective);
        let result = self.engine.reformulate(&compiled, budget);
        BlockReformulation {
            name: xbind.name.clone(),
            compiled,
            result,
            route: None,
            duration: start.elapsed(),
        }
    }

    /// [`Mars::reformulate_xbind`] with the degenerate inputs rejected up
    /// front: a correspondence that compiled to nothing, a block with no
    /// atoms, and an unsafe block (head variable unbound in the body) each
    /// surface as a structured [`MarsError`] instead of a meaningless run.
    pub fn try_reformulate_xbind(
        &self,
        xbind: &XBindQuery,
    ) -> Result<BlockReformulation, MarsError> {
        self.try_reformulate_xbind_budgeted(xbind, &ReformulationBudget::unbounded())
    }

    /// [`Mars::try_reformulate_xbind`] under a per-request budget — the entry
    /// point resident services use. The engine tightens a copy of its
    /// standing options for this one request ([`ChaseBackchase::reformulate`];
    /// the shared engine and its fingerprint are untouched, so cache keys
    /// stay comparable across budgets). Budget exhaustion degrades rather
    /// than errors: the result carries the best reformulation found, tagged
    /// via [`BlockReformulation::degradation`].
    ///
    /// # Errors
    ///
    /// [`MarsError::EmptyCorrespondence`], [`MarsError::EmptyBlock`] and
    /// [`MarsError::UnsafeBlock`] for the degenerate inputs.
    pub fn try_reformulate_xbind_budgeted(
        &self,
        xbind: &XBindQuery,
        budget: &ReformulationBudget,
    ) -> Result<BlockReformulation, MarsError> {
        if self.engine.deds().is_empty() && self.engine.proprietary.is_empty() {
            return Err(MarsError::EmptyCorrespondence);
        }
        if xbind.atoms.is_empty() {
            return Err(MarsError::EmptyBlock { block: xbind.name.clone() });
        }
        if !xbind.is_safe() {
            return Err(MarsError::UnsafeBlock { block: xbind.name.clone() });
        }
        Ok(self.reformulate_within(xbind, budget))
    }

    /// Reformulate a full client XQuery (text): parse, decorrelate, and
    /// reformulate every navigation block.
    pub fn reformulate_xquery(
        &self,
        xquery: &str,
        default_document: &str,
    ) -> Result<MarsResult, MarsError> {
        let ast = parse_xquery(xquery)?;
        let dec = decorrelate(&ast, default_document);
        let start = Instant::now();
        let blocks: Vec<BlockReformulation> =
            dec.blocks.iter().map(|b| self.reformulate_xbind(b)).collect();
        Ok(MarsResult { decorrelated: dec, blocks, total: start.elapsed() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_chase::ReformulationResult;
    use mars_xml::parse_path;

    /// A miniature publishing scenario: a proprietary table `bookRel(title,
    /// author)` is published as the public document `bib.xml` through a GAV
    /// view, and additionally a LAV view caches the author list as a table.
    fn mini_correspondence() -> SchemaCorrespondence {
        let case_body =
            XBindQuery::new("PubMap").with_head(&["t", "a"]).with_atom(XBindAtom::Relational {
                relation: "bookRel".to_string(),
                args: vec![mars_xquery::XBindTerm::var("t"), mars_xquery::XBindTerm::var("a")],
            });
        let gav = ViewDef::xml_flat("PubMap", case_body, "bib.xml", "book", &["title", "author"]);

        let lav_body = XBindQuery::new("AuthorsMap")
            .with_head(&["a"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "bib.xml".to_string(),
                path: parse_path("//book").unwrap(),
                var: "b".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./author/text()").unwrap(),
                source: "b".to_string(),
                var: "a".to_string(),
            });
        let lav = ViewDef::relational("authorsCache", lav_body);

        SchemaCorrespondence {
            public_documents: vec!["bib.xml".to_string()],
            gav_views: vec![gav],
            lav_views: vec![lav],
            proprietary_relations: vec!["bookRel".to_string()],
            ..Default::default()
        }
    }

    #[test]
    fn correspondence_compiles_to_deds_and_proprietary_predicates() {
        let mars = Mars::new(mini_correspondence());
        assert!(!mars.dependencies().is_empty());
        assert!(mars.engine.proprietary.contains(&Predicate::new("bookRel")));
        assert!(mars.engine.proprietary.contains(&Predicate::new("authorsCache")));
        // TIX added for the published document.
        assert!(mars
            .dependencies()
            .iter()
            .any(|d| d.name.contains("TIX") && d.name.contains("bib.xml")));
        assert_eq!(mars.correspondence().public_documents, vec!["bib.xml"]);
    }

    #[test]
    fn client_query_is_reformulated_against_the_proprietary_table() {
        let mars = Mars::new(mini_correspondence());
        // Client query over the public document: titles with their authors.
        let client = XBindQuery::new("Client")
            .with_head(&["t", "a"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "bib.xml".to_string(),
                path: parse_path("//book").unwrap(),
                var: "b".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./title/text()").unwrap(),
                source: "b".to_string(),
                var: "t".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./author/text()").unwrap(),
                source: "b".to_string(),
                var: "a".to_string(),
            });
        let block = mars.reformulate_xbind(&client);
        assert!(block.result.has_reformulation(), "a reformulation over bookRel must exist");
        let best = block.result.best_or_initial().unwrap();
        assert!(best.body.iter().any(|a| a.predicate == Predicate::new("bookRel")));
        let sql = block.sql().unwrap();
        assert!(sql.contains("bookRel"));
    }

    /// Regression: a view is a relation whatever it is called. A LAV view
    /// caching `//item`'s `(k, v)` pairs answers the same client query with
    /// the same search under every name, including the names of the GReX
    /// bases, which the backchase used to read as navigation (no
    /// reformulation at all for seven of them).
    #[test]
    fn views_named_like_grex_bases_are_ordinary_relations() {
        let item = |var: &str| XBindAtom::AbsolutePath {
            document: "shop.xml".to_string(),
            path: parse_path("//item").unwrap(),
            var: var.to_string(),
        };
        let field = |field: &str| XBindAtom::RelativePath {
            path: parse_path(&format!("./{field}/text()")).unwrap(),
            source: "i".to_string(),
            var: field.to_string(),
        };
        let pairs = |name: &str| {
            XBindQuery::new(name).with_head(&["k", "v"]).with_atom(item("i")).with_atom(field("k"))
        };
        let run = |name: &str| {
            let view = ViewDef::relational(name, pairs(name).with_atom(field("v")));
            let correspondence = SchemaCorrespondence {
                public_documents: vec!["shop.xml".to_string()],
                lav_views: vec![view],
                ..Default::default()
            };
            let block =
                Mars::new(correspondence).reformulate_xbind(&pairs("Client").with_atom(field("v")));
            let s = &block.result.stats;
            let funnel = (
                s.candidates_inspected,
                s.pruned_by_cost,
                s.equivalence_checks,
                s.chase_cache_hits,
                s.containment_dead_cone_skips,
            );
            (block.result.minimal, funnel)
        };
        let (_, control) = run("items");
        for name in ["id", "tag", "text", "el", "child", "desc", "attr", "root", "items"] {
            let (minimal, funnel) = run(name);
            assert_eq!(minimal.len(), 1, "view {name}: {minimal:?}");
            let (m, cost) = &minimal[0];
            assert_eq!(m.body, [mars_cq::Atom::new(Predicate::new(name), m.head.clone())]);
            assert_eq!((funnel, *cost), (control, 2.0), "view {name}");
        }
    }

    /// A correspondence that compiles to no dependency at all — `bib.xml`
    /// stored natively, no view, no constraint, no TIX — takes the
    /// backchase's core path: one reformulation, the client query with its
    /// redundant second `//book` binding dropped.
    #[test]
    fn dependency_free_correspondence_yields_a_single_reformulation() {
        let native = SchemaCorrespondence {
            public_documents: vec!["bib.xml".to_string()],
            proprietary_documents: vec!["bib.xml".to_string()],
            ..Default::default()
        };
        let mars =
            Mars::with_options(native, MarsOptions { include_tix: false, ..Default::default() });
        assert!(mars.dependencies().is_empty());
        let book = |var: &str| XBindAtom::AbsolutePath {
            document: "bib.xml".to_string(),
            path: parse_path("//book").unwrap(),
            var: var.to_string(),
        };
        let client = XBindQuery::new("Client")
            .with_head(&["a"])
            .with_atom(book("b"))
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./author/text()").unwrap(),
                source: "b".to_string(),
                var: "a".to_string(),
            })
            .with_atom(book("b2"));
        let block = mars.reformulate_xbind(&client);
        assert!(block.result.has_reformulation());
        assert_eq!(block.result.minimal.len(), 1, "the core path yields one reformulation");
        assert!(block.result.minimal[0].0.body.len() < block.compiled.body.len());
        assert_eq!(block.result.stats.candidates_inspected, 0);
    }

    /// Regression: unparsable XQuery used to surface as the raw parser error
    /// type; it is now a [`MarsError::Parse`] like every other degenerate
    /// input, so resident callers handle one error enum.
    #[test]
    fn parse_errors_surface_as_mars_error() {
        let mars = Mars::new(mini_correspondence());
        let err = mars.reformulate_xquery("for $b in", "bib.xml").unwrap_err();
        assert!(matches!(err, MarsError::Parse(_)), "got {err}");
        assert!(!err.to_string().is_empty());
    }

    /// Regression: a block with no atoms has nothing to reformulate; the
    /// checked entry point reports it instead of running a meaningless chase.
    #[test]
    fn empty_block_is_a_structured_error() {
        let mars = Mars::new(mini_correspondence());
        let empty = XBindQuery::new("E").with_head(&["x"]);
        let err = mars.try_reformulate_xbind(&empty).unwrap_err();
        assert_eq!(err, MarsError::EmptyBlock { block: "E".to_string() });
    }

    /// Regression: an unsafe block (head variable unbound in the body) is a
    /// client error, reported as such by the checked entry point.
    #[test]
    fn unsafe_block_is_a_structured_error() {
        let mars = Mars::new(mini_correspondence());
        let unsafe_q =
            XBindQuery::new("U").with_head(&["nowhere"]).with_atom(XBindAtom::AbsolutePath {
                document: "bib.xml".to_string(),
                path: parse_path("//book").unwrap(),
                var: "b".to_string(),
            });
        let err = mars.try_reformulate_xbind(&unsafe_q).unwrap_err();
        assert_eq!(err, MarsError::UnsafeBlock { block: "U".to_string() });
    }

    /// Regression: a default (zero-view, zero-document) correspondence
    /// compiles to nothing; the checked entry point says so instead of
    /// reformulating against an empty dependency set.
    #[test]
    fn zero_view_correspondence_is_a_structured_error() {
        let mars = Mars::new(SchemaCorrespondence::default());
        let q = XBindQuery::new("Q").with_head(&["b"]).with_atom(XBindAtom::AbsolutePath {
            document: "bib.xml".to_string(),
            path: parse_path("//book").unwrap(),
            var: "b".to_string(),
        });
        let err = mars.try_reformulate_xbind(&q).unwrap_err();
        assert_eq!(err, MarsError::EmptyCorrespondence);
    }

    /// The fingerprint is stable for equal systems and moves when the
    /// correspondence (and hence the compiled dependency set) changes.
    #[test]
    fn fingerprint_tracks_the_compiled_correspondence() {
        let a = Mars::new(mini_correspondence());
        let b = Mars::new(mini_correspondence());
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut changed = mini_correspondence();
        changed.proprietary_relations.push("extraRel".to_string());
        assert_ne!(a.fingerprint(), Mars::new(changed).fingerprint());

        let other_options =
            Mars::with_options(mini_correspondence(), MarsOptions::default().exhaustive());
        assert_ne!(a.fingerprint(), other_options.fingerprint(), "options are fingerprinted too");
    }

    /// Reserved constants are the structural ones: document names and every
    /// constant the compiled dependency set mentions (tag names like `book`).
    #[test]
    fn reserved_constants_cover_documents_and_schema_tags() {
        let mars = Mars::new(mini_correspondence());
        let reserved = mars.reserved_constants();
        assert!(reserved.contains("bib.xml"));
        assert!(reserved.contains("book"), "view-output tag names are structural");
        assert!(!reserved.contains("some client value"));
    }

    fn absolute(document: &str, path: &str, var: &str) -> XBindAtom {
        XBindAtom::AbsolutePath {
            document: document.to_string(),
            path: parse_path(path).unwrap(),
            var: var.to_string(),
        }
    }

    fn relative(path: &str, source: &str, var: &str) -> XBindAtom {
        XBindAtom::RelativePath {
            path: parse_path(path).unwrap(),
            source: source.to_string(),
            var: var.to_string(),
        }
    }

    /// `mars`'s reformulation of `query`, and the same compiled query
    /// reformulated by an engine over the same dependencies with no
    /// navigation layer: the full Σ in every back-chase.
    fn beside_full_sigma(
        mars: &Mars,
        query: &XBindQuery,
    ) -> (ReformulationResult, ReformulationResult) {
        let block = mars.reformulate_xbind(query);
        let full =
            ChaseBackchase::new(mars.dependencies().to_vec(), &[], mars.engine.proprietary.clone())
                .with_options(mars.options.cb.clone())
                .reformulate(&block.compiled, &ReformulationBudget::unbounded());
        (block.result, full)
    }

    /// The minimal reformulations' bodies and costs.
    fn bodies(result: &ReformulationResult) -> Vec<(String, f64)> {
        let body = |q: &ConjunctiveQuery| {
            q.body.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
        };
        result.minimal.iter().map(|(q, cost)| (body(q), *cost)).collect()
    }

    /// Everything the backchase counts, the back-chases' work included.
    fn funnel(result: &ReformulationResult) -> [usize; 8] {
        let s = &result.stats;
        [
            s.candidates_inspected,
            s.pruned_by_cost,
            s.equivalence_checks,
            s.chase_cache_hits,
            s.implied_skips,
            result.minimal.len(),
            s.backchase_chase_rounds,
            s.backchase_premise_evaluations,
        ]
    }

    /// A two-corner star over `s.xml` in the style of the Section 4.1
    /// configuration: hubs `//R` with `K`, `A1`, `A2`, corners `//S1`,
    /// `//S2` with `A`, `B`, the key on `R.K`, the foreign keys, the DTD
    /// `unique_child` XICs, one view `V1` joining the hub with corner 1, and
    /// a mapping per element type, with single-valued fields or without.
    /// The document is proprietary and read through its mappings alone.
    fn mini_star(single_valued: bool) -> (Mars, XBindQuery) {
        let doc = "s.xml";
        let star = |name: &str, corners: &[usize]| {
            let mut q = XBindQuery::new(name)
                .with_atom(absolute(doc, "//R", "r"))
                .with_atom(relative("./K/text()", "r", "k"));
            let mut head = vec!["k".to_string()];
            for i in corners {
                let (a, s, sa, b) =
                    (format!("a{i}"), format!("s{i}"), format!("sa{i}"), format!("b{i}"));
                q = q
                    .with_atom(relative(&format!("./A{i}/text()"), "r", &a))
                    .with_atom(absolute(doc, &format!("//S{i}"), &s))
                    .with_atom(relative("./A/text()", &s, &sa))
                    .with_atom(relative("./B/text()", &s, &b))
                    .with_atom(XBindAtom::Eq(XBindTerm::var(&a), XBindTerm::var(&sa)));
                head.push(b);
            }
            q.head = head;
            q
        };
        let one = |name: &str, elements: &str, child: &str| {
            Xic::unique_child(name, doc, elements, child).unwrap()
        };
        let mut xics = vec![Xic::key("R_key", doc, "//R", "./K/text()").unwrap()];
        let mut mappings = vec![SpecializationMapping::new(
            "Rspec",
            doc,
            "//R",
            &[("K", "./K/text()"), ("A1", "./A1/text()"), ("A2", "./A2/text()")],
        )];
        xics.push(one("R_one_K", "//R", "./K"));
        for i in 1..=2 {
            let corner = format!("//S{i}");
            xics.push(
                Xic::inclusion(
                    &format!("fk_A{i}"),
                    doc,
                    "//R",
                    &format!("./A{i}/text()"),
                    &corner,
                    "./A/text()",
                )
                .unwrap(),
            );
            xics.push(one(&format!("R_one_A{i}"), "//R", &format!("./A{i}")));
            xics.push(one(&format!("S{i}_one_A"), &corner, "./A"));
            xics.push(one(&format!("S{i}_one_B"), &corner, "./B"));
            mappings.push(SpecializationMapping::new(
                &format!("S{i}spec"),
                doc,
                &corner,
                &[("A", "./A/text()"), ("B", "./B/text()")],
            ));
        }
        if single_valued {
            mappings = mappings.into_iter().map(|m| m.with_single_valued_fields()).collect();
        }
        let correspondence = SchemaCorrespondence {
            public_documents: vec![doc.to_string()],
            lav_views: vec![ViewDef::relational("V1", star("V1body", &[1]))],
            xics,
            proprietary_documents: vec![doc.to_string()],
            specializations: mappings,
            ..Default::default()
        };
        let options = MarsOptions {
            spec_replaces_navigation: true,
            ..MarsOptions::specialized().exhaustive()
        };
        (Mars::with_options(correspondence, options), star("StarQ", &[1, 2]))
    }

    /// The positions of `mars`'s navigation layer, by name.
    fn layer_names(mars: &Mars) -> Vec<String> {
        let (deds, layer, _) = Mars::compile(&mars.correspondence, &mars.options);
        layer.iter().map(|&i| deds[i].name.clone()).collect()
    }

    /// With single-valued fields the star document is abbreviated: its
    /// mappings' definitional pairs, its TIX and its DTD XICs leave the
    /// back-chases, and they find what the full Σ finds — one
    /// reformulation per subset of the views — with fewer premise
    /// evaluations.
    #[test]
    fn an_abbreviated_document_back_chases_without_its_navigation() {
        let (mars, query) = mini_star(true);
        let layer = layer_names(&mars);
        for name in ["cRspec", "bS2spec", "R_one_K_spec", "S1_one_B_spec", "TIX.el_id#s.xml"] {
            assert!(layer.iter().any(|n| n == name), "{name} in {layer:?}");
        }
        assert!(!layer.iter().any(|n| n.ends_with("_fd") || n.starts_with("fk_")), "{layer:?}");
        let (spec, full) = beside_full_sigma(&mars, &query);
        assert_eq!(bodies(&spec), bodies(&full));
        assert_eq!(spec.minimal.len(), 2, "2^NV");
        assert!(
            spec.stats.backchase_premise_evaluations < full.stats.backchase_premise_evaluations
        );
    }

    /// Without single-valued fields there is no spec-level functional
    /// dependency, and the DTD EGDs carry equalities nothing else derives:
    /// the document keeps its navigation layer, so the back-chases run the
    /// full Σ.
    #[test]
    fn a_mapping_without_single_valued_fields_keeps_its_navigation() {
        let (mars, query) = mini_star(false);
        let (spec, full) = beside_full_sigma(&mars, &query);
        assert_eq!(bodies(&spec), bodies(&full));
        assert_eq!(funnel(&spec), funnel(&full));
        assert_eq!(layer_names(&mars), Vec::<String>::new());
        assert!(mars.dependencies().iter().any(|d| d.name == "R_one_K_spec"));
        assert!(!mars.dependencies().iter().any(|d| d.name.ends_with("_fd")));
    }

    /// A query that still navigates after specialization — it reads `R`'s
    /// `C` child, which no mapping covers — back-chases under the full Σ,
    /// abbreviated document or not: its funnel, back-chase work included,
    /// is the full Σ's.
    #[test]
    fn a_navigating_query_back_chases_under_the_full_sigma() {
        let (mars, query) = mini_star(true);
        assert!(!layer_names(&mars).is_empty());
        let navigating = query.with_atom(relative("./C/text()", "r", "c"));
        let (spec, full) = beside_full_sigma(&mars, &navigating);
        assert!(spec.stats.backchase_premise_evaluations > 0);
        assert_eq!(funnel(&spec), funnel(&full));
        assert_eq!(bodies(&spec), bodies(&full));
    }

    /// Completeness needs the gate. `PubMap` publishes `bookRel` as
    /// `bib.xml`, and the LAV view `W` stores `//book`'s titles and
    /// authors; `Book` specializes `//book` with single-valued fields. The
    /// query `bookRel(t, a)` does not navigate, and neither does its pool
    /// (`bookRel`, `W`), yet `W(t, a)` is a reformulation only through the
    /// navigation `PubMap` publishes. `PubMap`'s dependencies mention that
    /// navigation, so `bib.xml` is not abbreviated, and both reformulations
    /// are found; leaving out every dependency that mentions navigation
    /// would find `bookRel(t, a)` alone.
    #[test]
    fn a_view_over_a_documents_navigation_keeps_it_in_sigma() {
        let mut correspondence = mini_correspondence();
        correspondence.lav_views = vec![ViewDef::relational(
            "W",
            XBindQuery::new("Wbody")
                .with_head(&["t", "a"])
                .with_atom(absolute("bib.xml", "//book", "b"))
                .with_atom(relative("./title/text()", "b", "t"))
                .with_atom(relative("./author/text()", "b", "a")),
        )];
        correspondence.specializations = vec![SpecializationMapping::new(
            "Book",
            "bib.xml",
            "//book",
            &[("title", "./title/text()"), ("author", "./author/text()")],
        )
        .with_single_valued_fields()];
        let options = MarsOptions {
            spec_replaces_navigation: true,
            ..MarsOptions::specialized().exhaustive()
        };
        let mars = Mars::with_options(correspondence, options);
        let query = XBindQuery::new("Q").with_head(&["t", "a"]).with_atom(XBindAtom::Relational {
            relation: "bookRel".to_string(),
            args: vec![XBindTerm::var("t"), XBindTerm::var("a")],
        });
        let block = mars.reformulate_xbind(&query);
        let mut found: Vec<String> =
            block.result.minimal.iter().map(|(q, _)| q.body[0].predicate.name().into()).collect();
        found.sort();
        assert_eq!(found, ["W", "bookRel"]);
        assert!(block.result.minimal.iter().all(|(q, _)| q.body.len() == 1));
        assert_eq!(layer_names(&mars), Vec::<String>::new());
    }

    #[test]
    fn full_xquery_pipeline_runs() {
        let mars = Mars::new(mini_correspondence());
        let result = mars
            .reformulate_xquery(
                "for $b in //book $a in $b/author/text() return <writer>$a</writer>",
                "bib.xml",
            )
            .unwrap();
        assert_eq!(result.blocks.len(), 1);
        assert!(result.blocks[0].result.has_reformulation());
        assert!(result.reformulated_block_count() >= 1);
    }
}
