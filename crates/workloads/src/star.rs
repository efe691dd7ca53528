//! The XML star configuration of Section 4.1.
//!
//! Public schema: `R` elements (children of the root) with subelements `K`,
//! `A1 … A_NC`; for each `1 ≤ i ≤ NC`, `S_i` elements with subelements `A` and
//! `B`. `R.A_i` is a foreign key into `S_i.A`, and `K` is a key for `R`.
//!
//! Proprietary schema: the public document itself plus `NV` redundantly
//! materialized star views `V_l`, each joining the hub with the single corner
//! `S_l` along the foreign key and projecting `K`, `B_l`. In the absence of
//! constraints no view rewriting exists, but with the key constraint on `R`
//! the star join can be rewritten using any subset of the views — each corner
//! `l ≤ NV` is answered either by `V_l` or by navigating to `S_l`, and the
//! choices are independent, so there are exactly `2^NV` minimal
//! reformulations, all found by the C&B.
//!
//! (An earlier revision had each view join *two consecutive* corners; that
//! breaks the `2^NV` count for NC ≥ 4 because a pair of non-adjacent views
//! can cover every corner, making the all-views candidate a strict superset
//! of a smaller reformulation and hence non-minimal. Single-corner views keep
//! the view choices independent, which is the search-space shape the paper's
//! Section 4.1 count relies on.)
//!
//! The views are materialized as relations (the paper materializes them as
//! XML; the substitution is recorded in EXPERIMENTS.md — it preserves the
//! search space shape while keeping the backchase pool explicit).

use mars::{Mars, MarsOptions, SchemaCorrespondence};
use mars_grex::ViewDef;
use mars_specialize::SpecializationMapping;
use mars_storage::{materialize_view, RelationalDatabase, XmlStore};
use mars_xml::{parse_path, Document};
use mars_xquery::{XBindAtom, XBindQuery, Xic};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a star configuration.
#[derive(Clone, Copy, Debug)]
pub struct StarConfig {
    /// Number of corners (NC).
    pub nc: usize,
    /// Number of materialized star views (NV ≤ NC − 1).
    pub nv: usize,
    /// Whether the proprietary schema also contains the public document
    /// itself (Figure 5 uses `true`, the Figure 8 specialization experiment
    /// uses `false` — "the proprietary schema contains only the views now").
    pub proprietary_includes_document: bool,
}

impl StarConfig {
    /// The Figure 5 configuration for a given NC (NV = NC − 1).
    pub fn figure5(nc: usize) -> StarConfig {
        StarConfig { nc, nv: nc.saturating_sub(1), proprietary_includes_document: true }
    }

    /// The Figure 8 configuration (views-only proprietary schema).
    pub fn figure8(nc: usize) -> StarConfig {
        StarConfig { nc, nv: nc.saturating_sub(1), proprietary_includes_document: false }
    }

    /// Name of the public star document.
    pub fn document(&self) -> String {
        "star.xml".to_string()
    }

    fn view_name(l: usize) -> String {
        format!("V{l}")
    }

    /// The client XBind query: join `R` with all NC corners, returning `K`
    /// and every corner's `B`.
    pub fn client_query(&self) -> XBindQuery {
        self.corner_query(&(1..=self.nc).collect::<Vec<_>>())
    }

    /// The star query over a subset of the corners (1-based, in the order
    /// given): join `R` with each of them, returning `K` and each one's `B`.
    pub fn corner_query(&self, corners: &[usize]) -> XBindQuery {
        let doc = self.document();
        let mut head: Vec<String> = vec!["k".to_string()];
        let mut q = XBindQuery::new("StarQ")
            .with_atom(XBindAtom::AbsolutePath {
                document: doc.clone(),
                path: parse_path("//R").unwrap(),
                var: "r".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./K/text()").unwrap(),
                source: "r".to_string(),
                var: "k".to_string(),
            });
        for &i in corners {
            q = q
                .with_atom(XBindAtom::RelativePath {
                    path: parse_path(&format!("./A{i}/text()")).unwrap(),
                    source: "r".to_string(),
                    var: format!("a{i}"),
                })
                .with_atom(XBindAtom::AbsolutePath {
                    document: doc.clone(),
                    path: parse_path(&format!("//S{i}")).unwrap(),
                    var: format!("s{i}"),
                })
                .with_atom(XBindAtom::RelativePath {
                    path: parse_path("./A/text()").unwrap(),
                    source: format!("s{i}"),
                    var: format!("sa{i}"),
                })
                .with_atom(XBindAtom::RelativePath {
                    path: parse_path("./B/text()").unwrap(),
                    source: format!("s{i}"),
                    var: format!("b{i}"),
                })
                .with_atom(XBindAtom::Eq(
                    mars_xquery::XBindTerm::var(&format!("a{i}")),
                    mars_xquery::XBindTerm::var(&format!("sa{i}")),
                ));
            head.push(format!("b{i}"));
        }
        q.head = head;
        q
    }

    /// The view `V_l` (joins the hub with the single corner `l`).
    pub fn view(&self, l: usize) -> ViewDef {
        let doc = self.document();
        let mut body = XBindQuery::new(&format!("{}body", Self::view_name(l)))
            .with_atom(XBindAtom::AbsolutePath {
                document: doc.clone(),
                path: parse_path("//R").unwrap(),
                var: "r".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./K/text()").unwrap(),
                source: "r".to_string(),
                var: "k".to_string(),
            });
        body = body
            .with_atom(XBindAtom::RelativePath {
                path: parse_path(&format!("./A{l}/text()")).unwrap(),
                source: "r".to_string(),
                var: format!("a{l}"),
            })
            .with_atom(XBindAtom::AbsolutePath {
                document: doc.clone(),
                path: parse_path(&format!("//S{l}")).unwrap(),
                var: format!("s{l}"),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./A/text()").unwrap(),
                source: format!("s{l}"),
                var: format!("sa{l}"),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./B/text()").unwrap(),
                source: format!("s{l}"),
                var: format!("b{l}"),
            })
            .with_atom(XBindAtom::Eq(
                mars_xquery::XBindTerm::var(&format!("a{l}")),
                mars_xquery::XBindTerm::var(&format!("sa{l}")),
            ));
        body.head = vec!["k".to_string(), format!("b{l}")];
        ViewDef::relational(&Self::view_name(l), body)
    }

    /// The key XIC on `R.K` (the constraint that makes view rewritings valid).
    pub fn key_constraint(&self) -> Xic {
        Xic::key("R_key", &self.document(), "//R", "./K/text()")
            .expect("literal star key paths parse")
    }

    /// DTD single-occurrence constraints of the star document: each hub has
    /// exactly one `K` and one `A_i` subelement, each corner one `A` and one
    /// `B` (`<!ELEMENT R (K, A1, …)>`). Without specialization they let the
    /// backchase's equivalence chases unify the duplicated navigation that
    /// arises when a hub is reconstructed from several views. Under
    /// specialization (`StarConfig::mars` with `MarsOptions::specialized()`,
    /// what the benchmark's cold templates run) their `_spec` forms restate
    /// the mappings' single-valued-field dependencies: a hub reconstructed
    /// from a view is found by the spec-level key on `Rspec.K` and its
    /// fields by `Rspec`'s dependency. They belong to `star.xml`'s
    /// navigation layer, which the back-chases of the navigation-free
    /// corner templates leave out, and in the chase to the universal plan
    /// they produce no premise row.
    pub fn dtd_constraints(&self) -> Vec<Xic> {
        let doc = self.document();
        let one = |name: &str, elements: &str, child: &str| {
            Xic::unique_child(name, &doc, elements, child).expect("literal star DTD paths parse")
        };
        let mut out = vec![one("R_one_K", "//R", "./K")];
        for i in 1..=self.nc {
            out.push(one(&format!("R_one_A{i}"), "//R", &format!("./A{i}")));
            out.push(one(&format!("S{i}_one_A"), &format!("//S{i}"), "./A"));
            out.push(one(&format!("S{i}_one_B"), &format!("//S{i}"), "./B"));
        }
        out
    }

    /// Foreign-key XICs `R.A_i ⊆ S_i.A`.
    pub fn foreign_keys(&self) -> Vec<Xic> {
        (1..=self.nc)
            .map(|i| {
                Xic::inclusion(
                    &format!("fk_A{i}"),
                    &self.document(),
                    "//R",
                    &format!("./A{i}/text()"),
                    &format!("//S{i}"),
                    "./A/text()",
                )
                .expect("literal star foreign-key paths parse")
            })
            .collect()
    }

    /// Specialization mappings for the star document (hub and corners are
    /// perfectly regular — the best case for Section 5).
    pub fn specializations(&self) -> Vec<SpecializationMapping> {
        let doc = self.document();
        let mut out = Vec::new();
        let mut r_fields: Vec<(String, String)> = vec![("K".to_string(), "./K/text()".to_string())];
        for i in 1..=self.nc {
            r_fields.push((format!("A{i}"), format!("./A{i}/text()")));
        }
        let refs: Vec<(&str, &str)> =
            r_fields.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        out.push(
            SpecializationMapping::new("Rspec", &doc, "//R", &refs).with_single_valued_fields(),
        );
        for i in 1..=self.nc {
            out.push(
                SpecializationMapping::new(
                    &format!("S{i}spec"),
                    &doc,
                    &format!("//S{i}"),
                    &[("A", "./A/text()"), ("B", "./B/text()")],
                )
                .with_single_valued_fields(),
            );
        }
        out
    }

    /// The schema correspondence of this configuration.
    pub fn correspondence(&self) -> SchemaCorrespondence {
        let mut xics = vec![self.key_constraint()];
        xics.extend(self.foreign_keys());
        xics.extend(self.dtd_constraints());
        SchemaCorrespondence {
            public_documents: vec![self.document()],
            gav_views: Vec::new(),
            lav_views: (1..=self.nv).map(|l| self.view(l)).collect(),
            xics,
            relational_constraints: Vec::new(),
            proprietary_relations: Vec::new(),
            proprietary_documents: if self.proprietary_includes_document {
                vec![self.document()]
            } else {
                Vec::new()
            },
            specializations: self.specializations(),
        }
    }

    /// Build the MARS system for this configuration.
    ///
    /// The star document is perfectly regular and fully covered by its
    /// specialization mappings, so when specialization is requested the
    /// document is accessed exclusively through the specialization relations
    /// (`spec_replaces_navigation`). This keeps the backchase candidate pool
    /// at `NC + NV + 1` atoms — the vocabulary over which the `2^NV`
    /// completeness count is stated — instead of the hundreds of raw
    /// navigation atoms of the universal plan.
    pub fn mars(&self, mut options: MarsOptions) -> Mars {
        options.spec_replaces_navigation = true;
        Mars::with_options(self.correspondence(), options)
    }

    /// Generate a concrete star document with `hubs` R-elements and
    /// `corner_size` elements per corner relation (≈ `hubs + nc*corner_size`
    /// elements plus leaves; the paper's "toy document of 60 elements"
    /// corresponds to roughly `generate_document(5, 5)` at NC = 3).
    pub fn generate_document(&self, hubs: usize, corner_size: usize, seed: u64) -> Document {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut doc = Document::new(&self.document());
        let root = doc.create_root("star");
        for h in 0..hubs {
            let r = doc.add_element(root, "R");
            doc.add_leaf(r, "K", &format!("k{h}"));
            for i in 1..=self.nc {
                let a = rng.gen_range(0..corner_size);
                doc.add_leaf(r, &format!("A{i}"), &format!("a{i}_{a}"));
            }
        }
        for i in 1..=self.nc {
            for j in 0..corner_size {
                let s = doc.add_element(root, &format!("S{i}"));
                doc.add_leaf(s, "A", &format!("a{i}_{j}"));
                doc.add_leaf(s, "B", &format!("b{i}_{j}"));
            }
        }
        doc
    }

    /// Populate storage: the document goes into the XML store, every view is
    /// materialized into the relational database, and so is every
    /// specialization relation (so reformulations mixing views with `Rspec` /
    /// `S_ispec` atoms can execute relationally). Returns the stores.
    pub fn populate(
        &self,
        hubs: usize,
        corner_size: usize,
        seed: u64,
    ) -> (XmlStore, RelationalDatabase) {
        let mut xml = XmlStore::new();
        xml.add_document(self.generate_document(hubs, corner_size, seed));
        let mut db = RelationalDatabase::new();
        for l in 1..=self.nv {
            materialize_view(&self.view(l), &mut xml, &mut db)
                .expect("star views navigate the freshly added document");
        }
        for m in self.specializations() {
            materialize_view(&m.definition_view(), &mut xml, &mut db)
                .expect("star specializations navigate the freshly added document");
        }
        (xml, db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn query_and_view_shapes() {
        let cfg = StarConfig::figure5(3);
        let q = cfg.client_query();
        assert_eq!(q.head.len(), 4); // k + 3 B's
        assert_eq!(q.atoms.len(), 2 + 3 * 5);
        let v = cfg.view(1);
        assert_eq!(v.body.head, vec!["k", "b1"]);
        let v2 = cfg.view(2);
        assert_eq!(v2.body.head, vec!["k", "b2"]);
        assert_eq!(cfg.foreign_keys().len(), 3);
        assert_eq!(cfg.specializations().len(), 4);
    }

    #[test]
    fn document_generation_and_materialization() {
        let cfg = StarConfig::figure5(3);
        let (xml, db) = cfg.populate(4, 3, 7);
        let doc = xml.document("star.xml").unwrap();
        // 1 root + 4 R (each with 1+3 leaves) + 3*3 S (each with 2 leaves)
        assert_eq!(doc.element_count(), 1 + 4 * 5 + 9 * 3);
        // Every hub joins some corner row in each view.
        assert_eq!(db.cardinality("V1"), 4);
        assert_eq!(db.cardinality("V2"), 4);
    }

    /// The headline property of the configuration: with the key constraint,
    /// the star query has 2^NV minimal reformulations over document+views.
    #[test]
    fn exponentially_many_minimal_reformulations_nc3() {
        let cfg = StarConfig::figure5(3);
        let mars = cfg.mars(MarsOptions::specialized().exhaustive());
        let block = mars.reformulate_xbind(&cfg.client_query());
        assert!(block.result.has_reformulation());
        assert_eq!(
            block.result.minimal.len(),
            1 << cfg.nv,
            "expected 2^NV = {} minimal reformulations, got {}",
            1 << cfg.nv,
            block.result.minimal.len()
        );
        // The best reformulation uses at least one view (cheaper than raw navigation).
        let best = &block.result.best.as_ref().unwrap().0;
        assert!(best
            .body
            .iter()
            .any(|a| a.predicate.name().starts_with('V') || a.predicate.name().contains("spec")));
    }

    /// Regression for the lost-reformulation bug: the exhaustive backchase
    /// must return *exactly* `2^NV` minimal reformulations — one per subset
    /// of the views — at every NC, not just the sizes where the old pairwise
    /// view definition happened to keep subsets incomparable. The seed
    /// reported 7 of 8 at NC = 4 (see EXPERIMENTS.md for the root cause).
    #[test]
    fn exhaustive_backchase_counts_exactly_two_to_the_nv() {
        for nc in [2usize, 3, 4] {
            let cfg = StarConfig::figure5(nc);
            let mars = cfg.mars(MarsOptions::specialized().exhaustive());
            let block = mars.reformulate_xbind(&cfg.client_query());
            assert!(
                !block.result.stats.backchase_truncated,
                "NC={nc}: enumeration must complete, not hit max_candidates"
            );
            assert_eq!(
                block.result.minimal.len(),
                1 << cfg.nv,
                "NC={nc}: expected 2^NV = {} minimal reformulations, got {}",
                1 << cfg.nv,
                block.result.minimal.len()
            );
            // The minimal reformulations form an antichain: none is a
            // subquery of another.
            for (i, (a, _)) in block.result.minimal.iter().enumerate() {
                for (j, (b, _)) in block.result.minimal.iter().enumerate() {
                    if i != j {
                        let subset = a.body.iter().all(|atom| b.body.contains(atom));
                        assert!(!subset, "NC={nc}: {} is a subquery of {}", a.name, b.name);
                    }
                }
            }
        }
    }

    /// The blocked test pushed into the premise joins changes how much the
    /// chase does, never what it does. Star NC = 4, exhaustive: the minimal
    /// reformulations are the ones recorded at commit 038592a, before the
    /// push-down, where `premise_bindings` handed that same chase 416
    /// homomorphisms to test one by one; now fewer than a third as many rows
    /// leave a premise program (105 — what is left are the bindings of the
    /// TGDs, whose blocked test needs the whole row). On the plan itself, a
    /// fixpoint, every binding of every pure-equality EGD dies inside the
    /// join.
    ///
    /// The universal-plan chase took (43, 15) `(applied_steps, rounds)`
    /// until a chase step began binding each existential that a key of the
    /// dependency set already determines to the term the existing tuple
    /// carries: before that, every such variable was invented and then
    /// merged away by one more EGD step, with a round restart after it.
    /// It then took (39, 11) until a round stopped ending at the first TGD
    /// that applied a step: the same steps now take 3 rounds.
    #[test]
    fn pushed_down_blocked_test_cuts_premise_rows_not_steps() {
        use mars_chase::{CompiledDeps, JoinScratch, SymbolicInstance};

        let cfg = StarConfig::figure5(4);
        let mars = cfg.mars(MarsOptions::specialized().exhaustive());
        let result = mars.reformulate_xbind(&cfg.client_query()).result;

        let mut minimal: Vec<String> = result
            .minimal
            .iter()
            .map(|(q, _)| {
                let mut preds: Vec<&str> = q.body.iter().map(|a| a.predicate.name()).collect();
                preds.sort_unstable();
                preds.join(",")
            })
            .collect();
        minimal.sort_unstable();
        assert_eq!(
            minimal,
            [
                "Rspec,S1spec,S2spec,S3spec,S4spec",
                "Rspec,S1spec,S2spec,S4spec,V3",
                "Rspec,S1spec,S3spec,S4spec,V2",
                "Rspec,S1spec,S4spec,V2,V3",
                "Rspec,S2spec,S3spec,S4spec,V1",
                "Rspec,S2spec,S4spec,V1,V3",
                "Rspec,S3spec,S4spec,V1,V2",
                "Rspec,S4spec,V1,V2,V3",
            ]
        );
        let chase = &result.stats.chase;
        assert_eq!((chase.applied_steps, chase.rounds), (39, 3));
        const PREMISE_BINDINGS_BEFORE: usize = 416;
        assert!(chase.premise_rows >= chase.applied_steps);
        assert!(
            3 * chase.premise_rows <= PREMISE_BINDINGS_BEFORE,
            "{} rows left the premise programs",
            chase.premise_rows
        );

        let plan = SymbolicInstance::from_query(&result.universal_plan);
        let deps = CompiledDeps::new(mars.dependencies());
        let mut scratch = JoinScratch::default();
        let (mut egd_bindings, mut egd_rows) = (0, 0);
        for ded in deps.for_chase(true).0 {
            let unblocked = ded.unblocked_bindings(&plan, &mut scratch);
            assert!(unblocked.bindings.is_empty(), "{}: the plan is a fixpoint", ded.ded.name);
            if ded.ded.is_egd() {
                egd_bindings += ded.premise_bindings(&plan).len();
                egd_rows += unblocked.premise_rows;
            }
        }
        assert!(egd_bindings >= 50, "the EGD premises do match the plan ({egd_bindings})");
        assert_eq!(egd_rows, 0, "a blocked EGD binding never leaves its join");
    }

    #[test]
    fn unreformulated_query_executes_on_the_naive_engine() {
        let cfg = StarConfig::figure5(3);
        let (xml, _) = cfg.populate(3, 3, 1);
        let rows = xml.eval_xbind(&cfg.client_query(), &HashMap::new()).unwrap();
        assert_eq!(rows.len(), 3, "each hub matches exactly one row per corner");
    }
}
