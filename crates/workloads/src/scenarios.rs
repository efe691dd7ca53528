//! The backend-routing scenario matrix.
//!
//! Twelve named configurations — schema shape × data distribution ×
//! redundancy level — exercising both sides of the backend router:
//!
//! * **schema**: a three-link [`Chain`](SchemaShape::Chain) (`L1.P → L2.K`,
//!   `L2.P → L3.K`, deep navigation) and a three-corner
//!   [`Snowflake`](SchemaShape::Snowflake) (the Section 4.1 star hub);
//! * **data**: [`Uniform`](DataShape::Uniform) pointers and
//!   [`Skewed`](DataShape::Skewed) ones (80 % of the foreign keys hit one
//!   hot row), which separates the statistics the two backends see;
//! * **redundancy** 0–2: how many LAV views are materialized. At redundancy
//!   0 the best reformulation is pure navigation, so the router should pick
//!   the XML backend; at redundancy ≥ 1 the query reformulates onto
//!   materialized relations, so it should pick the relational backend. The
//!   `tests/golden_routes.rs` pins exactly this.
//!
//! [`Scenario::populate`] loads the generated document into the XML store,
//! materializes the redundant views, **and** loads the document's GReX
//! encoding into the relational database — the precondition for executing
//! navigation atoms relationally, which is what makes every route of the
//! differential suite comparable byte for byte.

use crate::star::StarConfig;
use mars::{Mars, MarsOptions, SchemaCorrespondence};
use mars_grex::{encode_document, ViewDef};
use mars_specialize::SpecializationMapping;
use mars_storage::{materialize_view, RelationalDatabase, XmlStore};
use mars_xml::{parse_path, Document};
use mars_xquery::{XBindAtom, XBindQuery, XBindTerm, Xic};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The public schema shape of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemaShape {
    /// Three element kinds chained by foreign keys: `L1.P → L2.K → … → L3.B`.
    Chain,
    /// The Section 4.1 star: hub `R` with three corners `S1 … S3`.
    Snowflake,
}

impl SchemaShape {
    fn label(self) -> &'static str {
        match self {
            SchemaShape::Chain => "chain",
            SchemaShape::Snowflake => "snowflake",
        }
    }
}

/// How the generated data distributes its foreign keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataShape {
    /// Pointers drawn uniformly over the target keys.
    Uniform,
    /// 80 % of the pointers hit key 0 (one hot row).
    Skewed,
}

impl DataShape {
    fn label(self) -> &'static str {
        match self {
            DataShape::Uniform => "uniform",
            DataShape::Skewed => "skewed",
        }
    }

    fn pick(self, rng: &mut StdRng, n: usize) -> usize {
        match self {
            DataShape::Uniform => rng.gen_range(0..n),
            DataShape::Skewed => {
                if rng.gen_range(0..10) < 8 {
                    0
                } else {
                    rng.gen_range(0..n)
                }
            }
        }
    }
}

/// One point of the scenario matrix.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Public schema shape.
    pub schema: SchemaShape,
    /// Data distribution.
    pub data: DataShape,
    /// Number of materialized LAV views (0, 1 or 2).
    pub redundancy: usize,
}

impl Scenario {
    /// The full matrix: 2 schemas × 2 distributions × redundancy 0–2.
    pub fn matrix() -> Vec<Scenario> {
        let mut out = Vec::new();
        for schema in [SchemaShape::Chain, SchemaShape::Snowflake] {
            for data in [DataShape::Uniform, DataShape::Skewed] {
                for redundancy in 0..=2 {
                    out.push(Scenario { schema, data, redundancy });
                }
            }
        }
        out
    }

    /// Stable name, e.g. `chain-uniform-r0` (used in goldens and JSON).
    pub fn name(&self) -> String {
        format!("{}-{}-r{}", self.schema.label(), self.data.label(), self.redundancy)
    }

    /// Whether a redundant view backs (part of) the client query — the
    /// scenarios the router is expected to send to the relational backend.
    pub fn view_backed(&self) -> bool {
        self.redundancy > 0
    }

    /// Name of the scenario's public document.
    pub fn document(&self) -> String {
        match self.schema {
            SchemaShape::Chain => "chain.xml".to_string(),
            SchemaShape::Snowflake => self.star().document(),
        }
    }

    fn star(&self) -> StarConfig {
        StarConfig { nc: 3, nv: self.redundancy, proprietary_includes_document: true }
    }

    /// The client XBind query of the scenario.
    pub fn client_query(&self) -> XBindQuery {
        match self.schema {
            SchemaShape::Chain => chain_query(&self.document()),
            SchemaShape::Snowflake => self.star().client_query(),
        }
    }

    /// The client query compiled to pure GReX navigation — the query the
    /// XML backend runs natively. On view-backed scenarios the *best*
    /// reformulation is pure relational (XML-infeasible), so the forced-XML
    /// ablation of the differential suite falls back to this form; it returns
    /// the same rows (the reformulation is an equivalence under the
    /// scenario's constraints, and [`Scenario::populate`] materializes the
    /// views from the same document).
    pub fn navigation_query(&self) -> mars_cq::ConjunctiveQuery {
        let mut ctx = mars_grex::CompileContext::new();
        mars_grex::compile_xbind(&mut ctx, &self.client_query())
    }

    /// The redundant LAV views (the first `redundancy` links/corners).
    pub fn views(&self) -> Vec<ViewDef> {
        match self.schema {
            SchemaShape::Chain => {
                (1..=self.redundancy).map(|l| chain_view(&self.document(), l)).collect()
            }
            SchemaShape::Snowflake => (1..=self.redundancy).map(|l| self.star().view(l)).collect(),
        }
    }

    fn specializations(&self) -> Vec<SpecializationMapping> {
        match self.schema {
            SchemaShape::Chain => chain_specializations(&self.document()),
            SchemaShape::Snowflake => self.star().specializations(),
        }
    }

    /// The schema correspondence (document + views + keys, foreign keys and
    /// DTD constraints).
    ///
    /// At redundancy 0 there are no views to rewrite with, so the key and
    /// DTD constraints are omitted too: they could only inflate the chase
    /// (the seed measured ~12 s per r0 reformulation with them, against a
    /// universal plan the backchase then cannot shrink), and the intended
    /// best reformulation *is* the compiled navigation query.
    pub fn correspondence(&self) -> SchemaCorrespondence {
        let doc = self.document();
        if self.redundancy == 0 {
            return SchemaCorrespondence {
                public_documents: vec![doc.clone()],
                gav_views: Vec::new(),
                lav_views: Vec::new(),
                xics: Vec::new(),
                relational_constraints: Vec::new(),
                proprietary_relations: Vec::new(),
                proprietary_documents: vec![doc],
                specializations: Vec::new(),
            };
        }
        match self.schema {
            SchemaShape::Chain => SchemaCorrespondence {
                public_documents: vec![doc.clone()],
                gav_views: Vec::new(),
                lav_views: self.views(),
                xics: chain_constraints(&doc),
                relational_constraints: Vec::new(),
                proprietary_relations: Vec::new(),
                proprietary_documents: vec![doc],
                specializations: self.specializations(),
            },
            SchemaShape::Snowflake => self.star().correspondence(),
        }
    }

    /// The MARS system for this scenario.
    ///
    /// Redundancy 0 runs unspecialized, so the best reformulation stays pure
    /// navigation (the XML route's home turf); redundancy ≥ 1 runs
    /// specialized with `spec_replaces_navigation`, so the best reformulation
    /// executes over materialized relations (the relational route's).
    pub fn mars(&self) -> Mars {
        if self.redundancy == 0 {
            // No views and no constraints: the TIX built-ins could only
            // inflate the universal plan (≈100 atoms, seconds of backchase)
            // without enabling any rewriting — the intended best *is* the
            // compiled navigation query. With no dependency left the
            // backchase minimizes the query to its core instead of
            // enumerating its 27–42 atom navigation pool (which took ~12 s
            // per scenario for an identical outcome).
            let options = MarsOptions { include_tix: false, ..Default::default() };
            Mars::with_options(self.correspondence(), options)
        } else {
            let mut options = MarsOptions::specialized();
            options.spec_replaces_navigation = true;
            Mars::with_options(self.correspondence(), options)
        }
    }

    /// Generate the scenario document with `scale` elements per link/corner.
    pub fn generate_document(&self, scale: usize, seed: u64) -> Document {
        let mut rng = StdRng::seed_from_u64(seed);
        match self.schema {
            SchemaShape::Chain => {
                let mut doc = Document::new(&self.document());
                let root = doc.create_root("chain");
                for h in 0..scale {
                    let l1 = doc.add_element(root, "L1");
                    doc.add_leaf(l1, "K", &format!("k1_{h}"));
                    doc.add_leaf(l1, "P", &format!("k2_{}", self.data.pick(&mut rng, scale)));
                }
                for h in 0..scale {
                    let l2 = doc.add_element(root, "L2");
                    doc.add_leaf(l2, "K", &format!("k2_{h}"));
                    doc.add_leaf(l2, "P", &format!("k3_{}", self.data.pick(&mut rng, scale)));
                }
                for h in 0..scale {
                    let l3 = doc.add_element(root, "L3");
                    doc.add_leaf(l3, "K", &format!("k3_{h}"));
                    doc.add_leaf(l3, "B", &format!("b_{h}"));
                }
                doc
            }
            SchemaShape::Snowflake => {
                // Same shape StarConfig generates, but with the scenario's
                // pointer distribution.
                let cfg = self.star();
                let mut doc = Document::new(&self.document());
                let root = doc.create_root("star");
                for h in 0..scale {
                    let r = doc.add_element(root, "R");
                    doc.add_leaf(r, "K", &format!("k{h}"));
                    for i in 1..=cfg.nc {
                        let a = self.data.pick(&mut rng, scale);
                        doc.add_leaf(r, &format!("A{i}"), &format!("a{i}_{a}"));
                    }
                }
                for i in 1..=cfg.nc {
                    for j in 0..scale {
                        let s = doc.add_element(root, &format!("S{i}"));
                        doc.add_leaf(s, "A", &format!("a{i}_{j}"));
                        doc.add_leaf(s, "B", &format!("b{i}_{j}"));
                    }
                }
                doc
            }
        }
    }

    /// Populate both stores: the document goes into the XML store; the
    /// views and (at redundancy ≥ 1) the specialization relations are
    /// materialized; and the document's GReX encoding is loaded into the
    /// relational database so navigation atoms can execute relationally —
    /// the precondition for cross-backend differential comparison.
    pub fn populate(&self, scale: usize, seed: u64) -> (XmlStore, RelationalDatabase) {
        let doc = self.generate_document(scale, seed);
        let mut db = RelationalDatabase::new();
        db.load_facts(&encode_document(&doc));
        self.store(doc, db)
    }

    /// Store `doc` natively and materialize the views and (at redundancy
    /// ≥ 1) the specialization relations into `db`.
    fn store(&self, doc: Document, mut db: RelationalDatabase) -> (XmlStore, RelationalDatabase) {
        let mut xml = XmlStore::new();
        xml.add_document(doc);
        for view in self.views() {
            materialize_view(&view, &mut xml, &mut db)
                .expect("scenario views navigate the freshly added document");
        }
        if self.redundancy > 0 {
            for m in self.specializations() {
                materialize_view(&m.definition_view(), &mut xml, &mut db)
                    .expect("scenario specializations navigate the freshly added document");
            }
        }
        (xml, db)
    }
}

/// The chain client query: follow both links, return the head key and the
/// tail payload.
fn chain_query(doc: &str) -> XBindQuery {
    let mut q = XBindQuery::new("ChainQ");
    for (i, elem) in ["L1", "L2", "L3"].iter().enumerate() {
        let i = i + 1;
        q = q.with_atom(XBindAtom::AbsolutePath {
            document: doc.to_string(),
            path: parse_path(&format!("//{elem}")).unwrap(),
            var: format!("l{i}"),
        });
        q = q.with_atom(XBindAtom::RelativePath {
            path: parse_path("./K/text()").unwrap(),
            source: format!("l{i}"),
            var: format!("k{i}"),
        });
    }
    for i in [1usize, 2] {
        q = q
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./P/text()").unwrap(),
                source: format!("l{i}"),
                var: format!("p{i}"),
            })
            .with_atom(XBindAtom::Eq(
                XBindTerm::var(&format!("p{i}")),
                XBindTerm::var(&format!("k{}", i + 1)),
            ));
    }
    q = q.with_atom(XBindAtom::RelativePath {
        path: parse_path("./B/text()").unwrap(),
        source: "l3".to_string(),
        var: "b".to_string(),
    });
    q.head = vec!["k1".to_string(), "b".to_string()];
    q
}

/// The chain view `W_l`: the join of link `l` with link `l + 1`, projecting
/// both keys (and the payload for the last link).
fn chain_view(doc: &str, l: usize) -> ViewDef {
    let (src, dst) = (format!("L{l}"), format!("L{}", l + 1));
    let mut body = XBindQuery::new(&format!("W{l}body"))
        .with_atom(XBindAtom::AbsolutePath {
            document: doc.to_string(),
            path: parse_path(&format!("//{src}")).unwrap(),
            var: "s".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./K/text()").unwrap(),
            source: "s".to_string(),
            var: "ks".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./P/text()").unwrap(),
            source: "s".to_string(),
            var: "p".to_string(),
        })
        .with_atom(XBindAtom::AbsolutePath {
            document: doc.to_string(),
            path: parse_path(&format!("//{dst}")).unwrap(),
            var: "d".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./K/text()").unwrap(),
            source: "d".to_string(),
            var: "kd".to_string(),
        })
        .with_atom(XBindAtom::Eq(XBindTerm::var("p"), XBindTerm::var("kd")));
    body.head = vec!["ks".to_string(), "kd".to_string()];
    ViewDef::relational(&format!("W{l}"), body)
}

/// Keys on every link's `K`, foreign keys along the pointers, and DTD
/// single-occurrence constraints — the vocabulary that makes view rewriting
/// sound (exactly as in the star configuration).
fn chain_constraints(doc: &str) -> Vec<Xic> {
    let mut out = Vec::new();
    for elem in ["L1", "L2", "L3"] {
        out.push(
            Xic::key(&format!("{elem}_key"), doc, &format!("//{elem}"), "./K/text()")
                .expect("literal chain key paths parse"),
        );
        out.push(
            Xic::unique_child(&format!("{elem}_one_K"), doc, &format!("//{elem}"), "./K")
                .expect("literal chain DTD paths parse"),
        );
    }
    for l in [1usize, 2] {
        out.push(
            Xic::inclusion(
                &format!("fk_P{l}"),
                doc,
                &format!("//L{l}"),
                "./P/text()",
                &format!("//L{}", l + 1),
                "./K/text()",
            )
            .expect("literal chain foreign-key paths parse"),
        );
        out.push(
            Xic::unique_child(&format!("L{l}_one_P"), doc, &format!("//L{l}"), "./P")
                .expect("literal chain DTD paths parse"),
        );
    }
    out.push(
        Xic::unique_child("L3_one_B", doc, "//L3", "./B").expect("literal chain DTD paths parse"),
    );
    out
}

fn chain_specializations(doc: &str) -> Vec<SpecializationMapping> {
    vec![
        SpecializationMapping::new(
            "L1spec",
            doc,
            "//L1",
            &[("K", "./K/text()"), ("P", "./P/text()")],
        )
        .with_single_valued_fields(),
        SpecializationMapping::new(
            "L2spec",
            doc,
            "//L2",
            &[("K", "./K/text()"), ("P", "./P/text()")],
        )
        .with_single_valued_fields(),
        SpecializationMapping::new(
            "L3spec",
            doc,
            "//L3",
            &[("K", "./K/text()"), ("B", "./B/text()")],
        )
        .with_single_valued_fields(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_storage::{BackendRouter, Route, XmlStoreError};
    use std::collections::HashSet;

    #[test]
    fn the_matrix_has_twelve_uniquely_named_points() {
        let matrix = Scenario::matrix();
        assert_eq!(matrix.len(), 12);
        let names: HashSet<String> = matrix.iter().map(Scenario::name).collect();
        assert_eq!(names.len(), 12);
        assert!(names.contains("chain-uniform-r0"));
        assert!(names.contains("snowflake-skewed-r2"));
    }

    /// With the document stored natively only — its GReX encoding not
    /// loaded into the relational store — every scenario's navigation query
    /// answers what `populate`'s stores answer. The relational route would
    /// scan the absent relations as empty, so it is infeasible, and forcing
    /// it fails typed.
    #[test]
    fn a_natively_stored_document_is_never_scanned_as_empty() {
        for s in Scenario::matrix() {
            let q = s.navigation_query();
            let (xml, db) = s.populate(20, 1);
            let router = BackendRouter::new(&db, &xml);
            let expected = router.execute(&router.plan(&q)).unwrap().rows;
            assert!(!expected.is_empty(), "{}", s.name());

            let (xml, db) = s.store(s.generate_document(20, 1), RelationalDatabase::new());
            let router = BackendRouter::new(&db, &xml);
            let plan = router.plan(&q);
            assert_eq!(plan.decision.costs.relational, None, "{}", s.name());
            let exec = router.execute(&plan).unwrap();
            assert_eq!(exec.rows, expected, "{}: native-only storage disagrees", s.name());
            let forced = router.execute(&router.plan_forced(&q, Route::Relational));
            assert!(matches!(forced, Err(XmlStoreError::NotLoaded { .. })), "{}", s.name());
        }
    }

    #[test]
    fn every_scenario_reformulates_and_executes() {
        for s in Scenario::matrix() {
            let mars = s.mars();
            let block = mars
                .try_reformulate_xbind(&s.client_query())
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            let best = block.result.best_or_initial().cloned();
            let best = best.unwrap_or_else(|| panic!("{}: no executable query", s.name()));
            let (xml, db) = s.populate(6, 42);
            let rows = db.query(&best);
            assert!(!rows.is_empty(), "{}: relational execution is empty", s.name());
            let router = BackendRouter::new(&db, &xml);
            let exec = router.execute(&router.plan(&best)).unwrap();
            assert_eq!(exec.rows, rows, "{}: auto route disagrees", s.name());
        }
    }

    /// The routing expectation `tests/golden_routes.rs` also pins on
    /// populated stores: redundancy 0 navigates (XML backend), redundancy ≥ 1 is
    /// view-backed (relational backend).
    #[test]
    fn redundancy_drives_the_route() {
        for s in [
            Scenario { schema: SchemaShape::Chain, data: DataShape::Uniform, redundancy: 0 },
            Scenario { schema: SchemaShape::Snowflake, data: DataShape::Skewed, redundancy: 0 },
        ] {
            let block = s.mars().try_reformulate_xbind(&s.client_query()).unwrap();
            let best = block.result.best_or_initial().unwrap().clone();
            let (xml, db) = s.populate(8, 7);
            let plan = BackendRouter::new(&db, &xml).plan(&best);
            assert_eq!(plan.decision.route, Route::Xml, "{}: {}", s.name(), plan.decision);
        }
        for s in [
            Scenario { schema: SchemaShape::Chain, data: DataShape::Uniform, redundancy: 2 },
            Scenario { schema: SchemaShape::Snowflake, data: DataShape::Uniform, redundancy: 1 },
        ] {
            let block = s.mars().try_reformulate_xbind(&s.client_query()).unwrap();
            let best = block.result.best_or_initial().unwrap().clone();
            let (xml, db) = s.populate(8, 7);
            let plan = BackendRouter::new(&db, &xml).plan(&best);
            assert_eq!(plan.decision.route, Route::Relational, "{}: {}", s.name(), plan.decision);
        }
    }

    #[test]
    fn skew_concentrates_the_chain_joins() {
        let uniform =
            Scenario { schema: SchemaShape::Chain, data: DataShape::Uniform, redundancy: 0 };
        let skewed =
            Scenario { schema: SchemaShape::Chain, data: DataShape::Skewed, redundancy: 0 };
        let (xml_u, _) = uniform.populate(10, 3);
        let (xml_s, _) = skewed.populate(10, 3);
        let count = |xml: &XmlStore, s: &Scenario| {
            xml.eval_xbind(&s.client_query(), &Default::default()).unwrap().len()
        };
        // A hot head key makes chains collide; the row sets differ.
        assert_ne!(count(&xml_u, &uniform), 0);
        assert_ne!(count(&xml_s, &skewed), 0);
    }
}
