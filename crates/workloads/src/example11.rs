//! The running healthcare scenario of Example 1.1.
//!
//! Proprietary storage: two relational tables `patientDiag(name, diag)` and
//! `patientDrug(name, drug, usage)`, a native XML document `catalog.xml`
//! (drug → price, notes), plus redundant tuning storage: the `drugPrice`
//! table (LAV view of catalog.xml) and the cached document `cacheEntry.xml`
//! (result of a previously answered query over the published data).
//!
//! Published (public) schema: `case.xml` (the CaseMap GAV view joining the
//! patient tables and hiding the patient name) and `catalog.xml` itself
//! (identity IdMap).

use mars::{Mars, MarsOptions, SchemaCorrespondence};
use mars_grex::ViewDef;
use mars_storage::{materialize_view, RelationalDatabase, XmlStore};
use mars_xml::{parse_document, parse_path};
use mars_xquery::{XBindAtom, XBindQuery, XBindTerm};

/// Names of the documents/tables of the scenario.
pub mod names {
    /// Published case document (virtual, GAV).
    pub const CASE: &str = "case.xml";
    /// Drug catalog (both proprietary and published through IdMap).
    pub const CATALOG: &str = "catalog.xml";
    /// Cached query result (LAV).
    pub const CACHE: &str = "cacheEntry.xml";
    /// Redundant relational price table (LAV).
    pub const DRUG_PRICE: &str = "drugPrice";
    /// Proprietary diagnosis table.
    pub const PATIENT_DIAG: &str = "patientDiag";
    /// Proprietary drug-usage table.
    pub const PATIENT_DRUG: &str = "patientDrug";
}

/// CaseMap: publish the join of the patient tables (projecting the name away)
/// as `case.xml` with one `case` element per (diagnosis, drug, usage) triple.
pub fn case_map() -> ViewDef {
    let body = XBindQuery::new("CaseMapBody")
        .with_head(&["diag", "drug", "usage"])
        .with_atom(XBindAtom::Relational {
            relation: names::PATIENT_DIAG.to_string(),
            args: vec![XBindTerm::var("name"), XBindTerm::var("diag")],
        })
        .with_atom(XBindAtom::Relational {
            relation: names::PATIENT_DRUG.to_string(),
            args: vec![XBindTerm::var("name"), XBindTerm::var("drug"), XBindTerm::var("usage")],
        });
    ViewDef::xml_flat("CaseMap", body, names::CASE, "case", &["diagnosis", "drug", "usage"])
}

/// DrugPriceMap: store the drug → price association of catalog.xml
/// redundantly in the relational table `drugPrice` (LAV, STORED-style).
pub fn drug_price_map() -> ViewDef {
    let body = XBindQuery::new("DrugPriceBody")
        .with_head(&["drug", "price"])
        .with_atom(XBindAtom::AbsolutePath {
            document: names::CATALOG.to_string(),
            path: parse_path("//drug").unwrap(),
            var: "d".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./name/text()").unwrap(),
            source: "d".to_string(),
            var: "drug".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./price/text()").unwrap(),
            source: "d".to_string(),
            var: "price".to_string(),
        });
    ViewDef::relational(names::DRUG_PRICE, body)
}

/// PrevQ / cacheEntry.xml: a previously answered query caching the
/// diagnosis → drug association from case.xml (LAV view of the public data).
pub fn cache_map() -> ViewDef {
    let body = XBindQuery::new("PrevQBody")
        .with_head(&["diag", "drug"])
        .with_atom(XBindAtom::AbsolutePath {
            document: names::CASE.to_string(),
            path: parse_path("//case").unwrap(),
            var: "c".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./diagnosis/text()").unwrap(),
            source: "c".to_string(),
            var: "diag".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./drug/text()").unwrap(),
            source: "c".to_string(),
            var: "drug".to_string(),
        });
    ViewDef::xml_flat("PrevQ", body, names::CACHE, "entry", &["diagnosis", "drug"])
}

/// The full schema correspondence of Example 1.1 (two GAV + two LAV views).
pub fn correspondence() -> SchemaCorrespondence {
    SchemaCorrespondence {
        public_documents: vec![names::CASE.to_string(), names::CATALOG.to_string()],
        gav_views: vec![case_map()],
        lav_views: vec![drug_price_map(), cache_map()],
        xics: Vec::new(),
        relational_constraints: Vec::new(),
        proprietary_relations: vec![
            names::PATIENT_DIAG.to_string(),
            names::PATIENT_DRUG.to_string(),
        ],
        proprietary_documents: vec![names::CATALOG.to_string()],
        specializations: Vec::new(),
    }
}

/// The client query of Example 1.1: the association between each diagnosis
/// and the corresponding drug's price, posed against the published documents.
pub fn client_query() -> XBindQuery {
    XBindQuery::new("DiagPrice")
        .with_head(&["diag", "price"])
        .with_atom(XBindAtom::AbsolutePath {
            document: names::CASE.to_string(),
            path: parse_path("//case").unwrap(),
            var: "c".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./diagnosis/text()").unwrap(),
            source: "c".to_string(),
            var: "diag".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./drug/text()").unwrap(),
            source: "c".to_string(),
            var: "drug".to_string(),
        })
        .with_atom(XBindAtom::AbsolutePath {
            document: names::CATALOG.to_string(),
            path: parse_path("//drug").unwrap(),
            var: "d".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./name/text()").unwrap(),
            source: "d".to_string(),
            var: "drug2".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./price/text()").unwrap(),
            source: "d".to_string(),
            var: "price".to_string(),
        })
        .with_atom(XBindAtom::Eq(XBindTerm::var("drug"), XBindTerm::var("drug2")))
}

/// The MARS system for the scenario.
pub fn mars() -> Mars {
    Mars::with_options(correspondence(), MarsOptions::default())
}

/// Populate concrete storage: patient tables, catalog.xml, and the redundant
/// views (drugPrice table, case.xml and cacheEntry.xml documents).
pub fn populate(patients: usize) -> (XmlStore, RelationalDatabase) {
    let mut db = RelationalDatabase::new();
    let drugs = ["aspirin", "inhaler", "insulin", "statin"];
    let diags = ["flu", "asthma", "diabetes", "cholesterol"];
    for p in 0..patients {
        let name = format!("patient{p}");
        db.insert_strs(names::PATIENT_DIAG, &[&name, diags[p % diags.len()]]);
        db.insert_strs(names::PATIENT_DRUG, &[&name, drugs[p % drugs.len()], "daily"]);
    }
    let mut catalog = String::from("<catalog>");
    for (i, d) in drugs.iter().enumerate() {
        catalog.push_str(&format!(
            "<drug><name>{d}</name><price>{}</price><notes><note>generic ok</note></notes></drug>",
            3 + i
        ));
    }
    catalog.push_str("</catalog>");
    let mut xml = XmlStore::new();
    xml.add_document(parse_document(names::CATALOG, &catalog).unwrap());

    // Materialize CaseMap (publishing, the GAV join of the tables), then the
    // LAV tuning views over the catalog and over the case document it wrote.
    for view in [case_map(), drug_price_map(), cache_map()] {
        materialize_view(&view, &mut xml, &mut db)
            .expect("each view reads tables and documents populated before it");
    }
    // Ground GReX encodings of the proprietary catalog and the cached
    // document: reformulations navigate them with `tag#`/`child#`/... atoms,
    // which the relational executor can only satisfy from loaded facts.
    for name in [names::CATALOG, names::CACHE] {
        if let Some(doc) = xml.document(name) {
            db.load_facts(&mars_grex::encode_document(doc));
        }
    }
    (xml, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::Predicate;

    #[test]
    fn storage_is_mixed_and_redundant() {
        let (xml, db) = populate(8);
        assert!(xml.document(names::CATALOG).is_some());
        assert!(xml.document(names::CASE).is_some());
        assert!(xml.document(names::CACHE).is_some());
        assert_eq!(db.cardinality(names::PATIENT_DIAG), 8);
        assert_eq!(db.cardinality(names::DRUG_PRICE), 4);
    }

    #[test]
    fn client_query_is_reformulated_to_proprietary_storage() {
        let system = mars();
        let block = system.reformulate_xbind(&client_query());
        assert!(block.result.has_reformulation(), "Example 1.1 must be reformulable");
        let best = block.result.best_or_initial().unwrap();
        // The reformulation must avoid the virtual public document case.xml:
        // every atom is over proprietary storage.
        let public_case = mars_grex::GrexSchema::new(names::CASE);
        assert!(best.body.iter().all(|a| !public_case.owns(a.predicate)));
        // It accesses proprietary storage only: the cached diagnosis-drug
        // association (cacheEntry.xml), the drugPrice table / catalog.xml, or
        // the patient tables themselves — the three alternatives Example 1.1
        // lists. (Which one wins depends on the cost model.)
        let cache = mars_grex::GrexSchema::new(names::CACHE);
        let catalog = mars_grex::GrexSchema::new(names::CATALOG);
        let uses_proprietary = best.body.iter().any(|a| {
            a.predicate == Predicate::new(names::PATIENT_DIAG)
                || a.predicate == Predicate::new(names::PATIENT_DRUG)
                || a.predicate == Predicate::new(names::DRUG_PRICE)
                || cache.owns(a.predicate)
                || catalog.owns(a.predicate)
        });
        assert!(uses_proprietary, "reformulation must access proprietary storage: {best}");
    }

    #[test]
    fn multiple_reformulations_exist_due_to_redundancy() {
        let system = Mars::with_options(correspondence(), MarsOptions::default().exhaustive());
        let block = system.reformulate_xbind(&client_query());
        // Redundant storage admits several alternatives (catalog.xml vs the
        // drugPrice table vs the cacheEntry cache); the exhaustive backchase
        // must surface at least one minimal reformulation and record the
        // redundancy in the universal plan.
        assert!(!block.result.minimal.is_empty());
        assert!(
            block.result.stats.universal_plan_atoms > block.compiled.body.len(),
            "the chase must have brought redundant storage into the universal plan"
        );
    }
}
