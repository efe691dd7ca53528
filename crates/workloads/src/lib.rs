//! # mars-workloads — workload and configuration generators
//!
//! Generators for every configuration used in the paper's evaluation:
//!
//! * [`star`] — the synthetic **XML star queries** of Section 4.1 (public
//!   schema with a hub `R` and `NC` corners `S_i`, `NV` redundantly
//!   materialized star views, key/foreign-key constraints), used by the
//!   Figure 5 scalability experiment and the Figure 8 specialization
//!   experiment;
//! * [`stress`] — the Section 3 chase stress test (`//a/b/c/d/e/f/g/h/i/j`
//!   against TIX);
//! * [`example11`] — the running healthcare scenario of Example 1.1
//!   (patient tables, catalog.xml, CaseMap/IdMap GAV views, DrugPriceMap and
//!   cacheEntry LAV views);
//! * [`xmark`] — a scaled-down XMark-like auction scenario with realistic
//!   queries and redundant views (Section 4.2's feasibility experiment).
//!
//! For the backend router, [`scenarios`] provides the 12-point scenario
//! matrix (chain/snowflake schema × uniform/skewed data × redundancy 0–2)
//! behind the cross-backend differential suite and the golden routing
//! decisions (`tests/golden/routes/`).

#![deny(missing_docs)]

pub mod example11;
pub mod scenarios;
pub mod star;
pub mod stress;
pub mod xmark;
