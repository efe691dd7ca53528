//! The metric catalogue: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`marsbench --print-benchmark-json`); a test keeps the file in step.

use crate::workloads::Kind;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// End-to-end metrics with the share of the parent's median by which each
/// may get worse before a change counts as a regression. Every bound is at
/// least three times the widest spread (interquartile range over median, ten
/// seeds) measured for the metric on any workload; see the README.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (MetricDef { name: "setup_s", unit: "s", better: "lower" }, 0.25),
    (MetricDef { name: "publish_p50_ms", unit: "ms", better: "lower" }, 0.15),
    (MetricDef { name: "publish_p90_ms", unit: "ms", better: "lower" }, 0.25),
    (MetricDef { name: "publishes_per_s", unit: "1/s", better: "higher" }, 0.15),
    (MetricDef { name: "peak_rss_mb", unit: "MiB", better: "lower" }, 0.10),
];

const fn ms(name: &'static str) -> MetricDef {
    MetricDef { name, unit: "ms", better: "lower" }
}

const fn count(name: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit: "count", better }
}

const fn ratio(name: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit: "ratio", better }
}

/// Per-layer metrics of the traced run. Times are medians over the requests
/// of round 0 that have the span; counts are totals over round 0.
pub const PER_LAYER: [MetricDef; 63] = [
    ms("xquery.parse_ms"),
    ms("xquery.decorrelate_ms"),
    ms("xquery.shape_ms"),
    ms("driver.project_heads_ms"),
    ms("driver.bind_rows_ms"),
    ms("driver.release_ms"),
    ms("specialize.rewrite_ms"),
    ms("grex.compile_ms"),
    count("grex.compiled_atoms", "lower"),
    ms("mars.cold_reformulate_ms"),
    ms("mars.warm_reformulate_ms"),
    ratio("mars.cache_hit_ratio", "higher"),
    count("mars.cache_entries", "lower"),
    count("mars.cache_invalidations", "lower"),
    count("mars.degraded_uncached", "lower"),
    count("mars.served", "higher"),
    count("mars.degraded", "lower"),
    count("mars.shed", "lower"),
    count("mars.panicked", "lower"),
    ms("mars.compile_correspondence_ms"),
    ms("mars.replace_ms"),
    ms("chase.universal_plan_ms"),
    ms("chase.initial_ms"),
    count("chase.universal_plan_atoms", "lower"),
    count("chase.rounds", "lower"),
    count("chase.applied_steps", "lower"),
    count("chase.compilations", "lower"),
    count("chase.index_builds", "lower"),
    ms("backchase.total_ms"),
    ms("backchase.cost_ms"),
    ms("backchase.chase_ms"),
    ms("backchase.containment_ms"),
    count("backchase.candidates_inspected", "lower"),
    count("backchase.equivalence_checks", "lower"),
    count("backchase.chase_cache_hits", "higher"),
    count("backchase.dead_cone_skips", "higher"),
    count("backchase.success_transfers", "higher"),
    count("backchase.delta_searches", "higher"),
    count("backchase.minimal_found", "higher"),
    ratio("backchase.useful_ratio", "higher"),
    ms("storage.render_sql_ms"),
    ms("cost.route_ms"),
    ms("cost.plan_ms"),
    ratio("cost.q_error", "lower"),
    ms("storage.exec_relational_ms"),
    ms("storage.exec_xml_ms"),
    ms("storage.exec_mixed_ms"),
    count("storage.route_relational", "higher"),
    count("storage.route_xml", "higher"),
    count("storage.route_mixed", "higher"),
    count("storage.rows_out", "higher"),
    ms("storage.first_exec_ms"),
    ms("storage.tag_ms"),
    ms("xml.serialize_ms"),
    MetricDef { name: "xml.result_bytes", unit: "bytes", better: "higher" },
    ms("workloads.generate_ms"),
    ms("storage.materialize_views_ms"),
    ms("grex.encode_document_ms"),
    ms("storage.load_facts_ms"),
    count("storage.facts_loaded", "higher"),
    ratio("trace.overhead_share", "lower"),
    ratio("trace.coverage_share", "higher"),
    count("trace.requests", "higher"),
];

/// Per-layer metrics that must repeat exactly between two runs of a seed.
pub fn is_exact(name: &str) -> bool {
    let unit_is_exact =
        PER_LAYER.iter().any(|m| m.name == name && (m.unit == "count" || m.unit == "bytes"));
    unit_is_exact
        || matches!(name, "mars.cache_hit_ratio" | "backchase.useful_ratio" | "cost.q_error")
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Kind::ALL
        .iter()
        .map(|k| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", k.name(), k.why()))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        // Not `assert_eq!`: a mismatch would print both files.
        assert!(on_disk == benchmark_json(), "regenerate it with --print-benchmark-json");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(m, _)| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Kind::ALL.iter().map(|k| k.name()));
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(Kind::ALL.iter().all(|k| k.why().len() <= 200 && !k.why().contains('"')));
        assert!(END_TO_END.iter().all(|(_, bound)| *bound <= 0.25));
    }
}
