//! Order statistics, digests and process facts. No product types here.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Smoothed quantile of an ascending-sorted sample: the mean of the order
/// statistics under normal weights centred on rank `p·n` with standard
/// deviation `√(p(1−p)·n)` ranks — the large-sample form of the
/// Harrell–Davis estimator. Where a request mix puts a quantile on the
/// boundary between two latency clusters, the nearest-rank value jumps from
/// one cluster to the other when noise reorders two samples; this one moves
/// by a fraction of the gap.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len() as f64;
    let sd = (p * (1.0 - p) * n).sqrt().max(0.5);
    let (mut weighted, mut weights) = (0.0, 0.0);
    for (i, value) in sorted.iter().enumerate() {
        let z = (i as f64 + 0.5 - p * n) / sd;
        let w = (-0.5 * z * z).exp();
        weighted += w * value;
        weights += w;
    }
    weighted / weights
}

/// Median (50th nearest-rank percentile); sorts `values` in place.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Median of a sample that may be empty (then 0).
pub fn median_or_zero(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&mut values)
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

/// The serialized children of the result root, in document order.
///
/// `Document::to_xml` writes one node per line with two spaces of indentation
/// per level, so a child of the root starts at every line indented by exactly
/// two spaces that is not a closing tag, and runs to the next such line.
pub fn root_children(xml: &str) -> Vec<&str> {
    let mut starts = Vec::new();
    let mut offset = 0;
    let mut last_line = 0;
    for line in xml.split_inclusive('\n') {
        let depth_one = line.starts_with("  ") && !line.starts_with("   ");
        if depth_one && !line.starts_with("  </") {
            starts.push(offset);
        }
        last_line = offset;
        offset += line.len();
    }
    starts
        .iter()
        .enumerate()
        .map(|(i, &s)| &xml[s..starts.get(i + 1).copied().unwrap_or(last_line)])
        .collect()
}

/// Digest of the **set** of the result root's children. Order is left out
/// because the engine returns rows in interned-symbol order, an artefact of
/// the process history; multiplicity because direct evaluation yields one
/// child per binding of every `for` variable, the published document one per
/// distinct row.
pub fn document_digest(xml: &str) -> u64 {
    let children: std::collections::BTreeSet<&str> = root_children(xml).into_iter().collect();
    children
        .iter()
        .fold(fnv1a(&children.len().to_le_bytes()), |acc, c| acc.wrapping_add(fnv1a(c.as_bytes())))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What [`calibration_kernel`] takes at reference speed: about what this
/// repository's container needs when nothing else runs on its host.
pub const REFERENCE_KERNEL_MS: f64 = 1.0;

/// A fixed piece of work with the instruction mix of the program under test:
/// small allocations, string compares, hashing, sorting, copying. It calls
/// nothing of the program.
///
/// It allocates on purpose. An allocation-free variant (hash, sort and search
/// packed keys in place) was measured next to this one in the same runs: on
/// a busy host it follows the program far worse (`cold_templates` throughput
/// spread 10 % against 1.4 %, `nav_mixed` median 14 % against 8 %), because
/// what the host slows down most is what an allocating program does most.
/// The price: the kernel shares the heap with the program, and took 0.92 ms
/// on a fresh heap against 1.03 ms on the one a run leaves behind.
pub fn calibration_kernel() -> u64 {
    let mut map: std::collections::BTreeMap<String, Vec<String>> = Default::default();
    let mut rng = Rng::new(42);
    for i in 0..3000u32 {
        map.entry(format!("k{}", rng.below(700))).or_default().push(format!("v{i}"));
    }
    let mut rows: Vec<(u64, &String)> = map
        .iter()
        .flat_map(|(k, vs)| vs.iter().map(move |v| (fnv1a(k.as_bytes()) ^ fnv1a(v.as_bytes()), v)))
        .collect();
    rows.sort();
    let copies: Vec<String> = rows.iter().map(|(_, v)| (*v).clone()).collect();
    std::hint::black_box(copies.len() as u64 ^ rows[0].0)
}

/// Wall time of one run of the calibration kernel, in ms.
pub fn kernel_ms() -> f64 {
    let clock = std::time::Instant::now();
    calibration_kernel();
    clock.elapsed().as_secs_f64() * 1e3
}

/// SplitMix64: the request stream's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), 2.0);
    }

    #[test]
    fn smoothed_quantile_tracks_the_rank_and_smooths_a_boundary() {
        let ramp: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((quantile(&ramp, 0.5) - 499.5).abs() < 0.01);
        assert!((quantile(&ramp, 0.9) - 899.5).abs() < 0.5);
        assert!((quantile(&[7.0], 0.9) - 7.0).abs() < 1e-12);
        // Two clusters meeting exactly at the 90th percentile: nearest rank
        // flips between them when one sample crosses over, the smoothed
        // value moves by a small part of the gap.
        let mut clusters: Vec<f64> = vec![10.0; 90];
        clusters.extend(vec![20.0; 10]);
        let mut crossed = clusters.clone();
        crossed[89] = 20.0;
        assert_eq!(percentile(&crossed, 90.0) - percentile(&clusters, 90.0), 10.0);
        let moved = quantile(&crossed, 0.9) - quantile(&clusters, 0.9);
        assert!(moved > 0.0 && moved < 2.0, "moved by {moved}");
    }

    #[test]
    fn children_are_split_on_depth_one_lines() {
        let xml = "<xquery-result>\n  <row>\n    <k>k1</k>\n  </row>\n  <row>\n    <k>k0</k>\n  </row>\n</xquery-result>\n";
        let c = root_children(xml);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], "  <row>\n    <k>k1</k>\n  </row>\n");
        assert_eq!(c[1], "  <row>\n    <k>k0</k>\n  </row>\n");
        assert!(root_children("<xquery-result/>\n").is_empty());
        assert_eq!(
            root_children("<xquery-result>\n  <n>a</n>\n</xquery-result>\n"),
            ["  <n>a</n>\n"]
        );
    }

    #[test]
    fn digest_ignores_child_order_and_repeats_but_not_content() {
        let a = "<r>\n  <n>a</n>\n  <n>b</n>\n</r>\n";
        let b = "<r>\n  <n>b</n>\n  <n>a</n>\n  <n>b</n>\n</r>\n";
        let c = "<r>\n  <n>a</n>\n  <n>c</n>\n</r>\n";
        assert_eq!(document_digest(a), document_digest(b));
        assert_ne!(document_digest(a), document_digest(c));
        assert_ne!(document_digest(a), document_digest("<r>\n  <n>a</n>\n</r>\n"));
    }

    #[test]
    fn the_calibration_kernel_repeats_its_result() {
        assert_eq!(calibration_kernel(), calibration_kernel());
        assert!(kernel_ms() > 0.0);
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            let x = a.below(13);
            assert_eq!(x, b.below(13));
            assert!(x < 13);
        }
    }
}
