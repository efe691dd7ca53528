//! # mars-bench — experiment harness
//!
//! Shared helpers for the Criterion benchmarks (`benches/`) and the
//! `experiments` binary, which regenerates every table and figure of the
//! paper's evaluation (see `EXPERIMENTS.md` at the workspace root for the
//! mapping and the paper-vs-measured record).

use mars::MarsOptions;
use mars_workloads::star::StarConfig;
use std::time::{Duration, Instant};

/// Measurement of one Figure 5 point: time to the initial reformulation and
/// the additional time to the best minimal reformulation, for a star of NC
/// corners.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Point {
    /// Star size (number of corners).
    pub nc: usize,
    /// Time to the initial reformulation.
    pub initial: Duration,
    /// Additional time to the best minimal reformulation.
    pub delta_to_best: Duration,
    /// Number of minimal reformulations discovered.
    pub minimal_count: usize,
    /// Whether the backchase hit its candidate budget (the minimal count is
    /// then a lower bound, not the exact enumeration).
    pub truncated: bool,
    /// Wall time the backchase spent chasing candidate subqueries.
    pub chase_phase: Duration,
    /// Wall time the backchase spent in containment checks (homomorphism
    /// searches).
    pub containment_phase: Duration,
}

/// Run one Figure 5 measurement (specialized compilation, cost-pruned
/// backchase — see EXPERIMENTS.md for the substitutions).
pub fn measure_fig5(nc: usize) -> Fig5Point {
    let cfg = StarConfig::figure5(nc);
    let mars = cfg.mars(MarsOptions::specialized());
    let block = mars.reformulate_xbind(&cfg.client_query());
    let initial = block.result.stats.time_to_initial;
    let delta = block.result.stats.backchase_duration;
    Fig5Point {
        nc,
        initial,
        delta_to_best: delta,
        minimal_count: block.result.minimal.len(),
        truncated: block.result.stats.backchase_truncated,
        chase_phase: block.result.stats.backchase_chase_phase,
        containment_phase: block.result.stats.backchase_containment_phase,
    }
}

/// Measurement of one Figure 8 point: total reformulation time without and
/// with schema specialization (views-only proprietary schema).
#[derive(Clone, Copy, Debug)]
pub struct Fig8Point {
    /// Star size.
    pub nc: usize,
    /// Reformulation time without specialization.
    pub without: Duration,
    /// Reformulation time with specialization.
    pub with: Duration,
}

impl Fig8Point {
    /// The ratio plotted in Figure 8.
    pub fn ratio(&self) -> f64 {
        self.without.as_secs_f64() / self.with.as_secs_f64().max(1e-9)
    }
}

/// Run one Figure 8 measurement.
pub fn measure_fig8(nc: usize) -> Fig8Point {
    let cfg = StarConfig::figure8(nc);
    let start = Instant::now();
    let plain = cfg.mars(MarsOptions::default());
    let _ = plain.reformulate_xbind(&cfg.client_query());
    let without = start.elapsed();

    let start = Instant::now();
    let spec = cfg.mars(MarsOptions::specialized());
    let _ = spec.reformulate_xbind(&cfg.client_query());
    let with = start.elapsed();
    Fig8Point { nc, without, with }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_point_is_measurable_for_small_stars() {
        let p = measure_fig5(3);
        assert_eq!(p.nc, 3);
        assert!(p.minimal_count >= 1);
    }

    #[test]
    fn fig8_ratio_is_positive() {
        let p = measure_fig8(3);
        assert!(p.ratio() > 0.0);
    }
}
