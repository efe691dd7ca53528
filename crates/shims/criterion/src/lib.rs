//! Offline shim for `criterion`.
//!
//! Implements the subset of the Criterion API the workspace's benches use —
//! `criterion_group!` / `criterion_main!`, benchmark groups,
//! `bench_function` / `bench_with_input`, `Bencher::iter` and `black_box` —
//! with a simple wall-clock harness: each benchmark is warmed up once and
//! then timed over `sample_size` batches, reporting the per-iteration mean
//! and minimum. No statistics or plotting. The one command-line flag it reads
//! is `--test` (`cargo bench -- --test`): as in Criterion, every benchmark
//! body then runs once, untimed, so the benches' own assertions run. Cargo's
//! `--bench` flag and filters are ignored.

use std::fmt;
use std::time::{Duration, Instant};

/// Prevent the optimizer from discarding a value (best-effort).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier for a parameterized benchmark: `function_name/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new<P: fmt::Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId { id: format!("{function_name}/{parameter}") }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing loop handed to the benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    test_mode: bool,
}

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One warm-up iteration outside the timed region; in test mode, the
        // only one.
        black_box(routine());
        if self.test_mode {
            return;
        }
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    sample_size: usize,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        self.run(id.to_string(), f);
        self
    }

    pub fn bench_with_input<P, F>(&mut self, id: BenchmarkId, input: &P, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &P),
    {
        self.run(id.to_string(), |b| f(b, input));
        self
    }

    fn run<F: FnOnce(&mut Bencher)>(&mut self, id: String, f: F) {
        let test_mode = self.criterion.test_mode;
        let mut bencher = Bencher { samples: Vec::new(), sample_size: self.sample_size, test_mode };
        let full_id = format!("{}/{}", self.name, id);
        if test_mode {
            println!("Testing {full_id}");
        }
        f(&mut bencher);
        if test_mode {
            println!("Success");
            self.criterion.benchmarks_run += 1;
            return;
        }
        if bencher.samples.is_empty() {
            println!("{full_id:<56} (no samples)");
            return;
        }
        let total: Duration = bencher.samples.iter().sum();
        let mean = total / bencher.samples.len() as u32;
        let min = bencher.samples.iter().min().copied().unwrap_or_default();
        println!(
            "{full_id:<56} mean {:>12.3?}   min {:>12.3?}   ({} samples)",
            mean,
            min,
            bencher.samples.len()
        );
        self.criterion.benchmarks_run += 1;
    }

    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    benchmarks_run: usize,
    /// `--test` was passed: run every body once, untimed.
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { benchmarks_run: 0, test_mode: std::env::args().any(|arg| arg == "--test") }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("-- {name} --");
        BenchmarkGroup { name: name.to_string(), criterion: self, sample_size: 10 }
    }

    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let mut g = BenchmarkGroup { name: String::new(), criterion: self, sample_size: 10 };
        g.run(id.to_string(), f);
        self
    }
}

/// Declare a benchmark group: `criterion_group!(benches, fn_a, fn_b);`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declare the bench `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Cargo passes `--bench` (and possibly filter arguments); this
            // harness runs everything, once each under `--test`.
            $( $group(); )+
        }
    };
}
