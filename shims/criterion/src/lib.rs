//! Offline shim for the `criterion` crate.
//!
//! Provides the API surface `crates/bench/benches/micro.rs` uses —
//! `black_box`, `Criterion::{benchmark_group, bench_function}`,
//! `BenchmarkGroup::{bench_function, bench_with_input, finish}`,
//! `BenchmarkId`, `Bencher::iter`, and the `criterion_group!` /
//! `criterion_main!` macros. Timing is a simple calibrated loop (no
//! statistics, no plots): each benchmark is warmed up briefly, then the
//! mean ns/iter over a fixed measurement window is printed. As with the
//! real crate, a positional argument selects benchmarks by substring.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

const WARMUP: Duration = Duration::from_millis(20);
const MEASURE: Duration = Duration::from_millis(100);

pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and calibrate the batch size.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARMUP {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = WARMUP.as_nanos() as u64 / warm_iters.max(1);
        let batch = (MEASURE.as_nanos() as u64 / per_iter.max(1)).clamp(1, 10_000_000);

        let start = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
        self.iters = batch;
    }

    fn report(&self, name: &str) {
        let per = self.elapsed.as_nanos() as f64 / self.iters.max(1) as f64;
        println!(
            "bench {name:<50} {per:>14.1} ns/iter ({} iters)",
            self.iters
        );
    }
}

/// The substring filter criterion takes as its first positional
/// argument (`cargo bench --bench micro -- value_cell`): benchmarks whose
/// name does not contain it are skipped.
fn selected(name: &str) -> bool {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    filter.is_none_or(|f| name.contains(&f))
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, mut f: F) {
    if !selected(name) {
        return;
    }
    let mut b = Bencher {
        iters: 0,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    b.report(name);
}

#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            name: parameter.to_string(),
        }
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id.into()), f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id.name), |b| f(b, input));
        self
    }

    pub fn finish(&mut self) {}
}

#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        run_one(&id.into(), f);
        self
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
