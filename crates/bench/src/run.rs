//! What every experiment is handed ([`Run`]) and hands back
//! ([`Verdict`]).

use crate::report::BenchJson;
use crate::workload::{ls_workload_seeded, LsWorkload, Scale, Workload};
use std::io::Write;
use std::path::PathBuf;

/// One experiment invocation: the knobs the command line and the
/// environment set, the machine-readable report, and where text goes.
/// `main` builds it once from `WUKONG_SCALE`, `WUKONG_SEED` and the
/// arguments; tests build it directly.
pub struct Run {
    /// Workload size.
    pub scale: Scale,
    /// Seed of the workload generators and fault plans.
    pub seed: u64,
    /// `--quick`: the CI-sized variant of experiments that have one.
    pub quick: bool,
    /// The `--json` report (inactive without the flag).
    pub json: BenchJson,
    /// `--dump <path>`: where `exp_trace` writes its captured trace dump.
    pub dump: Option<PathBuf>,
    out: Box<dyn Write>,
}

impl Run {
    /// A run writing its text to `out`.
    pub fn new(scale: Scale, seed: u64, quick: bool, json: BenchJson, out: Box<dyn Write>) -> Self {
        Run {
            scale,
            seed,
            quick,
            json,
            dump: None,
            out,
        }
    }

    /// Prints one line (use through [`say!`](crate::say)).
    pub fn say(&mut self, line: std::fmt::Arguments<'_>) {
        writeln!(self.out, "{line}").expect("text sink accepts output");
    }

    /// Prints a table header row plus a separator.
    pub fn header(&mut self, title: &str, cols: &[&str]) {
        self.say(format_args!("\n=== {title} ==="));
        self.row(cols.iter().map(|s| s.to_string()).collect());
        self.say(format_args!("{}", "-".repeat(cols.len() * 14)));
    }

    /// Prints one table row with fixed-width columns.
    pub fn row(&mut self, cells: Vec<String>) {
        let row: Vec<String> = cells.iter().map(|c| format!("{c:>13}")).collect();
        self.say(format_args!("{}", row.join(" ")));
    }

    /// Builds the LSBench workload at this run's scale and seed and
    /// prints its banner; `detail` names what else the experiment fixes
    /// (`", 8 nodes"`).
    pub(crate) fn ls_workload(&mut self, detail: &str) -> LsWorkload {
        let w = ls_workload_seeded(self.scale, self.seed);
        self.banner("LSBench", &w, detail);
        w
    }

    /// Prints a workload's banner line.
    pub(crate) fn banner<G>(&mut self, name: &str, w: &Workload<G>, detail: &str) {
        let scale = self.scale;
        self.say(format_args!(
            "{name}: {} stored triples, {} stream tuples over {} ms{detail} (scale {scale:?})",
            w.stored.len(),
            w.timeline.len(),
            w.duration,
        ));
    }
}

/// Prints one formatted line to a [`Run`]'s text sink.
#[macro_export]
macro_rules! say {
    ($run:expr, $($arg:tt)*) => {
        $run.say(format_args!($($arg)*))
    };
}

/// The gates an experiment checked and which of them failed. Experiments
/// only collect; `main` is the one place that turns a failed verdict into
/// a non-zero exit.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Failed gates on deterministic values (result hashes, counts,
    /// modeled work): a failure in any build.
    pub failed: Vec<String>,
    /// Failed gates on measured time. They hold in an optimised build
    /// only, so `main` enforces them in release and reports them in
    /// debug, and the tier-1 smoke test (a debug build) reports them.
    pub timing: Vec<String>,
}

impl Verdict {
    /// Records a deterministic gate; `why` is only rendered on failure.
    pub fn gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failed.push(why());
        }
    }

    /// Records a gate on measured time.
    pub(crate) fn timing_gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.timing.push(why());
        }
    }
}
