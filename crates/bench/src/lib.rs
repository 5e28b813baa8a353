#![warn(missing_docs)]
//! The evaluation reproduction (§6): every table, figure and drill is one
//! row of [`experiments::ALL`], run by the `wukong-bench` binary
//! (`wukong-bench <name> [--quick] [--json <path>] [--dump <path>]`,
//! `wukong-bench --list`, `wukong-bench trace <dump.json>`) and, at tiny
//! scale, by the tier-1 smoke test `tests/experiments_smoke.rs`.
//!
//! An experiment is a plain function over a [`Run`] — scale, seed,
//! `--quick`, the JSON report and the text sink, built once in `main.rs`,
//! the only place that reads the process environment — returning a
//! [`Verdict`] of the gates it checked. What experiments share is plain
//! functions too: [`workload`] builds LSBench / CityBench and boots the
//! systems compared on them, [`grid`] is the arms × query-classes latency
//! table (and the Fig. 14/15 throughput mix), [`replay`] the tick loop,
//! firing digest and best-of-N repetition of the gate experiments,
//! [`modes`] the execution-mode sweep, [`report`] the `--json` document.
//!
//! # Scale
//!
//! `WUKONG_SCALE` picks the workload size: `tiny` (CI-sized), `small`
//! (default; seconds per experiment) or `paper` (larger, minutes per
//! experiment); `WUKONG_SEED` (default 42) seeds the generators. Absolute
//! numbers differ from the paper (simulated fabric, scaled data, one host
//! core) — the *shape* of each comparison is the reproduction target;
//! `EXPERIMENTS.md` records both.

pub mod experiments;
pub mod grid;
pub mod modes;
pub mod replay;
pub mod report;
pub mod run;
pub mod trace_view;
pub mod workload;

pub use modes::{assert_budget_engaged, assert_mode_engaged, cut_pieces, modes, recompute_modes};
pub use report::{BenchJson, JSON_SCHEMA_VERSION};
pub use run::{Run, Verdict};
pub use workload::{
    city_workload_seeded, ls_workload_seeded, CityWorkload, LsWorkload, Scale, Workload,
};
