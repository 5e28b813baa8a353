#![warn(missing_docs)]
//! Shared harness for the evaluation reproduction (§6).
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (see `DESIGN.md`'s experiment index). This library holds what they
//! share: workload construction, engine feeding, latency sampling, and
//! table/series printing.
//!
//! # Scale
//!
//! The environment variable `WUKONG_SCALE` picks the workload size:
//! `tiny` (CI-sized), `small` (default; seconds per experiment) or
//! `paper` (larger, minutes per experiment). Absolute numbers differ from
//! the paper (simulated fabric, scaled data, one host core) — the *shape*
//! of each comparison is the reproduction target; `EXPERIMENTS.md`
//! records both.

pub mod modes;
pub mod report;
pub mod workload;

pub use modes::{assert_budget_engaged, assert_mode_engaged, modes, recompute_modes};
pub use report::{fmt_ms, print_header, print_row, BenchJson, JSON_SCHEMA_VERSION};
pub use workload::{
    city_workload, city_workload_seeded, feed_composite, feed_engine, feed_spark, feed_wukong_ext,
    ls_workload, ls_workload_seeded, measure_mix, mix_throughput, sample_composite,
    sample_continuous, seed_from_env, CityWorkload, LsWorkload, Scale,
};
