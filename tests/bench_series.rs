//! The committed perf series at the repository root: one
//! `BENCH_<workload>.json` per `bench_suite` workload, plus
//! `BENCH_paper_table2.json` for paper-scale Table 2. Each holds one entry
//! per measured change and seed, in change order: the measured and parent
//! revisions, the seeds, the number of alternating run pairs, and per
//! metric the parent and change medians, the pairs the change won and the
//! parent runs' interquartile range. This checks their shape, and that
//! every `bench_suite` metric is one `BENCHMARK.json` declares, in its
//! unit. It reads files only; the series is written by hand from
//! alternating runs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use wukong_obs::json::{parse, Json};

fn root_file(name: &str) -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn field<'a>(j: &'a Json, key: &str, at: &str) -> &'a Json {
    j.get(key).unwrap_or_else(|| panic!("{at}: no `{key}`"))
}

/// Checks one series file; `units` holds the declared unit of every
/// metric a `bench_suite` series may carry.
fn check_series(name: &str, units: Option<&BTreeMap<String, String>>) {
    let doc = root_file(name);
    let entries = field(&doc, "entries", name)
        .as_arr()
        .expect("entries array");
    assert!(!entries.is_empty(), "{name}: no entries");
    let mut last = 0;
    for e in entries {
        let change = field(e, "change", name).as_u64().expect("change number");
        // A change measured on several seeds has one entry per seed.
        assert!(
            change >= last,
            "{name}: entries out of change order at {change}"
        );
        last = change;
        let at = format!("{name} #{change}");
        for key in ["rev", "parent_rev"] {
            assert!(
                field(e, key, &at).as_str().is_some_and(|s| !s.is_empty()),
                "{at}: {key}"
            );
        }
        let seeds = field(e, "seeds", &at).as_arr().expect("seeds array");
        assert!(
            !seeds.is_empty() && seeds.iter().all(|s| s.as_u64().is_some()),
            "{at}: seeds"
        );
        let pairs = field(e, "pairs", &at).as_u64().expect("pairs");
        assert!(pairs >= 1, "{at}: pairs");
        let metrics = field(e, "metrics", &at).as_obj().expect("metrics object");
        assert!(!metrics.is_empty(), "{at}: no metrics");
        for (metric, m) in metrics {
            let unit = field(m, "unit", &at).as_str().expect("unit string");
            if let Some(units) = units {
                let declared = units
                    .get(metric)
                    .unwrap_or_else(|| panic!("{at}: `{metric}` is not in BENCHMARK.json"));
                assert_eq!(unit, declared, "{at}: unit of {metric}");
            }
            for key in ["parent_median", "change_median", "parent_iqr"] {
                let v = field(m, key, &at).as_f64().expect("number");
                assert!(v.is_finite() && v >= 0.0, "{at}: {metric}.{key} = {v}");
            }
            let wins = field(m, "wins", &at).as_u64().expect("wins");
            assert!(wins <= pairs, "{at}: {metric} wins {wins} of {pairs} pairs");
        }
    }
}

#[test]
fn bench_series_match_the_benchmark_declaration() {
    let decl = root_file("BENCHMARK.json");
    let mut units = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in field(&decl, section, "BENCHMARK.json")
            .as_arr()
            .expect("metric list")
        {
            let name = field(m, "name", section).as_str().expect("name");
            let unit = field(m, "unit", section).as_str().expect("unit");
            units.insert(name.to_string(), unit.to_string());
        }
    }
    let workloads = field(&decl, "workloads", "BENCHMARK.json")
        .as_arr()
        .expect("workloads");
    assert!(!workloads.is_empty());
    for w in workloads {
        let name = field(w, "name", "workloads")
            .as_str()
            .expect("workload name");
        check_series(&format!("BENCH_{name}.json"), Some(&units));
    }
    check_series("BENCH_paper_table2.json", None);
}
