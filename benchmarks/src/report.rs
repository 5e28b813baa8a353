//! Tools around runs: `noise` (run-to-run spread on one build),
//! `compare` (two result files against the bounds), and the generator of
//! the committed digests.

use crate::drive::{run_pass, PassMode};
use crate::estimator::median;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::run::{write_json, OUT_DIR};
use crate::verify::expected_key;
use crate::workload::{Inputs, ROUNDS, SMOKE_ROUNDS, SPECS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use wukong_core::WukongS;
use wukong_obs::Json;

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// `b` is better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if m.better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

fn metric_values(j: &Json) -> BTreeMap<String, f64> {
    j.get("metrics")
        .and_then(Json::as_obj)
        .map(|o| {
            o.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// `compare a.json b.json`: every end-to-end metric of two result files
/// of one workload against its bound. Returns whether `b` is within
/// every bound.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        wukong_obs::json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let name = |j: &Json| {
        j.get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    if name(&a) != name(&b) {
        return Err(format!("different workloads: {} vs {}", name(&a), name(&b)));
    }
    let (va, vb) = (metric_values(&a), metric_values(&b));
    println!(
        "{:<22} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse_by", "bound"
    );
    let mut ok = true;
    for m in &END_TO_END {
        let (Some(&x), Some(&y)) = (va.get(m.name), vb.get(m.name)) else {
            continue;
        };
        let w = worse_by(m, x, y);
        let verdict = if w > m.bound {
            ok = false;
            "REGRESSION"
        } else if w < -m.bound {
            "improved"
        } else {
            "within bound"
        };
        println!(
            "{:<22} {:<22} {:>14.6} {:>14.6} {:>+9.4} {:>6.2}  {verdict}",
            name(&a),
            m.name,
            x,
            y,
            w,
            m.bound
        );
    }
    Ok(ok)
}

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// gives them (exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0) - 1.0;
        let lo = pos.floor().clamp(0.0, (n - 1) as f64) as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo] + (v[hi] - v[lo]) * frac
    };
    (at(0.25), at(0.75))
}

/// `noise`: runs every workload `runs` times on this build, run `i` with
/// seed `42 + i` as the driver varies it, in child processes (so each run
/// has its own peak RSS). Reports, per end-to-end metric, the largest
/// deviation from the median and the interquartile spread (the driver's
/// statistic), both as shares of the median. Returns whether every
/// deviation stayed within half its bound. `setup_s` is reported but not
/// gated: the driver, too, holds only its median to its bound, and one
/// 0.3 s hash-table build is the first thing a slow spell of the host
/// shows in.
pub fn noise(runs: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let mut report = Json::object();
    for spec in &SPECS {
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..runs {
            let seed = 42 + i as u64;
            let out = Command::new(&exe)
                .args(["run", "--workload", spec.name])
                .args(["--seed", &seed.to_string()])
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let j = wukong_obs::json::parse(last)
                .map_err(|e| format!("{} run {i}: no result line ({e})", spec.name))?;
            if !out.status.success() || j.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{} run {i} (seed {seed}) failed its checks",
                    spec.name
                ));
            }
            for (k, v) in metric_values(&j) {
                series.entry(k).or_default().push(v);
            }
            eprintln!("{} run {}/{} done", spec.name, i + 1, runs);
        }
        println!(
            "{:<22} {:<22} {:>14} {:>9} {:>9} {:>6}  verdict",
            "workload", "metric", "median", "max_dev", "iqr", "bound"
        );
        let mut per_metric = Json::object();
        for m in &END_TO_END {
            let values = &series[m.name];
            let med = median(values);
            let max_dev = values
                .iter()
                .map(|v| (v - med).abs() / med)
                .fold(0.0, f64::max);
            let (q1, q3) = quartiles(values);
            let iqr = (q3 - q1) / med;
            let gated = m.name != "setup_s";
            let ok = max_dev <= m.bound / 2.0;
            all_ok &= ok || !gated;
            println!(
                "{:<22} {:<22} {:>14.6} {:>9.4} {:>9.4} {:>6.2}  {}",
                spec.name,
                m.name,
                med,
                max_dev,
                iqr,
                m.bound,
                match (ok, gated) {
                    (true, _) => "ok",
                    (false, true) => "TOO NOISY",
                    (false, false) => "noisy, not gated",
                }
            );
            let mut e = Json::object();
            e.set("median", med.into())
                .set("spread", max_dev.into())
                .set("iqr", iqr.into())
                .set("bound", m.bound.into())
                .set(
                    "values",
                    Json::Arr(values.iter().map(|&v| v.into()).collect()),
                );
            per_metric.set(m.name, e);
        }
        report.set(spec.name, per_metric);
    }
    write_json(Path::new(OUT_DIR), "noise.json", &report)?;
    Ok(all_ok)
}

/// `expect`: the digests of seeds 42 and 7 at the full and the smoke
/// length, for `expected.json`. One pass each; replay is deterministic.
pub fn expect() -> String {
    let mut all = Json::object();
    for spec in &SPECS {
        for seed in [42, 7] {
            for rounds in [ROUNDS, SMOKE_ROUNDS] {
                let inputs = Inputs::generate(spec, seed, rounds);
                let rec = run_pass(&inputs, PassMode::default(), &mut |_: &WukongS| {});
                let mut e = Json::object();
                e.set("inputs", format!("{:016x}", inputs.digest).into())
                    .set("results", format!("{:016x}", rec.digest).into());
                all.set(&expected_key(&inputs), e);
                eprintln!("{} done", expected_key(&inputs));
            }
        }
    }
    all.to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        let lower = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let higher = END_TO_END.iter().find(|m| m.name == "ingest_ktps").unwrap();
        assert!((worse_by(lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worse_by(higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }
}
