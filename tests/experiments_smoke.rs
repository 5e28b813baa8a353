//! Every experiment of `wukong_bench::experiments::ALL`, run in process at
//! tiny scale with `--quick`: none may panic or fail a deterministic
//! gate, each must produce a schema-valid JSON report, and every file
//! under `samples/` must have exactly the key set of the fresh run.
//!
//! One `#[test]`, so the runs are serial (several experiments compare
//! measured times between two arms). This is a debug build: gates on
//! measured time (`Verdict::timing` — `exp_trace`'s overhead cells,
//! `exp_worker_scaling`'s 2× floor) are printed, not enforced; the
//! `wukong-bench` binary and `ci.sh --quick` enforce them in release.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use wukong_bench::experiments::ALL;
use wukong_bench::workload::Scale;
use wukong_bench::{BenchJson, Run, JSON_SCHEMA_VERSION};
use wukong_obs::json::{parse, Json};

/// The text sink: what an experiment printed, for the failure message.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("no panic under the lock").write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Captured {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("no panic under the lock")).into_owned()
    }
}

/// Every object key of `doc`, as `/`-free dotted paths (`counters.cells`).
fn key_set(doc: &Json) -> BTreeSet<String> {
    fn walk(j: &Json, path: &str, out: &mut BTreeSet<String>) {
        for (k, v) in j.as_obj().into_iter().flatten() {
            let here = format!("{path}.{k}");
            walk(v, &here, out);
            out.insert(here);
        }
    }
    let mut out = BTreeSet::new();
    walk(doc, "", &mut out);
    out
}

fn sample(name: &str) -> Option<Json> {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../samples/{name}.tiny.json"));
    let text = std::fs::read_to_string(&path).ok()?;
    Some(parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

#[test]
fn every_experiment_runs_clean_at_tiny_scale() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let dump_path = tmp.join("smoke_trace_dump.json");
    let mut samples_checked = BTreeSet::new();
    for e in ALL {
        let captured = Captured::default();
        let mut run = Run::new(
            Scale::Tiny,
            42,
            true,
            BenchJson::to_path(e.name, tmp.join("unwritten.json")),
            Box::new(captured.clone()),
        );
        run.dump = Some(dump_path.clone());
        let started = std::time::Instant::now();
        let verdict = (e.run)(&mut run);
        println!("{:<24} {:>6.2} s", e.name, started.elapsed().as_secs_f64());
        for gate in &verdict.timing {
            println!("  timing gate (reported, not enforced in a debug build): {gate}");
        }
        assert!(
            verdict.failed.is_empty(),
            "{}: failed gates {:#?}\n{}",
            e.name,
            verdict.failed,
            captured.text()
        );

        let doc = run.json.document();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(JSON_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some(e.name));
        for member in [
            "latency_ms",
            "counters",
            "fabric",
            "faults",
            "recovery",
            "pool",
            "incremental",
            "overload",
            "plan",
            "integrity",
            "trace",
            "stages",
        ] {
            let present = doc.get(member).and_then(Json::as_obj).is_some();
            assert!(present, "{}: no {member} object", e.name);
        }
        let counters = doc.get("counters").and_then(Json::as_obj).expect("checked");
        assert!(
            !counters.is_empty()
                || !doc
                    .get("latency_ms")
                    .and_then(Json::as_obj)
                    .expect("checked")
                    .is_empty(),
            "{}: an empty report",
            e.name
        );
        // The report's own gate counters agree with the verdict: every
        // hash equality and per-cell pass flag is set.
        for (name, value) in counters {
            let gate = name == "all_match"
                || ["/hash_match", "/match", "/pass"]
                    .iter()
                    .any(|s| name.ends_with(s))
                || (name == "all_pass" && verdict.timing.is_empty());
            if gate {
                assert_eq!(value.as_f64(), Some(1.0), "{}: counter {name}", e.name);
            }
        }

        if e.name == "table6_injection" {
            // Table 6 reports injection and indexing as separate columns;
            // the install path times them as two phases, and neither may
            // read zero for any of the five streams.
            let columns: Vec<_> = counters
                .iter()
                .filter(|(k, _)| {
                    k.ends_with("/inject_ms_per_batch") || k.ends_with("/index_ms_per_batch")
                })
                .collect();
            assert_eq!(columns.len(), 10);
            for (name, value) in columns {
                assert!(
                    value.as_f64().is_some_and(|v| v > 0.0),
                    "Table 6: {name} reads zero"
                );
            }
        }

        if let Some(committed) = sample(e.name) {
            let (committed, fresh) = (key_set(&committed), key_set(doc));
            let differing: Vec<_> = committed.symmetric_difference(&fresh).collect();
            assert!(
                differing.is_empty(),
                "samples/{}.tiny.json and a fresh run differ in {differing:#?}",
                e.name
            );
            samples_checked.insert(format!("{}.tiny.json", e.name));
        }
        if e.name == "exp_trace" {
            let fresh = std::fs::read_to_string(&dump_path).expect("--dump was written");
            let fresh = parse(&fresh).expect("the dump is JSON");
            // Top level only: the events inside are that run's.
            let top = |j: &Json| {
                j.as_obj()
                    .expect("a dump")
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            };
            assert_eq!(top(&sample("trace_dump").expect("committed")), top(&fresh));
            samples_checked.insert("trace_dump.tiny.json".to_string());
        }
    }

    let samples_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    let committed: BTreeSet<String> = std::fs::read_dir(samples_dir)
        .expect("samples/")
        .map(|f| f.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        committed, samples_checked,
        "a sample no experiment produces"
    );
}

/// The docs index what runs: DESIGN.md §3's table lists every experiment,
/// in `--list` order, and each is written up in EXPERIMENTS.md or in a
/// DESIGN.md section of its own.
#[test]
fn every_experiment_is_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |name: &str| std::fs::read_to_string(root.join(name)).expect(name);
    let (design, experiments) = (read("DESIGN.md"), read("EXPERIMENTS.md"));
    // §3's table, without the prose around it.
    let start = design.find("\n| Exp. | Paper content").expect("§3's table");
    let end = start + design[start..].find("\n\n").expect("the table ends");
    let (index, elsewhere) = (&design[start..end], [&design[..start], &design[end..]]);
    let mut listed_at = 0;
    for e in ALL {
        let name = format!("`{}`", e.name);
        let at = index.find(&name);
        assert!(at.is_some(), "DESIGN.md §3 does not list {name}");
        assert!(
            at >= Some(listed_at),
            "DESIGN.md §3 lists {name} out of --list order"
        );
        listed_at = at.expect("checked");
        assert!(
            experiments.contains(&name) || elsewhere.iter().any(|text| text.contains(&name)),
            "{name} is written up in neither EXPERIMENTS.md nor a DESIGN.md section"
        );
    }
}
