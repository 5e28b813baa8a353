//! `wukong-bench`: runs one experiment of the evaluation, lists them, or
//! renders a trace dump. The one place that reads the command line and
//! the environment (`WUKONG_SCALE`, `WUKONG_SEED`), and the one place
//! that turns a failed [`Verdict`](wukong_bench::Verdict) into a non-zero
//! exit.

use std::path::PathBuf;
use std::process::exit;
use wukong_bench::experiments::ALL;
use wukong_bench::{trace_view, BenchJson, Run, Scale};

const USAGE: &str = "usage: wukong-bench <experiment> [--quick] [--json <path>] [--dump <path>]
       wukong-bench --list
       wukong-bench trace <trace_dump.json>
environment: WUKONG_SCALE=tiny|small|paper (default small), WUKONG_SEED=<u64> (default 42)";

fn usage_error(message: &str) -> ! {
    eprintln!("wukong-bench: {message}\n{USAGE}");
    exit(2);
}

/// Renders the trace dumps in the file at `path` to stdout.
fn trace(path: &str) -> ! {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read {path}: {e}")));
    let doc = wukong_obs::json::parse(&raw)
        .unwrap_or_else(|e| usage_error(&format!("{path} is not JSON: {e}")));
    match trace_view::render(&doc, &mut std::io::stdout().lock()) {
        Ok(0) => {
            eprintln!("wukong-bench: no trace_dump objects in {path}");
            exit(1);
        }
        Ok(_) => exit(0),
        Err(e) => {
            eprintln!("wukong-bench: {e}");
            exit(1);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        usage_error("no experiment named");
    };
    if command == "--list" {
        for e in ALL {
            println!("{:<24} {:<11} {}", e.name, e.paper, e.about);
        }
        return;
    }
    if command == "trace" {
        let Some(path) = args.next() else {
            usage_error("trace needs a dump file");
        };
        trace(&path);
    }
    let Some(experiment) = ALL.iter().find(|e| e.name == command) else {
        usage_error(&format!("no experiment called {command:?} (see --list)"));
    };

    let (mut quick, mut json, mut dump) = (false, None, None);
    while let Some(arg) = args.next() {
        let mut path = |flag: &str| -> PathBuf {
            match args.next() {
                Some(p) => p.into(),
                None => usage_error(&format!("{flag} requires a path argument")),
            }
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = Some(path("--json")),
            "--dump" => dump = Some(path("--dump")),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let scale = match std::env::var("WUKONG_SCALE").as_deref() {
        Ok("tiny") => Scale::Tiny,
        Ok("paper") => Scale::Paper,
        _ => Scale::Small,
    };
    let seed = std::env::var("WUKONG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let mut run = Run::new(
        scale,
        seed,
        quick,
        BenchJson::new(experiment.name, json),
        Box::new(std::io::stdout()),
    );
    run.dump = dump;
    let verdict = (experiment.run)(&mut run);
    if let Some(path) = run.json.finish() {
        println!("wrote JSON report to {}", path.display());
    }

    // Gates on measured time hold in an optimised build only.
    let timing_enforced = !cfg!(debug_assertions);
    for gate in &verdict.timing {
        let kind = if timing_enforced {
            "gate"
        } else {
            "timing gate (not enforced in a debug build)"
        };
        eprintln!("  {kind}: {gate}");
    }
    for gate in &verdict.failed {
        eprintln!("  gate: {gate}");
    }
    if !verdict.failed.is_empty() || (timing_enforced && !verdict.timing.is_empty()) {
        eprintln!("{} FAILED", experiment.name);
        exit(1);
    }
}
