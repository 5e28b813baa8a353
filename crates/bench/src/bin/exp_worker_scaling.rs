//! Worker scaling: the same seeded workload at 1, 2, 4, and 8 workers
//! per node, with byte-identical results required at every width.
//!
//! For each worker count the experiment boots a fresh deployment over a
//! shared string server, replays the LSBench timeline, fires every ready
//! window in one large batch (so firing regions carry many tasks), and
//! runs the one-shot query mix through `one_shot_batch`. Two things are
//! measured:
//!
//! - **Equivalence.** Every run folds its firings into a canonical hash;
//!   any width producing a different hash than the single-worker
//!   baseline fails the run. This is the determinism-by-construction
//!   claim of `wukong-net`'s `WorkerPool` checked end to end.
//! - **Modeled throughput.** The host running this simulation may have a
//!   single core, so wall-clock alone cannot show scaling. Each pool
//!   region records its wall time as the host ran it (spawn overhead,
//!   core contention) and its modeled cost — the makespan of a
//!   deterministic list schedule of per-task *CPU* durations.
//!   The run's modeled duration is its wall-clock with the region wall
//!   time swapped out for the modeled time, the same substitution
//!   discipline the RDMA fabric uses for network charges. At one worker
//!   region wall ≈ modeled, so the baseline stays honest. Because every
//!   width runs the byte-identical task set, CPU cost inflation from
//!   host oversubscription is deflated against the baseline's serial
//!   sum (see [`modeled_ns`]), and each width reports the best of
//!   [`REPS`] repetitions.
//!
//! `--quick` sweeps only {1, 4} (CI smoke); `--json <path>` writes the
//! machine-readable report (schema v3, including the `pool` member).

use std::time::Instant;
use wukong_bench::{fmt_ms, ls_workload, print_header, print_row, BenchJson, Scale};
use wukong_benchdata::lsbench;
use wukong_core::{EngineConfig, WukongS};
use wukong_obs::{Fnv64, PoolSnapshot};

/// Continuous registrations per query class: firing regions then carry
/// `classes x variants` windows per fire, enough work to fill 8 lanes.
const CONTINUOUS_VARIANTS: usize = 3;
/// One-shot queries per class in the `one_shot_batch` region.
const ONESHOT_VARIANTS: usize = 8;
/// Repetitions per width: per-task CPU timing is noisy almost entirely
/// upward (preemption, cold caches), so the minimum modeled duration is
/// the stable estimator. Every repetition must produce the same hash.
const REPS: usize = 3;

struct RunOutcome {
    wall_ns: u64,
    firings: u64,
    rows: u64,
    hash: u64,
    pool: PoolSnapshot,
}

fn run_at(w: &wukong_bench::LsWorkload, nodes: usize, workers: usize) -> RunOutcome {
    let engine = WukongS::with_strings(
        EngineConfig::cluster(nodes).with_workers(workers),
        std::sync::Arc::clone(&w.strings),
    );
    engine.load_base(w.stored.iter().copied());
    for schema in w.schemas() {
        engine.register_stream(schema);
    }
    // Several variants per class so firing regions and the one-shot batch
    // carry enough tasks to fill every lane (variants randomise the anchor
    // entity, spreading the load the way a throughput run would).
    let ids: Vec<usize> = (1..=lsbench::CONTINUOUS_CLASSES)
        .flat_map(|c| (0..CONTINUOUS_VARIANTS).map(move |v| (c, v)))
        .map(|(c, v)| {
            engine
                .register_continuous(&lsbench::continuous_query(&w.bench, c, v))
                .expect("register")
        })
        .collect();
    let oneshots: Vec<String> = (0..ONESHOT_VARIANTS)
        .flat_map(|v| {
            (1..=lsbench::ONESHOT_CLASSES).map(move |c| lsbench::oneshot_query(&w.bench, c, v))
        })
        .collect();
    let oneshot_refs: Vec<&str> = oneshots.iter().map(String::as_str).collect();

    let before = engine.cluster().obs().pool().snapshot();
    let t0 = Instant::now();

    for t in &w.timeline {
        engine.ingest(t.stream, t.triple, t.timestamp);
    }
    engine.advance_time(w.duration);
    let firings = engine.fire_ready();
    let oneshot_results = engine.one_shot_batch(&oneshot_refs);

    let wall_ns = t0.elapsed().as_nanos() as u64;
    let pool = before.delta(&engine.cluster().obs().pool().snapshot());

    let mut hash = Fnv64::new();
    let mut rows = 0u64;
    for f in &firings {
        let qi = ids
            .iter()
            .position(|id| *id == f.query)
            .expect("registered");
        hash.push(qi as u64);
        hash.push(f.window_end);
        for row in &f.results.rows {
            rows += 1;
            for v in row {
                hash.push(v.0);
            }
        }
    }
    for r in &oneshot_results {
        let rs = &r.as_ref().expect("one-shot runs").0;
        for row in &rs.rows {
            rows += 1;
            for v in row {
                hash.push(v.0);
            }
        }
    }

    RunOutcome {
        wall_ns,
        firings: firings.len() as u64,
        rows,
        hash: hash.0,
        pool,
    }
}

/// The run's modeled duration: wall-clock with the regions' host wall
/// time swapped for their modeled (list-schedule makespan of CPU
/// durations) time. At one worker the swap is near-identity, so the
/// baseline is honest wall-clock.
///
/// `base_serial_ns` is the baseline run's serial task cost. Every width
/// executes the byte-identical task set (the hashes prove it), yet
/// per-task CPU durations still inflate with pool width on an
/// oversubscribed host (cache contention between lanes sharing a core —
/// cost a real `workers`-wide node would not pay). The modeled busy
/// time is therefore deflated by `base_serial / this_serial`, capped at
/// 1 so it never scales up.
fn modeled_ns(out: &RunOutcome, base_serial_ns: Option<u64>) -> u64 {
    let non_pool = out.wall_ns - out.pool.region_wall_ns.min(out.wall_ns);
    let factor = match base_serial_ns {
        Some(base) if out.pool.serial_busy_ns > 0 => {
            (base as f64 / out.pool.serial_busy_ns as f64).min(1.0)
        }
        _ => 1.0,
    };
    non_pool + (out.pool.modeled_busy_ns as f64 * factor) as u64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut jr = BenchJson::from_env("exp_worker_scaling");
    let scale = Scale::from_env();
    let nodes = 4;
    let w = ls_workload(scale);
    println!(
        "LSBench: {} stored triples, {} stream tuples over {} ms (scale {scale:?}, {nodes} nodes)",
        w.stored.len(),
        w.timeline.len(),
        w.duration,
    );

    let widths: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    print_header(
        "Worker scaling: modeled time and throughput per pool width",
        &[
            "workers",
            "wall ms",
            "modeled ms",
            "regions",
            "steals",
            "ops/s",
            "speedup",
            "result",
        ],
    );

    // Baseline (modeled duration, serial task cost, hash) once the first
    // width has run; later widths deflate against the serial cost.
    let mut baseline: Option<(u64, u64, u64)> = None;
    let mut speedup_at_4 = 0.0;
    let mut all_match = true;
    for &workers in widths {
        let base_serial = baseline.map(|(_, s, _)| s);
        // Best-of-REPS by modeled time (CPU-timing noise is almost
        // entirely upward, so the minimum is the stable estimator); all
        // repetitions must agree on the firing hash.
        let mut out = run_at(&w, nodes, workers);
        for _ in 1..REPS {
            let rerun = run_at(&w, nodes, workers);
            all_match &= rerun.hash == out.hash;
            if modeled_ns(&rerun, base_serial) < modeled_ns(&out, base_serial) {
                out = rerun;
            }
        }
        let out_modeled = modeled_ns(&out, base_serial);
        let ops = w.timeline.len() as u64 + out.firings;
        let tput = ops as f64 / (out_modeled as f64 / 1e9);
        let (speedup, matches) = match &baseline {
            None => (1.0, true),
            Some((b_modeled, _, b_hash)) => {
                (*b_modeled as f64 / out_modeled as f64, *b_hash == out.hash)
            }
        };
        all_match &= matches;
        if workers == 4 {
            speedup_at_4 = speedup;
        }
        print_row(vec![
            format!("{workers}"),
            fmt_ms(out.wall_ns as f64 / 1e6),
            fmt_ms(out_modeled as f64 / 1e6),
            format!("{}", out.pool.regions),
            format!("{}", out.pool.steals),
            format!("{tput:.0}"),
            format!("{speedup:.2}x"),
            if matches { "MATCH" } else { "MISMATCH" }.into(),
        ]);

        let tag = format!("w{workers}");
        jr.counter(&format!("{tag}/wall_ms"), out.wall_ns as f64 / 1e6);
        jr.counter(&format!("{tag}/modeled_ms"), out_modeled as f64 / 1e6);
        jr.counter(&format!("{tag}/throughput_ops_s"), tput);
        jr.counter(
            &format!("{tag}/serial_busy_ms"),
            out.pool.serial_busy_ns as f64 / 1e6,
        );
        jr.counter(
            &format!("{tag}/modeled_busy_ms"),
            out.pool.modeled_busy_ns as f64 / 1e6,
        );
        jr.counter(
            &format!("{tag}/region_wall_ms"),
            out.pool.region_wall_ns as f64 / 1e6,
        );
        jr.counter(&format!("{tag}/regions"), out.pool.regions as f64);
        jr.counter(&format!("{tag}/tasks"), out.pool.tasks as f64);
        jr.counter(&format!("{tag}/steals"), out.pool.steals as f64);
        jr.counter(&format!("{tag}/firings"), out.firings as f64);
        jr.counter(&format!("{tag}/rows"), out.rows as f64);
        jr.counter(&format!("{tag}/speedup"), speedup);
        jr.counter(
            &format!("{tag}/hash_match"),
            if matches { 1.0 } else { 0.0 },
        );
        if workers == *widths.last().expect("non-empty sweep") {
            jr.section("pool", out.pool.entries());
        }
        if baseline.is_none() {
            baseline = Some((out_modeled, out.pool.serial_busy_ns, out.hash));
        }
    }

    jr.counter("speedup_4v1", speedup_at_4);
    jr.counter("all_match", if all_match { 1.0 } else { 0.0 });
    jr.finish();

    if !all_match {
        eprintln!("worker scaling FAILED: firing sets diverged across worker counts");
        std::process::exit(1);
    }
    if speedup_at_4 < 2.0 {
        eprintln!(
            "worker scaling FAILED: modeled speedup at 4 workers is {speedup_at_4:.2}x (< 2x)"
        );
        std::process::exit(1);
    }
    println!("\nall widths byte-identical; modeled speedup at 4 workers: {speedup_at_4:.2}x");
}
