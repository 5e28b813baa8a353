//! Worker scaling: the same seeded workload at 1, 2, 4, and 8 workers
//! per node, with byte-identical results required at every width.

use crate::replay::{best_of, replay, Fire, FiringDigest};
use crate::report::fmt_ms;
use crate::run::{Run, Verdict};
use crate::say;
use crate::workload::LsWorkload;
use std::time::Instant;
use wukong_benchdata::lsbench;
use wukong_core::EngineConfig;
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
    digest: FiringDigest,
    pool: PoolSnapshot,
}

fn run_at(w: &LsWorkload, nodes: usize, workers: usize) -> RunOutcome {
    let engine = w.boot(EngineConfig::cluster(nodes).with_workers(workers));
    // Several variants per class so firing regions and the one-shot batch
    // carry enough tasks to fill every lane (variants randomise the anchor
    // entity, spreading the load the way a throughput run would).
    for c in 1..=lsbench::CONTINUOUS_CLASSES {
        for v in 0..CONTINUOUS_VARIANTS {
            engine
                .register_continuous(&lsbench::continuous_query(&w.bench, c, v))
                .expect("register");
        }
    }
    let oneshots: Vec<String> = (0..ONESHOT_VARIANTS)
        .flat_map(|v| {
            (1..=lsbench::ONESHOT_CLASSES).map(move |c| lsbench::oneshot_query(&w.bench, c, v))
        })
        .collect();
    let oneshot_refs: Vec<&str> = oneshots.iter().map(String::as_str).collect();

    let before = engine.cluster().obs().pool().snapshot();
    let t0 = Instant::now();
    // Every ready window fires in one large batch, so firing regions
    // carry many tasks.
    replay(&engine, &w.timeline, Fire::Never, None, w.duration, |_| {});
    let firings = engine.fire_ready();
    let oneshot_results = engine.one_shot_batch(&oneshot_refs);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let pool = before.delta(&engine.cluster().obs().pool().snapshot());

    let mut digest = FiringDigest::default();
    digest.absorb(&firings);
    for r in &oneshot_results {
        digest.push_rows(&r.as_ref().expect("one-shot runs").0.rows);
    }
    RunOutcome {
        wall_ns,
        digest,
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

/// For each worker count the experiment boots a fresh deployment over a
/// shared string server, replays the LSBench timeline, fires every ready
/// window in one large batch, and runs the one-shot query mix through
/// `one_shot_batch`. Two things are measured:
///
/// - **Equivalence.** Every run folds its firings into a canonical hash;
///   any width producing a different hash than the single-worker
///   baseline fails the run. This is the determinism-by-construction
///   claim of `wukong-net`'s `WorkerPool` checked end to end.
/// - **Modeled throughput.** The host running this simulation may have a
///   single core, so wall-clock alone cannot show scaling. Each pool
///   region records its wall time as the host ran it (spawn overhead,
///   core contention) and its modeled cost — the makespan of a
///   deterministic list schedule of per-task *CPU* durations.
///   The run's modeled duration is its wall-clock with the region wall
///   time swapped out for the modeled time, the same substitution
///   discipline the RDMA fabric uses for network charges. At one worker
///   region wall ≈ modeled, so the baseline stays honest. Because every
///   width runs the byte-identical task set, CPU cost inflation from
///   host oversubscription is deflated against the baseline's serial
///   sum (see [`modeled_ns`]), and each width reports the best of
///   [`REPS`] repetitions. The 2× floor at 4 workers is built from
///   measured CPU time, so it is a timing gate: enforced by `main` in
///   release builds, reported by the debug-build smoke test.
///
/// `--quick` sweeps only {1, 4}.
pub fn exp_worker_scaling(run: &mut Run) -> Verdict {
    let nodes = 4;
    let w = run.ls_workload(", 4 nodes");
    let widths: &[usize] = if run.quick { &[1, 4] } else { &[1, 2, 4, 8] };
    run.header(
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
    let mut baseline: Option<(u64, u64, Fnv64)> = None;
    let mut speedup_at_4 = 0.0;
    let mut all_match = true;
    for &workers in widths {
        let base_serial = baseline.map(|(_, serial, _)| serial);
        let (out, agree) = best_of(
            REPS,
            || run_at(&w, nodes, workers),
            |out| out.digest.hash,
            |out| modeled_ns(out, base_serial) as f64,
        );
        let out_modeled = modeled_ns(&out, base_serial);
        let ops = w.timeline.len() as u64 + out.digest.firings;
        let tput = ops as f64 / (out_modeled as f64 / 1e9);
        let (base_modeled, _, base_hash) =
            *baseline.get_or_insert((out_modeled, out.pool.serial_busy_ns, out.digest.hash));
        let speedup = base_modeled as f64 / out_modeled as f64;
        let matches = agree && base_hash == out.digest.hash;
        all_match &= matches;
        if workers == 4 {
            speedup_at_4 = speedup;
        }
        run.row(vec![
            format!("{workers}"),
            fmt_ms(out.wall_ns as f64 / 1e6),
            fmt_ms(out_modeled as f64 / 1e6),
            format!("{}", out.pool.regions),
            format!("{}", out.pool.steals),
            format!("{tput:.0}"),
            format!("{speedup:.2}x"),
            if matches { "MATCH" } else { "MISMATCH" }.into(),
        ]);
        for (name, value) in [
            ("wall_ms", out.wall_ns as f64 / 1e6),
            ("modeled_ms", out_modeled as f64 / 1e6),
            ("throughput_ops_s", tput),
            ("serial_busy_ms", out.pool.serial_busy_ns as f64 / 1e6),
            ("modeled_busy_ms", out.pool.modeled_busy_ns as f64 / 1e6),
            ("region_wall_ms", out.pool.region_wall_ns as f64 / 1e6),
            ("regions", out.pool.regions as f64),
            ("tasks", out.pool.tasks as f64),
            ("steals", out.pool.steals as f64),
            ("firings", out.digest.firings as f64),
            ("rows", out.digest.rows as f64),
            ("speedup", speedup),
            ("hash_match", f64::from(matches)),
        ] {
            run.json.counter(&format!("w{workers}/{name}"), value);
        }
        run.json.section("pool", out.pool.entries());
    }

    run.json.counter("speedup_4v1", speedup_at_4);
    run.json.counter("all_match", f64::from(all_match));
    let mut verdict = Verdict::default();
    verdict.gate(all_match, || {
        "firing sets diverged across worker counts".into()
    });
    verdict.timing_gate(speedup_at_4 >= 2.0, || {
        format!("modeled speedup at 4 workers is {speedup_at_4:.2}x (< 2x)")
    });
    if verdict.failed.is_empty() {
        say!(
            run,
            "\nall widths byte-identical; modeled speedup at 4 workers: {speedup_at_4:.2}x"
        );
    }
    verdict
}
