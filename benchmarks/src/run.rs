//! One benchmark run: generate inputs, replay the passes, verify, turn
//! per-operation floors into metrics, report.

use crate::drive::{run_pass, self_times, PassMode, PassRecord, Span};
use crate::estimator::{floors, geomean, median, percentile, quiet_share};
use crate::layers;
use crate::metrics::{unit_of, Metric, END_TO_END, PER_LAYER};
use crate::verify;
use crate::workload::{Inputs, Spec, BATCH_MS, HEAVY_CLASSES, ROUNDS, SMOKE_ROUNDS};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use wukong_core::WukongS;
use wukong_obs::Json;

/// Fewest untraced passes of a run. The floor needs every operation to
/// meet a quiet moment of the host once; eight passes leave 0.6⁸ < 2 % of
/// operations unlucky on a host that is slow 60 % of the time.
pub const MIN_PASSES: usize = 8;
/// Traced and recorder-off passes of a traced run, each interleaved with
/// an untraced pass so the three groups see the same host.
const TRACE_GROUP: usize = 2;
/// `--seconds` of a default run; `BENCHMARK.json` declares the same.
pub const RUN_SECONDS: u64 = 24;
/// Where the detailed result files go, relative to the repository root.
pub const OUT_DIR: &str = "benchmarks/out";
/// Share of the stream path that tracing (spans and allocation counting)
/// may add before the traced run fails.
const SPAN_OVERHEAD_LIMIT: f64 = 0.05;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub spec: &'static Spec,
    /// Generator seed.
    pub seed: u64,
    /// Measuring budget: untraced passes repeat until it is used up (and
    /// at least [`MIN_PASSES`] times). The workload itself does not depend
    /// on it.
    pub seconds: u64,
    /// Add the traced and recorder-off passes and the layer replays, and
    /// report the per-layer catalogue on the result line.
    pub trace: bool,
    /// One pass of 2 s of stream: a functional check, not a measurement.
    pub smoke: bool,
}

/// A named check with its verdict and evidence.
type Check = (String, bool, String);

/// What a run found.
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations whose results were checked, over all passes.
    pub attempted: u64,
    /// Operations that failed or disagreed.
    pub failed: u64,
    /// The end-to-end catalogue, from the untraced passes.
    pub end_to_end: Vec<Metric>,
    /// The per-layer catalogue; empty unless the run was traced.
    pub per_layer: Vec<Metric>,
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    let mut all = Json::object();
    for m in metrics {
        let mut v = Json::object();
        v.set("value", m.value.into()).set("unit", m.unit.into());
        if with_samples {
            v.set("samples", m.samples.into());
        }
        all.set(m.name, v);
    }
    all
}

impl Outcome {
    /// The one-line result the driver reads: the per-layer catalogue of a
    /// traced run, the end-to-end catalogue otherwise.
    pub fn final_line(&self) -> String {
        let metrics = if self.per_layer.is_empty() {
            &self.end_to_end
        } else {
            &self.per_layer
        };
        let mut j = Json::object();
        j.set("correct", self.correct.into())
            .set("attempted", self.attempted.into())
            .set("failed", self.failed.into())
            .set("metrics", metrics_json(metrics, false));
        j.to_string_compact()
    }
}

/// Writes `json` to `<dir>/<file>`, creating the directory.
pub fn write_json(dir: &Path, file: &str, json: &Json) -> Result<(), String> {
    let path = dir.join(file);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json.to_string_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn metric(name: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit: unit_of(name),
        samples,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-operation floors of one series over a group of passes.
fn floor_of(records: &[PassRecord], series: fn(&PassRecord) -> &Vec<u64>) -> Vec<u64> {
    let refs: Vec<&[u64]> = records.iter().map(|r| series(r).as_slice()).collect();
    floors(&refs)
}

/// The three per-round series that make up the stream path.
const STREAM_PATH: [fn(&PassRecord) -> &Vec<u64>; 3] = [|r| &r.ingest, |r| &r.advance, |r| &r.fire];

fn pipeline_floor_ns(records: &[PassRecord]) -> u64 {
    STREAM_PATH
        .iter()
        .flat_map(|&series| floor_of(records, series))
        .sum()
}

/// How noisy the host was while a group of passes ran.
struct HostNoise {
    /// Share of stream-path samples within 10 % of their operation's floor.
    quiet_share: f64,
    /// Median over rounds of the reference kernel's floor, µs.
    ref_kernel_us: f64,
    /// Share of reference-kernel samples more than 25 % above the fastest.
    ref_kernel_slow_share: f64,
}

impl HostNoise {
    fn of(records: &[PassRecord]) -> HostNoise {
        let quiet = STREAM_PATH.iter().map(|&s| {
            let refs: Vec<&[u64]> = records.iter().map(|r| s(r).as_slice()).collect();
            quiet_share(&refs, &floors(&refs))
        });
        let ref_floor: Vec<f64> = floor_of(records, |r| &r.ref_kernel)
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        let fastest = ref_floor.iter().copied().fold(f64::MAX, f64::min);
        let samples = records.iter().flat_map(|r| &r.ref_kernel);
        let slow = samples
            .clone()
            .filter(|&&ns| ns as f64 / 1e3 > fastest * 1.25)
            .count();
        HostNoise {
            quiet_share: quiet.sum::<f64>() / STREAM_PATH.len() as f64,
            ref_kernel_us: median(&ref_floor),
            ref_kernel_slow_share: slow as f64 / samples.count().max(1) as f64,
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    kib * 1024.0 / 1e6
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build identification for the output JSON.
fn host() -> Json {
    let mut j = Json::object();
    j.set(
        "git_rev",
        command_line("git", &["rev-parse", "--short", "HEAD"]).into(),
    )
    .set("rustc", command_line("rustc", &["--version"]).into())
    .set(
        "nproc",
        std::thread::available_parallelism()
            .map_or(0, usize::from)
            .into(),
    );
    j
}

/// The passes of one run, by what they did beyond timing.
struct Passes {
    /// Untraced passes: the source of every end-to-end metric.
    plain: Vec<PassRecord>,
    /// Passes with spans and allocation counting on.
    traced: Vec<PassRecord>,
    /// Passes with the engine's flight recorder off.
    recorder_off: Vec<PassRecord>,
}

impl Passes {
    fn all(&self) -> impl Iterator<Item = &PassRecord> {
        self.plain
            .iter()
            .chain(&self.traced)
            .chain(&self.recorder_off)
    }

    /// The untraced passes that ran interleaved with the traced ones.
    fn plain_beside_traced(&self) -> &[PassRecord] {
        &self.plain[self.plain.len() - self.traced.len()..]
    }
}

/// Replays the workload: untraced passes until `opts.seconds` are used up,
/// then, on a traced run, groups of (untraced, traced, recorder-off).
/// `layer_values` receives what the first traced pass's live engine gave
/// the query-layer replays.
fn replay(
    opts: &Options,
    inputs: &Inputs,
    sample: &[(usize, usize)],
    layer_values: &mut layers::Values,
) -> Passes {
    let min_plain = if opts.smoke { 1 } else { MIN_PASSES };
    let groups = match (opts.trace, opts.smoke) {
        (false, _) => 0,
        (true, true) => 1,
        (true, false) => TRACE_GROUP,
    };
    // A traced run spends its time on the extra passes and the replays.
    let budget = Duration::from_secs(if opts.trace || opts.smoke {
        0
    } else {
        opts.seconds
    });
    let mut passes = Passes {
        plain: Vec::new(),
        traced: Vec::new(),
        recorder_off: Vec::new(),
    };
    let pass = |kind: &str, mode: PassMode, hook: &mut dyn FnMut(&WukongS)| {
        let rec = run_pass(inputs, mode, hook);
        println!(
            "{kind} pass: setup {:.1} ms, stream path {:.1} ms, whole pass {:.1} ms",
            ms(rec.setup_ns()),
            ms(rec.pipeline_ns()),
            ms(rec.wall_ns)
        );
        rec
    };
    let plain_pass = |passes: &mut Passes| {
        let mode = PassMode {
            sample: if passes.plain.is_empty() { sample } else { &[] },
            ..PassMode::default()
        };
        passes.plain.push(pass("untraced", mode, &mut |_| {}));
    };

    let started = Instant::now();
    while passes.plain.len() + groups < min_plain || started.elapsed() < budget {
        plain_pass(&mut passes);
    }
    for g in 0..groups {
        plain_pass(&mut passes);
        let traced = PassMode {
            traced: true,
            ..PassMode::default()
        };
        passes.traced.push(pass("traced", traced, &mut |engine| {
            if g == 0 {
                layer_values.push((
                    "query.executor.edges_traversed",
                    engine.handle().obs().plan().snapshot().edges_traversed as f64,
                ));
                layer_values.extend(layers::query_and_checkpoint(inputs, engine));
            }
        }));
        let off = PassMode {
            recorder_off: true,
            ..PassMode::default()
        };
        passes
            .recorder_off
            .push(pass("recorder-off", off, &mut |_| {}));
    }
    passes
}

/// Checks every pass produced the same results and state, and the results
/// against the committed digests or the oracle. Returns the failed count.
fn verify_results(inputs: &Inputs, passes: &Passes, checks: &mut Vec<Check>) -> u64 {
    let first = &passes.plain[0];
    let mut failed: u64 = passes.all().map(|r| r.failed).sum();
    let mut disagree = 0;
    for r in passes.all().skip(1) {
        let same = r.digest == first.digest
            && r.state_bytes == first.state_bytes
            && (r.firings, r.rows, r.attempted) == (first.firings, first.rows, first.attempted);
        if !same {
            disagree += 1;
            failed += r.attempted;
        }
    }
    checks.push((
        "passes_agree".into(),
        disagree == 0,
        format!(
            "{disagree} of {} passes differ from the first in result digest, counts or state bytes",
            passes.all().count()
        ),
    ));
    match verify::expected_for(inputs) {
        Some((want_inputs, want_results)) => {
            let ok = want_inputs == inputs.digest && want_results == first.digest;
            if !ok {
                failed += first.attempted;
            }
            checks.push((
                "expected_digest".into(),
                ok,
                format!(
                    "inputs {:016x} results {:016x}, committed {:016x} {:016x}",
                    inputs.digest, first.digest, want_inputs, want_results
                ),
            ));
        }
        None => {
            let wrong = verify::oracle_mismatches(inputs, &first.sample) as u64;
            failed += wrong;
            checks.push((
                "oracle".into(),
                wrong == 0 && first.sample.len() >= verify::ORACLE_MIN,
                format!(
                    "{wrong} of {} sampled firings, all with rows, differ from the scan/hash-join recomputation ({} required)",
                    first.sample.len(),
                    verify::ORACLE_MIN
                ),
            ));
        }
    }
    failed
}

/// Per-operation floors of the untraced passes → the end-to-end catalogue,
/// plus the checks that only those floors can make.
fn end_to_end(
    inputs: &Inputs,
    plain: &[PassRecord],
    smoke: bool,
    checks: &mut Vec<Check>,
) -> Vec<Metric> {
    let ingest = floor_of(plain, |r| &r.ingest);
    let last = floor_of(plain, |r| &r.last);
    let advance = floor_of(plain, |r| &r.advance);
    let fire = floor_of(plain, |r| &r.fire);
    let light = floor_of(plain, |r| &r.light);
    let heavy = floor_of(plain, |r| &r.heavy);
    let exec_wall = floor_of(plain, |r| &r.exec_wall);
    let exec_modeled = floor_of(plain, |r| &r.exec_modeled);
    let setup_ns: u64 = floor_of(plain, |r| &r.setup).iter().sum();
    let first = &plain[0];
    let rounds = inputs.rounds;

    let freshness: Vec<f64> = (0..rounds)
        .map(|k| ms(last[k] + advance[k] + fire[k]))
        .collect();
    let fire_ms: Vec<f64> = fire.iter().map(|&ns| ms(ns)).collect();
    let light_us: Vec<f64> = light.iter().map(|&ns| ns as f64 / 1e3).collect();
    // Occurrence h is of class HEAVY_CLASSES[h % 3]: mean per class first,
    // so a class that ran once more than another does not weigh more.
    let classes = HEAVY_CLASSES.len();
    let heavy_ms = (0..classes)
        .map(|c| {
            let of_class: Vec<f64> = heavy
                .iter()
                .skip(c)
                .step_by(classes)
                .map(|&ns| ms(ns))
                .collect();
            of_class.iter().sum::<f64>() / of_class.len() as f64
        })
        .sum::<f64>()
        / classes as f64;
    let ingest_s = (ingest.iter().sum::<u64>() + advance.iter().sum::<u64>()) as f64 / 1e9;
    let fire_s = fire.iter().sum::<u64>() as f64 / 1e9;
    let state_bytes: u64 = first.state_bytes.iter().sum();
    let us = |ns: &[u64]| ns.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>();

    let mut metrics = vec![
        metric("setup_s", setup_ns as f64 / 1e9, plain.len()),
        metric(
            "ingest_ktps",
            inputs.timeline.len() as f64 / ingest_s / 1e3,
            2 * rounds,
        ),
        metric("firings_per_s", first.firings as f64 / fire_s, rounds),
        metric("exec_geomean_us", geomean(&us(&exec_wall)), exec_wall.len()),
        metric(
            "modeled_geomean_ms",
            geomean(&exec_modeled.iter().map(|&ns| ms(ns)).collect::<Vec<_>>()),
            exec_modeled.len(),
        ),
        metric("oneshot_heavy_ms", heavy_ms, heavy.len()),
        metric("rss_peak_mb", rss_peak_mb(), 1),
        metric("state_mb", state_bytes as f64 / 1e6, plain.len()),
    ];
    let mut refused = Vec::new();
    for (name, series, p) in [
        ("freshness_ms_p50", &freshness, 0.5),
        ("freshness_ms_p90", &freshness, 0.9),
        ("fire_round_ms_p50", &fire_ms, 0.5),
        ("fire_round_ms_p90", &fire_ms, 0.9),
        ("oneshot_light_us_p50", &light_us, 0.5),
    ] {
        match percentile(series, p) {
            Ok(v) => metrics.push(metric(name, v, series.len())),
            Err(e) => refused.push(format!("{name} (n={}, {} beyond)", e.n, e.beyond)),
        }
    }
    metrics.sort_by_key(|m| END_TO_END.iter().position(|e| e.name == m.name));
    checks.push((
        "percentiles_supported".into(),
        refused.is_empty() || smoke,
        if refused.is_empty() {
            "every percentile has ten samples beyond it".into()
        } else {
            format!("refused: {}", refused.join(", "))
        },
    ));

    // The nominal rate is sustainable when every round's stream path
    // finishes inside the batch interval it carries.
    let slowest = (0..rounds)
        .map(|k| ingest[k] + advance[k] + fire[k])
        .max()
        .expect("rounds >= 1");
    checks.push((
        "sustainable".into(),
        slowest < BATCH_MS * 1_000_000,
        format!(
            "slowest round's ingest+advance+fire floor is {:.3} ms of the {BATCH_MS} ms interval",
            ms(slowest)
        ),
    ));
    metrics
}

fn spans_json(spans: &[Span]) -> Json {
    let own = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                let mut j = Json::object();
                j.set("name", s.name.into())
                    .set("start_ns", s.start_ns.into())
                    .set("end_ns", s.end_ns.into())
                    .set("self_ns", self_ns.into())
                    .set("parent", s.parent.map_or(Json::Null, Json::from))
                    .set("round", s.round.map_or(Json::Null, Json::from))
                    .set("calls", s.calls.into());
                j
            })
            .collect(),
    )
}

/// Spans and counts of the traced passes, the recorder-off passes and the
/// layer replays → the per-layer catalogue, plus the checks that each
/// workload stresses what it says and that tracing stays cheap.
fn per_layer(
    inputs: &Inputs,
    passes: &Passes,
    mut values: layers::Values,
    noise: &HostNoise,
    smoke: bool,
    checks: &mut Vec<Check>,
    detail: &mut Json,
) -> Result<Vec<Metric>, String> {
    values.extend(layers::rdf_and_obs(inputs));
    values.extend(layers::store(inputs));
    values.extend(layers::stream(inputs));
    values.extend(layers::net_pool());

    let t = &passes.traced[0];
    checks.push((
        "allocation_counts_repeat".into(),
        passes.traced.iter().all(|r| r.allocs == t.allocs),
        format!(
            "{} traced passes counted the same allocations",
            passes.traced.len()
        ),
    ));

    for (api, busy, calls) in [
        ("core.ingest", "core.ingest.busy_ms", "core.ingest.calls"),
        (
            "core.advance_time",
            "core.advance_time.busy_ms",
            "core.advance_time.calls",
        ),
        (
            "core.fire_ready",
            "core.fire_ready.busy_ms",
            "core.fire_ready.calls",
        ),
        (
            "core.one_shot",
            "core.one_shot.busy_ms",
            "core.one_shot.calls",
        ),
        (
            "core.execute_registered",
            "core.execute_registered.busy_ms",
            "core.execute_registered.calls",
        ),
    ] {
        let of_api = || t.spans.iter().filter(|s| s.name == api);
        values.push((busy, ms(of_api().map(Span::ns).sum())));
        values.push((calls, of_api().map(|s| s.calls).sum::<u64>() as f64));
    }
    let fire_ns: u64 = t.fire.iter().sum();
    let shots = (t.light.len() + t.heavy.len()).max(1) as f64;
    // Each overhead compares two groups of equally many passes that ran
    // interleaved, floor against floor, so the host's mood cancels.
    let beside = passes.plain_beside_traced();
    let on_ns = pipeline_floor_ns(beside) as f64;
    let span_overhead = pipeline_floor_ns(&passes.traced) as f64 / on_ns - 1.0;
    values.extend([
        ("core.fire_ready.firings", t.firings as f64),
        ("core.fire_ready.rows", t.rows as f64),
        (
            "core.fire_ready.allocs_per_firing",
            t.allocs.fire_allocs as f64 / t.firings.max(1) as f64,
        ),
        (
            "core.fire_ready.unattributed_share",
            1.0 - t.staged_ns as f64 / fire_ns.max(1) as f64,
        ),
        (
            "core.ingest.alloc_bytes_per_tuple",
            t.allocs.ingest_bytes as f64 / inputs.timeline.len() as f64,
        ),
        (
            "core.one_shot.allocs_per_query",
            t.allocs.oneshot_allocs as f64 / shots,
        ),
        ("core.load_base.ms", ms(t.load_base_ns)),
        (
            "core.register_continuous.us",
            t.register_ns as f64 / 1e3 / inputs.standing.len() as f64,
        ),
        ("core.forkjoin.firings", t.forkjoin_firings as f64),
        ("core.state.store_mb", t.state_bytes[0] as f64 / 1e6),
        ("core.state.stream_index_mb", t.state_bytes[1] as f64 / 1e6),
        ("core.state.transient_mb", t.state_bytes[2] as f64 / 1e6),
        ("net.fabric.messages", t.fabric.messages as f64),
        (
            "net.fabric.one_sided_reads",
            t.fabric.one_sided_reads as f64,
        ),
        ("net.fabric.bytes_sent", t.fabric.bytes_sent as f64),
        ("net.fabric.charged_ms", ms(t.fabric.charged_ns)),
        (
            "obs.trace.overhead_share",
            on_ns / pipeline_floor_ns(&passes.recorder_off) as f64 - 1.0,
        ),
        ("bench.generate_s", inputs.generate_s),
        ("bench.span_overhead_share", span_overhead),
        ("bench.passes", passes.all().count() as f64),
        ("bench.quiet_share", noise.quiet_share),
        ("bench.ref_kernel_us", noise.ref_kernel_us),
        ("bench.ref_kernel_slow_share", noise.ref_kernel_slow_share),
    ]);

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    let mut missing = Vec::new();
    for m in &PER_LAYER {
        match values.iter().find(|(n, _)| *n == m.name) {
            Some(&(_, v)) => metrics.push(metric(m.name, v, passes.traced.len())),
            None => missing.push(m.name),
        }
    }
    if !missing.is_empty() {
        return Err(format!("per-layer metrics not measured: {missing:?}"));
    }

    // Where the traced pass's round loop went, by engine call.
    let rounds_ns: u64 = t
        .spans
        .iter()
        .filter(|s| s.name == "bench.round")
        .map(Span::ns)
        .sum();
    let share = |name: &str| {
        t.spans
            .iter()
            .filter(|s| s.name == name && s.round.is_some())
            .map(Span::ns)
            .sum::<u64>() as f64
            / rounds_ns.max(1) as f64
    };
    const CALLS: [&str; 4] = [
        "core.ingest",
        "core.advance_time",
        "core.fire_ready",
        "core.one_shot",
    ];
    let mut shares = Json::object();
    let mut line = String::new();
    for api in CALLS {
        shares.set(api, share(api).into());
        line += &format!("{api} {:.3} + ", share(api));
    }
    println!(
        "traced pass: {:.1} ms, round loop {:.1} ms = {line}harness {:.3}",
        ms(t.wall_ns),
        ms(rounds_ns),
        1.0 - CALLS.iter().map(|api| share(api)).sum::<f64>(),
    );
    let (apis, at_least) = inputs.spec.stresses;
    let stressed: f64 = apis.iter().map(|api| share(api)).sum();
    checks.push((
        "stresses_its_layers".into(),
        // A smoke run is too short for the workload's own one-shot cadence.
        stressed >= at_least || smoke,
        format!(
            "{} take {stressed:.3} of the round loop, {at_least} required",
            apis.join(" + ")
        ),
    ));
    let fabric_ops = t.fabric.messages + t.fabric.one_sided_reads;
    checks.push((
        "fabric_only_on_cluster".into(),
        (fabric_ops > 0) == (inputs.spec.nodes > 1),
        format!(
            "{fabric_ops} fabric operations on {} node(s)",
            inputs.spec.nodes
        ),
    ));
    // Two passes against two cannot resolve 5 % on a shared host, so the
    // gate is the slowest equally large group of consecutive untraced
    // passes of this run: tracing fails when it stands clear of the run's
    // own noise, not when the host moved between two groups.
    let noisiest = passes
        .plain
        .windows(passes.traced.len())
        .map(pipeline_floor_ns)
        .max()
        .expect("an untraced pass per traced pass");
    let clear_of_noise = pipeline_floor_ns(&passes.traced) as f64 / noisiest as f64 - 1.0;
    checks.push((
        "span_overhead".into(),
        // One 2 s pass against one cannot resolve 5 % either way.
        clear_of_noise <= SPAN_OVERHEAD_LIMIT || smoke,
        format!(
            "traced stream path is {span_overhead:+.4} of the untraced one beside it and {clear_of_noise:+.4} of the slowest untraced group, {SPAN_OVERHEAD_LIMIT} allowed"
        ),
    ));
    detail
        .set("round_loop_shares", shares)
        .set("spans", spans_json(&t.spans));
    Ok(metrics)
}

/// Runs one workload and reports it.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let rounds = if opts.smoke { SMOKE_ROUNDS } else { ROUNDS };
    let inputs = Inputs::generate(opts.spec, opts.seed, rounds);
    println!(
        "workload {} seed {} rounds {} stored {} stream {} tuples ({:.0}/s nominal) standing {} input {:016x}",
        inputs.spec.name,
        inputs.seed,
        rounds,
        inputs.stored.len(),
        inputs.timeline.len(),
        inputs.nominal_tps(),
        inputs.standing.len(),
        inputs.digest
    );
    let sample = if verify::expected_for(&inputs).is_none() {
        verify::sample_plan(&inputs)
    } else {
        Vec::new()
    };
    let mut layer_values = Vec::new();
    let passes = replay(opts, &inputs, &sample, &mut layer_values);

    let mut detail = inputs.describe();
    let mut checks = Vec::new();
    let failed = verify_results(&inputs, &passes, &mut checks);
    let attempted: u64 = passes.all().map(|r| r.attempted).sum();
    checks.push((
        "no_failed_operations".into(),
        failed == 0,
        format!("{failed} of {attempted} operations failed, erred, were marked or disagreed"),
    ));
    let end_to_end = end_to_end(&inputs, &passes.plain, opts.smoke, &mut checks);
    let noise = HostNoise::of(&passes.plain);
    let per_layer = if opts.trace {
        per_layer(
            &inputs,
            &passes,
            layer_values,
            &noise,
            opts.smoke,
            &mut checks,
            &mut detail,
        )?
    } else {
        Vec::new()
    };

    for m in end_to_end.iter().chain(&per_layer) {
        println!(
            "{:<44} {:>16.6} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "host: quiet_share {:.3}, ref kernel {:.2} us, slow share {:.3}",
        noise.quiet_share, noise.ref_kernel_us, noise.ref_kernel_slow_share
    );
    for (name, ok, evidence) in &checks {
        println!(
            "check {name}: {} ({evidence})",
            if *ok { "ok" } else { "FAILED" }
        );
    }

    let mut checks_json = Json::object();
    for (name, ok, evidence) in &checks {
        let mut c = Json::object();
        c.set("ok", (*ok).into())
            .set("evidence", evidence.as_str().into());
        checks_json.set(name, c);
    }
    let mut host_noise = Json::object();
    host_noise
        .set("quiet_share", noise.quiet_share.into())
        .set("ref_kernel_us", noise.ref_kernel_us.into())
        .set("ref_kernel_slow_share", noise.ref_kernel_slow_share.into());
    let kinds = [
        ("untraced", &passes.plain),
        ("traced", &passes.traced),
        ("recorder_off", &passes.recorder_off),
    ];
    let pass_records: Vec<Json> = kinds
        .iter()
        .flat_map(|&(kind, records)| records.iter().map(move |r| (kind, r)))
        .map(|(kind, r)| {
            let mut p = Json::object();
            p.set("kind", kind.into())
                .set("setup_ms", ms(r.setup_ns()).into())
                .set("stream_path_ms", ms(r.pipeline_ns()).into())
                .set("wall_ms", ms(r.wall_ns).into())
                .set("result_digest", format!("{:016x}", r.digest).into());
            p
        })
        .collect();
    let first = &passes.plain[0];
    let correct = checks.iter().all(|(_, ok, _)| *ok);
    let mut all_metrics = end_to_end.clone();
    all_metrics.extend(per_layer.iter().cloned());
    detail
        .set("host", host())
        .set("passes", passes.plain.len().into())
        .set("pass_records", Json::Arr(pass_records))
        .set("result_digest", format!("{:016x}", first.digest).into())
        .set("firings", first.firings.into())
        .set("rows", first.rows.into())
        .set("host_noise", host_noise)
        .set("metrics", metrics_json(&all_metrics, true))
        .set("checks", checks_json)
        .set("correct", correct.into())
        .set("attempted", attempted.into())
        .set("failed", failed.into());
    let suffix = if opts.trace { "trace.json" } else { "json" };
    write_json(
        Path::new(OUT_DIR),
        &format!("{}.{suffix}", opts.spec.name),
        &detail,
    )?;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer,
    })
}
