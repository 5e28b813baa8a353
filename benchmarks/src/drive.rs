//! One pass: a fresh engine, the whole workload replayed through the
//! public API from one thread, every operation timed on its own.
//!
//! Closed loop: the next call is issued when the previous one returns.
//! The engine is a synchronous library, so its service rate *is* the
//! highest backlog-free input rate.

use crate::alloc;
use crate::verify::{is_marked, Fnv, SampledFiring};
use crate::workload::{engine_config, Inputs, BATCH_MS, PROBE_REPS};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wukong_core::{EngineConfig, WukongS};
use wukong_net::MetricsSnapshot;
use wukong_obs::Stage;
use wukong_rdf::Timestamp;

/// One timed call (or loop of calls) into a layer, as recorded by the
/// benchmark's own clock reads around it.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<module>` of the callee, or a grouping name.
    pub name: &'static str,
    /// Start, ns since the pass began.
    pub start_ns: u64,
    /// End, ns since the pass began.
    pub end_ns: u64,
    /// Index of the enclosing span (`None` for the pass itself).
    pub parent: Option<usize>,
    /// Round the span belongs to (`None` outside the round loop).
    pub round: Option<usize>,
    /// API calls the span covers.
    pub calls: u64,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Allocation counts taken around the traced pass's operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTally {
    /// Allocations inside `fire_ready`.
    pub fire_allocs: u64,
    /// Bytes requested inside the `ingest` loops and `advance_time`.
    pub ingest_bytes: u64,
    /// Allocations inside `one_shot`.
    pub oneshot_allocs: u64,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct PassRecord {
    /// Set-up, step by step: engine construction, `load_base` in
    /// [`LOAD_CHUNKS`] slices, stream registration, query registration.
    pub setup: Vec<u64>,
    /// `load_base` alone.
    pub load_base_ns: u64,
    /// Standing-query registration alone.
    pub register_ns: u64,
    /// Per round: the whole `ingest` loop.
    pub ingest: Vec<u64>,
    /// Per round: the `ingest` call carrying the round's last tuple.
    pub last: Vec<u64>,
    /// Per round: `advance_time`.
    pub advance: Vec<u64>,
    /// Per round: `fire_ready`.
    pub fire: Vec<u64>,
    /// Per round: the fixed reference kernel.
    pub ref_kernel: Vec<u64>,
    /// Per light one-shot, in issue order.
    pub light: Vec<u64>,
    /// Per heavy one-shot, in issue order.
    pub heavy: Vec<u64>,
    /// Per probe class: fastest `execute_registered` wall time.
    pub exec_wall: Vec<u64>,
    /// Per probe class: lowest engine-reported latency (thread-CPU
    /// compute + charged fabric), ns.
    pub exec_modeled: Vec<u64>,
    /// Digest of every firing, one-shot and probe result.
    pub digest: u64,
    /// Operations whose results entered the digest.
    pub attempted: u64,
    /// `QueryError`s plus degraded/unreachable/quarantined marks.
    pub failed: u64,
    /// Continuous-query firings.
    pub firings: u64,
    /// Rows over all firings.
    pub rows: u64,
    /// Firings that ran fork-join.
    pub forkjoin_firings: u64,
    /// Σ of the engine's own per-firing stage times, ns.
    pub staged_ns: u64,
    /// Store, stream-index and transient bytes after the last round.
    pub state_bytes: [u64; 3],
    /// Fabric counters after the last round.
    pub fabric: MetricsSnapshot,
    /// Whole pass, set-up to engine drop.
    pub wall_ns: u64,
    /// Firings kept for the oracle (first pass only).
    pub sample: Vec<SampledFiring>,
    /// Spans (traced pass only).
    pub spans: Vec<Span>,
    /// Allocation counts (traced pass only).
    pub allocs: AllocTally,
}

impl PassRecord {
    /// Engine construction + `load_base` + stream and query registration.
    pub fn setup_ns(&self) -> u64 {
        self.setup.iter().sum()
    }

    /// Σ over rounds of the stream path: `ingest` + `advance_time` +
    /// `fire_ready`.
    pub fn pipeline_ns(&self) -> u64 {
        self.ingest
            .iter()
            .chain(&self.advance)
            .chain(&self.fire)
            .sum()
    }
}

/// What a pass does beyond timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassMode<'a> {
    /// For each `(round, standing query)` slot, in order, keep the first
    /// firing at or after it that has rows, for the oracle.
    pub sample: &'a [(usize, usize)],
    /// Record spans and allocation counts.
    pub traced: bool,
    /// Run with the engine's flight recorder off (only for measuring the
    /// recorder's own overhead; every reported timing has it on).
    pub recorder_off: bool,
}

/// Slices `load_base` is timed in.
const LOAD_CHUNKS: usize = 64;

/// A ~20 µs dependent xorshift-multiply chain: fixed register-only work
/// whose timing shows the host's mode, independent of the engine.
pub fn ref_kernel() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..10_000u64 {
        x ^= x >> 27;
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
    }
    black_box(x)
}

struct Clock(Instant);

impl Clock {
    fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Collects spans when the pass is traced; a no-op otherwise.
struct Spans {
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        round: Option<usize>,
        calls: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
            calls,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a grouping span whose end is patched by [`Spans::close`].
    fn open(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<usize>,
        round: Option<usize>,
    ) -> Option<usize> {
        self.push(name, start_ns, start_ns, parent, round, 0)
    }

    fn close(&mut self, idx: Option<usize>, end_ns: u64) {
        if let Some(i) = idx {
            self.spans[i].end_ns = end_ns;
        }
    }
}

/// Runs one pass of `inputs` on a fresh engine. `before_drop` sees the
/// engine after the probe, still holding the whole run's state.
pub fn run_pass(
    inputs: &Inputs,
    mode: PassMode,
    before_drop: &mut dyn FnMut(&WukongS),
) -> PassRecord {
    let cfg = EngineConfig {
        trace: !mode.recorder_off,
        ..engine_config(inputs.spec.nodes)
    };
    let mut rec = PassRecord::default();
    let mut spans = Spans {
        on: mode.traced,
        spans: Vec::new(),
    };
    let mut digest = Fnv::new();
    let clock = Clock(Instant::now());
    let pass_span = spans.open("bench.pass", 0, None, None);

    // ---- set-up -----------------------------------------------------
    let setup_span = spans.open("bench.setup", 0, pass_span, None);
    let t0 = clock.ns();
    let engine = WukongS::with_strings(cfg, Arc::clone(&inputs.strings));
    let t1 = clock.ns();
    rec.setup.push(t1 - t0);
    // `load_base` is a plain loop over its argument, so slices load the
    // same store; timed apart, each slice can find its own quiet moment.
    let mut t2 = t1;
    for slice in inputs
        .stored
        .chunks(inputs.stored.len().div_ceil(LOAD_CHUNKS))
    {
        engine.load_base(slice.iter().copied());
        let now = clock.ns();
        rec.setup.push(now - t2);
        t2 = now;
    }
    for schema in &inputs.schemas {
        engine.register_stream(schema.clone());
    }
    let t3 = clock.ns();
    for (_, text) in &inputs.standing {
        if engine.register_continuous(text).is_err() {
            rec.failed += 1;
        }
    }
    let t4 = clock.ns();
    rec.setup.extend([t3 - t2, t4 - t3]);
    rec.load_base_ns = t2 - t1;
    rec.register_ns = t4 - t3;
    spans.push("core.new", t0, t1, setup_span, None, 1);
    spans.push("core.load_base", t1, t2, setup_span, None, 1);
    spans.push("core.register_stream", t2, t3, setup_span, None, 5);
    let standing = inputs.standing.len() as u64;
    spans.push(
        "core.register_continuous",
        t3,
        t4,
        setup_span,
        None,
        standing,
    );
    spans.close(setup_span, t4);

    if mode.traced {
        alloc::set_enabled(true);
    }
    // The counters stand still while counting is off, so an untraced pass
    // tallies zeros without branching on the mode.
    let bytes_now = || alloc::counters().1;
    let allocs_now = || alloc::counters().0;

    // ---- rounds -----------------------------------------------------
    let mut sample_at = mode.sample.iter().peekable();
    let mut light_n = 0usize;
    for k in 0..inputs.rounds {
        let tick = (k as Timestamp + 1) * BATCH_MS;
        let tuples = inputs.round_tuples(k);
        let round_span = spans.open("bench.round", clock.ns(), pass_span, Some(k));

        let bytes0 = bytes_now();
        let a = clock.ns();
        let (head, tail) = tuples.split_at(tuples.len().saturating_sub(1));
        for t in head {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        let b = clock.ns();
        for t in tail {
            engine.ingest(t.stream, t.triple, t.timestamp);
        }
        let c = clock.ns();
        engine.advance_time(tick);
        let d = clock.ns();
        rec.allocs.ingest_bytes += bytes_now() - bytes0;
        let allocs0 = allocs_now();
        let firings = engine.fire_ready();
        let e = clock.ns();
        rec.allocs.fire_allocs += allocs_now() - allocs0;
        rec.ingest.push(c - a);
        rec.last.push(c - b);
        rec.advance.push(d - c);
        rec.fire.push(e - d);
        spans.push(
            "core.ingest",
            a,
            c,
            round_span,
            Some(k),
            tuples.len() as u64,
        );
        spans.push("core.advance_time", c, d, round_span, Some(k), 1);
        spans.push("core.fire_ready", d, e, round_span, Some(k), 1);

        // Untimed: digest and account for what fired.
        for f in &firings {
            digest.word(f.query as u64);
            digest.word(f.window_end);
            digest.result(&f.results);
            rec.rows += f.results.rows.len() as u64;
            rec.failed += u64::from(is_marked(&f.results));
            rec.staged_ns += f.stages.query_total_ns();
            rec.forkjoin_firings += u64::from(f.stages.get(Stage::ForkJoinFanout) > 0);
            // A planned slot takes the first firing at or after it that
            // has rows: an empty result would verify very little.
            if !f.results.rows.is_empty()
                && sample_at
                    .next_if(|&&(r, q)| (r, q) <= (k, f.query))
                    .is_some()
            {
                rec.sample.push(SampledFiring {
                    query: f.query,
                    window_end: f.window_end,
                    rows: f.results.rows.clone(),
                });
            }
        }
        rec.firings += firings.len() as u64;
        rec.attempted += firings.len() as u64;
        drop(firings);

        // One-shots run after the firings: they are not on the stream
        // path, they share the store with it.
        let heavy = inputs.heavy_shot(k);
        let lights = (0..inputs.spec.light_per_round).map(|j| inputs.light_shot(light_n + j));
        for (text, is_heavy) in lights.map(|t| (t, false)).chain(heavy.map(|t| (t, true))) {
            let allocs0 = allocs_now();
            let s = clock.ns();
            let out = engine.one_shot(text);
            let t = clock.ns();
            rec.allocs.oneshot_allocs += allocs_now() - allocs0;
            if is_heavy {
                rec.heavy.push(t - s);
            } else {
                rec.light.push(t - s);
            }
            spans.push("core.one_shot", s, t, round_span, Some(k), 1);
            rec.attempted += 1;
            match out {
                Ok((rs, _)) => {
                    digest.result(&rs);
                    rec.failed += u64::from(is_marked(&rs));
                }
                Err(_) => rec.failed += 1,
            }
        }
        light_n += inputs.spec.light_per_round;

        let s = clock.ns();
        ref_kernel();
        let t = clock.ns();
        rec.ref_kernel.push(t - s);
        spans.push("bench.ref_kernel", s, t, round_span, Some(k), 1);
        spans.close(round_span, t);
    }
    if mode.traced {
        alloc::set_enabled(false);
    }

    let stats = engine.stats();
    rec.state_bytes = [
        stats.store_bytes as u64,
        stats.stream_index_bytes as u64,
        stats.transient_bytes as u64,
    ];
    rec.fabric = stats.fabric;

    // ---- probe: Table 2/3's per-class execution latency ---------------
    let probe_span = spans.open("bench.probe", clock.ns(), pass_span, None);
    for (text, &reps) in inputs.probe.iter().zip(&PROBE_REPS) {
        let s = clock.ns();
        let registered = engine.register_continuous(text);
        let t = clock.ns();
        spans.push("core.register_continuous", s, t, probe_span, None, 1);
        let Ok(id) = registered else {
            rec.failed += 1;
            continue;
        };
        let (mut wall, mut modeled) = (u64::MAX, u64::MAX);
        let s = clock.ns();
        for rep in 0..reps {
            let r0 = clock.ns();
            let (rs, ms) = engine.execute_registered(id);
            wall = wall.min(clock.ns() - r0);
            modeled = modeled.min((ms * 1e6) as u64);
            if rep == 0 {
                digest.result(&rs);
                rec.failed += u64::from(is_marked(&rs));
                rec.attempted += 1;
            }
        }
        spans.push(
            "core.execute_registered",
            s,
            clock.ns(),
            probe_span,
            None,
            reps as u64,
        );
        rec.exec_wall.push(wall);
        rec.exec_modeled.push(modeled.max(1));
    }
    spans.close(probe_span, clock.ns());

    rec.digest = digest.finish();
    before_drop(&engine);
    let s = clock.ns();
    drop(engine);
    let end = clock.ns();
    spans.push("core.drop", s, end, pass_span, None, 1);
    spans.close(pass_span, end);
    rec.wall_ns = end;
    rec.spans = spans.spans;
    rec
}

/// Self time of every span: its duration minus what its direct children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |start_ns, end_ns, parent| Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            round: None,
            calls: 1,
        };
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn reference_kernel_is_fixed_work() {
        assert_eq!(ref_kernel(), ref_kernel());
    }
}
