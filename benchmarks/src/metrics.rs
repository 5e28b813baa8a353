//! The benchmark's metric catalogue: what `BENCHMARK.json` declares and
//! what a run must print, in one place so the two cannot drift.

/// An end-to-end metric: something a user of the engine would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of a single layer (no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; read only by the test that holds
    /// `BENCHMARK.json` to this catalogue.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports all of these from its untraced passes.
///
/// The wall-clock bounds are the widest the contract allows: the shared
/// host drifts by up to ~20 % for minutes at a time (memory contention a
/// floor over one run's ~20 s cannot see past), so a tighter bound would
/// reject a commit for the host's mood. Run-to-run spread on one build is
/// 2-8 % (see README); the two memory metrics repeat far more closely.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ingest_ktps", "ktuples/s", "higher", 0.25),
    e2e("freshness_ms_p50", "ms", "lower", 0.25),
    e2e("freshness_ms_p90", "ms", "lower", 0.25),
    e2e("fire_round_ms_p50", "ms", "lower", 0.25),
    e2e("fire_round_ms_p90", "ms", "lower", 0.25),
    e2e("firings_per_s", "1/s", "higher", 0.25),
    e2e("exec_geomean_us", "us", "lower", 0.25),
    e2e("modeled_geomean_ms", "ms", "lower", 0.25),
    e2e("oneshot_light_us_p50", "us", "lower", 0.25),
    e2e("oneshot_heavy_ms", "ms", "lower", 0.25),
    e2e("rss_peak_mb", "MB", "lower", 0.10),
    e2e("state_mb", "MB", "lower", 0.01),
];

/// The traced run reports all of these.
pub const PER_LAYER: [PerLayer; 78] = [
    layer("core.ingest.busy_ms", "ms", "lower"),
    layer("core.ingest.calls", "count", "higher"),
    layer("core.advance_time.busy_ms", "ms", "lower"),
    layer("core.advance_time.calls", "count", "higher"),
    layer("core.fire_ready.busy_ms", "ms", "lower"),
    layer("core.fire_ready.calls", "count", "higher"),
    layer("core.one_shot.busy_ms", "ms", "lower"),
    layer("core.one_shot.calls", "count", "higher"),
    layer("core.execute_registered.busy_ms", "ms", "lower"),
    layer("core.execute_registered.calls", "count", "higher"),
    layer("core.fire_ready.firings", "count", "higher"),
    layer("core.fire_ready.rows", "count", "higher"),
    layer("core.fire_ready.allocs_per_firing", "count", "lower"),
    layer("core.fire_ready.unattributed_share", "share", "lower"),
    layer("core.ingest.alloc_bytes_per_tuple", "B", "lower"),
    layer("core.one_shot.allocs_per_query", "count", "lower"),
    layer("core.load_base.ms", "ms", "lower"),
    layer("core.register_continuous.us", "us", "lower"),
    layer("core.forkjoin.firings", "count", "higher"),
    layer("core.checkpoint.encode_ms", "ms", "lower"),
    layer("core.checkpoint.bytes", "B", "lower"),
    layer("core.state.store_mb", "MB", "lower"),
    layer("core.state.stream_index_mb", "MB", "lower"),
    layer("core.state.transient_mb", "MB", "lower"),
    layer("stream.adaptor.push_ns_per_tuple", "ns", "lower"),
    layer("stream.adaptor.batches", "count", "higher"),
    layer("stream.dispatcher.dispatch_us_per_batch", "us", "lower"),
    layer("stream.dispatcher.sub_batches", "count", "lower"),
    layer("stream.dispatcher.skew", "ratio", "lower"),
    layer("stream.injector.apply_us_per_batch", "us", "lower"),
    layer("stream.injector.timeless", "count", "higher"),
    layer("stream.injector.timing", "count", "higher"),
    layer("stream.coordinator.on_batch_ns", "ns", "lower"),
    layer("stream.window.fire_ns", "ns", "lower"),
    layer("store.base.load_ns_per_triple", "ns", "lower"),
    layer("store.base.lookup_ns", "ns", "lower"),
    layer("store.base.bytes_per_triple", "B", "lower"),
    layer("store.persistent.inject_ns_per_tuple", "ns", "lower"),
    layer("store.persistent.consolidate_ms", "ms", "lower"),
    layer("store.stream_index.build_us_per_batch", "us", "lower"),
    layer("store.stream_index.window_ns", "ns", "lower"),
    layer("store.stream_index.entries", "count", "lower"),
    layer("store.transient.push_us_per_batch", "us", "lower"),
    layer("store.transient.window_ns", "ns", "lower"),
    layer("store.gc.sweep_us", "us", "lower"),
    layer("query.parser.parse_us", "us", "lower"),
    layer("query.planner.plan_us", "us", "lower"),
    layer("query.executor.L1.us", "us", "lower"),
    layer("query.executor.L2.us", "us", "lower"),
    layer("query.executor.L3.us", "us", "lower"),
    layer("query.executor.L4.us", "us", "lower"),
    layer("query.executor.L5.us", "us", "lower"),
    layer("query.executor.L6.us", "us", "lower"),
    layer("query.executor.S1.us", "us", "lower"),
    layer("query.executor.S2.us", "us", "lower"),
    layer("query.executor.S3.us", "us", "lower"),
    layer("query.executor.S4.us", "us", "lower"),
    layer("query.executor.S5.us", "us", "lower"),
    layer("query.executor.S6.us", "us", "lower"),
    layer("query.executor.finalize_us", "us", "lower"),
    layer("query.executor.rows_out", "count", "higher"),
    layer("query.executor.edges_traversed", "count", "lower"),
    layer("query.incremental.maintain_us", "us", "lower"),
    layer("net.fabric.messages", "count", "lower"),
    layer("net.fabric.one_sided_reads", "count", "lower"),
    layer("net.fabric.bytes_sent", "B", "lower"),
    layer("net.fabric.charged_ms", "ms", "lower"),
    layer("net.pool.map_ns_per_item", "ns", "lower"),
    layer("rdf.string_server.intern_ns", "ns", "lower"),
    layer("rdf.ntriples.parse_ns_per_line", "ns", "lower"),
    layer("obs.histogram.record_ns", "ns", "lower"),
    layer("obs.trace.overhead_share", "share", "lower"),
    layer("bench.generate_s", "s", "lower"),
    layer("bench.span_overhead_share", "share", "lower"),
    layer("bench.passes", "count", "higher"),
    layer("bench.quiet_share", "share", "higher"),
    layer("bench.ref_kernel_us", "us", "lower"),
    layer("bench.ref_kernel_slow_share", "share", "lower"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
    /// Samples the value aggregates.
    pub samples: usize,
}

/// The unit the catalogue declares for `name`.
///
/// # Panics
///
/// Panics on a name outside the catalogue: a run may only report what
/// `BENCHMARK.json` declares.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;
    use wukong_obs::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_is_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(SPECS.iter().map(|s| s.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| valid_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root must declare exactly this
    /// catalogue and these workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let j = wukong_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let field = |o: &Json, k: &str| o.get(k).and_then(Json::as_str).unwrap().to_string();
        let arr = |k: &str| j.get(k).and_then(Json::as_arr).unwrap().to_vec();
        assert_eq!(
            j.get("run_seconds").and_then(Json::as_f64),
            Some(crate::run::RUN_SECONDS as f64)
        );

        let workloads: Vec<(String, String)> = arr("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let declared: Vec<(String, String, String, f64)> = arr("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(declared, want);

        let declared: Vec<(String, String, String)> = arr("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(declared, want);
    }
}
