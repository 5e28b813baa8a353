//! Result verification: FNV digests of everything the engine returns,
//! the committed expected digests, and an independent relational oracle.

use crate::workload::{Inputs, BATCH_MS};
use wukong_baselines::relational::{hash_join, scan_pattern};
use wukong_baselines::{Relation, TripleTable};
use wukong_benchdata::TimedTuple;
use wukong_obs::Json;
use wukong_query::ast::{GraphName, Query};
use wukong_query::{parse_query, ResultSet};
use wukong_rdf::{Timestamp, Triple, Vid};

/// Word-wise FNV-1a (64-bit): one xor-multiply per `u64`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes one word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mixes a byte string, length-prefixed.
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for &x in b {
            self.word(u64::from(x));
        }
    }

    /// Mixes a triple.
    pub fn triple(&mut self, t: &Triple) {
        self.word(t.s.0);
        self.word(t.p.0);
        self.word(t.o.0);
    }

    /// Mixes a whole result set: shape, rows in emitted order, aggregates.
    pub fn result(&mut self, rs: &ResultSet) {
        self.word(rs.var_names.len() as u64);
        self.word(rs.rows.len() as u64);
        for row in &rs.rows {
            for v in row {
                self.word(v.0);
            }
        }
        for a in rs
            .aggregates
            .iter()
            .chain(rs.group_aggregates.iter().flatten())
        {
            self.word(a.map_or(u64::MAX, f64::to_bits));
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Whether a result carries any mark that makes it less than a complete
/// answer; such a result counts as failed.
pub fn is_marked(rs: &ResultSet) -> bool {
    rs.degraded.is_some() || !rs.unreachable_shards.is_empty() || !rs.quarantined_shards.is_empty()
}

/// The committed digests, keyed `<workload>/<seed>/<rounds>`.
pub const EXPECTED_JSON: &str = include_str!("../expected.json");

/// The key of one expected-digest entry.
pub fn expected_key(inputs: &Inputs) -> String {
    format!("{}/{}/{}", inputs.spec.name, inputs.seed, inputs.rounds)
}

/// `(input digest, result digest)` committed for these inputs, if any.
pub fn expected_for(inputs: &Inputs) -> Option<(u64, u64)> {
    let all = wukong_obs::json::parse(EXPECTED_JSON).expect("expected.json parses");
    let entry = all.get(&expected_key(inputs))?;
    let hex = |k: &str| {
        let s = entry.get(k).and_then(Json::as_str).expect("hex digest");
        u64::from_str_radix(s, 16).expect("hex digest")
    };
    Some((hex("inputs"), hex("results")))
}

/// One firing kept from the first pass for the oracle.
#[derive(Debug)]
pub struct SampledFiring {
    /// Index into `Inputs::standing`.
    pub query: usize,
    /// End (inclusive) of the fired windows.
    pub window_end: Timestamp,
    /// The engine's rows, as emitted.
    pub rows: Vec<Vec<Vid>>,
}

/// How many firings the oracle re-computes per run.
pub const ORACLE_SAMPLES: usize = 24;
/// The fewest re-computed firings, all with rows, that make the oracle
/// check count as passed.
pub const ORACLE_MIN: usize = 12;

/// The `(round, standing query)` slots sampled for the oracle: spread
/// over the pass and over registration order, deterministic per inputs.
/// The pass fills each slot with the first firing at or after it that
/// has rows.
pub fn sample_plan(inputs: &Inputs) -> Vec<(usize, usize)> {
    let n = inputs.standing.len();
    let mut plan: Vec<(usize, usize)> = (0..ORACLE_SAMPLES)
        .map(|i| {
            // Skip the first second: windows are still filling.
            let round = 10 + i * inputs.rounds.saturating_sub(10) / ORACLE_SAMPLES;
            (round.min(inputs.rounds - 1), (i * 7 + i / 3) % n)
        })
        .collect();
    plan.sort_unstable();
    plan.dedup();
    plan
}

/// Re-computes each sampled firing with scans and hash joins over the
/// generated triples and returns how many disagree with the engine.
///
/// A stored-graph pattern sees the initial triples plus every timeless
/// stream tuple batched at or before the window end (the store absorbs
/// them); a stream pattern sees the tuples batched inside its window.
pub fn oracle_mismatches(inputs: &Inputs, sample: &[SampledFiring]) -> usize {
    let mut stored = TripleTable::new();
    stored.load(inputs.stored.iter().copied());
    sample
        .iter()
        .filter(|f| {
            let q =
                parse_query(&inputs.strings, &inputs.standing[f.query].1).expect("parsed before");
            let expect = oracle_rows(inputs, &q, &stored, f.window_end);
            let mut got = f.rows.clone();
            got.sort();
            got != expect
        })
        .count()
}

/// Timeline slice whose batch timestamp lies in `(after, upto]`.
fn batched_in(timeline: &[TimedTuple], after: Timestamp, upto: Timestamp) -> &[TimedTuple] {
    debug_assert!(after.is_multiple_of(BATCH_MS) && upto.is_multiple_of(BATCH_MS));
    let lo = timeline.partition_point(|t| t.timestamp <= after);
    let hi = timeline.partition_point(|t| t.timestamp <= upto);
    &timeline[lo..hi]
}

fn oracle_rows(
    inputs: &Inputs,
    q: &Query,
    stored: &TripleTable,
    window_end: Timestamp,
) -> Vec<Vec<Vid>> {
    let mut acc = Relation::unit();
    for pat in &q.patterns {
        let rel = match pat.graph {
            GraphName::Stored => {
                let mut rel = stored.scan(pat).0;
                let absorbed = batched_in(&inputs.timeline, 0, window_end)
                    .iter()
                    .filter(|t| !inputs.timing_predicates.contains(&t.triple.p))
                    .map(|t| &t.triple);
                rel.rows.extend(scan_pattern(absorbed, pat).rows);
                rel
            }
            GraphName::Stream(i) => {
                let (name, spec) = &q.streams[i];
                let sid = inputs.stream_index(name);
                let window = batched_in(
                    &inputs.timeline,
                    window_end.saturating_sub(spec.range_ms),
                    window_end,
                );
                scan_pattern(
                    window
                        .iter()
                        .filter(|t| t.stream.0 as usize == sid)
                        .map(|t| &t.triple),
                    pat,
                )
            }
        };
        acc = hash_join(&acc, &rel);
        if acc.is_empty() {
            break;
        }
    }
    let cols: Vec<usize> = q
        .select
        .iter()
        .filter_map(|v| acc.vars.iter().position(|x| x == v))
        .collect();
    let mut rows: Vec<Vec<Vid>> = if cols.len() == q.select.len() {
        acc.rows
            .iter()
            .map(|row| cols.iter().map(|&c| row[c]).collect())
            .collect()
    } else {
        // The join emptied before binding every selected variable.
        Vec::new()
    };
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::Pid;

    #[test]
    fn digest_depends_on_order_and_content() {
        let rs = |rows: Vec<Vec<u64>>| ResultSet {
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(Vid).collect())
                .collect(),
            ..ResultSet::empty(vec!["X".into(), "Y".into()])
        };
        let d = |r: &ResultSet| {
            let mut h = Fnv::new();
            h.result(r);
            h.finish()
        };
        let a = d(&rs(vec![vec![1, 2], vec![3, 4]]));
        assert_eq!(a, d(&rs(vec![vec![1, 2], vec![3, 4]])));
        assert_ne!(a, d(&rs(vec![vec![3, 4], vec![1, 2]])));
        assert_ne!(a, d(&rs(vec![vec![1, 2]])));
        let mut h = Fnv::new();
        h.triple(&Triple::new(Vid(1), Pid(2), Vid(3)));
        assert_ne!(h.finish(), Fnv::new().finish());
    }

    #[test]
    fn marks_are_detected() {
        let mut rs = ResultSet::empty(Vec::new());
        assert!(!is_marked(&rs));
        rs.unreachable_shards.push(3);
        assert!(is_marked(&rs));
    }

    #[test]
    fn committed_digests_parse() {
        let all = wukong_obs::json::parse(EXPECTED_JSON).unwrap();
        for (key, entry) in all.as_obj().unwrap() {
            assert_eq!(key.split('/').count(), 3, "{key}");
            for k in ["inputs", "results"] {
                let hex = entry.get(k).and_then(Json::as_str).unwrap();
                u64::from_str_radix(hex, 16).unwrap();
            }
        }
    }
}
