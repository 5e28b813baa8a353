//! Bounded ingest: deterministic load shedding with exact accounting.
//!
//! The adaptor→dispatcher→injector pipeline is pull-through: whatever a
//! burst produces, the engine enqueues. Under a sustained rate spike that
//! turns sub-millisecond firings into unbounded queueing — the failure
//! mode the RSP measurement studies report for C-SPARQL/CQELS. The
//! [`Shedder`] bounds the pending queue of each stream by an
//! [`IngestBudget`] and, when a freshly enqueued batch overflows it,
//! drops tuples under a deterministic [`ShedPolicy`]:
//!
//! * **Drop-oldest-window** empties the oldest still-pending batches
//!   (the tuples a query is *least* likely to still need) until the
//!   queue fits. The emptied batches stay in the queue so the VTS keeps
//!   advancing — shedding degrades answers, never liveness.
//! * **Sample-within-batch** thins the newest batches by keeping a
//!   seeded pseudo-random half of their tuples per round, preserving a
//!   uniform sample of the burst instead of a time prefix.
//!
//! Both policies decide from *deterministic* state only — queue
//! occupancy, batch timestamps, the configured seed — never from
//! wall-clock measurements, so the shed log and every downstream
//! `degraded` marker are byte-identical across runs and worker counts.
//!
//! Exact accounting: every shed tuple is (a) counted in an append-only
//! [`ShedRecord`] log, (b) summed per `(stream, batch timestamp)` so
//! firings whose windows consumed a shed-affected batch can carry a
//! precise `degraded` marker, and (c) retained verbatim for the
//! catch-up replay that re-inserts it once overload subsides.

use std::collections::{BTreeMap, VecDeque};

use wukong_obs::BatchId;
use wukong_rdf::{StreamId, StreamTuple, Timestamp};

use crate::adaptor::Batch;

/// Per-stream bound on pending (enqueued but not yet injected) data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestBudget {
    /// Maximum pending tuples per stream.
    pub max_tuples: usize,
}

impl IngestBudget {
    /// A budget of `max_tuples` pending tuples.
    pub fn tuples(max_tuples: usize) -> Self {
        IngestBudget { max_tuples }
    }
}

/// Which deterministic shed policy a full queue applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Empty the oldest pending batches until the queue fits.
    #[default]
    DropOldestWindow,
    /// Keep a seeded pseudo-random half of the newest batches' tuples
    /// per round until the queue fits.
    SampleWithinBatch,
}

/// One shed event: `tuples_shed` tuples dropped from the batch of
/// `stream` at `batch_ts`. The log of these is the determinism witness —
/// same seed, same spike ⇒ byte-identical logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedRecord {
    /// The stream shed from.
    pub stream: StreamId,
    /// Timestamp of the batch the tuples were dropped from.
    pub batch_ts: Timestamp,
    /// Causal identity of the batch the tuples were dropped from, so
    /// shed events are joinable against flight-recorder traces.
    pub batch: BatchId,
    /// Tuples dropped by this event.
    pub tuples_shed: u64,
    /// The policy that dropped them.
    pub policy: ShedPolicy,
}

/// SplitMix64 — the same generator family as the offline `rand` shim;
/// used to pick sample survivors as a pure function of
/// `(seed, stream, batch_ts, round, index)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic load shedder: policy, seed, shed log, per-batch
/// outstanding-shed accounting, and the retained tuples for catch-up.
#[derive(Debug)]
pub struct Shedder {
    policy: ShedPolicy,
    seed: u64,
    log: Vec<ShedRecord>,
    /// Tuples shed and not yet replayed, per `(stream, batch_ts)` —
    /// the source of `degraded` markers.
    outstanding: BTreeMap<(StreamId, Timestamp), u64>,
    /// The shed tuples themselves, keyed for time-ordered replay.
    retained: BTreeMap<(Timestamp, StreamId), Vec<StreamTuple>>,
    last_shed_ts: Option<Timestamp>,
}

impl Shedder {
    /// Creates a shedder applying `policy` with sampling seed `seed`.
    pub fn new(policy: ShedPolicy, seed: u64) -> Self {
        Shedder {
            policy,
            seed,
            log: Vec::new(),
            outstanding: BTreeMap::new(),
            retained: BTreeMap::new(),
            last_shed_ts: None,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> ShedPolicy {
        self.policy
    }

    /// Enforces `budget` over one stream's pending queue, shedding under
    /// the configured policy until the queue fits. Emptied batches stay
    /// queued (liveness: the VTS must keep advancing). Returns the
    /// number of tuples shed by this call.
    pub fn enforce(&mut self, queue: &mut VecDeque<Batch>, budget: &IngestBudget) -> u64 {
        let mut tuples: usize = queue.iter().map(|batch| batch.tuples.len()).sum();
        if tuples <= budget.max_tuples {
            return 0;
        }
        let mut shed_total = 0u64;
        match self.policy {
            ShedPolicy::DropOldestWindow => {
                let mut drops = Vec::new();
                for batch in queue.iter_mut() {
                    if tuples <= budget.max_tuples {
                        break;
                    }
                    if batch.tuples.is_empty() {
                        continue;
                    }
                    let dropped = std::mem::take(&mut batch.tuples);
                    batch.reseal();
                    tuples -= dropped.len();
                    drops.push((batch.stream, batch.timestamp, dropped));
                }
                for (stream, ts, dropped) in drops {
                    shed_total += self.record(stream, ts, dropped);
                }
            }
            ShedPolicy::SampleWithinBatch => {
                let mut round = 0u64;
                while tuples > budget.max_tuples {
                    let Some(i) = (0..queue.len())
                        .rev()
                        .find(|&i| !queue[i].tuples.is_empty())
                    else {
                        break;
                    };
                    let batch = &mut queue[i];
                    let (stream, ts) = (batch.stream, batch.timestamp);
                    let base = self
                        .seed
                        .wrapping_add((stream.0 as u64) << 48)
                        .wrapping_add(ts.wrapping_mul(0x9E37))
                        .wrapping_add(round);
                    let mut kept = Vec::with_capacity(batch.tuples.len() / 2 + 1);
                    let mut dropped = Vec::with_capacity(batch.tuples.len() / 2 + 1);
                    for (idx, t) in batch.tuples.drain(..).enumerate() {
                        if splitmix64(base.wrapping_add(idx as u64)) & 1 == 0 {
                            dropped.push(t);
                        } else {
                            kept.push(t);
                        }
                    }
                    // Degenerate masks (tiny batches) could drop nothing
                    // and loop forever; force progress.
                    if dropped.is_empty() {
                        dropped = std::mem::take(&mut kept);
                    }
                    tuples -= dropped.len();
                    batch.tuples = kept;
                    batch.reseal();
                    shed_total += self.record(stream, ts, dropped);
                    round += 1;
                }
            }
        }
        shed_total
    }

    fn record(&mut self, stream: StreamId, batch_ts: Timestamp, dropped: Vec<StreamTuple>) -> u64 {
        let n = dropped.len() as u64;
        if n == 0 {
            return 0;
        }
        self.log.push(ShedRecord {
            stream,
            batch_ts,
            batch: BatchId::mint(stream.0, batch_ts),
            tuples_shed: n,
            policy: self.policy,
        });
        *self.outstanding.entry((stream, batch_ts)).or_insert(0) += n;
        self.retained
            .entry((batch_ts, stream))
            .or_default()
            .extend(dropped);
        self.last_shed_ts = Some(self.last_shed_ts.map_or(batch_ts, |t| t.max(batch_ts)));
        n
    }

    /// The append-only shed log (never cleared by replay).
    pub fn log(&self) -> &[ShedRecord] {
        &self.log
    }

    /// Total tuples shed over the whole run.
    pub fn total_shed(&self) -> u64 {
        self.log.iter().map(|r| r.tuples_shed).sum()
    }

    /// Tuples shed from `stream`'s batches inside `[lo, hi]` and not yet
    /// replayed — the staleness a firing over that window must declare.
    pub fn outstanding_in(&self, stream: StreamId, lo: Timestamp, hi: Timestamp) -> u64 {
        self.outstanding
            .range((stream, lo)..=(stream, hi))
            .map(|(_, n)| n)
            .sum()
    }

    /// Total shed tuples not yet replayed.
    pub fn outstanding_total(&self) -> u64 {
        self.outstanding.values().sum()
    }

    /// The latest batch timestamp a shed touched, if any.
    pub fn last_shed_ts(&self) -> Option<Timestamp> {
        self.last_shed_ts
    }

    /// Takes every retained tuple for catch-up replay, in `(timestamp,
    /// stream)` order, clearing the outstanding-shed accounting — after
    /// the caller re-inserts these, affected windows are whole again and
    /// must stop carrying `degraded` markers.
    pub fn take_retained(&mut self) -> Vec<(StreamId, Timestamp, Vec<StreamTuple>)> {
        self.outstanding.clear();
        std::mem::take(&mut self.retained)
            .into_iter()
            .map(|((ts, stream), tuples)| (stream, ts, tuples))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::{Pid, Triple, TupleKind, Vid};

    fn batch(stream: u16, ts: Timestamp, n: usize) -> Batch {
        Batch::sealed(
            StreamId(stream),
            ts,
            (0..n)
                .map(|i| StreamTuple {
                    triple: Triple::new(Vid(i as u64 + 1), Pid(4), Vid(ts)),
                    timestamp: ts,
                    kind: TupleKind::Timeless,
                })
                .collect(),
            0,
        )
    }

    #[test]
    fn enforce_reseals_mutated_batches() {
        for policy in [ShedPolicy::DropOldestWindow, ShedPolicy::SampleWithinBatch] {
            let mut s = Shedder::new(policy, 42);
            let mut q: VecDeque<Batch> = (1..=4).map(|i| batch(0, i * 100, 8)).collect();
            assert!(s.enforce(&mut q, &IngestBudget::tuples(10)) > 0);
            for b in &q {
                assert!(
                    b.verify(),
                    "{policy:?} left a shed batch with a stale checksum"
                );
            }
        }
    }

    #[test]
    fn under_budget_is_untouched() {
        let mut s = Shedder::new(ShedPolicy::DropOldestWindow, 42);
        let mut q: VecDeque<Batch> = [batch(0, 100, 5)].into_iter().collect();
        assert_eq!(s.enforce(&mut q, &IngestBudget::tuples(10)), 0);
        assert_eq!(q[0].tuples.len(), 5);
        assert!(s.log().is_empty());
        assert!(s.retained.is_empty());
    }

    #[test]
    fn drop_oldest_empties_front_batches_but_keeps_them_queued() {
        let mut s = Shedder::new(ShedPolicy::DropOldestWindow, 42);
        let mut q: VecDeque<Batch> = [batch(0, 100, 8), batch(0, 200, 8), batch(0, 300, 4)]
            .into_iter()
            .collect();
        let shed = s.enforce(&mut q, &IngestBudget::tuples(10));
        assert_eq!(shed, 16);
        assert_eq!(q.len(), 3, "emptied batches stay queued for VTS");
        assert!(q[0].tuples.is_empty());
        assert!(q[1].tuples.is_empty());
        assert_eq!(q[2].tuples.len(), 4);
        assert_eq!(s.outstanding_in(StreamId(0), 0, 250), 16);
        assert_eq!(s.outstanding_in(StreamId(0), 250, 999), 0);
        assert_eq!(s.log().len(), 2);
    }

    #[test]
    fn sampling_thins_newest_and_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut s = Shedder::new(ShedPolicy::SampleWithinBatch, seed);
            let mut q: VecDeque<Batch> =
                [batch(0, 100, 4), batch(0, 200, 60)].into_iter().collect();
            s.enforce(&mut q, &IngestBudget::tuples(24));
            (
                s.log().to_vec(),
                q.iter().map(|b| b.tuples.clone()).collect::<Vec<_>>(),
            )
        };
        let (log_a, q_a) = run(7);
        let (log_b, q_b) = run(7);
        assert_eq!(log_a, log_b, "same seed ⇒ identical shed log");
        assert_eq!(q_a, q_b, "same seed ⇒ identical survivors");
        let (log_c, _) = run(8);
        assert!(
            log_a != log_c || run(7).1 != run(8).1,
            "different seeds should differ somewhere"
        );
        // The newest batch was thinned first; the oldest only if needed.
        let total: usize = q_a.iter().map(Vec::len).sum();
        assert!(total <= 24);
    }

    #[test]
    fn retained_tuples_round_trip_and_clear_outstanding() {
        let mut s = Shedder::new(ShedPolicy::DropOldestWindow, 1);
        let mut q: VecDeque<Batch> = [batch(1, 100, 6), batch(1, 200, 6)].into_iter().collect();
        s.enforce(&mut q, &IngestBudget::tuples(0));
        assert_eq!(s.outstanding_total(), 12);
        let retained = s.take_retained();
        assert_eq!(retained.len(), 2);
        assert_eq!(retained[0].1, 100);
        assert_eq!(retained[1].1, 200);
        assert_eq!(retained.iter().map(|(_, _, t)| t.len()).sum::<usize>(), 12);
        assert_eq!(s.outstanding_total(), 0, "replay clears markers");
        assert_eq!(s.log().len(), 2, "the log is append-only history");
        assert!(s.retained.is_empty());
    }

    #[test]
    fn accounting_identity_holds_per_policy() {
        for policy in [ShedPolicy::DropOldestWindow, ShedPolicy::SampleWithinBatch] {
            let mut s = Shedder::new(policy, 5);
            let mut q: VecDeque<Batch> =
                [batch(0, 100, 31), batch(0, 200, 17)].into_iter().collect();
            let before: usize = q.iter().map(|b| b.tuples.len()).sum();
            let shed = s.enforce(&mut q, &IngestBudget::tuples(20));
            let after: usize = q.iter().map(|b| b.tuples.len()).sum();
            assert_eq!(before, after + shed as usize, "{policy:?}");
            assert!(after <= 20, "{policy:?}");
            assert_eq!(s.total_shed(), shed, "{policy:?}");
            assert_eq!(s.outstanding_total(), shed, "{policy:?}");
        }
    }
}
