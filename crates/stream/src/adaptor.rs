//! The per-stream Adaptor (§3, Fig. 5).
//!
//! The Adaptor "uses a batch-based model that groups tuples by individual
//! timestamps … similar to mini-batches of small time intervals in Spark
//! Streaming. During the batching process, the Adaptor will also discard
//! unrelated tuples and indicate whether each tuple is timing or
//! timeless."

use std::collections::HashSet;
use wukong_obs::BatchId;
use wukong_rdf::{Pid, StreamId, StreamTuple, Timestamp, Triple, TupleKind};

/// Static description of a stream's content.
#[derive(Debug, Clone)]
pub struct StreamSchema {
    /// The stream's engine-wide identifier.
    pub id: StreamId,
    /// Human name (`Tweet_Stream`).
    pub name: String,
    /// Predicates whose tuples are *timing* data (GPS positions, sensor
    /// readings); everything else is timeless.
    pub timing_predicates: HashSet<Pid>,
    /// Predicates any registered query can use; `None` keeps everything.
    pub relevant_predicates: Option<HashSet<Pid>>,
    /// Mini-batch interval, ms.
    pub batch_interval_ms: u64,
}

impl StreamSchema {
    /// A schema keeping every predicate, all timeless.
    pub fn timeless(id: StreamId, name: impl Into<String>, batch_interval_ms: u64) -> Self {
        StreamSchema {
            id,
            name: name.into(),
            timing_predicates: HashSet::new(),
            relevant_predicates: None,
            batch_interval_ms,
        }
    }
}

/// Word-wise FNV-1a over a tuple slice: one xor-multiply step per `u64`
/// of (s, p, o, timestamp, kind). Any single-bit difference between two
/// equal-length payloads changes the hash — each step is
/// xor-then-multiply-by-odd, both bijections on `u64` — so a flipped bit
/// anywhere between sealing and install is always detected (DESIGN.md
/// §13). The value never leaves the process (checkpoints carry their own
/// section checksums).
pub fn payload_checksum(tuples: &[StreamTuple]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tuples {
        let kind = u64::from(!t.is_timeless());
        for word in [t.triple.s.0, t.triple.p.0, t.triple.o.0, t.timestamp, kind] {
            h = (h ^ word).wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// One mini-batch of classified tuples.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The stream this batch belongs to.
    pub stream: StreamId,
    /// Batch timestamp: the *end* of its interval, so a window `[lo, hi]`
    /// covers the batch iff `lo <= timestamp <= hi`.
    pub timestamp: Timestamp,
    /// Classified tuples.
    pub tuples: Vec<StreamTuple>,
    /// Tuples dropped as irrelevant (accounting).
    pub discarded: usize,
    /// [`payload_checksum`] of `tuples`, set when the batch is sealed
    /// and re-verified at the engine boundary before any install.
    pub checksum: u64,
    /// Whether this is the last of its interval's tuples: set on every
    /// batch `push` and `advance_to` seal, unset on a piece
    /// [`Adaptor::take_piece`] hands out of a still-open batch. A sealed
    /// batch whose interval handed out pieces holds only the rest.
    pub last: bool,
}

impl Batch {
    /// Builds a batch with its payload checksum sealed in.
    pub fn sealed(
        stream: StreamId,
        timestamp: Timestamp,
        tuples: Vec<StreamTuple>,
        discarded: usize,
    ) -> Batch {
        let checksum = payload_checksum(&tuples);
        Batch {
            stream,
            timestamp,
            tuples,
            discarded,
            checksum,
            last: true,
        }
    }

    /// Recomputes the checksum after a legitimate in-engine mutation of
    /// `tuples` (load shedding).
    pub(crate) fn reseal(&mut self) {
        self.checksum = payload_checksum(&self.tuples);
    }

    /// Whether `tuples` still matches the sealed checksum.
    pub fn verify(&self) -> bool {
        self.checksum == payload_checksum(&self.tuples)
    }

    /// The batch's causal identity: a pure function of `(stream,
    /// timestamp)`, minted at seal time, stable across recovery replay
    /// (the same logical batch carries the same [`BatchId`] through
    /// dispatch, injection, shed logs, and trace dumps).
    pub fn id(&self) -> BatchId {
        BatchId::mint(self.stream.0, self.timestamp)
    }
    /// The timeless tuples (for the persistent store).
    pub fn timeless(&self) -> impl Iterator<Item = &StreamTuple> {
        self.tuples.iter().filter(|t| t.is_timeless())
    }

    /// The timing tuples (for the transient store).
    pub fn timing(&self) -> impl Iterator<Item = &StreamTuple> {
        self.tuples.iter().filter(|t| !t.is_timeless())
    }
}

/// Batches one stream's raw tuples into classified mini-batches.
#[derive(Debug)]
pub struct Adaptor {
    schema: StreamSchema,
    current: Vec<StreamTuple>,
    current_end: Timestamp,
    /// Tuples of the open batch already handed out as pieces.
    handed_out: usize,
    discarded: usize,
    clock_anomalies: usize,
    /// Coalesced quiet gaps: `(after, to)` records that once the batch
    /// ending `after` is in, every grid point through `to` is a skipped
    /// empty batch — the consumer may advance its stream clock to `to`
    /// without waiting for (never-coming) batches in between.
    clock_jumps: Vec<(Timestamp, Timestamp)>,
    /// Nanoseconds of adaptor work (windowing/sealing) accumulated since
    /// the last [`Adaptor::take_work_ns`]; the engine drains this into
    /// the per-stream `Adaptor` stage histogram.
    work_ns: u64,
}

impl Adaptor {
    /// The longest run of empty heartbeat batches one `push`/`advance_to`
    /// call may seal. A tuple whose timestamp jumps further ahead than
    /// this many intervals is a clock anomaly: without the bound, a single
    /// bad timestamp would flood the pipeline with an unbounded (and,
    /// downstream, quadratic) run of empty batches.
    pub const MAX_EMPTY_RUN: usize = 64;

    /// Creates an adaptor; the first batch covers `(0, interval]`.
    pub fn new(schema: StreamSchema) -> Self {
        let end = schema.batch_interval_ms;
        Adaptor {
            schema,
            current: Vec::new(),
            current_end: end,
            handed_out: 0,
            discarded: 0,
            clock_anomalies: 0,
            clock_jumps: Vec::new(),
            work_ns: 0,
        }
    }

    /// The stream's schema.
    pub fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    /// Feeds one raw tuple; returns completed batches (possibly empty
    /// ones, which keep the VTS advancing through quiet periods).
    ///
    /// Tuples must arrive in non-decreasing timestamp order (C-SPARQL's
    /// time model, §4.3); a late tuple is clamped into the current batch.
    /// A far-future timestamp (more than [`Adaptor::MAX_EMPTY_RUN`]
    /// intervals ahead — a long-idle stream or a bad clock) never
    /// rewrites the tuple: the dead interval range is coalesced by
    /// jumping the batch clock forward, a bounded heartbeat run is
    /// sealed, the tuple keeps its true timestamp in the batch covering
    /// it, and the anomaly is counted.
    pub fn push(&mut self, triple: Triple, ts: Timestamp) -> Vec<Batch> {
        let t0 = std::time::Instant::now();
        let mut out = Vec::new();
        self.bound_gap(ts, false, &mut out);
        while ts > self.current_end {
            out.push(self.seal());
        }
        if let Some(rel) = &self.schema.relevant_predicates {
            if !rel.contains(&triple.p) {
                self.discarded += 1;
                self.work_ns += t0.elapsed().as_nanos() as u64;
                return out;
            }
        }
        let kind = if self.schema.timing_predicates.contains(&triple.p) {
            TupleKind::Timing
        } else {
            TupleKind::Timeless
        };
        self.current.push(StreamTuple {
            triple,
            timestamp: ts.max(
                self.current_end
                    .saturating_sub(self.schema.batch_interval_ms),
            ),
            kind,
        });
        self.work_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Advances stream time to `ts`, sealing every batch that ends at or
    /// before it (heartbeat for idle streams).
    ///
    /// A jump longer than [`Adaptor::MAX_EMPTY_RUN`] intervals is counted
    /// as a clock anomaly and the dead range is coalesced by jumping the
    /// batch clock, so the call still catches up fully while sealing a
    /// bounded number of batches.
    pub fn advance_to(&mut self, ts: Timestamp) -> Vec<Batch> {
        let t0 = std::time::Instant::now();
        let mut out = Vec::new();
        self.bound_gap(ts, true, &mut out);
        while ts >= self.current_end {
            out.push(self.seal());
        }
        self.work_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Coalesces an over-long quiet gap before `ts`. If stepping there one
    /// interval at a time would seal more than [`Adaptor::MAX_EMPTY_RUN`]
    /// batches, seal the current batch, count the anomaly, and jump
    /// `current_end` so only a bounded heartbeat run remains up to the
    /// first on-grid batch end that can host `ts` (inclusive of `ts` for
    /// `push`, strictly past it for `advance_to`). Jumps are whole
    /// multiples of the interval, so the batch grid's phase is preserved;
    /// the VTS is a watermark, so skipping the dead batch ends is sound.
    fn bound_gap(&mut self, ts: Timestamp, inclusive: bool, out: &mut Vec<Batch>) {
        let interval = self.schema.batch_interval_ms;
        let horizon = self
            .current_end
            .saturating_add((Self::MAX_EMPTY_RUN as u64).saturating_mul(interval));
        let beyond = if inclusive {
            ts >= horizon
        } else {
            ts > horizon
        };
        if !beyond {
            return;
        }
        self.clock_anomalies += 1;
        let after = self.current_end;
        out.push(self.seal());
        let gap = ts - self.current_end;
        let steps = if inclusive {
            gap / interval + 1
        } else {
            gap.div_ceil(interval)
        };
        let end = self
            .current_end
            .saturating_add(steps.saturating_mul(interval));
        self.current_end = end.saturating_sub((Self::MAX_EMPTY_RUN as u64 - 1) * interval);
        self.clock_jumps
            .push((after, self.current_end.saturating_sub(interval)));
    }

    /// Drains the accumulated adaptor work time (nanoseconds).
    pub fn take_work_ns(&mut self) -> u64 {
        std::mem::take(&mut self.work_ns)
    }

    /// Drains the count of clock anomalies (far-future timestamp jumps
    /// coalesced into bounded heartbeat runs) since the last call; the
    /// engine folds this into its per-stream `InjectStats`.
    pub fn take_clock_anomalies(&mut self) -> usize {
        std::mem::take(&mut self.clock_anomalies)
    }

    /// Drains the coalesced clock jumps since the last call, oldest
    /// first. Each `(after, to)` pair tells the consumer that no batch
    /// will ever be sealed strictly between `after` and `to`: the gap is
    /// quiet by construction, so stream time may advance through it once
    /// the batch ending `after` has landed.
    pub fn take_clock_jumps(&mut self) -> Vec<(Timestamp, Timestamp)> {
        std::mem::take(&mut self.clock_jumps)
    }

    /// Hands out the open batch's next `size` tuples as a piece once that
    /// many have arrived since the last piece: a batch at the open
    /// batch's timestamp with [`Batch::last`] unset and no discards (the
    /// sealed rest carries those). The tuples leave the adaptor, so what
    /// `push` or `advance_to` later seals for this interval is only the
    /// rest.
    pub fn take_piece(&mut self, size: usize) -> Option<Batch> {
        if self.current.len() < size {
            return None;
        }
        let t0 = std::time::Instant::now();
        let tuples: Vec<StreamTuple> = self.current.drain(..size).collect();
        self.handed_out += size;
        let piece = Batch {
            last: false,
            ..Batch::sealed(self.schema.id, self.current_end, tuples, 0)
        };
        self.work_ns += t0.elapsed().as_nanos() as u64;
        Some(piece)
    }

    /// Fast-forwards the adaptor's clock past `ts` *without* emitting
    /// batches — recovery replays logged batches directly into the store,
    /// so the adaptor must resume sealing strictly after them.
    pub fn fast_forward(&mut self, ts: Timestamp) {
        debug_assert!(
            self.current.is_empty() && self.handed_out == 0,
            "fast-forward would drop tuples"
        );
        let interval = self.schema.batch_interval_ms;
        while self.current_end <= ts {
            self.current_end += interval;
        }
        self.discarded = 0;
    }

    fn seal(&mut self) -> Batch {
        let b = Batch::sealed(
            self.schema.id,
            self.current_end,
            std::mem::take(&mut self.current),
            std::mem::take(&mut self.discarded),
        );
        self.current_end += self.schema.batch_interval_ms;
        self.handed_out = 0;
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::{Pid, Vid};

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Vid(s), Pid(p), Vid(o))
    }

    fn schema() -> StreamSchema {
        StreamSchema {
            id: StreamId(0),
            name: "Tweet_Stream".into(),
            timing_predicates: [Pid(9)].into_iter().collect(),
            relevant_predicates: Some([Pid(4), Pid(9)].into_iter().collect()),
            batch_interval_ms: 100,
        }
    }

    /// The byte-wise FNV-1a over the logical 33-byte encoding that the
    /// word-wise `payload_checksum` replaced: the oracle for *what must
    /// be told apart*, not for the value.
    fn bytewise_checksum(tuples: &[StreamTuple]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut byte = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        };
        for t in tuples {
            for word in [t.triple.s.0, t.triple.p.0, t.triple.o.0, t.timestamp] {
                for b in word.to_le_bytes() {
                    byte(b);
                }
            }
            byte(if t.is_timeless() { 0 } else { 1 });
        }
        h
    }

    #[test]
    fn checksum_tells_apart_every_single_bit_flip_kind_flip_and_length_change() {
        let mut rng = proptest::TestRng::for_test("checksum_bit_flips");
        for _ in 0..20 {
            let n = rng.usize_in(1, 12);
            let tuples: Vec<StreamTuple> = (0..n)
                .map(|_| StreamTuple {
                    triple: Triple::new(
                        Vid(rng.next_u64()),
                        Pid(rng.next_u64()),
                        Vid(rng.next_u64()),
                    ),
                    timestamp: rng.next_u64(),
                    kind: if rng.chance(1, 2) {
                        TupleKind::Timing
                    } else {
                        TupleKind::Timeless
                    },
                })
                .collect();
            let sealed = payload_checksum(&tuples);
            let differs = |other: &[StreamTuple], what: &str| {
                assert_ne!(
                    bytewise_checksum(other),
                    bytewise_checksum(&tuples),
                    "{what}"
                );
                assert_ne!(payload_checksum(other), sealed, "{what}");
            };
            for i in 0..n {
                for field in 0..4 {
                    for bit in 0..64 {
                        let mut flipped = tuples.clone();
                        let t = &mut flipped[i];
                        *[
                            &mut t.triple.s.0,
                            &mut t.triple.p.0,
                            &mut t.triple.o.0,
                            &mut t.timestamp,
                        ][field] ^= 1 << bit;
                        differs(&flipped, &format!("tuple {i} field {field} bit {bit}"));
                    }
                }
                let mut flipped = tuples.clone();
                flipped[i].kind = match flipped[i].kind {
                    TupleKind::Timing => TupleKind::Timeless,
                    TupleKind::Timeless => TupleKind::Timing,
                };
                differs(&flipped, &format!("tuple {i} kind"));
            }
            differs(&tuples[..n - 1], "truncated");
            let mut extended = tuples.clone();
            extended.push(tuples[0]);
            differs(&extended, "extended");
        }
    }

    #[test]
    fn batches_by_interval() {
        let mut a = Adaptor::new(schema());
        assert!(a.push(t(1, 4, 2), 50).is_empty());
        assert!(a.push(t(1, 4, 3), 100).is_empty()); // boundary inclusive
        let sealed = a.push(t(1, 4, 4), 150);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].timestamp, 100);
        assert_eq!(sealed[0].tuples.len(), 2);
    }

    #[test]
    fn classifies_timing_vs_timeless() {
        let mut a = Adaptor::new(schema());
        a.push(t(1, 4, 2), 10);
        a.push(t(1, 9, 3), 20);
        let b = &a.advance_to(100)[0];
        assert_eq!(b.timeless().count(), 1);
        assert_eq!(b.timing().count(), 1);
    }

    #[test]
    fn discards_irrelevant_predicates() {
        let mut a = Adaptor::new(schema());
        a.push(t(1, 7, 2), 10); // predicate 7 not relevant
        a.push(t(1, 4, 2), 20);
        let b = &a.advance_to(100)[0];
        assert_eq!(b.tuples.len(), 1);
        assert_eq!(b.discarded, 1);
    }

    #[test]
    fn quiet_stream_emits_empty_batches() {
        let mut a = Adaptor::new(schema());
        let batches = a.advance_to(300);
        assert_eq!(batches.len(), 3);
        assert!(batches.iter().all(|b| b.tuples.is_empty()));
        assert_eq!(batches[2].timestamp, 300);
    }

    #[test]
    fn fast_forward_skips_without_emitting() {
        let mut a = Adaptor::new(schema());
        a.fast_forward(750);
        // Sealing resumes at the next boundary after 750.
        assert!(a.push(t(1, 4, 2), 790).is_empty());
        let sealed = a.advance_to(800);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].timestamp, 800);
        assert_eq!(sealed[0].tuples.len(), 1);
    }

    #[test]
    fn pieces_and_the_sealed_rest_partition_the_batch() {
        let mut a = Adaptor::new(schema());
        let mut pieces = Vec::new();
        for i in 0..8u64 {
            a.push(t(1, if i == 3 { 7 } else { 4 }, i), 10 + i);
            pieces.extend(a.take_piece(3));
        }
        // Six kept tuples make two pieces at the open batch's timestamp;
        // the discard and the seventh kept tuple stay for the seal.
        assert_eq!(pieces.len(), 2);
        assert!(pieces
            .iter()
            .all(|p| !p.last && p.timestamp == 100 && p.verify()));
        assert!(pieces
            .iter()
            .all(|p| p.tuples.len() == 3 && p.discarded == 0));
        let sealed = a.advance_to(100);
        assert_eq!(sealed.len(), 1);
        assert!(sealed[0].last);
        assert_eq!((sealed[0].tuples.len(), sealed[0].discarded), (1, 1));
        let objects: Vec<u64> = pieces
            .iter()
            .chain(&sealed)
            .flat_map(|b| b.tuples.iter().map(|t| t.triple.o.0))
            .collect();
        assert_eq!(objects, vec![0, 1, 2, 4, 5, 6, 7]);
        // Nothing handed out in the next interval: fast-forward is safe.
        a.fast_forward(150);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fast-forward would drop tuples")]
    fn fast_forward_over_a_handed_out_piece_is_refused() {
        let mut a = Adaptor::new(schema());
        a.push(t(1, 4, 2), 10);
        assert!(a.take_piece(1).is_some());
        a.fast_forward(150);
    }

    #[test]
    fn gap_in_tuples_seals_intermediate_batches() {
        let mut a = Adaptor::new(schema());
        a.push(t(1, 4, 2), 10);
        let sealed = a.push(t(1, 4, 3), 450);
        assert_eq!(sealed.len(), 4); // batches ending 100..400
        assert_eq!(sealed[0].tuples.len(), 1);
        assert!(sealed[1..].iter().all(|b| b.tuples.is_empty()));
        assert_eq!(a.take_clock_anomalies(), 0);
    }

    #[test]
    fn far_future_push_is_bounded_and_counted() {
        // A tuple far ahead of stream time (long-idle stream or a bad
        // clock) must not seal an unbounded run of empty batches — but it
        // must also keep its true timestamp. The dead range is coalesced
        // by jumping the batch clock; the sealed run is capped at
        // MAX_EMPTY_RUN and the anomaly is counted.
        let far = 1_000_000; // 10_000 intervals ahead, on-grid
        let mut a = Adaptor::new(schema());
        a.push(t(1, 4, 2), 10);
        let sealed = a.push(t(1, 4, 3), far);
        assert_eq!(sealed.len(), Adaptor::MAX_EMPTY_RUN);
        assert_eq!(sealed[0].tuples.len(), 1);
        assert!(sealed[1..].iter().all(|b| b.tuples.is_empty()));
        assert_eq!(a.take_clock_anomalies(), 1);
        assert_eq!(a.take_clock_anomalies(), 0, "drained");
        // The tuple lives — unre-stamped — in the batch covering `far`.
        let next = a.advance_to(far);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].timestamp, far);
        assert_eq!(next[0].tuples.len(), 1);
        assert_eq!(next[0].tuples[0].timestamp, far);
        // Stream time keeps flowing normally afterwards.
        assert!(a.push(t(1, 4, 4), far + 50).is_empty());
        // An absurd jump (overflow territory) stays bounded too.
        let huge = a.push(t(1, 4, 5), u64::MAX / 2);
        assert!(huge.len() <= Adaptor::MAX_EMPTY_RUN + 1);
        assert_eq!(a.take_clock_anomalies(), 1);
    }

    #[test]
    fn heartbeat_advance_is_bounded_per_call() {
        let mut a = Adaptor::new(schema());
        let far = 1_000_000; // 10_000 intervals ahead
        let first = a.advance_to(far);
        assert_eq!(first.len(), Adaptor::MAX_EMPTY_RUN);
        assert_eq!(first.last().expect("non-empty").timestamp, far);
        assert_eq!(a.take_clock_anomalies(), 1);
        // The stream caught up in that one bounded call: re-advancing to
        // the same point emits nothing and counts nothing.
        assert!(a.advance_to(far).is_empty());
        assert_eq!(a.take_clock_anomalies(), 0);
        // Normal heartbeat flow resumes on the preserved batch grid.
        let next = a.advance_to(far + 100);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].timestamp, far + 100);
    }
}
