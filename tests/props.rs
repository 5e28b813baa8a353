//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use wukong_core::checkpoint::{Checkpoint, LoggedBatch, LoggedQuery};
use wukong_rdf::{Dir, Key, Pid, StreamTuple, Triple, Vid};
use wukong_store::base::AppendReceipt;
use wukong_store::{
    gc, BaseStore, IndexBatch, SnapshotId, StreamIndex, TransientSlice, TransientStore,
};
use wukong_stream::{SnVtsPlanner, StalenessBound, Vts};

fn arb_triple() -> impl Strategy<Value = Triple> {
    (1..200u64, 1..8u64, 1..200u64).prop_map(|(s, p, o)| Triple::new(Vid(s), Pid(p), Vid(o)))
}

/// The committed regression file must be found from the integration-test
/// context (cwd is the package root, `file!()` is workspace-relative) and
/// parse to at least the replay smoke seed — otherwise persisted failure
/// seeds would silently stop replaying.
#[test]
fn regression_file_resolves_and_parses() {
    let path = proptest::regressions_path(file!(), env!("CARGO_MANIFEST_DIR"))
        .expect("tests/props.proptest-regressions must be discoverable");
    let seeds = proptest::parse_regressions(&std::fs::read_to_string(path).unwrap());
    assert!(!seeds.is_empty(), "smoke seed must parse");
}

/// One step of the stream-index property's schedule.
#[derive(Debug, Clone)]
enum IndexOp {
    /// A piece of stream `.0`'s open batch installs.
    Piece(usize, Vec<Triple>),
    /// Stream `.0`'s open batch seals; the next opens 10 ms later.
    Seal(usize),
    /// A catch-up batch installs whole, `.1` batches back in time.
    CatchUp(usize, u64, Vec<Triple>),
    /// GC sweeps stream `.0` up to `.1` batches back.
    Retire(usize, u64),
}

/// A handful of triples over few subjects and objects, so pieces keep
/// landing on shared keys.
fn arb_few_triples() -> impl Strategy<Value = Vec<Triple>> {
    let triple =
        (1..6u64, 1..3u64, 1..12u64).prop_map(|(s, p, o)| Triple::new(Vid(s), Pid(p), Vid(o)));
    proptest::collection::vec(triple, 1..6)
}

fn arb_piece() -> impl Strategy<Value = IndexOp> {
    (0..2usize, arb_few_triples()).prop_map(|(s, t)| IndexOp::Piece(s, t))
}

fn arb_index_op() -> impl Strategy<Value = IndexOp> {
    // Pieces four times as often as seals, seals twice as often as the
    // rest.
    prop_oneof![
        arb_piece(),
        arb_piece(),
        arb_piece(),
        arb_piece(),
        (0..2usize).prop_map(IndexOp::Seal),
        (0..2usize).prop_map(IndexOp::Seal),
        (0..2usize, 0..4u64, arb_few_triples()).prop_map(|(s, b, t)| IndexOp::CatchUp(s, b, t)),
        (0..2usize, 0..5u64).prop_map(|(s, b)| IndexOp::Retire(s, b)),
    ]
}

/// One append a stream's batch made, as the receipt log records it.
#[derive(Debug, Clone, Copy)]
struct Appended {
    key: Key,
    offset: u32,
    vid: Vid,
    ts: u64,
    /// The batch's position in the stream's seal order; `None` while the
    /// batch is open.
    batch: Option<u64>,
    retired: bool,
}

/// A stream's index (with its open batch) and the brute-force receipt
/// log.
struct IndexedStream {
    index: StreamIndex,
    ts: u64,
    batches: u64,
    log: Vec<Appended>,
}

impl IndexedStream {
    fn new() -> Self {
        IndexedStream {
            index: StreamIndex::new(),
            ts: 10,
            batches: 0,
            log: Vec::new(),
        }
    }

    /// Appends `triples` to `store`, logging each receipt under the open
    /// batch's timestamp, and returns the receipts.
    fn install(&mut self, store: &mut BaseStore, triples: &[Triple]) -> Vec<AppendReceipt> {
        let mut rc = Vec::new();
        for &t in triples {
            store.insert_at(t, SnapshotId(1), &mut rc);
        }
        for r in &rc {
            let vid = store.cell(r.key).expect("appended").range(r.offset, 1)[0];
            self.log.push(Appended {
                key: r.key,
                offset: r.offset,
                vid,
                ts: self.ts,
                batch: None,
                retired: false,
            });
        }
        rc
    }

    fn open_record(&mut self, ts: u64, r: AppendReceipt) {
        self.index.open(ts);
        self.index.record(r);
    }

    fn open_seal(&mut self) {
        self.index.seal();
    }

    /// Marks the open batch's log entries sealed, in seal order.
    fn seal_log(&mut self) {
        for e in self.log.iter_mut().filter(|e| e.batch.is_none()) {
            e.batch = Some(self.batches);
        }
        self.batches += 1;
    }

    /// The sealed, unretired appends in `[lo, hi]` matching `keep`, in
    /// window-read order: batch timestamp, then seal order, then offset.
    fn visible(&self, lo: u64, hi: u64, keep: impl Fn(&Appended) -> bool) -> Vec<Appended> {
        let mut out: Vec<Appended> = self
            .log
            .iter()
            .filter(|e| e.batch.is_some() && !e.retired && e.ts >= lo && e.ts <= hi && keep(e))
            .copied()
            .collect();
        out.sort_by_key(|e| (e.ts, e.batch, e.offset));
        out
    }

    fn check(&self, store: &BaseStore, lo: u64, hi: u64) {
        let keys: std::collections::BTreeSet<Key> = self.log.iter().map(|e| e.key).collect();
        for &key in &keys {
            let want = self.visible(lo, hi, |e| e.key == key);
            let mut got = Vec::new();
            self.index.neighbors_in(store, key, lo, hi, &mut got);
            assert_eq!(
                &got,
                &want.iter().map(|e| e.vid).collect::<Vec<_>>(),
                "{:?}",
                key
            );
            let mut timed = Vec::new();
            self.index
                .neighbors_timed_in(store, key, lo, hi, &mut timed);
            assert_eq!(
                timed,
                want.iter().map(|e| (e.vid, e.ts)).collect::<Vec<_>>()
            );
            assert_eq!(self.index.count_in(key, lo, hi), want.len());
            let mut expanded = Vec::new();
            for (ts, fp) in self.index.pointers_in(key, lo, hi) {
                expanded.extend((fp.start..fp.start + fp.len).map(|o| (ts, o)));
            }
            assert_eq!(
                expanded,
                want.iter().map(|e| (e.ts, e.offset)).collect::<Vec<_>>()
            );
        }
        // A window index-vertex scan visits a vertex once per in-window
        // batch that touched its key.
        for pid in 1..3u64 {
            for dir in [Dir::Out, Dir::In] {
                let mut want: Vec<(u64, Vid)> = self
                    .visible(lo, hi, |e| {
                        !e.key.is_index() && e.key.pid() == Pid(pid) && e.key.dir() == dir
                    })
                    .iter()
                    .map(|e| (e.batch.expect("sealed"), e.key.vid()))
                    .collect();
                want.sort();
                want.dedup();
                let mut want: Vec<Vid> = want.into_iter().map(|(_, v)| v).collect();
                let mut got = Vec::new();
                self.index.vertices_in(Pid(pid), dir, lo, hi, &mut got);
                got.sort();
                want.sort();
                assert_eq!(got, want, "vertices_in({}, {:?})", pid, dir);
            }
        }
    }
}

proptest! {
    /// Key packing is a bijection over its domain.
    #[test]
    fn key_roundtrip(vid in 0..=wukong_rdf::MAX_VID, pid in 0..=wukong_rdf::MAX_PID, dir in 0..2u8) {
        let d = if dir == 0 { Dir::In } else { Dir::Out };
        let k = Key::new(Vid(vid), Pid(pid), d);
        prop_assert_eq!(k.vid(), Vid(vid));
        prop_assert_eq!(k.pid(), Pid(pid));
        prop_assert_eq!(k.dir(), d);
        prop_assert_eq!(Key::from_raw(k.raw()), k);
    }

    /// Out-edges and in-edges always mirror each other, and index
    /// vertices stay duplicate-free, for any insertion sequence.
    #[test]
    fn store_out_in_symmetry(triples in proptest::collection::vec(arb_triple(), 1..200)) {
        let mut st = BaseStore::new();
        for &t in &triples {
            st.insert_base(t);
        }
        let sn = SnapshotId::BASE;
        for &t in &triples {
            // Every (s,p,o) insertion is visible from both sides with the
            // same multiplicity.
            let outs = st.neighbors_at(t.out_key(), sn);
            let ins = st.neighbors_at(t.in_key(), sn);
            let m_out = outs.iter().filter(|&&v| v == t.o).count();
            let m_in = ins.iter().filter(|&&v| v == t.s).count();
            prop_assert_eq!(m_out, m_in);
            prop_assert!(m_out >= 1);
            // The index vertices mention both endpoints exactly once.
            let idx_out = st.neighbors_at(Key::index(t.p, Dir::Out), sn);
            prop_assert_eq!(idx_out.iter().filter(|&&v| v == t.s).count(), 1);
            let idx_in = st.neighbors_at(Key::index(t.p, Dir::In), sn);
            prop_assert_eq!(idx_in.iter().filter(|&&v| v == t.o).count(), 1);
        }
    }

    /// Snapshot visibility is monotone and consolidation changes neither
    /// visibility at live snapshots nor logical offsets.
    #[test]
    fn snapshot_monotonicity_and_consolidation(
        batches in proptest::collection::vec(proptest::collection::vec(arb_triple(), 1..20), 1..8),
        consolidate_upto in 0..8u64,
    ) {
        let mut st = BaseStore::new();
        let mut rc = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            for &t in batch {
                st.insert_at(t, SnapshotId(i as u64 + 1), &mut rc);
            }
        }
        let last = SnapshotId(batches.len() as u64);
        // Record visibility at the final snapshot, per key length.
        let key = batches[0][0].out_key();
        let full_before = st.neighbors_at(key, last);
        let mut lens = Vec::new();
        for snv in 0..=batches.len() as u64 {
            lens.push(st.len_at(key, SnapshotId(snv)));
        }
        // Monotone in the snapshot number.
        for w in lens.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        st.consolidate(SnapshotId(consolidate_upto));
        // Everything at or above the consolidation point is unchanged.
        prop_assert_eq!(st.neighbors_at(key, last), full_before);
        for snv in consolidate_upto..=batches.len() as u64 {
            prop_assert_eq!(st.len_at(key, SnapshotId(snv)), lens[snv as usize]);
        }
    }

    /// Reading any fat-pointer range equals the matching slice of the
    /// full logical value, before and after consolidation.
    #[test]
    fn read_range_matches_logical_slice(
        n in 1..100u32,
        start in 0..100u32,
        len in 0..100u32,
        upto in 0..5u64,
    ) {
        let mut st = BaseStore::new();
        let mut rc = Vec::new();
        for i in 0..n {
            // Snapshots must be non-decreasing per key (the injector's
            // ordering guarantee).
            st.insert_at(
                Triple::new(Vid(1), Pid(2), Vid(i as u64 + 10)),
                SnapshotId((i as u64) / 20),
                &mut rc,
            );
        }
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        let full = st.neighbors_at(key, SnapshotId(5));
        let expect: Vec<Vid> = full
            .iter()
            .copied()
            .skip(start as usize)
            .take(len as usize)
            .collect();
        let mut got = Vec::new();
        st.read_range(key, start, len, &mut got);
        prop_assert_eq!(&got, &expect);
        st.consolidate(SnapshotId(upto));
        let mut got2 = Vec::new();
        st.read_range(key, start, len, &mut got2);
        prop_assert_eq!(&got2, &expect);
    }

    /// Two streams' indexes over one store, fed the way the engine feeds
    /// them: open batches that install in pieces interleaving on shared
    /// keys, catch-up batches pushed whole at old (even equal) timestamps,
    /// GC sweeps at random horizons, and a last batch left open. Every
    /// read agrees with a brute-force scan of the receipt log, and no
    /// open batch's append ever shows.
    #[test]
    fn stream_index_agrees_with_timestamp_scan(
        ops in proptest::collection::vec(arb_index_op(), 1..40),
        windows in proptest::collection::vec((0..120u64, 0..60u64), 1..4),
    ) {
        let mut store = BaseStore::new();
        let mut streams = [IndexedStream::new(), IndexedStream::new()];
        for op in ops {
            match op {
                IndexOp::Piece(s, triples) => {
                    let stream = &mut streams[s];
                    let ts = stream.ts;
                    for r in stream.install(&mut store, &triples) {
                        stream.open_record(ts, r);
                    }
                }
                IndexOp::Seal(s) => {
                    let stream = &mut streams[s];
                    stream.open_seal();
                    stream.seal_log();
                    stream.ts += 10;
                }
                IndexOp::CatchUp(s, back, triples) => {
                    let stream = &mut streams[s];
                    // Never at the open batch's timestamp: replays and
                    // pieces do not install side by side.
                    let open = stream.log.iter().any(|e| e.batch.is_none());
                    let back = if open { back.max(1) } else { back };
                    let ts = stream.ts.saturating_sub(10 * back);
                    let rc = stream.install(&mut store, &triples);
                    stream.index.push_batch(IndexBatch::from_receipts(ts, &rc));
                    for e in stream.log.iter_mut().rev().take(rc.len()) {
                        e.ts = ts;
                        e.batch = Some(stream.batches);
                    }
                    stream.batches += 1;
                }
                IndexOp::Retire(s, back) => {
                    let stream = &mut streams[s];
                    let horizon = stream.ts.saturating_sub(10 * back);
                    let mut ring = TransientStore::new(1 << 10);
                    gc::sweep(&mut ring, &mut stream.index, horizon);
                    for e in &mut stream.log {
                        if e.batch.is_some() && e.ts < horizon {
                            e.retired = true;
                        }
                    }
                }
            }
        }
        let windows = windows
            .into_iter()
            .map(|(lo, span)| (lo, lo + span))
            .chain([(0, u64::MAX)]);
        for (lo, hi) in windows {
            for stream in &streams {
                stream.check(&store, lo, hi);
            }
        }
    }
    /// The transient ring returns exactly the in-window timing tuples and
    /// never exceeds its memory budget by more than one slice.
    #[test]
    fn transient_window_and_budget(
        batches in proptest::collection::vec(proptest::collection::vec(arb_triple(), 0..10), 1..20),
        lo in 0..20u64,
        span in 0..10u64,
    ) {
        let mut store = TransientStore::new(1 << 16);
        let mut log: Vec<(Key, Vid, u64)> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let ts = (i as u64 + 1) * 10;
            let tuples: Vec<StreamTuple> = batch
                .iter()
                .map(|&t| StreamTuple::timing(t, ts))
                .collect();
            for t in &tuples {
                log.push((t.triple.out_key(), t.triple.o, ts));
            }
            store.push_batch(TransientSlice::from_batch(ts, &tuples));
        }
        let hi = (lo + span) * 10;
        let lo = lo * 10;
        let evicted = store.evicted_slices();
        for (key, _, _) in &log {
            let mut got = store.neighbors_in(*key, lo, hi);
            let mut expect: Vec<Vid> = log
                .iter()
                .filter(|(k, _, ts)| k == key && *ts >= lo && *ts <= hi
                        // Budget eviction may have dropped old slices.
                        && *ts > evicted * 10)
                .map(|(_, v, _)| *v)
                .collect();
            got.sort();
            expect.sort();
            prop_assert_eq!(got, expect);
        }
    }

    /// Stable VTS is the greatest lower bound of the nodes' local VTS.
    #[test]
    fn stable_vts_is_glb(
        entries in proptest::collection::vec(
            proptest::collection::vec(0..1_000u64, 3),
            1..8,
        )
    ) {
        let vts: Vec<Vts> = entries.iter().map(|e| Vts::from_entries(e.clone())).collect();
        let stable = Vts::stable(vts.iter());
        for v in &vts {
            prop_assert!(v.dominates(&stable));
        }
        for s in 0..3 {
            prop_assert!(vts.iter().any(|v| v.get(s) == stable.get(s)));
        }
    }

    /// Snapshot assignment respects plan order: later batches never get
    /// smaller snapshot numbers.
    #[test]
    fn snapshot_assignment_is_monotone(steps in proptest::collection::vec(0..3usize, 1..40)) {
        let mut planner = SnVtsPlanner::new(vec![10, 10, 10], StalenessBound(1));
        planner.announce_next(&Vts::new(3));
        let mut local = Vts::new(3);
        let mut last_sn = [SnapshotId(0); 3];
        for s in steps {
            let next = local.get(s) + 10;
            if let Some(sn) = planner.snapshot_for(s, next) {
                prop_assert!(sn >= last_sn[s]);
                last_sn[s] = sn;
                local.advance(s, next);
                planner.on_vts_update(std::slice::from_ref(&local));
            }
        }
    }

    /// The adaptor conserves tuples: every relevant tuple lands in
    /// exactly one batch, batches are time-ordered with timestamps at
    /// interval boundaries, and heartbeats lose nothing.
    #[test]
    fn adaptor_conserves_tuples(
        deltas in proptest::collection::vec(0..40u64, 1..120),
        interval in 1..5u64,
    ) {
        use wukong_stream::{Adaptor, StreamSchema};
        let interval = interval * 50;
        let schema = StreamSchema::timeless(wukong_rdf::StreamId(0), "S", interval);
        let mut adaptor = Adaptor::new(schema);
        let mut ts = 0u64;
        let mut batches = Vec::new();
        let mut fed = 0usize;
        for (i, d) in deltas.iter().enumerate() {
            ts += d;
            let t = Triple::new(Vid(i as u64 + 1), Pid(1), Vid(1));
            batches.extend(adaptor.push(t, ts));
            fed += 1;
        }
        batches.extend(adaptor.advance_to(ts + interval));

        let collected: usize = batches.iter().map(|b| b.tuples.len()).sum();
        prop_assert_eq!(collected, fed, "tuples lost or duplicated");
        // Batch timestamps are strictly increasing interval multiples.
        for w in batches.windows(2) {
            prop_assert!(w[0].timestamp < w[1].timestamp);
        }
        for b in &batches {
            prop_assert_eq!(b.timestamp % interval, 0);
            // Every tuple's (clamped) timestamp is within its batch.
            for t in &b.tuples {
                prop_assert!(t.timestamp <= b.timestamp);
            }
        }
    }

    /// The parser never panics: arbitrary input produces Ok or Err.
    #[test]
    fn parser_total_on_arbitrary_input(input in ".{0,200}") {
        let ss = wukong_rdf::StringServer::new();
        let _ = wukong_query::parse_query(&ss, &input);
    }

    /// The parser never panics on query-shaped token soup either.
    #[test]
    fn parser_total_on_query_like_input(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("SELECT".to_string()),
                Just("WHERE".to_string()),
                Just("FROM".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("?x".to_string()),
                Just("?y".to_string()),
                Just("po".to_string()),
                Just("Logan".to_string()),
                Just("OPTIONAL".to_string()),
                Just("UNION".to_string()),
                Just("FILTER".to_string()),
                Just("NOT".to_string()),
                Just("EXISTS".to_string()),
                Just("GROUP".to_string()),
                Just("BY".to_string()),
                Just("ORDER".to_string()),
                Just("LIMIT".to_string()),
                Just("CONSTRUCT".to_string()),
                Just("GRAPH".to_string()),
                Just("[RANGE 1s STEP 1s]".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(".".to_string()),
                Just("5".to_string()),
                Just(">".to_string()),
            ],
            0..25,
        )
    ) {
        let ss = wukong_rdf::StringServer::new();
        let _ = wukong_query::parse_query(&ss, &tokens.join(" "));
    }

    /// Checkpoint encode/decode is the identity.
    #[test]
    fn checkpoint_roundtrip(
        vts in proptest::collection::vec(proptest::collection::vec(0..10_000u64, 3), 1..5),
        queries in proptest::collection::vec(
            ("[a-zA-Z ?{}.]{0,60}", proptest::option::of(0..100u16)),
            0..4,
        ),
        batches in proptest::collection::vec((0..5u16, 0..10_000u64, proptest::collection::vec(arb_triple(), 0..10)), 0..10),
    ) {
        let cp = Checkpoint {
            local_vts: vts,
            queries: queries
                .into_iter()
                .map(|(text, construct_target)| LoggedQuery {
                    text,
                    construct_target,
                })
                .collect(),
            batches: batches
                .into_iter()
                .map(|(stream, timestamp, ts)| LoggedBatch {
                    stream,
                    timestamp,
                    tuples: ts.into_iter().map(|t| StreamTuple::timeless(t, timestamp)).collect(),
                })
                .collect(),
        };
        prop_assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
    }
}
