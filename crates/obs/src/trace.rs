//! Causal per-firing tracing: the engine's always-on flight recorder.
//!
//! Aggregate histograms ([`crate::registry`]) answer "how slow are
//! firings on average?"; they cannot answer "why was *that* firing
//! slow?". This module adds the black box (DESIGN.md §14):
//!
//! * **Causal IDs.** A [`BatchId`] is minted when the adaptor seals a
//!   batch and is a pure function of `(stream, batch timestamp)`, so the
//!   same logical batch carries the same identity through dispatch,
//!   injection, store install, shed logs, and recovery replay. A
//!   [`FiringId`] is minted serially when `fire_ready` assembles a window
//!   firing; its [`FiringMeta`] records the query class, per-stream
//!   window `[lo, hi]`, the assigned snapshot, and the set of `BatchId`s
//!   the window consumed — the firing's full lineage.
//! * **Flight recorder.** [`TraceRecorder`] keeps a fixed-capacity ring
//!   buffer of compact binary [`TraceEvent`]s per thread. Recording an
//!   event never allocates (each thread's ring is preallocated on first
//!   touch) and a single relaxed atomic load gates the whole thing off
//!   when tracing is disabled. Events carry a global sequence number;
//!   [`TraceRecorder::merged_events`] drains every ring into one causally
//!   ordered timeline. A firing's lineage ([`TraceRecorder::mint_firing`])
//!   is two allocations (its windows and its batch grid; the class name
//!   is shared) into a FIFO ring of [`TraceRecorder::FIRING_CAP`] entries
//!   — O(1) however many firings came before.
//! * **Anomaly dumps.** [`TraceRecorder::anomaly`] marks an anomalous
//!   event (shed, re-plan, quarantine, checksum failure, deadline miss),
//!   freezes the recorder, and emits a `trace_dump` [`Json`] containing
//!   the trigger plus every span/marker causally linked to its firing or
//!   batches. A failing chaos cell therefore ships its own reproducer
//!   context.
//!
//! The recorder is engine-global (one per [`crate::Registry`]) and
//! deliberately decoupled from the histogram path: histograms stay
//! authoritative for latency numbers, the recorder is authoritative for
//! causal order.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::json::Json;
use crate::stage::Stage;

/// Causal identity of one sealed ingest batch.
///
/// Minted at adaptor seal time as a pure function of the stream and the
/// batch's (grid-aligned, strictly positive) timestamp, so the identity
/// survives checkpoint/log recovery replay: replaying a logged batch
/// yields the *same* `BatchId`, which is what makes shed logs, recovery
/// reports, and trace dumps joinable. Packed into a non-zero `u64`
/// (`0` is reserved for [`BatchId::NONE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BatchId(u64);

impl BatchId {
    /// "No batch": the identity carried by events outside any batch.
    pub const NONE: BatchId = BatchId(0);

    /// Mints the identity of the batch sealed on `stream` at `ts`.
    pub fn mint(stream: u16, ts: u64) -> BatchId {
        // Batch timestamps are interval ends on the adaptor's grid and
        // therefore > 0 and far below 2^48; the +1 on the stream keeps
        // the packed value non-zero even for (0, 0).
        BatchId(((stream as u64 + 1) << 48) | (ts & 0x0000_FFFF_FFFF_FFFF))
    }

    /// Whether this is [`BatchId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The stream the batch belongs to.
    pub fn stream(self) -> u16 {
        ((self.0 >> 48).saturating_sub(1)) as u16
    }

    /// The batch's seal timestamp (the window-grid interval end).
    pub fn timestamp(self) -> u64 {
        self.0 & 0x0000_FFFF_FFFF_FFFF
    }

    /// The packed representation carried inside [`TraceEvent`]s.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an identity from its packed representation.
    pub fn from_raw(raw: u64) -> BatchId {
        BatchId(raw)
    }

    /// Stable human/JSON label, e.g. `s0@1200` (`-` for NONE).
    pub fn label(self) -> String {
        if self.is_none() {
            "-".to_string()
        } else {
            format!("s{}@{}", self.stream(), self.timestamp())
        }
    }

    /// Parses a [`BatchId::label`] back into an identity.
    pub fn parse_label(s: &str) -> Option<BatchId> {
        if s == "-" {
            return Some(BatchId::NONE);
        }
        let rest = s.strip_prefix('s')?;
        let (stream, ts) = rest.split_once('@')?;
        Some(BatchId::mint(stream.parse().ok()?, ts.parse().ok()?))
    }
}

/// Causal identity of one window firing, minted serially by
/// [`TraceRecorder::mint_firing`]. `0` is reserved for "no firing".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FiringId(pub u64);

impl FiringId {
    /// "No firing": the identity carried by batch-path events.
    pub const NONE: FiringId = FiringId(0);

    /// Whether this is [`FiringId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Lineage of one firing: everything needed to reconstruct *what* the
/// firing read without re-running it.
#[derive(Debug, Clone, PartialEq)]
pub struct FiringMeta {
    /// The firing's identity.
    pub id: FiringId,
    /// Query class (the registered query's name), shared with the
    /// registration: a firing clones a reference, not the name.
    pub query: Arc<str>,
    /// Per-stream window `(stream, lo, hi)` the firing evaluated.
    pub windows: Vec<(u16, u64, u64)>,
    /// The SN-VTS snapshot the firing was assigned.
    pub snapshot: u64,
    /// The batches whose tuples the window consumed (capped at
    /// [`TraceRecorder::LINEAGE_CAP`]; see `lineage_truncated`).
    pub batches: Vec<BatchId>,
    /// Whether `batches` was truncated at the cap.
    pub lineage_truncated: bool,
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A stage began (`code` is [`Stage::index`]).
    Enter,
    /// A stage finished (`code` is [`Stage::index`], `arg` is elapsed ns).
    Exit,
    /// A point event (`code` is a [`Marker`] code).
    Marker,
}

impl EventKind {
    fn code(self) -> u8 {
        match self {
            EventKind::Enter => 0,
            EventKind::Exit => 1,
            EventKind::Marker => 2,
        }
    }

    fn from_code(c: u8) -> Option<EventKind> {
        match c {
            0 => Some(EventKind::Enter),
            1 => Some(EventKind::Exit),
            2 => Some(EventKind::Marker),
            _ => None,
        }
    }

    /// Stable snake_case name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Marker => "marker",
        }
    }
}

/// Point events the engine marks on the timeline. The first five are
/// *anomalies* (they trigger a dump); `Hold` is informational (a firing
/// waiting on an unretired snapshot is normal back-pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Marker {
    /// The overload manager shed tuples from a batch (`arg` = tuples).
    Shed,
    /// The adaptive drift detector re-planned a query (`arg` = plan ns).
    Replan,
    /// A shard failed install-site verification and was quarantined
    /// (`arg` = node).
    Quarantine,
    /// A firing held because its assigned snapshot is unretired
    /// (`arg` = assigned snapshot).
    Hold,
    /// A batch or sub-batch failed checksum verification (`arg` = node,
    /// or `u64::MAX` at the batch site).
    ChecksumFail,
    /// A firing exceeded the latency budget and degraded (`arg` =
    /// modeled latency in µs).
    DeadlineMiss,
}

impl Marker {
    /// Every marker, in code order.
    pub const ALL: [Marker; 6] = [
        Marker::Shed,
        Marker::Replan,
        Marker::Quarantine,
        Marker::Hold,
        Marker::ChecksumFail,
        Marker::DeadlineMiss,
    ];

    fn code(self) -> u8 {
        Marker::ALL.iter().position(|m| *m == self).unwrap() as u8
    }

    fn from_code(c: u8) -> Option<Marker> {
        Marker::ALL.get(c as usize).copied()
    }

    /// Stable snake_case name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            Marker::Shed => "shed",
            Marker::Replan => "replan",
            Marker::Quarantine => "quarantine",
            Marker::Hold => "hold",
            Marker::ChecksumFail => "checksum_fail",
            Marker::DeadlineMiss => "deadline_miss",
        }
    }

    /// Parses a [`Marker::name`].
    pub fn parse(s: &str) -> Option<Marker> {
        Marker::ALL.iter().copied().find(|m| m.name() == s)
    }
}

/// One compact span/marker event: 40 bytes, fixed layout, no heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Global causal sequence number (one atomic counter per recorder).
    pub seq: u64,
    /// Enter/Exit/Marker discriminant code.
    pub kind: u8,
    /// [`Stage::index`] for Enter/Exit, [`Marker`] code for Marker.
    pub code: u8,
    /// The firing the event belongs to ([`FiringId::NONE`] on the
    /// batch path).
    pub firing: FiringId,
    /// The batch the event belongs to ([`BatchId::NONE`] on the
    /// query path).
    pub batch: BatchId,
    /// Kind-specific payload (Exit: elapsed ns; markers: see [`Marker`]).
    pub arg: u64,
}

impl TraceEvent {
    /// The decoded event kind.
    pub fn event_kind(&self) -> Option<EventKind> {
        EventKind::from_code(self.kind)
    }

    /// The decoded stage, for Enter/Exit events.
    pub fn stage(&self) -> Option<Stage> {
        match self.event_kind()? {
            EventKind::Enter | EventKind::Exit => Stage::from_index(self.code),
            EventKind::Marker => None,
        }
    }

    /// The decoded marker, for Marker events.
    pub fn marker(&self) -> Option<Marker> {
        match self.event_kind()? {
            EventKind::Marker => Marker::from_code(self.code),
            _ => None,
        }
    }

    /// The event's JSON form inside a `trace_dump`.
    pub fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.set("seq", Json::Num(self.seq as f64));
        match self.event_kind() {
            Some(EventKind::Marker) => {
                j.set("kind", Json::Str("marker".into()));
                j.set(
                    "marker",
                    Json::Str(self.marker().map_or("?", Marker::name).to_string()),
                );
            }
            Some(k) => {
                j.set("kind", Json::Str(k.name().into()));
                j.set(
                    "stage",
                    Json::Str(self.stage().map_or("?", Stage::name).to_string()),
                );
            }
            None => {
                j.set("kind", Json::Str("?".into()));
            }
        }
        j.set("firing", Json::Num(self.firing.0 as f64));
        j.set("batch", Json::Str(self.batch.label()));
        j.set("arg", Json::Num(self.arg as f64));
        j
    }

    /// Rebuilds an event from its [`TraceEvent::to_json`] form.
    pub fn from_json(j: &Json) -> Option<TraceEvent> {
        let seq = j.get("seq")?.as_u64()?;
        let kind_s = j.get("kind")?.as_str()?;
        let (kind, code) = match kind_s {
            "marker" => (
                EventKind::Marker.code(),
                Marker::parse(j.get("marker")?.as_str()?)?.code(),
            ),
            "enter" | "exit" => {
                let stage_name = j.get("stage")?.as_str()?;
                let stage = Stage::ALL
                    .iter()
                    .copied()
                    .find(|s| s.name() == stage_name)?;
                let k = if kind_s == "enter" {
                    EventKind::Enter
                } else {
                    EventKind::Exit
                };
                (k.code(), stage.index())
            }
            _ => return None,
        };
        Some(TraceEvent {
            seq,
            kind,
            code,
            firing: FiringId(j.get("firing")?.as_u64()?),
            batch: BatchId::parse_label(j.get("batch")?.as_str()?)?,
            arg: j.get("arg")?.as_u64()?,
        })
    }
}

/// One thread's fixed-capacity event ring plus its enter/exit depth.
struct Ring {
    buf: Mutex<RingBuf>,
    /// Span-guard nesting depth on this thread; must return to 0 after
    /// every firing (the satellite's accounting assertion).
    depth: AtomicI64,
}

struct RingBuf {
    events: Vec<TraceEvent>,
    /// Index of the next write (the ring wraps here once full).
    next: usize,
    /// Total events ever written (≥ `events.len()`).
    written: u64,
    capacity: usize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: Mutex::new(RingBuf {
                events: Vec::with_capacity(capacity),
                next: 0,
                written: 0,
                capacity,
            }),
            depth: AtomicI64::new(0),
        }
    }

    fn push(&self, e: TraceEvent) {
        let mut b = self.buf.lock();
        if b.events.len() < b.capacity {
            b.events.push(e);
        } else {
            // Full: overwrite the oldest slot (capacity was preallocated,
            // so no allocation happens here).
            let i = b.next;
            b.events[i] = e;
        }
        b.next = (b.next + 1) % b.capacity;
        b.written += 1;
    }

    /// Events this ring has overwritten, from its own counters.
    fn evicted(&self) -> u64 {
        self.buf.lock().evicted()
    }

    fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let b = self.buf.lock();
        (b.events.clone(), b.evicted())
    }
}

impl RingBuf {
    fn evicted(&self) -> u64 {
        self.written.saturating_sub(self.events.len() as u64)
    }
}

thread_local! {
    /// Per-thread cache of `(recorder id, ring)` registrations — each
    /// thread touches a handful of recorders at most, so a linear scan
    /// beats hashing.
    static THREAD_RINGS: RefCell<Vec<(u64, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };

    /// The scoped recorder stack installed by [`with_recorder`]; lets
    /// lower layers (the query executor's fork-join paths) emit spans
    /// without threading a recorder through every signature.
    static CURRENT: RefCell<Vec<(Arc<TraceRecorder>, FiringId, u64)>> =
        const { RefCell::new(Vec::new()) };
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// Counter snapshot of the recorder, for bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Whether recording was enabled at snapshot time.
    pub enabled: bool,
    /// Events ever emitted (across all thread rings, including evicted).
    pub events: u64,
    /// Events evicted by ring wraparound.
    pub evicted: u64,
    /// Firings minted.
    pub firings: u64,
    /// Anomaly dumps captured (still held).
    pub dumps: u64,
    /// Anomaly dumps suppressed once the dump cap filled.
    pub dumps_suppressed: u64,
}

impl TraceSnapshot {
    /// `(name, value)` pairs for JSON reports, in stable order.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("enabled", self.enabled as u64),
            ("events", self.events),
            ("evicted", self.evicted),
            ("firings", self.firings),
            ("dumps", self.dumps),
            ("dumps_suppressed", self.dumps_suppressed),
        ]
    }
}

/// The engine's flight recorder. One lives in every [`crate::Registry`].
pub struct TraceRecorder {
    id: u64,
    enabled: AtomicBool,
    frozen: AtomicBool,
    seq: AtomicU64,
    next_firing: AtomicU64,
    ring_capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Retained lineage, oldest first, IDs strictly increasing (and
    /// consecutive unless recording was switched off in between).
    firings: Mutex<VecDeque<FiringMeta>>,
    dumps: Mutex<Vec<Json>>,
    dumps_suppressed: AtomicU64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::with_capacity(Self::DEFAULT_RING_CAPACITY)
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("TraceRecorder")
            .field("enabled", &s.enabled)
            .field("events", &s.events)
            .field("dumps", &s.dumps)
            .finish()
    }
}

impl TraceRecorder {
    /// Default per-thread ring capacity, in events.
    pub const DEFAULT_RING_CAPACITY: usize = 4096;
    /// Max `BatchId`s recorded per firing before lineage truncates.
    pub const LINEAGE_CAP: usize = 1024;
    /// Max firing metas retained (older lineage ages out first).
    pub const FIRING_CAP: usize = 4096;
    /// Max anomaly dumps held before further anomalies only count.
    pub const DUMP_CAP: usize = 16;

    /// A recorder with the given per-thread ring capacity (≥ 1).
    /// Recording starts enabled — the flight recorder is always-on
    /// unless the engine's config (`EngineConfig::trace`) turns it off.
    pub fn with_capacity(ring_capacity: usize) -> TraceRecorder {
        TraceRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(true),
            frozen: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            next_firing: AtomicU64::new(1),
            ring_capacity: ring_capacity.max(1),
            rings: Mutex::new(Vec::new()),
            firings: Mutex::new(VecDeque::new()),
            dumps: Mutex::new(Vec::new()),
            dumps_suppressed: AtomicU64::new(0),
        }
    }

    /// Turns recording on/off (the `EngineConfig::trace` gate).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn recording(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) && !self.frozen.load(Ordering::Relaxed)
    }

    fn thread_ring(&self) -> Arc<Ring> {
        THREAD_RINGS.with(|cell| {
            let mut v = cell.borrow_mut();
            if let Some((_, ring)) = v.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(ring);
            }
            let ring = Arc::new(Ring::new(self.ring_capacity));
            self.rings.lock().push(Arc::clone(&ring));
            v.push((self.id, Arc::clone(&ring)));
            ring
        })
    }

    fn emit(&self, kind: EventKind, code: u8, firing: FiringId, batch: BatchId, arg: u64) {
        if !self.recording() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.thread_ring().push(TraceEvent {
            seq,
            kind: kind.code(),
            code,
            firing,
            batch,
            arg,
        });
    }

    /// Mints the next [`FiringId`] and records its lineage. Call from
    /// the serial firing path so IDs are deterministic per run.
    ///
    /// Costs the same whatever came before: the lineage ring evicts its
    /// oldest entry in O(1) once [`Self::FIRING_CAP`] metas are held.
    pub fn mint_firing(
        &self,
        query: impl Into<Arc<str>>,
        windows: Vec<(u16, u64, u64)>,
        snapshot: u64,
        mut batches: Vec<BatchId>,
    ) -> FiringId {
        let id = FiringId(self.next_firing.fetch_add(1, Ordering::Relaxed));
        if !self.is_enabled() {
            return id;
        }
        let lineage_truncated = batches.len() > Self::LINEAGE_CAP;
        batches.truncate(Self::LINEAGE_CAP);
        let mut metas = self.firings.lock();
        if metas.len() >= Self::FIRING_CAP {
            metas.pop_front();
        }
        metas.push_back(FiringMeta {
            id,
            query: query.into(),
            windows,
            snapshot,
            batches,
            lineage_truncated,
        });
        id
    }

    /// The recorded lineage of `firing`, if still retained.
    ///
    /// IDs are minted serially, so the entry sits at its ID's offset from
    /// the oldest retained one; only a recorder that was switched off in
    /// between has gaps, and then the (still sorted) ring is bisected.
    pub fn firing_meta(&self, firing: FiringId) -> Option<FiringMeta> {
        let metas = self.firings.lock();
        let offset = firing.0.checked_sub(metas.front()?.id.0)?;
        let direct = usize::try_from(offset).ok().and_then(|i| metas.get(i));
        match direct {
            Some(m) if m.id == firing => Some(m.clone()),
            _ => {
                let i = metas.binary_search_by_key(&firing, |m| m.id).ok()?;
                metas.get(i).cloned()
            }
        }
    }

    /// Opens an RAII stage span: Enter now, Exit (with elapsed ns) when
    /// the guard drops — so early returns and error paths still close
    /// the span (the satellite's accounting fix).
    pub fn span(self: &Arc<Self>, stage: Stage, firing: FiringId, batch: BatchId) -> SpanGuard {
        if !self.recording() {
            return SpanGuard { inner: None };
        }
        self.emit(EventKind::Enter, stage.index(), firing, batch, 0);
        let ring = self.thread_ring();
        ring.depth.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            inner: Some(SpanInner {
                rec: Arc::clone(self),
                ring,
                stage,
                firing,
                batch,
                start: Instant::now(),
            }),
        }
    }

    /// Marks a non-anomalous point event (e.g. [`Marker::Hold`]).
    pub fn marker(&self, marker: Marker, firing: FiringId, batch: BatchId, arg: u64) {
        self.emit(EventKind::Marker, marker.code(), firing, batch, arg);
    }

    /// Marks an anomalous point event, freezes the recorder, and
    /// captures a `trace_dump` of the trigger's causal neighborhood.
    pub fn anomaly(&self, marker: Marker, firing: FiringId, batch: BatchId, arg: u64) {
        self.emit(EventKind::Marker, marker.code(), firing, batch, arg);
        if !self.is_enabled() {
            return;
        }
        {
            let dumps = self.dumps.lock();
            if dumps.len() >= Self::DUMP_CAP {
                drop(dumps);
                self.dumps_suppressed.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Freeze recording while the dump snapshots the rings, so the
        // captured timeline is a consistent cut.
        self.frozen.store(true, Ordering::Relaxed);
        let dump = self.build_dump(marker, firing, batch, arg);
        self.frozen.store(false, Ordering::Relaxed);
        let mut dumps = self.dumps.lock();
        if dumps.len() < Self::DUMP_CAP {
            dumps.push(dump);
        } else {
            self.dumps_suppressed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn build_dump(&self, marker: Marker, firing: FiringId, batch: BatchId, arg: u64) -> Json {
        let (events, evicted) = self.merged_with_evicted();
        // The causal closure: the trigger's firing, that firing's
        // consumed batches, plus the trigger's own batch.
        let meta = if firing.is_none() {
            None
        } else {
            self.firing_meta(firing)
        };
        let mut linked_batches: BTreeSet<BatchId> = BTreeSet::new();
        if !batch.is_none() {
            linked_batches.insert(batch);
        }
        if let Some(m) = &meta {
            linked_batches.extend(m.batches.iter().copied());
        }
        let linked = |e: &TraceEvent| {
            (!firing.is_none() && e.firing == firing)
                || (!e.batch.is_none() && linked_batches.contains(&e.batch))
        };
        let causal: Vec<&TraceEvent> = events.iter().filter(|e| linked(e)).collect();

        let mut trigger = Json::object();
        trigger.set("marker", Json::Str(marker.name().into()));
        trigger.set("firing", Json::Num(firing.0 as f64));
        trigger.set("batch", Json::Str(batch.label()));
        trigger.set("arg", Json::Num(arg as f64));

        let mut dump = Json::object();
        dump.set("kind", Json::Str("trace_dump".into()));
        // Matches wukong-bench's `JSON_SCHEMA_VERSION` (the dump is part
        // of the same report family); the bench golden test pins the two
        // together, so bump both or neither.
        dump.set("schema_version", Json::Num(9.0));
        dump.set("trigger", trigger);
        if let Some(m) = &meta {
            dump.set("firing", firing_meta_json(m));
        }
        dump.set(
            "linked_batches",
            Json::Arr(
                linked_batches
                    .iter()
                    .map(|b| Json::Str(b.label()))
                    .collect(),
            ),
        );
        dump.set(
            "events",
            Json::Arr(causal.iter().map(|e| e.to_json()).collect()),
        );
        dump.set("evicted", Json::Num(evicted as f64));
        dump
    }

    /// All retained events across every thread ring, merged into causal
    /// (sequence-number) order.
    pub fn merged_events(&self) -> Vec<TraceEvent> {
        self.merged_with_evicted().0
    }

    fn merged_with_evicted(&self) -> (Vec<TraceEvent>, u64) {
        let rings: Vec<Arc<Ring>> = self.rings.lock().clone();
        let mut all = Vec::new();
        let mut evicted = 0u64;
        for ring in rings {
            let (events, ev) = ring.snapshot();
            all.extend(events);
            evicted += ev;
        }
        all.sort_by_key(|e| e.seq);
        (all, evicted)
    }

    /// The captured anomaly dumps, oldest first.
    pub fn dumps(&self) -> Vec<Json> {
        self.dumps.lock().clone()
    }

    /// Counter snapshot for bench reports.
    pub fn snapshot(&self) -> TraceSnapshot {
        let evicted = self.rings.lock().iter().map(|r| r.evicted()).sum();
        TraceSnapshot {
            enabled: self.is_enabled(),
            events: self.seq.load(Ordering::Relaxed),
            evicted,
            firings: self.next_firing.load(Ordering::Relaxed) - 1,
            dumps: self.dumps.lock().len() as u64,
            dumps_suppressed: self.dumps_suppressed.load(Ordering::Relaxed),
        }
    }

    /// The calling thread's current span nesting depth (for the
    /// per-firing depth-returns-to-zero assertion).
    pub(crate) fn thread_depth(&self) -> i64 {
        if !self.is_enabled() {
            return 0;
        }
        self.thread_ring().depth.load(Ordering::Relaxed)
    }

    /// Debug assertion that every span opened on this thread has closed.
    /// Call at the end of each firing.
    pub fn debug_assert_depth_zero(&self, context: &str) {
        if cfg!(debug_assertions) {
            let d = self.thread_depth();
            debug_assert_eq!(d, 0, "unbalanced stage spans after {context}: depth {d}");
        }
    }
}

/// The JSON form of a firing's lineage inside a `trace_dump`.
pub fn firing_meta_json(m: &FiringMeta) -> Json {
    let mut j = Json::object();
    j.set("id", Json::Num(m.id.0 as f64));
    j.set("query", Json::Str(m.query.to_string()));
    j.set("snapshot", Json::Num(m.snapshot as f64));
    j.set(
        "windows",
        Json::Arr(
            m.windows
                .iter()
                .map(|(s, lo, hi)| {
                    let mut w = Json::object();
                    w.set("stream", Json::Num(*s as f64));
                    w.set("lo", Json::Num(*lo as f64));
                    w.set("hi", Json::Num(*hi as f64));
                    w
                })
                .collect(),
        ),
    );
    j.set(
        "batches",
        Json::Arr(m.batches.iter().map(|b| Json::Str(b.label())).collect()),
    );
    j.set("lineage_truncated", Json::Bool(m.lineage_truncated));
    j
}

struct SpanInner {
    rec: Arc<TraceRecorder>,
    ring: Arc<Ring>,
    stage: Stage,
    firing: FiringId,
    batch: BatchId,
    start: Instant,
}

/// RAII stage span: emits Exit (with elapsed wall ns) on drop, so every
/// Enter has a matching Exit even on early-return/error paths.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            s.ring.depth.fetch_sub(1, Ordering::Relaxed);
            let ns = s.start.elapsed().as_nanos() as u64;
            s.rec
                .emit(EventKind::Exit, s.stage.index(), s.firing, s.batch, ns);
        }
    }
}

/// Installs `rec` as the calling thread's scoped recorder for the
/// duration of `f`, attributing [`scoped_span`]s to `firing`/`batch`.
/// Used by the engine around executor calls so the query crate can emit
/// spans without signature changes.
pub fn with_recorder<R>(
    rec: &Arc<TraceRecorder>,
    firing: FiringId,
    batch: BatchId,
    f: impl FnOnce() -> R,
) -> R {
    CURRENT.with(|c| c.borrow_mut().push((Arc::clone(rec), firing, batch.raw())));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// Opens a stage span against the thread's scoped recorder (a no-op
/// guard when none is installed — e.g. outside the engine).
pub fn scoped_span(stage: Stage) -> SpanGuard {
    CURRENT.with(|c| {
        let cur = c.borrow();
        match cur.last() {
            Some((rec, firing, batch)) => rec.span(stage, *firing, BatchId::from_raw(*batch)),
            None => SpanGuard { inner: None },
        }
    })
}

/// The calling thread's scoped recorder context, if any — `(recorder,
/// firing, batch)`. Fork-join code captures this before fanning work out
/// to pool workers (which have their own thread-locals) and re-installs
/// it inside each task closure via [`install_recorder`].
pub fn current() -> Option<(Arc<TraceRecorder>, FiringId, BatchId)> {
    CURRENT.with(|c| {
        c.borrow()
            .last()
            .map(|(rec, firing, batch)| (Arc::clone(rec), *firing, BatchId::from_raw(*batch)))
    })
}

/// RAII form of [`with_recorder`]: pushes the context now, pops it when
/// the returned guard drops. Used inside pool-task closures where a
/// wrapping closure is awkward.
pub fn install_recorder(
    rec: &Arc<TraceRecorder>,
    firing: FiringId,
    batch: BatchId,
) -> RecorderScope {
    CURRENT.with(|c| c.borrow_mut().push((Arc::clone(rec), firing, batch.raw())));
    RecorderScope { _priv: () }
}

/// Guard returned by [`install_recorder`]; pops the thread's scoped
/// recorder context on drop.
pub struct RecorderScope {
    _priv: (),
}

impl Drop for RecorderScope {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Marks a point event against the thread's scoped recorder (no-op when
/// none is installed).
pub fn scoped_marker(marker: Marker, arg: u64) {
    CURRENT.with(|c| {
        let cur = c.borrow();
        if let Some((rec, firing, batch)) = cur.last() {
            rec.marker(marker, *firing, BatchId::from_raw(*batch), arg);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_id_packs_and_labels() {
        let b = BatchId::mint(3, 1200);
        assert!(!b.is_none());
        assert_eq!(b.stream(), 3);
        assert_eq!(b.timestamp(), 1200);
        assert_eq!(b.label(), "s3@1200");
        assert_eq!(BatchId::parse_label("s3@1200"), Some(b));
        assert_eq!(BatchId::parse_label("-"), Some(BatchId::NONE));
        assert_eq!(BatchId::from_raw(b.raw()), b);
        // (0, 0) must still be distinguishable from NONE.
        assert!(!BatchId::mint(0, 0).is_none());
        assert!(BatchId::NONE.is_none());
    }

    #[test]
    fn batch_ids_are_replay_stable() {
        // The same logical batch mints the same identity on replay.
        assert_eq!(BatchId::mint(1, 500), BatchId::mint(1, 500));
        assert_ne!(BatchId::mint(1, 500), BatchId::mint(2, 500));
        assert_ne!(BatchId::mint(1, 500), BatchId::mint(1, 600));
    }

    #[test]
    fn spans_balance_and_merge_in_seq_order() {
        let rec = Arc::new(TraceRecorder::default());
        let fid = rec.mint_firing("q1", vec![(0, 0, 100)], 1, vec![BatchId::mint(0, 100)]);
        {
            let _outer = rec.span(Stage::PatternMatch, fid, BatchId::NONE);
            let _inner = rec.span(Stage::ForkJoinFanout, fid, BatchId::NONE);
            assert_eq!(rec.thread_depth(), 2);
        }
        rec.debug_assert_depth_zero("test firing");
        let events = rec.merged_events();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        let kinds: Vec<_> = events.iter().map(|e| e.event_kind().unwrap()).collect();
        assert_eq!(
            kinds,
            [
                EventKind::Enter,
                EventKind::Enter,
                EventKind::Exit,
                EventKind::Exit
            ]
        );
        // Inner closes before outer (LIFO drop order).
        assert_eq!(events[2].stage(), Some(Stage::ForkJoinFanout));
        assert_eq!(events[3].stage(), Some(Stage::PatternMatch));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Arc::new(TraceRecorder::default());
        rec.set_enabled(false);
        let fid = rec.mint_firing("q1", vec![], 1, vec![]);
        let _g = rec.span(Stage::PatternMatch, fid, BatchId::NONE);
        rec.marker(Marker::Hold, fid, BatchId::NONE, 0);
        rec.anomaly(Marker::Quarantine, fid, BatchId::NONE, 0);
        assert!(rec.merged_events().is_empty());
        assert!(rec.dumps().is_empty());
        assert_eq!(rec.snapshot().events, 0);
        // IDs still mint (results must not depend on the trace flag).
        assert_eq!(fid, FiringId(1));
    }

    #[test]
    fn ring_wraps_evicting_oldest_and_merge_stays_ordered() {
        let rec = Arc::new(TraceRecorder::with_capacity(8));
        for i in 0..20u64 {
            rec.marker(Marker::Hold, FiringId(i), BatchId::NONE, i);
        }
        let events = rec.merged_events();
        assert_eq!(
            events.len(),
            8,
            "ring holds only the newest capacity events"
        );
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        // Oldest evicted: the survivors are exactly seqs 12..=19.
        assert_eq!(events[0].seq, 12);
        assert_eq!(events.last().unwrap().seq, 19);
        let snap = rec.snapshot();
        assert_eq!(snap.events, 20);
        assert_eq!(snap.evicted, 12);
    }

    #[test]
    fn anomaly_dump_contains_causal_neighborhood_only() {
        let rec = Arc::new(TraceRecorder::default());
        let b1 = BatchId::mint(0, 100);
        let b2 = BatchId::mint(0, 200);
        let fid = rec.mint_firing("q4", vec![(0, 0, 100)], 2, vec![b1]);
        let other = rec.mint_firing("q7", vec![(0, 100, 200)], 2, vec![b2]);
        drop(rec.span(Stage::Injection, FiringId::NONE, b1));
        drop(rec.span(Stage::Injection, FiringId::NONE, b2));
        drop(rec.span(Stage::PatternMatch, fid, BatchId::NONE));
        drop(rec.span(Stage::PatternMatch, other, BatchId::NONE));
        rec.anomaly(Marker::ChecksumFail, fid, b1, 7);
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.get("kind").unwrap().as_str(), Some("trace_dump"));
        let trig = d.get("trigger").unwrap();
        assert_eq!(trig.get("marker").unwrap().as_str(), Some("checksum_fail"));
        assert_eq!(trig.get("batch").unwrap().as_str(), Some("s0@100"));
        let meta = d.get("firing").unwrap();
        assert_eq!(meta.get("query").unwrap().as_str(), Some("q4"));
        let events = d.get("events").unwrap().as_arr().unwrap();
        // b1's injection spans + fid's match spans + the trigger marker,
        // but nothing from b2/other.
        assert_eq!(events.len(), 5);
        for e in events {
            let ev = TraceEvent::from_json(e).unwrap();
            assert!(
                ev.firing == fid || ev.batch == b1,
                "unlinked event leaked into dump: {ev:?}"
            );
        }
        // Post-dump the recorder resumes.
        rec.marker(Marker::Hold, fid, BatchId::NONE, 0);
        assert!(rec.merged_events().len() > events.len());
    }

    #[test]
    fn dump_cap_suppresses_excess() {
        let rec = Arc::new(TraceRecorder::default());
        for i in 0..(TraceRecorder::DUMP_CAP as u64 + 5) {
            rec.anomaly(
                Marker::Shed,
                FiringId::NONE,
                BatchId::mint(0, 100 * (i + 1)),
                i,
            );
        }
        let snap = rec.snapshot();
        assert_eq!(snap.dumps, TraceRecorder::DUMP_CAP as u64);
        assert_eq!(snap.dumps_suppressed, 5);
    }

    #[test]
    fn events_round_trip_through_json() {
        let cases = [
            TraceEvent {
                seq: 7,
                kind: EventKind::Enter.code(),
                code: Stage::Dispatch.index(),
                firing: FiringId::NONE,
                batch: BatchId::mint(1, 300),
                arg: 0,
            },
            TraceEvent {
                seq: 8,
                kind: EventKind::Exit.code(),
                code: Stage::Dispatch.index(),
                firing: FiringId::NONE,
                batch: BatchId::mint(1, 300),
                arg: 12345,
            },
            TraceEvent {
                seq: 9,
                kind: EventKind::Marker.code(),
                code: Marker::DeadlineMiss.code(),
                firing: FiringId(3),
                batch: BatchId::NONE,
                arg: 1500,
            },
        ];
        for e in cases {
            assert_eq!(TraceEvent::from_json(&e.to_json()), Some(e));
        }
    }

    #[test]
    fn scoped_recorder_attributes_spans() {
        let rec = Arc::new(TraceRecorder::default());
        let fid = rec.mint_firing("q1", vec![], 1, vec![]);
        // No recorder installed: no-op.
        drop(scoped_span(Stage::ForkJoinMerge));
        assert!(rec.merged_events().is_empty());
        with_recorder(&rec, fid, BatchId::NONE, || {
            drop(scoped_span(Stage::ForkJoinMerge));
            scoped_marker(Marker::Hold, 1);
        });
        let events = rec.merged_events();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.firing == fid));
        // Popped after the closure.
        drop(scoped_span(Stage::ForkJoinMerge));
        assert_eq!(rec.merged_events().len(), 3);
    }

    fn mint_n(rec: &TraceRecorder, n: usize) -> FiringId {
        let mut last = FiringId::NONE;
        for i in 0..n as u64 {
            last = rec.mint_firing(
                "q",
                vec![(0, i, i + 99)],
                i,
                vec![BatchId::mint(0, i + 100)],
            );
        }
        last
    }

    #[test]
    fn lineage_retention_is_fifo_and_survives_ring_wraparound() {
        let cap = TraceRecorder::FIRING_CAP;
        let rec = TraceRecorder::default();
        assert_eq!(mint_n(&rec, cap), FiringId(cap as u64));
        assert!(rec.firing_meta(FiringId(1)).is_some(), "cap metas fit");
        // One past the cap evicts exactly the oldest.
        let newest = mint_n(&rec, 1);
        assert_eq!(rec.firing_meta(FiringId(1)), None);
        assert_eq!(rec.firing_meta(FiringId(2)).unwrap().id, FiringId(2));
        assert_eq!(rec.firing_meta(newest).unwrap().id, newest);
        // Wrap the ring's storage one and a half times over: every
        // retained ID still resolves to its own lineage, nothing else does.
        let newest = mint_n(&rec, cap + cap / 2);
        let oldest = newest.0 - cap as u64 + 1;
        for id in [
            oldest,
            oldest + 1,
            oldest + cap as u64 / 2,
            newest.0 - 1,
            newest.0,
        ] {
            let meta = rec.firing_meta(FiringId(id)).expect("retained");
            assert_eq!(meta.id, FiringId(id));
            // `mint_n` restarts its window counter per call.
            let i = id - (cap as u64 + 2);
            assert_eq!(meta.windows, vec![(0, i, i + 99)]);
        }
        for id in [0, oldest - 1, newest.0 + 1, u64::MAX] {
            assert_eq!(rec.firing_meta(FiringId(id)), None, "id {id}");
        }
    }

    #[test]
    fn lineage_lookup_bisects_across_a_recording_gap() {
        let rec = TraceRecorder::default();
        mint_n(&rec, 3);
        rec.set_enabled(false);
        mint_n(&rec, 2); // ids 4 and 5 mint but record no lineage
        rec.set_enabled(true);
        mint_n(&rec, 2);
        for id in [1, 2, 3, 6, 7] {
            assert_eq!(rec.firing_meta(FiringId(id)).unwrap().id, FiringId(id));
        }
        for id in [4, 5, 8] {
            assert_eq!(rec.firing_meta(FiringId(id)), None, "id {id}");
        }
    }

    #[test]
    fn minting_costs_the_same_on_a_full_recorder() {
        // The lineage container used to shift all `FIRING_CAP` metas down
        // on every mint past the cap (~100x the empty-recorder cost).
        // Minimum over a few repetitions: the host is shared.
        let time_2000 = |rec: &TraceRecorder| {
            let t0 = Instant::now();
            mint_n(rec, 2_000);
            t0.elapsed()
        };
        let full = TraceRecorder::default();
        mint_n(&full, TraceRecorder::FIRING_CAP);
        let (mut on_empty, mut on_full) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..5 {
            on_empty = on_empty.min(time_2000(&TraceRecorder::default()));
            on_full = on_full.min(time_2000(&full));
        }
        assert!(
            on_full < on_empty * 3,
            "2 000 mints: {on_full:?} at the cap vs {on_empty:?} on an empty recorder"
        );
    }

    #[test]
    fn firing_lineage_caps_and_truncates() {
        let rec = TraceRecorder::default();
        let batches: Vec<BatchId> = (1..=(TraceRecorder::LINEAGE_CAP as u64 + 10))
            .map(|i| BatchId::mint(0, i * 100))
            .collect();
        let fid = rec.mint_firing("q1", vec![(0, 0, 1)], 1, batches);
        let meta = rec.firing_meta(fid).unwrap();
        assert_eq!(meta.batches.len(), TraceRecorder::LINEAGE_CAP);
        assert!(meta.lineage_truncated);
    }
}
