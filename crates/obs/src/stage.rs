//! The stage taxonomy for traced work.
//!
//! Two families of stages exist, matching the two latency-critical paths
//! of the engine (§3/§4 of the paper):
//!
//! * **Query stages** cover one continuous-query firing end to end.
//!   `WindowExtract` (resolving window instances into a query context
//!   and picking a plan), `PatternMatch` (the executor's step loop,
//!   union, NOT-EXISTS, OPTIONAL), and `ResultEmit` (projection /
//!   construction of the result set) partition the firing — their sum
//!   accounts for the end-to-end latency. `ForkJoinFanout` and
//!   `ForkJoinMerge` are *attribution-only* sub-spans inside
//!   `PatternMatch` (how much of the matching time was spent fanning
//!   work out to remote partitions vs. merging it back); they overlap
//!   `PatternMatch` and are excluded from the sum. `Replan` covers the
//!   adaptive layer re-deriving a registered query's plan after the
//!   drift detector trips; it rides the query family but happens
//!   *between* firings, so like the fork-join sub-spans it is excluded
//!   from the end-to-end sum.
//! * **Batch stages** cover one ingest batch: `Adaptor` (windowing /
//!   sealing in the stream adaptor), `Dispatch` (sharding the batch
//!   across nodes), `Injection` (writing tuples into per-node transient
//!   stores), `StreamIndex` (appending to the stream index), and `Gc`
//!   (expiring dead batches). `Recovery` covers one checkpoint-and-log
//!   replay after an injected crash (§5); it rides the batch family
//!   because replay re-runs the ingest pipeline. `Shed` covers the
//!   overload manager dropping tuples from a full ingest queue and
//!   `CatchUp` covers re-inserting the shed suffix once overload
//!   subsides; both ride the batch family for the same reason.

/// One stage of a traced execution. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    // Query stages (one continuous-query firing).
    WindowExtract,
    PatternMatch,
    ForkJoinFanout,
    ForkJoinMerge,
    DeltaApply,
    StateRetract,
    ResultEmit,
    Replan,
    // Batch stages (one ingest batch).
    Adaptor,
    Dispatch,
    Injection,
    StreamIndex,
    Gc,
    Recovery,
    Shed,
    CatchUp,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 16] = [
        Stage::WindowExtract,
        Stage::PatternMatch,
        Stage::ForkJoinFanout,
        Stage::ForkJoinMerge,
        Stage::DeltaApply,
        Stage::StateRetract,
        Stage::ResultEmit,
        Stage::Replan,
        Stage::Adaptor,
        Stage::Dispatch,
        Stage::Injection,
        Stage::StreamIndex,
        Stage::Gc,
        Stage::Recovery,
        Stage::Shed,
        Stage::CatchUp,
    ];

    /// The stage's position in [`Stage::ALL`] — the compact `u8` code
    /// flight-recorder events carry (see `crate::trace`).
    pub fn index(self) -> u8 {
        Stage::ALL.iter().position(|s| *s == self).unwrap() as u8
    }

    /// Decodes a [`Stage::index`] code.
    pub(crate) fn from_index(i: u8) -> Option<Stage> {
        Stage::ALL.get(i as usize).copied()
    }

    /// Stable snake_case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::WindowExtract => "window_extract",
            Stage::PatternMatch => "pattern_match",
            Stage::ForkJoinFanout => "forkjoin_fanout",
            Stage::ForkJoinMerge => "forkjoin_merge",
            Stage::DeltaApply => "delta_apply",
            Stage::StateRetract => "state_retract",
            Stage::ResultEmit => "result_emit",
            Stage::Replan => "replan",
            Stage::Adaptor => "adaptor",
            Stage::Dispatch => "dispatch",
            Stage::Injection => "injection",
            Stage::StreamIndex => "stream_index",
            Stage::Gc => "gc",
            Stage::Recovery => "recovery",
            Stage::Shed => "shed",
            Stage::CatchUp => "catch_up",
        }
    }

    /// Whether this stage belongs to the continuous-query firing path.
    pub fn is_query_stage(self) -> bool {
        matches!(
            self,
            Stage::WindowExtract
                | Stage::PatternMatch
                | Stage::ForkJoinFanout
                | Stage::ForkJoinMerge
                | Stage::DeltaApply
                | Stage::StateRetract
                | Stage::ResultEmit
                | Stage::Replan
        )
    }

    /// Whether this stage belongs to the batch-ingest path.
    pub fn is_batch_stage(self) -> bool {
        !self.is_query_stage()
    }

    /// Whether the stage is one of the disjoint spans whose sum accounts
    /// for a firing's end-to-end latency (fork-join sub-spans overlap
    /// `PatternMatch`, and `Replan` happens between firings, so they are
    /// excluded). Incremental firings report `StateRetract`/`DeltaApply`
    /// *instead of* `PatternMatch`, so both families are disjoint
    /// partitions of a firing and both count.
    pub fn counts_toward_query_total(self) -> bool {
        matches!(
            self,
            Stage::WindowExtract
                | Stage::PatternMatch
                | Stage::DeltaApply
                | Stage::StateRetract
                | Stage::ResultEmit
        )
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-execution stage accumulator: a small inline vector of
/// `(stage, nanoseconds)` entries, cheap enough to thread through hot
/// paths. Durations for the same stage accumulate.
#[derive(Debug, Default, Clone)]
pub struct StageTrace {
    spans: Vec<(Stage, u64)>,
}

impl StageTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` to `stage`'s span.
    pub fn add(&mut self, stage: Stage, ns: u64) {
        if let Some(entry) = self.spans.iter_mut().find(|(s, _)| *s == stage) {
            entry.1 += ns;
        } else {
            self.spans.push((stage, ns));
        }
    }

    /// Nanoseconds attributed to `stage` so far.
    pub fn get(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0, |(_, ns)| *ns)
    }

    /// All recorded `(stage, ns)` spans in insertion order.
    pub fn spans(&self) -> &[(Stage, u64)] {
        &self.spans
    }

    /// Sum of the disjoint query spans (see
    /// [`Stage::counts_toward_query_total`]); should account for the
    /// firing's end-to-end latency.
    pub fn query_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|(s, _)| s.counts_toward_query_total())
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Folds another trace into this one.
    pub fn merge(&mut self, other: &StageTrace) {
        for &(stage, ns) in other.spans() {
            self.add(stage, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let names: std::collections::HashSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::ALL.len());
        assert_eq!(Stage::WindowExtract.name(), "window_extract");
    }

    #[test]
    fn index_codes_round_trip() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index() as usize, i);
            assert_eq!(Stage::from_index(s.index()), Some(*s));
        }
        assert_eq!(Stage::from_index(Stage::ALL.len() as u8), None);
    }

    #[test]
    fn query_and_batch_partition_the_taxonomy() {
        for s in Stage::ALL {
            assert_ne!(s.is_query_stage(), s.is_batch_stage());
        }
    }

    #[test]
    fn trace_accumulates_and_sums() {
        let mut t = StageTrace::new();
        t.add(Stage::PatternMatch, 100);
        t.add(Stage::PatternMatch, 50);
        t.add(Stage::ForkJoinFanout, 40);
        t.add(Stage::WindowExtract, 10);
        t.add(Stage::ResultEmit, 5);
        assert_eq!(t.get(Stage::PatternMatch), 150);
        // Fork-join sub-spans overlap PatternMatch: excluded from total.
        assert_eq!(t.query_total_ns(), 165);
        let mut u = StageTrace::new();
        u.merge(&t);
        u.merge(&t);
        assert_eq!(u.get(Stage::PatternMatch), 300);
    }

    #[test]
    fn incremental_stages_partition_a_firing() {
        // An incremental firing reports StateRetract + DeltaApply in
        // place of PatternMatch; the three disjoint spans plus
        // WindowExtract/ResultEmit must sum like the recompute family.
        for s in [Stage::DeltaApply, Stage::StateRetract] {
            assert!(s.is_query_stage());
            assert!(s.counts_toward_query_total());
        }
        let mut t = StageTrace::new();
        t.add(Stage::WindowExtract, 10);
        t.add(Stage::StateRetract, 20);
        t.add(Stage::DeltaApply, 100);
        t.add(Stage::ResultEmit, 5);
        assert_eq!(t.query_total_ns(), 135);
    }

    #[test]
    fn replan_is_a_query_stage_outside_the_firing_total() {
        // Re-planning happens between firings: it must show up in the
        // query family's breakdown without inflating the sum that
        // accounts for any single firing's end-to-end latency.
        assert!(Stage::Replan.is_query_stage());
        assert!(!Stage::Replan.counts_toward_query_total());
        let mut t = StageTrace::new();
        t.add(Stage::PatternMatch, 100);
        t.add(Stage::Replan, 1_000);
        assert_eq!(t.query_total_ns(), 100);
    }
}
