//! Window state and data-driven triggering (§4.3, Fig. 10).
//!
//! Wukong+S invokes a continuous query "when its windows of involved
//! streams are ready": the stable VTS must cover the end of every window
//! of the next execution. [`WindowState`] tracks one query's per-stream
//! windows and computes readiness against a stable VTS.

use crate::vts::Vts;
use wukong_rdf::Timestamp;

/// One stream's window parameters within a registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamWindow {
    /// Engine-wide stream index (position in the coordinator's VTS).
    pub stream: usize,
    /// Window length, ms.
    pub range_ms: u64,
    /// Slide step, ms.
    pub step_ms: u64,
}

/// The windows of one registered continuous query, plus its firing cursor.
#[derive(Debug, Clone)]
pub struct WindowState {
    windows: Vec<StreamWindow>,
    /// End timestamp (inclusive) of the next execution's windows.
    next_fire: Timestamp,
    /// The common step: executions advance by the minimum step over
    /// streams (all bundled benchmark queries use equal steps).
    step_ms: u64,
}

impl WindowState {
    /// Creates the window state for a query registered at `registered_at`.
    ///
    /// The first execution fires once every window ending at
    /// `registered_at + step` is covered (the Fig. 2 example registers QC
    /// at 0809 and first executes at 0810).
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty — stored-data-only queries are not
    /// continuous.
    pub fn new(windows: Vec<StreamWindow>, registered_at: Timestamp) -> Self {
        assert!(!windows.is_empty(), "a continuous query needs a window");
        let step_ms = windows.iter().map(|w| w.step_ms).min().expect("non-empty");
        WindowState {
            windows,
            next_fire: registered_at + step_ms,
            step_ms,
        }
    }

    /// The windows.
    pub fn windows(&self) -> &[StreamWindow] {
        &self.windows
    }

    /// End timestamp of the next execution.
    pub fn next_fire(&self) -> Timestamp {
        self.next_fire
    }

    /// Whether the next execution's windows are covered by `stable`.
    pub fn ready(&self, stable: &Vts) -> bool {
        self.windows
            .iter()
            .all(|w| stable.get(w.stream) >= self.next_fire)
    }

    /// How many executions, from the next one on, `stable` covers.
    pub fn ready_count(&self, stable: &Vts) -> usize {
        let covered = self.windows.iter().map(|w| stable.get(w.stream)).min();
        match covered.expect("a continuous query has a window") {
            t if t < self.next_fire => 0,
            t => ((t - self.next_fire) / self.step_ms.max(1) + 1) as usize,
        }
    }

    /// Fires the next execution: returns per-stream `(stream, lo, hi)`
    /// window instances (inclusive bounds) and advances the cursor.
    pub fn fire(&mut self) -> Vec<(usize, Timestamp, Timestamp)> {
        let hi = self.next_fire;
        self.next_fire += self.step_ms;
        self.windows
            .iter()
            .map(|w| (w.stream, hi.saturating_sub(w.range_ms) + 1, hi))
            .collect()
    }

    /// Skips executions whose windows have entirely passed `stable` —
    /// used after recovery, where at-least-once semantics allow re-firing
    /// but not unbounded backlog.
    pub fn catch_up(&mut self, stable: &Vts) {
        let horizon = self
            .windows
            .iter()
            .map(|w| stable.get(w.stream))
            .min()
            .unwrap_or(0);
        while self.next_fire + self.step_ms <= horizon {
            self.next_fire += self.step_ms;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vts(e: &[Timestamp]) -> Vts {
        Vts::from_entries(e.to_vec())
    }

    #[test]
    fn fig10_readiness() {
        // QC: S0 window (10,1), S1 window (5,1); registered at 0; next
        // fire at 1. Units here are seconds for readability.
        let mut w = WindowState::new(
            vec![
                StreamWindow {
                    stream: 0,
                    range_ms: 10,
                    step_ms: 1,
                },
                StreamWindow {
                    stream: 1,
                    range_ms: 5,
                    step_ms: 1,
                },
            ],
            4,
        );
        // Fig. 10: needs batch #5 of S0; stable [4,12] is not enough.
        assert_eq!(w.next_fire(), 5);
        assert!(!w.ready(&vts(&[4, 12])));
        assert_eq!(w.ready_count(&vts(&[4, 12])), 0);
        assert!(w.ready(&vts(&[5, 12])));
        // The count is how often `ready` would hold across `fire`s: the
        // slower stream covers executions 5, 6 and 7.
        assert_eq!(w.ready_count(&vts(&[5, 12])), 1);
        assert_eq!(w.ready_count(&vts(&[12, 7])), 3);
        let inst = w.fire();
        // Window bounds are inclusive: hi=5, lo=hi-range+1 (clamped to
        // stream start, where the earliest batch timestamp is positive).
        assert_eq!(inst[0], (0, 1, 5));
        assert_eq!(inst[1], (1, 1, 5));
        assert_eq!(w.next_fire(), 6);
    }

    #[test]
    fn fire_advances_by_min_step() {
        let mut w = WindowState::new(
            vec![
                StreamWindow {
                    stream: 0,
                    range_ms: 1_000,
                    step_ms: 100,
                },
                StreamWindow {
                    stream: 1,
                    range_ms: 1_000,
                    step_ms: 200,
                },
            ],
            0,
        );
        assert_eq!(w.next_fire(), 100);
        w.fire();
        assert_eq!(w.next_fire(), 200);
    }

    #[test]
    fn catch_up_skips_stale_executions() {
        let mut w = WindowState::new(
            vec![StreamWindow {
                stream: 0,
                range_ms: 10,
                step_ms: 1,
            }],
            0,
        );
        w.catch_up(&vts(&[100]));
        // next_fire advanced near the horizon but at most one step behind.
        assert!(w.next_fire() >= 99);
        assert!(w.next_fire() <= 100);
    }

    #[test]
    #[should_panic(expected = "needs a window")]
    fn windowless_rejected() {
        let _ = WindowState::new(vec![], 0);
    }
}
