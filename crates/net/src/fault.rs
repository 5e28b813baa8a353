//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] is a declarative description of what should go wrong
//! during a run: nodes that die (and possibly come back) at scheduled
//! simulated times, and links that drop, duplicate, or delay messages
//! with given probabilities. Installing a plan on a [`crate::Fabric`]
//! produces a [`FaultState`] — the runtime that draws from a seeded RNG,
//! tracks node liveness, fires the kill/restart schedule as the engine
//! advances stream time, and records every injected fault both as a
//! structured [`FaultEvent`] (so same-seed runs can be compared event by
//! event) and into shared [`FaultCounters`].
//!
//! Everything is deterministic for a fixed seed: the RNG is the offline
//! SplitMix64 shim, draws are serialized under a mutex in the engine's
//! single-threaded drivers, and a probability of zero consumes no draw —
//! so the decision sequence is a pure function of the plan, the seed, and
//! the order of fabric operations.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use wukong_obs::FaultCounters;

use crate::fabric::NodeId;

/// How many times the at-least-once dispatch layer re-sends a dropped
/// message before giving up (only reachable when a link drops with
/// probability 1.0 — real lossy links repair far earlier).
pub const MAX_RETRANSMITS: u32 = 16;

/// One lossy-link rule, applying to every link while it is active; the
/// first active rule in the plan wins.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFault {
    /// Probability a message on this link is silently dropped.
    pub drop_p: f64,
    /// Probability a (non-dropped) message is delivered twice.
    pub dup_p: f64,
    /// Probability a (non-dropped) message is delayed by `delay_ns`.
    pub delay_p: f64,
    /// Extra charged latency applied to delayed messages.
    pub delay_ns: u64,
    /// Simulated-time window `[from_ms, until_ms)` the rule is active in;
    /// `None` = always. An inactive rule neither matches nor draws from
    /// the RNG, so clock-windowed rules keep the draw sequence a pure
    /// function of the outcomes.
    pub window: Option<(u64, u64)>,
}

impl LinkFault {
    fn active(&self, now_ms: u64) -> bool {
        self.window
            .is_none_or(|(lo, hi)| now_ms >= lo && now_ms < hi)
    }
}

/// A gray-failure rule: `node` runs slow (all fabric operations touching
/// it are charged `factor_x100 / 100` times their normal cost) during a
/// simulated-time window. Purely a function of the simulated clock — no
/// RNG draw — so slow nodes never perturb the lossy-link draw sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowNode {
    /// The slowed node.
    pub node: NodeId,
    /// Slowdown multiplier times 100 (`250` = 2.5× slower). Values at or
    /// below 100 are no-ops.
    pub factor_x100: u64,
    /// Simulated time the slowdown starts (inclusive).
    pub from_ms: u64,
    /// Simulated time the slowdown ends (exclusive); `u64::MAX` = forever.
    pub until_ms: u64,
}

/// What a corruption rule targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptTarget {
    /// In-flight sub-batch payloads between dispatch and store install.
    Message,
    /// Checkpoint images on the durable medium (bit rot at capture).
    Checkpoint,
}

/// One corruption rule: with probability `p`, flip a single bit in the
/// targeted artifact. Corruption draws come from a *separate* seeded RNG
/// (the plan seed salted), so adding a corruption rule never perturbs
/// the lossy-link draw sequence of an existing plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptFault {
    /// The artifact class this rule corrupts.
    pub target: CorruptTarget,
    /// Probability each candidate artifact has one bit flipped.
    pub p: f64,
}

/// One entry of the kill/restart schedule, in simulated milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// Simulated time (stream-time milliseconds) the event fires at.
    pub at_ms: u64,
    /// The node affected.
    pub node: NodeId,
    /// `true` kills the node, `false` restarts it.
    pub kill: bool,
}

/// A declarative, seeded description of the faults to inject.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; identical seeds and plans reproduce identical faults.
    pub seed: u64,
    /// Lossy-link rules; first match wins per message.
    pub links: Vec<LinkFault>,
    /// Kill/restart schedule (fired as the engine advances stream time).
    pub schedule: Vec<ScheduledEvent>,
    /// Gray-failure slowdown rules (clock-driven, no RNG).
    pub slow_nodes: Vec<SlowNode>,
    /// Bit-flip corruption rules (dedicated salted RNG).
    pub corrupt: Vec<CorruptFault>,
}

impl FaultPlan {
    /// An empty plan drawing from `seed` (typically `WUKONG_SEED`).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// Schedules `node` to die at simulated time `at_ms`.
    pub fn kill_at(mut self, node: NodeId, at_ms: u64) -> Self {
        self.schedule.push(ScheduledEvent {
            at_ms,
            node,
            kill: true,
        });
        self
    }

    /// Schedules `node` to come back at simulated time `at_ms`.
    pub fn restart_at(mut self, node: NodeId, at_ms: u64) -> Self {
        self.schedule.push(ScheduledEvent {
            at_ms,
            node,
            kill: false,
        });
        self
    }

    /// Makes every link drop and duplicate messages.
    pub fn lossy(mut self, drop_p: f64, dup_p: f64) -> Self {
        self.links.push(LinkFault {
            drop_p,
            dup_p,
            ..LinkFault::default()
        });
        self
    }

    /// Makes every link drop and duplicate messages, but only while the
    /// simulated clock is inside `[from_ms, until_ms)`.
    pub(crate) fn lossy_during(
        mut self,
        drop_p: f64,
        dup_p: f64,
        from_ms: u64,
        until_ms: u64,
    ) -> Self {
        self.links.push(LinkFault {
            drop_p,
            dup_p,
            window: Some((from_ms, until_ms)),
            ..LinkFault::default()
        });
        self
    }

    /// Makes every link delay messages by `delay_ns` with probability
    /// `delay_p`.
    pub fn delayed(mut self, delay_p: f64, delay_ns: u64) -> Self {
        self.links.push(LinkFault {
            delay_p,
            delay_ns,
            ..LinkFault::default()
        });
        self
    }

    /// Makes every link delay messages by `delay_ns` with probability
    /// `delay_p`, but only while the simulated clock is inside
    /// `[from_ms, until_ms)` — a delayed-but-not-dead episode.
    pub(crate) fn delayed_during(
        mut self,
        delay_p: f64,
        delay_ns: u64,
        from_ms: u64,
        until_ms: u64,
    ) -> Self {
        self.links.push(LinkFault {
            delay_p,
            delay_ns,
            window: Some((from_ms, until_ms)),
            ..LinkFault::default()
        });
        self
    }

    /// Slows `node` down by `factor_x100 / 100` while the simulated clock
    /// is inside `[from_ms, until_ms)`.
    pub fn slow_node_during(
        mut self,
        node: NodeId,
        factor_x100: u64,
        from_ms: u64,
        until_ms: u64,
    ) -> Self {
        self.slow_nodes.push(SlowNode {
            node,
            factor_x100,
            from_ms,
            until_ms,
        });
        self
    }

    /// Flips one bit in each in-flight sub-batch payload with
    /// probability `p`.
    pub fn corrupt_messages(mut self, p: f64) -> Self {
        self.corrupt.push(CorruptFault {
            target: CorruptTarget::Message,
            p,
        });
        self
    }

    /// Flips one bit in each captured checkpoint image with
    /// probability `p`.
    pub fn corrupt_checkpoints(mut self, p: f64) -> Self {
        self.corrupt.push(CorruptFault {
            target: CorruptTarget::Checkpoint,
            p,
        });
        self
    }
}

/// One injected fault, recorded in occurrence order. Same-seed runs with
/// the same plan produce identical logs — the determinism tests compare
/// them element-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A node died (schedule or drill).
    Killed {
        /// The node that died.
        node: NodeId,
        /// Simulated time of death.
        at_ms: u64,
    },
    /// A dead node came back (empty, pre-recovery).
    Restarted {
        /// The node that came back.
        node: NodeId,
        /// Simulated time of the restart.
        at_ms: u64,
    },
    /// A message was dropped (lossy link or dead destination).
    Dropped {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// A message was delivered twice.
    Duplicated {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// A message was delivered late.
    Delayed {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Extra charged nanoseconds.
        extra_ns: u64,
    },
    /// A bit was flipped in an in-flight message payload.
    CorruptedMsg {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// A bit was flipped in a captured checkpoint image.
    CorruptedCheckpoint {
        /// Simulated time of the capture.
        at_ms: u64,
    },
}

/// The delivery verdict for one message: how many copies arrive (0 =
/// dropped, 2 = duplicated) and any extra charged delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Copies that reach the destination.
    pub copies: u32,
    /// Extra nanoseconds the copies are charged with.
    pub extra_ns: u64,
}

impl Delivery {
    /// One copy, on time: every message without a fault plan.
    pub(crate) const CLEAN: Delivery = Delivery {
        copies: 1,
        extra_ns: 0,
    };
}

/// Salt for the corruption RNG: corruption draws must not perturb the
/// link-fault draw sequence of a pre-existing plan with the same seed.
const CORRUPT_SEED_SALT: u64 = 0x0B17_F11B_50DD_C0DE_u64;

/// Runtime state of an installed [`FaultPlan`]: node liveness, the
/// seeded RNGs (link faults and corruption draw independently), the
/// schedule cursor, and the event log.
pub struct FaultState {
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    crng: Mutex<StdRng>,
    up: Vec<AtomicBool>,
    clock_ms: AtomicU64,
    cursor: Mutex<usize>,
    log: Mutex<Vec<FaultEvent>>,
    counters: Arc<FaultCounters>,
}

impl FaultState {
    /// Instantiates `plan` over a `nodes`-node cluster, recording into
    /// `counters`. All nodes start alive; the schedule is fired by
    /// [`FaultState::advance_clock`].
    pub fn new(mut plan: FaultPlan, nodes: usize, counters: Arc<FaultCounters>) -> Self {
        plan.schedule.sort_by_key(|e| e.at_ms);
        let rng = Mutex::new(StdRng::seed_from_u64(plan.seed));
        let crng = Mutex::new(StdRng::seed_from_u64(plan.seed ^ CORRUPT_SEED_SALT));
        FaultState {
            rng,
            crng,
            up: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
            clock_ms: AtomicU64::new(0),
            cursor: Mutex::new(0),
            log: Mutex::new(Vec::new()),
            counters,
            plan,
        }
    }

    /// The installed plan (schedule sorted by time).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The shared counters faults are recorded into.
    pub fn counters(&self) -> &Arc<FaultCounters> {
        &self.counters
    }

    /// Whether `node` is currently alive.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.up
            .get(node.idx())
            .is_some_and(|b| b.load(Ordering::Relaxed))
    }

    /// Kills `node` now; returns whether it was alive.
    pub fn kill(&self, node: NodeId) -> bool {
        let was_up = self.up[node.idx()].swap(false, Ordering::Relaxed);
        if was_up {
            self.counters.inc_kill();
            self.log.lock().push(FaultEvent::Killed {
                node,
                at_ms: self.clock_ms.load(Ordering::Relaxed),
            });
        }
        was_up
    }

    /// Restarts `node` (empty — recovery repopulates it); returns whether
    /// it was dead.
    pub fn restart(&self, node: NodeId) -> bool {
        let was_down = !self.up[node.idx()].swap(true, Ordering::Relaxed);
        if was_down {
            self.counters.inc_restart();
            self.log.lock().push(FaultEvent::Restarted {
                node,
                at_ms: self.clock_ms.load(Ordering::Relaxed),
            });
        }
        was_down
    }

    /// Advances simulated time to `now_ms` (monotonic) and fires every
    /// schedule entry that has come due.
    pub fn advance_clock(&self, now_ms: u64) {
        self.clock_ms.fetch_max(now_ms, Ordering::Relaxed);
        let now = self.clock_ms.load(Ordering::Relaxed);
        let mut cursor = self.cursor.lock();
        while let Some(e) = self.plan.schedule.get(*cursor) {
            if e.at_ms > now {
                break;
            }
            if e.kill {
                self.kill(e.node);
            } else {
                self.restart(e.node);
            }
            *cursor += 1;
        }
    }

    /// Decides the fate of one message `from → to`: a dead destination
    /// drops it, otherwise the first matching link rule draws from the
    /// seeded RNG. A zero probability consumes no draw, and a dropped
    /// message skips the duplicate/delay draws, so the draw sequence is a
    /// pure function of the outcomes.
    pub fn decide(&self, from: NodeId, to: NodeId) -> Delivery {
        const DROPPED: Delivery = Delivery {
            copies: 0,
            extra_ns: 0,
        };
        if !self.is_up(to) {
            self.record_drop(from, to);
            return DROPPED;
        }
        let now = self.clock_ms.load(Ordering::Relaxed);
        let Some(rule) = self.plan.links.iter().find(|r| r.active(now)) else {
            return Delivery::CLEAN;
        };
        let mut rng = self.rng.lock();
        if rule.drop_p > 0.0 && rng.gen_bool(rule.drop_p) {
            drop(rng);
            self.record_drop(from, to);
            return DROPPED;
        }
        let copies = if rule.dup_p > 0.0 && rng.gen_bool(rule.dup_p) {
            self.counters.inc_duplicated();
            self.log.lock().push(FaultEvent::Duplicated { from, to });
            2
        } else {
            1
        };
        let extra_ns = if rule.delay_p > 0.0 && rng.gen_bool(rule.delay_p) {
            self.counters.inc_delayed();
            self.log.lock().push(FaultEvent::Delayed {
                from,
                to,
                extra_ns: rule.delay_ns,
            });
            rule.delay_ns
        } else {
            0
        };
        Delivery { copies, extra_ns }
    }

    /// The slowdown multiplier (×100) currently applying to `node`: the
    /// maximum over active [`SlowNode`] rules, or 100 when none match.
    /// Purely a function of the plan and the simulated clock.
    pub(crate) fn slow_factor_x100(&self, node: NodeId) -> u64 {
        let now = self.clock_ms.load(Ordering::Relaxed);
        self.plan
            .slow_nodes
            .iter()
            .filter(|s| s.node == node && now >= s.from_ms && now < s.until_ms)
            .map(|s| s.factor_x100)
            .fold(100, u64::max)
    }

    /// Scales a charged duration for an operation between `from` and
    /// `to` by the worse of the two endpoints' slowdown factors, counting
    /// the operation as slowed when the factor bites.
    pub(crate) fn scale_ns(&self, from: NodeId, to: NodeId, ns: u64) -> u64 {
        let factor = self.slow_factor_x100(from).max(self.slow_factor_x100(to));
        if factor <= 100 || ns == 0 {
            return ns;
        }
        self.counters.inc_slowed();
        ns.saturating_mul(factor) / 100
    }

    /// Draws the corruption verdict for one in-flight message `from →
    /// to`: `Some(bits)` means the carrier should flip one bit chosen
    /// from the 64 random `bits`. A plan without a message-corruption
    /// rule (or with `p == 0`) consumes no draw.
    pub fn corrupt_message(&self, from: NodeId, to: NodeId) -> Option<u64> {
        let rule = self
            .plan
            .corrupt
            .iter()
            .find(|c| c.target == CorruptTarget::Message && c.p > 0.0)?;
        let mut rng = self.crng.lock();
        if !rng.gen_bool(rule.p) {
            return None;
        }
        let bits = rng.next_u64();
        drop(rng);
        self.counters.inc_corrupt_msg();
        self.log.lock().push(FaultEvent::CorruptedMsg { from, to });
        Some(bits)
    }

    /// Draws the corruption verdict for one captured checkpoint image:
    /// `Some(bits)` means the durable copy should have one bit flipped.
    pub fn corrupt_checkpoint(&self) -> Option<u64> {
        let rule = self
            .plan
            .corrupt
            .iter()
            .find(|c| c.target == CorruptTarget::Checkpoint && c.p > 0.0)?;
        let mut rng = self.crng.lock();
        if !rng.gen_bool(rule.p) {
            return None;
        }
        let bits = rng.next_u64();
        drop(rng);
        self.counters.inc_corrupt_checkpoint();
        self.log.lock().push(FaultEvent::CorruptedCheckpoint {
            at_ms: self.clock_ms.load(Ordering::Relaxed),
        });
        Some(bits)
    }

    /// Records a message lost on `from → to`.
    pub(crate) fn record_drop(&self, from: NodeId, to: NodeId) {
        self.counters.inc_dropped();
        self.log.lock().push(FaultEvent::Dropped { from, to });
    }

    /// A copy of the event log so far, in occurrence order.
    pub fn log(&self) -> Vec<FaultEvent> {
        self.log.lock().clone()
    }
}

impl std::fmt::Debug for FaultState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultState")
            .field("plan", &self.plan)
            .field("clock_ms", &self.clock_ms.load(Ordering::Relaxed))
            .field("events", &self.log.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(plan: FaultPlan) -> FaultState {
        FaultState::new(plan, 3, Arc::new(FaultCounters::default()))
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::seeded(7).lossy(0.3, 0.3).delayed(0.2, 5_000);
        let a = state(plan.clone());
        let b = state(plan);
        let da: Vec<Delivery> = (0..200).map(|_| a.decide(NodeId(0), NodeId(1))).collect();
        let db: Vec<Delivery> = (0..200).map(|_| b.decide(NodeId(0), NodeId(1))).collect();
        assert_eq!(da, db);
        assert_eq!(a.log(), b.log());
        assert!(a
            .log()
            .iter()
            .any(|e| matches!(e, FaultEvent::Dropped { .. })));

        let c = state(FaultPlan::seeded(8).lossy(0.3, 0.3).delayed(0.2, 5_000));
        let dc: Vec<Delivery> = (0..200).map(|_| c.decide(NodeId(0), NodeId(1))).collect();
        assert_ne!(da, dc, "different seeds must differ");
    }

    #[test]
    fn first_active_rule_wins() {
        // A dropping rule over [0, 100) ahead of a duplicating one over
        // [0, 200): the first decides while both are active, the second
        // once the first has ended, neither after both.
        let plan = FaultPlan::seeded(1)
            .lossy_during(1.0, 0.0, 0, 100)
            .lossy_during(0.0, 1.0, 0, 200);
        let s = state(plan);
        s.advance_clock(50);
        assert_eq!(s.decide(NodeId(0), NodeId(1)).copies, 0);
        s.advance_clock(150);
        assert_eq!(s.decide(NodeId(1), NodeId(0)).copies, 2);
        s.advance_clock(250);
        assert_eq!(s.decide(NodeId(0), NodeId(2)), Delivery::CLEAN);
    }

    #[test]
    fn schedule_fires_in_time_order() {
        let plan = FaultPlan::seeded(0)
            .restart_at(NodeId(1), 900)
            .kill_at(NodeId(1), 400)
            .kill_at(NodeId(2), 600);
        let s = state(plan);
        assert!(s.is_up(NodeId(1)));
        s.advance_clock(500);
        assert!(!s.is_up(NodeId(1)));
        assert!(s.is_up(NodeId(2)));
        s.advance_clock(1_000);
        assert!(s.is_up(NodeId(1)), "restart fired");
        assert!(!s.is_up(NodeId(2)));
        // The clock is monotonic: rewinding is a no-op.
        s.advance_clock(100);
        assert!(!s.is_up(NodeId(2)));
        assert_eq!(
            s.log(),
            vec![
                FaultEvent::Killed {
                    node: NodeId(1),
                    at_ms: 500
                },
                FaultEvent::Killed {
                    node: NodeId(2),
                    at_ms: 1_000
                },
                FaultEvent::Restarted {
                    node: NodeId(1),
                    at_ms: 1_000
                },
            ]
        );
    }

    #[test]
    fn corruption_draws_are_deterministic_and_isolated() {
        // Same seed, same plan → identical corruption verdicts.
        let plan = FaultPlan::seeded(11).corrupt_messages(0.5);
        let a = state(plan.clone());
        let b = state(plan);
        let va: Vec<_> = (0..100)
            .map(|_| a.corrupt_message(NodeId(0), NodeId(1)))
            .collect();
        let vb: Vec<_> = (0..100)
            .map(|_| b.corrupt_message(NodeId(0), NodeId(1)))
            .collect();
        assert_eq!(va, vb);
        assert!(va.iter().any(Option::is_some));
        assert!(va.iter().any(Option::is_none));
        assert_eq!(
            a.counters().snapshot().msgs_corrupted,
            va.iter().filter(|v| v.is_some()).count() as u64
        );

        // Adding a corruption rule must not perturb the link-fault draw
        // sequence: interleaved corruption draws leave link verdicts
        // identical to a plan without the rule.
        let base = FaultPlan::seeded(7).lossy(0.3, 0.3);
        let plain = state(base.clone());
        let mixed = state(base.corrupt_messages(0.5));
        let dp: Vec<Delivery> = (0..100)
            .map(|_| plain.decide(NodeId(0), NodeId(1)))
            .collect();
        let dm: Vec<Delivery> = (0..100)
            .map(|_| {
                mixed.corrupt_message(NodeId(0), NodeId(1));
                mixed.decide(NodeId(0), NodeId(1))
            })
            .collect();
        assert_eq!(dp, dm);

        // A plan without corruption rules never draws or logs.
        let none = state(FaultPlan::seeded(11));
        assert_eq!(none.corrupt_message(NodeId(0), NodeId(1)), None);
        assert_eq!(none.corrupt_checkpoint(), None);
        assert!(none.log().is_empty());
    }

    #[test]
    fn checkpoint_corruption_counts_and_logs() {
        let s = state(FaultPlan::seeded(5).corrupt_checkpoints(1.0));
        s.advance_clock(250);
        assert!(s.corrupt_checkpoint().is_some());
        assert_eq!(s.counters().snapshot().checkpoints_corrupted, 1);
        assert_eq!(
            s.log(),
            vec![FaultEvent::CorruptedCheckpoint { at_ms: 250 }]
        );
    }

    #[test]
    fn dead_destination_drops_everything() {
        let s = state(FaultPlan::seeded(3));
        s.kill(NodeId(2));
        assert_eq!(s.decide(NodeId(0), NodeId(2)).copies, 0);
        assert_eq!(s.decide(NodeId(0), NodeId(1)), Delivery::CLEAN);
        assert_eq!(s.counters().snapshot().msgs_dropped, 1);
        s.restart(NodeId(2));
        assert_eq!(s.decide(NodeId(0), NodeId(2)), Delivery::CLEAN);
        assert_eq!(s.counters().snapshot().node_kills, 1);
        assert_eq!(s.counters().snapshot().node_restarts, 1);
    }
}
