//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] describes how a transport should misbehave: per-link
//! drop probability, duplication, reordering (extra per-message delay that
//! lets later messages overtake), latency jitter, and timed network
//! partitions that heal. Decisions are drawn from a seeded deterministic
//! generator ([`DetRng`]), so a chaos run replays **bit-identically** from
//! its seed: same plan + same traffic order ⇒ same faults.
//!
//! Two consumers share this module:
//!
//! * the virtual-time simulator (`sdso-sim`) consults a [`FaultInjector`]
//!   inside its scheduler, where the total order of sends makes the fault
//!   sequence a pure function of the seed;
//! * [`FaultyEndpoint`](crate::faulty::FaultyEndpoint) wraps any real
//!   [`Endpoint`](crate::Endpoint) with the same plan for wall-clock runs.

use crate::endpoint::NodeId;
use crate::time::{SimInstant, SimSpan};

/// A deterministic 64-bit generator (SplitMix64) driving fault decisions.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Keep the stream position independent of the probability
            // value: every decision consumes exactly one draw.
            self.next_u64();
            return false;
        }
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// A uniform value in `[0, bound]`.
    pub fn up_to(&mut self, bound: u64) -> u64 {
        let draw = self.next_u64();
        if bound == u64::MAX {
            draw
        } else {
            draw % (bound + 1)
        }
    }
}

/// A timed network partition: during `[from, until)` the nodes in `split`
/// cannot exchange messages with the nodes outside it (in either
/// direction). The partition heals at `until`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the partition; the other side is its complement.
    pub split: Vec<NodeId>,
    /// When the partition begins.
    pub from: SimInstant,
    /// When it heals.
    pub until: SimInstant,
}

impl Partition {
    /// Whether a message from `a` to `b` sent at `at` is severed.
    pub fn severs(&self, a: NodeId, b: NodeId, at: SimInstant) -> bool {
        if at < self.from || at >= self.until {
            return false;
        }
        let a_in = self.split.contains(&a);
        let b_in = self.split.contains(&b);
        a_in != b_in
    }
}

/// A scheduled process crash (and optional restart), in the driver's tick
/// domain.
///
/// Crash events are *not* interpreted by the message-level
/// [`FaultInjector`]: they describe process death, which drivers realise
/// at the membership layer (crash = abrupt leave at `crash_tick`; restart
/// = late join at `restart_tick` with WAL-carried state). Keeping them on
/// the plan gives one seeded artifact that replays both the message chaos
/// and the process-death schedule bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The process that dies.
    pub node: NodeId,
    /// The driver tick at whose barrier the process dies.
    pub crash_tick: u64,
    /// The driver tick at whose barrier the process rejoins, if it ever
    /// restarts.
    pub restart_tick: Option<u64>,
}

/// A declarative description of how links should misbehave.
///
/// All probabilities are per message. The zero plan (see
/// [`FaultPlan::new`]) injects nothing; builder methods switch individual
/// fault classes on. Identical plans with identical seeds produce
/// identical fault sequences for identical traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the decision stream.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice.
    pub dup_prob: f64,
    /// Probability a message is held back by up to `reorder_window`,
    /// letting messages sent after it overtake it.
    pub reorder_prob: f64,
    /// Maximum hold-back applied to reordered messages.
    pub reorder_window: SimSpan,
    /// Uniform extra latency in `[0, jitter]` added to every delivery.
    pub jitter: SimSpan,
    /// Timed partitions; messages crossing an active partition are
    /// dropped (and counted as injected drops).
    pub partitions: Vec<Partition>,
    /// Scheduled process crashes/restarts, realised by crash-aware
    /// drivers (not by the message-level injector).
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// The no-fault plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_window: SimSpan::ZERO,
            jitter: SimSpan::ZERO,
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Sets the per-message drop probability.
    pub fn with_drop(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Sets the per-message duplication probability.
    pub fn with_dup(mut self, prob: f64) -> Self {
        self.dup_prob = prob;
        self
    }

    /// Reorders messages: with probability `prob` a message is held back
    /// by a uniform span in `[0, window]`.
    pub fn with_reorder(mut self, prob: f64, window: SimSpan) -> Self {
        self.reorder_prob = prob;
        self.reorder_window = window;
        self
    }

    /// Adds uniform latency jitter in `[0, jitter]` to every message.
    pub fn with_jitter(mut self, jitter: SimSpan) -> Self {
        self.jitter = jitter;
        self
    }

    /// Adds a partition separating `split` from everyone else during
    /// `[from, until)`.
    pub fn with_partition(
        mut self,
        split: impl Into<Vec<NodeId>>,
        from: SimInstant,
        until: SimInstant,
    ) -> Self {
        self.partitions.push(Partition { split: split.into(), from, until });
        self
    }

    /// Schedules a process crash at `crash_tick`, with an optional restart
    /// at `restart_tick` (which must be strictly later).
    ///
    /// # Panics
    ///
    /// Panics if `restart_tick <= crash_tick`, or if `node` already has a
    /// crash scheduled (one crash/restart cycle per node per plan).
    pub fn with_crash(mut self, node: NodeId, crash_tick: u64, restart_tick: Option<u64>) -> Self {
        if let Some(r) = restart_tick {
            assert!(r > crash_tick, "restart tick {r} must follow crash tick {crash_tick}");
        }
        assert!(
            self.crash_of(node).is_none(),
            "node {node} already has a crash scheduled in this plan"
        );
        self.crashes.push(CrashEvent { node, crash_tick, restart_tick });
        self
    }

    /// Adds `count` seeded crash/restart events over nodes `1..n` (node 0
    /// is protected so a stable survivor always exists), with crash ticks
    /// drawn from `[min_tick, max_tick)` and each crash followed by a
    /// restart 2–5 ticks later (capped below `max_tick`).
    ///
    /// The schedule is drawn from a *separate* generator salted off the
    /// plan seed, so adding crashes never shifts the message-level
    /// decision stream — `judge()` verdicts are unchanged.
    pub fn with_seeded_crashes(
        mut self,
        n: usize,
        count: usize,
        min_tick: u64,
        max_tick: u64,
    ) -> Self {
        const CRASH_STREAM_SALT: u64 = 0xC4A5_11DE_AD5E_ED00;
        assert!(n > 1, "need at least two nodes to crash one");
        assert!(min_tick < max_tick, "empty crash-tick window");
        let mut rng = DetRng::new(self.seed ^ CRASH_STREAM_SALT);
        let mut placed = 0usize;
        while placed < count {
            let node = (1 + rng.up_to(n as u64 - 2)) as NodeId;
            if self.crash_of(node).is_some() {
                // Already crashing: the window is per-node single-shot.
                if self.crashes.len() >= n - 1 {
                    break;
                }
                continue;
            }
            let crash_tick = min_tick + rng.up_to(max_tick - min_tick - 1);
            let gap = 2 + rng.up_to(3);
            let restart = crash_tick + gap;
            let restart_tick = if restart < max_tick { Some(restart) } else { None };
            self.crashes.push(CrashEvent { node, crash_tick, restart_tick });
            placed += 1;
        }
        self
    }

    /// The crash event scheduled for `node`, if any.
    pub fn crash_of(&self, node: NodeId) -> Option<&CrashEvent> {
        self.crashes.iter().find(|c| c.node == node)
    }

    /// Every node with a scheduled crash, in schedule order.
    pub fn crashing_nodes(&self) -> Vec<NodeId> {
        self.crashes.iter().map(|c| c.node).collect()
    }

    /// Whether the plan makes links misbehave (as opposed to only
    /// scheduling crashes, which the transport never sees).
    pub fn has_link_faults(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.reorder_prob > 0.0
            || self.jitter != SimSpan::ZERO
            || !self.partitions.is_empty()
    }

    /// Whether the plan can inject anything at all.
    pub fn is_noop(&self) -> bool {
        !self.has_link_faults() && self.crashes.is_empty()
    }

    /// Whether `a → b` traffic at `at` crosses an active partition.
    pub fn severed(&self, a: NodeId, b: NodeId, at: SimInstant) -> bool {
        self.partitions.iter().any(|p| p.severs(a, b, at))
    }
}

/// What the injector decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Deliver zero copies (random drop or active partition).
    pub dropped: bool,
    /// Deliver one extra copy (ignored when `dropped`).
    pub duplicated: bool,
    /// Extra delivery delay (reorder hold-back + jitter).
    pub extra_delay: SimSpan,
}

/// A [`FaultPlan`] paired with its decision stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: DetRng,
}

impl FaultInjector {
    /// Creates an injector drawing decisions from the plan's seed.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = DetRng::new(plan.seed);
        FaultInjector { plan, rng }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Judges one message from `a` to `b` sent at `at`.
    ///
    /// Consumes a fixed number of draws per call regardless of outcome, so
    /// the decision stream — and therefore the whole run — replays
    /// identically from the seed.
    pub fn judge(&mut self, a: NodeId, b: NodeId, at: SimInstant) -> Verdict {
        let dropped_by_chance = self.rng.chance(self.plan.drop_prob);
        let duplicated = self.rng.chance(self.plan.dup_prob);
        let reordered = self.rng.chance(self.plan.reorder_prob);
        let hold_back = self.rng.up_to(self.plan.reorder_window.as_micros());
        let jitter = self.rng.up_to(self.plan.jitter.as_micros());
        let dropped = dropped_by_chance || self.plan.severed(a, b, at);
        Verdict {
            dropped,
            duplicated: duplicated && !dropped,
            extra_delay: SimSpan::from_micros(if reordered { hold_back } else { 0 } + jitter),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::new(7));
        for i in 0..100u16 {
            let v = inj.judge(0, 1, SimInstant::from_micros(u64::from(i)));
            assert_eq!(v, Verdict::default());
        }
        assert!(FaultPlan::new(7).is_noop());
    }

    #[test]
    fn same_seed_same_verdicts() {
        let plan = FaultPlan::new(42)
            .with_drop(0.3)
            .with_dup(0.2)
            .with_reorder(0.5, SimSpan::from_millis(5))
            .with_jitter(SimSpan::from_micros(300));
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for i in 0..1000u64 {
            let at = SimInstant::from_micros(i);
            assert_eq!(a.judge(0, 1, at), b.judge(0, 1, at));
        }
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let mut inj = FaultInjector::new(FaultPlan::new(9).with_drop(0.25));
        let dropped =
            (0..4000).filter(|&i| inj.judge(0, 1, SimInstant::from_micros(i)).dropped).count();
        assert!((700..1300).contains(&dropped), "25% of 4000, got {dropped}");
    }

    #[test]
    fn partitions_sever_both_directions_then_heal() {
        let plan = FaultPlan::new(1).with_partition(
            vec![0, 1],
            SimInstant::from_micros(100),
            SimInstant::from_micros(200),
        );
        // Inside the window: split ↔ complement severed, intra-side fine.
        let at = SimInstant::from_micros(150);
        assert!(plan.severed(0, 2, at));
        assert!(plan.severed(2, 0, at));
        assert!(!plan.severed(0, 1, at));
        assert!(!plan.severed(2, 3, at));
        // Outside the window: healed.
        assert!(!plan.severed(0, 2, SimInstant::from_micros(99)));
        assert!(!plan.severed(0, 2, SimInstant::from_micros(200)));
    }

    #[test]
    fn partition_drops_count_as_drops() {
        let plan = FaultPlan::new(3).with_partition(
            vec![0],
            SimInstant::ZERO,
            SimInstant::from_micros(1_000_000),
        );
        let mut inj = FaultInjector::new(plan);
        let v = inj.judge(0, 1, SimInstant::from_micros(10));
        assert!(v.dropped);
        assert!(!v.duplicated);
    }

    #[test]
    fn crash_events_do_not_shift_the_decision_stream() {
        // The crash schedule is drawn from a salted generator at plan
        // construction: message-level verdicts must be bit-identical with
        // and without crashes in the plan.
        let base = FaultPlan::new(123).with_drop(0.3).with_dup(0.1);
        let mut plain = FaultInjector::new(base.clone());
        let mut crashing = FaultInjector::new(base.with_seeded_crashes(16, 3, 4, 40));
        for i in 0..500u64 {
            let at = SimInstant::from_micros(i);
            assert_eq!(plain.judge(0, 1, at), crashing.judge(0, 1, at));
        }
    }

    #[test]
    fn seeded_crashes_replay_identically_and_respect_bounds() {
        let a = FaultPlan::new(9).with_seeded_crashes(16, 4, 5, 30);
        let b = FaultPlan::new(9).with_seeded_crashes(16, 4, 5, 30);
        assert_eq!(a.crashes, b.crashes, "same seed, same crash schedule");
        assert_eq!(a.crashes.len(), 4);
        for c in &a.crashes {
            assert!(c.node >= 1 && (c.node as usize) < 16, "node 0 is protected");
            assert!((5..30).contains(&c.crash_tick));
            if let Some(r) = c.restart_tick {
                assert!(r > c.crash_tick && r < 30);
            }
        }
        // Per-node single-shot: no node crashes twice.
        let nodes = a.crashing_nodes();
        let distinct: std::collections::BTreeSet<_> = nodes.iter().collect();
        assert_eq!(distinct.len(), nodes.len());
    }

    #[test]
    fn with_crash_builder_and_queries() {
        let plan = FaultPlan::new(1).with_crash(3, 10, Some(14)).with_crash(5, 20, None);
        assert!(!plan.is_noop(), "a crash schedule is not a no-op plan");
        assert_eq!(plan.crash_of(3).unwrap().restart_tick, Some(14));
        assert_eq!(plan.crash_of(5).unwrap().restart_tick, None);
        assert!(plan.crash_of(0).is_none());
        assert_eq!(plan.crashing_nodes(), vec![3, 5]);
    }

    #[test]
    fn decision_stream_is_outcome_independent() {
        // Two plans differing only in jitter must agree on every drop
        // decision: each judge() call consumes a fixed number of draws, so
        // changing one fault class never shifts the others' stream.
        let base = FaultPlan::new(77).with_drop(0.4);
        let mut plain = FaultInjector::new(base.clone());
        let mut jittered = FaultInjector::new(base.with_jitter(SimSpan::from_micros(500)));
        for i in 0..500u64 {
            let at = SimInstant::from_micros(i);
            assert_eq!(plain.judge(0, 1, at).dropped, jittered.judge(0, 1, at).dropped);
        }
    }
}
