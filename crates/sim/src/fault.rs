//! Protocol-aware fault injection: the FaultPlan DSL.
//!
//! The churn and network models ([`crate::churn`], [`crate::network`])
//! inject faults *blindly*: a Bernoulli crash or a uniform drop does not
//! know whether it hit a heartbeat or the one partial result a combiner
//! was waiting for. Edge failure modes, however, are adversarially
//! *timed* — a node dying exactly at a hand-off hurts far more than a
//! random crash. A [`FaultPlan`] closes that gap: composable rules that
//! target faults by **protocol position** ("drop the first
//! `GroupingPartial`", "crash the builder the instant its quota is
//! met"), evaluated deterministically inside the engine.
//!
//! The simulator stays protocol-agnostic: it cannot decode
//! `edgelet-exec` messages itself (the crate dependency points the other
//! way). Instead the harness installs a [`Classifier`] — a closure that
//! maps raw payload bytes to a numeric message kind — via
//! [`crate::Simulation::set_classifier`]. Rules that match on
//! [`MsgMatch::kinds`] only fire when the classifier recognises the
//! payload; sealed (encrypted) payloads classify as `None` and never
//! match a kind-restricted rule.
//!
//! ## Match points
//!
//! Every action has a fixed evaluation point:
//!
//! * **Send** — evaluated in `route()` when a message leaves the sender,
//!   *before* the network fate roll: [`FaultAction::Drop`],
//!   [`FaultAction::Delay`], [`FaultAction::Duplicate`],
//!   [`FaultAction::Reorder`], [`FaultAction::CrashSender`].
//! * **Deliver** — evaluated when a message reaches a live receiver,
//!   *before* the actor processes it: [`FaultAction::CrashReceiver`].
//!   The triggering message is consumed by the crash — the harshest
//!   possible timing for a hand-off.
//!
//! Rules are evaluated in plan order; the first rule that *fires*
//! (matches and is within its `skip`/`limit` window) wins for that
//! message. Rules that match but are skipped still advance their
//! occurrence counters, which is what makes "the third partial" an
//! expressible target.

use crate::time::{Duration, SimTime};
use edgelet_util::ids::DeviceId;

/// Maps raw payload bytes to a protocol message kind.
///
/// Installed with [`crate::Simulation::set_classifier`]. Returning
/// `None` means "unclassifiable" (e.g. an encrypted payload); such
/// messages never match a kind-restricted rule but still match rules
/// with `kinds: None`.
pub type Classifier = Box<dyn Fn(&[u8]) -> Option<u16> + Send + Sync>;

/// Discriminant of a fault action, kept in trace records so oracles can
/// tell what was injected without storing the full rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Message silently discarded.
    Drop,
    /// Message held back by an extra latency.
    Delay,
    /// Message delivered twice.
    Duplicate,
    /// Message swapped with the next rule match.
    Reorder,
    /// Sender crash-stopped right after the send.
    CrashSender,
    /// Receiver crash-stopped at the moment of delivery.
    CrashReceiver,
}

impl FaultKind {
    /// Stable numeric code (used by the trace digest).
    pub fn code(self) -> u8 {
        match self {
            FaultKind::Drop => 0,
            FaultKind::Delay => 1,
            FaultKind::Duplicate => 2,
            FaultKind::Reorder => 3,
            FaultKind::CrashSender => 4,
            FaultKind::CrashReceiver => 5,
        }
    }

    /// Short lowercase name (used by the corpus serialisation).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::CrashSender => "crash-sender",
            FaultKind::CrashReceiver => "crash-receiver",
        }
    }
}

/// Where in the message lifecycle a rule is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchPoint {
    /// At `route()` time, before the network fate roll.
    Send,
    /// At delivery to a live receiver, before the actor runs.
    Deliver,
}

/// Why a device crash-stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashCause {
    /// A scheduled [`crate::CrashPlan`] or an explicit `crash_at` —
    /// the pre-existing, "organic" churn model.
    Organic,
    /// A [`FaultRule`] fired (index into the plan's rule list).
    Injected {
        /// Index of the firing rule within the [`FaultPlan`].
        rule: u32,
    },
}

/// Predicate over a message in flight.
///
/// All populated fields must hold for the matcher to accept. An empty
/// matcher (`MsgMatch::default()`) accepts every message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MsgMatch {
    /// Accept only these protocol kinds (as reported by the installed
    /// classifier). `None` = any kind, including unclassifiable.
    pub kinds: Option<Vec<u16>>,
    /// Accept only these senders. `None` = any sender.
    pub from: Option<Vec<DeviceId>>,
    /// Accept only these receivers. `None` = any receiver.
    pub to: Option<Vec<DeviceId>>,
    /// Accept only at or after this virtual time.
    pub after: Option<SimTime>,
    /// Accept only strictly before this virtual time.
    pub until: Option<SimTime>,
}

impl MsgMatch {
    /// Does this matcher accept a message of `kind` from `from` to `to`
    /// at virtual time `now`?
    pub fn accepts(&self, kind: Option<u16>, from: DeviceId, to: DeviceId, now: SimTime) -> bool {
        if let Some(kinds) = &self.kinds {
            match kind {
                Some(k) if kinds.contains(&k) => {}
                _ => return false,
            }
        }
        if let Some(senders) = &self.from {
            if !senders.contains(&from) {
                return false;
            }
        }
        if let Some(receivers) = &self.to {
            if !receivers.contains(&to) {
                return false;
            }
        }
        if let Some(after) = self.after {
            if now < after {
                return false;
            }
        }
        if let Some(until) = self.until {
            if now >= until {
                return false;
            }
        }
        true
    }
}

/// What to do with a matched message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Discard the message (no network fate roll, no `Sent` record).
    Drop,
    /// Add this much latency on top of the network model's draw.
    Delay(Duration),
    /// Deliver the message twice; the copy is delayed by `extra_delay`
    /// on top of its own (independently drawn) network latency.
    Duplicate {
        /// Additional latency applied to the duplicated copy.
        extra_delay: Duration,
    },
    /// Hold the message until the *next* message matched by this rule,
    /// then release both in swapped order. If no second match ever
    /// arrives, the held message behaves as dropped (documented
    /// limitation; deterministic either way).
    Reorder,
    /// Let the send proceed, then crash-stop the sender once its
    /// current actor callback finishes.
    CrashSender,
    /// Crash-stop the receiver at the instant of delivery; the
    /// triggering message is consumed by the crash.
    CrashReceiver,
}

impl FaultAction {
    /// The action's discriminant.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultAction::Drop => FaultKind::Drop,
            FaultAction::Delay(_) => FaultKind::Delay,
            FaultAction::Duplicate { .. } => FaultKind::Duplicate,
            FaultAction::Reorder => FaultKind::Reorder,
            FaultAction::CrashSender => FaultKind::CrashSender,
            FaultAction::CrashReceiver => FaultKind::CrashReceiver,
        }
    }

    /// Where this action is evaluated.
    pub fn match_point(&self) -> MatchPoint {
        match self {
            FaultAction::CrashReceiver => MatchPoint::Deliver,
            _ => MatchPoint::Send,
        }
    }
}

/// One composable fault rule: a matcher, an action, and an occurrence
/// window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Which messages this rule considers.
    pub matcher: MsgMatch,
    /// What happens to a matched message.
    pub action: FaultAction,
    /// Skip the first `skip` matches (0 = fire from the first match).
    pub skip: u64,
    /// Fire at most this many times (`None` = unbounded).
    pub limit: Option<u64>,
}

impl FaultRule {
    /// A rule that applies `action` to every match, starting at the
    /// first.
    pub fn new(action: FaultAction) -> Self {
        FaultRule {
            matcher: MsgMatch::default(),
            action,
            skip: 0,
            limit: None,
        }
    }

    /// Restrict to the given protocol kinds.
    pub fn on_kinds(mut self, kinds: &[u16]) -> Self {
        self.matcher.kinds = Some(kinds.to_vec());
        self
    }

    /// Restrict to the given senders.
    pub fn from(mut self, senders: &[DeviceId]) -> Self {
        self.matcher.from = Some(senders.to_vec());
        self
    }

    /// Restrict to the given receivers.
    pub fn to(mut self, receivers: &[DeviceId]) -> Self {
        self.matcher.to = Some(receivers.to_vec());
        self
    }

    /// Skip the first `n` matches.
    pub fn skip(mut self, n: u64) -> Self {
        self.skip = n;
        self
    }

    /// Fire at most `n` times.
    pub fn limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Only fire at or after `t`.
    pub fn after(mut self, t: SimTime) -> Self {
        self.matcher.after = Some(t);
        self
    }

    /// Only fire strictly before `t`.
    pub fn until(mut self, t: SimTime) -> Self {
        self.matcher.until = Some(t);
        self
    }
}

/// An ordered set of fault rules, evaluated first-firing-rule-wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Rules in evaluation order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append a rule (builder style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Append a bidirectional network partition between device groups
    /// `a` and `b` over `[after, until)`: two `Drop` rules covering
    /// both directions of the cut.
    pub fn partition(
        mut self,
        a: &[DeviceId],
        b: &[DeviceId],
        after: SimTime,
        until: SimTime,
    ) -> Self {
        let cut = |from: &[DeviceId], to: &[DeviceId]| FaultRule {
            matcher: MsgMatch {
                kinds: None,
                from: Some(from.to_vec()),
                to: Some(to.to_vec()),
                after: Some(after),
                until: Some(until),
            },
            action: FaultAction::Drop,
            skip: 0,
            limit: None,
        };
        self.rules.push(cut(a, b));
        self.rules.push(cut(b, a));
        self
    }

    /// True when the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// True when every rule's firing decision is a pure function of the
    /// message itself (matcher fields only) — i.e. no rule carries
    /// cross-message state. `skip`/`limit` depend on global occurrence
    /// counters and [`FaultAction::Reorder`] holds a message between
    /// matches, so plans using them must run on the global-order
    /// (sequential) executor; everything else is safe under windowed
    /// sharded execution with per-window counters.
    pub fn is_window_safe(&self) -> bool {
        self.rules
            .iter()
            .all(|r| r.skip == 0 && r.limit.is_none() && !matches!(r.action, FaultAction::Reorder))
    }
}

/// A message held back by a [`FaultAction::Reorder`] rule.
///
/// The resend's network fate, latency, and event sequence number are
/// drawn at *stash* time, while the sender's shard is the executing
/// shard: the eventual swap runs on whichever shard the rule's next
/// match executes on, which must never touch the original sender's
/// per-device state.
#[derive(Debug)]
pub(crate) struct HeldMsg {
    pub from: DeviceId,
    pub to: DeviceId,
    pub payload: edgelet_util::payload::Payload,
    pub sent_at: SimTime,
    /// Pre-drawn network fate for the resend.
    pub fate: crate::network::Fate,
    /// Pre-drawn network latency for the resend.
    pub latency: crate::time::Duration,
    /// Pre-assigned spawn sequence number (from the sender's counter).
    pub seq: u64,
}

/// Per-rule occurrence counters: matches seen (including skipped) and
/// actual firings.
///
/// Counters are plain sums, so partial per-window counters from sharded
/// execution merge commutatively into the run totals. Rules whose firing
/// decision *reads* the counters (`skip`/`limit`) force the sequential
/// executor — see [`FaultPlan::is_window_safe`].
#[derive(Debug, Default, Clone)]
pub struct FaultCounters {
    /// Matches seen per rule at its match point (including skipped).
    pub matched: Vec<u64>,
    /// Times each rule actually fired.
    pub fired: Vec<u64>,
}

impl FaultCounters {
    /// Fresh zeroed counters sized for every rule in `plan`.
    pub fn for_plan(plan: &FaultPlan) -> Self {
        let n = plan.rules.len();
        FaultCounters {
            matched: vec![0; n],
            fired: vec![0; n],
        }
    }

    /// Zeroes the counters in place (scratch reuse across windows).
    ///
    /// Without a plan both `Vec`s are empty and never allocated, and
    /// `fill` on one is not free: it lowers to a zero-length `memset` at
    /// the dangling pointer, which glibc's EVEX `memset` executes as a
    /// fully masked store to an unmapped page — a microcode assist of
    /// ~100 ns, once per window (8.6 % of `sim_polling_churn`).
    pub fn reset(&mut self) {
        if self.matched.is_empty() {
            return;
        }
        self.matched.fill(0);
        self.fired.fill(0);
    }

    /// Folds per-window partial counters into the run totals.
    pub fn merge(&mut self, other: &FaultCounters) {
        for (a, b) in self.matched.iter_mut().zip(&other.matched) {
            *a += b;
        }
        for (a, b) in self.fired.iter_mut().zip(&other.fired) {
            *a += b;
        }
    }

    /// Total number of rule firings so far.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }
}

/// Evaluate all rules of `plan` bound to `point` against a message,
/// advancing the occurrence counters in `counters`; returns the first
/// firing rule's index and action.
///
/// Public so out-of-crate fault carriers (the socket relay's
/// `NetFaultProxy` in `edgelet-net`) evaluate the same DSL with the
/// same first-firing-rule-wins semantics as the engine. For
/// [window-safe](FaultPlan::is_window_safe) plans the firing decision
/// never reads the counters, so callers may keep per-connection
/// counters and still decide identically regardless of arrival order.
pub fn evaluate_plan(
    plan: &FaultPlan,
    counters: &mut FaultCounters,
    point: MatchPoint,
    kind: Option<u16>,
    from: DeviceId,
    to: DeviceId,
    now: SimTime,
) -> Option<(u32, FaultAction)> {
    for (i, rule) in plan.rules.iter().enumerate() {
        if rule.action.match_point() != point {
            continue;
        }
        if !rule.matcher.accepts(kind, from, to, now) {
            continue;
        }
        counters.matched[i] += 1;
        let occurrence = counters.matched[i];
        if occurrence <= rule.skip {
            continue;
        }
        if let Some(limit) = rule.limit {
            if occurrence > rule.skip + limit {
                continue;
            }
        }
        counters.fired[i] += 1;
        return Some((i as u32, rule.action.clone()));
    }
    None
}

/// Engine-side evaluation state for a [`FaultPlan`]: per-rule
/// occurrence counters. Retained as a convenience bundle for
/// single-threaded callers; the engine itself holds the plan, counters
/// and reorder stashes as separate fields.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct FaultRuntime {
    pub plan: FaultPlan,
    counters: FaultCounters,
}

#[cfg(test)]
impl FaultRuntime {
    pub fn new(plan: FaultPlan) -> Self {
        let counters = FaultCounters::for_plan(&plan);
        FaultRuntime { plan, counters }
    }

    /// Evaluate all rules bound to `point` against a message; returns
    /// the first firing rule's index and action.
    pub fn evaluate(
        &mut self,
        point: MatchPoint,
        kind: Option<u16>,
        from: DeviceId,
        to: DeviceId,
        now: SimTime,
    ) -> Option<(u32, FaultAction)> {
        evaluate_plan(&self.plan, &mut self.counters, point, kind, from, to, now)
    }

    /// Total number of rule firings so far.
    pub fn total_fired(&self) -> u64 {
        self.counters.total_fired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u64) -> DeviceId {
        DeviceId::new(i)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1_000)
    }

    #[test]
    fn empty_matcher_accepts_everything() {
        let m = MsgMatch::default();
        assert!(m.accepts(None, d(0), d(1), SimTime::ZERO));
        assert!(m.accepts(Some(4), d(7), d(7), t(u64::MAX / 2_000)));
    }

    #[test]
    fn kind_restricted_matcher_rejects_unclassifiable() {
        let m = MsgMatch {
            kinds: Some(vec![4]),
            ..MsgMatch::default()
        };
        assert!(m.accepts(Some(4), d(0), d(1), SimTime::ZERO));
        assert!(!m.accepts(Some(5), d(0), d(1), SimTime::ZERO));
        assert!(
            !m.accepts(None, d(0), d(1), SimTime::ZERO),
            "sealed payloads never match kinds"
        );
    }

    #[test]
    fn time_window_is_half_open() {
        let m = MsgMatch {
            after: Some(t(10_000)),
            until: Some(t(20_000)),
            ..MsgMatch::default()
        };
        assert!(!m.accepts(None, d(0), d(1), t(9_999)));
        assert!(m.accepts(None, d(0), d(1), t(10_000)));
        assert!(m.accepts(None, d(0), d(1), t(19_999)));
        assert!(!m.accepts(None, d(0), d(1), t(20_000)));
    }

    #[test]
    fn skip_and_limit_select_an_occurrence_window() {
        let plan = FaultPlan::new().rule(FaultRule::new(FaultAction::Drop).skip(1).limit(2));
        let mut rt = FaultRuntime::new(plan);
        let fire = |rt: &mut FaultRuntime| {
            rt.evaluate(MatchPoint::Send, None, d(0), d(1), SimTime::ZERO)
                .is_some()
        };
        assert!(!fire(&mut rt), "first match skipped");
        assert!(fire(&mut rt), "second fires");
        assert!(fire(&mut rt), "third fires");
        assert!(!fire(&mut rt), "limit exhausted");
        assert_eq!(rt.total_fired(), 2);
    }

    #[test]
    fn first_firing_rule_wins_but_skipped_rules_still_count() {
        let plan = FaultPlan::new()
            .rule(FaultRule::new(FaultAction::Drop).skip(1))
            .rule(FaultRule::new(FaultAction::Delay(Duration::from_secs(1))));
        let mut rt = FaultRuntime::new(plan);
        // First message: rule 0 matches but is in its skip window, so
        // rule 1 fires.
        let (idx, action) = rt
            .evaluate(MatchPoint::Send, None, d(0), d(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(idx, 1);
        assert_eq!(action.kind(), FaultKind::Delay);
        // Second message: rule 0 is past its skip window and wins.
        let (idx, action) = rt
            .evaluate(MatchPoint::Send, None, d(0), d(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(action.kind(), FaultKind::Drop);
    }

    #[test]
    fn window_safety_flags_stateful_rules() {
        assert!(FaultPlan::new().is_window_safe(), "empty plan is safe");
        let stateless = FaultPlan::new()
            .rule(FaultRule::new(FaultAction::Drop).on_kinds(&[3]))
            .rule(FaultRule::new(FaultAction::CrashSender).from(&[d(1)]))
            .partition(&[d(1)], &[d(2)], SimTime::ZERO, t(1_000));
        assert!(stateless.is_window_safe());
        let with_skip = FaultPlan::new().rule(FaultRule::new(FaultAction::Drop).skip(1));
        assert!(!with_skip.is_window_safe());
        let with_limit = FaultPlan::new().rule(FaultRule::new(FaultAction::Drop).limit(3));
        assert!(!with_limit.is_window_safe());
        let with_reorder = FaultPlan::new().rule(FaultRule::new(FaultAction::Reorder));
        assert!(!with_reorder.is_window_safe());
    }

    #[test]
    fn partition_builds_a_symmetric_cut() {
        let plan = FaultPlan::new().partition(&[d(1), d(2)], &[d(3)], SimTime::ZERO, t(60_000));
        assert_eq!(plan.rules.len(), 2);
        let mut rt = FaultRuntime::new(plan);
        let mid = t(5_000);
        assert!(rt
            .evaluate(MatchPoint::Send, None, d(1), d(3), mid)
            .is_some());
        assert!(rt
            .evaluate(MatchPoint::Send, None, d(3), d(2), mid)
            .is_some());
        assert!(
            rt.evaluate(MatchPoint::Send, None, d(1), d(2), mid)
                .is_none(),
            "within group A"
        );
        let late = t(61_000);
        assert!(
            rt.evaluate(MatchPoint::Send, None, d(1), d(3), late)
                .is_none(),
            "window closed"
        );
    }
}
