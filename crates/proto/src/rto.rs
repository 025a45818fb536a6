//! Retry timing: the fixed [`RetryPolicy`] ladder, the adaptive
//! Jacobson/Karn RTT estimator, and `Timers`, the one owner that
//! decides which of the two arms a machine's next wait.
//!
//! The fixed [`RetryPolicy`] timeouts treat
//! every peer as equally far away, so a slow-but-alive peer looks exactly
//! like a dead one. `RtoEstimator` tracks one peer's round-trip time on
//! the virtual clock with the classic TCP fixed-point recurrences
//!
//! ```text
//! srtt   ← 7/8·srtt + 1/8·rtt
//! rttvar ← 3/4·rttvar + 1/4·|srtt − rtt|
//! rto    = clamp(srtt + 4·rttvar, min_rto, max_rto) · 2^backoff
//! ```
//!
//! with the fractions carried as scaled integers (`srtt × 8`,
//! `rttvar × 4`) so there is no floating point anywhere near protocol
//! state. Karn's rule is enforced at the sampling API: an ack that
//! answers a retransmitted frame is ambiguous (which copy did it
//! answer?) and must not enter the estimator. Because a too-short RTO
//! retransmits *every* frame before its first ack lands — starving the
//! estimator of unambiguous samples forever — timeouts inflate the RTO
//! with Karn's exponential backoff until one fresh attempt-zero sample
//! gets through, which collapses the backoff again. An estimator starts
//! at the policy timeout it replaces and adapts within bounds scaled
//! from it, so the policy is the one source of every wait.
//!
//! The jitter is deterministic: a wrapping-multiply hash of a
//! caller-provided salt and an internal draw counter, so two machines
//! never synchronise their retransmissions yet the whole schedule is a
//! pure function of the seed.

use std::collections::HashMap;

use bristle_overlay::key::Key;

/// Largest wait any backed-off timer may reach. Far above every sane
/// schedule (2³² ticks), yet small enough that `base << attempt` can
/// never overflow into a zero or absurd wait.
const MAX_BACKOFF: u64 = 1 << 32;

/// Exponential backoff `base << attempt`, saturating and clamped to
/// [`MAX_BACKOFF`] so deep retry chains and adversarial attempt counts
/// cannot shift the wait past any sane bound (or overflow `u64`).
fn backoff(base: u64, attempt: u32) -> u64 {
    match 1u64.checked_shl(attempt) {
        Some(factor) => base.saturating_mul(factor).min(MAX_BACKOFF),
        None => MAX_BACKOFF,
    }
}

/// How a node retries unacknowledged sends.
///
/// Hop forwards, updates and registrations await an ack for
/// `ack_timeout` ticks; discoveries are retried end-to-end after
/// `discovery_timeout`. Both back off exponentially: attempt `k` waits
/// `timeout << k`. After `max_attempts` sends the operation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Ticks to wait for a HopAck / UpdateAck / RegisterAck.
    pub ack_timeout: u64,
    /// Ticks to wait for a DiscoveryReply before re-issuing.
    pub discovery_timeout: u64,
    /// Total send attempts (first try included) before giving up.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Generous relative to simulated link latencies so a loss-free
        // transport never triggers a spurious (parity-breaking) retry.
        RetryPolicy { ack_timeout: 20_000, discovery_timeout: 100_000, max_attempts: 4 }
    }
}

/// Bounds and initial value for the adaptive retransmission timeout,
/// all scaled from one fixed timeout of the [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RtoConfig {
    /// Floor for the computed RTO (virtual-clock ticks).
    min_rto: u64,
    /// Ceiling for the computed RTO, backoff and jitter included.
    max_rto: u64,
    /// RTO used before the first RTT sample arrives.
    initial_rto: u64,
}

/// Jitter amplitude in 1/256ths of the computed RTO. The jitter is always
/// additive, so the clamped floor still holds.
const JITTER_FRAC: u64 = 8;

impl RtoConfig {
    /// Starts at the fixed timeout `t` and adapts within
    /// `[t / 10, ceiling · t]`: at the default policy 2 000 / 640 000 /
    /// 20 000 ticks for acks (`ceiling` 32) and 10 000 / 1 600 000 /
    /// 100 000 for discovery round trips (`ceiling` 16).
    pub(crate) fn scaled(t: u64, ceiling: u64) -> Self {
        RtoConfig { min_rto: t / 10, max_rto: t.saturating_mul(ceiling), initial_rto: t }
    }
}

/// Ceiling of an ack wait, in multiples of the fixed ack timeout.
const ACK_CEILING: u64 = 32;
/// Ceiling of a discovery wait, in multiples of the fixed discovery
/// timeout: its round trips span several hops, so it starts higher and
/// adapts in a narrower multiple.
const DISCOVERY_CEILING: u64 = 16;

/// Per-peer Jacobson/Karn RTT estimator (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RtoEstimator {
    cfg: RtoConfig,
    /// Smoothed RTT × 8; meaningless until `samples > 0`.
    srtt8: u64,
    /// RTT variance × 4; meaningless until `samples > 0`.
    rttvar4: u64,
    /// Unambiguous samples folded in so far.
    samples: u64,
    /// Karn backoff: doublings applied after timeouts, cleared by the
    /// next fresh sample.
    backoff: u32,
    /// Jitter draw counter (advances once per [`jittered_rto`] call).
    ///
    /// [`jittered_rto`]: RtoEstimator::jittered_rto
    draws: u64,
}

/// Backoff doublings are capped here; `max_rto` clamps the result anyway,
/// so deeper shifts could only overflow, never wait longer.
const MAX_BACKOFF_SHIFT: u32 = 16;

impl RtoEstimator {
    /// A fresh estimator with no samples: `rto()` is `initial_rto`.
    pub fn new(cfg: RtoConfig) -> Self {
        RtoEstimator { cfg, srtt8: 0, rttvar4: 0, samples: 0, backoff: 0, draws: 0 }
    }

    /// Folds one *unambiguous* RTT sample in and collapses any Karn
    /// backoff. Callers must respect Karn's rule — see [`karn_sample`].
    ///
    /// [`karn_sample`]: RtoEstimator::karn_sample
    pub fn sample(&mut self, rtt: u64) {
        if self.samples == 0 {
            // First sample: srtt = rtt, rttvar = rtt / 2 (RFC 6298 §2.2).
            self.srtt8 = rtt.saturating_mul(8);
            self.rttvar4 = rtt.saturating_mul(2);
        } else {
            let err = (self.srtt8 / 8).abs_diff(rtt);
            // rttvar ← 3/4·rttvar + 1/4·err, carried as rttvar × 4.
            self.rttvar4 = self.rttvar4 - self.rttvar4 / 4 + err;
            // srtt ← 7/8·srtt + 1/8·rtt, carried as srtt × 8.
            self.srtt8 = self.srtt8 - self.srtt8 / 8 + rtt;
        }
        self.samples += 1;
        self.backoff = 0;
    }

    /// Karn's rule at the API: folds the sample in only when the frame
    /// was never retransmitted (`attempt == 0`). Returns whether the
    /// sample was taken.
    pub fn karn_sample(&mut self, attempt: u32, rtt: u64) -> bool {
        if attempt == 0 {
            self.sample(rtt);
            true
        } else {
            false
        }
    }

    /// A timer fired without the awaited ack: double the RTO (Karn
    /// backoff) until a fresh sample collapses it.
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(MAX_BACKOFF_SHIFT);
    }

    /// The current retransmission timeout:
    /// `clamp(srtt + 4·rttvar, min, max) · 2^backoff`, clamped again so
    /// backoff never escapes `max_rto`.
    pub fn rto(&self) -> u64 {
        let raw = if self.samples == 0 {
            self.cfg.initial_rto
        } else {
            (self.srtt8 / 8).saturating_add(self.rttvar4)
        };
        let base = raw.clamp(self.cfg.min_rto, self.cfg.max_rto);
        match base.checked_shl(self.backoff) {
            Some(shifted) if self.backoff < 64 => shifted.min(self.cfg.max_rto),
            _ => self.cfg.max_rto,
        }
    }

    /// [`rto`](RtoEstimator::rto) plus deterministic additive jitter in
    /// `[0, rto / 256 · JITTER_FRAC]`, hashed from `salt` and an
    /// internal draw counter (no RNG; reproducible per seed).
    pub fn jittered_rto(&mut self, salt: u64) -> u64 {
        let rto = self.rto();
        let h = splitmix(salt ^ self.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.draws += 1;
        let span = rto / 256 * JITTER_FRAC;
        rto.saturating_add(h % (span + 1)).min(self.cfg.max_rto)
    }
}

/// Timer jitter hashes its draw counter through the crate's shared
/// [`splitmix64`] finalizer (one copy, pinned outputs).
use crate::mix::splitmix64 as splitmix;

/// What a wait is armed for — the three things a machine awaits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Awaited {
    /// `peer`'s ack of a hop, an update or a registration.
    Ack(Key),
    /// `peer`'s answer to a heartbeat probe, awaited like an ack.
    Probe(Key),
    /// A `_discovery` reply: several hops, no single peer.
    Discovery,
}

/// One machine's retry timing: the only place that knows whether a wait
/// comes off the fixed [`RetryPolicy`] ladder or from adaptive
/// Jacobson/Karn estimation.
#[derive(Debug)]
pub(crate) struct Timers {
    policy: RetryPolicy,
    /// `Some` switches every wait from the fixed ladder to estimation.
    /// Boxed, so a machine on fixed timers — the default — pays one
    /// pointer for the arm, not its 144 B.
    adaptive: Option<Box<Adaptive>>,
}

/// The adaptive arm's state; none of it exists on fixed timers.
#[derive(Debug)]
struct Adaptive {
    /// The owning node, half of every jitter salt.
    node: Key,
    cfg: RtoConfig,
    /// Per-peer estimators, shared by the ack and the probe path.
    peers: HashMap<Key, RtoEstimator>,
    /// One estimator for discovery round-trips, which span several
    /// hops and have no single peer to attribute the latency to;
    /// seeded from the fixed discovery timeout.
    discovery: RtoEstimator,
}

impl Adaptive {
    /// The estimator behind `what` and the salt that jitters its waits.
    fn estimator(&mut self, what: Awaited) -> (&mut RtoEstimator, u64) {
        let (peer, probe_salt) = match what {
            Awaited::Discovery => return (&mut self.discovery, self.node.0),
            Awaited::Ack(peer) => (peer, 0),
            Awaited::Probe(peer) => (peer, 0xB5),
        };
        let est = self.peers.entry(peer).or_insert_with(|| RtoEstimator::new(self.cfg));
        (est, self.node.0 ^ peer.0.rotate_left(32) ^ probe_salt)
    }
}

impl Timers {
    /// Fixed timers under `policy`.
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        Timers { policy, adaptive: None }
    }

    /// Switches the machine of `node` to adaptive estimation (`true`) or
    /// back to the fixed ladder. Every estimator starts at its fixed
    /// timeout and adapts within bounds scaled from it
    /// ([`RtoConfig::scaled`]). Estimator state does not survive the
    /// switch.
    pub(crate) fn set_adaptive(&mut self, node: Key, on: bool) {
        let RetryPolicy { ack_timeout, discovery_timeout, .. } = self.policy;
        self.adaptive = on.then(|| {
            Box::new(Adaptive {
                node,
                cfg: RtoConfig::scaled(ack_timeout, ACK_CEILING),
                peers: HashMap::new(),
                discovery: RtoEstimator::new(RtoConfig::scaled(
                    discovery_timeout,
                    DISCOVERY_CEILING,
                )),
            })
        });
    }

    /// The (unjittered, un-backed-off) RTO estimate for `peer`, once
    /// adaptive mode has collected at least one sample.
    pub(crate) fn estimate(&self, peer: Key) -> Option<u64> {
        let est = self.adaptive.as_ref()?.peers.get(&peer)?;
        (est.samples > 0).then(|| est.rto())
    }

    /// Total sends (first try included) before an exchange gives up.
    pub(crate) fn max_attempts(&self) -> u32 {
        self.policy.max_attempts
    }

    /// An upper bound on how long a reliable frame's sender spends on
    /// it, first send to giving up: the ack waits `ack_timeout << k` for
    /// `k < max_attempts` (clamped or not) sum to less than
    /// `ack_timeout << max_attempts`; under adaptive RTO no jittered or
    /// backed-off wait exceeds `max_rto`.
    pub(crate) fn ladder(&self) -> u64 {
        match &self.adaptive {
            Some(a) => a.cfg.max_rto.saturating_mul(u64::from(self.policy.max_attempts)),
            None => 1u64
                .checked_shl(self.policy.max_attempts)
                .map_or(u64::MAX, |factor| self.policy.ack_timeout.saturating_mul(factor)),
        }
    }

    /// The fixed arm's base wait for `what`.
    fn fixed(&self, what: Awaited) -> u64 {
        match what {
            Awaited::Ack(_) | Awaited::Probe(_) => self.policy.ack_timeout,
            Awaited::Discovery => self.policy.discovery_timeout,
        }
    }

    /// The wait armed behind the first transmission for `what`: the
    /// fixed base, or the jittered estimate.
    pub(crate) fn first_wait(&mut self, what: Awaited) -> u64 {
        let Some(a) = self.adaptive.as_mut() else { return self.fixed(what) };
        let (est, salt) = a.estimator(what);
        est.jittered_rto(salt)
    }

    /// The wait re-armed after the window for `what` elapsed, `attempt`
    /// counting the transmission just made: the fixed base shifted by
    /// it, or the estimate after one more Karn doubling (which replaces
    /// the shift).
    pub(crate) fn retry_wait(&mut self, what: Awaited, attempt: u32) -> u64 {
        let Some(a) = self.adaptive.as_mut() else { return backoff(self.fixed(what), attempt) };
        let (est, salt) = a.estimator(what);
        est.on_timeout();
        est.jittered_rto(salt)
    }

    /// Feeds the round-trip of the exchange, discovery or probe `what`
    /// awaited, answered on its `attempt`-th retransmission (adaptive
    /// mode only; Karn's rule drops samples from retransmitted frames).
    pub(crate) fn sample(&mut self, what: Awaited, attempt: u32, rtt: u64) {
        if let Some(a) = self.adaptive.as_mut() {
            a.estimator(what).0.karn_sample(attempt, rtt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(min: u64, max: u64, initial: u64) -> RtoConfig {
        RtoConfig { min_rto: min, max_rto: max, initial_rto: initial }
    }

    #[test]
    fn first_sample_seeds_srtt_and_rttvar() {
        let mut e = RtoEstimator::new(cfg(1, 1_000_000, 20_000));
        assert_eq!(e.rto(), 20_000, "initial RTO before any sample");
        e.sample(1_000);
        assert_eq!((e.samples, e.srtt8 / 8), (1, 1_000));
        // rto = srtt + 4·rttvar = 1000 + 4·500 = 3000.
        assert_eq!(e.rto(), 3_000);
    }

    #[test]
    fn converges_to_a_steady_rtt() {
        let mut e = RtoEstimator::new(cfg(1, 1_000_000, 20_000));
        for _ in 0..64 {
            e.sample(5_000);
        }
        let srtt = e.srtt8 / 8;
        assert!((4_900..=5_000).contains(&srtt), "srtt {srtt} should sit at the sample value");
        // Constant samples drive the variance toward zero, so the RTO
        // collapses toward srtt.
        assert!(e.rto() < 5_500, "rto {} should tighten around a stable RTT", e.rto());
    }

    #[test]
    fn tracks_a_step_up_in_rtt() {
        let mut e = RtoEstimator::new(cfg(1, 1_000_000, 20_000));
        for _ in 0..16 {
            e.sample(2_000);
        }
        // The link degrades 4x; within a handful of samples the RTO must
        // cover the new RTT.
        for _ in 0..8 {
            e.sample(8_000);
        }
        assert!(e.rto() > 8_000, "rto {} must exceed the degraded RTT", e.rto());
    }

    #[test]
    fn karn_rule_skips_retransmitted_samples() {
        let mut e = RtoEstimator::new(cfg(1, 1_000_000, 20_000));
        assert!(e.karn_sample(0, 1_000), "attempt-zero sample is unambiguous");
        let before = (e.srtt8, e.samples);
        assert!(!e.karn_sample(1, 900_000), "retransmitted sample is ambiguous");
        assert!(!e.karn_sample(3, 5), "any nonzero attempt is ambiguous");
        assert_eq!((e.srtt8, e.samples), before, "ambiguous samples must not move the estimate");
    }

    #[test]
    fn clamps_at_both_bounds() {
        let mut low = RtoEstimator::new(cfg(5_000, 100_000, 20_000));
        for _ in 0..32 {
            low.sample(10); // srtt + 4·rttvar far below the floor
        }
        assert_eq!(low.rto(), 5_000, "floor clamp");

        let mut high = RtoEstimator::new(cfg(5_000, 100_000, 20_000));
        high.sample(90_000_000);
        assert_eq!(high.rto(), 100_000, "ceiling clamp");

        let initial = RtoEstimator::new(cfg(5_000, 100_000, 1));
        assert_eq!(initial.rto(), 5_000, "initial RTO is clamped too");
    }

    #[test]
    fn timeout_backoff_doubles_and_a_sample_collapses_it() {
        let mut e = RtoEstimator::new(cfg(1, 1_000_000, 20_000));
        e.sample(1_000); // rto = 3000
        e.on_timeout();
        assert_eq!(e.rto(), 6_000, "one timeout doubles");
        e.on_timeout();
        assert_eq!(e.rto(), 12_000, "two timeouts quadruple");
        e.sample(1_000);
        assert!(e.rto() < 6_000, "a fresh unambiguous sample collapses the backoff");
    }

    #[test]
    fn backoff_saturates_at_the_ceiling() {
        let mut e = RtoEstimator::new(cfg(1, 50_000, 20_000));
        e.sample(1_000);
        for _ in 0..100 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), 50_000, "deep backoff pins to max_rto, no overflow");
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_additive() {
        let mk = || {
            let mut e = RtoEstimator::new(cfg(1, 1_000_000, 20_000));
            e.sample(1_000);
            e
        };
        let (mut a, mut b) = (mk(), mk());
        let draws_a: Vec<u64> = (0..8).map(|_| a.jittered_rto(0xABCD)).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.jittered_rto(0xABCD)).collect();
        assert_eq!(draws_a, draws_b, "same salt, same draw index ⇒ same jitter");
        let rto = a.rto();
        let span = rto / 256 * JITTER_FRAC;
        assert!(span > 0, "a {rto}-tick wait is jittered");
        for d in &draws_a {
            assert!((rto..=rto + span).contains(d), "jitter additive and bounded: {d} vs {rto}");
        }
        assert!(draws_a.windows(2).any(|w| w[0] != w[1]), "successive draws differ");
    }

    #[test]
    fn a_wait_under_256_ticks_is_exact() {
        let mut e = RtoEstimator::new(cfg(1, 1_000_000, 20_000));
        e.sample(10);
        assert_eq!(e.rto(), 30);
        assert_eq!(e.jittered_rto(99), e.rto());
    }

    #[test]
    fn backoff_shifts_saturate_and_clamp() {
        assert_eq!(backoff(100, 0), 100);
        assert_eq!(backoff(100, 1), 200);
        assert_eq!(backoff(100, 3), 800);
        assert_eq!(backoff(100, 60), MAX_BACKOFF, "deep chains hit the ceiling");
        assert_eq!(backoff(100, 64), MAX_BACKOFF, "shift past the word width saturates");
        assert_eq!(backoff(100, u32::MAX), MAX_BACKOFF);
        assert_eq!(backoff(u64::MAX, 1), MAX_BACKOFF, "multiplication never overflows");
        assert_eq!(backoff(0, 7), 0);
    }

    const NODE: Key = Key(7);
    const PEER: Key = Key(0xABCD_0000_0000_0042);

    fn policy() -> RetryPolicy {
        RetryPolicy { ack_timeout: 100, discovery_timeout: 1000, max_attempts: 3 }
    }

    /// Every wait `Timers` hands out, on the fixed arm: the policy's own
    /// numbers, shifted by the attempt and clamped.
    #[test]
    fn fixed_timers_are_the_policy_ladder() {
        let mut timers = Timers::new(policy());
        let probe = Awaited::Probe(PEER);
        assert_eq!(timers.max_attempts(), 3);
        assert_eq!(timers.first_wait(Awaited::Ack(PEER)), 100);
        assert_eq!(timers.first_wait(probe), 100, "a probe waits like an ack");
        assert_eq!(timers.first_wait(Awaited::Discovery), 1000);
        for (attempt, shifted) in [(1, 2), (2, 4), (5, 32)] {
            assert_eq!(timers.retry_wait(Awaited::Ack(PEER), attempt), 100 * shifted);
            assert_eq!(timers.retry_wait(probe, attempt), 100 * shifted);
            assert_eq!(timers.retry_wait(Awaited::Discovery, attempt), 1000 * shifted);
        }
        for deep in [40, 64, u32::MAX] {
            assert_eq!(timers.retry_wait(Awaited::Ack(PEER), deep), MAX_BACKOFF, "attempt {deep}");
            assert_eq!(timers.retry_wait(Awaited::Discovery, deep), MAX_BACKOFF, "attempt {deep}");
        }
        // Nothing is learned on fixed timers.
        timers.sample(Awaited::Ack(PEER), 0, 30);
        timers.sample(probe, 0, 40);
        assert_eq!(timers.estimate(PEER), None);
        assert_eq!(timers.first_wait(Awaited::Ack(PEER)), 100);
        // The ladder bounds 100 + 200 + 400; a shift past the word
        // width has no bound to give.
        assert_eq!(timers.ladder(), 800);
        let endless = RetryPolicy { max_attempts: 64, ..policy() };
        assert_eq!(Timers::new(endless).ladder(), u64::MAX);
    }

    /// On the adaptive arm every wait is an estimator's, started at the
    /// policy's own timeout, held within bounds scaled from it, and
    /// jittered under the salt the machines have always used —
    /// `node ^ peer.rotate_left(32)` for acks, `^ 0xB5` for probes of the
    /// same peer's estimator, the bare node key for discovery — so a
    /// timer schedule (and a report derived from one) cannot drift.
    #[test]
    fn adaptive_timers_keep_the_per_peer_salts_and_karn() {
        // At the default policy the scaled bounds are the constants the
        // adaptive arm has always run under.
        let RetryPolicy { ack_timeout, discovery_timeout, .. } = RetryPolicy::default();
        assert_eq!(RtoConfig::scaled(ack_timeout, ACK_CEILING), cfg(2_000, 640_000, 20_000));
        let discovery = RtoConfig::scaled(discovery_timeout, DISCOVERY_CEILING);
        assert_eq!(discovery, cfg(10_000, 1_600_000, 100_000));

        // Waits past 256 ticks, so every draw is jittered and a wrong
        // salt shows.
        let policy = RetryPolicy { ack_timeout: 1_000, discovery_timeout: 5_000, max_attempts: 3 };
        let (ack, discovery) = (cfg(100, 32_000, 1_000), cfg(500, 80_000, 5_000));
        let mut timers = Timers::new(policy);
        timers.set_adaptive(NODE, true);
        assert_eq!(timers.ladder(), 32_000 * 3);

        let salt = NODE.0 ^ PEER.0.rotate_left(32);
        let probe = Awaited::Probe(PEER);
        let mut peer = RtoEstimator::new(ack);
        let mut jittered = Vec::new();
        let mut check = |got: u64, want: u64, rto: u64| {
            assert_eq!(got, want);
            jittered.push(want > rto);
        };
        check(timers.first_wait(Awaited::Ack(PEER)), peer.jittered_rto(salt), 1_000);
        check(timers.first_wait(probe), peer.jittered_rto(salt ^ 0xB5), 1_000);
        peer.on_timeout();
        check(timers.retry_wait(Awaited::Ack(PEER), 1), peer.jittered_rto(salt), 2_000);
        peer.on_timeout();
        check(timers.retry_wait(probe, 1), peer.jittered_rto(salt ^ 0xB5), 4_000);
        let mut disc = RtoEstimator::new(discovery);
        check(timers.first_wait(Awaited::Discovery), disc.jittered_rto(NODE.0), 5_000);
        disc.on_timeout();
        check(timers.retry_wait(Awaited::Discovery, 1), disc.jittered_rto(NODE.0), 10_000);
        assert!(jittered.iter().filter(|&&j| j).count() >= 4, "jitter drawn: {jittered:?}");

        // Karn, on both paths into the peer's one estimator: the answer
        // to a retransmitted frame or a re-sent probe is no sample, the
        // answer to a first send is.
        timers.sample(Awaited::Ack(PEER), 1, 30);
        timers.sample(probe, 2, 40);
        assert_eq!(timers.estimate(PEER), None);
        timers.sample(probe, 0, 400);
        peer.sample(400);
        assert_eq!(timers.estimate(PEER), Some(peer.rto()));
        assert_eq!(peer.rto(), 1_200, "400 + 4 · 200, inside the bounds");

        // Both bounds hold: a near-instant answer floors at the timeout's
        // tenth, and backoff tops out at its ceiling multiple.
        let mut fast = Timers::new(policy);
        fast.set_adaptive(NODE, true);
        fast.sample(probe, 0, 1);
        assert_eq!(fast.estimate(PEER), Some(100), "floor: 1 000 / 10");
        for attempt in 1..12 {
            fast.retry_wait(Awaited::Ack(PEER), attempt);
            fast.retry_wait(Awaited::Discovery, attempt);
        }
        assert_eq!(fast.retry_wait(Awaited::Ack(PEER), 12), 32_000, "ceiling: 32 · 1 000");
        assert_eq!(fast.retry_wait(Awaited::Discovery, 12), 80_000, "ceiling: 16 · 5 000");

        // Back on the ladder nothing of it is left.
        timers.set_adaptive(NODE, false);
        assert_eq!(timers.first_wait(Awaited::Ack(PEER)), 1_000);
        assert_eq!(timers.ladder(), 8_000);
    }
}
