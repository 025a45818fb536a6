//! Sim-vs-socket conformance: the seed-scripted messaging scenario run
//! over the in-memory `SimTransport` and over real UDP loopback sockets
//! must produce identical per-kind meter tallies, the same causal
//! (trace-id-grouped) event sequence, the same number of frames on the
//! carrier, the same frames rejected as sent to a stale address, and
//! the same number of observations in every histogram of the run's one
//! registry. See `bristle::sim::conformance` for the
//! scenario and the normalization rules. (That the net runtime
//! leaves the simulator's golden trace alone is `golden_trace.rs`'s
//! `flight_recorder_trace_matches_golden`.)

use bristle::overlay::obs::{Counter, Hist, Registry};
use bristle::sim::conformance::{run_sim, run_sockets, ConformanceReport};

/// The arm's one registry.
fn registry(arm: &ConformanceReport) -> &Registry {
    arm.telemetry.registry.as_ref().expect("each arm reports its run's registry")
}

fn conformance_at(seed: u64, frames: u64, stale: u64, discoveries: u64) {
    let sim = run_sim(seed);
    let net = run_sockets(seed);
    assert_eq!(
        sim.telemetry.tallies, net.telemetry.tallies,
        "per-kind meter tallies diverge between SimTransport and loopback sockets (seed {seed})"
    );
    // Compare profiles line-by-line so a drift points at the first
    // divergent trace instead of dumping both documents.
    for (i, (s, n)) in sim.profile.lines().zip(net.profile.lines()).enumerate() {
        assert_eq!(s, n, "causal profile diverges at line {} (seed {seed})", i + 1);
    }
    assert_eq!(
        sim.profile.lines().count(),
        net.profile.lines().count(),
        "causal profile length diverges (seed {seed})"
    );
    // The acks too, which no tally meters: both carriers move the same
    // frames.
    let (s, n) = (|c| registry(&sim).counter(c), |c| registry(&net).counter(c));
    assert_eq!((s(Counter::FramesSent), n(Counter::FramesSent)), (frames, frames), "seed {seed}");
    // The moves in flight: every copy sent to the moved target's old
    // address, and the ack sent to the moved origin's, was carried and
    // rejected by the machine it reached, alike on both carriers.
    let rejected = (s(Counter::StaleBlackholed), n(Counter::StaleBlackholed));
    assert_eq!(rejected, (stale, stale), "seed {seed}");
    // Over sockets no owed datagram was given up on, nothing was
    // dropped at the boundary, and every frame sent was read.
    for c in [Counter::WrittenOff, Counter::DroppedOversized, Counter::DroppedGarbage] {
        assert_eq!(n(c), 0, "seed {seed}: socket arm's {}", c.name());
    }
    assert_eq!(n(Counter::DatagramsReceived), frames, "seed {seed}: every frame sent was read");
    // Each arm's one registry holds its whole run: every histogram
    // counts alike over both carriers, and none the script exercises
    // is empty.
    let counts = |arm| Hist::ALL.map(|h| registry(arm).histogram(h).count());
    assert_eq!(counts(&sim), counts(&net), "seed {seed}: {:?}", Hist::ALL.map(Hist::name));
    let exercised = [(Hist::Route, 5), (Hist::Discovery, discoveries), (Hist::Dissemination, 1)];
    for (h, count) in exercised {
        assert_eq!(registry(&net).histogram(h).count(), count, "seed {seed}: {}", h.name());
    }
}

/// Five copies rejected: the four sends of the hop to the target that
/// moved, and the ack to the origin that moved.
#[test]
fn sim_and_sockets_agree_at_seed_8() {
    conformance_at(8, 81, 5, 3);
}

#[test]
fn sim_and_sockets_agree_at_seed_27() {
    conformance_at(27, 76, 5, 5);
}

/// The tallies are not vacuous: the scenario exercises registration,
/// updates, routes, the stale-belief recovery through `_discovery`, and
/// both moves in flight — the hop to a moved target timing out into a
/// `_discovery`, and the hop from a moved origin retransmitted once to a
/// node that had processed it — in both arms.
#[test]
fn the_scenario_exercises_the_recovery_paths() {
    use bristle::overlay::meter::MessageKind;
    let sim = run_sim(8);
    let count = |k: MessageKind| {
        let tallies = &sim.telemetry.tallies;
        tallies.iter().find(|(kind, _, _)| *kind == k).map(|&(_, c, _)| c).unwrap_or(0)
    };
    assert!(count(MessageKind::Register) >= 2, "both watchers register");
    assert!(count(MessageKind::Update) >= 1, "the move is disseminated");
    assert!(count(MessageKind::RouteHop) >= 3, "routes (plus the wasted stale hop) flow");
    assert!(count(MessageKind::DiscoveryHop) >= 1, "recovery goes through _discovery");
    assert!(count(MessageKind::Timeout) >= 4, "the hop to the moved target times out");
    assert!(count(MessageKind::DiscoveryRetry) >= 1, "and falls back to _discovery");
    assert_eq!(count(MessageKind::SpuriousRetry), 1, "only the moved origin's retransmission");
    assert_eq!(count(MessageKind::MalformedFrame), 0, "clean runs drop nothing at the boundary");
}
