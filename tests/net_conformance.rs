//! Sim-vs-socket conformance: the seed-scripted messaging scenario run
//! over the in-memory `SimTransport` and over real UDP loopback sockets
//! must produce identical per-kind meter tallies, the same causal
//! (trace-id-grouped) event sequence and the same number of frames on
//! the carrier. See `bristle::sim::conformance` for the scenario and the
//! normalization rules. (That the net runtime
//! leaves the simulator's golden trace alone is `golden_trace.rs`'s
//! `flight_recorder_trace_matches_golden`.)

use bristle::overlay::obs::Counter;
use bristle::sim::conformance::{run_sim, run_sockets};

fn conformance_at(seed: u64, frames: u64) {
    let sim = run_sim(seed);
    let net = run_sockets(seed);
    assert_eq!(
        sim.tallies, net.tallies,
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
    let (s, n) = (|c| sim.counts.counter(c), |c| net.counts.counter(c));
    assert_eq!((s(Counter::FramesSent), n(Counter::FramesSent)), (frames, frames), "seed {seed}");
    // The premise of the settled-move carve-out: over sockets no send
    // met a stale address, no owed datagram was given up on, nothing was
    // dropped at the boundary, and every frame sent was read.
    for c in [
        Counter::StaleBlackholed,
        Counter::WrittenOff,
        Counter::DroppedOversized,
        Counter::DroppedGarbage,
    ] {
        assert_eq!(n(c), 0, "seed {seed}: socket arm's {}", c.name());
    }
    assert_eq!(n(Counter::DatagramsReceived), frames, "seed {seed}: every frame sent was read");
}

#[test]
fn sim_and_sockets_agree_at_seed_8() {
    conformance_at(8, 63);
}

#[test]
fn sim_and_sockets_agree_at_seed_27() {
    conformance_at(27, 61);
}

/// The tallies are not vacuous: the scenario exercises registration,
/// updates, routes, and the stale-belief recovery through `_discovery`
/// in both arms. (The *timeout* ladder needs a mid-flight move, which
/// conformance scenarios exclude by design — that is the condition
/// under which the sim's arrival-time black-hole and the socket
/// driver's send-time check are equivalent. The socket-side retry
/// ladder is pinned by `bristle-net`'s driver unit tests instead.)
#[test]
fn the_scenario_exercises_the_recovery_paths() {
    use bristle::overlay::meter::MessageKind;
    let sim = run_sim(8);
    let count = |k: MessageKind| {
        sim.tallies.iter().find(|(kind, _, _)| *kind == k).map(|&(_, c, _)| c).unwrap_or(0)
    };
    assert!(count(MessageKind::Register) >= 2, "both watchers register");
    assert!(count(MessageKind::Update) >= 1, "the move is disseminated");
    assert!(count(MessageKind::RouteHop) >= 3, "routes (plus the wasted stale hop) flow");
    assert!(count(MessageKind::DiscoveryHop) >= 1, "recovery goes through _discovery");
    assert_eq!(count(MessageKind::SpuriousRetry), 0, "a clean run wastes no retransmissions");
    assert_eq!(count(MessageKind::MalformedFrame), 0, "clean runs drop nothing at the boundary");
}
