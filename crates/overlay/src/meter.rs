//! Message and cost accounting.
//!
//! Every protocol operation in the stack reports what it sent through a
//! [`Meter`], so experiments can answer the paper's overhead questions
//! (registrations issued, update messages, discovery traffic, ...) without
//! the protocols knowing which experiment is running.

/// Declares [`MessageKind`] together with everything derived from the
/// variant list ([`KIND_COUNT`], [`ALL_KINDS`], [`MessageKind::name`]), so
/// the variant list is the single source of truth: adding a kind here is
/// the whole change, and a forgotten spot is a compile error rather than a
/// silent miscount.
macro_rules! message_kinds {
    ($( $(#[$doc:meta])* $name:ident, )+) => {
        /// Category of a protocol message, following the paper's vocabulary.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum MessageKind {
            $( $(#[$doc])* $name, )+
        }

        /// Number of [`MessageKind`] variants (derived from the list).
        pub const KIND_COUNT: usize = ALL_KINDS.len();

        /// All message kinds in declaration order, for iteration in reports.
        pub const ALL_KINDS: [MessageKind; [$(MessageKind::$name),+].len()] =
            [$(MessageKind::$name),+];

        impl MessageKind {
            /// The variant's name, for machine-readable reports.
            pub const fn name(self) -> &'static str {
                match self {
                    $( MessageKind::$name => stringify!($name), )+
                }
            }
        }
    };
}

message_kinds! {
    /// One application-level forwarding hop of a route.
    RouteHop,
    /// A `_discovery` query hop in the stationary layer (address resolution).
    DiscoveryHop,
    /// A registration (`register`) from an interested node to a target.
    Register,
    /// A location update pushed along an LDT edge (`update`).
    Update,
    /// A state publication to the location-management layer.
    Publish,
    /// Join-protocol traffic (Fig. 5).
    Join,
    /// Leave notifications.
    Leave,
    /// Periodic state refresh.
    Refresh,
    /// Data replication between replicas.
    Replicate,
    /// A `_discovery` re-issued after the previous attempt timed out
    /// (message-passing mode only; the function-call path never retries).
    DiscoveryRetry,
    /// A protocol timer expiring without the awaited acknowledgement
    /// (counts timeouts, not messages; cost is always zero).
    Timeout,
    /// A failure-detector heartbeat probe (including retransmissions).
    HeartbeatSent,
    /// A monitored peer transitioned into suspicion after missing
    /// heartbeats (counts transitions, not messages; cost is zero).
    SuspectRaised,
    /// A location dissemination tree re-grafted after a member was
    /// confirmed dead (counts repairs, not messages; cost is zero).
    LdtRepair,
    /// A `_discovery` answered by a surviving replica instead of the
    /// record's primary owner (counts failovers, not messages).
    ReplicaFailover,
    /// An `Alive` refutation broadcast by (or on behalf of) a node that
    /// learned it was wrongfully declared dead; each one also asks its
    /// receiver to sponsor the node's rejoin.
    Refutation,
    /// A death verdict reversed by a fresher incarnation (counts
    /// wrongful deaths, not messages; cost is always zero).
    WrongfulDeath,
    /// A frame that failed authentication (missing, mismatched or stale
    /// tag) under any `VerifyPolicy` other than off (counts failures,
    /// not messages; cost is always zero).
    ForgedFrame,
    /// A frame *dropped* for failing authentication under the enforcing
    /// policy — the subset of `ForgedFrame` that never touched state.
    AuthReject,
    /// A retransmission of a frame the destination had already
    /// processed — wasted work caused by a too-short retry timeout
    /// (counts retransmits, not messages; cost is always zero). Both
    /// message drivers read "already processed" from the destination
    /// machine's dedup window, so a copy sent to a node that has since
    /// left or crashed is not counted: nobody processes it.
    SpuriousRetry,
    /// A lookup-class frame shed at a full ingress queue under
    /// overload (counts sheds, not messages; cost is always zero).
    LoadShed,
    /// A datagram dropped at the socket boundary before reaching any
    /// machine: oversized, truncated, or otherwise undecodable bytes
    /// (counts drops, not messages; cost is always zero). Only the real
    /// network driver can produce these — `SimTransport` deliveries are
    /// typed envelopes that never hit the codec.
    MalformedFrame,
}

/// The meter index of a kind is its discriminant; `ALL_KINDS` is in
/// declaration order, so this holds by construction and the compile-time
/// check below pins it.
#[inline]
fn kind_index(k: MessageKind) -> usize {
    k as usize
}

// Compile-time exhaustiveness check: every kind's index is its position in
// ALL_KINDS, i.e. the discriminant-based index covers [0, KIND_COUNT).
const _: () = {
    let mut i = 0;
    while i < KIND_COUNT {
        assert!(ALL_KINDS[i] as usize == i);
        i += 1;
    }
};

/// Tallies message counts and physical path cost by message kind.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    counts: [u64; KIND_COUNT],
    costs: [u64; KIND_COUNT],
}

impl Meter {
    /// A fresh, zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of the given kind with a physical path cost.
    #[inline]
    pub fn record(&mut self, kind: MessageKind, cost: u64) {
        let i = kind_index(kind);
        self.counts[i] += 1;
        self.costs[i] += cost;
    }

    /// Records `n` messages of a kind with zero path cost (pure counting).
    #[inline]
    pub fn bump(&mut self, kind: MessageKind, n: u64) {
        self.counts[kind_index(kind)] += n;
    }

    /// Message count for a kind.
    pub fn count(&self, kind: MessageKind) -> u64 {
        self.counts[kind_index(kind)]
    }

    /// Accumulated physical cost for a kind.
    pub fn cost(&self, kind: MessageKind) -> u64 {
        self.costs[kind_index(kind)]
    }

    /// `(kind, count, cost)` for every kind, in [`ALL_KINDS`] order —
    /// the row shape run reports and tally comparisons consume.
    pub fn tallies(&self) -> Vec<(MessageKind, u64, u64)> {
        ALL_KINDS.iter().map(|&k| (k, self.count(k), self.cost(k))).collect()
    }

    /// Total messages across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total physical cost across all kinds.
    pub fn total_cost(&self) -> u64 {
        self.costs.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut m = Meter::new();
        m.record(MessageKind::RouteHop, 10);
        m.record(MessageKind::RouteHop, 5);
        m.record(MessageKind::Register, 1);
        assert_eq!(m.count(MessageKind::RouteHop), 2);
        assert_eq!(m.cost(MessageKind::RouteHop), 15);
        assert_eq!(m.count(MessageKind::Register), 1);
        assert_eq!(m.count(MessageKind::Update), 0);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.total_cost(), 16);
    }

    #[test]
    fn tallies_list_every_kind_in_order() {
        let mut m = Meter::new();
        m.record(MessageKind::Join, 3);
        let t = m.tallies();
        assert_eq!(t.len(), KIND_COUNT);
        assert!(t.iter().map(|&(k, _, _)| k).eq(ALL_KINDS));
        assert!(t.contains(&(MessageKind::Join, 1, 3)));
    }

    #[test]
    fn bump_counts_without_cost() {
        let mut m = Meter::new();
        m.bump(MessageKind::Publish, 7);
        assert_eq!(m.count(MessageKind::Publish), 7);
        assert_eq!(m.cost(MessageKind::Publish), 0);
    }

    #[test]
    fn all_kinds_distinct_indices() {
        let mut seen = std::collections::HashSet::new();
        for k in ALL_KINDS {
            assert!(seen.insert(kind_index(k)));
        }
        assert_eq!(seen.len(), KIND_COUNT);
    }

    #[test]
    fn names_match_variants_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for k in ALL_KINDS {
            assert_eq!(k.name(), format!("{k:?}"));
            assert!(seen.insert(k.name()));
        }
        assert_eq!(seen.len(), KIND_COUNT);
    }
}
