//! Typed wire messages and a hand-rolled binary codec.
//!
//! Every protocol interaction the paper describes that a machine sends —
//! mobile-layer forwarding, `_discovery`, `register`/`update`
//! dissemination, location publication, failure detection and rejoin —
//! is expressed as a [`WireMessage`] carried in an [`Envelope`], and an
//! envelope travels in a [`Frame`] that says where it was sent to and
//! from. The encoding is a fixed little-endian layout with a one-byte
//! message tag: no serde, no varints, nothing the container does not
//! already ship. Decoding is total — every byte string either
//! round-trips or yields a [`WireError`], never a panic.

use bristle_core::auth::fnv1a64;
pub use bristle_core::auth::WireAuth;
use bristle_netsim::attach::{Attachment, HostId};
use bristle_netsim::graph::RouterId;
use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;

/// A network address as it travels on the wire: which host, attached to
/// which router, as of which epoch. Mirrors [`NetAddr`] field for field,
/// with the epoch at the frame's 64 bits where a routing row keeps 32;
/// the split exists so the wire format is a closed set of plain integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireAddr {
    /// Host identity.
    pub host: u32,
    /// Router the host was attached to when the address was learned.
    pub router: u32,
    /// Attachment epoch at learning time; stale epochs mean stale addresses.
    pub epoch: u64,
}

impl WireAddr {
    /// Converts a simulator address into its wire form.
    pub fn from_net(a: NetAddr) -> WireAddr {
        WireAddr {
            host: a.host.0,
            router: a.attachment.router.0,
            epoch: u64::from(a.attachment.epoch),
        }
    }

    /// Converts back into the simulator's address type.
    ///
    /// The frame's epoch is 64 bits wide and unauthenticated; a row's is
    /// 32. Every epoch a host can have converts to itself (`to_net` after
    /// [`Self::from_net`] is the identity); every `epoch ≥ u32::MAX`
    /// converts to the reserved [`Attachment::NEVER_CURRENT`], which no
    /// host ever has, so the address is learnable but never current — it
    /// is not truncated, which would let `2³² + e` pass for `e`.
    pub fn to_net(self) -> NetAddr {
        NetAddr {
            host: HostId(self.host),
            attachment: Attachment::from_wide(RouterId(self.router), self.epoch),
        }
    }

    /// The router this address points at.
    pub fn router_id(self) -> RouterId {
        RouterId(self.router)
    }
}

/// The protocol's message vocabulary.
///
/// Metered kinds (RouteHop, Discovery, DiscoveryReply, Register, Update,
/// Publish) correspond one-to-one with the paper's operations; acks and
/// the probe-miss notification are unmetered control traffic that exists
/// only because message passing, unlike a function call, can fail to
/// return. Join, leave and refresh run on the function-call path only;
/// their tags (10–12) are retired, not reused, and decode to
/// [`WireError::BadTag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// One mobile-layer forwarding hop of a route toward `target`.
    RouteHop {
        /// Node that originated the route.
        origin: Key,
        /// Originator-scoped route identifier (for completion reporting).
        route_id: u64,
        /// The key being routed toward.
        target: Key,
        /// The sender's floor ([`WireMessage::floor`]).
        floor: u64,
    },
    /// Acknowledges receipt of the `RouteHop` carried as `acked` msg id.
    HopAck {
        /// `Envelope::msg_id` of the acknowledged hop.
        acked: u64,
    },
    /// A `_discovery` query hop in the stationary layer.
    Discovery {
        /// The mobile node whose address is being resolved.
        subject: Key,
        /// The node that issued the discovery (reply destination).
        asker: Key,
        /// Asker-scoped discovery session (ties replies to retries).
        session: u64,
        /// `None` while routing toward the record owner; `Some(terminus)`
        /// while walking the replica chain after a miss at the owner.
        probe: Option<Key>,
    },
    /// The resolver's answer, sent directly back to the asker.
    DiscoveryReply {
        /// The subject the session asked about.
        subject: Key,
        /// Asker-scoped session id being answered.
        session: u64,
        /// Resolved address, or `None` when no replica held a record.
        addr: Option<WireAddr>,
    },
    /// Replica-chain exhaustion notice back to the route terminus, which
    /// then answers the asker itself (matching the function-call path,
    /// where a total miss replies from the terminus).
    ProbeMiss {
        /// Subject that could not be resolved.
        subject: Key,
        /// Asker awaiting the (negative) reply.
        asker: Key,
        /// Session id to answer under.
        session: u64,
    },
    /// `register`: declare interest in a mobile node's location (§2.3.1).
    Register {
        /// The mobile node being registered with.
        target: Key,
        /// Registrant's capacity report (shapes the target's LDT).
        capacity: u32,
        /// The sender's floor ([`WireMessage::floor`]).
        floor: u64,
    },
    /// Acknowledges a `Register`.
    RegisterAck {
        /// `Envelope::msg_id` of the acknowledged registration.
        acked: u64,
    },
    /// `update`: one LDT-edge push of a moved node's fresh address (§2.3).
    Update {
        /// The node whose address changed.
        subject: Key,
        /// Its new address.
        addr: WireAddr,
        /// Movement sequence number (receivers ignore stale sequences).
        seq: u64,
        /// The sender's floor ([`WireMessage::floor`]).
        floor: u64,
    },
    /// Acknowledges an `Update`.
    UpdateAck {
        /// `Envelope::msg_id` of the acknowledged update.
        acked: u64,
    },
    /// Publishes a location record into the stationary layer.
    Publish {
        /// The mobile node the record describes.
        subject: Key,
        /// Its current address.
        addr: WireAddr,
        /// Movement sequence number.
        seq: u64,
    },
    /// Failure-detector liveness probe; the receiver must answer with a
    /// [`WireMessage::HeartbeatAck`] echoing the sequence number.
    Heartbeat {
        /// Prober-scoped probe sequence number.
        seq: u64,
        /// The prober's own SWIM-style incarnation number.
        incarnation: u64,
    },
    /// Answers a [`WireMessage::Heartbeat`].
    HeartbeatAck {
        /// The probe sequence number being answered.
        seq: u64,
        /// The responder's own incarnation number; a fresher value than
        /// the prober last saw refutes any standing suspicion.
        incarnation: u64,
    },
    /// Third-party notice that `suspect` has been confirmed crashed, so
    /// the receiver can stop probing it and treat it as dead — unless a
    /// fresher incarnation has been observed since.
    SuspectNotify {
        /// The node confirmed dead.
        suspect: Key,
        /// The incarnation the verdict was charged against; a suspect
        /// alive at a higher incarnation is not covered by this notice.
        incarnation: u64,
    },
    /// SWIM-style refutation: `node` is alive at `incarnation`, which
    /// overrides any suspicion or death verdict charged to an older
    /// incarnation, and asks its receiver to sponsor the reversal of a
    /// funeral. Sent by the node itself after bumping its incarnation,
    /// or relayed on its behalf.
    Alive {
        /// The node whose liveness is asserted.
        node: Key,
        /// The (freshly bumped) incarnation it is alive at.
        incarnation: u64,
    },
}

// An envelope carries its message inline, and the simulator parks every
// frame in flight in a 128-B slot (`bristle-sim::messaging`). The largest
// variants, `Discovery` and `Update` (with its floor), take 40 B.
const _: () = assert!(std::mem::size_of::<WireMessage>() == 48);

impl WireMessage {
    /// One-byte discriminant used by the codec and the transport trace.
    pub fn tag(&self) -> u8 {
        match self {
            WireMessage::RouteHop { .. } => 0,
            WireMessage::HopAck { .. } => 1,
            WireMessage::Discovery { .. } => 2,
            WireMessage::DiscoveryReply { .. } => 3,
            WireMessage::ProbeMiss { .. } => 4,
            WireMessage::Register { .. } => 5,
            WireMessage::RegisterAck { .. } => 6,
            WireMessage::Update { .. } => 7,
            WireMessage::UpdateAck { .. } => 8,
            WireMessage::Publish { .. } => 9,
            // 10–12 are retired (JoinProbe, Leave, Refresh), and 17–18
            // (Rejoin, RejoinAck).
            WireMessage::Heartbeat { .. } => 13,
            WireMessage::HeartbeatAck { .. } => 14,
            WireMessage::SuspectNotify { .. } => 15,
            WireMessage::Alive { .. } => 16,
        }
    }

    /// Static name of the variant, for traces, events and run reports.
    pub fn tag_name(&self) -> &'static str {
        match self {
            WireMessage::RouteHop { .. } => "RouteHop",
            WireMessage::HopAck { .. } => "HopAck",
            WireMessage::Discovery { .. } => "Discovery",
            WireMessage::DiscoveryReply { .. } => "DiscoveryReply",
            WireMessage::ProbeMiss { .. } => "ProbeMiss",
            WireMessage::Register { .. } => "Register",
            WireMessage::RegisterAck { .. } => "RegisterAck",
            WireMessage::Update { .. } => "Update",
            WireMessage::UpdateAck { .. } => "UpdateAck",
            WireMessage::Publish { .. } => "Publish",
            WireMessage::Heartbeat { .. } => "Heartbeat",
            WireMessage::HeartbeatAck { .. } => "HeartbeatAck",
            WireMessage::SuspectNotify { .. } => "SuspectNotify",
            WireMessage::Alive { .. } => "Alive",
        }
    }

    /// The sender's *floor*, on the three kinds a sender retransmits
    /// (`RouteHop`, `Register`, `Update`): the lowest `msg_id` it still
    /// had an exchange open for when it built the frame, this frame's
    /// own id included. Every exchange of the sender below it has closed,
    /// so its receiver may forget what lies below (`seen`'s module docs).
    pub fn floor(&self) -> Option<u64> {
        match *self {
            WireMessage::RouteHop { floor, .. }
            | WireMessage::Register { floor, .. }
            | WireMessage::Update { floor, .. } => Some(floor),
            _ => None,
        }
    }

    /// The same message with its floor set to `to`, on the kinds that
    /// carry one; any other message is returned unchanged.
    pub fn with_floor(mut self, to: u64) -> WireMessage {
        if let WireMessage::RouteHop { floor, .. }
        | WireMessage::Register { floor, .. }
        | WireMessage::Update { floor, .. } = &mut self
        {
            *floor = to;
        }
        self
    }

    /// Writes the tagged message body — the bytes shared by the codec and
    /// the authentication digest.
    fn write_body(&self, w: &mut Writer) {
        w.u8(self.tag());
        match self {
            WireMessage::RouteHop { origin, route_id, target, floor } => {
                w.key(*origin);
                w.u64(*route_id);
                w.key(*target);
                w.u64(*floor);
            }
            WireMessage::HopAck { acked }
            | WireMessage::RegisterAck { acked }
            | WireMessage::UpdateAck { acked } => w.u64(*acked),
            WireMessage::Discovery { subject, asker, session, probe } => {
                w.key(*subject);
                w.key(*asker);
                w.u64(*session);
                w.opt_key(*probe);
            }
            WireMessage::DiscoveryReply { subject, session, addr } => {
                w.key(*subject);
                w.u64(*session);
                w.opt_addr(*addr);
            }
            WireMessage::ProbeMiss { subject, asker, session } => {
                w.key(*subject);
                w.key(*asker);
                w.u64(*session);
            }
            WireMessage::Register { target, capacity, floor } => {
                w.key(*target);
                w.u32(*capacity);
                w.u64(*floor);
            }
            WireMessage::Update { subject, addr, seq, floor } => {
                w.key(*subject);
                w.addr(*addr);
                w.u64(*seq);
                w.u64(*floor);
            }
            WireMessage::Publish { subject, addr, seq } => {
                w.key(*subject);
                w.addr(*addr);
                w.u64(*seq);
            }
            WireMessage::Heartbeat { seq, incarnation }
            | WireMessage::HeartbeatAck { seq, incarnation } => {
                w.u64(*seq);
                w.u64(*incarnation);
            }
            WireMessage::SuspectNotify { suspect, incarnation }
            | WireMessage::Alive { node: suspect, incarnation } => {
                w.key(*suspect);
                w.u64(*incarnation);
            }
        }
    }

    /// Digest of the tagged message body, the value an authentication tag
    /// signs. Deliberately excludes the envelope header (src/dst/msg_id/
    /// trace_id) so a relayed frame — an `Alive` forwarded on a corpse's
    /// behalf, a record pushed replica-to-replica — keeps its original
    /// signer's valid signature.
    pub fn auth_digest(&self) -> u64 {
        let mut w = Writer(Vec::with_capacity(40));
        self.write_body(&mut w);
        fnv1a64(&w.0)
    }
}

/// A message addressed between two overlay nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node's key.
    pub src: Key,
    /// Destination node's key.
    pub dst: Key,
    /// Sender-scoped message id; retransmissions reuse it, so
    /// `(src, msg_id)` is the receiver's deduplication key.
    pub msg_id: u64,
    /// Causal trace id: every frame a logical operation (a route, an
    /// update) triggers — including `_discovery` retries, replica
    /// failovers and refutations — carries the originating operation's
    /// trace id, so a flight recorder can replay one operation's whole
    /// story. 0 means background traffic with no originating operation.
    pub trace_id: u64,
    /// The payload.
    pub msg: WireMessage,
    /// Authentication trailer: the signer's pubkey and a MAC over the
    /// message body (see [`WireMessage::auth_digest`]). `None` on
    /// unauthenticated kinds and on every frame of a pre-auth deployment,
    /// which keeps the seed wire format a strict prefix of this one.
    pub auth: Option<WireAuth>,
}

/// One envelope in transit, with its addresses: the receiver admits it
/// only at `to_addr` (paper Fig. 2: a frame sent to an address its
/// destination has left dies there) and answers it at `from_addr`. On
/// the wire, a 32-byte address header and then the envelope's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Where the sender believed the destination was attached.
    pub to_addr: WireAddr,
    /// Where the sender was attached when it sent this copy (unsigned).
    pub from_addr: WireAddr,
    /// The addressed message.
    pub env: Envelope,
}

/// Codec failure: the byte string is not a well-formed envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the layout requires.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// An option prefix byte that is neither 0 nor 1.
    BadOption(u8),
    /// Well-formed message followed by extra bytes.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated envelope"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadOption(b) => write!(f, "bad option prefix {b}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after envelope"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn key(&mut self, k: Key) {
        self.u64(k.0);
    }
    fn addr(&mut self, a: WireAddr) {
        self.u32(a.host);
        self.u32(a.router);
        self.u64(a.epoch);
    }
    fn opt_addr(&mut self, a: Option<WireAddr>) {
        match a {
            None => self.u8(0),
            Some(a) => {
                self.u8(1);
                self.addr(a);
            }
        }
    }
    fn opt_key(&mut self, k: Option<Key>) {
        match k {
            None => self.u8(0),
            Some(k) => {
                self.u8(1);
                self.key(k);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let bytes = rest.first_chunk::<N>().ok_or(WireError::Truncated)?;
        self.pos += N;
        Ok(*bytes)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take::<1>()?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take()?))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take()?))
    }
    fn key(&mut self) -> Result<Key, WireError> {
        Ok(Key(self.u64()?))
    }
    fn addr(&mut self) -> Result<WireAddr, WireError> {
        Ok(WireAddr { host: self.u32()?, router: self.u32()?, epoch: self.u64()? })
    }
    fn opt_addr(&mut self) -> Result<Option<WireAddr>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.addr()?)),
            b => Err(WireError::BadOption(b)),
        }
    }
    fn opt_key(&mut self) -> Result<Option<Key>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.key()?)),
            b => Err(WireError::BadOption(b)),
        }
    }
}

impl Envelope {
    /// Serializes the envelope: `src, dst, msg_id, trace_id`, a tagged
    /// message, then the optional authentication trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer(Vec::with_capacity(64));
        w.key(self.src);
        w.key(self.dst);
        w.u64(self.msg_id);
        w.u64(self.trace_id);
        self.msg.write_body(&mut w);
        match self.auth {
            None => w.u8(0),
            Some(a) => {
                w.u8(1);
                w.u64(a.pubkey);
                w.u64(a.tag);
            }
        }
        w.0
    }

    /// Parses an envelope, consuming the whole buffer.
    pub fn decode(bytes: &[u8]) -> Result<Envelope, WireError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let src = r.key()?;
        let dst = r.key()?;
        let msg_id = r.u64()?;
        let trace_id = r.u64()?;
        let tag = r.u8()?;
        let msg = match tag {
            0 => WireMessage::RouteHop {
                origin: r.key()?,
                route_id: r.u64()?,
                target: r.key()?,
                floor: r.u64()?,
            },
            1 => WireMessage::HopAck { acked: r.u64()? },
            2 => WireMessage::Discovery {
                subject: r.key()?,
                asker: r.key()?,
                session: r.u64()?,
                probe: r.opt_key()?,
            },
            3 => WireMessage::DiscoveryReply {
                subject: r.key()?,
                session: r.u64()?,
                addr: r.opt_addr()?,
            },
            4 => WireMessage::ProbeMiss { subject: r.key()?, asker: r.key()?, session: r.u64()? },
            5 => WireMessage::Register { target: r.key()?, capacity: r.u32()?, floor: r.u64()? },
            6 => WireMessage::RegisterAck { acked: r.u64()? },
            7 => WireMessage::Update {
                subject: r.key()?,
                addr: r.addr()?,
                seq: r.u64()?,
                floor: r.u64()?,
            },
            8 => WireMessage::UpdateAck { acked: r.u64()? },
            9 => WireMessage::Publish { subject: r.key()?, addr: r.addr()?, seq: r.u64()? },
            13 => WireMessage::Heartbeat { seq: r.u64()?, incarnation: r.u64()? },
            14 => WireMessage::HeartbeatAck { seq: r.u64()?, incarnation: r.u64()? },
            15 => WireMessage::SuspectNotify { suspect: r.key()?, incarnation: r.u64()? },
            16 => WireMessage::Alive { node: r.key()?, incarnation: r.u64()? },
            t => return Err(WireError::BadTag(t)),
        };
        let auth = match r.u8()? {
            0 => None,
            1 => Some(WireAuth { pubkey: r.u64()?, tag: r.u64()? }),
            b => return Err(WireError::BadOption(b)),
        };
        if r.pos != bytes.len() {
            return Err(WireError::TrailingBytes(bytes.len() - r.pos));
        }
        Ok(Envelope { src, dst, msg_id, trace_id, msg, auth })
    }
}

impl Frame {
    /// Bytes of the address header ahead of the envelope.
    pub const HEADER: usize = 32;

    /// Serializes the frame: `to_addr`, `from_addr`, then the envelope.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer(Vec::with_capacity(Self::HEADER + 64));
        w.addr(self.to_addr);
        w.addr(self.from_addr);
        w.0.extend(self.env.encode());
        w.0
    }

    /// Parses a frame, consuming the whole buffer.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let (to_addr, from_addr) = (r.addr()?, r.addr()?);
        Ok(Frame { to_addr, from_addr, env: Envelope::decode(&bytes[Self::HEADER..])? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(h: u32, r: u32, e: u64) -> WireAddr {
        WireAddr { host: h, router: r, epoch: e }
    }

    fn every_message() -> Vec<WireMessage> {
        vec![
            WireMessage::RouteHop { origin: Key(1), route_id: 7, target: Key(u64::MAX), floor: 3 },
            WireMessage::HopAck { acked: 99 },
            WireMessage::Discovery { subject: Key(2), asker: Key(3), session: 4, probe: None },
            WireMessage::Discovery {
                subject: Key(2),
                asker: Key(3),
                session: 4,
                probe: Some(Key(9)),
            },
            WireMessage::DiscoveryReply { subject: Key(5), session: 6, addr: None },
            WireMessage::DiscoveryReply { subject: Key(5), session: 6, addr: Some(addr(1, 2, 3)) },
            WireMessage::ProbeMiss { subject: Key(8), asker: Key(9), session: 10 },
            WireMessage::Register { target: Key(11), capacity: 12, floor: u64::MAX },
            WireMessage::RegisterAck { acked: 13 },
            WireMessage::Update { subject: Key(14), addr: addr(4, 5, 6), seq: 15, floor: 1 << 32 },
            WireMessage::UpdateAck { acked: 16 },
            WireMessage::Publish { subject: Key(17), addr: addr(7, 8, 9), seq: 18 },
            WireMessage::Heartbeat { seq: 22, incarnation: 1 },
            WireMessage::HeartbeatAck { seq: 23, incarnation: 2 },
            WireMessage::SuspectNotify { suspect: Key(24), incarnation: 3 },
            WireMessage::Alive { node: Key(25), incarnation: 4 },
        ]
    }

    /// The tags retired with their variants; never reused.
    const RETIRED: [u8; 5] = [10, 11, 12, 17, 18];

    /// Every live tag in 0..=18 must appear in `every_message`, so the
    /// exhaustive tests below really are exhaustive.
    #[test]
    fn every_message_covers_every_tag() {
        let tags: std::collections::HashSet<u8> = every_message().iter().map(|m| m.tag()).collect();
        for t in (0..=18u8).filter(|t| !RETIRED.contains(t)) {
            assert!(tags.contains(&t), "tag {t} missing from every_message()");
        }
    }

    /// Every variant with and without an authentication trailer — the
    /// exhaustive inputs the codec tests run over.
    fn every_envelope() -> Vec<Envelope> {
        let mut out = Vec::new();
        for (i, msg) in every_message().into_iter().enumerate() {
            for auth in [None, Some(WireAuth { pubkey: 0xabc ^ i as u64, tag: 77 + i as u64 })] {
                out.push(Envelope {
                    src: Key(300 + i as u64),
                    dst: Key(400),
                    msg_id: i as u64,
                    trace_id: 9,
                    msg: msg.clone(),
                    auth,
                });
            }
        }
        out
    }

    /// Every envelope of [`every_envelope`] in a frame, its addresses at
    /// the codec's extremes as well as ordinary ones.
    fn every_frame() -> Vec<Frame> {
        let ends =
            [(addr(1, 2, 3), addr(4, 5, 6)), (addr(u32::MAX, 0, u64::MAX), addr(0, u32::MAX, 0))];
        let frames = every_envelope().into_iter().enumerate();
        let frame = |(i, env): (usize, Envelope)| {
            let (to_addr, from_addr) = ends[i % 2];
            Frame { to_addr, from_addr, env }
        };
        frames.map(frame).collect()
    }

    /// The codec is a bijection on well-formed envelopes and frames: for
    /// every variant, encode → decode → re-encode reproduces the original
    /// bytes exactly. Future wire changes cannot silently skew one
    /// direction of the codec without failing this test.
    #[test]
    fn every_variant_reencodes_byte_identically() {
        for (i, env) in every_envelope().into_iter().enumerate() {
            let bytes = env.encode();
            let back = Envelope::decode(&bytes).expect("decodes");
            assert_eq!(back.encode(), bytes, "variant {i} re-encode differs");
        }
        for (i, frame) in every_frame().into_iter().enumerate() {
            let bytes = frame.encode();
            let back = Frame::decode(&bytes).expect("decodes");
            assert_eq!(back.encode(), bytes, "frame {i} re-encode differs");
        }
    }

    #[test]
    fn every_variant_round_trips() {
        for (i, env) in every_envelope().into_iter().enumerate() {
            let back = Envelope::decode(&env.encode()).expect("decodes");
            assert_eq!(back, env, "variant {i}");
        }
        for (i, frame) in every_frame().into_iter().enumerate() {
            let back = Frame::decode(&frame.encode()).expect("decodes");
            assert_eq!(back, frame, "frame {i}");
        }
    }

    /// A frame is its 32-byte address header, then its envelope's bytes
    /// unchanged.
    #[test]
    fn a_frame_is_its_address_header_then_its_envelope() {
        for frame in every_frame() {
            let bytes = frame.encode();
            assert_eq!(&bytes[Frame::HEADER..], &frame.env.encode()[..]);
            let header = Frame::decode(&bytes).map(|f| (f.to_addr, f.from_addr));
            assert_eq!(header, Ok((frame.to_addr, frame.from_addr)));
        }
    }

    #[test]
    fn tags_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for msg in every_message() {
            seen.insert(msg.tag());
        }
        assert_eq!(seen.len(), 19 - RETIRED.len());
    }

    /// Truncating an authenticated *or* unauthenticated envelope or frame
    /// at every possible length — inside the address header too — is a
    /// clean `Truncated` error; in particular a trailer cut mid-tag never
    /// passes as unauthenticated.
    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        for env in every_envelope() {
            let bytes = env.encode();
            for cut in 0..bytes.len() {
                assert_eq!(Envelope::decode(&bytes[..cut]), Err(WireError::Truncated), "cut {cut}");
            }
        }
        for frame in every_frame() {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                assert_eq!(Frame::decode(&bytes[..cut]), Err(WireError::Truncated), "cut {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let env = Envelope {
            src: Key(1),
            dst: Key(2),
            msg_id: 3,
            trace_id: 4,
            msg: WireMessage::HopAck { acked: 4 },
            auth: None,
        };
        let mut bytes = env.encode();
        bytes.push(0xff);
        assert_eq!(Envelope::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    /// An unknown tag and every retired one.
    #[test]
    fn bad_tag_rejected() {
        let env = Envelope {
            src: Key(1),
            dst: Key(2),
            msg_id: 3,
            trace_id: 4,
            msg: WireMessage::Alive { node: Key(5), incarnation: 4 },
            auth: None,
        };
        for tag in RETIRED.into_iter().chain([200]) {
            let mut bytes = env.encode();
            bytes[32] = tag; // tag byte follows src+dst+msg_id+trace_id
            assert_eq!(Envelope::decode(&bytes), Err(WireError::BadTag(tag)));
        }
    }

    #[test]
    fn bad_option_prefix_rejected() {
        let env = Envelope {
            src: Key(1),
            dst: Key(2),
            msg_id: 3,
            trace_id: 4,
            msg: WireMessage::DiscoveryReply { subject: Key(5), session: 6, addr: None },
            auth: None,
        };
        let mut bytes = env.encode();
        // Layout: 32-byte header, tag, subject (8), session (8), addr
        // option, auth option. Corrupt each option prefix in turn.
        let addr_opt = 32 + 1 + 8 + 8;
        bytes[addr_opt] = 7;
        assert_eq!(Envelope::decode(&bytes), Err(WireError::BadOption(7)));
        bytes[addr_opt] = 0;
        *bytes.last_mut().unwrap() = 9; // auth option prefix is the final byte
        assert_eq!(Envelope::decode(&bytes), Err(WireError::BadOption(9)));
    }

    /// The digest signs the message body only: relabeling the envelope
    /// (src/dst/msg_id/trace_id) keeps the digest — and hence a relayed
    /// frame's signature — intact, while any body change breaks it.
    #[test]
    fn auth_digest_covers_exactly_the_body() {
        let msg = WireMessage::Alive { node: Key(25), incarnation: 4 };
        let relabeled = msg.clone();
        assert_eq!(msg.auth_digest(), relabeled.auth_digest());
        let other = WireMessage::Alive { node: Key(25), incarnation: 5 };
        assert_ne!(msg.auth_digest(), other.auth_digest());
        // Same field bytes under a different tag must not collide either.
        let suspect = WireMessage::SuspectNotify { suspect: Key(25), incarnation: 4 };
        assert_ne!(msg.auth_digest(), suspect.auth_digest());
    }

    /// Each kind that carries a floor encodes it as its last 8 bytes, and
    /// the signer's digest covers it: a relay cannot lower or raise a
    /// sealed frame's floor without breaking its tag.
    #[test]
    fn the_floor_is_encoded_and_signed_on_every_kind_that_carries_it() {
        let floored: Vec<WireMessage> =
            every_message().into_iter().filter(|m| m.floor().is_some()).collect();
        assert_eq!(floored.len(), 3, "RouteHop, Register, Update");
        for msg in floored {
            let moved = msg.clone().with_floor(msg.floor().unwrap_or(0) ^ 1);
            assert_ne!(moved.auth_digest(), msg.auth_digest(), "{msg:?}");
            let env = |msg| Envelope {
                src: Key(1),
                dst: Key(2),
                msg_id: 3,
                trace_id: 4,
                msg,
                auth: None,
            };
            let (a, b) = (env(msg.clone()).encode(), env(moved).encode());
            let diff: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
            // Header 32, tag 1, body, then the floor and the auth option.
            assert_eq!(diff, vec![a.len() - 9], "{msg:?}: only the floor's low byte moved");
        }
        let hop = WireMessage::HopAck { acked: 4 };
        assert_eq!(hop.clone().with_floor(9), hop, "a kind with no floor is unchanged");
    }

    /// The trailer is self-delimiting: an authenticated frame decodes to
    /// the same message as its unauthenticated twin plus the trailer.
    #[test]
    fn auth_trailer_is_a_strict_suffix() {
        for msg in every_message() {
            let plain = Envelope {
                src: Key(1),
                dst: Key(2),
                msg_id: 3,
                trace_id: 4,
                msg: msg.clone(),
                auth: None,
            };
            let sealed = Envelope { auth: Some(WireAuth { pubkey: 10, tag: 20 }), ..plain.clone() };
            let pb = plain.encode();
            let sb = sealed.encode();
            assert_eq!(sb.len(), pb.len() + 16, "trailer adds exactly pubkey+tag");
            assert_eq!(&sb[..pb.len() - 1], &pb[..pb.len() - 1], "shared prefix");
        }
    }

    /// Every single-byte mutation of `bytes` (each position crossed with
    /// several corruption patterns), every one-byte insertion and
    /// excision, and same-length garbage, each handed to `decode`.
    fn mutations(bytes: &[u8], salt: u8, mut decode: impl FnMut(&[u8])) {
        for pos in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.to_vec();
                bad[pos] ^= mask;
                decode(&bad);
            }
            // Setting the byte outright (not xor) hits option and tag
            // sentinels the masks can miss.
            for value in [0x00u8, 0x02, 0x13, 0xfe] {
                let mut bad = bytes.to_vec();
                bad[pos] = value;
                decode(&bad);
            }
            // Mutations that also change length: duplicate and excise
            // one byte.
            let mut longer = bytes.to_vec();
            longer.insert(pos, bytes[pos]);
            decode(&longer);
            let mut shorter = bytes.to_vec();
            shorter.remove(pos);
            decode(&shorter);
        }
        // Pure garbage of the same length, from a fixed pattern so the
        // sweep stays deterministic.
        let garbage: Vec<u8> =
            (0..bytes.len()).map(|j| (j as u8).wrapping_mul(31).wrapping_add(salt)).collect();
        decode(&garbage);
    }

    /// Attacker-controlled bytes at the datagram boundary: every mutation
    /// of every well-formed envelope and frame encoding must decode to
    /// `Ok` or a clean `Err` — never panic, never over-read. The decoder
    /// is total; the poll loop's drop-and-meter path depends on it. A
    /// mutated frame that still decodes names addresses the codec read
    /// whole, header bytes and all.
    #[test]
    fn mutation_sweep_of_every_encoding_is_total() {
        for (i, env) in every_envelope().into_iter().enumerate() {
            mutations(&env.encode(), i as u8, |bad| drop(Envelope::decode(bad)));
        }
        for (i, frame) in every_frame().into_iter().enumerate() {
            mutations(&frame.encode(), i as u8, |bad| {
                if let Ok(decoded) = Frame::decode(bad) {
                    assert_eq!(decoded.encode(), bad, "frame {i}: a decoded frame re-encodes");
                }
            });
        }
    }

    /// `to_net` after `from_net` is the identity on every attachment a
    /// map can hold (epochs `0..u32::MAX`), and the same epoch plus 2³²
    /// lands on the reserved one, not back on it (`Attachment::from_wide`
    /// has the boundary cases).
    #[test]
    fn wire_addr_net_round_trip() {
        for epoch in [0, 5, 1 << 16, u32::MAX - 1] {
            let net = NetAddr {
                host: HostId(42),
                attachment: Attachment { router: RouterId(17), epoch },
            };
            let wire = WireAddr::from_net(net);
            assert_eq!(wire.epoch, u64::from(epoch));
            assert_eq!(wire.to_net(), net);
            assert_eq!(wire.router_id(), RouterId(17));
            let aliased = WireAddr { epoch: (1 << 32) + u64::from(epoch), ..wire };
            assert_eq!(aliased.to_net().attachment.epoch, Attachment::NEVER_CURRENT);
        }
    }

    #[test]
    fn empty_buffer_is_truncated() {
        assert_eq!(Envelope::decode(&[]), Err(WireError::Truncated));
    }
}
