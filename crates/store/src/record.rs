//! Typed mutation records and their binary codec.
//!
//! Every change to a stationary node's durable state is expressed as one
//! [`WalRecord`]. The encoding follows the `bristle-proto::wire`
//! conventions — little-endian fixed-width integers, one leading tag
//! byte per variant, total decoding that returns errors and never
//! panics — but is deliberately self-contained so this crate sits below
//! everything else in the workspace with zero dependencies.
//!
//! Identifiers are raw `u64` keys and raw `u32` host/router ids rather
//! than the overlay's newtypes, for the same reason: the store must not
//! depend on the layers it serves.

use std::fmt;

/// One durable mutation. Applying the full sequence of records a node
/// has ever emitted reproduces its [`DurableState`](crate::DurableState)
/// exactly — replay *is* the fold, by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord {
    /// The node's own identity: overlay key and liveness incarnation.
    /// Re-emitted whenever the incarnation is bumped.
    Identity {
        /// The node's overlay key.
        key: u64,
        /// The SWIM-style incarnation number.
        incarnation: u64,
    },
    /// A location record stored (or overwritten) for `subject`.
    RecordPut {
        /// The mobile node the record locates.
        subject: u64,
        /// Raw host id of the subject's network address.
        host: u32,
        /// Raw router id the subject was attached to.
        router: u32,
        /// Attachment epoch at publish time (stale epochs mean the
        /// address no longer reaches the subject).
        epoch: u64,
        /// The subject's incarnation at publish time.
        incarnation: u64,
        /// The subject's per-move sequence number.
        seq: u64,
        /// Virtual time the record was published.
        published_at: u64,
        /// Record time-to-live in ticks.
        ttl: u64,
    },
    /// The location record for `subject` was removed (unpublish).
    RecordRemove {
        /// The subject whose record is dropped.
        subject: u64,
    },
    /// An explicit registration of this node to `target`, joining its LDT
    /// (an edge the node's routing rows imply is re-derived, never logged).
    Register {
        /// The mobile node registered to.
        target: u64,
        /// The capacity this node advertised when registering.
        capacity: u32,
    },
    /// The registration to `target` was dissolved.
    Deregister {
        /// The target deregistered from.
        target: u64,
    },
    /// A lease on `subject`'s updates granted to this node.
    LeaseGrant {
        /// The subject whose updates are leased.
        subject: u64,
        /// Absolute virtual-time expiry of the lease.
        expires: u64,
    },
    /// The lease on `subject` was revoked or expired.
    LeaseRevoke {
        /// The subject whose lease ends.
        subject: u64,
    },
}

/// Tag bytes, one per [`WalRecord`] variant. Appending-only: new
/// variants take fresh tags, existing tags never change meaning.
mod tag {
    pub const IDENTITY: u8 = 0;
    pub const RECORD_PUT: u8 = 1;
    pub const RECORD_REMOVE: u8 = 2;
    pub const REGISTER: u8 = 3;
    pub const DEREGISTER: u8 = 4;
    pub const LEASE_GRANT: u8 = 5;
    pub const LEASE_REVOKE: u8 = 6;
}

/// Why a byte sequence failed to decode as a [`WalRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the variant's fields were complete.
    Truncated,
    /// The leading tag byte names no known variant.
    BadTag(u8),
    /// Bytes remained after a complete variant was decoded.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated mid-record"),
            CodecError::BadTag(t) => write!(f, "unknown record tag {t}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after record"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian payload writer.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Enc {
        Enc { buf: vec![tag] }
    }
    fn u32(mut self, v: u32) -> Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn u64(mut self, v: u64) -> Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }
}

/// Little-endian payload reader over a borrowed slice.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let bytes = rest.first_chunk::<N>().ok_or(CodecError::Truncated)?;
        self.pos += N;
        Ok(*bytes)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take::<1>()?[0])
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take()?))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take()?))
    }
    fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

impl WalRecord {
    /// Encodes the record as a tag byte followed by its fields.
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            WalRecord::Identity { key, incarnation } => {
                Enc::new(tag::IDENTITY).u64(key).u64(incarnation).buf
            }
            WalRecord::RecordPut {
                subject,
                host,
                router,
                epoch,
                incarnation,
                seq,
                published_at,
                ttl,
            } => {
                Enc::new(tag::RECORD_PUT)
                    .u64(subject)
                    .u32(host)
                    .u32(router)
                    .u64(epoch)
                    .u64(incarnation)
                    .u64(seq)
                    .u64(published_at)
                    .u64(ttl)
                    .buf
            }
            WalRecord::RecordRemove { subject } => Enc::new(tag::RECORD_REMOVE).u64(subject).buf,
            WalRecord::Register { target, capacity } => {
                Enc::new(tag::REGISTER).u64(target).u32(capacity).buf
            }
            WalRecord::Deregister { target } => Enc::new(tag::DEREGISTER).u64(target).buf,
            WalRecord::LeaseGrant { subject, expires } => {
                Enc::new(tag::LEASE_GRANT).u64(subject).u64(expires).buf
            }
            WalRecord::LeaseRevoke { subject } => Enc::new(tag::LEASE_REVOKE).u64(subject).buf,
        }
    }

    /// Decodes one record from `payload`, consuming every byte.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, CodecError> {
        let mut d = Dec::new(payload);
        let rec = match d.u8()? {
            tag::IDENTITY => WalRecord::Identity { key: d.u64()?, incarnation: d.u64()? },
            tag::RECORD_PUT => WalRecord::RecordPut {
                subject: d.u64()?,
                host: d.u32()?,
                router: d.u32()?,
                epoch: d.u64()?,
                incarnation: d.u64()?,
                seq: d.u64()?,
                published_at: d.u64()?,
                ttl: d.u64()?,
            },
            tag::RECORD_REMOVE => WalRecord::RecordRemove { subject: d.u64()? },
            tag::REGISTER => WalRecord::Register { target: d.u64()?, capacity: d.u32()? },
            tag::DEREGISTER => WalRecord::Deregister { target: d.u64()? },
            tag::LEASE_GRANT => WalRecord::LeaseGrant { subject: d.u64()?, expires: d.u64()? },
            tag::LEASE_REVOKE => WalRecord::LeaseRevoke { subject: d.u64()? },
            t => return Err(CodecError::BadTag(t)),
        };
        d.finish()?;
        Ok(rec)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One instance of every variant, with distinct non-default field
    /// values so swapped fields can't round-trip by accident.
    pub(crate) fn every_record() -> Vec<WalRecord> {
        vec![
            WalRecord::Identity { key: 0xDEAD_BEEF_0102_0304, incarnation: 7 },
            WalRecord::RecordPut {
                subject: 0x0102_0304_0506_0708,
                host: 41,
                router: 9,
                epoch: 19,
                incarnation: 3,
                seq: 1_000_001,
                published_at: 777,
                ttl: 600,
            },
            WalRecord::RecordRemove { subject: 0xFFFF_0000_FFFF_0000 },
            WalRecord::Register { target: 0xABCD, capacity: 12 },
            WalRecord::Deregister { target: 0xABCD },
            WalRecord::LeaseGrant { subject: 5, expires: u64::MAX },
            WalRecord::LeaseRevoke { subject: 5 },
        ]
    }

    #[test]
    fn every_record_round_trips() {
        for rec in every_record() {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes).unwrap_or_else(|e| panic!("{rec:?}: {e}"));
            assert_eq!(back, rec, "round trip changed the record");
            // Re-encoding the decoded record is byte-identical: the
            // codec is canonical.
            assert_eq!(back.encode(), bytes, "{rec:?} re-encode differs");
        }
    }

    #[test]
    fn tags_are_distinct() {
        let mut tags: Vec<u8> = every_record().iter().map(|r| r.encode()[0]).collect();
        let n = tags.len();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), n, "two variants share a tag byte");
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        for rec in every_record() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                let err = WalRecord::decode(&bytes[..cut]).unwrap_err();
                assert_eq!(err, CodecError::Truncated, "{rec:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for rec in every_record() {
            let mut bytes = rec.encode();
            bytes.push(0);
            assert_eq!(WalRecord::decode(&bytes).unwrap_err(), CodecError::TrailingBytes);
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(WalRecord::decode(&[200]).unwrap_err(), CodecError::BadTag(200));
        assert_eq!(WalRecord::decode(&[]).unwrap_err(), CodecError::Truncated);
    }
}
