//! Fault tolerance: logging, checkpointing, recovery (§5).
//!
//! Wukong+S assumes upstream backup at the sources and provides
//! at-least-once semantics to continuous queries. The engine logs, per
//! machine and in the background, (a) every registered continuous query
//! and (b) the streaming data injected since the last checkpoint, plus the
//! local/stable vector timestamps. Recovery reloads the initial RDF data,
//! replays checkpoints in order, re-registers the queries and restores the
//! timestamps.
//!
//! The wire format is a small hand-rolled binary encoding over the
//! `bytes` crate (the workspace deliberately carries no serde *format*
//! crate). Version 3 adds integrity: a length-prefixed header protected
//! by its own checksum, one FNV-1a checksum per section, and strict
//! end-of-buffer checks, so any single-bit flip anywhere in the image is
//! rejected at decode (DESIGN.md §13) instead of silently poisoning the
//! recovered engine.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use wukong_rdf::{Pid, StreamTuple, Timestamp, Triple, TupleKind, Vid};

/// Magic number heading every checkpoint.
const MAGIC: u32 = 0x574b_5343; // "WKSC"
const VERSION: u8 = 3;

/// FNV-1a over a byte slice. Single-bit-flip detection over fixed-length
/// inputs is exact: each step is `xor` then multiply by an odd prime —
/// both bijections on `u64` — so two inputs differing in one byte can
/// never hash equal (the differing step produces distinct states, and
/// every following step maps distinct states to distinct states).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// One logged stream batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedBatch {
    /// Cluster stream index.
    pub stream: u16,
    /// Batch timestamp.
    pub timestamp: Timestamp,
    /// The batch's tuples (both timing and timeless — both must replay).
    pub tuples: Vec<StreamTuple>,
}

/// A registered query as persisted: its text plus, for `CONSTRUCT`
/// queries, the derived stream its firings feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedQuery {
    /// The original C-SPARQL text.
    pub text: String,
    /// Derived-stream target (cluster stream index), if any.
    pub construct_target: Option<u16>,
}

/// A durable checkpoint of the engine's streaming state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// Per-node local VTS entries (`[node][stream]`).
    pub local_vts: Vec<Vec<Timestamp>>,
    /// Registered continuous queries, in registration order.
    pub queries: Vec<LoggedQuery>,
    /// Stream batches since the previous checkpoint, in injection order.
    pub batches: Vec<LoggedBatch>,
}

/// Errors decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with the checkpoint magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// The buffer ended mid-record.
    Truncated,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A section's stored checksum does not match its bytes.
    ChecksumMismatch(&'static str),
    /// Bytes remain after the final section.
    TrailingGarbage,
    /// A logged continuous query no longer registers on recovery (its
    /// text fails to parse, or names a stream the rebuild lacks).
    BadQuery(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a Wukong+S checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadUtf8 => write!(f, "invalid UTF-8 in checkpoint"),
            CheckpointError::ChecksumMismatch(section) => {
                write!(f, "checkpoint {section} section failed checksum")
            }
            CheckpointError::TrailingGarbage => {
                write!(f, "checkpoint has trailing bytes after the final section")
            }
            CheckpointError::BadQuery(why) => {
                write!(f, "checkpointed query does not re-register: {why}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn need(buf: &[u8], n: usize) -> Result<(), CheckpointError> {
    if buf.remaining() < n {
        Err(CheckpointError::Truncated)
    } else {
        Ok(())
    }
}

impl Checkpoint {
    fn encode_vts(&self) -> BytesMut {
        let mut b = BytesMut::new();
        b.put_u16(self.local_vts.len() as u16);
        b.put_u16(self.local_vts.first().map(Vec::len).unwrap_or(0) as u16);
        for node in &self.local_vts {
            for &ts in node {
                b.put_u64(ts);
            }
        }
        b
    }

    fn encode_queries(&self) -> BytesMut {
        let mut b = BytesMut::new();
        b.put_u32(self.queries.len() as u32);
        for q in &self.queries {
            b.put_u32(q.text.len() as u32);
            b.put_slice(q.text.as_bytes());
            match q.construct_target {
                Some(t) => {
                    b.put_u8(1);
                    b.put_u16(t);
                }
                None => b.put_u8(0),
            }
        }
        b
    }

    fn encode_batches(&self) -> BytesMut {
        let mut b = BytesMut::new();
        b.put_u32(self.batches.len() as u32);
        for batch in &self.batches {
            b.put_u16(batch.stream);
            b.put_u64(batch.timestamp);
            b.put_u32(batch.tuples.len() as u32);
            for t in &batch.tuples {
                b.put_u64(t.triple.s.0);
                b.put_u64(t.triple.p.0);
                b.put_u64(t.triple.o.0);
                b.put_u64(t.timestamp);
                b.put_u8(match t.kind {
                    TupleKind::Timeless => 0,
                    TupleKind::Timing => 1,
                });
            }
        }
        b
    }

    /// Serialises the checkpoint.
    ///
    /// Layout (v3): `magic u32 | version u8 | vts_len u32 | queries_len
    /// u32 | batches_len u32 | header_fnv u64`, then each section's bytes
    /// immediately followed by its own FNV-1a checksum (u64). The header
    /// checksum covers the 17 bytes before it, so a flipped length field
    /// cannot silently re-frame the sections.
    pub fn encode(&self) -> Bytes {
        let vts = self.encode_vts();
        let queries = self.encode_queries();
        let batches = self.encode_batches();

        let mut b = BytesMut::new();
        b.put_u32(MAGIC);
        b.put_u8(VERSION);
        b.put_u32(vts.len() as u32);
        b.put_u32(queries.len() as u32);
        b.put_u32(batches.len() as u32);
        let header_fnv = fnv1a(&b);
        b.put_u64(header_fnv);
        for section in [&vts, &queries, &batches] {
            b.put_slice(section);
            b.put_u64(fnv1a(section));
        }
        b.freeze()
    }

    /// Splits off one checksummed section: verifies length availability
    /// and the trailing FNV before handing back the payload slice.
    fn take_section<'a>(
        buf: &mut &'a [u8],
        len: usize,
        name: &'static str,
    ) -> Result<&'a [u8], CheckpointError> {
        need(buf, len + 8)?;
        let (payload, rest) = buf.split_at(len);
        let mut rest = rest;
        let stored = rest.get_u64();
        if fnv1a(payload) != stored {
            return Err(CheckpointError::ChecksumMismatch(name));
        }
        *buf = rest;
        Ok(payload)
    }

    fn decode_vts(mut buf: &[u8]) -> Result<Vec<Vec<Timestamp>>, CheckpointError> {
        need(buf, 4)?;
        let nodes = buf.get_u16() as usize;
        let streams = buf.get_u16() as usize;
        let mut local_vts = Vec::with_capacity(nodes.min(buf.remaining() / 8 + 1));
        for _ in 0..nodes {
            need(buf, streams * 8)?;
            local_vts.push((0..streams).map(|_| buf.get_u64()).collect());
        }
        if buf.has_remaining() {
            return Err(CheckpointError::TrailingGarbage);
        }
        Ok(local_vts)
    }

    fn decode_queries(mut buf: &[u8]) -> Result<Vec<LoggedQuery>, CheckpointError> {
        need(buf, 4)?;
        let nq = buf.get_u32() as usize;
        // Cap the pre-allocation by what the buffer could possibly hold
        // (≥ 5 bytes per query record): a corrupt count must fail with
        // `Truncated`, not allocate gigabytes first.
        let mut queries = Vec::with_capacity(nq.min(buf.remaining() / 5));
        for _ in 0..nq {
            need(buf, 4)?;
            let len = buf.get_u32() as usize;
            need(buf, len)?;
            let text = std::str::from_utf8(&buf[..len])
                .map_err(|_| CheckpointError::BadUtf8)?
                .to_owned();
            buf.advance(len);
            need(buf, 1)?;
            let construct_target = match buf.get_u8() {
                0 => None,
                _ => {
                    need(buf, 2)?;
                    Some(buf.get_u16())
                }
            };
            queries.push(LoggedQuery {
                text,
                construct_target,
            });
        }
        if buf.has_remaining() {
            return Err(CheckpointError::TrailingGarbage);
        }
        Ok(queries)
    }

    fn decode_batches(mut buf: &[u8]) -> Result<Vec<LoggedBatch>, CheckpointError> {
        need(buf, 4)?;
        let nb = buf.get_u32() as usize;
        // Same capacity cap as above (≥ 14 bytes per batch record).
        let mut batches = Vec::with_capacity(nb.min(buf.remaining() / 14));
        for _ in 0..nb {
            need(buf, 14)?;
            let stream = buf.get_u16();
            let timestamp = buf.get_u64();
            let nt = buf.get_u32() as usize;
            need(buf, nt * 33)?;
            let mut tuples = Vec::with_capacity(nt);
            for _ in 0..nt {
                let s = Vid(buf.get_u64());
                let p = Pid(buf.get_u64());
                let o = Vid(buf.get_u64());
                let ts = buf.get_u64();
                let kind = match buf.get_u8() {
                    0 => TupleKind::Timeless,
                    _ => TupleKind::Timing,
                };
                tuples.push(StreamTuple {
                    triple: Triple::new(s, p, o),
                    timestamp: ts,
                    kind,
                });
            }
            batches.push(LoggedBatch {
                stream,
                timestamp,
                tuples,
            });
        }
        if buf.has_remaining() {
            return Err(CheckpointError::TrailingGarbage);
        }
        Ok(batches)
    }

    /// Deserialises a checkpoint, verifying the header checksum, every
    /// section checksum, and that no bytes trail the final section.
    pub fn decode(mut buf: &[u8]) -> Result<Self, CheckpointError> {
        need(buf, 25)?;
        let header_fnv = fnv1a(&buf[..17]);
        if buf.get_u32() != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let v = buf.get_u8();
        if v != VERSION {
            return Err(CheckpointError::BadVersion(v));
        }
        let vts_len = buf.get_u32() as usize;
        let queries_len = buf.get_u32() as usize;
        let batches_len = buf.get_u32() as usize;
        if header_fnv != buf.get_u64() {
            return Err(CheckpointError::ChecksumMismatch("header"));
        }

        let local_vts = Self::decode_vts(Self::take_section(&mut buf, vts_len, "vts")?)?;
        let queries = Self::decode_queries(Self::take_section(&mut buf, queries_len, "queries")?)?;
        let batches = Self::decode_batches(Self::take_section(&mut buf, batches_len, "batches")?)?;

        if buf.has_remaining() {
            return Err(CheckpointError::TrailingGarbage);
        }
        Ok(Checkpoint {
            local_vts,
            queries,
            batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            local_vts: vec![vec![100, 50], vec![100, 50]],
            queries: vec![
                LoggedQuery {
                    text: "REGISTER QUERY q SELECT ?X …".into(),
                    construct_target: None,
                },
                LoggedQuery {
                    text: "REGISTER QUERY d CONSTRUCT { ?X a ?Y } …".into(),
                    construct_target: Some(3),
                },
            ],
            batches: vec![LoggedBatch {
                stream: 1,
                timestamp: 100,
                tuples: vec![
                    StreamTuple::timeless(Triple::new(Vid(1), Pid(2), Vid(3)), 80),
                    StreamTuple::timing(Triple::new(Vid(4), Pid(5), Vid(6)), 90),
                ],
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        let bytes = c.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), c);
    }

    #[test]
    fn empty_roundtrip() {
        let c = Checkpoint::default();
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            Checkpoint::decode(&[0u8; 25]),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn truncation_detected_everywhere() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            match Checkpoint::decode(&bytes[..cut]) {
                Err(_) => {}
                Ok(c) => panic!("decode of {cut}-byte prefix unexpectedly succeeded: {c:?}"),
            }
        }
    }

    #[test]
    fn bad_version_rejected() {
        let mut b = sample().encode().to_vec();
        b[4] = 99;
        assert_eq!(Checkpoint::decode(&b), Err(CheckpointError::BadVersion(99)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut b = sample().encode().to_vec();
        b.push(0);
        assert_eq!(
            Checkpoint::decode(&b),
            Err(CheckpointError::TrailingGarbage)
        );
        let mut b = sample().encode().to_vec();
        b.extend_from_slice(&sample().encode());
        assert_eq!(
            Checkpoint::decode(&b),
            Err(CheckpointError::TrailingGarbage)
        );
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().encode().to_vec();
        for bit in 0..bytes.len() * 8 {
            let mut b = bytes.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            match Checkpoint::decode(&b) {
                Err(_) => {}
                Ok(c) => panic!("bit flip at {bit} decoded cleanly: {c:?}"),
            }
        }
    }

    #[test]
    fn section_checksums_name_the_site() {
        // Flip a bit deep inside the batches section (last section,
        // after the 25-byte header and both earlier sections).
        let c = sample();
        let bytes = c.encode().to_vec();
        let mut b = bytes.clone();
        let last_payload_byte = bytes.len() - 9; // before the final crc
        b[last_payload_byte] ^= 0x10;
        assert_eq!(
            Checkpoint::decode(&b),
            Err(CheckpointError::ChecksumMismatch("batches"))
        );
        // And in the header's length fields.
        let mut b = bytes.clone();
        b[6] ^= 0x01; // vts_len
        assert_eq!(
            Checkpoint::decode(&b),
            Err(CheckpointError::ChecksumMismatch("header"))
        );
    }
}
