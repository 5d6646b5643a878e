//! Record framing: length-prefixed, CRC-checksummed store records.
//!
//! Every segment file starts with the 8-byte magic `QRNSTOR1` and then
//! holds zero or more records laid out as
//!
//! ```text
//! [payload_len: u32 LE][crc32: u32 LE]           outer header, 8 bytes
//! [kind: u8][ts_millis: u64 LE]                  ┐
//! [duplicates: u32 LE][gap_events: u32 LE]       │ inner header, 21 bytes
//! [missing_seqs: u32 LE]                         ┘
//! [payload: payload_len bytes]
//! ```
//!
//! The CRC32 (IEEE, the polynomial zlib and ethernet use) covers the
//! inner header *and* the payload, so a flipped byte anywhere in a
//! record — including its own metadata — fails the checksum. The outer
//! header is deliberately *not* covered: a record whose outer header is
//! damaged is indistinguishable from a torn tail, and both are handled
//! by the same tolerant tail scan.
//!
//! Record kinds:
//!
//! * **Batch (1)** — the screened JSONL text of one accepted telemetry
//!   batch, verbatim. The inner-header counters carry the batch's
//!   sequence-screening deltas (duplicates rejected, gaps detected,
//!   sequence numbers missing), so skip accounting survives replay
//!   without re-deriving it.
//! * **Snapshot (2)** — the serialised cumulative fold state at this
//!   point of the log (see [`crate::store`]). On replay a snapshot
//!   *replaces* the running state; on query and on recovery it is the
//!   base the fold starts from, so the *fold* costs O(tail). The
//!   checksum pass still costs O(store) by design: every read checks
//!   every record it reads, folded or not.
//!
//! [`decode`] checks a record and borrows it from the buffer
//! ([`RecordRef`]); only the records a fold keeps are ever copied
//! ([`RecordRef::owned`]).

use crate::StoreError;

/// Magic bytes opening every segment file.
pub const MAGIC: &[u8; 8] = b"QRNSTOR1";

/// Size of the outer record header (`payload_len` + `crc32`).
pub const OUTER_HEADER: usize = 8;

/// Size of the checksummed inner record header.
pub const INNER_HEADER: usize = 21;

/// What a record holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A screened telemetry batch (JSONL payload).
    Batch,
    /// A cumulative fold-state snapshot (JSON payload).
    Snapshot,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Batch => 1,
            RecordKind::Snapshot => 2,
        }
    }

    fn from_byte(byte: u8) -> Option<RecordKind> {
        match byte {
            1 => Some(RecordKind::Batch),
            2 => Some(RecordKind::Snapshot),
            _ => None,
        }
    }
}

/// One framed store record, owning its payload (`P = Vec<u8>`) or
/// borrowing it from a segment buffer ([`RecordRef`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<P = Vec<u8>> {
    /// What the payload is.
    pub kind: RecordKind,
    /// Milliseconds since the unix epoch; non-decreasing within a store.
    pub ts: u64,
    /// Duplicate sequenced lines rejected while screening this batch
    /// (zero for snapshots).
    pub duplicates: u32,
    /// Sequence gaps (jump events) detected while screening this batch
    /// (zero for snapshots).
    pub gap_events: u32,
    /// Individual sequence numbers missing across those gaps (zero for
    /// snapshots).
    pub missing_seqs: u32,
    /// The record body.
    pub payload: P,
}

/// A checksum-valid record borrowed from the buffer it was decoded from.
pub type RecordRef<'a> = Record<&'a [u8]>;

impl<P: AsRef<[u8]>> Record<P> {
    /// The record with its payload borrowed.
    pub fn view(&self) -> RecordRef<'_> {
        Record {
            kind: self.kind,
            ts: self.ts,
            duplicates: self.duplicates,
            gap_events: self.gap_events,
            missing_seqs: self.missing_seqs,
            payload: self.payload.as_ref(),
        }
    }

    /// Frames the record as bytes ready to append to a segment file.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload.as_ref();
        let mut inner = Vec::with_capacity(INNER_HEADER + payload.len());
        inner.push(self.kind.to_byte());
        inner.extend_from_slice(&self.ts.to_le_bytes());
        inner.extend_from_slice(&self.duplicates.to_le_bytes());
        inner.extend_from_slice(&self.gap_events.to_le_bytes());
        inner.extend_from_slice(&self.missing_seqs.to_le_bytes());
        inner.extend_from_slice(payload);

        let mut out = Vec::with_capacity(OUTER_HEADER + inner.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&inner).to_le_bytes());
        out.extend_from_slice(&inner);
        out
    }
}

impl RecordRef<'_> {
    /// The record with its payload copied out of the buffer.
    pub fn owned(self) -> Record {
        Record {
            kind: self.kind,
            ts: self.ts,
            duplicates: self.duplicates,
            gap_events: self.gap_events,
            missing_seqs: self.missing_seqs,
            payload: self.payload.to_vec(),
        }
    }
}

/// Outcome of decoding one record from a buffer position.
#[derive(Debug)]
pub enum Decoded<'a> {
    /// A complete, checksum-valid record, and how many bytes it spanned.
    Record(RecordRef<'a>, usize),
    /// The buffer ends before the record does — a torn tail when it is
    /// the open segment, corruption when the segment is closed.
    Truncated,
}

/// Checks and decodes the record starting at the beginning of `buf`,
/// borrowing its payload from `buf`.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] for a checksum mismatch or an unknown
/// record kind. A buffer too short for the framed length is
/// [`Decoded::Truncated`], not an error — the caller decides whether
/// truncation is tolerable (open segment) or corruption (closed
/// segment).
pub fn decode(buf: &[u8]) -> Result<Decoded<'_>, StoreError> {
    if buf.len() < OUTER_HEADER + INNER_HEADER {
        return Ok(Decoded::Truncated);
    }
    let payload_len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    let stored_crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let total = OUTER_HEADER + INNER_HEADER + payload_len;
    if buf.len() < total {
        return Ok(Decoded::Truncated);
    }
    let inner = &buf[OUTER_HEADER..total];
    if crc32(inner) != stored_crc {
        return Err(StoreError::Corrupt("record checksum mismatch".to_string()));
    }
    let kind = RecordKind::from_byte(inner[0])
        .ok_or_else(|| StoreError::Corrupt(format!("unknown record kind {}", inner[0])))?;
    let ts = u64::from_le_bytes(inner[1..9].try_into().expect("8 bytes"));
    let duplicates = u32::from_le_bytes(inner[9..13].try_into().expect("4 bytes"));
    let gap_events = u32::from_le_bytes(inner[13..17].try_into().expect("4 bytes"));
    let missing_seqs = u32::from_le_bytes(inner[17..21].try_into().expect("4 bytes"));
    Ok(Decoded::Record(
        Record {
            kind,
            ts,
            duplicates,
            gap_events,
            missing_seqs,
            payload: &inner[INNER_HEADER..],
        },
        total,
    ))
}

/// CRC32 lookup tables (IEEE polynomial, reflected) for slicing-by-16,
/// built at compile time so the implementation needs no dependency and
/// no runtime initialisation. `CRC_TABLES[0]` is the classic bytewise
/// table; `CRC_TABLES[k][b]` is what byte `b` followed by `k` zero
/// bytes contributes to the CRC register, so one lookup per byte of a
/// 16-byte block folds the whole block into the running CRC at once.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes` — the checksum zlib, PNG and ethernet use.
/// Folds 16 bytes per step (slicing-by-16), then the remainder bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    // Four table lookups of one little-endian word, the word's first
    // byte sitting `k + 3` zero bytes before the end of the block.
    let lookups = |word: u32, k: usize| {
        (t[k + 3][(word & 0xFF) as usize] ^ t[k + 2][((word >> 8) & 0xFF) as usize])
            ^ (t[k + 1][((word >> 16) & 0xFF) as usize] ^ t[k][(word >> 24) as usize])
    };
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let (blocks, rest) = bytes.as_chunks::<16>();
    let mut c = !0u32;
    for b in blocks {
        // Only the first word depends on the running CRC; grouping the
        // other twelve lookups apart keeps the loop-carried chain short.
        let tail = lookups(word(&b[4..8]), 8)
            ^ (lookups(word(&b[8..12]), 4) ^ lookups(word(&b[12..16]), 0));
        c = lookups(c ^ word(&b[0..4]), 12) ^ tail;
    }
    for &b in rest {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook bytewise CRC32 the sliced kernel must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn sample(kind: RecordKind, payload: &[u8]) -> Record {
        Record {
            kind,
            ts: 1_700_000_000_123,
            duplicates: 3,
            gap_events: 1,
            missing_seqs: 4,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic test vector every CRC32 (IEEE) implementation
        // agrees on.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn records_round_trip() {
        for kind in [RecordKind::Batch, RecordKind::Snapshot] {
            let record = sample(kind, b"{\"v\":1}\n");
            let bytes = record.encode();
            match decode(&bytes).unwrap() {
                Decoded::Record(back, consumed) => {
                    assert_eq!(back, record.view());
                    assert_eq!(back.owned(), record);
                    assert_eq!(consumed, bytes.len());
                }
                other => panic!("expected record, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_payload_round_trips() {
        let record = sample(RecordKind::Batch, b"");
        let bytes = record.encode();
        assert!(matches!(decode(&bytes).unwrap(), Decoded::Record(r, _) if r == record.view()));
    }

    #[test]
    fn every_prefix_is_truncated_never_garbage() {
        let bytes = sample(RecordKind::Batch, b"payload bytes here").encode();
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Ok(Decoded::Truncated) => {}
                other => panic!("prefix of {cut} bytes decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn a_flipped_byte_anywhere_inside_the_checksum_fails_loudly() {
        let bytes = sample(RecordKind::Batch, b"payload bytes here").encode();
        for i in OUTER_HEADER..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0x40;
            assert!(
                matches!(decode(&damaged), Err(StoreError::Corrupt(_))),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn unknown_kind_is_corrupt() {
        let mut record = sample(RecordKind::Batch, b"x");
        record.ts = 0;
        let mut bytes = record.encode();
        // Rewrite the kind byte and fix the checksum so only the kind is
        // wrong.
        bytes[OUTER_HEADER] = 99;
        let crc = crc32(&bytes[OUTER_HEADER..]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(StoreError::Corrupt(msg)) if msg.contains("99")));
    }

    #[test]
    fn consecutive_records_decode_in_sequence() {
        let a = sample(RecordKind::Batch, b"first");
        let b = sample(RecordKind::Snapshot, b"second snapshot payload");
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let Decoded::Record(first, consumed) = decode(&bytes).unwrap() else {
            panic!("first record truncated");
        };
        assert_eq!(first, a.view());
        let Decoded::Record(second, rest) = decode(&bytes[consumed..]).unwrap() else {
            panic!("second record truncated");
        };
        assert_eq!(second, b.view());
        assert_eq!(consumed + rest, bytes.len());
    }

    #[test]
    fn crc32_agrees_with_the_bytewise_reference_at_every_remainder_and_offset() {
        let bytes: Vec<u8> = (0..96u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..16 {
            for len in 0..=64 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn crc32_agrees_with_the_bytewise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..4096),
            start in 0usize..16,
            trim in 0usize..16,
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
            // An unaligned sub-slice with an arbitrary remainder mod 16.
            let start = start.min(bytes.len());
            let end = bytes.len().saturating_sub(trim).max(start);
            let slice = &bytes[start..end];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}
