//! Serialization of event tables: a compact binary format and CSV interop.
//!
//! The paper's pipeline moved from CSV (pandas-friendly, slow to parse) to
//! custom binary formats when parsing became the bottleneck (§IV-C). Both
//! formats are provided: binary for storage/round-trips, CSV for human
//! inspection and external tools.
//!
//! Binary layout (little-endian, columnar):
//!
//! ```text
//! magic "AMRT" | version u32 | rows u64 |
//! step[rows] u32 | rank[rows] u32 | block[rows] u32 | phase[rows] u8 |
//! duration_ns[rows] u64 | msg_count[rows] u32 | msg_bytes[rows] u64
//! ```
//!
//! Columnar on disk too: decoding a single column only needs one contiguous
//! read, mirroring the embedded-statistics/partitioned-scan argument the
//! paper makes for Parquet-style formats (Lesson 4).

use crate::record::{EventRecord, Phase};
use crate::table::EventTable;

/// Magic bytes identifying the format.
pub const MAGIC: &[u8; 4] = b"AMRT";
/// Current format version.
pub const VERSION: u32 = 1;

/// Errors produced by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Missing/incorrect magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Buffer ended before the declared row count was read.
    Truncated,
    /// A phase byte did not map to a known phase.
    BadPhase(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadPhase(p) => write!(f, "invalid phase code {p}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Header: magic, version, row count.
const HEADER_BYTES: usize = 4 + 4 + 8;
/// Encoded bytes per row, summed over the seven columns.
const ROW_BYTES: usize = 4 + 4 + 4 + 1 + 8 + 4 + 8;

/// Append a whole column, little-endian.
fn put_column<T: Copy, const N: usize>(buf: &mut Vec<u8>, col: &[T], le: impl Fn(T) -> [u8; N]) {
    let at = buf.len();
    buf.resize(at + col.len() * N, 0);
    for (dst, &v) in buf[at..].chunks_exact_mut(N).zip(col) {
        dst.copy_from_slice(&le(v));
    }
}

/// Split `N` bytes off the front of `buf`, or report it truncated.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf.split_first_chunk().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Split a whole `rows`-long column off the front of `buf`, which the
/// caller has checked holds it.
fn take_column<T, const N: usize>(
    buf: &mut &[u8],
    rows: usize,
    le: impl Fn([u8; N]) -> T,
) -> Vec<T> {
    let (col, rest) = buf.split_at(rows * N);
    *buf = rest;
    col.chunks_exact(N)
        .map(|c| le(c.try_into().expect("chunks_exact yields N bytes")))
        .collect()
}

/// Encode a table into the binary columnar format.
pub fn encode(table: &EventTable) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + table.len() * ROW_BYTES);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(table.len() as u64).to_le_bytes());
    put_column(&mut buf, table.steps(), u32::to_le_bytes);
    put_column(&mut buf, table.ranks(), u32::to_le_bytes);
    put_column(&mut buf, table.blocks(), u32::to_le_bytes);
    buf.extend_from_slice(table.phases());
    put_column(&mut buf, table.durations(), u64::to_le_bytes);
    put_column(&mut buf, table.msg_counts(), u32::to_le_bytes);
    put_column(&mut buf, table.msg_bytes(), u64::to_le_bytes);
    buf
}

/// Decode a binary buffer back into a table.
pub fn decode(mut buf: &[u8]) -> Result<EventTable, DecodeError> {
    if buf.len() < HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    if &take::<4>(&mut buf)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u32::from_le_bytes(take(&mut buf)?);
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let rows = u64::from_le_bytes(take(&mut buf)?);
    let rows = usize::try_from(rows).map_err(|_| DecodeError::Truncated)?;
    let need = rows.checked_mul(ROW_BYTES).ok_or(DecodeError::Truncated)?;
    if buf.len() < need {
        return Err(DecodeError::Truncated);
    }
    let step = take_column(&mut buf, rows, u32::from_le_bytes);
    let rank = take_column(&mut buf, rows, u32::from_le_bytes);
    let block = take_column(&mut buf, rows, u32::from_le_bytes);
    let phase = take_column(&mut buf, rows, u8::from_le_bytes);
    if let Some(&bad) = phase.iter().find(|&&p| Phase::from_code(p).is_none()) {
        return Err(DecodeError::BadPhase(bad));
    }
    let duration_ns = take_column(&mut buf, rows, u64::from_le_bytes);
    let msg_count = take_column(&mut buf, rows, u32::from_le_bytes);
    let msg_bytes = take_column(&mut buf, rows, u64::from_le_bytes);
    Ok(EventTable {
        step,
        rank,
        block,
        phase,
        duration_ns,
        msg_count,
        msg_bytes,
    })
}

/// CSV header matching [`to_csv`]'s row layout.
pub const CSV_HEADER: &str = "step,rank,block,phase,duration_ns,msg_count,msg_bytes";

/// Render the table as CSV (with header).
pub fn to_csv(table: &EventTable) -> String {
    let mut out = String::with_capacity(table.len() * 32 + CSV_HEADER.len() + 1);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for r in table.iter() {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.step, r.rank, r.block, r.phase, r.duration_ns, r.msg_count, r.msg_bytes
        ));
    }
    out
}

/// Parse CSV produced by [`to_csv`] (header required).
pub fn from_csv(text: &str) -> Result<EventTable, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty input")?;
    if header.trim() != CSV_HEADER {
        return Err(format!("unexpected header: {header}"));
    }
    let mut table = EventTable::new();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(format!("line {}: expected 7 fields", lineno + 2));
        }
        let phase = Phase::ALL
            .iter()
            .find(|p| p.label() == fields[3])
            .copied()
            .ok_or_else(|| format!("line {}: unknown phase {}", lineno + 2, fields[3]))?;
        let parse_err = |e: std::num::ParseIntError| format!("line {}: {e}", lineno + 2);
        table.push(EventRecord {
            step: fields[0].parse().map_err(parse_err)?,
            rank: fields[1].parse().map_err(parse_err)?,
            block: fields[2].parse().map_err(parse_err)?,
            phase,
            duration_ns: fields[4].parse().map_err(parse_err)?,
            msg_count: fields[5].parse().map_err(parse_err)?,
            msg_bytes: fields[6].parse().map_err(parse_err)?,
        });
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NO_BLOCK;

    fn sample() -> EventTable {
        vec![
            EventRecord::compute(0, 0, 1, 400),
            EventRecord::rank_phase(0, 1, Phase::Synchronization, 300),
            EventRecord {
                step: 2,
                rank: 3,
                block: 5,
                phase: Phase::BoundaryComm,
                duration_ns: 12345,
                msg_count: 26,
                msg_bytes: 1 << 20,
            },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample();
        let buf = encode(&t);
        let back = decode(&buf).unwrap();
        assert_eq!(back.len(), t.len());
        for i in 0..t.len() {
            assert_eq!(back.row(i), t.row(i));
        }
    }

    #[test]
    fn binary_roundtrip_empty() {
        let t = EventTable::new();
        let back = decode(&encode(&t)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(b"nope").unwrap_err(), DecodeError::Truncated);
        assert_eq!(
            decode(b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00").unwrap_err(),
            DecodeError::BadMagic
        );
        let mut buf = encode(&sample()).to_vec();
        buf[4] = 99; // version
        assert_eq!(decode(&buf).unwrap_err(), DecodeError::BadVersion(99));
        let buf = encode(&sample());
        assert_eq!(
            decode(&buf[..buf.len() - 1]).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn csv_roundtrip() {
        let t = sample();
        let csv = to_csv(&t);
        assert!(csv.starts_with(CSV_HEADER));
        let back = from_csv(&csv).unwrap();
        assert_eq!(back.len(), t.len());
        for i in 0..t.len() {
            assert_eq!(back.row(i), t.row(i));
        }
    }

    #[test]
    fn csv_rejects_malformed() {
        assert!(from_csv("").is_err());
        assert!(from_csv("bogus,header\n").is_err());
        let bad_phase = format!("{CSV_HEADER}\n0,0,0,warp,1,0,0\n");
        assert!(from_csv(&bad_phase).is_err());
        let short = format!("{CSV_HEADER}\n0,0,0\n");
        assert!(from_csv(&short).is_err());
    }

    #[test]
    fn no_block_survives_roundtrips() {
        let t: EventTable =
            std::iter::once(EventRecord::rank_phase(9, 9, Phase::MpiWait, 1)).collect();
        assert_eq!(decode(&encode(&t)).unwrap().row(0).block, NO_BLOCK);
        assert_eq!(from_csv(&to_csv(&t)).unwrap().row(0).block, NO_BLOCK);
    }
}

/// Write a table to a file in the binary format.
pub fn write_file(table: &EventTable, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode(table))
}

/// Read a table from a binary file.
pub fn read_file(path: &std::path::Path) -> std::io::Result<EventTable> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod file_tests {
    use super::*;
    use crate::record::EventRecord;

    #[test]
    fn file_roundtrip() {
        let table: EventTable = (0..100u32)
            .map(|i| EventRecord::compute(i, i % 8, i, i as u64))
            .collect();
        let path = std::env::temp_dir().join("amr_telemetry_codec_test.bin");
        write_file(&table, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.len(), table.len());
        assert_eq!(back.row(42), table.row(42));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_file_rejects_corruption() {
        let path = std::env::temp_dir().join("amr_telemetry_codec_bad.bin");
        std::fs::write(&path, b"not a telemetry file").unwrap();
        assert!(read_file(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
