//! `ltc` — the columnar binary trace container (the pipeline fast path).
//!
//! The W3C-style [`crate::wms`] text format is the *interchange* format;
//! `ltc` is the *replay* format: once a log has been converted, every
//! re-analysis pays column decode instead of text parse. The layout is
//! block-structured so ingest can fan blocks out to parallel workers and
//! skip damaged regions without losing the rest of the file:
//!
//! ```text
//! file   := header block* footer
//! header := "LTC1" | version u8 (=1) | flags u8 (=0) | reserved u16
//! block  := payload_len u32 LE | n_records u32 LE | crc32 u32 LE | payload
//! footer := fpayload | crc32(fpayload) u32 LE | fpayload_len u32 LE | "LTCF"
//! ```
//!
//! Each block holds up to [`DEFAULT_BLOCK_RECORDS`] records as
//! struct-of-arrays column segments (`uvarint(len) ++ bytes` each, in
//! [`LogEntry`] field order): `start` and `timestamp` are
//! delta-plus-zigzag varints (resetting at block boundaries so blocks
//! decode independently), numeric ids and byte counts are plain varints,
//! `country`/`object`/`status` are dictionary-encoded per block in
//! first-appearance order, `camera` is one raw byte per record, `ip` is
//! a raw little-endian word (address bits are too random for varints),
//! and the two `f32` fields are raw little-endian bits so records round-trip
//! *bit-identically* — including §2.4-corrupt records (bad status,
//! inconsistent timestamps) that the sanitizer will later reject.
//!
//! The footer carries the block index (payload lengths and record
//! counts, from which block offsets are a prefix sum), the total record
//! count, and a `sorted` flag set when the writer saw records in
//! nondecreasing `(start, timestamp)` order — the streaming engine uses
//! it to bypass its look-ahead reorder buffer. A reader that finds the
//! footer missing or damaged falls back to a sequential block-header
//! scan, recovering every intact leading block of a truncated file; a
//! block whose CRC fails is *counted* and skipped, never fatal —
//! mirroring how malformed text lines are handled.
//!
//! Reading goes through the [`BlockSource`] trait: [`SliceSource`] lends
//! zero-copy views of an in-memory buffer; [`FileSource`] seeks and
//! reads into a reusable scratch buffer, holding one block resident at a
//! time (the workspace forbids `unsafe`, so a memory-mapped source is
//! deliberately out of scope — it would slot behind the same trait).

pub mod codec;

use crate::event::LogEntry;
use crate::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use codec::{crc32, read_uvarint, unzigzag, write_uvarint, zigzag};
use std::collections::BTreeMap;
use std::io::{self, Read, Seek, SeekFrom, Write};

/// File magic ("LTC1").
pub const MAGIC: [u8; 4] = *b"LTC1";
/// Footer magic ("LTCF"), the last four bytes of a complete file.
pub const FOOTER_MAGIC: [u8; 4] = *b"LTCF";
/// Container version this module reads and writes.
pub const VERSION: u8 = 1;
/// File header length in bytes.
pub const HEADER_LEN: u64 = 8;
/// Per-block header length in bytes (payload_len, n_records, crc).
pub const BLOCK_HEADER_LEN: usize = 12;
/// Footer tail length in bytes (crc, payload_len, magic).
const FOOTER_TAIL_LEN: usize = 12;
/// Default records per block (~64k: 3 MB decoded, well under a cache of
/// typical per-worker working sets).
pub const DEFAULT_BLOCK_RECORDS: usize = 64 * 1024;

/// Sniffs whether a byte prefix looks like an `ltc` file.
pub fn is_ltc(prefix: &[u8]) -> bool {
    prefix.len() >= MAGIC.len() && prefix[..MAGIC.len()] == MAGIC
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn eof(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, msg)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// What [`LtcWriter::finish`] reports about the written file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LtcSummary {
    /// Records written.
    pub records: u64,
    /// Blocks written.
    pub blocks: u64,
    /// Bytes written, including header and footer.
    pub bytes: u64,
    /// Whether the record stream was nondecreasing in `(start, timestamp)`.
    pub sorted: bool,
}

/// Streaming `ltc` encoder over any [`Write`] sink.
///
/// Buffers up to one block of records, encodes columns on block
/// boundaries, and writes the footer index on [`finish`](Self::finish).
/// Memory is bounded by one block regardless of trace size.
#[derive(Debug)]
pub struct LtcWriter<W: Write> {
    sink: W,
    pending: Vec<LogEntry>,
    block_records: usize,
    /// Per-block (payload_len, n_records), in file order.
    index: Vec<(u32, u32)>,
    records: u64,
    bytes: u64,
    sorted: bool,
    prev_key: Option<(u32, u32)>,
    payload: Vec<u8>,
    col: Vec<u8>,
}

impl<W: Write> LtcWriter<W> {
    /// Starts a writer with the default block size; writes the header.
    pub fn new(sink: W) -> io::Result<Self> {
        Self::with_block_records(sink, DEFAULT_BLOCK_RECORDS)
    }

    /// Starts a writer with an explicit records-per-block bound.
    pub fn with_block_records(mut sink: W, block_records: usize) -> io::Result<Self> {
        let mut header = [0u8; HEADER_LEN as usize];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = VERSION;
        sink.write_all(&header)?;
        Ok(Self {
            sink,
            pending: Vec::new(),
            block_records: block_records.max(1),
            index: Vec::new(),
            records: 0,
            bytes: HEADER_LEN,
            sorted: true,
            prev_key: None,
            payload: Vec::new(),
            col: Vec::new(),
        })
    }

    /// Appends one record, flushing a block when full.
    pub fn push(&mut self, e: &LogEntry) -> io::Result<()> {
        let key = (e.start, e.timestamp);
        if let Some(prev) = self.prev_key {
            if key < prev {
                self.sorted = false;
            }
        }
        self.prev_key = Some(key);
        self.pending.push(*e);
        if self.pending.len() >= self.block_records {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        encode_columns(&self.pending, &mut self.payload, &mut self.col);
        let payload_len = u32::try_from(self.payload.len())
            .map_err(|_| invalid("ltc block payload exceeds u32"))?;
        let n_records = u32::try_from(self.pending.len())
            .map_err(|_| invalid("ltc block record count exceeds u32"))?;
        let crc = crc32(&self.payload);
        let mut header = [0u8; BLOCK_HEADER_LEN];
        header[..4].copy_from_slice(&payload_len.to_le_bytes());
        header[4..8].copy_from_slice(&n_records.to_le_bytes());
        header[8..12].copy_from_slice(&crc.to_le_bytes());
        self.sink.write_all(&header)?;
        self.sink.write_all(&self.payload)?;
        self.bytes += (BLOCK_HEADER_LEN + self.payload.len()) as u64;
        self.index.push((payload_len, n_records));
        self.records += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the tail block, writes the footer index, and returns the
    /// file summary.
    pub fn finish(mut self) -> io::Result<LtcSummary> {
        self.flush_block()?;
        let mut fpayload = Vec::new();
        write_uvarint(&mut fpayload, self.index.len() as u64);
        for &(payload_len, n_records) in &self.index {
            write_uvarint(&mut fpayload, u64::from(payload_len));
            write_uvarint(&mut fpayload, u64::from(n_records));
        }
        write_uvarint(&mut fpayload, self.records);
        fpayload.push(u8::from(self.sorted));
        let fpayload_len =
            u32::try_from(fpayload.len()).map_err(|_| invalid("ltc footer exceeds u32"))?;
        let crc = crc32(&fpayload);
        self.sink.write_all(&fpayload)?;
        self.sink.write_all(&crc.to_le_bytes())?;
        self.sink.write_all(&fpayload_len.to_le_bytes())?;
        self.sink.write_all(&FOOTER_MAGIC)?;
        self.sink.flush()?;
        self.bytes += fpayload.len() as u64 + FOOTER_TAIL_LEN as u64;
        Ok(LtcSummary {
            records: self.records,
            blocks: self.index.len() as u64,
            bytes: self.bytes,
            sorted: self.sorted,
        })
    }
}

/// Encodes a whole entry slice through a writer (tests, CLI, bench).
pub fn write_entries<W: Write>(entries: &[LogEntry], sink: W) -> io::Result<LtcSummary> {
    let mut w = LtcWriter::new(sink)?;
    for e in entries {
        w.push(e)?;
    }
    w.finish()
}

/// Encodes entries into an in-memory `ltc` image.
pub fn encode(entries: &[LogEntry]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    write_entries(entries, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Column codecs
// ---------------------------------------------------------------------------

/// Closes one column segment: length prefix + bytes, then resets `col`.
fn seg(payload: &mut Vec<u8>, col: &mut Vec<u8>) {
    write_uvarint(payload, col.len() as u64);
    payload.extend_from_slice(col);
    col.clear();
}

/// Appends a delta+zigzag encoded column (deltas reset per block).
fn encode_delta_u32(records: &[LogEntry], field: fn(&LogEntry) -> u32, col: &mut Vec<u8>) {
    let mut prev = 0i64;
    for e in records {
        let v = i64::from(field(e));
        write_uvarint(col, zigzag(v - prev));
        prev = v;
    }
}

/// Encodes `records` into the 14 column segments of one block payload.
fn encode_columns(records: &[LogEntry], payload: &mut Vec<u8>, col: &mut Vec<u8>) {
    payload.clear();

    // start, timestamp: delta + zigzag.
    encode_delta_u32(records, |e| e.start, col);
    seg(payload, col);
    encode_delta_u32(records, |e| e.timestamp, col);
    seg(payload, col);
    // duration, client, as_id: plain varints.
    for e in records {
        write_uvarint(col, u64::from(e.duration));
    }
    seg(payload, col);
    for e in records {
        write_uvarint(col, u64::from(e.client.0));
    }
    seg(payload, col);
    // ip: raw LE u32 — address bits are effectively random, so a varint
    // averages five bytes and a fixed word is both smaller and decodes
    // with a single load.
    for e in records {
        col.extend_from_slice(&e.ip.0.to_le_bytes());
    }
    seg(payload, col);
    for e in records {
        write_uvarint(col, u64::from(e.as_id.0));
    }
    seg(payload, col);
    // country: per-block dictionary, first-appearance order.
    {
        let mut dict: Vec<[u8; 2]> = Vec::new();
        let mut slots: BTreeMap<[u8; 2], u64> = BTreeMap::new();
        let indices: Vec<u64> = records
            .iter()
            .map(|e| {
                *slots.entry(e.country.0).or_insert_with(|| {
                    dict.push(e.country.0);
                    dict.len() as u64 - 1
                })
            })
            .collect();
        write_uvarint(col, dict.len() as u64);
        for c in &dict {
            col.extend_from_slice(c);
        }
        for i in indices {
            write_uvarint(col, i);
        }
        seg(payload, col);
    }
    // object: per-block dictionary over small integers.
    encode_dict_u16(records, |e| e.object.0, col);
    seg(payload, col);
    // camera: raw byte per record.
    for e in records {
        col.push(e.camera);
    }
    seg(payload, col);
    // bytes, avg_bandwidth: plain varints.
    for e in records {
        write_uvarint(col, e.bytes);
    }
    seg(payload, col);
    for e in records {
        write_uvarint(col, u64::from(e.avg_bandwidth));
    }
    seg(payload, col);
    // packet_loss, cpu_util: raw LE f32 bits (bit-identical round-trip).
    for e in records {
        col.extend_from_slice(&e.packet_loss.to_bits().to_le_bytes());
    }
    seg(payload, col);
    for e in records {
        col.extend_from_slice(&e.cpu_util.to_bits().to_le_bytes());
    }
    seg(payload, col);
    // status: dictionary.
    encode_dict_u16(records, |e| e.status, col);
    seg(payload, col);
}

fn encode_dict_u16(records: &[LogEntry], field: impl Fn(&LogEntry) -> u16, col: &mut Vec<u8>) {
    let mut dict: Vec<u16> = Vec::new();
    let mut slots: BTreeMap<u16, u64> = BTreeMap::new();
    let indices: Vec<u64> = records
        .iter()
        .map(|e| {
            *slots.entry(field(e)).or_insert_with(|| {
                dict.push(field(e));
                dict.len() as u64 - 1
            })
        })
        .collect();
    write_uvarint(col, dict.len() as u64);
    for &v in &dict {
        write_uvarint(col, u64::from(v));
    }
    for i in indices {
        write_uvarint(col, i);
    }
}

/// One decoded block: borrowable struct-of-arrays column slices, reused
/// across blocks so steady-state decode performs no per-record (or even
/// per-block) allocation.
#[derive(Debug, Default, Clone)]
pub struct RecordBlock {
    /// Transfer start seconds.
    pub start: Vec<u32>,
    /// Log timestamps (stop seconds for §2.4-clean records).
    pub timestamp: Vec<u32>,
    /// Transfer durations.
    pub duration: Vec<u32>,
    /// Player ids.
    pub client: Vec<u32>,
    /// Client IPs (big-endian u32 form, as in [`Ipv4Addr`]).
    pub ip: Vec<u32>,
    /// Autonomous system ids.
    pub as_id: Vec<u16>,
    /// Country codes.
    pub country: Vec<[u8; 2]>,
    /// Object (feed) ids.
    pub object: Vec<u16>,
    /// Camera indices.
    pub camera: Vec<u8>,
    /// Bytes delivered.
    pub bytes: Vec<u64>,
    /// Average bandwidth, bits/s.
    pub avg_bandwidth: Vec<u32>,
    /// Packet loss fractions.
    pub packet_loss: Vec<f32>,
    /// Server CPU utilization fractions.
    pub cpu_util: Vec<f32>,
    /// Protocol status codes.
    pub status: Vec<u16>,
}

impl RecordBlock {
    /// Records in this block.
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// True when the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    fn clear(&mut self) {
        self.start.clear();
        self.timestamp.clear();
        self.duration.clear();
        self.client.clear();
        self.ip.clear();
        self.as_id.clear();
        self.country.clear();
        self.object.clear();
        self.camera.clear();
        self.bytes.clear();
        self.avg_bandwidth.clear();
        self.packet_loss.clear();
        self.cpu_util.clear();
        self.status.clear();
    }

    /// Materializes record `i` (panics on out-of-range, like slice index).
    pub fn entry(&self, i: usize) -> LogEntry {
        LogEntry {
            timestamp: self.timestamp[i],
            start: self.start[i],
            duration: self.duration[i],
            client: ClientId(self.client[i]),
            ip: Ipv4Addr(self.ip[i]),
            as_id: AsId(self.as_id[i]),
            country: CountryCode(self.country[i]),
            object: ObjectId(self.object[i]),
            camera: self.camera[i],
            bytes: self.bytes[i],
            avg_bandwidth: self.avg_bandwidth[i],
            packet_loss: self.packet_loss[i],
            cpu_util: self.cpu_util[i],
            status: self.status[i],
        }
    }

    /// Materializes every record in block order.
    pub fn entries(&self) -> impl Iterator<Item = LogEntry> + '_ {
        (0..self.len()).map(|i| self.entry(i))
    }
}

fn take_segment<'a>(payload: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = usize::try_from(read_uvarint(payload, pos)?).ok()?;
    let end = pos.checked_add(len)?;
    let seg = payload.get(*pos..end)?;
    *pos = end;
    Some(seg)
}

fn decode_delta_u32(seg: &[u8], n: usize, out: &mut Vec<u32>) -> Option<()> {
    let mut pos = 0;
    let mut prev = 0i64;
    for _ in 0..n {
        let v = prev + unzigzag(read_uvarint(seg, &mut pos)?);
        out.push(u32::try_from(v).ok()?);
        prev = v;
    }
    (pos == seg.len()).then_some(())
}

fn decode_uvarint_col<T: TryFrom<u64>>(seg: &[u8], n: usize, out: &mut Vec<T>) -> Option<()> {
    let mut pos = 0;
    for _ in 0..n {
        out.push(T::try_from(read_uvarint(seg, &mut pos)?).ok()?);
    }
    (pos == seg.len()).then_some(())
}

fn decode_dict_u16(seg: &[u8], n: usize, out: &mut Vec<u16>) -> Option<()> {
    let mut pos = 0;
    let dict_len = usize::try_from(read_uvarint(seg, &mut pos)?).ok()?;
    if dict_len > n.max(1) {
        return None; // a dictionary can never outgrow its block
    }
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict.push(u16::try_from(read_uvarint(seg, &mut pos)?).ok()?);
    }
    for _ in 0..n {
        let i = usize::try_from(read_uvarint(seg, &mut pos)?).ok()?;
        out.push(*dict.get(i)?);
    }
    (pos == seg.len()).then_some(())
}

fn decode_u32_col(seg: &[u8], n: usize, out: &mut Vec<u32>) -> Option<()> {
    if seg.len() != n * 4 {
        return None;
    }
    for chunk in seg.chunks_exact(4) {
        out.push(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
    }
    Some(())
}

fn decode_f32_col(seg: &[u8], n: usize, out: &mut Vec<f32>) -> Option<()> {
    if seg.len() != n * 4 {
        return None;
    }
    for chunk in seg.chunks_exact(4) {
        let bits = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        out.push(f32::from_bits(bits));
    }
    Some(())
}

/// Decodes one CRC-verified block payload into `out`. Returns `None` on
/// any structural violation (the caller treats that as a corrupt block).
fn decode_columns(payload: &[u8], n_records: usize, out: &mut RecordBlock) -> Option<()> {
    out.clear();
    let n = n_records;
    let mut pos = 0;
    decode_delta_u32(take_segment(payload, &mut pos)?, n, &mut out.start)?;
    decode_delta_u32(take_segment(payload, &mut pos)?, n, &mut out.timestamp)?;
    decode_uvarint_col(take_segment(payload, &mut pos)?, n, &mut out.duration)?;
    decode_uvarint_col(take_segment(payload, &mut pos)?, n, &mut out.client)?;
    decode_u32_col(take_segment(payload, &mut pos)?, n, &mut out.ip)?;
    decode_uvarint_col(take_segment(payload, &mut pos)?, n, &mut out.as_id)?;
    {
        let seg = take_segment(payload, &mut pos)?;
        let mut spos = 0;
        let dict_len = usize::try_from(read_uvarint(seg, &mut spos)?).ok()?;
        if dict_len > n.max(1) {
            return None;
        }
        let mut dict = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            let pair = seg.get(spos..spos + 2)?;
            dict.push([pair[0], pair[1]]);
            spos += 2;
        }
        for _ in 0..n {
            let i = usize::try_from(read_uvarint(seg, &mut spos)?).ok()?;
            out.country.push(*dict.get(i)?);
        }
        if spos != seg.len() {
            return None;
        }
    }
    decode_dict_u16(take_segment(payload, &mut pos)?, n, &mut out.object)?;
    {
        let seg = take_segment(payload, &mut pos)?;
        if seg.len() != n {
            return None;
        }
        out.camera.extend_from_slice(seg);
    }
    decode_uvarint_col(take_segment(payload, &mut pos)?, n, &mut out.bytes)?;
    decode_uvarint_col(take_segment(payload, &mut pos)?, n, &mut out.avg_bandwidth)?;
    decode_f32_col(take_segment(payload, &mut pos)?, n, &mut out.packet_loss)?;
    decode_f32_col(take_segment(payload, &mut pos)?, n, &mut out.cpu_util)?;
    decode_dict_u16(take_segment(payload, &mut pos)?, n, &mut out.status)?;
    (pos == payload.len()).then_some(())
}

// ---------------------------------------------------------------------------
// Block sources
// ---------------------------------------------------------------------------

/// Random-access byte provider the reader layers over.
///
/// The contract is *lend a view of `len` bytes at `offset`*: an in-memory
/// source lends zero-copy subslices; a file source reads into a scratch
/// buffer it owns, so memory stays bounded by one view regardless of file
/// size. A short file yields `ErrorKind::UnexpectedEof`.
pub trait BlockSource {
    /// Total length in bytes.
    fn len(&self) -> u64;

    /// True when the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lends `len` bytes starting at `offset`.
    fn view(&mut self, offset: u64, len: usize) -> io::Result<&[u8]>;
}

/// Zero-copy [`BlockSource`] over an in-memory image.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    bytes: &'a [u8],
}

impl<'a> SliceSource<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }
}

impl BlockSource for SliceSource<'_> {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn view(&mut self, offset: u64, len: usize) -> io::Result<&[u8]> {
        let start = usize::try_from(offset).map_err(|_| eof("ltc view beyond slice"))?;
        self.bytes
            .get(start..start.saturating_add(len))
            .ok_or_else(|| eof("ltc view beyond slice"))
    }
}

/// Bounded-memory [`BlockSource`] over a file: seek + read into a
/// reusable scratch buffer (one block resident at a time).
#[derive(Debug)]
pub struct FileSource {
    file: std::fs::File,
    len: u64,
    scratch: Vec<u8>,
}

impl FileSource {
    /// Opens a file for block reading.
    pub fn open(path: &std::path::Path) -> io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Self {
            file,
            len,
            scratch: Vec::new(),
        })
    }
}

impl BlockSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn view(&mut self, offset: u64, len: usize) -> io::Result<&[u8]> {
        if offset.saturating_add(len as u64) > self.len {
            return Err(eof("ltc view beyond file"));
        }
        self.file.seek(SeekFrom::Start(offset))?;
        self.scratch.resize(len, 0);
        self.file.read_exact(&mut self.scratch)?;
        Ok(&self.scratch)
    }
}

// ---------------------------------------------------------------------------
// Index + reader
// ---------------------------------------------------------------------------

/// Location and claimed size of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Byte offset of the block header.
    pub offset: u64,
    /// Payload length claimed by the index.
    pub payload_len: u32,
    /// Record count claimed by the index.
    pub n_records: u32,
}

/// The file's block index, from the footer or a recovery scan.
#[derive(Debug, Clone)]
pub struct LtcIndex {
    /// Blocks in file order.
    pub blocks: Vec<BlockMeta>,
    /// Total records claimed across blocks.
    pub records: u64,
    /// Whether the writer saw nondecreasing `(start, timestamp)` order.
    pub sorted: bool,
    /// False when the footer was damaged and the index was rebuilt by a
    /// sequential block scan (which conservatively clears `sorted`).
    pub from_footer: bool,
}

/// Validates the 8-byte header and builds the block index, falling back
/// to a sequential scan when the footer is missing or damaged.
pub fn read_index<S: BlockSource>(src: &mut S) -> io::Result<LtcIndex> {
    let header = src
        .view(0, HEADER_LEN as usize)
        .map_err(|_| invalid("not an ltc file: shorter than the 8-byte header"))?;
    if header[..4] != MAGIC {
        return Err(invalid("not an ltc file: bad magic"));
    }
    if header[4] != VERSION {
        return Err(invalid("unsupported ltc version"));
    }
    if let Some(index) = read_footer_index(src) {
        return Ok(index);
    }
    scan_index(src)
}

/// Attempts the O(footer) index path; `None` sends the caller to the scan.
fn read_footer_index<S: BlockSource>(src: &mut S) -> Option<LtcIndex> {
    let len = src.len();
    if len < HEADER_LEN + FOOTER_TAIL_LEN as u64 {
        return None;
    }
    let tail = src
        .view(len - FOOTER_TAIL_LEN as u64, FOOTER_TAIL_LEN)
        .ok()?;
    if tail[8..12] != FOOTER_MAGIC {
        return None;
    }
    let crc = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    let fpayload_len = u64::from(u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]]));
    let footer_start = (len - FOOTER_TAIL_LEN as u64).checked_sub(fpayload_len)?;
    if footer_start < HEADER_LEN {
        return None;
    }
    let fpayload = src.view(footer_start, fpayload_len as usize).ok()?;
    if crc32(fpayload) != crc {
        return None;
    }
    let mut pos = 0;
    let n_blocks = usize::try_from(read_uvarint(fpayload, &mut pos)?).ok()?;
    let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20));
    let mut offset = HEADER_LEN;
    let mut total = 0u64;
    for _ in 0..n_blocks {
        let payload_len = u32::try_from(read_uvarint(fpayload, &mut pos)?).ok()?;
        let n_records = u32::try_from(read_uvarint(fpayload, &mut pos)?).ok()?;
        blocks.push(BlockMeta {
            offset,
            payload_len,
            n_records,
        });
        offset = offset.checked_add(BLOCK_HEADER_LEN as u64 + u64::from(payload_len))?;
        total += u64::from(n_records);
    }
    // The blocks must exactly tile the space between header and footer.
    if offset != footer_start {
        return None;
    }
    let records = read_uvarint(fpayload, &mut pos)?;
    let flags = *fpayload.get(pos)?;
    pos += 1;
    if pos != fpayload.len() || records != total {
        return None;
    }
    Some(LtcIndex {
        blocks,
        records,
        sorted: flags & 1 != 0,
        from_footer: true,
    })
}

/// Sequentially walks block headers from the top of the file, keeping
/// every block that fits; recovers the intact prefix of truncated files.
fn scan_index<S: BlockSource>(src: &mut S) -> io::Result<LtcIndex> {
    let len = src.len();
    let mut blocks = Vec::new();
    let mut records = 0u64;
    let mut offset = HEADER_LEN;
    while offset + BLOCK_HEADER_LEN as u64 <= len {
        let header = src.view(offset, BLOCK_HEADER_LEN)?;
        let payload_len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let n_records = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let next = offset + BLOCK_HEADER_LEN as u64 + u64::from(payload_len);
        if next > len {
            break; // truncated tail block
        }
        blocks.push(BlockMeta {
            offset,
            payload_len,
            n_records,
        });
        records += u64::from(n_records);
        offset = next;
    }
    Ok(LtcIndex {
        blocks,
        records,
        sorted: false,
        from_footer: false,
    })
}

/// Corruption accounting of a read pass (mirrors the text path's
/// malformed-line counts: damage is counted, never fatal).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Blocks rejected (CRC mismatch, header/index disagreement, or
    /// undecodable columns).
    pub corrupt_blocks: u64,
    /// Records lost inside rejected blocks, per the index claim.
    pub corrupt_records: u64,
    /// First corruption observed, for diagnostics.
    pub first_corrupt: Option<String>,
}

impl ReadStats {
    fn note(&mut self, block: usize, n_records: u32, what: &str) {
        self.corrupt_blocks += 1;
        self.corrupt_records += u64::from(n_records);
        if self.first_corrupt.is_none() {
            self.first_corrupt = Some(format!("block {block}: {what}"));
        }
    }
}

/// Sequential block reader: verifies CRCs, decodes each block into a
/// reused [`RecordBlock`], and skips (while counting) corrupt blocks.
#[derive(Debug)]
pub struct BlockReader<S: BlockSource> {
    src: S,
    index: LtcIndex,
    next: usize,
    block: RecordBlock,
    stats: ReadStats,
}

impl<S: BlockSource> BlockReader<S> {
    /// Opens a source: header validation plus index construction.
    pub fn open(mut src: S) -> io::Result<Self> {
        let index = read_index(&mut src)?;
        Ok(Self {
            src,
            index,
            next: 0,
            block: RecordBlock::default(),
            stats: ReadStats::default(),
        })
    }

    /// The block index in use.
    pub fn index(&self) -> &LtcIndex {
        &self.index
    }

    /// Corruption accounting so far.
    pub fn stats(&self) -> &ReadStats {
        &self.stats
    }

    /// Decodes the next intact block, skipping and counting corrupt ones.
    /// Returns `None` at end of file.
    pub fn next_block(&mut self) -> io::Result<Option<&RecordBlock>> {
        while self.next < self.index.blocks.len() {
            let i = self.next;
            self.next += 1;
            let meta = self.index.blocks[i];
            match fetch_block(&mut self.src, meta, &mut self.block) {
                Ok(()) => return Ok(Some(&self.block)),
                Err(FetchError::Corrupt(what)) => {
                    self.stats.note(i, meta.n_records, what);
                }
                Err(FetchError::Io(e)) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Materializes every intact record, returning corruption stats.
    pub fn read_all(mut self) -> io::Result<(Vec<LogEntry>, ReadStats)> {
        let mut out = Vec::new();
        while let Some(block) = self.next_block()? {
            out.extend(block.entries());
        }
        Ok((out, self.stats))
    }
}

enum FetchError {
    /// The block is damaged; skip and count it.
    Corrupt(&'static str),
    /// The source itself failed; abort the read.
    Io(io::Error),
}

/// A parsed 12-byte block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Payload bytes following the header.
    pub payload_len: u32,
    /// Records encoded in the payload.
    pub n_records: u32,
    /// IEEE CRC-32 of the payload.
    pub crc: u32,
}

/// Parses a [`BLOCK_HEADER_LEN`]-byte block header.
pub fn parse_block_header(bytes: &[u8]) -> Option<BlockHeader> {
    let bytes = bytes.get(..BLOCK_HEADER_LEN)?;
    Some(BlockHeader {
        payload_len: u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
        n_records: u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        crc: u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
    })
}

/// CRC-checks and decodes one block payload into `out`; `false` means
/// the block is corrupt (the caller should count and skip it). Used by
/// the parallel block-ingest workers, which fetch payload bytes
/// themselves.
pub fn decode_block(payload: &[u8], header: BlockHeader, out: &mut RecordBlock) -> bool {
    payload.len() == header.payload_len as usize
        && crc32(payload) == header.crc
        && decode_columns(payload, header.n_records as usize, out).is_some()
}

/// Reads, CRC-checks and decodes one block into `out`.
fn fetch_block<S: BlockSource>(
    src: &mut S,
    meta: BlockMeta,
    out: &mut RecordBlock,
) -> Result<(), FetchError> {
    let header = match src.view(meta.offset, BLOCK_HEADER_LEN) {
        Ok(h) => h,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Err(FetchError::Corrupt("truncated block header"));
        }
        Err(e) => return Err(FetchError::Io(e)),
    };
    let Some(parsed) = parse_block_header(header) else {
        return Err(FetchError::Corrupt("truncated block header"));
    };
    if parsed.payload_len != meta.payload_len || parsed.n_records != meta.n_records {
        return Err(FetchError::Corrupt("block header disagrees with index"));
    }
    let payload = match src.view(
        meta.offset + BLOCK_HEADER_LEN as u64,
        parsed.payload_len as usize,
    ) {
        Ok(p) => p,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Err(FetchError::Corrupt("truncated block payload"));
        }
        Err(e) => return Err(FetchError::Io(e)),
    };
    if crc32(payload) != parsed.crc {
        return Err(FetchError::Corrupt("crc mismatch"));
    }
    if decode_columns(payload, parsed.n_records as usize, out).is_none() {
        return Err(FetchError::Corrupt("undecodable columns"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogEntryBuilder;
    use crate::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};

    fn sample_entries(n: u32) -> Vec<LogEntry> {
        (0..n)
            .map(|i| {
                LogEntryBuilder::new()
                    .span(i * 7, (i % 13) + 1)
                    .client(ClientId(i % 29))
                    .origin(
                        Ipv4Addr(0x0A00_0000 | i),
                        AsId((i % 11) as u16),
                        CountryCode(if i % 3 == 0 { *b"BR" } else { *b"US" }),
                    )
                    .object(ObjectId((i % 2) as u16), (i % 48) as u8)
                    .transfer_stats(u64::from(i) * 1_000, 34_000 + i, 0.01)
                    .server(0.05, if i % 50 == 0 { 404 } else { 200 })
                    .build()
            })
            .collect()
    }

    #[test]
    fn round_trips_bit_identically() {
        let entries = sample_entries(1_000);
        let image = encode(&entries).expect("encode");
        assert!(is_ltc(&image));
        let (back, stats) = BlockReader::open(SliceSource::new(&image))
            .expect("open")
            .read_all()
            .expect("read");
        assert_eq!(back, entries);
        assert_eq!(stats, ReadStats::default());
    }

    #[test]
    fn round_trips_across_block_boundaries() {
        let entries = sample_entries(700);
        let mut image = Vec::new();
        let mut w = LtcWriter::with_block_records(&mut image, 256).expect("writer");
        for e in &entries {
            w.push(e).expect("push");
        }
        let summary = w.finish().expect("finish");
        assert_eq!(summary.records, 700);
        assert_eq!(summary.blocks, 3);
        assert!(summary.sorted);
        assert_eq!(summary.bytes, image.len() as u64);
        let reader = BlockReader::open(SliceSource::new(&image)).expect("open");
        assert!(reader.index().from_footer);
        assert!(reader.index().sorted);
        assert_eq!(reader.index().records, 700);
        let (back, _) = reader.read_all().expect("read");
        assert_eq!(back, entries);
    }

    #[test]
    fn preserves_corrupt_records_and_odd_floats() {
        // §2.4-reject material (bad status, inconsistent timestamps,
        // out-of-range fractions) must survive the round trip untouched.
        let mut entries = sample_entries(10);
        entries[1].timestamp = entries[1].start; // inconsistent vs stop
        entries[2].status = 500;
        entries[3].packet_loss = 1.5;
        entries[4].cpu_util = -0.0;
        entries[5].packet_loss = f32::from_bits(0x7FC0_0001); // NaN payload
        let image = encode(&entries).expect("encode");
        let (back, _) = BlockReader::open(SliceSource::new(&image))
            .expect("open")
            .read_all()
            .expect("read");
        assert_eq!(back.len(), entries.len());
        for (a, b) in back.iter().zip(&entries) {
            assert_eq!(a.packet_loss.to_bits(), b.packet_loss.to_bits());
            assert_eq!(a.cpu_util.to_bits(), b.cpu_util.to_bits());
            assert_eq!(a.status, b.status);
            assert_eq!(a.timestamp, b.timestamp);
        }
    }

    #[test]
    fn unsorted_input_clears_the_sorted_flag() {
        let mut entries = sample_entries(50);
        entries.swap(10, 40);
        let image = encode(&entries).expect("encode");
        let reader = BlockReader::open(SliceSource::new(&image)).expect("open");
        assert!(!reader.index().sorted);
        let (back, _) = reader.read_all().expect("read");
        assert_eq!(back, entries); // order is preserved either way
    }

    #[test]
    fn bit_flip_rejects_only_the_damaged_block() {
        let entries = sample_entries(900);
        let mut image = Vec::new();
        let mut w = LtcWriter::with_block_records(&mut image, 300).expect("writer");
        for e in &entries {
            w.push(e).expect("push");
        }
        w.finish().expect("finish");
        // Flip one payload bit in the middle block.
        let index = read_index(&mut SliceSource::new(&image)).expect("index");
        let mid = index.blocks[1];
        let at = usize::try_from(mid.offset).expect("offset") + BLOCK_HEADER_LEN + 17;
        image[at] ^= 0x10;
        let (back, stats) = BlockReader::open(SliceSource::new(&image))
            .expect("open")
            .read_all()
            .expect("read");
        assert_eq!(stats.corrupt_blocks, 1);
        assert_eq!(stats.corrupt_records, 300);
        assert!(stats
            .first_corrupt
            .as_deref()
            .is_some_and(|s| s.contains("crc")));
        let mut expect = entries[..300].to_vec();
        expect.extend_from_slice(&entries[600..]);
        assert_eq!(back, expect);
    }

    #[test]
    fn truncated_file_recovers_leading_blocks() {
        let entries = sample_entries(900);
        let mut image = Vec::new();
        let mut w = LtcWriter::with_block_records(&mut image, 300).expect("writer");
        for e in &entries {
            w.push(e).expect("push");
        }
        w.finish().expect("finish");
        let index = read_index(&mut SliceSource::new(&image)).expect("index");
        // Cut mid-way through the last block's payload (footer lost too).
        let cut = usize::try_from(index.blocks[2].offset).expect("offset") + BLOCK_HEADER_LEN + 5;
        let truncated = &image[..cut];
        let reader = BlockReader::open(SliceSource::new(truncated)).expect("open");
        assert!(!reader.index().from_footer);
        assert!(!reader.index().sorted); // recovery is conservative
        assert_eq!(reader.index().blocks.len(), 2);
        let (back, stats) = reader.read_all().expect("read");
        assert_eq!(back, entries[..600]);
        assert_eq!(stats.corrupt_blocks, 0);
    }

    #[test]
    fn corrupt_footer_falls_back_to_scan() {
        let entries = sample_entries(400);
        let mut image = encode(&entries).expect("encode");
        let at = image.len() - 5; // inside the footer tail
        image[at] ^= 0xFF;
        let reader = BlockReader::open(SliceSource::new(&image)).expect("open");
        assert!(!reader.index().from_footer);
        let (back, _) = reader.read_all().expect("read");
        assert_eq!(back, entries);
    }

    #[test]
    fn rejects_non_ltc_input() {
        assert!(BlockReader::open(SliceSource::new(b"not a trace")).is_err());
        assert!(BlockReader::open(SliceSource::new(b"")).is_err());
        assert!(!is_ltc(b"LTCx"));
    }

    #[test]
    fn empty_trace_round_trips() {
        let image = encode(&[]).expect("encode");
        let reader = BlockReader::open(SliceSource::new(&image)).expect("open");
        assert!(reader.index().from_footer);
        assert_eq!(reader.index().records, 0);
        let (back, stats) = reader.read_all().expect("read");
        assert!(back.is_empty());
        assert_eq!(stats.corrupt_blocks, 0);
    }

    #[test]
    fn file_source_matches_slice_source() {
        let entries = sample_entries(500);
        let image = encode(&entries).expect("encode");
        let dir = std::env::temp_dir().join("lsw-ltc-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join(format!("roundtrip-{}.ltc", std::process::id()));
        std::fs::write(&path, &image).expect("write");
        let (from_file, _) = BlockReader::open(FileSource::open(&path).expect("open file"))
            .expect("reader")
            .read_all()
            .expect("read");
        std::fs::remove_file(&path).ok();
        assert_eq!(from_file, entries);
    }

    #[test]
    fn compresses_against_the_text_format() {
        let entries = sample_entries(4_096);
        let image = encode(&entries).expect("encode");
        let text = crate::wms::format_log(&entries);
        assert!(
            image.len() * 2 < text.len(),
            "ltc ({}) should be well under half of wms text ({})",
            image.len(),
            text.len()
        );
    }
}
