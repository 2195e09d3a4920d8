//! Replay schedule extraction: a trace, reduced to what a load driver
//! needs to re-offer it to a live server.
//!
//! A [`Schedule`] is the start-ordered list of §2.4-clean transfers with
//! only the *replayable* fields kept: when to connect, as whom, for which
//! feed, for how long, and how many bytes the original transfer carried.
//! Fields that describe the original server's state rather than the
//! client's request (`cpu_util`, `packet_loss`, the redundant stop-time
//! `timestamp`) are dropped — deliberately, because they are exactly the
//! fields the text format rounds: a schedule extracted from a `wms` log
//! and one extracted from the equivalent `ltc` container are **equal**,
//! field for field (`crates/trace/tests/proptests.rs` pins this).
//!
//! Extraction is format-native: the text path goes through the zero-copy
//! byte scanner, and the `ltc` path reads block columns directly —
//! per-block column slices feed the schedule without materializing
//! intermediate [`LogEntry`] values. Records the sanitizer would reject
//! are *counted* and skipped (replaying a failed or inconsistent transfer
//! would re-offer traffic the characterization on the other end of the
//! loop is defined to ignore), as are corrupt `ltc` blocks and malformed
//! text lines.

use crate::event::LogEntry;
use crate::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use crate::ltc;
use crate::sanitize::classify;
use crate::wms;
use serde::{Deserialize, Serialize};
use std::io;

/// One transfer to replay: the client-visible request parameters of a
/// kept log record. All times are trace seconds since the log epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledTransfer {
    /// When to open the connection, trace seconds.
    pub start: u32,
    /// How long the original transfer lasted, trace seconds.
    pub duration: u32,
    /// The requesting client (player id).
    pub client: ClientId,
    /// Client IP at request time.
    pub ip: Ipv4Addr,
    /// Autonomous system of the IP.
    pub as_id: AsId,
    /// Country of the AS.
    pub country: CountryCode,
    /// Requested live object (feed).
    pub object: ObjectId,
    /// Camera the feed was showing at start.
    pub camera: u8,
    /// Bytes the original transfer delivered.
    pub bytes: u64,
    /// Average bandwidth of the original transfer, bits per second.
    pub avg_bandwidth: u32,
    /// Protocol status (always 2xx for kept records).
    pub status: u16,
}

impl ScheduledTransfer {
    /// Reduces one kept log record to its replayable fields.
    pub fn from_entry(e: &LogEntry) -> Self {
        Self {
            start: e.start,
            duration: e.duration,
            client: e.client,
            ip: e.ip,
            as_id: e.as_id,
            country: e.country,
            object: e.object,
            camera: e.camera,
            bytes: e.bytes,
            avg_bandwidth: e.avg_bandwidth,
            status: e.status,
        }
    }

    /// Transfer stop time, trace seconds.
    pub fn stop(&self) -> u32 {
        self.start.saturating_add(self.duration)
    }

    /// Duration under the paper's `⌊t⌋+1` display convention — what the
    /// admission model charges as viewer-seconds.
    pub fn display_duration(&self) -> f64 {
        f64::from(self.duration) + 1.0
    }

    /// Byte rate of the original transfer under the `⌊t⌋+1` display
    /// convention (bytes per trace second, never zero for `bytes > 0`).
    pub fn byte_rate(&self) -> u64 {
        self.bytes.div_ceil(u64::from(self.duration) + 1)
    }

    /// Re-expands the scheduled transfer into a synthetic log record
    /// (`timestamp = stop`, zero loss/CPU) — the reference entry the
    /// closed-loop characterization is diffed against.
    pub fn to_entry(&self) -> LogEntry {
        LogEntry {
            timestamp: self.stop(),
            start: self.start,
            duration: self.duration,
            client: self.client,
            ip: self.ip,
            as_id: self.as_id,
            country: self.country,
            object: self.object,
            camera: self.camera,
            bytes: self.bytes,
            avg_bandwidth: self.avg_bandwidth,
            packet_loss: 0.0,
            cpu_util: 0.0,
            status: self.status,
        }
    }
}

/// Skip accounting of one extraction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Records examined (parsed or decoded).
    pub examined: u64,
    /// Records skipped by the §2.4 classification rules.
    pub rejected: u64,
    /// Malformed text lines (text extraction only).
    pub malformed: u64,
    /// Corrupt blocks skipped (`ltc` extraction only).
    pub corrupt_blocks: u64,
    /// Records lost inside corrupt blocks (`ltc` extraction only).
    pub corrupt_records: u64,
}

/// A start-ordered replay schedule plus its extraction accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Transfers in nondecreasing start order (stable: records with equal
    /// starts keep their source order, which both formats preserve).
    pub transfers: Vec<ScheduledTransfer>,
    /// What extraction examined and skipped.
    pub stats: ScheduleStats,
}

impl Schedule {
    /// Builds a schedule from in-memory records, applying the §2.4 keep
    /// rules with an unbounded horizon (the replay horizon is the
    /// schedule's own extent).
    pub fn from_entries<'a, I: IntoIterator<Item = &'a LogEntry>>(entries: I) -> Self {
        let mut schedule = Schedule::default();
        for e in entries {
            schedule.push_classified(e);
        }
        schedule.seal();
        schedule
    }

    /// Extracts a schedule from WMS-format text bytes. Malformed lines
    /// are counted and skipped, mirroring the streaming engine.
    pub fn from_wms_bytes(bytes: &[u8]) -> Self {
        let mut schedule = Schedule::default();
        for parsed in wms::parse_lines_bytes(bytes) {
            match parsed {
                Ok((_, e)) => schedule.push_classified(&e),
                Err(_) => schedule.stats.malformed += 1,
            }
        }
        schedule.seal();
        schedule
    }

    /// Extracts a schedule from any `ltc` [`ltc::BlockSource`], reading
    /// block columns directly — kept records are assembled straight from
    /// the per-block column slices. Corrupt blocks are counted and
    /// skipped, never fatal.
    pub fn from_ltc<S: ltc::BlockSource>(mut src: S) -> io::Result<Self> {
        let index = ltc::read_index(&mut src)?;
        let mut schedule = Schedule::default();
        let mut block = ltc::RecordBlock::default();
        for meta in &index.blocks {
            let len = ltc::BLOCK_HEADER_LEN + meta.payload_len as usize;
            let raw = src.view(meta.offset, len)?;
            let ok = ltc::parse_block_header(raw)
                .filter(|h| h.payload_len == meta.payload_len && h.n_records == meta.n_records)
                .is_some_and(|h| ltc::decode_block(&raw[ltc::BLOCK_HEADER_LEN..], h, &mut block));
            if !ok {
                schedule.stats.corrupt_blocks += 1;
                schedule.stats.corrupt_records += u64::from(meta.n_records);
                continue;
            }
            schedule.push_block_columns(&block);
        }
        schedule.seal();
        Ok(schedule)
    }

    /// Extracts a schedule from an `ltc` file in bounded memory (one
    /// block resident at a time, plus the schedule itself).
    pub fn from_ltc_path(path: &std::path::Path) -> io::Result<Self> {
        Self::from_ltc(ltc::FileSource::open(path)?)
    }

    /// Classifies one record and appends it if kept.
    fn push_classified(&mut self, e: &LogEntry) {
        self.stats.examined += 1;
        if classify(e, u32::MAX).is_some() {
            self.stats.rejected += 1;
        } else {
            self.transfers.push(ScheduledTransfer::from_entry(e));
        }
    }

    /// Appends one decoded block's kept records from its column slices.
    fn push_block_columns(&mut self, b: &ltc::RecordBlock) {
        self.stats.examined += b.len() as u64;
        self.transfers.reserve(b.len());
        for i in 0..b.len() {
            // Column-native §2.4 classification — the same predicates
            // `sanitize::classify` applies under an unbounded horizon
            // (where SpansTracePeriod never fires and StartsBeyondHorizon
            // reduces to `start == u32::MAX`), on the raw columns.
            let stop = u64::from(b.start[i]) + u64::from(b.duration[i]);
            let clean = b.start[i] != u32::MAX
                && stop <= u64::from(u32::MAX)
                && u64::from(b.timestamp[i]) == stop
                && (200..300).contains(&b.status[i])
                && (0.0..=1.0).contains(&b.packet_loss[i])
                && (0.0..=1.0).contains(&b.cpu_util[i]);
            if !clean {
                self.stats.rejected += 1;
                continue;
            }
            self.transfers.push(ScheduledTransfer {
                start: b.start[i],
                duration: b.duration[i],
                client: ClientId(b.client[i]),
                ip: Ipv4Addr(b.ip[i]),
                as_id: AsId(b.as_id[i]),
                country: CountryCode(b.country[i]),
                object: ObjectId(b.object[i]),
                camera: b.camera[i],
                bytes: b.bytes[i],
                avg_bandwidth: b.avg_bandwidth[i],
                status: b.status[i],
            });
        }
    }

    /// Fixes the start order (stable, so equal starts keep file order —
    /// identical across formats because both preserve record order).
    fn seal(&mut self) {
        self.transfers.sort_by_key(|t| t.start);
    }

    /// Transfers in the schedule.
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// True when nothing survived extraction.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// The replay horizon: one second past the last stop (0 when empty).
    pub fn horizon(&self) -> u32 {
        self.transfers
            .iter()
            .map(|t| t.stop())
            .max()
            .map_or(0, |s| s.saturating_add(1))
    }

    /// Distinct objects and the *encoded byte rate* of each — the highest
    /// per-transfer byte rate observed for the feed, i.e. the rate the
    /// uncongested stream was encoded at. Returned ascending by object id.
    ///
    /// Pacing a feed's broadcast at this rate guarantees every transfer's
    /// byte budget fits inside its duration: for each kept transfer,
    /// `encoded_rate * (duration + 1) >= bytes`.
    pub fn object_rates(&self) -> Vec<(ObjectId, u64)> {
        let mut rates: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
        for t in &self.transfers {
            let r = rates.entry(t.object.0).or_insert(0);
            *r = (*r).max(t.byte_rate());
        }
        rates.into_iter().map(|(o, r)| (ObjectId(o), r)).collect()
    }

    /// Total bytes across all scheduled transfers.
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// The longest transfer duration — the span of the virtual executors'
    /// slot queues, and the look-ahead window a completion-ordered tap
    /// needs to restore start order exactly.
    pub fn max_duration(&self) -> u32 {
        self.transfers.iter().map(|t| t.duration).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogEntryBuilder;

    fn entries() -> Vec<LogEntry> {
        (0..50u32)
            .map(|i| {
                LogEntryBuilder::new()
                    .span(1000 - i * 20, (i % 7) + 2)
                    .client(ClientId(i % 5))
                    .object(ObjectId((i % 3) as u16), 1)
                    .transfer_stats(u64::from(i) * 512 + 100, 24_000, 0.0)
                    .build()
            })
            .collect()
    }

    #[test]
    fn schedule_is_start_ordered_and_complete() {
        let es = entries();
        let s = Schedule::from_entries(&es);
        assert_eq!(s.len(), 50);
        assert!(s.transfers.windows(2).all(|w| w[0].start <= w[1].start));
        assert_eq!(s.stats.examined, 50);
        assert_eq!(s.stats.rejected, 0);
        assert_eq!(s.horizon(), es.iter().map(|e| e.stop()).max().unwrap() + 1);
    }

    #[test]
    fn rejects_are_counted_not_scheduled() {
        let mut es = entries();
        es[3].status = 404; // failed transfer
        es[7].timestamp = es[7].timestamp.wrapping_add(9); // inconsistent
        let s = Schedule::from_entries(&es);
        assert_eq!(s.stats.rejected, 2);
        assert_eq!(s.len(), 48);
    }

    #[test]
    fn wms_and_ltc_extraction_agree() {
        let es = entries();
        let text = wms::format_log(&es);
        let image = crate::ltc::encode(&es).unwrap();
        let from_text = Schedule::from_wms_bytes(&text);
        let from_ltc = Schedule::from_ltc(crate::ltc::SliceSource::new(&image)).unwrap();
        assert_eq!(from_text.transfers, from_ltc.transfers);
        assert_eq!(from_text.stats.examined, from_ltc.stats.examined);
    }

    #[test]
    fn object_rates_cover_budgets() {
        let s = Schedule::from_entries(&entries());
        let rates = s.object_rates();
        assert_eq!(rates.len(), 3);
        for t in &s.transfers {
            let (_, r) = rates[t.object.0 as usize];
            assert!(r * (u64::from(t.duration) + 1) >= t.bytes);
        }
    }

    #[test]
    fn byte_rate_survives_zero_duration() {
        let t = ScheduledTransfer::from_entry(
            &LogEntryBuilder::new()
                .span(5, 0)
                .transfer_stats(999, 10_000, 0.0)
                .build(),
        );
        assert_eq!(t.byte_rate(), 999);
    }
}
