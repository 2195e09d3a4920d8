//! The streaming ingest engine: one parse-and-release pipeline for file
//! sources, a per-entry tap for live ones, sequential coordination.
//!
//! A WMS log line is written when a transfer *stops*, so a log may be
//! stop-ordered while every order-dependent statistic wants start-ordered
//! entries. The engine restores start order with a reorder buffer keyed
//! by start second (`reorder.rs`): an entry is released once no future
//! line can precede it, i.e. its start is below the watermark. While
//! every kept start so far arrived in nondecreasing order, the watermark
//! is `max(max start seen, max timestamp seen − max duration seen)` and
//! the buffer holds one start cohort (the generator's output). Once a
//! start goes backwards in arrival order, `max start` no longer bounds
//! future starts, and the watermark drops to `max timestamp seen − max
//! duration seen`: a stop-ordered log then holds one look-ahead window of
//! entries. An entry that still arrives below the released watermark —
//! possible only when a duration exceeds every duration seen before it —
//! is clamped and *counted* (`late_entries`), never dropped or fatal.
//!
//! Every file source runs one pipeline. A text chunk splits into one
//! contiguous line range per parse shard; an `ltc` container deals its
//! blocks to the shards in rounds. Shard `i` parses or decodes its piece
//! into its own sketches through the per-entry keep step
//! (`RangeStats::keep`: §2.4 rules, sketches, bounds) and returns its
//! kept entries, tagged with their line, plus one `RangeStats`. The
//! pieces fold back in line order and release once per chunk or block:
//! through `release_batch`, or, for a container whose footer certifies
//! start order, straight to the coordinator. The tap entry points
//! (`ingest_entry`, `ingest_below`, `ingest_start_ordered`) run the same
//! keep step on each entry and push it into the buffer. `ingest_entry`
//! releases on the stop-order watermark, `ingest_below` also no further
//! than a bound its caller supplies (a live server's in-flight starts,
//! `tap::InFlight`), and `ingest_start_ordered` below the entry's own
//! start, for a caller that feeds entries in start order (a virtual-time
//! executor logging each transfer as it arrives): its buffer holds one
//! start cohort, whatever the durations.
//!
//! Per-entry sketches are commutative monoids over the entry multiset
//! (max registers, integer counts, fixed-point sums), shard states merge
//! in shard-index order at the end, and every order-dependent statistic
//! runs on the single released stream — so the report is byte-identical
//! at any shard count.

use crate::coord::Coordinator;
use crate::fixed::LogMoments;
use crate::hll::HyperLogLog;
use crate::quantile::LogQuantileSketch;
use crate::reorder::{Pending, ReorderBuffer};
use crate::report::{
    ConcurrencySummary, MemoryFootprint, StreamAccounting, StreamReport, StreamSummary,
};
use crate::sketch::Sketch;
use crate::topk::SpaceSaving;
use lsw_stats::paper;
use lsw_stats::par::Parallelism;
use lsw_trace::event::LogEntry;
use lsw_trace::ltc;
use lsw_trace::sanitize::{classify, RejectReason};
use lsw_trace::wms;
use std::cmp::Reverse;

/// All knobs of the streaming engine.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Session idle timeout in seconds (paper: 1500).
    pub timeout: f64,
    /// Collection horizon; `None` infers `max stop + 1` like the batch CLI
    /// (with an inferred horizon the two horizon-dependent reject rules
    /// can never fire, in either mode).
    pub horizon: Option<u32>,
    /// Parallel parse shards (also the sketch merge fan-in).
    pub shards: usize,
    /// HyperLogLog precision (2^p registers per estimator).
    pub hll_precision: u8,
    /// Bottom-k client sample capacity.
    pub sample_k: usize,
    /// SpaceSaving counter capacity (ASes / countries / objects).
    pub topk_capacity: usize,
    /// Bytes per read chunk of the line reader.
    pub chunk_bytes: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            timeout: paper::SESSION_TIMEOUT_SECS,
            horizon: None,
            shards: Parallelism::auto().threads(),
            hll_precision: 14,
            sample_k: 1 << 15,
            topk_capacity: 4096,
            chunk_bytes: 4 << 20,
        }
    }
}

impl StreamConfig {
    /// Scales sketch sizes down to fit a memory budget (bytes).
    ///
    /// The budget governs *sketch* memory: the client sample (the largest
    /// consumer, at most ~128 bytes per sampled client: a slot table that
    /// doubles as clients arrive and stays at least half empty, plus the
    /// threshold heap), the per-shard HyperLogLogs and the read chunk.
    /// The sample's share is a cap, not a reservation: a trace with fewer
    /// distinct clients than `sample_k` costs only what it holds. The
    /// reorder buffer and active-session map are workload-bounded (one
    /// start cohort or look-ahead window / one timeout window of state),
    /// not budget-bounded.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        // Cap the client sample at half the budget, ~128 B/client when full.
        self.sample_k = ((bytes / 2) / 128).clamp(1 << 10, 1 << 20);
        // A quarter to the HLL pair replicated per shard.
        while self.hll_precision > 10
            && self.shards * 2 * (1usize << self.hll_precision) > bytes / 4
        {
            self.hll_precision -= 1;
        }
        // Keep the read chunk inside an eighth of the budget.
        self.chunk_bytes = self.chunk_bytes.min((bytes / 8).max(64 << 10));
        self
    }
}

/// Order-insensitive per-entry sketches owned by one parse shard.
#[derive(Debug, Clone)]
pub struct ShardSketches {
    /// Distinct clients (Table 1 "total # of users").
    pub clients: HyperLogLog,
    /// Distinct client IPs.
    pub ips: HyperLogLog,
    /// Transfer-length log-moments (display-transformed durations).
    pub length_moments: LogMoments,
    /// Transfer-length quantile sketch.
    pub length_quant: LogQuantileSketch,
    /// Total bytes served.
    pub bytes_total: u64,
    /// Transfers with average bandwidth under the congestion threshold.
    pub congested: u64,
    /// Entries parsed (pre-sanitization), the batch `examined` count.
    pub parsed: u64,
    /// Entries kept after the §2.4 rules.
    pub kept: u64,
    /// Lines that failed to parse.
    pub malformed: u64,
    /// First malformed-line error, for diagnostics.
    pub first_malformed: Option<String>,
    /// §2.4 rejects, indexed by [`reason_index`].
    pub rejects: [u64; 5],
    /// Transfers per AS.
    pub as_top: SpaceSaving<u16>,
    /// Transfers per country.
    pub country_top: SpaceSaving<[u8; 2]>,
    /// Transfers per object.
    pub object_top: SpaceSaving<u16>,
}

/// Stable index of a reject reason inside [`ShardSketches::rejects`].
pub(crate) fn reason_index(r: RejectReason) -> usize {
    match r {
        RejectReason::SpansTracePeriod => 0,
        RejectReason::StartsBeyondHorizon => 1,
        RejectReason::InconsistentTimestamps => 2,
        RejectReason::FailedStatus => 3,
        RejectReason::MalformedStats => 4,
    }
}

/// The reason at each [`reason_index`] slot.
pub(crate) const REASONS: [RejectReason; 5] = [
    RejectReason::SpansTracePeriod,
    RejectReason::StartsBeyondHorizon,
    RejectReason::InconsistentTimestamps,
    RejectReason::FailedStatus,
    RejectReason::MalformedStats,
];

impl ShardSketches {
    fn new(cfg: &StreamConfig) -> Self {
        Self {
            clients: HyperLogLog::new(cfg.hll_precision),
            ips: HyperLogLog::new(cfg.hll_precision),
            length_moments: LogMoments::new(),
            length_quant: LogQuantileSketch::new(),
            bytes_total: 0,
            congested: 0,
            parsed: 0,
            kept: 0,
            malformed: 0,
            first_malformed: None,
            rejects: [0; 5],
            as_top: SpaceSaving::new(cfg.topk_capacity),
            country_top: SpaceSaving::new(cfg.topk_capacity.min(1024)),
            object_top: SpaceSaving::new(cfg.topk_capacity.min(1024)),
        }
    }

    /// Folds one kept entry into every per-entry sketch.
    fn observe(&mut self, e: &LogEntry) {
        self.kept += 1;
        self.clients.insert_key(u64::from(e.client.0));
        self.ips.insert_key(u64::from(e.ip.0));
        let disp = e.display_duration();
        self.length_moments.insert(disp);
        self.length_quant.insert_value(disp);
        self.bytes_total += e.bytes;
        // Same predicate as the batch transfer layer's 20 kbit/s bound.
        self.congested += u64::from(f64::from(e.avg_bandwidth) < 20_000.0);
        self.as_top.insert_key(&e.as_id.0);
        self.country_top.insert_key(&e.country.0);
        self.object_top.insert_key(&e.object.0);
    }

    /// Folds `other` into `self`; called in shard-index order.
    fn merge(&mut self, other: &Self) {
        self.clients.merge(&other.clients);
        self.ips.merge(&other.ips);
        self.length_moments.merge(&other.length_moments);
        self.length_quant.merge(&other.length_quant);
        self.bytes_total += other.bytes_total;
        self.congested += other.congested;
        self.parsed += other.parsed;
        self.kept += other.kept;
        self.malformed += other.malformed;
        if self.first_malformed.is_none() {
            self.first_malformed.clone_from(&other.first_malformed);
        }
        for (a, b) in self.rejects.iter_mut().zip(&other.rejects) {
            *a += b;
        }
        self.as_top.merge(&other.as_top);
        self.country_top.merge(&other.country_top);
        self.object_top.merge(&other.object_top);
    }

    /// Approximate resident bytes of this shard's sketches.
    pub(crate) fn bytes(&self) -> usize {
        self.clients.bytes()
            + self.ips.bytes()
            + self.length_moments.bytes()
            + self.length_quant.bytes()
            + self.as_top.bytes()
            + self.country_top.bytes()
            + self.object_top.bytes()
    }
}

/// The one-pass streaming characterization engine.
///
/// Feed it text with [`ingest_read`](Self::ingest_read) (any `Read`) or
/// [`ingest_str`](Self::ingest_str), `ltc` with `ingest_ltc`, or decoded
/// entries with [`ingest_entry`](Self::ingest_entry), then call
/// [`finalize`](Self::finalize) for the [`StreamReport`].
#[derive(Debug)]
pub struct StreamAnalyzer {
    cfg: StreamConfig,
    shards: Vec<ShardSketches>,
    pending: ReorderBuffer<Pending>,
    coord: Coordinator,
    lines_total: u64,
    next_line: u64,
    /// Bounds of every entry so far, folded in arrival (line) order.
    seen: RangeStats,
    peak_heap: usize,
    corrupt_blocks: u64,
    corrupt_records: u64,
    first_corrupt: Option<String>,
    /// Reusable chunk scratch: byte offsets `(start, end)` of each line
    /// in the chunk being ingested (allocation survives across chunks).
    line_offsets: Vec<(usize, usize)>,
    /// Reusable per-shard kept-entry buffers: shard `i` parses into
    /// `kept_scratch[i]`, keeping its capacity from chunk to chunk.
    kept_scratch: Vec<Vec<Pending>>,
}

impl StreamAnalyzer {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: StreamConfig) -> Self {
        let shards = (0..cfg.shards.max(1))
            .map(|_| ShardSketches::new(&cfg))
            .collect();
        let coord = Coordinator::new(cfg.timeout, cfg.sample_k);
        Self {
            cfg,
            shards,
            pending: ReorderBuffer::new(),
            coord,
            lines_total: 0,
            next_line: 1,
            seen: RangeStats::default(),
            peak_heap: 0,
            corrupt_blocks: 0,
            corrupt_records: 0,
            first_corrupt: None,
            line_offsets: Vec::new(),
            kept_scratch: Vec::new(),
        }
    }

    /// Streams a whole reader through the engine in bounded memory.
    pub fn ingest_read<R: std::io::Read>(&mut self, reader: R) -> std::io::Result<()> {
        for chunk in wms::LineChunks::new(reader, self.cfg.chunk_bytes) {
            let chunk = chunk?;
            self.ingest_chunk(&chunk.bytes, chunk.first_line as u64);
        }
        Ok(())
    }

    /// Ingests in-memory text (tests, small logs).
    pub fn ingest_str(&mut self, text: &str) {
        let first = self.next_line;
        self.ingest_chunk(text.as_bytes(), first);
    }

    /// Widens the look-ahead window to at least `max_duration` seconds.
    ///
    /// The reorder buffer releases an entry once no future arrival can
    /// precede it, inferring the window from the longest duration *seen
    /// so far* — so an entry whose duration breaks the running record can
    /// arrive late and be clamped. A tap that knows the longest transfer
    /// it will ever deliver can declare it upfront and make the release
    /// exact. A caller that can feed in start order needs no look-ahead
    /// at all ([`ingest_start_ordered`](Self::ingest_start_ordered)).
    pub fn preset_lookahead(&mut self, max_duration: u32) {
        self.seen.max_dur = self.seen.max_dur.max(max_duration);
    }

    /// Ingests one already-decoded entry, in any order the stop-order
    /// watermark covers (a completion-ordered feed). The entry flows through
    /// the same keep step and reorder buffer as the file sources, so a tap
    /// stream and the equivalent log text produce the same report. The
    /// watermark release runs after every entry, so the buffer holds one
    /// look-ahead window of entries, 40 B each, however many are fed.
    pub fn ingest_entry(&mut self, e: &LogEntry) {
        self.tap_entry(e);
        self.settle(self.watermark(false));
    }

    /// Ingests one already-decoded entry, like
    /// [`ingest_entry`](Self::ingest_entry), but never releases an entry
    /// whose start is at or above the caller's `bound`. The caller
    /// vouches that no entry still to come starts below `bound`: a live
    /// server knows it from the transfers it still has open
    /// ([`InFlight`](crate::tap::InFlight)), whatever order their
    /// completions reach the tap in. The release stops at the lower of
    /// `bound` and the stop-order watermark, so an entry is late only if
    /// both would have passed it.
    pub fn ingest_below(&mut self, e: &LogEntry, bound: u32) {
        self.tap_entry(e);
        self.settle(bound.min(self.watermark(false)));
    }

    /// Ingests one already-decoded entry from a feed whose starts never
    /// decrease: `lsw_replay::reference_report`, and the virtual-time
    /// executors, which log every transfer the moment it arrives. The
    /// caller's order is the release rule: every buffered entry below
    /// this start leaves first, so the buffer holds one start-second
    /// cohort (released in `(timestamp, line)` order), however long the
    /// transfers last.
    ///
    /// A kept start below an earlier one breaks that promise. The
    /// buffered cohort is then released ahead of it, and the coordinator
    /// clamps it and counts it in `late_entries`, never reorders it.
    pub fn ingest_start_ordered(&mut self, e: &LogEntry) {
        let cohort = self.seen.max_start;
        self.release_below(e.start);
        let Some(p) = self.keep_entry(e) else {
            return;
        };
        if p.start < cohort {
            self.release_all();
            self.coord.process(&p);
        } else {
            self.pending.push(p.start, p);
            self.peak_heap = self.peak_heap.max(self.pending.len());
        }
    }

    /// Records the buffer's high-water mark, then releases below
    /// `watermark`: the tail of `ingest_entry` and `ingest_below`.
    fn settle(&mut self, watermark: u32) {
        self.peak_heap = self.peak_heap.max(self.pending.len());
        self.release_below(watermark);
    }

    /// Keeps one decoded entry into shard 0 and buffers it (callers then
    /// [`settle`](Self::settle)).
    fn tap_entry(&mut self, e: &LogEntry) {
        if let Some(p) = self.keep_entry(e) {
            self.pending.push(p.start, p);
        }
    }

    /// Counts one decoded entry as the next line and runs the keep step
    /// into shard 0; returns its record if it was kept.
    fn keep_entry(&mut self, e: &LogEntry) -> Option<Pending> {
        let line = self.next_line;
        self.next_line += 1;
        self.lines_total += 1;
        let horizon = self.cfg.horizon.unwrap_or(u32::MAX);
        self.seen
            .keep(&mut self.shards[0], e, horizon)
            .then(|| Pending::new(line, e))
    }

    /// Streams an in-memory `ltc` container image through the engine.
    pub fn ingest_ltc_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.ingest_ltc(ltc::SliceSource::new(bytes))
    }

    /// Streams an `ltc` file through the engine in bounded memory (one
    /// round of blocks resident at a time).
    pub fn ingest_ltc_path(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        self.ingest_ltc(ltc::FileSource::open(path)?)
    }

    /// Streams any [`ltc::BlockSource`] through the engine.
    ///
    /// Blocks fan out to the parse shards in rounds — block `k` of a round
    /// decodes into shard `k`'s sketches — and each round folds back in
    /// shard-index (= file block) order, releasing after every block so
    /// the release cadence is invariant to the shard count. Containers
    /// whose footer certifies `(start, timestamp)` order skip the reorder
    /// buffer and feed the coordinator directly. Corrupt blocks are
    /// counted and skipped, never fatal; only source I/O failures and a
    /// non-`ltc` header abort the ingest.
    pub(crate) fn ingest_ltc<S: ltc::BlockSource>(&mut self, mut src: S) -> std::io::Result<()> {
        let index = ltc::read_index(&mut src)?;
        // A sorted container releases in record order with no look-ahead —
        // exactly what the buffer would emit — so bypass it unless entries
        // from an earlier text ingest are still pending.
        let direct = index.sorted && self.pending.is_empty();
        let n_shards = self.shards.len();
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); n_shards];
        let mut blocks: Vec<ltc::RecordBlock> = vec![ltc::RecordBlock::default(); n_shards];
        let horizon = self.cfg.horizon.unwrap_or(u32::MAX);
        for (round_no, round) in index.blocks.chunks(n_shards).enumerate() {
            // Sequentially lend each block's raw bytes into a per-worker
            // buffer (one memcpy; the source owns at most one view).
            let mut jobs = Vec::with_capacity(round.len());
            let mut first_record = self.lines_total + 1;
            for ((buf, block), &meta) in bufs.iter_mut().zip(&mut blocks).zip(round) {
                let len = ltc::BLOCK_HEADER_LEN + meta.payload_len as usize;
                buf.clear();
                buf.extend_from_slice(src.view(meta.offset, len)?);
                jobs.push((&buf[..], block, meta, first_record));
                first_record += u64::from(meta.n_records);
            }
            let outs = fan_out(
                &mut self.shards,
                &mut self.kept_scratch,
                jobs,
                |(raw, block, meta, first), shard, kept| {
                    decode_ltc_block(raw, meta, first, horizon, shard, block, kept)
                },
            );
            for (i, (out, meta)) in outs.into_iter().zip(round).enumerate() {
                self.lines_total += u64::from(meta.n_records);
                match out {
                    Err(what) => {
                        self.corrupt_blocks += 1;
                        self.corrupt_records += u64::from(meta.n_records);
                        if self.first_corrupt.is_none() {
                            let block_no = round_no * n_shards + i;
                            self.first_corrupt = Some(format!("block {block_no}: {what}"));
                        }
                    }
                    Ok(st) => {
                        self.seen.fold(&st);
                        if direct {
                            for p in &self.kept_scratch[i] {
                                self.coord.process(p);
                            }
                        } else {
                            self.release_batch(i);
                        }
                    }
                }
            }
        }
        self.next_line = self.lines_total + 1;
        Ok(())
    }

    /// The look-ahead watermark: the tightest start no future entry can
    /// undercut.
    ///
    /// When arrivals have been start-ordered so far (`start_ordered`),
    /// `max_start` is a valid bound and keeps the buffer at one start
    /// cohort. In *completion* order — a live tap, or a stop-sorted log —
    /// `max_start` is no bound at all (a long transfer completes after, but
    /// starts before, many short ones), so only the stop-order bound
    /// `max_ts − max_dur` holds.
    fn watermark(&self, start_ordered: bool) -> u32 {
        let lookahead = self.seen.max_ts.saturating_sub(self.seen.max_dur);
        if start_ordered {
            self.seen.max_start.max(lookahead)
        } else {
            lookahead
        }
    }

    /// Releases every buffered entry strictly below `watermark` into the
    /// coordinator, in `(start, timestamp, line)` order.
    fn release_below(&mut self, watermark: u32) {
        while let Some(p) = self.pending.pop_below(watermark) {
            self.coord.process(&p);
        }
    }

    /// Releases every buffered entry into the coordinator.
    fn release_all(&mut self) {
        while let Some(p) = self.pending.pop() {
            self.coord.process(&p);
        }
    }

    fn ingest_chunk(&mut self, text: &[u8], first_line: u64) {
        // Line boundaries as byte offsets into `text`, in a scratch buffer
        // whose allocation survives across chunks — the shard handoff
        // never materializes a fresh `Vec<&[u8]>` per chunk.
        let base = text.as_ptr() as usize;
        self.line_offsets.clear();
        // lsw::allow(L009): cleared above; holds at most one offset pair per chunk line
        self.line_offsets.extend(wms::byte_lines(text).map(|l| {
            let s = l.as_ptr() as usize - base;
            (s, s + l.len())
        }));
        let n_lines = self.line_offsets.len();
        self.lines_total += n_lines as u64;
        self.next_line = first_line + n_lines as u64;
        if n_lines == 0 {
            return;
        }
        // Each shard parses one contiguous sub-range of the chunk.
        let offsets = &self.line_offsets;
        let jobs = Parallelism::fixed(self.shards.len())
            .chunk_ranges(n_lines)
            .into_iter()
            .map(|r| (&offsets[r.clone()], first_line + r.start as u64))
            .collect();
        let horizon = self.cfg.horizon.unwrap_or(u32::MAX);
        let stats = fan_out(
            &mut self.shards,
            &mut self.kept_scratch,
            jobs,
            |(offsets, first), shard, kept| parse_range(text, offsets, first, horizon, shard, kept),
        );
        for st in &stats {
            self.seen.fold(st);
        }
        // The chunk releases as one batch: the ranges concatenate, in line
        // order, into shard 0's buffer.
        if let Some((first, rest)) = self.kept_scratch[..stats.len()].split_first_mut() {
            for kept in rest {
                first.extend_from_slice(kept);
            }
        }
        self.release_batch(0);
    }

    /// Releases the kept entries in shard `shard`'s buffer below the
    /// look-ahead watermark.
    ///
    /// Equivalent to pushing every entry through the reorder buffer and
    /// releasing below the watermark, but without buffering the entries
    /// that leave at once: the batch is sorted in place by the `(start,
    /// timestamp, line)` key — text logs arrive nearly start-ordered, so
    /// the pattern-defeating sort runs close to linear — and its prefix
    /// below the watermark is merged with the buffered entries in key
    /// order. Only the batch tail (the final start cohort or look-ahead
    /// window) enters the buffer.
    fn release_batch(&mut self, shard: usize) {
        let mut batch = std::mem::take(&mut self.kept_scratch[shard]);
        batch.sort_unstable();
        let watermark = self.watermark(!self.seen.starts_regressed);
        let cut = batch.partition_point(|p| p.start < watermark);
        for p in &batch[..cut] {
            // Buffered entries that sort before this one release first,
            // preserving the exact single-buffer order.
            while self.pending.peek_below(watermark).is_some_and(|h| h < p) {
                let Some(h) = self.pending.pop_below(watermark) else {
                    break;
                };
                self.coord.process(&h);
            }
            self.coord.process(p);
        }
        // Leftover buffered entries below the watermark sort after every
        // entry released above; the batch tail joins the buffer.
        self.release_below(watermark);
        for &p in &batch[cut..] {
            self.pending.push(p.start, p);
        }
        self.peak_heap = self.peak_heap.max(self.pending.len());
        self.kept_scratch[shard] = batch;
    }

    /// Ends the stream and assembles the report.
    pub fn finalize(mut self) -> StreamReport {
        self.release_all();
        let horizon = self
            .cfg
            .horizon
            .unwrap_or_else(|| self.seen.max_stop.saturating_add(1));
        let (underload_time, underload_transfers) = self.coord.finish(horizon);

        // Merge shard sketches in shard-index order.
        let mut shards = self.shards.into_iter();
        // lsw::allow(L005): the constructor always allocates >= 1 shard
        let mut merged = shards.next().expect("at least one shard");
        for s in shards {
            merged.merge(&s);
        }

        let mut rejects: Vec<(RejectReason, u64)> = REASONS
            .iter()
            .zip(merged.rejects)
            .filter(|&(_, n)| n > 0)
            .map(|(&r, n)| (r, n))
            .collect();
        // Batch order: descending count.
        rejects.sort_by_key(|&(_, n)| Reverse(n));

        let sketch_bytes = merged.bytes() + self.coord.bytes();
        let coord = &self.coord;
        let sample = &coord.sample;
        let iat_tail = lsw_stats::fit::two_regime_tail(
            &coord.iat_quant.ccdf_points(),
            paper::TRANSFER_IAT_REGIME_BOUNDARY,
            2.0,
        )
        .ok();
        let country_total = merged.country_top.total().max(1);
        let top_countries: Vec<(String, f64)> = merged
            .country_top
            .top()
            .into_iter()
            .map(|(code, c)| {
                // lsw::allow(L006): once per finalize, bounded by top-k capacity
                let code = std::str::from_utf8(&code).unwrap_or("??").to_string();
                (code, c.count as f64 / country_total as f64)
            })
            .collect();

        StreamReport {
            session_timeout: self.cfg.timeout,
            shards: self.cfg.shards,
            summary: StreamSummary {
                horizon,
                days: f64::from(horizon) / 86_400.0,
                users: merged.clients.count(),
                client_ips: merged.ips.count(),
                client_ases: merged.as_top.len() as u64,
                countries: merged.country_top.len() as u64,
                objects: merged.object_top.len() as u64,
                transfers: merged.kept,
                terabytes: merged.bytes_total as f64 / f64::powi(2.0, 40),
            },
            accounting: StreamAccounting {
                lines_total: self.lines_total,
                malformed_lines: merged.malformed,
                first_malformed: merged.first_malformed,
                late_entries: coord.late_entries,
                corrupt_blocks: self.corrupt_blocks,
                corrupt_records: self.corrupt_records,
                first_corrupt: self.first_corrupt,
                examined: merged.parsed,
                kept: merged.kept,
                rejects,
                underload_time_fraction: underload_time,
                underload_transfer_fraction: underload_transfers,
            },
            n_sessions: coord.n_sessions,
            interest_transfers: sample.transfers_zipf(),
            interest_sessions: sample.sessions_zipf(),
            sample_clients: sample.len() as u64,
            sample_fraction: sample.sample_fraction(),
            on_fit: coord.on_moments.lognormal(),
            on_quantiles: coord.on_quant.estimate(),
            off_mean: sample.off_mean().map(|(m, _)| m),
            off_gaps: sample.off_mean().map_or(0, |(_, n)| n),
            tps_fit: lsw_stats::fit::fit_zipf_points(&coord.tps_points(), Some(50.0)).ok(),
            intra_iat_fit: coord.intra_moments.lognormal(),
            transfer_length_fit: merged.length_moments.lognormal(),
            transfer_length_quantiles: merged.length_quant.estimate(),
            iat_tail,
            congestion_bound_fraction: if merged.kept == 0 {
                0.0
            } else {
                merged.congested as f64 / merged.kept as f64
            },
            top_ases: merged
                .as_top
                .top()
                .into_iter()
                .take(10)
                .map(|(id, c)| (id, c.count))
                .collect(),
            top_countries,
            concurrency: ConcurrencySummary {
                peak: coord.conc.peak(),
                mean: coord.conc.mean(horizon),
                marginal: coord.conc.marginal(),
                daily_fold: coord.conc.daily_fold(),
            },
            memory: MemoryFootprint {
                sketch_bytes: sketch_bytes as u64,
                peak_heap_entries: self.peak_heap as u64,
                peak_active_sessions: coord.peak_active_sessions() as u64,
            },
        }
    }
}

/// What the entries of one parse shard's piece bound, in line order: the
/// maxima the watermark and the inferred horizon need, and whether kept
/// starts arrived in order. The analyzer folds the pieces into one
/// running value for the whole stream.
#[derive(Debug, Default, Clone, Copy)]
struct RangeStats {
    /// Max stop over *parsed* entries — the batch CLI's inferred horizon
    /// is this plus one.
    max_stop: u32,
    max_start: u32,
    max_ts: u32,
    max_dur: u32,
    /// Starts of the first and last kept entries, in line order.
    first_start: Option<u32>,
    last_start: u32,
    /// Some kept start fell below its predecessor.
    starts_regressed: bool,
}

impl RangeStats {
    /// The per-entry keep step every source shares: counts the parse,
    /// applies the §2.4 rules against `horizon`, and folds a kept entry
    /// into `shard`'s sketches and these bounds. Returns whether it was
    /// kept.
    ///
    /// With an inferred horizon the two horizon rules cannot fire (every
    /// duration and start is below `max stop + 1`), which a `horizon` of
    /// `u32::MAX` reproduces without knowing the maximum in advance.
    fn keep(&mut self, shard: &mut ShardSketches, e: &LogEntry, horizon: u32) -> bool {
        shard.parsed += 1;
        self.max_stop = self.max_stop.max(e.stop());
        if let Some(r) = classify(e, horizon) {
            shard.rejects[reason_index(r)] += 1;
            return false;
        }
        shard.observe(e);
        self.max_start = self.max_start.max(e.start);
        self.max_ts = self.max_ts.max(e.timestamp);
        self.max_dur = self.max_dur.max(e.duration);
        self.first_start.get_or_insert(e.start);
        self.starts_regressed |= e.start < self.last_start;
        self.last_start = e.start;
        true
    }

    /// Folds in the bounds of the piece that follows in line order.
    fn fold(&mut self, next: &Self) {
        self.max_stop = self.max_stop.max(next.max_stop);
        self.max_start = self.max_start.max(next.max_start);
        self.max_ts = self.max_ts.max(next.max_ts);
        self.max_dur = self.max_dur.max(next.max_dur);
        if let Some(first) = next.first_start {
            self.first_start.get_or_insert(first);
            self.starts_regressed |= next.starts_regressed || first < self.last_start;
            self.last_start = next.last_start;
        }
    }
}

/// Runs one job per parse shard — job `i` on shard `i`'s sketches and
/// kept buffer, which it clears first — on scoped threads when there are
/// several, and returns the results in shard order.
fn fan_out<J: Send, R: Send>(
    shards: &mut [ShardSketches],
    kept: &mut Vec<Vec<Pending>>,
    jobs: Vec<J>,
    work: impl Fn(J, &mut ShardSketches, &mut Vec<Pending>) -> R + Sync,
) -> Vec<R> {
    let run = |((shard, kept), job): ((&mut ShardSketches, &mut Vec<Pending>), J)| {
        // The job fills a buffer header on its own stack: the headers in
        // `kept` share a cache line, and a push writes its header's length.
        let mut buf = std::mem::take(kept);
        buf.clear();
        let out = work(job, shard, &mut buf);
        *kept = buf;
        out
    };
    kept.resize_with(shards.len(), Vec::new);
    let slots = shards.iter_mut().zip(kept.iter_mut()).zip(jobs);
    if slots.len() == 1 {
        return slots.map(run).collect();
    }
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = slots.map(|slot| s.spawn(|| run(slot))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// Parses one contiguous line range into `shard`, appending kept entries
/// to `kept` in line order.
///
/// Lines are raw bytes and go straight through the zero-copy scanner
/// ([`wms::parse_line_bytes`]) — no `String` is ever materialized on this
/// path.
fn parse_range(
    text: &[u8],
    offsets: &[(usize, usize)],
    first_line: u64,
    horizon: u32,
    shard: &mut ShardSketches,
    kept: &mut Vec<Pending>,
) -> RangeStats {
    let mut st = RangeStats::default();
    kept.reserve(offsets.len());
    for (i, &(s, e)) in offsets.iter().enumerate() {
        let line_no = first_line + i as u64;
        let raw = text[s..e].trim_ascii();
        if raw.is_empty() || raw[0] == b'#' {
            continue;
        }
        match wms::parse_line_bytes(raw) {
            Ok(entry) => {
                if st.keep(shard, &entry, horizon) {
                    kept.push(Pending::new(line_no, &entry));
                }
            }
            Err(mut err) => {
                shard.malformed += 1;
                if shard.first_malformed.is_none() {
                    err.line = line_no as usize;
                    // lsw::allow(L006): first malformed line only, guarded above
                    shard.first_malformed = Some(err.to_string());
                }
            }
        }
    }
    st
}

/// Checks one raw `ltc` block (header + payload bytes) against its index
/// entry, decodes it into `block` and keeps its records into `shard`,
/// appending kept ones to `kept` tagged with 1-based record ordinals from
/// `first_record`; an error names the corruption.
fn decode_ltc_block(
    raw: &[u8],
    meta: ltc::BlockMeta,
    first_record: u64,
    horizon: u32,
    shard: &mut ShardSketches,
    block: &mut ltc::RecordBlock,
    kept: &mut Vec<Pending>,
) -> Result<RangeStats, &'static str> {
    let header = ltc::parse_block_header(raw).ok_or("truncated block header")?;
    if header.payload_len != meta.payload_len || header.n_records != meta.n_records {
        return Err("block header disagrees with index");
    }
    let payload = &raw[ltc::BLOCK_HEADER_LEN..];
    if !ltc::decode_block(payload, header, block) {
        return Err("crc mismatch or undecodable columns");
    }
    let mut st = RangeStats::default();
    kept.reserve(block.len());
    for (i, e) in block.entries().enumerate() {
        if st.keep(shard, &e, horizon) {
            kept.push(Pending::new(first_record + i as u64, &e));
        }
    }
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_entries() -> Vec<LogEntry> {
        (0..200u32)
            .map(|i| {
                lsw_trace::event::LogEntryBuilder::new()
                    .span(i * 20, (i % 9) + 1)
                    .client(lsw_trace::ids::ClientId(i % 17))
                    .transfer_stats(u64::from(i) * 100, 30_000 + i, 0.0)
                    .build()
            })
            .collect()
    }

    fn tiny_log() -> String {
        String::from_utf8(wms::format_log(&tiny_entries()).to_vec()).unwrap()
    }

    fn tiny_ltc(entries: &[LogEntry], block_records: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ltc::LtcWriter::with_block_records(&mut out, block_records).unwrap();
        for e in entries {
            w.push(e).unwrap();
        }
        w.finish().unwrap();
        out
    }

    #[test]
    fn shard_counts_produce_identical_reports() {
        let text = tiny_log();
        let mut reports = Vec::new();
        for shards in [1usize, 2, 8] {
            let mut a = StreamAnalyzer::new(StreamConfig {
                shards,
                ..StreamConfig::default()
            });
            a.ingest_str(&text);
            reports.push({
                let mut r = a.finalize();
                r.shards = 0; // neutralize the config echo before comparing
                r.to_json()
            });
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }

    #[test]
    fn tap_and_text_ingest_agree() {
        // The replay tap feeds decoded entries; the report must match
        // analyzing the equivalent log text (same sketches, same buffer).
        // Text logs carry header/comment lines and their own release
        // cadence; neutralize the two fields that legitimately reflect
        // that (raw line count, peak heap) before comparing.
        fn neutral(mut r: crate::report::StreamReport) -> String {
            r.accounting.lines_total = 0;
            r.memory.peak_heap_entries = 0;
            r.to_json()
        }
        let entries = tiny_entries();
        let mut text = StreamAnalyzer::new(StreamConfig::default());
        text.ingest_str(&tiny_log());
        let text = neutral(text.finalize());

        let mut tap = StreamAnalyzer::new(StreamConfig::default());
        for e in &entries {
            tap.ingest_start_ordered(e);
        }
        assert_eq!(text, neutral(tap.finalize()));

        // Per-entry feeding only changes the release cadence, never the
        // sketch contents or session accounting.
        let mut single = StreamAnalyzer::new(StreamConfig::default());
        for e in &entries {
            single.ingest_entry(e);
        }
        assert_eq!(text, neutral(single.finalize()));
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let mut text = tiny_log();
        text.push_str("this is not a log line\n");
        text.push_str("neither is this\n");
        let mut a = StreamAnalyzer::new(StreamConfig::default());
        a.ingest_str(&text);
        let r = a.finalize();
        assert_eq!(r.accounting.malformed_lines, 2);
        assert_eq!(r.accounting.kept, 200);
        assert!(r
            .accounting
            .first_malformed
            .as_deref()
            .unwrap()
            .contains("line"));
    }

    #[test]
    fn chunked_and_whole_ingest_agree() {
        let text = tiny_log();
        let mut whole = StreamAnalyzer::new(StreamConfig::default());
        whole.ingest_str(&text);
        let whole = whole.finalize();

        let mut chunked = StreamAnalyzer::new(StreamConfig {
            chunk_bytes: 4096,
            ..StreamConfig::default()
        });
        chunked
            .ingest_read(std::io::Cursor::new(text.as_bytes()))
            .expect("in-memory read");
        let mut chunked = chunked.finalize();
        let mut whole = whole;
        // The memory audit legitimately depends on chunking (smaller
        // chunks drain the reorder buffer more often); the statistics
        // must not.
        whole.memory.peak_heap_entries = 0;
        chunked.memory.peak_heap_entries = 0;
        assert_eq!(whole.to_json(), chunked.to_json());
    }

    #[test]
    fn ltc_shard_counts_produce_identical_reports() {
        let image = tiny_ltc(&tiny_entries(), 32);
        let mut reports = Vec::new();
        for shards in [1usize, 2, 8] {
            let mut a = StreamAnalyzer::new(StreamConfig {
                shards,
                ..StreamConfig::default()
            });
            a.ingest_ltc_bytes(&image).expect("in-memory ltc");
            reports.push({
                let mut r = a.finalize();
                r.shards = 0; // neutralize the config echo before comparing
                r.to_json()
            });
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }

    #[test]
    fn ltc_and_wms_reports_agree() {
        let entries = tiny_entries();
        let mut text = StreamAnalyzer::new(StreamConfig::default());
        text.ingest_str(&tiny_log());
        let mut text = text.finalize();

        let mut bin = StreamAnalyzer::new(StreamConfig::default());
        bin.ingest_ltc_bytes(&tiny_ltc(&entries, 32)).unwrap();
        let mut bin = bin.finalize();

        // A sorted container bypasses the reorder buffer, so only the
        // buffer high-water audit may differ between the two formats; the
        // text side also counts its `#` header lines in `lines_total`.
        assert_eq!(bin.memory.peak_heap_entries, 0);
        text.memory.peak_heap_entries = 0;
        bin.memory.peak_heap_entries = 0;
        assert_eq!(text.accounting.lines_total, 203);
        assert_eq!(bin.accounting.lines_total, 200);
        text.accounting.lines_total = 0;
        bin.accounting.lines_total = 0;
        assert_eq!(text.to_json(), bin.to_json());
    }

    #[test]
    fn unsorted_ltc_takes_heap_path_and_agrees_with_text() {
        // Local disorder (adjacent swaps) clears the writer's sorted flag
        // and makes the buffer genuinely reorder, while staying inside the
        // look-ahead bound so no release cadence can produce late entries.
        let mut entries = tiny_entries();
        for i in [50usize, 100, 150] {
            entries.swap(i, i + 1);
        }
        let text_src = String::from_utf8(wms::format_log(&entries).to_vec()).unwrap();
        let mut text = StreamAnalyzer::new(StreamConfig {
            shards: 3,
            ..StreamConfig::default()
        });
        text.ingest_str(&text_src);
        let mut text = text.finalize();

        let mut bin = StreamAnalyzer::new(StreamConfig {
            shards: 3,
            ..StreamConfig::default()
        });
        bin.ingest_ltc_bytes(&tiny_ltc(&entries, 32)).unwrap();
        let mut bin = bin.finalize();

        // Both sides re-order through the buffer; release cadence (chunk vs
        // block) legitimately moves only the buffer high-water audit, and
        // the text side counts its `#` header lines in `lines_total`.
        assert!(bin.memory.peak_heap_entries > 0, "buffer path must engage");
        text.memory.peak_heap_entries = 0;
        bin.memory.peak_heap_entries = 0;
        text.accounting.lines_total = 0;
        bin.accounting.lines_total = 0;
        assert_eq!(text.to_json(), bin.to_json());
    }

    #[test]
    fn corrupt_ltc_block_is_counted_not_fatal() {
        let mut image = tiny_ltc(&tiny_entries(), 50);
        // Walk to the second block and flip one payload byte.
        let first_payload = u32::from_le_bytes(image[8..12].try_into().unwrap()) as usize;
        let second = 8 + ltc::BLOCK_HEADER_LEN + first_payload;
        image[second + ltc::BLOCK_HEADER_LEN + 3] ^= 0x40;
        let mut a = StreamAnalyzer::new(StreamConfig::default());
        a.ingest_ltc_bytes(&image)
            .expect("corruption is not an error");
        let r = a.finalize();
        assert_eq!(r.accounting.corrupt_blocks, 1);
        assert_eq!(r.accounting.corrupt_records, 50);
        assert_eq!(r.accounting.kept, 150);
        assert_eq!(r.accounting.lines_total, 200);
        let first = r.accounting.first_corrupt.as_deref().unwrap();
        assert!(first.contains("block 1"), "diagnostic was {first:?}");
        assert!(r.headline().contains("corrupt ltc blocks: 1"));
    }

    #[test]
    fn explicit_horizon_rejects_like_batch() {
        let text = tiny_log();
        let mut a = StreamAnalyzer::new(StreamConfig {
            horizon: Some(1_000),
            ..StreamConfig::default()
        });
        a.ingest_str(&text);
        let r = a.finalize();
        let beyond: u64 = r
            .accounting
            .rejects
            .iter()
            .filter(|(reason, _)| *reason == RejectReason::StartsBeyondHorizon)
            .map(|&(_, n)| n)
            .sum();
        assert!(beyond > 0, "entries past the horizon must be rejected");
        assert_eq!(r.accounting.examined, 200);
        assert_eq!(r.accounting.kept + r.accounting.rejected(), 200);
    }
}
