//! The sequential coordinator behind the reorder buffer.
//!
//! Order-insensitive per-entry statistics live in the parallel shard
//! sketches; everything whose definition depends on *stream order* —
//! sessionization, transfer interarrival gaps, the concurrency sweep, the
//! per-second CPU audit — is computed here, on the single deterministic
//! entry sequence the reorder buffer releases (sorted by `(start,
//! timestamp, line)`). One consumer, one order: shard count cannot touch
//! these results, and memory stays bounded by the look-ahead window.

use crate::fixed::LogMoments;
use crate::quantile::LogQuantileSketch;
use crate::sample::ClientSample;
use crate::session::{ClosedSession, StreamSessionizer};
use lsw_trace::event::LogEntry;
use std::collections::BinaryHeap;

/// Fixed-point scale for CPU-audit sums (2^-32 per unit).
const CPU_SCALE: f64 = 4_294_967_296.0;

/// Seconds per CPU-audit block: bins are grouped 64 at a time so the hot
/// `observe` path descends a tree that is 64x smaller and the per-entry
/// flush probe is a single shallow `first_key_value`.
const CPU_BLOCK_BITS: u32 = 6;
const CPU_BLOCK: usize = 1 << CPU_BLOCK_BITS;

/// 64 consecutive one-second bins of `(fixed-point sum, sample count)`.
#[derive(Debug)]
struct CpuBlock {
    /// Owning block key (`timestamp >> CPU_BLOCK_BITS`), kept so ring
    /// growth can re-place the block without external bookkeeping.
    key: u32,
    sums: [i64; CPU_BLOCK],
    counts: [u32; CPU_BLOCK],
}

impl CpuBlock {
    fn new(key: u32) -> Box<Self> {
        Box::new(Self {
            key,
            sums: [0; CPU_BLOCK],
            counts: [0; CPU_BLOCK],
        })
    }
}

/// Per-second CPU-load audit in a sliding window (§2.4).
///
/// The batch sanitizer averages CPU readings into one-second bins over the
/// whole trace; here bins are kept only while entries can still land in
/// them. A bin at second `t` receives readings from entries with
/// `timestamp == t`, and every entry satisfies `timestamp >= start`, so
/// once the released stream reaches start `s` all bins below `s` are
/// final and fold into two counters. Folding happens a whole 64-bin block
/// at a time — deferral only delays *when* a final bin is counted, never
/// what it contributes, so the finish-time fractions are unchanged.
#[derive(Debug)]
pub struct CpuAudit {
    /// Power-of-two ring of live blocks, indexed by block key mod the
    /// ring length. Live keys span `[min_block, max_block]`; the ring
    /// grows until that span fits, so distinct live keys never collide
    /// and the hot `observe` probe is one indexed load plus a compare.
    ring: Vec<Option<Box<CpuBlock>>>,
    /// Occupied ring slots.
    live: usize,
    /// Smallest live block key (`u32::MAX` when empty), so the
    /// once-per-entry flush probe is a register compare instead of a
    /// tree descent. Doubles as the flush cursor over the ring.
    min_block: u32,
    /// Largest live block key (0 when empty).
    max_block: u32,
    done_bins: u64,
    done_under: u64,
    transfers: u64,
    under_transfers: u64,
}

impl Default for CpuAudit {
    fn default() -> Self {
        Self {
            ring: Vec::new(),
            live: 0,
            min_block: u32::MAX,
            max_block: 0,
            done_bins: 0,
            done_under: 0,
            transfers: 0,
            under_transfers: 0,
        }
    }
}

impl CpuAudit {
    /// Observes one kept entry's CPU reading.
    pub(crate) fn observe(&mut self, timestamp: u32, cpu: f32) {
        self.transfers += 1;
        if cpu < lsw_trace::sanitize::CPU_THRESHOLD {
            self.under_transfers += 1;
        }
        let key = timestamp >> CPU_BLOCK_BITS;
        let (min, max) = if self.live == 0 {
            (key, key)
        } else {
            (self.min_block.min(key), self.max_block.max(key))
        };
        if u64::from(max - min) >= self.ring.len() as u64 {
            self.grow_ring(max - min);
        }
        self.min_block = min;
        self.max_block = max;
        let slot = key as usize & (self.ring.len() - 1);
        let block = match &mut self.ring[slot] {
            Some(b) => b,
            vacant => {
                self.live += 1;
                vacant.insert(CpuBlock::new(key))
            }
        };
        debug_assert_eq!(block.key, key, "live key span exceeded the ring");
        let bin = (timestamp as usize) & (CPU_BLOCK - 1);
        block.sums[bin] += (f64::from(cpu) * CPU_SCALE).round() as i64;
        block.counts[bin] += 1;
    }

    /// Doubles the ring until a live key span of `span` fits, re-placing
    /// every live block (distinct keys stay distinct mod the new length).
    fn grow_ring(&mut self, span: u32) {
        let mut new_len = self.ring.len().max(16);
        while new_len as u64 <= u64::from(span) {
            new_len *= 2;
        }
        let old = std::mem::take(&mut self.ring);
        self.ring.resize_with(new_len, || None);
        for block in old.into_iter().flatten() {
            let slot = block.key as usize & (new_len - 1);
            debug_assert!(self.ring[slot].is_none());
            self.ring[slot] = Some(block);
        }
    }

    /// Folds every block strictly below `watermark` into the totals (a
    /// block folds once *all* its bins are below the watermark).
    pub(crate) fn flush_below(&mut self, watermark: u32) {
        // Called once per released entry: bail on the cached minimum for
        // the (overwhelmingly common) case where no block is final yet.
        let limit = u64::from(watermark) >> CPU_BLOCK_BITS;
        while u64::from(self.min_block) < limit && self.live > 0 {
            let slot = self.min_block as usize & (self.ring.len() - 1);
            if let Some(block) = self.ring[slot].take() {
                self.fold(&block);
                self.live -= 1;
            }
            if self.live == 0 {
                self.min_block = u32::MAX;
                self.max_block = 0;
            } else {
                // The cursor walks key by key; each block key is visited
                // at most once over the whole stream.
                self.min_block += 1;
            }
        }
    }

    fn fold(&mut self, block: &CpuBlock) {
        for (sum, n) in block.sums.iter().zip(&block.counts) {
            if *n == 0 {
                continue;
            }
            self.done_bins += 1;
            let avg = *sum as f64 / CPU_SCALE / f64::from(*n);
            if avg < f64::from(lsw_trace::sanitize::CPU_THRESHOLD) {
                self.done_under += 1;
            }
        }
    }

    /// Final underload fractions `(time, transfers)`, batch conventions:
    /// empty audits count as fully underloaded.
    pub(crate) fn finish(&mut self) -> (f64, f64) {
        // Fold survivors in ascending key order (the span fits the ring,
        // so one pass of the cursor visits every live block).
        while self.live > 0 {
            let slot = self.min_block as usize & (self.ring.len() - 1);
            if let Some(block) = self.ring[slot].take() {
                self.fold(&block);
                self.live -= 1;
            }
            if self.min_block == self.max_block {
                break;
            }
            self.min_block += 1;
        }
        self.live = 0;
        self.min_block = u32::MAX;
        self.max_block = 0;
        let time = if self.done_bins == 0 {
            1.0
        } else {
            self.done_under as f64 / self.done_bins as f64
        };
        let transfers = if self.transfers == 0 {
            1.0
        } else {
            self.under_transfers as f64 / self.transfers as f64
        };
        (time, transfers)
    }
}

/// Number of 15-minute bins in a day (the paper's piecewise window).
pub(crate) const DAILY_BINS: usize = 96;

/// Slot cap of the concurrency timing wheel (seconds). Removal leads at
/// or beyond this (transfers longer than ~36 hours) fall back to the
/// overflow heap, bounding wheel memory at 512 KiB.
const CONC_WHEEL_CAP: usize = 1 << 17;

/// Online transfer-concurrency sweep over the released stream.
///
/// Equivalent to the batch difference-array profile but without the
/// per-second array: the stream arrives start-ordered, pending removal
/// times (`stop + 1`) sit in a timing wheel of per-second counts, and
/// time advances piecewise — each constant-concurrency segment is
/// accumulated into a level → seconds marginal, a time-weighted total,
/// and a 96-bin time-of-day fold.
///
/// The wheel replaces a removal min-heap on the per-entry hot path: a
/// push is one counter bump and retirement scans each elapsed second
/// once globally (clock time, already bounded by the horizon), instead
/// of paying a heap sift per transfer. Leads the wheel cannot hold go
/// to a (normally empty) overflow heap; removals still retire in
/// nondecreasing time order, so every accounted segment — and thus
/// every published statistic — is identical to the heap formulation.
#[derive(Debug)]
pub struct OnlineConcurrency {
    /// Power-of-two ring of removal counts, indexed by absolute second
    /// mod the wheel length. Grows with the largest lead seen (capped).
    wheel: Vec<u32>,
    /// Removals currently resident in the wheel.
    wheel_pending: u64,
    /// Removals whose lead exceeded [`CONC_WHEEL_CAP`].
    overflow: BinaryHeap<std::cmp::Reverse<u32>>,
    level: u32,
    t_cur: u32,
    peak: u32,
    /// Seconds spent at each concurrency level, indexed by level. Levels
    /// are dense small integers (bounded by peak concurrency), so a flat
    /// vector beats a tree: `account` runs once or twice per released
    /// entry and its histogram bump must be O(1).
    marginal: Vec<u64>,
    weighted: u128,
    fold_secs: [u64; DAILY_BINS],
    fold_weighted: [u64; DAILY_BINS],
    /// Time-of-day bin containing `t_cur` and the absolute second where it
    /// ends: the common segment fits one bin, making the fold a compare
    /// and two adds instead of a div/mod pair.
    bin: usize,
    bin_end: u64,
    peak_pending: usize,
}

impl Default for OnlineConcurrency {
    fn default() -> Self {
        Self {
            wheel: Vec::new(),
            wheel_pending: 0,
            overflow: BinaryHeap::new(),
            level: 0,
            t_cur: 0,
            peak: 0,
            marginal: Vec::new(),
            weighted: 0,
            fold_secs: [0; DAILY_BINS],
            fold_weighted: [0; DAILY_BINS],
            bin: 0,
            bin_end: 900,
            peak_pending: 0,
        }
    }
}

impl OnlineConcurrency {
    /// The empty sweep (time starts at second 0, level 0).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Observes one kept transfer active over `[start, stop]`, in released
    /// order. Late entries (start below the sweep clock, possible only
    /// after a look-ahead miss) are clamped to the clock.
    pub(crate) fn observe(&mut self, start: u32, stop: u32) {
        let s = start.max(self.t_cur);
        self.advance(s);
        self.level += 1;
        self.peak = self.peak.max(self.level);
        let removal = stop.max(s).saturating_add(1);
        self.push_removal(removal);
        self.peak_pending = self
            .peak_pending
            .max(self.wheel_pending as usize + self.overflow.len());
    }

    /// Files one pending removal at absolute second `r` (`r > t_cur`).
    fn push_removal(&mut self, r: u32) {
        // The wheel addresses the window `(t_cur, t_cur + len]`; a lead
        // strictly below `len` always fits, leaving the `t_cur` slot free.
        let lead = (r - self.t_cur) as usize;
        if lead >= CONC_WHEEL_CAP {
            self.overflow.push(std::cmp::Reverse(r));
            return;
        }
        if lead >= self.wheel.len() {
            self.grow_wheel(lead);
        }
        let mask = self.wheel.len() - 1;
        self.wheel[r as usize & mask] += 1;
        self.wheel_pending += 1;
    }

    /// Doubles the wheel until `lead` fits, re-bucketing pending counts.
    ///
    /// Every pending removal lies in `(t_cur, t_cur + old_len]`, so each
    /// old slot maps to exactly one absolute second in that window and
    /// the re-bucketing is a bijection.
    fn grow_wheel(&mut self, lead: usize) {
        let mut new_len = self.wheel.len().max(64);
        while new_len <= lead {
            new_len *= 2;
        }
        let old = std::mem::replace(&mut self.wheel, vec![0u32; new_len]);
        if !old.is_empty() && self.wheel_pending > 0 {
            let from = u64::from(self.t_cur) + 1;
            let to = (u64::from(self.t_cur) + old.len() as u64).min(u64::from(u32::MAX));
            for sec in from..=to {
                let cnt = old[sec as usize & (old.len() - 1)];
                if cnt > 0 {
                    self.wheel[sec as usize & (new_len - 1)] = cnt;
                }
            }
        }
    }

    /// Runs the sweep clock forward to `t`, retiring due removals.
    ///
    /// Scans second by second only while removals are pending — each
    /// elapsed second is visited at most once over the whole stream
    /// (`t_cur` jumps to `t` at every call), so retirement is O(clock
    /// seconds + removals), not O(removals · log pending).
    fn advance(&mut self, t: u32) {
        if self.wheel_pending > 0 || !self.overflow.is_empty() {
            let end = u64::from(t);
            let mut sec = u64::from(self.t_cur) + 1;
            while sec <= end
                && (self.wheel_pending > 0
                    || self
                        .overflow
                        .peek()
                        .is_some_and(|&std::cmp::Reverse(r)| u64::from(r) <= end))
            {
                let s32 = sec as u32;
                let mut cnt = 0u32;
                if self.wheel_pending > 0 {
                    let slot = sec as usize & (self.wheel.len() - 1);
                    cnt = self.wheel[slot];
                    if cnt > 0 {
                        self.wheel[slot] = 0;
                        self.wheel_pending -= u64::from(cnt);
                    }
                }
                while self
                    .overflow
                    .peek()
                    .is_some_and(|&std::cmp::Reverse(r)| r == s32)
                {
                    self.overflow.pop();
                    cnt += 1;
                }
                if cnt > 0 {
                    self.account(s32);
                    self.level -= cnt;
                }
                sec += 1;
            }
        }
        self.account(t);
    }

    /// Accounts the constant segment `[t_cur, until)` at the current level.
    fn account(&mut self, until: u32) {
        if until <= self.t_cur {
            return;
        }
        let dur = u64::from(until - self.t_cur);
        let level = self.level as usize;
        if level >= self.marginal.len() {
            self.marginal.resize(level + 1, 0);
        }
        self.marginal[level] += dur;
        self.weighted += u128::from(self.level) * u128::from(dur);
        // Time-of-day fold over 15-minute bins. `bin`/`bin_end` track the
        // bin holding `t_cur`, so whole-segment-in-bin (the overwhelming
        // case) costs one compare and two adds.
        let mut t = u64::from(self.t_cur);
        let end = u64::from(until);
        loop {
            let stop = self.bin_end.min(end);
            let seg = stop - t;
            self.fold_secs[self.bin] += seg;
            self.fold_weighted[self.bin] += u64::from(self.level) * seg;
            t = stop;
            if t >= end {
                break;
            }
            self.bin = (self.bin + 1) % DAILY_BINS;
            self.bin_end += 900;
        }
        self.t_cur = until;
    }

    /// Ends the sweep at `horizon` seconds, accounting the tail.
    pub(crate) fn finish(&mut self, horizon: u32) {
        self.advance(horizon);
        // Removals beyond the horizon are clamped (batch behaviour: an
        // entry is active through `stop.min(horizon - 1)`).
        self.wheel.fill(0);
        self.wheel_pending = 0;
        self.overflow.clear();
        self.level = 0;
    }

    /// Peak concurrency.
    pub(crate) fn peak(&self) -> u32 {
        self.peak
    }

    /// Time-weighted mean concurrency over `[0, horizon)`.
    pub(crate) fn mean(&self, horizon: u32) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            self.weighted as f64 / f64::from(horizon)
        }
    }

    /// Marginal distribution: `(level, seconds spent at that level)`,
    /// ascending, non-empty levels only (same shape the tree produced).
    pub(crate) fn marginal(&self) -> Vec<(u32, u64)> {
        self.marginal
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s > 0)
            .map(|(l, &s)| (l as u32, s))
            .collect()
    }

    /// Mean concurrency per 15-minute time-of-day bin (Fig 15's shape).
    pub(crate) fn daily_fold(&self) -> Vec<f64> {
        (0..DAILY_BINS)
            .map(|b| {
                if self.fold_secs[b] == 0 {
                    0.0
                } else {
                    self.fold_weighted[b] as f64 / self.fold_secs[b] as f64
                }
            })
            .collect()
    }
}

/// Everything the coordinator accumulates from the released stream.
#[derive(Debug)]
pub struct Coordinator {
    sessionizer: StreamSessionizer,
    /// Bottom-k client sample (transfers, sessions, OFF gaps per client).
    pub sample: ClientSample,
    closed: Vec<ClosedSession>,
    /// Sessions closed so far.
    pub n_sessions: u64,
    /// ON-time log-moments (display-transformed).
    pub on_moments: LogMoments,
    /// ON-time quantile sketch (display-transformed).
    pub on_quant: LogQuantileSketch,
    /// Exact transfers-per-session histogram, dense by transfer count
    /// (bounded by the longest session; bumped once per closed session).
    pub tps: Vec<u64>,
    /// Intra-session interarrival log-moments (display-transformed).
    pub intra_moments: LogMoments,
    /// Transfer interarrival quantile sketch (display-transformed gaps
    /// between consecutive released starts).
    pub iat_quant: LogQuantileSketch,
    prev_start: Option<u32>,
    /// Concurrency sweep.
    pub conc: OnlineConcurrency,
    /// §2.4 CPU audit.
    pub cpu: CpuAudit,
    /// Entries that arrived below the sweep clock (look-ahead misses).
    pub late_entries: u64,
    released: u64,
}

impl Coordinator {
    /// Creates a coordinator with the given session timeout and client
    /// sample capacity.
    pub(crate) fn new(timeout: f64, sample_k: usize) -> Self {
        Self {
            sessionizer: StreamSessionizer::new(timeout),
            sample: ClientSample::new(sample_k),
            closed: Vec::new(),
            n_sessions: 0,
            on_moments: LogMoments::new(),
            on_quant: LogQuantileSketch::new(),
            tps: Vec::new(),
            intra_moments: LogMoments::new(),
            iat_quant: LogQuantileSketch::new(),
            prev_start: None,
            conc: OnlineConcurrency::new(),
            cpu: CpuAudit::default(),
            late_entries: 0,
            released: 0,
        }
    }

    /// Consumes one released (start-ordered) kept entry.
    pub(crate) fn process(&mut self, e: &LogEntry) {
        // One hash per entry, shared by the client sample and the
        // sessionizer.
        let client_hash = crate::sketch::hash64(u64::from(e.client.0));
        self.released += 1;
        if e.start < self.prev_start.unwrap_or(0) {
            self.late_entries += 1;
        }

        // Transfer interarrival gap (consecutive released starts).
        if let Some(prev) = self.prev_start {
            let gap = e.start.saturating_sub(prev);
            self.iat_quant
                .insert_value(lsw_stats::paper::log_display_time(f64::from(gap)));
        }
        self.prev_start = Some(self.prev_start.unwrap_or(0).max(e.start));

        self.conc.observe(e.start, e.stop());
        self.cpu.observe(e.timestamp, e.cpu_util);
        self.cpu.flush_below(e.start);
        self.sample.observe_transfer_hashed(client_hash, e.client.0);

        let intra = self.sessionizer.observe_hashed(
            client_hash,
            e.client.0,
            e.start,
            e.stop(),
            &mut self.closed,
        );
        if let Some(gap) = intra {
            self.intra_moments
                .insert(lsw_stats::paper::log_display_time(f64::from(gap)));
        }
        // Periodic eager close keeps the active map inside one timeout
        // window of the sweep clock.
        if self.released % 4096 == 0 {
            self.sessionizer.prune_before(e.start, &mut self.closed);
        }
        self.drain_closed();
    }

    /// Ends the stream: closes open sessions and the sweep.
    pub(crate) fn finish(&mut self, horizon: u32) -> (f64, f64) {
        self.sessionizer.finish(&mut self.closed);
        self.drain_closed();
        self.conc.finish(horizon);
        self.cpu.finish()
    }

    fn drain_closed(&mut self) {
        while let Some(c) = self.closed.pop() {
            self.n_sessions += 1;
            let on_disp = f64::from(c.on_time()) + 1.0;
            self.on_moments.insert(on_disp);
            self.on_quant.insert_value(on_disp);
            let k = c.transfers as usize;
            if k >= self.tps.len() {
                self.tps.resize(k + 1, 0);
            }
            self.tps[k] += 1;
            self.sample.observe_session(c.client, c.start, c.end);
        }
    }

    /// Transfers-per-session frequency points `(k, P[K = k])`, identical
    /// to the batch layer's construction (the histogram is exact).
    pub(crate) fn tps_points(&self) -> Vec<(f64, f64)> {
        let total: u64 = self.tps.iter().sum();
        if total == 0 {
            return Vec::new();
        }
        self.tps
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(k, &n)| (k as f64, n as f64 / total as f64))
            .collect()
    }

    /// High-water mark of open sessions.
    pub(crate) fn peak_active_sessions(&self) -> usize {
        self.sessionizer.peak_active()
    }

    /// Approximate resident bytes of coordinator state.
    pub(crate) fn bytes(&self) -> usize {
        use crate::sketch::Sketch as _;
        self.sessionizer.bytes()
            + self.sample.bytes()
            + self.on_quant.bytes()
            + self.iat_quant.bytes()
            + self.tps.len() * 8
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn concurrency_matches_batch_profile() {
        use lsw_trace::concurrency::ConcurrencyProfile;

        // Deterministic pseudo-random intervals, fed in start order.
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut intervals: Vec<(u32, u32)> = (0..3_000)
            .map(|_| {
                let start = (next() % 50_000) as u32;
                let stop = start + (next() % 2_000) as u32;
                (start, stop)
            })
            .collect();
        intervals.sort_unstable();
        let horizon = 60_000;

        let batch = ConcurrencyProfile::from_intervals(intervals.iter().copied(), horizon);
        let mut sweep = OnlineConcurrency::new();
        for &(s, e) in &intervals {
            sweep.observe(s, e);
        }
        sweep.finish(horizon);

        assert_eq!(sweep.peak(), batch.peak());
        // Marginal must match the batch per-second histogram exactly.
        let mut batch_marginal: BTreeMap<u32, u64> = BTreeMap::new();
        for &c in batch.per_second() {
            *batch_marginal.entry(c).or_insert(0) += 1;
        }
        let batch_points: Vec<(u32, u64)> = batch_marginal.into_iter().collect();
        assert_eq!(sweep.marginal(), batch_points);
        let batch_mean = batch
            .per_second()
            .iter()
            .map(|&c| u64::from(c))
            .sum::<u64>() as f64
            / f64::from(horizon);
        assert!((sweep.mean(horizon) - batch_mean).abs() < 1e-9);
    }

    #[test]
    fn cpu_audit_matches_batch_fractions() {
        let mut audit = CpuAudit::default();
        // (timestamp, cpu): two cool bins, one hot bin.
        for (ts, cpu) in [(5u32, 0.5f32), (100, 0.01), (100, 0.02), (200, 0.03)] {
            audit.observe(ts, cpu);
        }
        let (time, transfers) = audit.finish();
        assert!((time - 2.0 / 3.0).abs() < 1e-9);
        assert!((transfers - 3.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_audit_flushing_leaves_the_fractions_unchanged() {
        let readings: Vec<(u32, f32)> = (0..40u32)
            .map(|i| (i * 37, if i % 3 == 0 { 0.4 } else { 0.05 }))
            .collect();
        let mut whole = CpuAudit::default();
        let mut flushed = CpuAudit::default();
        for &(ts, cpu) in &readings {
            whole.observe(ts, cpu);
            flushed.flush_below(ts);
            flushed.observe(ts, cpu);
        }
        assert_eq!(flushed.finish(), whole.finish());
    }

    #[test]
    fn cpu_audit_bins_average_their_readings() {
        let mut audit = CpuAudit::default();
        // One second whose mean (0.11) is hot though one reading is cool.
        audit.observe(7, 0.02);
        audit.observe(7, 0.20);
        assert_eq!(audit.finish(), (0.0, 0.5));
        assert_eq!(
            CpuAudit::default().finish(),
            (1.0, 1.0),
            "empty is underloaded"
        );
    }

    #[test]
    fn concurrency_fold_splits_a_transfer_at_the_bin_boundary() {
        let mut sweep = OnlineConcurrency::new();
        sweep.observe(600, 1_199); // active [600, 1200): straddles 900
        sweep.finish(1_800);
        assert_eq!(sweep.peak(), 1);
        assert_eq!(sweep.marginal(), [(0, 1_200), (1, 600)]);
        let fold = sweep.daily_fold();
        assert!((fold[0] - 300.0 / 900.0).abs() < 1e-12);
        assert!((fold[1] - 300.0 / 900.0).abs() < 1e-12);
        assert!(fold[2..].iter().all(|&f| f == 0.0));
        assert!((sweep.mean(1_800) - 600.0 / 1_800.0).abs() < 1e-12);
    }

    #[test]
    fn concurrency_clamps_a_late_start_to_the_clock() {
        let mut sweep = OnlineConcurrency::new();
        sweep.observe(100, 200);
        sweep.observe(50, 60); // late: active only at second 100
        sweep.finish(300);
        assert_eq!(sweep.peak(), 2);
        assert_eq!(sweep.marginal(), [(0, 199), (1, 100), (2, 1)]);
    }

    #[test]
    fn concurrency_overflow_leads_match_the_batch_profile() {
        use lsw_trace::concurrency::ConcurrencyProfile;

        let long = CONC_WHEEL_CAP as u32 + 5_000;
        let intervals = [(0, long), (10, 20), (15, long + 3), (30_000, 30_010)];
        let horizon = long + 1_000;
        let batch = ConcurrencyProfile::from_intervals(intervals.iter().copied(), horizon);
        let mut sweep = OnlineConcurrency::new();
        for &(s, e) in &intervals {
            sweep.observe(s, e);
        }
        assert!(sweep.peak_pending >= 2);
        sweep.finish(horizon);
        let mut expect: BTreeMap<u32, u64> = BTreeMap::new();
        for &c in batch.per_second() {
            *expect.entry(c).or_insert(0) += 1;
        }
        assert_eq!(sweep.marginal(), expect.into_iter().collect::<Vec<_>>());
        assert_eq!(sweep.peak(), batch.peak());
    }

    #[test]
    fn late_entries_are_counted_not_fatal() {
        let mut c = Coordinator::new(1500.0, 1024);
        let mk = |start: u32, dur: u32| {
            lsw_trace::event::LogEntryBuilder::new()
                .span(start, dur)
                .client(lsw_trace::ids::ClientId(1))
                .build()
        };
        c.process(&mk(1000, 10));
        c.process(&mk(500, 10)); // out of order
        c.process(&mk(2000, 10));
        assert_eq!(c.late_entries, 1);
        let _ = c.finish(3000);
        assert!(c.n_sessions >= 1);
    }
}
