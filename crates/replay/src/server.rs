//! The origin: the paced localhost serving harness.
//!
//! One accept thread hands connections round-robin to a fixed pool of
//! worker shards, so the thread count is bounded by `workers + 2` no
//! matter how many clients are connected. Each shard owns its
//! connections outright and runs the LSW1 [lifecycle](crate::reactor)
//! it shares with the edge relay — request line, admission, arena
//! writes, close. This module supplies what only the origin does: how
//! many bytes a connection is owed, and when to wake it next.
//!
//! **Pacing.** Each live feed is a broadcast: a feed encoded at `rate`
//! trace-bytes/second has a global position `rate × elapsed`, and a
//! subscriber is entitled to the bytes the broadcast produced since it
//! joined, capped by its transfer's wire byte budget. Time compression
//! divides both the budget and the wall duration, so the *wire rate* is
//! the trace rate unchanged. Pacing error is bounded by the deadline
//! resolution (default 2^17 ns ≈ 131 µs).
//!
//! **Admission.** The shards share one [`Gate`]: the same
//! [`AdmissionPolicy`] semantics the DES uses, with a rejection charged
//! as denied viewer-seconds.
//!
//! **Slow clients.** A subscriber whose backlog (entitlement minus bytes
//! actually written) exceeds the configured send-buffer bound is either
//! dropped (logged truncated) or allowed to lag, per
//! [`SlowClientPolicy`]. A write-blocked connection under the
//! drop policy arms a deadline at the instant its client's aggregate
//! backlog would trip the bound, so stuck peers are dropped on time
//! without any periodic scan.
//!
//! **Tap.** Completions are logged WMS-style — at connection close, in
//! trace coordinates taken from the request line — into an embedded
//! [`MultiTap`] with no tiers, which is finalized into the run's
//! closed-loop [`StreamReport`] on drain. Each admission registers its
//! start there, and the tap releases nothing at or above the smallest
//! start still open ([`lsw_stream::tap::InFlight`]), so the order in
//! which completions reach it over real sockets cannot make an entry
//! late.

use crate::clock::{Nanos, WallClock};
use crate::metrics::{Counter, LogHistogram, Registry, Snapshot};
use crate::payload;
use crate::proto::{self, Request};
use crate::reactor::{peer_gone, read_request, write_arena, Conn, Gate, Reactor, Transfer};
use crate::slab::{Key, Slab};
use crate::STATUS_TRUNCATED;
use lsw_sim::server::{AdmissionPolicy, ServerStats};
use lsw_stream::{MultiTap, StreamConfig, StreamReport};
use lsw_trace::schedule::ScheduledTransfer;
use mio::Waker;
use parking_lot::{Mutex, MutexGuard};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

/// Slot count of the hashed per-client backlog table. Collisions make
/// two clients share a byte budget, which only trips the slow-client
/// policy *sooner* — the memory bound stays conservative.
const CLIENT_BACKLOG_SLOTS: usize = 1024;

/// Minimum bytes granted per pacing step: deadlines are spaced so each
/// deadline moves at least this much (or `rate × resolution` at high
/// rates, whichever is larger), keeping timer traffic off fast feeds.
const PACING_BURST: u64 = payload::BLOCK as u64;

/// Maps a client id onto its backlog accounting slot.
fn client_slot(client: lsw_trace::ids::ClientId) -> usize {
    client.0 as usize % CLIENT_BACKLOG_SLOTS
}

/// What to do with a subscriber that cannot keep up with its feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowClientPolicy {
    /// Close the connection and log the transfer truncated — the live
    /// answer (the broadcast cannot wait).
    Drop,
    /// Let the backlog grow and the client lag the broadcast — the
    /// stored-media answer. Memory stays bounded either way: payload is
    /// staged from the shared arena at write time, never queued.
    Backpressure,
}

/// Serving harness configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub listen: String,
    /// Admission policy (the DES semantics, on real sockets).
    pub admission: AdmissionPolicy,
    /// Time-compression factor shared with the driver.
    pub compression: f64,
    /// Per-client backlog bound in wire bytes before the slow-client
    /// policy applies. Accounted in bytes and aggregated across all of a
    /// client's connections, so a few large objects cannot blow the
    /// budget through separate sockets.
    pub send_buffer: u64,
    /// Slow-client policy.
    pub slow_policy: SlowClientPolicy,
    /// Worker shards.
    pub workers: usize,
    /// Deadline resolution, nanoseconds (rounded up to a power of two;
    /// pacing error is bounded by it).
    pub wheel_resolution: Nanos,
    /// Maximum wait for in-flight transfers during drain, nanoseconds;
    /// survivors are then truncated.
    pub drain: Nanos,
    /// Tap (characterization) configuration.
    pub stream: StreamConfig,
    /// Unused: the tap releases below the starts still in flight and
    /// needs no preset look-ahead. Kept only because `lsw-benchmark`
    /// sets it; it goes with the benchmark's next change.
    pub lookahead: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            admission: AdmissionPolicy::AcceptAll,
            compression: 100.0,
            send_buffer: 256 << 10,
            slow_policy: SlowClientPolicy::Drop,
            workers: 2,
            wheel_resolution: 1 << 17,
            drain: 10_000_000_000,
            stream: StreamConfig::default(),
            lookahead: 0,
        }
    }
}

/// Everything a drained server hands back.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The tap's characterization of the traffic actually served.
    pub tap: StreamReport,
    /// Admission accounting (accepted/rejected/denied viewer-seconds).
    pub admission: ServerStats,
    /// Final metrics capture.
    pub metrics: Snapshot,
}

/// The origin's own metrics, beside the [`Gate`]'s lifecycle counters.
struct ServerMetrics {
    slow_dropped: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    backlog: Arc<LogHistogram>,
    transfer_wall_ms: Arc<LogHistogram>,
    /// |fire time − deadline| per deadline fired, nanoseconds.
    pacing_error_ns: Arc<LogHistogram>,
}

impl ServerMetrics {
    fn register(r: &Registry) -> Self {
        Self {
            slow_dropped: r.counter("srv.slow_dropped"),
            bytes_sent: r.counter("srv.bytes_sent"),
            backlog: r.histogram("srv.backlog_bytes"),
            transfer_wall_ms: r.histogram("srv.transfer_wall_ms"),
            pacing_error_ns: r.histogram("srv.pacing_error_ns"),
        }
    }
}

struct Shared {
    /// Admission and the `srv.*` lifecycle counters.
    gate: Gate,
    send_buffer: u64,
    slow_policy: SlowClientPolicy,
    /// Encoded trace-byte rate per object id (dense, indexed by id).
    rates: Vec<u64>,
    tap: Mutex<MultiTap>,
    /// Aggregate backlog per client in bytes, hashed into a fixed slot
    /// table (see [`client_slot`]). Updated by delta from each
    /// connection's step so the sum stays exact per connection.
    client_backlog: Vec<AtomicU64>,
    clock: Arc<WallClock>,
    metrics: ServerMetrics,
    /// Stop accepting; workers finish in-flight transfers.
    shutdown: AtomicBool,
    /// Truncate whatever is still in flight and exit.
    force: AtomicBool,
}

impl Shared {
    fn rate_for(&self, t: &ScheduledTransfer) -> u64 {
        // Feeds absent from the rate table (standalone `lsw serve`
        // against an unknown trace) fall back to the transfer's own byte
        // rate, which still covers its budget within its duration.
        match self.rates.get(usize::from(t.object.0)) {
            Some(&r) if r > 0 => r,
            _ => t.byte_rate().max(1),
        }
    }

    /// The tap, locked for one update.
    fn tap(&self) -> MutexGuard<'_, MultiTap> {
        // lsw::allow(L008): a tap update is a short bounded critical section (no I/O under the lock)
        self.tap.lock()
    }

    /// Logs one finished (or refused) transfer into the tap; `admitted`
    /// says whether it was admitted there (see [`MultiTap::admit`]).
    fn log_tap(&self, t: &ScheduledTransfer, status: u16, admitted: bool) {
        let mut e = t.to_entry();
        e.status = status;
        self.tap().log(0, &e, admitted);
    }

    /// Folds a connection's fresh backlog reading into its client's
    /// aggregate slot (by delta against what this connection last
    /// contributed) and returns the client's total backlog in bytes.
    fn account_backlog(&self, t: &ScheduledTransfer, accounted: &mut u64, backlog: u64) -> u64 {
        let slot = &self.client_backlog[client_slot(t.client)];
        if backlog >= *accounted {
            slot.fetch_add(backlog - *accounted, Ordering::Relaxed);
        } else {
            slot.fetch_sub(*accounted - backlog, Ordering::Relaxed);
        }
        *accounted = backlog;
        slot.load(Ordering::Relaxed)
    }

    /// Returns a finished connection's outstanding contribution to its
    /// client's backlog slot. Exact: each connection's adds and subs net
    /// to `accounted`, so slot totals never underflow across clients.
    fn release_backlog(&self, t: &ScheduledTransfer, accounted: u64) {
        self.client_backlog[client_slot(t.client)].fetch_sub(accounted, Ordering::Relaxed);
    }
}

enum ConnState {
    Request { buf: Vec<u8> },
    Streaming(Box<Streaming>),
}

/// A paced subscriber: owed `rate × (now − join)` bytes, capped by its
/// budget.
struct Streaming {
    x: Transfer,
    rate: u64,
    join: Nanos,
    /// Backlog bytes this connection currently contributes to its
    /// client's aggregate slot (see [`Shared::account_backlog`]).
    accounted: u64,
}

/// The running serving harness.
pub struct ReplayServer {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept_handle: std::thread::JoinHandle<()>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    /// One per worker shard.
    wakers: Vec<Arc<Waker>>,
    registry: Arc<Registry>,
    drain: Nanos,
}

impl ReplayServer {
    /// Binds, spawns the accept thread and worker shards, and returns.
    ///
    /// `rates` is the per-object encoded-rate table (usually
    /// `Schedule::object_rates`); `clock` is shared with the driver so
    /// both sides agree on replay time.
    pub fn start(
        cfg: ServerConfig,
        rates: &[(lsw_trace::ids::ObjectId, u64)],
        clock: Arc<WallClock>,
        registry: Arc<Registry>,
    ) -> io::Result<Self> {
        #[allow(clippy::disallowed_methods)]
        // lsw::allow(L002): the serving harness binds a real socket by design
        let listener = TcpListener::bind(&cfg.listen)?;
        // A replay connect storm (thousands of subscribers joining at
        // one trace instant) overflows std's default backlog of 128 and
        // turns into seconds-long SYN-retransmit stalls; widen to the
        // kernel cap. Best-effort: a refusing kernel leaves 128 in place.
        let _ = mio::widen_listen_backlog(&listener, 4096);
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let mut rate_table = Vec::new();
        for &(obj, rate) in rates {
            let idx = usize::from(obj.0);
            if rate_table.len() <= idx {
                rate_table.resize(idx + 1, 0u64);
            }
            rate_table[idx] = rate;
        }

        let shared = Arc::new(Shared {
            gate: Gate::new(cfg.admission, cfg.compression, &registry, "srv"),
            send_buffer: cfg.send_buffer,
            slow_policy: cfg.slow_policy,
            rates: rate_table,
            tap: Mutex::new(MultiTap::new(cfg.stream.clone(), 0)),
            client_backlog: (0..CLIENT_BACKLOG_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            clock,
            metrics: ServerMetrics::register(&registry),
            shutdown: AtomicBool::new(false),
            force: AtomicBool::new(false),
        });

        let workers = cfg.workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut wakers = Vec::new();
        let mut worker_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            let shared = Arc::clone(&shared);
            let (reactor, waker) = Reactor::new(cfg.wheel_resolution)?;
            wakers.push(waker);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("lsw-reactor-{w}"))
                    .spawn(move || reactor_loop(&shared, &rx, reactor))?,
            );
        }

        let accept_shared = Arc::clone(&shared);
        let accept_wakers = wakers.clone();
        let accept_handle = std::thread::Builder::new()
            .name("lsw-accept".to_owned())
            .spawn(move || {
                accept_loop(&listener, &accept_shared, &senders, &accept_wakers);
                // Dropping the senders here disconnects every worker's
                // channel, which is their cue that no more work is coming.
            })?;

        Ok(Self {
            shared,
            addr,
            accept_handle,
            worker_handles,
            wakers,
            registry,
            drain: cfg.drain,
        })
    }

    /// The actually-bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    fn wake_workers(&self) {
        for w in &self.wakers {
            let _ = w.wake();
        }
    }

    /// Stops accepting, waits up to the drain budget for in-flight
    /// transfers, truncates survivors, joins every thread, and finalizes
    /// the tap.
    pub fn finish(self) -> ServeOutcome {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wake_workers();
        let deadline = self.shared.clock.now().saturating_add(self.drain);
        while self.shared.gate.active.get() > 0 && self.shared.clock.now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        self.shared.force.store(true, Ordering::SeqCst);
        self.wake_workers();
        join_or_propagate(self.accept_handle);
        for h in self.worker_handles {
            join_or_propagate(h);
        }
        let admission = self.shared.gate.admission.lock().stats().clone();
        let tap = std::mem::replace(
            &mut *self.shared.tap.lock(),
            MultiTap::new(StreamConfig::default(), 0),
        );
        ServeOutcome {
            tap: tap.finalize().1,
            admission,
            metrics: self.registry.snapshot(),
        }
    }
}

fn join_or_propagate(h: std::thread::JoinHandle<()>) {
    if let Err(payload) = h.join() {
        std::panic::resume_unwind(payload);
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Shared,
    senders: &[mpsc::Sender<TcpStream>],
    wakers: &[Arc<Waker>],
) {
    let mut next = 0usize;
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue; // peer already gone
                }
                shared.gate.conns.inc();
                shared.gate.active.inc();
                let w = next % senders.len();
                if senders[w].send(stream).is_err() {
                    shared.gate.active.dec();
                    return; // worker gone; shutting down
                }
                // Kick the shard's reactor out of epoll_wait to adopt
                // the connection.
                let _ = wakers[w].wake();
                next += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
        }
    }
}

/// One reactor shard: adopts connections from `rx`, then serves on
/// readiness events and connection deadlines only. Exits once the
/// intake channel is gone and every connection is finished (or on
/// force-drain).
fn reactor_loop(shared: &Shared, rx: &mpsc::Receiver<TcpStream>, mut r: Reactor) {
    let mut conns: Slab<Conn<ConnState>> = Slab::new();
    let mut ready: Vec<(Key, bool)> = Vec::new();
    let mut due: Vec<(Nanos, Key)> = Vec::new();
    let mut disconnected = false;
    loop {
        // Adopt queued connections and register them for readiness.
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    let state = ConnState::Request { buf: Vec::new() };
                    if r.adopt(&mut conns, stream, state).is_none() {
                        shared.gate.active.dec();
                        shared.gate.bad_requests.inc();
                    }
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }

        if shared.force.load(Ordering::Relaxed) {
            let keys: Vec<Key> = conns.iter_keys().collect();
            let now = shared.clock.now();
            for key in keys {
                if let Some(conn) = conns.remove(key) {
                    match &conn.state {
                        ConnState::Streaming(s) => {
                            close(shared, s, now, STATUS_TRUNCATED, &shared.gate.truncated);
                        }
                        ConnState::Request { .. } => shared.gate.bad_requests.inc(),
                    }
                    shared.gate.active.dec();
                }
            }
        }
        let draining = disconnected || shared.shutdown.load(Ordering::Relaxed);
        if draining && conns.is_empty() {
            return;
        }

        let Ok(now) = r.wait(&shared.clock, &mut ready, &mut due, |key| {
            armed(&conns, key)
        }) else {
            // epoll on our own fds only fails if the process is out of
            // resources; treat it as a drain signal rather than spin.
            shared.force.store(true, Ordering::Relaxed);
            continue;
        };
        for (deadline, key) in due.drain(..) {
            shared
                .metrics
                .pacing_error_ns
                .record(now.abs_diff(deadline));
            step_conn(shared, &mut conns, &mut r, key, now, false);
        }
        for (key, readable) in ready.drain(..) {
            step_conn(shared, &mut conns, &mut r, key, now, readable);
        }
    }
}

/// The seq of the deadline the connection at `key` has armed, if any.
fn armed(conns: &Slab<Conn<ConnState>>, key: Key) -> Option<u64> {
    match &conns.get(key)?.state {
        ConnState::Streaming(s) => s.x.timer,
        ConnState::Request { .. } => None,
    }
}

/// Advances one connection on a readiness event or deadline, then
/// reconciles its slab slot and EPOLLOUT registration. Stale keys (a
/// timer outliving its connection) are ignored.
fn step_conn(
    shared: &Shared,
    conns: &mut Slab<Conn<ConnState>>,
    r: &mut Reactor,
    key: Key,
    now: Nanos,
    readable: bool,
) {
    let Some(conn) = conns.get_mut(key) else {
        return;
    };
    if !advance_reactor(shared, conn, r, key, now, readable) {
        r.reconcile(conn, key);
        return;
    }
    shared.gate.active.dec();
    // Dropping the stream closes the fd, which also removes it from the
    // epoll set; its heap residue (if any) pops into a stale generation
    // and fires nothing.
    conns.remove(key);
}

/// Advances one connection on readiness or deadline: reads its request
/// line and runs the admission handshake, then paces payload out.
/// Returns true when the connection is finished.
fn advance_reactor(
    shared: &Shared,
    conn: &mut Conn<ConnState>,
    r: &mut Reactor,
    key: Key,
    now: Nanos,
    readable: bool,
) -> bool {
    let ConnState::Request { buf } = &mut conn.state else {
        return stream_step(shared, conn, r, key, now, readable);
    };
    let t = match read_request(&mut conn.stream, buf) {
        Request::Partial => return false,
        Request::Bad => {
            shared.gate.bad_requests.inc();
            return true;
        }
        Request::Parsed(t) => t,
    };
    match shared.gate.admit(&mut conn.stream, &t, now) {
        Ok(x) => {
            shared.tap().admit(t.start);
            conn.state = ConnState::Streaming(Box::new(Streaming {
                rate: shared.rate_for(&t),
                join: now,
                accounted: 0,
                x,
            }));
            // Seed the first pacing deadline.
            stream_step(shared, conn, r, key, now, false)
        }
        Err(status) => {
            shared.log_tap(&t, status, false);
            true
        }
    }
}

/// One pacing step of a streaming connection: catch the peer vanishing,
/// write the current entitlement from the arena, account backlog, and
/// arm whatever wakes this connection next. Returns true when the
/// connection is finished.
fn stream_step(
    shared: &Shared,
    conn: &mut Conn<ConnState>,
    r: &mut Reactor,
    key: Key,
    now: Nanos,
    readable: bool,
) -> bool {
    let ConnState::Streaming(s) = &mut conn.state else {
        return false;
    };
    s.x.disarm();
    if readable && peer_gone(&mut conn.stream) {
        return close(shared, s, now, STATUS_TRUNCATED, &shared.gate.truncated);
    }
    // Broadcast entitlement since join, capped by the budget.
    let pos = proto::paced_position(s.rate, now.saturating_sub(s.join));
    let entitled = pos.min(s.x.budget);
    conn.blocked = false;
    while s.x.sent < entitled {
        match write_arena(&mut conn.stream, entitled - s.x.sent, &mut r.slices) {
            Ok(0) => {
                conn.blocked = true;
                break;
            }
            Ok(w) => {
                s.x.sent += w;
                shared.metrics.bytes_sent.add(w);
            }
            Err(_) => {
                // Peer vanished mid-stream.
                return close(shared, s, now, STATUS_TRUNCATED, &shared.gate.truncated);
            }
        }
    }
    let backlog = entitled - s.x.sent;
    shared.metrics.backlog.record(backlog);
    // The budget is enforced on the client's *aggregate* backlog in
    // bytes: several connections to large objects draw from one
    // budget, not one each.
    let client_total = shared.account_backlog(&s.x.t, &mut s.accounted, backlog);
    if client_total > shared.send_buffer && shared.slow_policy == SlowClientPolicy::Drop {
        return close(
            shared,
            s,
            now,
            STATUS_TRUNCATED,
            &shared.metrics.slow_dropped,
        );
    }
    if s.x.sent == s.x.budget {
        if s.x.hold(now, r, key) {
            // Transfer complete: log in trace coordinates with the
            // original status, then close.
            return close(shared, s, now, s.x.t.status, &shared.gate.completed);
        }
        return false;
    }
    if conn.blocked {
        // EPOLLOUT resumes the write. Under the drop policy, also arm
        // the instant the client's aggregate backlog would trip the
        // bound, so a peer that never reads is dropped on schedule.
        if shared.slow_policy == SlowClientPolicy::Drop {
            let headroom = shared.send_buffer.saturating_sub(client_total);
            let trip = now.saturating_add(proto::pacing_deadline(s.rate, headroom + 1));
            s.x.arm(r, trip, key);
        }
        return false;
    }
    // Caught up: wake when the broadcast has produced the next chunk.
    let chunk = PACING_BURST.min(s.x.budget - s.x.sent);
    let deadline = s
        .join
        .saturating_add(proto::pacing_deadline(s.rate, s.x.sent + chunk));
    s.x.arm(r, deadline, key);
    false
}

/// Releases the admission slot and backlog share, logs the tap entry and
/// counts the outcome of a transfer that is ending (complete, truncated,
/// or force-drained). Returns true: the connection is finished.
fn close(shared: &Shared, s: &Streaming, now: Nanos, status: u16, count: &Counter) -> bool {
    shared.release_backlog(&s.x.t, s.accounted);
    shared.gate.release();
    shared.log_tap(&s.x.t, status, true);
    shared
        .metrics
        .transfer_wall_ms
        .record(now.saturating_sub(s.join) / 1_000_000);
    count.inc();
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(send_buffer: u64) -> Shared {
        Shared {
            gate: Gate::new(AdmissionPolicy::AcceptAll, 1.0, &Registry::new(), "srv"),
            send_buffer,
            slow_policy: SlowClientPolicy::Drop,
            rates: vec![0, 500],
            tap: Mutex::new(MultiTap::new(StreamConfig::default(), 0)),
            clock: Arc::new(WallClock::start()),
            metrics: ServerMetrics::register(&Registry::new()),
            shutdown: AtomicBool::new(false),
            force: AtomicBool::new(false),
            client_backlog: (0..CLIENT_BACKLOG_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    fn test_transfer(client: u32) -> ScheduledTransfer {
        ScheduledTransfer {
            start: 0,
            duration: 9,
            client: lsw_trace::ids::ClientId(client),
            ip: lsw_trace::ids::Ipv4Addr(1),
            as_id: lsw_trace::ids::AsId(1),
            country: lsw_trace::ids::CountryCode(*b"US"),
            object: lsw_trace::ids::ObjectId(1),
            camera: 0,
            bytes: 1000,
            avg_bandwidth: 1,
            status: 200,
        }
    }

    #[test]
    fn rate_fallback_covers_unknown_objects() {
        let shared = test_shared(0);
        let mut t = test_transfer(1);
        assert_eq!(shared.rate_for(&t), 500);
        t.object = lsw_trace::ids::ObjectId(0); // zero-rate table slot
        assert_eq!(shared.rate_for(&t), 100); // 1000 / (9 + 1)
        t.object = lsw_trace::ids::ObjectId(9); // beyond the table
        assert_eq!(shared.rate_for(&t), 100);
    }

    #[test]
    fn backlog_budget_aggregates_across_a_clients_connections() {
        let shared = test_shared(1000);
        let t = test_transfer(7);
        // Two concurrent connections from the same client: each backlog is
        // under the 1000-byte budget, but the aggregate is not.
        let (mut acc_a, mut acc_b) = (0u64, 0u64);
        let total_a = shared.account_backlog(&t, &mut acc_a, 600);
        assert_eq!(total_a, 600);
        let total_b = shared.account_backlog(&t, &mut acc_b, 600);
        assert!(total_b > shared.send_buffer, "aggregate exceeds budget");
        // Shrinking one connection's backlog is reflected in the total…
        let total_a = shared.account_backlog(&t, &mut acc_a, 100);
        assert_eq!(total_a, 700);
        // …and releasing both drains the slot back to zero.
        shared.release_backlog(&t, acc_a);
        shared.release_backlog(&t, acc_b);
        assert_eq!(
            shared.client_backlog[client_slot(t.client)].load(Ordering::Relaxed),
            0
        );
    }
}
