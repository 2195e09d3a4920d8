//! The relay node: one reactor thread that subscribes upstream and fans
//! each live object out to its assigned clients.
//!
//! A relay is a store-and-forward tier with nothing stored: it holds one
//! LSW1 *subscription* connection to the origin per live object it is
//! responsible for, counts the paced payload bytes into that object's
//! broadcast [`ring`](crate::ring), and re-serves its own clients over
//! the same LSW1 [lifecycle](lsw_replay::reactor) the origin's shards
//! run. What differs is what a client is owed: its entitlement is driven
//! by the ring's live edge (bytes that actually arrived from upstream),
//! not by a local clock, so the relay genuinely forwards the origin's
//! pacing instead of re-deriving it. Payload written to clients is
//! staged from the shared position-independent pattern arena, so
//! backlog memory is O(1) per connection regardless of lag.
//!
//! **Per-tier policy.** Each relay runs its own admission [`Gate`] and
//! its own [`SlowClientPolicy`]: under `Drop`, a
//! client the ring *laps* (its cursor fell out of the retention window)
//! is truncated; under `Backpressure`, the lapped range is re-served
//! from the arena — position-independent payload makes the skipped
//! bytes reproducible — and the client simply lags the broadcast.
//!
//! **Tap.** Client completions are logged in trace coordinates into the
//! cluster's shared [`MultiTap`], tier = relay index, so the run ends
//! with per-relay reports plus the edge-aggregated report the closed
//! loop diffs against the trace.
//!
//! **Subscription closure.** A feed whose upstream delivered its full
//! subscription wire budget is *complete*: a subscriber still short of
//! its own budget at feed end (ceiling rounding at the span edges, or a
//! join that raced the first chunks) is topped up from the arena — the
//! wire carried those bytes once, the relay just re-emits them. An
//! *incomplete* feed (the origin rejected the subscription or truncated
//! it in a drain) truncates its subscribers instead: the relay never
//! fabricates traffic the origin did not send, so origin-tier breakage
//! stays visible in the closed-loop diff.

use crate::ring::{Broadcast, Cursor, Poll as RingPoll};
use lsw_replay::clock::{Nanos, WallClock};
use lsw_replay::metrics::{Counter, LogHistogram, Registry};
use lsw_replay::proto::{self, Request, StatusLine};
use lsw_replay::reactor::{
    peer_gone, read_request, write_arena, Conn, Gate, Reactor, Transfer, LISTEN_TOKEN,
};
use lsw_replay::slab::{Key, Slab};
use lsw_replay::{SlowClientPolicy, STATUS_TRUNCATED};
use lsw_sim::server::{AdmissionPolicy, ServerStats};
use lsw_stream::MultiTap;
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::schedule::{Schedule, ScheduledTransfer};
use mio::unix::SourceFd;
use mio::{Interest, Waker};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Extra trace seconds a subscription outlives its last client's stop:
/// covers the `⌊t⌋+1` display rounding at both span edges so the feed
/// provably produces every subscriber's wire budget before it closes.
pub const SPAN_SLACK: u32 = 2;

/// Client-id base for relay subscription identities: far above any
/// trace player id, so the origin's backlog slots and its own tap keep
/// the relay tier distinguishable from real clients.
pub const RELAY_CLIENT_BASE: u32 = u32::MAX - 4096;

/// One relay's planned origin subscription for one live object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedPlan {
    /// The live object the subscription covers.
    pub object: ObjectId,
    /// Camera of the first routed transfer (cosmetic, kept on the wire).
    pub camera: u8,
    /// Earliest routed client start, trace seconds.
    pub span_start: u32,
    /// Subscription duration: latest routed client stop plus
    /// [`SPAN_SLACK`], minus `span_start`, trace seconds.
    pub span_duration: u32,
    /// The object's global encoded rate, trace bytes per second.
    pub rate: u64,
    /// Subscription byte budget: `rate × (span_duration + 1)`, so the
    /// wire rate the origin paces at is exactly `rate`.
    pub bytes: u64,
}

impl FeedPlan {
    /// The synthetic transfer a relay offers the origin for this feed.
    pub fn subscription(&self, relay: u32) -> ScheduledTransfer {
        ScheduledTransfer {
            start: self.span_start,
            duration: self.span_duration,
            client: ClientId(RELAY_CLIENT_BASE.saturating_add(relay)),
            ip: Ipv4Addr(0x0aff_0000_u32.saturating_add(relay)),
            as_id: AsId(u16::MAX - u16::try_from(relay % 256).unwrap_or(0)),
            country: CountryCode(*b"RL"),
            object: self.object,
            camera: self.camera,
            bytes: self.bytes,
            avg_bandwidth: u32::try_from(self.rate.saturating_mul(8)).unwrap_or(u32::MAX),
            status: 200,
        }
    }
}

/// Builds every relay's feed plans for a routed schedule: relay `r`
/// subscribes once per object any of its routed transfers wants,
/// spanning all of them. The rate is the object's *global* encoded rate
/// ([`Schedule::object_rates`]) — the same table the origin paces from —
/// so the subscription wire carries every routed client's bytes.
pub fn plan_feeds(schedule: &Schedule, topo: &crate::Topology) -> Vec<BTreeMap<u16, FeedPlan>> {
    let rates: BTreeMap<u16, u64> = schedule
        .object_rates()
        .iter()
        .map(|&(o, r)| (o.0, r))
        .collect();
    let relays = topo.relays.max(1) as usize;
    let mut plans: Vec<BTreeMap<u16, FeedPlan>> = (0..relays).map(|_| BTreeMap::new()).collect();
    for t in &schedule.transfers {
        let relay = (topo.route(t) as usize).min(relays - 1);
        let stop = t.stop().saturating_add(SPAN_SLACK);
        let rate = rates.get(&t.object.0).copied().unwrap_or(0).max(1);
        plans[relay]
            .entry(t.object.0)
            .and_modify(|p| {
                let end = (p.span_start + p.span_duration).max(stop);
                p.span_start = p.span_start.min(t.start);
                p.span_duration = end - p.span_start;
                p.bytes = p.rate * (u64::from(p.span_duration) + 1);
            })
            .or_insert_with(|| FeedPlan {
                object: t.object,
                camera: t.camera,
                span_start: t.start,
                span_duration: stop - t.start,
                rate,
                bytes: rate * (u64::from(stop - t.start) + 1),
            });
    }
    plans
}

/// Relay node configuration.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Origin server address to subscribe against.
    pub origin: SocketAddr,
    /// Time-compression factor (shared with the whole topology).
    pub compression: f64,
    /// Client-tier admission policy (per relay).
    pub admission: AdmissionPolicy,
    /// Client-tier slow-subscriber policy.
    pub slow_policy: SlowClientPolicy,
    /// Broadcast-ring retention per object, bytes: the lag bound at
    /// which `Drop` truncates a subscriber.
    pub ring_capacity: u64,
    /// Timing-wheel resolution, nanoseconds.
    pub wheel_resolution: Nanos,
    /// This relay's index: tier id in the shared tap, identity suffix
    /// in subscription requests.
    pub index: u32,
}

impl Default for RelayConfig {
    fn default() -> Self {
        Self {
            origin: SocketAddr::from(([127, 0, 0, 1], 0)),
            compression: 100.0,
            admission: AdmissionPolicy::AcceptAll,
            slow_policy: SlowClientPolicy::Drop,
            ring_capacity: 8 << 20,
            wheel_resolution: 1 << 17,
            index: 0,
        }
    }
}

/// The relay's own metrics, beside the [`Gate`]'s `edge.*` lifecycle
/// counters; every relay registers the same names in the shared
/// registry, so the counters aggregate across the tier.
struct EdgeMetrics {
    delivered_bytes: Arc<Counter>,
    upstream_bytes: Arc<Counter>,
    subscriptions: Arc<Counter>,
    upstream_busy: Arc<Counter>,
    laps: Arc<Counter>,
    ring_lag: Arc<LogHistogram>,
}

impl EdgeMetrics {
    fn register(r: &Registry) -> Self {
        Self {
            delivered_bytes: r.counter("edge.delivered_bytes"),
            upstream_bytes: r.counter("edge.upstream_bytes"),
            subscriptions: r.counter("edge.subscriptions"),
            upstream_busy: r.counter("edge.upstream_busy"),
            laps: r.counter("edge.laps"),
            ring_lag: r.histogram("edge.ring_lag_bytes"),
        }
    }
}

struct RelayShared {
    cfg: RelayConfig,
    /// Planned subscriptions, by object id.
    plans: BTreeMap<u16, FeedPlan>,
    /// Client-tier admission and the `edge.*` lifecycle counters.
    gate: Gate,
    tap: Arc<Mutex<MultiTap>>,
    clock: Arc<WallClock>,
    metrics: EdgeMetrics,
    /// Client connections currently open on this relay; the cluster's
    /// drain waits on this per relay (`edge.active` aggregates tiers).
    active: AtomicU64,
    /// Stop accepting; finish in-flight clients.
    shutdown: AtomicBool,
    /// Truncate whatever is still in flight and exit.
    force: AtomicBool,
}

impl RelayShared {
    /// Logs one finished (or refused) client transfer into this relay's
    /// tier of the shared tap.
    fn log_tap(&self, t: &ScheduledTransfer, status: u16) {
        let mut e = t.to_entry();
        e.status = status;
        // lsw::allow(L008): tap ingest is a short bounded critical section with no I/O under the lock
        self.tap.lock().ingest(self.cfg.index as usize, &e);
    }

    /// Releases the admission slot, logs the tap entry and counts the
    /// outcome of a client transfer that is ending (complete or
    /// truncated). Returns true: the connection is finished.
    fn close(&self, s: &CStream, status: u16, count: &Counter) -> bool {
        self.gate.release();
        self.log_tap(&s.x.t, status);
        count.inc();
        true
    }
}

/// One object's distribution state on a relay.
struct Feed {
    ring: Broadcast,
    /// Client conn keys fanned out from this ring; compacted on every
    /// upstream push (keys of finished conns are dropped).
    subscribers: Vec<Key>,
    /// Expected upstream wire budget, known once the `OK` line arrives.
    expected: Option<u64>,
    /// Wire payload bytes received from upstream so far.
    received: u64,
    /// Set at upstream EOF iff `received >= expected`: subscribers may
    /// be topped up from the arena (see module docs).
    complete: bool,
}

/// A streaming client: owed what its ring cursor can read, plus arena
/// debt.
struct CStream {
    x: Transfer,
    object: u16,
    cursor: Cursor,
    /// Bytes entitled but not (or no longer) in the ring — Backpressure
    /// lap debt or the complete-feed top-up — served from the arena.
    behind: u64,
}

enum ConnState {
    /// A client that has not finished its request line yet.
    Request { buf: Vec<u8> },
    /// A client being served from a ring.
    Client(Box<CStream>),
    /// Upstream subscription: reading the origin's status line into
    /// `header` until the feed learns its expected budget, then counting
    /// paced payload into the ring.
    Upstream { object: u16, header: Vec<u8> },
}

/// A running relay node.
pub struct Relay {
    shared: Arc<RelayShared>,
    addr: SocketAddr,
    handle: std::thread::JoinHandle<()>,
    waker: Arc<Waker>,
}

impl Relay {
    /// Binds the relay's client listener, spawns its reactor thread, and
    /// returns. `plans` are this relay's feeds (see [`plan_feeds`]);
    /// `tap` is the cluster-shared multi-tier characterization tap.
    pub fn start(
        cfg: RelayConfig,
        plans: BTreeMap<u16, FeedPlan>,
        tap: Arc<Mutex<MultiTap>>,
        clock: Arc<WallClock>,
        registry: &Registry,
    ) -> io::Result<Self> {
        #[allow(clippy::disallowed_methods)]
        // lsw::allow(L002): the relay binds a real client listener by design
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let _ = mio::widen_listen_backlog(&listener, 4096);
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (reactor, waker) = Reactor::new(cfg.wheel_resolution)?;
        reactor.poll.registry().register(
            &mut SourceFd(&listener.as_raw_fd()),
            LISTEN_TOKEN,
            Interest::READABLE,
        )?;

        let shared = Arc::new(RelayShared {
            gate: Gate::new(cfg.admission, cfg.compression, registry, "edge"),
            plans,
            tap,
            clock,
            metrics: EdgeMetrics::register(registry),
            active: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            force: AtomicBool::new(false),
            cfg,
        });

        let thread_shared = Arc::clone(&shared);
        let index = shared.cfg.index;
        let handle = std::thread::Builder::new()
            .name(format!("lsw-relay-{index}"))
            .spawn(move || relay_loop(&thread_shared, &listener, reactor))?;
        Ok(Self {
            shared,
            addr,
            handle,
            waker,
        })
    }

    /// The relay's client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and begins the drain (in-flight clients finish).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
    }

    /// Client connections currently in flight on this relay.
    pub fn active(&self) -> u64 {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Force-truncates survivors, joins the reactor thread, and returns
    /// this relay's admission accounting. Call [`Relay::shutdown`] first
    /// and wait for [`Relay::active`] to reach zero for a clean drain.
    pub fn finish(self) -> ServerStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.force.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Err(payload) = self.handle.join() {
            std::panic::resume_unwind(payload);
        }
        self.shared.gate.admission.lock().stats().clone()
    }
}

/// The relay reactor: accepts clients, subscribes upstream on first
/// demand per object, fans ring bytes out on readiness, and paces
/// nothing itself — upstream arrival *is* the pacing signal, so the
/// wheel holds only display-duration hold deadlines.
fn relay_loop(shared: &RelayShared, listener: &TcpListener, mut r: Reactor) {
    let mut conns: Slab<Conn<ConnState>> = Slab::new();
    let mut feeds: BTreeMap<u16, Feed> = BTreeMap::new();
    let mut ready: Vec<(Key, bool)> = Vec::new();
    let mut due: Vec<(Nanos, Key)> = Vec::new();
    let mut scratch = vec![0u8; 256 * 1024];
    loop {
        if shared.force.load(Ordering::Relaxed) {
            let keys: Vec<Key> = conns.iter_keys().collect();
            for key in keys {
                let Some(conn) = conns.remove(key) else {
                    continue;
                };
                match &conn.state {
                    ConnState::Client(s) => {
                        shared.close(s, STATUS_TRUNCATED, &shared.gate.truncated);
                    }
                    ConnState::Request { .. } => shared.gate.bad_requests.inc(),
                    // Dropping an upstream closes the subscription; the
                    // origin logs it truncated on its own tier.
                    ConnState::Upstream { .. } => continue,
                }
                client_done(shared);
            }
            return;
        }
        let draining = shared.shutdown.load(Ordering::Relaxed);
        if draining && shared.active.load(Ordering::Relaxed) == 0 {
            // Remaining upstream conns drop here: the relay unsubscribes
            // once it has no viewers left to serve.
            return;
        }

        // Accept whatever intake is queued (stops during the drain).
        if !draining {
            while let Ok((stream, _)) = listener.accept() {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                shared.gate.conns.inc();
                shared.gate.active.inc();
                shared.active.fetch_add(1, Ordering::Relaxed);
                let state = ConnState::Request { buf: Vec::new() };
                if r.adopt(&mut conns, stream, state).is_none() {
                    client_done(shared);
                    shared.gate.bad_requests.inc();
                }
            }
        }

        if r.wait(&shared.clock, &mut ready, &mut due).is_err() {
            shared.force.store(true, Ordering::Relaxed);
            continue;
        }
        let wakes = due.drain(..).map(|(_, key)| (key, false));
        for (key, readable) in wakes.chain(ready.drain(..)) {
            step_conn(
                shared,
                &mut r,
                &mut conns,
                &mut feeds,
                key,
                readable,
                &mut scratch,
            );
        }
    }
}

/// Accounts one client connection leaving the relay.
fn client_done(shared: &RelayShared) {
    shared.gate.active.dec();
    shared.active.fetch_sub(1, Ordering::Relaxed);
}

/// Advances one connection, settles its slab slot and EPOLLOUT
/// registration, and — when upstream progress advanced a ring — steps
/// that feed's subscribers.
fn step_conn(
    shared: &RelayShared,
    r: &mut Reactor,
    conns: &mut Slab<Conn<ConnState>>,
    feeds: &mut BTreeMap<u16, Feed>,
    key: Key,
    readable: bool,
    scratch: &mut [u8],
) {
    let Some(conn) = conns.get_mut(key) else {
        return;
    };
    let client = !matches!(conn.state, ConnState::Upstream { .. });
    let mut pushed: Option<u16> = None;
    let done = if client {
        advance_client(shared, r, conns, feeds, key, readable)
    } else {
        advance_upstream(shared, conn, feeds, scratch, &mut pushed)
    };
    settle(shared, r, conns, key, done, client);
    if let Some(object) = pushed {
        step_subscribers(shared, r, conns, feeds, object);
    }
}

/// Removes a finished connection (accounting for client slots) or
/// reconciles its EPOLLOUT interest with its blocked state.
fn settle(
    shared: &RelayShared,
    r: &Reactor,
    conns: &mut Slab<Conn<ConnState>>,
    key: Key,
    done: bool,
    was_client: bool,
) {
    if done {
        if conns.remove(key).is_some() && was_client {
            client_done(shared);
        }
    } else if let Some(conn) = conns.get_mut(key) {
        r.reconcile(conn, key);
    }
}

/// Steps every subscriber of `object` after its ring advanced (new
/// bytes, or close), compacting keys of connections that finished.
fn step_subscribers(
    shared: &RelayShared,
    r: &mut Reactor,
    conns: &mut Slab<Conn<ConnState>>,
    feeds: &mut BTreeMap<u16, Feed>,
    object: u16,
) {
    let subs = match feeds.get_mut(&object) {
        Some(feed) => std::mem::take(&mut feed.subscribers),
        None => return,
    };
    let mut kept = Vec::with_capacity(subs.len());
    for key in subs {
        let still_here = match conns.get_mut(key) {
            Some(c) => matches!(&c.state, ConnState::Client(s) if s.object == object),
            None => false,
        };
        if !still_here {
            continue;
        }
        let done = advance_client(shared, r, conns, feeds, key, false);
        settle(shared, r, conns, key, done, true);
        if !done {
            kept.push(key);
        }
    }
    if let Some(feed) = feeds.get_mut(&object) {
        // New subscribers may have joined while stepping; keep both.
        feed.subscribers.extend(kept);
    }
}

/// Advances a client connection (request parse and admission, then
/// ring-driven serving); returns true when its slot can be reclaimed.
fn advance_client(
    shared: &RelayShared,
    r: &mut Reactor,
    conns: &mut Slab<Conn<ConnState>>,
    feeds: &mut BTreeMap<u16, Feed>,
    key: Key,
    readable: bool,
) -> bool {
    let Some(conn) = conns.get_mut(key) else {
        return false;
    };
    let t = match &mut conn.state {
        ConnState::Request { buf } => match read_request(&mut conn.stream, buf) {
            Request::Partial => return false,
            Request::Bad => {
                shared.gate.bad_requests.inc();
                return true;
            }
            Request::Parsed(t) => t,
        },
        ConnState::Client(s) => {
            if readable && peer_gone(&mut conn.stream) {
                return shared.close(s, STATUS_TRUNCATED, &shared.gate.truncated);
            }
            return serve_client(shared, r, conn, feeds, key);
        }
        ConnState::Upstream { .. } => return false,
    };
    let x = match shared.gate.admit(&mut conn.stream, &t, shared.clock.now()) {
        Ok(x) => x,
        Err(status) => {
            shared.log_tap(&t, status);
            return true;
        }
    };
    // Ensure the feed (subscribing upstream on first demand) and join
    // its ring at the live edge.
    let object = t.object.0;
    ensure_feed(shared, r, conns, feeds, object, &t);
    let cursor = match feeds.get_mut(&object) {
        Some(feed) => {
            // lsw::allow(L009): one key per admitted client, compacted as subscribers finish
            feed.subscribers.push(key);
            feed.ring.join()
        }
        // Unreachable: ensure_feed always inserts the feed.
        None => Cursor::default(),
    };
    let Some(conn) = conns.get_mut(key) else {
        return false;
    };
    conn.state = ConnState::Client(Box::new(CStream {
        x,
        object,
        cursor,
        behind: 0,
    }));
    // A joiner on an already-ended feed is settled immediately.
    serve_client(shared, r, conn, feeds, key)
}

/// Lazily creates the feed for `object`, opening the origin
/// subscription. Any connect/request failure leaves the feed closed and
/// incomplete, so its subscribers truncate honestly.
fn ensure_feed(
    shared: &RelayShared,
    r: &Reactor,
    conns: &mut Slab<Conn<ConnState>>,
    feeds: &mut BTreeMap<u16, Feed>,
    object: u16,
    first: &ScheduledTransfer,
) {
    if feeds.contains_key(&object) {
        return;
    }
    let mut feed = Feed {
        ring: Broadcast::new(shared.cfg.ring_capacity),
        subscribers: Vec::new(),
        expected: None,
        received: 0,
        complete: false,
    };
    // Planned span when the cluster routed this object here; a client
    // the plan does not know (standalone relay) subscribes for exactly
    // its own transfer plus slack.
    let sub = match shared.plans.get(&object) {
        Some(plan) => plan.subscription(shared.cfg.index),
        None => {
            let rate = first.byte_rate().max(1);
            FeedPlan {
                object: first.object,
                camera: first.camera,
                span_start: first.start,
                span_duration: first.duration.saturating_add(SPAN_SLACK),
                rate,
                bytes: rate * (u64::from(first.duration.saturating_add(SPAN_SLACK)) + 1),
            }
            .subscription(shared.cfg.index)
        }
    };
    shared.metrics.subscriptions.inc();
    let state = ConnState::Upstream {
        object,
        header: Vec::new(),
    };
    let opened = open_upstream(shared.cfg.origin, &sub)
        .ok()
        .and_then(|stream| r.adopt(conns, stream, state));
    if opened.is_none() {
        // Origin unreachable: closed + incomplete from birth.
        feed.ring.close();
    }
    feeds.insert(object, feed);
}

/// Opens the origin subscription connection and sends its request line.
fn open_upstream(origin: SocketAddr, sub: &ScheduledTransfer) -> io::Result<TcpStream> {
    #[allow(clippy::disallowed_methods)]
    // lsw::allow(L002): the relay opens a real upstream socket by design
    let mut stream = TcpStream::connect(origin)?;
    stream.set_nodelay(true)?;
    let mut line = proto::encode_request(sub);
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Serves one streaming client from its ring: writes whatever the ring
/// (plus arena debt) entitles it to, applies the slow-client policy on
/// laps, and finishes when the budget is met and the hold has elapsed.
fn serve_client(
    shared: &RelayShared,
    r: &mut Reactor,
    conn: &mut Conn<ConnState>,
    feeds: &BTreeMap<u16, Feed>,
    key: Key,
) -> bool {
    let ConnState::Client(s) = &mut conn.state else {
        return false;
    };
    s.x.disarm(&mut r.wheel);
    let now = shared.clock.now();
    let feed = feeds.get(&s.object);
    conn.blocked = false;
    loop {
        let remaining = s.x.budget - s.x.sent;
        if remaining == 0 {
            break;
        }
        // Arena debt first (lap backfill / feed top-up), then the ring.
        let want = if s.behind > 0 {
            s.behind.min(remaining)
        } else {
            let Some(feed) = feed else {
                // No feed at all — treat as an incomplete ended feed.
                return shared.close(s, STATUS_TRUNCATED, &shared.gate.truncated);
            };
            // lsw::allow(L008): Broadcast::poll is a non-blocking cursor read, not an epoll wait.
            match feed.ring.poll(&mut s.cursor, remaining) {
                RingPoll::Ready { len, .. } => len,
                RingPoll::Pending => break,
                RingPoll::End => {
                    if feed.complete {
                        // Rounding closure: the wire carried these bytes
                        // once; re-emit the short tail from the arena.
                        s.behind = remaining;
                        continue;
                    }
                    return shared.close(s, STATUS_TRUNCATED, &shared.gate.truncated);
                }
                RingPoll::Lapped { skipped, .. } => {
                    shared.metrics.laps.inc();
                    match shared.cfg.slow_policy {
                        SlowClientPolicy::Drop => {
                            return shared.close(s, STATUS_TRUNCATED, &shared.gate.truncated);
                        }
                        SlowClientPolicy::Backpressure => {
                            s.behind = skipped.min(remaining);
                            continue;
                        }
                    }
                }
            }
        };
        let from_behind = s.behind > 0;
        match write_arena(&mut conn.stream, want, &mut r.slices) {
            Ok(0) => {
                conn.blocked = true;
                break;
            }
            Ok(w) => {
                s.x.sent += w;
                shared.metrics.delivered_bytes.add(w);
                if from_behind {
                    s.behind -= w;
                } else if let Some(feed) = feed {
                    feed.ring.commit(&mut s.cursor, w);
                }
            }
            Err(_) => {
                return shared.close(s, STATUS_TRUNCATED, &shared.gate.truncated);
            }
        }
    }
    if let Some(feed) = feed {
        shared.metrics.ring_lag.record(feed.ring.lag(&s.cursor));
    }
    if s.x.sent == s.x.budget && s.x.hold(now, &mut r.wheel, key) {
        return shared.close(s, s.x.t.status, &shared.gate.completed);
    }
    false
}

/// Advances an upstream subscription connection: parses the origin's
/// status line, then counts paced payload bytes into the feed's ring.
/// Sets `pushed` when the ring advanced (bytes or close) so the caller
/// steps the feed's subscribers.
fn advance_upstream(
    shared: &RelayShared,
    conn: &mut Conn<ConnState>,
    feeds: &mut BTreeMap<u16, Feed>,
    scratch: &mut [u8],
    pushed: &mut Option<u16>,
) -> bool {
    let ConnState::Upstream { object, header } = &mut conn.state else {
        return false;
    };
    let object = *object;
    loop {
        let n = match conn.stream.read(scratch) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let Some(feed) = feeds.get_mut(&object) else {
            break;
        };
        let payload = match feed.expected {
            Some(_) => n as u64,
            None => match proto::status_line(header, &scratch[..n]) {
                StatusLine::Partial => continue,
                StatusLine::Ok { budget, payload } => {
                    feed.expected = Some(budget);
                    payload
                }
                // BUSY: the origin's admission refused the subscription.
                // Closed + incomplete — this relay's clients for the
                // object truncate.
                StatusLine::Busy => {
                    shared.metrics.upstream_busy.inc();
                    break;
                }
                StatusLine::Garbage => break,
            },
        };
        if payload > 0 {
            feed.ring.push(payload);
            feed.received += payload;
            shared.metrics.upstream_bytes.add(payload);
            *pushed = Some(object);
        }
    }
    // Upstream EOF or failure: close the ring, recording whether the
    // subscription delivered its full wire budget.
    if let Some(feed) = feeds.get_mut(&object) {
        feed.complete = feed.expected.is_some_and(|e| feed.received >= e);
        feed.ring.close();
        *pushed = Some(object);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use lsw_trace::schedule::Schedule;

    fn transfer(
        start: u32,
        duration: u32,
        client: u32,
        object: u16,
        bytes: u64,
    ) -> ScheduledTransfer {
        ScheduledTransfer {
            start,
            duration,
            client: ClientId(client),
            ip: Ipv4Addr(0x0a00_0000 + client),
            as_id: AsId(u16::try_from(client % 7).unwrap_or(0)),
            country: CountryCode(*b"br"),
            object: ObjectId(object),
            camera: 1,
            bytes,
            avg_bandwidth: 64_000,
            status: 200,
        }
    }

    fn schedule(mut transfers: Vec<ScheduledTransfer>) -> Schedule {
        transfers.sort_by_key(|t| t.start);
        Schedule {
            transfers,
            stats: Default::default(),
        }
    }

    #[test]
    fn feed_plans_span_every_routed_client_and_pace_at_the_global_rate() {
        let s = schedule(vec![
            transfer(10, 100, 1, 7, 1_000_000),
            transfer(50, 300, 2, 7, 9_000_000),
            transfer(400, 50, 3, 7, 500_000),
        ]);
        let topo: Topology = "origin:1".parse().expect("topology");
        let plans = plan_feeds(&s, &topo);
        assert_eq!(plans.len(), 1);
        let plan = plans[0].get(&7).expect("object 7 planned");
        assert_eq!(plan.span_start, 10);
        // Latest stop is 400 + 50 = 450, plus slack.
        assert_eq!(plan.span_start + plan.span_duration, 450 + SPAN_SLACK);
        let global_rate = s
            .object_rates()
            .iter()
            .find(|(o, _)| o.0 == 7)
            .map(|&(_, r)| r)
            .expect("rate");
        assert_eq!(plan.rate, global_rate);
        // The plan's synthetic transfer paces at exactly the global rate.
        let sub = plan.subscription(0);
        assert_eq!(sub.byte_rate(), global_rate);
        // And its budget covers every routed client's whole transfer.
        for t in &s.transfers {
            assert!(plan.bytes >= t.bytes, "subscription covers {}", t.client.0);
        }
    }

    #[test]
    fn routed_plans_cover_every_transfer_on_its_own_relay() {
        let mut transfers = Vec::new();
        for i in 0..200u32 {
            transfers.push(transfer(
                i,
                60,
                i,
                u16::try_from(i % 23).unwrap_or(0),
                100_000,
            ));
        }
        let s = schedule(transfers);
        let topo: Topology = "origin:4".parse().expect("topology");
        let plans = plan_feeds(&s, &topo);
        assert_eq!(plans.len(), 4);
        for t in &s.transfers {
            let relay = topo.route(t) as usize;
            assert!(plans[relay].contains_key(&t.object.0));
        }
    }

    #[test]
    fn relay_identity_is_disjoint_from_trace_clients_and_round_trips() {
        let plan = FeedPlan {
            object: ObjectId(3),
            camera: 1,
            span_start: 0,
            span_duration: 10,
            rate: 1000,
            bytes: 11_000,
        };
        let sub = plan.subscription(5);
        assert!(sub.client.0 >= RELAY_CLIENT_BASE);
        assert_eq!(&sub.country.0, b"RL");
        assert_eq!(sub.status, 200);
        let line = proto::encode_request(&sub);
        let back = proto::parse_request(&line).expect("parse");
        assert_eq!(back, sub);
    }
}
