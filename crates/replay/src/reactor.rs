//! The LSW1 connection lifecycle, shared by both serving nodes: the
//! origin's worker shards ([`server`](crate::server)) and the edge relay.
//!
//! Each reactor thread owns a [`Reactor`] — epoll set, a deadline heap
//! armed through a nanosecond `timerfd`, iovec staging — and a
//! generational [slab](crate::slab) of [`Conn`]s, so stale events and
//! timers resolve to nothing instead of to a recycled socket. Cost per
//! iteration: O((ready + expired) log pending). Every client connection
//! walks the same steps:
//!
//! 1. **Request.** [`read_request`] buffers the request line under the
//!    [`proto`] bound. A peer that closes first, overflows the bound or
//!    sends an unparsable line is a bad request.
//! 2. **Admission.** [`Gate::admit`] asks the node's [`MediaServer`] —
//!    the simulator's admission semantics — and answers the status line:
//!    `BUSY`, logged [`STATUS_REJECTED`], or `OK <wire budget>`. An `OK`
//!    the peer can no longer take releases the slot again and is logged
//!    [`STATUS_TRUNCATED`].
//! 3. **Streaming.** The node decides how many bytes the [`Transfer`] is
//!    owed — the one thing that differs between nodes — and
//!    [`write_arena`] moves them from the shared payload
//!    [arena](crate::payload) in vectored writes. [`peer_gone`] notices a
//!    subscriber hanging up, and [`Reactor::reconcile`] keeps EPOLLOUT
//!    registered exactly while a write is blocked.
//! 4. **Close.** Once the budget is written and the display duration has
//!    elapsed ([`Transfer::hold`]), the node logs the transfer into its
//!    tap and releases the slot ([`Gate::release`]).
//!
//! Nothing here calls back into a node: each node's loop calls these
//! steps and its own by name, so the call graph behind `cargo xtask
//! lint`'s L008 rule reaches every per-connection step of both nodes.
//!
//! **Deadlines.** A connection has at most one pending deadline, held as
//! the seq of its heap entry in [`Transfer::timer`]. A deadline quantizes
//! to tick `(deadline >> shift).max(now_tick + 1)` and fires in `(tick,
//! insertion seq)` order with its original deadline (the pacing-error
//! histogram needs it). Re-arming leaves the old entry behind; it fires
//! nothing when it pops, and stale heads are dropped before the timerfd
//! is armed, so the sleep bound is the exact next tick.

use crate::clock::{trace_to_nanos, Nanos, WallClock};
use crate::metrics::{Counter, Gauge, Registry};
use crate::payload::{self, MAX_SLICES};
use crate::proto::{self, Request};
use crate::slab::{Key, Slab};
use crate::{STATUS_REJECTED, STATUS_TRUNCATED};
use lsw_sim::server::{AdmissionPolicy, MediaServer};
use lsw_trace::schedule::ScheduledTransfer;
use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;
use timerfd::{TimerFd, TimerState};

/// Token of the cross-thread shutdown/intake waker.
const WAKER_TOKEN: Token = Token(usize::MAX);
/// Token of the deadline timerfd.
const TIMER_TOKEN: Token = Token(usize::MAX - 1);
/// Token of a listening socket a reactor accepts from itself.
pub const LISTEN_TOKEN: Token = Token(usize::MAX - 2);

/// Pending connection deadlines, earliest `(tick, seq)` first.
struct Deadlines {
    heap: BinaryHeap<Reverse<(u64, u64, Nanos, Key)>>,
    /// Resolution exponent: one tick is `1 << shift` nanoseconds.
    shift: u32,
    /// Every entry at or before this tick has popped.
    now_tick: u64,
    /// Seq of the last entry queued.
    seq: u64,
}

impl Deadlines {
    /// Ticks of `resolution` nanoseconds rounded up to a power of two.
    fn new(resolution: Nanos) -> Self {
        Self {
            heap: BinaryHeap::new(),
            shift: resolution.max(1).next_power_of_two().trailing_zeros(),
            now_tick: 0,
            seq: 0,
        }
    }

    /// Queues `key` for `deadline` and returns the entry's seq.
    fn schedule(&mut self, deadline: Nanos, key: Key) -> u64 {
        self.seq += 1;
        let tick = (deadline >> self.shift).max(self.now_tick + 1);
        self.heap.push(Reverse((tick, self.seq, deadline, key)));
        self.seq
    }

    /// The earliest live entry's tick, after dropping stale heads:
    /// `armed(key)` is the seq `key`'s connection holds.
    fn next_tick(&mut self, armed: impl Fn(Key) -> Option<u64>) -> Option<u64> {
        while let Some(&Reverse((tick, seq, _, key))) = self.heap.peek() {
            if armed(key) == Some(seq) {
                return Some(tick);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops every entry whose tick is at or before `now`'s, appending the
    /// live ones to `fired` as `(deadline, key)` in `(tick, seq)` order.
    fn advance(
        &mut self,
        now: Nanos,
        armed: impl Fn(Key) -> Option<u64>,
        fired: &mut Vec<(Nanos, Key)>,
    ) {
        self.now_tick = self.now_tick.max(now >> self.shift);
        while self.next_tick(&armed).is_some_and(|t| t <= self.now_tick) {
            if let Some(Reverse((_, _, deadline, key))) = self.heap.pop() {
                fired.push((deadline, key));
            }
        }
    }
}

/// One reactor thread's event sources and write staging.
pub struct Reactor {
    /// The epoll set every connection is registered in.
    pub poll: Poll,
    /// Arena slices staged for the next vectored write.
    pub slices: [IoSlice<'static>; MAX_SLICES],
    deadlines: Deadlines,
    events: Events,
    timer: TimerFd,
    /// Deadline currently programmed into the timerfd, so an unchanged
    /// heap head does not cost a timerfd_settime(2) every iteration.
    armed: Option<Nanos>,
}

impl Reactor {
    /// Acquires the epoll set, the waker that interrupts it, and the
    /// deadline timerfd, with deadlines quantized to `resolution`
    /// nanoseconds (rounded up to a power of two).
    pub fn new(resolution: Nanos) -> io::Result<(Self, Arc<Waker>)> {
        // lsw::allow(L002): the reactor acquires its epoll endpoint by design
        let poll = Poll::new()?;
        // lsw::allow(L002): the shutdown/intake eventfd waker is a reactor endpoint by design
        let waker = Arc::new(Waker::new(poll.registry(), WAKER_TOKEN)?);
        // lsw::allow(L002): the deadline timerfd is a reactor endpoint by design
        let timer = TimerFd::new()?;
        poll.registry().register(
            &mut SourceFd(&timer.as_raw_fd()),
            TIMER_TOKEN,
            Interest::READABLE,
        )?;
        let reactor = Self {
            poll,
            slices: [IoSlice::new(&[]); MAX_SLICES],
            deadlines: Deadlines::new(resolution),
            events: Events::with_capacity(1024),
            timer,
            armed: None,
        };
        Ok((reactor, waker))
    }

    /// Inserts a connection and registers it for readability. Returns
    /// `None`, dropping the socket, when epoll refuses it.
    pub fn adopt<S>(&self, conns: &mut Slab<Conn<S>>, stream: TcpStream, state: S) -> Option<Key> {
        let key = conns.insert(Conn {
            stream,
            state,
            blocked: false,
            registered_write: false,
        });
        let conn = conns.get_mut(key)?;
        let token = Token(key.to_usize());
        if self
            .poll
            .registry()
            .register(&mut conn.stream, token, Interest::READABLE)
            .is_err()
        {
            conns.remove(key);
            return None;
        }
        Some(key)
    }

    /// Sleeps until a socket turns ready or the next deadline (the
    /// timerfd has the nanosecond precision epoll_wait's timeout lacks; a
    /// thread running behind harvests readiness without sleeping), then
    /// appends the ready connections — readable or errored — to `ready`
    /// and the expired `(deadline, key)` entries to `due`. `armed(key)`
    /// is the seq the connection at `key` holds in its
    /// [`Transfer::timer`]; an entry with any other seq fires nothing.
    /// Returns the wake time.
    pub fn wait(
        &mut self,
        clock: &WallClock,
        ready: &mut Vec<(Key, bool)>,
        due: &mut Vec<(Nanos, Key)>,
        armed: impl Fn(Key) -> Option<u64>,
    ) -> io::Result<Nanos> {
        let shift = self.deadlines.shift;
        let next = self.deadlines.next_tick(&armed).map(|t| t << shift);
        let timeout = if next.is_some_and(|d| d <= clock.now()) {
            Some(Duration::ZERO)
        } else {
            if next != self.armed {
                let _ = match next {
                    Some(d) => {
                        let wait = d.saturating_sub(clock.now()).max(1);
                        self.timer
                            .set_state(TimerState::Oneshot(Duration::from_nanos(wait)))
                    }
                    None => self.timer.set_state(TimerState::Disarmed),
                };
                self.armed = next;
            }
            None
        };
        // lsw::allow(L008): the reactor's single scheduling point; bounded by the armed timerfd and woken by the shutdown/intake waker
        self.poll.poll(&mut self.events, timeout)?;
        for event in self.events.iter() {
            match event.token() {
                TIMER_TOKEN => {
                    self.timer.read();
                }
                // Intake, shutdown and listener nudges: the node's loop
                // polls those sources at its top.
                WAKER_TOKEN | LISTEN_TOKEN => {}
                tok => ready.push((
                    Key::from_usize(tok.0),
                    event.is_readable() || event.is_error(),
                )),
            }
        }
        let now = clock.now();
        self.deadlines.advance(now, armed, due);
        Ok(now)
    }

    /// Registers EPOLLOUT exactly while the connection's last write
    /// blocked, edge-triggered: a step writes to `WouldBlock` on every
    /// wake, so one event per writability transition suffices and each
    /// syscall moves a drain-hysteresis worth of bytes, not slivers.
    /// (EPOLL_CTL_MOD re-checks readiness, so a drain racing this rearm
    /// still delivers an event.)
    pub fn reconcile<S>(&self, conn: &mut Conn<S>, key: Key) {
        if conn.blocked == conn.registered_write {
            return;
        }
        let interest = if conn.blocked {
            (Interest::READABLE | Interest::WRITABLE).edge()
        } else {
            Interest::READABLE
        };
        if self
            .poll
            .registry()
            .reregister(&mut conn.stream, Token(key.to_usize()), interest)
            .is_ok()
        {
            conn.registered_write = conn.blocked;
        }
    }
}

/// One socket in a reactor's slab; `S` is the node's own state machine.
pub struct Conn<S> {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Where the connection is in its node's lifecycle.
    pub state: S,
    /// Last write hit `WouldBlock`; waiting on EPOLLOUT.
    pub blocked: bool,
    /// EPOLLOUT currently registered for this socket.
    registered_write: bool,
}

/// Reads request bytes until the line is complete, the socket would
/// block ([`Request::Partial`]), or the peer closes or fails
/// ([`Request::Bad`]).
pub fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Request {
    let mut scratch = [0u8; 512];
    loop {
        match stream.read(&mut scratch) {
            Ok(0) => return Request::Bad,
            Ok(n) => match proto::request_line(buf, &scratch[..n]) {
                Request::Partial => {}
                done => return done,
            },
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Request::Partial,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Request::Bad,
        }
    }
}

/// Drains stray readable bytes on a streaming connection; returns true
/// when the peer has hung up (read EOF or hard error). Subscribers never
/// legitimately send after the request, so draining keeps
/// level-triggered epoll quiet.
pub fn peer_gone(stream: &mut TcpStream) -> bool {
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// Writes up to `want` arena bytes in one vectored call. `Ok(0)` means
/// the socket is full (wait for EPOLLOUT); an error means the peer is
/// gone.
pub fn write_arena(
    stream: &mut TcpStream,
    want: u64,
    slices: &mut [IoSlice<'static>; MAX_SLICES],
) -> io::Result<u64> {
    let (n, _) = payload::stage(want, slices);
    loop {
        match stream.write_vectored(&slices[..n]) {
            Ok(w) => return Ok((w as u64).min(want)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// An admitted transfer's wire progress.
pub struct Transfer {
    /// The request, in trace coordinates: what the tap logs at close.
    pub t: ScheduledTransfer,
    /// Wire bytes owed in total.
    pub budget: u64,
    /// Wire bytes written so far.
    pub sent: u64,
    /// The connection stays open until this instant (the display
    /// duration), even with its budget written.
    pub hold_until: Nanos,
    /// Seq of the connection's one armed deadline, if any: re-arming
    /// replaces it, and the entry it replaced fires nothing.
    pub timer: Option<u64>,
}

impl Transfer {
    /// Drops the armed deadline before a step re-arms it.
    pub fn disarm(&mut self) {
        self.timer = None;
    }

    /// Arms `deadline` for the connection at `key`, replacing any armed one.
    pub(crate) fn arm(&mut self, r: &mut Reactor, deadline: Nanos, key: Key) {
        self.timer = Some(r.deadlines.schedule(deadline, key));
    }

    /// For a transfer that has written its whole budget: true once the
    /// hold has elapsed and it may close, else arms the hold deadline.
    pub fn hold(&mut self, now: Nanos, r: &mut Reactor, key: Key) -> bool {
        if now >= self.hold_until {
            return true;
        }
        self.arm(r, self.hold_until, key);
        false
    }
}

/// A node's front door: its admission control, and the lifecycle
/// counters every node keeps under its own metric prefix.
pub struct Gate {
    /// Time-compression factor: wire budgets and holds shrink by it.
    compression: f64,
    /// The simulator's admission semantics, on real sockets.
    pub admission: Mutex<MediaServer>,
    /// `<prefix>.conns`: client connections accepted.
    pub conns: Arc<Counter>,
    /// `<prefix>.active`: client connections open.
    pub active: Arc<Gauge>,
    /// `<prefix>.completed`: transfers that wrote their budget and held.
    pub completed: Arc<Counter>,
    /// `<prefix>.rejected`: requests answered `BUSY`.
    pub rejected: Arc<Counter>,
    /// `<prefix>.truncated`: admitted transfers that ended short.
    pub truncated: Arc<Counter>,
    /// `<prefix>.bad_requests`: connections closed without a request.
    pub bad_requests: Arc<Counter>,
}

impl Gate {
    /// A gate under `policy`, registering its counters as `prefix.*`.
    pub fn new(policy: AdmissionPolicy, compression: f64, r: &Registry, prefix: &str) -> Self {
        let name = |metric: &str| format!("{prefix}.{metric}");
        Self {
            compression: compression.max(1.0),
            admission: Mutex::new(MediaServer::new(lsw_sim::server::ServerConfig {
                admission: policy,
                ..lsw_sim::server::ServerConfig::default()
            })),
            conns: r.counter(&name("conns")),
            active: r.gauge(&name("active")),
            completed: r.counter(&name("completed")),
            rejected: r.counter(&name("rejected")),
            truncated: r.counter(&name("truncated")),
            bad_requests: r.counter(&name("bad_requests")),
        }
    }

    /// The admission handshake for a parsed request. On `OK` returns the
    /// transfer; otherwise returns the status the node logs the request
    /// under, after counting it: [`STATUS_REJECTED`] once `BUSY` went
    /// out, or [`STATUS_TRUNCATED`] when the peer could not take the
    /// `OK` and the slot was released again.
    pub fn admit(
        &self,
        stream: &mut TcpStream,
        t: &ScheduledTransfer,
        now: Nanos,
    ) -> Result<Transfer, u16> {
        // lsw::allow(L008): admission check is an O(1) counter update under the lock
        let admitted = self.admission.lock().request(t.display_duration());
        if !admitted {
            let _ = stream.write_all(payload::BUSY_LINE);
            self.rejected.inc();
            return Err(STATUS_REJECTED);
        }
        let budget = proto::wire_budget(t.bytes, self.compression);
        let mut line = [0u8; 32];
        if stream
            .write_all(payload::ok_line(budget, &mut line))
            .is_err()
        {
            self.release();
            self.truncated.inc();
            return Err(STATUS_TRUNCATED);
        }
        Ok(Transfer {
            t: *t,
            budget,
            sent: 0,
            hold_until: now.saturating_add(trace_to_nanos(t.duration, self.compression)),
            timer: None,
        })
    }

    /// Releases an admitted transfer's slot.
    pub fn release(&self) {
        // lsw::allow(L008): slot release is an O(1) counter update under the lock
        self.admission.lock().release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deadlines of connections `0..n`; `armed[i]` is the seq connection
    /// `i` holds, as a node's [`Transfer::timer`] does.
    struct Conns {
        q: Deadlines,
        armed: Vec<Option<u64>>,
    }

    impl Conns {
        fn new(resolution: Nanos, n: usize) -> Self {
            Self {
                q: Deadlines::new(resolution),
                armed: vec![None; n],
            }
        }

        fn arm(&mut self, i: usize, deadline: Nanos) {
            self.armed[i] = Some(self.q.schedule(deadline, Key::from_usize(i)));
        }

        fn next(&mut self) -> Option<Nanos> {
            let tick = self.q.next_tick(|k| self.armed[k.to_usize()]);
            tick.map(|t| t << self.q.shift)
        }

        /// What fires at `now`, as `(deadline, connection)`; each fired
        /// connection is disarmed, as a node's step does.
        fn advance(&mut self, now: Nanos) -> Vec<(Nanos, usize)> {
            let mut fired = Vec::new();
            self.q
                .advance(now, |k| self.armed[k.to_usize()], &mut fired);
            let fired: Vec<_> = fired.into_iter().map(|(d, k)| (d, k.to_usize())).collect();
            for &(_, i) in &fired {
                self.armed[i] = None;
            }
            fired
        }
    }

    #[test]
    fn fires_in_tick_then_seq_order_with_the_original_deadline() {
        let mut c = Conns::new(1 << 10, 4);
        c.arm(3, 5_000_000);
        c.arm(1, 1_000_100);
        c.arm(2, 1_000_000); // same tick as connection 1: seq breaks the tie
        c.arm(0, 9_000_000);
        let fired = c.advance(6_000_000);
        assert_eq!(fired, [(1_000_100, 1), (1_000_000, 2), (5_000_000, 3)]);
        assert_eq!(c.advance(5_000_000), [], "backwards: no fires");
        assert_eq!(c.advance(10_000_000), [(9_000_000, 0)]);
    }

    #[test]
    fn event_driven_fires_land_within_one_tick_of_their_deadlines() {
        // Driven the reactor's way — advance to the next deadline, re-arm
        // each fired pacing cursor further out (more than two ticks, so
        // never in the past) — every entry fires within one tick.
        let res = 1 << 17;
        let mut c = Conns::new(res, 200);
        let mut fires = vec![0u64; 200];
        for i in 0..200u64 {
            c.arm(i as usize, 1_000_000 + i * 7_919_993 + (i % 7) * (1 << 30));
        }
        while let Some(bound) = c.next() {
            for (deadline, i) in c.advance(bound) {
                assert!(bound.abs_diff(deadline) < res, "{i}: {deadline} at {bound}");
                fires[i] += 1;
                if fires[i] < 6 {
                    c.arm(i, deadline + (i as u64 + 1) * 3_000_017);
                }
            }
        }
        assert!(fires.iter().all(|&n| n == 6));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a model holding each connection's one armed `(tick,
        /// seq, deadline)`: the same fires in `(tick, seq)` order, and a
        /// sleep bound that is the model's earliest tick. Ops: arm `delta`
        /// ahead or (3) behind, replacing the armed entry; disarm (4); or
        /// advance `delta / 4`. A replaced or disarmed entry never fires.
        #[test]
        fn deadlines_match_a_one_entry_per_connection_model(
            resolution in prop_oneof![Just(1u64), Just(1 << 10), Just(1 << 17)],
            ops in prop::collection::vec(
                (0u8..8, 0usize..8, prop_oneof![0u64..1 << 18, 0u64..=1 << 34]),
                1..120,
            ),
        ) {
            let shift = resolution.trailing_zeros();
            let mut c = Conns::new(resolution, 8);
            let mut model: Vec<Option<(u64, u64, Nanos)>> = vec![None; 8];
            let (mut now, mut seq) = (0u64, 0u64);
            for (op, conn, delta) in ops {
                match op {
                    0..=3 => {
                        let d = if op == 3 { now.saturating_sub(delta) } else { now + delta };
                        seq += 1;
                        model[conn] = Some(((d >> shift).max((now >> shift) + 1), seq, d));
                        c.arm(conn, d);
                    }
                    4 => (model[conn], c.armed[conn]) = (None, None),
                    _ => {
                        now += delta / 4;
                        let mut due: Vec<_> = (0..8)
                            .filter_map(|i| model[i].map(|(t, s, d)| (t, s, d, i)))
                            .filter(|&(t, ..)| t <= now >> shift)
                            .collect();
                        due.sort_unstable();
                        let want: Vec<_> = due.iter().map(|&(.., d, i)| (d, i)).collect();
                        for &(.., i) in &due {
                            model[i] = None;
                        }
                        prop_assert_eq!(c.advance(now), want, "at now={}", now);
                    }
                }
                let head = model.iter().flatten().min().map(|&(t, ..)| t << shift);
                prop_assert_eq!(c.next(), head, "stale heads are skipped");
            }
            c.advance(u64::MAX);
            prop_assert!(c.q.heap.is_empty(), "stale entries pop, they are not kept");
        }
    }
}
