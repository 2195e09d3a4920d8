//! The LSW1 connection lifecycle, shared by both serving nodes: the
//! origin's worker shards ([`server`](crate::server)) and the edge relay.
//!
//! Each reactor thread owns a [`Reactor`] — epoll set, a hierarchical
//! [timing wheel](crate::wheel) armed through a nanosecond `timerfd`,
//! iovec staging — and a generational [slab](crate::slab) of [`Conn`]s,
//! so stale events and timers resolve to nothing instead of to a
//! recycled socket. Cost per iteration: O(ready + expired). Every client
//! connection walks the same steps:
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

use crate::clock::{trace_to_nanos, Nanos, WallClock};
use crate::metrics::{Counter, Gauge, Registry};
use crate::payload::{self, MAX_SLICES};
use crate::proto::{self, Request};
use crate::slab::{Key, Slab};
use crate::wheel::{TimerId, TimingWheel};
use crate::{STATUS_REJECTED, STATUS_TRUNCATED};
use lsw_sim::server::{AdmissionPolicy, MediaServer};
use lsw_trace::schedule::ScheduledTransfer;
use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;
use timerfd::{TimerFd, TimerState};

/// Token of the cross-thread shutdown/intake waker.
const WAKER_TOKEN: Token = Token(usize::MAX);
/// Token of the timing-wheel timerfd.
const TIMER_TOKEN: Token = Token(usize::MAX - 1);
/// Token of a listening socket a reactor accepts from itself.
pub const LISTEN_TOKEN: Token = Token(usize::MAX - 2);

/// One reactor thread's event sources and write staging.
pub struct Reactor {
    /// The epoll set every connection is registered in.
    pub poll: Poll,
    /// Pending per-connection deadlines, keyed by slab key.
    pub wheel: TimingWheel<Key>,
    /// Arena slices staged for the next vectored write.
    pub slices: [IoSlice<'static>; MAX_SLICES],
    events: Events,
    timer: TimerFd,
    /// Deadline currently programmed into the timerfd, so an unchanged
    /// wheel head does not cost a timerfd_settime(2) every iteration.
    armed: Option<Nanos>,
}

impl Reactor {
    /// Acquires the epoll set, the waker that interrupts it, and the
    /// wheel's timerfd at `resolution` nanoseconds.
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
            wheel: TimingWheel::with_resolution(resolution),
            slices: [IoSlice::new(&[]); MAX_SLICES],
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

    /// Sleeps until a socket turns ready or the wheel's next deadline
    /// (the timerfd has the nanosecond precision epoll_wait's timeout
    /// lacks; a thread running behind harvests readiness without
    /// sleeping), then appends the ready connections — readable or errored
    /// — to `ready` and the expired `(deadline, key)` entries to `due`.
    /// Returns the wake time.
    pub fn wait(
        &mut self,
        clock: &WallClock,
        ready: &mut Vec<(Key, bool)>,
        due: &mut Vec<(Nanos, Key)>,
    ) -> io::Result<Nanos> {
        let next = self.wheel.next_deadline();
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
        self.wheel.advance(now, due);
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
    /// The connection's pending wheel entry, if any: at most one per
    /// connection (re-arming cancels the old one).
    pub timer: Option<TimerId>,
}

impl Transfer {
    /// Cancels the pending wheel entry before a step re-arms it.
    pub fn disarm(&mut self, wheel: &mut TimingWheel<Key>) {
        if let Some(id) = self.timer.take() {
            wheel.cancel(id);
        }
    }

    /// For a transfer that has written its whole budget: true once the
    /// hold has elapsed and it may close, else arms the hold deadline.
    pub fn hold(&mut self, now: Nanos, wheel: &mut TimingWheel<Key>, key: Key) -> bool {
        if now >= self.hold_until {
            return true;
        }
        self.timer = Some(wheel.schedule(self.hold_until, key));
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
