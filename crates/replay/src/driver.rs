//! The trace-driven load driver.
//!
//! Transfers are dealt round-robin to a fixed pool of client workers
//! (each partition stays start-ordered, so a worker never has to look
//! ahead). Each worker runs its own epoll reactor: a `timerfd` armed at
//! the next transfer's scheduled launch opens connections on time, and
//! live connections are drained only when their sockets turn readable —
//! so a handful of threads sustain thousands of concurrent connections
//! without a poll-tick scan, and launch jitter is bounded by timer
//! resolution rather than a sleep quantum.

use crate::clock::{trace_to_nanos, WallClock};
use crate::metrics::Registry;
use crate::proto::{self, status_line, StatusLine};
use crate::slab::{Key, Slab};
use lsw_trace::schedule::{Schedule, ScheduledTransfer};
use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, SpliceSink, Token};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;
use timerfd::{TimerFd, TimerState};

/// Reactor token for the launch-schedule timerfd.
const TIMER_TOKEN: Token = Token(usize::MAX - 1);

/// Load driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Server address to replay against.
    pub addr: SocketAddr,
    /// Time-compression factor (shared with the server).
    pub compression: f64,
    /// Client worker threads.
    pub workers: usize,
    /// Trace second that maps to wall `t = 0`. `None` uses the first
    /// transfer's start — the single-driver default. A topology run
    /// drives each relay with its own sub-schedule but one shared
    /// clock, so every driver pins the same global epoch here or the
    /// relays' launch timelines would skew apart.
    pub epoch: Option<u32>,
}

impl DriverConfig {
    /// A driver aimed at `addr` with the given compression.
    pub fn new(addr: SocketAddr, compression: f64) -> Self {
        Self {
            addr,
            compression: compression.max(1.0),
            workers: 4,
            epoch: None,
        }
    }
}

/// What one replay run offered and got back, summed over all workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Connections opened (request line sent).
    pub launched: u64,
    /// Connections that failed to open or to send the request.
    pub connect_failures: u64,
    /// Transfers answered `BUSY` by admission control.
    pub rejected: u64,
    /// Transfers that delivered their full wire byte budget.
    pub completed: u64,
    /// Transfers closed short of their budget (slow-client drop, drain).
    pub short: u64,
    /// Wire payload bytes received.
    pub bytes_received: u64,
}

impl DriveOutcome {
    /// Accumulates another outcome into this one (used to sum worker
    /// partials, and per-relay drivers in a topology run).
    pub fn absorb(&mut self, o: DriveOutcome) {
        self.launched += o.launched;
        self.connect_failures += o.connect_failures;
        self.rejected += o.rejected;
        self.completed += o.completed;
        self.short += o.short;
        self.bytes_received += o.bytes_received;
    }
}

struct ClientConn {
    stream: TcpStream,
    /// Status line bytes until the first newline.
    header: Vec<u8>,
    /// Expected payload bytes, known once the `OK` line arrives.
    expected: Option<u64>,
    received: u64,
}

/// Replays the whole schedule against a live server; blocks until every
/// transfer has been offered and every connection has closed.
pub fn drive(
    schedule: &Schedule,
    cfg: &DriverConfig,
    clock: &WallClock,
    registry: &Registry,
) -> io::Result<DriveOutcome> {
    if schedule.is_empty() {
        return Ok(DriveOutcome::default());
    }
    let t0 = cfg.epoch.unwrap_or(schedule.transfers[0].start);
    let workers = cfg.workers.max(1);
    let connects = registry.counter("drv.connects");
    let bytes_received = registry.counter("drv.bytes_received");
    let lateness = registry.histogram("drv.lateness_ms");

    // Each worker's reactor endpoints are acquired up front so setup
    // failures surface as an error instead of a dead thread.
    let mut planes = Vec::with_capacity(workers);
    for _ in 0..workers {
        // lsw::allow(L002): the load driver acquires its epoll endpoint by design
        let poll = Poll::new()?;
        // lsw::allow(L002): the load driver acquires its pacing timerfd by design
        let timer = TimerFd::new()?;
        let timer_fd = timer.as_raw_fd();
        poll.registry()
            .register(&mut SourceFd(&timer_fd), TIMER_TOKEN, Interest::READABLE)?;
        planes.push((poll, timer));
    }

    let partials: Vec<DriveOutcome> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = planes
            .into_iter()
            .enumerate()
            .map(|(w, (mut poll, mut timer))| {
                let mine: Vec<&ScheduledTransfer> =
                    schedule.transfers.iter().skip(w).step_by(workers).collect();
                let connects = &connects;
                let bytes_received = &bytes_received;
                let lateness = &lateness;
                std::thread::Builder::new()
                    .name(format!("lsw-drive-{w}"))
                    .spawn_scoped(s, move || {
                        let mut out = DriveOutcome::default();
                        let mut next = 0usize;
                        let mut conns: Slab<ClientConn> = Slab::new();
                        let mut events = Events::with_capacity(1024);
                        // Heap-allocated: 256 KiB per worker would overflow
                        // a default 8 MiB stack budget checker and, more to
                        // the point, each read(2) should drain a whole paced
                        // burst rather than 16 KiB slivers of it.
                        let mut scratch = vec![0u8; 256 * 1024];
                        // Zero-copy payload drain; None falls back to read().
                        // Mutable: the first EINVAL/ENOSYS from splice(2)
                        // retires it for the whole run (see `pump`).
                        let mut sink = SpliceSink::new().ok();
                        loop {
                            // Launch everything that is due.
                            let now = clock.now();
                            while next < mine.len() {
                                let t = mine[next];
                                let due =
                                    trace_to_nanos(t.start.saturating_sub(t0), cfg.compression);
                                if due > now {
                                    break;
                                }
                                next += 1;
                                match open(cfg.addr, t) {
                                    Ok(conn) => {
                                        out.launched += 1;
                                        connects.inc();
                                        lateness.record((now - due) / 1_000_000);
                                        let key = conns.insert(conn);
                                        let Some(c) = conns.get_mut(key) else {
                                            continue;
                                        };
                                        if poll
                                            .registry()
                                            .register(
                                                &mut c.stream,
                                                Token(key.to_usize()),
                                                Interest::READABLE,
                                            )
                                            .is_err()
                                        {
                                            conns.remove(key);
                                            out.short += 1;
                                        }
                                    }
                                    Err(_) => out.connect_failures += 1,
                                }
                            }
                            if next == mine.len() && conns.is_empty() {
                                return out;
                            }
                            // Sleep until the next launch is due or a socket
                            // turns readable.
                            if next < mine.len() {
                                let due = trace_to_nanos(
                                    mine[next].start.saturating_sub(t0),
                                    cfg.compression,
                                );
                                let wait = due.saturating_sub(clock.now()).max(1);
                                let _ = timer
                                    .set_state(TimerState::Oneshot(Duration::from_nanos(wait)));
                            } else {
                                let _ = timer.set_state(TimerState::Disarmed);
                            }
                            // lsw::allow(L008): the driver's single scheduling point; bounded by the launch timerfd and server closes
                            if poll.poll(&mut events, None).is_err() {
                                return out; // out of fds/memory; give up cleanly
                            }
                            for event in events.iter() {
                                match event.token() {
                                    TIMER_TOKEN => {
                                        timer.read();
                                    }
                                    tok => {
                                        let key = Key::from_usize(tok.0);
                                        let Some(conn) = conns.get_mut(key) else {
                                            continue;
                                        };
                                        if pump(
                                            conn,
                                            &mut scratch,
                                            &mut sink,
                                            &mut out,
                                            bytes_received,
                                        ) {
                                            // Dropping the stream closes the
                                            // fd and deregisters it.
                                            conns.remove(key);
                                        }
                                    }
                                }
                            }
                        }
                    })
                    // lsw::allow(L005): OS thread spawn fails only on resource exhaustion, and a scoped-spawn error cannot escape the scope closure as a Result
                    .expect("spawning a driver worker thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut total = DriveOutcome::default();
    for p in partials {
        total.absorb(p);
    }
    Ok(total)
}

/// Opens one connection and sends the request line.
fn open(addr: SocketAddr, t: &ScheduledTransfer) -> io::Result<ClientConn> {
    #[allow(clippy::disallowed_methods)]
    // lsw::allow(L002): the load driver opens real sockets by design
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut line = proto::encode_request(t);
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.set_nonblocking(true)?;
    Ok(ClientConn {
        stream,
        header: Vec::new(),
        expected: None,
        received: 0,
    })
}

/// Reads whatever the server has for one connection; returns true when
/// the connection is finished and accounted.
///
/// Once the status line is parsed the remaining bytes are pure pattern
/// payload the driver only counts, so they are drained zero-copy via
/// [`SpliceSink`] when one is available — at multi-GB/s the skb-to-
/// userspace memcpy of a plain `read(2)` is the harness's dominant cost
/// and would cap the measured server ceiling. A kernel refusing splice
/// (`EINVAL`/`ENOSYS`: socket-to-pipe splice unsupported, seccomp, or
/// an exotic filesystem backing the pipe) *retires the sink for the
/// rest of the run* and falls back to the copying path below, which
/// stays correct — retrying a syscall the kernel already refused on
/// every drain would just double the syscall count of the slow path.
fn pump(
    conn: &mut ClientConn,
    scratch: &mut [u8],
    sink: &mut Option<SpliceSink>,
    out: &mut DriveOutcome,
    bytes_received: &crate::metrics::Counter,
) -> bool {
    loop {
        if conn.expected.is_some() {
            if let Some(s) = sink.as_ref() {
                match s.drain(conn.stream.as_raw_fd(), 1 << 20) {
                    Ok(0) => {
                        settle(conn, out);
                        return true;
                    }
                    Ok(n) => {
                        conn.received += n as u64;
                        out.bytes_received += n as u64;
                        bytes_received.add(n as u64);
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                    Err(e) => {
                        if splice_unsupported(&e) {
                            // This kernel will refuse every future
                            // splice the same way: drop to read(2)
                            // permanently instead of failing the run
                            // or re-probing per drain.
                            *sink = None;
                        }
                        // Transient refusals copy this round only.
                    }
                }
            }
        }
        match conn.stream.read(scratch) {
            Ok(0) => {
                settle(conn, out);
                return true;
            }
            Ok(n) if conn.expected.is_none() => {
                match status_line(&mut conn.header, &scratch[..n]) {
                    StatusLine::Partial => {}
                    StatusLine::Ok { budget, payload } => {
                        conn.expected = Some(budget);
                        conn.received += payload;
                        out.bytes_received += payload;
                        bytes_received.add(payload);
                    }
                    StatusLine::Busy => {
                        out.rejected += 1;
                        return true;
                    }
                    StatusLine::Garbage => {
                        out.short += 1;
                        return true;
                    }
                }
            }
            Ok(n) => {
                conn.received += n as u64;
                out.bytes_received += n as u64;
                bytes_received.add(n as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                settle(conn, out);
                return true;
            }
        }
    }
}

/// Accounts a closed connection as completed or short.
fn settle(conn: &ClientConn, out: &mut DriveOutcome) {
    match conn.expected {
        Some(exp) if conn.received >= exp => out.completed += 1,
        _ => out.short += 1,
    }
}

/// Whether a `splice(2)` failure means the kernel will never serve this
/// drain path: `EINVAL` (this socket/pipe pairing is unsupported) or
/// `ENOSYS` (the syscall itself is absent, e.g. filtered by seccomp).
fn splice_unsupported(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(22 /* EINVAL */ | 38 /* ENOSYS */))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_refusals_classify_as_permanent_or_transient() {
        assert!(splice_unsupported(&io::Error::from_raw_os_error(22)));
        assert!(splice_unsupported(&io::Error::from_raw_os_error(38)));
        // EAGAIN/EBADF/EPIPE are per-call conditions, not capability
        // verdicts: the sink must survive them.
        for errno in [11, 9, 32] {
            assert!(!splice_unsupported(&io::Error::from_raw_os_error(errno)));
        }
        assert!(!splice_unsupported(&io::Error::other("no raw errno")));
    }

    #[test]
    fn status_line_buffer_holds_the_line_only() {
        // A first read carrying the status line and a 256 KiB payload.
        let mut read = b"OK 300000\n".to_vec();
        read.resize(256 * 1024, b'x');
        let mut header = Vec::new();
        assert_eq!(
            status_line(&mut header, &read),
            StatusLine::Ok {
                budget: 300_000,
                payload: 256 * 1024 - 10
            }
        );
        assert!(header.capacity() <= proto::MAX_REQUEST_LINE);

        // A line split across reads, then payload behind its newline.
        let mut header = Vec::new();
        assert_eq!(status_line(&mut header, b"OK 12"), StatusLine::Partial);
        assert_eq!(
            status_line(&mut header, b"34\nabc"),
            StatusLine::Ok {
                budget: 1234,
                payload: 3
            }
        );
        assert_eq!(header.capacity(), 0);

        assert_eq!(status_line(&mut Vec::new(), b"BUSY\n"), StatusLine::Busy);
        let long = vec![b'O'; proto::MAX_REQUEST_LINE + 1];
        assert_eq!(status_line(&mut Vec::new(), &long), StatusLine::Garbage);
    }

    #[test]
    fn outcomes_sum() {
        let mut a = DriveOutcome {
            launched: 1,
            completed: 1,
            ..DriveOutcome::default()
        };
        a.absorb(DriveOutcome {
            launched: 2,
            short: 1,
            bytes_received: 10,
            ..DriveOutcome::default()
        });
        assert_eq!(a.launched, 3);
        assert_eq!(a.completed, 1);
        assert_eq!(a.short, 1);
        assert_eq!(a.bytes_received, 10);
    }
}
