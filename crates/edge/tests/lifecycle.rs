//! The LSW1 connection lifecycle, tested once against both serving
//! nodes: the origin shard (`ReplayServer`) and a relay fed by an origin.
//!
//! Every case drives raw `TcpStream`s through one stage of the lifecycle
//! (request line, admission, streaming, close, drain) on a fresh node,
//! then checks the node's own `srv.*` / `edge.*` counters, its tap's
//! accounting, and what the socket read back.

use lsw_edge::{Relay, RelayConfig};
use lsw_replay::proto::{encode_request, wire_budget};
use lsw_replay::{Registry, ReplayServer, ServerConfig, WallClock};
use lsw_sim::server::AdmissionPolicy;
use lsw_stream::report::StreamAccounting;
use lsw_stream::{MultiTap, StreamConfig};
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::schedule::ScheduledTransfer;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const COMPRESSION: f64 = 1000.0;
/// Drain budget of every origin: long enough for nothing, so `finish`
/// truncates whatever is still in flight.
const DRAIN_NS: u64 = 20_000_000;
const WAIT: Duration = Duration::from_secs(2);

/// A transfer that completes in a few wall milliseconds: 3,000 wire
/// bytes at 1 MB/s, held 2 ms.
fn short(client: u32) -> ScheduledTransfer {
    transfer(client, 2, 3_000_000)
}

/// A transfer still in flight seconds after it starts: 1 kB/s on the
/// wire, held 10 s.
fn long(client: u32) -> ScheduledTransfer {
    transfer(client, 10_000, 10_001_000)
}

fn transfer(client: u32, duration: u32, bytes: u64) -> ScheduledTransfer {
    ScheduledTransfer {
        start: 0,
        duration,
        client: ClientId(client),
        ip: Ipv4Addr(0x0a00_0000 + client),
        as_id: AsId(1),
        country: CountryCode(*b"BR"),
        object: ObjectId(1),
        camera: 0,
        bytes,
        avg_bandwidth: 8_000,
        status: 200,
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Origin,
    Relay,
}

/// One serving node under test, with what finishing it needs.
struct Node {
    prefix: &'static str,
    clock: Arc<WallClock>,
    addr: SocketAddr,
    registry: Arc<Registry>,
    origin: ReplayServer,
    relay: Option<(Relay, Arc<Mutex<MultiTap>>)>,
}

impl Node {
    fn start(kind: Kind, cap: Option<u64>) -> Node {
        let admission = match cap {
            Some(max_concurrent) => AdmissionPolicy::RejectAbove { max_concurrent },
            None => AdmissionPolicy::AcceptAll,
        };
        let clock = Arc::new(WallClock::start());
        let registry = Arc::new(Registry::new());
        let origin_cfg = ServerConfig {
            compression: COMPRESSION,
            workers: 1,
            drain: DRAIN_NS,
            ..ServerConfig::default()
        };
        match kind {
            Kind::Origin => {
                let origin = ReplayServer::start(
                    ServerConfig {
                        admission,
                        ..origin_cfg
                    },
                    &[],
                    Arc::clone(&clock),
                    Arc::clone(&registry),
                )
                .expect("bind origin");
                Node {
                    prefix: "srv",
                    clock,
                    addr: origin.local_addr(),
                    registry,
                    origin,
                    relay: None,
                }
            }
            Kind::Relay => {
                let origin = ReplayServer::start(
                    origin_cfg,
                    &[],
                    Arc::clone(&clock),
                    Arc::new(Registry::new()),
                )
                .expect("bind origin");
                let tap = Arc::new(Mutex::new(MultiTap::new(StreamConfig::default(), 1)));
                let relay = Relay::start(
                    RelayConfig {
                        origin: origin.local_addr(),
                        compression: COMPRESSION,
                        admission,
                        ..RelayConfig::default()
                    },
                    BTreeMap::new(),
                    Arc::clone(&tap),
                    Arc::clone(&clock),
                    &registry,
                )
                .expect("bind relay");
                Node {
                    prefix: "edge",
                    clock,
                    addr: relay.local_addr(),
                    registry,
                    origin,
                    relay: Some((relay, tap)),
                }
            }
        }
    }

    fn counter(&self, name: &str) -> u64 {
        let name = format!("{}.{name}", self.prefix);
        self.registry.snapshot().value(&name).unwrap_or(0)
    }

    /// Waits until counter `name` reaches `want` (the node acts on its
    /// own thread, after the socket operation that caused it).
    fn wait_for(&self, name: &str, want: u64) {
        let deadline = self.clock.now() + WAIT.as_nanos() as u64;
        while self.counter(name) < want {
            assert!(
                self.clock.now() < deadline,
                "{}.{name} stuck at {} (want {want})",
                self.prefix,
                self.counter(name)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn connect(&self) -> TcpStream {
        #[allow(clippy::disallowed_methods)]
        // The test is a raw LSW1 client: it needs real sockets.
        let s = TcpStream::connect(self.addr).expect("connect");
        s.set_read_timeout(Some(WAIT)).expect("read timeout");
        s
    }

    /// Connects and sends `t`'s request line.
    fn request(&self, t: &ScheduledTransfer) -> TcpStream {
        let mut s = self.connect();
        s.write_all(format!("{}\n", encode_request(t)).as_bytes())
            .expect("send request");
        s
    }

    /// Stops the node (truncating whatever is in flight) and returns the
    /// node's own tap accounting.
    fn finish(self) -> StreamAccounting {
        match self.relay {
            None => self.origin.finish().tap.accounting,
            Some((relay, tap)) => {
                relay.shutdown();
                relay.finish();
                self.origin.finish();
                let tap =
                    std::mem::replace(&mut *tap.lock(), MultiTap::new(StreamConfig::default(), 0));
                let (tiers, _) = tap.finalize();
                tiers.into_iter().next().expect("one tier").accounting
            }
        }
    }
}

/// Reads one status line, byte by byte so no payload is consumed.
fn status_line(s: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut b = [0u8; 1];
    while line.last() != Some(&b'\n') {
        match s.read(&mut b) {
            Ok(0) => break,
            Ok(_) => line.push(b[0]),
            Err(e) => panic!("reading the status line: {e}"),
        }
    }
    String::from_utf8(line).expect("ascii status line")
}

/// Reads to EOF; a reset after the node closed counts as EOF.
fn rest(s: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return out,
            Err(e) => panic!("reading to EOF: {e}"),
        }
    }
}

fn ok_line(t: &ScheduledTransfer) -> String {
    format!("OK {}\n", wire_budget(t.bytes, COMPRESSION))
}

/// A stream the case leaves open across `finish`, with its wire budget.
type Held = Option<(TcpStream, u64)>;

/// (a) The peer closes before the newline.
fn closes_before_newline(node: &Node) -> Held {
    let mut s = node.connect();
    s.write_all(b"LSW1 0 2").expect("partial request");
    s.shutdown(Shutdown::Write).expect("half-close");
    node.wait_for("bad_requests", 1);
    assert_eq!(rest(&mut s), b"");
    None
}

/// (b) One byte more than the request-line bound, no newline.
fn overlong_request(node: &Node) -> Held {
    let mut s = node.connect();
    s.write_all(&[b'L'; 257]).expect("overlong request");
    assert_eq!(rest(&mut s), b"", "the node closes");
    node.wait_for("bad_requests", 1);
    None
}

/// (c) A complete line that is not an LSW1 request.
fn unparsable_request(node: &Node) -> Held {
    let mut s = node.connect();
    s.write_all(b"GET / HTTP/1.0\n").expect("request");
    assert_eq!(rest(&mut s), b"");
    node.wait_for("bad_requests", 1);
    None
}

/// (d) Admission cap 1: the second request is refused.
fn second_request_is_busy(node: &Node) -> Held {
    let first = long(1);
    let mut a = node.request(&first);
    assert_eq!(status_line(&mut a), ok_line(&first));
    let mut b = node.request(&long(2));
    assert_eq!(status_line(&mut b), "BUSY\n");
    assert_eq!(rest(&mut b), b"");
    node.wait_for("rejected", 1);
    Some((a, wire_budget(first.bytes, COMPRESSION)))
}

/// (e) Cap 1: the client closes mid-stream, which frees the slot.
fn close_mid_stream_frees_the_slot(node: &Node) -> Held {
    let first = long(1);
    let mut a = node.request(&first);
    assert_eq!(status_line(&mut a), ok_line(&first));
    drop(a);
    node.wait_for("truncated", 1);
    let next = long(2);
    let mut b = node.request(&next);
    assert_eq!(status_line(&mut b), ok_line(&next));
    Some((b, wire_budget(next.bytes, COMPRESSION)))
}

/// (f) A complete transfer: exactly the wire budget, then EOF.
fn complete_transfer(node: &Node) -> Held {
    let t = short(1);
    let mut s = node.request(&t);
    assert_eq!(status_line(&mut s), ok_line(&t));
    let body = rest(&mut s);
    assert_eq!(body.len() as u64, wire_budget(t.bytes, COMPRESSION));
    node.wait_for("completed", 1);
    None
}

/// (g) `finish` with a transfer in flight.
fn finish_in_flight(node: &Node) -> Held {
    let t = long(1);
    let mut s = node.request(&t);
    assert_eq!(status_line(&mut s), ok_line(&t));
    Some((s, wire_budget(t.bytes, COMPRESSION)))
}

/// What one case leaves behind once its node has finished.
#[derive(Debug, Default, PartialEq, Eq)]
struct Expect {
    bad_requests: u64,
    rejected: u64,
    truncated: u64,
    completed: u64,
    /// Tap records, and how many of them carry a failure status.
    records: u64,
    failed: u64,
}

struct Case {
    name: &'static str,
    cap: Option<u64>,
    run: fn(&Node) -> Held,
    expect: Expect,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "a: peer closes before the newline",
            cap: None,
            run: closes_before_newline,
            expect: Expect {
                bad_requests: 1,
                ..Expect::default()
            },
        },
        Case {
            name: "b: 257 bytes, no newline",
            cap: None,
            run: overlong_request,
            expect: Expect {
                bad_requests: 1,
                ..Expect::default()
            },
        },
        Case {
            name: "c: unparsable line",
            cap: None,
            run: unparsable_request,
            expect: Expect {
                bad_requests: 1,
                ..Expect::default()
            },
        },
        Case {
            name: "d: admission cap 1 answers BUSY",
            cap: Some(1),
            run: second_request_is_busy,
            // The admitted transfer is truncated by `finish`.
            expect: Expect {
                rejected: 1,
                truncated: 1,
                records: 2,
                failed: 2,
                ..Expect::default()
            },
        },
        Case {
            name: "e: client closes mid-stream",
            cap: Some(1),
            run: close_mid_stream_frees_the_slot,
            // The closed transfer, then the next one at `finish`.
            expect: Expect {
                truncated: 2,
                records: 2,
                failed: 2,
                ..Expect::default()
            },
        },
        Case {
            name: "f: complete transfer",
            cap: None,
            run: complete_transfer,
            expect: Expect {
                completed: 1,
                records: 1,
                ..Expect::default()
            },
        },
        Case {
            name: "g: finish with a transfer in flight",
            cap: None,
            run: finish_in_flight,
            expect: Expect {
                truncated: 1,
                records: 1,
                failed: 1,
                ..Expect::default()
            },
        },
    ]
}

fn run_table(kind: Kind) {
    for case in cases() {
        let node = Node::start(kind, case.cap);
        let held = (case.run)(&node);
        let registry = Arc::clone(&node.registry);
        let prefix = node.prefix;
        let acct = node.finish();
        if let Some((mut s, budget)) = held {
            let got = rest(&mut s).len() as u64;
            assert!(
                got < budget,
                "{kind:?} {}: a truncated transfer got its whole budget",
                case.name
            );
        }
        let snap = registry.snapshot();
        let c = |name: &str| snap.value(&format!("{prefix}.{name}")).unwrap_or(0);
        let got = Expect {
            bad_requests: c("bad_requests"),
            rejected: c("rejected"),
            truncated: c("truncated"),
            completed: c("completed"),
            records: acct.examined,
            failed: acct.rejected(),
        };
        assert_eq!(got, case.expect, "{kind:?} {}", case.name);
        assert_eq!(c("active"), 0, "{kind:?} {}: a slot leaked", case.name);
    }
}

#[test]
fn origin_shard_lifecycle() {
    run_table(Kind::Origin);
}

#[test]
fn relay_lifecycle() {
    run_table(Kind::Relay);
}
