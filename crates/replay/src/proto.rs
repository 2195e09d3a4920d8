//! The replay wire protocol.
//!
//! One ASCII request line from client to server:
//!
//! ```text
//! LSW1 <start> <duration> <client> <ip> <as> <country> <object> <camera> <bytes> <avg_bw> <status>\n
//! ```
//!
//! i.e. the [`ScheduledTransfer`] the driver is re-offering, in trace
//! coordinates. The server answers with exactly one status line —
//! `OK <wire_bytes>\n` or `BUSY\n` — then, on `OK`, streams `wire_bytes`
//! payload bytes paced at the feed's encoded bitrate and closes. The
//! original trace fields ride the request so the server's completion log
//! (the characterization tap) is in trace coordinates even though the
//! wire traffic is time- and byte-compressed.

use crate::clock::Nanos;
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::schedule::ScheduledTransfer;

/// Maximum request or status line length a peer will buffer before
/// giving up.
pub(crate) const MAX_REQUEST_LINE: usize = 256;

/// Formats the request line for one scheduled transfer (no newline).
pub fn encode_request(t: &ScheduledTransfer) -> String {
    format!(
        "LSW1 {} {} {} {} {} {}{} {} {} {} {} {}",
        t.start,
        t.duration,
        t.client.0,
        t.ip.0,
        t.as_id.0,
        t.country.0[0] as char,
        t.country.0[1] as char,
        t.object.0,
        t.camera,
        t.bytes,
        t.avg_bandwidth,
        t.status,
    )
}

/// Parses a request line (without the trailing newline).
pub fn parse_request(line: &str) -> Option<ScheduledTransfer> {
    let mut f = line.split_ascii_whitespace();
    if f.next()? != "LSW1" {
        return None;
    }
    let start = f.next()?.parse().ok()?;
    let duration = f.next()?.parse().ok()?;
    let client = ClientId(f.next()?.parse().ok()?);
    let ip = Ipv4Addr(f.next()?.parse().ok()?);
    let as_id = AsId(f.next()?.parse().ok()?);
    let country = f.next()?.as_bytes();
    let country = CountryCode(<[u8; 2]>::try_from(country).ok()?);
    let object = ObjectId(f.next()?.parse().ok()?);
    let camera = f.next()?.parse().ok()?;
    let bytes = f.next()?.parse().ok()?;
    let avg_bandwidth = f.next()?.parse().ok()?;
    let status = f.next()?.parse().ok()?;
    if f.next().is_some() {
        return None;
    }
    Some(ScheduledTransfer {
        start,
        duration,
        client,
        ip,
        as_id,
        country,
        object,
        camera,
        bytes,
        avg_bandwidth,
        status,
    })
}

/// What a serving node's request buffer holds after one more read.
#[derive(Debug, PartialEq, Eq)]
pub enum Request {
    /// No newline yet; the partial line waits in the buffer.
    Partial,
    /// A complete, well-formed request line.
    Parsed(ScheduledTransfer),
    /// More than `MAX_REQUEST_LINE` bytes, or a line that is not an
    /// LSW1 request.
    Bad,
}

/// Feeds one read into a connection's request buffer. The capacity check
/// comes before growth, so the buffer never exceeds [`MAX_REQUEST_LINE`],
/// even transiently.
pub(crate) fn request_line(buf: &mut Vec<u8>, read: &[u8]) -> Request {
    if buf.len() + read.len() > MAX_REQUEST_LINE {
        return Request::Bad;
    }
    buf.extend_from_slice(read);
    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
        return Request::Partial;
    };
    std::str::from_utf8(&buf[..nl])
        .ok()
        .and_then(|line| parse_request(line.trim_end_matches('\r')))
        .map_or(Request::Bad, Request::Parsed)
}

/// What one read before a status line was complete amounts to.
#[derive(Debug, PartialEq, Eq)]
pub enum StatusLine {
    /// No newline yet; the partial line waits in the header buffer.
    Partial,
    /// `OK <budget>`; the read's `payload` bytes past the newline are
    /// already payload.
    Ok {
        /// The announced wire budget.
        budget: u64,
        /// Payload bytes that arrived behind the newline.
        payload: u64,
    },
    /// `BUSY` (or unparseable): admission turned the transfer away.
    Busy,
    /// No newline within `MAX_REQUEST_LINE`: protocol garbage.
    Garbage,
}

/// Feeds one read into a connection's status-line buffer.
///
/// Only the bytes up to the newline are copied: a server streams payload
/// right behind it, so a first read may carry hundreds of KiB that the
/// reader only counts. The capacity check comes before growth and covers
/// the line alone, and once the line is parsed the buffer is released, so
/// a connection holds at most `MAX_REQUEST_LINE` bytes of header for as
/// long as it lives.
pub fn status_line(header: &mut Vec<u8>, read: &[u8]) -> StatusLine {
    let nl = read.iter().position(|&b| b == b'\n');
    if header.len() + nl.unwrap_or(read.len()) > MAX_REQUEST_LINE {
        return StatusLine::Garbage;
    }
    let Some(p) = nl else {
        header.extend_from_slice(read);
        return StatusLine::Partial;
    };
    header.extend_from_slice(&read[..p]);
    let line = std::mem::take(header);
    let budget = std::str::from_utf8(&line)
        .ok()
        .and_then(|l| l.strip_prefix("OK "))
        .and_then(|v| v.parse().ok());
    match budget {
        Some(budget) => StatusLine::Ok {
            budget,
            payload: (read.len() - p - 1) as u64,
        },
        None => StatusLine::Busy,
    }
}

/// Bytes actually moved over the wire for a transfer of `bytes` trace
/// bytes at the given compression: the byte budget shrinks with time so
/// the *rate* on the wire stays the trace's rate. Non-empty transfers
/// always move at least one byte, so completion is observable.
pub fn wire_budget(bytes: u64, compression: f64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    ((bytes as f64 / compression.max(1.0)).ceil() as u64).max(1)
}

/// Wire pacing position of a feed: bytes a subscriber of a feed encoded
/// at `rate` trace-bytes/second is entitled to after `elapsed` replay
/// nanoseconds. The trace rate carries over to the wire unchanged (both
/// bytes and seconds divide by the compression factor).
pub(crate) fn paced_position(rate: u64, elapsed: Nanos) -> u64 {
    ((u128::from(rate) * u128::from(elapsed)) / 1_000_000_000).min(u128::from(u64::MAX)) as u64
}

/// Inverse of [`paced_position`]: nanoseconds after joining a feed
/// encoded at `rate` trace-bytes/second at which the broadcast has
/// produced `bytes` — the reactor's next pacing deadline. Rounds up,
/// so the position at the returned time is at least `bytes`.
pub(crate) fn pacing_deadline(rate: u64, bytes: u64) -> Nanos {
    let r = u128::from(rate.max(1));
    let num = u128::from(bytes) * 1_000_000_000;
    u64::try_from(num.div_ceil(r)).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer() -> ScheduledTransfer {
        ScheduledTransfer {
            start: 1234,
            duration: 567,
            client: ClientId(42),
            ip: Ipv4Addr(0x7f000001),
            as_id: AsId(7),
            country: CountryCode(*b"BR"),
            object: ObjectId(3),
            camera: 2,
            bytes: 1_000_000,
            avg_bandwidth: 350_000,
            status: 200,
        }
    }

    #[test]
    fn request_round_trips() {
        let t = transfer();
        let line = encode_request(&t);
        assert!(line.len() < MAX_REQUEST_LINE);
        assert_eq!(parse_request(&line), Some(t));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert_eq!(parse_request(""), None);
        assert_eq!(parse_request("GET / HTTP/1.0"), None);
        assert_eq!(parse_request("LSW1 1 2 3"), None);
        let mut line = encode_request(&transfer());
        line.push_str(" extra");
        assert_eq!(parse_request(&line), None);
    }

    #[test]
    fn wire_budget_scales_and_floors() {
        assert_eq!(wire_budget(1_000_000, 100.0), 10_000);
        assert_eq!(wire_budget(5, 100.0), 1); // floor at one observable byte
        assert_eq!(wire_budget(0, 100.0), 0);
        assert_eq!(wire_budget(999, 1.0), 999);
        assert_eq!(wire_budget(100, 0.5), 100); // compression clamps at 1x
    }

    #[test]
    fn pacing_position_is_linear_in_time() {
        assert_eq!(paced_position(48_000, 1_000_000_000), 48_000);
        assert_eq!(paced_position(48_000, 500_000_000), 24_000);
        assert_eq!(paced_position(0, u64::MAX), 0);
    }

    #[test]
    fn pacing_deadline_inverts_position() {
        assert_eq!(pacing_deadline(48_000, 48_000), 1_000_000_000);
        assert_eq!(pacing_deadline(48_000, 24_000), 500_000_000);
        assert_eq!(pacing_deadline(0, 100), pacing_deadline(1, 100));
        // Round-trip: by the returned deadline the position covers the
        // requested bytes, and one nanosecond earlier it does not.
        for (rate, bytes) in [(3u64, 10u64), (48_000, 1), (999_999, 123_456)] {
            let d = pacing_deadline(rate, bytes);
            assert!(paced_position(rate, d) >= bytes);
            assert!(paced_position(rate, d - 1) < bytes);
        }
    }
}
