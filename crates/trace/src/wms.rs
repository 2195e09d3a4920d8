//! Textual wire format for log entries, W3C-extended-log style.
//!
//! Real Windows Media Server 4.1 logs are space-separated text with a
//! `#Fields:` header (§2.3 / \[13\] in the paper). We emit an equivalent
//! schema so traces can be written to disk, inspected with standard Unix
//! tooling, and parsed back without loss:
//!
//! ```text
//! #Software: lsw-sim
//! #Version: 1.0
//! #Fields: x-timestamp c-start x-duration c-playerid c-ip c-as c-country cs-uri-stem x-camera sc-bytes x-avg-bandwidth c-pkts-lost-rate s-cpu-util sc-status
//! 150 100 50 7 200.17.34.5 42 BR /live/feed1.asf 12 500000 34000 0.0100 0.050 200
//! ```
//!
//! The encoder builds each line in a stack buffer without going through
//! `std::fmt`: integers and the dotted IP are written two digits at a
//! time, and the two fractions are rounded exactly (see [`format_entry`]).
//! [`write_log`] streams lines to any [`std::io::Write`];
//! [`format_log`] is the same writer aimed at an in-memory buffer.
//!
//! # Zero-copy parsing
//!
//! The hot ingest path parses **directly from `&[u8]`** with a hand-rolled
//! field scanner ([`parse_line_bytes`]): no intermediate `String`, no
//! `split_ascii_whitespace` iterator machinery, and no formatting on the
//! non-error path. [`LineChunks`] likewise yields raw byte chunks — the
//! streaming reader never materializes a chunk twice. The original
//! string-based parser lives on only as the differential-testing oracle in
//! `trace/tests/parser_differential.rs`.

use crate::event::LogEntry;
use crate::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use bytes::{BufMut, BytesMut};

/// The `#Fields:` header emitted (and required) by this format.
pub const FIELDS_HEADER: &str = "#Fields: x-timestamp c-start x-duration c-playerid c-ip \
     c-as c-country cs-uri-stem x-camera sc-bytes x-avg-bandwidth c-pkts-lost-rate \
     s-cpu-util sc-status";

/// Error from parsing a WMS-style log line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number when known (0 when parsing a bare line).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WMS log parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Serializes one entry as a log line (no trailing newline).
///
/// The bytes are those of the `std::fmt` pattern
/// `"{} {} {} {} {} {} {} {} {} {} {} {:.4} {:.3} {}"` over the fields in
/// header order, without its cost: the line is built on the stack and
/// appended with one `put_slice`. The two fractions are rounded from the
/// exact product `f64::from(v) * 10^d`, which is `std`'s rounding (DESIGN.md
/// §11, "WMS writer").
pub fn format_entry(e: &LogEntry, out: &mut BytesMut) {
    let mut line = Line::new();
    line.entry(e);
    out.put_slice(line.as_bytes());
}

/// Streams a whole trace body with headers to `out`, one `write_all` per
/// line, and flushes it. Give it a buffered writer: every line is a
/// separate call.
pub fn write_log<W: std::io::Write>(entries: &[LogEntry], mut out: W) -> std::io::Result<()> {
    out.write_all(b"#Software: lsw-sim\n#Version: 1.0\n")?;
    out.write_all(FIELDS_HEADER.as_bytes())?;
    out.write_all(b"\n")?;
    let mut line = Line::new();
    for e in entries {
        line.entry(e);
        line.push(b"\n");
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

/// Serializes a whole trace body with headers ([`write_log`] into memory).
pub fn format_log(entries: &[LogEntry]) -> BytesMut {
    let mut out = Vec::with_capacity(entries.len() * 96 + 256);
    let written = write_log(entries, &mut out);
    debug_assert!(written.is_ok(), "io::Write to Vec cannot fail");
    BytesMut::from(out)
}

/// Room for the longest line [`Line::entry`] can build, newline included:
/// 222 bytes, reached only when both fractions take the `std` fallback at
/// `-f32::MAX` (45 and 44 bytes); every other field is bounded by its type.
const MAX_LINE: usize = 256;

/// `"00" "01" … "99"`: the two ASCII digits of `i` at `2i..2i + 2`, so
/// integers are written a digit pair per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// `10^d` for the decimal counts the log uses, as integer and as `f64`.
const POW10_U64: [u64; 5] = [1, 10, 100, 1_000, 10_000];
const POW10_F64: [f64; 5] = [1e0, 1e1, 1e2, 1e3, 1e4];

/// One log line under construction, in a stack buffer that is reused
/// from line to line.
struct Line {
    buf: [u8; MAX_LINE],
    len: usize,
}

impl Line {
    fn new() -> Self {
        Line {
            buf: [0; MAX_LINE],
            len: 0,
        }
    }

    /// Replaces the contents with the line for `e` (no trailing newline).
    #[inline]
    fn entry(&mut self, e: &LogEntry) {
        self.len = 0;
        self.uint(u64::from(e.timestamp));
        self.push(b" ");
        self.uint(u64::from(e.start));
        self.push(b" ");
        self.uint(u64::from(e.duration));
        self.push(b" ");
        self.uint(u64::from(e.client.0));
        self.push(b" ");
        let [a, b, c, d] = e.ip.octets();
        self.uint(u64::from(a));
        self.push(b".");
        self.uint(u64::from(b));
        self.push(b".");
        self.uint(u64::from(c));
        self.push(b".");
        self.uint(u64::from(d));
        self.push(b" ");
        self.uint(u64::from(e.as_id.0));
        self.push(b" ");
        self.push(e.country.as_str().as_bytes());
        self.push(b" /live/feed");
        self.uint(u64::from(e.object.0));
        self.push(b".asf ");
        self.uint(u64::from(e.camera));
        self.push(b" ");
        self.uint(e.bytes);
        self.push(b" ");
        self.uint(u64::from(e.avg_bandwidth));
        self.push(b" ");
        self.fixed::<4>(e.packet_loss);
        self.push(b" ");
        self.fixed::<3>(e.cpu_util);
        self.push(b" ");
        self.uint(u64::from(e.status));
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    #[inline]
    fn push(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }

    /// Appends `n` in decimal, as `{}` does.
    #[inline]
    fn uint(&mut self, mut n: u64) {
        let digits = n.checked_ilog10().map_or(1, |l| l as usize + 1);
        let out = &mut self.buf[self.len..self.len + digits];
        let mut i = digits;
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            i -= 2;
            out[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        let pair = n as usize * 2;
        if n >= 10 {
            out[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            out[0] = DIGIT_PAIRS[pair + 1];
        }
        self.len += digits;
    }

    /// Appends `v` with `D` decimals, as `{:.D}` does.
    ///
    /// `std` prints the exact binary value rounded half-to-even at the
    /// `D`-th decimal. For a finite, non-negative `v` below `10^6`,
    /// `f64::from(v) * 10^D` is exact (a 24-bit mantissa times a 14-bit
    /// `10^4` fits in 53 bits), so rounding that product half-to-even to an
    /// integer is the same rounding: `0.03125` gives `0.0312`, `0.09375`
    /// gives `0.0938`. Every other value (NaN, ±inf, `-0.0`, negatives,
    /// `>= 10^6`) is written by `std` itself.
    #[inline]
    fn fixed<const D: usize>(&mut self, v: f32) {
        if !(v.is_sign_positive() && v < 1e6) {
            return self.fixed_std(v, D);
        }
        // At most 10^6 * 10^4 < 2^64, and already integral: the cast is exact.
        let n = (f64::from(v) * POW10_F64[D]).round_ties_even() as u64;
        self.uint(n / POW10_U64[D]);
        self.push(b".");
        let mut frac = n % POW10_U64[D];
        for slot in self.buf[self.len..self.len + D].iter_mut().rev() {
            *slot = DIGIT_PAIRS[(frac % 10) as usize * 2 + 1];
            frac /= 10;
        }
        self.len += D;
    }

    #[cold]
    fn fixed_std(&mut self, v: f32, decimals: usize) {
        use std::fmt::Write as _;
        let written = write!(self, "{v:.decimals$}");
        debug_assert!(written.is_ok(), "MAX_LINE holds every field");
    }
}

impl std::fmt::Write for Line {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.push(s.as_bytes());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Zero-copy field scanner
// ---------------------------------------------------------------------------

/// Cursor over one log line's bytes, splitting on ASCII-whitespace runs.
///
/// Equivalent to `split_ascii_whitespace` but monomorphic, allocation-free
/// and without iterator adaptor overhead. The typed `next_*` methods fuse
/// field splitting with value parsing — one traversal per field instead of
/// a boundary scan followed by a digit scan — while accepting exactly the
/// same grammar as splitting first and parsing second (the error path
/// rescans the field, but only the error path).
struct FieldScanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Exact powers of ten up to `10^7`, all exactly representable in `f32`
/// (they stay below `2^24`), for the fast decimal-to-float path.
const POW10_F32: [f32; 8] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7];

impl<'a> FieldScanner<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next whitespace-delimited field, or `None` at end of line.
    fn next_field(&mut self) -> Option<&'a [u8]> {
        while self.pos < self.buf.len() && self.buf[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.pos >= self.buf.len() {
            return None;
        }
        let start = self.pos;
        while self.pos < self.buf.len() && !self.buf[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        Some(&self.buf[start..self.pos])
    }

    /// Skips whitespace to the next field, or errors as a missing field.
    #[inline]
    fn begin_field(&mut self, i: usize) -> Result<usize, ParseError> {
        while self.pos < self.buf.len() && self.buf[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.pos >= self.buf.len() {
            return Err(field_error(i, None));
        }
        Ok(self.pos)
    }

    /// True at a field boundary (whitespace or end of line).
    #[inline]
    fn at_field_end(&self) -> bool {
        self.pos >= self.buf.len() || self.buf[self.pos].is_ascii_whitespace()
    }

    /// Consumes the rest of the current field and builds its error —
    /// cold path only, so the rescan never taxes well-formed lines.
    #[cold]
    fn bad_field(&mut self, i: usize, start: usize) -> ParseError {
        while self.pos < self.buf.len() && !self.buf[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        field_error(i, Some(&self.buf[start..self.pos]))
    }

    /// Parses the next field as unsigned decimal (`str::parse::<u64>`
    /// grammar: optional `+`, one or more digits, overflow rejected).
    #[inline]
    fn next_u64(&mut self, i: usize) -> Result<u64, ParseError> {
        let start = self.begin_field(i)?;
        if self.buf[self.pos] == b'+' {
            self.pos += 1;
        }
        let mut acc: u64 = 0;
        let mut any = false;
        while self.pos < self.buf.len() {
            let d = self.buf[self.pos].wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            any = true;
            match acc
                .checked_mul(10)
                .and_then(|a| a.checked_add(u64::from(d)))
            {
                Some(a) => acc = a,
                None => return Err(self.bad_field(i, start)),
            }
            self.pos += 1;
        }
        if !any || !self.at_field_end() {
            return Err(self.bad_field(i, start));
        }
        Ok(acc)
    }

    /// [`next_u64`](Self::next_u64) narrowed to `u32`.
    #[inline]
    fn next_u32(&mut self, i: usize) -> Result<u32, ParseError> {
        let start = self.pos;
        match u32::try_from(self.next_u64(i)?) {
            Ok(v) => Ok(v),
            Err(_) => {
                // Field already consumed; rewind so the error names it.
                self.pos = start;
                let at = self.begin_field(i)?;
                Err(self.bad_field(i, at))
            }
        }
    }

    /// [`next_u64`](Self::next_u64) narrowed to `u16`.
    #[inline]
    fn next_u16(&mut self, i: usize) -> Result<u16, ParseError> {
        let start = self.pos;
        match u16::try_from(self.next_u64(i)?) {
            Ok(v) => Ok(v),
            Err(_) => {
                self.pos = start;
                let at = self.begin_field(i)?;
                Err(self.bad_field(i, at))
            }
        }
    }

    /// [`next_u64`](Self::next_u64) narrowed to `u8`.
    #[inline]
    fn next_u8(&mut self, i: usize) -> Result<u8, ParseError> {
        let start = self.pos;
        match u8::try_from(self.next_u64(i)?) {
            Ok(v) => Ok(v),
            Err(_) => {
                self.pos = start;
                let at = self.begin_field(i)?;
                Err(self.bad_field(i, at))
            }
        }
    }

    /// Parses the next field as a dotted-quad IPv4 address: four octets
    /// (each with the unsigned-decimal grammar, value <= 255) joined by
    /// single dots, nothing trailing.
    #[inline]
    fn next_ipv4(&mut self, i: usize) -> Result<Ipv4Addr, ParseError> {
        let start = self.begin_field(i)?;
        let mut octets = [0u8; 4];
        for (k, o) in octets.iter_mut().enumerate() {
            if k > 0 {
                if self.pos >= self.buf.len() || self.buf[self.pos] != b'.' {
                    return Err(self.bad_field(i, start));
                }
                self.pos += 1;
            }
            if self.pos < self.buf.len() && self.buf[self.pos] == b'+' {
                self.pos += 1;
            }
            let mut acc: u32 = 0;
            let mut any = false;
            while self.pos < self.buf.len() {
                let d = self.buf[self.pos].wrapping_sub(b'0');
                if d > 9 {
                    break;
                }
                any = true;
                // Saturate instead of overflowing: any value past 255 is
                // equally invalid, however many digits follow.
                acc = (acc * 10 + u32::from(d)).min(1000);
                self.pos += 1;
            }
            if !any || acc > 255 {
                return Err(self.bad_field(i, start));
            }
            // lsw::allow(L011): acc <= 255 is checked on the line above
            *o = acc as u8;
        }
        if !self.at_field_end() {
            return Err(self.bad_field(i, start));
        }
        Ok(Ipv4Addr::from_octets(
            octets[0], octets[1], octets[2], octets[3],
        ))
    }

    /// Parses the next field as `f32`.
    ///
    /// Fields matching `\d*\.?\d*` with 1..=7 digits take the exact fast
    /// path: a `< 2^24` integer mantissa divided by an exact power of ten
    /// is one correctly-rounded IEEE operation, bit-identical to the
    /// standard library's correctly-rounded decimal conversion. Everything
    /// else (signs, exponents, inf/NaN, long mantissas) falls back to
    /// `str::parse::<f32>` on the whole field.
    #[inline]
    fn next_f32(&mut self, i: usize) -> Result<f32, ParseError> {
        let start = self.begin_field(i)?;
        let mut mant: u32 = 0;
        let mut digits = 0u32;
        let mut frac = 0usize;
        let mut seen_dot = false;
        let mut fast = true;
        let mut p = self.pos;
        while p < self.buf.len() {
            let b = self.buf[p];
            let d = b.wrapping_sub(b'0');
            if d <= 9 {
                digits += 1;
                if digits > 7 {
                    fast = false;
                    break;
                }
                mant = mant * 10 + u32::from(d);
                frac += usize::from(seen_dot);
            } else if b == b'.' && !seen_dot {
                seen_dot = true;
            } else if b.is_ascii_whitespace() {
                break;
            } else {
                fast = false;
                break;
            }
            p += 1;
        }
        if fast && digits > 0 {
            self.pos = p;
            // lsw::allow(L011): digits <= 7 so mant < 10^7 < 2^24 is exact in f32
            return Ok(mant as f32 / POW10_F32[frac]);
        }
        // Fallback: delegate the full float grammar to the standard
        // library on the borrowed field slice.
        self.pos = start;
        let Some(field) = self.next_field() else {
            return Err(field_error(i, None));
        };
        match std::str::from_utf8(field).ok().and_then(|s| s.parse().ok()) {
            Some(v) => Ok(v),
            None => Err(field_error(i, Some(field))),
        }
    }
}

/// Parses an unsigned decimal integer with the same acceptance rules as
/// `str::parse::<uN>`: optional leading `+`, at least one ASCII digit,
/// overflow rejected. Returns `None` on any violation.
#[inline]
fn parse_u64_ascii(field: &[u8]) -> Option<u64> {
    let digits = match field.first() {
        Some(b'+') => &field[1..],
        _ => field,
    };
    if digits.is_empty() {
        return None;
    }
    let mut acc: u64 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(acc)
}

/// Range-checked downcast helper for the narrower log fields.
#[inline]
fn parse_u16_ascii(field: &[u8]) -> Option<u16> {
    parse_u64_ascii(field).and_then(|v| u16::try_from(v).ok())
}

/// Extracts the object id from a `/live/feedN.asf` URI stem (byte form).
#[inline]
fn parse_uri_bytes(uri: &[u8]) -> Option<ObjectId> {
    let rest = uri.strip_prefix(b"/live/feed")?;
    let digits = rest.strip_suffix(b".asf")?;
    parse_u16_ascii(digits).map(ObjectId)
}

/// Parses a two-letter uppercase country code from raw bytes.
#[inline]
fn parse_country_ascii(field: &[u8]) -> Option<CountryCode> {
    match field {
        [a, b] if a.is_ascii_uppercase() && b.is_ascii_uppercase() => Some(CountryCode([*a, *b])),
        _ => None,
    }
}

/// Names of the 14 fields, indexed by position — used only on the error
/// path so the hot loop never touches them.
const FIELD_NAMES: [&str; 14] = [
    "x-timestamp",
    "c-start",
    "x-duration",
    "c-playerid",
    "c-ip",
    "c-as",
    "c-country",
    "cs-uri-stem",
    "x-camera",
    "sc-bytes",
    "x-avg-bandwidth",
    "c-pkts-lost-rate",
    "s-cpu-util",
    "sc-status",
];

/// Builds the error for field index `i` — cold path only.
#[cold]
fn field_error(i: usize, field: Option<&[u8]>) -> ParseError {
    let name = FIELD_NAMES.get(i).copied().unwrap_or("?");
    let message = match field {
        None => format!("missing field {name}"),
        // lsw::allow(L006): #[cold] error constructor, off the per-record path
        Some(f) => format!("bad {name} {:?}", String::from_utf8_lossy(f)),
    };
    ParseError { line: 0, message }
}

#[cold]
fn trailing_error() -> ParseError {
    ParseError {
        line: 0,
        message: "trailing fields".into(),
    }
}

/// Parses one (non-comment) log line directly from bytes.
///
/// This is the hot-path parser: a hand-rolled field scanner over `&[u8]`
/// with zero allocations and zero formatting on the success path. Accepts
/// exactly the same lines as the original `split_ascii_whitespace` +
/// `FromStr` parser, which `tests/parser_differential.rs` keeps as its
/// oracle.
pub fn parse_line_bytes(line: &[u8]) -> Result<LogEntry, ParseError> {
    let mut sc = FieldScanner::new(line);
    // Monomorphic scan, one traversal per field: the typed scanner methods
    // parse while they split, and the short free-form fields (country,
    // URI stem) split first and parse second; any failure routes through
    // the cold error constructor with the field's positional name.
    macro_rules! field {
        ($i:literal, $parse:expr) => {{
            let f = sc.next_field();
            match f.and_then($parse) {
                Some(v) => v,
                None => return Err(field_error($i, f)),
            }
        }};
    }
    let timestamp = sc.next_u32(0)?;
    let start = sc.next_u32(1)?;
    let duration = sc.next_u32(2)?;
    let client = ClientId(sc.next_u32(3)?);
    let ip = sc.next_ipv4(4)?;
    let as_id = AsId(sc.next_u16(5)?);
    let country = field!(6, parse_country_ascii);
    let object = field!(7, parse_uri_bytes);
    let camera = sc.next_u8(8)?;
    let bytes = sc.next_u64(9)?;
    let avg_bandwidth = sc.next_u32(10)?;
    let packet_loss = sc.next_f32(11)?;
    let cpu_util = sc.next_f32(12)?;
    let status = sc.next_u16(13)?;
    if sc.next_field().is_some() {
        return Err(trailing_error());
    }
    Ok(LogEntry {
        timestamp,
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
        packet_loss,
        cpu_util,
        status,
    })
}

/// Parses one (non-comment) log line.
///
/// Thin wrapper over the zero-copy byte parser ([`parse_line_bytes`]).
pub fn parse_line(line: &str) -> Result<LogEntry, ParseError> {
    parse_line_bytes(line.as_bytes())
}

/// Streaming line parser: yields one `Result` per non-comment line.
///
/// Unlike [`parse_log`] this iterator *recovers* from malformed lines:
/// an `Err` item carries the 1-based line number and the iterator keeps
/// going, so callers can skip-and-count bad lines instead of aborting.
/// Comment (`#`) and blank lines are silently skipped (they still advance
/// the line numbering).
#[derive(Debug, Clone)]
pub struct ParsedLines<'a> {
    inner: std::str::Lines<'a>,
    /// 1-based number of the *next* line `inner` will yield.
    next_line: usize,
}

impl Iterator for ParsedLines<'_> {
    /// The line number and entry on success, a numbered error otherwise.
    type Item = Result<(usize, LogEntry), ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        for raw in self.inner.by_ref() {
            let line_no = self.next_line;
            self.next_line += 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            return Some(match parse_line(line) {
                Ok(e) => Ok((line_no, e)),
                Err(mut e) => {
                    e.line = line_no;
                    Err(e)
                }
            });
        }
        None
    }
}

/// Streams `text` line by line with per-line error recovery.
pub fn parse_lines(text: &str) -> ParsedLines<'_> {
    parse_lines_from(text, 1)
}

/// Like [`parse_lines`] but numbering lines from `first_line` — for
/// callers feeding chunks of a larger stream (see [`LineChunks`]).
pub fn parse_lines_from(text: &str, first_line: usize) -> ParsedLines<'_> {
    ParsedLines {
        inner: text.lines(),
        next_line: first_line.max(1),
    }
}

/// Iterator over the lines of a byte buffer.
///
/// Splits on `\n` and strips one trailing `\r` per line, mirroring
/// `str::lines` — so byte-path and string-path line numbering always
/// agree. Zero-copy: each item borrows from the input buffer.
#[derive(Debug, Clone)]
pub struct ByteLines<'a> {
    rest: &'a [u8],
}

/// Splits `bytes` into lines (`\n`-terminated, trailing `\r` stripped).
pub fn byte_lines(bytes: &[u8]) -> ByteLines<'_> {
    ByteLines { rest: bytes }
}

/// Position of the first `\n` in `hay`, scanning a word at a time
/// (SWAR zero-byte trick on `hay ^ \n`); the byte loop only runs on the
/// sub-word tail.
#[inline]
fn find_newline(hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const NL: u64 = 0x0A0A_0A0A_0A0A_0A0A;
    let mut i = 0;
    while i + 8 <= hay.len() {
        // lsw::allow(L005): an 8-byte slice always converts to [u8; 8]
        let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8-byte slice")) ^ NL;
        let hit = w.wrapping_sub(LO) & !w & HI;
        if hit != 0 {
            return Some(i + (hit.trailing_zeros() >> 3) as usize);
        }
        i += 8;
    }
    hay[i..].iter().position(|&b| b == b'\n').map(|p| i + p)
}

impl<'a> Iterator for ByteLines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        // `str::lines` semantics: split on `\n`, strip a `\r` only when it
        // immediately precedes the `\n`; a final unterminated line keeps
        // any trailing `\r`.
        match find_newline(self.rest) {
            Some(pos) => {
                let mut line = &self.rest[..pos];
                self.rest = &self.rest[pos + 1..];
                if let Some((b'\r', head)) = line.split_last() {
                    line = head;
                }
                Some(line)
            }
            None => Some(std::mem::take(&mut self.rest)),
        }
    }
}

/// Streaming byte-line parser: the zero-copy counterpart of
/// [`ParsedLines`], yielding one `Result` per non-comment line with the
/// same skip/recover/numbering semantics.
#[derive(Debug, Clone)]
pub struct ParsedByteLines<'a> {
    inner: ByteLines<'a>,
    next_line: usize,
}

impl Iterator for ParsedByteLines<'_> {
    type Item = Result<(usize, LogEntry), ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        for raw in self.inner.by_ref() {
            let line_no = self.next_line;
            self.next_line += 1;
            let line = raw.trim_ascii();
            if line.is_empty() || line[0] == b'#' {
                continue;
            }
            return Some(match parse_line_bytes(line) {
                Ok(e) => Ok((line_no, e)),
                Err(mut e) => {
                    e.line = line_no;
                    Err(e)
                }
            });
        }
        None
    }
}

/// Streams raw bytes line by line through the zero-copy parser.
pub fn parse_lines_bytes(bytes: &[u8]) -> ParsedByteLines<'_> {
    parse_lines_bytes_from(bytes, 1)
}

/// Like [`parse_lines_bytes`] but numbering lines from `first_line`.
pub fn parse_lines_bytes_from(bytes: &[u8], first_line: usize) -> ParsedByteLines<'_> {
    ParsedByteLines {
        inner: byte_lines(bytes),
        next_line: first_line.max(1),
    }
}

/// Parses a whole log (headers + lines). Comment lines start with `#`.
///
/// Thin strict wrapper over [`parse_lines`]: stops at the first malformed
/// line and returns its error (with the line number filled in).
pub fn parse_log(text: &str) -> Result<Vec<LogEntry>, ParseError> {
    parse_lines(text).map(|r| r.map(|(_, e)| e)).collect()
}

/// One batch of complete lines from a [`LineChunks`] reader.
#[derive(Debug, Clone)]
pub struct LineChunk {
    /// The raw chunk bytes; every line in it is complete. Never re-copied:
    /// the reader hands its fill buffer over by move.
    pub bytes: Vec<u8>,
    /// 1-based number of the chunk's first line within the whole stream.
    pub first_line: usize,
}

impl LineChunk {
    /// Number of lines in the chunk (a final unterminated line counts).
    pub fn line_count(&self) -> usize {
        let mut lines = self.bytes.iter().filter(|&&b| b == b'\n').count();
        if self.bytes.last().is_some_and(|&b| b != b'\n') {
            lines += 1;
        }
        lines
    }
}

/// Reads a byte stream as chunks of whole lines, in bounded memory.
///
/// Each yielded [`LineChunk`] contains only complete lines: a partial
/// trailing line is carried into the next chunk, and the final chunk
/// flushes whatever remains at EOF. This is the streaming replacement for
/// the whole-file `read_to_string` + [`parse_log`] path — memory use is
/// `chunk_bytes` plus one carried line, independent of file size. Chunks
/// are raw bytes, moved (never copied) out of the fill buffer; non-UTF-8
/// bytes simply fail field parsing downstream, surfacing as counted
/// malformed lines.
#[derive(Debug)]
pub struct LineChunks<R> {
    reader: R,
    carry: Vec<u8>,
    chunk_bytes: usize,
    next_line: usize,
    done: bool,
}

impl<R: std::io::Read> LineChunks<R> {
    /// Wraps `reader`, yielding chunks of roughly `chunk_bytes` (min 4 KiB).
    pub fn new(reader: R, chunk_bytes: usize) -> Self {
        Self {
            reader,
            carry: Vec::new(),
            chunk_bytes: chunk_bytes.max(4096),
            next_line: 1,
            done: false,
        }
    }

    fn emit(&mut self, bytes: Vec<u8>) -> LineChunk {
        let chunk = LineChunk {
            bytes,
            first_line: self.next_line,
        };
        self.next_line += chunk.line_count();
        chunk
    }
}

impl<R: std::io::Read> Iterator for LineChunks<R> {
    type Item = std::io::Result<LineChunk>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut buf = std::mem::take(&mut self.carry);
        loop {
            let mut filled = buf.len();
            buf.resize(filled + self.chunk_bytes, 0);
            loop {
                match self.reader.read(&mut buf[filled..]) {
                    Ok(0) => {
                        // EOF: flush everything that remains.
                        buf.truncate(filled);
                        self.done = true;
                        return (!buf.is_empty()).then(|| Ok(self.emit(buf)));
                    }
                    Ok(n) => {
                        filled += n;
                        if filled == buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            }
            buf.truncate(filled);
            // Split at the last newline; carry the partial tail line. A
            // chunk with no newline at all keeps growing `buf` until one
            // arrives (pathological single-line input stays correct).
            if let Some(pos) = buf.iter().rposition(|&b| b == b'\n') {
                self.carry = buf.split_off(pos + 1);
                return Some(Ok(self.emit(buf)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogEntryBuilder;

    fn sample_entry() -> LogEntry {
        LogEntryBuilder::new()
            .span(100, 50)
            .client(ClientId(7))
            .origin(
                Ipv4Addr::from_octets(200, 17, 34, 5),
                AsId(42),
                CountryCode(*b"BR"),
            )
            .object(ObjectId(1), 12)
            .transfer_stats(500_000, 34_000, 0.01)
            .server(0.05, 200)
            .build()
    }

    #[test]
    fn round_trip_single_entry() {
        let e = sample_entry();
        let mut buf = BytesMut::new();
        format_entry(&e, &mut buf);
        let line = std::str::from_utf8(&buf).unwrap();
        let parsed = parse_line(line).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn round_trip_full_log() {
        let entries: Vec<LogEntry> = (0..100)
            .map(|i| {
                LogEntryBuilder::new()
                    .span(i * 10, (i % 7) + 1)
                    .client(ClientId(i % 13))
                    .object(ObjectId((i % 2) as u16), (i % 48) as u8)
                    .transfer_stats(u64::from(i) * 1_000, 34_000, 0.0)
                    .build()
            })
            .collect();
        let text = format_log(&entries);
        let parsed = parse_log(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn header_lines_skipped() {
        let text = "#Software: x\n#Fields: whatever\n\n";
        assert!(parse_log(text).unwrap().is_empty());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "#header\n1 2 3 not-a-number\n";
        let err = parse_log(text).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("1 2 3").is_err()); // too few fields
        let mut buf = BytesMut::new();
        format_entry(&sample_entry(), &mut buf);
        let line = format!("{} extra", std::str::from_utf8(&buf).unwrap());
        assert!(parse_line(&line).is_err()); // trailing field
    }

    #[test]
    fn rejects_bad_uri() {
        let mut buf = BytesMut::new();
        format_entry(&sample_entry(), &mut buf);
        let line = std::str::from_utf8(&buf)
            .unwrap()
            .replace("/live/feed1.asf", "/evil.mp4");
        assert!(parse_line(&line).is_err());
    }

    /// Runs one fused scanner method over a standalone field, requiring
    /// the whole input to be consumed — the test-side analogue of the old
    /// split-then-parse helpers.
    fn scan_one<T>(
        s: &[u8],
        f: impl FnOnce(&mut FieldScanner<'_>) -> Result<T, ParseError>,
    ) -> Option<T> {
        let mut sc = FieldScanner::new(s);
        let v = f(&mut sc).ok()?;
        sc.next_field().is_none().then_some(v)
    }

    fn scan_u32(s: &[u8]) -> Option<u32> {
        scan_one(s, |sc| sc.next_u32(0))
    }

    #[test]
    fn integer_fields_follow_std_acceptance_rules() {
        // Optional '+', no '-', no empty, overflow rejected — exactly
        // str::parse::<uN> semantics, so the string-parser oracle agrees.
        assert_eq!(scan_u32(b"+5"), Some(5));
        assert_eq!(scan_u32(b"0"), Some(0));
        assert_eq!(scan_u32(b"4294967295"), Some(u32::MAX));
        assert_eq!(scan_u32(b"4294967296"), None);
        assert_eq!(scan_u32(b"-1"), None);
        assert_eq!(scan_u32(b""), None);
        assert_eq!(scan_u32(b"+"), None);
        assert_eq!(scan_u32(b"1_0"), None);
        assert_eq!(
            scan_one(b"18446744073709551615", |sc| sc.next_u64(0)),
            Some(u64::MAX)
        );
        assert_eq!(scan_one(b"18446744073709551616", |sc| sc.next_u64(0)), None);
    }

    #[test]
    fn ip_parsing_matches_fromstr() {
        use std::str::FromStr;
        for s in [
            "200.17.34.5",
            "0.0.0.0",
            "255.255.255.255",
            "1.2.3",
            "1.2.3.4.5",
            "1.2.3.256",
            "1.2.3.00000000000000256",
            "a.b.c.d",
            "...",
            "+1.+2.+3.+4",
        ] {
            let fast = scan_one(s.as_bytes(), |sc| sc.next_ipv4(0));
            let slow = Ipv4Addr::from_str(s).ok();
            assert_eq!(fast, slow, "ip {s:?}");
        }
    }

    #[test]
    fn float_fast_path_matches_std_parse() {
        // The fused f32 path must be bit-identical to str::parse::<f32>
        // on every field the encoder can emit and fall back (same bits
        // again) on everything else.
        for s in [
            "0.0100",
            "0.050",
            "0.9999",
            "1.0000",
            "12.345",
            "0.0001",
            "5.",
            ".5",
            "7",
            "9999999",
            "10000000",
            "123.4567",
            "1e3",
            "-0.5",
            "+0.5",
            "inf",
            "NaN",
            "3.40282347e38",
        ] {
            let fast = scan_one(s.as_bytes(), |sc| sc.next_f32(0));
            let slow = s.parse::<f32>().ok();
            assert_eq!(
                fast.map(f32::to_bits),
                slow.map(f32::to_bits),
                "f32 {s:?}: {fast:?} vs {slow:?}"
            );
        }
    }

    #[test]
    fn parse_lines_recovers_and_numbers() {
        let mut good = BytesMut::new();
        format_entry(&sample_entry(), &mut good);
        let good = std::str::from_utf8(&good).unwrap();
        let text = format!("#header\n{good}\ngarbage line\n\n{good}\n");
        let items: Vec<_> = parse_lines(&text).collect();
        assert_eq!(items.len(), 3, "two entries and one recoverable error");
        assert_eq!(items[0].as_ref().unwrap().0, 2);
        assert_eq!(items[1].as_ref().unwrap_err().line, 3);
        assert_eq!(items[2].as_ref().unwrap().0, 5);
        // Byte-path parity: same entries, same numbering.
        let byte_items: Vec<_> = parse_lines_bytes(text.as_bytes()).collect();
        assert_eq!(byte_items.len(), 3);
        assert_eq!(byte_items[0].as_ref().unwrap().0, 2);
        assert_eq!(byte_items[1].as_ref().unwrap_err().line, 3);
        assert_eq!(byte_items[2].as_ref().unwrap().0, 5);
    }

    #[test]
    fn byte_lines_match_str_lines() {
        for text in [
            "a\nb\nc",
            "a\nb\nc\n",
            "",
            "\n",
            "one line no newline",
            "crlf\r\nline\r\n",
            "trailing\r",
        ] {
            let from_str: Vec<&str> = text.lines().collect();
            let from_bytes: Vec<&[u8]> = byte_lines(text.as_bytes()).collect();
            assert_eq!(
                from_bytes.len(),
                from_str.len(),
                "line count differs on {text:?}"
            );
            for (b, s) in from_bytes.iter().zip(&from_str) {
                assert_eq!(*b, s.as_bytes(), "line differs on {text:?}");
            }
        }
    }

    #[test]
    fn parse_log_is_thin_wrapper() {
        let text = "#header\n1 2 3 not-a-number\n";
        assert_eq!(parse_log(text).unwrap_err().line, 2);
    }

    #[test]
    fn line_chunks_reassemble_stream() {
        let entries: Vec<LogEntry> = (0..57)
            .map(|i| {
                LogEntryBuilder::new()
                    .span(i * 10, (i % 7) + 1)
                    .client(ClientId(i % 13))
                    .transfer_stats(u64::from(i) * 1_000, 34_000, 0.0)
                    .build()
            })
            .collect();
        let text = format_log(&entries);
        // Tiny chunks force many carry splits.
        let mut parsed = Vec::new();
        let mut next_expected_line = 1usize;
        for chunk in LineChunks::new(&text[..], 64) {
            let chunk = chunk.unwrap();
            assert_eq!(chunk.first_line, next_expected_line);
            for item in parse_lines_bytes_from(&chunk.bytes, chunk.first_line) {
                parsed.push(item.unwrap().1);
            }
            next_expected_line += chunk.line_count();
        }
        assert_eq!(parsed, entries);
    }

    #[test]
    fn line_chunks_flush_unterminated_tail() {
        let data = b"line one\nline two without newline";
        let chunks: Vec<LineChunk> = LineChunks::new(&data[..], 4096)
            .map(|c| c.unwrap())
            .collect();
        let all: Vec<u8> = chunks.iter().flat_map(|c| c.bytes.clone()).collect();
        assert_eq!(all, data);
    }

    #[test]
    fn line_count_counts_an_unterminated_tail() {
        let count = |b: &[u8]| {
            LineChunk {
                bytes: b.to_vec(),
                first_line: 1,
            }
            .line_count()
        };
        assert_eq!(count(b""), 0);
        assert_eq!(count(b"\n"), 1);
        assert_eq!(count(b"a\nb\n"), 2);
        assert_eq!(count(b"a\nb"), 2);
    }

    #[test]
    fn line_chunks_keep_a_line_longer_than_the_chunk_whole() {
        let long = vec![b'x'; 10_000];
        let data = [long.as_slice(), b"\nshort\n"].concat();
        let chunks: Vec<LineChunk> = LineChunks::new(&data[..], 4096)
            .map(|c| c.unwrap())
            .collect();
        // No chunk boundary falls inside the long line.
        assert!(chunks[0].bytes.len() > 10_000);
        assert_eq!(chunks[0].bytes[10_000], b'\n');
        assert_eq!(chunks.iter().map(LineChunk::line_count).sum::<usize>(), 2);
        let all: Vec<u8> = chunks.iter().flat_map(|c| c.bytes.clone()).collect();
        assert_eq!(all, data);
    }

    #[test]
    fn line_chunks_of_empty_input_yield_nothing() {
        assert!(LineChunks::new(&b""[..], 4096).next().is_none());
    }

    #[test]
    fn line_chunks_end_after_a_read_error() {
        struct Broken;
        impl std::io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        let mut chunks = LineChunks::new(Broken, 4096);
        let err = chunks.next().unwrap().unwrap_err();
        assert_eq!(err.to_string(), "disk gone");
        assert!(chunks.next().is_none());
    }

    #[test]
    fn packet_loss_precision_preserved() {
        let mut e = sample_entry();
        e.packet_loss = 0.1234;
        let mut buf = BytesMut::new();
        format_entry(&e, &mut buf);
        let parsed = parse_line(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert!((parsed.packet_loss - 0.1234).abs() < 1e-6);
    }
}
