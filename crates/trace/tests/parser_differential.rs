//! Differential tests: the zero-copy byte parser must accept exactly the
//! lines the original string parser accepts, producing identical entries
//! and flagging errors on identical line numbers.
//!
//! The original `split_ascii_whitespace` + `FromStr` implementation lives
//! in the [`oracle`] module below, purely as the reference for these
//! tests; the zero-copy scanner is the only parser in the library. Error
//! *messages* are not compared — the scanner reports positional field
//! names from a static table while the oracle formats `FromStr` errors —
//! but Ok/Err shape, line numbers, and parsed entries must agree byte for
//! byte.

use lsw_trace::event::{LogEntry, LogEntryBuilder};
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::wms;
use proptest::prelude::*;

/// The original string-based WMS line parser.
mod oracle {
    use lsw_trace::event::LogEntry;
    use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
    use lsw_trace::wms::ParseError;
    use std::str::FromStr;

    /// Extracts the object id from a `/live/feedN.asf` URI stem.
    fn parse_uri(uri: &str) -> Option<ObjectId> {
        let digits = uri.strip_prefix("/live/feed")?.strip_suffix(".asf")?;
        digits.parse().ok().map(ObjectId)
    }

    /// Parses one log line through `split_ascii_whitespace` + `FromStr`,
    /// exactly as the pre-zero-copy implementation did.
    pub fn parse_line_str(line: &str) -> Result<LogEntry, ParseError> {
        let err = |msg: String| ParseError {
            line: 0,
            message: msg,
        };
        let mut it = line.split_ascii_whitespace();
        let mut next = |name: &str| {
            it.next()
                .ok_or_else(|| err(format!("missing field {name}")))
        };

        fn num<T: FromStr>(s: &str, name: &str) -> Result<T, ParseError>
        where
            T::Err: std::fmt::Display,
        {
            s.parse::<T>().map_err(|e| ParseError {
                line: 0,
                message: format!("bad {name} {s:?}: {e}"),
            })
        }

        let timestamp: u32 = num(next("x-timestamp")?, "x-timestamp")?;
        let start: u32 = num(next("c-start")?, "c-start")?;
        let duration: u32 = num(next("x-duration")?, "x-duration")?;
        let client = ClientId(num(next("c-playerid")?, "c-playerid")?);
        let ip = Ipv4Addr::from_str(next("c-ip")?).map_err(|e| err(format!("bad c-ip: {e}")))?;
        let as_id = AsId(num(next("c-as")?, "c-as")?);
        let country =
            CountryCode::new(next("c-country")?).map_err(|e| err(format!("bad c-country: {e}")))?;
        let uri = next("cs-uri-stem")?;
        let object = parse_uri(uri).ok_or_else(|| err(format!("bad cs-uri-stem {uri:?}")))?;
        let camera: u8 = num(next("x-camera")?, "x-camera")?;
        let bytes: u64 = num(next("sc-bytes")?, "sc-bytes")?;
        let avg_bandwidth: u32 = num(next("x-avg-bandwidth")?, "x-avg-bandwidth")?;
        let packet_loss: f32 = num(next("c-pkts-lost-rate")?, "c-pkts-lost-rate")?;
        let cpu_util: f32 = num(next("s-cpu-util")?, "s-cpu-util")?;
        let status: u16 = num(next("sc-status")?, "sc-status")?;
        if it.next().is_some() {
            return Err(err("trailing fields".into()));
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

    /// Streams `text` line by line through the string parser, skipping
    /// blank and `#` lines and numbering from 1 — the counterpart of
    /// `wms::parse_lines_bytes`.
    pub fn parse_lines_str(text: &str) -> Vec<Result<(usize, LogEntry), ParseError>> {
        text.lines()
            .enumerate()
            .map(|(i, raw)| (i + 1, raw.trim()))
            .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
            .map(|(line_no, line)| match parse_line_str(line) {
                Ok(e) => Ok((line_no, e)),
                Err(mut e) => {
                    e.line = line_no;
                    Err(e)
                }
            })
            .collect()
    }
}

/// Strategy producing a valid log entry spanning the full field ranges the
/// wire format can carry (not just paper-plausible values).
fn arb_entry() -> impl Strategy<Value = LogEntry> {
    (
        0u32..u32::MAX, // start
        0u32..u32::MAX, // duration
        0u32..u32::MAX, // client
        0u32..u32::MAX, // ip
        0u16..u16::MAX, // as
        0u16..1_000,    // object
        0u8..u8::MAX,   // camera
        0u64..u64::MAX, // bytes
        0u32..u32::MAX, // bandwidth
        0.0f32..1.0,    // loss
        0.0f32..1.0,    // cpu
        100u16..600,    // status
    )
        .prop_map(
            |(start, dur, client, ip, asn, obj, cam, bytes, bw, loss, cpu, status)| {
                // The wire format writes packet loss at 4 decimals and CPU
                // utilization at 3, so round-tripping requires values
                // already on those grids.
                let loss = format!("{loss:.4}").parse::<f32>().expect("quantized f32");
                let cpu = format!("{cpu:.3}").parse::<f32>().expect("quantized f32");
                LogEntryBuilder::new()
                    .span(start, dur)
                    .client(ClientId(client))
                    .origin(Ipv4Addr(ip), AsId(asn), CountryCode(*b"US"))
                    .object(ObjectId(obj), cam)
                    .transfer_stats(bytes, bw, loss)
                    .server(cpu, status)
                    .build()
            },
        )
}

/// Runs both parsers over `text` and asserts the Result streams match:
/// same length, Ok lines carry identical `(line, entry)` pairs, Err lines
/// carry identical line numbers.
fn assert_streams_agree(text: &str) {
    let fast: Vec<_> = wms::parse_lines_bytes(text.as_bytes()).collect();
    let slow = oracle::parse_lines_str(text);
    assert_eq!(fast.len(), slow.len(), "stream lengths differ");
    for (f, s) in fast.iter().zip(&slow) {
        match (f, s) {
            (Ok(fe), Ok(se)) => assert_eq!(fe, se, "entries differ"),
            (Err(fe), Err(se)) => assert_eq!(fe.line, se.line, "error lines differ"),
            _ => panic!("classification differs: fast {f:?} vs oracle {s:?}"),
        }
    }
}

fn render(entries: &[LogEntry]) -> String {
    String::from_utf8(wms::format_log(entries).to_vec()).expect("log is ASCII")
}

/// Just the record lines (headers stripped) — mutation targets.
fn record_lines(entries: &[LogEntry]) -> Vec<String> {
    render(entries)
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

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
fn byte_and_str_parsers_agree_on_pathologies() {
    let good = record_lines(&[sample_entry()]).remove(0);
    assert_eq!(oracle::parse_line_str(&good).unwrap(), sample_entry());
    let cases = [
        good.clone(),
        good.replace("200.17.34.5", "999.1.1.1"),
        good.replace(" BR ", " br "),
        good.replace(" BR ", " BRA "),
        format!("{good} trailing"),
        "1 2 3".to_string(),
        String::new(),
        "   \t  ".to_string(),
        good.replace("0.0100", "abc"),
    ];
    for case in &cases {
        let fast = wms::parse_line_bytes(case.as_bytes());
        let slow = oracle::parse_line_str(case);
        assert_eq!(
            fast.is_ok(),
            slow.is_ok(),
            "parsers disagree on {case:?}: {fast:?} vs {slow:?}"
        );
        if let (Ok(a), Ok(b)) = (fast, slow) {
            assert_eq!(a, b, "payloads differ on {case:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round trip: any formatted log parses identically through both
    /// implementations, entry for entry.
    #[test]
    fn valid_logs_agree(entries in prop::collection::vec(arb_entry(), 1..20)) {
        let text = render(&entries);
        let parsed: Vec<LogEntry> = wms::parse_lines_bytes(text.as_bytes())
            .map(|r| r.expect("formatted log must parse").1)
            .collect();
        prop_assert_eq!(&parsed, &entries);
        assert_streams_agree(&text);
    }

    /// §2.4 pathology: truncated lines (a partial flush or torn write).
    /// Both parsers must reject the fragment on the same line and keep
    /// identical streams for the surrounding intact lines.
    #[test]
    fn truncated_lines_agree(
        entries in prop::collection::vec(arb_entry(), 2..8),
        victim in 0usize..8,
        cut in 0usize..120,
    ) {
        let mut lines: Vec<String> = record_lines(&entries);
        let victim = victim % lines.len();
        let cut = cut.min(lines[victim].len());
        lines[victim].truncate(cut);
        assert_streams_agree(&lines.join("\n"));
    }

    /// §2.4 pathology: malformed c-ip fields (the paper's logs carry
    /// anonymized addresses; corruption shows up as short or non-numeric
    /// dotted quads). Both parsers must agree on every mutation.
    #[test]
    fn bad_c_ip_agrees(
        entries in prop::collection::vec(arb_entry(), 1..6),
        victim in 0usize..6,
        bad_ip in "[0-9.]{0,18}",
    ) {
        let mut lines: Vec<String> = record_lines(&entries);
        let victim = victim % lines.len();
        let mut fields: Vec<&str> = lines[victim].split_ascii_whitespace().collect();
        fields[4] = &bad_ip; // c-ip is field index 4
        lines[victim] = fields.join(" ");
        assert_streams_agree(&lines.join("\n"));
    }

    /// §2.4 pathology: 1-second timestamp ties. The logs timestamp at
    /// whole-second resolution, so bursts of arrivals share a timestamp;
    /// tied lines must parse independently and identically.
    #[test]
    fn timestamp_ties_agree(
        base in arb_entry(),
        tie_at in 0u32..u32::MAX,
        n_ties in 2usize..12,
    ) {
        let entries: Vec<LogEntry> = (0..n_ties)
            .map(|i| {
                let mut e = base;
                e.timestamp = tie_at;
                e.start = tie_at;
                e.client = ClientId(i as u32); // distinct clients, same second
                e
            })
            .collect();
        let text = render(&entries);
        let parsed: Vec<LogEntry> = wms::parse_lines_bytes(text.as_bytes())
            .map(|r| r.expect("tied lines must parse").1)
            .collect();
        prop_assert_eq!(&parsed, &entries);
        assert_streams_agree(&text);
    }

    /// Arbitrary field corruption anywhere in the record: agreement must
    /// hold whatever garbage lands in whatever column.
    #[test]
    fn field_corruption_agrees(
        entries in prop::collection::vec(arb_entry(), 1..6),
        victim in 0usize..6,
        field in 0usize..14,
        garbage in "[ -~]{0,12}",
    ) {
        let mut lines: Vec<String> = record_lines(&entries);
        let victim = victim % lines.len();
        let mut fields: Vec<&str> = lines[victim].split_ascii_whitespace().collect();
        fields[field] = &garbage;
        lines[victim] = fields.join(" ");
        assert_streams_agree(&lines.join("\n"));
    }

    /// Comments and blank lines interleaved with records: both parsers
    /// must skip them while keeping line numbers aligned.
    #[test]
    fn comments_and_blanks_agree(
        entries in prop::collection::vec(arb_entry(), 1..8),
        noise_every in 1usize..4,
    ) {
        let mut out = String::from("# Software: differential fixture\n");
        for (i, line) in render(&entries).lines().enumerate() {
            if i % noise_every == 0 {
                out.push_str("\n#comment\n");
            }
            out.push_str(line);
            out.push('\n');
        }
        assert_streams_agree(&out);
    }

    /// Totally arbitrary printable text: the parsers may reject everything,
    /// but they must reject the *same* lines.
    #[test]
    fn arbitrary_text_agrees(text in "[ -~\n\t]{0,400}") {
        assert_streams_agree(&text);
    }
}
