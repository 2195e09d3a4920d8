//! Differential test of the WMS log writer against `std::fmt`.
//!
//! The writer builds lines without `std::fmt`; the `write!` pattern it
//! replaced lives on here, and only here, as the oracle. Every check
//! compares bytes: whole lines for the targeted float probes and for
//! arbitrary entries, whole logs for [`wms::format_log`] and
//! [`wms::write_log`].

use bytes::BytesMut;
use lsw_trace::event::{LogEntry, LogEntryBuilder};
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::wms;
use proptest::prelude::*;
use std::fmt::Write as _;

/// The line as the `std::fmt` writer printed it.
fn oracle_line(e: &LogEntry) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {:.4} {:.3} {}",
        e.timestamp,
        e.start,
        e.duration,
        e.client.0,
        e.ip,
        e.as_id.0,
        e.country,
        e.object.uri(),
        e.camera,
        e.bytes,
        e.avg_bandwidth,
        e.packet_loss,
        e.cpu_util,
        e.status
    )
}

fn line(e: &LogEntry) -> BytesMut {
    let mut buf = BytesMut::new();
    wms::format_entry(e, &mut buf);
    buf
}

fn assert_line_matches(e: &LogEntry) {
    let expected = oracle_line(e);
    let got = line(e);
    assert_eq!(
        std::str::from_utf8(&got).expect("the writer emits ASCII"),
        expected,
        "packet_loss bits {:#010x}, cpu_util bits {:#010x}",
        e.packet_loss.to_bits(),
        e.cpu_util.to_bits()
    );
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

/// Checks `v` in both float fields: `{:.4}` as packet loss and `{:.3}` as
/// CPU utilization.
fn check_float(v: f32) {
    let mut e = sample_entry();
    e.packet_loss = v;
    e.cpu_util = v;
    assert_line_matches(&e);
}

#[test]
fn every_f32_near_a_rounding_midpoint() {
    for decimals in [3i32, 4] {
        let scale = 10f64.powi(decimals);
        for k in 0..2 * 10u32.pow(decimals.unsigned_abs()) {
            let mid = ((f64::from(k) + 0.5) / scale) as f32;
            let bits = mid.to_bits();
            for b in bits - 6..=bits + 6 {
                check_float(f32::from_bits(b));
            }
        }
    }
}

#[test]
fn dyadic_ties_round_half_to_even() {
    // i/64 is exact in binary, so `i/64 * 10^4` lands on .5 for odd i:
    // std rounds those ties to even (0.03125 -> 0.0312, 0.09375 -> 0.0938).
    for i in 0..=128u16 {
        check_float(f32::from(i) / 64.0);
    }
    let mut e = sample_entry();
    e.packet_loss = 0.03125;
    e.cpu_util = 0.0625;
    assert!(line(&e).ends_with(b" 0.0312 0.062 200"));
    e.packet_loss = 0.09375;
    e.cpu_util = 0.1875;
    assert!(line(&e).ends_with(b" 0.0938 0.188 200"));
}

#[test]
fn strided_sweep_of_zero_to_one_and_a_half() {
    let top = 1.5f32.to_bits();
    for bits in (0..=top).step_by(4099) {
        check_float(f32::from_bits(bits));
    }
}

#[test]
fn values_outside_the_exact_range_fall_back_to_std() {
    for v in [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        -0.00004,
        -0.5,
        -1.0,
        f32::MIN_POSITIVE,
        f32::from_bits(1), // smallest subnormal
        999_999.94,        // largest f32 below 10^6
        1e6,
        1e7,
        123_456_789.0,
        f32::MAX,
        f32::MIN, // the longest field either writer can produce
    ] {
        check_float(v);
    }
}

#[test]
fn integer_fields_at_their_extremes() {
    for (n32, n64, n16, n8, ip) in [
        (0, 0, 0, 0, 0),
        (u32::MAX, u64::MAX, u16::MAX, u8::MAX, u32::MAX),
        (9, 9, 9, 9, 0x0909_0909),
        (10, 10, 10, 10, 0x0A0A_0A0A),
        (99, 99, 99, 99, 0x6363_6363),
        (100, 100, 100, 100, 0x6464_6464),
        (
            999_999_999,
            10_000_000_000_000_000_000,
            10_000,
            200,
            0x0102_0304,
        ),
    ] {
        let mut e = sample_entry();
        e.timestamp = n32;
        e.start = n32;
        e.duration = n32;
        e.client = ClientId(n32);
        e.ip = Ipv4Addr(ip);
        e.as_id = AsId(n16);
        e.object = ObjectId(n16);
        e.camera = n8;
        e.bytes = n64;
        e.avg_bandwidth = n32;
        e.status = n16;
        assert_line_matches(&e);
    }
    // Every power of ten and its neighbours, through the u64 field.
    for p in 0..20 {
        let t = 10u64.pow(p);
        for n in [t - 1, t, t + 1] {
            let mut e = sample_entry();
            e.bytes = n;
            assert_line_matches(&e);
        }
    }
}

/// Integers biased towards the ends of `0..=max`.
fn wide(max: u64) -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(max), 0..=max.min(999), 0..=max]
}

/// Any `f32`: common fractions, exact ties, and arbitrary bit patterns
/// (NaN, infinities, negatives and subnormals included).
fn any_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        0.0f32..1.0,
        (0u16..=256).prop_map(|i| f32::from(i) / 64.0),
        (0u32..=u32::MAX).prop_map(f32::from_bits),
    ]
}

fn arb_entry() -> impl Strategy<Value = LogEntry> {
    let u32s = (
        wide(u64::from(u32::MAX)),
        wide(u64::from(u32::MAX)),
        wide(u64::from(u32::MAX)),
        wide(u64::from(u32::MAX)),
        wide(u64::from(u32::MAX)),
        wide(u64::from(u32::MAX)),
    );
    let narrow = (
        wide(u64::from(u16::MAX)),
        wide(u64::from(u16::MAX)),
        wide(u64::from(u16::MAX)),
        wide(u64::from(u8::MAX)),
        b'A'..=b'Z',
        b'A'..=b'Z',
    );
    (u32s, narrow, wide(u64::MAX), any_f32(), any_f32()).prop_map(
        |((ts, start, dur, client, ip, bw), (asn, obj, status, cam, c0, c1), bytes, loss, cpu)| {
            let n32 = |v: u64| u32::try_from(v).expect("drawn within u32");
            let n16 = |v: u64| u16::try_from(v).expect("drawn within u16");
            LogEntry {
                timestamp: n32(ts),
                start: n32(start),
                duration: n32(dur),
                client: ClientId(n32(client)),
                ip: Ipv4Addr(n32(ip)),
                as_id: AsId(n16(asn)),
                country: CountryCode([c0, c1]),
                object: ObjectId(n16(obj)),
                camera: u8::try_from(cam).expect("drawn within u8"),
                bytes,
                avg_bandwidth: n32(bw),
                packet_loss: loss,
                cpu_util: cpu,
                status: n16(status),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_entries_match_the_oracle(e in arb_entry()) {
        assert_line_matches(&e);
    }

    #[test]
    fn whole_logs_match_the_oracle(entries in prop::collection::vec(arb_entry(), 0..40)) {
        let mut expected = format!("#Software: lsw-sim\n#Version: 1.0\n{}\n", wms::FIELDS_HEADER);
        for e in &entries {
            expected.push_str(&oracle_line(e));
            expected.push('\n');
        }
        let log = wms::format_log(&entries);
        prop_assert_eq!(std::str::from_utf8(&log).unwrap(), expected.as_str());
        let mut streamed = Vec::new();
        wms::write_log(&entries, &mut streamed).unwrap();
        prop_assert_eq!(&streamed[..], &log[..]);
    }
}

/// Every `f32` in `[0, 1]` (1,065,353,217 bit patterns) against `{:.4}` and
/// `{:.3}`, split over the available cores. Minutes in a release build:
///
/// ```text
/// cargo test --release -p lsw-trace --test wms_writer -- --ignored
/// ```
#[test]
#[ignore = "exhaustive; run with --release -- --ignored"]
fn every_f32_in_the_unit_interval() {
    let top = 1.0f32.to_bits();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per = top / u32::try_from(workers).unwrap() + 1;
    std::thread::scope(|s| {
        for w in 0..workers {
            let lo = u32::try_from(w).unwrap() * per;
            let hi = lo.saturating_add(per).min(top + 1);
            s.spawn(move || {
                let mut e = sample_entry();
                e.status = 0;
                let mut got = BytesMut::new();
                let mut expected = String::new();
                for bits in lo..hi {
                    let v = f32::from_bits(bits);
                    e.packet_loss = v;
                    e.cpu_util = v;
                    got.clear();
                    wms::format_entry(&e, &mut got);
                    expected.clear();
                    write!(expected, " {v:.4} {v:.3} 0").unwrap();
                    // Only the float fields vary; the fixed prefix ends
                    // with the c-bytes and x-avg-bandwidth fields.
                    let ok = got.ends_with(expected.as_bytes())
                        && got[..got.len() - expected.len()].ends_with(b" 500000 34000");
                    assert!(ok, "bits {bits:#010x}: {expected:?} vs {got:?}");
                }
            });
        }
    });
}
