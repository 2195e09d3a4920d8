//! Pins the bytes of the characterization report.
//!
//! One fixed, seeded, generated trace is characterized and the length and
//! CRC-32 of `to_json()` are compared with constants captured on the
//! commit *before* the Fig 9 sweep was rewritten (PR 23), so any
//! optimization of the batch layers that changes a single digit of the
//! report fails here rather than in a downstream diff.
//!
//! A PR that changes the report on purpose (ROADMAP item 7) updates the
//! two constants and says so in CHANGES.md.

use lsw_analysis::characterize_with;
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_trace::ltc::codec::crc32;
use lsw_trace::session::SessionConfig;

const GOLDEN_TRANSFERS: usize = 9_827;
const GOLDEN_JSON_LEN: usize = 1_787_811;
const GOLDEN_JSON_CRC: u32 = 3_894_123_542;

#[test]
fn report_bytes_match_the_pinned_parent() {
    let config = WorkloadConfig::paper().scaled(3_000, 2 * 86_400, 6_500);
    let trace = Generator::new(config, 23).unwrap().generate().render();
    assert_eq!(trace.len(), GOLDEN_TRANSFERS, "the fixture itself moved");

    let json = characterize_with(&trace, SessionConfig::default(), 7).to_json();
    assert_eq!(
        (json.len(), crc32(json.as_bytes())),
        (GOLDEN_JSON_LEN, GOLDEN_JSON_CRC),
        "report bytes changed: (len, crc32) differ from the pinned parent"
    );
}
