//! Generator recovery: does a generated workload match its own targets?
//!
//! The generator's contract is distributional; [`validate_workload`]
//! checks it by fitting the generated marginals and comparing against the
//! configuration. This is the fast, trace-free half of the closed loop
//! (the full loop — through log rendering, sanitization and the
//! characterizer — lives in `lsw-figures`).

use lsw_core::config::{TransfersPerSession, WorkloadConfig};
use lsw_core::generator::Generator;
use lsw_core::workload::Workload;
use lsw_stats::empirical::RankFrequency;
use lsw_stats::fit::{fit_lognormal, fit_zipf_rank_frequency};

/// One checked quantity: target, recovered value, and pass/fail.
#[derive(Debug)]
struct Check {
    /// What was checked.
    name: String,
    /// Configured target value.
    target: f64,
    /// Value recovered from the generated workload.
    recovered: f64,
    /// Tolerance used (absolute).
    tolerance: f64,
}

impl Check {
    /// Whether the recovered value is within tolerance.
    fn passed(&self) -> bool {
        (self.recovered - self.target).abs() <= self.tolerance
    }
}

/// Validates a workload against its configuration.
///
/// Horizon-clipped transfers are excluded from length fits (clipping is a
/// deliberate departure from the ideal distribution at the trace edge).
fn validate_workload(w: &Workload) -> Vec<Check> {
    let cfg: &WorkloadConfig = w.config();
    let horizon = f64::from(cfg.horizon_secs);
    let mut checks = Vec::new();

    // Session count vs target (Poisson tolerance: 5 sigma).
    let n_sessions = w.sessions().len() as f64;
    checks.push(Check {
        name: "session count".into(),
        target: cfg.target_sessions as f64,
        recovered: n_sessions,
        tolerance: 5.0 * (cfg.target_sessions as f64).sqrt().max(1.0),
    });

    // Transfer lengths: lognormal parameter recovery.
    let lengths: Vec<f64> = w
        .transfers()
        .iter()
        .filter(|t| t.start + t.duration < horizon - 1.0 && t.duration > 0.0)
        .map(|t| t.duration)
        .collect();
    if lengths.len() > 100 {
        if let Ok(f) = fit_lognormal(&lengths) {
            checks.push(Check {
                name: "transfer length mu".into(),
                target: cfg.transfer_length.mu,
                recovered: f.mu,
                tolerance: 0.1,
            });
            checks.push(Check {
                name: "transfer length sigma".into(),
                target: cfg.transfer_length.sigma,
                recovered: f.sigma,
                tolerance: 0.1,
            });
        }
    }

    // Intra-session interarrivals, grouped by ground-truth session index.
    let mut iats = Vec::new();
    {
        // BTreeMap: the per-session gaps feed fit_lognormal's float sums in
        // iteration order, which must not depend on the process hash seed.
        let mut by_session: std::collections::BTreeMap<u32, Vec<f64>> =
            std::collections::BTreeMap::new();
        for t in w.transfers() {
            by_session.entry(t.session).or_default().push(t.start);
        }
        for starts in by_session.values_mut() {
            starts.sort_unstable_by(f64::total_cmp);
            for w2 in starts.windows(2) {
                let gap = w2[1] - w2[0];
                if gap > 0.0 {
                    iats.push(gap);
                }
            }
        }
    }
    if iats.len() > 200 {
        if let Ok(f) = fit_lognormal(&iats) {
            checks.push(Check {
                name: "intra-session interarrival mu".into(),
                target: cfg.intra_session_iat.mu,
                recovered: f.mu,
                tolerance: 0.15,
            });
        }
    }

    // Client interest exponent.
    let mut counts = vec![0u64; cfg.n_clients];
    for s in w.sessions() {
        counts[s.client.0 as usize] += 1;
    }
    let rf = RankFrequency::from_counts(counts);
    if rf.n() > 20 {
        let max_rank = (rf.n() as f64 / 10.0).max(20.0);
        if let Ok(f) = fit_zipf_rank_frequency(&rf, Some(max_rank)) {
            checks.push(Check {
                name: "client interest alpha".into(),
                target: cfg.interest_alpha,
                recovered: f.alpha,
                tolerance: 0.15,
            });
        }
    }

    // Transfers per session (only for the pure-Zipf model; the hybrid's
    // mean is a design choice, not a recovery target).
    if let TransfersPerSession::Zipf { alpha } = cfg.transfers_per_session {
        let counts: Vec<u64> = w
            .sessions()
            .iter()
            .map(|s| u64::from(s.n_transfers))
            .collect();
        // Fit the pmf over k via rank-frequency of counts-of-counts.
        let max = counts.iter().copied().max().unwrap_or(1) as usize;
        let mut hist = vec![0u64; max + 1];
        for &c in &counts {
            hist[c as usize] += 1;
        }
        let total: u64 = hist.iter().sum();
        let pts: Vec<(f64, f64)> = hist
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(_, &c)| c > 0)
            .map(|(k, &c)| (k as f64, c as f64 / total as f64))
            .collect();
        if pts.len() >= 3 {
            if let Ok(f) = lsw_stats::fit::fit_zipf_points(&pts, Some(30.0)) {
                checks.push(Check {
                    name: "transfers-per-session alpha".into(),
                    target: alpha,
                    recovered: f.alpha,
                    tolerance: 0.3,
                });
            }
        }
    }

    checks
}

/// Generates `config` at `seed` and asserts every check passes.
fn assert_recovers(config: WorkloadConfig, seed: u64) {
    let w = Generator::new(config, seed)
        .expect("a valid configuration")
        .generate();
    let checks = validate_workload(&w);
    let failures: Vec<&str> = checks
        .iter()
        .filter(|c| !c.passed())
        .map(|c| c.name.as_str())
        .collect();
    assert!(
        failures.is_empty(),
        "failed checks: {failures:?}\n{checks:#?}"
    );
}

#[test]
fn paper_scaled_workload_validates() {
    assert_recovers(
        WorkloadConfig::paper().scaled(3_000, 2 * 86_400, 20_000),
        21,
    );
    // The benchmark's configuration: hybrid transfers per session, so
    // only the shared checks apply.
    assert_recovers(
        WorkloadConfig::paper_scale_matched().scaled(3_000, 2 * 86_400, 20_000),
        22,
    );
}

#[test]
fn check_passed_logic() {
    let c = Check {
        name: "x".into(),
        target: 1.0,
        recovered: 1.05,
        tolerance: 0.1,
    };
    assert!(c.passed());
    let c = Check {
        name: "x".into(),
        target: 1.0,
        recovered: 1.2,
        tolerance: 0.1,
    };
    assert!(!c.passed());
}
