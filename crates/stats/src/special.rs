//! Special mathematical functions used by the distribution and test code.
//!
//! Everything here is implemented from scratch with well-known, numerically
//! solid approximations:
//!
//! * [`erfc`] — complementary error function via the Numerical
//!   Recipes Chebyshev approximation (absolute error < 1.2e-7), with exact
//!   symmetry handling.
//! * [`ln_gamma`] — Lanczos approximation (g = 7, n = 9).
//! * [`gamma_p`] / [`gamma_q`] — regularized incomplete gamma functions via
//!   series / continued-fraction expansions.
//! * [`riemann_zeta`] — `ζ(s)` for `s > 1`, used by the zeta distribution.

/// Machine-epsilon-scale tolerance used by iterative expansions.
const EPS: f64 = 1e-15;

/// Complementary error function `erfc(x) = 2/sqrt(pi) * ∫ₓ^∞ e^{-t²} dt`.
///
/// Uses the Chebyshev fit from Numerical Recipes (absolute error < 1.2e-7
/// everywhere, much better near 0 after symmetry reduction).
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub(crate) fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Natural logarithm of the gamma function, Lanczos approximation.
///
/// Accurate to better than 1e-10 for `x > 0`.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7, n = 9.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// `P(a, x) = γ(a, x) / Γ(a)`; computed by series expansion for `x < a + 1`
/// and via the continued fraction for `Q(a, x)` otherwise.
pub(crate) fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p: a must be positive, got {a}");
    assert!(x >= 0.0, "gamma_p: x must be non-negative, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub(crate) fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q: a must be positive, got {a}");
    assert!(x >= 0.0, "gamma_q: x must be non-negative, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_cf(a, x)
    }
}

/// Series expansion of `P(a, x)`, convergent for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Lentz continued fraction for `Q(a, x)`, convergent for `x >= a + 1`.
fn gamma_cf(a: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Riemann zeta function `ζ(s)` for `s > 1`.
///
/// Computed by direct summation with an Euler–Maclaurin tail correction:
/// `Σ_{k=1}^{N} k^{-s} + N^{1-s}/(s-1) − N^{-s}/2 + s·N^{-s-1}/12`
/// (the tail runs from `N+1`, hence the negative half-term).
pub(crate) fn riemann_zeta(s: f64) -> f64 {
    assert!(s > 1.0, "riemann_zeta requires s > 1, got {s}");
    const N: u64 = 10_000;
    let mut sum = 0.0;
    for k in 1..=N {
        sum += (k as f64).powf(-s);
    }
    let n = N as f64;
    sum + n.powf(1.0 - s) / (s - 1.0) - 0.5 * n.powf(-s) + s * n.powf(-s - 1.0) / 12.0
}

/// Kolmogorov–Smirnov limiting distribution tail `Q_KS(λ)`.
///
/// `Q_KS(λ) = 2 Σ_{j≥1} (-1)^{j-1} e^{-2 j² λ²}`; this is the asymptotic
/// p-value of an observed scaled KS statistic λ.
pub(crate) fn ks_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let a2 = -2.0 * lambda * lambda;
    let mut sum = 0.0;
    let mut sign = 1.0;
    let mut prev_term = 0.0_f64;
    for j in 1..=100 {
        let term = sign * (a2 * (j as f64) * (j as f64)).exp();
        sum += term;
        if term.abs() <= 1e-12 * prev_term.abs() || term.abs() <= 1e-16 {
            return (2.0 * sum).clamp(0.0, 1.0);
        }
        prev_term = term;
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b} (tol {tol})");
    }

    #[test]
    fn erfc_known_values() {
        // Reference values evaluated to 30 digits outside this crate; the
        // bound is the documented absolute error of the Chebyshev fit.
        for (x, want) in [
            (-2.5, 1.999_593_047_982_555),
            (-1.0, 1.842_700_792_949_714_9),
            (-0.7, 1.677_801_193_837_418_5),
            (0.0, 1.0),
            (0.01, 0.988_716_584_444_150_38),
            (0.3, 0.671_373_240_540_872_57),
            (0.9, 0.203_091_787_577_167_87),
            (1.0, 0.157_299_207_050_285_13),
            (1.6, 0.023_651_616_655_355_992),
            (2.0, 0.004_677_734_981_047_265_8),
            (2.2, 0.001_862_846_297_981_891_4),
            (3.1, 1.164_865_736_719_959_6e-5),
            (4.5, 1.966_160_441_542_887_5e-10),
        ] {
            close(erfc(x), want, 1.2e-7);
        }
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.3, 4.0] {
            close(erfc(x) + erfc(-x), 2.0, 1e-10);
        }
    }

    #[test]
    fn norm_cdf_known_values() {
        close(norm_cdf(0.0), 0.5, 2e-7);
        close(norm_cdf(1.0), 0.8413447460685429, 2e-7);
        close(norm_cdf(-1.959963984540054), 0.025, 2e-7);
        close(norm_cdf(3.0), 0.9986501019683699, 2e-7);
    }

    #[test]
    fn norm_pdf_integrates_to_norm_cdf() {
        // Trapezoid integration of the density φ should match the CDF
        // difference.
        let norm_pdf = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let (a, b) = (-1.5, 2.0);
        let n = 20_000;
        let h = (b - a) / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let x0 = a + i as f64 * h;
            acc += 0.5 * (norm_pdf(x0) + norm_pdf(x0 + h)) * h;
        }
        close(acc, norm_cdf(b) - norm_cdf(a), 1e-6);
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-10);
        close(ln_gamma(2.0), 0.0, 1e-10);
        close(ln_gamma(5.0), (24.0_f64).ln(), 1e-9);
        close(ln_gamma(0.5), (std::f64::consts::PI).sqrt().ln(), 1e-9);
        // Γ(10) = 9! = 362880
        close(ln_gamma(10.0), (362880.0_f64).ln(), 1e-8);
    }

    #[test]
    fn gamma_p_q_complement() {
        for &(a, x) in &[(0.5, 0.2), (1.0, 1.0), (2.5, 4.0), (10.0, 3.0), (3.0, 20.0)] {
            close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-10);
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 - e^{-x}.
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-10);
        }
    }

    #[test]
    fn gamma_p_chi_square_median() {
        // Chi-square with k dof has CDF P(k/2, x/2); median of chi2(2) = 2 ln 2.
        close(gamma_p(1.0, (2.0 * (2.0_f64).ln()) / 2.0), 0.5, 1e-10);
    }

    #[test]
    fn riemann_zeta_known_values() {
        close(riemann_zeta(2.0), std::f64::consts::PI.powi(2) / 6.0, 1e-9);
        close(riemann_zeta(4.0), std::f64::consts::PI.powi(4) / 90.0, 1e-9);
        close(riemann_zeta(3.0), 1.2020569031595943, 1e-9);
        // The paper's transfers-per-session exponent: cross-check against a
        // brute-force partial sum with an integral tail bound.
        let s = 2.70417;
        let brute: f64 = (1..=2_000_000u64).map(|k| (k as f64).powf(-s)).sum();
        let tail = (2_000_000f64).powf(1.0 - s) / (s - 1.0);
        close(riemann_zeta(s), brute + tail, 1e-8);
    }

    #[test]
    fn ks_q_limits() {
        close(ks_q(0.0), 1.0, 1e-12);
        assert!(ks_q(10.0) < 1e-10);
        // Known value: Q_KS(1.0) ≈ 0.26999967.
        close(ks_q(1.0), 0.26999967, 1e-6);
        // Monotone decreasing.
        assert!(ks_q(0.5) > ks_q(1.0));
        assert!(ks_q(1.0) > ks_q(1.5));
    }

    #[test]
    fn gamma_q_known_values() {
        // Upper regularized incomplete gamma Q(a, x), evaluated to 30
        // digits outside this crate; both the series (x < a + 1) and the
        // continued-fraction branch are covered.
        for (a, x, want) in [
            (0.5, 0.2, 0.527_089_256_865_538_09),
            (2.5, 4.0, 0.156_235_627_577_722_33),
            (10.0, 3.0, 0.998_897_511_869_884_52),
            (7.5, 9.0, 0.262_665_560_672_322_21),
            (3.0, 20.0, 4.555_149_505_589_212_8e-7),
        ] {
            let got = gamma_q(a, x);
            assert!(
                ((got - want) / want).abs() < 1e-10,
                "Q({a}, {x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn ks_q_known_values() {
        // Kolmogorov survival function 2 Σ (-1)^(j-1) exp(-2 j² λ²),
        // summed to 30 digits outside this crate.
        for (lambda, want) in [
            (0.5, 0.963_945_243_664_875_09),
            (1.0, 0.269_999_671_677_354_52),
            (1.5, 0.022_217_962_616_525_129),
            (2.0, 0.000_670_925_255_779_695_35),
        ] {
            close(ks_q(lambda), want, 1e-12);
        }
    }
}
