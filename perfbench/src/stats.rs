//! Quantile estimation.
//!
//! A workload's sessions are a mixture of programs of different cost, so
//! their times form separated clusters. A single order statistic then jumps
//! between neighbouring clusters from run to run; the Harrell–Davis
//! estimator averages all order statistics with Beta weights centred on the
//! quantile, which moves smoothly instead.

/// Harrell–Davis estimate of quantile `q` (in `(0, 1)`) of `values`; NaN
/// when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 1 {
        return v.first().copied().unwrap_or(f64::NAN);
    }
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    let mut prev = 0.0;
    let mut estimate = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n as f64, a, b);
        estimate += (cdf - prev) * x;
        prev = cdf;
    }
    estimate
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Regularized incomplete beta function `I_x(a, b)`.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The continued fraction converges fast on this side of the mean; use
    // the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) on the other.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=1000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1 - x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = COEF[1..]
        .iter()
        .enumerate()
        .fold(COEF[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_order_statistics_on_even_spacing() {
        let v: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert!((median(&v) - 500.0).abs() < 1e-6);
        assert!((quantile(&v, 0.9) - 900.0).abs() < 0.5);
    }

    #[test]
    fn weights_sum_to_one() {
        let ones = vec![1.0; 37];
        assert!((quantile(&ones, 0.9) - 1.0).abs() < 1e-9);
        assert!((quantile(&ones, 0.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        // I_x(1, 1) = x and I_x(2, 1) = x².
        assert!((beta_cdf(0.3, 1.0, 1.0) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(0.3, 2.0, 1.0) - 0.09).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
    }
}
