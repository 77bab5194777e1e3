//! Small numerical routines used by the analytical models.

/// Minimize a unimodal function `f` over the closed interval `[lo, hi]` using
/// golden-section search.  Returns `(argmin, min)`.
///
/// The Chernoff exponent of Theorem 2 is convex in θ, so golden-section search
/// converges to the global minimum.
pub fn golden_section_min<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64, tol: f64) -> (f64, f64) {
    assert!(
        lo.is_finite() && hi.is_finite() && lo < hi,
        "invalid interval [{lo}, {hi}]"
    );
    assert!(tol > 0.0);
    let inv_phi = (5f64.sqrt() - 1.0) / 2.0; // 1/φ ≈ 0.618
    let mut a = lo;
    let mut b = hi;
    let mut c = b - (b - a) * inv_phi;
    let mut d = a + (b - a) * inv_phi;
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * inv_phi;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * inv_phi;
            fd = f(d);
        }
    }
    let x = (a + b) / 2.0;
    (x, f(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_minimum_of_a_parabola() {
        let (x, v) = golden_section_min(|x| (x - 3.0) * (x - 3.0) + 2.0, 0.0, 10.0, 1e-9);
        assert!((x - 3.0).abs() < 1e-6);
        assert!((v - 2.0).abs() < 1e-10);
    }

    #[test]
    fn handles_minimum_at_interval_edge() {
        let (x, _) = golden_section_min(|x| x, 1.0, 2.0, 1e-9);
        assert!((x - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_interval() {
        let _ = golden_section_min(|x| x, 2.0, 1.0, 1e-9);
    }
}
