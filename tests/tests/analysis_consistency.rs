//! Consistency between the analytical models (`sprinklers-analysis`) and the
//! switch implementation (`sprinklers-core`), plus property-based checks of
//! the analytical claims themselves.

use proptest::prelude::*;
use sprinklers_analysis::chernoff;
use sprinklers_analysis::theorem1;
use sprinklers_core::ols::WeaklyUniformOls;
use sprinklers_core::rng::SimRng;
use sprinklers_core::sizing;

#[test]
fn analysis_and_core_agree_on_the_stripe_size_rule() {
    // The analysis crate carries its own copy of F(r) so it has no dependency
    // on the switch implementation; the two must agree everywhere.
    for n in [4usize, 32, 256, 1024] {
        for k in 0..2000 {
            let rate = k as f64 / 2000.0;
            assert_eq!(
                sizing::stripe_size(rate, n),
                theorem1::stripe_size(rate, n),
                "F({rate}) differs between crates for N = {n}"
            );
        }
    }
}

#[test]
fn per_port_load_under_the_sizing_rule_respects_the_alpha_bound() {
    // The analysis assumes every VOQ with stripe size < N imposes at most
    // α = 1/N² on each intermediate port of its interval.
    let n = 64;
    for k in 1..1000 {
        let rate = k as f64 / 1000.0;
        let f = sizing::stripe_size(rate, n);
        if f < n {
            assert!(sizing::load_per_share(rate, n) <= sizing::alpha(n) * (1.0 + 1e-12));
        }
    }
}

#[test]
fn simulated_port_loads_match_the_chernoff_regime() {
    // Empirical check of the load-balancing claim behind Theorem 2: generate
    // many random OLS placements for a heavily loaded input port, compute the
    // load each intermediate port receives, and verify the overload fraction
    // is small (far from certain) and the mean is ρ/N.
    let n = 64usize;
    let rho = 0.9;
    let trials = 400;
    let mut overloads = 0usize;
    let mut rng = SimRng::seed_from_u64(99);
    for _ in 0..trials {
        let ols = WeaklyUniformOls::random(n, &mut rng);
        // Uniform split: every VOQ gets rate ρ/N (stripe size F(ρ/N)).
        let rate = rho / n as f64;
        let f = sizing::stripe_size(rate, n);
        let share = rate / f as f64;
        let mut load = vec![0.0f64; n];
        for output in 0..n {
            let primary = ols.primary_port(0, output);
            let start = (primary / f) * f;
            for l in load.iter_mut().skip(start).take(f) {
                *l += share;
            }
        }
        let service = 1.0 / n as f64;
        overloads += load.iter().filter(|&&l| l > service + 1e-12).count();
        let total: f64 = load.iter().sum();
        assert!((total - rho).abs() < 1e-9);
    }
    let frac = overloads as f64 / (trials * n) as f64;
    assert!(
        frac < 0.05,
        "too many overloaded ports ({frac:.3}) under uniform 90% load"
    );
}

#[test]
fn chernoff_bound_is_anti_monotone_in_n_and_monotone_in_rho() {
    let mut prev = 0.0;
    for rho in [0.90, 0.92, 0.94, 0.96] {
        let b = chernoff::overload_bound(1024, rho).log_bound;
        assert!(b > prev || prev == 0.0);
        prev = b;
    }
    for n in [256usize, 512, 1024, 2048] {
        let b = chernoff::overload_bound(n, 0.95);
        assert!(b.log_bound < 0.0);
        assert!(b.log_switch_wide > b.log_bound);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1 holds for random admissible splits and random placements
    /// (checked through the analysis crate's X(r) evaluator at N = 32).
    #[test]
    fn no_overload_below_the_theorem1_threshold(
        raw in proptest::collection::vec(0.01f64..1.0, 32),
        rot in 0usize..32,
    ) {
        let n = 32usize;
        let threshold = theorem1::zero_overload_threshold(n);
        let sum: f64 = raw.iter().sum();
        let mut rates: Vec<f64> = raw.iter().map(|r| r * threshold * 0.995 / sum).collect();
        rates.rotate_left(rot);
        let x = theorem1::queue_arrival_rate(&rates, n);
        prop_assert!(x < 1.0 / n as f64 + 1e-12);
    }

    /// The worst-case construction of Theorem 1 is the cheapest overload: any
    /// uniform scaling below 1.0 of the worst-case rate vector stays below
    /// the service rate.
    #[test]
    fn scaled_worst_case_does_not_overload(scale in 0.05f64..0.999) {
        let n = 64usize;
        let wc = theorem1::worst_case_rate_vector(n);
        let scaled: Vec<f64> = wc.rates.iter().map(|r| r * scale).collect();
        let x = theorem1::queue_arrival_rate(&scaled, n);
        prop_assert!(x <= 1.0 / n as f64 + 1e-12);
    }

    /// h(p, a) is maximized at p*(a) for random (p, a).
    #[test]
    fn p_star_dominates_random_p(p in 0.0f64..1.0, a in 0.01f64..5.0) {
        let best = chernoff::h(chernoff::p_star(a), a);
        prop_assert!(best + 1e-9 >= chernoff::h(p, a));
    }
}
