//! Exact ski-rental theory — the idealised model behind §2's dynamic power
//! management survey (Irani, Singh, Shukla & Gupta).
//!
//! In the classical abstraction an idle period of length `g` can be "rented"
//! (stay idle, cost `g` — the idle-power drain, normalised to 1/second) or
//! "bought" at any time `t ≤ g` (spin down, one-off cost `β` — the
//! normalised transition energy). The offline optimum pays `min(g, β)`.
//!
//! - The deterministic threshold policy with `τ = β` is exactly
//!   **2-competitive**, and no deterministic policy beats 2.
//! - The randomised policy drawing `τ` from density
//!   `f(t) = e^{t/β} / (β(e−1))` on `[0, β]` is **e/(e−1) ≈ 1.582**-
//!   competitive in expectation, and that is optimal.
//!
//! [`sample_threshold`] draws from that density. The closed-form costs and
//! ratios above live in this module's tests, which check them against the
//! classical bounds. `spindown-disk`
//! maps real drive constants onto `β` via
//! [`β = E_over / P_idle`](spindown_disk::transition_energy_overhead).

/// Inverse-CDF sampler for the optimal randomised threshold density
/// `f(t) = e^{t/β}/(β(e−1))` on `[0, β]`: maps a uniform `u ∈ [0, 1)` to a
/// threshold draw `τ = β·ln(1 + u(e−1))`. This is what the online
/// [`crate::online::SkiRentalPolicy`] draws once per idle period.
pub fn sample_threshold(beta: f64, u: f64) -> f64 {
    assert!(beta > 0.0, "beta must be positive");
    assert!((0.0..=1.0).contains(&u), "u must be a unit sample, got {u}");
    let e = std::f64::consts::E;
    beta * (1.0 + u * (e - 1.0)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Offline optimal cost for a gap of length `g` with buy cost `beta`.
    fn offline_cost(beta: f64, g: f64) -> f64 {
        assert!(beta > 0.0 && g >= 0.0);
        g.min(beta)
    }

    /// Deterministic threshold policy: rent until `tau`, then buy.
    fn deterministic_cost(beta: f64, tau: f64, g: f64) -> f64 {
        assert!(beta > 0.0 && tau >= 0.0 && g >= 0.0);
        if g <= tau {
            g
        } else {
            tau + beta
        }
    }

    /// Worst-case competitive ratio of the deterministic policy with threshold
    /// `tau` (supremum over all gaps, in closed form).
    fn deterministic_competitive_ratio(beta: f64, tau: f64) -> f64 {
        assert!(beta > 0.0 && tau >= 0.0);
        // Adversary either stops just after tau (cost tau+beta vs min(tau,beta))
        // or runs forever (cost tau+beta vs beta). The first dominates.
        let adversarial = (tau + beta) / tau.min(beta).max(f64::MIN_POSITIVE);
        // For tau ≥ beta the ratio is (tau+beta)/beta; for tau ≤ beta it is
        // (tau+beta)/tau; both are captured by `adversarial`. Gaps below tau
        // are ratio 1.
        adversarial.max(1.0)
    }

    /// Expected cost of the optimal randomised policy (threshold density
    /// `f(t) = e^{t/β}/(β(e−1))` on `[0, β]`) for a gap `g`, in closed form.
    fn randomized_expected_cost(beta: f64, g: f64) -> f64 {
        assert!(beta > 0.0 && g >= 0.0);
        let e = std::f64::consts::E;
        let norm = beta * (e - 1.0);
        if g >= beta {
            // E[τ] + β: every draw buys before the gap ends.
            // E[τ] = ∫ t f(t) dt over [0, β] = β(e·0 + ... ) — integrate by parts:
            // ∫₀^β t e^{t/β} dt = β²(e − e + 1) ... compute directly:
            // ∫ t e^{t/β} dt = β t e^{t/β} − β² e^{t/β}; at β: β²e − β²e = 0; at 0: −β².
            // So ∫₀^β t e^{t/β} dt = 0 − (−β²) = β².
            let expected_tau = beta * beta / norm;
            expected_tau + beta
        } else {
            // τ ≤ g: pay τ + β; τ > g: pay g.
            // ∫₀^g (t + β) f(t) dt + g·P(τ > g)
            // ∫₀^g t e^{t/β} dt = β g e^{g/β} − β² e^{g/β} + β²
            // ∫₀^g β e^{t/β} dt = β² (e^{g/β} − 1)
            let eg = (g / beta).exp();
            let int_t = beta * g * eg - beta * beta * eg + beta * beta;
            let int_b = beta * beta * (eg - 1.0);
            let p_gt = (beta * (std::f64::consts::E - eg)) / norm; // ∫_g^β f
            (int_t + int_b) / norm + g * p_gt
        }
    }

    /// Worst-case expected competitive ratio of the randomised policy
    /// (supremum over gaps, found numerically on a fine grid — the theory says
    /// it is constant `e/(e−1)` for `g ≥` a small floor).
    fn randomized_competitive_ratio(beta: f64) -> f64 {
        let mut worst: f64 = 1.0;
        for i in 1..=10_000 {
            let g = beta * 2.0 * i as f64 / 10_000.0;
            let ratio = randomized_expected_cost(beta, g) / offline_cost(beta, g);
            worst = worst.max(ratio);
        }
        worst
    }

    /// The optimal competitive ratio `e/(e−1)` for reference.
    fn e_over_e_minus_1() -> f64 {
        let e = std::f64::consts::E;
        e / (e - 1.0)
    }

    #[test]
    fn offline_is_min() {
        assert_eq!(offline_cost(10.0, 3.0), 3.0);
        assert_eq!(offline_cost(10.0, 30.0), 10.0);
    }

    #[test]
    fn deterministic_break_even_is_exactly_2_competitive() {
        let beta = 7.0;
        let r = deterministic_competitive_ratio(beta, beta);
        assert!((r - 2.0).abs() < 1e-12);
        // and the adversarial gap realises it
        let g = beta + 1e-9;
        let ratio = deterministic_cost(beta, beta, g) / offline_cost(beta, g);
        assert!((ratio - 2.0).abs() < 1e-6);
    }

    #[test]
    fn no_deterministic_threshold_beats_2() {
        let beta = 5.0;
        for tau in [0.1, 1.0, 2.5, 5.0, 7.5, 20.0] {
            assert!(
                deterministic_competitive_ratio(beta, tau) >= 2.0 - 1e-9,
                "tau {tau} claims ratio {}",
                deterministic_competitive_ratio(beta, tau)
            );
        }
    }

    #[test]
    fn randomized_achieves_e_over_e_minus_1() {
        let beta = 3.0;
        let r = randomized_competitive_ratio(beta);
        let target = e_over_e_minus_1(); // ≈ 1.58198
        assert!(
            (r - target).abs() < 1e-3,
            "randomised ratio {r} vs e/(e-1) {target}"
        );
    }

    #[test]
    fn randomized_beats_deterministic_on_adversarial_gap() {
        let beta = 4.0;
        let g = beta + 1e-6;
        let det = deterministic_cost(beta, beta, g) / offline_cost(beta, g);
        let rnd = randomized_expected_cost(beta, g) / offline_cost(beta, g);
        assert!(
            rnd < det,
            "randomised {rnd} should beat deterministic {det}"
        );
    }

    #[test]
    fn expected_cost_long_gap_closed_form() {
        // For g ≥ β: E[cost] = β²/(β(e−1)) + β = β(1/(e−1) + 1) = β·e/(e−1).
        let beta = 2.0;
        let expect = beta * e_over_e_minus_1();
        let got = randomized_expected_cost(beta, 10.0 * beta);
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn sample_threshold_spans_zero_to_beta() {
        let beta = 6.0;
        assert_eq!(sample_threshold(beta, 0.0), 0.0);
        assert!((sample_threshold(beta, 1.0) - beta).abs() < 1e-12);
    }

    #[test]
    fn sample_threshold_matches_cdf() {
        // CDF F(t) = (e^{t/β} − 1)/(e − 1); the sampler must invert it:
        // F(sample(u)) = u.
        let beta = 3.0;
        let e = std::f64::consts::E;
        for u in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let t = sample_threshold(beta, u);
            let cdf = ((t / beta).exp() - 1.0) / (e - 1.0);
            assert!((cdf - u).abs() < 1e-12, "u {u} round-trips to {cdf}");
        }
    }

    proptest! {
        #[test]
        fn sampled_thresholds_stay_in_unit_beta_interval(
            beta in 0.1f64..100.0, u in 0.0f64..1.0
        ) {
            let t = sample_threshold(beta, u);
            prop_assert!((0.0..=beta).contains(&t), "draw {t} outside [0, {beta}]");
        }

        #[test]
        fn randomized_cost_continuous_at_beta(beta in 0.1f64..50.0) {
            let below = randomized_expected_cost(beta, beta * (1.0 - 1e-9));
            let above = randomized_expected_cost(beta, beta);
            prop_assert!((below - above).abs() < 1e-4 * beta);
        }

        #[test]
        fn randomized_never_worse_than_e_ratio(beta in 0.1f64..50.0, g in 0.0f64..500.0) {
            let off = offline_cost(beta, g);
            if off > 1e-9 {
                let ratio = randomized_expected_cost(beta, g) / off;
                prop_assert!(ratio <= e_over_e_minus_1() + 1e-6, "ratio {ratio}");
            }
        }

        #[test]
        fn deterministic_cost_matches_piecewise_definition(
            beta in 0.1f64..50.0, tau in 0.0f64..100.0, g in 0.0f64..200.0
        ) {
            let c = deterministic_cost(beta, tau, g);
            if g <= tau {
                prop_assert_eq!(c, g);
            } else {
                prop_assert_eq!(c, tau + beta);
            }
        }

        #[test]
        fn costs_are_monotone_in_gap(beta in 0.1f64..20.0, g1 in 0.0f64..100.0, g2 in 0.0f64..100.0) {
            let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
            prop_assert!(offline_cost(beta, lo) <= offline_cost(beta, hi) + 1e-12);
            prop_assert!(
                randomized_expected_cost(beta, lo) <= randomized_expected_cost(beta, hi) + 1e-9
            );
        }
    }
}
