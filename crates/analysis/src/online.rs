//! Online power-policy adapters: the §2 dynamic-power-management theory of
//! [`crate::ski_rental`] and [`crate::dpm`], packaged as live
//! [`PowerPolicy`] implementations the simulator can run.
//!
//! Four policies are provided:
//!
//! - [`SkiRentalPolicy`] — the optimal *randomised* two-decision policy:
//!   every idle period draws a fresh descent threshold from the density
//!   `f(t) = e^{t/β}/(β(e−1))` on `[0, β]`, which is
//!   `e/(e−1) ≈ 1.582`-competitive in expectation (beating every
//!   deterministic threshold's factor-2 bound). Deterministic per seed;
//!   descends straight to the deepest level.
//! - [`AdaptivePolicy`] — an exponential-average idle-period predictor
//!   (Hwang & Wu style): it tracks per-disk idle-gap lengths
//!   `Î_{n+1} = α·i_n + (1−α)·Î_n` and descends *immediately* when the
//!   predicted gap already exceeds the break-even time, falling back to the
//!   classical 2-competitive break-even timeout when it does not.
//! - [`EnvelopeDescentPolicy`] — the deterministic multi-state
//!   lower-envelope strategy (Irani, Shukla & Gupta): descend into level
//!   `l` when total idle time reaches the intersection `T_l` of the
//!   per-level cost lines ([`spindown_disk::envelope_descent_times`]);
//!   2-competitive against the offline lower envelope. On a two-state
//!   ladder this is exactly the break-even timeout.
//! - [`LowerEnvelopePolicy`] — the *probability-based* multi-state
//!   strategy of the same paper: it keeps a sliding window of recently
//!   observed idle-gap lengths per disk and, at each idle start, places
//!   every per-level descent threshold where the *expected* cost over the
//!   empirical gap distribution is minimised, falling back to the
//!   deterministic envelope schedule until enough gaps have been observed.
//!
//! The per-level expected-cost minimisation decomposes: descending from
//! level `l − 1` to `l` at threshold `τ` changes the cost of a gap `g`
//! only when `g > τ`, by `ΔP_l·(β_l − (g − τ))` where `β_l` is the
//! pairwise break-even. The optimal `τ` therefore minimises
//! `f(τ) = Σ_{g_i > τ} (β_l + τ − g_i)` independently per level, and the
//! minimum lies at `τ = 0` or just above a sample point — a closed
//! candidate set the policy scans exactly. Thresholds are projected to be
//! non-decreasing with depth (a deeper level cannot be reached before a
//! shallower one).

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use spindown_disk::{envelope_descent_times, DiskSpec};
use spindown_sim::policy::{DescentStep, PowerPolicy};

use crate::{dpm, ski_rental};

/// Spread constant mixing a disk id into the base seed (the 64-bit golden
/// ratio, as used by splitmix64) so per-disk streams are decorrelated.
const DISK_SEED_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// The e/(e−1)-competitive randomised ski-rental spin-down policy.
///
/// Each disk draws from its own RNG stream, seeded from the policy seed
/// and the *global* disk id, so a disk's threshold sequence depends only
/// on its own idle history — a sharded replay (which partitions the
/// `settled` callbacks across per-shard policy clones) draws exactly the
/// same thresholds as the unsharded run. Disk 0's stream is seeded from
/// the bare policy seed, matching the legacy shared-stream behaviour on
/// single-disk fleets.
#[derive(Debug, Clone)]
pub struct SkiRentalPolicy {
    beta_s: f64,
    seed: u64,
    /// Per-disk streams, lazily grown to the highest disk id seen.
    rngs: Vec<SmallRng>,
}

impl SkiRentalPolicy {
    /// Policy with an explicit buy cost `beta_s` (seconds of idle power
    /// equivalent to one spin-down/up cycle) and RNG seed.
    pub fn new(beta_s: f64, seed: u64) -> Self {
        assert!(beta_s > 0.0 && beta_s.is_finite(), "bad beta {beta_s}");
        SkiRentalPolicy {
            beta_s,
            seed,
            rngs: Vec::new(),
        }
    }

    /// Derive β from a drive's constants (`β = E_over / P_idle`).
    pub fn for_drive(spec: &DiskSpec, seed: u64) -> Self {
        Self::new(dpm::classical_threshold(spec), seed)
    }

    /// The configured buy cost, seconds.
    pub fn beta_s(&self) -> f64 {
        self.beta_s
    }

    fn rng_for(&mut self, disk: usize) -> &mut SmallRng {
        while self.rngs.len() <= disk {
            let d = self.rngs.len() as u64;
            self.rngs.push(SmallRng::seed_from_u64(
                self.seed.wrapping_add(d.wrapping_mul(DISK_SEED_SPREAD)),
            ));
        }
        &mut self.rngs[disk]
    }

    /// The threshold `disk` would draw for its next idle period (consumes
    /// the draw — test/inspection helper).
    pub fn draw_threshold(&mut self, disk: usize) -> f64 {
        let beta = self.beta_s;
        let u: f64 = self.rng_for(disk).random();
        ski_rental::sample_threshold(beta, u)
    }
}

impl PowerPolicy for SkiRentalPolicy {
    fn name(&self) -> String {
        format!("ski_rental(beta={:.1}s, seed={})", self.beta_s, self.seed)
    }

    fn settled(&mut self, disk: usize, level: u8, _t: f64) -> Option<DescentStep> {
        if level > 0 {
            return None;
        }
        Some(DescentStep::to_deepest(self.draw_threshold(disk)))
    }
}

/// Exponential-average idle-period predictor with a break-even watchdog.
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    alpha: f64,
    break_even_s: f64,
    /// Per-disk predicted idle-gap length, seconds (0 until observed).
    predicted: Vec<f64>,
    /// Per-disk start of the current idle period, if one is open.
    idle_since: Vec<Option<f64>>,
}

impl AdaptivePolicy {
    /// Policy with smoothing factor `alpha ∈ (0, 1]` and an explicit
    /// break-even time.
    pub fn new(alpha: f64, break_even_s: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha {alpha} outside (0, 1]");
        assert!(
            break_even_s > 0.0 && break_even_s.is_finite(),
            "bad break-even {break_even_s}"
        );
        AdaptivePolicy {
            alpha,
            break_even_s,
            predicted: Vec::new(),
            idle_since: Vec::new(),
        }
    }

    /// Derive the break-even watchdog from a drive's constants.
    pub fn for_drive(spec: &DiskSpec, alpha: f64) -> Self {
        Self::new(alpha, dpm::classical_threshold(spec))
    }

    fn ensure_disk(&mut self, disk: usize) {
        if disk >= self.predicted.len() {
            self.predicted.resize(disk + 1, 0.0);
            self.idle_since.resize(disk + 1, None);
        }
    }
}

impl PowerPolicy for AdaptivePolicy {
    fn name(&self) -> String {
        format!(
            "adaptive(alpha={:.2}, be={:.1}s)",
            self.alpha, self.break_even_s
        )
    }

    fn settled(&mut self, disk: usize, level: u8, t: f64) -> Option<DescentStep> {
        if level > 0 {
            return None;
        }
        self.ensure_disk(disk);
        self.idle_since[disk] = Some(t);
        if self.predicted[disk] >= self.break_even_s {
            // Predicted long gap: race to sleep.
            Some(DescentStep::to_deepest(0.0))
        } else {
            // Predicted short gap: keep spinning, but retain the classical
            // 2-competitive safety net in case the prediction is wrong.
            Some(DescentStep::to_deepest(self.break_even_s))
        }
    }

    fn request_arrived(&mut self, disk: usize, t: f64) {
        self.ensure_disk(disk);
        if let Some(start) = self.idle_since[disk].take() {
            let gap = (t - start).max(0.0);
            self.predicted[disk] = self.alpha * gap + (1.0 - self.alpha) * self.predicted[disk];
        }
    }
}

/// The deterministic multi-state lower-envelope strategy: descend into
/// level `l` once total idle time reaches the envelope intersection `T_l`
/// — entry transitions consume part of that budget, so the rest at each
/// settled level is `T_{l+1}` minus the idle time already elapsed
/// (clamped at 0), exactly the schedule [`crate::dpm::envelope_gap_cost`]
/// models and the cold-start fallback of [`LowerEnvelopePolicy`] runs.
/// 2-competitive (Irani, Shukla & Gupta); the break-even timeout of the
/// two-state ladder is its one-level special case.
#[derive(Debug, Clone)]
pub struct EnvelopeDescentPolicy {
    /// Absolute descent times from idle start, `times[l - 1]` = level `l`.
    times: Vec<f64>,
    /// Per-disk start of the open idle period.
    idle_since: Vec<f64>,
}

impl EnvelopeDescentPolicy {
    /// Build the schedule from a drive's ladder.
    pub fn for_drive(spec: &DiskSpec) -> Self {
        EnvelopeDescentPolicy {
            times: envelope_descent_times(&spec.power_ladder()),
            idle_since: Vec::new(),
        }
    }

    /// The envelope descent times, seconds from idle start.
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

impl PowerPolicy for EnvelopeDescentPolicy {
    fn name(&self) -> String {
        format!("envelope_descent({} levels)", self.times.len() + 1)
    }

    fn settled(&mut self, disk: usize, level: u8, t: f64) -> Option<DescentStep> {
        if disk >= self.idle_since.len() {
            self.idle_since.resize(disk + 1, t);
        }
        if level == 0 {
            self.idle_since[disk] = t;
        }
        let tau = *self.times.get(level as usize)?;
        let elapsed = t - self.idle_since[disk];
        Some(DescentStep::to_level((tau - elapsed).max(0.0), level + 1))
    }
}

/// How many observed gaps the probability-based policy needs per disk
/// before it trusts the empirical distribution over the deterministic
/// envelope fallback.
const MIN_SAMPLES: usize = 8;

/// The probability-based multi-state lower-envelope policy (Irani, Shukla
/// & Gupta): per-level descent thresholds placed to minimise expected cost
/// over the empirical distribution of recently observed idle gaps.
#[derive(Debug, Clone)]
pub struct LowerEnvelopePolicy {
    /// Pairwise break-even `β_l` for descending from level `l − 1` to `l`
    /// (`betas[l - 1]`).
    betas: Vec<f64>,
    /// Deterministic envelope fallback, absolute from idle start.
    envelope: Vec<f64>,
    /// Sliding-window length for observed gaps.
    window: usize,
    /// Per-disk recent idle-gap lengths.
    gaps: Vec<VecDeque<f64>>,
    /// Per-disk start of the open idle period, if any.
    idle_since: Vec<Option<f64>>,
    /// Per-disk planned descent thresholds for the current idle period,
    /// absolute from idle start (`f64::INFINITY` = hold).
    plan: Vec<Vec<f64>>,
}

impl LowerEnvelopePolicy {
    /// Build for a drive, remembering up to `window` recent gaps per disk.
    pub fn for_drive(spec: &DiskSpec, window: usize) -> Self {
        assert!(window >= MIN_SAMPLES, "window {window} < {MIN_SAMPLES}");
        let ladder = spec.power_ladder();
        let betas: Vec<f64> = (1..ladder.len())
            .map(|l| ladder.pairwise_break_even_s(l))
            .collect();
        LowerEnvelopePolicy {
            betas,
            envelope: envelope_descent_times(&ladder),
            window,
            gaps: Vec::new(),
            idle_since: Vec::new(),
            plan: Vec::new(),
        }
    }

    fn ensure_disk(&mut self, disk: usize) {
        if disk >= self.gaps.len() {
            self.gaps.resize_with(disk + 1, VecDeque::new);
            self.idle_since.resize(disk + 1, None);
            self.plan.resize_with(disk + 1, Vec::new);
        }
    }

    /// The expected-cost-minimising threshold for pairwise break-even
    /// `beta` over `sorted` ascending gap samples: the `τ` minimising
    /// `f(τ) = Σ_{g_i > τ} (beta + τ − g_i)`, restricted to the candidate
    /// set `{0} ∪ {g_i} ∪ {hold}` where the piecewise-linear minimum must
    /// lie. Returns `f64::INFINITY` when holding (never descending) wins.
    fn best_threshold(beta: f64, sorted: &[f64]) -> f64 {
        let n = sorted.len();
        let total: f64 = sorted.iter().sum();
        let mut best_tau = f64::INFINITY;
        let mut best_cost = 0.0; // holding (never descending) costs nothing extra.
        let mut consider = |tau: f64, count_gt: usize, sum_gt: f64| {
            let cost = count_gt as f64 * (beta + tau) - sum_gt;
            if cost < best_cost - 1e-12 {
                best_cost = cost;
                best_tau = tau;
            }
        };
        // Candidate τ = 0 (race to sleep), then τ = each distinct sample
        // (descend exactly as a gap of that length would have ended) —
        // the piecewise-linear expectation attains its minimum there.
        consider(0.0, n, total);
        let mut i = 0;
        let mut prefix = 0.0; // sum of samples ≤ the candidate
        while i < n {
            let g = sorted[i];
            while i < n && sorted[i] == g {
                prefix += sorted[i];
                i += 1;
            }
            consider(g, n - i, total - prefix);
        }
        best_tau
    }

    /// Plan the absolute descent thresholds for one idle period from the
    /// disk's observed gaps (or the envelope fallback), projected
    /// non-decreasing with depth.
    fn plan_thresholds(&self, disk: usize) -> Vec<f64> {
        let samples = &self.gaps[disk];
        if samples.len() < MIN_SAMPLES {
            return self.envelope.clone();
        }
        let mut sorted: Vec<f64> = samples.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite gaps"));
        let mut plan: Vec<f64> = self
            .betas
            .iter()
            .map(|&beta| Self::best_threshold(beta, &sorted))
            .collect();
        // A deeper level cannot be reached before a shallower one.
        for l in 1..plan.len() {
            plan[l] = plan[l].max(plan[l - 1]);
        }
        plan
    }
}

impl PowerPolicy for LowerEnvelopePolicy {
    fn name(&self) -> String {
        format!(
            "lower_envelope({} levels, window={})",
            self.betas.len() + 1,
            self.window
        )
    }

    fn settled(&mut self, disk: usize, level: u8, t: f64) -> Option<DescentStep> {
        self.ensure_disk(disk);
        if level == 0 {
            // Fresh idle period: observe it and plan the whole descent.
            self.idle_since[disk] = Some(t);
            self.plan[disk] = self.plan_thresholds(disk);
        }
        let l = level as usize;
        let tau = *self.plan[disk].get(l)?;
        if !tau.is_finite() {
            return None;
        }
        let rest = if l == 0 {
            tau
        } else {
            // Thresholds are absolute from idle start; entry transitions
            // consumed some of that budget already.
            let elapsed = self.idle_since[disk].map_or(0.0, |t0| t - t0);
            (tau - elapsed).max(0.0)
        };
        Some(DescentStep::to_level(rest, level + 1))
    }

    fn request_arrived(&mut self, disk: usize, t: f64) {
        self.ensure_disk(disk);
        if let Some(start) = self.idle_since[disk].take() {
            let gap = (t - start).max(0.0);
            if self.gaps[disk].len() == self.window {
                self.gaps[disk].pop_front();
            }
            self.gaps[disk].push_back(gap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindown_disk::PowerLadder;

    fn spec() -> DiskSpec {
        DiskSpec::seagate_st3500630as()
    }

    fn spec3() -> DiskSpec {
        let s = spec();
        let ladder = PowerLadder::with_low_rpm(&s);
        s.with_ladder(Some(ladder))
    }

    impl AdaptivePolicy {
        /// Current prediction for one disk (0 before any observation).
        fn predicted_gap_s(&self, disk: usize) -> f64 {
            self.predicted.get(disk).copied().unwrap_or(0.0)
        }
    }

    impl LowerEnvelopePolicy {
        /// Observed gaps for `disk`.
        fn observed_gaps(&self, disk: usize) -> usize {
            self.gaps.get(disk).map_or(0, VecDeque::len)
        }
    }

    #[test]
    fn ski_rental_draws_fresh_thresholds_within_beta() {
        let mut p = SkiRentalPolicy::for_drive(&spec(), 42);
        let beta = p.beta_s();
        assert!((beta - 48.7).abs() < 0.1, "beta {beta}");
        let draws: Vec<f64> = (0..50)
            .map(|i| p.settled(0, 0, i as f64).unwrap().rest_s)
            .collect();
        for &d in &draws {
            assert!((0.0..=beta).contains(&d), "draw {d}");
        }
        // Draws differ (randomised, not a fixed threshold).
        assert!(draws.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
        // Settling deeper never draws (the idle period is already open).
        assert_eq!(p.settled(0, 1, 60.0), None);
    }

    #[test]
    fn ski_rental_is_deterministic_per_seed() {
        let mut a = SkiRentalPolicy::for_drive(&spec(), 7);
        let mut b = SkiRentalPolicy::for_drive(&spec(), 7);
        for i in 0..100 {
            assert_eq!(a.settled(0, 0, i as f64), b.settled(0, 0, i as f64));
        }
        let mut c = SkiRentalPolicy::for_drive(&spec(), 8);
        let different = (0..20).any(|i| a.settled(0, 0, i as f64) != c.settled(0, 0, i as f64));
        assert!(different, "distinct seeds must give distinct streams");
    }

    #[test]
    fn ski_rental_streams_are_per_disk_and_interleaving_invariant() {
        // Draws for one disk must not depend on how other disks' draws
        // interleave — the property that makes sharded replay (which
        // splits the callbacks across per-shard clones) bit-identical.
        let mut interleaved = SkiRentalPolicy::for_drive(&spec(), 42);
        let mut sequential = SkiRentalPolicy::for_drive(&spec(), 42);
        let mut want = vec![Vec::new(); 4];
        for round in 0..8 {
            for (d, stream) in want.iter_mut().enumerate() {
                stream.push(interleaved.settled(d, 0, round as f64).unwrap().rest_s);
            }
        }
        for (d, stream) in want.iter().enumerate() {
            for (round, &expect) in stream.iter().enumerate() {
                let got = sequential.settled(d, 0, round as f64).unwrap().rest_s;
                assert_eq!(expect, got, "disk {d} round {round}");
            }
        }
        // Distinct disks see distinct streams.
        assert!(want[0] != want[1]);
        // Disk 0's stream is the legacy bare-seed stream.
        let mut legacy = SkiRentalPolicy::for_drive(&spec(), 42);
        assert_eq!(legacy.draw_threshold(0), want[0][0]);
    }

    #[test]
    fn ski_rental_mean_draw_matches_theory() {
        // E[τ] = β²/(β(e−1)) = β/(e−1).
        let beta = 10.0;
        let mut p = SkiRentalPolicy::new(beta, 3);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|i| p.settled(0, 0, i as f64).unwrap().rest_s)
            .sum::<f64>()
            / n as f64;
        let expect = beta / (std::f64::consts::E - 1.0);
        assert!(
            (mean - expect).abs() < 0.1,
            "mean draw {mean} vs theory {expect}"
        );
    }

    #[test]
    fn adaptive_starts_conservative_then_races_after_long_gaps() {
        let spec = spec();
        let be = dpm::classical_threshold(&spec);
        let mut p = AdaptivePolicy::for_drive(&spec, 0.5);
        // No history: break-even timeout, not an immediate spin-down.
        assert_eq!(p.settled(0, 0, 0.0), Some(DescentStep::to_deepest(be)));
        // A long observed gap (10× break-even) flips the prediction.
        p.request_arrived(0, 10.0 * be);
        assert!(p.predicted_gap_s(0) > be);
        assert_eq!(
            p.settled(0, 0, 10.0 * be + 1.0),
            Some(DescentStep::to_deepest(0.0))
        );
    }

    #[test]
    fn adaptive_learns_short_gaps_back_down() {
        let mut p = AdaptivePolicy::new(0.5, 50.0);
        // One huge gap, then a run of tiny ones: prediction must decay
        // below break-even and the policy must stop racing to sleep.
        p.settled(0, 0, 0.0);
        p.request_arrived(0, 1000.0);
        assert_eq!(p.settled(0, 0, 1000.0), Some(DescentStep::to_deepest(0.0)));
        let mut t = 1000.0;
        for _ in 0..8 {
            p.request_arrived(0, t + 1.0); // 1 s gaps
            t += 1.0;
            p.settled(0, 0, t);
        }
        assert!(p.predicted_gap_s(0) < 50.0, "pred {}", p.predicted_gap_s(0));
        assert_eq!(p.settled(0, 0, t), Some(DescentStep::to_deepest(50.0)));
    }

    #[test]
    fn adaptive_tracks_disks_independently() {
        let mut p = AdaptivePolicy::new(1.0, 50.0);
        p.settled(0, 0, 0.0);
        p.settled(5, 0, 0.0);
        p.request_arrived(0, 500.0);
        p.request_arrived(5, 2.0);
        assert!(p.predicted_gap_s(0) > 50.0);
        assert!(p.predicted_gap_s(5) < 50.0);
        assert_eq!(p.settled(0, 0, 500.0), Some(DescentStep::to_deepest(0.0)));
        assert_eq!(p.settled(5, 0, 500.0), Some(DescentStep::to_deepest(50.0)));
    }

    #[test]
    fn adaptive_ignores_arrivals_while_busy() {
        let mut p = AdaptivePolicy::new(1.0, 50.0);
        p.settled(0, 0, 0.0);
        p.request_arrived(0, 10.0); // closes the gap: 10 s
        p.request_arrived(0, 11.0); // busy-time arrival: no open gap
        assert!((p.predicted_gap_s(0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn envelope_descent_two_state_is_the_pairwise_break_even() {
        let mut p = EnvelopeDescentPolicy::for_drive(&spec());
        assert_eq!(p.times().len(), 1);
        let step = p.settled(0, 0, 0.0).unwrap();
        assert_eq!(step.to_level, 1);
        assert!((step.rest_s - 53.29).abs() < 0.05);
        assert_eq!(p.settled(0, 1, 100.0), None);
    }

    #[test]
    fn envelope_descent_steps_the_full_ladder() {
        let s3 = spec3();
        let ladder = s3.power_ladder();
        let mut p = EnvelopeDescentPolicy::for_drive(&s3);
        let t1 = ladder.pairwise_break_even_s(1);
        let t2 = ladder.pairwise_break_even_s(2);
        let s0 = p.settled(0, 0, 0.0).unwrap();
        assert_eq!(s0.to_level, 1);
        assert!((s0.rest_s - t1).abs() < 1e-12);
        let s1 = p.settled(0, 1, t1).unwrap();
        assert_eq!(s1.to_level, 2);
        assert!((s1.rest_s - (t2 - t1)).abs() < 1e-12);
        assert_eq!(p.settled(0, 2, t2), None);
    }

    #[test]
    fn lower_envelope_cold_start_follows_the_deterministic_envelope() {
        let s3 = spec3();
        let ladder = s3.power_ladder();
        let mut p = LowerEnvelopePolicy::for_drive(&s3, 16);
        let step = p.settled(0, 0, 0.0).unwrap();
        assert_eq!(step.to_level, 1);
        assert!((step.rest_s - ladder.pairwise_break_even_s(1)).abs() < 1e-12);
    }

    #[test]
    fn lower_envelope_learns_bimodal_gaps_and_races_to_sleep() {
        let s3 = spec3();
        let mut p = LowerEnvelopePolicy::for_drive(&s3, 16);
        // Feed a bimodal history: tiny 0.5 s gaps and huge 600 s gaps.
        let mut t = 0.0;
        for i in 0..16 {
            p.settled(0, 0, t);
            t += if i % 2 == 0 { 0.5 } else { 600.0 };
            p.request_arrived(0, t);
        }
        assert_eq!(p.observed_gaps(0), 16);
        // With gaps either ≪ β or ≫ β, the expected-cost minimiser puts
        // the first threshold just past the short mode (0.5 s) — far
        // below the deterministic envelope (≈ 22 s).
        let step = p.settled(0, 0, t).unwrap();
        assert!(
            step.rest_s <= 0.5 + 1e-9,
            "learned threshold {} should hug the short mode",
            step.rest_s
        );
    }

    #[test]
    fn lower_envelope_holds_when_all_gaps_are_short() {
        let s3 = spec3();
        let mut p = LowerEnvelopePolicy::for_drive(&s3, 16);
        let mut t = 0.0;
        for _ in 0..16 {
            p.settled(0, 0, t);
            t += 2.0; // every gap far below every β
            p.request_arrived(0, t);
        }
        // Descending can only lose: the policy holds at idle.
        assert_eq!(p.settled(0, 0, t), None);
    }

    #[test]
    fn lower_envelope_plans_monotone_thresholds() {
        let s3 = spec3();
        let mut p = LowerEnvelopePolicy::for_drive(&s3, 16);
        let mut t = 0.0;
        // Mixed gaps around the two betas.
        for i in 0..16 {
            p.settled(0, 0, t);
            t += [1.0, 30.0, 90.0, 400.0][i % 4];
            p.request_arrived(0, t);
        }
        p.settled(0, 0, t);
        let plan = p.plan[0].clone();
        assert_eq!(plan.len(), 2);
        assert!(plan[0] <= plan[1], "plan not monotone: {plan:?}");
    }

    #[test]
    fn best_threshold_picks_expected_cost_minimum() {
        // All gaps long: τ = 0 wins (race to sleep).
        assert_eq!(
            LowerEnvelopePolicy::best_threshold(10.0, &[100.0, 200.0, 300.0]),
            0.0
        );
        // All gaps short: hold.
        assert_eq!(
            LowerEnvelopePolicy::best_threshold(10.0, &[1.0, 2.0, 3.0]),
            f64::INFINITY
        );
        // Bimodal: descend just past the short mode.
        let tau = LowerEnvelopePolicy::best_threshold(10.0, &[1.0, 1.0, 1.0, 500.0, 500.0, 500.0]);
        assert_eq!(tau, 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn adaptive_rejects_bad_alpha() {
        let _ = AdaptivePolicy::new(0.0, 50.0);
    }

    #[test]
    #[should_panic(expected = "bad beta")]
    fn ski_rental_rejects_bad_beta() {
        let _ = SkiRentalPolicy::new(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn lower_envelope_rejects_tiny_window() {
        let _ = LowerEnvelopePolicy::for_drive(&spec(), 2);
    }
}
