//! Arrival processes: Poisson (Table 1), batched bursts (§3.2), and
//! non-stationary rate curves.
//!
//! The paper's synthetic experiments use Poisson arrivals with rate
//! `R ∈ 1..12` per second. §3.2 additionally motivates `Pack_Disks_v` with a
//! pattern seen in the real logs: "many users request a batch of files of
//! similar sizes all at once" — modelled here as a compound-Poisson process
//! whose bursts target runs of adjacent size-ranked files.
//!
//! [`RateCurve`] describes a time-varying arrival rate — sinusoidal
//! diurnal cycles, flash-crowd spikes, piecewise-constant tenant ramps —
//! and [`ThinnedProcess`] turns one into arrival instants by
//! Lewis–Shedler thinning: candidates are drawn from a homogeneous
//! Poisson process at the curve's maximum rate and accepted with
//! probability `rate(t) / max_rate`. The result is an exact (not
//! approximate) sample of the non-homogeneous process, seeded and fully
//! deterministic.

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

/// Sample an exponential inter-arrival time with the given `rate` (events
/// per second) via inverse transform.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    // 1 − u ∈ (0, 1]: avoids ln(0).
    let u: f64 = rng.random();
    -(1.0 - u).ln() / rate
}

/// A homogeneous Poisson process generating arrival instants.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    rate: f64,
    clock: f64,
    /// An arrival already drawn but beyond the last requested horizon; it is
    /// replayed first so extending the horizon never drops arrivals.
    pending: Option<f64>,
    rng: SmallRng,
}

impl PoissonProcess {
    /// New process with `rate` events/second starting at time 0.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        PoissonProcess {
            rate,
            clock: 0.0,
            pending: None,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Next arrival instant (monotone increasing).
    pub fn next_arrival(&mut self) -> f64 {
        if let Some(t) = self.pending.take() {
            return t;
        }
        self.clock += sample_exponential(&mut self.rng, self.rate);
        self.clock
    }

    /// All arrivals strictly before `horizon`, from the current clock.
    pub fn arrivals_until(&mut self, horizon: f64) -> Vec<f64> {
        let mut out = Vec::new();
        loop {
            let t = self.next_arrival();
            if t >= horizon {
                // Buffer the overshooting arrival so it is not lost if the
                // caller extends the horizon later.
                self.pending = Some(t);
                break;
            }
            out.push(t);
        }
        out
    }
}

/// One step of a piecewise-constant rate schedule: from `start_s` on
/// (until the next step takes over), arrivals come at `rate` per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampStep {
    /// Instant this step's rate takes effect, seconds.
    pub start_s: f64,
    /// Arrival rate from then on, events/second (≥ 0; a zero-rate step is
    /// a dead interval).
    pub rate: f64,
}

/// A time-varying arrival rate `rate(t)` for non-stationary workloads.
///
/// Three shapes cover the classic service-trace patterns: a sinusoidal
/// diurnal cycle, a flash-crowd spike (linear ramp up, hold, linear
/// decay), and piecewise-constant tenant ramps. Build with the checked
/// constructors ([`RateCurve::diurnal`], [`RateCurve::ramps`]) or parse a
/// CLI spec with [`RateCurve::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum RateCurve {
    /// `base + amplitude · sin(2π (t + phase_s) / period_s)` — the
    /// sinusoidal day/night cycle. `amplitude ≤ base` keeps the rate
    /// non-negative.
    Diurnal {
        /// Mean arrival rate, events/second.
        base: f64,
        /// Peak deviation from the mean (≤ `base`), events/second.
        amplitude: f64,
        /// Cycle length, seconds.
        period_s: f64,
        /// Phase offset, seconds (0 starts at the mean, rising).
        phase_s: f64,
    },
    /// A background `base` rate with one spike: linear ramp from `base`
    /// to `peak` over `[start_s, start_s + ramp_s)`, hold at `peak` for
    /// `hold_s`, linear decay back to `base` over `decay_s`.
    FlashCrowd {
        /// Background rate, events/second.
        base: f64,
        /// Spike rate (≥ `base`), events/second.
        peak: f64,
        /// Spike onset, seconds.
        start_s: f64,
        /// Ramp-up duration, seconds (0 = instant jump).
        ramp_s: f64,
        /// Plateau duration at `peak`, seconds.
        hold_s: f64,
        /// Decay duration back to `base`, seconds (0 = instant drop).
        decay_s: f64,
    },
    /// Piecewise-constant schedule: each [`RampStep`] holds its rate from
    /// its start until the next step. Steps are sorted by start, the
    /// first at `t = 0`.
    Ramps {
        /// The schedule, non-empty, strictly increasing starts, first at
        /// 0.
        steps: Vec<RampStep>,
    },
}

impl RateCurve {
    /// Checked sinusoidal diurnal cycle (phase 0).
    ///
    /// # Panics
    /// If `base` is not positive and finite, `amplitude` is outside
    /// `[0, base]`, or `period_s` is not positive and finite.
    pub fn diurnal(base: f64, amplitude: f64, period_s: f64) -> Self {
        assert!(base > 0.0 && base.is_finite(), "base rate must be positive");
        assert!(
            (0.0..=base).contains(&amplitude),
            "amplitude must be within [0, base] to keep the rate non-negative"
        );
        assert!(
            period_s > 0.0 && period_s.is_finite(),
            "period must be positive"
        );
        RateCurve::Diurnal {
            base,
            amplitude,
            period_s,
            phase_s: 0.0,
        }
    }

    /// Checked piecewise-constant tenant ramps.
    ///
    /// # Panics
    /// If `steps` is empty, starts are not strictly increasing from 0,
    /// any rate is negative or non-finite, or every rate is zero.
    pub fn ramps(steps: Vec<RampStep>) -> Self {
        assert!(!steps.is_empty(), "ramps need at least one step");
        assert_eq!(steps[0].start_s, 0.0, "the first step must start at 0");
        for w in steps.windows(2) {
            assert!(
                w[0].start_s < w[1].start_s,
                "step starts must strictly increase"
            );
        }
        for s in &steps {
            assert!(
                s.rate >= 0.0 && s.rate.is_finite(),
                "step rates must be non-negative"
            );
        }
        assert!(
            steps.iter().any(|s| s.rate > 0.0),
            "at least one step must have a positive rate"
        );
        RateCurve::Ramps { steps }
    }

    /// The instantaneous arrival rate at time `t` (events/second).
    pub fn rate_at(&self, t: f64) -> f64 {
        match self {
            RateCurve::Diurnal {
                base,
                amplitude,
                period_s,
                phase_s,
            } => base + amplitude * (std::f64::consts::TAU * (t + phase_s) / period_s).sin(),
            RateCurve::FlashCrowd {
                base,
                peak,
                start_s,
                ramp_s,
                hold_s,
                decay_s,
            } => {
                let dt = t - start_s;
                if dt < 0.0 {
                    *base
                } else if dt < *ramp_s {
                    base + (peak - base) * dt / ramp_s
                } else if dt < ramp_s + hold_s {
                    *peak
                } else if dt < ramp_s + hold_s + decay_s {
                    peak - (peak - base) * (dt - ramp_s - hold_s) / decay_s
                } else {
                    *base
                }
            }
            RateCurve::Ramps { steps } => steps
                .iter()
                .rev()
                .find(|s| s.start_s <= t)
                .map_or(steps[0].rate, |s| s.rate),
        }
    }

    /// The curve's maximum rate — the homogeneous candidate rate
    /// [`ThinnedProcess`] thins from.
    pub fn max_rate(&self) -> f64 {
        match self {
            RateCurve::Diurnal {
                base, amplitude, ..
            } => base + amplitude,
            RateCurve::FlashCrowd { peak, .. } => *peak,
            RateCurve::Ramps { steps } => steps.iter().map(|s| s.rate).fold(0.0, f64::max),
        }
    }

    /// A representative long-run rate, for sizing horizons from request
    /// budgets (`horizon ≈ requests / mean_rate_hint()`). Exact for the
    /// diurnal cycle over whole periods; the background rate for a flash
    /// crowd; the unweighted step mean for ramps.
    pub fn mean_rate_hint(&self) -> f64 {
        match self {
            RateCurve::Diurnal { base, .. } => *base,
            RateCurve::FlashCrowd { base, .. } => *base,
            RateCurve::Ramps { steps } => {
                steps.iter().map(|s| s.rate).sum::<f64>() / steps.len() as f64
            }
        }
    }

    /// A short human-readable tag for run notes and logs, e.g.
    /// `diurnal(base=4/s, amp=3, period=3600s)`.
    pub fn label(&self) -> String {
        match self {
            RateCurve::Diurnal {
                base,
                amplitude,
                period_s,
                phase_s,
            } => {
                if *phase_s == 0.0 {
                    format!("diurnal(base={base}/s, amp={amplitude}, period={period_s}s)")
                } else {
                    format!(
                        "diurnal(base={base}/s, amp={amplitude}, period={period_s}s, \
                         phase={phase_s}s)"
                    )
                }
            }
            RateCurve::FlashCrowd {
                base,
                peak,
                start_s,
                ramp_s,
                hold_s,
                decay_s,
            } => format!(
                "flash(base={base}/s, peak={peak}/s, at={start_s}s, \
                 ramp={ramp_s}s, hold={hold_s}s, decay={decay_s}s)"
            ),
            RateCurve::Ramps { steps } => {
                let parts: Vec<String> = steps
                    .iter()
                    .map(|s| format!("{}s\u{2192}{}/s", s.start_s, s.rate))
                    .collect();
                format!("ramps({})", parts.join(", "))
            }
        }
    }

    /// Parse a CLI spec. Three forms, mirroring the checked constructors:
    ///
    /// - `diurnal:base=B,amp=A,period=P[,phase=F]`
    /// - `flash:base=B,peak=P,at=T,ramp=R,hold=H,decay=D`
    /// - `ramps:T1=R1,T2=R2,…` (strictly increasing starts, first 0)
    pub fn parse(spec: &str) -> Result<RateCurve, String> {
        let (kind, body) = spec
            .split_once(':')
            .ok_or_else(|| format!("workload spec '{spec}' needs the form kind:key=value,…"))?;
        let pairs: Vec<(&str, f64)> =
            body.split(',')
                .map(|kv| {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("workload spec entry '{kv}' is not key=value"))?;
                    let v: f64 = v.trim().parse().map_err(|_| {
                        format!("workload spec entry '{kv}' has a non-numeric value")
                    })?;
                    if !v.is_finite() {
                        return Err(format!("workload spec entry '{kv}' must be finite"));
                    }
                    Ok((k.trim(), v))
                })
                .collect::<Result<_, String>>()?;
        let get =
            |key: &str| -> Option<f64> { pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v) };
        let require = |key: &str| -> Result<f64, String> {
            get(key).ok_or_else(|| format!("workload spec '{spec}' is missing {key}="))
        };
        let reject = |why: &str| format!("workload spec '{spec}' rejected: {why}");
        match kind {
            "diurnal" => {
                let (base, amp, period) = (require("base")?, require("amp")?, require("period")?);
                let phase = get("phase").unwrap_or(0.0);
                if base <= 0.0 {
                    return Err(reject("base rate must be positive"));
                }
                if !(0.0..=base).contains(&amp) {
                    return Err(reject("amp must be within [0, base]"));
                }
                if period <= 0.0 {
                    return Err(reject("period must be positive"));
                }
                Ok(RateCurve::Diurnal {
                    base,
                    amplitude: amp,
                    period_s: period,
                    phase_s: phase,
                })
            }
            "flash" => {
                let (base, peak) = (require("base")?, require("peak")?);
                let (at, ramp) = (require("at")?, require("ramp")?);
                let (hold, decay) = (require("hold")?, require("decay")?);
                if base <= 0.0 {
                    return Err(reject("base rate must be positive"));
                }
                if peak < base {
                    return Err(reject("peak must be at least the base rate"));
                }
                if at < 0.0 || ramp < 0.0 || hold < 0.0 || decay < 0.0 {
                    return Err(reject("at/ramp/hold/decay must be non-negative"));
                }
                Ok(RateCurve::FlashCrowd {
                    base,
                    peak,
                    start_s: at,
                    ramp_s: ramp,
                    hold_s: hold,
                    decay_s: decay,
                })
            }
            "ramps" => {
                let steps: Vec<RampStep> = pairs
                    .iter()
                    .map(|&(k, rate)| {
                        let start_s: f64 = k.parse().map_err(|_| {
                            format!("ramps spec entry '{k}={rate}' has a non-numeric start time")
                        })?;
                        Ok(RampStep { start_s, rate })
                    })
                    .collect::<Result<_, String>>()?;
                if steps.is_empty() {
                    return Err(reject("ramps need at least one step"));
                }
                if steps[0].start_s != 0.0 {
                    return Err(reject("the first ramp step must start at 0"));
                }
                if steps.windows(2).any(|w| w[0].start_s >= w[1].start_s) {
                    return Err(reject("ramp step starts must strictly increase"));
                }
                if steps.iter().any(|s| s.rate < 0.0) {
                    return Err(reject("ramp step rates must be non-negative"));
                }
                if steps.iter().all(|s| s.rate == 0.0) {
                    return Err(reject("at least one ramp step must have a positive rate"));
                }
                Ok(RateCurve::Ramps { steps })
            }
            other => Err(format!(
                "unknown workload kind '{other}' (expected diurnal, flash or ramps)"
            )),
        }
    }
}

/// Arrival instants for a [`RateCurve`] by Lewis–Shedler thinning: a
/// homogeneous Poisson process at the curve's maximum rate proposes
/// candidates, each accepted with probability `rate(t) / max_rate`. An
/// exact sampler of the non-homogeneous process, seeded and
/// deterministic; the candidate clock advances whether or not a
/// candidate is accepted, so generation always terminates at a horizon
/// even through zero-rate dead intervals.
#[derive(Debug, Clone)]
pub struct ThinnedProcess {
    curve: RateCurve,
    max_rate: f64,
    clock: f64,
    rng: SmallRng,
}

impl ThinnedProcess {
    /// New process sampling `curve` from time 0.
    pub fn new(curve: RateCurve, seed: u64) -> Self {
        let max_rate = curve.max_rate();
        assert!(
            max_rate > 0.0 && max_rate.is_finite(),
            "rate curve must have a positive maximum rate"
        );
        ThinnedProcess {
            curve,
            max_rate,
            clock: 0.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The curve being sampled.
    pub fn curve(&self) -> &RateCurve {
        &self.curve
    }

    /// Next accepted arrival strictly before `horizon` (monotone
    /// increasing), or `None` once the candidate clock passes the
    /// horizon.
    pub fn next_arrival_before(&mut self, horizon: f64) -> Option<f64> {
        loop {
            self.clock += sample_exponential(&mut self.rng, self.max_rate);
            if self.clock >= horizon {
                return None;
            }
            let u: f64 = self.rng.random();
            if u * self.max_rate <= self.curve.rate_at(self.clock) {
                return Some(self.clock);
            }
        }
    }
}

/// Configuration of the batched ("bursty") arrival process of §3.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Rate of bursts per second (each burst carries several requests).
    pub burst_rate: f64,
    /// Minimum requests per burst.
    pub min_batch: usize,
    /// Maximum requests per burst (inclusive).
    pub max_batch: usize,
    /// Requests within a burst are spaced this many seconds apart
    /// (0 = truly simultaneous).
    pub intra_batch_gap_s: f64,
}

impl BatchConfig {
    /// Validate invariants.
    pub fn validate(&self) {
        assert!(self.burst_rate > 0.0 && self.burst_rate.is_finite());
        assert!(self.min_batch >= 1);
        assert!(self.max_batch >= self.min_batch);
        assert!(self.intra_batch_gap_s >= 0.0);
    }
}

/// One burst: a start time and the number of back-to-back requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Burst start time, seconds.
    pub start: f64,
    /// Number of requests in the burst.
    pub count: usize,
}

/// Generate bursts before `horizon` under `cfg`.
pub fn generate_bursts(cfg: &BatchConfig, horizon: f64, seed: u64) -> Vec<Burst> {
    cfg.validate();
    let mut process = PoissonProcess::new(cfg.burst_rate, seed);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    process
        .arrivals_until(horizon)
        .into_iter()
        .map(|start| Burst {
            start,
            count: rng.random_range(cfg.min_batch..=cfg.max_batch),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SmallRng::seed_from_u64(11);
        let rate = 4.0;
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(&mut rng, rate))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01,
            "mean {mean} vs expected {}",
            1.0 / rate
        );
    }

    #[test]
    fn poisson_count_matches_rate() {
        let mut p = PoissonProcess::new(6.0, 3);
        let arrivals = p.arrivals_until(4000.0);
        let expected = 6.0 * 4000.0;
        let got = arrivals.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "got {got} arrivals, expected ≈{expected}"
        );
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let mut p = PoissonProcess::new(100.0, 5);
        let arrivals = p.arrivals_until(10.0);
        for w in arrivals.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn arrivals_respect_horizon() {
        let mut p = PoissonProcess::new(2.0, 9);
        for &t in &p.arrivals_until(100.0) {
            assert!(t < 100.0);
        }
    }

    #[test]
    fn process_is_seed_deterministic() {
        let a = PoissonProcess::new(3.0, 42).arrivals_until(50.0);
        let b = PoissonProcess::new(3.0, 42).arrivals_until(50.0);
        assert_eq!(a, b);
    }

    #[test]
    fn horizon_extension_does_not_drop_arrivals() {
        // Generating in two stages must equal generating in one.
        let mut two_stage = PoissonProcess::new(5.0, 77);
        let mut all = two_stage.arrivals_until(10.0);
        all.extend(two_stage.arrivals_until(20.0));
        let one_stage = PoissonProcess::new(5.0, 77).arrivals_until(20.0);
        assert_eq!(all, one_stage);
    }

    #[test]
    fn bursts_have_counts_in_range() {
        let cfg = BatchConfig {
            burst_rate: 0.5,
            min_batch: 3,
            max_batch: 8,
            intra_batch_gap_s: 0.0,
        };
        let bursts = generate_bursts(&cfg, 1000.0, 21);
        assert!(!bursts.is_empty());
        for b in &bursts {
            assert!((3..=8).contains(&b.count));
            assert!(b.start < 1000.0);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = PoissonProcess::new(0.0, 0);
    }

    fn drain(curve: RateCurve, horizon: f64, seed: u64) -> Vec<f64> {
        let mut p = ThinnedProcess::new(curve, seed);
        let mut out = Vec::new();
        while let Some(t) = p.next_arrival_before(horizon) {
            out.push(t);
        }
        out
    }

    #[test]
    fn diurnal_rate_tracks_the_sinusoid() {
        let c = RateCurve::diurnal(4.0, 3.0, 3600.0);
        assert_eq!(c.rate_at(0.0), 4.0);
        assert!((c.rate_at(900.0) - 7.0).abs() < 1e-9, "quarter period peak");
        assert!((c.rate_at(2700.0) - 1.0).abs() < 1e-9, "trough");
        assert_eq!(c.max_rate(), 7.0);
        assert_eq!(c.mean_rate_hint(), 4.0);
    }

    #[test]
    fn flash_crowd_rate_is_piecewise_linear() {
        let c = RateCurve::FlashCrowd {
            base: 2.0,
            peak: 20.0,
            start_s: 100.0,
            ramp_s: 10.0,
            hold_s: 30.0,
            decay_s: 20.0,
        };
        assert_eq!(c.rate_at(0.0), 2.0);
        assert!((c.rate_at(105.0) - 11.0).abs() < 1e-9, "mid-ramp");
        assert_eq!(c.rate_at(120.0), 20.0, "plateau");
        assert!((c.rate_at(150.0) - 11.0).abs() < 1e-9, "mid-decay");
        assert_eq!(c.rate_at(200.0), 2.0, "back to background");
        assert_eq!(c.max_rate(), 20.0);
    }

    #[test]
    fn ramps_rate_is_piecewise_constant() {
        let c = RateCurve::ramps(vec![
            RampStep {
                start_s: 0.0,
                rate: 2.0,
            },
            RampStep {
                start_s: 600.0,
                rate: 8.0,
            },
            RampStep {
                start_s: 1200.0,
                rate: 0.0,
            },
        ]);
        assert_eq!(c.rate_at(0.0), 2.0);
        assert_eq!(c.rate_at(599.9), 2.0);
        assert_eq!(c.rate_at(600.0), 8.0);
        assert_eq!(c.rate_at(5000.0), 0.0, "dead interval");
        assert_eq!(c.max_rate(), 8.0);
    }

    #[test]
    fn thinned_arrivals_are_monotone_deterministic_and_respect_the_horizon() {
        let curve = RateCurve::diurnal(4.0, 3.0, 500.0);
        let a = drain(curve.clone(), 2000.0, 42);
        let b = drain(curve, 2000.0, 42);
        assert_eq!(a, b, "seed-deterministic");
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0] < w[1], "strictly increasing");
        }
        assert!(a.iter().all(|&t| t < 2000.0));
    }

    #[test]
    fn thinned_counts_track_the_curve() {
        // Diurnal halves: [0, T/2) rides the sine's positive lobe, so it
        // must see clearly more arrivals than [T/2, T).
        let arrivals = drain(RateCurve::diurnal(4.0, 3.0, 4000.0), 4000.0, 7);
        let first_half = arrivals.iter().filter(|&&t| t < 2000.0).count() as f64;
        let second_half = arrivals.len() as f64 - first_half;
        assert!(
            first_half > 1.3 * second_half,
            "positive lobe {first_half} vs negative lobe {second_half}"
        );
        // Total tracks the base-rate mean over whole periods.
        let expected = 4.0 * 4000.0;
        assert!(
            (arrivals.len() as f64 - expected).abs() / expected < 0.05,
            "got {} arrivals, expected ≈{expected}",
            arrivals.len()
        );
    }

    #[test]
    fn thinning_terminates_through_a_zero_rate_tail() {
        // Rate drops to 0 at t = 10 and never recovers; generation must
        // still hit the horizon and stop.
        let curve = RateCurve::ramps(vec![
            RampStep {
                start_s: 0.0,
                rate: 5.0,
            },
            RampStep {
                start_s: 10.0,
                rate: 0.0,
            },
        ]);
        let arrivals = drain(curve, 10_000.0, 3);
        assert!(arrivals.iter().all(|&t| t < 10.0));
    }

    #[test]
    fn rate_curve_parse_round_trips() {
        assert_eq!(
            RateCurve::parse("diurnal:base=4,amp=3,period=3600").unwrap(),
            RateCurve::diurnal(4.0, 3.0, 3600.0)
        );
        assert_eq!(
            RateCurve::parse("flash:base=2,peak=20,at=100,ramp=10,hold=30,decay=20").unwrap(),
            RateCurve::FlashCrowd {
                base: 2.0,
                peak: 20.0,
                start_s: 100.0,
                ramp_s: 10.0,
                hold_s: 30.0,
                decay_s: 20.0,
            }
        );
        assert_eq!(
            RateCurve::parse("ramps:0=2,600=8").unwrap(),
            RateCurve::ramps(vec![
                RampStep {
                    start_s: 0.0,
                    rate: 2.0
                },
                RampStep {
                    start_s: 600.0,
                    rate: 8.0
                },
            ])
        );
    }

    #[test]
    fn rate_curve_parse_rejects_junk_with_named_reasons() {
        for (spec, needle) in [
            ("diurnal", "needs the form"),
            ("diurnal:base=4,amp=3", "missing period="),
            ("diurnal:base=4,amp=5,period=100", "amp must be within"),
            ("sawtooth:base=4", "unknown workload kind"),
            (
                "flash:base=2,peak=1,at=0,ramp=0,hold=0,decay=0",
                "peak must",
            ),
            ("ramps:5=2", "must start at 0"),
            ("ramps:0=0", "positive rate"),
            ("diurnal:base=x,amp=3,period=100", "non-numeric"),
        ] {
            let err = RateCurve::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec '{spec}': got '{err}'");
        }
    }
}
