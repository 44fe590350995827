//! Fault-plan specification: the seeded, deterministic failure model the
//! simulation engine injects while replaying a workload.
//!
//! A [`FaultPlan`] is parsed from a compact `|`-separated spec grammar —
//! e.g. `crash@t=500:d7 | transient:p=1e-4 | failslow:d3:x4@200..900 |
//! wakefail:p=0.02 | mttr=300` — and describes *what* can go wrong; the
//! engine's injector decides *when*, by drawing from per-disk RNG streams
//! seeded from this plan's seed and each disk's **global** id, so a sharded
//! replay injects exactly the faults an unsharded one does.
//!
//! Clauses (whitespace around `|` and within clauses is ignored):
//!
//! | clause | meaning |
//! |--------|---------|
//! | `none` | the empty plan ([`FaultPlan::none`]) |
//! | `crash@t=T:dN` | disk `N` fail-stops at `T` seconds (repeatable) |
//! | `transient:p=P` | each service completion fails with probability `P` |
//! | `wakefail:p=P` | each spin-up completion fails with probability `P` |
//! | `failslow:dN:xF@A..B` | disk `N` serves `F`× slower in `[A, B)` s |
//! | `mttr=S` | mean-time-to-repair after a crash, seconds (default 300) |
//! | `retries=N` | per-request / per-wake retry budget (default 5) |
//! | `backoff=S` | base of the capped exponential retry backoff (default 2) |
//! | `shed=N` | shed arrivals once a disk queue holds ≥ `N` requests |
//! | `seed=N` | base seed of the per-disk fault RNG streams |
//!
//! The parser rejects non-finite numbers, probabilities outside `[0, 1]`,
//! slow-down factors below 1, empty fail-slow windows and retry budgets
//! past `u32::MAX`, so a plan that constructs is always physically
//! meaningful.

#![warn(clippy::cast_possible_truncation)]

/// One scheduled fail-stop crash: disk `disk` goes offline at `at_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashSpec {
    /// Global disk id that crashes.
    pub disk: usize,
    /// Crash time, seconds from replay start.
    pub at_s: f64,
}

/// One fail-slow window: disk `disk` serves `factor`× slower while the
/// dispatch time falls in `[from_s, to_s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailSlowSpec {
    /// Global disk id that degrades.
    pub disk: usize,
    /// Service-time multiplier (≥ 1).
    pub factor: f64,
    /// Window start, seconds (inclusive).
    pub from_s: f64,
    /// Window end, seconds (exclusive).
    pub to_s: f64,
}

impl CrashSpec {
    /// The clause as the spec grammar spells it (`crash@t=T:dN`).
    pub fn clause(&self) -> String {
        format!("crash@t={}:d{}", self.at_s, self.disk)
    }
}

impl FailSlowSpec {
    /// The clause as the spec grammar spells it (`failslow:dN:xF@A..B`).
    pub fn clause(&self) -> String {
        format!(
            "failslow:d{}:x{}@{}..{}",
            self.disk, self.factor, self.from_s, self.to_s
        )
    }

    /// Whether a dispatch at `t` on this spec's disk falls in the window.
    pub fn covers(&self, t: f64) -> bool {
        t >= self.from_s && t < self.to_s
    }
}

/// A deterministic fault plan: every failure mode the engine may inject
/// over one replay, plus the recovery/retry knobs. [`FaultPlan::none`] is
/// the empty plan the engine treats as "faults compiled out" — the no-fault
/// event loop is bit-identical to an engine without the subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scheduled fail-stop crashes (disk offline until repaired).
    pub crashes: Vec<CrashSpec>,
    /// Probability a service completion is a transient I/O error.
    pub transient_p: f64,
    /// Probability a spin-up completion fails (the drive falls back to its
    /// sleep level; the attempted transition's energy is still charged).
    pub wakefail_p: f64,
    /// Fail-slow windows scaling a disk's service times.
    pub failslow: Vec<FailSlowSpec>,
    /// Mean time to repair after a fail-stop crash, seconds.
    pub mttr_s: f64,
    /// Retry budget: per request for transient errors, per waking episode
    /// for wake failures. Exhaustion is a counted failure (transient) or an
    /// escalated crash (wake), never a panic.
    pub retry_budget: u32,
    /// Base of the capped exponential backoff between retries, seconds
    /// (attempt `k` waits `min(backoff_base_s · 2^k, backoff_cap_s)`).
    pub backoff_base_s: f64,
    /// Ceiling of the retry backoff, seconds.
    pub backoff_cap_s: f64,
    /// Admission-control watermark: an arrival finding its disk queue at or
    /// above this depth is shed (0 disables shedding).
    pub shed_watermark: usize,
    /// Base seed of the per-disk fault RNG streams (combined with each
    /// disk's global id, so sharding cannot change which faults fire).
    pub seed: u64,
}

impl FaultPlan {
    /// The empty plan: no failure mode enabled, default recovery knobs.
    pub fn none() -> Self {
        FaultPlan {
            crashes: Vec::new(),
            transient_p: 0.0,
            wakefail_p: 0.0,
            failslow: Vec::new(),
            mttr_s: 300.0,
            retry_budget: 5,
            backoff_base_s: 2.0,
            backoff_cap_s: 60.0,
            shed_watermark: 0,
            seed: 0xFA_017,
        }
    }

    /// Whether no failure mode is enabled — the engine's fast-path test:
    /// a plan for which this holds injects nothing and costs nothing.
    pub fn is_none(&self) -> bool {
        self.crashes.is_empty()
            && self.transient_p == 0.0
            && self.wakefail_p == 0.0
            && self.failslow.is_empty()
            && self.shed_watermark == 0
    }

    /// Parse the `|`-separated spec grammar (see the module docs). Returns
    /// a human-readable message naming the offending clause on error.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for raw in spec.split('|') {
            let clause = raw.trim();
            if clause.is_empty() || clause == "none" {
                continue;
            }
            if let Some(rest) = clause.strip_prefix("crash@t=") {
                let (t, d) = rest
                    .split_once(":d")
                    .ok_or_else(|| format!("crash clause needs `crash@t=T:dN`: {clause:?}"))?;
                plan.crashes.push(CrashSpec {
                    disk: parse_usize(d, clause)?,
                    at_s: parse_time(t, clause)?,
                });
            } else if let Some(p) = clause.strip_prefix("transient:p=") {
                plan.transient_p = parse_probability(p, clause)?;
            } else if let Some(p) = clause.strip_prefix("wakefail:p=") {
                plan.wakefail_p = parse_probability(p, clause)?;
            } else if let Some(rest) = clause.strip_prefix("failslow:d") {
                let (d, rest) = rest
                    .split_once(":x")
                    .ok_or_else(|| failslow_usage(clause))?;
                let (f, window) = rest.split_once('@').ok_or_else(|| failslow_usage(clause))?;
                let (a, b) = window
                    .split_once("..")
                    .ok_or_else(|| failslow_usage(clause))?;
                let spec = FailSlowSpec {
                    disk: parse_usize(d, clause)?,
                    factor: parse_f64(f, clause)?,
                    from_s: parse_time(a, clause)?,
                    to_s: parse_time(b, clause)?,
                };
                if !(spec.factor >= 1.0) || !spec.factor.is_finite() {
                    return Err(format!("fail-slow factor must be ≥ 1: {clause:?}"));
                }
                if !(spec.to_s > spec.from_s) {
                    return Err(format!("empty fail-slow window: {clause:?}"));
                }
                plan.failslow.push(spec);
            } else if let Some(s) = clause.strip_prefix("mttr=") {
                plan.mttr_s = parse_time(s, clause)?;
            } else if let Some(n) = clause.strip_prefix("retries=") {
                plan.retry_budget = u32::try_from(parse_usize(n, clause)?)
                    .map_err(|_| format!("retry budget past {} in {clause:?}", u32::MAX))?;
            } else if let Some(s) = clause.strip_prefix("backoff=") {
                let base = parse_time(s, clause)?;
                if base <= 0.0 {
                    return Err(format!("backoff base must be positive: {clause:?}"));
                }
                plan.backoff_base_s = base;
            } else if let Some(n) = clause.strip_prefix("shed=") {
                plan.shed_watermark = parse_usize(n, clause)?;
            } else if let Some(n) = clause.strip_prefix("seed=") {
                plan.seed = n
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed in {clause:?}"))?;
            } else {
                return Err(format!(
                    "unknown fault clause {clause:?} (expected crash@t=…, transient:p=…, \
                     wakefail:p=…, failslow:d…, mttr=…, retries=…, backoff=…, shed=… or seed=…)"
                ));
            }
        }
        Ok(plan)
    }

    /// Canonical spec string re-parsing to an equal plan (`"none"` for the
    /// empty plan). Non-default recovery knobs are always spelled out.
    pub fn label(&self) -> String {
        if self.is_none() {
            return "none".to_owned();
        }
        let defaults = FaultPlan::none();
        let mut clauses: Vec<String> = Vec::new();
        clauses.extend(self.crashes.iter().map(CrashSpec::clause));
        if self.transient_p > 0.0 {
            clauses.push(format!("transient:p={}", self.transient_p));
        }
        clauses.extend(self.failslow.iter().map(FailSlowSpec::clause));
        if self.wakefail_p > 0.0 {
            clauses.push(format!("wakefail:p={}", self.wakefail_p));
        }
        if self.mttr_s != defaults.mttr_s {
            clauses.push(format!("mttr={}", self.mttr_s));
        }
        if self.retry_budget != defaults.retry_budget {
            clauses.push(format!("retries={}", self.retry_budget));
        }
        if self.backoff_base_s != defaults.backoff_base_s {
            clauses.push(format!("backoff={}", self.backoff_base_s));
        }
        if self.shed_watermark != defaults.shed_watermark {
            clauses.push(format!("shed={}", self.shed_watermark));
        }
        if self.seed != defaults.seed {
            clauses.push(format!("seed={}", self.seed));
        }
        clauses.join(" | ")
    }

    /// The first clause naming a disk outside a fleet of `fleet` disks, as
    /// `(clause, disk)` — crashes before fail-slow windows, each in spec
    /// order. `None` when every disk-targeted clause fits the fleet.
    pub fn disk_out_of_range(&self, fleet: usize) -> Option<(String, usize)> {
        let crashes = self.crashes.iter().map(|c| (c.disk, c.clause()));
        let slow = self.failslow.iter().map(|f| (f.disk, f.clause()));
        crashes
            .chain(slow)
            .find(|&(disk, _)| disk >= fleet)
            .map(|(disk, clause)| (clause, disk))
    }

    /// The backoff before retry attempt `attempt` (0-based): a capped
    /// exponential `min(base · 2^attempt, cap)`.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let factor = 2.0_f64.powi(attempt.min(30) as i32);
        (self.backoff_base_s * factor).min(self.backoff_cap_s)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

fn failslow_usage(clause: &str) -> String {
    format!("fail-slow clause needs `failslow:dN:xF@A..B`: {clause:?}")
}

fn parse_f64(s: &str, clause: &str) -> Result<f64, String> {
    s.trim()
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("bad number {s:?} in {clause:?}"))
}

fn parse_time(s: &str, clause: &str) -> Result<f64, String> {
    let t = parse_f64(s, clause)?;
    if t < 0.0 {
        return Err(format!("negative time in {clause:?}"));
    }
    Ok(t)
}

fn parse_probability(s: &str, clause: &str) -> Result<f64, String> {
    let p = parse_f64(s, clause)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability outside [0, 1] in {clause:?}"));
    }
    Ok(p)
}

fn parse_usize(s: &str, clause: &str) -> Result<usize, String> {
    s.trim()
        .parse::<usize>()
        .map_err(|_| format!("bad count {s:?} in {clause:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty_and_default() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert_eq!(p, FaultPlan::default());
        assert_eq!(p.label(), "none");
        assert_eq!(FaultPlan::parse("none").unwrap(), p);
        assert_eq!(FaultPlan::parse("").unwrap(), p);
    }

    #[test]
    fn parses_the_issue_example_spec() {
        let p = FaultPlan::parse(
            "crash@t=500:d7 | transient:p=1e-4 | failslow:d3:x4@200..900 \
             | wakefail:p=0.02 | mttr=300",
        )
        .unwrap();
        assert_eq!(
            p.crashes,
            vec![CrashSpec {
                disk: 7,
                at_s: 500.0
            }]
        );
        assert_eq!(p.transient_p, 1e-4);
        assert_eq!(p.wakefail_p, 0.02);
        assert_eq!(
            p.failslow,
            vec![FailSlowSpec {
                disk: 3,
                factor: 4.0,
                from_s: 200.0,
                to_s: 900.0,
            }]
        );
        assert_eq!(p.mttr_s, 300.0);
        assert!(!p.is_none());
    }

    #[test]
    fn label_round_trips_through_parse() {
        for spec in [
            "crash@t=500:d7 | transient:p=0.0001 | wakefail:p=0.02",
            "failslow:d3:x4@200..900 | retries=2 | backoff=5 | shed=64 | seed=99",
            "transient:p=0.5 | mttr=120",
            "none",
        ] {
            let p = FaultPlan::parse(spec).unwrap();
            assert_eq!(FaultPlan::parse(&p.label()).unwrap(), p, "spec {spec:?}");
        }
    }

    #[test]
    fn disk_out_of_range_names_the_first_offending_clause() {
        let p = FaultPlan::parse("crash@t=5:d2 | failslow:d9:x2@0..10 | crash@t=1:d12").unwrap();
        assert_eq!(p.disk_out_of_range(13), None);
        assert_eq!(
            p.disk_out_of_range(10),
            Some(("crash@t=1:d12".to_owned(), 12)),
            "crashes are checked before fail-slow windows"
        );
        assert_eq!(
            p.disk_out_of_range(9),
            Some(("crash@t=1:d12".to_owned(), 12))
        );
        let slow = FaultPlan::parse("failslow:d9:x2@0..10").unwrap();
        assert_eq!(
            slow.disk_out_of_range(9),
            Some(("failslow:d9:x2@0..10".to_owned(), 9)),
            "disk ids are 0-based: d9 needs 10 disks"
        );
        assert_eq!(FaultPlan::none().disk_out_of_range(0), None);
    }

    #[test]
    fn recovery_knobs_alone_keep_the_plan_none() {
        // mttr/retries/backoff/seed without a failure mode: nothing can
        // fire, so the engine's fast path must stay eligible.
        let p = FaultPlan::parse("mttr=60 | retries=9 | seed=4").unwrap();
        assert!(p.is_none());
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "crash@t=500",            // missing disk
            "transient:p=1.5",        // probability out of range
            "transient:p=NaN",        // non-finite
            "wakefail:p=-0.1",        // negative probability
            "failslow:d3:x0.5@0..10", // factor < 1
            "failslow:d3:x2@10..10",  // empty window
            "failslow:d3:x2@9..1",    // inverted window
            "crash@t=-5:d0",          // negative time
            "backoff=0",              // non-positive backoff
            "explode:p=1",            // unknown clause
            "retries=-1",             // negative count
            "retries=4294967296",     // past u32
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = FaultPlan::parse("transient:p=0.1 | backoff=2").unwrap();
        assert_eq!(p.backoff_s(0), 2.0);
        assert_eq!(p.backoff_s(1), 4.0);
        assert_eq!(p.backoff_s(2), 8.0);
        assert_eq!(p.backoff_s(30), p.backoff_cap_s);
        assert_eq!(p.backoff_s(u32::MAX), p.backoff_cap_s);
    }

    #[test]
    fn failslow_window_is_half_open() {
        let f = FailSlowSpec {
            disk: 0,
            factor: 2.0,
            from_s: 10.0,
            to_s: 20.0,
        };
        assert!(!f.covers(9.999));
        assert!(f.covers(10.0));
        assert!(f.covers(19.999));
        assert!(!f.covers(20.0));
    }

    #[test]
    fn multiple_crashes_accumulate() {
        let p = FaultPlan::parse("crash@t=10:d0 | crash@t=20:d0 | crash@t=5:d3").unwrap();
        assert_eq!(p.crashes.len(), 3);
        assert_eq!(FaultPlan::parse(&p.label()).unwrap(), p);
    }
}
