//! Cost-aware scheduling: analytic per-trial cost estimates for sweep grids.
//!
//! Per-trial cost across one sweep grid varies by 2–3 orders of magnitude
//! (the `scale` experiment spans n = 12 500 … 10⁶; the saturation sweep
//! spans offered loads of 5 % … 120 % of channel capacity). A scheduler or
//! shard partitioner that treats every `(algorithm, n)` cell as equal work
//! therefore balances *counts*, not *work*: one shard inherits all the
//! n = 10⁶ cells, and the join waits on whichever worker drew the heavy
//! tail. This module gives the runtime a common currency for "estimated
//! work":
//!
//! * [`CostSpec`] — a small, serializable analytic shape (`uniform`,
//!   `linear-n`, `n-log-n`) each experiment's grid description declares for
//!   its backend. The absolute scale is irrelevant everywhere it is used —
//!   claim sizing, claim ordering and shard partitioning only compare costs
//!   against each other — so an analytic shape is enough.
//! * [`CostModel`] — the trait the scheduler consumes: per-trial cost as a
//!   function of `(algorithm, n)`. `CostSpec` implements it with the
//!   algorithm ignored (the paper's algorithms differ by small constant
//!   factors, the grid axes by orders of magnitude).
//! * [`CalibratedCost`] — an optional quick-probe calibrator wrapping any
//!   base model with measured per-algorithm scale factors, for callers that
//!   do want the constant factors (e.g. a work server splitting a grid
//!   across heterogeneous machines).
//!
//! Estimates feed scheduling only. A wrong cost estimate can slow a sweep
//! down; it can never change a bit of its output, because results are
//! routed by grid position and per-trial RNG streams are derived from grid
//! coordinates alone.

use contention_core::algorithm::AlgorithmKind;
use std::time::Instant;

/// An analytic per-trial cost shape, keyed by the grid's `n` axis.
///
/// This is pure data — it serializes into shard/checkpoint artifacts (as
/// its [`key`](CostSpec::key)) so a resumed or merged run plans work with
/// the same estimates the original run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostSpec {
    /// Every cell costs the same (the safe default; also what artifacts
    /// recorded before cost metadata existed deserialize to).
    #[default]
    Uniform,
    /// Cost proportional to `n` — e.g. the saturation sweep, where the `n`
    /// axis encodes offered load and arrivals dominate the trial.
    LinearN,
    /// Cost proportional to `n·log₂ n` — the windowed/MAC resolution
    /// backends, whose backoff runs last Θ(log n) windows of Θ(n) slots.
    NLogN,
}

impl CostSpec {
    /// The stable serialization key (`"uniform"` / `"linear-n"` /
    /// `"n-log-n"`).
    pub fn key(&self) -> &'static str {
        match self {
            CostSpec::Uniform => "uniform",
            CostSpec::LinearN => "linear-n",
            CostSpec::NLogN => "n-log-n",
        }
    }

    /// Parses a [`key`](CostSpec::key) back into its spec.
    pub fn from_key(key: &str) -> Option<CostSpec> {
        match key {
            "uniform" => Some(CostSpec::Uniform),
            "linear-n" => Some(CostSpec::LinearN),
            "n-log-n" => Some(CostSpec::NLogN),
            _ => None,
        }
    }

    /// The estimated cost of one trial at `n`, in arbitrary units (only
    /// ratios matter). Always finite and ≥ 1, so degenerate axes (n = 0
    /// placeholder cells) still carry schedulable weight.
    pub fn cost(&self, n: u32) -> f64 {
        let x = f64::from(n).max(1.0);
        match self {
            CostSpec::Uniform => 1.0,
            CostSpec::LinearN => x,
            CostSpec::NLogN => x * x.max(2.0).log2(),
        }
    }
}

/// Estimated execution cost of trials, the scheduler's only view of a
/// backend's performance profile.
pub trait CostModel {
    /// Estimated cost of one `(algorithm, n)` trial, in arbitrary units.
    fn trial_cost(&self, algorithm: AlgorithmKind, n: u32) -> f64;

    /// Estimated cost of a whole cell: `trials × trial_cost`.
    fn cell_cost(&self, algorithm: AlgorithmKind, n: u32, trials: u32) -> f64 {
        self.trial_cost(algorithm, n) * f64::from(trials)
    }
}

impl CostModel for CostSpec {
    fn trial_cost(&self, _algorithm: AlgorithmKind, n: u32) -> f64 {
        self.cost(n)
    }
}

/// A base [`CostModel`] corrected by measured per-algorithm scale factors —
/// the quick-probe calibrator.
///
/// The analytic specs capture how cost scales along the `n` axis but not
/// the constant factor between algorithms (e.g. SAWTOOTH's tighter windows
/// cost more slots per window than BEB's). Timing a handful of probe trials
/// and dividing by the base model's prediction recovers exactly that
/// constant; the geometric mean over a probe set keeps one outlier probe
/// (a page fault, a neighbor burst) from skewing the factor.
#[derive(Debug, Clone)]
pub struct CalibratedCost<M> {
    base: M,
    /// Measured/predicted scale per algorithm; algorithms without probes
    /// fall through at scale 1.
    scales: Vec<(AlgorithmKind, f64)>,
}

impl<M: CostModel> CalibratedCost<M> {
    /// Calibrates `base` from probe measurements: `(algorithm, n, measured
    /// cost)` triples, where `measured` is any consistent unit (seconds,
    /// nanoseconds — only ratios survive). Non-finite or non-positive
    /// measurements are discarded.
    pub fn from_probes(base: M, probes: &[(AlgorithmKind, u32, f64)]) -> CalibratedCost<M> {
        let mut scales: Vec<(AlgorithmKind, f64)> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for &(algorithm, n, measured) in probes {
            let predicted = base.trial_cost(algorithm, n);
            if !(measured.is_finite() && measured > 0.0 && predicted > 0.0) {
                continue;
            }
            let log_ratio = (measured / predicted).ln();
            match scales
                .iter_mut()
                .zip(&mut counts)
                .find(|((a, _), _)| *a == algorithm)
            {
                Some(((_, acc), count)) => {
                    *acc += log_ratio;
                    *count += 1;
                }
                None => {
                    scales.push((algorithm, log_ratio));
                    counts.push(1);
                }
            }
        }
        // Log-sums → geometric means.
        for ((_, acc), count) in scales.iter_mut().zip(&counts) {
            *acc = (*acc / *count as f64).exp();
        }
        CalibratedCost { base, scales }
    }

    /// Calibrates `base` by *running* quick probes: `run(algorithm, n)` is
    /// executed once per listed probe point and wall-clock timed.
    pub fn probe_with(
        base: M,
        points: &[(AlgorithmKind, u32)],
        mut run: impl FnMut(AlgorithmKind, u32),
    ) -> CalibratedCost<M> {
        let measured: Vec<(AlgorithmKind, u32, f64)> = points
            .iter()
            .map(|&(algorithm, n)| {
                let start = Instant::now();
                run(algorithm, n);
                (algorithm, n, start.elapsed().as_nanos() as f64)
            })
            .collect();
        CalibratedCost::from_probes(base, &measured)
    }

    /// The measured scale factor for `algorithm` (1.0 without probes).
    pub fn scale(&self, algorithm: AlgorithmKind) -> f64 {
        self.scales
            .iter()
            .find(|(a, _)| *a == algorithm)
            .map(|&(_, s)| s)
            .unwrap_or(1.0)
    }
}

impl<M: CostModel> CostModel for CalibratedCost<M> {
    fn trial_cost(&self, algorithm: AlgorithmKind, n: u32) -> f64 {
        self.base.trial_cost(algorithm, n) * self.scale(algorithm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        for spec in [CostSpec::Uniform, CostSpec::LinearN, CostSpec::NLogN] {
            assert_eq!(CostSpec::from_key(spec.key()), Some(spec));
        }
        assert_eq!(CostSpec::from_key("bogus"), None);
    }

    #[test]
    fn costs_are_positive_and_monotone() {
        for spec in [CostSpec::Uniform, CostSpec::LinearN, CostSpec::NLogN] {
            let mut last = 0.0;
            for n in [0u32, 1, 2, 100, 12_500, 1_000_000] {
                let c = spec.cost(n);
                assert!(c.is_finite() && c >= 1.0, "{spec:?} at n={n}: {c}");
                assert!(c >= last, "{spec:?} not monotone at n={n}");
                last = c;
            }
        }
        // The shapes actually separate: at n = 10⁶, n·log n ≫ n ≫ 1.
        assert!(CostSpec::NLogN.cost(1_000_000) > 10.0 * CostSpec::LinearN.cost(1_000_000));
        assert_eq!(CostSpec::Uniform.cost(1_000_000), 1.0);
    }

    #[test]
    fn cell_cost_multiplies_trials() {
        let spec = CostSpec::LinearN;
        assert_eq!(
            spec.cell_cost(AlgorithmKind::Beb, 100, 30),
            30.0 * spec.trial_cost(AlgorithmKind::Beb, 100)
        );
    }

    #[test]
    fn calibration_recovers_per_algorithm_factors() {
        // Probes generated from a "true" cost = spec × {1× for BEB, 3× for
        // SAWTOOTH}: calibration must recover the factors (geometric mean
        // of exact ratios is exact).
        let spec = CostSpec::NLogN;
        let probes: Vec<(AlgorithmKind, u32, f64)> = [100u32, 1_000, 10_000]
            .iter()
            .flat_map(|&n| {
                [
                    (AlgorithmKind::Beb, n, spec.cost(n)),
                    (AlgorithmKind::Sawtooth, n, 3.0 * spec.cost(n)),
                ]
            })
            .collect();
        let cal = CalibratedCost::from_probes(spec, &probes);
        assert!((cal.scale(AlgorithmKind::Beb) - 1.0).abs() < 1e-12);
        assert!((cal.scale(AlgorithmKind::Sawtooth) - 3.0).abs() < 1e-12);
        // The calibrated model preserves the base model's n-scaling.
        let r = cal.trial_cost(AlgorithmKind::Sawtooth, 10_000)
            / cal.trial_cost(AlgorithmKind::Sawtooth, 100);
        assert!((r - spec.cost(10_000) / spec.cost(100)).abs() < 1e-9);
        // Unprobed algorithms fall through at scale 1.
        assert_eq!(cal.scale(AlgorithmKind::LogBackoff), 1.0);
    }

    #[test]
    fn calibration_discards_junk_probes() {
        let junk = [
            (AlgorithmKind::Beb, 100, f64::NAN),
            (AlgorithmKind::Beb, 100, -5.0),
            (AlgorithmKind::Beb, 100, 0.0),
        ];
        let cal = CalibratedCost::from_probes(CostSpec::Uniform, &junk);
        assert_eq!(cal.scale(AlgorithmKind::Beb), 1.0);
    }

    #[test]
    fn probe_with_times_every_point() {
        let mut ran: Vec<(AlgorithmKind, u32)> = Vec::new();
        let cal = CalibratedCost::probe_with(
            CostSpec::Uniform,
            &[(AlgorithmKind::Beb, 10), (AlgorithmKind::Sawtooth, 20)],
            |a, n| ran.push((a, n)),
        );
        assert_eq!(
            ran,
            vec![(AlgorithmKind::Beb, 10), (AlgorithmKind::Sawtooth, 20)]
        );
        // Timed scales are positive whatever the clock resolution did.
        assert!(cal.scale(AlgorithmKind::Beb) >= 0.0);
    }
}
