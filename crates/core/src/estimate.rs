//! The BEST-OF-k size-estimation specification (§VI, Figure 17).
//!
//! ```text
//! BEST-OF-k
//!   for i = 0 to 10:
//!     for each of k consecutive slots:
//!       with probability 1/2^i, send a dummy packet; otherwise sense.
//!     if the channel was clear for more than k/2 slots:
//!       W ← 2^i; terminate and run fixed backoff with window W.
//! ```
//!
//! A slot in which the station itself transmitted counts as busy. For
//! `k = Θ(1)` significant *over*estimates may occur but the underestimate is
//! bounded: w.h.p. the estimate is `Ω(n / log n)` — and the experiments
//! (Figure 18) observe only overestimates, which is what makes fixed backoff
//! collision-frugal (Figure 19).

use crate::time::Nanos;

/// Parameters of the estimation phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestOfKSpec {
    /// Probe slots per phase (the `k` in Best-of-k; the paper runs 3 and 5).
    pub k: u32,
    /// Largest exponent probed; `i = 0..=max_exponent`, so the estimate is
    /// capped at `2^max_exponent` (= CWmax = 1024 with the paper's 10).
    pub max_exponent: u32,
    /// Duration of one probe round (the paper uses 35 µs — enough for a
    /// 28 B dummy frame plus preamble plus turnaround).
    pub round: Nanos,
    /// Dummy-packet size: 28 B, headerless (§VI).
    pub dummy_bytes: u32,
}

impl BestOfKSpec {
    /// The paper's configuration for a given `k`.
    pub fn paper(k: u32) -> BestOfKSpec {
        assert!(k >= 1, "k must be positive");
        BestOfKSpec {
            k,
            max_exponent: 10,
            round: Nanos::from_micros(35),
            dummy_bytes: 28,
        }
    }

    /// The estimate a station adopts when it terminates at phase `i`.
    pub fn estimate_for_phase(&self, i: u32) -> u32 {
        1u32 << i.min(self.max_exponent)
    }

    /// Termination test: did strictly more than `k/2` of the phase's rounds
    /// sense a clear channel?
    pub fn majority_clear(&self, clear_rounds: u32) -> bool {
        2 * clear_rounds > self.k
    }

    /// Worst-case duration of the whole estimation phase:
    /// `(max_exponent + 1) · k` rounds.
    pub fn max_duration(&self) -> Nanos {
        self.round * ((self.max_exponent as u64 + 1) * self.k as u64)
    }

    /// Probability that one probe round is *sensed clear by a given station*:
    /// the station itself sensed (didn't send) and none of the other `n − 1`
    /// undecided stations sent. Used by tests and by the analytical sanity
    /// checks of Figure 18.
    pub fn p_clear(&self, phase: u32, n: u32) -> f64 {
        let p = 0.5f64.powi(phase as i32);
        (1.0 - p).powi(n as i32)
    }

    /// Probability a station terminates at `phase` given all `n` stations are
    /// still probing: P[Binomial(k, p_clear) > k/2].
    pub fn p_terminate(&self, phase: u32, n: u32) -> f64 {
        let p = self.p_clear(phase, n);
        let k = self.k;
        let mut total = 0.0;
        for c in 0..=k {
            if 2 * c > k {
                total += binomial_pmf(k, c, p);
            }
        }
        total
    }

    /// The smallest phase whose termination probability exceeds one half —
    /// a deterministic proxy for the typical estimate, used to check that
    /// estimates overestimate `n` (Figure 18's "True Size" line is always
    /// below the estimates).
    pub fn typical_phase(&self, n: u32) -> u32 {
        (0..=self.max_exponent)
            .find(|&i| self.p_terminate(i, n) > 0.5)
            .unwrap_or(self.max_exponent)
    }
}

fn binomial_pmf(k: u32, c: u32, p: f64) -> f64 {
    let mut coeff = 1.0;
    for j in 0..c {
        coeff *= (k - j) as f64 / (j + 1) as f64;
    }
    coeff * p.powi(c as i32) * (1.0 - p).powi((k - c) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_values() {
        let s = BestOfKSpec::paper(3);
        assert_eq!(s.k, 3);
        assert_eq!(s.max_exponent, 10);
        assert_eq!(s.round, Nanos::from_micros(35));
        assert_eq!(s.dummy_bytes, 28);
    }

    #[test]
    fn majority_rule() {
        let s3 = BestOfKSpec::paper(3);
        assert!(!s3.majority_clear(0));
        assert!(!s3.majority_clear(1));
        assert!(s3.majority_clear(2));
        let s5 = BestOfKSpec::paper(5);
        assert!(!s5.majority_clear(2));
        assert!(s5.majority_clear(3));
    }

    #[test]
    fn estimates_are_powers_of_two_capped_at_1024() {
        let s = BestOfKSpec::paper(5);
        assert_eq!(s.estimate_for_phase(0), 1);
        assert_eq!(s.estimate_for_phase(8), 256);
        assert_eq!(s.estimate_for_phase(10), 1024);
        assert_eq!(s.estimate_for_phase(31), 1024);
    }

    #[test]
    fn estimation_time_is_negligible() {
        // §VI: estimation takes < 5 % of total time; worst case here is
        // 11 phases × 5 rounds × 35 µs = 1 925 µs, versus ≥ tens of
        // milliseconds of total time at n = 150.
        let s = BestOfKSpec::paper(5);
        assert_eq!(s.max_duration(), Nanos::from_micros(1_925));
    }

    #[test]
    fn clear_probability_monotone_in_phase() {
        let s = BestOfKSpec::paper(3);
        for n in [10u32, 50, 150] {
            for i in 0..10 {
                assert!(s.p_clear(i + 1, n) >= s.p_clear(i, n));
            }
        }
    }

    #[test]
    fn typical_estimate_overestimates_n() {
        // Figure 18: only overestimates occur, as predicted.
        let s = BestOfKSpec::paper(5);
        for n in [10u32, 30, 70, 150] {
            let w = s.estimate_for_phase(s.typical_phase(n));
            assert!(w as f64 >= n as f64, "estimate {w} underestimates n = {n}");
        }
    }

    #[test]
    fn phase_zero_never_terminates_with_contenders() {
        // With i = 0 every station sends in every round, so no round is
        // sensed clear for n ≥ 1 (own transmission counts busy).
        let s = BestOfKSpec::paper(3);
        assert_eq!(s.p_clear(0, 5), 0.0);
        assert_eq!(s.p_terminate(0, 5), 0.0);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let total: f64 = (0..=5).map(|c| binomial_pmf(5, c, 0.3)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
