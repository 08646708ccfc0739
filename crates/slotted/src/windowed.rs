//! Aligned-window execution of a single batch under A0–A2.
//!
//! All stations arrive at slot 0 running the same algorithm, so at every
//! point the alive stations are in the same window of the same size (a
//! station that fails waits until the end of the window — Figure 2). Each
//! window resolves as one balls-into-bins round: stations pick slots
//! uniformly; singleton slots succeed, multi-occupancy slots are disjoint
//! collisions.
//!
//! Execution is shared with [`crate::noisy::NoisySim`]: `WindowedSim` *is*
//! the noisy-channel simulator over [`ChannelModel::ideal`], which samples
//! slot fates without consuming randomness. The paper-model semantics are
//! therefore structurally identical to the softened model's `p = 0`
//! degenerate case, not merely test-equivalent.
//!
//! A trial comes out in one of two shapes from the same loop and the same
//! draws: [`WindowedSim::run`] and `Simulator::run_with` return the full
//! per-station [`BatchMetrics`], while `Simulator::summarize_with` — what
//! every sweep folding [`TrialSummary`] values runs — tallies the summary
//! directly, with no per-station state at all.

use crate::noisy::{NoisyConfig, NoisyScratch, NoisySim};
use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::ChannelModel;
use contention_core::metrics::BatchMetrics;
use contention_core::schedule::Truncation;
use contention_core::time::Nanos;
use contention_sim::engine::Simulator;
use contention_sim::summary::TrialSummary;
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration for one abstract windowed run.
#[derive(Debug, Clone, Copy)]
pub struct WindowedConfig {
    /// Which backoff algorithm every station runs.
    pub algorithm: AlgorithmKind,
    /// Window clamping. The abstract model is unbounded by default
    /// (§V-B notes the 1024 cap "differs from the abstract model").
    pub truncation: Truncation,
    /// Slot duration used only to express `total_time = cw_slots × slot`.
    pub slot: Nanos,
    /// Safety valve: abort after this many windows (0 = no limit). A run
    /// that trips the valve returns with `successes < n`.
    pub max_windows: u32,
}

impl WindowedConfig {
    /// Abstract-model defaults for an algorithm: unbounded windows, 9 µs
    /// slots.
    pub fn abstract_model(algorithm: AlgorithmKind) -> WindowedConfig {
        WindowedConfig {
            algorithm,
            truncation: Truncation::unbounded(),
            slot: Nanos::from_micros(9),
            max_windows: 0,
        }
    }

    /// Same, but clamped to the 802.11g CWmin/CWmax of Table I.
    pub fn truncated_model(algorithm: AlgorithmKind) -> WindowedConfig {
        WindowedConfig {
            truncation: Truncation::paper(),
            ..WindowedConfig::abstract_model(algorithm)
        }
    }

    /// The same run expressed as a noisy-channel config over the ideal
    /// channel — the execution engine `WindowedSim` delegates to.
    pub fn as_noisy(&self) -> NoisyConfig {
        NoisyConfig {
            algorithm: self.algorithm,
            truncation: self.truncation,
            slot: self.slot,
            channel: ChannelModel::ideal(),
            max_windows: self.max_windows,
        }
    }
}

/// The aligned-window simulator: the shared windowed engine over the ideal
/// (fatal-collision, noiseless) channel.
pub struct WindowedSim {
    inner: NoisySim,
}

impl WindowedSim {
    /// Builds a simulator; panics for algorithms without a static window
    /// schedule (BEST-OF-k belongs to the MAC simulator).
    pub fn new(config: WindowedConfig) -> WindowedSim {
        WindowedSim {
            inner: NoisySim::new(config.as_noisy()),
        }
    }

    /// Runs one single-batch trial of `n` stations.
    pub fn run<R: Rng>(&mut self, n: u32, rng: &mut R) -> BatchMetrics {
        self.inner.run(n, rng)
    }
}

/// Plugs the windowed semantics into the generic sweep engine. Fresh
/// per-trial state keeps `run` a pure function of `(config, n, rng)`.
impl Simulator for WindowedSim {
    type Config = WindowedConfig;
    type Output = BatchMetrics;
    /// Shares the noisy-channel engine's buffers (it *is* that engine over
    /// the ideal channel).
    type Scratch = NoisyScratch;
    const NAME: &'static str = "windowed";

    fn algorithm(config: &WindowedConfig) -> AlgorithmKind {
        config.algorithm
    }

    fn with_algorithm(config: &WindowedConfig, algorithm: AlgorithmKind) -> WindowedConfig {
        WindowedConfig {
            algorithm,
            ..*config
        }
    }

    fn run_with(
        config: &WindowedConfig,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut NoisyScratch,
    ) -> BatchMetrics {
        NoisySim::run_with(&config.as_noisy(), n, rng, scratch)
    }

    /// The shared loop's aggregate instantiation: no station table.
    fn summarize_with(
        config: &WindowedConfig,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut NoisyScratch,
    ) -> TrialSummary {
        NoisySim::summarize_with(&config.as_noisy(), n, rng, scratch)
    }
}

contention_sim::raw_trial_value!(WindowedSim);

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::rng::{experiment_tag, trial_rng};

    fn run_once(kind: AlgorithmKind, n: u32, trial: u32) -> BatchMetrics {
        let mut sim = WindowedSim::new(WindowedConfig::abstract_model(kind));
        let mut rng = trial_rng(experiment_tag("windowed-test"), kind, n, trial);
        sim.run(n, &mut rng)
    }

    #[test]
    fn all_packets_finish() {
        for kind in AlgorithmKind::PAPER_SET {
            let m = run_once(kind, 100, 0);
            assert_eq!(m.successes, 100, "{kind}");
            assert!(m.stations.iter().all(|s| s.success_time.is_some()));
        }
    }

    #[test]
    fn single_station_succeeds_immediately_under_beb() {
        // BEB's first window has size 1: the lone station transmits in the
        // first slot and succeeds.
        let m = run_once(AlgorithmKind::Beb, 1, 0);
        assert_eq!(m.cw_slots, 1);
        assert_eq!(m.collisions, 0);
        assert_eq!(m.stations[0].attempts, 1);
    }

    #[test]
    fn two_stations_collide_until_separated() {
        let m = run_once(AlgorithmKind::Beb, 2, 1);
        assert_eq!(m.successes, 2);
        // Both stations must collide in the size-1 window at least once.
        assert!(m.collisions >= 1);
        assert!(m.stations.iter().all(|s| s.attempts >= 2));
    }

    #[test]
    fn half_metrics_precede_full_metrics() {
        for kind in AlgorithmKind::PAPER_SET {
            let m = run_once(kind, 60, 2);
            assert!(m.half_cw_slots <= m.cw_slots, "{kind}");
            assert!(m.half_cw_slots > 0);
        }
    }

    #[test]
    fn collision_accounting_is_consistent() {
        for trial in 0..5 {
            let m = run_once(AlgorithmKind::LogBackoff, 80, trial);
            // Every disjoint collision involves ≥ 2 stations.
            assert!(m.colliding_stations >= 2 * m.collisions);
            // Station-level collision events equal total ACK timeouts.
            assert_eq!(m.colliding_stations, m.total_ack_timeouts());
            // Attempts = successes + failures.
            assert!(m.attempts_balance());
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = run_once(AlgorithmKind::Sawtooth, 120, 7);
        let b = run_once(AlgorithmKind::Sawtooth, 120, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn stb_uses_fewer_cw_slots_than_beb_at_scale() {
        // Table II at a size where the asymptotics already bite; median of a
        // few trials to dodge per-trial noise.
        let med = |kind: AlgorithmKind| -> u64 {
            let mut xs: Vec<u64> = (0..9).map(|t| run_once(kind, 2_000, t).cw_slots).collect();
            xs.sort_unstable();
            xs[4]
        };
        let beb = med(AlgorithmKind::Beb);
        let stb = med(AlgorithmKind::Sawtooth);
        assert!(stb < beb, "STB ({stb}) should beat BEB ({beb}) on CW slots");
    }

    #[test]
    fn max_windows_valve_truncates() {
        let mut config = WindowedConfig::abstract_model(AlgorithmKind::Beb);
        config.max_windows = 1;
        let mut sim = WindowedSim::new(config);
        let mut rng = trial_rng(experiment_tag("valve"), AlgorithmKind::Beb, 50, 0);
        let m = sim.run(50, &mut rng);
        // 50 stations in a single width-1 window cannot all succeed.
        assert!(m.successes < 50);
        // The delegated loop's valve exception rides along: one width-1
        // window elapsed, so `total_time` is one slot, not 0.
        assert_eq!(m.total_time, config.slot);
    }

    #[test]
    fn zero_stations_is_a_noop() {
        let m = run_once(AlgorithmKind::Beb, 0, 0);
        assert_eq!(m.successes, 0);
        assert_eq!(m.cw_slots, 0);
        assert_eq!(m.collisions, 0);
    }

    #[test]
    #[should_panic(expected = "no static window schedule")]
    fn best_of_k_is_rejected() {
        let _ = WindowedSim::new(WindowedConfig::abstract_model(AlgorithmKind::BestOfK {
            k: 3,
        }));
    }
}
