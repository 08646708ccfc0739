//! Cartesian `(algorithm × n × trial)` sweeps — re-exported from the
//! generic engine in `contention-sim`.
//!
//! The engine replaced the two near-identical `MacSweep` / `AbstractSweep`
//! structs that used to live here: both simulators (and the dynamic-traffic
//! one) now run through one [`Sweep`] parameterized by an
//! [`engine backend`](Simulator). Spellings used across the figures:
//!
//! * `Sweep::<MacSim>` — the 802.11g DCF simulator,
//! * `Sweep::<WindowedSim>` — the abstract aligned-window simulator,
//! * `Sweep::<ResidualSim>` — the abstract residual-timer semantics,
//! * `Sweep::<DynamicSim>` — long-lived traffic.
//!
//! Every one of them runs through [`Sweep::run_fold`], the engine's single
//! entry point.

pub use contention_sim::engine::{
    folded, run_trial, Accumulator, CellRange, ExecPolicy, FoldedCell, MergeableAccumulator,
    Simulator, Slots, Sweep,
};

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::algorithm::AlgorithmKind::*;
    use contention_mac::{MacConfig, MacSim};
    use contention_sim::engine::SweepHooks;
    use contention_sim::summary::TrialSummary;
    use contention_slotted::windowed::WindowedConfig;
    use contention_slotted::WindowedSim;

    /// Every trial's summary, per cell, in grid order.
    fn collect<S: Simulator>(sweep: &Sweep<S>) -> Vec<FoldedCell<Slots<TrialSummary>>>
    where
        TrialSummary: From<S::Output>,
    {
        sweep.run_fold(|_, _, trials| Slots::new(trials), &SweepHooks::none())
    }

    #[test]
    fn mac_sweep_fills_every_cell_deterministically() {
        let sweep = Sweep::<MacSim> {
            experiment: "sweep-test",
            config: MacConfig::paper(Beb, 64),
            algorithms: vec![Beb, Sawtooth],
            ns: vec![5, 10],
            trials: 3,
            exec: ExecPolicy::threads(2),
        };
        let a = collect(&sweep);
        let b = collect(&Sweep {
            exec: ExecPolicy::threads(7),
            ..sweep
        });
        assert_eq!(a.len(), 4);
        for (ca, cb) in a.into_iter().zip(b) {
            let n = ca.n;
            let (ta, tb) = (ca.acc.into_vec(), cb.acc.into_vec());
            assert_eq!(ta.len(), 3);
            assert_eq!(ta, tb, "thread count changed results");
            assert!(ta.iter().all(|t| t.successes == n));
        }
    }

    #[test]
    fn abstract_sweep_runs() {
        let sweep = Sweep::<WindowedSim> {
            experiment: "sweep-test-abs",
            config: WindowedConfig::abstract_model(Beb),
            algorithms: vec![Beb],
            ns: vec![50],
            trials: 4,
            exec: ExecPolicy::threads(1),
        };
        let mut cells = collect(&sweep);
        assert_eq!(cells.len(), 1);
        let trials = cells.remove(0).acc.into_vec();
        assert_eq!(trials.len(), 4);
        assert!(trials.iter().all(|t| t.cw_slots > 0.0));
    }

    #[test]
    fn cell_lookup() {
        let sweep = Sweep::<WindowedSim> {
            experiment: "sweep-test-lookup",
            config: WindowedConfig::abstract_model(Beb),
            algorithms: vec![Beb, LogBackoff],
            ns: vec![10, 20],
            trials: 1,
            exec: ExecPolicy::threads(1),
        };
        let cells = collect(&sweep);
        assert_eq!(folded(&cells, LogBackoff, 20).n, 20);
    }

    #[test]
    fn single_trials_reproduce_sweep_cells() {
        // `run_trial` (single-trial callers) and `Sweep::run_fold` (what
        // the figures use) must draw from the same deterministic stream.
        let config = MacConfig::paper(Sawtooth, 64);
        let mut cells = collect(&Sweep::<MacSim> {
            experiment: "sweep-vs-trial",
            config,
            algorithms: vec![Sawtooth],
            ns: vec![12],
            trials: 2,
            exec: ExecPolicy::threads(2),
        });
        let lone = run_trial::<MacSim>("sweep-vs-trial", &config, 12, 1);
        assert_eq!(cells.remove(0).acc.into_vec()[1], TrialSummary::from(lone));
    }
}
