//! Cross-engine golden determinism: the generic `Sweep<S>` must yield
//! byte-identical results regardless of the worker-thread count *and* the
//! cost table that shapes its tapered, heaviest-first claim schedule — for
//! every simulator backend, whether the run collects every trial (a fold
//! into `Slots`) or streams through per-metric buffers (`MetricStats`).
//!
//! The golden is a reference oracle: a plain `run_trial` loop over
//! `(algorithm, n, trial)` that never touches the scheduler.
//! "Byte-identical" is checked literally: every `f64` is compared by its
//! bit pattern, not by `==`, so even a sign-of-zero or NaN-payload drift
//! between schedules would fail.

use contention_experiments::aggregate::MetricStats;
use contention_resolution::prelude::*;
use contention_slotted::dynamic::{ArrivalProcess, DynamicConfig, DynamicSim};

const THREADS: [usize; 3] = [1, 2, 8];

/// Cost tables of every shape the scheduler must tolerate, over the full
/// grid in cell order: none, ascending `n log n`-style estimates, the same
/// reversed, and junk (NaN, negative, ±∞, zero).
fn cost_tables<S: Simulator>(sweep: &Sweep<S>) -> Vec<Option<Vec<f64>>> {
    let ascending: Vec<f64> = sweep
        .algorithms
        .iter()
        .flat_map(|_| sweep.ns.iter().map(|&n| CostSpec::NLogN.cost(n)))
        .collect();
    let reversed = ascending.iter().rev().copied().collect();
    let junk = [f64::NAN, -1.0, f64::INFINITY, 0.0, f64::NEG_INFINITY];
    let junk = (0..ascending.len()).map(|i| junk[i % junk.len()]).collect();
    vec![None, Some(ascending), Some(reversed), Some(junk)]
}

/// Every trial's raw output, cell by cell in grid order, from a plain
/// `run_trial` loop — no scheduler involved.
fn oracle<S: Simulator>(sweep: &Sweep<S>) -> Vec<Vec<S::Output>> {
    sweep
        .algorithms
        .iter()
        .flat_map(|&alg| sweep.ns.iter().map(move |&n| (alg, n)))
        .map(|(alg, n)| {
            let config = S::with_algorithm(&sweep.config, alg);
            (0..sweep.trials)
                .map(|t| run_trial::<S>(sweep.experiment, &config, n, t))
                .collect()
        })
        .collect()
}

/// Every trial's value, cell by cell in grid order, through the engine.
fn collect<S: Simulator, T: TrialValue<S> + Clone + Send>(
    sweep: &Sweep<S>,
    hooks: &SweepHooks<'_, Slots<T>>,
) -> Vec<Vec<T>> {
    sweep
        .run_fold(|_, _, trials| Slots::new(trials), hooks)
        .into_iter()
        .map(|cell| cell.acc.into_vec())
        .collect()
}

/// The bit-exact image of a `TrialSummary`.
fn bits(t: &TrialSummary) -> Vec<u64> {
    vec![
        t.n as u64,
        t.successes as u64,
        t.cw_slots.to_bits(),
        t.half_cw_slots.to_bits(),
        t.total_time_us.to_bits(),
        t.half_time_us.to_bits(),
        t.collisions.to_bits(),
        t.colliding_stations.to_bits(),
        t.ack_timeouts.to_bits(),
        t.max_ack_timeouts.to_bits(),
        t.max_ack_timeout_time_us.to_bits(),
        t.median_estimate.to_bits(),
    ]
}

fn summary_bits(cells: &[Vec<TrialSummary>]) -> Vec<Vec<Vec<u64>>> {
    cells.iter().map(|c| c.iter().map(bits).collect()).collect()
}

/// Across the full threads × cost-table matrix, collecting every trial
/// reproduces the oracle bit-for-bit, and so does streaming through
/// per-metric buffers.
fn assert_engine_invariants<S: Simulator>(sweep_for: impl Fn(ExecPolicy) -> Sweep<S>)
where
    TrialSummary: From<S::Output>,
{
    let base = sweep_for(ExecPolicy::threads(1));
    let golden_cells: Vec<Vec<TrialSummary>> = oracle(&base)
        .into_iter()
        .map(|c| c.into_iter().map(TrialSummary::from).collect())
        .collect();
    let golden = summary_bits(&golden_cells);
    assert!(!golden.is_empty() && golden.iter().all(|c| !c.is_empty()));
    for threads in THREADS {
        for costs in cost_tables(&base) {
            let sweep = sweep_for(ExecPolicy::threads(threads));
            let got = summary_bits(&collect(
                &sweep,
                &SweepHooks {
                    costs: costs.as_deref(),
                    ..SweepHooks::none()
                },
            ));
            assert_eq!(
                golden,
                got,
                "{}: collected trials changed at threads={threads} costs={costs:?}",
                S::NAME
            );

            let folded_cells = sweep.run_fold(
                MetricStats::collector(&Metric::ALL),
                &SweepHooks {
                    costs: costs.as_deref(),
                    ..SweepHooks::none()
                },
            );
            assert_eq!(golden_cells.len(), folded_cells.len());
            for (cell, fold) in golden_cells.iter().zip(&folded_cells) {
                for metric in Metric::ALL {
                    let expect: Vec<u64> =
                        cell.iter().map(|t| metric.extract(t).to_bits()).collect();
                    let got: Vec<u64> = fold
                        .acc
                        .sample(metric)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(
                        expect,
                        got,
                        "{}: streamed {metric:?} diverged from the oracle at \
                         threads={threads} costs={costs:?}, cell {}/{}",
                        S::NAME,
                        fold.algorithm,
                        fold.n
                    );
                }
            }
        }
    }
}

/// The MAC (802.11g DCF) simulator through the generic engine.
#[test]
fn mac_sweep_is_schedule_invariant() {
    assert_engine_invariants(|exec| Sweep::<MacSim> {
        experiment: "golden-mac",
        config: MacConfig::paper(AlgorithmKind::Beb, 64),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![8, 25],
        trials: 5,
        exec,
    });
}

/// The abstract windowed simulator through the generic engine.
#[test]
fn windowed_sweep_is_schedule_invariant() {
    assert_engine_invariants(|exec| Sweep::<WindowedSim> {
        experiment: "golden-windowed",
        config: WindowedConfig::abstract_model(AlgorithmKind::Beb),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::LogLogBackoff],
        ns: vec![40, 120],
        trials: 5,
        exec,
    });
}

/// The residual-timer semantics through the generic engine.
#[test]
fn residual_sweep_is_schedule_invariant() {
    assert_engine_invariants(|exec| Sweep::<ResidualSim> {
        experiment: "golden-residual",
        config: ResidualConfig::paper(AlgorithmKind::LogBackoff),
        algorithms: vec![AlgorithmKind::LogBackoff],
        ns: vec![60],
        trials: 6,
        exec,
    });
}

/// The noisy-channel (softened collisions) simulator through the generic
/// engine. A non-trivial channel, so the recovery and noise draws themselves
/// are exercised across schedules.
#[test]
fn noisy_sweep_is_schedule_invariant() {
    assert_engine_invariants(|exec| Sweep::<NoisySim> {
        experiment: "golden-noisy",
        config: NoisyConfig::abstract_model(
            AlgorithmKind::Beb,
            ChannelModel {
                recovery: Recovery::Geometric { base: 0.6 },
                noise: 0.15,
            },
        ),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![40, 120],
        trials: 5,
        exec,
    });
}

/// The dynamic-traffic simulator, checked on its raw output against the
/// oracle across the schedule matrix. (Its `TrialSummary` fold path is covered separately by
/// the shard-equivalence matrix.)
#[test]
fn dynamic_sweep_is_schedule_invariant() {
    let sweep_for = |exec: ExecPolicy| Sweep::<DynamicSim> {
        experiment: "golden-dynamic",
        config: DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonBursts {
                rate: 0.001,
                size: 20,
            },
        ),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![0],
        trials: 4,
        exec,
    };
    let base = sweep_for(ExecPolicy::threads(1));
    let golden = oracle(&base);
    for threads in THREADS {
        for costs in cost_tables(&base) {
            let hooks = SweepHooks {
                costs: costs.as_deref(),
                ..SweepHooks::none()
            };
            let got = collect(&sweep_for(ExecPolicy::threads(threads)), &hooks);
            assert_eq!(
                golden, got,
                "dynamic results changed at threads={threads} costs={costs:?}"
            );
        }
    }
}

/// The same sweep re-run in the same process reproduces itself exactly —
/// the engine holds no hidden mutable state.
#[test]
fn sweeps_are_pure_functions_of_their_inputs() {
    let sweep = Sweep::<MacSim> {
        experiment: "golden-repeat",
        config: MacConfig::paper(AlgorithmKind::LogLogBackoff, 1024),
        algorithms: vec![AlgorithmKind::LogLogBackoff],
        ns: vec![20],
        trials: 4,
        exec: ExecPolicy::default(),
    };
    let a = summary_bits(&collect(&sweep, &SweepHooks::none()));
    let b = summary_bits(&collect(&sweep, &SweepHooks::none()));
    assert_eq!(a, b);
}
