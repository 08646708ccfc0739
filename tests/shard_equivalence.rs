//! Shard-equivalence matrix: a sweep split into cell-range shards, each
//! shard serialized to a `shard_state/v1` artifact, the artifacts shuffled
//! and merged, must reproduce the single-process `run_fold` output
//! **bit-for-bit** — for every backend and shard count, with and without
//! the cost table that shapes each shard's claim schedule.
//!
//! This is the correctness contract of process-sharded sweeps: the merge
//! seam may never change a number, so a cluster-run figure and a laptop-run
//! figure are the same figure.

use contention_experiments::aggregate::{MetricStats, StatsCell};
use contention_experiments::shard::{merge_states, GridMeta, ShardState};
use contention_experiments::summary::Metric;
use contention_resolution::prelude::*;
use contention_slotted::dynamic::{ArrivalProcess, DynAxis, DynamicConfig, DynamicSim};
use contention_slotted::noisy::NoisyConfig;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];
/// Whether each shard's run carries the grid's cost table.
const COSTED: [bool; 2] = [false, true];

/// Metrics for the batch backends (windowed / noisy / MAC).
const BATCH_METRICS: [Metric; 3] = [Metric::CwSlots, Metric::TotalTimeUs, Metric::Collisions];

/// Metrics for the dynamic-traffic backend, which reports latency and
/// throughput instead of window counts.
const DYNAMIC_METRICS: [Metric; 3] = [
    Metric::Throughput,
    Metric::P95LatencySlots,
    Metric::Collisions,
];

/// The bit image of every cell's every buffer, plus coordinates.
fn bits(cells: &[StatsCell]) -> Vec<(String, u32, Vec<Vec<u64>>)> {
    cells
        .iter()
        .map(|c| {
            (
                c.algorithm.key(),
                c.n,
                c.acc
                    .raw_samples()
                    .iter()
                    .map(|s| s.raw().iter().map(|v| v.to_bits()).collect())
                    .collect(),
            )
        })
        .collect()
}

/// Runs the full matrix for one backend: golden single-process fold vs
/// shuffled shard/serialize/parse/merge, across shard counts and cost
/// tables.
fn assert_shard_equivalence<S: Simulator>(
    metrics: &[Metric],
    sweep_for: impl Fn(ExecPolicy) -> Sweep<S>,
) where
    contention_experiments::summary::TrialSummary: From<S::Output>,
{
    let golden_sweep = sweep_for(ExecPolicy::threads(2));
    let grid = GridMeta {
        algorithms: golden_sweep.algorithms.clone(),
        ns: golden_sweep.ns.clone(),
        trials: golden_sweep.trials,
        metrics: metrics.to_vec(),
        cost: CostSpec::NLogN,
    };
    let golden = golden_sweep.run_fold(MetricStats::collector(metrics), &SweepHooks::none());
    let golden_bits = bits(&golden);
    let cells = grid.cell_count();
    let costs = grid.cell_trial_costs();

    for of in SHARD_COUNTS {
        for costed in COSTED {
            // One process per shard: run the cell range, serialize.
            let mut artifacts: Vec<String> = (0..of)
                .map(|index| {
                    let range = CellRange::shard(cells, index, of);
                    let hooks = SweepHooks {
                        range: Some(range),
                        costs: costed.then_some(&costs[..]),
                        ..SweepHooks::none()
                    };
                    let part = sweep_for(ExecPolicy::threads(2))
                        .run_fold(MetricStats::collector(metrics), &hooks);
                    assert_eq!(part.len(), range.len(), "{}: shard size", S::NAME);
                    ShardState::from_cells(
                        "shard-eq",
                        false,
                        (index as u32, of as u32),
                        &grid,
                        &part,
                    )
                    .to_json()
                })
                .collect();
            // Out-of-order merge: rotate and reverse the artifact list.
            artifacts.rotate_left(of / 2);
            artifacts.reverse();
            let states: Vec<ShardState> = artifacts
                .iter()
                .map(|text| ShardState::parse(text).expect("artifact parses"))
                .collect();
            let merged = merge_states(states).expect("artifacts are compatible");
            assert!(merged.is_complete(), "{}: incomplete merge", S::NAME);
            assert_eq!(
                bits(&merged.into_cells()),
                golden_bits,
                "{}: merged shards diverged from the single-process fold \
                 (shards={of}, costed={costed})",
                S::NAME
            );
        }
    }
}

/// The abstract windowed simulator.
#[test]
fn windowed_shards_merge_bit_identically() {
    assert_shard_equivalence(&BATCH_METRICS, |exec| Sweep::<WindowedSim> {
        experiment: "shard-eq-windowed",
        config: WindowedConfig::abstract_model(AlgorithmKind::Beb),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![30, 80, 150],
        trials: 4,
        exec,
    });
}

/// The noisy-channel (softened collisions) simulator.
#[test]
fn noisy_shards_merge_bit_identically() {
    assert_shard_equivalence(&BATCH_METRICS, |exec| Sweep::<NoisySim> {
        experiment: "shard-eq-noisy",
        config: NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::softened(0.3)),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::LogBackoff],
        ns: vec![25, 60, 110],
        trials: 4,
        exec,
    });
}

/// The event-driven 802.11g MAC simulator.
#[test]
fn mac_shards_merge_bit_identically() {
    assert_shard_equivalence(&BATCH_METRICS, |exec| Sweep::<MacSim> {
        experiment: "shard-eq-mac",
        config: MacConfig::paper(AlgorithmKind::Beb, 64),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![6, 14, 22],
        trials: 4,
        exec,
    });
}

/// The streaming dynamic-traffic simulator, on the load-per-mille axis the
/// saturation experiment sweeps — histogram-derived percentile metrics must
/// survive the serialize/merge seam bit-for-bit too.
#[test]
fn dynamic_shards_merge_bit_identically() {
    let config = DynamicConfig {
        axis: DynAxis::LoadPerMille,
        horizon_slots: 4_000,
        drain_slots: 8_000,
        ..DynamicConfig::mac_costs(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 0.001 },
            64,
        )
    };
    assert_shard_equivalence(&DYNAMIC_METRICS, |exec| Sweep::<DynamicSim> {
        experiment: "shard-eq-dynamic",
        config,
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![200, 600, 1000],
        trials: 4,
        exec,
    });
}

/// Cost-balanced shards — cell ranges cut by `CellRange::shard_weighted`
/// over the grid's estimated per-cell work — merge byte-identical to the
/// count-balanced golden. The partition genuinely differs (the n·log n cost
/// table is far from uniform over an 11×–80× n spread), yet the merge seam
/// still reproduces the single-process fold bit-for-bit: balancing is pure
/// scheduling, never arithmetic.
#[test]
fn cost_balanced_shards_merge_bit_identically() {
    let metrics = [Metric::CwSlots, Metric::Collisions];
    let sweep_for = |exec: ExecPolicy| Sweep::<WindowedSim> {
        experiment: "shard-eq-weighted",
        config: WindowedConfig::abstract_model(AlgorithmKind::Beb),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![10, 40, 110, 800],
        trials: 3,
        exec,
    };
    let golden_sweep = sweep_for(ExecPolicy::threads(2));
    let grid = GridMeta {
        algorithms: golden_sweep.algorithms.clone(),
        ns: golden_sweep.ns.clone(),
        trials: golden_sweep.trials,
        metrics: metrics.to_vec(),
        cost: CostSpec::NLogN,
    };
    let golden = golden_sweep.run_fold(MetricStats::collector(&metrics), &SweepHooks::none());
    let golden_bits = bits(&golden);
    let weights = grid.cell_costs();
    assert_eq!(weights.len(), grid.cell_count());

    for of in SHARD_COUNTS {
        // The weighted partition must differ from the count partition for at
        // least one shard count, or this test proves nothing.
        let weighted: Vec<CellRange> = (0..of)
            .map(|i| CellRange::shard_weighted(&weights, i, of))
            .collect();
        let states: Vec<ShardState> = weighted
            .iter()
            .enumerate()
            .map(|(index, &range)| {
                let part = sweep_for(ExecPolicy::threads(2)).run_fold(
                    MetricStats::collector(&metrics),
                    &SweepHooks::range(Some(range)),
                );
                let text = ShardState::from_cells(
                    "shard-eq-weighted",
                    false,
                    (index as u32, of as u32),
                    &grid,
                    &part,
                )
                .to_json();
                ShardState::parse(&text).expect("artifact parses")
            })
            .collect();
        let merged = merge_states(states).expect("weighted shards are compatible");
        assert!(merged.is_complete(), "incomplete weighted merge (of={of})");
        assert_eq!(
            bits(&merged.into_cells()),
            golden_bits,
            "cost-balanced shards diverged from the single-process fold (of={of})"
        );
    }
    // Sanity: the n log n weights (the n=800 cells carry ~80% of the work)
    // must actually move at least one shard boundary away from the
    // count-balanced partition, or this test proves nothing.
    let moved = SHARD_COUNTS.iter().any(|&of| {
        (0..of).any(|i| {
            let w = CellRange::shard_weighted(&weights, i, of);
            let c = CellRange::shard(grid.cell_count(), i, of);
            (w.lo, w.hi) != (c.lo, c.hi)
        })
    });
    assert!(
        moved,
        "weighted partition coincides with count partition everywhere; test is vacuous"
    );
}

/// Duplicate artifacts must be rejected, not double-counted — merging is a
/// union of exactly-once deliveries, never idempotent summation.
#[test]
fn duplicate_shard_artifacts_are_rejected() {
    let sweep = Sweep::<WindowedSim> {
        experiment: "shard-eq-dup",
        config: WindowedConfig::abstract_model(AlgorithmKind::Beb),
        algorithms: vec![AlgorithmKind::Beb],
        ns: vec![20, 40],
        trials: 3,
        exec: ExecPolicy::threads(1),
    };
    let grid = GridMeta {
        algorithms: sweep.algorithms.clone(),
        ns: sweep.ns.clone(),
        trials: sweep.trials,
        metrics: vec![Metric::CwSlots],
        cost: CostSpec::Uniform,
    };
    let shard = |index: usize| {
        let range = CellRange::shard(grid.cell_count(), index, 2);
        let part = sweep.clone().run_fold(
            MetricStats::collector(&[Metric::CwSlots]),
            &SweepHooks::none(),
        );
        let part: Vec<StatsCell> = part
            .into_iter()
            .enumerate()
            .filter(|(i, _)| range.lo <= *i && *i < range.hi)
            .map(|(_, c)| c)
            .collect();
        ShardState::from_cells("shard-eq-dup", false, (index as u32, 2), &grid, &part)
    };
    let err = merge_states(vec![shard(0), shard(0)]).unwrap_err();
    assert!(err.contains("duplicate shard"), "{err}");
    // And mismatched sweeps are rejected even at matching shard counts.
    let mut other = shard(1);
    other.grid.trials = 99;
    let err = merge_states(vec![shard(0), other]).unwrap_err();
    assert!(err.contains("different sweep grid"), "{err}");
}

/// An empty shard (more shards than cells) serializes, parses and merges as
/// a no-op — the N > cells edge the balanced partition permits.
#[test]
fn empty_shards_are_harmless() {
    let sweep_for = |exec: ExecPolicy| Sweep::<WindowedSim> {
        experiment: "shard-eq-empty",
        config: WindowedConfig::abstract_model(AlgorithmKind::Beb),
        algorithms: vec![AlgorithmKind::Beb],
        ns: vec![15, 35],
        trials: 2,
        exec,
    };
    let grid = GridMeta {
        algorithms: vec![AlgorithmKind::Beb],
        ns: vec![15, 35],
        trials: 2,
        metrics: vec![Metric::CwSlots],
        cost: CostSpec::Uniform,
    };
    let golden = sweep_for(ExecPolicy::threads(1)).run_fold(
        MetricStats::collector(&[Metric::CwSlots]),
        &SweepHooks::none(),
    );
    // 5 shards over 2 cells: three shards are empty.
    let states: Vec<ShardState> = (0..5)
        .map(|i| {
            let range = CellRange::shard(2, i, 5);
            let part = sweep_for(ExecPolicy::threads(1)).run_fold(
                MetricStats::collector(&[Metric::CwSlots]),
                &SweepHooks::range(Some(range)),
            );
            let text = ShardState::from_cells("shard-eq-empty", false, (i as u32, 5), &grid, &part)
                .to_json();
            ShardState::parse(&text).expect("round trip")
        })
        .collect();
    assert_eq!(states.iter().filter(|s| s.cells.is_empty()).count(), 3);
    let merged = merge_states(states).expect("compatible");
    assert!(merged.is_complete());
    let merged_cells = merged.into_cells();
    for (m, g) in merged_cells.iter().zip(&golden) {
        assert_eq!((m.algorithm, m.n), (g.algorithm, g.n));
        assert_eq!(m.acc.sample(Metric::CwSlots), g.acc.sample(Metric::CwSlots));
    }
}
