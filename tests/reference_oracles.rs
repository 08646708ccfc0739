//! The fast engines against the reference simulators of
//! `contention_slotted::reference`: plain loops over plain `Vec`s that
//! follow the same RNG contract, so wherever the draw order is the same the
//! outputs must be the same bit for bit.

use contention_resolution::prelude::*;
use contention_slotted::dynamic::{ArrivalProcess, DynamicConfig, DynamicMetrics, DynamicSim};
use contention_slotted::reference;
use proptest::prelude::*;

/// The channel matrix of the windowed golden fixture: the paper's channel,
/// every recovery family and an independent noise rate.
fn channels() -> [ChannelModel; 5] {
    [
        ChannelModel::ideal(),
        ChannelModel::softened(0.5),
        ChannelModel::noisy(0.25),
        ChannelModel {
            recovery: Recovery::Geometric { base: 0.6 },
            noise: 0.1,
        },
        ChannelModel {
            recovery: Recovery::Capture { max_k: 3, p: 0.9 },
            noise: 0.0,
        },
    ]
}

/// Every field of a summary as its exact bit pattern.
fn summary_bits(t: &TrialSummary) -> Vec<u64> {
    let mut bits = vec![t.n as u64];
    bits.extend(Metric::ALL.iter().map(|m| m.extract(t).to_bits()));
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every windowed path — the per-station run through either resolution
    /// path, and the aggregate summary the sweeps fold — equals the
    /// reference loop bit for bit, per-station table included.
    #[test]
    fn windowed_paths_equal_the_reference(
        kind in (0usize..AlgorithmKind::PAPER_SET.len() + 2).prop_map(|i| {
            match AlgorithmKind::PAPER_SET.get(i) {
                Some(&kind) => kind,
                None if i == AlgorithmKind::PAPER_SET.len() => AlgorithmKind::Fixed { window: 7 },
                None => AlgorithmKind::Fixed { window: 100 },
            }
        }),
        n in 0u32..2000,
        trial in 0u32..1000,
        truncated in any::<bool>(),
        channel in (0usize..channels().len()).prop_map(|i| channels()[i]),
    ) {
        let config = NoisyConfig {
            truncation: if truncated { Truncation::paper() } else { Truncation::unbounded() },
            // A fixed window never drains a large batch.
            max_windows: if matches!(kind, AlgorithmKind::Fixed { .. }) { 300 } else { 0 },
            ..NoisyConfig::abstract_model(kind, channel)
        };
        let rng = || trial_rng(experiment_tag("reference-windowed"), kind, n, trial);
        let want = reference::windowed(&config, n, &mut rng());
        prop_assert_eq!(&NoisySim::new(config).run(n, &mut rng()), &want);
        prop_assert_eq!(&NoisySim::new(config).run_sampled(n, &mut rng()), &want);
        let want = summary_bits(&TrialSummary::from(want));
        prop_assert_eq!(summary_bits(&NoisySim::new(config).summarize(n, &mut rng())), want.clone());
        let engine = NoisySim::summarize_with(&config, n, &mut rng(), &mut Default::default());
        prop_assert_eq!(summary_bits(&engine), want);
    }
}

/// Asserts `DynamicSim` and the reference agree exactly on `trials` trials
/// of `config`: every count, and the latencies' exact mean and maximum.
fn assert_dynamic_matches(label: &str, config: DynamicConfig, trials: u32) {
    let tag = experiment_tag("reference-dynamic");
    for trial in 0..trials {
        let rng = || trial_rng(tag, config.algorithm, 0, trial);
        let fast: DynamicMetrics = DynamicSim::new(config).run(&mut rng());
        let want = reference::dynamic(&config, &mut rng());
        let got = (
            fast.offered,
            fast.completed,
            fast.collisions,
            fast.wall_slots,
            fast.mean_latency().to_bits(),
            fast.max_latency(),
        );
        let expect = (
            want.offered,
            want.completed(),
            want.collisions,
            want.wall_slots,
            want.mean_latency().to_bits(),
            want.latencies.iter().copied().max().unwrap_or(0),
        );
        assert_eq!(got, expect, "{label} {} trial {trial}", config.algorithm);
    }
}

/// The dynamic engine equals the reference exactly on bursty, saturated
/// and single-batch traffic, under unit and 802.11g costs.
#[test]
fn dynamic_engine_equals_the_reference() {
    let bursty = ArrivalProcess::PoissonBursts {
        rate: 0.000_8,
        size: 60,
    };
    let batch = ArrivalProcess::SingleBatch { size: 200 };
    for kind in AlgorithmKind::PAPER_SET {
        for (label, arrivals) in [("bursty", bursty), ("single batch", batch)] {
            assert_dynamic_matches(label, DynamicConfig::abstract_model(kind, arrivals), 20);
            assert_dynamic_matches(label, DynamicConfig::mac_costs(kind, arrivals, 64), 20);
        }
    }
    let saturation = DynamicConfig {
        horizon_slots: 20_000,
        drain_slots: 20_000,
        ..DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 0.9 },
        )
    };
    assert_dynamic_matches("saturation", saturation, 2);
}
