//! Refactor-guard golden fixture for the windowed/noisy hot-path overhaul.
//!
//! The epoch-stamped occupancy counters, the sort-free success
//! classification, the counting-sort group-by and the batched RNG draws are
//! all *performance* changes: none of them may move a single bit of any
//! simulation result. This fixture pins that claim at full `BatchMetrics`
//! resolution — every aggregate field as its exact bit pattern plus an
//! FNV-1a digest of the complete per-station table — for a
//! `(algorithm × channel × n × trial)` matrix recorded on the pre-overhaul
//! simulator, through both resolution paths (the natural one and the
//! forced-sampled one).
//!
//! Valve-truncated (`max_windows`) configurations are deliberately absent:
//! their diagnostics are the one documented behavioral exception of the
//! overhaul (see `valve_truncation_reports_elapsed_slots` in
//! `crates/slotted/src/noisy.rs`), and they are pinned by unit tests there.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test windowed_golden
//! ```

use contention_resolution::prelude::*;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "tests/golden/windowed_noisy_metrics.txt";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

/// FNV-1a over the full per-station table, folding every field in as raw
/// bits so no station-level drift can hide behind the aggregates.
fn station_digest(stations: &[StationMetrics]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for s in stations {
        fold(s.attempts as u64);
        fold(s.ack_timeouts as u64);
        fold(s.ack_timeout_time.as_nanos());
        fold(match s.success_time {
            // 1-tagged so Some(0) can never alias None.
            Some(t) => t.as_nanos().wrapping_mul(2) | 1,
            None => 0,
        });
        fold(s.backoff_slots);
    }
    hash
}

/// Bit-exact rendering of one `BatchMetrics`.
fn render(label: &str, n: u32, trial: u32, m: &BatchMetrics) -> String {
    let mut line = format!("{label} n={n} trial={trial}");
    let _ = write!(
        line,
        " succ={} tt={:016x} ht={:016x} cw={:016x} hcw={:016x} col={:016x} cst={:016x} st={:016x}",
        m.successes,
        m.total_time.as_nanos(),
        m.half_time.as_nanos(),
        m.cw_slots,
        m.half_cw_slots,
        m.collisions,
        m.colliding_stations,
        station_digest(&m.stations),
    );
    line
}

/// The channel matrix: the ideal (paper) channel, every recovery family and
/// an independent noise rate — each one drives a different draw shape
/// through `sample_slot`.
fn channels() -> Vec<(&'static str, ChannelModel)> {
    vec![
        ("ideal", ChannelModel::ideal()),
        ("soft0.5", ChannelModel::softened(0.5)),
        ("noise0.25", ChannelModel::noisy(0.25)),
        (
            "geo0.6-noise0.1",
            ChannelModel {
                recovery: Recovery::Geometric { base: 0.6 },
                noise: 0.1,
            },
        ),
        (
            "capture3-0.9",
            ChannelModel {
                recovery: Recovery::Capture { max_k: 3, p: 0.9 },
                noise: 0.0,
            },
        ),
    ]
}

/// The algorithm set: the paper's four schedules (BEB/STB emit power-of-two
/// windows, LB/LLB emit non-power-of-two ones) plus a fixed non-power-of-two
/// window, so both integer-range sampling shapes are pinned. The fixed
/// window never grows, so its batch sizes must stay below the window width —
/// `FIXED(7)` with dozens of stations would practically never finish.
fn algorithms() -> Vec<(AlgorithmKind, &'static [u32])> {
    let mut algs: Vec<(AlgorithmKind, &'static [u32])> = AlgorithmKind::PAPER_SET
        .iter()
        .map(|&kind| (kind, &[1u32, 2, 9, 83, 400] as &[u32]))
        .collect();
    algs.push((AlgorithmKind::Fixed { window: 7 }, &[1, 2, 5]));
    algs
}

fn generate() -> String {
    let mut out = String::new();
    let mut push = |line: String| {
        out.push_str(&line);
        out.push('\n');
    };

    for (chan_label, channel) in channels() {
        for (kind, ns) in algorithms() {
            let config = NoisyConfig::abstract_model(kind, channel);
            for &n in ns {
                for trial in 0..2 {
                    let m = run_trial::<NoisySim>("windowed-golden", &config, n, trial);
                    push(render(&format!("noisy/{chan_label}/{kind}"), n, trial, &m));
                }
            }
        }
    }

    // The forced-sampled path over the ideal channel: these lines must be
    // identical (apart from the label) to the natural-path `ideal` lines
    // above — the fixture pins path equality, not just per-path stability.
    for (kind, ns) in algorithms() {
        let config = NoisyConfig::fatal(kind);
        for &n in ns {
            for trial in 0..2 {
                let mut sim = NoisySim::new(config);
                let mut rng = trial_rng(experiment_tag("windowed-golden"), kind, n, trial);
                let m = sim.run_sampled(n, &mut rng);
                push(render(&format!("sampled/ideal/{kind}"), n, trial, &m));
            }
        }
    }

    // Truncated (CWmin/CWmax-clamped) windows keep widths small forever —
    // the regime where the sampled path's counting-sort group-by applies.
    for kind in AlgorithmKind::PAPER_SET {
        let config = NoisyConfig {
            truncation: Truncation::paper(),
            ..NoisyConfig::abstract_model(kind, ChannelModel::softened(0.3))
        };
        for trial in 0..2 {
            let m = run_trial::<NoisySim>("windowed-golden", &config, 120, trial);
            push(render(&format!("trunc/soft0.3/{kind}"), 120, trial, &m));
        }
    }

    // The windowed (paper-model) backend rides the same loop; a thin slice
    // pins the delegation.
    for kind in AlgorithmKind::PAPER_SET {
        let config = WindowedConfig::abstract_model(kind);
        for (n, trial) in [(1u32, 0u32), (83, 1), (400, 0)] {
            let m = run_trial::<WindowedSim>("windowed-golden", &config, n, trial);
            push(render(&format!("windowed/{kind}"), n, trial, &m));
        }
    }

    out
}

#[test]
fn batch_metrics_are_bit_identical_to_the_pre_overhaul_fixture() {
    let got = generate();
    let path = fixture_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {FIXTURE} ({e}); REGEN_GOLDEN=1 to create"));
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "first divergence at fixture line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "fixture line count changed"
        );
        panic!("fixture diverged");
    }
}

/// Any channel the workspace can express, biased toward the interesting
/// corners (ideal, pure noise, certain recovery).
fn arb_channel() -> impl Strategy<Value = ChannelModel> {
    let recovery = prop_oneof![
        Just(Recovery::None),
        (0.0..=1.0f64).prop_map(|p| Recovery::Constant { p }),
        (0.0..=1.0f64).prop_map(|base| Recovery::Geometric { base }),
        ((2u32..=6), (0.0..=1.0f64)).prop_map(|(max_k, p)| Recovery::Capture { max_k, p }),
    ];
    (recovery, prop_oneof![Just(0.0f64), 0.0..=0.6f64])
        .prop_map(|(recovery, noise)| ChannelModel { recovery, noise })
}

/// Any static window schedule, including truncations that force
/// non-power-of-two widths.
fn arb_algorithm() -> impl Strategy<Value = AlgorithmKind> {
    prop_oneof![
        Just(AlgorithmKind::Beb),
        Just(AlgorithmKind::LogBackoff),
        Just(AlgorithmKind::LogLogBackoff),
        Just(AlgorithmKind::Sawtooth),
        (1u32..=40).prop_map(|window| AlgorithmKind::Fixed { window }),
        (1u32..=3).prop_map(|degree| AlgorithmKind::Polynomial { degree }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The natural path (occupancy fast path for ideal channels, sampled
    /// otherwise) and the forced-sampled path must agree bit for bit on the
    /// full `BatchMetrics`, for any `(n, width schedule, channel)` config —
    /// which is what makes the path split purely a performance choice.
    #[test]
    fn natural_and_forced_sampled_paths_agree(
        n in 0u32..=150,
        kind in arb_algorithm(),
        channel in arb_channel(),
        cw_min in 1u32..=4,
        cw_pow in 4u32..=20,
        trial in 0u32..100,
    ) {
        let config = NoisyConfig {
            truncation: Truncation {
                cw_min,
                cw_max: cw_min.max(2u32.saturating_pow(cw_pow)),
            },
            // Cap pathological full-noise runs; both paths see the valve.
            max_windows: 200,
            ..NoisyConfig::abstract_model(kind, channel)
        };
        let tag = experiment_tag("windowed-path-prop");
        let mut rng = trial_rng(tag, kind, n, trial);
        let natural = NoisySim::new(config).run(n, &mut rng);
        let mut rng = trial_rng(tag, kind, n, trial);
        let sampled = NoisySim::new(config).run_sampled(n, &mut rng);
        prop_assert_eq!(natural, sampled);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The aggregate instantiation of the window loop (no station table, no
    /// per-station state) must reproduce `TrialSummary::from` the
    /// per-station run bit for bit, through both resolution paths — on the
    /// fixture's channel matrix, power-of-two and other spans, truncated
    /// windows and valve-truncated runs. `FIXED(100)` over a handful of
    /// stations opens sparse windows from the start, so the window crossing
    /// ⌈n/2⌉ is often a sparse one with collisions in it.
    #[test]
    fn aggregate_summaries_equal_the_per_station_summaries(
        kind in (0usize..AlgorithmKind::PAPER_SET.len() + 2).prop_map(|i| {
            match AlgorithmKind::PAPER_SET.get(i) {
                Some(&kind) => kind,
                None if i == AlgorithmKind::PAPER_SET.len() => AlgorithmKind::Fixed { window: 7 },
                None => AlgorithmKind::Fixed { window: 100 },
            }
        }),
        truncated in any::<bool>(),
        n in prop_oneof![Just(0u32), Just(1u32), 2u32..=16, 0u32..=2000],
        trial in 0u32..1000,
        channel in (0usize..channels().len()).prop_map(|i| channels()[i].1),
        max_windows in prop_oneof![Just(0u32), 1u32..=40],
    ) {
        let config = NoisyConfig {
            truncation: if truncated { Truncation::paper() } else { Truncation::unbounded() },
            // A fixed window never drains a large batch: always valve it.
            max_windows: match kind {
                AlgorithmKind::Fixed { .. } if max_windows == 0 => 300,
                _ => max_windows,
            },
            ..NoisyConfig::abstract_model(kind, channel)
        };
        let tag = experiment_tag("windowed-aggregate-prop");
        let rng = || trial_rng(tag, kind, n, trial);

        let full = TrialSummary::from(NoisySim::new(config).run(n, &mut rng()));
        let aggregate = NoisySim::new(config).summarize(n, &mut rng());
        prop_assert_eq!(summary_bits(&full), summary_bits(&aggregate));
        let full_sampled = TrialSummary::from(NoisySim::new(config).run_sampled(n, &mut rng()));
        let aggregate_sampled = NoisySim::new(config).summarize_sampled(n, &mut rng());
        prop_assert_eq!(summary_bits(&full_sampled), summary_bits(&aggregate_sampled));

        if channel.is_ideal() {
            // The engine's route for the paper model, and A1's identity:
            // every colliding station times out, nobody else does.
            let windowed = WindowedConfig {
                truncation: config.truncation,
                max_windows: config.max_windows,
                ..WindowedConfig::abstract_model(kind)
            };
            let engine =
                WindowedSim::summarize_with(&windowed, n, &mut rng(), &mut Default::default());
            prop_assert_eq!(summary_bits(&full), summary_bits(&engine));
            prop_assert_eq!(aggregate.ack_timeouts, aggregate.colliding_stations);
        }
    }
}

/// Every field of a summary as its exact bit pattern.
fn summary_bits(t: &TrialSummary) -> Vec<u64> {
    let mut bits = vec![t.n as u64];
    bits.extend(Metric::ALL.iter().map(|m| m.extract(t).to_bits()));
    bits
}

/// Asserts the aggregate summary of one natural-path trial equals the
/// per-station one, bit for bit.
fn assert_aggregate_exact(tag: u64, kind: AlgorithmKind, n: u32, trial: u32) {
    let config = NoisyConfig::fatal(kind);
    let full =
        TrialSummary::from(NoisySim::new(config).run(n, &mut trial_rng(tag, kind, n, trial)));
    let aggregate = NoisySim::new(config).summarize(n, &mut trial_rng(tag, kind, n, trial));
    assert_eq!(
        summary_bits(&full),
        summary_bits(&aggregate),
        "{kind} n={n} trial={trial}"
    );
}

/// The window crossing ⌈n/2⌉ can be a sparse one with collisions in it — a
/// wide fixed window over a handful of stations opens sparse windows from
/// the start. The aggregate instantiation must still select the same
/// half-completion slot from the drawn slots, skipping collided ones.
#[test]
fn sparse_crossing_windows_summarize_exactly() {
    let tag = experiment_tag("windowed-sparse-crossing");
    for window in [64u32, 100] {
        for n in 2u32..=16 {
            for trial in 0..20 {
                assert_aggregate_exact(tag, AlgorithmKind::Fixed { window }, n, trial);
            }
        }
    }
}

/// Batches large enough that the window crossing ⌈n/2⌉ is a dense window
/// past the count table (`seen`/`dup` bitmaps) — a regime the proptest's
/// n ≤ 2000 never reaches. The aggregate instantiation reads its success
/// slots back from the bitmaps.
#[test]
fn bitmap_crossing_windows_summarize_exactly() {
    let tag = experiment_tag("windowed-bitmap-crossing");
    for kind in AlgorithmKind::PAPER_SET {
        for n in [6_000u32, 25_000] {
            for trial in 0..2 {
                assert_aggregate_exact(tag, kind, n, trial);
            }
        }
    }
}
