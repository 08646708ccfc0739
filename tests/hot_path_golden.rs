//! Refactor-guard golden fixture for the MAC hot-path overhaul.
//!
//! The indexed event queue, the incremental medium bookkeeping and the
//! per-worker scratch arena are all *performance* changes: none of them may
//! move a single bit of any simulation result. This test pins that claim
//! directly — [`TrialSummary`] outputs for a matrix of `(config, n, trial)`
//! seeds, recorded with the pre-refactor simulator, rendered with every
//! `f64` as its exact bit pattern so float formatting cannot hide drift.
//!
//! Every entry is rendered twice against the same fixture line: once from
//! a single `run_trial` converted with `From`, once through the path a
//! sweep's summary fold takes (`Sweep::run_fold` into
//! `Slots<TrialSummary>`, i.e. `Simulator::summarize_with`), which for the
//! windowed backend tallies the summary without a station table.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test hot_path_golden
//! ```

use contention_resolution::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "tests/golden/hot_path_summaries.txt";
const EXPERIMENT: &str = "hot-path-golden";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

/// Bit-exact rendering: floats as hex bit patterns, integers as decimals.
fn render(label: &str, n: u32, trial: u32, t: &TrialSummary) -> String {
    let mut line = format!("{label} n={n} trial={trial}");
    let mut field = |name: &str, x: f64| {
        let _ = write!(line, " {name}={:016x}", x.to_bits());
    };
    field("cw", t.cw_slots);
    field("hcw", t.half_cw_slots);
    field("tt", t.total_time_us);
    field("ht", t.half_time_us);
    field("col", t.collisions);
    field("cst", t.colliding_stations);
    field("ato", t.ack_timeouts);
    field("mato", t.max_ack_timeouts);
    field("matt", t.max_ack_timeout_time_us);
    field("est", t.median_estimate);
    let _ = write!(line, " succ={}", t.successes);
    line
}

/// One trial's summary: converted from a lone `run_trial`, or — with
/// `via_sweep` — folded by a one-cell sequential sweep whose trial `trial`
/// is the same stream.
fn summary<S: Simulator>(config: &S::Config, n: u32, trial: u32, via_sweep: bool) -> TrialSummary
where
    S::Output: Into<TrialSummary>,
{
    if !via_sweep {
        return run_trial::<S>(EXPERIMENT, config, n, trial).into();
    }
    let sweep = Sweep::<S> {
        experiment: EXPERIMENT,
        config: config.clone(),
        algorithms: vec![S::algorithm(config)],
        ns: vec![n],
        trials: trial + 1,
        exec: ExecPolicy::threads(1),
    };
    let cells = sweep.run_fold(
        |_, _, trials| Slots::<TrialSummary>::new(trials),
        &SweepHooks::none(),
    );
    let mut trials = cells.into_iter().next().expect("one cell").acc.into_vec();
    trials.swap_remove(trial as usize)
}

/// The seed matrix: every MAC code path the refactor touches (plain DCF,
/// RTS/CTS, EIFS off, softened channel, BEST-OF-k estimation, truncation
/// valve) plus the windowed reference backend.
fn generate(via_sweep: bool) -> String {
    let mut out = String::new();
    let mut push = |line: String| {
        out.push_str(&line);
        out.push('\n');
    };

    let mac =
        |push: &mut dyn FnMut(String), label: &str, config: &MacConfig, n: u32, trial: u32| {
            let t = summary::<MacSim>(config, n, trial, via_sweep);
            push(render(&format!("mac/{label}"), n, trial, &t));
        };

    for kind in AlgorithmKind::PAPER_SET {
        let config = MacConfig::paper(kind, 64);
        for n in [1u32, 2, 20, 60] {
            for trial in 0..3 {
                mac(&mut push, &format!("paper64/{kind}"), &config, n, trial);
            }
        }
    }
    let big = MacConfig::paper(AlgorithmKind::Beb, 1024);
    mac(&mut push, "paper1024/BEB", &big, 40, 0);
    let mut rts = MacConfig::paper(AlgorithmKind::LogBackoff, 1024);
    rts.rts_cts = true;
    for trial in 0..3 {
        mac(&mut push, "rtscts/LB", &rts, 25, trial);
    }
    let mut no_eifs = MacConfig::paper(AlgorithmKind::Beb, 64);
    no_eifs.use_eifs = false;
    mac(&mut push, "noeifs/BEB", &no_eifs, 30, 0);
    let soft = MacConfig::with_channel(AlgorithmKind::Beb, 64, ChannelModel::softened(0.7));
    for trial in 0..3 {
        mac(&mut push, "soft0.7/BEB", &soft, 30, trial);
    }
    let noisy = MacConfig::with_channel(
        AlgorithmKind::Sawtooth,
        64,
        ChannelModel {
            recovery: Recovery::Geometric { base: 0.5 },
            noise: 0.05,
        },
    );
    mac(&mut push, "geo-noise/STB", &noisy, 25, 1);
    let bok = MacConfig::paper(AlgorithmKind::BestOfK { k: 3 }, 64);
    for trial in 0..2 {
        mac(&mut push, "bestof3", &bok, 35, trial);
    }
    let mut valve = MacConfig::paper(AlgorithmKind::Beb, 64);
    valve.max_sim_time = Nanos::from_millis(2);
    mac(&mut push, "valve2ms/BEB", &valve, 40, 0);
    let mut loss = MacConfig::paper(AlgorithmKind::Beb, 64);
    loss.ack_loss_prob = 0.3;
    mac(&mut push, "ackloss0.3/BEB", &loss, 20, 0);

    for kind in AlgorithmKind::PAPER_SET {
        let config = WindowedConfig::abstract_model(kind);
        for (n, trial) in [(1u32, 0u32), (100, 0), (100, 1), (2000, 0)] {
            let t = summary::<WindowedSim>(&config, n, trial, via_sweep);
            push(render(&format!("windowed/{kind}"), n, trial, &t));
        }
    }
    out
}

#[test]
fn summaries_are_bit_identical_to_the_pre_refactor_fixture() {
    let got = generate(false);
    let path = fixture_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    assert_matches_fixture(&got);
}

/// The sweep's summary fold renders every entry to the same fixture line.
#[test]
fn sweep_summary_folds_match_the_same_fixture() {
    assert_matches_fixture(&generate(true));
}

fn assert_matches_fixture(got: &str) {
    let path = fixture_path();
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); REGEN_GOLDEN=1 to create",
            FIXTURE
        )
    });
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
