//! Same-host performance floors: each fast path timed against a plain
//! reference doing the same work, in the same process, on the same machine.
//!
//! Every test is `#[ignore]`d, so the default suite never depends on timing.
//! Run them in release, one at a time:
//!
//! ```text
//! cargo test --release --test perf_floor -- --ignored --test-threads 1
//! ```
//!
//! A test warms both sides up, alternates fast and reference runs over
//! [`PAIRS`] pairs and compares the medians. Its floor is half the ratio
//! measured on the development host (a shared 2-vCPU VM), so it trips when
//! the fast path has lost half of its lead, whatever the host's speed.

use contention_resolution::prelude::*;
use contention_slotted::dynamic::{ArrivalProcess, DynamicConfig, DynamicSim};
use contention_slotted::reference;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Timed (fast, reference) pairs per test.
const PAIRS: usize = 7;

// Each floor is half the median ratio of four full runs of this file on the
// development host (2-vCPU shared VM, release profile).
const WINDOWED_FLOOR: f64 = 3.9 / 2.0;
const DYNAMIC_SATURATION_FLOOR: f64 = 14.1 / 2.0;
const DYNAMIC_BURSTY_FLOOR: f64 = 6.9 / 2.0;
const SCHED_TAIL_FLOOR: f64 = 1.15 / 2.0;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Asserts that `reference` takes at least `floor` times as long as `fast`
/// (median over [`PAIRS`] alternating runs). Each run returns a checksum
/// of its outputs, so no work can be optimized away.
fn assert_speedup(
    name: &str,
    floor: f64,
    mut fast: impl FnMut() -> u64,
    mut reference: impl FnMut() -> u64,
) {
    let mut checksum = fast() ^ reference();
    let (mut fast_s, mut reference_s) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let start = Instant::now();
        checksum ^= fast();
        fast_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        checksum ^= reference();
        reference_s.push(start.elapsed().as_secs_f64());
    }
    black_box(checksum);
    let (fast_s, reference_s) = (median(fast_s), median(reference_s));
    let ratio = reference_s / fast_s;
    eprintln!(
        "{name}: fast {:.2} ms, reference {:.2} ms, ratio {ratio:.2}× (floor {floor:.2}×)",
        fast_s * 1e3,
        reference_s * 1e3
    );
    assert!(
        ratio >= floor,
        "{name}: {ratio:.2}× is below the {floor:.2}× floor"
    );
}

/// The windowed summary kernel (what every windowed sweep runs) against the
/// per-station reference loop: eight BEB trials at n = 10⁴.
#[test]
#[ignore = "timing; run in release with --ignored"]
fn windowed_summary_kernel_vs_reference() {
    let config = WindowedConfig::abstract_model(AlgorithmKind::Beb);
    let tag = experiment_tag("perf-floor-windowed");
    let rng = |trial| trial_rng(tag, config.algorithm, 10_000, trial);
    let mut scratch = Default::default();
    assert_speedup(
        "windowed BEB n=1e4",
        WINDOWED_FLOOR,
        || {
            (0..8)
                .map(|t| {
                    WindowedSim::summarize_with(&config, 10_000, &mut rng(t), &mut scratch).cw_slots
                        as u64
                })
                .sum()
        },
        || {
            (0..8)
                .map(|t| reference::windowed(&config.as_noisy(), 10_000, &mut rng(t)).cw_slots)
                .sum()
        },
    );
}

/// `DynamicSim` against the reference event loop on `config`, `trials`
/// trials per run.
fn dynamic_vs_reference(name: &str, floor: f64, config: DynamicConfig, trials: u32) {
    let tag = experiment_tag("perf-floor-dynamic");
    let rng = |trial| trial_rng(tag, config.algorithm, 0, trial);
    let mut scratch = Default::default();
    assert_speedup(
        name,
        floor,
        || {
            (0..trials)
                .map(|t| {
                    let m = DynamicSim::run_with(&config, 0, &mut rng(t), &mut scratch);
                    m.completed + m.collisions
                })
                .sum()
        },
        || {
            (0..trials)
                .map(|t| {
                    let m = reference::dynamic(&config, &mut rng(t));
                    m.completed() + m.collisions
                })
                .sum()
        },
    );
}

/// Near saturation: BEB, unit costs, Poisson singles at 0.9 per slot.
#[test]
#[ignore = "timing; run in release with --ignored"]
fn dynamic_saturation_vs_reference() {
    let config = DynamicConfig {
        horizon_slots: 20_000,
        drain_slots: 20_000,
        ..DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 0.9 },
        )
    };
    dynamic_vs_reference("dynamic saturation", DYNAMIC_SATURATION_FLOOR, config, 2);
}

/// Bursty drain: BEB, unit costs, Poisson bursts of 60.
#[test]
#[ignore = "timing; run in release with --ignored"]
fn dynamic_bursty_drain_vs_reference() {
    let config = DynamicConfig::abstract_model(
        AlgorithmKind::Beb,
        ArrivalProcess::PoissonBursts {
            rate: 0.000_8,
            size: 60,
        },
    );
    dynamic_vs_reference("dynamic bursty drain", DYNAMIC_BURSTY_FLOOR, config, 8);
}

/// Eight workers for every sub-sweep, as the scheduler-tail workload asks.
const SCHED_THREADS: usize = 8;

/// The runtime the engine replaced: every sub-sweep spawns fresh threads,
/// which claim fixed batches of `total / (32 × threads)` trials (1 to 1024)
/// in grid order from one cursor.
fn fixed_batch_run(sweep: &Sweep<WindowedSim>) -> Vec<Vec<TrialSummary>> {
    let cells: Vec<(AlgorithmKind, u32)> = sweep
        .algorithms
        .iter()
        .flat_map(|&alg| sweep.ns.iter().map(move |&n| (alg, n)))
        .collect();
    let trials = sweep.trials as usize;
    let total = cells.len() * trials;
    let batch = (total / (32 * SCHED_THREADS)).clamp(1, 1024);
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Vec<Option<TrialSummary>>>> = cells
        .iter()
        .map(|_| Mutex::new(vec![None; trials]))
        .collect();
    std::thread::scope(|s| {
        for _ in 0..SCHED_THREADS {
            s.spawn(|| {
                let mut scratch = Default::default();
                loop {
                    let start = cursor.fetch_add(batch, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    for i in start..(start + batch).min(total) {
                        let ((alg, n), trial) = (cells[i / trials], i % trials);
                        let config = WindowedSim::with_algorithm(&sweep.config, alg);
                        let mut rng =
                            trial_rng(experiment_tag(sweep.experiment), alg, n, trial as u32);
                        let summary =
                            WindowedSim::summarize_with(&config, n, &mut rng, &mut scratch);
                        results[i / trials].lock().unwrap()[trial] = Some(summary);
                    }
                }
            });
        }
    });
    results
        .into_iter()
        .map(|cell| cell.into_inner().unwrap().into_iter().flatten().collect())
        .collect()
}

/// The pool and its tapered, cost-ordered claims against
/// [`fixed_batch_run`] on twenty-four short sub-sweeps over a heterogeneous
/// windowed grid — the shape a figure run presents to the runtime, so what
/// this times is claiming, thread start-up and the idle tail, not the
/// simulator.
#[test]
#[ignore = "timing; run in release with --ignored"]
fn sched_tail_pool_vs_fixed_batch_spawns() {
    let sweep = Sweep::<WindowedSim> {
        experiment: "perf-floor-sched-tail",
        config: WindowedConfig::abstract_model(AlgorithmKind::Beb),
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![25, 50, 100, 200, 400],
        trials: 2,
        exec: ExecPolicy::threads(SCHED_THREADS),
    };
    let costs: Vec<f64> = sweep
        .algorithms
        .iter()
        .flat_map(|_| sweep.ns.iter().map(|&n| CostSpec::NLogN.cost(n)))
        .collect();
    let hooks = SweepHooks {
        costs: Some(&costs),
        ..SweepHooks::none()
    };
    let pool = || -> Vec<Vec<TrialSummary>> {
        sweep
            .run_fold(|_, _, trials| Slots::new(trials), &hooks)
            .into_iter()
            .map(|cell| cell.acc.into_vec())
            .collect()
    };
    let checksum = |cells: Vec<Vec<TrialSummary>>| -> u64 {
        cells
            .iter()
            .flatten()
            .map(|t| t.cw_slots.to_bits())
            .fold(0, u64::wrapping_add)
    };
    assert_eq!(checksum(pool()), checksum(fixed_batch_run(&sweep)));
    assert_speedup(
        "sched tail (24 sub-sweeps)",
        SCHED_TAIL_FLOOR,
        || (0..24).map(|_| checksum(pool())).fold(0, u64::wrapping_add),
        || {
            (0..24)
                .map(|_| checksum(fixed_batch_run(&sweep)))
                .fold(0, u64::wrapping_add)
        },
    );
}
