//! Wall-clock decomposition aids for the windowed hot path, for perf work on
//! machines without `perf`: times the real arena-reusing trials next to the
//! irreducible floor (raw generator throughput for the same draw count), so
//! a perf session can see at a glance how much headroom the loop still has.
//!
//! The n = 10⁶ rows run BEB and STB through both instantiations of the
//! window loop — per-station (`run`, the full `BatchMetrics`) and aggregate
//! (`summarize`, what every sweep's summary fold runs) — and print
//! ns/attempt next to the bare generator's ns/word for exactly the words
//! that trial draws. Run with
//! `cargo run --release -p contention-experiments --example profile_windowed`.

use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::ChannelModel;
use contention_core::rng::{experiment_tag, trial_rng};
use contention_sim::engine::{run_trial_with, Simulator};
use contention_slotted::noisy::NoisyConfig;
use contention_slotted::windowed::{WindowedConfig, WindowedSim};
use contention_slotted::NoisySim;
use rand::RngCore;
use std::hint::black_box;
use std::time::Instant;

fn time_trials<S: Simulator>(label: &str, config: &S::Config, n: u32, reps: u32, cycle: u32)
where
    S::Output: std::fmt::Debug,
{
    let mut scratch = S::Scratch::default();
    for i in 0..cycle {
        black_box(run_trial_with::<S>(
            "bench-windowed",
            config,
            n,
            i,
            &mut scratch,
        ));
    }
    let t = Instant::now();
    for i in 0..reps {
        black_box(run_trial_with::<S>(
            "bench-windowed",
            config,
            n,
            i % cycle,
            &mut scratch,
        ));
    }
    let per_trial = t.elapsed().as_nanos() as f64 / reps as f64;
    println!("{label:<28} {per_trial:>12.0} ns/trial");
}

/// Counts the raw words a trial draws, so the floor below is measured for
/// exactly that volume.
struct CountingRng<R> {
    inner: R,
    words: u64,
}

impl<R: RngCore> RngCore for CountingRng<R> {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

/// Nanoseconds for the bare generator to produce `words` words (best of 3).
fn bare_rng_ns(words: u64) -> f64 {
    let mut rng = trial_rng(experiment_tag("bench-windowed"), AlgorithmKind::Beb, 1, 0);
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for _ in 0..words {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best-of-`reps` nanoseconds of `trial` (after one warm-up call).
fn best_ns(reps: u32, mut trial: impl FnMut()) -> f64 {
    trial();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            trial();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One n = 10⁶ trial of the `scale` stream through both instantiations.
fn large_n(kind: AlgorithmKind) {
    const N: u32 = 1_000_000;
    let config = NoisyConfig::fatal(kind);
    let mut sim = NoisySim::new(config);
    let rng = || trial_rng(experiment_tag("scale"), kind, N, 0);

    let mut counting = CountingRng {
        inner: rng(),
        words: 0,
    };
    let summary = sim.summarize(N, &mut counting);
    // Every alive station attempts once per window: the successes plus one
    // ACK timeout per failed attempt.
    let attempts = summary.successes as f64 + summary.ack_timeouts;
    let words = counting.words;

    let per_station = best_ns(3, || {
        black_box(sim.run(N, &mut rng()));
    });
    let aggregate = best_ns(3, || {
        black_box(sim.summarize(N, &mut rng()));
    });
    let floor = bare_rng_ns(words);
    for (label, ns) in [("per-station", per_station), ("aggregate", aggregate)] {
        println!(
            "{kind} n=1e6 {label:<12} {:>8.1} ms  {:>6.1} M attempts  {:>6.2} ns/attempt",
            ns / 1e6,
            attempts / 1e6,
            ns / attempts,
        );
    }
    println!(
        "{kind} n=1e6 bare RNG     {:>8.1} ms  {:>6.1} M words     {:>6.2} ns/word",
        floor / 1e6,
        words as f64 / 1e6,
        floor / words as f64,
    );
}

fn main() {
    // The real trials on one reused scratch arena, as an engine worker runs them.
    time_trials::<WindowedSim>(
        "windowed BEB n=1e4",
        &WindowedConfig::abstract_model(AlgorithmKind::Beb),
        10_000,
        40,
        8,
    );
    time_trials::<WindowedSim>(
        "windowed BEB n=1e5",
        &WindowedConfig::abstract_model(AlgorithmKind::Beb),
        100_000,
        8,
        4,
    );
    time_trials::<NoisySim>(
        "noisy soften(0.5) n=1e4",
        &NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::softened(0.5)),
        10_000,
        16,
        8,
    );

    // The irreducible floor: a BEB batch of n stations draws roughly
    // 2n − (successes spread over ~log n windows) ≈ 1.47n·10 words for
    // n = 1e4 empirically; measure the raw generator at that volume so the
    // trial numbers above can be read as "floor + everything else".
    const WORDS: u64 = 147_000;
    let per_batch = bare_rng_ns(WORDS);
    println!(
        "raw xoshiro, {WORDS} words    {per_batch:>12.0} ns  ({:.2} ns/word)",
        per_batch / WORDS as f64
    );

    // The large-n regime `scale` and fig15 live in.
    large_n(AlgorithmKind::Beb);
    large_n(AlgorithmKind::Sawtooth);
}
