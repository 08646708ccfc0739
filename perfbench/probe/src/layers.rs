//! Layer probes: trial replays of each simulator backend, event-queue and
//! medium churn, and the engine's parallel efficiency — each call wrapped
//! in a span whose work count is the layer's unit (attempts, arrivals,
//! queue operations, busy periods).
//!
//! `repro` takes no seed (a trial's RNG is a function of experiment tag,
//! cell and trial index), so the benchmark seed picks which window of
//! trial indices a probe replays: `[seed·k, seed·k + k)` for a probe of
//! `k` trials. The MAC and windowed probes replay the workloads' own
//! streams (`mac-64` — the Figure 3/7/9/11/12 sweep — and `scale`).

use crate::trace::Tracer;
use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::ChannelModel;
use contention_core::time::Nanos;
use contention_experiments::figures::sharding::find_shardable;
use contention_experiments::figures::shared::SweepHooks;
use contention_experiments::options::Options;
use contention_mac::medium::{ActiveTx, Medium, TxKind, TxSource};
use contention_mac::{MacConfig, MacSim};
use contention_sim::engine::{run_trial_with, Simulator};
use contention_sim::event::EventQueue;
use contention_slotted::dynamic::{ArrivalProcess, DynamicConfig, DynamicSim};
use contention_slotted::noisy::NoisyConfig;
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::{NoisySim, WindowedSim};
use std::hint::black_box;
use std::ops::Range;

/// Trials replayed per backend: 120 leaves ten samples beyond the p90.
const MAC_TRIALS: u32 = 120;
const WINDOWED_TRIALS: u32 = 120;
const NOISY_TRIALS: u32 = 120;
const DYNAMIC_TRIALS: u32 = 120;
/// Churn passes per data-structure probe.
const CHURN_PASSES: u64 = 200;
const QUEUE_LIVE: u64 = 4096;
const MEDIUM_PERIODS: u64 = 2048;
/// Timed (1-thread, nproc-thread) sweep pairs behind `engine.parallel_eff`.
const PARALLEL_PAIRS: usize = 3;

/// The trial indices a `k`-trial probe replays under `seed`.
fn window(seed: u64, k: u32) -> Range<u32> {
    let first = (seed % 10_000) as u32 * k;
    first..first + k
}

/// Replays the `trials` of one backend config, one span per trial, after
/// one unrecorded warm-up trial on the same arena.
fn trials<S: Simulator>(
    tr: &mut Tracer,
    span: &str,
    experiment: &str,
    config: &S::Config,
    n: u32,
    trials: Range<u32>,
    work: impl Fn(&S::Output) -> u64,
) {
    let mut scratch = S::Scratch::default();
    black_box(run_trial_with::<S>(
        experiment,
        config,
        n,
        trials.start,
        &mut scratch,
    ));
    for trial in trials {
        tr.span_work(span, |_| {
            let out = run_trial_with::<S>(experiment, config, n, trial, &mut scratch);
            let units = work(&out);
            black_box(out);
            ((), units)
        });
    }
}

fn attempts(m: &contention_core::metrics::BatchMetrics) -> u64 {
    u64::from(m.successes) + m.total_ack_timeouts()
}

/// A deterministic 31-bit stream for probe inputs that need no RNG quality.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    }
}

/// Fills the queue to `live` events, then pops one, schedules one and
/// cancels one per step — the MAC simulator's steady-state queue traffic.
/// Returns the queue operations performed.
fn queue_churn(live: u64, salt: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut next = lcg(salt);
    let mut tokens: Vec<_> = (0..live)
        .map(|p| q.schedule_after(Nanos(next()), p))
        .collect();
    let mut ops = live;
    for p in 0..live {
        black_box(q.pop());
        let fresh = q.schedule_after(Nanos(next()), p);
        let victim = if p % 2 == 0 {
            tokens[(p as usize + tokens.len() / 2) % tokens.len()]
        } else {
            fresh
        };
        black_box(q.cancel(victim));
        let slot = p as usize % tokens.len();
        tokens[slot] = fresh;
        ops += 3;
    }
    while q.pop().is_some() {
        ops += 1;
    }
    ops
}

/// Alternates clean single frames with 3-way collisions on one medium.
fn medium_churn(periods: u64, salt: u64) {
    let mut medium = Medium::new();
    let mut id = (salt as u32).wrapping_mul(1 << 20);
    let frame = |id: u32, station: u32, start: u64| ActiveTx {
        id,
        source: TxSource::Station(station),
        kind: TxKind::Data,
        for_station: None,
        tag: 0,
        start: Nanos(start),
        end: Nanos(start + 10),
        corrupted: false,
        overlaps: 0,
    };
    for p in 0..periods {
        let t = p * 20;
        let senders = if p % 2 == 0 { 1 } else { 3 };
        for s in 0..senders {
            medium.start_tx(frame(id + s, s, t));
        }
        for s in 0..senders {
            black_box(medium.end_tx(id + s, Nanos(t + 10)));
        }
        id += senders;
    }
}

/// The sweep `engine.parallel_eff` times at one and at `nproc` threads:
/// the workload's most representative shardable grid that fits a probe.
fn parallel_probe(workload: &str) -> (&'static str, Options) {
    match workload {
        // The full scale grid takes ~20 s on one thread; its quick grid
        // (n = 12 500 … 10⁵) keeps the same cost shape.
        "scale_1e6" => (
            "scale",
            Options {
                trials: Some(4),
                ..Options::default()
            },
        ),
        _ => (
            "fig3",
            Options {
                full: true,
                ..Options::default()
            },
        ),
    }
}

pub fn run(workload: &str, seed: u64, tr: &mut Tracer) -> Result<(), String> {
    let beb = AlgorithmKind::Beb;
    tr.span("probe.windowed", |tr| {
        let config = WindowedConfig::abstract_model(beb);
        trials::<WindowedSim>(
            tr,
            "windowed.trial",
            "scale",
            &config,
            100_000,
            window(seed, WINDOWED_TRIALS),
            attempts,
        );
    });
    tr.span("probe.noisy", |tr| {
        let config = NoisyConfig::abstract_model(beb, ChannelModel::softened(0.5));
        trials::<NoisySim>(
            tr,
            "noisy.trial",
            "perfbench-noisy",
            &config,
            10_000,
            window(seed, NOISY_TRIALS),
            attempts,
        );
    });
    tr.span("probe.mac", |tr| {
        let config = MacConfig::paper(beb, 64);
        trials::<MacSim>(
            tr,
            "mac.trial",
            "mac-64",
            &config,
            100,
            window(seed, MAC_TRIALS),
            |run| attempts(&run.metrics),
        );
    });
    tr.span("probe.dynamic", |tr| {
        let config = DynamicConfig::abstract_model(
            beb,
            ArrivalProcess::PoissonBursts {
                rate: 0.000_8,
                size: 60,
            },
        );
        trials::<DynamicSim>(
            tr,
            "dynamic.trial",
            "perfbench-dynamic",
            &config,
            0,
            window(seed, DYNAMIC_TRIALS),
            |m| m.offered,
        );
    });
    tr.span("probe.event_queue", |tr| {
        for i in 0..CHURN_PASSES {
            tr.span_work("event_queue.churn", |_| {
                (
                    (),
                    queue_churn(QUEUE_LIVE, seed.wrapping_mul(CHURN_PASSES).wrapping_add(i)),
                )
            });
        }
    });
    tr.span("probe.medium", |tr| {
        for i in 0..CHURN_PASSES {
            tr.span_work("medium.churn", |_| {
                medium_churn(
                    MEDIUM_PERIODS,
                    seed.wrapping_mul(CHURN_PASSES).wrapping_add(i),
                );
                ((), MEDIUM_PERIODS)
            });
        }
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    tr.span("probe.parallel", |tr| -> Result<(), String> {
        // One untimed pass warms the pool, the arenas and the caches; then
        // three timed (1-thread, nproc-thread) pairs.
        let timed_pairs = [(1, true), (nproc, true)].repeat(PARALLEL_PAIRS);
        for (threads, timed) in std::iter::once((nproc, false)).chain(timed_pairs) {
            let (name, base) = parallel_probe(workload);
            let opts = Options {
                threads: Some(threads),
                ..base
            };
            let entry = find_shardable(name).ok_or_else(|| format!("{name} is not shardable"))?;
            let sweep = || black_box((entry.cells)(&opts, &SweepHooks::none()));
            if timed {
                tr.span_work("engine.parallel", |_| (sweep(), threads as u64));
            } else {
                sweep();
            }
        }
        Ok(())
    })
}
