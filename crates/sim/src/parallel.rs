//! Deterministic parallel execution of independent work items.
//!
//! The paper ran its sweeps on four 16-core Xeon nodes; here the same
//! embarrassing parallelism is captured with `std::thread::scope` (stable
//! since Rust 1.63, so no crossbeam dependency). Work is claimed in
//! *batches*: a single atomic cursor hands each worker a contiguous index
//! range, so claiming costs one atomic op per `batch` items instead of one
//! per item, and nothing about the work list is materialized up front — the
//! caller maps indices to work on the fly (the engine derives the whole
//! `(algorithm, n, trial)` work item from the index arithmetically). Small
//! batches give near-perfect load balance when item costs vary by orders of
//! magnitude across `n` — exactly the shape of these sweeps; large batches
//! amortize scheduling for cheap items. Either way the caller routes results
//! by *index*, so output placement (and, because every trial derives its own
//! RNG from its index, every number) is independent of scheduling, thread
//! count and batch size.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default fixed batch size for callers that pin one (`--batch N` pins it
/// explicitly; `None` now means tapered claiming instead): aim for ~32
/// claims per worker, which keeps the cursor cold while preserving load
/// balance when per-item cost varies by orders of magnitude; capped so one
/// straggler batch can never serialize a large sweep.
pub fn auto_batch(total: usize, threads: usize) -> usize {
    (total / (threads.max(1) * 32)).clamp(1, 1024)
}

/// A tapered (guided self-scheduling) claim plan over `total` work items
/// with known (estimated) per-item costs.
///
/// Fixed-size batches are a compromise tuned blind: big batches amortize
/// cursor traffic but let one straggler batch of expensive items serialize
/// the join; small batches balance load but pay per-claim overhead on cheap
/// items. Tapering resolves the tension by sizing every claim off the
/// *remaining* estimated work: a claim targets `remaining / (2 × workers)`
/// worth of cost — large contiguous runs early (cheap scheduling), claims
/// shrinking toward a single item at the tail (no straggler can hold the
/// join for more than one item's cost beyond its peers). Costs are
/// estimates and only shape claim boundaries; which items run, and what
/// they compute, is untouched — so results stay bit-identical to any other
/// schedule as long as the caller routes results by index.
#[derive(Debug, Clone)]
pub struct TaperSchedule {
    /// Prefix sums of sanitized per-item costs; `prefix[i]` is the cost of
    /// items `[0, i)`, so `len = prefix.len() - 1`.
    prefix: Vec<f64>,
}

impl TaperSchedule {
    /// A plan over items with the given estimated costs, in execution
    /// order. Non-finite or negative costs are treated as zero (they can
    /// only mis-shape claim sizes, never break coverage: every claim takes
    /// at least one item).
    pub fn new(costs: &[f64]) -> TaperSchedule {
        let mut prefix = Vec::with_capacity(costs.len() + 1);
        let mut acc = 0.0f64;
        prefix.push(0.0);
        for &c in costs {
            if c.is_finite() && c > 0.0 {
                acc += c;
            }
            prefix.push(acc);
        }
        TaperSchedule { prefix }
    }

    /// A plan over `total` equal-cost items — what a sweep without a cost
    /// model uses; tapering still beats fixed batches on the tail.
    pub fn uniform(total: usize) -> TaperSchedule {
        TaperSchedule {
            prefix: (0..=total).map(|i| i as f64).collect(),
        }
    }

    /// Number of work items planned.
    pub fn len(&self) -> usize {
        self.prefix.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The exclusive end of a claim starting at `start`: enough items to
    /// cover `remaining cost / (2 × threads)`, always at least one.
    pub fn claim_end(&self, start: usize, threads: usize) -> usize {
        let total = self.len();
        debug_assert!(start < total);
        let remaining = self.prefix[total] - self.prefix[start];
        let goal = self.prefix[start] + remaining / (2 * threads.max(1)) as f64;
        // First index whose prefix reaches the goal = one past the last
        // item the claim needs. Zero-cost runs collapse to goal == start's
        // prefix; the clamp keeps every claim non-empty and in range.
        let end = self.prefix.partition_point(|&p| p < goal);
        end.clamp(start + 1, total)
    }
}

/// Runs `body` once on each of `threads` workers — on the persistent pool
/// when it is free, on freshly scoped threads otherwise. Both paths return
/// after every worker finishes and re-raise worker panics.
fn run_on_workers(threads: usize, body: &(dyn Fn() + Sync)) {
    if crate::pool::run(threads, body) {
        return;
    }
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(body);
        }
    });
}

/// Runs `work` over every index of `0..sched.len()`, claimed in tapered
/// (guided self-scheduling) contiguous ranges from an atomic cursor — the
/// cost-aware counterpart of [`parallel_for_batches`], with the same
/// routing contract: each index is visited exactly once, per-worker `state`
/// is built once per worker, and the caller must route results by index.
///
/// With `threads <= 1` the claims execute inline in order (identical claim
/// boundaries, no atomics), so the taper path itself is exercised on every
/// machine.
pub fn parallel_for_tapered<W, I, F>(sched: &TaperSchedule, threads: usize, init: I, work: F)
where
    I: Fn() -> W + Sync,
    F: Fn(Range<usize>, &mut W) + Sync,
{
    let total = sched.len();
    if total == 0 {
        return;
    }
    let threads = threads.max(1).min(total);
    if threads == 1 {
        let mut state = init();
        let mut start = 0;
        while start < total {
            let end = sched.claim_end(start, 1);
            work(start..end, &mut state);
            start = end;
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let body = || {
        let mut state = init();
        let mut start = next.load(Ordering::Relaxed);
        while start < total {
            let end = sched.claim_end(start, threads);
            // Claim via CAS — unlike a fixed-stride `fetch_add`, the claim
            // size depends on where the cursor actually is.
            match next.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    work(start..end, &mut state);
                    start = next.load(Ordering::Relaxed);
                }
                Err(current) => start = current,
            }
        }
    };
    run_on_workers(threads, &body);
}

/// Runs `work` over every contiguous batch of `0..total`, on up to
/// `threads` workers claiming `batch`-sized ranges from an atomic cursor.
///
/// Each worker owns a `state` built once by `init` and threaded through all
/// of its batches — the engine parks per-trial scratch arenas there, so a
/// million-trial sweep reuses `threads` arenas instead of allocating one per
/// trial. Per-worker state cannot affect results: the engine routes outputs
/// by index, and anything observable must be reset per item.
///
/// Each index in `0..total` is visited exactly once; with `threads <= 1`
/// the ranges are executed inline in order on a single state. A worker
/// panic propagates when the scope joins.
pub fn parallel_for_batches<W, I, F>(total: usize, threads: usize, batch: usize, init: I, work: F)
where
    I: Fn() -> W + Sync,
    F: Fn(Range<usize>, &mut W) + Sync,
{
    if total == 0 {
        return;
    }
    let threads = threads.max(1).min(total);
    // Clamp to `total` so `start + batch` cannot overflow for any caller
    // value (the CLI accepts arbitrary usize batches).
    let batch = batch.clamp(1, total);
    if threads == 1 {
        let mut state = init();
        let mut start = 0;
        while start < total {
            let end = (start + batch).min(total);
            work(start..end, &mut state);
            start = end;
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let body = || {
        let mut state = init();
        loop {
            let start = next.fetch_add(batch, Ordering::Relaxed);
            if start >= total {
                break;
            }
            work(start..(start + batch).min(total), &mut state);
        }
    };
    run_on_workers(threads, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    #[test]
    fn batches_cover_every_index_exactly_once() {
        for threads in [1usize, 2, 8] {
            for batch in [1usize, 3, 16, 1024] {
                let total = 1000;
                let hits: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
                parallel_for_batches(
                    total,
                    threads,
                    batch,
                    || (),
                    |range, _| {
                        for i in range {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    },
                );
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} batch={batch}: index visited != once"
                );
            }
        }
    }

    #[test]
    fn index_routed_results_are_schedule_independent() {
        // The engine's usage pattern in miniature: derive work from the
        // index, write the result at the index. Any schedule must produce
        // the same output vector.
        let compute = |i: usize| {
            // Skewed cost to exercise load balancing.
            let mut acc = i as u64;
            for _ in 0..(i % 97) * 100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let run = |threads: usize, batch: usize| -> Vec<u64> {
            let out = Mutex::new(vec![0u64; 500]);
            parallel_for_batches(
                500,
                threads,
                batch,
                || (),
                |range, _| {
                    let results: Vec<u64> = range.clone().map(compute).collect();
                    let mut out = out.lock().unwrap();
                    for (i, r) in range.zip(results) {
                        out[i] = r;
                    }
                },
            );
            out.into_inner().unwrap()
        };
        let golden = run(1, 1);
        for threads in [2usize, 8] {
            for batch in [1usize, 7, 64] {
                assert_eq!(
                    golden,
                    run(threads, batch),
                    "threads={threads} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn sequential_path_runs_in_order() {
        let seen = Mutex::new(Vec::new());
        parallel_for_batches(
            10,
            1,
            3,
            || (),
            |range, _| seen.lock().unwrap().extend(range),
        );
        assert_eq!(seen.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_total_is_a_noop() {
        parallel_for_batches(0, 4, 16, || (), |_, _| panic!("no work expected"));
    }

    #[test]
    fn batch_zero_is_clamped() {
        let count = AtomicUsize::new(0);
        parallel_for_batches(
            10,
            2,
            0,
            || (),
            |range, _| {
                count.fetch_add(range.len(), Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn huge_batch_does_not_overflow() {
        for threads in [1usize, 4] {
            let count = AtomicUsize::new(0);
            parallel_for_batches(
                10,
                threads,
                usize::MAX,
                || (),
                |range, _| {
                    count.fetch_add(range.len(), Ordering::Relaxed);
                },
            );
            assert_eq!(count.load(Ordering::Relaxed), 10, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_items() {
        let count = AtomicUsize::new(0);
        parallel_for_batches(
            3,
            64,
            1,
            || (),
            |range, _| {
                count.fetch_add(range.len(), Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn auto_batch_is_sane() {
        assert_eq!(auto_batch(0, 8), 1);
        assert_eq!(auto_batch(10, 8), 1);
        assert_eq!(auto_batch(1 << 20, 8), 1024); // capped
        assert!(auto_batch(10_000, 4) >= 1);
    }

    /// Costs with heavy items up front, junk values mixed in — the shape
    /// the engine feeds after heaviest-first ordering.
    fn skewed_costs(total: usize) -> Vec<f64> {
        (0..total)
            .map(|i| match i % 11 {
                0 => f64::NAN,
                1 => -3.0,
                2 => 0.0,
                _ => ((total - i) as f64).powi(2),
            })
            .collect()
    }

    #[test]
    fn tapered_claims_cover_every_index_exactly_once() {
        for threads in [1usize, 2, 8] {
            for costs in [skewed_costs(1000), vec![1.0; 1000], vec![0.0; 1000]] {
                let sched = TaperSchedule::new(&costs);
                assert_eq!(sched.len(), 1000);
                let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
                parallel_for_tapered(
                    &sched,
                    threads,
                    || (),
                    |range, _| {
                        for i in range {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    },
                );
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads}: index visited != once"
                );
            }
        }
    }

    #[test]
    fn tapered_results_match_fixed_batches() {
        // Same index-routed contract, so the output vector must equal the
        // fixed-batch runner's for any schedule.
        let compute = |i: usize| {
            let mut acc = i as u64;
            for _ in 0..(i % 97) * 100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let golden: Vec<u64> = (0..500).map(compute).collect();
        for threads in [1usize, 2, 8] {
            let out = Mutex::new(vec![0u64; 500]);
            let sched = TaperSchedule::new(&skewed_costs(500));
            parallel_for_tapered(
                &sched,
                threads,
                || (),
                |range, _| {
                    let results: Vec<u64> = range.clone().map(compute).collect();
                    let mut out = out.lock().unwrap();
                    for (i, r) in range.zip(results) {
                        out[i] = r;
                    }
                },
            );
            assert_eq!(golden, out.into_inner().unwrap(), "threads={threads}");
        }
    }

    #[test]
    fn taper_shrinks_toward_single_item_claims() {
        // Uniform costs, 2 workers: first claim takes total/4, and the
        // claim sequence decays to single items at the tail instead of
        // ending in one big straggler batch.
        let sched = TaperSchedule::uniform(1000);
        let mut sizes = Vec::new();
        let mut start = 0;
        while start < 1000 {
            let end = sched.claim_end(start, 2);
            sizes.push(end - start);
            start = end;
        }
        assert_eq!(sizes[0], 250);
        assert!(sizes.windows(2).all(|w| w[1] <= w[0]), "{sizes:?}");
        assert_eq!(*sizes.last().unwrap(), 1);
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn taper_claims_respect_cost_not_count() {
        // One huge item up front: the first claim must stop after it
        // rather than dragging half the item count along.
        let mut costs = vec![1.0; 100];
        costs[0] = 1_000_000.0;
        let sched = TaperSchedule::new(&costs);
        assert_eq!(sched.claim_end(0, 2), 1);
        // Past the spike, claims behave like the uniform tail.
        assert!(sched.claim_end(1, 2) > 2);
    }

    #[test]
    fn taper_zero_and_junk_costs_still_make_progress() {
        let sched = TaperSchedule::new(&[f64::NAN, 0.0, -1.0, f64::INFINITY]);
        let mut start = 0;
        let mut steps = 0;
        while start < sched.len() {
            let end = sched.claim_end(start, 8);
            assert!(end > start && end <= sched.len());
            start = end;
            steps += 1;
        }
        assert!((1..=4).contains(&steps));
    }

    #[test]
    fn empty_taper_schedule_is_a_noop() {
        let sched = TaperSchedule::new(&[]);
        assert!(sched.is_empty());
        parallel_for_tapered(&sched, 4, || (), |_, _| panic!("no work expected"));
    }
}
