//! Deterministic parallel execution of independent work items.
//!
//! The paper ran its sweeps on four 16-core Xeon nodes; here the same
//! embarrassing parallelism runs on the persistent [`pool`](crate::pool)
//! (or on scoped threads when the pool is taken). Workers claim contiguous
//! index ranges from one atomic cursor, and nothing about the work list is
//! materialized up front — the caller maps indices to work on the fly (the
//! engine derives the whole `(algorithm, n, trial)` work item from the
//! index arithmetically). Claims are *tapered* off the remaining estimated
//! work ([`TaperSchedule`]): long contiguous claims early, shrinking to one
//! item at the tail, which keeps load balanced when item costs vary by
//! orders of magnitude across `n` — exactly the shape of these sweeps. The
//! caller routes results by *index*, so output placement (and, because
//! every trial derives its own RNG from its index, every number) is
//! independent of scheduling, thread count and claim sizes.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A tapered (guided self-scheduling) claim plan over work items with known
/// (estimated) per-item costs.
///
/// Fixed-size claims are a compromise tuned blind: big ones amortize cursor
/// traffic but let one straggler claim of expensive items serialize the
/// join; small ones balance load but pay per-claim overhead on cheap items.
/// Tapering resolves the tension by sizing every claim off the *remaining*
/// estimated work: a claim targets `remaining / (2 × workers)` worth of
/// cost — large contiguous runs early (cheap scheduling), claims shrinking
/// toward a single item at the tail (no straggler can hold the join for
/// more than one item's cost beyond its peers). Costs are estimates and
/// only shape claim boundaries; which items run, and what they compute, is
/// untouched — so results stay bit-identical to any other schedule as long
/// as the caller routes results by index.
///
/// The plan is stored per *run* of equal-cost items, never per item: a
/// dense sweep is one run per grid cell, so a million-trial cell costs one
/// entry and a claim is two binary searches over the runs.
#[derive(Debug, Clone, Default)]
pub struct TaperSchedule {
    /// Runs of equal-cost items in execution order; neighbours differ in
    /// cost.
    runs: Vec<Run>,
    /// Number of items planned.
    len: usize,
    /// Estimated cost of all items.
    total: f64,
}

/// The items from `start` up to the next run's start, each costing `unit`;
/// `before` is the cost of every item ahead of `start`.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    before: f64,
    unit: f64,
}

impl TaperSchedule {
    /// A plan over `(cost per item, item count)` runs, in execution order;
    /// neighbouring runs of equal cost coalesce. Non-finite or negative
    /// costs are treated as zero (they can only mis-shape claim sizes, never
    /// break coverage: every claim takes at least one item).
    pub fn new(runs: impl IntoIterator<Item = (f64, usize)>) -> TaperSchedule {
        let mut sched = TaperSchedule::default();
        for (cost, count) in runs {
            if count == 0 {
                continue;
            }
            let unit = if cost.is_finite() && cost > 0.0 {
                cost
            } else {
                0.0
            };
            if sched.runs.last().is_none_or(|run| run.unit != unit) {
                sched.runs.push(Run {
                    start: sched.len,
                    before: sched.total,
                    unit,
                });
            }
            sched.len += count;
            sched.total = sched.cost_before(sched.len);
        }
        sched
    }

    /// Number of work items planned.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Estimated cost of items `[0, i)`, for a non-empty plan and
    /// `i <= len`.
    fn cost_before(&self, i: usize) -> f64 {
        let run = self.runs[self.runs.partition_point(|run| run.start <= i) - 1];
        run.before + (i - run.start) as f64 * run.unit
    }

    /// The exclusive end of a claim starting at `start`: enough items to
    /// cover `remaining cost / (2 × threads)`, always at least one.
    pub fn claim_end(&self, start: usize, threads: usize) -> usize {
        debug_assert!(start < self.len);
        let at = self.cost_before(start);
        let goal = at + (self.total - at) / (2 * threads.max(1)) as f64;
        // The claim ends at the first index whose cost prefix reaches the
        // goal. That index lies in the last run starting below the goal;
        // zero-cost stretches collapse to goal == start's prefix, and the
        // clamp keeps every claim non-empty and in range.
        let next = self.runs.partition_point(|run| run.before < goal);
        let Some(run) = next.checked_sub(1).map(|r| self.runs[r]) else {
            return start + 1;
        };
        let count = self.runs.get(next).map_or(self.len, |next| next.start) - run.start;
        // The first k with `before + k × unit ≥ goal`. This is exact
        // wherever a per-item prefix sum would be (e.g. integer costs);
        // elsewhere rounding can only nudge a claim boundary. A zero-cost
        // last run divides to +∞ and saturates to its end.
        let k = ((goal - run.before) / run.unit).ceil() as usize;
        (run.start + k.min(count)).clamp(start + 1, self.len)
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
/// (guided self-scheduling) contiguous ranges from an atomic cursor on up
/// to `threads` workers. Each index is visited exactly once, and the caller
/// must route results by index.
///
/// Each worker owns a `state` built once by `init` and threaded through all
/// of its claims — the engine parks per-trial scratch arenas there, so a
/// million-trial sweep reuses `threads` arenas instead of allocating one per
/// trial. Per-worker state cannot affect results: anything observable must
/// be reset per item.
///
/// With `threads <= 1` the claims execute inline in order on one state (no
/// atomics), which also gives a fixed claim order for profiling. A worker
/// panic propagates to the caller after the join.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    /// Per-item costs with heavy items up front and junk values mixed in —
    /// the shape the engine feeds after heaviest-first ordering.
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

    /// A plan with one run per item.
    fn per_item(costs: &[f64]) -> TaperSchedule {
        TaperSchedule::new(costs.iter().map(|&c| (c, 1)))
    }

    /// Every claim boundary from index 0 to the end of the plan.
    fn claims(sched: &TaperSchedule, threads: usize) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut start = 0;
        while start < sched.len() {
            let end = sched.claim_end(start, threads);
            assert!(end > start && end <= sched.len(), "claim {start}..{end}");
            ends.push(end);
            start = end;
        }
        ends
    }

    #[test]
    fn tapered_claims_cover_every_index_exactly_once() {
        for threads in [1usize, 2, 8, 64] {
            for costs in [skewed_costs(1000), vec![1.0; 1000], vec![0.0; 1000]] {
                let sched = per_item(&costs);
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
    fn tapered_results_are_schedule_independent() {
        // The engine's usage pattern in miniature: derive work from the
        // index, write the result at the index. Any schedule must produce
        // the same output vector as a plain loop.
        let compute = |i: usize| {
            // Skewed cost to exercise load balancing.
            let mut acc = i as u64;
            for _ in 0..(i % 97) * 100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let golden: Vec<u64> = (0..500).map(compute).collect();
        for threads in [1usize, 2, 8] {
            for sched in [
                per_item(&skewed_costs(500)),
                TaperSchedule::new([(1.0, 500)]),
            ] {
                let out = Mutex::new(vec![0u64; 500]);
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
    }

    #[test]
    fn sequential_path_runs_in_order_on_one_state() {
        let seen = Mutex::new(Vec::new());
        let states = AtomicUsize::new(0);
        parallel_for_tapered(
            &TaperSchedule::new([(1.0, 10)]),
            1,
            || states.fetch_add(1, Ordering::Relaxed),
            |range, _| seen.lock().unwrap().extend(range),
        );
        assert_eq!(seen.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
        assert_eq!(states.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn more_threads_than_items() {
        let count = AtomicUsize::new(0);
        parallel_for_tapered(
            &TaperSchedule::new([(1.0, 3)]),
            64,
            || (),
            |range, _| {
                count.fetch_add(range.len(), Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn taper_shrinks_toward_single_item_claims() {
        // Uniform costs, 2 workers: first claim takes total/4, and the
        // claim sequence decays to single items at the tail instead of
        // ending in one big straggler claim.
        let sched = TaperSchedule::new([(1.0, 1000)]);
        let ends = claims(&sched, 2);
        let sizes: Vec<usize> = std::iter::once(ends[0])
            .chain(ends.windows(2).map(|w| w[1] - w[0]))
            .collect();
        assert_eq!(sizes[0], 250);
        assert!(sizes.windows(2).all(|w| w[1] <= w[0]), "{sizes:?}");
        assert_eq!(*sizes.last().unwrap(), 1);
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn taper_claims_respect_cost_not_count() {
        // One huge item up front: the first claim must stop after it
        // rather than dragging half the item count along.
        let sched = TaperSchedule::new([(1_000_000.0, 1), (1.0, 99)]);
        assert_eq!(sched.claim_end(0, 2), 1);
        // Past the spike, claims behave like the uniform tail.
        assert!(sched.claim_end(1, 2) > 2);
    }

    #[test]
    fn taper_zero_and_junk_costs_still_make_progress() {
        let sched = per_item(&[f64::NAN, 0.0, -1.0, f64::INFINITY]);
        assert!((1..=4).contains(&claims(&sched, 8).len()));
    }

    #[test]
    fn empty_taper_schedule_is_a_noop() {
        let sched = TaperSchedule::new([(1.0, 0), (2.0, 0)]);
        assert!(sched.is_empty());
        parallel_for_tapered(&sched, 4, || (), |_, _| panic!("no work expected"));
    }

    #[test]
    fn billion_item_plan_is_three_runs_and_tiles_exactly() {
        // Neighbouring equal-cost runs coalesce, so four inputs are three
        // runs; nothing is allocated per item.
        let sched = TaperSchedule::new([
            (4.0, 300_000_000),
            (0.0, 200_000_000),
            (1.0, 250_000_000),
            (1.0, 250_000_000),
        ]);
        assert_eq!(sched.runs.len(), 3);
        assert_eq!(sched.len(), 1_000_000_000);
        assert_eq!(sched.total, 1.7e9);
        for threads in [1usize, 8] {
            let ends = claims(&sched, threads);
            assert_eq!(*ends.last().unwrap(), 1_000_000_000, "threads={threads}");
            // Geometric taper: a few hundred claims, not a billion.
            assert!(
                ends.len() < 1_000,
                "threads={threads}: {} claims",
                ends.len()
            );
        }
    }

    /// The per-item reference the run-length plan replaces: a full prefix
    /// sum and a binary search over it.
    fn reference_claim_end(prefix: &[f64], start: usize, threads: usize) -> usize {
        let total = prefix.len() - 1;
        let goal = prefix[start] + (prefix[total] - prefix[start]) / (2 * threads) as f64;
        prefix
            .partition_point(|&p| p < goal)
            .clamp(start + 1, total)
    }

    #[test]
    fn claims_match_a_per_item_prefix_on_integer_costs() {
        // Integer costs keep every prefix exact in both plans, so the claim
        // boundaries must agree from every start, not just along one path.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        // The fixed plan puts a claim goal exactly on a run boundary (from
        // 0 at one thread the goal is 4, the cost before the second run).
        let mut plans = vec![vec![(2.0, 2), (1.0, 4)]];
        plans.extend((0..40).map(|_| {
            (0..1 + next(8))
                .map(|_| {
                    let cost = match next(6) {
                        0 => 0.0,
                        1 => f64::NAN,
                        2 => -2.0,
                        3 => (1 + next(1 << 30)) as f64,
                        _ => (1 + next(1000)) as f64,
                    };
                    (cost, next(60) as usize)
                })
                .collect()
        }));
        for runs in plans {
            let mut prefix = vec![0.0];
            for &(cost, count) in &runs {
                let unit = if cost.is_finite() && cost > 0.0 {
                    cost
                } else {
                    0.0
                };
                for _ in 0..count {
                    prefix.push(prefix.last().unwrap() + unit);
                }
            }
            let sched = TaperSchedule::new(runs.iter().copied());
            assert_eq!(sched.len(), prefix.len() - 1);
            for threads in [1usize, 2, 3, 8] {
                for start in 0..sched.len() {
                    assert_eq!(
                        sched.claim_end(start, threads),
                        reference_claim_end(&prefix, start, threads),
                        "runs {runs:?}, start {start}, threads {threads}"
                    );
                }
            }
        }
    }
}
